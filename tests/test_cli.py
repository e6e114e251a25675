import ctypes
import hashlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from pde_lab import cli, fileio
from pde_lab import model as emodel
from pde_lab.fileio import Trajectory


def run(*argv):
    return cli.main([str(a) for a in argv])


def simulate_ks(out, **overrides):
    argv = ["simulate", "ks", "--L", 22.0, "--snapshots", 6, "--interval", 0.5,
            "--warmup", 5.0, "--out", out]
    for key, value in overrides.items():
        argv += ["--" + key.replace("_", "-"), value]
    assert run(*argv) == 0
    return out


def pretrain_tiny(data, out, **overrides):
    argv = ["pretrain", "--data", data, "--out", out, "--epochs", 2,
            "--blocks", 1, "--channels", 8, "--window", 5]
    for key, value in overrides.items():
        argv += ["--" + key.replace("_", "-"), value]
    assert run(*argv) == 0
    return out


def jet_frames(sequence, n_points=64):
    y = np.arange(n_points) * (2.0 * np.pi / n_points)
    return np.stack([np.sin(c * y) if c else np.zeros(n_points) for c in sequence])


class TestParsing:
    def test_no_command_exits_2(self):
        with pytest.raises(SystemExit) as excinfo:
            run()
        assert excinfo.value.code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["--help"],
            ["simulate", "--help"],
            ["simulate", "ks", "--help"],
            ["pretrain", "--help"],
            ["evaluate", "pdf", "--help"],
            ["inspect", "--help"],
        ],
    )
    def test_help_exits_0(self, argv):
        with pytest.raises(SystemExit) as excinfo:
            run(*argv)
        assert excinfo.value.code == 0

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            run("--version")
        assert excinfo.value.code == 0
        assert "pde-lab" in capsys.readouterr().out

    def test_unknown_flag_exits_2(self):
        with pytest.raises(SystemExit) as excinfo:
            run("simulate", "ks", "--L", "22", "--wibble", "3")
        assert excinfo.value.code == 2

    def test_missing_required_returns_2(self, capsys):
        assert run("simulate", "ks", "--L", "22") == 2
        err = capsys.readouterr().err
        assert "usage error" in err
        assert "--snapshots" in err and "--out" in err

    def test_missing_input_file_returns_1(self, tmp_path, capsys):
        code = run("rollout", "--model", tmp_path / "no.npec", "--init",
                   tmp_path / "no.pdet", "--steps", 3, "--out", tmp_path / "o.pdet")
        assert code == 1
        assert "error" in capsys.readouterr().err


class TestThreads:
    def test_flag_wins(self, tmp_path, monkeypatch):
        monkeypatch.setenv("PDE_LAB_THREADS", "7")
        out = simulate_ks(tmp_path / "a.pdet", threads=2)
        manifest = json.loads((tmp_path / "a.pdet.manifest.json").read_text())
        assert manifest["threads"] == 2

    def test_env_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv("PDE_LAB_THREADS", "3")
        simulate_ks(tmp_path / "a.pdet")
        manifest = json.loads((tmp_path / "a.pdet.manifest.json").read_text())
        assert manifest["threads"] == 3

    def test_default_is_one(self, tmp_path, monkeypatch):
        monkeypatch.delenv("PDE_LAB_THREADS", raising=False)
        simulate_ks(tmp_path / "a.pdet")
        manifest = json.loads((tmp_path / "a.pdet.manifest.json").read_text())
        assert manifest["threads"] == 1

    def test_bad_values_rejected(self, tmp_path, monkeypatch, capsys):
        monkeypatch.delenv("PDE_LAB_THREADS", raising=False)
        assert run("simulate", "ks", "--L", 22, "--snapshots", 2, "--warmup", 1,
                   "--out", tmp_path / "x.pdet", "--threads", 0) == 1
        monkeypatch.setenv("PDE_LAB_THREADS", "many")
        assert run("simulate", "ks", "--L", 22, "--snapshots", 2, "--warmup", 1,
                   "--out", tmp_path / "x.pdet") == 1


class TestConfigFile:
    def test_flags_beat_config_beat_defaults(self, tmp_path):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"L": 36.0, "snapshots": 4, "warmup": 2.0}))
        out = tmp_path / "t.pdet"
        assert run("simulate", "ks", "--config", config, "--L", 22.0,
                   "--interval", 0.5, "--out", out) == 0
        manifest = json.loads((tmp_path / "t.pdet.manifest.json").read_text())
        assert manifest["options"]["L"] == 22.0  # flag beats config
        assert manifest["options"]["snapshots"] == 4  # config beats default
        assert manifest["options"]["dt"] == 2.5e-2  # untouched default

    def test_unknown_key_rejected(self, tmp_path, capsys):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"length": 22.0}))
        assert run("simulate", "ks", "--config", config, "--L", 22, "--snapshots", 2,
                   "--out", tmp_path / "t.pdet") == 1
        assert "unknown keys" in capsys.readouterr().err

    def test_malformed_config(self, tmp_path):
        config = tmp_path / "run.json"
        config.write_text("not json")
        assert run("simulate", "ks", "--config", config, "--L", 22, "--snapshots", 2,
                   "--out", tmp_path / "t.pdet") == 1
        config.write_text(json.dumps([1, 2]))
        assert run("simulate", "ks", "--config", config, "--L", 22, "--snapshots", 2,
                   "--out", tmp_path / "t.pdet") == 1


class TestManifest:
    def test_contents(self, tmp_path):
        out = simulate_ks(tmp_path / "t.pdet", seed=3)
        manifest = json.loads((tmp_path / "t.pdet.manifest.json").read_text())
        assert manifest["tool"] == "pde-lab"
        assert manifest["command"] == "simulate ks"
        assert manifest["seed"] == 3
        assert manifest["outputs"] == [str(out)]
        assert manifest["inputs"] == {}
        assert "created" in manifest

    def test_input_hashes(self, tmp_path):
        data = simulate_ks(tmp_path / "t.pdet")
        ck = pretrain_tiny(data, tmp_path / "m.npec")
        manifest = json.loads((tmp_path / "m.npec.manifest.json").read_text())
        expected = hashlib.sha256((tmp_path / "t.pdet").read_bytes()).hexdigest()
        assert manifest["inputs"][str(data)] == "sha256:" + expected
        assert str(ck) in manifest["outputs"]

    def test_simulation_is_deterministic(self, tmp_path):
        a = simulate_ks(tmp_path / "a.pdet")
        b = simulate_ks(tmp_path / "b.pdet")
        assert (tmp_path / "a.pdet").read_bytes() == (tmp_path / "b.pdet").read_bytes()


class TestSimulate:
    def test_ks_output(self, tmp_path, capsys):
        out = simulate_ks(tmp_path / "t.pdet")
        assert "wrote" in capsys.readouterr().out
        traj = fileio.read_trajectory(out)
        assert traj.frames.shape == (6, 56)
        assert traj.metadata["equation"] == "ks"
        assert traj.metadata["domain_length"] == 22.0

    def test_beta_with_saved_state(self, tmp_path):
        out = tmp_path / "b.pdet"
        state = tmp_path / "b.state.pdet"
        assert run("simulate", "beta", "--beta", 0.5, "--n", 32, "--kf", 8,
                   "--snapshots", 3, "--interval", 0.4, "--warmup", 2.0,
                   "--save-state", state, "--out", out) == 0
        traj = fileio.read_trajectory(out)
        assert traj.frames.shape == (3, 32)
        assert traj.metadata["field"] == "zonal_velocity"
        saved = fileio.read_trajectory(state)
        assert saved.frames.shape == (1, 32, 32)
        assert saved.metadata["field"] == "zeta"
        assert saved.metadata["beta"] == 0.5
        manifest = json.loads((tmp_path / "b.pdet.manifest.json").read_text())
        assert str(state) in manifest["outputs"]


class TestTrainingCommands:
    def test_pretrain_writes_checkpoint_and_metrics(self, tmp_path, capsys):
        data = simulate_ks(tmp_path / "t.pdet")
        ck = pretrain_tiny(data, tmp_path / "m.npec")
        assert "parameters" in capsys.readouterr().out
        params = emodel.load_checkpoint(ck)
        assert params.config.n_blocks == 1
        assert params.config.equation == "ks"
        assert params.norm_std > 0
        metrics = (tmp_path / "m.metrics.csv").read_text().splitlines()
        assert metrics[0] == "epoch,phase,train_loss,val_loss"
        assert len(metrics) == 3

    def test_conditioning_from_metadata(self, tmp_path):
        data = simulate_ks(tmp_path / "t.pdet")
        pretrain_tiny(data, tmp_path / "m.npec")
        manifest = json.loads((tmp_path / "m.npec.manifest.json").read_text())
        assert manifest["options"]["cond"] is None  # resolved downstream from metadata

    def test_finetune_round_trip(self, tmp_path):
        data = simulate_ks(tmp_path / "t.pdet")
        ck = pretrain_tiny(data, tmp_path / "m.npec")
        out = tmp_path / "f.npec"
        assert run("finetune", "--data", data, "--checkpoint", ck, "--out", out,
                   "--loss", "mse", "--epochs", 1) == 0
        tuned = emodel.load_checkpoint(out)
        base = emodel.load_checkpoint(ck)
        assert tuned.norm_mean == base.norm_mean
        assert not np.array_equal(tuned.blocks[0].cond_weight, base.blocks[0].cond_weight)

    def test_zero_epoch_finetune_preserves_parameters(self, tmp_path):
        data = simulate_ks(tmp_path / "t.pdet")
        ck = pretrain_tiny(data, tmp_path / "m.npec")
        out = tmp_path / "f.npec"
        assert run("finetune", "--data", data, "--checkpoint", ck, "--out", out,
                   "--loss", "mse", "--epochs", 0) == 0
        base = emodel.load_checkpoint(ck)
        tuned = emodel.load_checkpoint(out)
        for (name, a), (_, b) in zip(
            emodel.named_parameters(base), emodel.named_parameters(tuned)
        ):
            np.testing.assert_array_equal(a, b, err_msg=name)


class TestRollout:
    def test_rollout_and_start_offset(self, tmp_path):
        data = simulate_ks(tmp_path / "t.pdet")
        ck = pretrain_tiny(data, tmp_path / "m.npec")
        out = tmp_path / "r.pdet"
        assert run("rollout", "--model", ck, "--init", data, "--start", 2,
                   "--steps", 3, "--out", out) == 0
        traj = fileio.read_trajectory(out)
        assert traj.frames.shape == (3, 56)
        assert traj.metadata["kind"] == "rollout"
        assert traj.metadata["domain_length"] == 22.0

    def test_start_out_of_range(self, tmp_path, capsys):
        data = simulate_ks(tmp_path / "t.pdet")
        ck = pretrain_tiny(data, tmp_path / "m.npec")
        assert run("rollout", "--model", ck, "--init", data, "--start", 5,
                   "--steps", 3, "--out", tmp_path / "r.pdet") == 1
        assert "leaves no room" in capsys.readouterr().err


class TestEvaluate:
    def test_pdf_summary_and_histograms(self, tmp_path, capsys):
        data = simulate_ks(tmp_path / "t.pdet")
        ck = pretrain_tiny(data, tmp_path / "m.npec")
        out = tmp_path / "pdf.csv"
        assert run("evaluate", "pdf", "--truth", data, "--model", ck,
                   "--bins", 16, "--hist-out", tmp_path / "h", "--out", out) == 0
        assert "hellinger" in capsys.readouterr().out
        rows = dict(
            line.split(",")[:2] for line in out.read_text().splitlines()[1:]
        )
        assert 0.0 <= float(rows["hellinger"]) <= 1.0
        assert float(rows["conditioning"]) == 22.0
        assert (tmp_path / "h.truth.pdet").exists()
        assert (tmp_path / "h.model.pdet").exists()

    def test_psd_with_beta_alias(self, tmp_path):
        data = simulate_ks(tmp_path / "t.pdet")
        ck = pretrain_tiny(data, tmp_path / "m.npec")
        out = tmp_path / "psd.csv"
        assert run("evaluate", "psd", "--data", data, "--model", ck,
                   "--beta", 22.0, "--steps", 3, "--out", out) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "mode_index,psd_data,psd_model"
        assert len(lines) == 1 + 56 // 2 + 1

    def test_events_from_trajectory(self, tmp_path):
        traj = Trajectory(
            frames=jet_frames([2] * 8 + [3] * 8), snapshot_interval=0.5, t0=1.0
        )
        data = tmp_path / "jets.pdet"
        fileio.write_trajectory(data, traj)
        out = tmp_path / "events.csv"
        assert run("evaluate", "events", "--data", data, "--out", out) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "time,kind,count_before,count_after"
        assert lines[1] == "5,nucleation,2,3"

    def test_events_needs_data_or_state(self, tmp_path, capsys):
        assert run("evaluate", "events", "--out", tmp_path / "e.csv") == 2
        assert "usage error" in capsys.readouterr().err

    def test_events_ensemble_thread_invariance(self, tmp_path):
        state = tmp_path / "b.state.pdet"
        assert run("simulate", "beta", "--beta", 0.5, "--n", 32, "--kf", 8,
                   "--snapshots", 2, "--interval", 0.4, "--warmup", 1.2,
                   "--save-state", state, "--out", tmp_path / "b.pdet") == 0
        outs = []
        for threads in (1, 3):
            out = tmp_path / f"ev{threads}.csv"
            assert run("evaluate", "events", "--state", state, "--members", 3,
                       "--horizon", 4.0, "--bins", 4, "--debounce", 1,
                       "--threads", threads, "--out", out) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]
        lines = outs[0].decode().splitlines()
        assert lines[0] == "bin_left,bin_right,count"
        assert lines[-1].startswith("overflow,")
        total = sum(int(line.split(",")[2]) for line in lines[1:])
        assert total == 3

    def test_ensemble_mode_needs_members_and_horizon(self, tmp_path, capsys):
        state = tmp_path / "s.pdet"
        fileio.write_trajectory(
            state,
            Trajectory(frames=np.zeros((1, 8, 8)), snapshot_interval=1.0,
                       metadata={"field": "zeta"}),
        )
        assert run("evaluate", "events", "--state", state,
                   "--out", tmp_path / "e.csv") == 2
        assert "--members" in capsys.readouterr().err

    def test_state_must_be_vorticity(self, tmp_path, capsys):
        data = simulate_ks(tmp_path / "t.pdet")
        assert run("evaluate", "events", "--state", data, "--members", 2,
                   "--horizon", 2.0, "--out", tmp_path / "e.csv") == 1
        assert "vorticity" in capsys.readouterr().err

    def test_horizon_command(self, tmp_path):
        data = simulate_ks(tmp_path / "t.pdet")
        ck = pretrain_tiny(data, tmp_path / "m.npec")
        out = tmp_path / "h.csv"
        assert run("evaluate", "horizon", "--truth", data, "--model", ck,
                   "--lyapunov", 0.05, "--threshold", 0.0, "--out", out) == 0
        rows = dict(line.split(",") for line in out.read_text().splitlines()[1:])
        assert float(rows["tracking_horizon_lyapunov_times"]) == pytest.approx(0.5 * 0.05)

    def test_lyapunov_command(self, tmp_path, capsys):
        out = tmp_path / "lyap.csv"
        assert run("evaluate", "lyapunov", "--L", 22.0, "--total-time", 30.0,
                   "--renorm", 5.0, "--transient", 2, "--out", out) == 0
        rows = dict(line.split(",") for line in out.read_text().splitlines()[1:])
        assert np.isfinite(float(rows["lyapunov_exponent"]))
        assert "Lyapunov" in capsys.readouterr().out


RETENTION_PROBE = """
import resource
import numpy as np
from pde_lab import cli


def churn():
    arrays = [np.ones(2 * 1024 * 1024, dtype=np.float32) for _ in range(6)]
    del arrays


cli._keep_freed_memory()
churn()  # the first round faults the pages in
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(20):
    churn()
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


def _has_mallopt() -> bool:
    try:
        return hasattr(ctypes.CDLL(None), "mallopt")
    except (OSError, TypeError):
        return False


@pytest.mark.skipif(not _has_mallopt(), reason="libc has no mallopt")
def test_freed_memory_is_kept():
    """After a warm-up round, 20 more rounds of six 8 MiB arrays reuse their pages.

    With glibc's defaults the same loop faults in tens of thousands of pages.
    """
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run(
        [sys.executable, "-c", RETENTION_PROBE], capture_output=True, text=True, env=env, check=True,
        timeout=120,
    )
    assert int(out.stdout) < 1000


class TestInspect:
    def test_trajectory_header(self, tmp_path, capsys):
        data = simulate_ks(tmp_path / "t.pdet")
        capsys.readouterr()
        assert run("inspect", data) == 0
        info = json.loads(capsys.readouterr().out)
        assert info["container"] == "trajectory"
        assert info["payload_shape"] == [6, 56]
        assert info["metadata"]["equation"] == "ks"

    def test_checkpoint_header(self, tmp_path, capsys):
        data = simulate_ks(tmp_path / "t.pdet")
        ck = pretrain_tiny(data, tmp_path / "m.npec")
        capsys.readouterr()
        assert run("inspect", ck) == 0
        info = json.loads(capsys.readouterr().out)
        assert info["container"] == "checkpoint"
        assert info["architecture"]["n_blocks"] == 1
        assert info["parameter_count"] == 861  # 1 block, 8 channels, window 5

    def test_garbage_file(self, tmp_path, capsys):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"PDETX nonsense")
        assert run("inspect", path) == 1
        assert "error" in capsys.readouterr().err
