"""The benchmark's three workloads, their exact work counts and their checks.

Each workload drives the program the way a user does, through
``pde_lab.cli.main`` with the README's subcommands, so manifests and
container I/O sit in the measured path.  A workload has a set-up that writes
its inputs, a round of timed stages that can be repeated, and checks that run
after the timed rounds.  Every count of work behind a throughput (samples,
solver steps, member-steps) is computed here from the inputs, never read back
from the program.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import math
import statistics
import time
import zlib
from pathlib import Path

import numpy as np

from pde_lab import beta_plane, cli, diagnostics, fileio, ks, spectral, training
from pde_lab import model as emodel
from pde_lab.errors import RolloutDivergedError
from tracer import PRIMITIVES


# The primitives of the attention chain in model.local_attention (transpose,
# reshape and matmul also appear elsewhere in the model).
ATTENTION_CHAIN = ("transpose_last2", "unfold_circular", "permute", "matmul", "reshape",
                   "softmax_lastaxis")


class StageFailed(Exception):
    """A timed stage could not complete; the run stops and reports failure."""


class Ledger:
    """Operations attempted and failed: CLI calls, ensemble members and checks."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def op(self, name: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(f"{name}: {detail}" if detail else name)
        return ok

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        return self.op(f"check {name}", bool(ok), detail)


class Context:
    """The run's ledger and the log that takes the program's chatter."""

    def __init__(self, ledger: Ledger, log):
        self.ledger = ledger
        self.log = log

    def cli(self, *argv) -> float:
        """Run one subcommand in process with one thread; returns its seconds."""
        argv = [str(a) for a in argv] + ["--threads", "1"]
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(self.log):
            code = cli.main(argv)
        elapsed = time.perf_counter() - t0
        if not self.ledger.op("pde-lab " + " ".join(argv[:2]), code == 0, f"exit code {code}"):
            raise StageFailed(f"pde-lab {' '.join(argv)} exited with {code}")
        return elapsed


def derive_seeds(workload: str, seed: int, names: tuple[str, ...]) -> dict[str, int]:
    """Independent program seeds derived from the workload seed (any integer)."""
    entropy = [seed % 2**64, zlib.crc32(workload.encode())]
    state = np.random.SeedSequence(entropy).generate_state(len(names))
    return {name: int(value) for name, value in zip(names, state)}


def file_digest(*paths) -> str:
    digest = hashlib.sha256()
    for path in paths:
        digest.update(Path(path).read_bytes())
    return digest.hexdigest()


def read_rows(path) -> list[list[str]]:
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def ks_steps(warmup: float, snapshots: int, dt: float = 2.5e-2, interval: float = 1.0) -> int:
    """ETDRK4 steps of ``simulate ks``: the warm-up plus the snapshot gaps."""
    return round(warmup / dt) + (snapshots - 1) * round(interval / dt)


def split_sizes(n_frames: int, history: int, val_fraction: float = 0.05) -> tuple[int, int]:
    """Training and validation sample counts of one shard, as the trainer splits it."""
    n = n_frames - history
    n_val = math.floor(n * val_fraction)
    return n - n_val, n_val


class Workload:
    name = ""
    # Descriptive names of the three throughput slots, with their units.
    stage_names: tuple[tuple[str, str], ...] = ()
    # Layers whose traced call counts must all read zero on this workload.
    bypassed: tuple[str, ...] = ()
    # Program seeds, all derived from the workload seed.
    seed_names: tuple[str, ...] = ()

    def __init__(self, seed: int):
        self.seeds = derive_seeds(self.name, seed, self.seed_names)

    def setup(self, ctx: Context, directory: Path) -> str:
        """Write the inputs under ``directory``; returns a digest of them."""
        raise NotImplementedError

    def run_round(self, ctx: Context, inputs: Path, out: Path) -> dict:
        """One timed round; returns ``{slot: (work, seconds)}`` for the three slots."""
        raise NotImplementedError

    def fingerprint(self, out: Path) -> str:
        """Digest of the round's deterministic outputs (manifests carry timestamps)."""
        raise NotImplementedError

    def check(self, ctx: Context, inputs: Path, out: Path) -> None:
        raise NotImplementedError

    def expected_counts(self) -> tuple[dict, dict]:
        """Exact per-layer call counts of one set-up and of one round."""
        raise NotImplementedError

    def events_found_share(self, out: Path) -> float:
        """Ensemble members with an event before the horizon, over members."""
        return 0.0

    def baseline(self, steps: list[dict], m: dict) -> dict:
        """The ROADMAP baseline rows this workload covers, from its traced rounds."""
        raise NotImplementedError


# ---------------------------------------------------------------------------
# ks_train


class KSTrain(Workload):
    name = "ks_train"
    stage_names = (
        ("pretrain_samples_per_s", "1/s"),
        ("finetune_samples_per_s", "1/s"),
        ("train_samples_per_s", "1/s"),
    )
    bypassed = ("beta_plane",)
    seed_names = ("corpus22", "corpus36", "pretrain", "finetune")

    SNAPSHOTS = 250
    WARMUP = 100.0
    LENGTHS = (22.0, 36.0)
    HISTORY = 2
    PRETRAIN_EPOCHS = 10
    PRETRAIN_BATCH = 128
    FINETUNE_EPOCHS = 1
    # The default batch of 128 with 4 members records about 4.7 GB of tape at
    # D=90; 32 keeps the process near 1.3 GB on a shared machine.
    FINETUNE_BATCH = 32
    MEMBERS = 4
    # Final pretrain training loss after 10 epochs over workload seeds 0-22:
    # geometric mean 0.062, standard deviation of the log 0.43, range 0.020
    # to 0.124.  The band is the mean +-4 of those deviations.
    LOSS_REFERENCE = 0.062
    LOSS_BAND = (0.011, 0.35)

    def setup(self, ctx, directory):
        paths = []
        for length, key in zip(self.LENGTHS, ("corpus22", "corpus36")):
            path = directory / f"ks{int(length)}.pdet"
            ctx.cli("simulate", "ks", "--L", length, "--snapshots", self.SNAPSHOTS,
                    "--warmup", self.WARMUP, "--seed", self.seeds[key], "--out", path)
            paths.append(path)
        return file_digest(*paths)

    def run_round(self, ctx, inputs, out):
        corpora = [inputs / f"ks{int(length)}.pdet" for length in self.LENGTHS]
        t_pre = ctx.cli(
            "pretrain", "--data", corpora[0], "--blocks", 4, "--channels", 32, "--window", 9,
            "--history", self.HISTORY, "--batch", self.PRETRAIN_BATCH, "--probabilistic",
            "--epochs", self.PRETRAIN_EPOCHS, "--seed", self.seeds["pretrain"],
            "--out", out / "backbone.npec",
        )
        t_fine = ctx.cli(
            "finetune", "--checkpoint", out / "backbone.npec", "--data", corpora[0],
            "--data", corpora[1], "--loss", "crps_spectral", "--members", self.MEMBERS,
            "--batch", self.FINETUNE_BATCH, "--epochs", self.FINETUNE_EPOCHS,
            "--seed", self.seeds["finetune"], "--out", out / "tuned.npec",
        )
        pre, fine = self.samples()
        return {
            "stage1": (pre, t_pre),
            "stage2": (fine, t_fine),
            "stage3": (pre + fine, t_pre + t_fine),
        }

    def samples(self) -> tuple[int, int]:
        train, _ = split_sizes(self.SNAPSHOTS, self.HISTORY)
        return self.PRETRAIN_EPOCHS * train, self.FINETUNE_EPOCHS * train * len(self.LENGTHS)

    def fingerprint(self, out):
        return file_digest(out / "backbone.npec", out / "backbone.metrics.csv",
                           out / "tuned.npec", out / "tuned.metrics.csv")

    def check(self, ctx, inputs, out):
        losses = []
        for name in ("backbone.metrics.csv", "tuned.metrics.csv"):
            losses += [float(v) for row in read_rows(out / name)[1:] for v in row[2:4]]
        ctx.ledger.check("losses finite", all(math.isfinite(v) for v in losses))
        final = float(read_rows(out / "backbone.metrics.csv")[-1][2])
        lo, hi = self.LOSS_BAND
        ctx.ledger.check("final pretrain loss in band", lo <= final <= hi,
                         f"{final:.4g} outside [{lo}, {hi}] around {self.LOSS_REFERENCE}")
        loaded = emodel.load_checkpoint(out / "tuned.npec")
        emodel.save_checkpoint(out / "roundtrip.npec", loaded)
        reloaded = emodel.load_checkpoint(out / "roundtrip.npec")
        same = (out / "roundtrip.npec").read_bytes() == (out / "tuned.npec").read_bytes() and all(
            np.array_equal(a, b)
            for (_, a), (_, b) in zip(emodel.named_parameters(loaded),
                                      emodel.named_parameters(reloaded))
        )
        ctx.ledger.check("checkpoint round trip exact", same)

    def baseline(self, steps, m):
        def op_s(op):
            return m[f"autodiff.{op}.fwd_s"] + m[f"autodiff.{op}.bwd_s"]

        shape = (self.PRETRAIN_BATCH, self.HISTORY, ks.grid_points_for_length(self.LENGTHS[0]))
        full = [s for s in steps if s["batch_shape"] == shape]
        everything = sum(op_s(op) for op in PRIMITIVES)
        return {
            "train_step_b128_d56_fwd_ms": statistics.median(s["fwd_ns"] for s in full) / 1e6,
            "train_step_b128_d56_bwd_ms": statistics.median(s["bwd_ns"] for s in full) / 1e6,
            "pretrain_step_tape_nodes": full[0]["nodes"],
            "pretrain_step_float64_nodes": full[0]["float64_nodes"],
            "attention_chain_share_of_primitive_time":
                sum(op_s(op) for op in ATTENTION_CHAIN) / everything,
            "gelu_share_of_primitive_time": op_s("gelu") / everything,
        }

    def expected_counts(self):
        setup = {"ks.step.calls": sum(ks_steps(self.WARMUP, self.SNAPSHOTS) for _ in self.LENGTHS)}
        train, val = split_sizes(self.SNAPSHOTS, self.HISTORY)
        pre_train = math.ceil(train / self.PRETRAIN_BATCH)
        pre_val = math.ceil(val / self.PRETRAIN_BATCH)
        fine_train = len(self.LENGTHS) * math.ceil(train / self.FINETUNE_BATCH)
        fine_val = len(self.LENGTHS) * math.ceil(val / self.FINETUNE_BATCH)
        round_ = {
            "model.forward.calls": self.PRETRAIN_EPOCHS * (pre_train + pre_val)
            + self.FINETUNE_EPOCHS * self.MEMBERS * (fine_train + fine_val),
            "training.adam_step.calls": self.PRETRAIN_EPOCHS * pre_train
            + self.FINETUNE_EPOCHS * fine_train,
            "ks.step.calls": 0,
        }
        return setup, round_


# ---------------------------------------------------------------------------
# ks_evaluate


class KSEvaluate(Workload):
    name = "ks_evaluate"
    stage_names = (
        ("ks_steps_per_s", "1/s"),
        ("rollout_steps_per_s", "1/s"),
        ("ensemble_member_steps_per_s", "1/s"),
    )
    bypassed = ("beta_plane", "training")
    seed_names = ("reference", "checkpoint", "lyapunov", "ensemble")

    LENGTH = 22.0
    SNAPSHOTS = 300
    WARMUP = 100.0
    LYAPUNOV_TIME = 300.0
    LYAPUNOV_RENORM = 10.0
    LYAPUNOV_WARMUP = 500.0  # KSConfig's default; `evaluate lyapunov` has no flag for it
    PDF_STEPS = 1000
    MEMBERS = 8
    MEMBER_STEPS = 200
    # Leading exponent at L=22 over T=300, from twenty seeds: 0.025 to 0.071,
    # mean 0.047 (0.049 at T=500).
    LYAPUNOV_BAND = (0.01, 0.10)

    def __init__(self, seed: int):
        super().__init__(seed)
        self.members: list[np.ndarray] = []

    def _simulate_reference(self, ctx, path) -> float:
        return ctx.cli("simulate", "ks", "--L", self.LENGTH, "--snapshots", self.SNAPSHOTS,
                       "--warmup", self.WARMUP, "--seed", self.seeds["reference"], "--out", path)

    def setup(self, ctx, directory):
        # The checkpoint's weights do not change the compute cost, so a fresh
        # initialisation stands in for a trained model.  It carries the
        # reference's normalisation, which keeps its rollouts bounded.
        reference = directory / "reference.pdet"
        self._simulate_reference(ctx, reference)
        config = emodel.EmulatorConfig(n_blocks=4, channels=32, window=9, history=2,
                                       probabilistic=True, equation="ks")
        params = emodel.init_model(config, seed=self.seeds["checkpoint"])
        params.norm_mean, params.norm_std = training.normalization_stats(
            [fileio.read_trajectory(reference)]
        )
        emodel.save_checkpoint(directory / "model.npec", params)
        return file_digest(reference, directory / "model.npec")

    def run_round(self, ctx, inputs, out):
        model = inputs / "model.npec"
        reference = out / "reference.pdet"
        t_ks = self._simulate_reference(ctx, reference)
        t_ks += ctx.cli("evaluate", "lyapunov", "--L", self.LENGTH,
                        "--total-time", self.LYAPUNOV_TIME, "--renorm", self.LYAPUNOV_RENORM,
                        "--seed", self.seeds["lyapunov"], "--out", out / "lyapunov.csv")
        exponent = read_rows(out / "lyapunov.csv")[1][1]
        t_roll = ctx.cli("evaluate", "pdf", "--truth", reference, "--model", model,
                         "--steps", self.PDF_STEPS, "--mode", "deterministic",
                         "--out", out / "pdf.csv")
        t_roll += ctx.cli("evaluate", "horizon", "--truth", reference, "--model", model,
                          "--lyapunov", exponent, "--out", out / "horizon.csv")

        # The ensemble has no subcommand yet; it runs through the library's
        # member runner, one member at a time.
        t0 = time.perf_counter()
        params = emodel.load_checkpoint(model)
        truth = fileio.read_trajectory(reference)
        run_member = diagnostics.emulator_member_runner(
            params, truth.frames[: params.config.history], self.LENGTH, self.MEMBER_STEPS,
            base_seed=self.seeds["ensemble"],
        )
        self.members = []
        for i in range(self.MEMBERS):
            try:
                self.members.append(run_member(i).frames)
                ctx.ledger.op("ensemble member", True)
            except RolloutDivergedError as exc:
                ctx.ledger.op("ensemble member", False, str(exc))
        t_ens = time.perf_counter() - t0

        ks_work, roll_work = self.ks_and_rollout_steps()
        return {
            "stage1": (ks_work, t_ks),
            "stage2": (roll_work, t_roll),
            "stage3": (self.MEMBERS * self.MEMBER_STEPS, t_ens),
        }

    def ks_and_rollout_steps(self) -> tuple[int, int]:
        intervals = round(self.LYAPUNOV_TIME / self.LYAPUNOV_RENORM)
        lyapunov = ks_steps(self.LYAPUNOV_WARMUP, 1) + 2 * intervals * round(
            self.LYAPUNOV_RENORM / 2.5e-2
        )
        rollout = self.PDF_STEPS + (self.SNAPSHOTS - 2)
        return ks_steps(self.WARMUP, self.SNAPSHOTS) + lyapunov, rollout

    def fingerprint(self, out):
        digest = hashlib.sha256(file_digest(out / "reference.pdet", out / "lyapunov.csv",
                                            out / "pdf.csv", out / "horizon.csv").encode())
        for frames in self.members:
            digest.update(frames.tobytes())
        return digest.hexdigest()

    def check(self, ctx, inputs, out):
        ctx.ledger.check(
            "reference reproduces the set-up's",
            file_digest(out / "reference.pdet") == file_digest(inputs / "reference.pdet"),
        )
        distance = float(read_rows(out / "pdf.csv")[1][1])
        ctx.ledger.check("hellinger in [0, 1]", 0.0 <= distance <= 1.0, f"{distance}")
        exponent = float(read_rows(out / "lyapunov.csv")[1][1])
        lo, hi = self.LYAPUNOV_BAND
        ctx.ledger.check("lyapunov exponent in band", lo <= exponent <= hi,
                         f"{exponent:.4g} outside [{lo}, {hi}]")

    def baseline(self, steps, m):
        return {
            "ks_step_us_traced_median": m["ks.step_us"],
            "rollout_ms_per_step_traced":
                1e3 * m["diagnostics.rollout_s"] / m["model.predict.calls"],
            "gelu_share_of_predict_time": m["autodiff.gelu.fwd_s"] / m["model.predict_s"],
        }

    def expected_counts(self):
        ks_work, roll_work = self.ks_and_rollout_steps()
        forwards = roll_work + self.MEMBERS * self.MEMBER_STEPS
        setup = {"ks.step.calls": ks_steps(self.WARMUP, self.SNAPSHOTS), "model.forward.calls": 0}
        round_ = {"ks.step.calls": ks_work, "model.forward.calls": forwards,
                  "model.predict.calls": forwards}
        return setup, round_


# ---------------------------------------------------------------------------
# beta_events


class BetaEvents(Workload):
    name = "beta_events"
    stage_names = (
        ("beta_steps_per_s", "1/s"),
        ("beta_ensemble_member_steps_per_s", "1/s"),
        ("beta_all_steps_per_s", "1/s"),
    )
    bypassed = ("autodiff", "model", "training", "ks")
    seed_names = ("warmup", "spinup", "ensemble")

    BETA = 0.9
    DT = 4e-2
    N = 64
    SNAPSHOTS = 100
    WARMUP = 75.0
    SETUP_SNAPSHOTS = 2
    SETUP_WARMUP = 20.0
    MEMBERS = 8
    HORIZON = 20.0

    def _steps(self, warmup: float, snapshots: int) -> int:
        return round(warmup / self.DT) + (snapshots - 1) * round(1.0 / self.DT)

    def setup(self, ctx, directory):
        # Nothing to generate: a short spin-up warms the solver's caches and
        # the FFT machinery before timing.
        path = directory / "warm.pdet"
        ctx.cli("simulate", "beta", "--beta", self.BETA, "--n", self.N,
                "--snapshots", self.SETUP_SNAPSHOTS, "--warmup", self.SETUP_WARMUP,
                "--seed", self.seeds["warmup"], "--out", path)
        return file_digest(path)

    def run_round(self, ctx, inputs, out):
        t_spin = ctx.cli("simulate", "beta", "--beta", self.BETA, "--n", self.N,
                         "--snapshots", self.SNAPSHOTS, "--warmup", self.WARMUP,
                         "--seed", self.seeds["spinup"], "--save-state", out / "spun.pdet",
                         "--out", out / "zonal.pdet")
        ctx.cli("evaluate", "events", "--data", out / "zonal.pdet", "--out", out / "events.csv")
        t_ens = ctx.cli("evaluate", "events", "--state", out / "spun.pdet",
                        "--members", self.MEMBERS, "--horizon", self.HORIZON,
                        "--kind", "coalescence", "--seed", self.seeds["ensemble"],
                        "--out", out / "pdf_events.csv")
        spin, ens = self.solver_steps()
        return {
            "stage1": (spin, t_spin),
            "stage2": (ens, t_ens),
            "stage3": (spin + ens, t_spin + t_ens),
        }

    def solver_steps(self) -> tuple[int, int]:
        per_member = round(self.HORIZON) * round(1.0 / self.DT)
        return self._steps(self.WARMUP, self.SNAPSHOTS), self.MEMBERS * per_member

    def fingerprint(self, out):
        return file_digest(out / "zonal.pdet", out / "spun.pdet",
                           out / "events.csv", out / "pdf_events.csv")

    def events_found_share(self, out):
        rows = read_rows(out / "pdf_events.csv")[1:]
        return sum(int(row[2]) for row in rows if row[0] != "overflow") / self.MEMBERS

    def check(self, ctx, inputs, out):
        rows = read_rows(out / "pdf_events.csv")[1:]
        total = sum(int(row[2]) for row in rows)
        ctx.ledger.check("event counts plus overflow equal members", total == self.MEMBERS,
                         f"{total} != {self.MEMBERS}")
        state = fileio.read_trajectory(out / "spun.pdet")
        config = beta_plane.BetaConfig(beta=self.BETA, n_points=self.N, dt=self.DT)
        plan = beta_plane.make_beta_plan(config)
        modes = spectral.to_modes(state.frames[0].astype(np.float64), plan)
        energy = beta_plane.total_energy(modes, config, plan)
        ctx.ledger.check("energy finite and positive", math.isfinite(energy) and energy > 0,
                         f"{energy}")

    def baseline(self, steps, m):
        return {
            "beta_step_us_traced_median": m["beta_plane.step_us"],
            "beta_draw_forcing_us_traced_median": m["beta_plane.draw_forcing_us"],
        }

    def expected_counts(self):
        spin, ens = self.solver_steps()
        setup = {"beta_plane.step.calls": self._steps(self.SETUP_WARMUP, self.SETUP_SNAPSHOTS)}
        return setup, {"beta_plane.step.calls": spin + ens}


WORKLOADS = {w.name: w for w in (KSTrain, KSEvaluate, BetaEvents)}
