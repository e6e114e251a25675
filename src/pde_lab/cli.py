"""Subcommand front door tying data generation, training, and evaluation
into reproducible runs.

Every artifact-producing subcommand writes a JSON manifest next to its
primary output before the heavy work starts.  The manifest records the fully
resolved options, sha256 hashes of every input file, the seed, and the
output paths, so a rerun can be checked against the original bit for bit.
Options come from three sources, with flags winning over a JSON config
file, which wins over built-in defaults.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__, beta_plane, diagnostics, fileio, ks
from . import model as emodel
from . import spectral, training
from .errors import ConfigurationError, FormatError, PdeLabError


class UsageError(Exception):
    """Bad invocation that argparse cannot catch, e.g. a missing required option."""


# ---------------------------------------------------------------------------
# option resolution and manifests


def _load_config_file(path) -> dict:
    try:
        loaded = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ConfigurationError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(loaded, dict):
        raise ConfigurationError(f"config {path} must hold a JSON object")
    return loaded


def _resolve(args, defaults: dict, required: tuple[str, ...] = ()) -> dict:
    """Merge built-in defaults, the optional JSON config file, and flags.

    Flags win; a flag left at None falls back to the config file and then to
    the default.  Unknown config keys are rejected so typos do not silently
    revert to defaults.
    """
    options = dict(defaults)
    config_path = getattr(args, "config", None)
    if config_path:
        loaded = _load_config_file(config_path)
        unknown = sorted(set(loaded) - set(defaults))
        if unknown:
            raise ConfigurationError(
                f"config {config_path} has unknown keys: {', '.join(unknown)}"
            )
        options.update(loaded)
    for key in defaults:
        value = getattr(args, key, None)
        if value is not None:
            options[key] = value
    missing = [key for key in required if options[key] is None]
    if missing:
        flags = ", ".join("--" + key.replace("_", "-") for key in missing)
        raise UsageError(f"missing required option(s): {flags}")
    return options


def _sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def write_manifest(command: str, options: dict, inputs: list, outputs: list, threads: int):
    """Record the resolved run next to its primary output, before heavy work."""
    manifest = {
        "tool": "pde-lab",
        "version": __version__,
        "command": command,
        "options": {k: v for k, v in sorted(options.items())},
        "inputs": {str(p): "sha256:" + _sha256(p) for p in inputs},
        "outputs": [str(p) for p in outputs],
        "seed": options.get("seed"),
        "threads": threads,
        "created": datetime.now(timezone.utc).isoformat(timespec="seconds"),
    }
    path = Path(str(outputs[0]) + ".manifest.json")
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return path


def _trajectory_conditioning(traj: fileio.Trajectory) -> float:
    """Physical parameter a trajectory was generated at, from its metadata."""
    meta = traj.metadata
    equation = meta.get("equation")
    if equation == "ks" and "domain_length" in meta:
        return float(meta["domain_length"])
    if equation == "beta_plane" and "beta" in meta:
        return float(meta["beta"])
    raise ConfigurationError(
        "trajectory metadata does not identify a conditioning value; pass --cond"
    )


def _write_rows(path, header: list[str], rows: list[list]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


# ---------------------------------------------------------------------------
# simulate


_SIMULATE_KS_DEFAULTS = dict(
    L=None,
    n=None,
    snapshots=None,
    dt=2.5e-2,
    interval=1.0,
    warmup=500.0,
    seed=0,
    init_std=0.1,
    out=None,
)


def _cmd_simulate_ks(args) -> int:
    opt = _resolve(args, _SIMULATE_KS_DEFAULTS, required=("L", "snapshots", "out"))
    config = ks.KSConfig(
        domain_length=float(opt["L"]),
        n_points=None if opt["n"] is None else int(opt["n"]),
        dt=float(opt["dt"]),
        snapshot_interval=float(opt["interval"]),
        warmup_time=float(opt["warmup"]),
        seed=int(opt["seed"]),
        init_std=float(opt["init_std"]),
    )
    write_manifest("simulate ks", opt, [], [opt["out"]], args.threads)
    traj = ks.generate_dataset(config, int(opt["snapshots"]))
    fileio.write_trajectory(opt["out"], traj)
    print(f"wrote {opt['out']}: {traj.n_frames} frames of {traj.frame_shape}")
    return 0


_SIMULATE_BETA_DEFAULTS = dict(
    beta=None,
    mu=4e-2,
    epsilon=1e-4,
    kf=16,
    bandwidth=1.0,
    dt=4e-2,
    n=64,
    snapshots=None,
    interval=1.0,
    warmup=75.0,
    seed=0,
    save_state=None,
    out=None,
)


def _cmd_simulate_beta(args) -> int:
    opt = _resolve(args, _SIMULATE_BETA_DEFAULTS, required=("beta", "snapshots", "out"))
    config = beta_plane.BetaConfig(
        beta=float(opt["beta"]),
        mu=float(opt["mu"]),
        epsilon=float(opt["epsilon"]),
        forcing_wavenumber=int(opt["kf"]),
        forcing_bandwidth=float(opt["bandwidth"]),
        dt=float(opt["dt"]),
        n_points=int(opt["n"]),
        seed=int(opt["seed"]),
    )
    outputs = [opt["out"]] + ([opt["save_state"]] if opt["save_state"] else [])
    write_manifest("simulate beta", opt, [], outputs, args.threads)
    traj, state = beta_plane.generate_dataset(
        config,
        int(opt["snapshots"]),
        snapshot_interval=float(opt["interval"]),
        warmup=float(opt["warmup"]),
        return_state=True,
    )
    fileio.write_trajectory(opt["out"], traj)
    if opt["save_state"]:
        plan = beta_plane.make_beta_plan(config)
        zeta = spectral.to_values(state.zeta_modes, plan).astype(np.float32)
        metadata = dict(traj.metadata)
        metadata["field"] = "zeta"
        fileio.write_trajectory(
            opt["save_state"],
            fileio.Trajectory(
                frames=zeta[None],
                snapshot_interval=float(opt["interval"]),
                t0=state.time,
                metadata=metadata,
            ),
        )
    print(f"wrote {opt['out']}: {traj.n_frames} frames of {traj.frame_shape}")
    return 0


# ---------------------------------------------------------------------------
# training


def _load_shards(opt) -> tuple[list[fileio.Trajectory], list[float], list[str]]:
    paths = opt["data"] if isinstance(opt["data"], list) else [opt["data"]]
    trajectories = [fileio.read_trajectory(p) for p in paths]
    conds = opt["cond"]
    if conds is None:
        conds = [_trajectory_conditioning(t) for t in trajectories]
    else:
        conds = [float(c) for c in (conds if isinstance(conds, list) else [conds])]
        if len(conds) != len(trajectories):
            raise ConfigurationError(
                f"{len(conds)} conditioning values for {len(trajectories)} data files"
            )
    return trajectories, conds, [str(p) for p in paths]


_PRETRAIN_DEFAULTS = dict(
    data=None,
    cond=None,
    out=None,
    metrics=None,
    blocks=8,
    channels=64,
    window=9,
    history=2,
    cond_dim=1,
    probabilistic=False,
    gates=False,
    epochs=None,
    lr=None,
    batch=128,
    val_fraction=0.05,
    seed=0,
)


def _cmd_pretrain(args) -> int:
    opt = _resolve(args, _PRETRAIN_DEFAULTS, required=("data", "out", "epochs"))
    trajectories, conds, paths = _load_shards(opt)
    metrics_path = opt["metrics"] or str(Path(opt["out"]).with_suffix(".metrics.csv"))

    model_config = emodel.EmulatorConfig(
        n_blocks=int(opt["blocks"]),
        channels=int(opt["channels"]),
        window=int(opt["window"]),
        history=int(opt["history"]),
        cond_dim=int(opt["cond_dim"]),
        probabilistic=bool(opt["probabilistic"]),
        use_cond_gates=bool(opt["gates"]),
        equation=str(trajectories[0].metadata.get("equation", "")),
    )
    params = emodel.init_model(model_config, seed=int(opt["seed"]))
    sample_set = training.build_sample_set(trajectories, conds, model_config.history)
    train_config = training.TrainConfig(
        phase="pretrain",
        loss="mse",
        learning_rate=None if opt["lr"] is None else float(opt["lr"]),
        epochs=int(opt["epochs"]),
        batch_size=int(opt["batch"]),
        val_fraction=float(opt["val_fraction"]),
        seed=int(opt["seed"]),
    )
    write_manifest("pretrain", opt, paths, [opt["out"], metrics_path], args.threads)
    result = training.pretrain(params, sample_set, train_config, metrics_path=metrics_path)
    emodel.save_checkpoint(opt["out"], params)
    if result.history:
        last = result.history[-1]
        print(
            f"wrote {opt['out']}: {emodel.parameter_count(params)} parameters, "
            f"final train loss {last.train_loss:.6e}, val loss {last.val_loss:.6e}"
        )
    else:
        print(f"wrote {opt['out']}: {emodel.parameter_count(params)} parameters (no epochs)")
    return 0


_FINETUNE_DEFAULTS = dict(
    data=None,
    cond=None,
    checkpoint=None,
    out=None,
    metrics=None,
    loss="crps_spectral",
    epochs=None,
    lr=None,
    pretrain_lr=5e-4,
    members=4,
    spectral_weight=1.0,
    batch=128,
    val_fraction=0.05,
    seed=0,
)


def _cmd_finetune(args) -> int:
    opt = _resolve(args, _FINETUNE_DEFAULTS, required=("data", "checkpoint", "out", "epochs"))
    params = emodel.load_checkpoint(opt["checkpoint"])
    trajectories, conds, paths = _load_shards(opt)
    metrics_path = opt["metrics"] or str(Path(opt["out"]).with_suffix(".metrics.csv"))
    sample_set = training.build_sample_set(
        trajectories,
        conds,
        params.config.history,
        stats=(params.norm_mean, params.norm_std),
    )
    train_config = training.TrainConfig(
        phase="finetune",
        loss=str(opt["loss"]),
        learning_rate=None if opt["lr"] is None else float(opt["lr"]),
        epochs=int(opt["epochs"]),
        batch_size=int(opt["batch"]),
        ensemble_members=int(opt["members"]),
        spectral_weight=float(opt["spectral_weight"]),
        val_fraction=float(opt["val_fraction"]),
        seed=int(opt["seed"]),
    )
    inputs = [str(opt["checkpoint"])] + paths
    write_manifest("finetune", opt, inputs, [opt["out"], metrics_path], args.threads)
    result = training.finetune(
        params,
        sample_set,
        train_config,
        pretrain_learning_rate=float(opt["pretrain_lr"]),
        metrics_path=metrics_path,
    )
    emodel.save_checkpoint(opt["out"], params)
    if result.history:
        last = result.history[-1]
        print(f"wrote {opt['out']}: final train loss {last.train_loss:.6e}")
    else:
        print(f"wrote {opt['out']} (no epochs)")
    return 0


# ---------------------------------------------------------------------------
# rollout


_ROLLOUT_DEFAULTS = dict(
    model=None,
    init=None,
    start=0,
    steps=None,
    cond=None,
    mode=None,
    seed=0,
    cap=diagnostics.DEFAULT_ROLLOUT_CAP,
    out=None,
)


def _prepare_rollout(opt: dict, traj: fileio.Trajectory, start: int = 0, **extra):
    """Resolve a rollout of ``opt["model"]`` seeded from ``traj`` at frame ``start``.

    Loads the checkpoint and settles the seed window, the conditioning
    (``--cond`` or the trajectory's metadata) and the step count (``--steps``
    or the frames after the seed window).  Returns ``(run, cond, n_steps)``;
    ``run()`` calls :func:`diagnostics.rollout`, passing ``extra`` through, so
    a caller can write its manifest in between.
    """
    params = emodel.load_checkpoint(opt["model"])
    s = params.config.history
    if start < 0 or start + s > traj.n_frames:
        raise ConfigurationError(
            f"start {start} leaves no room for a {s}-frame history in "
            f"{traj.n_frames} frames"
        )
    n_steps = int(opt["steps"]) if opt["steps"] is not None else traj.n_frames - start - s
    cond = float(opt["cond"] if opt["cond"] is not None else _trajectory_conditioning(traj))

    def run() -> fileio.Trajectory:
        return diagnostics.rollout(
            params,
            traj.frames[start : start + s],
            cond,
            n_steps,
            snapshot_interval=traj.snapshot_interval,
            mode=opt["mode"],
            noise_seed=int(opt["seed"]),
            **extra,
        )

    return run, cond, n_steps


def _cmd_rollout(args) -> int:
    opt = _resolve(args, _ROLLOUT_DEFAULTS, required=("model", "init", "steps", "out"))
    init = fileio.read_trajectory(opt["init"])
    run, _, _ = _prepare_rollout(
        opt,
        init,
        start=int(opt["start"]),
        cap=float(opt["cap"]),
        metadata={"domain_length": init.metadata.get("domain_length")},
    )
    write_manifest(
        "rollout", opt, [str(opt["model"]), str(opt["init"])], [opt["out"]], args.threads
    )
    traj = run()
    fileio.write_trajectory(opt["out"], traj)
    print(f"wrote {opt['out']}: {traj.n_frames} frames of {traj.frame_shape}")
    return 0


# ---------------------------------------------------------------------------
# evaluate


_EVAL_PDF_DEFAULTS = dict(
    truth=None,
    model=None,
    cond=None,
    steps=None,
    bins=50,
    mode=None,
    seed=0,
    hist_out=None,
    out=None,
)


def _cmd_evaluate_pdf(args) -> int:
    opt = _resolve(args, _EVAL_PDF_DEFAULTS, required=("truth", "model", "out"))
    truth = fileio.read_trajectory(opt["truth"])
    run, cond, n_steps = _prepare_rollout(opt, truth)
    domain_length = truth.metadata.get("domain_length")
    write_manifest(
        "evaluate pdf", opt, [str(opt["truth"]), str(opt["model"])], [opt["out"]], args.threads
    )

    predicted = run()
    hist_truth = diagnostics.joint_pdf(truth, int(opt["bins"]), domain_length=domain_length)
    hist_model = diagnostics.joint_pdf(
        predicted, edges=hist_truth.edges, domain_length=domain_length
    )
    distance = diagnostics.hellinger(hist_truth, hist_model)

    if opt["hist_out"]:
        diagnostics.write_histogram(str(opt["hist_out"]) + ".truth.pdet", hist_truth)
        diagnostics.write_histogram(str(opt["hist_out"]) + ".model.pdet", hist_model)
    _write_rows(
        opt["out"],
        ["metric", "value"],
        [
            ["hellinger", f"{distance:.10e}"],
            ["conditioning", f"{cond:.10g}"],
            ["rollout_steps", n_steps],
            ["truth_samples", hist_truth.n_samples],
            ["model_samples", hist_model.n_samples],
        ],
    )
    print(f"hellinger distance: {distance:.6f}")
    return 0


_EVAL_PSD_DEFAULTS = dict(
    data=None,
    model=None,
    cond=None,
    steps=None,
    mode=None,
    seed=0,
    out=None,
)


def _cmd_evaluate_psd(args) -> int:
    opt = _resolve(args, _EVAL_PSD_DEFAULTS, required=("data", "out"))
    truth = fileio.read_trajectory(opt["data"])
    inputs = [str(opt["data"])]
    if opt["model"]:
        inputs.append(str(opt["model"]))
        run, _, _ = _prepare_rollout(opt, truth)
    write_manifest("evaluate psd", opt, inputs, [opt["out"]], args.threads)

    mode_index, psd_truth = diagnostics.zonal_psd(truth)
    header = ["mode_index", "psd_data"]
    columns = [psd_truth]
    if opt["model"]:
        _, psd_model = diagnostics.zonal_psd(run())
        header.append("psd_model")
        columns.append(psd_model)
    rows = [
        [int(k)] + [f"{col[i]:.10e}" for col in columns]
        for i, k in enumerate(mode_index)
    ]
    _write_rows(opt["out"], header, rows)
    print(f"wrote {opt['out']}: {len(rows)} spectral bins")
    return 0


_EVAL_EVENTS_DEFAULTS = dict(
    data=None,
    state=None,
    members=None,
    horizon=None,
    kind="coalescence",
    bins=20,
    interval=1.0,
    prominence=diagnostics.DEFAULT_JET_PROMINENCE,
    debounce=diagnostics.DEFAULT_DEBOUNCE,
    seed=0,
    out=None,
)


def _cmd_evaluate_events(args) -> int:
    opt = _resolve(args, _EVAL_EVENTS_DEFAULTS, required=("out",))
    if opt["state"] is not None:
        return _events_ensemble(args, opt)
    if opt["data"] is None:
        raise UsageError("evaluate events needs --data (event list) or --state (ensemble)")
    traj = fileio.read_trajectory(opt["data"])
    write_manifest("evaluate events", opt, [str(opt["data"])], [opt["out"]], args.threads)
    events = diagnostics.detect_events(
        traj, prominence=float(opt["prominence"]), debounce=int(opt["debounce"])
    )
    rows = [
        [f"{e.time:.10g}", e.kind, e.count_before, e.count_after] for e in events
    ]
    _write_rows(opt["out"], ["time", "kind", "count_before", "count_after"], rows)
    print(f"wrote {opt['out']}: {len(rows)} events")
    return 0


def _events_ensemble(args, opt) -> int:
    for key in ("members", "horizon"):
        if opt[key] is None:
            raise UsageError(f"ensemble mode needs --{key}")
    state_traj = fileio.read_trajectory(opt["state"])
    meta = state_traj.metadata
    if meta.get("field") != "zeta":
        raise ConfigurationError(
            f"{opt['state']} does not hold a saved vorticity state "
            "(generate one with simulate beta --save-state)"
        )
    config = beta_plane.BetaConfig(
        beta=float(meta["beta"]),
        mu=float(meta["mu"]),
        epsilon=float(meta["epsilon"]),
        forcing_wavenumber=int(meta["forcing_wavenumber"]),
        forcing_bandwidth=float(meta["forcing_bandwidth"]),
        dt=float(meta["dt"]),
        n_points=int(meta["n_points"]),
    )
    plan = beta_plane.make_beta_plan(config)
    zeta_modes = spectral.to_modes(state_traj.frames[0].astype(np.float64), plan)

    write_manifest("evaluate events", opt, [str(opt["state"])], [opt["out"]], args.threads)
    interval = float(opt["interval"])
    horizon = float(opt["horizon"])
    n_snapshots = int(round(horizon / interval)) + 1
    runner = diagnostics.solver_member_runner(
        config,
        zeta_modes,
        n_snapshots,
        snapshot_interval=interval,
        base_seed=int(opt["seed"]),
    )
    hist = diagnostics.event_time_pdf(
        runner,
        int(opt["members"]),
        horizon,
        kind=str(opt["kind"]),
        n_bins=int(opt["bins"]),
        prominence=float(opt["prominence"]),
        debounce=int(opt["debounce"]),
        threads=args.threads,
    )
    rows = [
        [f"{hist.edges[i]:.10g}", f"{hist.edges[i + 1]:.10g}", int(hist.counts[i])]
        for i in range(len(hist.counts))
    ]
    rows.append(["overflow", "", hist.overflow])
    _write_rows(opt["out"], ["bin_left", "bin_right", "count"], rows)
    print(
        f"wrote {opt['out']}: {int(hist.counts.sum())} of {hist.ensemble_size} members "
        f"saw a {opt['kind']} before t={horizon:g}"
    )
    return 0


_EVAL_HORIZON_DEFAULTS = dict(
    truth=None,
    model=None,
    cond=None,
    lyapunov=None,
    threshold=0.5,
    out=None,
)


def _cmd_evaluate_horizon(args) -> int:
    opt = _resolve(args, _EVAL_HORIZON_DEFAULTS, required=("truth", "model", "lyapunov", "out"))
    truth = fileio.read_trajectory(opt["truth"])
    params = emodel.load_checkpoint(opt["model"])
    cond = opt["cond"] if opt["cond"] is not None else _trajectory_conditioning(truth)
    write_manifest(
        "evaluate horizon",
        opt,
        [str(opt["truth"]), str(opt["model"])],
        [opt["out"]],
        args.threads,
    )
    horizon = diagnostics.tracking_horizon(
        params, truth, float(cond), float(opt["lyapunov"]), threshold=float(opt["threshold"])
    )
    _write_rows(
        opt["out"],
        ["metric", "value"],
        [
            ["tracking_horizon_lyapunov_times", f"{horizon:.10e}"],
            ["lyapunov_exponent", f"{float(opt['lyapunov']):.10e}"],
            ["threshold", f"{float(opt['threshold']):.10g}"],
        ],
    )
    print(f"tracking horizon: {horizon:.4f} Lyapunov times")
    return 0


_EVAL_LYAPUNOV_DEFAULTS = dict(
    L=None,
    n=None,
    dt=2.5e-2,
    seed=0,
    total_time=2000.0,
    renorm=10.0,
    transient=10,
    out=None,
)


def _cmd_evaluate_lyapunov(args) -> int:
    opt = _resolve(args, _EVAL_LYAPUNOV_DEFAULTS, required=("L", "out"))
    config = ks.KSConfig(
        domain_length=float(opt["L"]),
        n_points=None if opt["n"] is None else int(opt["n"]),
        dt=float(opt["dt"]),
        seed=int(opt["seed"]),
    )
    write_manifest("evaluate lyapunov", opt, [], [opt["out"]], args.threads)
    exponent = diagnostics.lyapunov_exponent(
        config,
        total_time=float(opt["total_time"]),
        renorm_interval=float(opt["renorm"]),
        transient_intervals=int(opt["transient"]),
    )
    _write_rows(
        opt["out"],
        ["metric", "value"],
        [
            ["lyapunov_exponent", f"{exponent:.10e}"],
            ["domain_length", f"{float(opt['L']):.10g}"],
        ],
    )
    print(f"leading Lyapunov exponent: {exponent:.6f} (L={opt['L']})")
    return 0


# ---------------------------------------------------------------------------
# inspect


def _cmd_inspect(args) -> int:
    path = Path(args.path)
    with open(path, "rb") as fh:
        magic = fh.read(5)
    if magic == fileio.TRAJECTORY_MAGIC:
        header, frames = fileio.read_container(path)
        info = {"file": str(path), "container": "trajectory", **header}
        info["payload_shape"] = list(frames.shape)
    elif magic == fileio.CHECKPOINT_MAGIC:
        arch, extra, tensors = fileio.read_checkpoint(path)
        info = {
            "file": str(path),
            "container": "checkpoint",
            "architecture": arch,
            "extra": extra,
            "tensors": {name: list(arr.shape) for name, arr in tensors.items()},
            "parameter_count": int(sum(arr.size for arr in tensors.values())),
        }
    else:
        raise FormatError(f"{path}: unrecognized magic {magic!r}")
    print(json.dumps(info, indent=2, sort_keys=True))
    return 0


# ---------------------------------------------------------------------------
# parser


def _add_common(parser) -> None:
    parser.add_argument("--config", help="JSON file of option defaults (flags win)")
    parser.add_argument(
        "--threads",
        type=int,
        help="worker threads for ensemble evaluation "
        "(default: PDE_LAB_THREADS or 1; never changes results)",
    )


def _flag(parser, name, type_, help_):
    parser.add_argument(name, type=type_, help=help_)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pde-lab",
        description="Simulate chaotic PDEs, train parameter-conditioned emulators, "
        "and compare their statistics.",
    )
    parser.add_argument("--version", action="version", version=f"pde-lab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    sim = sub.add_parser("simulate", help="generate reference trajectories")
    sim_sub = sim.add_subparsers(dest="equation", required=True, metavar="EQUATION")

    p = sim_sub.add_parser("ks", help="Kuramoto-Sivashinsky in 1D")
    _add_common(p)
    _flag(p, "--L", float, "domain length (required)")
    _flag(p, "--n", int, "grid points (default: resolution rule for L)")
    _flag(p, "--snapshots", int, "number of snapshots to record (required)")
    _flag(p, "--dt", float, "time step (default 0.025)")
    _flag(p, "--interval", float, "time between snapshots (default 1.0)")
    _flag(p, "--warmup", float, "transient to discard (default 500)")
    _flag(p, "--seed", int, "initial-condition seed (default 0)")
    _flag(p, "--init-std", float, "initial noise amplitude (default 0.1)")
    _flag(p, "--out", str, "output trajectory path (required)")
    p.set_defaults(func=_cmd_simulate_ks)

    p = sim_sub.add_parser("beta", help="stochastically forced beta-plane vorticity in 2D")
    _add_common(p)
    _flag(p, "--beta", float, "planetary vorticity gradient (required)")
    _flag(p, "--mu", float, "linear drag (default 0.04)")
    _flag(p, "--epsilon", float, "energy injection rate (default 1e-4)")
    _flag(p, "--kf", int, "forcing wavenumber (default 16)")
    _flag(p, "--bandwidth", float, "forcing annulus width (default 1)")
    _flag(p, "--dt", float, "time step (default 0.04)")
    _flag(p, "--n", int, "grid points per side (default 64)")
    _flag(p, "--snapshots", int, "number of snapshots to record (required)")
    _flag(p, "--interval", float, "time between snapshots (default 1.0)")
    _flag(p, "--warmup", float, "spin-up time from rest (default 75)")
    _flag(p, "--seed", int, "forcing noise seed (default 0)")
    _flag(p, "--save-state", str, "also save the final vorticity field here")
    _flag(p, "--out", str, "output trajectory path (required)")
    p.set_defaults(func=_cmd_simulate_beta)

    p = sub.add_parser("pretrain", help="train the backbone at a single parameter value")
    _add_common(p)
    p.add_argument("--data", action="append", help="training trajectory (repeatable)")
    p.add_argument(
        "--cond",
        type=float,
        action="append",
        help="conditioning value per data file (default: from metadata)",
    )
    _flag(p, "--out", str, "output checkpoint path (required)")
    _flag(p, "--metrics", str, "metrics CSV path (default: <out>.metrics.csv)")
    _flag(p, "--blocks", int, "transformer blocks (default 8)")
    _flag(p, "--channels", int, "latent channels (default 64)")
    _flag(p, "--window", int, "attention window, odd (default 9)")
    _flag(p, "--history", int, "input history length (default 2)")
    _flag(p, "--cond-dim", int, "conditioning dimension (default 1)")
    p.add_argument(
        "--probabilistic",
        action=argparse.BooleanOptionalAction,
        default=None,
        help="include the stochastic sampling head (default off)",
    )
    p.add_argument(
        "--gates",
        action=argparse.BooleanOptionalAction,
        default=None,
        help="conditioned gates on attention and MLP branches (default off)",
    )
    _flag(p, "--epochs", int, "training epochs (required)")
    _flag(p, "--lr", float, "learning rate (default 5e-4)")
    _flag(p, "--batch", int, "batch size (default 128)")
    _flag(p, "--val-fraction", float, "trailing holdout fraction (default 0.05)")
    _flag(p, "--seed", int, "training seed (default 0)")
    p.set_defaults(func=_cmd_pretrain)

    p = sub.add_parser("finetune", help="adapt a pretrained model across parameter values")
    _add_common(p)
    p.add_argument("--data", action="append", help="training trajectory (repeatable)")
    p.add_argument(
        "--cond",
        type=float,
        action="append",
        help="conditioning value per data file (default: from metadata)",
    )
    _flag(p, "--checkpoint", str, "pretrained checkpoint to start from (required)")
    _flag(p, "--out", str, "output checkpoint path (required)")
    _flag(p, "--metrics", str, "metrics CSV path (default: <out>.metrics.csv)")
    p.add_argument(
        "--loss",
        choices=("mse", "crps_spectral"),
        help="training loss (default crps_spectral)",
    )
    _flag(p, "--epochs", int, "training epochs (required)")
    _flag(p, "--lr", float, "learning rate (default: pretrain rate / 50)")
    _flag(p, "--pretrain-lr", float, "pretraining rate the default divides (default 5e-4)")
    _flag(p, "--members", int, "ensemble members for the CRPS loss (default 4)")
    _flag(p, "--spectral-weight", float, "weight of the spectral term (default 1.0)")
    _flag(p, "--batch", int, "batch size (default 128)")
    _flag(p, "--val-fraction", float, "trailing holdout fraction (default 0.05)")
    _flag(p, "--seed", int, "training seed (default 0)")
    p.set_defaults(func=_cmd_finetune)

    p = sub.add_parser("rollout", help="run an emulator autoregressively")
    _add_common(p)
    _flag(p, "--model", str, "checkpoint to roll out (required)")
    _flag(p, "--init", str, "trajectory supplying the seed history (required)")
    _flag(p, "--start", int, "frame offset of the seed history (default 0)")
    _flag(p, "--steps", int, "steps to roll out (required)")
    _flag(p, "--cond", float, "conditioning value (default: from init metadata)")
    p.add_argument(
        "--mode",
        choices=("deterministic", "probabilistic"),
        help="forecast mode (default: probabilistic when the model samples)",
    )
    _flag(p, "--seed", int, "sampling noise seed (default 0)")
    _flag(p, "--cap", float, "divergence threshold on |u| (default 1e3)")
    _flag(p, "--out", str, "output trajectory path (required)")
    p.set_defaults(func=_cmd_rollout)

    ev = sub.add_parser("evaluate", help="statistical comparisons and chaos metrics")
    ev_sub = ev.add_subparsers(dest="diagnostic", required=True, metavar="DIAGNOSTIC")

    p = ev_sub.add_parser("pdf", help="joint-PDF Hellinger distance, emulator vs reference")
    _add_common(p)
    _flag(p, "--truth", str, "reference trajectory (required)")
    _flag(p, "--model", str, "checkpoint to evaluate (required)")
    p.add_argument(
        "--cond",
        "--beta",
        dest="cond",
        type=float,
        help="conditioning value (default: from truth metadata)",
    )
    _flag(p, "--steps", int, "rollout length (default: match the reference)")
    _flag(p, "--bins", int, "histogram bins per variable (default 50)")
    p.add_argument("--mode", choices=("deterministic", "probabilistic"), help="forecast mode")
    _flag(p, "--seed", int, "sampling noise seed (default 0)")
    _flag(p, "--hist-out", str, "also write both histograms under this prefix")
    _flag(p, "--out", str, "summary CSV path (required)")
    p.set_defaults(func=_cmd_evaluate_pdf)

    p = ev_sub.add_parser("psd", help="zonal-mean power spectrum")
    _add_common(p)
    _flag(p, "--data", str, "trajectory of zonal-mean profiles (required)")
    _flag(p, "--model", str, "optional checkpoint to compare against the data")
    p.add_argument(
        "--cond",
        "--beta",
        dest="cond",
        type=float,
        help="conditioning value (default: from data metadata)",
    )
    _flag(p, "--steps", int, "rollout length (default: match the data)")
    p.add_argument("--mode", choices=("deterministic", "probabilistic"), help="forecast mode")
    _flag(p, "--seed", int, "sampling noise seed (default 0)")
    _flag(p, "--out", str, "output CSV path (required)")
    p.set_defaults(func=_cmd_evaluate_psd)

    p = ev_sub.add_parser("events", help="jet nucleation and coalescence timing")
    _add_common(p)
    _flag(p, "--data", str, "trajectory to scan for events")
    _flag(p, "--state", str, "saved vorticity state seeding a split ensemble")
    _flag(p, "--members", int, "ensemble size (ensemble mode)")
    _flag(p, "--horizon", float, "time window for first events (ensemble mode)")
    p.add_argument("--kind", choices=("nucleation", "coalescence"), help="event kind")
    _flag(p, "--bins", int, "histogram bins (default 20)")
    _flag(p, "--interval", float, "snapshot interval of member runs (default 1.0)")
    _flag(p, "--prominence", float, "jet peak prominence fraction (default 0.2)")
    _flag(p, "--debounce", int, "frames a count must hold (default 5)")
    _flag(p, "--seed", int, "base seed of member noise streams (default 0)")
    _flag(p, "--out", str, "output CSV path (required)")
    p.set_defaults(func=_cmd_evaluate_events)

    p = ev_sub.add_parser("horizon", help="deterministic tracking horizon in Lyapunov times")
    _add_common(p)
    _flag(p, "--truth", str, "reference trajectory (required)")
    _flag(p, "--model", str, "checkpoint to evaluate (required)")
    _flag(p, "--cond", float, "conditioning value (default: from truth metadata)")
    _flag(p, "--lyapunov", float, "leading Lyapunov exponent of the reference (required)")
    _flag(p, "--threshold", float, "error threshold as a fraction of climatology (default 0.5)")
    _flag(p, "--out", str, "output CSV path (required)")
    p.set_defaults(func=_cmd_evaluate_horizon)

    p = ev_sub.add_parser("lyapunov", help="leading Lyapunov exponent of the 1D solver")
    _add_common(p)
    _flag(p, "--L", float, "domain length (required)")
    _flag(p, "--n", int, "grid points (default: resolution rule for L)")
    _flag(p, "--dt", float, "time step (default 0.025)")
    _flag(p, "--seed", int, "initial-condition seed (default 0)")
    _flag(p, "--total-time", float, "averaging time (default 2000)")
    _flag(p, "--renorm", float, "renormalization interval (default 10)")
    _flag(p, "--transient", int, "leading intervals to discard (default 10)")
    _flag(p, "--out", str, "output CSV path (required)")
    p.set_defaults(func=_cmd_evaluate_lyapunov)

    p = sub.add_parser("inspect", help="print a container's header as JSON")
    p.add_argument("path", help="trajectory or checkpoint file")
    p.set_defaults(func=_cmd_inspect)

    return parser


def _resolve_threads(value) -> int:
    if value is not None:
        if value < 1:
            raise ConfigurationError(f"--threads must be positive, got {value}")
        return int(value)
    env = os.environ.get("PDE_LAB_THREADS")
    if env:
        try:
            parsed = int(env)
        except ValueError as exc:
            raise ConfigurationError(f"PDE_LAB_THREADS={env!r} is not an integer") from exc
        if parsed < 1:
            raise ConfigurationError(f"PDE_LAB_THREADS must be positive, got {parsed}")
        return parsed
    return 1


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.threads = _resolve_threads(getattr(args, "threads", None))
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except PdeLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
