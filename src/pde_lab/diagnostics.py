"""Statistical diagnostics: rollouts, attractor PDFs, jet counting and events,
Lyapunov exponents and tracking horizons.

Emulator and solver trajectories are compared through distributional summaries
rather than pathwise error: a three-variable joint histogram of
(u, du/dx, du/dt) with Hellinger distance, zonal power spectra, and the timing
statistics of jet nucleation and coalescence events.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.signal import find_peaks

from . import beta_plane, ks, model as emodel, spectral
from .errors import ConfigurationError, RolloutDivergedError, ShapeError
from .fileio import Trajectory, read_container, write_container

DEFAULT_ROLLOUT_CAP = 1e3
DEFAULT_JET_PROMINENCE = 0.2
DEFAULT_DEBOUNCE = 5


# ---------------------------------------------------------------------------
# autoregressive rollout


def rollout(
    params: emodel.ModelParams,
    init_history: np.ndarray,
    conditioning: emodel.Conditioning | float,
    n_steps: int,
    snapshot_interval: float = 1.0,
    mode: str | None = None,
    noise_seed: int | Sequence[int] | None = None,
    cap: float = DEFAULT_ROLLOUT_CAP,
    metadata: dict | None = None,
) -> Trajectory:
    """Run the emulator autoregressively from a history of S physical frames.

    Returns the predicted frames only (the seed history is not included).
    Divergence (non-finite values or |u| above `cap`) raises
    :class:`RolloutDivergedError` with the offending step index.
    """
    cfg = params.config
    history = np.asarray(init_history, dtype=np.float64)
    if history.ndim != 2 or history.shape[0] != cfg.history:
        raise ShapeError(
            f"initial history must have shape ({cfg.history}, D), got {history.shape}"
        )
    if n_steps < 0:
        raise ConfigurationError(f"n_steps must be non-negative, got {n_steps}")
    if isinstance(conditioning, (int, float)):
        conditioning = emodel.Conditioning(np.array([float(conditioning)]))
    rng = np.random.default_rng(noise_seed)

    n_points = history.shape[1]
    frames = np.empty((n_steps, n_points), dtype=np.float32)
    for i in range(n_steps):
        pred = emodel.predict(params, history, conditioning, mode=mode, rng=rng)
        if not np.all(np.isfinite(pred)) or np.max(np.abs(pred)) > cap:
            raise RolloutDivergedError(
                f"rollout diverged at step {i + 1} (max |u| = {np.max(np.abs(pred)):.3g})",
                step=i + 1,
            )
        frames[i] = pred
        history = np.concatenate([history[1:], pred[None, :]], axis=0)

    meta = {"kind": "rollout", "conditioning": conditioning.value.tolist()}
    if metadata:
        meta.update(metadata)
    return Trajectory(
        frames=frames, snapshot_interval=snapshot_interval, t0=snapshot_interval, metadata=meta
    )


# ---------------------------------------------------------------------------
# joint distribution of (u, du/dx, du/dt)


@dataclass
class Histogram3D:
    edges: tuple[np.ndarray, np.ndarray, np.ndarray]
    counts: np.ndarray
    n_samples: int

    @property
    def mass(self) -> np.ndarray:
        """Probability mass per bin (normalized over the binned domain)."""
        total = self.counts.sum()
        return self.counts / total if total > 0 else self.counts.astype(float)


def _pdf_samples(traj: Trajectory, domain_length: float | None) -> np.ndarray:
    frames = traj.frames.astype(np.float64)
    n_frames, n_points = frames.shape
    if n_frames < 3:
        raise ConfigurationError(
            f"joint PDF needs at least 3 frames for centered time differences, got {n_frames}"
        )
    if domain_length is None:
        domain_length = traj.metadata.get("domain_length")
    if domain_length is None:
        raise ConfigurationError(
            "domain length unavailable: pass domain_length or set it in trajectory metadata"
        )
    plan = spectral.make_plan(1, n_points, float(domain_length))
    deriv = spectral.derivative_modes(np.fft.rfft(frames, axis=1), plan, 1)
    du_dx = np.fft.irfft(deriv, n=n_points, axis=1)
    du_dt = (frames[2:] - frames[:-2]) / (2.0 * traj.snapshot_interval)

    u = frames[1:-1].reshape(-1)
    ux = du_dx[1:-1].reshape(-1)
    ut = du_dt.reshape(-1)
    return np.stack([u, ux, ut], axis=1)


def joint_pdf(
    traj: Trajectory,
    n_bins: int = 50,
    edges: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
    domain_length: float | None = None,
) -> Histogram3D:
    """Joint histogram of (u, du/dx, du/dt) over interior frames.

    The x-derivative is spectral, the time derivative a centered difference
    (end frames excluded).  Fresh edges span mean +- 4 sigma of this
    trajectory; pass `edges` to bin a comparison trajectory identically.
    """
    samples = _pdf_samples(traj, domain_length)
    if edges is None:
        built = []
        for col in samples.T:
            mean, std = col.mean(), col.std()
            if std == 0.0:
                std = 1.0
            built.append(np.linspace(mean - 4.0 * std, mean + 4.0 * std, n_bins + 1))
        edges = tuple(built)
    counts, _ = np.histogramdd(samples, bins=edges)
    return Histogram3D(edges=tuple(edges), counts=counts, n_samples=samples.shape[0])


def hellinger(a: Histogram3D, b: Histogram3D) -> float:
    """Hellinger distance between two identically binned histograms."""
    if len(a.edges) != len(b.edges) or any(
        ea.shape != eb.shape or not np.array_equal(ea, eb) for ea, eb in zip(a.edges, b.edges)
    ):
        raise ConfigurationError("histograms use different binnings; rebuild with shared edges")
    return float(np.sqrt(0.5 * np.sum((np.sqrt(a.mass) - np.sqrt(b.mass)) ** 2)))


def write_histogram(path, hist: Histogram3D) -> None:
    write_container(
        path,
        "histogram3d",
        hist.counts[None, ...],
        {
            "edges": [e.tolist() for e in hist.edges],
            "n_samples": int(hist.n_samples),
        },
    )


def read_histogram(path) -> Histogram3D:
    header, frames = read_container(path)
    if header["kind"] != "histogram3d":
        raise ConfigurationError(f"{path} is not a histogram container")
    edges = tuple(np.asarray(e, dtype=np.float64) for e in header["edges"])
    return Histogram3D(
        edges=edges, counts=frames[0].astype(np.float64), n_samples=int(header["n_samples"])
    )


# ---------------------------------------------------------------------------
# zonal-mean structure


def zonal_psd(traj: Trajectory) -> tuple[np.ndarray, np.ndarray]:
    """Time-mean power spectrum of zonal-mean profiles.

    Returns (mode_index, psd) where the half-complex bins are weighted so the
    spectrum sums to the time-mean of sum(U^2)/n (a discrete Parseval pair).
    """
    frames = traj.frames.astype(np.float64)
    n = frames.shape[1]
    modes = np.fft.rfft(frames, axis=1)
    weights = np.full(n // 2 + 1, 2.0)
    weights[0] = 1.0
    if n % 2 == 0:
        weights[-1] = 1.0
    psd = (weights[None, :] * np.abs(modes) ** 2 / n**2).mean(axis=0)
    return np.arange(n // 2 + 1), psd


def count_jets(profile: np.ndarray, prominence: float = DEFAULT_JET_PROMINENCE) -> int:
    """Count circular local maxima with prominence above `prominence` * max|U|."""
    profile = np.asarray(profile, dtype=np.float64)
    if profile.ndim != 1:
        raise ShapeError(f"jet counting expects a 1D profile, got shape {profile.shape}")
    scale = float(np.max(np.abs(profile)))
    if scale == 0.0:
        return 0
    n = profile.shape[0]
    tiled = np.concatenate([profile, profile, profile])
    peaks, _ = find_peaks(tiled, prominence=prominence * scale)
    return int(np.count_nonzero((peaks >= n) & (peaks < 2 * n)))


@dataclass
class EventRecord:
    kind: str  # "nucleation" or "coalescence"
    time: float
    count_before: int
    count_after: int


def detect_events(
    traj: Trajectory,
    prominence: float = DEFAULT_JET_PROMINENCE,
    debounce: int = DEFAULT_DEBOUNCE,
) -> list[EventRecord]:
    """Jet-count transitions after debouncing.

    The per-frame jet count must hold for `debounce` consecutive frames to be
    accepted; each unit change between consecutive accepted counts emits one
    event stamped at the first frame of the newly accepted run.  Run lengths
    are direction-independent, so reversing the trajectory swaps nucleations
    and coalescences exactly.
    """
    if debounce < 1:
        raise ConfigurationError(f"debounce must be at least 1, got {debounce}")
    counts = np.array([count_jets(f, prominence) for f in traj.frames])
    times = traj.times

    runs = []  # (count, first_frame_index, length)
    start = 0
    for i in range(1, len(counts) + 1):
        if i == len(counts) or counts[i] != counts[start]:
            runs.append((int(counts[start]), start, i - start))
            start = i
    accepted = [r for r in runs if r[2] >= debounce]

    events = []
    for prev, cur in zip(accepted, accepted[1:]):
        delta = cur[0] - prev[0]
        if delta == 0:
            continue
        direction = 1 if delta > 0 else -1
        kind = "nucleation" if direction > 0 else "coalescence"
        level = prev[0]
        for _ in range(abs(delta)):
            events.append(
                EventRecord(
                    kind=kind,
                    time=float(times[cur[1]]),
                    count_before=level,
                    count_after=level + direction,
                )
            )
            level += direction
    return events


@dataclass
class EventTimeHistogram:
    edges: np.ndarray
    counts: np.ndarray
    overflow: int
    ensemble_size: int

    @property
    def mass(self) -> np.ndarray:
        return self.counts / self.ensemble_size


def first_event_time(
    traj: Trajectory,
    kind: str,
    prominence: float = DEFAULT_JET_PROMINENCE,
    debounce: int = DEFAULT_DEBOUNCE,
) -> float | None:
    """Time of the first event of `kind` relative to the trajectory start."""
    for event in detect_events(traj, prominence, debounce):
        if event.kind == kind:
            return float(event.time - traj.t0)
    return None


def event_time_pdf(
    run_member: Callable[[int], Trajectory],
    ensemble_size: int,
    horizon: float,
    kind: str = "coalescence",
    n_bins: int = 20,
    prominence: float = DEFAULT_JET_PROMINENCE,
    debounce: int = DEFAULT_DEBOUNCE,
    threads: int = 1,
) -> EventTimeHistogram:
    """Distribution of first-event times over an ensemble.

    `run_member(i)` produces the i-th member trajectory of zonal-mean
    profiles; members with no event of `kind` before `horizon` land in the
    overflow count, so binned counts plus overflow always equal the ensemble
    size.  Members are independent, so thread-level parallelism with ordered
    collection leaves the result identical for any `threads`.
    """
    if ensemble_size < 1:
        raise ConfigurationError(f"ensemble size must be positive, got {ensemble_size}")
    if horizon <= 0:
        raise ConfigurationError(f"horizon must be positive, got {horizon}")
    if kind not in ("nucleation", "coalescence"):
        raise ConfigurationError(f"unknown event kind {kind!r}")

    def one(i: int) -> float | None:
        return first_event_time(run_member(i), kind, prominence, debounce)

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            times = list(pool.map(one, range(ensemble_size)))
    else:
        times = [one(i) for i in range(ensemble_size)]

    edges = np.linspace(0.0, horizon, n_bins + 1)
    hits = np.array([t for t in times if t is not None and t <= horizon])
    counts, _ = np.histogram(hits, bins=edges)
    overflow = ensemble_size - int(counts.sum())
    return EventTimeHistogram(
        edges=edges, counts=counts, overflow=overflow, ensemble_size=ensemble_size
    )


def hellinger_1d(a: EventTimeHistogram, b: EventTimeHistogram) -> float:
    """Hellinger distance including the overflow bin."""
    if a.edges.shape != b.edges.shape or not np.array_equal(a.edges, b.edges):
        raise ConfigurationError("event-time histograms use different binnings")
    pa = np.concatenate([a.counts, [a.overflow]]) / a.ensemble_size
    pb = np.concatenate([b.counts, [b.overflow]]) / b.ensemble_size
    return float(np.sqrt(0.5 * np.sum((np.sqrt(pa) - np.sqrt(pb)) ** 2)))


def solver_member_runner(
    config: beta_plane.BetaConfig,
    init_zeta_modes: np.ndarray,
    n_snapshots: int,
    snapshot_interval: float = 1.0,
    base_seed: int = 0,
) -> Callable[[int], Trajectory]:
    """Ensemble factory: identical initial vorticity, independent forcing noise.

    Member i runs the solver with forcing stream seeded by (base_seed, i) and
    records zonal-mean velocity profiles.
    """
    plan = beta_plane.make_beta_plan(config)
    steps = int(round(snapshot_interval / config.dt))

    def run_member(i: int) -> Trajectory:
        state = beta_plane.BetaState(
            zeta_modes=np.array(init_zeta_modes, dtype=complex),
            time=0.0,
            rng=np.random.default_rng([base_seed, i]),
        )
        frames = np.empty((n_snapshots, config.n_points), dtype=np.float32)
        for j in range(n_snapshots):
            frames[j] = beta_plane.zonal_velocity(state, config, plan)
            if j < n_snapshots - 1:
                state = beta_plane.run(state, config, plan, steps)
        return Trajectory(
            frames=frames,
            snapshot_interval=snapshot_interval,
            t0=0.0,
            metadata={
                "equation": "beta_plane",
                "field": "zonal_velocity",
                "member": i,
                "domain_length": beta_plane.DOMAIN_LENGTH,
            },
        )

    return run_member


def emulator_member_runner(
    params: emodel.ModelParams,
    init_history: np.ndarray,
    conditioning: emodel.Conditioning | float,
    n_steps: int,
    snapshot_interval: float = 1.0,
    base_seed: int = 0,
) -> Callable[[int], Trajectory]:
    """Ensemble factory: identical seed history, independent sampling noise."""

    def run_member(i: int) -> Trajectory:
        return rollout(
            params,
            init_history,
            conditioning,
            n_steps,
            snapshot_interval=snapshot_interval,
            mode="probabilistic",
            noise_seed=[base_seed, i],
            metadata={"member": i},
        )

    return run_member


# ---------------------------------------------------------------------------
# chaos metrics


def lyapunov_exponent(
    config: ks.KSConfig,
    total_time: float = 2000.0,
    renorm_interval: float = 10.0,
    perturbation: float = 1e-8,
    transient_intervals: int = 10,
    seed: int | None = None,
) -> float:
    """Leading Lyapunov exponent by the twin-trajectory rescaling method.

    A perturbed copy runs alongside the reference; every `renorm_interval`
    time units the log separation growth is recorded and the twin is pulled
    back to distance `perturbation` along the current difference direction.
    The first `transient_intervals` growth samples are discarded while the
    difference vector aligns with the leading direction.
    """
    plan = ks.make_ks_plan(config)
    tables = ks.build_tables(config, plan)
    rng = np.random.default_rng(config.seed if seed is None else seed)

    u0 = rng.normal(0.0, config.init_std, config.n_points)
    modes = np.fft.rfft(u0)
    modes = ks.integrate(modes, tables, plan, int(round(config.warmup_time / config.dt)))

    direction = rng.standard_normal(config.n_points)
    direction /= np.linalg.norm(direction)
    twin = np.fft.rfft(spectral.to_values(modes, plan) + perturbation * direction)

    steps = int(round(renorm_interval / config.dt))
    n_intervals = int(round(total_time / renorm_interval))
    growth = []
    for _ in range(n_intervals):
        modes = ks.integrate(modes, tables, plan, steps)
        twin = ks.integrate(twin, tables, plan, steps)
        u = spectral.to_values(modes, plan)
        diff = spectral.to_values(twin, plan) - u
        dist = np.linalg.norm(diff)
        if dist == 0.0:
            raise ConfigurationError("twin trajectories collapsed; increase the perturbation")
        growth.append(np.log(dist / perturbation))
        twin = np.fft.rfft(u + diff * (perturbation / dist))
    usable = growth[transient_intervals:]
    if not usable:
        raise ConfigurationError("total_time leaves no intervals after the transient")
    return float(np.sum(usable) / (len(usable) * renorm_interval))


def tracking_horizon(
    params: emodel.ModelParams,
    truth: Trajectory,
    conditioning: emodel.Conditioning | float,
    lyapunov: float,
    threshold: float = 0.5,
) -> float:
    """Forecast horizon in Lyapunov times.

    The emulator runs deterministically from the first S frames of `truth`;
    the horizon is the first forecast time whose RMS error exceeds
    `threshold` times the climatological RMS of the reference, converted to
    units of 1/lyapunov.  Returns the full span if the error never crosses.
    """
    if lyapunov <= 0:
        raise ConfigurationError(f"needs a positive Lyapunov exponent, got {lyapunov}")
    s = params.config.history
    if truth.n_frames <= s:
        raise ConfigurationError(f"reference needs more than {s} frames, got {truth.n_frames}")
    reference = truth.frames.astype(np.float64)
    climatology = float(np.sqrt(np.mean((reference - reference.mean()) ** 2)))
    n_steps = truth.n_frames - s
    pred = rollout(
        params,
        reference[:s],
        conditioning,
        n_steps,
        snapshot_interval=truth.snapshot_interval,
        mode="deterministic",
    )
    err = np.sqrt(np.mean((pred.frames.astype(np.float64) - reference[s:]) ** 2, axis=1))
    crossed = np.nonzero(err > threshold * climatology)[0]
    steps_to_cross = (crossed[0] + 1) if crossed.size else n_steps
    return float(steps_to_cross * truth.snapshot_interval * lyapunov)
