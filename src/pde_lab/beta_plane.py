"""Stochastically forced barotropic beta-plane vorticity solver.

The vorticity zeta = laplacian(psi) evolves on the doubly periodic square
[0, 2 pi]^2 under

    d zeta / dt + u . grad zeta + beta * d psi / dx = xi - mu * zeta,

with u = (-d psi / dy, d psi / dx).  Deterministic terms advance with RK4;
the white-in-time annulus forcing xi is added once per step in Euler-Maruyama
fashion, and the exponential spectral filter is applied at the end of every
step.  Arrays are indexed (y, x) so the half-complex transform axis is x.
"""

from __future__ import annotations

import dataclasses
import weakref
from dataclasses import dataclass

import numpy as np

from . import spectral
from .errors import ConfigurationError, IntegrationDivergedError
from .fileio import Trajectory

DOMAIN_LENGTH = 2.0 * np.pi


@dataclass
class BetaConfig:
    beta: float
    mu: float = 4e-2
    epsilon: float = 1e-4
    forcing_wavenumber: int = 16
    forcing_bandwidth: float = 1.0
    dt: float = 4e-2
    n_points: int = 64
    seed: int = 0
    use_filter: bool = True
    hyperviscosity: tuple[float, int] | None = None  # (coefficient, half-order n) for del^(2n)

    def __post_init__(self):
        if self.mu <= 0:
            raise ConfigurationError(f"damping rate must be positive, got {self.mu}")
        if self.epsilon < 0:
            raise ConfigurationError(f"injection rate must be non-negative, got {self.epsilon}")
        if self.dt <= 0:
            raise ConfigurationError(f"dt must be positive, got {self.dt}")
        if self.forcing_wavenumber < 1:
            raise ConfigurationError(
                f"forcing wavenumber must be at least 1, got {self.forcing_wavenumber}"
            )
        # The forced annulus must survive dealiasing.
        if self.forcing_wavenumber + self.forcing_bandwidth >= self.n_points // 3:
            raise ConfigurationError(
                f"forcing band around {self.forcing_wavenumber} exceeds the dealiased "
                f"range of an n={self.n_points} grid"
            )
        if self.hyperviscosity is not None:
            coeff, order = self.hyperviscosity
            if coeff < 0 or int(order) != order or order < 1:
                raise ConfigurationError(f"bad hyperviscosity spec {self.hyperviscosity}")


@dataclass
class BetaState:
    """Half-complex vorticity modes plus the forcing random stream."""

    zeta_modes: np.ndarray
    time: float
    rng: np.random.Generator


def make_beta_plan(config: BetaConfig) -> spectral.SpectralPlan:
    return spectral.make_plan(2, config.n_points, DOMAIN_LENGTH)


class _Workspace:
    """Per-plan constant arrays shared by all stepping calls."""

    def __init__(self, config: BetaConfig, plan: spectral.SpectralPlan):
        ky = plan.wavenumber_grid(0)
        kx = plan.wavenumber_grid(1)
        self.ikx = 1j * kx
        self.iky = 1j * ky
        ksq = kx**2 + ky**2
        self.ksq = ksq
        inv = np.zeros_like(ksq)
        nonzero = ksq > 0
        inv[nonzero] = 1.0 / ksq[nonzero]
        self.inv_ksq = inv
        self.dealias = plan.dealias_mask

        # Forcing annulus on integer mode radii; the zonally uniform column
        # kx = 0 is excluded so the noise acts on the eddy field only.
        jx = plan.index_grid(1)
        jy = plan.index_grid(0)
        radius = np.sqrt(jx.astype(float) ** 2 + jy.astype(float) ** 2)
        band = np.abs(radius - config.forcing_wavenumber) <= config.forcing_bandwidth / 2.0
        self.annulus = band & (jx > 0) & (np.abs(jy) < plan.n_points[0] // 2)
        self.n_forced = int(np.count_nonzero(self.annulus))
        if config.epsilon > 0 and self.n_forced == 0:
            raise ConfigurationError(
                f"forcing annulus |k - {config.forcing_wavenumber}| <= "
                f"{config.forcing_bandwidth / 2} contains no modes"
            )
        if self.n_forced:
            n_total = float(np.prod(plan.n_points))
            # Every annulus mode sits in an interior half-complex column, so it
            # stands for a conjugate pair: energy of an increment dz confined
            # to the annulus is sum(2 |dz|^2 / k^2) / (2 n^4).
            inv_sum = float(np.sum(self.inv_ksq[self.annulus]))
            self.forcing_amplitude = n_total * np.sqrt(
                config.epsilon / (config.dt * inv_sum)
            )
        else:
            self.forcing_amplitude = 0.0

        if config.hyperviscosity is not None:
            coeff, order = config.hyperviscosity
            self.hyper_symbol = -coeff * ksq ** int(order)
        else:
            self.hyper_symbol = None


_WORKSPACES: "weakref.WeakKeyDictionary[spectral.SpectralPlan, dict]" = (
    weakref.WeakKeyDictionary()
)


def _workspace(config: BetaConfig, plan: spectral.SpectralPlan) -> _Workspace:
    # The cached arrays depend on the forcing band and the dt-scaled amplitude,
    # so key the per-plan cache on those config fields.
    key = (
        config.forcing_wavenumber,
        config.forcing_bandwidth,
        config.epsilon,
        config.dt,
        config.hyperviscosity,
    )
    per_plan = _WORKSPACES.setdefault(plan, {})
    ws = per_plan.get(key)
    if ws is None:
        ws = _Workspace(config, plan)
        per_plan[key] = ws
    return ws


def init_state(config: BetaConfig, plan: spectral.SpectralPlan | None = None) -> BetaState:
    """Start from rest with a fresh forcing stream."""
    if plan is None:
        plan = make_beta_plan(config)
    _workspace(config, plan)  # validate the annulus up front
    return BetaState(
        zeta_modes=np.zeros(plan.mode_shape, dtype=complex),
        time=0.0,
        rng=np.random.default_rng(config.seed),
    )


def velocity_modes(
    zeta_modes: np.ndarray, config: BetaConfig, plan: spectral.SpectralPlan
) -> tuple[np.ndarray, np.ndarray]:
    """(u, v) modes from vorticity via the streamfunction psi = inv_lap(zeta)."""
    ws = _workspace(config, plan)
    psi = -zeta_modes * ws.inv_ksq
    return -ws.iky * psi, ws.ikx * psi


def draw_forcing(
    config: BetaConfig, plan: spectral.SpectralPlan, rng: np.random.Generator
) -> np.ndarray:
    """One white-noise forcing realization in mode space.

    Unit-modulus random phases on the annulus, scaled so one Euler-Maruyama
    increment dt * xi injects energy at the expected rate epsilon.
    """
    ws = _workspace(config, plan)
    out = np.zeros(plan.mode_shape, dtype=complex)
    if ws.n_forced and config.epsilon > 0:
        phases = rng.uniform(0.0, 2.0 * np.pi, ws.n_forced)
        out[ws.annulus] = ws.forcing_amplitude * np.exp(1j * phases)
    return out


def _tendency(
    zeta_modes: np.ndarray, config: BetaConfig, ws: _Workspace, plan: spectral.SpectralPlan
) -> np.ndarray:
    """Deterministic RHS: advection, beta term, damping, optional hyperviscosity.

    With the per-step filter enabled the advection is left untruncated and the
    filter provides the aliasing control, as in filtered pseudo-spectral
    stepping; a 2/3 truncation on top of it would leave no resolved band for
    the forward enstrophy cascade, choking the inverse energy cascade that
    builds jets.  Without the filter the classic 2/3 rule applies.
    """
    z = zeta_modes if config.use_filter else zeta_modes * ws.dealias
    psi = -z * ws.inv_ksq
    u = spectral.to_values(-ws.iky * psi, plan)
    v = spectral.to_values(ws.ikx * psi, plan)
    zx = spectral.to_values(ws.ikx * z, plan)
    zy = spectral.to_values(ws.iky * z, plan)
    adv = np.fft.rfft2(u * zx + v * zy)
    if not config.use_filter:
        adv = adv * ws.dealias
    out = -adv - config.beta * (ws.ikx * (-zeta_modes * ws.inv_ksq)) - config.mu * zeta_modes
    if ws.hyper_symbol is not None:
        out = out + ws.hyper_symbol * zeta_modes
    return out


def step(state: BetaState, config: BetaConfig, plan: spectral.SpectralPlan) -> BetaState:
    """RK4 on the deterministic terms, then forcing increment, then filter."""
    ws = _workspace(config, plan)
    z = state.zeta_modes
    h = config.dt
    k1 = _tendency(z, config, ws, plan)
    k2 = _tendency(z + 0.5 * h * k1, config, ws, plan)
    k3 = _tendency(z + 0.5 * h * k2, config, ws, plan)
    k4 = _tendency(z + h * k3, config, ws, plan)
    z = z + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    if config.epsilon > 0:
        z = z + h * draw_forcing(config, plan, state.rng)
    if config.use_filter:
        z = z * plan.filter_gain
    z[0, 0] = 0.0
    return BetaState(zeta_modes=z, time=state.time + h, rng=state.rng)


def run(
    state: BetaState,
    config: BetaConfig,
    plan: spectral.SpectralPlan,
    n_steps: int,
    first_step_index: int = 0,
) -> BetaState:
    """Advance `n_steps` steps, failing fast on a non-finite state.

    A divergence reports its step counted from `first_step_index`, the number
    of steps taken before this call.
    """
    for i in range(n_steps):
        state = step(state, config, plan)
        if not np.all(np.isfinite(state.zeta_modes)):
            raise IntegrationDivergedError(
                f"state became non-finite at step {first_step_index + i + 1} "
                f"(t={state.time:.3f})",
                step=first_step_index + i + 1,
                time=state.time,
            )
    return state


def total_energy(zeta_modes: np.ndarray, config: BetaConfig, plan: spectral.SpectralPlan) -> float:
    """Domain-averaged kinetic energy 0.5 <|u|^2>."""
    ws = _workspace(config, plan)
    weights = np.full(plan.mode_shape, 2.0)
    weights[:, 0] = 1.0
    weights[:, -1] = 1.0
    n_total = float(np.prod(plan.n_points))
    return float(np.sum(weights * np.abs(zeta_modes) ** 2 * ws.inv_ksq) / (2.0 * n_total**2))


def zonal_mean(values: np.ndarray) -> np.ndarray:
    """Mean over x (axis 1) of a (y, x) field; returns the y profile."""
    if values.ndim != 2:
        raise ConfigurationError(f"zonal mean expects a 2D field, got shape {values.shape}")
    return values.mean(axis=1)


def zonal_velocity(state: BetaState, config: BetaConfig, plan: spectral.SpectralPlan) -> np.ndarray:
    """Zonal-mean zonal velocity profile U(y)."""
    u_modes, _ = velocity_modes(state.zeta_modes, config, plan)
    return zonal_mean(spectral.to_values(u_modes, plan))


@dataclass
class BudgetRecord:
    """Zonal-momentum budget dU/dt = damping_term + reynolds_term + residual."""

    du_dt: np.ndarray
    damping_term: np.ndarray
    reynolds_term: np.ndarray
    residual: np.ndarray
    relative_residual: float


def eddy_mean_budget(
    state: BetaState, config: BetaConfig, plan: spectral.SpectralPlan
) -> BudgetRecord:
    """Instantaneous eddy-mean budget of the zonal-mean flow U(y).

    The tendency dU/dt comes from a one-sided fourth-order difference over
    four deterministic probe steps (forcing suppressed), so it is measured
    independently of the algebraic decomposition on the right-hand side.
    """
    ws = _workspace(config, plan)
    z = state.zeta_modes

    u_modes, v_modes = velocity_modes(z, config, plan)
    u = spectral.to_values(u_modes, plan)
    v = spectral.to_values(v_modes, plan)
    zeta = spectral.to_values(z, plan)
    mean_u = zonal_mean(u)
    v_eddy = v - zonal_mean(v)[:, None]
    zeta_eddy = zeta - zonal_mean(zeta)[:, None]
    # The vorticity flux must mirror how the solver treats quadratic products
    # (truncated only on the unfiltered path) or the budget won't close.
    flux_modes = spectral.to_modes(zeta_eddy * v_eddy, plan)
    if not config.use_filter:
        flux_modes = spectral.dealias(flux_modes, plan)
    reynolds = zonal_mean(spectral.to_values(flux_modes, plan))

    damping = -config.mu * mean_u
    if config.hyperviscosity is not None:
        coeff, order = config.hyperviscosity
        mean_u_modes = np.fft.rfft(mean_u)
        ky = plan.wavenumbers[0][: plan.n_points[0] // 2 + 1]
        damping = damping + np.fft.irfft(
            -coeff * (ky**2) ** int(order) * mean_u_modes, n=plan.n_points[0]
        )
    if config.use_filter:
        # One filtered step maps z to g*(z + dt*T), so the measured tendency
        # sees the filter as a damping rate ln(g)/dt on U plus the gain g
        # applied to every other term.  The gain is radial, so the zonal
        # column of the 2D gain covers U's modes.
        n0 = plan.n_points[0]
        gain = plan.filter_gain[: n0 // 2 + 1, 0]

        def zonal_gain(profile: np.ndarray, factor: np.ndarray) -> np.ndarray:
            return np.fft.irfft(factor * np.fft.rfft(profile), n=n0)

        damping = zonal_gain(damping, gain) + zonal_gain(mean_u, np.log(gain) / config.dt)
        reynolds = zonal_gain(reynolds, gain)

    quiet = dataclasses.replace(config, epsilon=0.0)
    probe = BetaState(zeta_modes=z.copy(), time=state.time, rng=np.random.default_rng(0))
    profiles = [mean_u]
    for _ in range(4):
        probe = step(probe, quiet, plan)
        profiles.append(zonal_velocity(probe, quiet, plan))
    p = profiles
    du_dt = (-25.0 * p[0] + 48.0 * p[1] - 36.0 * p[2] + 16.0 * p[3] - 3.0 * p[4]) / (
        12.0 * config.dt
    )

    residual = du_dt - damping - reynolds
    scale = max(
        float(np.max(np.abs(du_dt))),
        float(np.max(np.abs(damping))),
        float(np.max(np.abs(reynolds))),
    )
    rel = float(np.max(np.abs(residual)) / scale) if scale > 0 else 0.0
    return BudgetRecord(
        du_dt=du_dt,
        damping_term=damping,
        reynolds_term=reynolds,
        residual=residual,
        relative_residual=rel,
    )


def generate_dataset(
    config: BetaConfig,
    n_snapshots: int,
    snapshot_interval: float = 1.0,
    warmup: float = 75.0,
    return_state: bool = False,
) -> Trajectory | tuple[Trajectory, BetaState]:
    """Spin up from rest and record zonal-mean velocity profiles U(y, t).

    With `return_state` the final vorticity state comes back too, so a run
    can be continued or used to seed a split ensemble.
    """
    if n_snapshots < 1:
        raise ConfigurationError(f"need at least one snapshot, got {n_snapshots}")
    steps = snapshot_interval / config.dt
    if abs(steps - round(steps)) > 1e-9 * max(1.0, abs(steps)) or round(steps) < 1:
        raise ConfigurationError(
            f"snapshot interval {snapshot_interval} is not a positive integer "
            f"multiple of dt {config.dt}"
        )
    steps_per_snapshot = int(round(steps))
    warmup_steps = int(round(warmup / config.dt))

    plan = make_beta_plan(config)
    state = init_state(config, plan)
    frames = np.empty((n_snapshots, config.n_points), dtype=np.float32)
    done = 0
    try:
        state = run(state, config, plan, warmup_steps)
        step_index = warmup_steps
        for i in range(n_snapshots):
            frames[i] = zonal_velocity(state, config, plan)
            done = i + 1
            if i < n_snapshots - 1:
                state = run(state, config, plan, steps_per_snapshot, step_index)
                step_index += steps_per_snapshot
    except IntegrationDivergedError as exc:
        raise IntegrationDivergedError(
            f"{exc} after {done} of {n_snapshots} snapshots",
            step=exc.step,
            time=exc.time,
            snapshots_completed=done,
        ) from exc

    metadata = {
        "equation": "beta_plane",
        "field": "zonal_velocity",
        "beta": config.beta,
        "mu": config.mu,
        "epsilon": config.epsilon,
        "forcing_wavenumber": config.forcing_wavenumber,
        "forcing_bandwidth": config.forcing_bandwidth,
        "dt": config.dt,
        "n_points": config.n_points,
        "domain_length": DOMAIN_LENGTH,
        "seed": config.seed,
        "warmup": warmup,
    }
    traj = Trajectory(
        frames=frames,
        snapshot_interval=snapshot_interval,
        t0=warmup,
        metadata=metadata,
    )
    return (traj, state) if return_state else traj
