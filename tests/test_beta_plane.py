import numpy as np
import pytest

from pde_lab import beta_plane, spectral
from pde_lab.errors import ConfigurationError, IntegrationDivergedError


def quiet_config(**kwargs):
    """Forcing off so only the deterministic terms act."""
    defaults = dict(beta=0.5, epsilon=0.0)
    defaults.update(kwargs)
    return beta_plane.BetaConfig(**defaults)


class TestConfig:
    def test_annulus_must_fit_dealias_band(self):
        with pytest.raises(ConfigurationError, match="dealiased"):
            beta_plane.BetaConfig(beta=0.5, forcing_wavenumber=22, n_points=64)

    def test_axis_mode_always_forced(self):
        # (jx = k_f, jy = 0) sits at radius k_f exactly, so an integer
        # forcing wavenumber always has at least one annulus member
        cfg = beta_plane.BetaConfig(
            beta=0.5, forcing_wavenumber=16, forcing_bandwidth=1e-9, n_points=64
        )
        plan = beta_plane.make_beta_plan(cfg)
        xi = beta_plane.draw_forcing(cfg, plan, np.random.default_rng(0))
        assert xi[0, 16] != 0.0

    def test_basic_validation(self):
        with pytest.raises(ConfigurationError):
            beta_plane.BetaConfig(beta=0.5, mu=0.0)
        with pytest.raises(ConfigurationError):
            beta_plane.BetaConfig(beta=0.5, epsilon=-1.0)
        with pytest.raises(ConfigurationError):
            beta_plane.BetaConfig(beta=0.5, hyperviscosity=(-1.0, 2))

    def test_annulus_survives_narrow_band(self):
        # |sqrt(jx^2 + jy^2) - 16| <= 0.5 has plenty of members at n = 64
        cfg = beta_plane.BetaConfig(beta=0.5, forcing_wavenumber=16)
        state = beta_plane.init_state(cfg)
        assert state.zeta_modes.shape == (64, 33)


class TestLinearDynamics:
    def test_rossby_wave_decay(self):
        """Forcing off, one eddy mode: the exact solution is a Rossby wave
        rotating at -beta kx / k^2 while decaying at rate mu."""
        cfg = quiet_config(beta=0.9)
        plan = beta_plane.make_beta_plan(cfg)
        state = beta_plane.init_state(cfg, plan)
        jy, jx = 2, 3
        state.zeta_modes[jy, jx] = 1e-8 * cfg.n_points**2

        steps = 25  # one time unit
        out = beta_plane.run(state, cfg, plan, steps)
        ksq = float(jx**2 + jy**2)
        # d zeta_hat / dt = (-mu + i beta kx / k^2) zeta_hat for one eddy mode
        expected = 1e-8 * cfg.n_points**2 * np.exp(
            (-cfg.mu + 1j * cfg.beta * jx / ksq) * steps * cfg.dt
        )
        rel = abs(out.zeta_modes[jy, jx] - expected) / abs(expected)
        assert rel < 1e-6

    def test_pure_damping_without_beta(self):
        cfg = quiet_config(beta=0.0, use_filter=False)
        plan = beta_plane.make_beta_plan(cfg)
        state = beta_plane.init_state(cfg, plan)
        state.zeta_modes[5, 0] = 1.0  # zonal mode: no beta term either way
        out = beta_plane.run(state, cfg, plan, 50)
        expected = np.exp(-cfg.mu * 50 * cfg.dt)
        assert abs(out.zeta_modes[5, 0] - expected) / expected < 1e-10

    def test_hyperviscosity_decay(self):
        """The del^4 symbol adds exp(-nu k^4 t) on top of the drag."""
        nu = 1e-5
        cfg = quiet_config(beta=0.0, use_filter=False, hyperviscosity=(nu, 2))
        plan = beta_plane.make_beta_plan(cfg)
        state = beta_plane.init_state(cfg, plan)
        jy, jx = 4, 3
        state.zeta_modes[jy, jx] = 1e-8 * cfg.n_points**2
        out = beta_plane.run(state, cfg, plan, 25)
        ksq = float(jx**2 + jy**2)
        rate = cfg.mu + nu * ksq**2
        expected = 1e-8 * cfg.n_points**2 * np.exp(-rate * 1.0)
        assert abs(abs(out.zeta_modes[jy, jx]) - expected) / expected < 1e-6

    def test_mean_vorticity_pinned_to_zero(self):
        cfg = beta_plane.BetaConfig(beta=0.9, seed=2)
        plan = beta_plane.make_beta_plan(cfg)
        state = beta_plane.run(beta_plane.init_state(cfg, plan), cfg, plan, 100)
        assert state.zeta_modes[0, 0] == 0.0


class TestForcing:
    def test_zonal_column_unforced(self):
        cfg = beta_plane.BetaConfig(beta=0.5, seed=1)
        plan = beta_plane.make_beta_plan(cfg)
        xi = beta_plane.draw_forcing(cfg, plan, np.random.default_rng(0))
        assert np.all(xi[:, 0] == 0.0)

    def test_annulus_only(self):
        cfg = beta_plane.BetaConfig(beta=0.5)
        plan = beta_plane.make_beta_plan(cfg)
        xi = beta_plane.draw_forcing(cfg, plan, np.random.default_rng(0))
        jy = plan.index_grid(0)
        jx = plan.index_grid(1)
        radius = np.sqrt(jx**2 + jy**2)
        off_band = np.abs(radius - 16.0) > 0.5
        assert np.all(xi[off_band] == 0.0)
        assert np.count_nonzero(xi) > 50

    def test_injection_rate_is_epsilon(self):
        """From rest, one step injects exactly dt * epsilon of energy: the
        unit-modulus phase construction makes the increment deterministic in
        magnitude, not just in expectation."""
        cfg = beta_plane.BetaConfig(beta=0.5, mu=1e-12, seed=0, use_filter=False)
        plan = beta_plane.make_beta_plan(cfg)
        state = beta_plane.init_state(cfg, plan)
        out = beta_plane.step(state, cfg, plan)
        energy = beta_plane.total_energy(out.zeta_modes, cfg, plan)
        assert energy == pytest.approx(cfg.epsilon * cfg.dt, rel=1e-10)

    def test_forcing_stream_determinism(self):
        cfg = beta_plane.BetaConfig(beta=0.5, seed=11)
        plan = beta_plane.make_beta_plan(cfg)
        a = beta_plane.run(beta_plane.init_state(cfg, plan), cfg, plan, 20)
        b = beta_plane.run(beta_plane.init_state(cfg, plan), cfg, plan, 20)
        np.testing.assert_array_equal(a.zeta_modes, b.zeta_modes)


class TestEnergy:
    def test_monotone_decay_without_forcing(self):
        """Advection conserves energy, drag and filter only remove it."""
        cfg = beta_plane.BetaConfig(beta=0.9, seed=5)
        plan = beta_plane.make_beta_plan(cfg)
        state = beta_plane.run(beta_plane.init_state(cfg, plan), cfg, plan, 500)

        quiet = quiet_config(beta=0.9, mu=cfg.mu)
        energies = [beta_plane.total_energy(state.zeta_modes, quiet, plan)]
        for _ in range(50):
            state = beta_plane.step(state, quiet, plan)
            energies.append(beta_plane.total_energy(state.zeta_modes, quiet, plan))
        diffs = np.diff(energies)
        assert np.all(diffs <= 1e-12 * energies[0])

    def test_parseval_identity(self):
        """Mode-space energy equals 0.5 mean(u^2 + v^2) on the grid."""
        cfg = beta_plane.BetaConfig(beta=0.9, seed=3)
        plan = beta_plane.make_beta_plan(cfg)
        state = beta_plane.run(beta_plane.init_state(cfg, plan), cfg, plan, 200)
        u_modes, v_modes = beta_plane.velocity_modes(state.zeta_modes, cfg, plan)
        u = spectral.to_values(u_modes, plan)
        v = spectral.to_values(v_modes, plan)
        direct = 0.5 * np.mean(u**2 + v**2)
        assert beta_plane.total_energy(state.zeta_modes, cfg, plan) == pytest.approx(
            direct, rel=1e-12
        )


class TestVelocities:
    def test_divergence_free(self):
        cfg = beta_plane.BetaConfig(beta=0.5, seed=8)
        plan = beta_plane.make_beta_plan(cfg)
        state = beta_plane.run(beta_plane.init_state(cfg, plan), cfg, plan, 50)
        u_modes, v_modes = beta_plane.velocity_modes(state.zeta_modes, cfg, plan)
        kx = plan.wavenumber_grid(1)
        ky = plan.wavenumber_grid(0)
        # u = -d psi/dy, v = d psi/dx: du/dx + dv/dy = 0 identically
        div = 1j * kx * u_modes + 1j * ky * v_modes
        assert np.max(np.abs(div)) < 1e-12 * np.max(np.abs(state.zeta_modes))

    def test_curl_recovers_vorticity(self):
        cfg = beta_plane.BetaConfig(beta=0.5, seed=8)
        plan = beta_plane.make_beta_plan(cfg)
        state = beta_plane.run(beta_plane.init_state(cfg, plan), cfg, plan, 50)
        u_modes, v_modes = beta_plane.velocity_modes(state.zeta_modes, cfg, plan)
        kx = plan.wavenumber_grid(1)
        ky = plan.wavenumber_grid(0)
        curl = 1j * kx * v_modes - 1j * ky * u_modes
        np.testing.assert_allclose(curl, state.zeta_modes, atol=1e-12)

    def test_zonal_mean_shape(self):
        with pytest.raises(ConfigurationError):
            beta_plane.zonal_mean(np.zeros(8))
        profile = beta_plane.zonal_mean(np.arange(12.0).reshape(3, 4))
        np.testing.assert_allclose(profile, [1.5, 5.5, 9.5])


class TestBudget:
    def test_pure_zonal_flow_closes_exactly(self):
        """U(y) alone: no eddies, so dU/dt = -mu U to machine precision."""
        cfg = quiet_config(beta=0.9, use_filter=False)
        plan = beta_plane.make_beta_plan(cfg)
        state = beta_plane.init_state(cfg, plan)
        state.zeta_modes[3, 0] = 0.5 * cfg.n_points**2
        record = beta_plane.eddy_mean_budget(state, cfg, plan)
        assert np.max(np.abs(record.reynolds_term)) == 0.0
        assert record.relative_residual < 1e-10
        np.testing.assert_allclose(
            record.du_dt, -cfg.mu * beta_plane.zonal_velocity(state, cfg, plan), rtol=1e-9
        )

    def test_zonal_flow_with_hyperviscosity(self):
        nu = 1e-4
        cfg = quiet_config(beta=0.9, use_filter=False, hyperviscosity=(nu, 2))
        plan = beta_plane.make_beta_plan(cfg)
        state = beta_plane.init_state(cfg, plan)
        state.zeta_modes[3, 0] = 0.5 * cfg.n_points**2
        record = beta_plane.eddy_mean_budget(state, cfg, plan)
        assert record.relative_residual < 1e-8
        # dissipation now includes -nu (d/dy)^4, i.e. -nu * 3^4 * U for mode 3
        profile = beta_plane.zonal_velocity(state, cfg, plan)
        np.testing.assert_allclose(
            record.damping_term, -(cfg.mu + nu * 81.0) * profile, rtol=1e-9, atol=1e-14
        )

    def test_turbulent_state_closes(self):
        """At an equilibrated forced state the decomposition still balances
        the probe tendency to a few percent; the remainder is the commutator
        between the per-step filter and the RK4 stages, which the budget's
        gain-weighted terms only capture to first order in dt."""
        cfg = beta_plane.BetaConfig(beta=0.9, seed=7)
        plan = beta_plane.make_beta_plan(cfg)
        state = beta_plane.run(beta_plane.init_state(cfg, plan), cfg, plan, 1875)
        record = beta_plane.eddy_mean_budget(state, cfg, plan)
        assert record.relative_residual < 0.05
        assert np.max(np.abs(record.reynolds_term)) > 0.0
        np.testing.assert_allclose(
            record.residual,
            record.du_dt - record.damping_term - record.reynolds_term,
            atol=1e-15,
        )

    def test_budget_ignores_forcing(self):
        """The probe suppresses the stochastic term, so two budgets of the
        same state agree bit for bit regardless of the state's rng."""
        cfg = beta_plane.BetaConfig(beta=0.9, seed=7)
        plan = beta_plane.make_beta_plan(cfg)
        state = beta_plane.run(beta_plane.init_state(cfg, plan), cfg, plan, 100)
        a = beta_plane.eddy_mean_budget(state, cfg, plan)
        b = beta_plane.eddy_mean_budget(state, cfg, plan)
        np.testing.assert_array_equal(a.du_dt, b.du_dt)


class TestDataset:
    def test_profiles_recorded(self):
        cfg = beta_plane.BetaConfig(beta=0.9, seed=1)
        traj = beta_plane.generate_dataset(cfg, 4, warmup=2.0)
        assert traj.frames.shape == (4, 64)
        assert traj.t0 == 2.0
        assert traj.metadata["equation"] == "beta_plane"
        assert traj.metadata["beta"] == 0.9
        assert traj.metadata["field"] == "zonal_velocity"

    def test_return_state(self):
        cfg = beta_plane.BetaConfig(beta=0.9, seed=1)
        traj, state = beta_plane.generate_dataset(cfg, 3, warmup=1.0, return_state=True)
        assert state.time == pytest.approx(1.0 + 2.0)  # warmup plus 2 intervals
        # the returned state reproduces the last recorded profile
        plan = beta_plane.make_beta_plan(cfg)
        np.testing.assert_allclose(
            beta_plane.zonal_velocity(state, cfg, plan),
            traj.frames[-1].astype(np.float64),
            atol=1e-6,
        )

    def test_determinism(self):
        cfg = beta_plane.BetaConfig(beta=0.9, seed=12)
        a = beta_plane.generate_dataset(cfg, 3, warmup=1.0)
        b = beta_plane.generate_dataset(cfg, 3, warmup=1.0)
        np.testing.assert_array_equal(a.frames, b.frames)

    def test_interval_validation(self):
        cfg = beta_plane.BetaConfig(beta=0.9)
        with pytest.raises(ConfigurationError, match="snapshot interval"):
            beta_plane.generate_dataset(cfg, 3, snapshot_interval=0.05)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_step_counts_from_run_start(self):
        # dt = 0.5 with unit injection blows up on the first step after the
        # first snapshot: warmup 2.0 is 4 steps, so the failing step is 5.
        cfg = beta_plane.BetaConfig(beta=0.9, epsilon=1.0, dt=0.5)
        with pytest.raises(IntegrationDivergedError) as excinfo:
            beta_plane.generate_dataset(cfg, 6, warmup=2.0)
        assert excinfo.value.step == 5
        assert excinfo.value.time == pytest.approx(2.5)
        assert excinfo.value.snapshots_completed == 1
