import numpy as np
import pytest

from pde_lab import beta_plane, diagnostics, ks
from pde_lab import model as emodel
from pde_lab.errors import ConfigurationError, RolloutDivergedError, ShapeError
from pde_lab.fileio import Trajectory


def tiny_params(**overrides):
    base = dict(n_blocks=1, channels=4, window=3, history=2, equation="ks")
    base.update(overrides)
    return emodel.init_model(emodel.EmulatorConfig(**base), seed=0)


def traveling_wave(n_frames=8, n_points=32, speed=0.3, interval=0.5):
    t = np.arange(n_frames)[:, None] * interval
    x = np.arange(n_points)[None, :] * (2.0 * np.pi / n_points)
    return Trajectory(
        frames=np.sin(x - speed * t),
        snapshot_interval=interval,
        metadata={"domain_length": 2.0 * np.pi},
    )


def jet_profile(count, n_points=64):
    y = np.arange(n_points) * (2.0 * np.pi / n_points)
    return np.sin(count * y) if count > 0 else np.zeros(n_points)


def count_trajectory(sequence, interval=1.0, t0=0.0):
    """Zonal-profile frames whose per-frame jet counts follow `sequence`."""
    frames = np.stack([jet_profile(c) for c in sequence])
    return Trajectory(frames=frames, snapshot_interval=interval, t0=t0)


class TestRollout:
    def test_returns_predictions_only(self, rng):
        params = tiny_params()
        init = rng.standard_normal((2, 16))
        traj = diagnostics.rollout(params, init, 0.5, 4, snapshot_interval=0.25)
        assert traj.frames.shape == (4, 16)
        assert traj.t0 == 0.25
        np.testing.assert_allclose(traj.times, [0.25, 0.5, 0.75, 1.0])
        assert traj.metadata["kind"] == "rollout"
        assert traj.metadata["conditioning"] == [0.5]

    def test_first_step_matches_predict(self, rng):
        params = tiny_params()
        init = rng.standard_normal((2, 16))
        traj = diagnostics.rollout(params, init, 0.5, 1)
        np.testing.assert_array_equal(
            traj.frames[0], emodel.predict(params, init, 0.5).astype(np.float32)
        )

    def test_zero_steps(self, rng):
        traj = diagnostics.rollout(tiny_params(), rng.standard_normal((2, 16)), 0.5, 0)
        assert traj.frames.shape == (0, 16)

    def test_metadata_merge(self, rng):
        traj = diagnostics.rollout(
            tiny_params(), rng.standard_normal((2, 16)), 0.5, 1,
            metadata={"domain_length": 22.0},
        )
        assert traj.metadata["domain_length"] == 22.0
        assert traj.metadata["kind"] == "rollout"

    def test_deterministic(self, rng):
        params = tiny_params()
        init = rng.standard_normal((2, 16))
        a = diagnostics.rollout(params, init, 0.5, 5)
        b = diagnostics.rollout(params, init, 0.5, 5)
        np.testing.assert_array_equal(a.frames, b.frames)

    def test_probabilistic_seeding(self, rng):
        params = tiny_params(probabilistic=True)
        init = rng.standard_normal((2, 16))
        a = diagnostics.rollout(params, init, 0.5, 3, noise_seed=[7, 0])
        b = diagnostics.rollout(params, init, 0.5, 3, noise_seed=[7, 0])
        c = diagnostics.rollout(params, init, 0.5, 3, noise_seed=[7, 1])
        np.testing.assert_array_equal(a.frames, b.frames)
        assert not np.array_equal(a.frames, c.frames)

    def test_cap_aborts_with_step(self, rng):
        params = tiny_params()
        init = rng.standard_normal((2, 16))
        with pytest.raises(RolloutDivergedError) as excinfo:
            diagnostics.rollout(params, init, 0.5, 3, cap=1e-12)
        assert excinfo.value.step == 1

    def test_validation(self, rng):
        params = tiny_params()
        with pytest.raises(ShapeError):
            diagnostics.rollout(params, rng.standard_normal((3, 16)), 0.5, 1)
        with pytest.raises(ConfigurationError):
            diagnostics.rollout(params, rng.standard_normal((2, 16)), 0.5, -1)


class TestJointPdf:
    def test_needs_three_frames(self):
        traj = traveling_wave(n_frames=2)
        with pytest.raises(ConfigurationError):
            diagnostics.joint_pdf(traj)

    def test_domain_length_sources(self):
        traj = traveling_wave()
        diagnostics.joint_pdf(traj)  # metadata carries it
        bare = Trajectory(frames=traj.frames, snapshot_interval=traj.snapshot_interval)
        with pytest.raises(ConfigurationError):
            diagnostics.joint_pdf(bare)
        diagnostics.joint_pdf(bare, domain_length=2.0 * np.pi)

    def test_sample_layout(self):
        traj = traveling_wave(n_frames=8, n_points=32)
        hist = diagnostics.joint_pdf(traj)
        assert hist.n_samples == 6 * 32  # interior frames only
        assert hist.counts.shape == (50, 50, 50)
        assert hist.mass.sum() == pytest.approx(1.0)

    def test_derivative_relation_on_wave(self):
        """For u = sin(x - ct) the spectral x-derivative is exact and the
        centered time difference picks up the factor sin(c h)/h, so the
        samples must satisfy ut = -(sin(c h)/h) ux identically."""
        speed, interval = 0.3, 0.5
        traj = traveling_wave(speed=speed, interval=interval)
        samples = diagnostics._pdf_samples(traj, None)
        factor = np.sin(speed * interval) / interval
        # frames are stored float32, so roundoff sits near 1e-7
        np.testing.assert_allclose(samples[:, 2], -factor * samples[:, 1], atol=1e-6)
        np.testing.assert_allclose(
            samples[:, 0], traj.frames[1:-1].reshape(-1), atol=1e-7
        )

    def test_shared_edges(self):
        a = traveling_wave(speed=0.3)
        b = traveling_wave(speed=0.4)
        ha = diagnostics.joint_pdf(a)
        hb = diagnostics.joint_pdf(b, edges=ha.edges)
        for ea, eb in zip(ha.edges, hb.edges):
            np.testing.assert_array_equal(ea, eb)
        diagnostics.hellinger(ha, hb)


class TestHellinger:
    @staticmethod
    def _hist(counts):
        counts = np.asarray(counts, dtype=float).reshape(-1, 1, 1)
        edges = (
            np.arange(counts.shape[0] + 1, dtype=float),
            np.array([0.0, 1.0]),
            np.array([0.0, 1.0]),
        )
        return diagnostics.Histogram3D(edges=edges, counts=counts, n_samples=int(counts.sum()))

    def test_hand_value(self):
        """Masses (1, 0) vs (1/2, 1/2): sqrt(1 - 1/sqrt(2)) = 0.54120."""
        d = diagnostics.hellinger(self._hist([2, 0]), self._hist([1, 1]))
        assert d == pytest.approx(np.sqrt(1.0 - np.sqrt(0.5)), abs=1e-12)
        assert d == pytest.approx(0.5412, abs=5e-5)

    def test_extremes(self):
        assert diagnostics.hellinger(self._hist([3, 1]), self._hist([3, 1])) == 0.0
        assert diagnostics.hellinger(self._hist([1, 0]), self._hist([0, 1])) == pytest.approx(1.0)

    def test_binning_mismatch(self):
        a = self._hist([1, 0])
        b = self._hist([1, 0, 0])
        with pytest.raises(ConfigurationError):
            diagnostics.hellinger(a, b)

    def test_histogram_round_trip(self, tmp_path):
        hist = diagnostics.joint_pdf(traveling_wave())
        path = tmp_path / "pdf.npec"
        diagnostics.write_histogram(path, hist)
        loaded = diagnostics.read_histogram(path)
        np.testing.assert_array_equal(loaded.counts, hist.counts)
        assert loaded.n_samples == hist.n_samples
        for ea, eb in zip(loaded.edges, hist.edges):
            np.testing.assert_allclose(ea, eb, atol=1e-12)
        assert diagnostics.hellinger(hist, loaded) == pytest.approx(0.0, abs=1e-12)


class TestZonalPsd:
    def test_parseval(self, rng):
        traj = Trajectory(frames=rng.standard_normal((6, 33)), snapshot_interval=1.0)
        index, psd = diagnostics.zonal_psd(traj)
        frames = traj.frames.astype(np.float64)
        np.testing.assert_allclose(
            psd.sum(), (frames**2).sum(axis=1).mean() / 33, rtol=1e-12
        )
        np.testing.assert_array_equal(index, np.arange(17))

    def test_single_harmonic(self):
        y = np.arange(64) * (2.0 * np.pi / 64)
        traj = Trajectory(frames=np.tile(2.0 * np.cos(3 * y), (4, 1)), snapshot_interval=1.0)
        _, psd = diagnostics.zonal_psd(traj)
        assert psd[3] == pytest.approx(2.0, rel=1e-6)  # amplitude^2 / 2
        mask = np.ones(33, dtype=bool)
        mask[3] = False
        np.testing.assert_allclose(psd[mask], 0.0, atol=1e-9)


class TestCountJets:
    @pytest.mark.parametrize("count", [1, 2, 3, 5])
    def test_harmonic_profiles(self, count):
        assert diagnostics.count_jets(jet_profile(count)) == count

    def test_constant_profile(self):
        assert diagnostics.count_jets(np.zeros(64)) == 0
        assert diagnostics.count_jets(np.full(64, 3.0)) == 0

    def test_peak_on_the_seam(self):
        y = np.arange(64) * (2.0 * np.pi / 64)
        assert diagnostics.count_jets(np.cos(y)) == 1  # maximum at index 0

    def test_prominence_threshold(self):
        # one tall bump and one shallow one: the shallow peak only counts
        # once the prominence cutoff drops below its height
        y = np.arange(64) * (2.0 * np.pi / 64)
        profile = np.exp(-((y - 2.0) ** 2) / 0.1) + 0.1 * np.exp(-((y - 5.0) ** 2) / 0.1)
        assert diagnostics.count_jets(profile) == 1
        assert diagnostics.count_jets(profile, prominence=0.05) == 2

    def test_noise_robustness(self, rng):
        profile = jet_profile(2) + 0.05 * rng.standard_normal(64)
        assert diagnostics.count_jets(profile) == 2

    def test_shape_checked(self):
        with pytest.raises(ShapeError):
            diagnostics.count_jets(np.zeros((4, 4)))


class TestDetectEvents:
    def test_simple_transition(self):
        traj = count_trajectory([2] * 10 + [3] * 10, interval=0.5, t0=4.0)
        events = diagnostics.detect_events(traj)
        assert len(events) == 1
        event = events[0]
        assert event.kind == "nucleation"
        assert (event.count_before, event.count_after) == (2, 3)
        assert event.time == 4.0 + 10 * 0.5  # first frame of the new run

    def test_debounce_rejects_blips(self):
        traj = count_trajectory([2] * 10 + [3] * 4 + [2] * 10)
        assert diagnostics.detect_events(traj) == []
        traj = count_trajectory([2] * 10 + [3] * 5 + [2] * 10)
        kinds = [e.kind for e in diagnostics.detect_events(traj)]
        assert kinds == ["nucleation", "coalescence"]

    def test_multi_step_decomposes_into_units(self):
        traj = count_trajectory([2] * 8 + [4] * 8)
        events = diagnostics.detect_events(traj)
        assert [(e.count_before, e.count_after) for e in events] == [(2, 3), (3, 4)]
        assert events[0].time == events[1].time
        assert all(e.kind == "nucleation" for e in events)

    def test_reversal_swaps_kinds_exactly(self):
        sequence = [2] * 9 + [3] * 7 + [2] * 2 + [4] * 11 + [3] * 6
        traj = count_trajectory(sequence)
        flipped = count_trajectory(sequence[::-1])
        forward = diagnostics.detect_events(traj)
        backward = diagnostics.detect_events(flipped)
        swap = {"nucleation": "coalescence", "coalescence": "nucleation"}
        assert sorted((swap[e.kind], e.count_after, e.count_before) for e in forward) == \
            sorted((e.kind, e.count_before, e.count_after) for e in backward)

    def test_net_count_is_conserved(self):
        sequence = [1] * 6 + [2] * 6 + [4] * 7 + [3] * 9 + [5] * 8
        events = diagnostics.detect_events(count_trajectory(sequence))
        ups = sum(e.kind == "nucleation" for e in events)
        downs = sum(e.kind == "coalescence" for e in events)
        assert ups - downs == 5 - 1
        for prev, cur in zip(events, events[1:]):
            assert cur.count_before == prev.count_after

    def test_debounce_validation(self):
        with pytest.raises(ConfigurationError):
            diagnostics.detect_events(count_trajectory([1] * 6), debounce=0)

    def test_first_event_time_is_start_relative(self):
        traj = count_trajectory([3] * 6 + [2] * 6, interval=2.0, t0=100.0)
        assert diagnostics.first_event_time(traj, "coalescence") == 12.0
        assert diagnostics.first_event_time(traj, "nucleation") is None


class TestEventTimePdf:
    @staticmethod
    def runner(i):
        return count_trajectory([3] * (5 + i) + [2] * 10)

    def test_counts_plus_overflow_is_ensemble(self):
        hist = diagnostics.event_time_pdf(self.runner, 8, horizon=9.5, n_bins=19)
        assert hist.counts.sum() + hist.overflow == 8
        assert hist.overflow == 3  # members 5..7 fire after the horizon
        assert hist.ensemble_size == 8
        assert hist.mass.sum() + hist.overflow / 8 == pytest.approx(1.0)

    def test_bin_placement(self):
        hist = diagnostics.event_time_pdf(self.runner, 3, horizon=10.0, n_bins=10)
        np.testing.assert_array_equal(hist.counts, [0, 0, 0, 0, 0, 1, 1, 1, 0, 0])

    def test_thread_invariance(self):
        a = diagnostics.event_time_pdf(self.runner, 8, horizon=9.5, threads=1)
        b = diagnostics.event_time_pdf(self.runner, 8, horizon=9.5, threads=4)
        np.testing.assert_array_equal(a.counts, b.counts)
        assert a.overflow == b.overflow

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            diagnostics.event_time_pdf(self.runner, 0, horizon=5.0)
        with pytest.raises(ConfigurationError):
            diagnostics.event_time_pdf(self.runner, 2, horizon=0.0)
        with pytest.raises(ConfigurationError):
            diagnostics.event_time_pdf(self.runner, 2, horizon=5.0, kind="merger")

    def test_hellinger_1d(self):
        a = diagnostics.event_time_pdf(self.runner, 8, horizon=9.5)
        assert diagnostics.hellinger_1d(a, a) == 0.0
        b = diagnostics.event_time_pdf(self.runner, 8, horizon=12.0)
        with pytest.raises(ConfigurationError):
            diagnostics.hellinger_1d(a, b)


class TestMemberRunners:
    def test_solver_members_share_start_and_diverge(self):
        config = beta_plane.BetaConfig(beta=0.5, n_points=32, forcing_wavenumber=8)
        plan = beta_plane.make_beta_plan(config)
        init = np.zeros(plan.mode_shape, dtype=complex)
        runner = diagnostics.solver_member_runner(
            config, init, n_snapshots=3, snapshot_interval=0.4, base_seed=5
        )
        a, b = runner(0), runner(1)
        assert a.frames.shape == (3, 32)
        np.testing.assert_array_equal(a.frames[0], b.frames[0])  # common initial state
        assert not np.array_equal(a.frames[-1], b.frames[-1])
        assert a.metadata["member"] == 0
        assert a.metadata["field"] == "zonal_velocity"
        np.testing.assert_array_equal(runner(0).frames, a.frames)

    def test_emulator_members(self, rng):
        params = tiny_params(probabilistic=True)
        init = rng.standard_normal((2, 16))
        runner = diagnostics.emulator_member_runner(params, init, 0.5, 3, base_seed=2)
        a, b = runner(0), runner(1)
        assert a.frames.shape == (3, 16)
        assert not np.array_equal(a.frames, b.frames)
        np.testing.assert_array_equal(runner(0).frames, a.frames)
        assert b.metadata["member"] == 1


class TestChaosMetrics:
    def test_lyapunov_positive_for_chaotic_domain(self):
        config = ks.KSConfig(domain_length=22.0, warmup_time=60.0, seed=1)
        rate = diagnostics.lyapunov_exponent(
            config, total_time=250.0, renorm_interval=5.0, transient_intervals=10
        )
        assert 0.005 < rate < 0.12

    def test_lyapunov_small_for_laminar_domain(self):
        # this domain settles into a non-chaotic state, so the finite-time
        # estimate should sit far below the chaotic regime's 0.04-0.09
        config = ks.KSConfig(domain_length=10.0, warmup_time=200.0, seed=1)
        rate = diagnostics.lyapunov_exponent(
            config, total_time=300.0, renorm_interval=5.0, transient_intervals=20
        )
        assert rate < 0.02

    def test_lyapunov_validation(self):
        config = ks.KSConfig(domain_length=22.0, warmup_time=1.0)
        with pytest.raises(ConfigurationError):
            diagnostics.lyapunov_exponent(
                config, total_time=20.0, renorm_interval=10.0, transient_intervals=10
            )

    def test_tracking_horizon_crossing(self, rng):
        params = tiny_params()
        truth = Trajectory(frames=rng.standard_normal((12, 16)), snapshot_interval=0.5)
        horizon = diagnostics.tracking_horizon(params, truth, 0.5, lyapunov=0.05,
                                               threshold=0.0)
        assert horizon == pytest.approx(0.5 * 0.05)  # crosses on the first step

    def test_tracking_horizon_never_crossing(self, rng):
        params = tiny_params()
        truth = Trajectory(frames=rng.standard_normal((12, 16)), snapshot_interval=0.5)
        horizon = diagnostics.tracking_horizon(params, truth, 0.5, lyapunov=0.05,
                                               threshold=1e9)
        assert horizon == pytest.approx(10 * 0.5 * 0.05)  # full span, 10 steps

    def test_tracking_horizon_validation(self, rng):
        params = tiny_params()
        truth = Trajectory(frames=rng.standard_normal((12, 16)), snapshot_interval=0.5)
        with pytest.raises(ConfigurationError):
            diagnostics.tracking_horizon(params, truth, 0.5, lyapunov=0.0)
        short = Trajectory(frames=rng.standard_normal((2, 16)), snapshot_interval=0.5)
        with pytest.raises(ConfigurationError):
            diagnostics.tracking_horizon(params, short, 0.5, lyapunov=0.05)
