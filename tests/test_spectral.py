import numpy as np
import pytest

from pde_lab import spectral
from pde_lab.errors import ConfigurationError, ShapeError


class TestPlan:
    def test_mode_layout_1d(self):
        plan = spectral.make_plan(1, 16, 2.0 * np.pi)
        assert plan.grid_shape == (16,)
        assert plan.mode_shape == (9,)
        np.testing.assert_array_equal(plan.mode_index[0], np.arange(9))
        # L = 2 pi makes wavenumbers equal the integer mode index
        np.testing.assert_allclose(plan.wavenumbers[0], np.arange(9), atol=1e-14)

    def test_mode_layout_2d(self):
        plan = spectral.make_plan(2, 8, 1.0)
        assert plan.mode_shape == (8, 5)
        # leading axis carries the signed fftfreq layout
        np.testing.assert_array_equal(
            plan.mode_index[0], np.array([0, 1, 2, 3, -4, -3, -2, -1])
        )
        np.testing.assert_array_equal(plan.mode_index[1], np.arange(5))

    def test_wavenumber_scaling(self):
        plan = spectral.make_plan(1, 32, 11.0)
        np.testing.assert_allclose(
            plan.wavenumbers[0], 2.0 * np.pi * np.arange(17) / 11.0
        )

    @pytest.mark.parametrize(
        "dims,n,err",
        [(3, 8, "dims"), (1, 9, "even"), (1, 6, "at least 8"), (1, 8, "positive")],
    )
    def test_validation(self, dims, n, err):
        length = -1.0 if err == "positive" else 5.0
        with pytest.raises(ConfigurationError, match=err):
            spectral.make_plan(dims, n, length)

    def test_dealias_band(self):
        plan = spectral.make_plan(1, 12, 1.0)
        # keep |j| <= 12 // 3 = 4 on the half-complex axis
        np.testing.assert_array_equal(
            plan.dealias_mask, np.array([1, 1, 1, 1, 1, 0, 0], dtype=bool)
        )

    def test_dealias_band_2d(self):
        plan = spectral.make_plan(2, 12, 1.0)
        kept = plan.dealias_mask.sum()
        # 9 signed indices survive on the leading axis, 5 on the half axis
        assert kept == 9 * 5

    def test_broadcast_grids(self):
        plan = spectral.make_plan(2, (8, 10), (1.0, 2.0))
        assert plan.index_grid(0).shape == (8, 1)
        assert plan.index_grid(1).shape == (1, 6)
        assert plan.wavenumber_grid(1).shape == (1, 6)


class TestTransforms:
    def test_roundtrip_1d(self, rng):
        plan = spectral.make_plan(1, 64, 3.7)
        values = rng.standard_normal(64)
        back = spectral.to_values(spectral.to_modes(values, plan), plan)
        np.testing.assert_allclose(back, values, atol=1e-13)

    def test_roundtrip_2d(self, rng):
        plan = spectral.make_plan(2, 16, 1.0)
        values = rng.standard_normal((16, 16))
        back = spectral.to_values(spectral.to_modes(values, plan), plan)
        np.testing.assert_allclose(back, values, atol=1e-13)

    def test_parseval(self, rng):
        # sum u^2 == sum w |u_hat|^2 / n with w = 2 on interior half-axis bins
        plan = spectral.make_plan(1, 32, 5.0)
        values = rng.standard_normal(32)
        modes = spectral.to_modes(values, plan)
        weights = np.full(17, 2.0)
        weights[0] = weights[-1] = 1.0
        direct = np.sum(values**2)
        spectral_side = np.sum(weights * np.abs(modes) ** 2) / 32
        np.testing.assert_allclose(spectral_side, direct, rtol=1e-13)

    def test_shape_checks(self):
        plan = spectral.make_plan(1, 16, 1.0)
        with pytest.raises(ShapeError):
            spectral.to_modes(np.zeros(15), plan)
        with pytest.raises(ShapeError):
            spectral.to_values(np.zeros(16, dtype=complex), plan)

    def test_grid_coordinates(self):
        plan = spectral.make_plan(1, 10, 5.0)
        x = spectral.grid_coordinates(plan)
        np.testing.assert_allclose(x, 0.5 * np.arange(10))


def _derivative(values, plan, order):
    return spectral.to_values(
        spectral.derivative_modes(spectral.to_modes(values, plan), plan, order), plan
    )


class TestDerivatives:
    def test_fourth_derivative_of_sine(self):
        # d^4/dx^4 sin(2x) = 16 sin(2x) on [0, 2 pi)
        plan = spectral.make_plan(1, 64, 2.0 * np.pi)
        x = spectral.grid_coordinates(plan)
        d4 = _derivative(np.sin(2.0 * x), plan, 4)
        np.testing.assert_allclose(d4, 16.0 * np.sin(2.0 * x), atol=1e-9)

    def test_first_derivative_of_cosine(self):
        plan = spectral.make_plan(1, 48, 2.0 * np.pi)
        x = spectral.grid_coordinates(plan)
        d1 = _derivative(np.cos(3.0 * x), plan, 1)
        np.testing.assert_allclose(d1, -3.0 * np.sin(3.0 * x), atol=1e-12)

    def test_scaled_domain(self):
        # k = 2 pi / L scaling: d/dx sin(2 pi x / L) = (2 pi / L) cos(...)
        length = 7.3
        plan = spectral.make_plan(1, 40, length)
        x = spectral.grid_coordinates(plan)
        d1 = _derivative(np.sin(2.0 * np.pi * x / length), plan, 1)
        k1 = 2.0 * np.pi / length
        np.testing.assert_allclose(d1, k1 * np.cos(k1 * x), atol=1e-12)

    def test_odd_order_zeroes_nyquist(self):
        plan = spectral.make_plan(1, 16, 2.0 * np.pi)
        modes = np.zeros(9, dtype=complex)
        modes[-1] = 1.0  # pure Nyquist cosine
        d1 = spectral.derivative_modes(modes, plan, 1)
        assert np.all(d1 == 0.0)
        d2 = spectral.derivative_modes(modes, plan, 2)
        assert d2[-1] != 0.0

    def test_2d_axis_selection(self, rng):
        plan = spectral.make_plan(2, 16, 2.0 * np.pi)
        y = spectral.grid_coordinates(plan, 0)[:, None]
        x = spectral.grid_coordinates(plan, 1)[None, :]
        values = np.sin(2.0 * y) * np.cos(3.0 * x)
        modes = spectral.to_modes(values, plan)
        dy = spectral.to_values(spectral.derivative_modes(modes, plan, 1, axis=0), plan)
        dx = spectral.to_values(spectral.derivative_modes(modes, plan, 1, axis=1), plan)
        np.testing.assert_allclose(dy, 2.0 * np.cos(2.0 * y) * np.cos(3.0 * x), atol=1e-12)
        np.testing.assert_allclose(dx, -3.0 * np.sin(2.0 * y) * np.sin(3.0 * x), atol=1e-12)

    def test_order_validation(self):
        plan = spectral.make_plan(1, 16, 1.0)
        with pytest.raises(ConfigurationError):
            spectral.derivative_modes(np.zeros(9, dtype=complex), plan, 0)


class TestFilter:
    def test_unity_below_cutoff(self):
        plan = spectral.make_plan(1, 64, 1.0)
        kappa = 2.0 * np.pi * np.arange(33) / 64
        below = kappa < plan.filter_params.cutoff
        assert np.all(plan.filter_gain[below] == 1.0)

    def test_floor_at_nyquist(self):
        # kappa* = pi exactly at the Nyquist mode, so the gain is the floor
        plan = spectral.make_plan(1, 64, 1.0)
        assert plan.filter_gain[-1] == pytest.approx(1e-15, rel=1e-12)

    def test_monotone_rolloff(self):
        plan = spectral.make_plan(1, 128, 1.0)
        assert np.all(np.diff(plan.filter_gain) <= 0.0)

    def test_custom_params(self):
        fp = spectral.FilterParams(cutoff=0.5 * np.pi, floor=1e-6)
        plan = spectral.make_plan(1, 32, 1.0, filter_params=fp)
        assert plan.filter_gain[-1] == pytest.approx(1e-6, rel=1e-12)
        # analytic gain at an interior kappa
        kappa = 2.0 * np.pi * 12 / 32
        expected = np.exp(fp.strength * (kappa - fp.cutoff) ** 4)
        assert plan.filter_gain[12] == pytest.approx(expected, rel=1e-13)

    def test_param_validation(self):
        with pytest.raises(ConfigurationError):
            spectral.FilterParams(cutoff=4.0)
        with pytest.raises(ConfigurationError):
            spectral.FilterParams(floor=2.0)

    def test_dealias_zeroes_outside_band(self, rng):
        plan = spectral.make_plan(1, 30, 1.0)
        modes = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        out = spectral.dealias(modes, plan)
        assert np.all(out[11:] == 0.0)
        np.testing.assert_array_equal(out[:11], modes[:11])
