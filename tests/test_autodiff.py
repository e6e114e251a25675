import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import erf, softmax

from pde_lab import autodiff as ad
from pde_lab.errors import ConfigurationError, PdeLabError, ShapeError, TapeReplayedError


class TestPrimitiveGradients:
    """Every registered primitive against central finite differences."""

    SHAPES = {
        "add": [(3, 4), (3, 4)],
        "sub": [(5,), (5,)],
        "mul": [(2, 3), (2, 3)],
        "scale": [(4, 2)],
        "exp": [(3, 3)],
        "clamp": [(40,)],
        "absolute": [(4, 4)],
        "matmul": [(2, 3, 4), (2, 4, 5)],
        "linear": [(6, 3), (3, 5)],
        "layer_normalize": [(4, 6)],
        "gelu": [(5, 5)],
        "softmax_lastaxis": [(3, 7)],
        "unfold_circular": [(9, 2)],
        "dft_modulus": [(3, 8)],
        "transpose_last2": [(2, 3, 4)],
        "sum_all": [(3, 4)],
        "mean_all": [(2, 5)],
    }

    @pytest.mark.parametrize("name", sorted(ad.GRADCHECK_OPS))
    def test_registered_op(self, name):
        report = ad.check_gradients(name, self.SHAPES[name], tolerance=1e-6)
        assert report["passed"]

    def test_registry_covers_shapes_table(self):
        assert set(self.SHAPES) == set(ad.GRADCHECK_OPS)

    @pytest.mark.parametrize(
        "fn,shapes",
        [
            (lambda x: ad.reshape(x, (6, 2)), [(3, 4)]),
            (lambda x: ad.permute(x, (2, 0, 1)), [(2, 3, 4)]),
            (lambda x: ad.narrow(x, 1, 2), [(3, 5)]),
            (lambda a, b: ad.stack0([a, b]), [(2, 3), (2, 3)]),
            (lambda x, w, b: ad.linear(x, w, b), [(4, 3), (3, 2), (2,)]),
            (lambda x: ad.unfold_circular(x, 5), [(7, 2)]),
            (ad.matmul, [(2, 3, 4), (2, 4, 1)]),
            (ad.matmul, [(2, 1, 4), (4, 5)]),
        ],
    )
    def test_structural_ops(self, fn, shapes):
        report = ad.check_gradients(fn, shapes, tolerance=1e-6)
        assert report["passed"]

    def test_broadcast_gradients(self):
        # adjoint of broadcasting must sum over the expanded axes
        report = ad.check_gradients(ad.add, [(3, 1), (4,)], tolerance=1e-6)
        assert report["passed"]
        report = ad.check_gradients(ad.mul, [(2, 3), (3,)], tolerance=1e-6)
        assert report["passed"]

    def test_negative_control(self, monkeypatch):
        """A corrupted backward must make the checker fail; guards against a
        checker that silently passes everything."""

        def bad_mul(a, b):
            out = ad.mul(a, b)
            a.accumulate(np.ones_like(a.data))  # poison the gradient
            return out

        with pytest.raises(ad.GradcheckFailure):
            ad.check_gradients(bad_mul, [(3, 3), (3, 3)], tolerance=1e-6)


class TestForwardValues:
    def test_gelu_matches_erf_form(self, rng):
        x = rng.standard_normal((4, 5))
        out = ad.gelu(ad.Tensor(x))
        expected = 0.5 * x * (1.0 + erf(x / np.sqrt(2.0)))
        np.testing.assert_allclose(out.data, expected, atol=1e-14)

    def test_softmax_matches_scipy(self, rng):
        x = rng.standard_normal((3, 6))
        out = ad.softmax_lastaxis(ad.Tensor(x))
        np.testing.assert_allclose(out.data, softmax(x, axis=-1), atol=1e-14)
        np.testing.assert_allclose(out.data.sum(axis=-1), 1.0, atol=1e-14)

    def test_softmax_overflow_safe(self):
        out = ad.softmax_lastaxis(ad.Tensor(np.array([1000.0, 1000.0, -1000.0])))
        np.testing.assert_allclose(out.data, [0.5, 0.5, 0.0], atol=1e-14)

    def test_layer_normalize_moments(self, rng):
        x = rng.standard_normal((5, 32))
        out = ad.layer_normalize(ad.Tensor(x)).data
        np.testing.assert_allclose(out.mean(axis=-1), 0.0, atol=1e-12)
        np.testing.assert_allclose(out.std(axis=-1), 1.0, atol=1e-3)

    def test_matmul_matches_einsum(self, rng):
        a = rng.standard_normal((2, 3, 4))
        b = rng.standard_normal((2, 4, 5))
        out = ad.matmul(ad.Tensor(a), ad.Tensor(b))
        np.testing.assert_allclose(out.data, np.einsum("bij,bjk->bik", a, b), atol=1e-13)

    def test_dft_modulus_matches_numpy(self, rng):
        x = rng.standard_normal((3, 16))
        out = ad.dft_modulus(ad.Tensor(x))
        np.testing.assert_allclose(out.data, np.abs(np.fft.rfft(x, axis=-1)), atol=1e-12)

    def test_clamp_values(self):
        out = ad.clamp(ad.Tensor(np.array([-2.0, 0.3, 9.0])), -1.0, 1.0)
        np.testing.assert_array_equal(out.data, [-1.0, 0.3, 1.0])


class TestUnfold:
    def test_window_contents(self):
        """Each output row is the circular neighborhood of its position."""
        x = ad.Tensor(np.arange(6.0)[:, None])
        out = ad.unfold_circular(x, 3).data
        expected = np.stack(
            [np.roll(np.arange(6.0), 1), np.arange(6.0), np.roll(np.arange(6.0), -1)],
            axis=-1,
        )[:, :, None]
        np.testing.assert_array_equal(out, expected)

    def test_gradient_counts_window_hits(self):
        """Summing the unfolded tensor touches every element once per offset,
        so the gradient is exactly `window` everywhere."""
        x = ad.Tensor(np.arange(16.0).reshape(8, 2), requires_grad=True)
        with ad.Graph() as graph:
            loss = ad.sum_all(ad.unfold_circular(x, 5))
            graph.backward(loss)
        np.testing.assert_array_equal(x.grad, np.full((8, 2), 5.0))

    def test_validation(self):
        x = ad.Tensor(np.zeros((6, 1)))
        with pytest.raises(ConfigurationError):
            ad.unfold_circular(x, 4)
        with pytest.raises(ConfigurationError):
            ad.unfold_circular(x, 7)
        with pytest.raises(ShapeError):
            ad.unfold_circular(ad.Tensor(np.zeros(6)), 3)


class TestDftModulusEdgeCases:
    def test_zero_input_gradient_is_zero(self):
        x = ad.Tensor(np.zeros(8), requires_grad=True)
        with ad.Graph() as graph:
            loss = ad.sum_all(ad.dft_modulus(x))
            graph.backward(loss)
        assert np.all(np.isfinite(x.grad))
        np.testing.assert_array_equal(x.grad, np.zeros(8))

    def test_odd_length_axis(self):
        report = ad.check_gradients(ad.dft_modulus, [(9,)], tolerance=1e-6)
        assert report["passed"]


class TestTape:
    def test_reuse_accumulates(self):
        x = ad.Tensor(np.array([2.0, 3.0]), requires_grad=True)
        with ad.Graph() as graph:
            y = ad.add(x, x)
            graph.backward(ad.sum_all(y))
        np.testing.assert_array_equal(x.grad, [2.0, 2.0])

    def test_chain(self):
        # d/dx sum(exp(2x)) = 2 exp(2x)
        x = ad.Tensor(np.array([0.1, -0.4]), requires_grad=True)
        with ad.Graph() as graph:
            y = ad.exp(ad.scale(x, 2.0))
            graph.backward(ad.sum_all(y))
        np.testing.assert_allclose(x.grad, 2.0 * np.exp(2.0 * x.data), atol=1e-14)

    def test_no_graph_no_recording(self):
        x = ad.Tensor(np.ones(3), requires_grad=True)
        y = ad.exp(x)  # outside any Graph context
        assert y.requires_grad is False
        assert ad.active_graph() is None

    def test_constant_inputs_skip_grad(self):
        x = ad.Tensor(np.ones(3))
        with ad.Graph() as graph:
            y = ad.exp(x)
            assert graph.n_nodes == 0
        assert y.requires_grad is False

    def test_replay_is_deterministic(self, rng):
        data = rng.standard_normal((4, 4))
        grads = []
        for _ in range(2):
            x = ad.Tensor(data.copy(), requires_grad=True)
            with ad.Graph() as graph:
                y = ad.softmax_lastaxis(ad.mul(x, x))
                graph.backward(ad.mean_all(y))
            grads.append(x.grad.copy())
        np.testing.assert_array_equal(grads[0], grads[1])

    def test_seeded_backward(self):
        x = ad.Tensor(np.array([1.0, 2.0, 3.0]), requires_grad=True)
        with ad.Graph() as graph:
            y = ad.scale(x, 3.0)
            graph.backward(y, seed=np.array([1.0, 0.0, -1.0]))
        np.testing.assert_array_equal(x.grad, [3.0, 0.0, -3.0])

    def test_output_without_gradient_skips_its_node(self, monkeypatch):
        # y = exp(x) is recorded but never reaches the loss, so exp's backward
        # must not run; x's gradient comes from the scale branch alone.
        ran = []
        finalize = ad._finalize

        def spy(out_data, backward, *inputs):
            def logged(g):
                ran.append(np.asarray(out_data).copy())
                backward(g)

            return finalize(out_data, logged, *inputs)

        monkeypatch.setattr(ad, "_finalize", spy)
        x = ad.Tensor(np.array([0.5, -1.0]), requires_grad=True)
        with ad.Graph() as graph:
            y = ad.exp(x)
            z = ad.scale(x, 2.0)
            graph.backward(z)
        assert graph.n_nodes == 2
        assert y.grad is None
        np.testing.assert_array_equal(x.grad, [2.0, 2.0])
        assert len(ran) == 1
        np.testing.assert_array_equal(ran[0], z.data)


class TestAccumulate:
    """The first gradient contribution is copied, broadcast and cast."""

    def test_inputs_of_add_do_not_share_a_buffer(self):
        a = ad.Tensor(np.ones(3), requires_grad=True)
        b = ad.Tensor(np.ones(3), requires_grad=True)
        with ad.Graph() as graph:
            z = ad.add(a, b)
            graph.backward(z)
        assert not np.shares_memory(a.grad, b.grad)
        np.testing.assert_array_equal(a.grad, [1.0, 1.0, 1.0])

    def test_same_input_twice_sums(self):
        x = ad.Tensor(np.array([1.0, -2.0]), requires_grad=True)
        with ad.Graph() as graph:
            graph.backward(ad.add(x, x))
        np.testing.assert_array_equal(x.grad, [2.0, 2.0])

    def test_scalar_seed_broadcasts(self):
        x = ad.Tensor(np.arange(4, dtype=np.float32), requires_grad=True)
        with ad.Graph() as graph:
            y = ad.scale(x, 3.0)
            graph.backward(y, seed=2.0)
        assert x.grad.shape == (4,)
        assert x.grad.dtype == np.float32
        np.testing.assert_array_equal(x.grad, np.full(4, 6.0))


class TestTapeRelease:
    """Backward replays the tape once and frees each node as it goes."""

    def _graph(self):
        x = ad.Tensor(np.linspace(-1.0, 1.0, 6), requires_grad=True)
        with ad.Graph() as graph:
            y = ad.exp(ad.scale(x, 0.5))
            ref = weakref.ref(y.data)
            loss = ad.sum_all(y)
        del y
        return graph, loss, ref, x

    def test_intermediates_freed(self):
        graph, loss, ref, x = self._graph()
        assert ref() is not None  # only the tape holds the intermediate
        graph.backward(loss)
        assert ref() is None
        np.testing.assert_allclose(x.grad, 0.5 * np.exp(0.5 * x.data))

    def test_node_count_survives_backward(self):
        graph, loss, _, _ = self._graph()
        assert graph.n_nodes == 3
        graph.backward(loss)
        assert graph.n_nodes == 3

    def test_second_backward_rejected(self):
        graph, loss, _, x = self._graph()
        graph.backward(loss)
        first = x.grad.copy()
        with pytest.raises(TapeReplayedError):
            graph.backward(loss)
        assert issubclass(TapeReplayedError, PdeLabError)
        np.testing.assert_array_equal(x.grad, first)


def _dtype_shapes(name, lead, rows, cols, inner):
    """Input shapes for one registered op, built from drawn sizes."""
    if name == "matmul":
        return [lead + (rows, inner), lead + (inner, cols)]
    if name == "linear":
        return [lead + (rows, inner), (inner, cols)]
    if name in ("add", "sub", "mul"):
        return [lead + (rows, cols)] * 2
    return [lead + (rows, cols)]


class TestDtypePreservation:
    """Float32 inputs give float32 outputs and float32 gradients."""

    @settings(max_examples=30, deadline=None, database=None)
    @given(
        name=st.sampled_from(sorted(ad.GRADCHECK_OPS)),
        lead=st.lists(st.integers(1, 3), max_size=2).map(tuple),
        rows=st.integers(1, 4),
        cols=st.integers(3, 7),
        inner=st.integers(1, 4),
        seed=st.integers(0, 2**16),
    )
    def test_registered_ops(self, name, lead, rows, cols, inner, seed):
        rng = np.random.default_rng(seed)
        inputs = [
            ad.Tensor(rng.standard_normal(shape).astype(np.float32), requires_grad=True)
            for shape in _dtype_shapes(name, lead, rows, cols, inner)
        ]
        with ad.Graph() as graph:
            out = ad.GRADCHECK_OPS[name](*inputs)
            graph.backward(ad.sum_all(out))
        assert out.dtype == np.float32
        assert [t.grad.dtype for t in inputs] == [np.float32] * len(inputs)

    @settings(max_examples=20, deadline=None, database=None)
    @given(
        factor=st.floats(-10.0, 10.0, allow_nan=False),
        shape=st.lists(st.integers(1, 4), min_size=1, max_size=3).map(tuple),
    )
    def test_scale_by_numpy_float64(self, factor, shape):
        x = ad.Tensor(np.ones(shape, dtype=np.float32), requires_grad=True)
        with ad.Graph() as graph:
            out = ad.scale(x, np.float64(factor))
            graph.backward(out)
        assert out.dtype == np.float32
        assert x.grad.dtype == np.float32
        np.testing.assert_array_equal(x.grad, np.float32(factor))


class TestNarrowStack:
    def test_narrow_values(self):
        x = ad.Tensor(np.arange(12.0).reshape(3, 4))
        out = ad.narrow(x, 1, 2)
        np.testing.assert_array_equal(out.data, x.data[..., 1:3])

    def test_stack0_values(self):
        a, b = ad.Tensor(np.zeros(3)), ad.Tensor(np.ones(3))
        out = ad.stack0([a, b])
        assert out.shape == (2, 3)
        np.testing.assert_array_equal(out.data[1], 1.0)
