"""Minimal tape-based reverse-mode differentiation over numpy arrays.

The engine supports exactly the closed set of primitives the emulator and its
losses need.  Operations executed inside an active :class:`Graph` context are
recorded in execution order; :meth:`Graph.backward` replays the tape once, in
exact reverse order, summing adjoints into shared inputs and dropping each node
as soon as it has run, so the arrays a node captured are freed while the
backward pass proceeds.  :attr:`Graph.n_nodes` keeps counting the nodes that
were recorded.  Outside a graph the same functions run as plain numpy
evaluation.

A primitive computes its output, defines ``backward(grad)`` and returns
``_finalize(out_data, backward, *inputs)``.  The tape holds zero-argument
nodes; each runs its primitive's ``backward`` once, and only if the output
received a gradient.

Every primitive keeps its input's dtype: a float32 forward records a float32
tape and yields float32 gradients.  Under NumPy's promotion rules a numpy
float64 scalar upcasts a float32 array while a Python float does not, so
constants that meet tensor data must be Python floats.

Gradients use the convention d(sum of seeded output)/d(input); non-smooth
points take the conventional subgradient (0 at |x| = 0 ties, boundary
pass-through for clamp, 0 at zero modulus for the DFT magnitude).
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np
from scipy.special import erf

from .errors import ConfigurationError, ShapeError, TapeReplayedError

_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)

_GRAPH_STACK: list["Graph"] = []

class Tensor:
    """Array value with an optional gradient buffer of identical shape."""

    __slots__ = ("data", "grad", "requires_grad", "name")

    def __init__(self, data, requires_grad: bool = False, name: str | None = None):
        self.data = np.asarray(data)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self.name = name

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def dtype(self):
        return self.data.dtype

    def zero_grad(self) -> None:
        self.grad = None

    def accumulate(self, g: np.ndarray) -> None:
        """Add `g` into the gradient buffer.

        The first contribution is stored as a fresh copy, broadcast to the
        data's shape and cast to its dtype; later ones are added in place.
        The copy is required: a primitive may hand one array to several inputs.
        """
        if self.grad is None:
            self.grad = np.array(np.broadcast_to(g, self.data.shape), dtype=self.data.dtype)
        else:
            self.grad += g

    def __repr__(self) -> str:
        tag = f" name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.shape}, dtype={self.dtype}{tag})"


class Graph:
    """Tape of recorded operations, replayed in reverse for adjoints."""

    def __init__(self):
        self._nodes: list[Callable[[], None]] = []
        self._recorded = 0
        self._replayed = False

    def __enter__(self) -> "Graph":
        _GRAPH_STACK.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        popped = _GRAPH_STACK.pop()
        assert popped is self

    def record(self, backward_fn: Callable[[], None]) -> None:
        self._nodes.append(backward_fn)
        self._recorded += 1

    @property
    def n_nodes(self) -> int:
        """Number of nodes recorded, including those a backward pass has dropped."""
        return self._recorded

    def backward(self, output: Tensor, seed: np.ndarray | None = None) -> None:
        """Accumulate d(output . seed)/d(leaf) into every tensor on the tape.

        ``seed`` defaults to ones, i.e. the gradient of the summed output.
        The tape replays once: each node is dropped as soon as it has run,
        which frees its closure, the arrays it captured and its output's
        gradient.  A second call raises :class:`TapeReplayedError`.
        """
        if self._replayed:
            raise TapeReplayedError("this graph's tape was already replayed by backward")
        self._replayed = True
        if seed is None:
            seed = np.ones_like(output.data)
        output.accumulate(np.asarray(seed, dtype=output.data.dtype))
        nodes = self._nodes
        while nodes:
            nodes.pop()()


def active_graph() -> Graph | None:
    """Graph currently recording, if any.  Public so tests can add primitives."""
    return _GRAPH_STACK[-1] if _GRAPH_STACK else None


def _finalize(
    out_data: np.ndarray, backward: Callable[[np.ndarray], None], *inputs: Tensor
) -> Tensor:
    """Wrap a primitive's output and, when it needs one, put its node on the tape.

    A node is recorded only inside a graph and only when some input requires a
    gradient, so a one-input primitive's ``backward`` may assume its input
    does.  The node is a zero-argument callable; it runs ``backward(grad)``
    once, with the gradient the output received, and skips it when the output
    received none.
    """
    graph = active_graph()
    needs = graph is not None and any(t.requires_grad for t in inputs)
    out = Tensor(out_data, requires_grad=needs)
    if needs:

        def node() -> None:
            if out.grad is not None:
                backward(out.grad)

        graph.record(node)
    return out


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum gradient `g` down to `shape` (the adjoint of numpy broadcasting)."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g


# ---------------------------------------------------------------------------
# elementwise and structural primitives


def add(a: Tensor, b: Tensor) -> Tensor:
    def backward(g):
        if a.requires_grad:
            a.accumulate(_unbroadcast(g, a.shape))
        if b.requires_grad:
            b.accumulate(_unbroadcast(g, b.shape))

    return _finalize(a.data + b.data, backward, a, b)


def sub(a: Tensor, b: Tensor) -> Tensor:
    def backward(g):
        if a.requires_grad:
            a.accumulate(_unbroadcast(g, a.shape))
        if b.requires_grad:
            b.accumulate(_unbroadcast(-g, b.shape))

    return _finalize(a.data - b.data, backward, a, b)


def mul(a: Tensor, b: Tensor) -> Tensor:
    def backward(g):
        if a.requires_grad:
            a.accumulate(_unbroadcast(g * b.data, a.shape))
        if b.requires_grad:
            b.accumulate(_unbroadcast(g * a.data, b.shape))

    return _finalize(a.data * b.data, backward, a, b)


def scale(x: Tensor, factor: float) -> Tensor:
    factor = float(factor)  # a numpy float64 factor would upcast float32 data

    def backward(g):
        x.accumulate(g * factor)

    return _finalize(x.data * factor, backward, x)


def exp(x: Tensor) -> Tensor:
    out_data = np.exp(x.data)

    def backward(g):
        x.accumulate(g * out_data)

    return _finalize(out_data, backward, x)


def clamp(x: Tensor, low: float, high: float) -> Tensor:
    def backward(g):
        x.accumulate(g * ((x.data >= low) & (x.data <= high)))

    return _finalize(np.clip(x.data, low, high), backward, x)


def absolute(x: Tensor) -> Tensor:
    """|x| with subgradient 0 at x = 0."""

    def backward(g):
        x.accumulate(g * np.sign(x.data))

    return _finalize(np.abs(x.data), backward, x)


def reshape(x: Tensor, shape: Sequence[int]) -> Tensor:
    def backward(g):
        x.accumulate(g.reshape(x.shape))

    return _finalize(x.data.reshape(tuple(shape)), backward, x)


def transpose_last2(x: Tensor) -> Tensor:
    def backward(g):
        x.accumulate(np.swapaxes(g, -1, -2))

    return _finalize(np.swapaxes(x.data, -1, -2), backward, x)


def permute(x: Tensor, axes: Sequence[int]) -> Tensor:
    axes = tuple(axes)
    inverse = tuple(np.argsort(axes))

    def backward(g):
        x.accumulate(np.transpose(g, inverse))

    return _finalize(np.transpose(x.data, axes), backward, x)


def narrow(x: Tensor, start: int, size: int) -> Tensor:
    """Contiguous slice [start, start + size) of the last axis."""
    if start < 0 or size < 1 or start + size > x.shape[-1]:
        raise ShapeError(f"slice [{start}, {start + size}) exceeds axis of length {x.shape[-1]}")

    def backward(g):
        full = np.zeros_like(x.data)
        full[..., start : start + size] = g
        x.accumulate(full)

    return _finalize(x.data[..., start : start + size], backward, x)


def stack0(tensors: Sequence[Tensor]) -> Tensor:
    tensors = list(tensors)

    def backward(g):
        for i, t in enumerate(tensors):
            if t.requires_grad:
                t.accumulate(g[i])

    return _finalize(np.stack([t.data for t in tensors], axis=0), backward, *tensors)


def sum_all(x: Tensor) -> Tensor:
    def backward(g):
        x.accumulate(np.full_like(x.data, g))

    return _finalize(np.asarray(x.data.sum()), backward, x)


def mean_all(x: Tensor) -> Tensor:
    count = x.data.size

    def backward(g):
        x.accumulate(np.full_like(x.data, g / count))

    return _finalize(np.asarray(x.data.mean()), backward, x)


# ---------------------------------------------------------------------------
# dense and normalization primitives


def matmul(a: Tensor, b: Tensor) -> Tensor:
    # A contraction of length 1 is an outer product: one multiply, no gemm.
    def backward(g):
        if a.requires_grad:
            b_t = np.swapaxes(b.data, -1, -2)
            a.accumulate(_unbroadcast(g * b_t if g.shape[-1] == 1 else g @ b_t, a.shape))
        if b.requires_grad:
            a_t = np.swapaxes(a.data, -1, -2)
            b.accumulate(_unbroadcast(a_t * g if g.shape[-2] == 1 else a_t @ g, b.shape))

    return _finalize(a.data @ b.data, backward, a, b)


def linear(x: Tensor, weight: Tensor, bias: Tensor | None = None) -> Tensor:
    """x [..., c_in] times weight [c_in, c_out], plus optional bias [c_out]."""
    out_data = x.data @ weight.data
    if bias is not None:
        out_data = out_data + bias.data

    def backward(g):
        if x.requires_grad:
            x.accumulate(g @ weight.data.T)
        if weight.requires_grad:
            leading = tuple(range(x.ndim - 1))
            weight.accumulate(np.tensordot(x.data, g, axes=(leading, leading)))
        if bias is not None and bias.requires_grad:
            bias.accumulate(g.sum(axis=tuple(range(g.ndim - 1))))

    inputs = (x, weight) if bias is None else (x, weight, bias)
    return _finalize(out_data, backward, *inputs)


def layer_normalize(x: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean and unit variance (no affine part)."""
    mean = x.data.mean(axis=-1, keepdims=True)
    centered = x.data - mean
    var = (centered**2).mean(axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + eps)
    out_data = centered * inv_std

    def backward(g):
        g_mean = g.mean(axis=-1, keepdims=True)
        gy_mean = (g * out_data).mean(axis=-1, keepdims=True)
        x.accumulate(inv_std * (g - g_mean - out_data * gy_mean))

    return _finalize(out_data, backward, x)


def gelu(x: Tensor) -> Tensor:
    """Exact Gaussian-CDF form x * Phi(x)."""
    cdf = 0.5 * (1.0 + erf(x.data / _SQRT2))

    def backward(g):
        pdf = _INV_SQRT_2PI * np.exp(-0.5 * x.data**2)
        x.accumulate(g * (cdf + x.data * pdf))

    return _finalize(x.data * cdf, backward, x)


def softmax_lastaxis(x: Tensor) -> Tensor:
    shifted = x.data - x.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    out_data = e / e.sum(axis=-1, keepdims=True)

    def backward(g):
        dot = (g * out_data).sum(axis=-1, keepdims=True)
        x.accumulate(out_data * (g - dot))

    return _finalize(out_data, backward, x)


# ---------------------------------------------------------------------------
# window and spectral primitives


def unfold_circular(x: Tensor, window: int) -> Tensor:
    """Gather circular windows of odd length along the position axis -2.

    For a channel-last ``x`` of shape ``[..., D, C]`` the output has shape
    ``[..., D, K, C]`` (K = ``window``), the layout ``matmul`` reads, with
    ``out[..., d, j, :] = x[..., (d + j - (window - 1) // 2) mod D, :]``.
    """
    if x.ndim < 2:
        raise ShapeError(f"unfold_circular needs a [..., D, C] input, got shape {x.shape}")
    n = x.shape[-2]
    if window % 2 != 1:
        raise ConfigurationError(f"window length must be odd, got {window}")
    if window > n:
        raise ConfigurationError(f"window {window} exceeds axis length {n}")
    half = (window - 1) // 2
    idx = (np.arange(n)[:, None] + np.arange(window)[None, :] - half) % n

    def backward(g):
        # Offset j contributes out[..., d, j, :] to x at position (d + j - half),
        # which is a circular shift of the j-th window slice.
        full = np.roll(g[..., 0, :], -half, axis=-2)
        for j in range(1, window):
            full += np.roll(g[..., j, :], j - half, axis=-2)
        x.accumulate(full)

    return _finalize(np.take(x.data, idx, axis=-2), backward, x)


def dft_modulus(x: Tensor) -> Tensor:
    """Magnitude of the half-complex DFT of the last axis.

    The gradient at bins with zero modulus is defined as 0.
    """
    n = x.shape[-1]
    modes = np.fft.rfft(x.data, axis=-1)
    out_data = np.abs(modes)

    def backward(g):
        safe = np.where(out_data > 0.0, out_data, 1.0)
        g_modes = np.where(out_data > 0.0, g / safe, 0.0) * modes
        # Adjoint of rfft: interior bins stand for conjugate pairs, so
        # halve them before the scaled inverse transform.
        interior_stop = (n + 1) // 2
        g_modes[..., 1:interior_stop] *= 0.5
        x.accumulate(n * np.fft.irfft(g_modes, n=n, axis=-1).astype(x.data.dtype, copy=False))

    return _finalize(out_data, backward, x)


# ---------------------------------------------------------------------------
# gradient checking

GRADCHECK_OPS: dict[str, Callable[..., Tensor]] = {}


def _register(name: str, fn: Callable[..., Tensor]) -> None:
    GRADCHECK_OPS[name] = fn


_register("add", add)
_register("sub", sub)
_register("mul", mul)
_register("scale", lambda x: scale(x, -1.7))
_register("exp", exp)
_register("clamp", lambda x: clamp(x, -0.5, 0.5))
_register("absolute", absolute)
_register("matmul", matmul)
_register("linear", linear)
_register("layer_normalize", layer_normalize)
_register("gelu", gelu)
_register("softmax_lastaxis", softmax_lastaxis)
_register("unfold_circular", lambda x: unfold_circular(x, min(3, (x.shape[-2] - 1) | 1)))
_register("dft_modulus", dft_modulus)
_register("transpose_last2", transpose_last2)
_register("sum_all", sum_all)
_register("mean_all", mean_all)


class GradcheckFailure(AssertionError):
    pass


def check_gradients(
    op: str | Callable[..., Tensor],
    input_shapes: Sequence[tuple[int, ...]],
    tolerance: float = 1e-6,
    abs_floor: float = 1e-4,
    rng: np.random.Generator | None = None,
    fd_step: float = 1e-5,
) -> dict:
    """Compare tape gradients of `op` against central finite differences.

    Inputs are drawn in float64; the scalar objective is the sum of the op
    output.  The per-entry error is |analytic - numeric| divided by
    max(|analytic|, |numeric|, abs_floor).  Returns a report dict and raises
    :class:`GradcheckFailure` when the worst error exceeds `tolerance`.
    """
    fn = GRADCHECK_OPS[op] if isinstance(op, str) else op
    if rng is None:
        rng = np.random.default_rng(0)
    inputs = [
        Tensor(rng.standard_normal(shape).astype(np.float64), requires_grad=True)
        for shape in input_shapes
    ]
    with Graph() as graph:
        loss = sum_all(fn(*inputs))
        graph.backward(loss)

    worst = 0.0
    per_input = []
    for tensor in inputs:
        analytic = tensor.grad if tensor.grad is not None else np.zeros_like(tensor.data)
        numeric = np.zeros_like(tensor.data)
        flat = tensor.data.reshape(-1)
        num_flat = numeric.reshape(-1)
        for i in range(flat.size):
            keep = flat[i]
            flat[i] = keep + fd_step
            plus = float(fn(*inputs).data.sum())
            flat[i] = keep - fd_step
            minus = float(fn(*inputs).data.sum())
            flat[i] = keep
            num_flat[i] = (plus - minus) / (2.0 * fd_step)
        denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), abs_floor)
        err = float(np.max(np.abs(analytic - numeric) / denom)) if flat.size else 0.0
        per_input.append(err)
        worst = max(worst, err)

    report = {
        "op": op if isinstance(op, str) else getattr(op, "__name__", "<callable>"),
        "shapes": [tuple(s) for s in input_shapes],
        "max_rel_error": worst,
        "per_input": per_input,
        "passed": worst <= tolerance,
    }
    if not report["passed"]:
        raise GradcheckFailure(
            f"gradient check failed for {report['op']}: max relative error "
            f"{worst:.3e} > {tolerance:.1e}"
        )
    return report
