"""Minimal tape-based reverse-mode differentiation over numpy arrays.

The engine supports exactly the closed set of primitives the emulator and its
losses need.  Operations executed inside an active :class:`Graph` context are
recorded in execution order; :meth:`Graph.backward` replays the tape once, in
exact reverse order, summing adjoints into shared inputs and dropping each node
as soon as it has run, so the arrays a node captured are freed while the
backward pass proceeds.  :attr:`Graph.n_nodes` keeps counting the nodes that
were recorded.  Outside a graph the same functions run as plain numpy
evaluation.

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

# When enabled, every primitive asserts that its output is finite.
_DEBUG_CHECK_FINITE = False


def set_debug_checks(enabled: bool) -> None:
    global _DEBUG_CHECK_FINITE
    _DEBUG_CHECK_FINITE = bool(enabled)


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
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
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


def _finalize(out_data: np.ndarray, backward: Callable[[], None] | None, *inputs: Tensor) -> Tensor:
    if _DEBUG_CHECK_FINITE and not np.all(np.isfinite(out_data)):
        raise FloatingPointError("primitive produced a non-finite output")
    graph = active_graph()
    needs = graph is not None and any(t.requires_grad for t in inputs)
    out = Tensor(out_data, requires_grad=needs)
    if needs and backward is not None:
        graph.record(backward)
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
    out_data = a.data + b.data
    out = None

    def backward():
        if out.grad is None:
            return
        if a.requires_grad:
            a.accumulate(_unbroadcast(out.grad, a.shape))
        if b.requires_grad:
            b.accumulate(_unbroadcast(out.grad, b.shape))

    out = _finalize(out_data, backward, a, b)
    return out


def sub(a: Tensor, b: Tensor) -> Tensor:
    out_data = a.data - b.data
    out = None

    def backward():
        if out.grad is None:
            return
        if a.requires_grad:
            a.accumulate(_unbroadcast(out.grad, a.shape))
        if b.requires_grad:
            b.accumulate(_unbroadcast(-out.grad, b.shape))

    out = _finalize(out_data, backward, a, b)
    return out


def mul(a: Tensor, b: Tensor) -> Tensor:
    out_data = a.data * b.data
    out = None

    def backward():
        if out.grad is None:
            return
        if a.requires_grad:
            a.accumulate(_unbroadcast(out.grad * b.data, a.shape))
        if b.requires_grad:
            b.accumulate(_unbroadcast(out.grad * a.data, b.shape))

    out = _finalize(out_data, backward, a, b)
    return out


def scale(x: Tensor, factor: float) -> Tensor:
    factor = float(factor)  # a numpy float64 factor would upcast float32 data
    out_data = x.data * factor
    out = None

    def backward():
        if out.grad is None:
            return
        if x.requires_grad:
            x.accumulate(out.grad * factor)

    out = _finalize(out_data, backward, x)
    return out


def exp(x: Tensor) -> Tensor:
    out_data = np.exp(x.data)
    out = None

    def backward():
        if out.grad is None:
            return
        if x.requires_grad:
            x.accumulate(out.grad * out_data)

    out = _finalize(out_data, backward, x)
    return out


def clamp(x: Tensor, low: float, high: float) -> Tensor:
    out_data = np.clip(x.data, low, high)
    out = None

    def backward():
        if out.grad is None:
            return
        if x.requires_grad:
            inside = (x.data >= low) & (x.data <= high)
            x.accumulate(out.grad * inside)

    out = _finalize(out_data, backward, x)
    return out


def absolute(x: Tensor) -> Tensor:
    """|x| with subgradient 0 at x = 0."""
    out_data = np.abs(x.data)
    out = None

    def backward():
        if out.grad is None:
            return
        if x.requires_grad:
            x.accumulate(out.grad * np.sign(x.data))

    out = _finalize(out_data, backward, x)
    return out


def reshape(x: Tensor, shape: Sequence[int]) -> Tensor:
    shape = tuple(shape)
    out_data = x.data.reshape(shape)
    out = None

    def backward():
        if out.grad is None:
            return
        if x.requires_grad:
            x.accumulate(out.grad.reshape(x.shape))

    out = _finalize(out_data, backward, x)
    return out


def transpose_last2(x: Tensor) -> Tensor:
    out_data = np.swapaxes(x.data, -1, -2)
    out = None

    def backward():
        if out.grad is None:
            return
        if x.requires_grad:
            x.accumulate(np.swapaxes(out.grad, -1, -2))

    out = _finalize(out_data, backward, x)
    return out


def permute(x: Tensor, axes: Sequence[int]) -> Tensor:
    axes = tuple(axes)
    inverse = tuple(np.argsort(axes))
    out_data = np.transpose(x.data, axes)
    out = None

    def backward():
        if out.grad is None:
            return
        if x.requires_grad:
            x.accumulate(np.transpose(out.grad, inverse))

    out = _finalize(out_data, backward, x)
    return out


def narrow(x: Tensor, start: int, size: int) -> Tensor:
    """Contiguous slice [start, start + size) of the last axis."""
    if start < 0 or size < 1 or start + size > x.shape[-1]:
        raise ShapeError(f"slice [{start}, {start + size}) exceeds axis of length {x.shape[-1]}")
    out_data = x.data[..., start : start + size]
    out = None

    def backward():
        if out.grad is None:
            return
        if x.requires_grad:
            g = np.zeros_like(x.data)
            g[..., start : start + size] = out.grad
            x.accumulate(g)

    out = _finalize(out_data, backward, x)
    return out


def stack0(tensors: Sequence[Tensor]) -> Tensor:
    tensors = list(tensors)
    out_data = np.stack([t.data for t in tensors], axis=0)
    out = None

    def backward():
        if out.grad is None:
            return
        for i, t in enumerate(tensors):
            if t.requires_grad:
                t.accumulate(out.grad[i])

    out = _finalize(out_data, backward, *tensors)
    return out


def sum_all(x: Tensor) -> Tensor:
    out_data = np.asarray(x.data.sum())
    out = None

    def backward():
        if out.grad is None:
            return
        if x.requires_grad:
            x.accumulate(np.full_like(x.data, out.grad))

    out = _finalize(out_data, backward, x)
    return out


def mean_all(x: Tensor) -> Tensor:
    count = x.data.size
    out_data = np.asarray(x.data.mean())
    out = None

    def backward():
        if out.grad is None:
            return
        if x.requires_grad:
            x.accumulate(np.full_like(x.data, out.grad / count))

    out = _finalize(out_data, backward, x)
    return out


# ---------------------------------------------------------------------------
# dense and normalization primitives


def matmul(a: Tensor, b: Tensor) -> Tensor:
    out_data = a.data @ b.data
    out = None

    def backward():
        if out.grad is None:
            return
        if a.requires_grad:
            a.accumulate(_unbroadcast(out.grad @ np.swapaxes(b.data, -1, -2), a.shape))
        if b.requires_grad:
            b.accumulate(_unbroadcast(np.swapaxes(a.data, -1, -2) @ out.grad, b.shape))

    out = _finalize(out_data, backward, a, b)
    return out


def linear(x: Tensor, weight: Tensor, bias: Tensor | None = None) -> Tensor:
    """x [..., c_in] times weight [c_in, c_out], plus optional bias [c_out]."""
    out_data = x.data @ weight.data
    if bias is not None:
        out_data = out_data + bias.data
    out = None

    def backward():
        if out.grad is None:
            return
        g = out.grad
        if x.requires_grad:
            x.accumulate(g @ weight.data.T)
        if weight.requires_grad:
            leading = tuple(range(x.ndim - 1))
            weight.accumulate(np.tensordot(x.data, g, axes=(leading, leading)))
        if bias is not None and bias.requires_grad:
            bias.accumulate(g.sum(axis=tuple(range(g.ndim - 1))))

    inputs = (x, weight) if bias is None else (x, weight, bias)
    out = _finalize(out_data, backward, *inputs)
    return out


def layer_normalize(x: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean and unit variance (no affine part)."""
    mean = x.data.mean(axis=-1, keepdims=True)
    centered = x.data - mean
    var = (centered**2).mean(axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + eps)
    out_data = centered * inv_std
    out = None

    def backward():
        if out.grad is None:
            return
        if x.requires_grad:
            g = out.grad
            g_mean = g.mean(axis=-1, keepdims=True)
            gy_mean = (g * out_data).mean(axis=-1, keepdims=True)
            x.accumulate(inv_std * (g - g_mean - out_data * gy_mean))

    out = _finalize(out_data, backward, x)
    return out


def gelu(x: Tensor) -> Tensor:
    """Exact Gaussian-CDF form x * Phi(x)."""
    cdf = 0.5 * (1.0 + erf(x.data / _SQRT2))
    out_data = x.data * cdf
    out = None

    def backward():
        if out.grad is None:
            return
        if x.requires_grad:
            pdf = _INV_SQRT_2PI * np.exp(-0.5 * x.data**2)
            x.accumulate(out.grad * (cdf + x.data * pdf))

    out = _finalize(out_data, backward, x)
    return out


def softmax_lastaxis(x: Tensor) -> Tensor:
    shifted = x.data - x.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    out_data = e / e.sum(axis=-1, keepdims=True)
    out = None

    def backward():
        if out.grad is None:
            return
        if x.requires_grad:
            g = out.grad
            dot = (g * out_data).sum(axis=-1, keepdims=True)
            x.accumulate(out_data * (g - dot))

    out = _finalize(out_data, backward, x)
    return out


# ---------------------------------------------------------------------------
# window and spectral primitives


def unfold_circular(x: Tensor, window: int) -> Tensor:
    """Gather circular windows of odd length along the last axis.

    Output shape is ``x.shape + (window,)`` with
    ``out[..., d, j] = x[..., (d + j - (window - 1) // 2) mod n]``.
    """
    n = x.shape[-1]
    if window % 2 != 1:
        raise ConfigurationError(f"window length must be odd, got {window}")
    if window > n:
        raise ConfigurationError(f"window {window} exceeds axis length {n}")
    half = (window - 1) // 2
    idx = (np.arange(n)[:, None] + np.arange(window)[None, :] - half) % n
    out_data = x.data[..., idx]
    out = None

    def backward():
        if out.grad is None:
            return
        if x.requires_grad:
            g = np.zeros_like(x.data)
            # Offset j contributes out[:, d, j] to x at position (d + j - half),
            # which is a circular shift of the j-th window column.
            for j in range(window):
                g += np.roll(out.grad[..., j], j - half, axis=-1)
            x.accumulate(g)

    out = _finalize(out_data, backward, x)
    return out


def dft_modulus(x: Tensor) -> Tensor:
    """Magnitude of the half-complex DFT of the last axis.

    The gradient at bins with zero modulus is defined as 0.
    """
    n = x.shape[-1]
    modes = np.fft.rfft(x.data, axis=-1)
    out_data = np.abs(modes)
    out = None

    def backward():
        if out.grad is None:
            return
        if x.requires_grad:
            safe = np.where(out_data > 0.0, out_data, 1.0)
            g_modes = np.where(out_data > 0.0, out.grad / safe, 0.0) * modes
            # Adjoint of rfft: interior bins stand for conjugate pairs, so
            # halve them before the scaled inverse transform.
            interior_stop = (n + 1) // 2
            g_modes[..., 1:interior_stop] *= 0.5
            x.accumulate(n * np.fft.irfft(g_modes, n=n, axis=-1).astype(x.data.dtype, copy=False))

    out = _finalize(out_data, backward, x)
    return out


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
_register("unfold_circular", lambda x: unfold_circular(x, min(3, x.shape[-1] | 1)))
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
