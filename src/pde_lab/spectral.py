"""Shared spectral machinery for the periodic pseudo-spectral solvers.

All fields live on uniform periodic grids and are transformed with the
half-complex real FFT (``rfft`` / ``rfft2``).  A :class:`SpectralPlan` bundles
the grid geometry with the derived mode arrays: physical wavenumbers
``k_j = 2 pi j / L``, the 2/3-rule dealiasing mask, and the gain of the
exponential small-scale filter.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigurationError, ShapeError

# Filter gain drops from 1 at the cutoff to `floor` at the grid scale
# (kappa* = pi), following gain = exp(strength * (kappa* - cutoff)^4).
DEFAULT_FILTER_CUTOFF = 0.65 * np.pi
DEFAULT_FILTER_FLOOR = 1e-15


@dataclass(frozen=True)
class FilterParams:
    """Exponential spectral filter shape parameters.

    ``cutoff`` is the nondimensional wavenumber kappa* = k * dx below which the
    gain is exactly 1; ``floor`` is the gain at the grid scale kappa* = pi.
    """

    cutoff: float = DEFAULT_FILTER_CUTOFF
    floor: float = DEFAULT_FILTER_FLOOR

    def __post_init__(self):
        if not 0.0 < self.cutoff < np.pi:
            raise ConfigurationError(f"filter cutoff must lie in (0, pi), got {self.cutoff}")
        if not 0.0 < self.floor < 1.0:
            raise ConfigurationError(f"filter floor must lie in (0, 1), got {self.floor}")

    @property
    def strength(self) -> float:
        # Negative constant chosen so the gain equals `floor` at kappa* = pi.
        return float(np.log(self.floor) / (np.pi - self.cutoff) ** 4)


@dataclass(frozen=True, eq=False)
class SpectralPlan:
    """Grid geometry plus precomputed mode arrays for one transform layout.

    The last axis is the half-complex axis (length ``n // 2 + 1`` in mode
    space); any leading axis keeps the full signed mode layout of ``fftfreq``.
    """

    dims: int
    n_points: tuple[int, ...]
    domain_length: tuple[float, ...]
    mode_index: tuple[np.ndarray, ...]
    wavenumbers: tuple[np.ndarray, ...]
    dealias_mask: np.ndarray
    filter_gain: np.ndarray
    filter_params: FilterParams

    @property
    def grid_shape(self) -> tuple[int, ...]:
        return self.n_points

    @property
    def mode_shape(self) -> tuple[int, ...]:
        return self.n_points[:-1] + (self.n_points[-1] // 2 + 1,)

    def index_grid(self, axis: int) -> np.ndarray:
        """Signed integer mode index of `axis`, shaped for broadcasting."""
        return _for_broadcast(self.mode_index[axis], axis, self.dims)

    def wavenumber_grid(self, axis: int) -> np.ndarray:
        """Physical wavenumber of `axis`, shaped for broadcasting."""
        return _for_broadcast(self.wavenumbers[axis], axis, self.dims)


def _for_broadcast(arr: np.ndarray, axis: int, dims: int) -> np.ndarray:
    shape = [1] * dims
    shape[axis] = arr.shape[0]
    return arr.reshape(shape)


def make_plan(
    dims: int,
    n_points: int | Sequence[int],
    domain_length: float | Sequence[float],
    filter_params: FilterParams | None = None,
) -> SpectralPlan:
    """Build a transform plan for a periodic grid.

    Parameters
    ----------
    dims:
        1 or 2.
    n_points:
        Grid points per axis; a scalar applies to every axis.  Each count must
        be even and at least 8.
    domain_length:
        Domain extent per axis; a scalar applies to every axis.
    filter_params:
        Optional override of the exponential filter shape.
    """
    if dims not in (1, 2):
        raise ConfigurationError(f"dims must be 1 or 2, got {dims}")
    ns = tuple(int(n) for n in (n_points if isinstance(n_points, Sequence) else [n_points] * dims))
    ls = tuple(
        float(length)
        for length in (domain_length if isinstance(domain_length, Sequence) else [domain_length] * dims)
    )
    if len(ns) != dims or len(ls) != dims:
        raise ConfigurationError(f"expected {dims} axis sizes and lengths, got {ns} and {ls}")
    for n in ns:
        if n % 2 != 0:
            raise ConfigurationError(f"grid size must be even, got {n}")
        if n < 8:
            raise ConfigurationError(f"grid size must be at least 8, got {n}")
    for length in ls:
        if length <= 0:
            raise ConfigurationError(f"domain length must be positive, got {length}")

    fp = filter_params if filter_params is not None else FilterParams()

    # Mode indices: signed full layout on leading axes, 0..n/2 on the last.
    index = []
    for axis, n in enumerate(ns):
        if axis == dims - 1:
            index.append(np.arange(n // 2 + 1))
        else:
            index.append(np.rint(np.fft.fftfreq(n) * n).astype(np.int64))
    wavenumbers = tuple(2.0 * np.pi * idx / length for idx, length in zip(index, ls))

    mode_shape = ns[:-1] + (ns[-1] // 2 + 1,)
    dealias = np.ones(mode_shape, dtype=bool)
    kappa_sq = np.zeros(mode_shape)
    for axis, n in enumerate(ns):
        idx = _for_broadcast(index[axis], axis, dims)
        dealias &= np.abs(idx) <= n // 3
        kappa_sq = kappa_sq + (2.0 * np.pi * idx / n) ** 2
    kappa = np.sqrt(kappa_sq)

    gain = np.ones(mode_shape)
    above = kappa >= fp.cutoff
    gain[above] = np.exp(fp.strength * (kappa[above] - fp.cutoff) ** 4)

    return SpectralPlan(
        dims=dims,
        n_points=ns,
        domain_length=ls,
        mode_index=tuple(index),
        wavenumbers=wavenumbers,
        dealias_mask=dealias,
        filter_gain=gain,
        filter_params=fp,
    )


def grid_coordinates(plan: SpectralPlan, axis: int = 0) -> np.ndarray:
    """Node coordinates x_i = L * i / n along `axis` (periodic, endpoint open)."""
    n = plan.n_points[axis]
    return plan.domain_length[axis] * np.arange(n) / n


def to_modes(values: np.ndarray, plan: SpectralPlan) -> np.ndarray:
    if values.shape != plan.grid_shape:
        raise ShapeError(f"values shape {values.shape} does not match grid {plan.grid_shape}")
    if plan.dims == 1:
        return np.fft.rfft(values)
    return np.fft.rfft2(values)


def to_values(modes: np.ndarray, plan: SpectralPlan) -> np.ndarray:
    if modes.shape != plan.mode_shape:
        raise ShapeError(f"mode shape {modes.shape} does not match layout {plan.mode_shape}")
    if plan.dims == 1:
        return np.fft.irfft(modes, n=plan.n_points[0])
    return np.fft.irfft2(modes, s=plan.n_points)


def derivative_modes(modes: np.ndarray, plan: SpectralPlan, order: int, axis: int = 0) -> np.ndarray:
    """Multiply modes by (i k)^order along `axis`.

    Odd orders zero the Nyquist mode of that axis: its (i k)^order factor is
    purely imaginary there and has no real-signal counterpart.
    """
    if order < 1 or order != int(order):
        raise ConfigurationError(f"derivative order must be a positive integer, got {order}")
    k = plan.wavenumber_grid(axis)
    out = modes * (1j * k) ** order
    if order % 2 == 1:
        n = plan.n_points[axis]
        nyquist = np.abs(plan.index_grid(axis)) == n // 2
        out = np.where(nyquist, 0.0, out)
    return out


def dealias(modes: np.ndarray, plan: SpectralPlan) -> np.ndarray:
    """Zero modes outside the 2/3-rule band (|index| <= n // 3 per axis)."""
    if modes.shape != plan.mode_shape:
        raise ShapeError(f"mode shape {modes.shape} does not match layout {plan.mode_shape}")
    return modes * plan.dealias_mask

