"""Discrete fractional calculus on a uniform time grid.

Provides the L1 scheme for the Caputo derivative, the Riemann-Liouville
integral from 0, and a product-trapezoidal quadrature for weakly
singular convolutions.  The singular weight s^(p-1) is always
integrated in closed form against piecewise-linear data, which makes
every operator second-order accurate on smooth inputs.

Every time convolution in the package goes through one primitive, row
by row over the leading axes: `_spectrum`, the rfft at the power-of-two
length that holds two n-term series, and `_truncated_inverse`, the first
n terms of the inverse of a product of such spectra.  `product_rule_convolve`
takes one series or one 2-D stack, which it convolves in blocks of rows;
each block forms its own temporaries, so a long stack holds the result
and about two blocks' spectra.  The spectrum of the L1 weights is cached
per (alpha, grid).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "FractionalOrder",
    "TimeGrid",
    "TimeSeries",
    "caputo_l1",
    "rl_integral_forward",
    "product_rule_convolve",
    "weakly_singular_convolve",
]


@dataclass(frozen=True)
class FractionalOrder:
    """Caputo derivative order, restricted to (0, 1)."""

    alpha: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.alpha) and 0.0 < self.alpha < 1.0):
            raise ValueError(f"alpha must lie in (0, 1), got {self.alpha}")


def _count(name: str, value, least: int) -> int:
    """value as a Python int; a count is an int or NumPy integer, not a bool, and at least `least`."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class TimeGrid:
    """Uniform partition of [0, total_time] into n_steps steps."""

    total_time: float
    n_steps: int

    def __post_init__(self) -> None:
        if not (math.isfinite(self.total_time) and self.total_time > 0.0):
            raise ValueError(f"total_time must be positive, got {self.total_time}")
        object.__setattr__(self, "n_steps", _count("n_steps", self.n_steps, 2))

    @property
    def tau(self) -> float:
        return self.total_time / self.n_steps

    def nodes(self) -> np.ndarray:
        return np.linspace(0.0, self.total_time, self.n_steps + 1)


@dataclass(frozen=True, eq=False)
class TimeSeries:
    """Real values sampled on the nodes of a TimeGrid."""

    grid: TimeGrid
    values: np.ndarray

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 1 or v.shape[0] != self.grid.n_steps + 1:
            raise ValueError(
                f"values must have length {self.grid.n_steps + 1}, got shape {v.shape}"
            )
        object.__setattr__(self, "values", v)


def _fft_length(n: int) -> int:
    """The power-of-two length that holds two n-term series."""
    return 1 << (2 * n - 1).bit_length()


def _spectrum(x: np.ndarray, n: int) -> np.ndarray:
    """rfft of the rows of x at `_fft_length(n)`."""
    return np.fft.rfft(x, _fft_length(n))


def _truncated_inverse(spectrum: np.ndarray, n: int) -> np.ndarray:
    """Terms 0..n-1 of the rows whose `_spectrum` is given: a truncated convolution."""
    return np.fft.irfft(spectrum, 2 * (spectrum.shape[-1] - 1))[..., :n]


# FFT points per block of a stacked convolution: each spectrum of a block
# holds about 2^17 complex values (2 MiB).  That is 64 rows at n_steps 2048,
# so every stack the benchmark forms is one block
_BLOCK_POINTS = 1 << 18


@lru_cache(maxsize=8)
def _l1_spectrum(a: float, grid: TimeGrid) -> np.ndarray:
    """Read-only `_spectrum` of the scaled L1 weights tau^-a/Gamma(2-a) b_j, per (alpha, grid)."""
    n = grid.n_steps
    b = np.diff(np.arange(n + 1.0) ** (1.0 - a)) * (grid.tau ** (-a) / math.gamma(2.0 - a))
    spectrum = _spectrum(b, n)
    spectrum.flags.writeable = False
    return spectrum


def _l1_derivative(values: np.ndarray, alpha: FractionalOrder, grid: TimeGrid) -> np.ndarray:
    """`caputo_l1` of each row: tau^-a/Gamma(2-a) sum_{j<k} b_j (f_{k-j} - f_{k-j-1})."""
    n = grid.n_steps
    out = np.zeros(values.shape)
    # np.multiply, not *: numpy may evaluate weights * (a temporary) as
    # temporary * weights, and complex products round differently that way
    own = np.multiply(_l1_spectrum(alpha.alpha, grid), _spectrum(np.diff(values), n))
    out[..., 1:] = _truncated_inverse(own, n)
    return out


def caputo_l1(f: TimeSeries, alpha: FractionalOrder) -> TimeSeries:
    """L1-scheme Caputo derivative of order alpha on the grid.

    Node 0 is set to 0 by convention (the series starts at t_1); the
    scheme is O(tau^(2-alpha)) for twice-differentiable data.
    """
    return TimeSeries(f.grid, _l1_derivative(f.values, alpha, f.grid))


def _interval_moments(p: float, t: np.ndarray, tau: float):
    """Exact 0th/1st moments of s^(p-1) over each grid subinterval.

    Returns weight pairs (c, d) so that
    integral_{t_j}^{t_j+1} s^(p-1) ell(s) ds = c_j ell(t_j) + d_j ell(t_j+1)
    for any linear ell.
    """
    m0 = (t[1:] ** p - t[:-1] ** p) / p
    m1 = (t[1:] ** (p + 1.0) - t[:-1] ** (p + 1.0)) / (p + 1.0) - t[:-1] * m0
    return m0 - m1 / tau, m1 / tau


def _product_spectrum(c: np.ndarray, d: np.ndarray, f: np.ndarray, n: int) -> np.ndarray:
    """Spectrum of e_i = c_i + d_(i-1) times that of f, in e's spectrum unless only f is a stack."""
    e = np.zeros(c.shape[:-1] + (n + 1,))
    e[..., :-1] = c
    e[..., 1:] += d
    se, sf = _spectrum(e, n), _spectrum(f, n)
    # e's spectrum first, the order numpy gives se * sf: see `_l1_derivative`
    return np.multiply(se, sf, out=se if se.ndim >= sf.ndim else sf)


def product_rule_convolve(c: np.ndarray, d: np.ndarray, f: np.ndarray) -> np.ndarray:
    """out[k] = sum_{j<k} (c_j f_{k-j} + d_j f_{k-j-1}), with out[0] = 0.

    The product rule behind every convolution on the grid: c_j and d_j
    weigh the two nodes of f that bound subinterval j of the kernel.  f is
    one series or a 2-D stack of them, and c and d one row of weights or
    one row per row of the stack; a weight stack against one series gives
    one output row per weight row.
    """
    n = f.shape[-1] - 1
    out = np.zeros(np.broadcast_shapes(c.shape[:-1], f.shape[:-1]) + (n + 1,))
    # a stack goes in blocks of rows that span at most _BLOCK_POINTS FFT
    # points; rows transform independently, so the bits are those of one
    # block, and each block forms its own temporaries.  A single series is
    # the one block
    step = _BLOCK_POINTS // _fft_length(n) or 1
    blocks = [(c, d, f, out)] if out.ndim == 1 else [
        tuple(x[lo : lo + step] if x.ndim == 2 else x for x in (c, d, f, out))
        for lo in range(0, out.shape[0], step)
    ]
    for cb, db, fb, ob in blocks:
        # one convolution with e, less the c_k f_0 it adds at i = k; at the
        # FFT length (>= 2n) only its term 2n wraps, onto term 0
        ob[..., 1:] = _truncated_inverse(_product_spectrum(cb, db, fb, n), n + 1)[..., 1:]
        ob[..., 1:-1] -= cb[..., 1:] * fb[..., :1]
    return out


def weakly_singular_convolve(
    kernel_power: float, smooth_factor: TimeSeries, f: TimeSeries
) -> TimeSeries:
    """Product-trapezoidal quadrature of t -> int_0^t s^(p-1) k(s) f(t-s) ds.

    The factor k(s) f(t-s) is interpolated linearly on each subinterval
    and the singular weight s^(p-1) is integrated exactly against it.
    """
    p = kernel_power
    if not (math.isfinite(p) and 0.0 < p <= 1.0):
        raise ValueError(f"kernel_power must lie in (0, 1], got {p}")
    if smooth_factor.grid != f.grid:
        raise ValueError("smooth_factor and f must share a grid")
    c, d = _interval_moments(p, f.grid.nodes(), f.grid.tau)
    ks = smooth_factor.values
    return TimeSeries(f.grid, product_rule_convolve(c * ks[:-1], d * ks[1:], f.values))


def rl_integral_forward(f: TimeSeries, order: float) -> TimeSeries:
    """Riemann-Liouville integral from 0: (1/Gamma(p)) int_0^t (t-s)^(p-1) f(s) ds."""
    ones = TimeSeries(f.grid, np.ones(f.grid.n_steps + 1))
    out = weakly_singular_convolve(order, ones, f)
    return TimeSeries(f.grid, out.values / math.gamma(order))
