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
takes a long stack in blocks of rows, to bound the spectra it holds.  The
spectrum of the L1 weights is cached per (alpha, grid).
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


@dataclass(frozen=True)
class TimeGrid:
    """Uniform partition of [0, total_time] into n_steps steps."""

    total_time: float
    n_steps: int

    def __post_init__(self) -> None:
        if not (math.isfinite(self.total_time) and self.total_time > 0.0):
            raise ValueError(f"total_time must be positive, got {self.total_time}")
        if not (isinstance(self.n_steps, int) and self.n_steps >= 2):
            raise ValueError(f"n_steps must be an integer >= 2, got {self.n_steps}")

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


def product_rule_convolve(c: np.ndarray, d: np.ndarray, f: np.ndarray) -> np.ndarray:
    """out[k] = sum_{j<k} (c_j f_{k-j} + d_j f_{k-j-1}), with out[0] = 0.

    The product rule behind every convolution on the grid: c_j and d_j
    weigh the two nodes of f that bound subinterval j of the kernel.  The
    leading axes broadcast: f may hold one series per row, and c and d one
    row of weights per row of f, or one series may meet a stack of rows.
    """
    n = f.shape[-1] - 1
    # one convolution with e_i = c_i + d_(i-1), less the c_k f_0 it adds at
    # i = k; at the FFT length (>= 2n) only its term 2n wraps, onto term 0
    e = np.zeros(c.shape[:-1] + (n + 1,))
    e[..., :-1] = c
    e[..., 1:] += d
    out = np.zeros(np.broadcast_shapes(e.shape, f.shape))
    if out.ndim < 2:
        out[1:] = _truncated_inverse(_spectrum(e, n) * _spectrum(f, n), n + 1)[1:]
    else:
        # a stack goes in blocks along its first axis that span at most
        # _BLOCK_POINTS FFT points; rows transform independently, so the bits
        # are those of one block.  An operand that does not run along the
        # first axis is transformed once.
        step = max(1, _BLOCK_POINTS // (_fft_length(n) * (math.prod(out.shape[1:-1]) or 1)))
        stacked = [x.ndim == out.ndim and x.shape[0] > 1 for x in (e, f)]
        fixed = [None if s else _spectrum(x, n) for x, s in zip((e, f), stacked)]

        def product(lo: int) -> np.ndarray:
            """Product of the operands' spectra over the block at row lo."""
            se, sf = (_spectrum(x[lo : lo + step], n) if s else w for x, s, w in zip((e, f), stacked, fixed))
            # into a block spectrum of the product's shape, as numpy does for
            # two temporaries; both spectra are gone before the inverse transform
            shape = np.broadcast_shapes(se.shape, sf.shape)
            dest = next((w for w, s in zip((se, sf), stacked) if s and w.shape == shape), None)
            return np.multiply(se, sf, out=dest)

        for lo in range(0, out.shape[0], step):
            out[lo : lo + step, ..., 1:] = _truncated_inverse(product(lo), n + 1)[..., 1:]
    out[..., 1:-1] -= c[..., 1:] * f[..., :1]
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
