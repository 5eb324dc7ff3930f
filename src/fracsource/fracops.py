"""Discrete fractional calculus on a uniform time grid.

Provides the L1 scheme for the Caputo derivative, the Riemann-Liouville
integral from 0, and a product-trapezoidal quadrature for weakly
singular convolutions.  The singular weight s^(p-1) is always
integrated in closed form against piecewise-linear data, which makes
every operator second-order accurate on smooth inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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


def caputo_l1(f: TimeSeries, alpha: FractionalOrder) -> TimeSeries:
    """L1-scheme Caputo derivative of order alpha on the grid.

    Node 0 is set to 0 by convention (the series starts at t_1); the
    scheme is O(tau^(2-alpha)) for twice-differentiable data.
    """
    n = f.grid.n_steps
    b, scale = _l1_weights(alpha, f.grid)
    df = np.diff(f.values)
    out = np.zeros(n + 1)
    # out[k] = sum_{j<k} b_j (f_{k-j} - f_{k-j-1}), a discrete convolution
    out[1:] = np.convolve(b, df)[:n]
    out[1:] *= scale
    return TimeSeries(f.grid, out)


def _l1_weights(alpha: FractionalOrder, grid: TimeGrid) -> tuple[np.ndarray, float]:
    """The L1 scheme's increment weights b_j, j < n_steps, and their common factor."""
    a = alpha.alpha
    j = np.arange(grid.n_steps, dtype=float)
    b = (j + 1.0) ** (1.0 - a) - j ** (1.0 - a)
    return b, grid.tau ** (-a) / math.gamma(2.0 - a)


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
    weigh the two nodes of f that bound subinterval j of the kernel.
    """
    n = f.shape[0] - 1
    out = np.zeros(n + 1)
    out[1:] = np.convolve(c, f[1:])[:n]
    out[1:] += np.convolve(d, f)[:n]
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
