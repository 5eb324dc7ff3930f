"""Spectral solvers for the fractional diffusion problem on an interval.

Each sine mode of d_t^alpha u - Lap u = F decouples into a scalar
fractional ODE.  The homogeneous solution is evaluated directly through
Mittag-Leffler calls (no time stepping).  The inhomogeneous solution is
the modal convolution of the source with the singular relaxation kernel
q(s) = s^(alpha-1) E_{alpha,alpha}(-lambda s^alpha); here the kernel is
integrated in closed form over each subinterval via the antiderivatives

    int_0^t q             = t^alpha     E_{alpha,alpha+1}(-lambda t^alpha)
    int_0^t (int_0^s q)   = t^(alpha+1) E_{alpha,alpha+2}(-lambda t^alpha)

so only the source is interpolated.  The scheme is exact for sources
that are linear in time and stays accurate even when lambda tau^alpha
is of order one, where sampling the kernel on the nodes would not be.
The weights of all modes form one (N, n) table per (domain, alpha, grid),
which every solver indexes (one mode) or contracts (a sum over modes).
The table takes one Mittag-Leffler call per beta for each block of rows
spanning at most _ML_STEPS time steps (two calls at N = 64, n_steps =
256); a row of such a call is evaluated as its own call would be, so the
table does not depend on the block size.
Like the solvers' set-ups, the table is memoised on the value of its
inputs by `report._by_value`: one table is kept, and it is dropped
before the table of new inputs is built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fracops import (
    FractionalOrder,
    TimeGrid,
    TimeSeries,
    _interval_moments,
    product_rule_convolve,
)
from .mlf import ml_eval_array
from .report import _by_value
from .spectral import Domain1D, SpectralField

__all__ = [
    "EvolutionField",
    "solve_homogeneous",
    "solve_inhomogeneous",
    "separated_source",
    "duhamel_residual",
    "observe_point",
    "modal_kernel_weights",
    "trace_weights",
    "ml_on_nodes",
]


# time steps (rows x n_steps) per Mittag-Leffler call when the modes of a
# table are evaluated together: 64 modes at n_steps 256 in one call, and a
# call's temporaries near 128 KiB, which the allocator reuses; at twice
# that, a call at n_steps 8192 mapped fresh pages for each temporary and
# the table took longer than one call per mode
_ML_STEPS = 1 << 14


def _row_blocks(rows: int, n_steps: int):
    """Slices of the rows, each spanning at most _ML_STEPS time steps (one row at least)."""
    step = max(1, _ML_STEPS // n_steps)
    return (slice(lo, lo + step) for lo in range(0, rows, step))


@dataclass(frozen=True, eq=False)
class EvolutionField:
    """Time-indexed spectral field: entry (n, k) is (u(., t_k), phi_n)."""

    domain: Domain1D
    grid: TimeGrid
    modal_values: np.ndarray

    def __post_init__(self) -> None:
        m = np.asarray(self.modal_values, dtype=float)
        shape = (self.domain.n_modes, self.grid.n_steps + 1)
        if m.shape != shape:
            raise ValueError(f"modal_values must have shape {shape}, got {m.shape}")
        object.__setattr__(self, "modal_values", m)


def ml_on_nodes(alpha: float, beta: float, lam: float, t: np.ndarray) -> np.ndarray:
    """E_{alpha,beta}(-lam t^alpha) on an array of time nodes."""
    return ml_eval_array(alpha, beta, -lam * np.asarray(t, dtype=float) ** alpha)


@_by_value
def modal_kernel_weights(
    domain: Domain1D, alpha: FractionalOrder, grid: TimeGrid
) -> tuple[np.ndarray, np.ndarray]:
    """Product-rule weights (C, D) of every mode, as (N, n) tables, read-only once kept.

    Row n holds the weights of mode n with exact kernel moments: for
    piecewise-linear nodal data f,
    int_0^{t_k} s^(a-1) E_{a,a}(-lambda_n s^a) f(t_k - s) ds
        = sum_{j<k} (C_nj f_{k-j} + D_nj f_{k-j-1})
    holds exactly whenever f is globally linear.  (w @ C, w @ D) are the
    weights of the mode sum sum_n w_n K_n.
    """
    a, t, tau = alpha.alpha, grid.nodes(), grid.tau
    t_a, t_a1 = t**a, t ** (a + 1.0)
    lam = domain.eigenvalues()
    c = np.empty((domain.n_modes, grid.n_steps))
    d = np.empty_like(c)
    for rows in _row_blocks(lam.size, grid.n_steps):
        # antiderivative of the kernel and its own antiderivative at the nodes
        z = -lam[rows, None] * t_a
        k0 = t_a * ml_eval_array(a, a + 1.0, z)
        k2 = t_a1 * ml_eval_array(a, a + 2.0, z)
        d[rows] = (tau * k0[:, 1:] - np.diff(k2, axis=1)) / tau
        c[rows] = np.diff(k0, axis=1) - d[rows]
    return c, d


def trace_weights(
    g: SpectralField, x0: float, alpha: FractionalOrder, grid: TimeGrid
) -> tuple[np.ndarray, np.ndarray]:
    """Product-rule weights of the trace map rho -> u(x0, .) for the source g rho.

    product_rule_convolve with them maps rho to sum_n g_n phi_n(x0) (K_n rho),
    where K_n rho is mode n of the solution driven by phi_n rho.
    """
    w = g.coeffs * g.domain.eigenfunctions(x0)[:, 0]
    c, d = modal_kernel_weights(g.domain, alpha, grid)
    return w @ c, w @ d


def solve_homogeneous(
    a: SpectralField, alpha: FractionalOrder, grid: TimeGrid
) -> EvolutionField:
    """Solution with initial datum a and no source.

    modal_values(n, k) = E_{alpha,1}(-lambda_n t_k^alpha) (a, phi_n); there
    is no time-stepping error, only Mittag-Leffler evaluation error.  The
    nonzero modes are evaluated like the kernel table, in blocks of rows.
    """
    t_a = grid.nodes() ** alpha.alpha
    lam = a.domain.eigenvalues()
    modal = np.zeros((a.domain.n_modes, grid.n_steps + 1))
    live = np.flatnonzero(a.coeffs)
    for rows in _row_blocks(live.size, grid.n_steps):
        i = live[rows]
        modal[i] = a.coeffs[i, None] * ml_eval_array(alpha.alpha, 1.0, -lam[i, None] * t_a)
    return EvolutionField(a.domain, grid, modal)


def solve_inhomogeneous(
    source: EvolutionField, alpha: FractionalOrder, grid: TimeGrid
) -> EvolutionField:
    """Zero-initial-data solution driven by a modal time-series source."""
    if source.grid != grid:
        raise ValueError("source grid does not match the requested output grid")
    c, d = modal_kernel_weights(source.domain, alpha, grid)
    f = source.modal_values
    live = np.flatnonzero(np.any(f, axis=1))
    if live.size == f.shape[0]:  # usual for projected profiles: no row copies
        return EvolutionField(source.domain, grid, product_rule_convolve(c, d, f))
    modal = np.zeros_like(f)
    modal[live] = product_rule_convolve(c[live], d[live], f[live])
    return EvolutionField(source.domain, grid, modal)


def separated_source(g: SpectralField, rho: TimeSeries) -> EvolutionField:
    """Modal time series of the separated source g(x) rho(t)."""
    return EvolutionField(g.domain, rho.grid, np.outer(g.coeffs, rho.values))


def duhamel_residual(
    g: SpectralField, rho: TimeSeries, alpha: FractionalOrder, grid: TimeGrid
) -> float:
    """Discrete defect of the identity J^(1-alpha) u = rho * v over the nonzero modes of g.

    u solves the sourced problem with source g rho, v the homogeneous one
    with initial datum g.  Each side is one product-rule convolution of
    every nonzero mode, with the exact moments of s^(p-1) that
    `rl_integral_forward` and `weakly_singular_convolve` use, so the
    residual measures pure discretization error and vanishes under grid
    refinement.  The result is the largest defect over the largest |lhs|,
    and 0 where lhs vanishes.
    """
    u = solve_inhomogeneous(separated_source(g, rho), alpha, grid).modal_values
    v = solve_homogeneous(g, alpha, grid).modal_values
    live, p, t = np.flatnonzero(g.coeffs), 1.0 - alpha.alpha, grid.nodes()
    lhs = product_rule_convolve(*_interval_moments(p, t, grid.tau), u[live]) / math.gamma(p)
    c, d = _interval_moments(1.0, t, grid.tau)
    rhs = product_rule_convolve(c * v[live, :-1], d * v[live, 1:], rho.values)
    scale = float(np.max(np.abs(lhs), initial=0.0))
    return 0.0 if scale == 0.0 else float(np.max(np.abs(lhs - rhs))) / scale


def observe_point(u: EvolutionField, x0: float) -> TimeSeries:
    """Trace t_k -> u(x0, t_k) by pointwise synthesis."""
    if not (0.0 < x0 < u.domain.length):
        raise ValueError(f"x0 must lie strictly inside (0, {u.domain.length}), got {x0}")
    phi = u.domain.eigenfunctions(x0)[:, 0]
    return TimeSeries(u.grid, phi @ u.modal_values)
