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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .fracops import FractionalOrder, TimeGrid, TimeSeries, weakly_singular_convolve
from .mlf import ml_eval_array
from .spectral import Domain1D, SpectralField

__all__ = [
    "EvolutionField",
    "solve_homogeneous",
    "solve_inhomogeneous",
    "separated_source",
    "duhamel_residual",
    "solve_backward_adjoint",
    "observe_point",
    "modal_kernel_weights",
    "ml_on_nodes",
]


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

    def reversed_in_time(self) -> "EvolutionField":
        return EvolutionField(self.domain, self.grid, self.modal_values[:, ::-1].copy())


def ml_on_nodes(alpha: float, beta: float, lam: float, t: np.ndarray) -> np.ndarray:
    """E_{alpha,beta}(-lam t^alpha) on an array of time nodes."""
    return ml_eval_array(alpha, beta, -lam * np.asarray(t, dtype=float) ** alpha)


@lru_cache(maxsize=4096)
def _kernel_weights_cached(
    lam: float, alpha: float, total_time: float, n_steps: int
) -> tuple[np.ndarray, np.ndarray]:
    t = np.linspace(0.0, total_time, n_steps + 1)
    tau = total_time / n_steps
    # antiderivative of the kernel and its own antiderivative at the nodes
    k0 = t**alpha * ml_on_nodes(alpha, alpha + 1.0, lam, t)
    k2 = t ** (alpha + 1.0) * ml_on_nodes(alpha, alpha + 2.0, lam, t)
    m0 = np.diff(k0)
    m1 = tau * k0[1:] - np.diff(k2)
    c = m0 - m1 / tau
    d = m1 / tau
    c.flags.writeable = False
    d.flags.writeable = False
    return c, d


def modal_kernel_weights(
    lam: float, alpha: FractionalOrder, grid: TimeGrid
) -> tuple[np.ndarray, np.ndarray]:
    """Weight pairs (c, d) of the product rule with exact kernel moments.

    For piecewise-linear nodal data f,
    int_0^{t_k} s^(a-1) E_{a,a}(-lam s^a) f(t_k - s) ds
        = sum_{j<k} (c_j f_{k-j} + d_j f_{k-j-1})
    holds exactly whenever f is globally linear.
    """
    if lam < 0.0:
        raise ValueError(f"lam must be >= 0, got {lam}")
    return _kernel_weights_cached(float(lam), alpha.alpha, grid.total_time, grid.n_steps)


def _modal_convolve(c: np.ndarray, d: np.ndarray, f: np.ndarray) -> np.ndarray:
    n = f.shape[0] - 1
    out = np.zeros(n + 1)
    out[1:] = np.convolve(c, f[1:])[:n]
    out[1:] += np.convolve(d, f)[:n]
    return out


def solve_homogeneous(
    a: SpectralField, alpha: FractionalOrder, grid: TimeGrid
) -> EvolutionField:
    """Solution with initial datum a and no source, mode by mode.

    modal_values(n, k) = E_{alpha,1}(-lambda_n t_k^alpha) (a, phi_n); there
    is no time-stepping error, only Mittag-Leffler evaluation error.
    """
    t = grid.nodes()
    lam = a.domain.eigenvalues()
    modal = np.zeros((a.domain.n_modes, grid.n_steps + 1))
    for i in range(a.domain.n_modes):
        if a.coeffs[i] == 0.0:
            continue
        modal[i] = a.coeffs[i] * ml_on_nodes(alpha.alpha, 1.0, lam[i], t)
    return EvolutionField(a.domain, grid, modal)


def solve_inhomogeneous(
    source: EvolutionField, alpha: FractionalOrder, grid: TimeGrid
) -> EvolutionField:
    """Zero-initial-data solution driven by a modal time-series source."""
    if source.grid != grid:
        raise ValueError("source grid does not match the requested output grid")
    modal = np.zeros_like(source.modal_values)
    lam = source.domain.eigenvalues()
    for i in range(source.domain.n_modes):
        row = source.modal_values[i]
        if not np.any(row):
            continue
        c, d = modal_kernel_weights(lam[i], alpha, grid)
        modal[i] = _modal_convolve(c, d, row)
    return EvolutionField(source.domain, grid, modal)


def separated_source(g: SpectralField, rho: TimeSeries) -> EvolutionField:
    """Modal time series of the separated source g(x) rho(t)."""
    return EvolutionField(g.domain, rho.grid, np.outer(g.coeffs, rho.values))


def duhamel_residual(
    g: SpectralField, rho: TimeSeries, alpha: FractionalOrder, grid: TimeGrid
) -> float:
    """Discrete defect of the identity J^(1-alpha) u = rho * v, mode by mode.

    u solves the sourced problem with source g rho, v the homogeneous one
    with initial datum g.  Both sides are formed by the generic quadrature
    operators, so the residual measures pure discretization error and
    vanishes under grid refinement.
    """
    from .fracops import rl_integral_forward

    u = solve_inhomogeneous(separated_source(g, rho), alpha, grid)
    t = grid.nodes()
    lam = g.domain.eigenvalues()
    worst = 0.0
    scale = 0.0
    for i in range(g.domain.n_modes):
        if g.coeffs[i] == 0.0:
            continue
        lhs = rl_integral_forward(
            TimeSeries(grid, u.modal_values[i]), 1.0 - alpha.alpha
        ).values
        v = TimeSeries(grid, g.coeffs[i] * ml_on_nodes(alpha.alpha, 1.0, lam[i], t))
        rhs = weakly_singular_convolve(1.0, v, rho).values
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
        scale = max(scale, float(np.max(np.abs(lhs))))
    if scale == 0.0:
        return 0.0
    return worst / scale


def solve_backward_adjoint(
    rhs: EvolutionField, alpha: FractionalOrder, grid: TimeGrid
) -> EvolutionField:
    """Adjoint problem with terminal condition z(., T) = 0.

    Under the substitution tau = T - t the unknown satisfies the usual
    forward problem with the right-hand side reversed in time, so this is
    exactly reverse -> solve_inhomogeneous -> reverse.
    """
    return solve_inhomogeneous(rhs.reversed_in_time(), alpha, grid).reversed_in_time()


def observe_point(u: EvolutionField, x0: float) -> TimeSeries:
    """Trace t_k -> u(x0, t_k) by pointwise synthesis."""
    if not (0.0 < x0 < u.domain.length):
        raise ValueError(f"x0 must lie strictly inside (0, {u.domain.length}), got {x0}")
    phi = u.domain.eigenfunctions(x0)[:, 0]
    return TimeSeries(u.grid, phi @ u.modal_values)
