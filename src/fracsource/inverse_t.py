"""Recovery of the temporal source factor rho(t) from a point trace.

The trace u(x0, .) of the sourced solution satisfies a Volterra equation
of the second kind,

    g(x0) rho(t) = d_t^alpha u(x0, t) + int_0^t Q(x0, s) rho(t - s) ds,

whose kernel Q(x0, s) = s^(alpha-1) sum_n lambda_n E_alpha,alpha
(-lambda_n s^alpha) (g, phi_n) phi_n(x0) shares its singular structure
with the forward relaxation kernel.  The direct solver discretizes this
equation (L1 derivative on the trace, exact kernel moments in the
convolution) and runs forward substitution; the fixed-point solver
repeatedly corrects rho by the fractional derivative of the trace
mismatch, damped by a bound K on the homogeneous trace.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DivergenceError, NonZeroInitialTraceError, PointDegenerateError
from .forward import (
    ml_on_nodes,
    modal_kernel_weights,
    observe_point,
    separated_source,
    solve_homogeneous,
    solve_inhomogeneous,
)
from .fracops import FractionalOrder, TimeGrid, TimeSeries, caputo_l1
from .report import ReconstructionReport
from .spectral import SpectralField, eval_at

__all__ = [
    "EPS_POINT",
    "TSourceProblem",
    "AdmissibleDiagnostics",
    "QKernel",
    "kernel_q",
    "solve_volterra",
    "fixed_point_iterate",
    "lipschitz_certificate",
    "count_sign_changes",
    "mollify",
]

# below this the point-observation system is numerically singular
EPS_POINT = 1e-8


@dataclass(frozen=True, eq=False)
class TSourceProblem:
    """Point-observation problem: recover rho from the trace u(x0, .)."""

    g: SpectralField
    x0: float
    alpha: FractionalOrder
    grid: TimeGrid
    trace: TimeSeries
    noise_level: float = 0.0

    def __post_init__(self) -> None:
        if not (0.0 < self.x0 < self.g.domain.length):
            raise ValueError(f"x0 must lie inside (0, {self.g.domain.length})")
        if self.trace.grid != self.grid:
            raise ValueError("trace grid does not match the problem grid")
        if self.noise_level < 0.0:
            raise ValueError("noise_level must be >= 0")
        scale = float(np.max(np.abs(self.trace.values)))
        tol = max(2.0 * self.noise_level, 1e-10) * scale
        if abs(self.trace.values[0]) > tol:
            raise NonZeroInitialTraceError(
                f"trace(0) = {self.trace.values[0]} violates zero initial data"
            )


@dataclass(frozen=True)
class AdmissibleDiagnostics:
    """Sign-change count and C1-bound surrogate of a temporal factor."""

    sign_changes: int
    c1_bound: float


@dataclass(frozen=True, eq=False)
class QKernel:
    """Volterra kernel with the singular power kept symbolic.

    The kernel value at s > 0 is s^(power - 1) * smooth(s); `smooth` holds
    the bounded factor sampled on the grid nodes.
    """

    power: float
    smooth: TimeSeries


def mollify(f: TimeSeries, width: int) -> TimeSeries:
    """Centered moving average with window shrinking near the ends."""
    if width <= 1:
        return f
    v = f.values
    n = v.shape[0]
    half = width // 2
    csum = np.concatenate(([0.0], np.cumsum(v)))
    i = np.arange(n)
    lo = np.maximum(0, i - half)
    hi = np.minimum(n, i + half + 1)
    return TimeSeries(f.grid, (csum[hi] - csum[lo]) / (hi - lo))


def kernel_q(
    g: SpectralField, x0: float, alpha: FractionalOrder, grid: TimeGrid
) -> QKernel:
    """Smooth factor of Q(x0, .): sum_n lambda_n E_a,a(-lambda_n t^a) g_n phi_n(x0)."""
    lam = g.domain.eigenvalues()
    phi = g.domain.eigenfunctions(x0)[:, 0]
    t = grid.nodes()
    a = alpha.alpha
    smooth = np.zeros(grid.n_steps + 1)
    for i in range(g.domain.n_modes):
        w = lam[i] * g.coeffs[i] * phi[i]
        if w == 0.0:
            continue
        smooth += w * ml_on_nodes(a, a, lam[i], t)
    return QKernel(a, TimeSeries(grid, smooth))


def _kernel_weights(
    g: SpectralField, x0: float, alpha: FractionalOrder, grid: TimeGrid
) -> tuple[np.ndarray, np.ndarray]:
    """Product-rule weights of rho -> int_0^t Q(x0, s) rho(t - s) ds.

    Built mode by mode from the exact moments of the relaxation kernel,
    so the map agrees exactly with the forward solver applied to
    piecewise-linear rho.
    """
    lam = g.domain.eigenvalues()
    phi = g.domain.eigenfunctions(x0)[:, 0]
    c_tot = np.zeros(grid.n_steps)
    d_tot = np.zeros(grid.n_steps)
    for i in range(g.domain.n_modes):
        w = lam[i] * g.coeffs[i] * phi[i]
        if w == 0.0:
            continue
        c, d = modal_kernel_weights(lam[i], alpha, grid)
        c_tot += w * c
        d_tot += w * d
    return c_tot, d_tot


def _extrapolate_node0(values: np.ndarray) -> None:
    """Fill node 0 quadratically; the equation gives no information there."""
    if values.shape[0] >= 4:
        values[0] = 3.0 * values[1] - 3.0 * values[2] + values[3]
    else:
        values[0] = values[1]


def solve_volterra(problem: TSourceProblem, mollify_width: int = 5) -> ReconstructionReport:
    """Direct reconstruction of rho by forward substitution.

    The trace is differentiated with the L1 scheme (premollified when the
    problem declares a positive noise level) and the convolution term is
    moved to the left-hand side node by node.
    """
    gx0 = eval_at(problem.g, problem.x0)
    if abs(gx0) < EPS_POINT:
        raise PointDegenerateError(
            f"|g(x0)| = {abs(gx0)} is below the usable threshold {EPS_POINT}"
        )
    trace = problem.trace
    if problem.noise_level > 0.0:
        trace = mollify(trace, mollify_width)
    psi = caputo_l1(trace, problem.alpha).values
    c, d = _kernel_weights(problem.g, problem.x0, problem.alpha, problem.grid)
    n = problem.grid.n_steps
    rho = np.zeros(n + 1)
    for k in range(1, n + 1):
        acc = psi[k] + d[: k] @ rho[k - 1 :: -1]
        if k > 1:
            acc += c[1:k] @ rho[k - 1 : 0 : -1]
        rho[k] = acc / (gx0 - c[0])
    # discrete residual of the solved system (forward substitution is exact)
    resid = float(
        np.max(
            np.abs(
                gx0 * rho[1:]
                - psi[1:]
                - np.array(
                    [c[:k] @ rho[k:0:-1] + d[:k] @ rho[k - 1 :: -1] for k in range(1, n + 1)]
                )
            )
        )
    )
    _extrapolate_node0(rho)
    return ReconstructionReport(
        recovered=TimeSeries(problem.grid, rho),
        residual_history=[resid],
        iterations=1,
        diagnostics={"g_x0": gx0, "diagonal": gx0 - c[0]},
    )


def fixed_point_iterate(
    problem: TSourceProblem,
    K: float,
    m_max: int = 50,
    tol: float = 1e-10,
    mollify_width: int = 5,
    truth: TimeSeries | None = None,
) -> ReconstructionReport:
    """Damped fixed-point reconstruction of rho.

    Each sweep re-solves the forward problem for the current iterate and
    adds the fractional derivative of the trace mismatch, scaled by 1/K.
    K must dominate the sup norm of the homogeneous trace v(x0, .), which
    makes the map a contraction of Volterra type.
    """
    gx0 = eval_at(problem.g, problem.x0)
    if abs(gx0) < EPS_POINT:
        raise PointDegenerateError(
            f"|g(x0)| = {abs(gx0)} is below the usable threshold {EPS_POINT}"
        )
    v = observe_point(
        solve_homogeneous(problem.g, problem.alpha, problem.grid), problem.x0
    )
    k_bound = float(np.max(np.abs(v.values)))
    if not (K > 0.0) or K < k_bound * (1.0 - 1e-12):
        raise ValueError(
            f"K = {K} is below the homogeneous-trace bound {k_bound}"
        )
    trace = problem.trace
    if problem.noise_level > 0.0:
        trace = mollify(trace, mollify_width)
    n = problem.grid.n_steps
    rho = np.zeros(n + 1)
    history = []
    error_history = []
    grew = 0
    iterations = 0
    for m in range(1, m_max + 1):
        iterations = m
        u_m = solve_inhomogeneous(
            separated_source(problem.g, TimeSeries(problem.grid, rho)),
            problem.alpha,
            problem.grid,
        )
        mismatch = trace.values - observe_point(u_m, problem.x0).values
        update = caputo_l1(TimeSeries(problem.grid, mismatch), problem.alpha).values / K
        rho = rho + update
        # the update carries no information at t = 0; extrapolating there
        # keeps the next forward solve consistent with rho(0) != 0 sources
        _extrapolate_node0(rho)
        step = float(np.linalg.norm(update[1:]) * math.sqrt(problem.grid.tau))
        history.append(step)
        if truth is not None:
            num = float(np.linalg.norm(rho[1:] - truth.values[1:]))
            error_history.append(num / float(np.linalg.norm(truth.values[1:])))
        if len(history) > 1 and step > history[-2]:
            grew += 1
            if grew >= 3:
                raise DivergenceError(
                    f"successive-iterate distance grew for {grew} iterations"
                )
        else:
            grew = 0
        if step <= tol:
            break
    return ReconstructionReport(
        recovered=TimeSeries(problem.grid, rho),
        residual_history=history,
        iterations=iterations,
        diagnostics={
            "g_x0": gx0,
            "k_bound": k_bound,
            "K": K,
            "error_history": error_history,
        },
    )


def lipschitz_certificate(
    g: SpectralField,
    x0: float,
    alpha: FractionalOrder,
    grid: TimeGrid,
    rho_family,
) -> tuple[float, float]:
    """Ratio interval of ||rho||_inf to ||d_t^alpha u(x0,.)||_inf over a family.

    A single constant C = max(C_hi, 1/C_lo) then certifies the two-sided
    norm equivalence on the family.
    """
    family = list(rho_family)
    if not family:
        raise ValueError("rho_family must be non-empty")
    if abs(eval_at(g, x0)) < EPS_POINT:
        raise PointDegenerateError(f"|g(x0)| below the usable threshold {EPS_POINT}")
    ratios = []
    for rho in family:
        if not np.any(rho.values):
            raise ValueError("family members must be nonzero")
        u = solve_inhomogeneous(separated_source(g, rho), alpha, grid)
        dtrace = caputo_l1(observe_point(u, x0), alpha)
        denom = float(np.max(np.abs(dtrace.values)))
        ratios.append(float(np.max(np.abs(rho.values))) / denom)
    return min(ratios), max(ratios)


def count_sign_changes(rho: TimeSeries, zero_tol: float = 0.0) -> AdmissibleDiagnostics:
    """Strict sign alternations among samples above the zero threshold."""
    v = rho.values[np.abs(rho.values) > zero_tol]
    changes = int(np.sum(np.sign(v[1:]) != np.sign(v[:-1]))) if v.size > 1 else 0
    slope = np.diff(rho.values) / rho.grid.tau
    bound = float(max(np.max(np.abs(rho.values)), np.max(np.abs(slope))))
    return AdmissibleDiagnostics(sign_changes=changes, c1_bound=bound)
