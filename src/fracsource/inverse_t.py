"""Recovery of the temporal source factor rho(t) from a point trace.

The trace u(x0, .) of the sourced solution satisfies a Volterra equation
of the second kind,

    g(x0) rho(t) = d_t^alpha u(x0, t) + int_0^t Q(x0, s) rho(t - s) ds,

whose kernel Q(x0, s) = s^(alpha-1) sum_n lambda_n E_alpha,alpha
(-lambda_n s^alpha) (g, phi_n) phi_n(x0) shares its singular structure
with the forward relaxation kernel.  The direct solver discretizes this
equation (L1 derivative on the trace, exact kernel moments in the
convolution) and convolves the data with the discrete resolvent of that
lower-triangular Toeplitz system; the fixed-point solver repeatedly
corrects rho by the fractional derivative of the trace mismatch, damped
by a bound K on the homogeneous trace.  Both apply the trace map as one
product-rule convolution whose weights contract the forward kernel-weight
table over the modes once, so no sweep solves the forward problem; the
fixed-point sweep folds the L1 derivative into that convolution, and the
bound K comes from the Volterra weights without a homogeneous solve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DivergenceError, NonZeroInitialTraceError, PointDegenerateError
from .forward import trace_weights
from .fracops import FractionalOrder, TimeGrid, TimeSeries, caputo_l1, product_rule_convolve
from .report import ReconstructionReport
from .spectral import SpectralField, eval_at

__all__ = [
    "EPS_POINT",
    "TSourceProblem",
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


def _volterra_weights(
    g: SpectralField, x0: float, alpha: FractionalOrder, grid: TimeGrid
) -> tuple[np.ndarray, np.ndarray]:
    """Product-rule weights of rho -> int_0^t Q(x0, s) rho(t - s) ds.

    Q(x0, .) is the trace kernel of the source -Lap g, so the map is the
    forward solver's trace map for that source.
    """
    lap_g = SpectralField(g.domain, g.domain.eigenvalues() * g.coeffs)
    return trace_weights(lap_g, x0, alpha, grid)


def _homogeneous_trace(
    g: SpectralField, x0: float, alpha: FractionalOrder, grid: TimeGrid
) -> np.ndarray:
    """v(x0, t_k) for the initial datum g and no source, from the Volterra weights.

    E_{a,1}(z) = 1 + z E_{a,a+1}(z), and the weights c_j + d_j of mode n
    telescope to t^a E_{a,a+1}(-lambda_n t^a), so v(x0, .) is g(x0) less
    the running sum of the Volterra weights: no Mittag-Leffler evaluation
    beyond the cached kernel weights.
    """
    c, d = _volterra_weights(g, x0, alpha, grid)
    return eval_at(g, x0) - np.concatenate(([0.0], np.cumsum(c + d)))


def _extrapolate_node0(values: np.ndarray) -> None:
    """Fill node 0 quadratically; the equation gives no information there."""
    if values.shape[0] >= 4:
        values[0] = 3.0 * values[1] - 3.0 * values[2] + values[3]
    else:
        values[0] = values[1]


def _series_reciprocal(t: np.ndarray) -> np.ndarray:
    """The power series 1/t(z) to order len(t), by Newton doubling r <- r (2 - t r).

    With r exact to order m, the error t r - 1 starts at order m, and r
    times it corrects orders m..2m-1 (cut at len(t) in the last step).
    """
    r = np.array([1.0 / t[0]])
    while r.shape[0] < t.shape[0]:
        m = r.shape[0]
        k = min(m, t.shape[0] - m)
        err = np.convolve(t[: m + k], r)[m : m + k]
        r = np.concatenate((r, -np.convolve(r[:k], err)[:k]))
    return r


def solve_volterra(problem: TSourceProblem, mollify_width: int = 5) -> ReconstructionReport:
    """Direct reconstruction of rho by the discrete resolvent.

    The trace is differentiated with the L1 scheme (premollified when the
    problem declares a positive noise level).  With the convolution term on
    the left, the system for rho at t_1..t_n is lower-triangular Toeplitz:
    its inverse convolves with the reciprocal series of its first column.
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
    c, d = _volterra_weights(problem.g, problem.x0, problem.alpha, problem.grid)
    r = _series_reciprocal(np.concatenate(([gx0], -d[:-1])) - c)
    rho = np.concatenate(([0.0], np.convolve(r, psi[1:])[: r.shape[0]]))
    # discrete residual of the original system: it checks the resolvent solve
    resid = float(np.max(np.abs(gx0 * rho - psi - product_rule_convolve(c, d, rho))[1:]))
    _extrapolate_node0(rho)
    return ReconstructionReport(
        recovered=TimeSeries(problem.grid, rho),
        residual_history=[resid],
        iterations=1,
        diagnostics={"g_x0": gx0, "diagonal": gx0 - c[0]},
    )


def fixed_point_iterate(
    problem: TSourceProblem,
    K: float | None = None,
    m_max: int = 50,
    tol: float = 1e-10,
    mollify_width: int = 5,
    truth: TimeSeries | None = None,
) -> ReconstructionReport:
    """Damped fixed-point reconstruction of rho.

    Each sweep adds the fractional derivative of the trace mismatch, scaled
    by 1/K.  K must dominate the sup norm of the homogeneous trace v(x0, .),
    which makes the map a contraction of Volterra type; it defaults to that
    bound.  The derivative of the trace of rho is formed by one convolution.
    """
    gx0 = eval_at(problem.g, problem.x0)
    if abs(gx0) < EPS_POINT:
        raise PointDegenerateError(
            f"|g(x0)| = {abs(gx0)} is below the usable threshold {EPS_POINT}"
        )
    grid, alpha = problem.grid, problem.alpha
    k_bound = float(np.max(np.abs(_homogeneous_trace(problem.g, problem.x0, alpha, grid))))
    if K is None:
        K = k_bound
    if not (K > 0.0) or K < k_bound * (1.0 - 1e-12):
        raise ValueError(
            f"K = {K} is below the homogeneous-trace bound {k_bound}"
        )
    trace = problem.trace
    if problem.noise_level > 0.0:
        trace = mollify(trace, mollify_width)
    c, d = trace_weights(problem.g, problem.x0, alpha, grid)

    def derivative_of_trace(f: np.ndarray) -> np.ndarray:
        return caputo_l1(TimeSeries(grid, product_rule_convolve(c, d, f)), alpha).values

    # rho -> L1 derivative of its trace is lower-triangular Toeplitz except
    # in column 0, which both operators weigh differently: a convolution with
    # the response to a unit impulse at t_1, plus rho_0 times the response
    # to one at t_0
    n = grid.n_steps
    impulse = np.eye(2, n + 1)
    response0 = derivative_of_trace(impulse[0])
    response1 = derivative_of_trace(impulse[1])[1:]
    target = caputo_l1(trace, alpha).values
    rho = np.zeros(n + 1)
    history = []
    error_history = []
    grew = 0
    iterations = 0
    for m in range(1, m_max + 1):
        iterations = m
        fitted = rho[0] * response0
        fitted[1:] += np.convolve(response1, rho[1:])[:n]
        update = (target - fitted) / K
        rho = rho + update
        # the update carries no information at t = 0; extrapolating there
        # keeps the next trace consistent with rho(0) != 0 sources
        _extrapolate_node0(rho)
        step = float(np.linalg.norm(update[1:]) * math.sqrt(grid.tau))
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
    c, d = trace_weights(g, x0, alpha, grid)
    ratios = []
    for rho in family:
        if not np.any(rho.values):
            raise ValueError("family members must be nonzero")
        if rho.grid != grid:
            raise ValueError("family members must lie on the given grid")
        dtrace = caputo_l1(TimeSeries(grid, product_rule_convolve(c, d, rho.values)), alpha)
        denom = float(np.max(np.abs(dtrace.values)))
        ratios.append(float(np.max(np.abs(rho.values))) / denom)
    return min(ratios), max(ratios)


def count_sign_changes(rho: TimeSeries, zero_tol: float = 0.0) -> tuple[int, float]:
    """Strict sign alternations above the zero threshold, and the C1 bound max |rho|, |rho'|."""
    v = rho.values[np.abs(rho.values) > zero_tol]
    changes = int(np.sum(np.sign(v[1:]) != np.sign(v[:-1]))) if v.size > 1 else 0
    slope = np.diff(rho.values) / rho.grid.tau
    return changes, float(max(np.max(np.abs(rho.values)), np.max(np.abs(slope))))
