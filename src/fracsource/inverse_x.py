"""Recovery of the spatial source factor g(x).

Two data settings are covered.  From final-time data u(., T) each mode
decouples: the coefficient g_n is multiplied by the scalar response
B_n = int_0^T s^(alpha-1) E_alpha,alpha(-lambda_n s^alpha) rho(T-s) ds,
all of which come from one product of the forward kernel-weight table
with rho, so g is recovered by regularized division (Tikhonov weight mu,
hard cutoff delta on |B_n|).  From interior data y on omega x (0, T) the
damped iteration

    g_{m+1} = K/(K+beta) g_m - 1/(K+beta) A^T W (A g_m - y)

is run, where A maps g to u(g) on the omega mesh points and A^T W is its
exact transpose in the quadrature inner product of the data.  Mode n of
u(g) is g_n times the response of mode n to the source phi_n rho, so A
is assembled from one convolution with rho.  The iteration is linear and the
SVD U S V^T of A in reduced coordinates diagonalises it, A^T W A =
V S^2 V^T: from g = 0, m sweeps leave (1 - r_i^m) s_i y_i / (s_i^2 + beta)
in singular direction i, with y_i the data's coordinate along U's column
i and r_i = (K - s_i^2)/(K + beta), so every sweep is array arithmetic.
The bound K defaults to 1.1 s_1^2, the largest eigenvalue of A^T W A
read off that SVD.  The weighted time responses of the N modes are
numerically low rank: the kernel s^(alpha-1) E_alpha,alpha(-lambda s^alpha)
integrates to 1/lambda and gathers near s = 0 as lambda grows, so a high
mode responds nearly as rho/lambda (such kernel families have short
sums of exponentials; Beylkin & Monzon, Appl. Comput. Harmon. Anal. 19,
2005).  The reduced coordinates keep only their r_t singular directions
above round-off, and a set-up holds O(N^2 r_t) values instead of N^3.  The operator and its
SVD are built once per set-up (rho, alpha, grid, domain, omega, mesh),
and B once per (rho, alpha, grid, domain); both are looked up by value
through the memo in `report` and reused by re-solves with new data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import (
    AllModesCutError,
    DegenerateRhoError,
    DivergenceError,
    FracsourceError,
    NonPositiveParamsError,
    ParameterError,
)
from .forward import EvolutionField, modal_kernel_weights
from .fracops import _MOST, FractionalOrder, TimeGrid, TimeSeries, _count, product_rule_convolve
from .report import ReconstructionReport, _by_value, first_index, third_rises
from .spectral import Domain1D, SpectralField, simpson_weights

__all__ = [
    "XSourceFinalProblem",
    "XSourceInteriorProblem",
    "modal_responses",
    "reconstruct_final",
    "choose_mu_discrepancy",
    "iterative_thresholding",
    "estimate_k",
    "observe_interior",
]

_MU_LO, _MU_HI = 1e-16, 1e6  # the Tikhonov weights choose_mu_discrepancy bisects between
# sweeps per block of the closed-form interior iteration: (N, block) temporaries
_SWEEP_BLOCK = 256


@dataclass(frozen=True, eq=False)
class XSourceFinalProblem:
    """Recover g from u(., T) with known temporal factor rho."""

    rho: TimeSeries
    alpha: FractionalOrder
    grid: TimeGrid
    final_data: SpectralField
    cutoff: float = 0.0
    tikhonov: float = 0.0

    def __post_init__(self) -> None:
        if self.rho.grid != self.grid:
            raise ValueError("rho grid does not match the problem grid")
        if not (self.cutoff >= 0.0 and self.tikhonov >= 0.0):  # NaN fails too
            raise ValueError(f"cutoff {self.cutoff} and tikhonov {self.tikhonov} must be >= 0")


@dataclass(frozen=True, eq=False)
class XSourceInteriorProblem:
    """Recover g from u on omega x (0, T) with known temporal factor rho.

    `observed` holds u(x_i, t_k) for the uniform-mesh points x_i that fall
    inside omega (as produced by observe_interior with the same n_mesh).
    """

    rho: TimeSeries
    alpha: FractionalOrder
    grid: TimeGrid
    domain: Domain1D
    omega: tuple[float, float]
    observed: np.ndarray
    n_mesh: int
    K: float | None = None
    beta: float = 1e-6
    m_max: int = 200
    tol: float = 0.0

    def __post_init__(self) -> None:
        lo, hi = self.omega
        if not (0.0 < lo < hi < self.domain.length):
            raise ValueError(f"omega must be a subinterval strictly inside (0, {self.domain.length})")
        if self.rho.grid != self.grid:
            raise ValueError("rho grid does not match the problem grid")
        obs = np.asarray(self.observed, dtype=float)
        n_pts = int(np.count_nonzero(_omega_mesh(self.domain, self.omega, self.n_mesh)[1]))
        if n_pts == 0:
            raise ValueError(f"omega {self.omega} holds no point of the {self.n_mesh}-point mesh")
        if obs.shape != (n_pts, self.grid.n_steps + 1):
            raise ValueError(
                f"observed must have shape ({n_pts}, {self.grid.n_steps + 1}), got {obs.shape}"
            )
        if not np.all(np.isfinite(obs)):
            raise ValueError("observed values must be finite")
        object.__setattr__(self, "observed", obs)
        m_max = _count("m_max", self.m_max, 1, _MOST, error=partial(ParameterError, "m_max"))
        object.__setattr__(self, "m_max", m_max)
        if not self.tol >= 0.0:  # NaN fails too
            raise ValueError(f"tol must be >= 0, got {self.tol}")


def _omega_mesh(domain: Domain1D, omega: tuple, n_mesh: int) -> tuple[np.ndarray, np.ndarray]:
    """The uniform mesh of n_mesh points and the mask of those inside omega."""
    xs = domain.mesh(_count("n_mesh", n_mesh, 4, _MOST))
    return xs, (xs >= omega[0]) & (xs <= omega[1])


def observe_interior(
    u: EvolutionField, omega: tuple[float, float], n_mesh: int
) -> np.ndarray:
    """Sample u on the uniform-mesh points inside omega, as a (points, time) array."""
    xs, mask = _omega_mesh(u.domain, omega, n_mesh)
    return u.domain.eigenfunctions(xs[mask]).T @ u.modal_values


@_by_value
def modal_responses(
    rho: TimeSeries, alpha: FractionalOrder, grid: TimeGrid, domain: Domain1D
) -> np.ndarray:
    """All B_n, read-only once kept: final-data coefficient n of the source g rho is g_n B_n."""
    if not np.all(np.isfinite(rho.values)):
        raise ValueError("rho values must be finite")
    c, d = modal_kernel_weights(domain, alpha, grid)
    n = grid.n_steps
    return c @ rho.values[n:0:-1] + d @ rho.values[n - 1 :: -1]


def _modal_responses(problem: XSourceFinalProblem) -> tuple[np.ndarray, np.ndarray]:
    """All B_n and the mask of modes the cutoff retains; mu plays no part."""
    if not np.any(problem.rho.values[-(problem.grid.n_steps // 4 + 1) :]):
        raise DegenerateRhoError("rho vanishes on the last quarter of the grid")
    dom = problem.final_data.domain
    b = modal_responses(problem.rho, problem.alpha, problem.grid, dom)
    keep = np.abs(b) >= problem.cutoff
    if not np.any(keep):
        raise AllModesCutError(
            f"cutoff {problem.cutoff} removed all {dom.n_modes} modes"
        )
    return b, keep


def _tikhonov_fit(b, bu, b2, keep, u_t, g: np.ndarray, r: np.ndarray, mu: float) -> float:
    """Coefficients into g (0 where cut) and ||g B - u_T||; bu = B u_T, b2 = B^2, r scratch."""
    np.divide(bu, np.add(b2, mu, out=r), out=g, where=keep)
    np.subtract(np.multiply(g, b, out=r), u_t, out=r)
    return math.sqrt(float(r @ r))


def reconstruct_final(problem: XSourceFinalProblem) -> ReconstructionReport:
    """Regularized mode-by-mode division of final data by the modal response."""
    b, keep = _modal_responses(problem)
    u = problem.final_data.coeffs
    g, r = np.zeros(u.shape[0]), np.empty(u.shape[0])
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is reported below
        discrepancy = _tikhonov_fit(b, b * u, b**2, keep, u, g, r, problem.tikhonov)
    if not np.all(np.isfinite(g)):
        raise FracsourceError("the fitted coefficients are not finite")
    return ReconstructionReport(
        recovered=SpectralField(problem.final_data.domain, g),
        residual_history=[discrepancy],
        iterations=1,
        diagnostics={
            "retained_modes": int(np.count_nonzero(keep)),
            "cutoff": problem.cutoff,
            "tikhonov": problem.tikhonov,
        },
    )


def choose_mu_discrepancy(
    rho: TimeSeries,
    alpha: FractionalOrder,
    grid: TimeGrid,
    final_data: SpectralField,
    cutoff: float,
    noise_norm: float,
) -> float:
    """Tikhonov weight matching the fit residual to the noise norm.

    The weight is that of an 80-step bisection on log mu between 1e-16
    and 1e6 that keeps the lower half when the fit at the midpoint falls
    below the noise norm delta (the discrepancy principle).  Only the
    midpoints whose side `_discrepancy_certificate` cannot prove are
    fitted, so the weight is the bisection's bit for bit at about 20
    fits instead of 57.  b, b u_T and b^2 do not depend on mu and are
    formed once.

    The proofs rest on two facts.  The exact discrepancy D(mu) never
    falls as mu grows: a kept mode's residual is -mu u/(B^2 + mu), a cut
    mode's is -u.  And with N <= 10^6 modes (all a Domain1D takes) and
    eps = 2^-53, the unit roundoff, a float fit f lies within
    E(D) = 5.1 eps ||u|| + (N/2 + 2.1) eps D + sqrt(N) 2^-537 of D:

    - a kept mode rounds B^2, B u, B^2 + mu, the quotient and g B, so
      g B = t u (1 + th) with t = B^2/(B^2 + mu) and |th| <= 5.01 eps;
      subtracting u adds eps |r|, so |r - r*| <= 5.02 eps |u| + eps |r*|;
    - a cut mode's r = -u is exact (g stays 0), and so is that of a kept
      mode whose B^2 overflows (g = B u/inf = 0): D counts it as cut;
    - the dot product of N terms and the square root scale ||r|| by at
      most 1 + (N/2 + 1.01) eps;
    - an underflow costs at most 2^-1075 an operation: the dot
      product's N of them move f by at most sqrt(N) 2^-537.5, those of
      the fit (|B| < 2^512, B^2 + mu >= 1e-16) by far less.

    These add up to A' + c' D with A' = 5.03 eps ||u|| + sqrt(N) 2^-537
    and c' = (N/2 + 2.02) eps.  A fit f(mu0) < delta - m gives, for every
    mu <= mu0, f(mu) <= (1 + c') D(mu0) + A'
    <= (1 + c')(f(mu0) + A')/(1 - c') + A' < delta once
    m > 2 A' + 2 c' delta; a fit f(mu0) > delta + m gives, for every
    mu >= mu0, f(mu) >= (1 - c')(f(mu0) - A')/(1 + c') - A' >= delta once
    m >= (2 A' + 2 c' delta)/(1 - c').  The margin m = 2 E(delta) exceeds
    both, with room for its own rounding and that of f - delta (exact
    wherever the two are within a factor 2).  A fit that is not finite
    (data whose B u overflows) voids the proofs, and every midpoint is
    fitted.
    """
    if not noise_norm >= 0.0:  # NaN fails too
        raise ValueError(f"noise_norm must be >= 0, got {noise_norm}")
    if noise_norm == 0.0:
        return 1e-10
    b, keep = _modal_responses(XSourceFinalProblem(rho, alpha, grid, final_data, cutoff))
    u = final_data.coeffs
    bu, b2 = b * u, b**2
    g, r = np.zeros(u.shape[0]), np.empty(u.shape[0])
    # the discrepancy of a weight mu, every step in the same two buffers; a
    # mask that keeps every mode is left out, which divides faster to the same bits
    disc = partial(_tikhonov_fit, b, bu, b2, True if keep.all() else keep, u, g, r)
    if disc(_MU_LO) >= noise_norm:
        return _MU_LO
    if disc(_MU_HI) <= noise_norm:
        return _MU_HI
    kept_b2 = b2 * keep

    def slope(mu: float, d: float) -> float:
        """d log D / d log mu at the fit d just made: kept residuals grow at B^2/(B^2 + mu)."""
        return float((r * r) @ (kept_b2 / (b2 + mu))) / d / d if d > 0.0 else 0.0

    n, eps = u.shape[0], 2.0**-53
    a = 5.1 * eps * math.sqrt(u @ u) + math.sqrt(n) * 2.0**-537  # E(D) = a + (N/2 + 2.1) eps D
    margin = 2.0 * (a + (n / 2 + 2.1) * eps * noise_norm)
    log_lo, log_hi = math.log(_MU_LO), math.log(_MU_HI)
    below, above = _discrepancy_certificate(disc, slope, noise_norm, margin, log_lo, log_hi)
    for _ in range(80):
        mid = 0.5 * (log_lo + log_hi)
        if mid in (log_lo, log_hi):
            break  # the midpoint is an end: every later step returns it too
        mu = math.exp(mid)
        if mu <= below or (mu < above and disc(mu) < noise_norm):
            log_lo = mid
        else:
            log_hi = mid
    return math.exp(0.5 * (log_lo + log_hi))


def _discrepancy_certificate(disc, slope, target: float, margin: float, lo: float, hi: float):
    """Weights (below, above): every mu <= below fits under target, every mu >= above does not.

    `disc(mu)` is a fit whose exact value never falls as mu grows, and
    `slope(mu, d)` the derivative d log disc / d log mu at the fit d just
    made.  A fit more than `margin` below target proves every smaller
    weight, one more than `margin` above proves every larger one, and
    every fit that is a proof is kept.  One safeguarded Newton iteration
    on log disc - log aim, stepped in mu, mu <- mu (1 - (log disc -
    log aim)/slope), starts at the midpoint of (lo, hi) in s = log mu and
    runs first to the aim target - 2 margin, then on from its last fit to
    target + 2 margin.  An aim is left once a fit lands within the margin
    of it, which proves that side, or once a step leaves (lo, hi), which
    puts the aim past the fits of the interval.  An aim <= 0 is skipped:
    no fit can prove that side.  Each aim has its own bracket in s,
    (lo, hi) at first, that every fit narrows to its side of the aim; a
    step outside it, or none (slope 0, or a step to mu <= 0), is replaced
    by its midpoint.  The iteration makes 80 fits at most.  A fit that is
    not finite gives the empty certificate (0, inf).
    """
    below, above, a, b, s = 0.0, math.inf, lo, hi, 0.5 * (lo + hi)
    aims = [aim for aim in (target - 2.0 * margin, target + 2.0 * margin) if aim > 0.0]
    for _ in range(80):
        mu = math.exp(s)
        d = disc(mu)
        if not math.isfinite(d):
            return 0.0, math.inf
        k = slope(mu, d)  # 0 at d = 0, which keeps d out of the log below
        if abs(d - target) > margin:
            below, above = (max(below, mu), above) if d < target else (below, min(above, mu))
        while aims:
            # stepped in mu: log disc is convex in s on final data, where a step from below overshoots
            x = -math.log(d / aims[0]) / k if k > 0.0 else math.nan
            step = s + math.log1p(x) if x > -1.0 else math.nan
            if abs(d - aims[0]) >= margin and not (step <= lo or step >= hi):
                break
            aims.pop(0)
            a, b = lo, hi
        if not aims:
            break
        a, b = (s, b) if d < aims[0] else (a, s)
        s = step if a < step < b else 0.5 * (a + b)
    return below, above


class _InteriorOperator:
    """The observation map A: g -> u(g) on the omega mesh points, built once.

    Row n of `response` is mode n of the solution driven by phi_n rho, so
    A g = Phi^T (g R).  Data are compared in <a, b>_W = sum w_i a_ik b_ik t_k
    (Simpson weights in x, trapezoid weights in t); `adjoint` is the exact
    transpose of A in it.

    With the QR factor sqrt(w) Phi^T = Q_x S_x and the cut thin SVD
    sqrt(w_t) R^T ~ Q_t S_t, W^(1/2) A g W_t^(1/2) ~ Q_x S_x diag(g) S_t^T Q_t^T.
    Q_t holds the r_t left singular vectors of sqrt(w_t) R^T whose singular
    values exceed 2^-52 s_1, and at least one, so that rho = 0 still gives
    sigma = 0; S_t = diag(s) V^T on them.  The values cut lie within the
    SVD's own round-off of 0, so dropping them moves the time factor by at
    most 2^-52 s_1 in norm and sigma by round-off only, while r_t is the
    responses' numerical rank (7 to 20 at N 32 to 128 and 64 to 4096
    steps) rather than min(N, n_steps + 1).  The reduced operator
    g -> vec(S_x diag(g) S_t^T) has r_x r_t rows, r_x = min(points in
    omega, N), and N columns, and the thin SVD `u` diag(`sigma`) `vt`, so
    the set-up holds O(N^2 r_t) values.  Residual norms are taken in the
    singular coordinates of data that `coordinates` returns.
    Every array is read-only once the memo keeps it, since one operator
    serves every solve of its set-up.  A rho that is not finite is refused
    here, once per set-up.
    """

    def __init__(
        self,
        rho: TimeSeries,
        alpha: FractionalOrder,
        grid: TimeGrid,
        domain: Domain1D,
        omega: tuple,
        n_mesh: int,
    ):
        if not np.all(np.isfinite(rho.values)):
            raise ValueError("rho values must be finite")
        xs, mask = _omega_mesh(domain, omega, n_mesh)
        # sharp indicator: quadrature weights of the full mesh, zeroed off omega
        self.w_omega = simpson_weights(n_mesh, domain.length / (n_mesh - 1))[mask]
        self.phi = domain.eigenfunctions(xs[mask])
        self.t_weights = np.full(grid.n_steps + 1, grid.tau)
        self.t_weights[0] = self.t_weights[-1] = grid.tau / 2.0
        self.response = product_rule_convolve(*modal_kernel_weights(domain, alpha, grid), rho.values)
        self._sqrt_w = np.sqrt(self.w_omega)
        self._sqrt_wt = np.sqrt(self.t_weights)
        self._q_x, s_x = np.linalg.qr((self.phi * self._sqrt_w).T)
        q_t, s, vt = np.linalg.svd((self.response * self._sqrt_wt).T, full_matrices=False)
        r_t = max(1, int(np.count_nonzero(s > 2.0**-52 * s[0])))  # one column even when rho = 0
        self._q_t, s_t = q_t[:, :r_t], s[:r_t, None] * vt[:r_t]
        reduced = np.einsum("ij,kj->ikj", s_x, s_t).reshape(-1, domain.n_modes)
        self.u, self.sigma, self.vt = np.linalg.svd(reduced, full_matrices=False)

    def apply(self, g: np.ndarray) -> np.ndarray:
        """A g, as a (points, time) array."""
        return self.phi.T @ (g[:, None] * self.response)

    def adjoint(self, r: np.ndarray) -> np.ndarray:
        """A^T W r for a (points, time) array r."""
        return (((self.phi * self.w_omega) @ r) * self.response) @ self.t_weights

    def coordinates(self, y: np.ndarray) -> tuple[np.ndarray, float]:
        """Coordinates y_s of data y along the columns of `u`, and the squared W-norm of the rest.

        With Y_c = Q_x^T W^(1/2) y W_t^(1/2) Q_t, the coordinates of y in
        the factors' ranges, y_s = u^T vec(Y_c); the long time axis is
        contracted against the narrow Q_t first.  The rest, the part of y
        that no g reaches, is the part outside those ranges plus the part
        of vec(Y_c) off the columns of `u`; each norm is that of an
        explicit difference, so nothing cancels.
        """
        y_w = self._sqrt_w[:, None] * y
        y_w *= self._sqrt_wt
        y_c = self._q_x.T @ (y_w @ self._q_t)
        outside = (self._q_x @ y_c) @ self._q_t.T
        np.subtract(y_w, outside, out=outside)
        y_s = self.u.T @ y_c.ravel()
        left = y_c.ravel() - self.u @ y_s
        return y_s, float(left @ left) + float(np.vdot(outside, outside))


@_by_value
def _operator(rho, alpha, grid, domain, omega, n_mesh) -> _InteriorOperator:
    """The operator of a set-up given by value, built once while it repeats."""
    return _InteriorOperator(rho, alpha, grid, domain, omega, n_mesh)


def _operator_of(p: XSourceInteriorProblem) -> _InteriorOperator:
    """The operator of the problem's set-up."""
    return _operator(p.rho, p.alpha, p.grid, p.domain, p.omega, p.n_mesh)


def estimate_k(problem: XSourceInteriorProblem) -> float:
    """Largest eigenvalue of A^T W A: the square of A's largest singular value."""
    return float(_operator_of(problem).sigma[0] ** 2)


def iterative_thresholding(problem: XSourceInteriorProblem) -> ReconstructionReport:
    """Damped adjoint-driven iteration for g from interior data.

    Starts from g = 0; sweep m applies the damped update
    g_m = (K g_(m-1) - (M g_(m-1) - b))/(K + beta) with M = A^T W A and
    b = A^T W y.  In the singular basis of the reduced operator M is
    diag(s^2), so the sweeps are closed-form, g_m = (1 - r^m) s y/(s^2 + beta),
    and are taken in blocks of `_SWEEP_BLOCK`.  K defaults to 1.1 s_1^2, the
    largest eigenvalue of M.  residual_history[m-1] = ||A g_(m-1) - y||_W is
    summed as an explicit difference in a fixed order, so it cannot rise
    through cancellation.  At every sweep the triangle-inequality bound on
    the update norm is asserted, three consecutive residual rises (or a
    non-finite value) raise DivergenceError, and a positive `tol` ends the
    run at the first step of at most `tol` (the default 0 runs all `m_max`
    sweeps).  The diagnostics add the singular values and the filter
    factors (1 - r^m) s^2/(s^2 + beta) of the run.
    """
    # the rho(0) != 0 hypothesis backs identifiability of the iteration target
    if problem.rho.values[0] == 0.0:
        raise DegenerateRhoError("rho(0) must be nonzero")
    op = _operator_of(problem)
    K = problem.K if problem.K is not None else 1.1 * float(op.sigma[0] ** 2)
    beta = problem.beta
    if not (0.0 < K < math.inf and 0.0 < beta < math.inf):
        raise NonPositiveParamsError(f"K and beta must be positive and finite, got K={K}, beta={beta}")
    y_s, rest_sq = op.coordinates(problem.observed)
    sigma, y_s = op.sigma[:, None], y_s[:, None]
    limit = sigma * y_s / (sigma**2 + beta)
    ratio = (K - sigma**2) / (K + beta)
    log_ratio = np.log1p(-(sigma**2 + beta) / (K + beta)) if np.all(ratio > 0.0) else None
    history: list[float] = []
    for first in range(1, problem.m_max + 1, _SWEEP_BLOCK):
        # iterates g_(first-1) .. g_last as columns, sweeps first .. last
        m = np.arange(first - 1, min(first - 1 + _SWEEP_BLOCK, problem.m_max) + 1)
        with np.errstate(over="ignore", invalid="ignore"):
            fill = -np.expm1(log_ratio * m) if log_ratio is not None else 1.0 - ratio**m  # 1 - r^m
            g = fill * limit
            resid = np.sqrt(((sigma * g - y_s) ** 2).sum(axis=0)[:-1] + rest_sq)
            size = np.sqrt((g * g).sum(axis=0))
            grad = np.sqrt(((sigma**2 * g[:, :-1] - sigma * y_s) ** 2).sum(axis=0))
            steps = np.sqrt(((g[:, 1:] - g[:, :-1]) ** 2).sum(axis=0))
            bound = (K / (K + beta)) * size[:-1] + grad / (K + beta)
            broke = (size[1:] > bound * (1.0 + 1e-12) + 1e-300) & np.isfinite(size[1:])
        n = resid.size
        overflow = ~np.isfinite(resid) | ~np.isfinite(size[1:])
        diverged = first_index(third_rises(resid, history) | overflow)
        broke = first_index(broke)
        done = first_index(steps <= problem.tol) if problem.tol > 0.0 else n
        # within a sweep: the bound check, then the divergence check, then tol
        if broke < n and broke <= min(diverged, done):
            raise AssertionError("damped-update norm bound violated")
        if diverged < n and diverged <= done:
            raise DivergenceError(
                "data residual grew for 3 consecutive iterations or overflowed; K is too small"
            )
        stop = min(done, n - 1)
        history.extend(resid[: stop + 1].tolist())
        if done < n:
            break
    iterations = int(m[stop + 1])
    filters = fill[:, stop + 1] * op.sigma**2 / (op.sigma**2 + beta)
    filters.flags.writeable = False
    return ReconstructionReport(
        recovered=SpectralField(problem.domain, op.vt.T @ g[:, stop + 1]),
        residual_history=history,
        iterations=iterations,
        diagnostics={
            "K": K,
            "beta": beta,
            "final_step": float(steps[stop]),
            "singular_values": op.sigma,
            "filter_factors": filters,
        },
    )
