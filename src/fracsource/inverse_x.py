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
read off that SVD.  The operator and its SVD are built once per set-up
(rho, alpha, grid, domain, omega, mesh), and B once per (rho, alpha,
grid, domain); both are looked up by value through the memo in `report`
and reused by re-solves with new data.
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
)
from .forward import EvolutionField, modal_kernel_weights
from .fracops import FractionalOrder, TimeGrid, TimeSeries, _count, product_rule_convolve
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
        object.__setattr__(self, "m_max", _count("m_max", self.m_max, 1))
        if not self.tol >= 0.0:  # NaN fails too
            raise ValueError(f"tol must be >= 0, got {self.tol}")


def _omega_mesh(domain: Domain1D, omega: tuple, n_mesh: int) -> tuple[np.ndarray, np.ndarray]:
    """The uniform mesh of n_mesh points and the mask of those inside omega."""
    xs = domain.mesh(n_mesh)
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

    The discrepancy grows monotonically with mu, so a log-scale bisection
    finds the weight at which the reconstruction stops fitting the noise.
    b, b u_T and b^2 do not depend on mu and are formed once.
    """
    if not noise_norm >= 0.0:  # NaN fails too
        raise ValueError(f"noise_norm must be >= 0, got {noise_norm}")
    if noise_norm == 0.0:
        return 1e-10
    b, keep = _modal_responses(XSourceFinalProblem(rho, alpha, grid, final_data, cutoff))
    u = final_data.coeffs
    bu, b2 = b * u, b**2
    # the discrepancy of a weight mu, every step in the same two buffers
    disc = partial(_tikhonov_fit, b, bu, b2, keep, u, np.zeros(u.shape[0]), np.empty(u.shape[0]))
    if disc(_MU_LO) >= noise_norm:
        return _MU_LO
    if disc(_MU_HI) <= noise_norm:
        return _MU_HI
    log_lo, log_hi = math.log(_MU_LO), math.log(_MU_HI)
    for _ in range(80):
        mid = 0.5 * (log_lo + log_hi)
        if mid in (log_lo, log_hi):
            break  # the midpoint is an end: every later step returns it too
        if disc(math.exp(mid)) < noise_norm:
            log_lo = mid
        else:
            log_hi = mid
    return math.exp(0.5 * (log_lo + log_hi))


class _InteriorOperator:
    """The observation map A: g -> u(g) on the omega mesh points, built once.

    Row n of `response` is mode n of the solution driven by phi_n rho, so
    A g = Phi^T (g R).  Data are compared in <a, b>_W = sum w_i a_ik b_ik t_k
    (Simpson weights in x, trapezoid weights in t); `adjoint` is the exact
    transpose of A in it.

    With the QR factors sqrt(w) Phi^T = Q_x S_x and sqrt(w_t) R^T = Q_t S_t,
    W^(1/2) A g W_t^(1/2) = Q_x S_x diag(g) S_t^T Q_t^T.  The reduced
    operator g -> vec(S_x diag(g) S_t^T) has the thin SVD
    `u` diag(`sigma`) `vt`; it has at most N columns, and fewer rows when
    omega holds few mesh points or the grid few nodes.  Residual norms are
    taken in the singular coordinates of data that `coordinates` returns.
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
        self._q_t, s_t = np.linalg.qr((self.response * self._sqrt_wt).T)
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
        the factors' ranges, y_s = u^T vec(Y_c).  The rest, the part of y
        that no g reaches, is the part outside those ranges plus the part
        of vec(Y_c) off the columns of `u`; each norm is that of an
        explicit difference, so nothing cancels.
        """
        y_w = self._sqrt_w[:, None] * y * self._sqrt_wt
        y_c = self._q_x.T @ y_w @ self._q_t
        outside = y_w - self._q_x @ y_c @ self._q_t.T
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
