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
and the normal matrix A^T W A are assembled from one forward solve.
The iteration is linear and the SVD U S V^T of A in reduced coordinates
diagonalises it: from g = 0, m sweeps leave
(1 - r_i^m) s_i y_i / (s_i^2 + beta) in singular direction i, with y_i
the data's coordinate along U's column i and r_i = (K - s_i^2)/(K + beta),
so every sweep is array arithmetic.  The operator and its SVD are built
once per set-up (rho, alpha, grid, domain, omega, mesh) and reused by
re-solves with new data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .errors import (
    AllModesCutError,
    DegenerateRhoError,
    DivergenceError,
    NonPositiveParamsError,
)
from .forward import EvolutionField, modal_kernel_weights, separated_source, solve_inhomogeneous
from .fracops import FractionalOrder, TimeGrid, TimeSeries
from .report import ReconstructionReport
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
        if self.cutoff < 0.0 or self.tikhonov < 0.0:
            raise ValueError("cutoff and tikhonov must be >= 0")


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
        n_pts = int(np.count_nonzero(self._omega_mask()))
        if n_pts == 0:
            raise ValueError(f"omega {self.omega} holds no point of the {self.n_mesh}-point mesh")
        if obs.shape != (n_pts, self.grid.n_steps + 1):
            raise ValueError(
                f"observed must have shape ({n_pts}, {self.grid.n_steps + 1}), got {obs.shape}"
            )
        object.__setattr__(self, "observed", obs)
        if self.m_max < 1:
            raise ValueError(f"m_max must be >= 1, got {self.m_max}")

    def _omega_mask(self) -> np.ndarray:
        xs = self.domain.mesh(self.n_mesh)
        return (xs >= self.omega[0]) & (xs <= self.omega[1])


def observe_interior(
    u: EvolutionField, omega: tuple[float, float], n_mesh: int
) -> np.ndarray:
    """Sample u on the uniform-mesh points inside omega, as a (points, time) array."""
    xs = u.domain.mesh(n_mesh)
    mask = (xs >= omega[0]) & (xs <= omega[1])
    phi = u.domain.eigenfunctions(xs[mask])
    return phi.T @ u.modal_values


def modal_responses(
    rho: TimeSeries, alpha: FractionalOrder, grid: TimeGrid, domain: Domain1D
) -> np.ndarray:
    """All B_n: final-data coefficient n of the source g rho is g_n B_n."""
    c, d = modal_kernel_weights(domain, alpha, grid)
    n = grid.n_steps
    return c @ rho.values[n:0:-1] + d @ rho.values[n - 1 :: -1]


def _modal_responses(problem: XSourceFinalProblem) -> tuple[np.ndarray, np.ndarray]:
    """All B_n and the mask of modes the cutoff retains; mu plays no part."""
    quarter = problem.rho.values[-(problem.grid.n_steps // 4 + 1) :]
    if float(np.max(np.abs(quarter))) == 0.0:
        raise DegenerateRhoError("rho vanishes on the last quarter of the grid")
    dom = problem.final_data.domain
    b = modal_responses(problem.rho, problem.alpha, problem.grid, dom)
    keep = np.abs(b) >= problem.cutoff
    if not np.any(keep):
        raise AllModesCutError(
            f"cutoff {problem.cutoff} removed all {dom.n_modes} modes"
        )
    return b, keep


def _tikhonov_fit(
    b: np.ndarray, bu: np.ndarray, b2: np.ndarray, keep: np.ndarray, u_t: np.ndarray, mu: float
) -> tuple[np.ndarray, float]:
    """Regularized coefficients and their discrepancy ||g B - u_T||; bu = B u_T, b2 = B^2."""
    g = np.divide(bu, b2 + mu, out=np.zeros(u_t.shape[0]), where=keep)
    r = g * b - u_t
    return g, math.sqrt(float(r @ r))


def reconstruct_final(problem: XSourceFinalProblem) -> ReconstructionReport:
    """Regularized mode-by-mode division of final data by the modal response."""
    b, keep = _modal_responses(problem)
    u = problem.final_data.coeffs
    g, discrepancy = _tikhonov_fit(b, b * u, b**2, keep, u, problem.tikhonov)
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
    lo: float = 1e-16,
    hi: float = 1e6,
) -> float:
    """Tikhonov weight matching the fit residual to the noise norm.

    The discrepancy grows monotonically with mu, so a log-scale bisection
    finds the weight at which the reconstruction stops fitting the noise.
    b, b u_T and b^2 do not depend on mu and are formed once.
    """
    if noise_norm <= 0.0:
        return 1e-10
    b, keep = _modal_responses(XSourceFinalProblem(rho, alpha, grid, final_data, cutoff))
    u = final_data.coeffs
    bu, b2 = b * u, b**2

    def disc(mu: float) -> float:
        return _tikhonov_fit(b, bu, b2, keep, u, mu)[1]

    if disc(lo) >= noise_norm:
        return lo
    if disc(hi) <= noise_norm:
        return hi
    log_lo, log_hi = math.log(lo), math.log(hi)
    for _ in range(80):
        mid = 0.5 * (log_lo + log_hi)
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
    transpose of A in it and `normal` the N x N matrix of A^T W A.

    With the QR factors sqrt(w) Phi^T = Q_x S_x and sqrt(w_t) R^T = Q_t S_t,
    W^(1/2) A g W_t^(1/2) = Q_x S_x diag(g) S_t^T Q_t^T, so residual norms
    are taken in the reduced coordinates of `reduce`.  The reduced
    operator g -> vec(S_x diag(g) S_t^T) has the thin SVD
    `u` diag(`sigma`) `vt`; it has at most N columns, and fewer rows when
    omega holds few mesh points or the grid few nodes.  Every array is
    read-only, since one operator serves every solve of its set-up.
    """

    def __init__(self, problem: XSourceInteriorProblem):
        dom = problem.domain
        xs = dom.mesh(problem.n_mesh)
        mask = problem._omega_mask()
        # sharp indicator: quadrature weights of the full mesh, zeroed off omega
        w = simpson_weights(problem.n_mesh, dom.length / (problem.n_mesh - 1))
        self.w_omega = w[mask]
        self.phi = dom.eigenfunctions(xs[mask])
        tau = problem.grid.tau
        self.t_weights = np.full(problem.grid.n_steps + 1, tau)
        self.t_weights[0] = self.t_weights[-1] = tau / 2.0
        ones = SpectralField(dom, np.ones(dom.n_modes))
        self.response = solve_inhomogeneous(
            separated_source(ones, problem.rho), problem.alpha, problem.grid
        ).modal_values
        self.normal = ((self.phi * self.w_omega) @ self.phi.T) * (
            (self.response * self.t_weights) @ self.response.T
        )
        self._sqrt_w = np.sqrt(self.w_omega)
        self._sqrt_wt = np.sqrt(self.t_weights)
        self._q_x, self._s_x = np.linalg.qr((self.phi * self._sqrt_w).T)
        self._q_t, s_t = np.linalg.qr((self.response * self._sqrt_wt).T)
        self._s_t_transposed = np.ascontiguousarray(s_t.T)
        reduced = np.einsum("ij,jk->ikj", self._s_x, self._s_t_transposed)
        self.u, self.sigma, self.vt = np.linalg.svd(
            reduced.reshape(-1, dom.n_modes), full_matrices=False
        )
        for a in vars(self).values():
            a.flags.writeable = False

    @cached_property
    def default_k(self) -> float:
        """K of a run that sets none: 1.1 times the power-iteration eigenvalue of `normal`."""
        return 1.1 * _largest_eigenvalue(self.normal, 20)

    def apply(self, g: np.ndarray) -> np.ndarray:
        """A g, as a (points, time) array."""
        return self.phi.T @ (g[:, None] * self.response)

    def adjoint(self, r: np.ndarray) -> np.ndarray:
        """A^T W r for a (points, time) array r."""
        return (((self.phi * self.w_omega) @ r) * self.response) @ self.t_weights

    def reduce(self, y: np.ndarray) -> tuple[np.ndarray, float]:
        """Coordinates Y_c of data y in the range of A, and ||y - P y||_W^2.

        P y = Q_x Y_c Q_t^T is the orthogonal projection onto that range;
        the second term is the norm of an explicit difference, so nothing
        cancels.
        """
        y_w = self._sqrt_w[:, None] * y * self._sqrt_wt
        y_c = self._q_x.T @ y_w @ self._q_t
        outside = y_w - self._q_x @ y_c @ self._q_t.T
        return y_c, float(np.vdot(outside, outside))

    def residual_norm(self, g: np.ndarray, y_c: np.ndarray, outside_sq: float) -> float:
        """||A g - y||_W from the reduction (y_c, outside_sq) of y."""
        diff = (self._s_x * g) @ self._s_t_transposed - y_c
        return math.sqrt(float(np.vdot(diff, diff)) + outside_sq)


def _largest_eigenvalue(normal: np.ndarray, iters: int) -> float:
    """Largest eigenvalue of a symmetric positive semidefinite matrix, by power iteration."""
    g = np.ones(normal.shape[0]) / math.sqrt(normal.shape[0])
    eig = 0.0
    for _ in range(iters):
        q = normal @ g
        eig = float(g @ q)
        norm = float(np.linalg.norm(q))
        if norm == 0.0:
            return 0.0
        g = q / norm
    return eig


def estimate_k(problem: XSourceInteriorProblem, iters: int = 20) -> float:
    """Largest eigenvalue of the normal matrix, by deterministic power iteration."""
    if iters < 5:
        raise ValueError(f"iters must be >= 5, got {iters}")
    return _largest_eigenvalue(_operator(problem).normal, iters)


@dataclass(frozen=True)
class _SetUp:
    """A problem compared by what its operator depends on.

    That is rho (by its bytes), alpha, grid, domain, omega and the mesh;
    data, K, beta, m_max and tol play no part.
    """

    key: tuple
    problem: XSourceInteriorProblem = field(compare=False)


@lru_cache(maxsize=1)
def _operator_cached(set_up: _SetUp) -> _InteriorOperator:
    return _InteriorOperator(set_up.problem)


def _operator(problem: XSourceInteriorProblem) -> _InteriorOperator:
    """The operator of the problem's set-up, built once while the set-up repeats."""
    p = problem
    key = (p.rho.values.tobytes(), p.alpha, p.grid, p.domain, tuple(p.omega), p.n_mesh)
    return _operator_cached(_SetUp(key, problem))


# sweeps per block of the closed-form iteration: (N, block) temporaries
_SWEEP_BLOCK = 256


def iterative_thresholding(problem: XSourceInteriorProblem) -> ReconstructionReport:
    """Damped adjoint-driven iteration for g from interior data.

    Starts from g = 0; sweep m applies the damped update
    g_m = (K g_(m-1) - (M g_(m-1) - b))/(K + beta) with the normal matrix M
    and b = A^T W y.  In the singular basis of the reduced operator the
    sweeps are closed-form, g_m = (1 - r^m) s y/(s^2 + beta), and are taken
    in blocks of `_SWEEP_BLOCK`.  residual_history[m-1] = ||A g_(m-1) - y||_W
    is summed as an explicit difference in a fixed order, so it cannot
    rise through cancellation.  At every sweep the triangle-inequality
    bound on the update norm is asserted, three consecutive residual rises
    (or a non-finite value) raise DivergenceError, and a step of at most
    `tol` ends the run.  The diagnostics add the singular values and the
    filter factors (1 - r^m) s^2/(s^2 + beta) of the run.
    """
    # the rho(0) != 0 hypothesis backs identifiability of the iteration target
    if problem.rho.values[0] == 0.0:
        raise DegenerateRhoError("rho(0) must be nonzero")
    op = _operator(problem)
    K = problem.K if problem.K is not None else op.default_k
    beta = problem.beta
    if not (K > 0.0 and beta > 0.0):
        raise NonPositiveParamsError(f"K and beta must be positive, got K={K}, beta={beta}")
    y_c, outside_sq = op.reduce(problem.observed)
    y_c = y_c.ravel()
    sigma = op.sigma[:, None]
    y_s = op.u.T @ y_c
    left = y_c - op.u @ y_s
    rest_sq = float(left @ left) + outside_sq  # the part no iterate reaches
    y_s = y_s[:, None]
    limit = sigma * y_s / (sigma**2 + beta)
    ratio = (K - sigma**2) / (K + beta)
    log_ratio = np.log1p(-(sigma**2 + beta) / (K + beta)) if np.all(ratio > 0.0) else None

    def filled(m: np.ndarray) -> np.ndarray:
        """1 - r^m, one column per sweep count."""
        if log_ratio is not None:
            return -np.expm1(log_ratio * m)
        return 1.0 - ratio**m

    history: list[float] = []
    for first in range(1, problem.m_max + 1, _SWEEP_BLOCK):
        # iterates g_(first-1) .. g_last as columns, sweeps first .. last
        m = np.arange(first - 1, min(first - 1 + _SWEEP_BLOCK, problem.m_max) + 1)
        with np.errstate(over="ignore", invalid="ignore"):
            g = filled(m) * limit
            resid = np.sqrt(((sigma * g - y_s) ** 2).sum(axis=0)[:-1] + rest_sq)
            size = np.sqrt((g * g).sum(axis=0))
            grad = np.sqrt(((sigma**2 * g[:, :-1] - sigma * y_s) ** 2).sum(axis=0))
            steps = np.sqrt(((g[:, 1:] - g[:, :-1]) ** 2).sum(axis=0))
            bound = (K / (K + beta)) * size[:-1] + grad / (K + beta)
            broke = (size[1:] > bound * (1.0 + 1e-12) + 1e-300) & np.isfinite(size[1:])
        n = resid.size
        # three rises in a row, counted across the block boundary
        ext = np.concatenate((([math.inf] * 3 + history[-3:])[-3:], resid))
        rising = ext[1:] > ext[:-1]
        grown = rising[2:] & rising[1:-1] & rising[:-2]
        diverged = _first(grown | ~np.isfinite(resid) | ~np.isfinite(size[1:]), n)
        broke = _first(broke, n)
        done = _first(steps <= problem.tol, n) if problem.tol > 0.0 else n
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
    filters = filled(np.array([iterations]))[:, 0] * op.sigma**2 / (op.sigma**2 + beta)
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


def _first(flags: np.ndarray, none: int) -> int:
    """Index of the first set flag, or `none`."""
    hits = np.flatnonzero(flags)
    return int(hits[0]) if hits.size else none
