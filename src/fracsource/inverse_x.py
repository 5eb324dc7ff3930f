"""Recovery of the spatial source factor g(x).

Two data settings are covered.  From final-time data u(., T) each mode
decouples: the coefficient g_n is multiplied by the scalar response
B_n = int_0^T s^(alpha-1) E_alpha,alpha(-lambda_n s^alpha) rho(T-s) ds,
so g is recovered by regularized division (Tikhonov weight mu, hard
cutoff delta on |B_n|).  From interior data on omega x (0, T) the
damped iteration

    g_{m+1} = K/(K+beta) g_m - 1/(K+beta) int_0^T rho(t) z(g_m)(., t) dt

is run, where z solves the adjoint problem backward in time driven by
the omega-localized data mismatch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    AllModesCutError,
    DegenerateRhoError,
    DivergenceError,
    NonPositiveParamsError,
)
from .forward import (
    EvolutionField,
    modal_kernel_weights,
    separated_source,
    solve_backward_adjoint,
    solve_inhomogeneous,
)
from .fracops import FractionalOrder, TimeGrid, TimeSeries
from .report import ReconstructionReport
from .spectral import Domain1D, SpectralField, simpson_weights

__all__ = [
    "XSourceFinalProblem",
    "XSourceInteriorProblem",
    "modal_response",
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
        if obs.shape != (n_pts, self.grid.n_steps + 1):
            raise ValueError(
                f"observed must have shape ({n_pts}, {self.grid.n_steps + 1}), got {obs.shape}"
            )
        object.__setattr__(self, "observed", obs)

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


def modal_response(
    lam: float, rho: TimeSeries, alpha: FractionalOrder, grid: TimeGrid
) -> float:
    """Scalar multiplier B_n taking g-coefficient n to final-data coefficient n."""
    c, d = modal_kernel_weights(lam, alpha, grid)
    n = grid.n_steps
    return float(c @ rho.values[n:0:-1] + d @ rho.values[n - 1 :: -1])


def _modal_responses(problem: XSourceFinalProblem) -> tuple[np.ndarray, np.ndarray]:
    """All B_n and the mask of modes the cutoff retains; mu plays no part."""
    quarter = problem.rho.values[-(problem.grid.n_steps // 4 + 1) :]
    if float(np.max(np.abs(quarter))) == 0.0:
        raise DegenerateRhoError("rho vanishes on the last quarter of the grid")
    dom = problem.final_data.domain
    b = np.array(
        [modal_response(l, problem.rho, problem.alpha, problem.grid) for l in dom.eigenvalues()]
    )
    keep = np.abs(b) >= problem.cutoff
    if not np.any(keep):
        raise AllModesCutError(
            f"cutoff {problem.cutoff} removed all {dom.n_modes} modes"
        )
    return b, keep


def _tikhonov_fit(
    b: np.ndarray, keep: np.ndarray, u_t: np.ndarray, mu: float
) -> tuple[np.ndarray, float]:
    """Regularized coefficients and the discrepancy ||g B - u_T|| they leave."""
    g = np.zeros(u_t.shape[0])
    g[keep] = b[keep] * u_t[keep] / (b[keep] ** 2 + mu)
    return g, float(np.linalg.norm(g * b - u_t))


def reconstruct_final(problem: XSourceFinalProblem) -> ReconstructionReport:
    """Regularized mode-by-mode division of final data by the modal response."""
    b, keep = _modal_responses(problem)
    g, discrepancy = _tikhonov_fit(b, keep, problem.final_data.coeffs, problem.tikhonov)
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
    The modal responses do not depend on mu and are built once.
    """
    if noise_norm <= 0.0:
        return 1e-10
    b, keep = _modal_responses(XSourceFinalProblem(rho, alpha, grid, final_data, cutoff))

    def disc(mu: float) -> float:
        return _tikhonov_fit(b, keep, final_data.coeffs, mu)[1]

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
    """Shared machinery of the interior-data iteration.

    Maps a coefficient vector g to q(g) = int_0^T rho z dt where z is the
    adjoint solution driven by the omega-localized residual of u(g).
    """

    def __init__(self, problem: XSourceInteriorProblem):
        self.problem = problem
        dom = problem.domain
        xs = dom.mesh(problem.n_mesh)
        self.mask = problem._omega_mask()
        # sharp indicator: quadrature weights of the full mesh, zeroed off omega
        w = simpson_weights(problem.n_mesh, dom.length / (problem.n_mesh - 1))
        self.w_omega = w[self.mask]
        self.phi = dom.eigenfunctions(xs[self.mask])
        tau = problem.grid.tau
        self.t_weights = np.full(problem.grid.n_steps + 1, tau)
        self.t_weights[0] = self.t_weights[-1] = tau / 2.0

    def data_on_omega(self, g: np.ndarray) -> np.ndarray:
        """Linear map g -> u(g) sampled on the omega mesh points."""
        u = solve_inhomogeneous(
            separated_source(
                SpectralField(self.problem.domain, g), self.problem.rho
            ),
            self.problem.alpha,
            self.problem.grid,
        )
        return self.phi.T @ u.modal_values

    def residual_on_omega(self, g: np.ndarray) -> np.ndarray:
        return self.data_on_omega(g) - self.problem.observed

    def residual_norm(self, resid: np.ndarray) -> float:
        return math.sqrt(float(self.w_omega @ (resid**2) @ self.t_weights))

    def adjoint_integral(self, resid: np.ndarray) -> np.ndarray:
        rhs = EvolutionField(
            self.problem.domain,
            self.problem.grid,
            self.phi @ (self.w_omega[:, None] * resid),
        )
        z = solve_backward_adjoint(rhs, self.problem.alpha, self.problem.grid)
        return z.modal_values @ (self.problem.rho.values * self.t_weights)


def estimate_k(problem: XSourceInteriorProblem, iters: int = 20) -> float:
    """Largest eigenvalue of the normal operator, by deterministic power iteration."""
    if iters < 5:
        raise ValueError(f"iters must be >= 5, got {iters}")
    op = _InteriorOperator(problem)
    g = np.ones(problem.domain.n_modes) / math.sqrt(problem.domain.n_modes)
    eig = 0.0
    for _ in range(iters):
        q = op.adjoint_integral(op.data_on_omega(g))
        eig = float(g @ q)
        norm = float(np.linalg.norm(q))
        if norm == 0.0:
            return 0.0
        g = q / norm
    return eig


def iterative_thresholding(problem: XSourceInteriorProblem) -> ReconstructionReport:
    """Damped adjoint-driven iteration for g from interior data.

    Starts from g = 0; each sweep forward-solves the current iterate,
    forms the omega-localized mismatch, backward-solves the adjoint and
    applies the damped update.  The triangle-inequality bound on the
    update norm is asserted at every iteration.
    """
    # the rho(0) != 0 hypothesis backs identifiability of the iteration target
    if problem.rho.values[0] == 0.0:
        raise DegenerateRhoError("rho(0) must be nonzero")
    K = problem.K if problem.K is not None else 1.1 * estimate_k(problem)
    beta = problem.beta
    if not (K > 0.0 and beta > 0.0):
        raise NonPositiveParamsError(f"K and beta must be positive, got K={K}, beta={beta}")
    op = _InteriorOperator(problem)
    g = np.zeros(problem.domain.n_modes)
    history = []
    step_norms = []
    grew = 0
    iterations = 0
    for m in range(1, problem.m_max + 1):
        iterations = m
        resid = op.residual_on_omega(g)
        r_norm = op.residual_norm(resid)
        q = op.adjoint_integral(resid)
        g_next = (K / (K + beta)) * g - q / (K + beta)
        bound = (K / (K + beta)) * np.linalg.norm(g) + np.linalg.norm(q) / (K + beta)
        if np.linalg.norm(g_next) > bound * (1.0 + 1e-12) + 1e-300:
            raise AssertionError("damped-update norm bound violated")
        if history and r_norm > history[-1]:
            grew += 1
            if grew >= 3:
                raise DivergenceError(
                    "data residual grew for 3 consecutive iterations; K is too small"
                )
        else:
            grew = 0
        history.append(r_norm)
        step = float(np.linalg.norm(g_next - g))
        step_norms.append(step)
        g = g_next
        if problem.tol > 0.0 and step <= problem.tol:
            break
    return ReconstructionReport(
        recovered=SpectralField(problem.domain, g),
        residual_history=history,
        iterations=iterations,
        diagnostics={"K": K, "beta": beta, "final_step": step_norms[-1]},
    )
