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
by a bound K on the homogeneous trace.  Both apply the trace map through
product-rule weights that contract the forward kernel-weight table over
the modes once, so neither solves the forward problem.  A fixed-point
sweep is one lower-triangular Toeplitz map plus a rank-one term from the
node-0 extrapolation, so the iterates are power series of that map: the
sweeps run in closed form, 64 at a time, on a per-set-up table of the
spectra of its powers, and the bound K comes from the Volterra weights
without a homogeneous solve.  What depends on the set-up alone (g(x0),
the trace and Volterra weights, K's bound, the resolvent) is one object,
built once per set-up and looked up by value through the memo in
`report`; so is the sweep table of a K.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import (
    DivergenceError,
    NonZeroInitialTraceError,
    ParameterError,
    PointDegenerateError,
)
from .forward import trace_weights
from .fracops import (
    _MOST,
    FractionalOrder,
    TimeGrid,
    TimeSeries,
    _count,
    _l1_derivative,
    _spectrum,
    _truncated_inverse,
    caputo_l1,
    product_rule_convolve,
)
from .report import ReconstructionReport, _by_value, first_index, third_rises
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
        if not self.noise_level >= 0.0:  # NaN fails too
            raise ValueError(f"noise_level must be >= 0, got {self.noise_level}")
        scale = float(np.max(np.abs(self.trace.values)))
        if not math.isfinite(scale):  # a NaN or an inf reaches the max
            raise ValueError("trace values must be finite")
        tol = max(2.0 * self.noise_level, 1e-10) * scale
        if abs(self.trace.values[0]) > tol:
            raise NonZeroInitialTraceError(
                f"trace(0) = {self.trace.values[0]} violates zero initial data"
            )


def mollify(f: TimeSeries, width: int) -> TimeSeries:
    """Centered moving average with window shrinking near the ends.

    The window spans 2 (width // 2) + 1 nodes, so an even width acts as
    the next odd one: widths 4 and 5 give the same average.  A width that
    is not an integer raises ValueError; one of at most 1 returns f.
    """
    if _count("width", width) <= 1:
        return f
    v = f.values
    n = v.shape[0]
    half = width // 2
    csum = np.concatenate(([0.0], np.cumsum(v)))
    i = np.arange(n)
    lo = np.maximum(0, i - half)
    hi = np.minimum(n, i + half + 1)
    return TimeSeries(f.grid, (csum[hi] - csum[lo]) / (hi - lo))


def _observed_trace(problem: TSourceProblem, mollify_width: int) -> TimeSeries:
    """The trace the solvers differentiate: premollified when the problem is noisy."""
    _count("mollify_width", mollify_width, error=partial(ParameterError, "mollify_width"))
    if problem.noise_level == 0.0:
        return problem.trace
    if mollify_width // 2 >= problem.grid.n_steps:
        raise ParameterError(
            "mollify_width",
            f"a window of {mollify_width} nodes averages all {problem.grid.n_steps + 1} "
            "nodes into a constant trace",
        )
    # node 0 keeps the known u(x0, 0) = 0, which the end-shrunk window would lift
    smooth = mollify(problem.trace, mollify_width).values
    return TimeSeries(problem.grid, np.concatenate(([0.0], smooth[1:])))


def _volterra_weights(
    g: SpectralField, x0: float, alpha: FractionalOrder, grid: TimeGrid
) -> tuple[np.ndarray, np.ndarray]:
    """Product-rule weights of rho -> int_0^t Q(x0, s) rho(t - s) ds.

    Q(x0, .) is the trace kernel of the source -Lap g, so the map is the
    forward solver's trace map for that source.
    """
    lap_g = SpectralField(g.domain, g.domain.eigenvalues() * g.coeffs)
    return trace_weights(lap_g, x0, alpha, grid)


def _node0_weights(n_steps: int) -> np.ndarray:
    """e with rho(0) = e . rho[1:4]: quadratic through t_1..t_3, constant on a 2-step grid."""
    return np.array([3.0, -3.0, 1.0]) if n_steps >= 3 else np.array([1.0, 0.0])


def _series_reciprocal(t: np.ndarray) -> np.ndarray:
    """The power series 1/t(z) to order len(t), by Newton doubling r <- r (2 - t r).

    With r exact to order m, the error t r - 1 starts at order m, and r
    times it corrects orders m..2m-1 (cut at len(t) in the last step).
    """
    r = np.array([1.0 / t[0]])
    while r.shape[0] < t.shape[0]:
        m = r.shape[0]
        k = min(m, t.shape[0] - m)
        err = _truncated_inverse(_spectrum(t[: m + k], m + k) * _spectrum(r, m + k), m + k)[m:]
        r = np.concatenate((r, -_truncated_inverse(_spectrum(r[:k], k) * _spectrum(err, k), k)))
    return r


class _RhoSetUp:
    """g(x0), the trace and Volterra weights and the homogeneous trace v(x0, .) of one set-up.

    E_{a,1}(z) = 1 + z E_{a,a+1}(z), and the weights c_j + d_j of mode n
    telescope to t^a E_{a,a+1}(-lambda_n t^a), so v is g(x0) less their
    running sum, and its sup bounds K.  The first `solve_volterra` builds
    the resolvent's spectrum, which no fixed-point run pays for; a
    fixed-point run builds the sweep table of its K.  Every array is
    read-only once the memo keeps it.  A set-up whose |g(x0)| lies below
    EPS_POINT raises PointDegenerateError.
    """

    def __init__(self, g: SpectralField, x0: float, alpha: FractionalOrder, grid: TimeGrid):
        self.alpha, self.grid = alpha, grid
        self.gx0 = eval_at(g, x0)
        if abs(self.gx0) < EPS_POINT:
            raise PointDegenerateError(
                f"|g(x0)| = {abs(self.gx0)} is below the usable threshold {EPS_POINT}"
            )
        self.trace_weights = trace_weights(g, x0, alpha, grid)
        self.c, self.d = _volterra_weights(g, x0, alpha, grid)
        self.v = self.gx0 - np.concatenate(([0.0], np.cumsum(self.c + self.d)))
        self.k_bound = float(np.max(np.abs(self.v)))

    @_by_value
    def resolvent(self) -> np.ndarray:
        """`_spectrum` of the reciprocal series of the system's first column, kept per set-up."""
        r = _series_reciprocal(np.concatenate(([self.gx0], -self.d[:-1])) - self.c)
        return _spectrum(r, r.shape[0])

    # sweeps(K): the sweep table of damping K, kept while the set-up and K repeat
    sweeps = _by_value(lambda self, K: _SweepTable(self, K))


@_by_value
def _set_up(g: SpectralField, x0: float, alpha: FractionalOrder, grid: TimeGrid) -> _RhoSetUp:
    """The set-up given by value, built once while it repeats."""
    # the tables of the last set-up go with it: their memos hold it as their key
    _RhoSetUp.resolvent.cache_clear()
    _RhoSetUp.sweeps.cache_clear()
    return _RhoSetUp(g, x0, alpha, grid)


def solve_volterra(problem: TSourceProblem, mollify_width: int = 5) -> ReconstructionReport:
    """Direct reconstruction of rho by the discrete resolvent.

    The trace is differentiated with the L1 scheme (premollified when the
    problem declares a positive noise level).  With the convolution term on
    the left, the system for rho at t_1..t_n is lower-triangular Toeplitz:
    its inverse convolves with the reciprocal series of its first column.
    """
    s = _set_up(problem.g, problem.x0, problem.alpha, problem.grid)
    psi = caputo_l1(_observed_trace(problem, mollify_width), problem.alpha).values
    n = problem.grid.n_steps
    own = np.multiply(s.resolvent(), _spectrum(psi[1:], n))  # not *: see `_l1_derivative`
    rho = np.concatenate(([0.0], _truncated_inverse(own, n)))
    # discrete residual of the original system: it checks the resolvent solve
    resid = float(np.max(np.abs(s.gx0 * rho - psi - product_rule_convolve(s.c, s.d, rho))[1:]))
    rho[0] = _node0_weights(n) @ rho[1:4]
    return ReconstructionReport(
        recovered=TimeSeries(problem.grid, rho),
        residual_history=[resid],
        iterations=1,
        diagnostics={"g_x0": s.gx0, "diagonal": s.gx0 - s.c[0]},
    )


# sweeps per block of the closed-form fixed-point iteration
_SWEEP_BLOCK = 64
# spectrum points per group of rows a block transforms at once: 64 KiB of
# complex values, below the 128 KiB from which glibc's malloc serves an
# array by a fresh mapping and may trim the heap when it is freed
_GROUP_POINTS = 1 << 12


class _SweepTable:
    """The fixed-point sweep map of one set-up, tabulated for blocks of sweeps.

    On z = rho[1:] a sweep is z <- z + (b - T z - r (e . z))/K: b is the L1
    derivative of the data, T convolves with that of the trace of a unit
    impulse at t_1, r is that of one at t_0, and e . z is rho(0) with e
    from `_node0_weights`.  Update m is M^(m-1) b/K for
    M = I - T/K - r e^T/K.  With nu = 1 - t/K the series of I - T/K, the
    update j sweeps after one equal to delta is

        nu^j * delta - (1/K) sum_{i<j} (nu^(j-1-i) * r) (e . update i).

    T is triangular, so the first q entries of an update follow the leading
    q x q block A of M, and e . update i = (e^T A^i) delta[:q]: the sum is
    sum_l delta_l G_l[j] with G_l[j] = (1/K) sum_{i<j} (e^T A^i)_l
    nu^(j-1-i) * r, fixed per set-up.  The table holds the spectra of
    nu^0 .. nu^B (built by doubling) and G_l[0..B] for l < q, for
    B = `_SWEEP_BLOCK`, so a block of B sweeps is one rfft, a few batched
    irffts and q scaled subtractions.  Every array is read-only once the
    memo keeps it.
    """

    def __init__(self, s: _RhoSetUp, K: float):
        n, blk = s.grid.n_steps, _SWEEP_BLOCK
        self.n = n
        impulses = product_rule_convolve(*s.trace_weights, np.eye(2, n + 1))
        r, t = _l1_derivative(impulses, s.alpha, s.grid)[:, 1:]
        nu = -t / K
        nu[0] += 1.0
        powers = np.repeat(_spectrum(nu, n)[None], blk + 1, axis=0)
        powers[0] = 1.0
        k = 1
        while k < blk:  # nu^(k+i) = nu^k nu^i cut at order n, i = 1..k
            m = min(k, blk - k)
            cut = _truncated_inverse(powers[k] * powers[1 : m + 1], n)
            powers[k + 1 : k + m + 1] = _spectrum(cut, n)
            k += m
        self.powers = powers
        e = _node0_weights(n)
        lag = np.subtract.outer(np.arange(e.size), np.arange(e.size))
        lead = np.where(lag >= 0, nu[np.abs(lag)], 0.0) - np.outer(r[: e.size], e) / K
        rows = np.empty((blk, e.size))  # e^T A^i
        rows[0] = e
        for i in range(1, blk):
            rows[i] = rows[i - 1] @ lead
        spread_r = _truncated_inverse(powers[:blk] * _spectrum(r / K, n), n)  # nu^k * r/K
        self.coupling = np.zeros((e.size, blk + 1, n))
        for j in range(1, blk + 1):
            self.coupling[:, j] = rows[j - 1 :: -1].T @ spread_r[:j]

    def block(self, start: np.ndarray, count: int) -> np.ndarray:
        """Rows: the update `start` and the count updates that follow it.

        The rows are transformed in groups of `_GROUP_POINTS` spectrum
        points, or of 8 rows where fewer would fit: rows transform
        independently, so the bits are those of one transform of the block.
        Up to n_steps 256 a group's temporaries stay below glibc's mmap
        threshold, so a warm solve reuses them from the heap.
        """
        spectrum, rows = _spectrum(start, self.n), self.powers[: count + 1]
        step = max(8, _GROUP_POINTS // spectrum.size)
        out = np.empty((count + 1, self.n))
        for lo in range(0, count + 1, step):
            out[lo : lo + step] = _truncated_inverse(rows[lo : lo + step] * spectrum, self.n)
        for weight, table in zip(start, self.coupling):  # start_l G_l, l < q
            out -= weight * table[: count + 1]
        return out


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
    the bound of the contraction argument, and defaults to it; where g(x0)
    is small against that norm the discrete sweeps can still grow (sine_bump
    g at x0 = 0.05).  The sweeps run in closed form, `_SWEEP_BLOCK` at a
    time, on the set-up's `_SweepTable`.  residual_history[m-1] is the size
    of update m; three rises in a row raise DivergenceError, and an update
    of at most `tol` ends the run, checked in that order at every sweep.
    """
    _count("m_max", m_max, 1, _MOST, error=partial(ParameterError, "m_max"))
    if not tol >= 0.0:  # NaN fails too
        raise ParameterError("tol", f"tol must be >= 0, got {tol}")
    if truth is not None and truth.grid != problem.grid:
        raise ValueError("truth grid does not match the problem grid")
    s = _set_up(problem.g, problem.x0, problem.alpha, problem.grid)
    grid, k_bound = problem.grid, s.k_bound
    if K is None:
        K = k_bound
    if not (0.0 < K < math.inf) or K < k_bound * (1.0 - 1e-12):
        raise ParameterError("K", f"K = {K} must be positive and finite, and >= the trace bound {k_bound}")
    trace = _observed_trace(problem, mollify_width)
    sweeps = s.sweeps(K)
    start = _l1_derivative(trace.values, problem.alpha, grid)[1:] / K
    z = np.zeros(grid.n_steps)  # rho at t_1..t_n
    history: list[float] = []
    error_history: list[float] = []
    done = 0
    while done < m_max:
        count = min(_SWEEP_BLOCK, m_max - done)
        updates = sweeps.block(start, count)
        steps = np.linalg.norm(updates[:count], axis=1) * math.sqrt(grid.tau)
        stop = first_index(steps <= tol)
        last = min(stop, count - 1)
        # within a sweep the divergence check comes first, then tol
        if first_index(third_rises(steps, history)) <= last:
            raise DivergenceError("successive-iterate distance grew for 3 iterations")
        history.extend(steps[: last + 1].tolist())
        # z + u_1, then (z + u_1) + u_2, ...: np.sum adds the rows in order, as the cumsum does
        rows = np.vstack((z, updates[: last + 1]))
        if truth is not None:
            want = truth.values[1:]
            err = np.linalg.norm(np.cumsum(rows, axis=0)[1:] - want, axis=1)
            error_history.extend((err / float(np.linalg.norm(want))).tolist())
        z = np.sum(rows, axis=0)
        done += last + 1
        if stop < count:
            break
        start = updates[count]
    rho = np.concatenate(([0.0], z))
    # the updates carry no information at t = 0; extrapolating there keeps
    # the trace consistent with rho(0) != 0 sources
    rho[0] = _node0_weights(grid.n_steps) @ rho[1:4]
    return ReconstructionReport(
        recovered=TimeSeries(problem.grid, rho),
        residual_history=history,
        iterations=done,
        diagnostics={"g_x0": s.gx0, "k_bound": k_bound, "K": K, "error_history": error_history},
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
    for rho in family:
        if not np.any(rho.values):
            raise ValueError("family members must be nonzero")
        if rho.grid != grid:
            raise ValueError("family members must lie on the given grid")
    rhos = np.array([rho.values for rho in family])
    # its own set-up, so the solvers' cached one survives a certificate elsewhere
    traces = product_rule_convolve(*_RhoSetUp(g, x0, alpha, grid).trace_weights, rhos)
    dtraces = _l1_derivative(traces, alpha, grid)
    ratios = np.max(np.abs(rhos), axis=1) / np.max(np.abs(dtraces), axis=1)
    return float(ratios.min()), float(ratios.max())


def count_sign_changes(rho: TimeSeries, zero_tol: float = 0.0) -> tuple[int, float]:
    """Strict sign alternations above the zero threshold, and the C1 bound max |rho|, |rho'|."""
    v = rho.values[np.abs(rho.values) > zero_tol]
    changes = int(np.sum(np.sign(v[1:]) != np.sign(v[:-1]))) if v.size > 1 else 0
    slope = np.diff(rho.values) / rho.grid.tau
    return changes, float(max(np.max(np.abs(rho.values)), np.max(np.abs(slope))))
