"""Tests of the temporal-factor reconstruction from a point trace."""

import math

import numpy as np
import pytest

from fracsource.errors import NonZeroInitialTraceError, PointDegenerateError
from fracsource.forward import (
    ml_on_nodes,
    observe_point,
    separated_source,
    solve_inhomogeneous,
)
from fracsource.fracops import FractionalOrder, TimeGrid, TimeSeries, caputo_l1
from fracsource.inverse_t import (
    TSourceProblem,
    count_sign_changes,
    fixed_point_iterate,
    kernel_q,
    lipschitz_certificate,
    mollify,
    solve_volterra,
)
from fracsource.profiles import make_g, make_rho
from fracsource.report import relative_l2
from fracsource.spectral import Domain1D, SpectralField

DOM = Domain1D(1.0, 8)
LAM = DOM.eigenvalues()


def synth_trace(g, rho, alpha, x0):
    u = solve_inhomogeneous(separated_source(g, rho), alpha, rho.grid)
    return observe_point(u, x0)


def mode(i, amp=1.0):
    coeffs = np.zeros(DOM.n_modes)
    coeffs[i] = amp
    return SpectralField(DOM, coeffs)


# ---------------------------------------------------------------------------
# kernel


def test_kernel_q_single_mode():
    grid = TimeGrid(1.0, 32)
    a = FractionalOrder(0.5)
    x0 = 0.3
    q = kernel_q(mode(0), x0, a, grid)
    phi1 = DOM.eigenfunctions(x0)[0, 0]
    exact = LAM[0] * phi1 * ml_on_nodes(0.5, 0.5, LAM[0], grid.nodes())
    assert q.power == 0.5
    assert np.max(np.abs(q.smooth.values - exact)) < 1e-12


def test_kernel_q_zero():
    grid = TimeGrid(1.0, 16)
    q = kernel_q(SpectralField(DOM, np.zeros(8)), 0.4, FractionalOrder(0.5), grid)
    assert np.max(np.abs(q.smooth.values)) == 0.0


def test_kernel_q_smooth_factor_bounded_near_zero():
    # |Q(x0, t)| t^(1-alpha) equals |smooth factor|, which must stay bounded
    # as the grid refines toward t = 0 for band-limited g
    a = FractionalOrder(0.5)
    peaks = []
    for n in (1024, 4096):
        q = kernel_q(make_g(DOM, "sine_bump"), 0.3, a, TimeGrid(1.0, n))
        peaks.append(float(np.max(np.abs(q.smooth.values))))
    # the discrete sup approaches a finite continuum value instead of
    # blowing up as the grid probes smaller t
    assert peaks[1] < 1.15 * peaks[0]


# ---------------------------------------------------------------------------
# direct Volterra solve


def test_problem_validation():
    grid = TimeGrid(1.0, 16)
    flat = TimeSeries(grid, np.zeros(17))
    with pytest.raises(ValueError):
        TSourceProblem(mode(0), 0.0, FractionalOrder(0.5), grid, flat)
    with pytest.raises(ValueError):
        TSourceProblem(
            mode(0), 0.3, FractionalOrder(0.5), grid, TimeSeries(TimeGrid(1.0, 8), np.zeros(9))
        )
    bad = TimeSeries(grid, np.ones(17))
    with pytest.raises(NonZeroInitialTraceError):
        TSourceProblem(mode(0), 0.3, FractionalOrder(0.5), grid, bad)


def test_volterra_zero_trace():
    grid = TimeGrid(1.0, 32)
    p = TSourceProblem(mode(0), 0.3, FractionalOrder(0.5), grid, TimeSeries(grid, np.zeros(33)))
    rep = solve_volterra(p)
    assert np.max(np.abs(rep.recovered.values)) == 0.0


def test_volterra_point_degenerate():
    grid = TimeGrid(1.0, 32)
    # phi_2 vanishes at the midpoint
    p = TSourceProblem(mode(1), 0.5, FractionalOrder(0.5), grid, TimeSeries(grid, np.zeros(33)))
    with pytest.raises(PointDegenerateError):
        solve_volterra(p)


@pytest.mark.parametrize("rho_name,params", [("affine", {}), ("sine", {})])
def test_volterra_round_trip(rho_name, params):
    grid = TimeGrid(1.0, 512)
    a = FractionalOrder(0.5)
    g = make_g(DOM, "sine_bump")
    rho = make_rho(grid, rho_name, **params)
    trace = synth_trace(g, rho, a, 0.3)
    rep = solve_volterra(TSourceProblem(g, 0.3, a, grid, trace))
    assert relative_l2(rep.recovered, rho, skip_first=1) <= 1e-2


def test_volterra_linearity():
    grid = TimeGrid(1.0, 256)
    a = FractionalOrder(0.5)
    g = make_g(DOM, "sine_bump")
    r1 = make_rho(grid, "affine")
    r2 = make_rho(grid, "sine")
    t1 = synth_trace(g, r1, a, 0.3)
    t2 = synth_trace(g, r2, a, 0.3)
    combo = TimeSeries(grid, 2.0 * t1.values - 0.5 * t2.values)
    rec = solve_volterra(TSourceProblem(g, 0.3, a, grid, combo)).recovered.values
    rec1 = solve_volterra(TSourceProblem(g, 0.3, a, grid, t1)).recovered.values
    rec2 = solve_volterra(TSourceProblem(g, 0.3, a, grid, t2)).recovered.values
    assert np.max(np.abs(rec - (2.0 * rec1 - 0.5 * rec2))) < 1e-10


def test_volterra_noisy_premollified_smoke():
    grid = TimeGrid(1.0, 256)
    a = FractionalOrder(0.5)
    g = make_g(DOM, "sine_bump")
    rho = make_rho(grid, "affine")
    trace = synth_trace(g, rho, a, 0.3)
    rng = np.random.default_rng(5)
    level = 1e-2
    amp = level * float(np.max(np.abs(trace.values)))
    noisy = trace.values + rng.uniform(-amp, amp, trace.values.shape)
    noisy[0] = 0.0
    p = TSourceProblem(g, 0.3, a, grid, TimeSeries(grid, noisy), noise_level=level)
    rep = solve_volterra(p, mollify_width=5)
    # the averaging trades a smoothing bias for noise damping; at desk
    # scale the result stays usable rather than derivative-amplified
    assert relative_l2(rep.recovered, rho, skip_first=1) < 0.5


def test_mollify_damps_differentiated_noise():
    grid = TimeGrid(1.0, 256)
    a = FractionalOrder(0.5)
    rng = np.random.default_rng(9)
    noise = TimeSeries(grid, rng.uniform(-1.0, 1.0, 257))
    raw = caputo_l1(noise, a).values
    smoothed = caputo_l1(mollify(noise, 9), a).values
    assert np.max(np.abs(smoothed)) < 0.5 * np.max(np.abs(raw))


def test_mollify_endpoints_and_constants():
    grid = TimeGrid(1.0, 32)
    const = TimeSeries(grid, np.full(33, 2.5))
    out = mollify(const, 5)
    assert np.max(np.abs(out.values - 2.5)) < 1e-14
    f = TimeSeries(grid, grid.nodes() ** 2)
    assert mollify(f, 1) is f


def test_mollify_matches_loop_formula():
    grid = TimeGrid(1.0, 40)
    v = np.random.default_rng(4).normal(size=41)
    csum = np.concatenate(([0.0], np.cumsum(v)))
    for width in (1, 2, 5, 6):
        half = width // 2
        ref = np.empty(41)
        for i in range(41):
            lo, hi = max(0, i - half), min(41, i + half + 1)
            ref[i] = (csum[hi] - csum[lo]) / (hi - lo)
        out = mollify(TimeSeries(grid, v), width).values
        assert np.array_equal(out, v if width == 1 else ref)


# ---------------------------------------------------------------------------
# fixed-point iteration


def fp_problem(rho, a=0.5, x0=0.4, g=None):
    g = g if g is not None else make_g(DOM, "sine_bump")
    trace = synth_trace(g, rho, FractionalOrder(a), x0)
    return TSourceProblem(g, x0, FractionalOrder(a), rho.grid, trace)


def test_fixed_point_zero_truth():
    grid = TimeGrid(1.0, 64)
    p = fp_problem(make_rho(grid, "constant", value=0.0))
    rep = fixed_point_iterate(p, K=1.0)
    assert rep.iterations == 1
    assert np.max(np.abs(rep.recovered.values)) == 0.0


def test_fixed_point_rejects_small_k():
    grid = TimeGrid(1.0, 64)
    p = fp_problem(make_rho(grid, "affine"))
    with pytest.raises(ValueError):
        fixed_point_iterate(p, K=1e-6)


def test_fixed_point_converges_monotonically():
    grid = TimeGrid(1.0, 256)
    rho = make_rho(grid, "affine")
    p = fp_problem(rho)
    k_bound = fixed_point_iterate(p, K=1e9, m_max=1).diagnostics["k_bound"]
    rep = fixed_point_iterate(p, K=k_bound, m_max=50, truth=rho)
    errs = rep.diagnostics["error_history"]
    assert errs[-1] <= 1e-2
    assert all(b <= a * (1.0 + 1e-12) for a, b in zip(errs, errs[1:]))


def test_fixed_point_doubled_k_slower():
    grid = TimeGrid(1.0, 128)
    rho = make_rho(grid, "affine")
    p = fp_problem(rho)
    k_bound = fixed_point_iterate(p, K=1e9, m_max=1).diagnostics["k_bound"]
    tol = 1e-6
    r1 = fixed_point_iterate(p, K=k_bound, m_max=400, tol=tol)
    r2 = fixed_point_iterate(p, K=2.0 * k_bound, m_max=400, tol=tol)
    assert r2.iterations > r1.iterations
    assert 1.4 < r2.iterations / r1.iterations < 2.8


# ---------------------------------------------------------------------------
# stability diagnostics


def test_lipschitz_single_member_and_scaling():
    grid = TimeGrid(1.0, 128)
    a = FractionalOrder(0.5)
    g = make_g(DOM, "sine_bump")
    rho = make_rho(grid, "affine")
    lo, hi = lipschitz_certificate(g, 0.3, a, grid, [rho])
    assert lo == hi > 0.0
    scaled = TimeSeries(grid, 7.5 * rho.values)
    lo2, hi2 = lipschitz_certificate(g, 0.3, a, grid, [scaled])
    assert lo2 == pytest.approx(lo, rel=1e-12)


def test_lipschitz_validation():
    grid = TimeGrid(1.0, 32)
    a = FractionalOrder(0.5)
    g = make_g(DOM, "sine_bump")
    with pytest.raises(ValueError):
        lipschitz_certificate(g, 0.3, a, grid, [])
    with pytest.raises(ValueError):
        lipschitz_certificate(g, 0.3, a, grid, [TimeSeries(grid, np.zeros(33))])
    with pytest.raises(PointDegenerateError):
        lipschitz_certificate(mode(1), 0.5, a, grid, [make_rho(grid, "affine")])


def smooth_family(grid, count, seed=0):
    rng = np.random.default_rng(seed)
    t = grid.nodes()
    T = grid.total_time
    out = []
    for _ in range(count):
        c = rng.standard_normal(4)
        vals = c[0] + c[1] * t / T + c[2] * np.sin(math.pi * t / T) + c[3] * (t / T) ** 2
        if not np.any(vals):
            vals = vals + 1.0
        out.append(vals)
    return out


def test_lipschitz_family_stable_under_refinement():
    a = FractionalOrder(0.5)
    g = make_g(DOM, "sine_bump")

    def interval(n):
        grid = TimeGrid(1.0, n)
        family = [TimeSeries(grid, v) for v in smooth_family(grid, 20, seed=42)]
        return lipschitz_certificate(g, 0.3, a, grid, family)

    lo1, hi1 = interval(512)
    lo2, hi2 = interval(1024)
    assert 0.0 < lo1 and hi1 < math.inf
    assert abs(lo2 - lo1) / lo1 < 0.10
    assert abs(hi2 - hi1) / hi1 < 0.10


def test_count_sign_changes():
    grid = TimeGrid(1.0, 200)
    assert count_sign_changes(make_rho(grid, "constant")).sign_changes == 0
    assert count_sign_changes(make_rho(grid, "sine", freq=2.0)).sign_changes == 1
    assert count_sign_changes(make_rho(grid, "alternating", lobes=4)).sign_changes == 3
    d = count_sign_changes(make_rho(grid, "affine", intercept=0.0, slope=2.0))
    assert d.c1_bound == pytest.approx(2.0, rel=1e-12)


def test_distinct_rho_give_distinct_traces():
    # injectivity witnessed on a polynomial family, including x0 outside
    # the support of g
    a = FractionalOrder(0.5)
    grid = TimeGrid(1.0, 256)
    g = make_g(DOM, "offset_bump", center_frac=0.7, width_frac=0.3)
    t = grid.nodes()
    polys = [np.ones_like(t), 1.0 + t, 1.0 + t - t**2, t, t**2]
    for x0 in (0.2, 0.5, 0.8):
        traces = [
            synth_trace(g, TimeSeries(grid, p), a, x0).values for p in polys
        ]
        for i in range(len(polys)):
            for j in range(i + 1, len(polys)):
                l1 = np.sum(np.abs(traces[i] - traces[j])) * grid.tau
                assert l1 > 1e-6, (i, j, x0)
