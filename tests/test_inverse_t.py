"""Tests of the temporal-factor reconstruction from a point trace."""

import gc
import math
import weakref

import numpy as np
import pytest

from fracsource.errors import (
    DivergenceError,
    NonZeroInitialTraceError,
    ParameterError,
    PointDegenerateError,
)
from fracsource.forward import (
    modal_kernel_weights,
    observe_point,
    separated_source,
    solve_homogeneous,
    solve_inhomogeneous,
    trace_weights,
)
from fracsource.fracops import (
    FractionalOrder,
    TimeGrid,
    TimeSeries,
    caputo_l1,
    product_rule_convolve,
)
from fracsource.inverse_t import (
    TSourceProblem,
    _observed_trace,
    _series_reciprocal,
    _volterra_weights,
    count_sign_changes,
    fixed_point_iterate,
    lipschitz_certificate,
    mollify,
    solve_volterra,
)
from fracsource.profiles import make_g, make_rho
from fracsource.report import first_index, relative_l2, third_rises
from fracsource.spectral import Domain1D, SpectralField, eval_at

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


def test_volterra_weights_single_mode():
    grid = TimeGrid(1.0, 32)
    a = FractionalOrder(0.5)
    x0 = 0.3
    c, d = _volterra_weights(mode(0), x0, a, grid)
    w = LAM[0] * DOM.eigenfunctions(x0)[0, 0]
    c1, d1 = modal_kernel_weights(DOM, a, grid)
    np.testing.assert_allclose(c, w * c1[0], rtol=1e-15, atol=0.0)
    np.testing.assert_allclose(d, w * d1[0], rtol=1e-15, atol=0.0)


def test_volterra_weights_zero():
    grid = TimeGrid(1.0, 16)
    c, d = _volterra_weights(SpectralField(DOM, np.zeros(8)), 0.4, FractionalOrder(0.5), grid)
    assert np.max(np.abs(c)) == 0.0 and np.max(np.abs(d)) == 0.0


def test_volterra_weights_first_interval_bounded():
    # Q(x0, s) = s^(alpha-1) times a factor bounded near s = 0 for
    # band-limited g, so the first-interval weight c_0 + d_0 (the integral
    # of Q over (0, tau)) is that factor times tau^alpha/alpha to first order
    a = FractionalOrder(0.5)
    ratios = []
    for n in (1024, 4096):
        grid = TimeGrid(1.0, n)
        c, d = _volterra_weights(make_g(DOM, "sine_bump"), 0.3, a, grid)
        ratios.append(float(c[0] + d[0]) / (grid.tau**a.alpha / a.alpha))
    # the ratio stays bounded instead of blowing up as the grid probes
    # smaller t (it reaches its limit only once lambda_N tau^alpha << 1)
    assert abs(ratios[1]) < 1.15 * abs(ratios[0])


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


def volterra_case(n_steps, a, noisy, x0=0.3):
    """Sine-rho trace of the sine bump at x0, clean or with 1% noise."""
    grid = TimeGrid(1.0, n_steps)
    alpha = FractionalOrder(a)
    g = make_g(DOM, "sine_bump")
    trace = synth_trace(g, make_rho(grid, "sine"), alpha, x0)
    level = 0.0
    if noisy:
        level = 1e-2
        amp = level * float(np.max(np.abs(trace.values)))
        values = trace.values + np.random.default_rng(n_steps).uniform(-amp, amp, n_steps + 1)
        values[0] = 0.0
        trace = TimeSeries(grid, values)
    return TSourceProblem(g, x0, alpha, grid, trace, noise_level=level)


def system_column(problem):
    """First column of the lower-triangular Toeplitz Volterra system."""
    c, d = _volterra_weights(problem.g, problem.x0, problem.alpha, problem.grid)
    column = -(c + np.concatenate(([0.0], d[:-1])))
    column[0] += eval_at(problem.g, problem.x0)
    return column


def forward_substitution(problem, psi):
    """rho at t_1..t_n of the discrete Volterra system, solved node by node."""
    gx0 = eval_at(problem.g, problem.x0)
    c, d = _volterra_weights(problem.g, problem.x0, problem.alpha, problem.grid)
    n = problem.grid.n_steps
    rho = np.zeros(n + 1)
    for k in range(1, n + 1):
        acc = psi[k] + d[:k] @ rho[k - 1 :: -1]
        if k > 1:
            acc += c[1:k] @ rho[k - 1 : 0 : -1]
        rho[k] = acc / (gx0 - c[0])
    return rho[1:]


VOLTERRA_SIZES = (2, 3, 100, 257, 2048)
# the Newton steps of the resolvent are FFT products, whose round-off grows with the length
LONG_RESOLVENT_SIZES = (16384,)


# the sine bump is pi^3 x^3 near x = 0: |g(x0)| is 1e-4 at 0.0148 and 1e-6 at 0.0032
@pytest.mark.parametrize("x0", (0.3, 0.0148, 0.0032))
@pytest.mark.parametrize("noisy", (False, True))
@pytest.mark.parametrize("a", (0.1, 0.5, 0.9))
@pytest.mark.parametrize("n_steps", VOLTERRA_SIZES)
def test_volterra_resolvent_matches_substitution(n_steps, a, noisy, x0):
    # a 3-node window keeps the 3-node noisy trace of n_steps = 2 non-constant
    problem = volterra_case(n_steps, a, noisy, x0)
    psi = caputo_l1(_observed_trace(problem, 3), problem.alpha).values
    expected = forward_substitution(problem, psi)
    rep = solve_volterra(problem, mollify_width=3)
    scale = float(np.max(np.abs(expected)))
    assert np.max(np.abs(rep.recovered.values[1:] - expected)) <= 1e-13 * scale
    assert rep.residual_history[0] <= 1e-12 * float(np.max(np.abs(psi)))


@pytest.mark.parametrize("a", (0.1, 0.5, 0.9))
@pytest.mark.parametrize("n_steps", VOLTERRA_SIZES + LONG_RESOLVENT_SIZES)
def test_resolvent_inverts_the_system_column(n_steps, a):
    column = system_column(volterra_case(n_steps, a, False))
    r = _series_reciprocal(column)
    assert r.shape == (n_steps,)
    impulse = np.zeros(n_steps)
    impulse[0] = 1.0
    np.testing.assert_allclose(np.convolve(column, r)[:n_steps], impulse, rtol=0.0, atol=1e-13)


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


@pytest.mark.parametrize("solver", (solve_volterra, fixed_point_iterate))
def test_noisy_constant_rho_keeps_the_zero_initial_value(solver):
    # Both solvers are linear in the data, so the error splits in two:
    # clean data through the noisy path (the discretisation error for
    # rho(0) != 0 plus the 5-node window's bias: 0.012 for the direct
    # solve, 0.019 after 50 sweeps) and the mollified 1% noise alone (at
    # most 0.0055 of ||rho|| over seeds 0-19).  Their sum, 0.025, gives
    # the bound 0.03; seed 5 reads 0.013 and 0.019.  A mollified trace whose
    # node 0 keeps the mean of the first three nodes, not the known
    # u(x0, 0) = 0, errs by 0.37 here in either solver.
    grid = TimeGrid(1.0, 256)
    a = FractionalOrder(0.5)
    g = make_g(Domain1D(1.0, 64), "sine_bump")
    rho = make_rho(grid, "constant")
    c, d = trace_weights(g, 0.35, a, grid)
    clean = product_rule_convolve(c, d, rho.values)
    amp = 0.01 * float(np.max(np.abs(clean)))
    noisy = clean + np.random.default_rng(5).uniform(-amp, amp, clean.shape)
    p = TSourceProblem(g, 0.35, a, grid, TimeSeries(grid, noisy), noise_level=0.01)
    assert relative_l2(solver(p, mollify_width=5).recovered, rho, skip_first=1) < 0.03


@pytest.mark.parametrize("solver", (solve_volterra, fixed_point_iterate))
def test_noisy_solvers_reject_a_window_over_every_node(solver):
    # at n_steps 2 a 5-node window averages the trace into a constant, and
    # rho = 0 came back with no error
    problem, _ = sweep_case(2, True)
    for width in (4, 5, 9):
        with pytest.raises(ValueError, match="mollify_width|nodes"):
            solver(problem, mollify_width=width)
    assert np.any(solver(problem, mollify_width=3).recovered.values)
    # clean data are not mollified, so any window is accepted
    clean, _ = sweep_case(2, False)
    assert np.any(solver(clean, mollify_width=5).recovered.values)


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


@pytest.mark.parametrize("m_max", (0, -3))
def test_fixed_point_rejects_m_max_below_one(m_max):
    grid = TimeGrid(1.0, 64)
    p = fp_problem(make_rho(grid, "affine"))
    with pytest.raises(ParameterError) as info:
        fixed_point_iterate(p, m_max=m_max)
    assert info.value.name == "m_max"
    assert "m_max" in str(info.value)


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


@pytest.mark.parametrize("n_modes,n_steps", [(32, 128), (64, 2048)])
@pytest.mark.parametrize("a", [0.3, 0.6, 0.9])
@pytest.mark.parametrize(
    "profile,params,x0",
    [("sine_bump", {}, 0.4), ("offset_bump", {"center_frac": 0.7, "width_frac": 0.3}, 0.3)],
)
def test_k_bound_from_volterra_weights(n_modes, n_steps, a, profile, params, x0):
    # the offset bump puts x0 outside the support, so the sup of the
    # homogeneous trace lies after t = 0 instead of at g(x0), and the
    # running sum of the weights has to cancel down to a small trace
    import fracsource.inverse_t as inverse_t

    dom = Domain1D(1.0, n_modes)
    grid = TimeGrid(1.0, n_steps)
    alpha = FractionalOrder(a)
    g = make_g(dom, profile, **params)
    ref = observe_point(solve_homogeneous(g, alpha, grid), x0).values
    v = inverse_t._RhoSetUp(g, x0, alpha, grid).v
    assert np.max(np.abs(v - ref)) <= 1e-13 * np.max(np.abs(ref))
    rho = make_rho(grid, "affine")
    p = TSourceProblem(g, x0, alpha, grid, synth_trace(g, rho, alpha, x0))
    k_bound = fixed_point_iterate(p, m_max=1).diagnostics["k_bound"]
    assert k_bound == pytest.approx(float(np.max(np.abs(ref))), rel=1e-13, abs=0.0)
    # a K taken from the homogeneous solve, as callers compute it, is accepted
    rep = fixed_point_iterate(p, K=float(np.max(np.abs(ref))), m_max=1)
    assert rep.diagnostics["K"] == float(np.max(np.abs(ref)))


def test_fixed_point_sweep_matches_three_convolution_loop():
    # reference: each sweep convolves rho into its trace, takes the mismatch
    # and differentiates it, as the sweep was written before it was folded
    # into one convolution
    grid = TimeGrid(1.0, 96)
    a = FractionalOrder(0.6)
    rho = make_rho(grid, "sine")
    g = make_g(DOM, "sine_bump")
    p = fp_problem(rho, a=0.6, x0=0.35)
    rep = fixed_point_iterate(p, m_max=30, tol=0.0)
    K = rep.diagnostics["K"]
    c, d = trace_weights(g, 0.35, a, grid)
    ref = np.zeros(grid.n_steps + 1)
    for _ in range(30):
        mismatch = p.trace.values - product_rule_convolve(c, d, ref)
        ref = ref + caputo_l1(TimeSeries(grid, mismatch), a).values / K
        ref[0] = 3.0 * ref[1] - 3.0 * ref[2] + ref[3]
    assert np.max(np.abs(rep.recovered.values - ref)) <= 1e-13 * np.max(np.abs(ref))


def sweep_loop(problem, K, m_max=50, tol=1e-10, mollify_width=5, truth=None):
    """The per-sweep loop that fixed_point_iterate ran before its sweeps
    were blocked, kept as the reference: each sweep is one np.convolve."""
    grid, alpha = problem.grid, problem.alpha
    trace = _observed_trace(problem, mollify_width)
    c, d = trace_weights(problem.g, problem.x0, alpha, grid)

    def derivative_of_trace(f):
        return caputo_l1(TimeSeries(grid, product_rule_convolve(c, d, f)), alpha).values

    n = grid.n_steps
    impulse = np.eye(2, n + 1)
    response0 = derivative_of_trace(impulse[0])
    response1 = derivative_of_trace(impulse[1])[1:]
    target = caputo_l1(trace, alpha).values
    rho = np.zeros(n + 1)
    history, error_history = [], []
    grew = iterations = 0
    for m in range(1, m_max + 1):
        iterations = m
        fitted = rho[0] * response0
        fitted[1:] += np.convolve(response1, rho[1:])[:n]
        update = (target - fitted) / K
        rho = rho + update
        rho[0] = 3.0 * rho[1] - 3.0 * rho[2] + rho[3] if n >= 3 else rho[1]
        step = float(np.linalg.norm(update[1:]) * math.sqrt(grid.tau))
        history.append(step)
        if truth is not None:
            num = float(np.linalg.norm(rho[1:] - truth.values[1:]))
            error_history.append(num / float(np.linalg.norm(truth.values[1:])))
        if len(history) > 1 and step > history[-2]:
            grew += 1
            if grew >= 3:
                raise DivergenceError(f"successive-iterate distance grew for {grew} iterations")
        else:
            grew = 0
        if step <= tol:
            break
    return rho, history, iterations, error_history


FP_DOM = Domain1D(1.0, 16)


def sweep_case(n_steps, noisy, x0=0.35):
    grid = TimeGrid(1.0, n_steps)
    a = FractionalOrder(0.6)
    g = make_g(FP_DOM, "sine_bump")
    rho = make_rho(grid, "sine")
    c, d = trace_weights(g, x0, a, grid)
    trace = product_rule_convolve(c, d, rho.values)
    level = 0.01 if noisy else 0.0
    if noisy:
        amp = level * float(np.max(np.abs(trace)))
        trace = trace + np.random.default_rng(n_steps).uniform(-amp, amp, trace.shape)
    return TSourceProblem(g, x0, a, grid, TimeSeries(grid, trace), noise_level=level), rho


def assert_matches_loop(rep, ref):
    rho, history, iterations, error_history = ref
    assert rep.iterations == iterations
    assert np.max(np.abs(rep.recovered.values - rho)) <= 1e-13 * np.max(np.abs(rho))
    # relative to the largest entry: a step or error far below it is the
    # loop's own round-off, which no other summation order reproduces
    for got, want in ((rep.residual_history, history), (rep.diagnostics["error_history"], error_history)):
        assert len(got) == len(want)
        if want:
            assert np.max(np.abs(np.subtract(got, want))) <= 1e-10 * np.max(np.abs(want))


@pytest.mark.parametrize("noisy", (False, True))
@pytest.mark.parametrize("m_max", (1, 63, 64, 65, 130))
@pytest.mark.parametrize("n_steps", (2, 3, 4, 96, 256))
def test_fixed_point_blocks_match_the_sweep_loop(n_steps, m_max, noisy):
    # a 3-node window keeps the noisy trace of n_steps = 2 non-constant
    problem, rho = sweep_case(n_steps, noisy)
    rep = fixed_point_iterate(problem, m_max=m_max, mollify_width=3, truth=rho)
    K = rep.diagnostics["K"]
    assert_matches_loop(rep, sweep_loop(problem, K, m_max, mollify_width=3, truth=rho))
    assert rep.diagnostics["error_history"] and rep.iterations <= m_max
    bare = fixed_point_iterate(problem, m_max=m_max, mollify_width=3)
    assert bare.diagnostics["error_history"] == []
    assert np.array_equal(bare.recovered.values, rep.recovered.values)


@pytest.mark.parametrize("stop", (40, 64, 65, 100))
def test_fixed_point_tol_stop_matches_the_sweep_loop(stop):
    # tol between the steps of sweeps stop - 1 and stop: inside the first
    # block, on its last sweep, on the first of the next, inside the second
    problem, rho = sweep_case(96, False)
    K = fixed_point_iterate(problem, m_max=1).diagnostics["K"]
    steps = sweep_loop(problem, K, 130, tol=0.0)[1]
    assert all(b < a for a, b in zip(steps[:stop], steps[1:stop]))
    tol = math.sqrt(steps[stop - 2] * steps[stop - 1])
    ref = sweep_loop(problem, K, 1000, tol=tol, truth=rho)
    assert ref[2] == stop
    assert_matches_loop(fixed_point_iterate(problem, m_max=1000, tol=tol, truth=rho), ref)


def scan_loop(steps, tol):
    """The loop's stopping rules on a whole step sequence: (stop index, diverged)."""
    grew = 0
    for m, step in enumerate(steps):
        if m > 0 and step > steps[m - 1]:
            grew += 1
            if grew >= 3:
                return m, True
        else:
            grew = 0
        if step <= tol:
            return m, False
    return len(steps), False


def block_stop(steps, history, tol):
    """The fixed-point solver's scan of one block, from the shared helpers.

    The index of the sweep that meets tol (steps.size if none does); a
    third rise in a row at or before it raises DivergenceError.
    """
    stop = first_index(steps <= tol)
    if first_index(third_rises(steps, history)) <= min(stop, steps.size - 1):
        raise DivergenceError("third rise")
    return stop


def test_block_scan_follows_the_loop_across_block_boundaries():
    rng = np.random.default_rng(11)
    raised = stopped = 0
    for _ in range(400):
        length = int(rng.integers(1, 40))
        # mostly falling steps with rises mixed in, and some exact repeats
        steps = np.exp(np.cumsum(rng.choice([-1.0, -0.5, 0.0, 0.3, 0.6], length)))
        tol = float(np.exp(rng.uniform(-8.0, 1.0)))
        cuts = sorted(set(rng.integers(1, length + 1, 3).tolist()) | {length})
        history, first, want = [], 0, scan_loop(steps.tolist(), tol)
        got = (length, False)
        for cut in cuts:
            try:
                stop = block_stop(steps[first:cut], history, tol)
            except DivergenceError:
                # the loop raised inside this block
                assert want[1] and first <= want[0] < cut
                got = want
                break
            if stop < cut - first:
                got = (first + stop, False)
                break
            history.extend(steps[first:cut].tolist())
            first = cut
        assert got == want
        raised += want[1]
        stopped += (not want[1]) and want[0] < length
    assert raised > 20 and stopped > 20


def test_block_scan_counts_rises_before_the_boundary():
    # two rises end the last block: the first step of this one is the third
    with pytest.raises(DivergenceError):
        block_stop(np.array([0.8, 0.1]), [1.0, 0.5, 0.6, 0.7], 0.0)
    # two rises in all, one on each side of the boundary: no divergence
    assert block_stop(np.array([0.7, 0.65]), [1.0, 0.5, 0.6], 0.0) == 2
    # divergence is checked before tol within a sweep, as the loop did
    with pytest.raises(DivergenceError):
        block_stop(np.array([0.8]), [0.5, 0.6, 0.7], 1.0)
    assert block_stop(np.array([0.7, 0.8]), [0.5, 0.6], 0.75) == 0
    # the first sweep of a run has nothing to rise from
    assert block_stop(np.array([1.0, 2.0, 3.0]), [], 0.0) == 3
    with pytest.raises(DivergenceError):
        block_stop(np.array([1.0, 2.0, 3.0, 4.0]), [], 0.0)


@pytest.fixture
def table_builds(monkeypatch):
    """Count sweep-table builds from an empty cache."""
    import fracsource.inverse_t as inverse_t

    builds = []

    class Counting(inverse_t._SweepTable):
        def __init__(self, *args):
            builds.append(args)
            super().__init__(*args)

    monkeypatch.setattr(inverse_t, "_SweepTable", Counting)
    inverse_t._set_up.cache_clear()
    yield builds
    inverse_t._set_up.cache_clear()


def test_fixed_point_resolve_rebuilds_nothing(table_builds):
    problem, _ = sweep_case(128, True)
    first = fixed_point_iterate(problem, m_max=70)
    # new data, m_max and tol on the same set-up
    for seed, m_max, tol in ((1, 70, 1e-10), (2, 5, 0.0), (3, 130, 1e-6)):
        rng = np.random.default_rng(seed)
        noisy = problem.trace.values + 1e-3 * rng.uniform(-1.0, 1.0, problem.trace.values.shape)
        p = TSourceProblem(
            problem.g, problem.x0, problem.alpha, problem.grid,
            TimeSeries(problem.grid, noisy), noise_level=0.01,
        )
        fixed_point_iterate(p, m_max=m_max, tol=tol)
    again = fixed_point_iterate(problem, m_max=70)
    assert len(table_builds) == 1
    assert np.array_equal(again.recovered.values, first.recovered.values)


def test_fixed_point_table_follows_k_x0_and_g(table_builds):
    import fracsource.inverse_t as inverse_t

    base, _ = sweep_case(96, False)
    k_bound = fixed_point_iterate(base, m_max=1).diagnostics["k_bound"]
    g2 = SpectralField(FP_DOM, 1.5 * base.g.coeffs)
    changed = [
        (base, {"K": 1.5 * k_bound}),
        (sweep_case(96, False, x0=0.45)[0], {}),
        (TSourceProblem(g2, base.x0, base.alpha, base.grid, base.trace), {}),
        (base, {}),
    ]
    for i, (problem, kw) in enumerate(changed):
        fixed_point_iterate(base, m_max=70)  # leaves the base table cached
        built = len(table_builds)
        warm = fixed_point_iterate(problem, m_max=70, **kw)
        # a changed set-up builds its own table; the unchanged one is served
        assert len(table_builds) == built + (i < 3)
        inverse_t._set_up.cache_clear()
        cold = fixed_point_iterate(problem, m_max=70, **kw)
        assert np.array_equal(warm.recovered.values, cold.recovered.values)
        assert warm.residual_history == cold.residual_history


@pytest.fixture
def set_up_builds(monkeypatch):
    """Count rho set-up builds and resolvent builds from an empty cache."""
    import fracsource.inverse_t as inverse_t

    builds = {"set_up": 0, "resolvent": 0}
    series_reciprocal = inverse_t._series_reciprocal

    class Counting(inverse_t._RhoSetUp):
        def __init__(self, *args):
            builds["set_up"] += 1
            super().__init__(*args)

    def counting(t):
        builds["resolvent"] += 1
        return series_reciprocal(t)

    monkeypatch.setattr(inverse_t, "_RhoSetUp", Counting)
    monkeypatch.setattr(inverse_t, "_series_reciprocal", counting)
    inverse_t._set_up.cache_clear()
    yield builds
    inverse_t._set_up.cache_clear()


def with_new_noise(problem, seed):
    """The problem's trace with seeded noise added, as a re-solve on new data sees it."""
    rng = np.random.default_rng(seed)
    noisy = problem.trace.values + 1e-3 * rng.uniform(-1.0, 1.0, problem.trace.values.shape)
    return TSourceProblem(
        problem.g, problem.x0, problem.alpha, problem.grid,
        TimeSeries(problem.grid, noisy), noise_level=0.01,
    )


def assert_warm_equals_cold(solver, problem, warm):
    import fracsource.inverse_t as inverse_t

    inverse_t._set_up.cache_clear()
    cold = solver(problem)
    assert np.array_equal(warm.recovered.values, cold.recovered.values)
    assert warm.residual_history == cold.residual_history


def test_rho_solvers_share_one_set_up(set_up_builds):
    base, _ = sweep_case(128, True)
    runs = []
    for seed in range(1, 6):
        problem = with_new_noise(base, seed)
        for solver in (solve_volterra, fixed_point_iterate):
            runs.append((solver, problem, solver(problem)))
    assert set_up_builds == {"set_up": 1, "resolvent": 1}
    for solver, problem, warm in runs:
        assert_warm_equals_cold(solver, problem, warm)


def test_fixed_point_session_builds_no_resolvent(set_up_builds):
    base, _ = sweep_case(128, True)
    for seed in range(1, 6):
        fixed_point_iterate(with_new_noise(base, seed))
    assert set_up_builds == {"set_up": 1, "resolvent": 0}
    solve_volterra(base)
    assert set_up_builds == {"set_up": 1, "resolvent": 1}


def test_degenerate_point_builds_no_resolvent(set_up_builds):
    grid = TimeGrid(1.0, 32)
    # phi_2 vanishes at the midpoint
    p = TSourceProblem(mode(1), 0.5, FractionalOrder(0.5), grid, TimeSeries(grid, np.zeros(33)))
    for solver in (solve_volterra, fixed_point_iterate):
        with pytest.raises(PointDegenerateError):
            solver(p)
    assert set_up_builds["resolvent"] == 0


@pytest.mark.parametrize("solver", (solve_volterra, fixed_point_iterate))
def test_a_new_set_up_frees_the_last_ones_tables(solver):
    # the resolvent and sweep tables are keyed by their set-up, so neither
    # may hold a replaced set-up until the next solve of its own kind
    import fracsource.inverse_t as inverse_t

    old, new = sweep_case(96, True)[0], sweep_case(96, True, x0=0.45)[0]
    solve_volterra(old)
    fixed_point_iterate(old)
    held = weakref.ref(inverse_t._set_up(old.g, old.x0, old.alpha, old.grid))
    solver(new)
    gc.collect()
    assert held() is None


def test_certificate_elsewhere_leaves_the_solvers_set_up_cached(set_up_builds):
    base, _ = sweep_case(96, True)
    first = solve_volterra(base)
    lipschitz_certificate(base.g, 0.45, base.alpha, base.grid, [make_rho(base.grid, "affine")])
    built = dict(set_up_builds)
    again = solve_volterra(base)
    # neither the set-up nor its resolvent is rebuilt after the certificate
    assert set_up_builds == built
    assert np.array_equal(again.recovered.values, first.recovered.values)


@pytest.mark.parametrize("solver", (solve_volterra, fixed_point_iterate))
def test_rho_set_up_follows_g_x0_alpha_and_grid(set_up_builds, solver):
    base, _ = sweep_case(96, True)
    g2 = SpectralField(FP_DOM, 1.5 * base.g.coeffs)
    changed = [
        TSourceProblem(g2, base.x0, base.alpha, base.grid, base.trace, base.noise_level),
        sweep_case(96, True, x0=0.45)[0],
        TSourceProblem(base.g, base.x0, FractionalOrder(0.5), base.grid, base.trace, 0.01),
        sweep_case(128, True)[0],
        with_new_noise(base, 7),
    ]
    for i, problem in enumerate(changed):
        solver(base)  # leaves the base set-up cached
        built = set_up_builds["set_up"]
        warm = solver(problem)
        # a changed set-up builds its own; new data on the base one is served
        assert set_up_builds["set_up"] == built + (i < 4)
        assert_warm_equals_cold(solver, problem, warm)


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


@pytest.mark.parametrize("n_steps", [16, 64])
def test_lipschitz_refuses_a_member_on_another_grid(n_steps):
    grid = TimeGrid(1.0, 32)
    g = make_g(DOM, "sine_bump")
    family = [make_rho(grid, "affine"), make_rho(TimeGrid(1.0, n_steps), "affine")]
    with pytest.raises(ValueError, match="on the given grid"):
        lipschitz_certificate(g, 0.3, FractionalOrder(0.5), grid, family)


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
    assert count_sign_changes(make_rho(grid, "constant"))[0] == 0
    assert count_sign_changes(make_rho(grid, "sine", freq=2.0))[0] == 1
    assert count_sign_changes(make_rho(grid, "alternating", lobes=4))[0] == 3
    _, c1_bound = count_sign_changes(make_rho(grid, "affine", intercept=0.0, slope=2.0))
    assert c1_bound == pytest.approx(2.0, rel=1e-12)


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
