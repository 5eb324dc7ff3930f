"""Tests of the spatial-factor reconstructions (final-time and interior data)."""

import json
import math

import numpy as np
import pytest

from fracsource.errors import (
    AllModesCutError,
    DegenerateRhoError,
    DivergenceError,
    FracsourceError,
    NonPositiveParamsError,
)
from fracsource.forward import ml_on_nodes, observe_point, separated_source, solve_inhomogeneous
from fracsource.fracops import FractionalOrder, TimeGrid, TimeSeries
from fracsource.inverse_x import (
    _MU_HI,
    _MU_LO,
    XSourceFinalProblem,
    XSourceInteriorProblem,
    choose_mu_discrepancy,
    estimate_k,
    iterative_thresholding,
    modal_responses,
    observe_interior,
    reconstruct_final,
)
from fracsource.profiles import make_g, make_rho
from fracsource.report import relative_l2
from fracsource.spectral import Domain1D, SpectralField, sobolev_norm

DOM = Domain1D(1.0, 8)
LAM = DOM.eigenvalues()


def final_data_of(g, rho, alpha):
    u = solve_inhomogeneous(separated_source(g, rho), alpha, rho.grid)
    return SpectralField(g.domain, u.modal_values[:, -1])


# ---------------------------------------------------------------------------
# modal response and final-data inversion


def test_modal_response_constant_rho_identity():
    grid = TimeGrid(1.0, 256)
    a = FractionalOrder(0.5)
    rho = make_rho(grid, "constant")
    bs = modal_responses(rho, a, grid, DOM)
    for lam, b in zip(LAM[:4], bs):
        exact = (1.0 - ml_on_nodes(0.5, 1.0, lam, np.array([1.0]))[0]) / lam
        assert b == pytest.approx(exact, rel=1e-12)
        alt = ml_on_nodes(0.5, 1.5, lam, np.array([1.0]))[0]
        assert b == pytest.approx(alt, rel=1e-12)


def test_modal_response_zero_rho_and_decay():
    grid = TimeGrid(1.0, 64)
    a = FractionalOrder(0.5)
    zero = TimeSeries(grid, np.zeros(65))
    assert np.all(modal_responses(zero, a, grid, DOM) == 0.0)
    rho = make_rho(grid, "constant")
    bs = modal_responses(rho, a, grid, DOM)
    # B_n is the final coefficient of mode n driven by phi_n rho
    ones = SpectralField(DOM, np.ones(DOM.n_modes))
    final = solve_inhomogeneous(separated_source(ones, rho), a, grid).modal_values[:, -1]
    np.testing.assert_allclose(bs, final, rtol=1e-12, atol=0.0)
    assert all(b > 0.0 for b in bs)
    assert all(b2 < b1 for b1, b2 in zip(bs, bs[1:]))


def test_reconstruct_final_zero_data():
    grid = TimeGrid(1.0, 64)
    p = XSourceFinalProblem(
        make_rho(grid, "constant"),
        FractionalOrder(0.5),
        grid,
        SpectralField(DOM, np.zeros(8)),
    )
    rep = reconstruct_final(p)
    assert rep.recovered.l2_norm() == 0.0
    assert rep.diagnostics["retained_modes"] == 8


def test_reconstruct_final_round_trip():
    grid = TimeGrid(1.0, 256)
    a = FractionalOrder(0.5)
    rho = make_rho(grid, "constant")
    g_true = SpectralField(DOM, np.array([1.0, 0, 0, 0.3, 0, 0, 0, 0]))
    data = final_data_of(g_true, rho, a)
    rep = reconstruct_final(XSourceFinalProblem(rho, a, grid, data))
    assert relative_l2(rep.recovered, g_true) <= 1e-8


def test_reconstruct_final_errors():
    grid = TimeGrid(1.0, 64)
    a = FractionalOrder(0.5)
    data = SpectralField(DOM, np.ones(8))
    vanishing = TimeSeries(grid, np.where(grid.nodes() < 0.5, 1.0, 0.0))
    with pytest.raises(DegenerateRhoError):
        reconstruct_final(XSourceFinalProblem(vanishing, a, grid, data))
    rho = make_rho(grid, "constant")
    with pytest.raises(AllModesCutError):
        reconstruct_final(XSourceFinalProblem(rho, a, grid, data, cutoff=1e9))
    with pytest.raises(ValueError):
        XSourceFinalProblem(rho, a, grid, data, cutoff=-1.0)
    # every B_n is below 1, so dividing data near the largest double overflows
    huge = SpectralField(DOM, np.full(8, 1e308))
    with pytest.raises(FracsourceError, match="not finite"):
        reconstruct_final(XSourceFinalProblem(rho, a, grid, huge))


def test_reconstruct_final_mu_monotone():
    grid = TimeGrid(1.0, 128)
    a = FractionalOrder(0.5)
    rho = make_rho(grid, "constant")
    data = final_data_of(make_g(DOM, "sine_bump"), rho, a)
    norms = []
    for mu in (0.0, 1e-8, 1e-6, 1e-4, 1e-2):
        rep = reconstruct_final(XSourceFinalProblem(rho, a, grid, data, tikhonov=mu))
        norms.append(rep.recovered.l2_norm())
    assert all(n2 <= n1 * (1.0 + 1e-12) for n1, n2 in zip(norms, norms[1:]))


def test_choose_mu_discrepancy():
    grid = TimeGrid(1.0, 128)
    a = FractionalOrder(0.5)
    rho = make_rho(grid, "constant")
    data = final_data_of(make_g(DOM, "sine_bump"), rho, a)
    target = 1e-4 * data.l2_norm()
    mu = choose_mu_discrepancy(rho, a, grid, data, 0.0, target)
    rep = reconstruct_final(XSourceFinalProblem(rho, a, grid, data, tikhonov=mu))
    assert rep.residual_history[-1] == pytest.approx(target, rel=1e-3)


def noisy_final_case():
    grid = TimeGrid(1.0, 64)
    a = FractionalOrder(0.6)
    rho = make_rho(grid, "affine")
    data = final_data_of(make_g(DOM, "hat"), rho, a)
    bump = 0.01 * np.max(np.abs(data.coeffs)) * np.random.default_rng(5).uniform(-1, 1, 8)
    return grid, a, rho, SpectralField(DOM, data.coeffs + bump), float(np.linalg.norm(bump))


def test_choose_mu_builds_responses_once(monkeypatch):
    import fracsource.inverse_x as inverse_x

    calls = []
    original = inverse_x.modal_kernel_weights

    def counting(*args):
        calls.append(args[0])
        return original(*args)

    monkeypatch.setattr(inverse_x, "modal_kernel_weights", counting)
    grid, a, rho, data, noise_norm = noisy_final_case()
    choose_mu_discrepancy(rho, a, grid, data, 0.0, noise_norm)
    # one fetch of the whole table, not one per mode
    assert calls == [DOM]


@pytest.fixture
def response_builds(monkeypatch):
    """Count builds of B from an empty memo: each fetches the kernel-weight table once."""
    import fracsource.inverse_x as inverse_x

    builds = []
    original = inverse_x.modal_kernel_weights

    def counting(*args):
        builds.append(args)
        return original(*args)

    monkeypatch.setattr(inverse_x, "modal_kernel_weights", counting)
    inverse_x.modal_responses.cache_clear()
    yield builds
    inverse_x.modal_responses.cache_clear()


@pytest.mark.parametrize("solver", [{}, {"mu": 1e-6}])
def test_final_data_run_builds_b_once(tmp_path, response_builds, solver):
    # the CLI's synthesis, choose_mu_discrepancy and reconstruct_final share one B
    from fracsource.cli import run

    cfg = {"mode": "invert-g-final", "alpha": 0.5, "N": 16, "n_steps": 64,
           "noise_level": 0.01, "seed": 3, "solver": solver}
    path = tmp_path / "f.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    assert run(str(path)) == 0
    assert len(response_builds) == 1


def test_final_data_resolves_build_b_once(response_builds):
    grid, a, rho, data, noise_norm = noisy_final_case()
    b = modal_responses(rho, a, grid, DOM)
    assert not b.flags.writeable
    reps = []
    for seed in range(1, 6):
        bump = 1e-3 * np.random.default_rng(seed).uniform(-1.0, 1.0, DOM.n_modes)
        noisy = SpectralField(DOM, data.coeffs + bump)
        # rho and the grid in new objects, equal by value
        rho_again = TimeSeries(TimeGrid(1.0, 64), rho.values.copy())
        mu = choose_mu_discrepancy(rho_again, a, grid, noisy, 0.0, noise_norm)
        reps.append(reconstruct_final(XSourceFinalProblem(rho_again, a, grid, noisy, 0.0, mu)))
    assert len(response_builds) == 1
    # a cold solve gives the same bytes
    import fracsource.inverse_x as inverse_x

    inverse_x.modal_responses.cache_clear()
    mu = choose_mu_discrepancy(rho, a, grid, noisy, 0.0, noise_norm)
    cold = reconstruct_final(XSourceFinalProblem(rho, a, grid, noisy, 0.0, mu))
    assert np.array_equal(cold.recovered.coeffs, reps[-1].recovered.coeffs)
    assert cold.residual_history == reps[-1].residual_history


def bisection_cases():
    """The noisy case above, then seeded 1% noise on 64 modes, uncut and with half of B cut."""
    grid, a, rho, data, noise_norm = noisy_final_case()
    cases = [(grid, a, rho, data, 0.0, noise_norm)]
    dom = Domain1D(1.0, 64)
    grid = TimeGrid(1.0, 128)
    for seed in range(1, 21):
        rho = make_rho(grid, "constant", value=1.0 + 0.01 * seed)
        clean = final_data_of(make_g(dom, "hat"), rho, a)
        noise = 0.01 * np.max(np.abs(clean.coeffs)) * np.random.default_rng(seed).uniform(-1, 1, 64)
        data = SpectralField(dom, clean.coeffs + noise)
        b = np.abs(modal_responses(rho, a, grid, dom))
        cutoff = float(np.median(b))
        assert 0 < np.count_nonzero(b >= cutoff) < dom.n_modes
        for cut in (0.0, cutoff):
            cases.append((grid, a, rho, data, cut, float(np.linalg.norm(noise))))
    return cases


def test_choose_mu_equals_per_step_reconstruction():
    # the bisection as it ran when every step rebuilt B through reconstruct_final
    for grid, a, rho, data, cutoff, noise_norm in bisection_cases():

        def disc(mu):
            problem = XSourceFinalProblem(rho, a, grid, data, cutoff, mu)
            return reconstruct_final(problem).residual_history[-1]

        lo, hi = math.log(1e-16), math.log(1e6)
        assert disc(1e-16) < noise_norm < disc(1e6)
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if disc(math.exp(mid)) < noise_norm:
                lo = mid
            else:
                hi = mid
        mu = math.exp(0.5 * (lo + hi))
        assert choose_mu_discrepancy(rho, a, grid, data, cutoff, noise_norm) == mu


def test_choose_mu_returns_the_bracket_ends():
    # a noise norm at or beyond the discrepancy of an end of the bracket
    # returns that end itself, not a bisected weight
    for grid, a, rho, data, cutoff, _ in bisection_cases()[:5]:

        def disc(mu):
            problem = XSourceFinalProblem(rho, a, grid, data, cutoff, mu)
            return reconstruct_final(problem).residual_history[-1]

        at_lo, at_hi = disc(_MU_LO), disc(_MU_HI)
        assert 0.0 < at_lo < at_hi
        for noise_norm in (at_lo, 0.5 * at_lo):
            assert choose_mu_discrepancy(rho, a, grid, data, cutoff, noise_norm) == _MU_LO
        for noise_norm in (at_hi, 2.0 * at_hi):
            assert choose_mu_discrepancy(rho, a, grid, data, cutoff, noise_norm) == _MU_HI
        # just inside either end the bisection runs and stays strictly inside
        inner = (np.nextafter(at_lo, np.inf), np.nextafter(at_hi, 0.0))
        for noise_norm in inner:
            assert _MU_LO < choose_mu_discrepancy(rho, a, grid, data, cutoff, noise_norm) < _MU_HI


def test_holder_stability_single_constant():
    # ||g||_L2 <= C E^(1/2) ||u(., T)||_L2^(1/2) with E the graph-norm
    # size of g; one constant C works across scalings and profiles
    grid = TimeGrid(1.0, 256)
    a = FractionalOrder(0.5)
    rho = make_rho(grid, "constant")
    profiles = [
        make_g(DOM, "sine_bump"),
        make_g(DOM, "hat"),
        make_g(DOM, "mode_k", k=2),
    ]
    ratios = []
    for g in profiles:
        for c in [2.0**e for e in range(-4, 5)]:
            gc = SpectralField(DOM, c * g.coeffs)
            data = final_data_of(gc, rho, a)
            e_size = sobolev_norm(gc, 1.0)
            ratios.append(gc.l2_norm() / math.sqrt(e_size * data.l2_norm()))
    # scaling c cancels in the ratio (linearity), profiles stay comparable
    assert max(ratios) < 10.0 * min(ratios)
    assert math.isfinite(max(ratios)) and min(ratios) > 0.0


# ---------------------------------------------------------------------------
# interior-data thresholding


def interior_problem(g_true, rho, alpha, omega=(0.1, 0.35), n_mesh=129, **kw):
    u = solve_inhomogeneous(separated_source(g_true, rho), alpha, rho.grid)
    obs = observe_interior(u, omega, n_mesh)
    return XSourceInteriorProblem(
        rho, alpha, rho.grid, g_true.domain, omega, obs, n_mesh, **kw
    )


def test_interior_problem_validation():
    grid = TimeGrid(1.0, 32)
    rho = make_rho(grid, "constant")
    a = FractionalOrder(0.5)
    g = make_g(DOM, "sine_bump")
    with pytest.raises(ValueError):
        interior_problem(g, rho, a, omega=(0.0, 0.5))
    with pytest.raises(ValueError):
        XSourceInteriorProblem(rho, a, grid, DOM, (0.1, 0.35), np.zeros((3, 3)), 65)


@pytest.mark.parametrize("kind", ["final", "interior"])
def test_x_problems_reject_rho_on_another_grid(kind):
    grid = TimeGrid(1.0, 32)
    rho = make_rho(TimeGrid(1.0, 16), "constant")
    a = FractionalOrder(0.5)
    with pytest.raises(ValueError, match="rho grid does not match"):
        if kind == "final":
            XSourceFinalProblem(rho, a, grid, SpectralField(DOM, np.ones(8)))
        else:
            XSourceInteriorProblem(rho, a, grid, DOM, (0.1, 0.35), np.zeros((8, 33)), 33)


@pytest.mark.parametrize("k", [None, 1.0])
def test_interior_problem_rejects_omega_without_mesh_points(k):
    # (0.501, 0.502) falls between the points 0.5 and 0.50390625 of a
    # 257-point mesh; the data then have no rows and g = 0 would "fit" them
    grid = TimeGrid(1.0, 16)
    rho = make_rho(grid, "constant")
    a = FractionalOrder(0.5)
    with pytest.raises(ValueError, match="no point"):
        XSourceInteriorProblem(
            rho, a, grid, DOM, (0.501, 0.502), np.zeros((0, 17)), 257, K=k
        )
    # the neighbouring interval holding one mesh point is still a problem
    p = interior_problem(make_g(DOM, "sine_bump"), rho, a, omega=(0.499, 0.501), n_mesh=257)
    assert p.observed.shape == (1, 17)


def test_thresholding_zero_fixed_point():
    grid = TimeGrid(1.0, 64)
    rho = make_rho(grid, "affine", intercept=1.0, slope=0.5)
    a = FractionalOrder(0.5)
    zero_g = SpectralField(DOM, np.zeros(8))
    p = interior_problem(zero_g, rho, a, K=1.0, m_max=5)
    rep = iterative_thresholding(p)
    assert rep.recovered.l2_norm() == 0.0
    assert all(r == 0.0 for r in rep.residual_history)


def test_thresholding_param_validation():
    grid = TimeGrid(1.0, 64)
    a = FractionalOrder(0.5)
    g = make_g(DOM, "sine_bump")
    zero_rho = TimeSeries(grid, np.sin(math.pi * grid.nodes()))  # rho(0) = 0
    with pytest.raises(DegenerateRhoError):
        iterative_thresholding(interior_problem(g, zero_rho, a, K=1.0))
    rho = make_rho(grid, "constant")
    with pytest.raises(NonPositiveParamsError):
        iterative_thresholding(interior_problem(g, rho, a, K=1.0, beta=0.0))


def test_thresholding_diverges_with_tiny_k():
    grid = TimeGrid(1.0, 64)
    rho = make_rho(grid, "affine", intercept=1.0, slope=0.5)
    a = FractionalOrder(0.5)
    g = make_g(DOM, "sine_bump")
    p = interior_problem(g, rho, a, K=1e-12, beta=1e-15, m_max=60)
    with pytest.raises(DivergenceError):
        iterative_thresholding(p)


def test_thresholding_residual_monotone_and_progress():
    grid = TimeGrid(1.0, 128)
    rho = make_rho(grid, "affine", intercept=1.0, slope=0.5)
    a = FractionalOrder(0.9)
    g = make_g(DOM, "offset_bump", center_frac=0.6, width_frac=0.5)
    p = interior_problem(g, rho, a, m_max=60, beta=1e-8)
    rep = iterative_thresholding(p)
    h = rep.residual_history
    assert all(b <= a_ * (1.0 + 1e-12) for a_, b in zip(h[3:], h[4:]))
    assert h[-1] < 0.5 * h[0]


def test_thresholding_beta_tradeoff():
    grid = TimeGrid(1.0, 128)
    rho = make_rho(grid, "affine", intercept=1.0, slope=0.5)
    a = FractionalOrder(0.9)
    g = make_g(DOM, "offset_bump", center_frac=0.6, width_frac=0.5)
    k = 1.1 * estimate_k(interior_problem(g, rho, a))
    lo = iterative_thresholding(interior_problem(g, rho, a, K=k, beta=1e-8, m_max=40))
    hi = iterative_thresholding(interior_problem(g, rho, a, K=k, beta=1e-7 * 10, m_max=40))
    assert hi.recovered.l2_norm() < lo.recovered.l2_norm()
    assert hi.residual_history[-1] > lo.residual_history[-1]


def operator_of(p):
    """The interior operator of problem p, built afresh."""
    import fracsource.inverse_x as inverse_x

    return inverse_x._InteriorOperator(p.rho, p.alpha, p.grid, p.domain, p.omega, p.n_mesh)


def w_norm(op, r):
    """||r||_W for a (points, time) array r, summed explicitly."""
    return math.sqrt(float(op.w_omega @ (r**2) @ op.t_weights))


def recursion(p, K):
    """The damped iteration sweep by sweep: (g, residual history, sweeps)."""
    op = operator_of(p)
    y = p.observed
    b = op.adjoint(y)
    g = np.zeros(p.domain.n_modes)
    history = []
    for m in range(1, p.m_max + 1):
        history.append(w_norm(op, op.apply(g) - y))
        g_next = (K * g - (op.adjoint(op.apply(g)) - b)) / (K + p.beta)
        step = float(np.linalg.norm(g_next - g))
        g = g_next
        if p.tol > 0.0 and step <= p.tol:
            break
    return g, history, m


def noisy_interior_problem(**kw):
    grid = TimeGrid(1.0, 64)
    rho = make_rho(grid, "affine", intercept=1.0, slope=0.5)
    g = make_g(DOM, "offset_bump", center_frac=0.6, width_frac=0.5)
    p = interior_problem(g, rho, FractionalOrder(0.6))
    noise = 1e-3 * np.random.default_rng(29).standard_normal(p.observed.shape)
    return XSourceInteriorProblem(
        rho, p.alpha, grid, DOM, p.omega, p.observed + noise, p.n_mesh, **kw
    )


@pytest.mark.parametrize("m_max", [1, 7, 200, 257])  # 257 crosses a block boundary
def test_closed_form_matches_recursion(m_max):
    p = noisy_interior_problem(beta=1e-8, m_max=m_max)
    rep = iterative_thresholding(p)
    assert rep.diagnostics["K"] == 1.1 * estimate_k(p)
    g, history, sweeps = recursion(p, rep.diagnostics["K"])
    assert rep.iterations == sweeps == m_max
    assert np.linalg.norm(rep.recovered.coeffs - g) <= 1e-12 * np.linalg.norm(g)
    assert len(rep.residual_history) == m_max
    assert np.allclose(rep.residual_history, history, rtol=1e-12, atol=0.0)
    assert all(b <= a for a, b in zip(rep.residual_history, rep.residual_history[1:]))


@pytest.mark.parametrize(
    "n_modes,omega,n_mesh,n_steps",
    [
        (8, (0.3, 0.36), 65, 64),  # 4 mesh points in omega for 8 modes
        (24, (0.2, 0.7), 65, 8),  # n_steps + 1 < N
        (24, (0.3, 0.32), 65, 8),  # 1 point x 9 nodes: fewer reduced rows than modes
    ],
)
def test_closed_form_matches_recursion_on_small_set_ups(n_modes, omega, n_mesh, n_steps):
    dom = Domain1D(1.0, n_modes)
    grid = TimeGrid(1.0, n_steps)
    rho = make_rho(grid, "affine", intercept=1.0, slope=0.5)
    g_true = make_g(dom, "offset_bump", center_frac=0.6, width_frac=0.5)
    p = interior_problem(g_true, rho, FractionalOrder(0.6), omega=omega, n_mesh=n_mesh,
                         beta=1e-8, m_max=300)
    rep = iterative_thresholding(p)
    assert rep.diagnostics["singular_values"].size <= n_modes
    g, history, _ = recursion(p, rep.diagnostics["K"])
    assert np.linalg.norm(rep.recovered.coeffs - g) <= 1e-12 * np.linalg.norm(g)
    assert np.allclose(rep.residual_history, history, rtol=1e-12, atol=0.0)


def test_closed_form_tol_stops_at_the_same_sweep():
    p = noisy_interior_problem(beta=1e-8, m_max=2000, tol=1e-4)
    rep = iterative_thresholding(p)
    g, history, sweeps = recursion(p, rep.diagnostics["K"])
    assert 256 < sweeps < 2000
    assert rep.iterations == sweeps
    assert rep.diagnostics["final_step"] <= 1e-4
    assert np.linalg.norm(rep.recovered.coeffs - g) <= 1e-12 * np.linalg.norm(g)
    assert np.allclose(rep.residual_history, history, rtol=1e-12, atol=0.0)


def test_divergence_raises_without_warnings():
    import warnings

    p = noisy_interior_problem(K=1e-12, beta=1e-15, m_max=10**5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DivergenceError):
            iterative_thresholding(p)


def test_spectrum_diagnostics():
    p = noisy_interior_problem(beta=1e-8, m_max=50)
    d = iterative_thresholding(p).diagnostics
    sigma, filters = d["singular_values"], d["filter_factors"]
    assert sigma.shape == filters.shape == (DOM.n_modes,)
    assert not sigma.flags.writeable and not filters.flags.writeable
    assert np.all(np.diff(sigma) <= 0.0) and sigma[-1] >= 0.0
    assert np.all((filters >= 0.0) & (filters < 1.0))
    r = (d["K"] - sigma**2) / (d["K"] + d["beta"])
    expect = (1.0 - r**50) * sigma**2 / (sigma**2 + d["beta"])
    # 1 - r^50 cancels where r is near 1; the solver forms it by expm1
    assert np.allclose(filters, expect, rtol=1e-6, atol=0.0)


def test_filter_factors_after_a_stop_in_a_later_block():
    # tol stops the run inside a later block of sweeps; the factors must
    # belong to the sweep the run stopped at, not to its neighbour
    p = noisy_interior_problem(beta=1e-8, m_max=2000, tol=1e-4)
    rep = iterative_thresholding(p)
    d = rep.diagnostics
    assert 256 < rep.iterations < 2000
    sigma = d["singular_values"]
    r = (d["K"] - sigma**2) / (d["K"] + d["beta"])
    expect = (1.0 - r**rep.iterations) * sigma**2 / (sigma**2 + d["beta"])
    assert np.allclose(d["filter_factors"], expect, rtol=1e-6, atol=0.0)


@pytest.fixture
def operator_builds(monkeypatch):
    """Count interior-operator builds from an empty cache."""
    import fracsource.inverse_x as inverse_x

    builds = []

    class Counting(inverse_x._InteriorOperator):
        def __init__(self, *args):
            builds.append(args)
            super().__init__(*args)

    monkeypatch.setattr(inverse_x, "_InteriorOperator", Counting)
    inverse_x._operator.cache_clear()
    yield builds
    inverse_x._operator.cache_clear()


def test_operator_built_once_per_set_up(operator_builds):
    p = noisy_interior_problem(beta=1e-8, m_max=20)
    iterative_thresholding(p)
    assert len(operator_builds) == 1
    # new data, K, beta, m_max and tol reuse the operator, as does estimate_k
    again = XSourceInteriorProblem(
        p.rho, p.alpha, p.grid, DOM, p.omega, 2.0 * p.observed, p.n_mesh,
        K=1.0, beta=1e-6, m_max=5, tol=1e-9,
    )
    iterative_thresholding(again)
    estimate_k(again)
    assert len(operator_builds) == 1
    # a changed rho builds a new one
    rho = TimeSeries(p.grid, p.rho.values * 1.5)
    changed = XSourceInteriorProblem(
        rho, p.alpha, p.grid, DOM, p.omega, p.observed, p.n_mesh, beta=1e-8, m_max=5
    )
    iterative_thresholding(changed)
    assert len(operator_builds) == 2


# ---------------------------------------------------------------------------
# K estimation


def test_interior_adjoint_is_exact_transpose():
    grid = TimeGrid(1.0, 64)
    rho = make_rho(grid, "affine", intercept=1.0, slope=0.5)
    p = interior_problem(make_g(DOM, "sine_bump"), rho, FractionalOrder(0.6))
    op = operator_of(p)
    rng = np.random.default_rng(17)
    g = rng.standard_normal(DOM.n_modes)
    r = rng.standard_normal(p.observed.shape)
    lhs = float(op.w_omega @ (op.apply(g) * r) @ op.t_weights)
    rhs = float(g @ op.adjoint(r))
    assert abs(lhs - rhs) <= 1e-13 * abs(lhs)
    # A^T W A is V S^2 V^T for the SVD of the reduced operator
    normal_g = op.adjoint(op.apply(g))
    from_svd = op.vt.T @ (op.sigma**2 * (op.vt @ g))
    assert np.linalg.norm(normal_g - from_svd) <= 1e-13 * np.linalg.norm(normal_g)


def test_sweeps_solve_no_forward_problem(monkeypatch, operator_builds):
    # each reconstruction assembles its map once, whatever the number of
    # sweeps: the fixed-point solve needs no forward solve, a cold interior
    # solve one operator build (also when K is estimated) and a repeat of
    # its set-up none
    import fracsource.forward as forward
    import fracsource.inverse_t as inverse_t
    import fracsource.inverse_x as inverse_x

    calls = []
    original = forward.solve_inhomogeneous

    def counting(*args):
        calls.append(args[0])
        return original(*args)

    for mod in (forward, inverse_t, inverse_x):
        if hasattr(mod, "solve_inhomogeneous"):
            monkeypatch.setattr(mod, "solve_inhomogeneous", counting)
    grid = TimeGrid(1.0, 64)
    a = FractionalOrder(0.5)
    g = make_g(DOM, "sine_bump")
    rho = make_rho(grid, "affine", intercept=1.0, slope=0.5)
    trace = observe_point(solve_inhomogeneous(separated_source(g, rho), a, grid), 0.3)
    t_problem = inverse_t.TSourceProblem(g, 0.3, a, grid, trace)
    counts = []
    for m_max in (2, 8):
        x_problem = interior_problem(g, rho, a, m_max=m_max)
        del calls[:]
        inverse_t.fixed_point_iterate(t_problem, m_max=m_max, tol=0.0)
        fixed_point = len(calls)
        del operator_builds[:]
        inverse_x._operator.cache_clear()
        iterative_thresholding(x_problem)
        counts.append((fixed_point, len(operator_builds)))
    assert counts == [(0, 1), (0, 1)]
    del operator_builds[:]
    iterative_thresholding(x_problem)
    assert operator_builds == []


def test_warm_solves_evaluate_no_mittag_leffler(monkeypatch):
    # once the kernel weights are cached, neither iteration evaluates E_{a,b}:
    # the fixed-point bound comes from the Volterra weights, not a
    # homogeneous solve
    import fracsource.forward as forward
    import fracsource.inverse_t as inverse_t

    grid = TimeGrid(1.0, 64)
    a = FractionalOrder(0.7)
    g = make_g(DOM, "sine_bump")
    rho = make_rho(grid, "affine", intercept=1.0, slope=0.5)
    trace = observe_point(solve_inhomogeneous(separated_source(g, rho), a, grid), 0.3)
    t_problem = inverse_t.TSourceProblem(g, 0.3, a, grid, trace)
    x_problem = interior_problem(g, rho, a, m_max=5)
    inverse_t.fixed_point_iterate(t_problem, m_max=5)
    iterative_thresholding(x_problem)
    calls = []
    original = forward.ml_eval_array

    def counting(*args):
        calls.append(args[:2])
        return original(*args)

    monkeypatch.setattr(forward, "ml_eval_array", counting)
    inverse_t.fixed_point_iterate(t_problem, m_max=5)
    iterative_thresholding(x_problem)
    assert calls == []


@pytest.mark.parametrize(
    "n_modes,omega,n_mesh,n_steps",
    [
        (8, (0.1, 0.35), 129, 64),  # more points than modes, more nodes than modes
        (8, (0.3, 0.36), 65, 64),  # 4 mesh points in omega for 8 modes
        (24, (0.2, 0.7), 65, 8),  # n_steps + 1 < N
    ],
)
def test_reduced_residual_matches_explicit(n_modes, omega, n_mesh, n_steps):
    # residual_history[m] is ||A g_m - y||_W, taken in singular coordinates;
    # g_m is what a run of m sweeps returns
    dom = Domain1D(1.0, n_modes)
    grid = TimeGrid(1.0, n_steps)
    rho = make_rho(grid, "affine", intercept=1.0, slope=0.5)
    g_true = make_g(dom, "offset_bump", center_frac=0.6, width_frac=0.5)
    p = interior_problem(g_true, rho, FractionalOrder(0.6), omega=omega, n_mesh=n_mesh)
    op = operator_of(p)
    rng = np.random.default_rng(23)
    noisy = p.observed + 1e-3 * rng.standard_normal(p.observed.shape)
    for y in (p.observed, noisy):
        y_s, rest_sq = op.coordinates(y)
        assert math.sqrt(float(y_s @ y_s) + rest_sq) == pytest.approx(
            w_norm(op, y), rel=1e-12, abs=0.0
        )
        history = iterative_thresholding(
            XSourceInteriorProblem(rho, p.alpha, grid, dom, omega, y, n_mesh, beta=1e-8, m_max=9)
        ).residual_history
        assert history[0] == pytest.approx(w_norm(op, y), rel=1e-12, abs=0.0)
        for m in (1, 2, 8):
            g = iterative_thresholding(
                XSourceInteriorProblem(rho, p.alpha, grid, dom, omega, y, n_mesh, beta=1e-8, m_max=m)
            ).recovered.coeffs
            assert history[m] == pytest.approx(w_norm(op, op.apply(g) - y), rel=1e-12, abs=0.0)
    # the exact fit leaves only round-off
    scale = w_norm(op, p.observed)
    assert w_norm(op, op.apply(g_true.coeffs) - p.observed) <= 1e-14 * scale


def power_iteration(op, iters):
    """Largest eigenvalue of the assembled N x N matrix of A^T W A, by power iteration."""
    normal = ((op.phi * op.w_omega) @ op.phi.T) * ((op.response * op.t_weights) @ op.response.T)
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


def test_estimate_k_zero_operator():
    grid = TimeGrid(1.0, 64)
    a = FractionalOrder(0.5)
    g = make_g(DOM, "sine_bump")
    zero_rho = TimeSeries(grid, np.zeros(65))
    p = interior_problem(g, zero_rho, a)
    assert estimate_k(p) == 0.0
    assert power_iteration(operator_of(p), 20) == 0.0


def test_estimate_k_stable_and_scales_quadratically():
    grid = TimeGrid(1.0, 128)
    a = FractionalOrder(0.5)
    g = make_g(DOM, "sine_bump")
    rho = make_rho(grid, "affine", intercept=1.0, slope=0.5)
    p = interior_problem(g, rho, a)
    k = estimate_k(p)
    assert k > 0.0
    # sigma_1^2 of the SVD is the eigenvalue the power iteration converges to
    for iters in (20, 40):
        assert k == pytest.approx(power_iteration(operator_of(p), iters), rel=1e-13, abs=0.0)
    scaled = TimeSeries(grid, 3.0 * rho.values)
    p3 = interior_problem(g, scaled, a)
    assert estimate_k(p3) == pytest.approx(9.0 * k, rel=1e-6)
