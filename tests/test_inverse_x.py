"""Tests of the spatial-factor reconstructions (final-time and interior data)."""

import math

import numpy as np
import pytest

from fracsource.errors import (
    AllModesCutError,
    DegenerateRhoError,
    DivergenceError,
    NonPositiveParamsError,
)
from fracsource.forward import ml_on_nodes, separated_source, solve_inhomogeneous
from fracsource.fracops import FractionalOrder, TimeGrid, TimeSeries
from fracsource.inverse_x import (
    XSourceFinalProblem,
    XSourceInteriorProblem,
    choose_mu_discrepancy,
    estimate_k,
    iterative_thresholding,
    modal_response,
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
    for lam in LAM[:4]:
        b = modal_response(lam, rho, a, grid)
        exact = (1.0 - ml_on_nodes(0.5, 1.0, lam, np.array([1.0]))[0]) / lam
        assert b == pytest.approx(exact, rel=1e-12)
        alt = ml_on_nodes(0.5, 1.5, lam, np.array([1.0]))[0]
        assert b == pytest.approx(alt, rel=1e-12)


def test_modal_response_zero_rho_and_decay():
    grid = TimeGrid(1.0, 64)
    a = FractionalOrder(0.5)
    zero = TimeSeries(grid, np.zeros(65))
    assert modal_response(LAM[0], zero, a, grid) == 0.0
    rho = make_rho(grid, "constant")
    bs = [modal_response(lam, rho, a, grid) for lam in LAM]
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
    assert len(calls) == DOM.n_modes


def test_choose_mu_equals_per_step_reconstruction():
    # the bisection as it ran when every step rebuilt B through reconstruct_final
    grid, a, rho, data, noise_norm = noisy_final_case()

    def disc(mu):
        problem = XSourceFinalProblem(rho, a, grid, data, 0.0, mu)
        return reconstruct_final(problem).residual_history[-1]

    lo, hi = math.log(1e-16), math.log(1e6)
    assert disc(1e-16) < noise_norm < disc(1e6)
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if disc(math.exp(mid)) < noise_norm:
            lo = mid
        else:
            hi = mid
    assert choose_mu_discrepancy(rho, a, grid, data, 0.0, noise_norm) == math.exp(0.5 * (lo + hi))


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


# ---------------------------------------------------------------------------
# K estimation


def test_estimate_k_zero_operator():
    grid = TimeGrid(1.0, 64)
    a = FractionalOrder(0.5)
    g = make_g(DOM, "sine_bump")
    zero_rho = TimeSeries(grid, np.zeros(65))
    p = interior_problem(g, zero_rho, a)
    assert estimate_k(p) == 0.0
    with pytest.raises(ValueError):
        estimate_k(p, iters=3)


def test_estimate_k_stable_and_scales_quadratically():
    grid = TimeGrid(1.0, 128)
    a = FractionalOrder(0.5)
    g = make_g(DOM, "sine_bump")
    rho = make_rho(grid, "affine", intercept=1.0, slope=0.5)
    p = interior_problem(g, rho, a)
    k20 = estimate_k(p, iters=20)
    k40 = estimate_k(p, iters=40)
    assert k20 > 0.0
    assert abs(k40 - k20) / k40 < 0.05
    scaled = TimeSeries(grid, 3.0 * rho.values)
    p3 = interior_problem(g, scaled, a)
    assert estimate_k(p3, iters=40) == pytest.approx(9.0 * k40, rel=1e-6)
