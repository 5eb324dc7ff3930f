"""Tests of the spectral evolution solvers and the convolution identity."""

import math

import numpy as np
import pytest

from fracsource.forward import (
    EvolutionField,
    duhamel_residual,
    ml_on_nodes,
    modal_kernel_weights,
    observe_point,
    separated_source,
    solve_homogeneous,
    solve_inhomogeneous,
    trace_weights,
)
from fracsource.fracops import FractionalOrder, TimeGrid, TimeSeries, product_rule_convolve
from fracsource.spectral import Domain1D, SpectralField, sobolev_norm

DOM = Domain1D(1.0, 8)
LAM = DOM.eigenvalues()


def mode(i, amp=1.0, dom=DOM):
    coeffs = np.zeros(dom.n_modes)
    coeffs[i] = amp
    return SpectralField(dom, coeffs)


def test_field_shape_validation():
    grid = TimeGrid(1.0, 4)
    with pytest.raises(ValueError):
        EvolutionField(DOM, grid, np.zeros((8, 4)))


def test_homogeneous_single_mode_exact():
    grid = TimeGrid(1.0, 64)
    for a in (0.3, 0.5, 0.7):
        u = solve_homogeneous(mode(0), FractionalOrder(a), grid)
        exact = ml_on_nodes(a, 1.0, LAM[0], grid.nodes())
        assert np.max(np.abs(u.modal_values[0] - exact)) < 1e-12
        assert np.max(np.abs(u.modal_values[1:])) == 0.0


def test_homogeneous_zero_datum():
    grid = TimeGrid(1.0, 8)
    u = solve_homogeneous(SpectralField(DOM, np.zeros(8)), FractionalOrder(0.5), grid)
    assert np.max(np.abs(u.modal_values)) == 0.0


def test_homogeneous_classical_limit():
    # as the order tends to 1 the mode-1 trajectory tends to e^(-lam t)
    grid = TimeGrid(0.2, 64)
    exact = np.exp(-LAM[0] * grid.nodes())

    def dev(a):
        u = solve_homogeneous(mode(0), FractionalOrder(a), grid)
        return float(np.max(np.abs(u.modal_values[0] - exact)))

    assert dev(0.999) < 2e-3
    assert dev(0.999) < dev(0.99) < dev(0.9)


def test_inhomogeneous_constant_source_identity():
    # constant unit source on mode 1: u_1(t) = (1 - E_{a,1}(-lam t^a)) / lam,
    # and the scheme integrates affine sources without quadrature error
    grid = TimeGrid(1.0, 64)
    for a in (0.3, 0.5, 0.7):
        src = separated_source(mode(0), TimeSeries(grid, np.ones(65)))
        u = solve_inhomogeneous(src, FractionalOrder(a), grid)
        exact = (1.0 - ml_on_nodes(a, 1.0, LAM[0], grid.nodes())) / LAM[0]
        assert np.max(np.abs(u.modal_values[0] - exact)) < 1e-12
        # cross-check through the series identity t^a E_{a,a+1}(-lam t^a)
        t = grid.nodes()
        alt = t**a * ml_on_nodes(a, a + 1.0, LAM[0], t)
        assert np.max(np.abs(u.modal_values[0] - alt)) < 1e-12


def test_inhomogeneous_zero_and_grid_mismatch():
    grid = TimeGrid(1.0, 16)
    src = separated_source(mode(0, 0.0), TimeSeries(grid, np.ones(17)))
    u = solve_inhomogeneous(src, FractionalOrder(0.5), grid)
    assert np.max(np.abs(u.modal_values)) == 0.0
    with pytest.raises(ValueError):
        solve_inhomogeneous(src, FractionalOrder(0.5), TimeGrid(1.0, 32))


def test_inhomogeneous_classical_limit():
    grid = TimeGrid(0.2, 128)
    src = separated_source(mode(0), TimeSeries(grid, np.ones(129)))
    u = solve_inhomogeneous(src, FractionalOrder(0.999), grid)
    exact = (1.0 - np.exp(-LAM[0] * grid.nodes())) / LAM[0]
    assert np.max(np.abs(u.modal_values[0] - exact)) < 2e-3


def per_mode_weights(lam, alpha, grid):
    """The product-rule weight pair of one eigenvalue, computed on its own."""
    t = np.linspace(0.0, grid.total_time, grid.n_steps + 1)
    tau = grid.total_time / grid.n_steps
    k0 = t**alpha * ml_on_nodes(alpha, alpha + 1.0, lam, t)
    k2 = t ** (alpha + 1.0) * ml_on_nodes(alpha, alpha + 2.0, lam, t)
    m0 = np.diff(k0)
    m1 = tau * k0[1:] - np.diff(k2)
    return m0 - m1 / tau, m1 / tau


@pytest.mark.parametrize(
    "dom,alpha,grid",
    [
        (DOM, 0.5, TimeGrid(1.0, 64)),
        (Domain1D(2.5, 5), 0.15, TimeGrid(0.3, 17)),
        (Domain1D(1.0, 33), 0.93, TimeGrid(2.0, 256)),
        (Domain1D(1.0, 32), 0.5, TimeGrid(1.0, 64)),
        (Domain1D(1.0, 64), 0.5, TimeGrid(1.0, 256)),
        # four rows per Mittag-Leffler call, two truncation blocks per row
        (Domain1D(1.0, 64), 0.5, TimeGrid(1.0, 4096)),
        # modes 1-7 reach no argument of the asymptotic expansion
        (Domain1D(10.0, 8), 0.5, TimeGrid(1.0, 64)),
    ],
)
def test_kernel_table_rows_are_the_per_mode_weights(dom, alpha, grid):
    c, d = modal_kernel_weights(dom, FractionalOrder(alpha), grid)
    assert c.shape == d.shape == (dom.n_modes, grid.n_steps)
    for i, lam in enumerate(dom.eigenvalues()):
        ci, di = per_mode_weights(lam, alpha, grid)
        assert np.array_equal(c[i], ci) and np.array_equal(d[i], di)
    assert not c.flags.writeable and not d.flags.writeable
    # one table per set-up: a repeat fetch returns the same arrays
    again = modal_kernel_weights(dom, FractionalOrder(alpha), grid)
    assert again[0] is c and again[1] is d


def test_one_kernel_table_is_kept():
    import gc
    import weakref

    modal_kernel_weights.cache_clear()
    first = weakref.ref(modal_kernel_weights(DOM, FractionalOrder(0.5), TimeGrid(1.0, 32))[0])
    second = weakref.ref(modal_kernel_weights(DOM, FractionalOrder(0.5), TimeGrid(1.0, 64))[0])
    gc.collect()
    # a new (domain, alpha, grid) drops the table of the last one
    assert first() is None and second() is not None
    modal_kernel_weights.cache_clear()
    gc.collect()
    assert second() is None


@pytest.mark.parametrize("n_modes,n_steps", [(32, 64), (64, 256), (64, 4096)])
def test_homogeneous_solve_is_the_per_mode_loop(n_modes, n_steps):
    dom, grid, alpha = Domain1D(1.0, n_modes), TimeGrid(1.0, n_steps), 0.5
    coeffs = np.where(np.arange(n_modes) % 3 == 1, 0.0, 1.0 / np.arange(1.0, n_modes + 1))
    modal = solve_homogeneous(SpectralField(dom, coeffs), FractionalOrder(alpha), grid).modal_values
    for i, lam in enumerate(dom.eigenvalues()):
        one = coeffs[i] * ml_on_nodes(alpha, 1.0, lam, grid.nodes()) if coeffs[i] else 0.0
        assert np.array_equal(modal[i], np.broadcast_to(one, modal[i].shape)), i


@pytest.mark.parametrize("n_steps, calls", [(256, 1), (2048, 8), (8192, 32)])
def test_a_table_is_one_call_per_row_block(monkeypatch, n_steps, calls):
    # both betas in each call, over blocks of rows of at most _ML_STEPS points
    import fracsource.forward as forward

    seen = []
    original = forward._ml_eval_betas

    def counting(alpha, betas, z):
        seen.append((alpha, betas, z.shape))
        return original(alpha, betas, z)

    monkeypatch.setattr(forward, "_ml_eval_betas", counting)
    monkeypatch.setattr(forward, "ml_eval_array", None)  # no one-beta call is left
    modal_kernel_weights.cache_clear()
    modal_kernel_weights(Domain1D(1.0, 64), FractionalOrder(0.5), TimeGrid(1.0, n_steps))
    modal_kernel_weights.cache_clear()
    rows = 64 // calls
    assert seen == [(0.5, (1.5, 2.5), (rows, n_steps + 1))] * calls


def test_duhamel_zero_rho():
    grid = TimeGrid(1.0, 32)
    rho = TimeSeries(grid, np.zeros(33))
    assert duhamel_residual(mode(0), rho, FractionalOrder(0.5), grid) == 0.0


def test_duhamel_residual_small_and_refining():
    alpha = FractionalOrder(0.9)

    def res(g, rho_fn, n):
        grid = TimeGrid(1.0, n)
        rho = TimeSeries(grid, rho_fn(grid.nodes()))
        return duhamel_residual(g, rho, alpha, grid)

    r256 = res(mode(0), np.ones_like, 256)
    r512 = res(mode(0), np.ones_like, 512)
    assert r256 <= 1e-3
    # constant rho: the kink of u ~ t^alpha at 0 limits the observed order
    assert r512 <= 0.5 * r256
    g2 = SpectralField(DOM, np.array([1.0, 1.0, 0, 0, 0, 0, 0, 0]))
    r = [res(g2, lambda t: 1.0 + t, n) for n in (256, 512)]
    assert r[1] <= 1e-3
    assert 3.0 <= r[0] / r[1] <= 5.0


def test_summed_weights_give_the_point_trace():
    # one convolution with sum_n g_n phi_n(x0) (c_n, d_n) is the trace of the
    # full modal solve, on a g that loads every mode and one zero mode
    grid = TimeGrid(1.0, 128)
    a = FractionalOrder(0.55)
    rng = np.random.default_rng(11)
    coeffs = rng.standard_normal(8)
    coeffs[5] = 0.0
    g = SpectralField(DOM, coeffs)
    t = grid.nodes()
    rho = TimeSeries(grid, 1.0 + np.sin(3.0 * t) + 0.3 * t**2)
    x0 = 0.37
    c, d = trace_weights(g, x0, a, grid)
    trace = product_rule_convolve(c, d, rho.values)
    ref = observe_point(solve_inhomogeneous(separated_source(g, rho), a, grid), x0).values
    assert np.max(np.abs(trace - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_observe_point():
    grid = TimeGrid(1.0, 32)
    a = FractionalOrder(0.5)
    u = solve_homogeneous(mode(0), a, grid)
    x0 = 0.3
    phi = DOM.eigenfunctions(x0)[:, 0]
    tr = observe_point(u, x0)
    exact = phi[0] * ml_on_nodes(0.5, 1.0, LAM[0], grid.nodes())
    assert np.max(np.abs(tr.values - exact)) < 1e-12
    # two-mode field against manual synthesis
    u2 = solve_homogeneous(SpectralField(DOM, np.array([1.0, -0.5, 0, 0, 0, 0, 0, 0])), a, grid)
    manual = phi @ u2.modal_values
    assert np.array_equal(observe_point(u2, x0).values, manual)
    zero = EvolutionField(DOM, grid, np.zeros((8, 33)))
    assert np.max(np.abs(observe_point(zero, x0).values)) == 0.0
    for bad in (0.0, 1.0, -0.2, 1.3):
        with pytest.raises(ValueError):
            observe_point(u, bad)


def test_positivity_of_nonnegative_datum_trace():
    # a >= 0, a != 0 keeps the homogeneous trace strictly positive on (0, T]
    grid = TimeGrid(1.0, 64)
    L = DOM.length
    profiles = [
        lambda x: np.sin(math.pi * x / L) ** 3,
        lambda x: x * (L - x),
        lambda x: np.exp(-40.0 * (x - 0.5 * L) ** 2) * x * (L - x),
    ]
    from fracsource.spectral import eval_on_mesh, project

    xs = DOM.mesh(257)
    for prof in profiles:
        a_field = project(prof(xs), DOM)
        for alpha in (0.4, 0.7):
            u = solve_homogeneous(a_field, FractionalOrder(alpha), grid)
            for x0 in (0.15, 0.35, 0.5, 0.8):
                tr = observe_point(u, x0)
                assert np.all(tr.values[1:] > 0.0), (x0, alpha)


def test_l2_decay_contraction():
    grid = TimeGrid(2.0, 64)
    rng = np.random.default_rng(11)
    a_field = SpectralField(DOM, rng.standard_normal(8))
    u = solve_homogeneous(a_field, FractionalOrder(0.5), grid)
    norms = np.linalg.norm(u.modal_values, axis=0)
    assert norms[0] == pytest.approx(a_field.l2_norm(), rel=1e-14)
    assert np.all(norms <= norms[0] * (1.0 + 1e-12))
    assert np.all(np.diff(norms) <= 1e-12)


def test_smoothing_estimate_bounded():
    # t^alpha ||w(., t)||_{D(-Lap)} / ||a||_{L2} stays bounded near t = 0
    a = FractionalOrder(0.5)
    rng = np.random.default_rng(3)

    def peak(n):
        worst = 0.0
        for _ in range(5):
            a_field = SpectralField(DOM, rng.standard_normal(8))
            grid = TimeGrid(1.0, n)
            u = solve_homogeneous(a_field, a, grid)
            t = grid.nodes()
            for k in range(1, n + 1):
                w = SpectralField(DOM, u.modal_values[:, k])
                val = t[k] ** 0.5 * sobolev_norm(w, 1.0) / a_field.l2_norm()
                worst = max(worst, val)
        return worst

    coarse = peak(64)
    fine = peak(256)
    assert math.isfinite(fine)
    # refinement probes smaller t yet the bound does not blow up
    assert fine < 4.0 * coarse
