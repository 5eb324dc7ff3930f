"""Every name a fracsource module exports must exist, the arguments
that must be >= 0 refuse NaN, and the iteration parameters refuse what
the solvers cannot use."""

import importlib
import pkgutil

import numpy as np
import pytest

import fracsource
from fracsource.cli import perturb
from fracsource.forward import trace_weights
from fracsource.fracops import FractionalOrder, TimeGrid, TimeSeries, product_rule_convolve
from fracsource.inverse_t import TSourceProblem, fixed_point_iterate, solve_volterra
from fracsource.inverse_x import (
    XSourceFinalProblem,
    XSourceInteriorProblem,
    choose_mu_discrepancy,
    iterative_thresholding,
)
from fracsource.spectral import Domain1D, SpectralField

MODULES = sorted(m.name for m in pkgutil.iter_modules(fracsource.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    mod = importlib.import_module(f"fracsource.{name}")
    missing = [attr for attr in getattr(mod, "__all__", ()) if not hasattr(mod, attr)]
    assert missing == []


def _sign_checked_calls():
    grid, a = TimeGrid(1.0, 32), FractionalOrder(0.5)
    dom = Domain1D(1.0, 8)
    g, data = SpectralField(dom, np.eye(8)[0]), SpectralField(dom, np.ones(8))
    rho = TimeSeries(grid, np.ones(33))
    trace = TimeSeries(grid, np.where(grid.nodes() == 0.0, 0.5, 1.0))  # trace(0) != 0
    nan = float("nan")
    return {
        "noise_level": lambda: TSourceProblem(g, 0.3, a, grid, trace, noise_level=nan),
        "cutoff": lambda: XSourceFinalProblem(rho, a, grid, data, cutoff=nan),
        "tikhonov": lambda: XSourceFinalProblem(rho, a, grid, data, tikhonov=nan),
        "perturb": lambda: perturb(np.ones(4), nan, 1),
        "noise_norm-nan": lambda: choose_mu_discrepancy(rho, a, grid, data, 0.0, nan),
        "noise_norm-negative": lambda: choose_mu_discrepancy(rho, a, grid, data, 0.0, -1.0),
    }


@pytest.mark.parametrize("name", list(_sign_checked_calls()))
def test_nonnegative_arguments_refuse_nan_and_negatives(name):
    # a `< 0` check lets NaN through; each of these must refuse it at once
    with pytest.raises(ValueError, match="must be >= 0"):
        _sign_checked_calls()[name]()


def _iteration_problems():
    """A noisy and a clean point-trace problem and the interior problem's arguments."""
    grid, a = TimeGrid(1.0, 32), FractionalOrder(0.5)
    dom = Domain1D(1.0, 8)
    g = SpectralField(dom, np.eye(8)[0])
    rho = TimeSeries(grid, 1.0 + grid.nodes())
    trace = product_rule_convolve(*trace_weights(g, 0.3, a, grid), rho.values)
    noise = 0.01 * float(np.max(trace)) * np.random.default_rng(3).uniform(-1.0, 1.0, 33)
    noisy = TSourceProblem(g, 0.3, a, grid, TimeSeries(grid, trace + noise), noise_level=0.01)
    clean = TSourceProblem(g, 0.3, a, grid, TimeSeries(grid, trace))
    n_pts = int(np.count_nonzero((dom.mesh(33) >= 0.1) & (dom.mesh(33) <= 0.35)))
    interior = (rho, a, grid, dom, (0.1, 0.35), np.ones((n_pts, 33)), 33)
    return noisy, clean, interior


def _iteration_checked_calls():
    noisy, clean, interior = _iteration_problems()
    nan = float("nan")
    return {
        "fixedpoint-m_max-fraction": (lambda: fixed_point_iterate(noisy, m_max=2.5), "m_max"),
        "fixedpoint-m_max-bool": (lambda: fixed_point_iterate(noisy, m_max=True), "m_max"),
        "fixedpoint-tol-nan": (lambda: fixed_point_iterate(noisy, tol=nan), "tol"),
        "fixedpoint-tol-negative": (lambda: fixed_point_iterate(noisy, tol=-1.0), "tol"),
        "fixedpoint-mollify_width-fraction": (
            lambda: fixed_point_iterate(noisy, mollify_width=2.5), "mollify_width"
        ),
        "volterra-mollify_width-fraction": (lambda: solve_volterra(noisy, mollify_width=2.5), "mollify_width"),
        "volterra-mollify_width-bool": (lambda: solve_volterra(noisy, mollify_width=True), "mollify_width"),
        "volterra-clean-mollify_width-fraction": (
            lambda: solve_volterra(clean, mollify_width=2.5), "mollify_width"
        ),
        "interior-m_max-fraction": (lambda: XSourceInteriorProblem(*interior, m_max=2.5), "m_max"),
        "interior-m_max-bool": (lambda: XSourceInteriorProblem(*interior, m_max=True), "m_max"),
        "interior-tol-nan": (lambda: XSourceInteriorProblem(*interior, tol=nan), "tol"),
        "interior-tol-negative": (lambda: XSourceInteriorProblem(*interior, tol=-1.0), "tol"),
    }


@pytest.mark.parametrize("name", list(_iteration_checked_calls()))
def test_iteration_parameters_refuse_what_the_solvers_cannot_use(name):
    # a fractional count once failed inside the sweeps, a bool ran one
    # sweep, and a NaN or negative tol never stopped a run
    call, arg = _iteration_checked_calls()[name]
    with pytest.raises(ValueError, match=arg):
        call()


def test_numpy_integer_iteration_parameters_stay_accepted():
    noisy, _, interior = _iteration_problems()
    rep = fixed_point_iterate(noisy, m_max=np.int64(300), tol=0.0, mollify_width=np.int64(3))
    assert rep.iterations == 300  # two blocks of sweeps
    assert solve_volterra(noisy, mollify_width=np.int64(3)).recovered.values.shape == (33,)
    rep = iterative_thresholding(XSourceInteriorProblem(*interior, m_max=np.int64(300)))
    assert rep.iterations == 300
