"""Every name a fracsource module exports must exist, the arguments
that must be >= 0 refuse NaN, the iteration parameters and data refuse
what the solvers cannot use, and counts follow one rule."""

import importlib
import pkgutil

import math

import numpy as np
import pytest

import fracsource
from fracsource.cli import perturb
from fracsource.errors import NonPositiveParamsError, ParameterError
from fracsource.forward import trace_weights
from fracsource.fracops import FractionalOrder, TimeGrid, TimeSeries, product_rule_convolve
from fracsource.inverse_t import TSourceProblem, fixed_point_iterate, solve_volterra
from fracsource.inverse_x import (
    XSourceFinalProblem,
    XSourceInteriorProblem,
    choose_mu_discrepancy,
    iterative_thresholding,
    modal_responses,
    reconstruct_final,
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


def _with_nan(values: np.ndarray, index: int) -> np.ndarray:
    out = np.array(values, dtype=float)
    out[index] = math.nan
    return out


def _non_finite_data_calls():
    noisy, _, interior = _iteration_problems()
    rho, a, grid, dom, omega, obs, n_mesh = interior
    bad_rho = TimeSeries(grid, _with_nan(rho.values, 5))  # rho(0) stays nonzero
    bad_trace = TimeSeries(grid, _with_nan(noisy.trace.values, 5))
    final = SpectralField(dom, np.ones(dom.n_modes))
    return {
        "trace": lambda: TSourceProblem(noisy.g, noisy.x0, a, grid, bad_trace, noise_level=0.01),
        "interior-observed": lambda: XSourceInteriorProblem(
            rho, a, grid, dom, omega, _with_nan(obs, (0, 5)), n_mesh
        ),
        "final-rho": lambda: reconstruct_final(XSourceFinalProblem(bad_rho, a, grid, final)),
        "modal-responses-rho": lambda: modal_responses(bad_rho, a, grid, dom),
        "interior-rho": lambda: iterative_thresholding(
            XSourceInteriorProblem(bad_rho, a, grid, dom, omega, obs, n_mesh)
        ),
    }


@pytest.mark.parametrize("name", list(_non_finite_data_calls()))
def test_non_finite_data_are_refused(name):
    # a NaN in the data or in rho must not reach the solvers, where it gave
    # an all-NaN rho, a misleading solver error or numpy's LinAlgError
    with pytest.raises(ValueError, match="must be finite"):
        _non_finite_data_calls()[name]()


def _non_finite_parameter_calls():
    noisy, _, interior = _iteration_problems()
    inf = math.inf
    return {
        "fixedpoint-K": (lambda: fixed_point_iterate(noisy, K=inf), ParameterError),
        "interior-K": (
            lambda: iterative_thresholding(XSourceInteriorProblem(*interior, K=inf)),
            NonPositiveParamsError,
        ),
        "interior-beta": (
            lambda: iterative_thresholding(XSourceInteriorProblem(*interior, beta=inf)),
            NonPositiveParamsError,
        ),
    }


@pytest.mark.parametrize("name", list(_non_finite_parameter_calls()))
def test_infinite_iteration_parameters_are_refused(name):
    # an infinite damping makes every update 0: the run would return rho = 0 or g = 0
    call, error = _non_finite_parameter_calls()[name]
    with pytest.raises(error, match="positive and finite"):
        call()


def test_fixed_point_truth_on_another_grid_is_refused_before_the_set_up(monkeypatch):
    import fracsource.inverse_t as inverse_t

    noisy, _, _ = _iteration_problems()
    truth = TimeSeries(TimeGrid(1.0, 16), np.ones(17))

    def no_set_up(*args):
        raise AssertionError("the set-up was built")

    monkeypatch.setattr(inverse_t, "_set_up", no_set_up)
    with pytest.raises(ValueError, match="truth grid"):
        fixed_point_iterate(noisy, truth=truth)


def test_counts_refuse_bools():
    # Domain1D(1.0, True) must not read as a domain of one mode
    for make, least in ((TimeGrid, 2), (Domain1D, 1)):
        for flag in (True, False):
            with pytest.raises(ValueError, match=f"an integer >= {least}"):
                make(1.0, flag)


def test_counts_take_numpy_integers_as_ints():
    # a NumPy integer count builds the object an int builds, repr and hash included
    for make, n in ((TimeGrid, 16), (Domain1D, 8)):
        built = make(1.0, np.int64(n))
        assert built == make(1.0, n) and hash(built) == hash(make(1.0, n))
        assert repr(built) == repr(make(1.0, n))
    assert type(TimeGrid(1.0, np.int64(16)).n_steps) is int
    assert type(Domain1D(1.0, np.int32(8)).n_modes) is int
