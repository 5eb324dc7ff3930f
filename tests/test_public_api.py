"""Every name a fracsource module exports must exist, and the arguments
that must be >= 0 refuse NaN."""

import importlib
import pkgutil

import numpy as np
import pytest

import fracsource
from fracsource.cli import perturb
from fracsource.fracops import FractionalOrder, TimeGrid, TimeSeries
from fracsource.inverse_t import TSourceProblem
from fracsource.inverse_x import XSourceFinalProblem, choose_mu_discrepancy
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
