"""Tests of the built-in source profiles' argument checks."""

import pytest

from fracsource.fracops import TimeGrid
from fracsource.profiles import make_g, make_rho
from fracsource.spectral import Domain1D

DOM = Domain1D(1.0, 8)
GRID = TimeGrid(1.0, 16)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: make_g(DOM, "offset_bump", center_frac=0.0), "center_frac"),
        (lambda: make_g(DOM, "offset_bump", center_frac=1.0), "center_frac"),
        (lambda: make_g(DOM, "offset_bump", width_frac=0.0), "width_frac"),
        (lambda: make_g(DOM, "ring"), "unknown g profile 'ring'"),
        (lambda: make_rho(GRID, "ramp"), "unknown rho profile 'ramp'"),
    ],
    ids=["center-0", "center-1", "width-0", "unknown-g", "unknown-rho"],
)
def test_profiles_refuse_bad_names_and_parameters(call, message):
    with pytest.raises(ValueError, match=message):
        call()
