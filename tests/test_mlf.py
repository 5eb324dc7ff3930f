"""Tests of the Mittag-Leffler evaluator against independent references."""

import json
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracsource.mlf import (
    MLConvergenceError,
    MLParams,
    ml_decay_constant,
    ml_eval,
    ml_eval_array,
)

DATA_PATH = os.path.join(os.path.dirname(__file__), "data", "ml_reference.json")

# e * erfc(1), frozen from a 20-digit special-function evaluation
E_TIMES_ERFC_1 = 0.42758357615580699918


def load_reference():
    with open(DATA_PATH, "r", encoding="utf-8") as fh:
        return json.load(fh)


def test_params_validation():
    MLParams(0.5, 1.0)
    MLParams(1.999, 0.01)
    for bad in [(0.0, 1.0), (2.0, 1.0), (-0.5, 1.0), (0.5, 0.0), (0.5, -1.0)]:
        with pytest.raises(ValueError):
            MLParams(*bad)


def test_argument_validation():
    p = MLParams(0.5, 1.0)
    with pytest.raises(ValueError):
        ml_eval(p, 2.0)
    with pytest.raises(ValueError):
        ml_eval(p, math.nan)
    with pytest.raises(ValueError):
        ml_eval(p, math.inf)
    # a small positive guard is tolerated for testing
    assert ml_eval(p, 0.5) > 1.0


def test_value_at_zero():
    assert ml_eval(MLParams(0.5, 1.0), 0.0) == 1.0
    assert ml_eval(MLParams(0.3, 2.0), 0.0) == pytest.approx(1.0 / math.gamma(2.0), rel=1e-15)


def test_exponential_special_case():
    p = MLParams(1.0, 1.0)
    assert ml_eval(p, -1.0) == pytest.approx(math.exp(-1.0), rel=1e-14)
    for z in np.linspace(-30.0, 0.0, 121):
        assert ml_eval(p, float(z)) == pytest.approx(math.exp(z), rel=1e-12)


def test_erfc_identity():
    # E_{1/2,1}(-x) = e^(x^2) erfc(x) at x = 1
    assert ml_eval(MLParams(0.5, 1.0), -1.0) == pytest.approx(E_TIMES_ERFC_1, rel=1e-12)


def test_against_frozen_reference_table():
    table = load_reference()
    for key, ref in table.items():
        a, b, eta = (float(part) for part in key.split("|"))
        val = ml_eval(MLParams(a, b), -eta)
        tol = 1e-10 if eta <= 100.0 else 1e-8
        assert val == pytest.approx(ref, rel=tol, abs=1e-300), (a, b, eta)


def test_monotone_and_positive_for_beta_one():
    for a in [0.1, 0.3, 0.5, 0.7, 0.9]:
        p = MLParams(a, 1.0)
        etas = np.concatenate(([0.0], np.geomspace(1e-3, 1e6, 80)))
        vals = np.array([ml_eval(p, -float(e)) for e in etas])
        assert np.all(vals > 0.0)
        assert np.all(vals <= 1.0)
        assert np.all(np.diff(vals) <= 1e-14)


def test_decay_constant_trivial_grid():
    assert ml_decay_constant(MLParams(0.5, 1.0), [0.0]) == 1.0


def test_decay_constant_bounded_and_stable():
    for a, b in [(0.5, 0.5), (0.9, 1.0), (0.3, 1.3)]:
        p = MLParams(a, b)
        coarse = np.concatenate(([0.0], np.geomspace(1e-3, 1e6, 60)))
        fine = np.concatenate(([0.0], np.geomspace(1e-3, 1e6, 600)))
        c1 = ml_decay_constant(p, coarse)
        c2 = ml_decay_constant(p, fine)
        assert math.isfinite(c1) and c1 >= abs(ml_eval(p, 0.0))
        assert abs(c2 - c1) / c1 < 0.05


def test_decay_constant_input_validation():
    p = MLParams(0.5, 1.0)
    with pytest.raises(ValueError):
        ml_decay_constant(p, [])
    with pytest.raises(ValueError):
        ml_decay_constant(p, [-1.0])


def test_evaluation_regimes_agree_on_overlap():
    # the extended-precision series and the asymptotic expansion are
    # independent routes; both are valid on a window of moderate scale
    from fracsource.mlf import _asymptotic, _series_decimal

    for a, b in [(0.6, 1.0), (0.8, 0.8), (0.5, 1.5)]:
        for x in [40.0, 60.0, 90.0, 120.0]:
            z = -(x**a)
            series = _series_decimal(a, b, z, x)
            asym, err = _asymptotic(a, b, z)
            assert err <= 1e-9 * abs(series)
            assert asym == pytest.approx(series, rel=1e-9)


@settings(max_examples=60, deadline=None)
@given(
    a=st.floats(0.05, 1.95),
    b=st.floats(0.1, 3.0),
    eta=st.floats(0.0, 1e6),
)
def test_decay_bound_property(a, b, eta):
    # |E(-eta)| stays below the empirical constant of a coarse grid times
    # a safety margin, at any point in between
    p = MLParams(a, b)
    grid = np.concatenate(([0.0], np.geomspace(1e-3, 1e6, 40)))
    c = ml_decay_constant(p, grid)
    assert abs(ml_eval(p, -eta)) <= 1.2 * c / (1.0 + eta) + 1e-12


def test_oracle_spot_checks():
    # live cross-check against the independent evaluator on a small set
    ml_reference = pytest.importorskip("ml_reference")
    # beta > 3 lies beyond the reach of the fixed contour
    for a, b, eta in [
        (0.45, 1.15, 7.3),
        (0.85, 0.6, 33.0),
        (1.4, 1.0, 12.5),
        (0.25, 1.0, 250.0),
        (0.5, 10.0, 3.0),
        (0.3, 30.0, 1.5),
    ]:
        ref = ml_reference.ml_reference(a, b, -eta)
        assert ml_eval(MLParams(a, b), -eta) == pytest.approx(ref, rel=1e-10)


ARRAY_ALPHAS = (0.1, 0.3, 0.5, 0.75, 0.9, 0.95)


def test_array_evaluator_against_mpmath():
    # seeded points in every band of x = |z|^(1/alpha): the contour below
    # x = 35 (x < 4 included), the asymptotic series above, and x > 400,
    # where the reference switches to its integral representation
    ml_reference = pytest.importorskip("ml_reference")
    rng = np.random.default_rng(2024)
    for a in ARRAY_ALPHAS:
        for b in (a, 1.0, a + 1.0, a + 2.0):
            x = np.concatenate(
                (
                    rng.uniform(0.0, 4.0, 2),
                    rng.uniform(4.0, 35.0, 3),
                    rng.uniform(35.0, 60.0, 1),
                    rng.uniform(500.0, 5000.0, 1),
                )
            )
            eta = x**a
            vals = ml_eval_array(a, b, -eta)
            for e, v in zip(eta, vals):
                tol = 1e-10 if e <= 100.0 else 1e-8
                ref = ml_reference.ml_reference(a, b, -e)
                assert v == pytest.approx(ref, rel=tol, abs=1e-300), (a, b, e)


def test_scalar_is_one_element_array_call():
    for a in ARRAY_ALPHAS + (1.0, 1.4):
        for b in (a, 1.0, a + 2.0):
            for z in (0.0, 0.5, -0.3, -(20.0**a), -(50.0**a), -1e5):
                assert ml_eval(MLParams(a, b), z) == ml_eval_array(a, b, [z])[0]
    grid = np.array([[0.0, -1.0], [-40.0, -1e6]])
    vals = ml_eval_array(0.5, 1.0, grid)
    assert vals.shape == grid.shape
    assert vals[1, 1] == ml_eval(MLParams(0.5, 1.0), -1e6)


def test_array_argument_validation():
    for a in (0.5, 1.5):
        for bad in ([0.0, math.nan], [math.inf], [-math.inf, -1.0], [-1.0, 1.5]):
            with pytest.raises(ValueError):
                ml_eval_array(a, 1.0, bad)
    with pytest.raises(ValueError):
        ml_eval_array(0.0, 1.0, [-1.0])
