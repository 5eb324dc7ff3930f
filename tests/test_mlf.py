"""Tests of the Mittag-Leffler evaluator against independent references."""

import json
import math
import os

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fracsource.mlf import (
    MLConvergenceError,
    MLParams,
    _series_double,
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
    # the contour rule and the asymptotic expansion are independent routes;
    # both are valid on a window of moderate scale
    from fracsource import mlf

    for a, b in [(0.6, 1.0), (0.8, 0.8), (0.5, 1.5)]:
        for x in [40.0, 60.0, 90.0, 120.0]:
            z = -(x**a)
            fixed = mlf._contour(a, b, mlf._CONTOUR_MU, mlf._CONTOUR_H, mlf._CONTOUR_NODES)
            contour = float(mlf._contour_eval(fixed, np.array([z]))[0])
            one_row = mlf._asymptotic_array(a, b, np.array([-z]), np.array([0, 1]))
            asym, err = (float(v[0]) for v in one_row)
            assert err <= 1e-9 * abs(contour)
            assert asym == pytest.approx(contour, rel=1e-9)


@settings(max_examples=60, deadline=None)
@given(
    a=st.floats(0.05, 1.95),
    b=st.floats(0.1, 3.0),
    eta=st.floats(0.0, 1e6),
)
# a 40-point grid misses the pole terms' peak near eta = 27 here (C 5.59 against 7.89)
@example(a=1.78125, b=1.125, eta=27.0)
def test_decay_bound_property(a, b, eta):
    # |E(-eta)| stays below the empirical constant of a grid times a safety
    # margin, at any point in between; the grid resolves the oscillation of
    # the pole terms for alpha > 1 (4000 points give C within 0.2% of 40000)
    p = MLParams(a, b)
    grid = np.concatenate(([0.0], np.geomspace(1e-3, 1e6, 4000)))
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


def test_scalar_path_against_mpmath():
    # seeded points in every band of x = |z|^(1/alpha), and at 0 < z <= 1,
    # for the orders outside the solvers' range: 1 <= alpha < 2 (the poles
    # of the contour integrand near alpha = 1 and alpha = 2) and beta > 3
    ml_reference = pytest.importorskip("ml_reference")
    rng = np.random.default_rng(2026)
    low = np.random.default_rng(2027)  # x < 4 and 0 < z <= 1
    cases = [(a, b) for a in (1.0, 1.05, 1.4, 1.9, 1.95) for b in (0.5, 1.0, 2.5)]
    cases += [(a, b) for a in (0.1, 0.5, 0.9, 1.4) for b in (3.5, 10.0, 30.0)]
    for a, b in cases:
        xs = (rng.uniform(4.0, 35.0), rng.uniform(35.0, 300.0), low.uniform(0.0, 4.0))
        for z in [-(x**a) for x in xs] + [low.uniform(0.0, 1.0)]:
            tol = 1e-10 if abs(z) <= 100.0 else 1e-8
            # at a = 0.1 the reference series takes seconds per point beyond
            # x = 35; the integral representation is as independent and fast
            if a < 0.5 and abs(z) ** (1.0 / a) > 35.0:
                ref = float(ml_reference.ml_integral(a, b, z))
            else:
                ref = ml_reference.ml_reference(a, b, z)
            assert ml_eval(MLParams(a, b), z) == pytest.approx(ref, rel=tol, abs=1e-300), (a, b, z)


def test_scalar_is_one_element_array_call():
    for a in ARRAY_ALPHAS + (1.0, 1.4):
        for b in (a, 1.0, a + 2.0):
            for z in (0.0, 0.5, -0.3, -(20.0**a), -(50.0**a), -1e5):
                assert ml_eval(MLParams(a, b), z) == ml_eval_array(a, b, [z])[0]
    grid = np.array([[0.0, -1.0], [-40.0, -1e6]])
    vals = ml_eval_array(0.5, 1.0, grid)
    assert vals.shape == grid.shape
    assert vals[1, 1] == ml_eval(MLParams(0.5, 1.0), -1e6)


@pytest.mark.parametrize("a, b", [(1.5, 1.0), (1.9, 1.2), (0.9, 10.0)])
def test_series_value_does_not_depend_on_the_call(a, b):
    # each sum stops on its own terms, whatever chunk the other sums are in
    z = np.concatenate((-np.logspace(-3, 1.5, 1000), np.linspace(1.0, 1e-3, 1000)))
    sums, biggest = _series_double(a, b, z)
    for i in range(0, z.size, 37):
        one_sum, one_biggest = _series_double(a, b, z[i : i + 1])
        assert one_sum[0] == sums[i] and one_biggest[0] == biggest[i], (a, b, z[i])
    # the (1.5, 1.0) argument whose cost the chunk sizes are set for
    assert ml_eval_array(1.5, 1.0, [-3.0])[0] == ml_eval_array(1.5, 1.0, np.append(z, -3.0))[-1]


def test_array_argument_validation():
    for a in (0.5, 1.5):
        for bad in ([0.0, math.nan], [math.inf], [-math.inf, -1.0], [-1.0, 1.5]):
            with pytest.raises(ValueError):
                ml_eval_array(a, 1.0, bad)
    with pytest.raises(ValueError):
        ml_eval_array(0.0, 1.0, [-1.0])


def test_gamma_tables_shared_between_threads():
    # beta > 3 takes the series, the beta recurrence and the contour, with
    # their cached tables; a fresh interpreter evaluates it from four
    # threads at once and must agree with the serial values
    import subprocess
    import sys

    import fracsource

    zs = [-3.0 - 0.01 * k for k in range(8)]
    code = f"""
import json, sys, threading
from fracsource.mlf import MLParams, ml_eval
sys.setswitchinterval(1e-6)
zs = {zs!r}
out = [None] * len(zs)
start = threading.Barrier(4)
def work(i):
    start.wait()
    for k in range(i, len(zs), 4):
        out[k] = ml_eval(MLParams(0.5, 10.0), zs[k])
threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
for t in threads:
    t.start()
for t in threads:
    t.join(timeout=120)
assert not any(t.is_alive() for t in threads)
print(json.dumps(out))
"""
    src = os.path.dirname(os.path.dirname(fracsource.__file__))
    res = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=300,
        check=True,
    )
    serial = [ml_eval(MLParams(0.5, 10.0), z) for z in zs]
    assert json.loads(res.stdout) == serial


@pytest.mark.parametrize(
    "a, b", [(0.5, 1.0), (0.1, 1.1), (0.3, 2.5), (0.9, 1.9), (0.7, 3.0), (1.0, 0.5), (1.05, 1.0)]
)
def test_array_path_far_arguments(a, b):
    # at eta = -z >= 1e100 one term of the expansion is exact to round-off;
    # the truncation floor follows the leading term, so no value reaches
    # the contour and nothing overflows.  For alpha >= 1 the series comes
    # first: near eta = 5.4e102 and 8.1e153 its partial sums reach 5e307
    # before a term overflows, and it must not be taken
    import warnings

    etas = np.array([5.44787388e102, 1e120, 8.12549354e153, 1e160, 1e300])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        vals = ml_eval_array(a, b, -etas)
    ref = 1.0 / (math.gamma(b - a) * etas)
    assert np.all(np.abs(vals - ref) <= 1e-13 * np.abs(ref))


def test_array_path_refuses_contour_beyond_its_range(monkeypatch):
    import fracsource.mlf as mlf

    monkeypatch.setattr(mlf, "_ASYMPTOTIC_REL_TOL", -1.0)  # the expansion accepts nothing
    assert np.isfinite(ml_eval_array(0.5, 1.0, [-1e6, -1e149])).all()
    with pytest.raises(MLConvergenceError):
        ml_eval_array(0.5, 1.0, [-1e6, -1e160])


@pytest.mark.parametrize("a", [1.0000001, 1.001, 1.01, 1.1])
def test_asymptotic_route_just_above_alpha_one(a):
    # at x = 34 the algebraic terms for a just above 1 nearly vanish, and
    # the expansion's error is the size of the pole terms, (2/a) e^(x cos(pi/a))
    # ~ 2 e^-34 ~ 3.4e-15, which its envelope alone does not see.  Measured
    # absolute errors with that size in the estimate are 1.1e-18, 1.6e-17,
    # 4.7e-18 and 0 (values -3.1e-9, -3.1e-5, -3.0e-4, -2.0e-3), against
    # 1.7e-15, 1.7e-15, 5.9e-16 and 5.3e-16 without it.  The bound is the
    # 1e-13 relative target of every route plus 1e-16 absolute (about half
    # an ulp of 1), since near a = 1 the value itself is only 3e-9: 6x
    # above the worst fixed error, and below every unfixed one.
    ml_reference = pytest.importorskip("ml_reference")
    z = -(34.0**a)
    ref = float(ml_reference.ml_series(a, 1.0, z))
    assert abs(ml_eval(MLParams(a, 1.0), z) - ref) <= 1e-13 * abs(ref) + 1e-16


def regime_rows(width: int = 2500) -> np.ndarray:
    """Rows of arguments that, at the orders below, reach every route of the evaluator."""
    rng = np.random.default_rng(31)
    logs = -np.logspace(-3.0, 4.0, width)
    return np.stack(
        (
            np.resize([0.0, 0.25, 1.0, -0.5, -2.0], width),  # z = 0 and 0 < z <= 1
            logs,  # every band, sorted
            rng.permutation(logs),  # and unsorted
            -np.logspace(0.8, 6.0, width),  # more than 2048 far arguments: two blocks
            np.resize([-40.0, -40.0, -3e3], width),  # ties across the edge of a block
            -rng.uniform(0.0, 60.0, width),
        )
    )


@pytest.mark.parametrize(
    "a, b, routes",
    [
        (0.5, 1.0, {"series", "asymptotic", "contour"}),
        (0.9, 0.9, {"series", "asymptotic", "contour"}),
        (1.0, 0.5, {"series", "asymptotic", "poles", "contour"}),
        # 1 < alpha < 2: octave blocks and the contour that follows the poles
        (1.5, 1.0, {"series", "asymptotic", "poles", "contour"}),
        (1.9, 1.2, {"series", "asymptotic", "poles", "contour"}),
        (0.9, 10.0, {"series", "asymptotic", "recurrence", "contour"}),
    ],
)
def test_rows_of_a_2d_argument_equal_their_own_calls(monkeypatch, a, b, routes):
    import fracsource.mlf as mlf

    reached = set()

    def spy(name, fn):
        def wrapped(*args):
            reached.add(name)
            return fn(*args)

        monkeypatch.setattr(mlf, fn.__name__, wrapped)

    for name, fn in [
        ("series", mlf._series_double),
        ("asymptotic", mlf._asymptotic_array),
        ("poles", mlf._pole_terms),
        ("contour", mlf._contour_array),
    ]:
        spy(name, fn)
    evaluate = mlf._eval

    def recurring(alpha, beta, *args):
        if beta != b:
            reached.add("recurrence")
        return evaluate(alpha, beta, *args)

    monkeypatch.setattr(mlf, "_eval", recurring)
    z = regime_rows()
    whole = ml_eval_array(a, b, z)
    assert routes <= reached
    for i, row in enumerate(z):
        assert np.array_equal(whole[i], ml_eval_array(a, b, row)), (a, b, i)
    # short rows, in groups of at most 16 blocks
    monkeypatch.setattr(mlf, "_GROUP_BLOCKS", 16)
    short = z[:, :2400].reshape(600, 24)
    whole = ml_eval_array(a, b, short)
    for i, row in enumerate(short):
        assert np.array_equal(whole[i], ml_eval_array(a, b, row)), (a, b, i)
