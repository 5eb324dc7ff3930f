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
    # 0 < alpha < 1 with 0 < beta <= 3, and the exponential (1, 1)
    for good in [(0.5, 1.0), (0.999, 3.0), (1e-3, 1e-3), (1.0, 1.0)]:
        MLParams(*good)
    bad = [(0.0, 1.0), (2.0, 1.0), (-0.5, 1.0), (0.5, 0.0), (0.5, -1.0), (1.5, 1.0), (1.0, 0.5),
           (0.5, 3.5), (0.5, 170.0), (math.nan, 1.0), (0.5, math.nan), (0.5, math.inf)]
    for a, b in bad:
        with pytest.raises(ValueError, match="alpha, beta"):
            MLParams(a, b)


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
            contour = float(mlf._contour_eval(mlf._contour(a, b), np.array([z]))[0])
            far = mlf._far_side(a, np.array([-z]))
            asym, err = (float(v[0]) for v in mlf._asymptotic_array(a, b, far))
            assert err <= 1e-9 * abs(contour)
            assert asym == pytest.approx(contour, rel=1e-9)


@settings(max_examples=60, deadline=None)
@given(
    a=st.floats(0.05, 1.0, exclude_max=True),
    b=st.floats(0.1, 3.0),
    eta=st.floats(0.0, 1e6),
)
def test_decay_bound_property(a, b, eta):
    # |E(-eta)| stays below the empirical constant of a 4000-point grid
    # times a safety margin, at any point in between
    p = MLParams(a, b)
    grid = np.concatenate(([0.0], np.geomspace(1e-3, 1e6, 4000)))
    c = ml_decay_constant(p, grid)
    assert abs(ml_eval(p, -eta)) <= 1.2 * c / (1.0 + eta) + 1e-12


def test_oracle_spot_checks():
    # live cross-check against the independent evaluator on a small set
    ml_reference = pytest.importorskip("ml_reference")
    for a, b, eta in [
        (0.45, 1.15, 7.3),
        (0.85, 0.6, 33.0),
        (0.95, 3.0, 12.5),
        (0.25, 1.0, 250.0),
        (0.5, 2.9, 3.0),
        (0.3, 0.1, 1.5),
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
    # at the edges of the accepted orders: alpha near 0 and 1, beta small
    # and up to 3
    ml_reference = pytest.importorskip("ml_reference")
    rng = np.random.default_rng(2026)
    low = np.random.default_rng(2027)  # x < 4 and 0 < z <= 1
    cases = [(a, b) for a in (0.1, 0.5, 0.9, 0.99) for b in (0.2, 2.5, 3.0)]
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
    orders = [(a, b) for a in ARRAY_ALPHAS for b in (a, 1.0, a + 2.0)] + [(1.0, 1.0)]
    for a, b in orders:
        for z in (0.0, 0.5, -0.3, -(20.0**a), -(50.0**a), -1e5):
            assert ml_eval(MLParams(a, b), z) == ml_eval_array(a, b, [z])[0]
    grid = np.array([[0.0, -1.0], [-40.0, -1e6]])
    vals = ml_eval_array(0.5, 1.0, grid)
    assert vals.shape == grid.shape
    assert vals[1, 1] == ml_eval(MLParams(0.5, 1.0), -1e6)


@pytest.mark.parametrize("a, b", [(0.1, 1.0), (0.5, 2.9), (0.9, 0.3)])
def test_series_value_does_not_depend_on_the_call(a, b):
    # each sum stops on its own terms, whatever chunk the other sums are in:
    # at 0 < z <= 1 they stop after a few terms (small z) up to about 180
    # (alpha 0.1, z near 1)
    z = np.concatenate((np.logspace(-3, 0, 1000), np.linspace(1.0, 1e-3, 1000)))
    sums = _series_double(a, b, z)
    for i in range(0, z.size, 37):
        assert _series_double(a, b, z[i : i + 1])[0] == sums[i], (a, b, z[i])


def test_array_argument_validation():
    for a in (0.5, 1.0):
        for bad in ([0.0, math.nan], [math.inf], [-math.inf, -1.0], [-1.0, 1.5]):
            with pytest.raises(ValueError):
                ml_eval_array(a, 1.0, bad)
    with pytest.raises(ValueError):
        ml_eval_array(0.0, 1.0, [-1.0])


def test_series_that_does_not_converge_raises():
    # at alpha 0.001 the terms z^k / Gamma(0.001 k + 1) at z = 1 barely fall
    with pytest.raises(MLConvergenceError, match="did not converge in 10000 terms"):
        ml_eval_array(0.001, 1.0, [1.0])


def test_gamma_tables_shared_between_threads():
    # arguments at 0 < z <= 1 and over the contour band take the series and
    # the contour, with their cached tables, and far arguments at beta 1 fill
    # the memo of the terms each octave of x keeps, two threads at each
    # octave; a fresh interpreter evaluates them from four threads at once
    # and must agree with the serial values
    import subprocess
    import sys

    import fracsource

    cases = [(0.5, 2.9, 0.125 * k) for k in range(1, 9)]
    cases += [(0.5, 2.9, -0.25 - 0.75 * k) for k in range(8)]  # x = 0.06 .. 33
    cases += [(0.5, 1.0, -(2.0 ** (0.25 * k))) for k in range(24, 88)]  # x = 2^12 .. 2^43.5
    code = f"""
import json, sys, threading
from fracsource.mlf import MLParams, ml_eval
sys.setswitchinterval(1e-6)
cases = {cases!r}
out = [None] * len(cases)
start = threading.Barrier(4)
def work(i):
    start.wait()
    for k in range(i, len(cases), 4):
        out[k] = ml_eval(MLParams(*cases[k][:2]), cases[k][2])
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
    serial = [ml_eval(MLParams(a, b), z) for a, b, z in cases]
    assert json.loads(res.stdout) == serial


def test_octave_memo_holds_only_the_octaves_of_its_arguments():
    # at alpha 0.05 these arguments span about 2e4 octaves of x; the three
    # far ones fall in three of them, and only those are scanned and kept
    import fracsource.mlf as mlf

    mlf._asymptotic_coeffs.cache_clear()
    ml_eval_array(0.05, 0.7, -np.array([1e300, 5e150, 1e300, 40.0, 1e-3]))
    assert len(mlf._asymptotic_coeffs(0.05, 0.7)[2]) == 3


@pytest.mark.parametrize("a, b", [(0.5, 1.0), (0.1, 1.1), (0.3, 2.5), (0.9, 1.9), (0.7, 3.0)])
def test_array_path_far_arguments(a, b):
    # at eta = -z >= 1e100 one term of the expansion is exact to round-off;
    # the truncation floor follows the leading term, so no value reaches
    # the contour and nothing overflows
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


def regime_rows(width: int = 2500) -> np.ndarray:
    """Rows of arguments that, at the orders below, reach every route of the evaluator."""
    rng = np.random.default_rng(31)
    logs = -np.logspace(-3.0, 4.0, width)
    return np.stack(
        (
            np.resize([0.0, 0.25, 1.0, -0.5, -2.0], width),  # z = 0 and 0 < z <= 1
            logs,  # every band, sorted
            rng.permutation(logs),  # and unsorted
            -np.logspace(0.8, 6.0, width),  # far arguments over many octaves of x
            np.resize([-40.0, -40.0, -3e3], width),  # ties
            -rng.uniform(0.0, 60.0, width),
        )
    )


ROUTES = [
    (0.5, 1.0, {"series", "asymptotic", "contour"}),
    (0.9, 0.9, {"series", "asymptotic", "contour"}),
    (0.2, 3.0, {"series", "asymptotic", "contour"}),  # the largest beta accepted
    (1.0, 1.0, set()),  # the exponential
]


def spy_routes(monkeypatch) -> set:
    """The set that collects the routes evaluations take from here on."""
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
        ("contour", mlf._contour_eval),
    ]:
        spy(name, fn)
    return reached


@pytest.mark.parametrize("a, b, routes", ROUTES)
def test_rows_of_a_2d_argument_equal_their_own_calls(monkeypatch, a, b, routes):
    reached = spy_routes(monkeypatch)
    z = regime_rows()
    whole = ml_eval_array(a, b, z)
    assert routes <= reached
    for i, row in enumerate(z):
        assert np.array_equal(whole[i], ml_eval_array(a, b, row)), (a, b, i)
    # short rows
    short = z[:, :2400].reshape(600, 24)
    whole = ml_eval_array(a, b, short)
    for i, row in enumerate(short):
        assert np.array_equal(whole[i], ml_eval_array(a, b, row)), (a, b, i)


@pytest.mark.parametrize(
    "a, betas",
    [
        (0.5, (1.5, 2.5, 0.5, 1.0)),  # the contour and the series at 0 < z <= 1
        (0.9, (1.9, 3.0, 2.9)),  # the largest beta accepted beside smaller ones
        (0.3, (3.0, 0.1)),  # beta above and below alpha
        (1.0, (1.0, 1.0)),  # the exponential, the one order at alpha = 1
    ],
)
def test_several_betas_equal_their_one_beta_calls(a, betas):
    import fracsource.mlf as mlf

    z = regime_rows()
    whole = mlf._ml_eval_betas(a, betas, z)
    assert whole.shape == (len(betas),) + z.shape
    for b, values in zip(betas, whole):
        for i, row in enumerate(z):
            assert np.array_equal(values[i], ml_eval_array(a, b, row)), (a, b, i)


def table_rows(lam, n_steps: int, a: float) -> np.ndarray:
    """The kernel table's arguments -lambda t^a at t = 0, 1/n_steps, ..., 1."""
    return -np.asarray(lam)[:, None] * np.linspace(0.0, 1.0, n_steps + 1) ** a


@pytest.mark.parametrize(
    "a, b, lam, n_steps",
    [
        (0.5, 1.5, [9.87, 39.5, 355.3, 4e4], 4096),
        (0.5, 2.5, [0.01, 3.0, 1e3], 64),  # the first two reach no far argument
        (0.6, 1.0, [1e-3, 1e2, 1e5, 1e7], 300),
        (0.9, 3.0, [5.0, 1e3], 512),  # the largest beta accepted
    ],
)
def test_ascending_rows_need_no_sort(a, b, lam, n_steps):
    # a kernel table's rows ascend strictly in -z; reversed, they must give the same bits
    z = table_rows(lam, n_steps, a)
    whole = ml_eval_array(a, b, z)
    for i, row in enumerate(z):
        assert np.array_equal(whole[i], ml_eval_array(a, b, row[::-1])[::-1]), (a, b, i)


@pytest.mark.parametrize("a, b, routes", ROUTES)
def test_every_value_equals_its_one_element_call(monkeypatch, a, b, routes):
    # the expansion keeps the terms of each argument's octave of
    # x = |z|^(1/a), so no value depends on the rest of its call: kernel
    # table rows as given, reversed and permuted, ties on and beside the
    # edges of octaves, and arguments that reach every route, in a 2-D and
    # a flat argument
    reached = spy_routes(monkeypatch)
    table = table_rows([0.01, 9.87, 355.3, 4e4], 64, a)
    rng = np.random.default_rng(43)
    tables = np.vstack((table, table[:, ::-1], rng.permutation(table.ravel()).reshape(table.shape)))
    edges = 2.0 ** (a * np.arange(4.0, 12.0))  # -z at x = 2^4, ..., 2^11
    ties = np.concatenate((np.nextafter(edges, 0.0), edges, np.nextafter(edges, np.inf)))
    flat = np.concatenate((-np.repeat(ties, 2), regime_rows(40).ravel(), tables.ravel()))
    whole = ml_eval_array(a, b, tables), ml_eval_array(a, b, flat)
    assert routes <= reached
    lone = np.array([ml_eval_array(a, b, [z])[0] for z in flat])
    assert np.array_equal(whole[0].ravel(), lone[-tables.size :])
    assert np.array_equal(whole[1], lone)
