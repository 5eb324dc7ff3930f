"""Tests of the discrete fractional calculus operators."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracsource.fracops import (
    FractionalOrder,
    TimeGrid,
    TimeSeries,
    _l1_spectrum,
    caputo_l1,
    product_rule_convolve,
    rl_integral_forward,
    weakly_singular_convolve,
)

EPS = np.finfo(float).eps


def make_series(func, T=1.0, n=256):
    grid = TimeGrid(T, n)
    return TimeSeries(grid, func(grid.nodes()))


def rel_err(approx, exact, skip=1):
    a, e = approx[skip:], exact[skip:]
    return np.linalg.norm(a - e) / np.linalg.norm(e)


def test_type_validation():
    with pytest.raises(ValueError):
        FractionalOrder(1.0)
    with pytest.raises(ValueError):
        FractionalOrder(0.0)
    with pytest.raises(ValueError):
        TimeGrid(1.0, 1)
    with pytest.raises(ValueError):
        TimeGrid(-1.0, 4)
    grid = TimeGrid(1.0, 4)
    with pytest.raises(ValueError):
        TimeSeries(grid, np.zeros(4))
    # a count past the bound is refused before any array of its size is made
    assert TimeGrid(1.0, 10**6).n_steps == 10**6
    with pytest.raises(ValueError, match="n_steps must be an integer >= 2, at most 1000000"):
        TimeGrid(1.0, 10**30)


def test_caputo_constant_is_zero():
    f = make_series(lambda t: np.full_like(t, 3.7))
    out = caputo_l1(f, FractionalOrder(0.5))
    assert np.max(np.abs(out.values)) == 0.0


def test_caputo_linear_closed_form():
    # the L1 scheme is exact for piecewise-linear data
    for a in (0.3, 0.5, 0.7):
        f = make_series(lambda t: t)
        out = caputo_l1(f, FractionalOrder(a))
        t = f.grid.nodes()
        exact = t ** (1.0 - a) / math.gamma(2.0 - a)
        assert rel_err(out.values, exact) < 1e-13


def test_caputo_quadratic_convergence_order():
    for a in (0.3, 0.5, 0.7):
        errs = []
        for n in (64, 128, 256, 512):
            f = make_series(lambda t: t**2, n=n)
            out = caputo_l1(f, FractionalOrder(a))
            t = f.grid.nodes()
            exact = 2.0 * t ** (2.0 - a) / math.gamma(3.0 - a)
            errs.append(rel_err(out.values, exact))
        slope = np.polyfit(np.log([64, 128, 256, 512]), np.log(errs), 1)[0]
        assert abs(-slope - (2.0 - a)) < 0.2


def test_rl_forward_constant_and_linear():
    for a in (0.3, 0.5, 0.7):
        ones = make_series(np.ones_like)
        t = ones.grid.nodes()
        out = rl_integral_forward(ones, a)
        assert rel_err(out.values, t**a / math.gamma(a + 1.0)) < 1e-12
        lin = make_series(lambda t: t)
        out = rl_integral_forward(lin, a)
        assert rel_err(out.values, t ** (1.0 + a) / math.gamma(2.0 + a)) < 1e-12


def test_rl_forward_order_one_is_trapezoid():
    f = make_series(lambda t: np.cos(3.0 * t), n=64)
    out = rl_integral_forward(f, 1.0)
    v = f.values
    tau = f.grid.tau
    trap = np.concatenate(([0.0], np.cumsum((v[1:] + v[:-1]) * tau / 2.0)))
    assert np.max(np.abs(out.values - trap)) < 1e-14


def test_convolve_validation():
    f = make_series(np.ones_like, n=16)
    with pytest.raises(ValueError):
        weakly_singular_convolve(1.5, f, f)
    with pytest.raises(ValueError):
        weakly_singular_convolve(0.5, f, make_series(np.ones_like, n=32))


def test_product_rule_matches_loop_formula():
    rng = np.random.default_rng(3)
    c, d, f = rng.standard_normal(40), rng.standard_normal(40), rng.standard_normal(41)
    loop = [0.0] + [c[:k] @ f[k:0:-1] + d[:k] @ f[k - 1 :: -1] for k in range(1, 41)]
    assert np.max(np.abs(product_rule_convolve(c, d, f) - loop)) < 1e-13

    def reference(c, d, f):
        n = f.shape[0] - 1
        return [0.0] + [c[:k] @ f[k:0:-1] + d[:k] @ f[k - 1 :: -1] for k in range(1, n + 1)]

    def fft_bound(c, d, f):
        # an FFT convolution at length L errs by at most about
        # eps log2(L) ||x|| ||y|| in each entry (Higham, Accuracy and
        # Stability of Numerical Algorithms, 2nd ed., sec. 24.1); with a
        # factor 4 for the two products, the sum and the loop's own dots
        size = 1 << (2 * c.shape[0] - 1).bit_length()
        norm = np.linalg.norm
        return 4.0 * EPS * math.log2(size) * (norm(c) * norm(f[1:]) + norm(d) * norm(f[:-1]))

    # three series at once, with shared weights and with one weight row each,
    # and one series against the three weight rows
    rows = rng.standard_normal((3, 41))
    cs, ds = rng.standard_normal((3, 40)), rng.standard_normal((3, 40))
    shared, own = product_rule_convolve(c, d, rows), product_rule_convolve(cs, ds, rows)
    spread = product_rule_convolve(cs, ds, f)
    assert spread.shape == (3, 41)
    # the same bits as the series repeated once per weight row
    assert np.array_equal(spread, product_rule_convolve(cs, ds, np.tile(f, (3, 1))))
    for i in range(3):
        assert np.max(np.abs(shared[i] - reference(c, d, rows[i]))) < fft_bound(c, d, rows[i])
        err = np.max(np.abs(own[i] - reference(cs[i], ds[i], rows[i])))
        assert err < fft_bound(cs[i], ds[i], rows[i])
        err = np.max(np.abs(spread[i] - reference(cs[i], ds[i], f)))
        assert err < fft_bound(cs[i], ds[i], f)
    # a long grid
    c, d, f = rng.standard_normal(4096), rng.standard_normal(4096), rng.standard_normal(4097)
    assert np.max(np.abs(product_rule_convolve(c, d, f) - reference(c, d, f))) < fft_bound(c, d, f)


def test_product_rule_blocks_give_the_row_by_row_bits():
    # 40 rows at n_steps 4096 span 2^18.3 FFT points: two blocks of rows
    rng = np.random.default_rng(7)
    n, rows = 4096, 40
    c, d = rng.standard_normal((rows, n)), rng.standard_normal((rows, n))
    fs, f = rng.standard_normal((rows, n + 1)), rng.standard_normal(n + 1)
    own, spread, shared = (
        product_rule_convolve(c, d, fs),
        product_rule_convolve(c, d, f),
        product_rule_convolve(c[0], d[0], fs),
    )
    for i in range(rows):
        assert np.array_equal(own[i], product_rule_convolve(c[i], d[i], fs[i]))
        assert np.array_equal(spread[i], product_rule_convolve(c[i], d[i], f))
        assert np.array_equal(shared[i], product_rule_convolve(c[0], d[0], fs[i]))


@pytest.mark.parametrize(
    "form", ["weight rows, series rows", "weight rows, one series", "one weight row, series rows"]
)
def test_product_rule_temporaries_stay_per_block(form):
    # 64 rows at n_steps 16384 go in eight blocks of eight rows.  Temporaries
    # of the stack's size (the summed weights, the f_0 correction) would put
    # the peak at twice the result or more; per block they add about half
    rng = np.random.default_rng(11)
    n, rows = 16384, 64
    c, d = rng.standard_normal((rows, n)), rng.standard_normal((rows, n))
    fs = rng.standard_normal((rows, n + 1))
    args = {
        "weight rows, series rows": (c, d, fs),
        "weight rows, one series": (c, d, fs[0]),
        "one weight row, series rows": (c[0], d[0], fs),
    }[form]
    product_rule_convolve(*args)  # FFT plans and the like, outside the count
    tracemalloc.start()
    try:
        out = product_rule_convolve(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.shape == (rows, n + 1)
    assert peak < 1.75 * out.nbytes


def test_caputo_long_grid_matches_direct_convolution():
    # the L1 derivative is scale sum_{j<k} b_j (f_{k-j} - f_{k-j-1}); the
    # reference forms that sum with np.convolve.  The FFT errs by at most
    # about eps log2(L) ||b|| ||diff f|| per entry (see the product-rule
    # test), times the scale, with a factor 4 for the reference's own sums
    n, a = 4096, 0.4
    grid = TimeGrid(1.0, n)
    f = np.random.default_rng(5).standard_normal(n + 1)
    j = np.arange(n, dtype=float)
    b = (j + 1.0) ** (1.0 - a) - j ** (1.0 - a)
    scale = grid.tau ** (-a) / math.gamma(2.0 - a)
    want = np.concatenate(([0.0], np.convolve(b, np.diff(f))[:n] * scale))
    got = caputo_l1(TimeSeries(grid, f), FractionalOrder(a)).values
    bound = 4.0 * EPS * math.log2(2 * n) * np.linalg.norm(b) * np.linalg.norm(np.diff(f)) * scale
    assert np.max(np.abs(got - want)) < bound


@pytest.mark.parametrize("a", (0.3, 0.8))
@pytest.mark.parametrize("n", (2, 3, 256))
def test_caputo_on_the_cached_l1_spectrum(n, a):
    # as the long-grid test above, on short grids, from the cached spectrum
    grid = TimeGrid(1.0, n)
    f = np.random.default_rng(n).standard_normal(n + 1)
    j = np.arange(n, dtype=float)
    b = (j + 1.0) ** (1.0 - a) - j ** (1.0 - a)
    scale = grid.tau ** (-a) / math.gamma(2.0 - a)
    want = np.concatenate(([0.0], np.convolve(b, np.diff(f))[:n] * scale))
    got = caputo_l1(TimeSeries(grid, f), FractionalOrder(a)).values
    bound = 4.0 * EPS * math.log2(2 * n) * np.linalg.norm(b) * np.linalg.norm(np.diff(f)) * scale
    assert np.max(np.abs(got - want)) < bound
    spectrum = _l1_spectrum(a, grid)
    assert not spectrum.flags.writeable
    with pytest.raises(ValueError):
        spectrum[0] = 0.0
    # a repeat call is served the same spectrum and gives the same bytes
    again = caputo_l1(TimeSeries(grid, f), FractionalOrder(a)).values
    assert _l1_spectrum(a, grid) is spectrum
    assert again.tobytes() == got.tobytes()


def test_convolve_trivial_and_power():
    ones = make_series(np.ones_like)
    t = ones.grid.nodes()
    out = weakly_singular_convolve(1.0, ones, ones)
    assert np.max(np.abs(out.values - t)) < 1e-14
    for p in (0.3, 0.5, 0.9):
        out = weakly_singular_convolve(p, ones, ones)
        assert rel_err(out.values, t**p / p) < 1e-13


def test_convolve_second_order_on_smooth_data():
    exact_cache = {}

    def run(n):
        grid = TimeGrid(1.0, n)
        t = grid.nodes()
        ks = TimeSeries(grid, np.exp(-t))
        f = TimeSeries(grid, np.cos(2.0 * t))
        return weakly_singular_convolve(0.6, ks, f).values[-1]

    coarse, mid, fine = run(64), run(128), run(256)
    # Richardson: the halving ratio of successive differences is ~4
    ratio = (coarse - mid) / (mid - fine)
    assert 3.0 < ratio < 5.0


def test_semigroup_property():
    # J^a (J^b f) = J^(a+b) f on smooth data, within quadrature tolerance
    f = make_series(lambda t: 1.0 + np.sin(2.0 * t), n=2048)
    for a, b in [(0.3, 0.4), (0.25, 0.25)]:
        two = rl_integral_forward(rl_integral_forward(f, a), b)
        one = rl_integral_forward(f, a + b)
        assert rel_err(two.values, one.values) < 1e-4


def test_caputo_then_integral_recovers_f():
    for a in (0.3, 0.5, 0.7):
        f = make_series(lambda t: 1.0 + t**2 + np.sin(t), n=2048)
        d = caputo_l1(f, FractionalOrder(a))
        rec = rl_integral_forward(d, a)
        exact = f.values - f.values[0]
        assert rel_err(rec.values, exact) < 1e-4


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**31),
    a=st.floats(0.1, 0.9),
    c1=st.floats(-2.0, 2.0),
    c2=st.floats(-2.0, 2.0),
)
def test_linearity(seed, a, c1, c2):
    grid = TimeGrid(1.0, 32)
    rng = np.random.default_rng(seed)
    f1 = TimeSeries(grid, rng.standard_normal(33))
    f2 = TimeSeries(grid, rng.standard_normal(33))
    combo = TimeSeries(grid, c1 * f1.values + c2 * f2.values)
    alpha = FractionalOrder(a)
    lhs = caputo_l1(combo, alpha).values
    rhs = c1 * caputo_l1(f1, alpha).values + c2 * caputo_l1(f2, alpha).values
    assert np.max(np.abs(lhs - rhs)) < 1e-9 * max(1.0, np.max(np.abs(rhs)))
