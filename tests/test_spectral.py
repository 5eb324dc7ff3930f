"""Tests of the sine eigenbasis representation and quadrature projection."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracsource.spectral import (
    Domain1D,
    SpectralField,
    eval_at,
    eval_on_mesh,
    project,
    simpson_weights,
    sobolev_norm,
)


def test_domain_validation():
    with pytest.raises(ValueError):
        Domain1D(0.0, 4)
    with pytest.raises(ValueError):
        Domain1D(1.0, 0)
    with pytest.raises(ValueError):
        Domain1D(1.0, 2.5)
    # more modes than the final-data weight's roundoff bound covers
    assert Domain1D(1.0, 10**6).n_modes == 10**6
    with pytest.raises(ValueError, match="n_modes must be an integer >= 1, at most 1000000"):
        Domain1D(1.0, 10**6 + 1)


def test_spectral_field_validation():
    dom = Domain1D(1.0, 4)
    with pytest.raises(ValueError, match="length 4"):
        SpectralField(dom, np.zeros(3))
    with pytest.raises(ValueError, match="finite"):
        SpectralField(dom, np.array([0.0, math.nan, 0.0, 0.0]))


def test_eigenvalues_increasing():
    dom = Domain1D(2.0, 8)
    lam = dom.eigenvalues()
    assert lam[0] == pytest.approx((math.pi / 2.0) ** 2, rel=1e-15)
    assert np.all(np.diff(lam) > 0.0)


def test_eigenfunctions_orthonormal():
    dom = Domain1D(1.5, 6)
    xs = dom.mesh(4 * 6 + 1)
    w = simpson_weights(xs.shape[0], xs[1] - xs[0])
    phi = dom.eigenfunctions(xs)
    gram = phi @ (w[:, None] * phi.T)
    assert np.max(np.abs(gram - np.eye(6))) < 1e-10


def test_eval_at_single_mode():
    dom = Domain1D(2.0, 4)
    f = SpectralField(dom, np.array([1.0, 0.0, 0.0, 0.0]))
    assert eval_at(f, 1.0) == pytest.approx(math.sqrt(2.0 / 2.0), rel=1e-14)
    zero = SpectralField(dom, np.zeros(4))
    assert eval_at(zero, 0.73) == 0.0


def test_eval_at_domain_check():
    dom = Domain1D(1.0, 2)
    f = SpectralField(dom, np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        eval_at(f, -0.1)
    with pytest.raises(ValueError):
        eval_at(f, 1.1)


def test_parabola_sine_series():
    # closed-form coefficients of f(x) = x (L - x):
    # (f, phi_n) = sqrt(2/L) * 2 (L / n pi)^3 (1 - (-1)^n)
    L = 1.3
    dom = Domain1D(L, 40)
    n = np.arange(1, 41)
    coeffs = math.sqrt(2.0 / L) * 2.0 * (L / (n * math.pi)) ** 3 * (1.0 - (-1.0) ** n)
    f = SpectralField(dom, coeffs)
    xs = np.linspace(0.0, L, 17)
    exact = xs * (L - xs)
    # truncation tail is bounded by the sum of the dropped coefficient sizes
    tail = math.sqrt(2.0 / L) * sum(
        math.sqrt(2.0 / L) * 2.0 * (L / (k * math.pi)) ** 3 * 2.0 for k in range(41, 400, 2)
    )
    assert np.max(np.abs(eval_on_mesh(f, xs) - exact)) < tail + 1e-12


def test_sobolev_norm_examples():
    dom = Domain1D(2.0, 4)
    lam = dom.eigenvalues()
    e1 = SpectralField(dom, np.array([1.0, 0.0, 0.0, 0.0]))
    assert sobolev_norm(e1, 0.0) == pytest.approx(1.0, rel=1e-15)
    assert sobolev_norm(e1, 1.0) == pytest.approx(lam[0], rel=1e-15)
    both = SpectralField(dom, np.array([1.0, 1.0, 0.0, 0.0]))
    assert sobolev_norm(both, 0.5) == pytest.approx(math.sqrt(lam[0] + lam[1]), rel=1e-15)
    with pytest.raises(ValueError):
        sobolev_norm(e1, -0.5)


@settings(max_examples=50, deadline=None)
@given(
    g1=st.floats(0.0, 3.0),
    g2=st.floats(0.0, 3.0),
    seed=st.integers(0, 2**31),
)
def test_sobolev_monotone_in_gamma(g1, g2, seed):
    # with L = 0.5 the smallest eigenvalue exceeds 1, so the norm is
    # nondecreasing in the exponent
    dom = Domain1D(0.5, 6)
    rng = np.random.default_rng(seed)
    f = SpectralField(dom, rng.standard_normal(6))
    lo, hi = sorted((g1, g2))
    assert sobolev_norm(f, lo) <= sobolev_norm(f, hi) * (1.0 + 1e-12)


def test_project_single_mode_leakage():
    dom = Domain1D(1.0, 8)
    xs = dom.mesh(4 * 8 + 1)
    f = SpectralField(dom, np.eye(8)[0])
    p = project(eval_on_mesh(f, xs), dom)
    assert abs(p.coeffs[0] - 1.0) < 1e-8
    assert np.max(np.abs(p.coeffs[1:])) < 1e-8


def test_project_zero_and_mixture():
    dom = Domain1D(1.0, 8)
    xs = dom.mesh(4 * 8 + 1)
    assert project(np.zeros(xs.shape[0]), dom).l2_norm() == 0.0
    f = SpectralField(dom, np.array([1.0, 0.0, 0.5, 0.0, 0.0, 0.0, 0.0, 0.0]))
    p = project(eval_on_mesh(f, xs), dom)
    assert np.max(np.abs(p.coeffs - f.coeffs)) < 1e-8


def test_project_mesh_too_coarse():
    dom = Domain1D(1.0, 8)
    with pytest.raises(ValueError):
        project(np.zeros(2 * 8 + 2), dom)
    with pytest.raises(ValueError, match="1-D"):
        project(np.zeros((2, 41)), dom)
    with pytest.raises(ValueError, match="at least 4"):
        simpson_weights(3, 0.5)


def test_simpson_weights_odd_interval_count():
    # 3/8-rule patch keeps quartic accuracy on an odd interval count
    for n_pts in (12, 13):
        xs = np.linspace(0.0, 1.0, n_pts)
        w = simpson_weights(n_pts, xs[1] - xs[0])
        assert w @ xs**3 == pytest.approx(0.25, rel=1e-12)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**31))
def test_round_trip_and_parseval(seed):
    dom = Domain1D(1.0, 12)
    rng = np.random.default_rng(seed)
    coeffs = rng.standard_normal(12)
    f = SpectralField(dom, coeffs)
    xs = dom.mesh(8 * 12 + 1)
    vals = eval_on_mesh(f, xs)
    p = project(vals, dom)
    assert np.max(np.abs(p.coeffs - coeffs)) < 1e-8
    # Parseval: continuous L2 norm of the synthesis matches the
    # Euclidean norm of the coefficients
    w = simpson_weights(xs.shape[0], xs[1] - xs[0])
    assert math.sqrt(w @ vals**2) == pytest.approx(f.l2_norm(), abs=1e-8, rel=1e-8)
