"""Independent reference computations for the benchmark's output checks.

Nothing here calls fracsource.  True source factors come from the
profile formulas the README documents; the forward trace at alpha = 1/2
comes from the closed form E_{1/2,1}(-y) = exp(y^2) erfc(y) evaluated by
mpmath; Mittag-Leffler reference values come from the frozen mpmath
table in tests/data/ml_reference.json or from the independent evaluator
that regenerates it (tests/ml_reference.py).  The domain is (0, 1) and
the horizon T = 1 throughout, as in every benchmark config.
"""

from __future__ import annotations

import importlib.util
import json
import math
from functools import lru_cache

import numpy as np

from common import ML_REFERENCE_MODULE, ML_TABLE


# ---------------------------------------------------------------------------
# profile formulas (L = T = 1)


def rho_formula(spec: dict, t: np.ndarray) -> np.ndarray:
    p = spec.get("params", {})
    name = spec["profile"]
    if name == "constant":
        return np.full_like(t, float(p.get("value", 1.0)))
    if name == "affine":
        return p.get("intercept", 1.0) + p.get("slope", 1.0) * t
    if name == "sine":
        return p.get("amplitude", 1.0) * np.sin(p.get("freq", 1.0) * math.pi * t)
    raise ValueError(f"no formula for rho profile {name!r}")


def g_formula(spec: dict, x: np.ndarray) -> np.ndarray:
    p = spec.get("params", {})
    name = spec["profile"]
    if name == "sine_bump":
        return np.sin(math.pi * x) ** 3
    if name == "hat":
        return 1.0 - np.abs(2.0 * x - 1.0)
    if name == "offset_bump":
        c = p.get("center_frac", 0.7)
        half = p.get("width_frac", 0.4) / 2.0
        y = (x - c) / half
        out = np.zeros_like(x)
        inside = np.abs(y) < 1.0
        out[inside] = np.exp(1.0 - 1.0 / (1.0 - y[inside] ** 2))
        return out
    raise ValueError(f"no formula for g profile {name!r}")


def g_coeffs(spec: dict, n_modes: int) -> np.ndarray:
    """Coefficients against phi_n = sqrt(2) sin(n pi x).

    Closed forms for sine_bump (sin^3 = (3 sin - sin 3x)/4) and hat; the
    smooth compactly supported bump by a 40001-point trapezoid rule, which
    is spectrally accurate for it.
    """
    n = np.arange(1, n_modes + 1, dtype=float)
    name = spec["profile"]
    if name == "sine_bump":
        c = np.zeros(n_modes)
        c[0] = 3.0 / (4.0 * math.sqrt(2.0))
        if n_modes >= 3:
            c[2] = -1.0 / (4.0 * math.sqrt(2.0))
        return c
    if name == "hat":
        return math.sqrt(2.0) * 4.0 * np.sin(n * math.pi / 2.0) / (n * math.pi) ** 2
    xs = np.linspace(0.0, 1.0, 40001)
    f = g_formula(spec, xs)
    phi = math.sqrt(2.0) * np.sin(np.outer(n, xs) * math.pi)
    return (phi * f).sum(axis=1) * (xs[1] - xs[0])


def synthesize(coeffs: np.ndarray, x: np.ndarray) -> np.ndarray:
    n = np.arange(1, coeffs.shape[0] + 1, dtype=float)
    return coeffs @ (math.sqrt(2.0) * np.sin(np.outer(n, x) * math.pi))


def rel_l2(approx: np.ndarray, exact: np.ndarray) -> float:
    return float(np.linalg.norm(approx - exact) / np.linalg.norm(exact))


# ---------------------------------------------------------------------------
# Mittag-Leffler references


@lru_cache(maxsize=1)
def ml_table() -> dict:
    with open(ML_TABLE, "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    return {tuple(float(s) for s in key.split("|")): val for key, val in raw.items()}


@lru_cache(maxsize=1)
def _ml_reference_module():
    spec = importlib.util.spec_from_file_location("ml_reference", ML_REFERENCE_MODULE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@lru_cache(maxsize=None)
def ml_reference(alpha: float, beta: float, z: float) -> float:
    """E_{alpha,beta}(z) from the frozen table, else from the mpmath evaluator."""
    hit = ml_table().get((alpha, beta, -z))
    if hit is not None:
        return hit
    return _ml_reference_module().ml_reference(alpha, beta, z)


def ml_tolerance(z: float) -> float:
    """Criterion-01 relative tolerances: 1e-10 for |z| <= 100, 1e-8 beyond."""
    return 1e-10 if abs(z) <= 100.0 else 1e-8


# ---------------------------------------------------------------------------
# closed forms


def forward_trace_half(g_modes: dict, x0: float, intercept: float, slope: float,
                       t: np.ndarray) -> np.ndarray:
    """u(x0, t) for alpha = 1/2 and rho = intercept + slope t, exactly.

    Mode n contributes g_n phi_n(x0) [a t^(1/2) E_{1/2,3/2}(-y) +
    b t^(3/2) E_{1/2,5/2}(-y)] with y = lambda_n t^(1/2); the two
    functions follow from exp(y^2) erfc(y) by E_{a,b}(z) = 1/Gamma(b) +
    z E_{a,a+b}(z).  Forty digits absorb the cancellation of the
    recurrence.
    """
    import mpmath

    out = np.zeros_like(t)
    with mpmath.workdps(40):
        for k, tk in enumerate(t):
            if tk == 0.0:
                continue
            st = mpmath.sqrt(mpmath.mpf(tk))
            acc = mpmath.mpf(0)
            for n, gn in g_modes.items():
                lam = (n * mpmath.pi) ** 2
                y = lam * st
                e1 = mpmath.exp(y * y) * mpmath.erfc(y)
                e32 = (e1 - 1) / (-y)
                e2 = (e32 - 1 / mpmath.gamma(mpmath.mpf(3) / 2)) / (-y)
                e52 = (e2 - 1) / (-y)
                phi = mpmath.sqrt(2) * mpmath.sin(n * mpmath.pi * x0)
                acc += gn * phi * (intercept * st * e32 + slope * st**3 * e52)
            out[k] = float(acc)
    return out


def final_data_peak(coeffs: np.ndarray, rho0: float, alpha: float) -> float:
    """max_n |u_n(T)| for constant rho = rho0, without the program.

    u_n(T) = g_n rho0 (1 - E_alpha(-lambda_n)) / lambda_n, and
    0 <= 1 - E_alpha(-x) <= 1, so |g_n| rho0 / lambda_n bounds mode n.
    Modes are evaluated exactly, largest bound first, until no remaining
    bound can beat the running maximum.
    """
    lam = (np.arange(1, coeffs.shape[0] + 1) * math.pi) ** 2
    bounds = np.abs(coeffs) * rho0 / lam
    best = 0.0
    for i in np.argsort(-bounds):
        if bounds[i] <= best:
            break
        e = ml_reference(alpha, 1.0, -float(lam[i]))
        best = max(best, abs(coeffs[i]) * rho0 * (1.0 - e) / lam[i])
    return best
