"""Two-parameter Mittag-Leffler function on the negative real axis.

E_{a,b}(z) = sum_k z^k / Gamma(a*k + b).  `ml_eval_array` evaluates it on
whole arrays; `ml_eval` is its one-element form.  With the cancellation
scale x = |z|^(1/a), the regimes for 0 < a < 1 are

* z = 0: 1/Gamma(b); 0 < z <= 1: the double-precision power series,
* x < 35: the inverse Laplace transform of s^(a-b)/(s^a - z) by the
  trapezoid rule on the fixed parabola s(u) = mu (1 + iu)^2 (Garrappa,
  SIAM J. Numer. Anal. 53(3), 2015; Weideman & Trefethen, Math. Comp.
  76, 2007); s^a never equals z <= 0 on the principal sheet, so one
  contour serves every argument,
* x >= 35: the algebraic asymptotic expansion -sum_k z^{-k}/Gamma(b - a*k)
  at envelope-based optimal truncation, summed by Horner's rule over
  sorted blocks of arguments; points whose truncation error misses the
  target fall back to the contour.

For 1 <= a < 2 or b > 3 (reached only from the `ml-eval` mode) values are
computed one at a time: the power series while x <= 4, the asymptotic expansion
(plus the saddle-point exponential term) where it meets the target, and
otherwise the power series in extended precision (stdlib ``decimal``, with
a Spouge gamma evaluated in the same precision).

Only real z <= 1 is supported; the diffusion solvers feed in z <= 0.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from decimal import Decimal, localcontext
from functools import lru_cache

import numpy as np

__all__ = [
    "MLParams",
    "MLConvergenceError",
    "ml_eval",
    "ml_eval_array",
    "ml_decay_constant",
]

_SERIES_EPS = 1e-17
_SERIES_MAX_TERMS = 10_000
# cancellation scale x = |z|^(1/alpha); largest term of the series ~ e^x
_DOUBLE_SERIES_MAX_X = 4.0
_DECIMAL_SERIES_MAX_X = 700.0
# below this x the omitted exponentially small part of the asymptotic
# expansion for alpha < 1 (~ exp(-0.9 x)) is not negligible
_ASYMPTOTIC_MIN_X = 35.0
_ASYMPTOTIC_REL_TOL = 1e-13
_ASYMPTOTIC_MAX_TERMS = 399
# parabolic contour s(u) = mu (1 + iu)^2 sampled at u = 0, h, ..., (n-1) h;
# with mu fixed, e^s s^(-beta) cancels too much beyond beta = 3 (rel. error
# 7e-13 at beta = 3.5 against 7e-14 at 3)
_CONTOUR_MAX_BETA = 3.0
_CONTOUR_MU = 2.0
_CONTOUR_H = 0.15
_CONTOUR_NODES = 32
# arguments per block: the (block, nodes) float temporaries stay at 512 KiB
_BLOCK = 2048


class MLConvergenceError(ArithmeticError):
    """Series failed to converge within the term cap."""


@dataclass(frozen=True)
class MLParams:
    """Order pair (alpha, beta) of E_{alpha,beta}."""

    alpha: float
    beta: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.alpha) and 0.0 < self.alpha < 2.0):
            raise ValueError(f"alpha must lie in (0, 2), got {self.alpha}")
        if not (math.isfinite(self.beta) and self.beta > 0.0):
            raise ValueError(f"beta must be positive, got {self.beta}")


def _rgamma(x: float) -> float:
    """1 / Gamma(x) for real x, with zeros at the poles x = 0, -1, -2, ..."""
    if x > 0.0:
        if x > 171.0:
            return 0.0  # Gamma overflows; reciprocal underflows
        return 1.0 / math.gamma(x)
    if x == math.floor(x):
        return 0.0
    # reflection: 1/Gamma(x) = Gamma(1-x) sin(pi x) / pi
    log_mag = math.lgamma(1.0 - x)
    s = math.sin(math.pi * x)
    if log_mag > 700.0:
        return math.inf if s > 0 else -math.inf
    return math.exp(log_mag) * s / math.pi


def _series_double(alpha: float, beta: float, z: float) -> float:
    """Defining power series with compensated summation."""
    total = _rgamma(beta)
    comp = 0.0
    term = 1.0
    for k in range(1, _SERIES_MAX_TERMS):
        term *= z
        t = term * _rgamma(alpha * k + beta)
        y = t - comp
        s = total + y
        comp = (s - total) - y
        total = s
        if abs(t) < _SERIES_EPS * abs(total) and k > 2:
            return total
    raise MLConvergenceError(
        f"series for E_({alpha},{beta})({z}) did not converge in "
        f"{_SERIES_MAX_TERMS} terms"
    )


# ---------------------------------------------------------------------------
# extended-precision series (decimal + Spouge gamma)


def _pi_decimal() -> Decimal:
    """pi at the current decimal context precision (Machin-like series)."""
    with localcontext() as ctx:
        ctx.prec += 4
        three = Decimal(3)
        lasts, t, s, n, na, d, da = Decimal(0), three, Decimal(3), 1, 0, 0, 24
        while s != lasts:
            lasts = s
            n, na = n + na, na + 8
            d, da = d + da, da + 32
            t = (t * n) / d
            s += t
    return +s


@lru_cache(maxsize=None)
def _spouge_coeffs(a: int, prec: int) -> tuple[Decimal, ...]:
    with localcontext() as ctx:
        ctx.prec = prec + 10
        half = Decimal(1) / 2
        c0 = (2 * _pi_decimal()).sqrt()
        coeffs = [c0]
        fact = Decimal(1)
        for k in range(1, a):
            if k > 1:
                fact *= k - 1
            ak = Decimal(a - k)
            c = ak ** (Decimal(k) - half) * ak.exp() / fact
            if k % 2 == 0:
                c = -c
            coeffs.append(c)
    return tuple(coeffs)


def _spouge_core(x: Decimal, a: int, prec: int) -> Decimal:
    """Spouge approximation of Gamma(x), accurate for x in [1, 2)."""
    coeffs = _spouge_coeffs(a, prec)
    with localcontext() as ctx:
        ctx.prec = prec + 10
        half = Decimal(1) / 2
        zz = x - 1
        acc = coeffs[0]
        for k in range(1, a):
            acc += coeffs[k] / (zz + k)
        base = zz + a
        return base ** (zz + half) * (-base).exp() * acc


def _gamma_decimal(x: Decimal, a: int, prec: int) -> Decimal:
    """Gamma(x) for x > 0 in decimal arithmetic.

    The coefficient sum of the Spouge formula cancels badly away from the
    base interval, so the argument is reduced to [1, 2) and climbed back
    up with the recurrence Gamma(x + 1) = x Gamma(x).
    """
    with localcontext() as ctx:
        ctx.prec = prec + 10
        if x < 1:
            return _gamma_decimal(x + 1, a, prec) / x
        m = int(x) - 1
        y = x - m
        fac = Decimal(1)
        for j in range(m):
            fac *= y + j
        return _spouge_core(y, a, prec) * fac


_gamma_tables: dict[tuple[float, float, int], list[Decimal]] = {}
_gamma_tables_lock = threading.Lock()


def _gamma_table(alpha: float, beta: float, prec: int, n: int) -> list[Decimal]:
    """Incrementally extended cache of Gamma(alpha*k + beta) at `prec` digits.

    The table is shared between threads, so it is extended under a lock;
    entries already present never change.
    """
    with _gamma_tables_lock:
        tab = _gamma_tables.setdefault((alpha, beta, prec), [])
        if len(tab) <= n:
            a = int(prec / 0.79) + 3
            da, db = Decimal(alpha), Decimal(beta)
            with localcontext() as ctx:
                # the argument alpha*k + beta must carry full working precision;
                # the default context would truncate it to 28 digits
                ctx.prec = prec + 10
                while len(tab) <= n:
                    tab.append(_gamma_decimal(da * len(tab) + db, a, prec))
    return tab


def _series_decimal(alpha: float, beta: float, z: float, x_scale: float) -> float:
    prec = 30 + int(0.52 * x_scale)
    with localcontext() as ctx:
        ctx.prec = prec + 10
        dz = Decimal(z)
        total = Decimal(0)
        zpow = Decimal(1)
        max_term = Decimal(0)
        stop = Decimal(10) ** -(prec - 5)
        for k in range(_SERIES_MAX_TERMS):
            tab = _gamma_table(alpha, beta, prec, k)
            t = zpow / tab[k]
            total += t
            at = abs(t)
            if at > max_term:
                max_term = at
            if k > 2 and at < stop * max_term:
                return float(total)
            zpow *= dz
    raise MLConvergenceError(
        f"extended-precision series for E_({alpha},{beta})({z}) did not "
        f"converge in {_SERIES_MAX_TERMS} terms"
    )


# ---------------------------------------------------------------------------
# asymptotic expansion for large -z


def _readonly(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@lru_cache(maxsize=256)
def _asymptotic_coeffs(alpha: float, beta: float) -> tuple[np.ndarray, np.ndarray]:
    """Coefficients of the expansion in 1/eta, eta = -z, and their envelopes.

    Term k = 1, 2, ... is c[k-1] eta^-k with c[k-1] = (-1)^(k+1) / Gamma(beta -
    alpha*k); its smooth size envelope is exp(log_env[k-1] - k log eta).  The
    arrays end before the first coefficient that overflows.
    """
    c: list[float] = []
    log_env: list[float] = []
    for k in range(1, _ASYMPTOTIC_MAX_TERMS + 1):
        x = beta - alpha * k
        # snap float round-off onto the exact poles of Gamma, where the
        # term vanishes; otherwise a ~1e-17 residue derails the truncation
        if x <= 0.5 and abs(x - round(x)) < 1e-9:
            r = 0.0
        else:
            r = _rgamma(x)
        if math.isinf(r):
            break
        c.append(r if k % 2 == 1 else -r)
        # |1/Gamma(x)| <= Gamma(1-x)/pi for x <= 1/2 (reflection with
        # |sin| <= 1); near-pole dips of the actual term must not be mistaken
        # for the optimal truncation point
        if x <= 0.5:
            log_env.append(math.lgamma(1.0 - x) - math.log(math.pi))
        else:
            log_env.append(math.log(r) if r > 0.0 else -math.inf)
    return _readonly(np.array(c)), _readonly(np.array(log_env))


def _envelope(log_env, k, log_eta):
    """exp(log_env - k log_eta), infinite once the exponent reaches 700."""
    e = log_env - k * log_eta
    return np.where(e < 700.0, np.exp(np.minimum(e, 700.0)), math.inf)


def _truncation(log_env: np.ndarray, log_eta: float) -> tuple[int, int]:
    """Optimal truncation of the expansion at one eta.

    Returns (index of the last kept term, index of the term whose envelope
    estimates the error), both 0-based.  The envelope is scanned until it
    rises tenfold above its running minimum or falls below 1e-25, and the
    terms up to its first global minimum are kept: the reflection formula
    makes |Gamma(beta - alpha*k)| oscillate, so the first local increase is
    not the optimum.  The error term is the next envelope scanned, or the
    minimum itself when the scan ended there.
    """
    env = _envelope(log_env, np.arange(1, log_env.size + 1), log_eta)
    stops = np.flatnonzero((env > 10.0 * np.minimum.accumulate(env)) | (env < 1e-25))
    n = int(stops[0]) + 1 if stops.size else env.size
    best = int(np.argmin(env[:n]))
    return best, best + 1 if best + 1 < n else best


def _asymptotic_array(
    alpha: float, beta: float, eta: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Algebraic expansion at every eta = -z > 0, at optimal truncation.

    Returns (values, absolute error estimates).  The arguments are sorted
    and summed by Horner's rule in 1/eta in blocks, each truncated where the
    scan puts the optimum for its smallest eta.  A larger eta shrinks every
    term, so the kept terms stay accurate for the whole block; each point's
    error estimate is the envelope of its own first omitted term.
    """
    c, log_env = _asymptotic_coeffs(alpha, beta)
    order = np.argsort(eta)
    val = np.empty(eta.shape)
    err = np.empty(eta.shape)
    for lo in range(0, eta.size, _BLOCK):
        idx = order[lo : lo + _BLOCK]
        e = eta[idx]
        log_e = np.log(e)
        best, last = _truncation(log_env, float(log_e[0]))
        w = 1.0 / e
        p = np.full(e.shape, c[best])
        for j in range(best - 1, -1, -1):
            p = p * w + c[j]
        val[idx] = p * w
        err[idx] = _envelope(log_env[last], last + 1, log_e)
    return val, err


def _asymptotic(alpha: float, beta: float, z: float) -> tuple[float, float]:
    """The expansion at one z < 0: (value, absolute error estimate).

    For alpha >= 1 the exponentially damped saddle-point term is added
    explicitly, since near alpha = 2 it decays too slowly to ignore.
    """
    eta = -z
    val, err = _asymptotic_array(alpha, beta, np.array([eta]))
    total = float(val[0])
    if alpha >= 1.0:
        c = eta ** (1.0 / alpha)
        ang = math.pi / alpha
        root_weight = 1.0 if alpha == 1.0 else 2.0
        total += (
            (root_weight / alpha)
            * c ** (1.0 - beta)
            * math.exp(c * math.cos(ang))
            * math.cos(c * math.sin(ang) + (1.0 - beta) * ang)
        )
    return total, float(err[0])


# ---------------------------------------------------------------------------
# inverse Laplace transform on a parabolic contour


@lru_cache(maxsize=256)
def _contour(alpha: float, beta: float) -> tuple[np.ndarray, ...]:
    """Nodes s^alpha and trapezoid weights of the contour integral.

    E(z) = (1/2 pi i) int e^s s^(alpha-beta) / (s^alpha - z) ds along
    s(u) = mu (1 + iu)^2; the integrand at -u is minus the conjugate of the
    one at u, so E(z) = (h/pi) Im sum' w_k / (s_k^alpha - z) over u_k >= 0
    with w_k = e^s s^(alpha-beta) s'(u) at u_k and the u = 0 term halved.
    Returned as real and imaginary parts (Re s^alpha, Im s^alpha, Re w, Im w).
    """
    u = _CONTOUR_H * np.arange(_CONTOUR_NODES)
    s = _CONTOUR_MU * (1.0 + 1j * u) ** 2
    ds = 2j * _CONTOUR_MU * (1.0 + 1j * u)
    w = (_CONTOUR_H / math.pi) * np.exp(s) * s ** (alpha - beta) * ds
    w[0] *= 0.5
    sa = s**alpha
    return tuple(_readonly(a.copy()) for a in (sa.real, sa.imag, w.real, w.imag))


def _contour_eval(alpha: float, beta: float, z: np.ndarray) -> np.ndarray:
    """E_{alpha,beta}(z) for 0 < alpha < 1 and z <= 0 by the contour rule."""
    ar, ai, wr, wi = _contour(alpha, beta)
    out = np.empty(z.shape)
    for lo in range(0, z.size, _BLOCK):
        # Im(w / (s^alpha - z)) in real arithmetic
        dr = ar - z[lo : lo + _BLOCK, None]
        out[lo : lo + _BLOCK] = ((wi * dr - wr * ai) / (dr * dr + ai * ai)).sum(axis=1)
    return out


# ---------------------------------------------------------------------------
# evaluation


def _eval(alpha: float, beta: float, z: float) -> float:
    """Scalar evaluation, for 1 <= alpha < 2 or beta > 3."""
    if z == 0.0:
        return _rgamma(beta)
    if alpha == 1.0 and beta == 1.0:
        return math.exp(z)
    if z > 0.0:
        return _series_double(alpha, beta, z)

    eta = -z
    try:
        x_scale = eta ** (1.0 / alpha)
    except OverflowError:
        x_scale = math.inf
    if x_scale <= _DOUBLE_SERIES_MAX_X:
        return _series_double(alpha, beta, z)

    val, err = _asymptotic(alpha, beta, z)
    scale = max(abs(val), abs(_rgamma(beta)) / (1.0 + eta))
    if err <= _ASYMPTOTIC_REL_TOL * scale and (alpha >= 1.0 or x_scale >= _ASYMPTOTIC_MIN_X):
        return val
    if x_scale <= _DECIMAL_SERIES_MAX_X:
        return _series_decimal(alpha, beta, z, x_scale)
    if err > 1e-8 * scale:
        raise MLConvergenceError(
            f"no evaluation regime reaches the accuracy target for "
            f"E_({alpha},{beta})({z})"
        )
    return val


@lru_cache(maxsize=1 << 18)
def _eval_cached(alpha: float, beta: float, z: float) -> float:
    return _eval(alpha, beta, z)


def ml_eval_array(alpha: float, beta: float, z) -> np.ndarray:
    """E_{alpha,beta}(z) elementwise for real z <= 0 (z <= 1 is tolerated).

    Returns a float array of the shape of z.  Raises ValueError for an
    order pair outside MLParams' range or a non-finite or too large z.
    """
    MLParams(alpha, beta)
    z = np.asarray(z, dtype=float)
    if not np.all(np.isfinite(z)):
        raise ValueError("arguments must be finite")
    if np.any(z > 1.0):
        raise ValueError(f"only z <= 1 is supported, got {float(np.max(z))}")
    flat = z.ravel()
    if alpha >= 1.0 or beta > _CONTOUR_MAX_BETA:
        vals = [_eval_cached(alpha, beta, float(v)) for v in flat]
        return np.array(vals, dtype=float).reshape(z.shape)
    out = np.empty(flat.shape)
    out[flat == 0.0] = _rgamma(beta)
    for i in np.flatnonzero(flat > 0.0):
        out[i] = _series_double(alpha, beta, float(flat[i]))
    neg = np.flatnonzero(flat < 0.0)
    eta = -flat[neg]
    far = eta >= _ASYMPTOTIC_MIN_X**alpha
    val, err = _asymptotic_array(alpha, beta, eta[far])
    scale = np.maximum(np.abs(val), abs(_rgamma(beta)) / (1.0 + eta[far]))
    ok = err <= _ASYMPTOTIC_REL_TOL * scale
    out[neg[far][ok]] = val[ok]
    near = np.concatenate((neg[~far], neg[far][~ok]))
    out[near] = _contour_eval(alpha, beta, flat[near])
    return out.reshape(z.shape)


def ml_eval(p: MLParams, z: float) -> float:
    """E_{alpha,beta}(z) for real z <= 0 (a guard of z <= 1 is tolerated)."""
    return float(ml_eval_array(p.alpha, p.beta, (z,))[0])


def ml_decay_constant(p: MLParams, eta_grid) -> float:
    """Empirical constant sup (1+eta) |E_{alpha,beta}(-eta)| over the grid.

    This is the constant C of the decay bound |E(-eta)| <= C/(1+eta).
    """
    etas = np.asarray(list(eta_grid), dtype=float)
    if etas.size == 0:
        raise ValueError("eta_grid must be non-empty")
    if np.any(etas < 0):
        raise ValueError("eta_grid entries must be >= 0")
    return float(np.max(np.abs(ml_eval_array(p.alpha, p.beta, -etas)) * (1.0 + etas)))
