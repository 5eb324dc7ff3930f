"""Two-parameter Mittag-Leffler function on the negative real axis.

E_{a,b}(z) = sum_k z^k / Gamma(a*k + b) for every order 0 < a < 2, b > 0,
evaluated on whole arrays by `ml_eval_array` (`ml_eval` is its one-element
form).  With the cancellation scale x = |z|^(1/a), each value comes from
the first of

* z = 0: 1/Gamma(b); 0 < z <= 1: the compensated power series, which for
  a >= 1 or b > 3 is tried at z < 0 too, where at most one digit cancels,
* the asymptotic expansion -sum_k z^{-k}/Gamma(b - a*k) at envelope-based
  optimal truncation, by Horner's rule over sorted blocks of arguments,
  plus for a >= 1 the residues at the poles s = x e^(+-i pi/a), where it
  meets its target (for a < 1 from x = 35 on),
* for b > 3, the recurrence E_{a,b}(z) = (E_{a,b-a}(z) - 1/Gamma(b-a))/z,
* the trapezoid rule for the inverse Laplace transform of s^(a-b)/(s^a - z)
  on the parabola s(u) = mu (1 + iu)^2 (Garrappa, SIAM J. Numer. Anal.
  53(3), 2015; Weideman & Trefethen, Math. Comp. 76, 2007): one fixed
  contour for a <= 1, where s^a never equals z <= 0 on the principal sheet;
  for 1 < a < 2, mu, h and the nodes follow the poles.  Beyond -z = 1e150,
  where the contour would overflow, MLConvergenceError is raised instead.

Only real z <= 1 is supported; the diffusion solvers feed in z <= 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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
# powers z^k formed at once for each unfinished sum: the first chunk, and
# the most once chunks have doubled.  Every term of a chunk is summed, so a
# sum that stops just past 16 terms sums 48: on 2000 arguments 16 then 32
# costs 5-24% less per value than 32 from the start (three of four orders),
# but one argument at (1.5, 1.0), z = -3, which stops at k = 17, costs 28% more
_SERIES_FIRST_CHUNK = 16
_SERIES_CHUNK = 32
# for alpha >= 1 or beta > 3 the series is kept while its largest term is at
# most this multiple of the sum; at 1e3 the recurrence and the contour lose to it
# (rel. error 1.7e-11 against 9e-13 on 1800 points, x < 40)
_SERIES_MAX_CANCEL = 10.0
# below this x the omitted exponentially small part of the asymptotic
# expansion for alpha < 1 (~ exp(-0.9 x)) is not negligible
_ASYMPTOTIC_MIN_X = 35.0
_ASYMPTOTIC_REL_TOL = 1e-13
_ASYMPTOTIC_MAX_TERMS = 399
# the truncation scan stops at terms below 1e-25 times the leading one
_LOG_FLOOR = math.log(1e-25)
# parabolic contour s(u) = mu (1 + iu)^2 sampled at u = 0, h, ..., (n-1) h;
# with mu fixed, e^s s^(-beta) cancels too much beyond beta = 3 (rel. error
# 7e-13 at beta = 3.5 against 7e-14 at 3).  h = 0.15 with the singularities
# 1 off the real u-axis makes the discretisation error e^(-2 pi/h) ~ 6e-19;
# 32 nodes reach u where e^s has fallen by as much.
_CONTOUR_MAX_BETA = 3.0
_CONTOUR_MU = 2.0
_CONTOUR_H = 0.15
_CONTOUR_NODES = 32
# least distance, in u, of the poles from the contour for 1 < alpha < 2
_POLE_MARGIN = 0.5
# the contour rule squares s^alpha - z, which must not overflow
_CONTOUR_MAX_ETA = 1e150
# arguments per block: the (block, 32 nodes) float temporaries stay at 512 KiB
_BLOCK = 2048


class MLConvergenceError(ArithmeticError):
    """No evaluation regime reaches the accuracy target."""


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


def _readonly(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _series_double(alpha: float, beta: float, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Defining power series at every z, with compensated summation.

    Returns (sums, largest |term|).  Each sum stops at its first term below
    1e-17 of it, past k = 2, or at its first term out of double range (z^k
    or Gamma(alpha*k + beta) overflows), which drops out unsummed and makes
    the largest term infinite.  Powers come a chunk at a time, but are added
    one k at a time; chunks start at _SERIES_FIRST_CHUNK terms and double up
    to _SERIES_CHUNK, so a sum that stops in the first chunk forms no more.
    """
    val, big = np.empty(z.shape), np.full(z.shape, math.inf)
    live, term, comp = np.arange(z.size), np.ones(z.shape), np.zeros(z.shape)
    total, biggest = np.full(z.shape, _rgamma(beta)), np.full(z.shape, abs(_rgamma(beta)))
    ks = range(1, 1)
    with np.errstate(over="ignore", invalid="ignore"):
        while live.size and ks.stop < _SERIES_MAX_TERMS:
            size = min(2 * len(ks), _SERIES_CHUNK) or _SERIES_FIRST_CHUNK
            ks = range(ks.stop, min(ks.stop + size, _SERIES_MAX_TERMS))
            r = np.array([_rgamma(alpha * k + beta) for k in ks])[:, None]
            powers = np.full((len(ks), live.size), z[live])
            powers[0] *= term
            np.cumprod(powers, axis=0, out=powers)
            term, t = powers[-1], powers * r
            bad = ~np.isfinite(t) | (r == 0.0)
            t[bad] = 0.0
            sums = np.empty(t.shape)
            for tk, sk in zip(t, sums):
                y = tk - comp
                np.add(total, y, out=sk)
                comp, total = (sk - total) - y, sk
            at = np.abs(t)
            peak = np.maximum(np.maximum.accumulate(at, axis=0), biggest)
            stop = bad | ((at < _SERIES_EPS * np.abs(sums)) & (np.array(ks)[:, None] > 2))
            first, cols = np.argmax(stop, axis=0), np.arange(live.size)
            done, conv = stop[first, cols], stop[first, cols] & ~bad[first, cols]
            val[live[done]], big[live[conv]] = sums[first[done], done], peak[first[conv], conv]
            live, term, total, comp, biggest = (a[~done] for a in (live, term, total, comp, peak[-1]))
    if live.size:
        msg = f"series for E_({alpha},{beta})(z) did not converge in {_SERIES_MAX_TERMS} terms"
        raise MLConvergenceError(f"{msg} at z = {float(z[live[0]])}")
    return val, big


# ---------------------------------------------------------------------------
# asymptotic expansion for large -z


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


def _envelope(e):
    """exp(e) for e = log_env - k log_eta, infinite once e reaches 700."""
    return np.where(e < 700.0, np.exp(np.minimum(e, 700.0)), math.inf)


def _truncation(log_env: np.ndarray, log_eta: float) -> tuple[int, int]:
    """Optimal truncation of the expansion at one eta.

    Returns (index of the last kept term, index of the term whose envelope
    estimates the error), both 0-based.  The envelope is scanned until it
    rises tenfold above its running minimum or falls below 1e-25 times the
    leading term's, and the terms up to its first global minimum are kept:
    the reflection formula makes |Gamma(beta - alpha*k)| oscillate, so the
    first local increase is not the optimum.  The error term is the next
    envelope scanned, or the minimum itself when the scan ended there.
    """
    e = log_env - np.arange(1, log_env.size + 1) * log_eta
    env = _envelope(e)
    # the floor is compared in logarithms: near eta = 1e300 envelopes underflow
    stops = np.flatnonzero((env > 10.0 * np.minimum.accumulate(env)) | (e < e[0] + _LOG_FLOOR))
    n = int(stops[0]) + 1 if stops.size else env.size
    best = int(np.argmin(env[:n]))
    return best, best + 1 if best + 1 < n else best


def _pole_terms(alpha: float, beta: float, x: np.ndarray, weight: float):
    """(weight/alpha) Re(e^p p^(1-beta)) at every p = x e^(i pi/alpha), and its size.

    With weight 2 this is the sum of the residues of e^s s^(alpha-beta) /
    (s^alpha - z) at its two poles p and conj(p), where s^alpha = z = -x^alpha;
    the size leaves out the cosine.
    """
    ang = math.pi / alpha
    size = (weight / alpha) * x ** (1.0 - beta) * np.exp(x * math.cos(ang))
    return size * np.cos(x * math.sin(ang) + (1.0 - beta) * ang), size


def _asymptotic_array(alpha: float, beta: float, eta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Algebraic expansion at every eta = -z > 0, at optimal truncation.

    Returns (values, absolute error estimates).  The arguments are sorted
    and summed by Horner's rule in 1/eta in blocks, each truncated where the
    scan puts the optimum for its smallest eta.  A larger eta shrinks every
    term, so the kept terms stay accurate for the whole block; each point's
    error estimate is the envelope of its own first omitted term.

    For alpha >= 1 the exponentially damped pole terms are added explicitly,
    since near alpha = 2 they decay too slowly to ignore; at alpha = 1 the
    two poles are one.  For alpha > 1 the expansion's own error has a part
    as large as the pole terms, which the envelope misses (just above
    alpha = 1 the algebraic terms nearly vanish), so the estimate adds it.
    """
    c, log_env = _asymptotic_coeffs(alpha, beta)
    order = np.argsort(eta)
    ascending = eta[order]
    val, err = np.empty(eta.shape), np.empty(eta.shape)
    lo = 0
    while lo < eta.size:
        # for alpha >= 1 the expansion is tried down to x -> 0, where the
        # optimum moves fast: a block there spans one octave of x at most
        octave = eta.size if alpha < 1.0 else np.searchsorted(ascending, ascending[lo] * 2.0**alpha, "right")
        idx = order[lo : min(lo + _BLOCK, int(octave))]
        lo += idx.size
        e = eta[idx]
        log_e = np.log(e)
        best, last = _truncation(log_env, float(log_e[0]))
        w = 1.0 / e
        val[idx] = np.polyval(c[best::-1], w) * w
        err[idx] = _envelope(log_env[last] - (last + 1) * log_e)
    if alpha >= 1.0:
        poles, size = _pole_terms(alpha, beta, eta ** (1.0 / alpha), 1.0 if alpha == 1.0 else 2.0)
        val, err = val + poles, err + size if alpha > 1.0 else err
    return val, err


# ---------------------------------------------------------------------------
# inverse Laplace transform on a parabolic contour


@lru_cache(maxsize=256)
def _contour(alpha: float, beta: float, mu: float, h: float, nodes: int) -> tuple[np.ndarray, ...]:
    """Nodes s^alpha and trapezoid weights of the contour integral.

    E(z) = (1/2 pi i) int e^s s^(alpha-beta) / (s^alpha - z) ds along
    s(u) = mu (1 + iu)^2; the integrand at -u is minus the conjugate of the
    one at u, so E(z) = (h/pi) Im sum' w_k / (s_k^alpha - z) over u_k >= 0
    with w_k = e^s s^(alpha-beta) s'(u) at u_k and the u = 0 term halved.
    Poles of the integrand outside the parabola are left out.  Returned as
    real and imaginary parts (Re s^alpha, Im s^alpha, Re w, Im w).  For
    alpha > 1 they are formed in np.longdouble: at alpha 1-1.5 the worst
    error in scripts/ml_accuracy.py is then 3e-15, against 2e-14 in double.
    """
    u = h * np.arange(nodes, dtype=np.longdouble if alpha > 1.0 else float)
    s = mu * (1.0 + 1j * u) ** 2
    ds = 2j * mu * (1.0 + 1j * u)
    w = (h / math.pi) * np.exp(s) * s ** (alpha - beta) * ds
    w[0] *= 0.5
    sa = s**alpha
    return tuple(_readonly(a.copy()) for a in (sa.real, sa.imag, w.real, w.imag))


def _contour_eval(contour: tuple[np.ndarray, ...], z: np.ndarray) -> np.ndarray:
    """The rule of one `_contour` at every z <= 0."""
    ar, ai, wr, wi = contour
    out = np.empty(z.shape)
    for lo in range(0, z.size, _BLOCK):
        # Im(w / (s^alpha - z)) in real arithmetic
        dr = ar - z[lo : lo + _BLOCK, None]
        out[lo : lo + _BLOCK] = ((wi * dr - wr * ai) / (dr * dr + ai * ai)).sum(axis=1)
    return out


def _contour_array(alpha: float, beta: float, z: np.ndarray) -> np.ndarray:
    """The contour rule at every z < 0, with mu, h and the nodes set per argument.

    On s = mu (1 + iu)^2 the branch point s = 0 lies at Im u = 1 and, for
    1 < alpha < 2, the poles p = x e^(+-i pi/alpha), x = (-z)^(1/alpha), at
    Im u = 1 - sqrt(x/mu) cos(pi/(2 alpha)).  The fixed mu stays while the
    poles lie 0.5 or more inside; otherwise mu drops until they lie 0.5 or
    more outside, and their residues are added.  h scales with the distance
    of the nearest singularity, so the error stays that of the fixed rule.
    Both are rounded down to a power of 2^(1/8) times the fixed ones, which
    keeps those bounds, so the arguments share a few cached contours.
    """
    if alpha <= 1.0:
        return _contour_eval(_contour(alpha, beta, _CONTOUR_MU, _CONTOUR_H, _CONTOUR_NODES), z)
    x = (-z) ** (1.0 / alpha)
    r = x * math.cos(math.pi / (2.0 * alpha)) ** 2 / _CONTOUR_MU
    close = np.sqrt(r) > 1.0 - _POLE_MARGIN
    mu_steps = np.floor(8.0 * np.log2(np.where(close, np.minimum(1.0, r / (1.0 + _POLE_MARGIN) ** 2), 1.0)))
    pole = np.sqrt(r / 2.0 ** (mu_steps / 8.0))
    h_steps = np.floor(8.0 * np.log2(np.minimum(1.0, np.abs(1.0 - pole))))
    groups, which = np.unique(mu_steps + 1j * h_steps, return_inverse=True)
    out = np.empty(z.shape)
    for g, key in enumerate(groups):
        mu, h = _CONTOUR_MU * 2.0 ** (key.real / 8.0), _CONTOUR_H * 2.0 ** (key.imag / 8.0)
        nodes = math.ceil(math.sqrt(1.0 + 2.0 * math.pi / (_CONTOUR_H * mu)) / h)
        out[which == g] = _contour_eval(_contour(alpha, beta, mu, h, nodes), z[which == g])
    return out + np.where(pole > 1.0, _pole_terms(alpha, beta, x, 2.0)[0], 0.0)


# ---------------------------------------------------------------------------
# evaluation


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
    if alpha == 1.0 and beta == 1.0:
        return np.exp(flat).reshape(z.shape)
    out = np.full(flat.shape, _rgamma(beta))
    todo = flat != 0.0
    # the series serves 0 < z <= 1, and z < 0 outside the solvers' orders
    idx = np.flatnonzero((flat > 0.0) | (todo & (alpha >= 1.0 or beta > _CONTOUR_MAX_BETA)))
    if idx.size:
        val, biggest = _series_double(alpha, beta, flat[idx])
        ok = (flat[idx] > 0.0) | (biggest / _SERIES_MAX_CANCEL <= np.abs(val))
        out[idx[ok]], todo[idx[ok]] = val[ok], False
    far = np.flatnonzero(todo & ((flat <= -(_ASYMPTOTIC_MIN_X**alpha)) | (alpha >= 1.0)))
    val, err = _asymptotic_array(alpha, beta, -flat[far])
    ok = err <= _ASYMPTOTIC_REL_TOL * np.maximum(np.abs(val), abs(_rgamma(beta)) / (1.0 - flat[far]))
    out[far[ok]], todo[far[ok]] = val[ok], False
    zr = flat[todo]
    if zr.size and beta > _CONTOUR_MAX_BETA:
        out[todo] = (ml_eval_array(alpha, beta - alpha, zr) - _rgamma(beta - alpha)) / zr
    elif zr.size:
        if -zr.min() > _CONTOUR_MAX_ETA:
            raise MLConvergenceError(
                f"no evaluation regime reaches the accuracy target for E_({alpha},{beta})(z) "
                f"at z = {float(zr.min())}"
            )
        out[todo] = _contour_array(alpha, beta, zr)
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
