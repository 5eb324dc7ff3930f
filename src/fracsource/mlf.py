"""Two-parameter Mittag-Leffler function on the negative real axis.

E_{a,b}(z) = sum_k z^k / Gamma(a*k + b) at the orders the solvers use,
0 < a < 1 with 0 < b <= 3, and at (1, 1), where it is exp(z); evaluated
on whole arrays by `ml_eval_array` (`ml_eval` is its one-element form),
which is the one-beta case of `_ml_eval_betas`.  A value depends on its
argument and order alone, so it has the same bits in any call, shape or
order.  With the cancellation scale x = |z|^(1/a), each value comes from

* z = 0: 1/Gamma(b); 0 < z <= 1: the compensated power series,
* x >= 35: the asymptotic expansion -sum_k z^{-k}/Gamma(b - a*k),
  truncated where the term envelope is least at the lower edge of the
  argument's octave of x (memoised per order and octave), where it meets
  its target,
* otherwise the trapezoid rule for the inverse Laplace transform of
  s^(a-b)/(s^a - z) on one fixed parabola s(u) = mu (1 + iu)^2 (Garrappa,
  SIAM J. Numer. Anal. 53(3), 2015; Weideman & Trefethen, Math. Comp. 76,
  2007): for a < 1, s^a never equals z <= 0 on the principal sheet, so
  the integrand has no poles.  Beyond -z = 1e150, where the contour would
  overflow, MLConvergenceError is raised instead.

Only real z <= 1 is supported; the diffusion solvers feed in z <= 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

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
# sum that stops just past 16 terms sums 48.  At 0 < z <= 1 a sum takes
# from 5 terms (z = 1e-3) to 184 (alpha 0.1, z = 1)
_SERIES_FIRST_CHUNK = 16
_SERIES_CHUNK = 32
# below this x the omitted exponentially small part of the asymptotic
# expansion for alpha < 1 (~ exp(-0.9 x)) is not negligible.  Its lowest
# octave keeps the terms optimal here, where its arguments start: with those
# of x = 32, values at (0.99, 0.99) differed from a scan at their own x by
# up to 2.4e-11, against 4.2e-12
_ASYMPTOTIC_MIN_X = 35.0
_ASYMPTOTIC_REL_TOL = 1e-13
_ASYMPTOTIC_MAX_TERMS = 399
# the truncation scan stops at terms below 1e-25 times the leading one
_LOG_FLOOR = math.log(1e-25)
# parabolic contour s(u) = mu (1 + iu)^2 sampled at u = 0, h, ..., (n-1) h.
# h = 0.15 with the singularities 1 off the real u-axis makes the
# discretisation error e^(-2 pi/h) ~ 6e-19; 32 nodes reach u where e^s has
# fallen by as much.
_CONTOUR_MU = 2.0
_CONTOUR_H = 0.15
_CONTOUR_NODES = 32
# the contour rule squares s^alpha - z, which must not overflow
_CONTOUR_MAX_ETA = 1e150
# contour arguments per block: the (block, 32 nodes) float temporaries stay at 512 KiB
_BLOCK = 2048


class MLConvergenceError(ArithmeticError):
    """No evaluation regime reaches the accuracy target."""


@dataclass(frozen=True)
class MLParams:
    """Order pair (alpha, beta) of E_{alpha,beta}: 0 < alpha < 1 with 0 < beta <= 3, or (1, 1)."""

    alpha: float
    beta: float

    def __post_init__(self) -> None:
        # with mu fixed, the contour's e^s s^(-beta) cancels too much beyond
        # beta = 3 (rel. error 7e-13 at beta = 3.5 against 7e-14 at 3)
        a, b = self.alpha, self.beta
        if (a, b) != (1.0, 1.0) and not (0.0 < a < 1.0 and 0.0 < b <= 3.0):
            raise ValueError(
                f"(alpha, beta) must have 0 < alpha < 1 and 0 < beta <= 3, or be (1, 1); "
                f"got ({a}, {b})"
            )


def _rgamma(x: float) -> float:
    """1 / Gamma(x) for real x off the poles x = 0, -1, -2, ... (callers snap those)."""
    if x > 0.0:
        if x > 171.0:
            return 0.0  # Gamma overflows; reciprocal underflows
        return 1.0 / math.gamma(x)
    # reflection: 1/Gamma(x) = Gamma(1-x) sin(pi x) / pi
    log_mag = math.lgamma(1.0 - x)
    s = math.sin(math.pi * x)
    if log_mag > 700.0:
        return math.inf if s > 0 else -math.inf
    return math.exp(log_mag) * s / math.pi


def _readonly(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _series_double(alpha: float, beta: float, z: np.ndarray) -> np.ndarray:
    """Defining power series at every 0 < z <= 1, with compensated summation.

    Every term is finite and not negative, and each sum stops at its first
    term below 1e-17 of it, past k = 2; a term whose Gamma(alpha*k + beta)
    overflows is 0 and stops it too.  Powers come a chunk at a time, but are
    added one k at a time; chunks start at _SERIES_FIRST_CHUNK terms and
    double up to _SERIES_CHUNK, so a sum that stops in the first chunk forms
    no more.
    """
    val = np.empty(z.shape)
    live, term, comp = np.arange(z.size), np.ones(z.shape), np.zeros(z.shape)
    total = np.full(z.shape, _rgamma(beta))
    ks = range(1, 1)
    while live.size and ks.stop < _SERIES_MAX_TERMS:
        size = min(2 * len(ks), _SERIES_CHUNK) or _SERIES_FIRST_CHUNK
        ks = range(ks.stop, min(ks.stop + size, _SERIES_MAX_TERMS))
        r = np.array([_rgamma(alpha * k + beta) for k in ks])[:, None]
        powers = np.full((len(ks), live.size), z[live])
        powers[0] *= term
        np.cumprod(powers, axis=0, out=powers)
        term, t = powers[-1], powers * r
        sums = np.empty(t.shape)
        for tk, sk in zip(t, sums):
            y = tk - comp
            np.add(total, y, out=sk)
            comp, total = (sk - total) - y, sk
        stop = (t < _SERIES_EPS * sums) & (np.array(ks)[:, None] > 2)
        first, cols = np.argmax(stop, axis=0), np.arange(live.size)
        done = stop[first, cols]
        val[live[done]] = sums[first[done], done]
        live, term, total, comp = (a[~done] for a in (live, term, total, comp))
    if live.size:
        msg = f"series for E_({alpha},{beta})(z) did not converge in {_SERIES_MAX_TERMS} terms"
        raise MLConvergenceError(f"{msg} at z = {float(z[live[0]])}")
    return val


# ---------------------------------------------------------------------------
# asymptotic expansion for large -z


@lru_cache(maxsize=256)
def _asymptotic_coeffs(alpha: float, beta: float) -> tuple[np.ndarray, np.ndarray, dict]:
    """Coefficients of the expansion in 1/eta, eta = -z, their envelopes, and a memo.

    Term k = 1, 2, ... is c[k-1] eta^-k with c[k-1] = (-1)^(k+1) / Gamma(beta -
    alpha*k); its smooth size envelope is exp(log_env[k-1] - k log eta).  The
    arrays end before the first coefficient that overflows.  The memo, which
    `_octave_terms` fills, maps an octave of x to the terms it keeps.
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
    return _readonly(np.array(c)), _readonly(np.array(log_env)), {}


def _envelope(e):
    """exp(e) for e = log_env - k log_eta, infinite once e reaches 700, in place of e."""
    over = ~(e < 700.0)
    np.exp(np.minimum(e, 700.0, out=e), out=e)
    e[over] = math.inf
    return e


def _truncation(log_env: np.ndarray, log_eta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Optimal truncation of the expansion at each eta of an array.

    Returns, per eta, (index of the last kept term, index of the term whose
    envelope estimates the error), both 0-based.  The envelope is scanned
    until it rises tenfold above its running minimum or falls below 1e-25
    times the leading term's, and the terms up to its first global minimum
    are kept: the reflection formula makes |Gamma(beta - alpha*k)|
    oscillate, so the first local increase is not the optimum.  The error
    term is the next envelope scanned, or the minimum itself when the scan
    ended there.
    """
    e = log_env - np.arange(1, log_env.size + 1) * log_eta[:, None]
    # the floor is compared in logarithms: near eta = 1e300 envelopes underflow
    env = _envelope(e.copy())
    stop = (env > 10.0 * np.minimum.accumulate(env, axis=1)) | (e < e[:, :1] + _LOG_FLOOR)
    n = np.where(stop.any(axis=1), stop.argmax(axis=1) + 1, log_env.size)
    best = np.where(np.arange(log_env.size) < n[:, None], env, math.inf).argmin(axis=1)
    return best, np.where(best + 1 < n, best + 1, best)


def _octave_terms(alpha: float, log_env: np.ndarray, memo: dict, octaves: list) -> np.ndarray:
    """The `_truncation` of the expansion at the lower edge of each octave j, x in [2^j, 2^(j+1)).

    Returns one row (best, last) per octave.  The edge is x = 35 at the
    least, where the expansion's arguments start.  Each octave is scanned
    once per order pair and kept in its memo from `_asymptotic_coeffs`;
    only the octaves asked for are filled, and threads that fill one at
    once store the same terms.
    """
    new = [j for j in octaves if j not in memo]
    if new:
        least = math.log(_ASYMPTOTIC_MIN_X)
        best, last = _truncation(log_env, alpha * np.maximum(np.array(new) * math.log(2.0), least))
        memo.update(zip(new, zip(best.tolist(), last.tolist())))
    return np.array([memo[j] for j in octaves], dtype=np.intp).reshape(-1, 2)


class _Far(NamedTuple):
    """The asymptotic arguments of a call, as they came, and their runs of one octave of x."""

    eta: np.ndarray
    log_eta: np.ndarray
    w: np.ndarray  # 1/eta
    starts: np.ndarray  # the first point of each run, then eta.size
    octaves: list  # the octaves floor(log2 x) of the runs, each once
    which: np.ndarray  # the index in `octaves` of each run's octave


def _far_side(alpha: float, eta: np.ndarray) -> _Far:
    """The argument side of the expansion at eta > 0, which every beta of a call shares."""
    log_eta = np.log(eta)
    # below alpha ~ 1e-305 the octave of a large eta overflows to inf, which is one octave too
    with np.errstate(over="ignore"):
        octave = log_eta / (alpha * math.log(2.0))
    np.floor(octave, out=octave)
    # runs start at the first point, if any, and wherever the octave changes
    starts = np.concatenate(([0], np.flatnonzero(octave[1:] != octave[:-1]) + 1))[: eta.size]
    octaves = sorted(set(octave[starts].tolist()))
    which = np.searchsorted(octaves, octave[starts])
    return _Far(eta, log_eta, 1.0 / eta, np.append(starts, eta.size), octaves, which)


def _asymptotic_array(alpha: float, beta: float, far: _Far) -> tuple[np.ndarray, np.ndarray]:
    """Algebraic expansion at the eta = -z > 0 of `far`: (values, absolute error estimates).

    Each run keeps the terms `_octave_terms` finds for its octave.  A larger
    eta shrinks every term, so they stay accurate for the whole octave; each
    point's error estimate is the envelope of its own first omitted term.
    One Horner loop in 1/eta sums every run: it runs from the highest kept
    term down, over the points whose run keeps that term, each starting
    from its own last kept term as `np.polyval` would, so a value depends
    on its argument alone.
    """
    c, log_env, memo = _asymptotic_coeffs(alpha, beta)
    best, last = _octave_terms(alpha, log_env, memo, far.octaves)[far.which].T
    starts, sizes = far.starts[:-1], np.diff(far.starts)
    e = np.repeat(last + 1.0, sizes)
    e *= far.log_eta
    err = _envelope(np.subtract(np.repeat(log_env[last], sizes), e, out=e))
    # runs that keep more terms first, so the points that keep term k lead
    w, point = far.w, None
    if np.any(best[1:] > best[:-1]):
        runs = np.argsort(-best, kind="stable")
        best, sizes = best[runs], sizes[runs]
        point = np.arange(w.size)
        point += np.repeat(starts[runs] - (np.cumsum(sizes) - sizes), sizes)
        w = w[point]
    reach = np.cumsum(np.bincount(best, sizes, c.size)[::-1])[::-1].astype(np.intp)
    y = np.zeros(w.size)
    for k in range(int(best.max(initial=-1)), -1, -1):
        y[: reach[k]] *= w[: reach[k]]
        y[: reach[k]] += c[k]
    y *= w
    if point is not None:
        w[point] = y  # the gathered 1/eta is spent: it takes the values back in place
        y = w
    return y, err


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
    mu, h = _CONTOUR_MU, _CONTOUR_H
    u = h * np.arange(_CONTOUR_NODES, dtype=float)
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
        # Im(w / (s^alpha - z)) in real arithmetic, in two (block, nodes) arrays
        dr = ar - z[lo : lo + _BLOCK, None]
        im = wi * dr
        im -= wr * ai
        dr *= dr
        dr += ai * ai
        out[lo : lo + _BLOCK] = np.divide(im, dr, out=im).sum(axis=1)
    return out


# ---------------------------------------------------------------------------
# evaluation


def ml_eval_array(alpha: float, beta: float, z) -> np.ndarray:
    """E_{alpha,beta}(z) elementwise for real z <= 0 (z <= 1 is tolerated).

    Returns a float array of the shape of z.  Each value is that of its own
    one-element call, bit for bit, whatever the shape of z and the order of
    its elements.  Raises ValueError for an order pair outside MLParams'
    range or a non-finite or too large z.
    """
    return _ml_eval_betas(alpha, (beta,), z)[0]


def _ml_eval_betas(alpha: float, betas: tuple, z) -> np.ndarray:
    """`ml_eval_array` at each beta of `betas`, stacked along a new first axis.

    The argument side of the expansion (log(-z), 1/(-z) and the runs of one
    octave) is formed once for every beta.
    """
    for beta in betas:
        MLParams(alpha, beta)
    z = np.asarray(z, dtype=float)
    if not np.all(np.isfinite(z)):
        raise ValueError("arguments must be finite")
    if np.any(z > 1.0):
        raise ValueError(f"only z <= 1 is supported, got {float(np.max(z))}")
    return _eval(alpha, tuple(betas), z.ravel()).reshape((len(betas),) + z.shape)


def _eval(alpha: float, betas: tuple, flat: np.ndarray) -> np.ndarray:
    """`_ml_eval_betas` at a flat argument."""
    out = np.empty((len(betas), flat.size))
    if alpha == 1.0:  # MLParams takes alpha = 1 only as the exponential
        out[:] = np.exp(flat)
        return out
    positive, negative = flat > 0.0, flat < 0.0
    reach = flat <= -(_ASYMPTOTIC_MIN_X**alpha)
    far = _far_side(alpha, -flat[reach])
    for beta, row in zip(betas, out):
        row.fill(_rgamma(beta))
        row[positive] = _series_double(alpha, beta, flat[positive])
        val, err = _asymptotic_array(alpha, beta, far)
        ok = err <= _ASYMPTOTIC_REL_TOL * np.maximum(np.abs(val), abs(_rgamma(beta)) / (1.0 + far.eta))
        # the values the expansion misses are overwritten by the contour's
        row[reach], todo = val, negative.copy()
        todo[reach] = ~ok
        zr = flat[todo]
        if zr.size:
            if -zr.min() > _CONTOUR_MAX_ETA:
                raise MLConvergenceError(
                    f"no evaluation regime reaches the accuracy target for E_({alpha},{beta})(z) "
                    f"at z = {float(zr.min())}"
                )
            row[todo] = _contour_eval(_contour(alpha, beta), zr)
    return out


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
