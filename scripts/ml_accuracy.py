#!/usr/bin/env python3
"""Accuracy and speed of the Mittag-Leffler evaluator over every order it accepts.

Prints two tables:

1. microseconds per value on 2000 log-spaced arguments in [-1e4, -1e-3]
   for four orders outside the solvers' range (alpha >= 1 or beta > 3),
   the best of five calls after one warm-up call, as one row and as 2000
   rows of one argument each, which `ml_eval_array` truncates one row at
   a time;
2. the worst relative error of `ml_eval_array` against the independent
   mpmath reference in tests/ml_reference.py, per (alpha band, beta band),
   on seeded points over alpha 0.1-1.99 and beta 0.1-30: eight orders per
   band, each evaluated in one call at two arguments in each band of the
   cancellation scale x = |z|^(1/alpha): x < 4, 4 <= x < 35 and
   35 <= x < 300.  The reference is the adaptive-precision series, or for
   alpha < 1 beyond x = 35 the real-line integral, which is as independent
   and much faster there.

The mpmath reference takes up to about two seconds per point, so a run
takes several minutes.

Usage: PYTHONPATH=src python3 scripts/ml_accuracy.py
"""

import os
import sys
import time

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "tests"))

import ml_reference  # noqa: E402

from fracsource.mlf import ml_eval_array  # noqa: E402

SEED = 16
ORDERS_PER_BAND = 8
X_PER_BAND = 2
ALPHA_BANDS = [(0.1, 0.5), (0.5, 1.0), (1.0, 1.5), (1.5, 1.99)]
BETA_BANDS = [(0.1, 1.0), (1.0, 3.0), (3.0, 30.0)]
X_BANDS = [(0.0, 4.0), (4.0, 35.0), (35.0, 300.0)]
SPEED_ORDERS = [(1.5, 1.0), (1.9, 1.2), (0.5, 3.5), (0.9, 10.0)]


def reference(a: float, b: float, x: float) -> float:
    z = -(x**a)
    if a < 1.0 and x > 35.0:
        return float(ml_reference.ml_integral(a, b, z))
    return float(ml_reference.ml_series(a, b, z))


def accuracy_table() -> None:
    rng = np.random.default_rng(SEED)
    print(f"{'alpha band':<14}{'beta band':<14}{'points':>7}  {'worst rel. err':>14}  at (alpha, beta, x)")
    worst_all, count = 0.0, 0
    for a_lo, a_hi in ALPHA_BANDS:
        for b_lo, b_hi in BETA_BANDS:
            worst, where, points = 0.0, None, 0
            for _ in range(ORDERS_PER_BAND):
                # one call per order, so that its arguments share the array path
                a = float(rng.uniform(a_lo, a_hi))
                b = float(rng.uniform(b_lo, b_hi))
                xs = np.concatenate([rng.uniform(lo, hi, X_PER_BAND) for lo, hi in X_BANDS])
                vals = ml_eval_array(a, b, -(xs**a))
                for x, v in zip(xs, vals):
                    ref = reference(a, b, float(x))
                    err = abs(float(v) - ref) / abs(ref)
                    if err >= worst:
                        worst, where = err, (a, b, x)
                points += xs.size
            worst_all, count = max(worst_all, worst), count + points
            a, b, x = where
            print(
                f"[{a_lo:.2f}, {a_hi:.2f})  [{b_lo:4.1f}, {b_hi:4.1f})  {points:>5}  "
                f"{worst:>14.2e}  ({a:.4f}, {b:.4f}, {x:.3g})",
                flush=True,
            )
    print(f"{'all':<28}{count:>7}  {worst_all:>14.2e}")


def best_call(a: float, b: float, z: np.ndarray) -> float:
    ml_eval_array(a, b, z)
    best = np.inf
    for _ in range(5):
        t0 = time.perf_counter()
        ml_eval_array(a, b, z)
        best = min(best, time.perf_counter() - t0)
    return best


def speed_table() -> None:
    z = -np.geomspace(1e-3, 1e4, 2000)
    print(f"{'(alpha, beta)':<16}{'us per value':>12}{'as 2000 rows':>14}")
    for a, b in SPEED_ORDERS:
        flat, rows = (1e6 * best_call(a, b, arg) / z.size for arg in (z, z[:, None]))
        print(f"{f'({a}, {b})':<16}{flat:>12.2f}{rows:>14.2f}", flush=True)


if __name__ == "__main__":
    speed_table()
    print()
    accuracy_table()
