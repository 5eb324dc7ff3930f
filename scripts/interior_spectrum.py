#!/usr/bin/env python3
"""Spectrum of the interior-data operator and what the damped iteration keeps.

Builds the criterion-11 set-up (N = 32, n_steps = 256, alpha = 0.9,
omega = (0.1, 0.35), 257-point mesh, affine rho, offset-bump g, clean
data, beta = 1e-8) and prints:

* the singular values s_i of the reduced operator, with the filter
  factors (1 - r_i^m) s_i^2/(s_i^2 + beta), r_i = (K - s_i^2)/(K + beta),
  that 200 sweeps leave on each singular direction;
* the relative L2 error of g and the wall time of the solve for
  m = 1e2 ... 1e6 sweeps.  The sweeps are closed-form, so a million of
  them take about a second.

A filter factor near 1 means the direction is recovered; near 0 means
the iteration has not reached it.  The error falls only as fast as the
factors of the small singular values rise.

Last, for N = 64, 128, 256 and 512 (n_mesh = 4N + 1, the same omega,
grid, alpha and rho) it prints the time and tracemalloc peak of building
the operator, with the kernel table already built, and r_t, the number
of time-factor columns the operator keeps.  The time is the best of
three builds, taken with tracemalloc off.

Usage: python3 scripts/interior_spectrum.py
"""

import time
import tracemalloc

import numpy as np

from fracsource import inverse_x
from fracsource.forward import modal_kernel_weights, separated_source, solve_inhomogeneous
from fracsource.fracops import FractionalOrder, TimeGrid
from fracsource.inverse_x import XSourceInteriorProblem, iterative_thresholding, observe_interior
from fracsource.profiles import make_g, make_rho
from fracsource.report import relative_l2
from fracsource.spectral import Domain1D

OMEGA = (0.1, 0.35)
N_MESH = 257
BETA = 1e-8
GRID = TimeGrid(1.0, 256)
ALPHA = FractionalOrder(0.9)
RHO = make_rho(GRID, "affine", intercept=1.0, slope=0.5)


def set_up_sweep(sizes=(64, 128, 256, 512)) -> None:
    """Build time, tracemalloc peak and kept time columns r_t of the operator at each N."""
    print(f"{'N':>5} {'set-up s':>9} {'peak MiB':>9} {'r_t':>4}")
    for n in sizes:
        dom = Domain1D(1.0, n)
        modal_kernel_weights(dom, ALPHA, GRID)  # the table is built, and kept, outside the timing

        def build():
            return inverse_x._InteriorOperator(RHO, ALPHA, GRID, dom, OMEGA, 4 * n + 1)

        secs = []
        for _ in range(3):
            t0 = time.perf_counter()
            op = build()
            secs.append(time.perf_counter() - t0)
        del op
        tracemalloc.start()
        op = build()
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        print(f"{n:>5} {min(secs):9.3f} {peak / 2**20:9.1f} {op._q_t.shape[1]:>4}")
        del op


def main() -> None:
    dom = Domain1D(1.0, 32)
    g_true = make_g(dom, "offset_bump", center_frac=0.6, width_frac=0.5)
    u = solve_inhomogeneous(separated_source(g_true, RHO), ALPHA, GRID)
    observed = observe_interior(u, OMEGA, N_MESH)

    def solve(m_max: int):
        problem = XSourceInteriorProblem(
            RHO, ALPHA, GRID, dom, OMEGA, observed, N_MESH, beta=BETA, m_max=m_max
        )
        t0 = time.perf_counter()
        rep = iterative_thresholding(problem)
        return rep, time.perf_counter() - t0

    rep, _ = solve(200)
    d = rep.diagnostics
    print(f"K = {d['K']:.6e}, beta = {BETA:g}")
    print(f"{'i':>3} {'sigma_i':>12} {'filter (m=200)':>15}")
    for i, (s, f) in enumerate(zip(d["singular_values"], d["filter_factors"]), start=1):
        print(f"{i:>3} {s:12.3e} {f:15.3e}")
    print()
    print(f"{'m':>9} {'rel. error':>11} {'modes with filter > 1/2':>24} {'seconds':>9}")
    for m in (10**2, 10**3, 10**4, 10**5, 10**6):
        rep, secs = solve(m)
        kept = int(np.count_nonzero(rep.diagnostics["filter_factors"] > 0.5))
        err = relative_l2(rep.recovered, g_true)
        print(f"{m:>9} {err:11.4f} {kept:>24} {secs:9.3f}")
    print()
    set_up_sweep()


if __name__ == "__main__":
    main()
