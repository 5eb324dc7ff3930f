#!/usr/bin/env python3
"""Wall time and accuracy of the rho solvers and the sourced solve on long grids.

For n_steps = 256, 2048, 8192 and 32768 (N = 64, alpha = 0.5, sine-bump
g, x0 = 0.3, sine rho, T = 1, clean data) it prints:

* the set-up time: the kernel-weight table and the trace u(x0, .),
  synthesised as one product-rule convolution with the trace weights;
* the kernel-weight table alone, built cold in a fresh interpreter (the
  median of TABLE_RUNS children): its wall time and the minor page faults
  it took (`resource.getrusage`), which count the fresh memory its
  temporaries touched;
* the wall time of `solve_volterra` on the warm table: cold, the first
  call, which builds the rho set-up (g(x0), the Volterra weights and the
  spectrum of the discrete resolvent), and warm, a second call on the
  same set-up, which pays only for the data;
* the relative L2 error of the recovered rho (node 0 skipped) and the
  discrete residual the solver reports;
* for 50 fixed-point sweeps (`fixed_point_iterate`, K at its bound, no
  tol stop): the cold time, which builds the set-up's sweep table, the
  warm time of a second call, and the relative L2 error;
* the warm time of the full sourced solve `solve_inhomogeneous` with all
  64 modes of the source nonzero (g_n = 1), on the cached kernel table;
* the peak resident set of the process so far, in MiB.

It ends with the peak resident set of one CLI `sweep` process over the
same four grids (`invert-rho-volterra`, N = 64, alpha = 0.5, x0 = 0.3,
sine rho), which holds one grid's kernel-weight table and set-up at a
time.  A child's peak includes the resident set of whatever process
forked it, so the sweep is started from a fresh interpreter.

The error is set by the L1 derivative of a trace that behaves like
t^alpha near t = 0, so it falls slowly with n_steps; the time shows what
a finer grid costs for it.  The largest grid takes several seconds.
Pin one BLAS thread (OPENBLAS_NUM_THREADS=1) for timings that compare
across hosts.

Usage: python3 scripts/volterra_scaling.py
"""

import json
import os
import resource
import subprocess
import sys
import tempfile
import time

import numpy as np

from fracsource.forward import separated_source, solve_inhomogeneous, trace_weights
from fracsource.fracops import FractionalOrder, TimeGrid, TimeSeries, product_rule_convolve
from fracsource.inverse_t import TSourceProblem, fixed_point_iterate, solve_volterra
from fracsource.profiles import make_g, make_rho
from fracsource.report import relative_l2
from fracsource.spectral import Domain1D, SpectralField

X0 = 0.3
SWEEP_GRIDS = (4096, 8192, 16384, 32768)
# runs `fracsource.cli` on argv[1] in a child and prints the child's peak RSS in KiB
PEAK_OF_CHILD = (
    "import resource, subprocess, sys\n"
    "subprocess.run([sys.executable, '-m', 'fracsource.cli', sys.argv[1]], check=True,"
    " stdout=subprocess.DEVNULL)\n"
    "print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)"
)
# builds the table of argv[1] steps (N = 64, alpha = 0.5) after the imports
# and prints its wall time in seconds and the minor page faults it took
TABLE_IN_CHILD = (
    "import resource, sys, time\n"
    "from fracsource.forward import modal_kernel_weights\n"
    "from fracsource.fracops import FractionalOrder, TimeGrid\n"
    "from fracsource.spectral import Domain1D\n"
    "args = Domain1D(1.0, 64), FractionalOrder(0.5), TimeGrid(1.0, int(sys.argv[1]))\n"
    "faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
    "t0 = time.perf_counter()\n"
    "modal_kernel_weights(*args)\n"
    "t = time.perf_counter() - t0\n"
    "print(t, resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults)\n"
)
TABLE_RUNS = 5


def table_cold(n_steps: int) -> tuple[float, int]:
    """Median wall time and minor page faults of a cold kernel-weight table over TABLE_RUNS children."""
    runs = [subprocess.run([sys.executable, "-c", TABLE_IN_CHILD, str(n_steps)], check=True,
                           capture_output=True, text=True).stdout.split() for _ in range(TABLE_RUNS)]
    times, faults = sorted(float(r[0]) for r in runs), sorted(int(r[1]) for r in runs)
    return times[TABLE_RUNS // 2], faults[TABLE_RUNS // 2]


def sweep_peak_mib() -> float:
    """Peak RSS of one CLI sweep of the rho Volterra solve over SWEEP_GRIDS."""
    inner = {"mode": "invert-rho-volterra", "alpha": 0.5, "N": 64, "x0": X0,
             "rho": {"profile": "sine"}}
    with tempfile.TemporaryDirectory() as tmp:
        cfg = {"mode": "sweep", "output": os.path.join(tmp, "sweep.csv"),
               "sweep": {"key": "n_steps", "values": list(SWEEP_GRIDS), "inner": inner}}
        path = os.path.join(tmp, "sweep.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(cfg, fh)
        out = subprocess.run([sys.executable, "-c", PEAK_OF_CHILD, path], check=True,
                             capture_output=True, text=True).stdout
    return int(out) / 1024.0


def main() -> None:
    dom = Domain1D(1.0, 64)
    alpha = FractionalOrder(0.5)
    g = make_g(dom, "sine_bump")
    ones = SpectralField(dom, np.ones(dom.n_modes))
    print(
        f"{'n_steps':>8} {'set-up s':>9} {'table s':>8} {'faults':>7}"
        f" {'cold s':>9} {'warm s':>9} {'rel. error':>11}"
        f" {'residual':>10}"
        f" {'fp cold s':>10} {'fp warm s':>10} {'fp error':>10} {'inhom s':>9} {'peak MiB':>9}"
    )
    for n in (256, 2048, 8192, 32768):
        table, faults = table_cold(n)
        grid = TimeGrid(1.0, n)
        rho = make_rho(grid, "sine")
        t0 = time.perf_counter()
        c, d = trace_weights(g, X0, alpha, grid)
        trace = TimeSeries(grid, product_rule_convolve(c, d, rho.values))
        setup = time.perf_counter() - t0
        problem = TSourceProblem(g, X0, alpha, grid, trace)
        solve = []
        for _ in range(2):
            t0 = time.perf_counter()
            rep = solve_volterra(problem)
            solve.append(time.perf_counter() - t0)
        err = relative_l2(rep.recovered, rho, skip_first=1)
        fp = []
        for _ in range(2):
            t0 = time.perf_counter()
            sweeps = fixed_point_iterate(problem, m_max=50, tol=0.0)
            fp.append(time.perf_counter() - t0)
        fp_err = relative_l2(sweeps.recovered, rho, skip_first=1)
        source = separated_source(ones, rho)
        t0 = time.perf_counter()
        solve_inhomogeneous(source, alpha, grid)
        inhom = time.perf_counter() - t0
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        print(
            f"{n:>8} {setup:9.3f} {table:8.4f} {faults:7d}"
            f" {solve[0]:9.4f} {solve[1]:9.4f} {err:11.3e}"
            f" {rep.residual_history[0]:10.2e}"
            f" {fp[0]:10.4f} {fp[1]:10.4f} {fp_err:10.3e} {inhom:9.4f} {peak:9.1f}"
        )
    grids = ", ".join(map(str, SWEEP_GRIDS))
    print(f"CLI sweep over n_steps {grids}: peak {sweep_peak_mib():.1f} MiB")


if __name__ == "__main__":
    main()
