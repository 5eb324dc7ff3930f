"""Host-speed reference: a fixed piece of work timed where the program runs.

The measuring hosts change speed on their own, by 1.3-1.9x, in spells
from a fraction of a second to minutes.  Every process that runs
fracsource for a timed measurement also times probe() in the same process,
right after its work: a child CLI process just before it exits (report),
the warm-resolve worker before each round.  Each probe gives the host's
speed of the moment, REF_S over its time.  Wall time is work over mean
speed, so host_factor is one over the mean speed of all the probes of a
run, and the benchmark divides the run's times by it: they then read as
seconds on a host where probe() takes REF_S.

This module imports only NumPy and the standard library, so a child
process loads nothing fracsource has not loaded already.
"""

from __future__ import annotations

import statistics
import sys
import time
from decimal import Decimal, localcontext

import numpy as np

# time of probe() on the reference host, a 2-vCPU Xeon in its fast state
REF_S = 0.026
# probes per child process; about 0.1 s, which the child's wall time excludes
PER_CHILD = 3
# first word of the stderr line on which a child reports its probes
MARK = "perfbench-probe"

_A = np.linspace(0.0, 1.0, 256)


def probe() -> float:
    """Seconds one fixed piece of work takes now.

    It mixes what fracsource spends its time on, in equal parts: Python
    loops, ``decimal`` arithmetic (the extended-precision Mittag-Leffler
    series) and short ``np.convolve`` calls (the modal convolutions).
    """
    t0 = time.perf_counter()
    s = 0
    for i in range(200000):
        s += i * i
    with localcontext() as ctx:
        ctx.prec = 40
        x, acc = Decimal(1) / 3, Decimal(0)
        for i in range(1, 8000):
            acc += x * i / (i + 1)
    for _ in range(800):
        np.convolve(_A, _A)
    return time.perf_counter() - t0


def report() -> None:
    """Probe PER_CHILD times and write the speeds and the time spent to stderr."""
    t0 = time.perf_counter()
    speeds = [REF_S / probe() for _ in range(PER_CHILD)]
    spent = time.perf_counter() - t0
    print(MARK, spent, *speeds, file=sys.stderr, flush=True)


def parse(stderr: str) -> tuple[float, list]:
    """(seconds spent probing, speeds) from a child's stderr; (0, []) if none."""
    for line in reversed(stderr.splitlines()):
        if line.startswith(MARK + " "):
            spent, *speeds = (float(v) for v in line.split()[1:])
            return spent, speeds
    return 0.0, []


def host_factor(speeds) -> float:
    """How much slower than the reference host the host was: 1 / mean speed."""
    return 1.0 / statistics.fmean(speeds)
