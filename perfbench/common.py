"""Shared plumbing of the benchmark: paths, child processes, statistics.

Nothing here imports fracsource.  The program under test only ever runs
in child processes (the CLI workloads) or in the warm-resolve worker, so
the numbers always belong to the checked-out ``src`` tree.
"""

from __future__ import annotations

import hashlib
import math
import os
import platform
import statistics
import subprocess
import threading
import time

import speed

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
BENCH = os.path.join(ROOT, "perfbench")
WORK = os.path.join(ROOT, ".perfbench_work")
ML_TABLE = os.path.join(ROOT, "tests", "data", "ml_reference.json")
ML_REFERENCE_MODULE = os.path.join(ROOT, "tests", "ml_reference.py")
REQUIRED = (os.path.join(SRC, "fracsource", "cli.py"), ML_TABLE, ML_REFERENCE_MODULE)

# a child that runs longer than this is killed and its operation fails
CHILD_TIMEOUT_S = 150.0
# every config runs at least twice, so CSV bytes can be compared; more
# rounds would not fit the time the whole benchmark may take
MIN_ROUNDS = 2


def child_env() -> dict:
    """Environment of every child: the checkout's src, one thread everywhere.

    FRACSOURCE_THREADS=1 keeps the program's own pool out of the way; the
    BLAS thread caps keep NumPy's matrix products on one core, so a run is
    one client issuing one operation at a time.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env["FRACSOURCE_THREADS"] = "1"
    for key in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[key] = "1"
    env.pop("PYTHONSTARTUP", None)
    return env


class ChildResult:
    """Wall time, host speeds, peak resident set and exit status of one child.

    A child that ends with speed.report() has its probes' time taken out
    of wall_s and their speeds in ``speeds``.
    """

    def __init__(self, wall_s: float, speeds: list, peak_rss_mib: float,
                 returncode: int, stderr: str):
        self.wall_s = wall_s
        self.speeds = speeds
        self.peak_rss_mib = peak_rss_mib
        self.returncode = returncode
        self.stderr = stderr


def spawn(argv: list, cwd: str, stderr_path: str, timeout: float = CHILD_TIMEOUT_S) -> ChildResult:
    """Run one child to completion, timing it from spawn to reaped exit.

    os.wait4 gives the child's own rusage, so the peak RSS is that of this
    process alone.  A timer thread kills a child that overruns; it is
    cancelled and joined before returning.
    """
    with open(stderr_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            argv, cwd=cwd, env=child_env(), stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL, stderr=err,
        )
        killer = threading.Timer(timeout, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
            killer.join()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(stderr_path, "r", encoding="utf-8", errors="replace") as fh:
        tail = fh.read()[-2000:]
    spent, speeds = speed.parse(tail)
    return ChildResult(wall - spent, speeds, usage.ru_maxrss / 1024.0, proc.returncode, tail)


def median(values) -> float:
    return float(statistics.median(values))


def more_rounds(rounds: int, t_start: float, seconds: float, trace: bool) -> bool:
    """Whether a run starts another round.

    A run is whole rounds, at least MIN_ROUNDS, until ``seconds`` have
    passed.  A traced run alternates traced and plain rounds (traced_round)
    and ends on a plain one, so both kinds get the same number of repeats.
    """
    return (rounds < MIN_ROUNDS or time.perf_counter() - t_start < seconds
            or (trace and rounds % 2 == 1))


def traced_round(trace: bool, r: int) -> bool:
    return trace and r % 2 == 0


def per_kind(samples) -> dict:
    """Median wall time per operation kind from (kind, seconds) samples."""
    by_kind: dict = {}
    for kind, wall in samples:
        by_kind.setdefault(kind, []).append(wall)
    return {k: median(v) for k, v in by_kind.items()}


def round_total(samples) -> float:
    """Cost of one round: the per-kind medians added up."""
    return math.fsum(per_kind(samples).values())


def end_to_end(setup_walls: list, samples: list, speeds: list, rss: list, errors: list,
               log) -> dict:
    """The five end-to-end metrics of one untraced run.

    setup_walls: set-up wall times; samples: (kind, wall seconds) of the
    timed operations; speeds: the host speeds probed through the run, by
    which its times are scaled to the reference host (speed.py); rss: peak
    resident sets in MiB; errors: reconstruction errors.  A run holds a
    varying number of whole rounds, so op_s_p50 (median over kinds, each
    kind weighing the same) and total_s (one round) come from the per-kind
    medians, not from the run's length.
    """
    kinds = per_kind(samples)
    factor = speed.host_factor(speeds)
    log(f"host factor {factor:.4f} ({len(speeds)} probes); unscaled medians: set-up "
        f"{median(setup_walls):.4f} s, " + ", ".join(f"{k} {v:.4f} s" for k, v in kinds.items()))
    return {
        "setup_s": {"value": median(setup_walls) / factor, "unit": "s"},
        "op_s_p50": {"value": median(kinds.values()) / factor, "unit": "s"},
        "total_s": {"value": math.fsum(kinds.values()) / factor, "unit": "s"},
        "peak_rss_mib": {"value": max(rss), "unit": "MiB"},
        "rel_error_gmean": {"value": gmean(errors), "unit": "1"},
    }


def overhead(traced, plain) -> tuple[float, float]:
    """(seconds, share) the tracer adds to one round, traced vs plain samples."""
    on, off = round_total(traced), round_total(plain)
    return on - off, (on - off) / off


def gmean(values) -> float:
    vals = [float(v) for v in values]
    return math.exp(sum(math.log(v) for v in vals) / len(vals))


def iqr_share(values) -> tuple[float, float]:
    """(median, (Q3 - Q1) / median) with statistics.quantiles(n=4)."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = float(statistics.median(values))
    return med, (q3 - q1) / abs(med) if med else math.inf


def src_digest() -> str:
    """SHA-256 over the src tree, naming the measured code without git."""
    h = hashlib.sha256()
    for base, dirs, files in os.walk(SRC):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                h.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()[:16]


def env_info() -> dict:
    """Commit, interpreter, NumPy and core count of this measurement."""
    import numpy

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {
        "commit": commit,
        "src_sha256": src_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
    }


def read_csv(path: str) -> tuple[dict, dict]:
    """Parse a fracsource CSV into (metadata strings, float columns)."""
    import numpy as np

    meta, rows, header = {}, [], None
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh.read().splitlines():
            if line.startswith("# "):
                key, _, value = line[2:].partition("=")
                meta[key] = value
            elif header is None:
                header = line.split(",")
            else:
                rows.append([float(v) for v in line.split(",")])
    data = np.array(rows, dtype=float).reshape(len(rows), len(header or []))
    return meta, {name: data[:, i] for i, name in enumerate(header or [])}
