"""fracsource benchmark: one workload per call, or all of them.

    python3 perfbench/run.py --workload cli-cold --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15

With --trace 0 the last stdout line is one JSON object holding the
end-to-end metrics; with --trace 1 it holds the per-layer metrics of a
traced run.  ``all`` runs every workload both ways as child processes
and prints every metric by name and unit.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

from common import REQUIRED, ROOT, env_info

WORKLOADS = ("cli-cold", "fine-grid", "warm-resolve")


def log(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    if workload == "warm-resolve":
        import warm

        return warm.run(seed, seconds, trace, log)
    import process

    return process.run(workload, seed, seconds, trace, log)


def run_all(seed: int, seconds: float) -> int:
    """Every workload untraced and traced, as children of this script."""
    from layers import PER_LAYER

    results = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            t0 = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=900,
            )
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0:
                log(f"{workload} --trace {trace} exited {proc.returncode}")
                return 1
            results[(workload, trace)] = json.loads(proc.stdout.strip().splitlines()[-1])
            log(f"{workload} --trace {trace} took {time.perf_counter() - t0:.1f} s")
    print(f"{'metric':44s} {'unit':6s} " + " ".join(f"{w:>14s}" for w in WORKLOADS))
    for trace in (0, 1):
        first = results[(WORKLOADS[0], trace)]
        for key in ("attempted", "failed", "correct"):
            print(f"{key:44s} {'':6s} " + " ".join(
                f"{str(results[(w, trace)][key]):>14s}" for w in WORKLOADS))
        names = first["metrics"] if trace == 0 else dict(PER_LAYER)
        for name in names:
            unit = first["metrics"][name]["unit"]
            print(f"{name:44s} {unit:6s} " + " ".join(
                f"{results[(w, trace)]['metrics'][name]['value']:14.6g}" for w in WORKLOADS))
        print()
    ok = all(r["correct"] and r["failed"] == 0 for r in results.values())
    print(json.dumps({f"{w}/{'traced' if t else 'plain'}": r for (w, t), r in results.items()}))
    return 0 if ok else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    missing = [p for p in REQUIRED if not os.path.exists(p)]
    if missing:
        log("not a fracsource checkout; missing " + ", ".join(os.path.relpath(p, ROOT) for p in missing))
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    info = dict(env_info(), workload=args.workload, seed=args.seed,
                seconds=args.seconds, trace=args.trace)
    t0 = time.perf_counter()
    result = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    info["run_wall_s"] = round(time.perf_counter() - t0, 3)
    print("env " + json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
