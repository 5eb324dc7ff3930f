"""Steadiness check: repeat each workload over seeds, compare spreads to bounds.

    python3 perfbench/steady.py --runs 10 [--workload cli-cold ...] [--first-seed 1]

For each end-to-end metric it prints the median over the runs, the
distance between the first and third quartile (statistics.quantiles,
n=4) as a share of the median, and the metric's bound from
BENCHMARK.json.  A spread above the bound marks the metric unsteady.
It also prints the share of failed operations per run, which must be
the same in every run.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

from common import ROOT, iqr_share

RUN = os.path.join(ROOT, "perfbench", "run.py")


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        bench = json.load(fh)
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workload", action="append", choices=names)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = ap.parse_args(argv)
    if args.runs < 2:
        ap.error("--runs must be at least 2 for quartiles")
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    ok = True
    for workload in args.workload or names:
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            t0 = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=900,
            )
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
                return 1
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            runs.append(res)
            vals = " ".join(f"{k}={v['value']:.5g}" for k, v in res["metrics"].items())
            print(f"{workload} seed {seed}: {time.perf_counter() - t0:5.1f} s "
                  f"correct={res['correct']} failed={res['failed']}/{res['attempted']} {vals}",
                  flush=True)
        print(f"\n{workload}: {len(runs)} runs")
        print(f"  {'metric':18s} {'median':>12s} {'IQR/median':>11s} {'bound':>7s}")
        for name, bound in bounds.items():
            med, spread = iqr_share([r["metrics"][name]["value"] for r in runs])
            steady = spread <= bound
            ok &= steady
            mark = "" if steady else "  UNSTEADY"
            unit = runs[0]["metrics"][name]["unit"]
            print(f"  {name:18s} {med:12.6g} {spread:11.2%} {bound:7.0%} {unit}{mark}")
        shares = sorted({r["failed"] / r["attempted"] for r in runs})
        ok &= len(shares) == 1 and all(r["correct"] for r in runs)
        print(f"  failed share per run: {shares}; all correct: {all(r['correct'] for r in runs)}\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
