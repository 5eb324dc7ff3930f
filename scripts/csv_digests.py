#!/usr/bin/env python3
"""One sha256 per CLI output, to check that a change leaves the CSV bytes alone.

Runs every CLI mode at the README defaults (N = 64, n_steps = 256,
x0 = L/2, clean data), the README example (noisy affine rho, Volterra
solve) and that example's fixed-point twin, each in a fresh
`python -m fracsource.cli` process, and prints `<sha256>  <config>` per
run.  The children import whichever `fracsource` the environment finds,
so comparing two checkouts is one diff:

    PYTHONPATH=old/src python3 scripts/csv_digests.py > old.txt
    PYTHONPATH=new/src python3 scripts/csv_digests.py > new.txt
    diff old.txt new.txt

Usage: python3 scripts/csv_digests.py [DIR]
The CSVs are written to DIR when given (kept for a closer look), else to
a temporary directory.  A run that does not exit 0 stops the script.
"""

import hashlib
import json
import os
import subprocess
import sys
import tempfile

README_EXAMPLE = {
    "mode": "invert-rho-volterra",
    "alpha": 0.5, "N": 16, "n_steps": 512, "x0": 0.3,
    "noise_level": 0.01, "seed": 42,
    "g": {"profile": "sine_bump"},
    "rho": {"profile": "affine", "params": {"intercept": 1.0, "slope": 0.5}},
}

CONFIGS = {
    "forward": {"mode": "forward", "alpha": 0.5},
    "invert-rho-volterra": {"mode": "invert-rho-volterra", "alpha": 0.5},
    "invert-rho-fixedpoint": {"mode": "invert-rho-fixedpoint", "alpha": 0.5},
    "invert-g-final": {"mode": "invert-g-final", "alpha": 0.5},
    "invert-g-interior": {"mode": "invert-g-interior", "alpha": 0.5, "omega": [0.1, 0.35]},
    "ml-eval": {"mode": "ml-eval", "ml": {"alpha": 0.5, "beta": 1.0, "z": [0.0, -1.0, -10.0]}},
    "caputo-t2": {"mode": "caputo-t2", "alpha": 0.5},
    "sweep": {"mode": "sweep", "sweep": {
        "key": "n_steps", "values": [64, 128, 256],
        "inner": {"mode": "invert-rho-volterra", "alpha": 0.5}}},
    "readme-example": README_EXAMPLE,
    "readme-example-fixedpoint": dict(README_EXAMPLE, mode="invert-rho-fixedpoint"),
}


def digest(work: str, name: str, cfg: dict) -> str:
    config = os.path.join(work, f"{name}.json")
    with open(config, "w", encoding="utf-8") as fh:
        json.dump(cfg, fh)
    run = subprocess.run([sys.executable, "-m", "fracsource.cli", config],
                         capture_output=True, text=True)
    if run.returncode != 0:
        raise SystemExit(f"{name}: exit {run.returncode}\n{run.stderr}")
    with open(os.path.join(work, f"{name}.csv"), "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        work = sys.argv[1] if len(sys.argv) > 1 else tmp
        os.makedirs(work, exist_ok=True)
        for name, cfg in CONFIGS.items():
            print(f"{digest(work, name, cfg)}  {name}", flush=True)


if __name__ == "__main__":
    main()
