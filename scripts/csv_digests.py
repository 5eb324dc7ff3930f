#!/usr/bin/env python3
"""One sha256 per CLI output, to check that a change leaves the CSV bytes alone.

Runs every CLI mode at the README defaults (N = 64, n_steps = 256,
x0 = L/2, clean data), seeded noisy twins of the two g modes, the README
example (noisy affine rho, Volterra solve) and that example's fixed-point
twin, each in a fresh `python -m fracsource.cli` process, and prints
`<sha256>  <config>` per run.  The children import whichever
`fracsource` the environment finds, so comparing two checkouts is one
diff:

    PYTHONPATH=old/src python3 scripts/csv_digests.py > old.txt
    PYTHONPATH=new/src python3 scripts/csv_digests.py > new.txt
    diff old.txt new.txt

When the digests differ, keep the CSVs of both checkouts and compare
them: for each CSV the second form prints the largest difference in each
column, relative to the column's largest magnitude, and in each numeric
metadata value, relative to that value ("identical" when the bytes are):

    PYTHONPATH=old/src python3 scripts/csv_digests.py old_csv > old.txt
    PYTHONPATH=new/src python3 scripts/csv_digests.py new_csv > new.txt
    python3 scripts/csv_digests.py --compare old_csv new_csv

Usage: python3 scripts/csv_digests.py [DIR]
       python3 scripts/csv_digests.py --compare OLD_DIR NEW_DIR
The CSVs are written to DIR when given (kept for a closer look), else to
a temporary directory.  A run that does not exit 0 stops the script.
"""

import hashlib
import json
import os
import subprocess
import sys
import tempfile

import numpy as np

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
    "invert-g-final-noisy": {"mode": "invert-g-final", "alpha": 0.5,
                             "noise_level": 0.01, "seed": 42},
    "invert-g-interior-noisy": {"mode": "invert-g-interior", "alpha": 0.5,
                                "omega": [0.1, 0.35], "noise_level": 0.01, "seed": 42},
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


def _read(path: str) -> tuple[dict, list, np.ndarray]:
    """Metadata, column names and the (rows, columns) table of one CSV."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    meta = dict(line[2:].split("=", 1) for line in lines if line.startswith("# "))
    body = [line for line in lines if not line.startswith("#")]
    table = np.array([[float(v) for v in line.split(",")] for line in body[1:]], ndmin=2)
    return meta, body[0].split(","), table


def _rel(old: np.ndarray, new: np.ndarray, scale: float) -> float:
    """Largest |new - old| over scale; nan against nan counts as equal."""
    same = (old == new) | (np.isnan(old) & np.isnan(new))
    diff = np.where(same, 0.0, np.abs(new - old))
    return float(np.max(diff)) / scale if scale > 0.0 else float(np.max(diff))


def compare(old_dir: str, new_dir: str) -> None:
    for name in CONFIGS:
        old_path, new_path = (os.path.join(d, f"{name}.csv") for d in (old_dir, new_dir))
        with open(old_path, "rb") as a, open(new_path, "rb") as b:
            if a.read() == b.read():
                print(f"{name}: identical")
                continue
        old_meta, old_cols, old = _read(old_path)
        new_meta, new_cols, new = _read(new_path)
        if old_cols != new_cols or old.shape != new.shape or old_meta.keys() != new_meta.keys():
            print(f"{name}: columns, rows or metadata keys differ")
            continue
        parts = []
        for j, col in enumerate(old_cols):
            scale = float(np.max(np.abs(np.nan_to_num(old[:, j]))))
            parts.append(f"{col}={_rel(old[:, j], new[:, j], scale):.1e}")
        for key, value in old_meta.items():
            try:
                a, b = float(value), float(new_meta[key])
            except ValueError:
                parts.append(f"#{key}={'same' if value == new_meta[key] else 'differs'}")
                continue
            parts.append(f"#{key}={_rel(np.array(a), np.array(b), abs(a)):.1e}")
        print(f"{name}: " + " ".join(parts))


def main() -> None:
    if sys.argv[1:2] == ["--compare"] and len(sys.argv) == 4:
        compare(sys.argv[2], sys.argv[3])
        return
    with tempfile.TemporaryDirectory() as tmp:
        work = sys.argv[1] if len(sys.argv) > 1 else tmp
        os.makedirs(work, exist_ok=True)
        for name, cfg in CONFIGS.items():
            print(f"{digest(work, name, cfg)}  {name}", flush=True)


if __name__ == "__main__":
    main()
