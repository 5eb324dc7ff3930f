#!/usr/bin/env python3
"""One sha256 per CLI output, to check that a change leaves the CSV bytes alone.

Runs every CLI mode at the README defaults (N = 64, n_steps = 256,
x0 = L/2, clean data), the forward solve of the single mode g = phi_3
(the one config whose solve skips dead rows of the kernel table), seeded
noisy twins of the two g modes, `ml-eval` at the edge of the orders it
accepts (alpha 0.9, beta 3), the README example (noisy affine rho, Volterra solve)
and that example's fixed-point twin, and the Volterra and noisy
final-data solves at N = 64, n_steps = 2048 with every mode loaded (the
benchmark's long grid), and the forward and interior solves at n_steps
8192 and 4096, whose convolutions span several blocks of rows, and
noisy fixed-point and interior runs long enough to span several blocks
of their closed-form sweeps, each in
a fresh `python -m fracsource.cli` process, and prints
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
The listing starts with a `# blas_threads=<n>` line: the thread count of
the OpenBLAS that NumPy loaded here ("unknown" where none is found), which
the children inherit with the environment.  Set it with
OPENBLAS_NUM_THREADS=1 for listings that compare across hosts.  Listings
from before that line differ from newer ones only there, and `--compare`
reads only the CSVs.
"""

import ctypes
import glob
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
    "forward-mode-k": {"mode": "forward", "alpha": 0.5,
                       "g": {"profile": "mode_k", "params": {"k": 3}}},
    "invert-rho-volterra": {"mode": "invert-rho-volterra", "alpha": 0.5},
    "invert-rho-fixedpoint": {"mode": "invert-rho-fixedpoint", "alpha": 0.5},
    "invert-g-final": {"mode": "invert-g-final", "alpha": 0.5},
    "invert-g-interior": {"mode": "invert-g-interior", "alpha": 0.5, "omega": [0.1, 0.35]},
    "invert-g-final-noisy": {"mode": "invert-g-final", "alpha": 0.5,
                             "noise_level": 0.01, "seed": 42},
    "invert-g-interior-noisy": {"mode": "invert-g-interior", "alpha": 0.5,
                                "omega": [0.1, 0.35], "noise_level": 0.01, "seed": 42},
    "ml-eval": {"mode": "ml-eval", "ml": {"alpha": 0.5, "beta": 1.0, "z": [0.0, -1.0, -10.0]}},
    # the edge of the accepted orders, at z = 0 and in the contour and asymptotic bands
    "ml-eval-alpha-0.9-beta-3": {"mode": "ml-eval", "ml": {"alpha": 0.9, "beta": 3.0, "z": [
        0.0, -1.0, -10.0, -100.0, -1e4]}},
    "caputo-t2": {"mode": "caputo-t2", "alpha": 0.5},
    "sweep": {"mode": "sweep", "sweep": {
        "key": "n_steps", "values": [64, 128, 256],
        "inner": {"mode": "invert-rho-volterra", "alpha": 0.5}}},
    "readme-example": README_EXAMPLE,
    "readme-example-fixedpoint": dict(README_EXAMPLE, mode="invert-rho-fixedpoint"),
    "fine-grid-rho-volterra": {"mode": "invert-rho-volterra", "alpha": 0.5, "N": 64,
                               "n_steps": 2048, "x0": 0.35, "g": {"profile": "hat"},
                               "rho": {"profile": "sine", "params": {"freq": 1.0}}},
    "fine-grid-g-final": {"mode": "invert-g-final", "alpha": 0.6, "N": 64, "n_steps": 2048,
                          "noise_level": 0.01, "seed": 42,
                          "g": {"profile": "offset_bump",
                                "params": {"center_frac": 0.62, "width_frac": 0.4}},
                          "rho": {"profile": "constant", "params": {"value": 1.0}}},
    # stacks of more than one block of rows in `product_rule_convolve`: the
    # forward solve's 64 modes in four blocks, and one rho against the
    # interior operator's 64 weight rows in two
    "forward-n8192": {"mode": "forward", "alpha": 0.5, "N": 64, "n_steps": 8192},
    "invert-g-interior-n4096": {"mode": "invert-g-interior", "alpha": 0.5,
                                "omega": [0.1, 0.35], "n_steps": 4096},
    # runs past one block of closed-form sweeps: 200 fixed-point sweeps are
    # four blocks of the sweep table, 600 interior sweeps three blocks
    "invert-rho-fixedpoint-m200": {"mode": "invert-rho-fixedpoint", "alpha": 0.5,
                                   "noise_level": 0.01, "seed": 42,
                                   "solver": {"m_max": 200, "tol": 0}},
    "invert-g-interior-m600": {"mode": "invert-g-interior", "alpha": 0.5,
                               "omega": [0.1, 0.35], "noise_level": 0.01, "seed": 42,
                               "solver": {"m_max": 600, "tol": 1e-9}},
}


def blas_threads() -> str:
    """Threads of the OpenBLAS bundled with NumPy, as the library reports them."""
    base = os.path.dirname(np.__file__)
    for lib in glob.glob(os.path.join(base, "..", "numpy.libs", "*openblas*")) + glob.glob(
        os.path.join(base, ".dylibs", "*openblas*")
    ):
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            getter = getattr(ctypes.CDLL(lib), name, None)
            if getter is not None:
                return str(getter())
    return "unknown"


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
        print(f"# blas_threads={blas_threads()}", flush=True)
        for name, cfg in CONFIGS.items():
            print(f"{digest(work, name, cfg)}  {name}", flush=True)


if __name__ == "__main__":
    main()
