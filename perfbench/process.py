"""The process workloads: one fresh ``fracsource`` process per operation.

cli-cold runs every CLI mode at the README defaults, fine-grid runs the
two reconstructions whose cost grows fastest with n_steps.  A round is
every operation of the workload once, with the same configs; a run is
whole rounds, at least two, so every config also repeats and its CSV
bytes can be compared.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

import layers
import truth
from common import (BENCH, WORK, end_to_end, more_rounds, overhead, read_csv, spawn,
                    traced_round)

# plain children probe the host where they ran, once done (speed.py)
_REPORT = f"sys.path.insert(0, {BENCH!r}); import speed; speed.report()"
ENTRY = f"import sys; from fracsource.cli import main; rc = main(); {_REPORT}; sys.exit(rc)"
SETUP_ENTRY = f"import sys; import fracsource.cli; {_REPORT}"
SETUP_REPEATS = 11
# One fixed noise draw for the CLI's final-data runs: a single noisy error
# follows its draw by +-20%, which would swamp rel_error_gmean; the seed
# moves the profile instead, and warm-resolve draws fresh noise each round.
NOISE_SEED = 20190412

# Relative-error bounds, each from the method's order or the noise level:
#  - clean Volterra recovery: the L1 derivative is O(tau^(2 - alpha)) and
#    the kernel moments are exact, so the error is C tau^(2 - alpha); the
#    constant stays below 2 on these profiles, and 10 leaves room.
RHO_CLEAN_C = 10.0
#  - clean fixed-point recovery stops after 50 sweeps, before the
#    discretisation error; criterion 09 sets 1e-2 for that budget.
FIXED_POINT_BOUND = 1e-2
#  - the forward scheme is exact for linear rho: what remains is the
#    Mittag-Leffler error (criterion 01: 1e-10 relative per value),
#    summed over the n_steps terms of the convolution.
FORWARD_RTOL_PER_STEP = 1e-10
#  - final data with 1% noise and the discrepancy principle: Tikhonov
#    converges like delta^(nu/(nu+1)); the kinked hat and the bump give
#    nu near 3/4 against the order-2 smoothing of B_n, 0.14 at 1% noise.
G_FINAL_BOUND = 0.5
#  - bisection on log mu runs 80 halvings, far below round-off, so the
#    discrepancy meets the noise norm up to the accuracy of the
#    independent peak |u_n(T)| used to rebuild that norm.
DISCREPANCY_RTOL = 1e-6
#  - interior data: damped Landweber from g = 0 on exact data never
#    increases the error, so it stays below ||g||; the criterion-11
#    target of 5e-2 is out of reach (README), so it is not the bound.
INTERIOR_BOUND = 1.0


@dataclass
class Op:
    kind: str
    cfg: dict
    check: Callable  # (meta, cols, cfg) -> (errors, problems)


def _finite(cols: dict) -> list:
    return [f"column {k} is not finite" for k, v in cols.items()
            if k != "slope" and not np.all(np.isfinite(v))]


def check_forward(meta, cols, cfg):
    p = cfg["rho"]["params"]
    t = np.linspace(0.0, 1.0, cfg["n_steps"] + 1)
    g = truth.g_coeffs(cfg["g"], 3)
    exact = truth.forward_trace_half({1: g[0], 3: g[2]}, cfg["x0"], p["intercept"], p["slope"], t)
    dev = float(np.max(np.abs(cols["u_x0"] - exact)) / np.max(np.abs(exact)))
    problems = _finite(cols)
    if not np.allclose(cols["t"], t, rtol=0, atol=1e-15):
        problems.append("time column is not the uniform grid")
    if not dev <= FORWARD_RTOL_PER_STEP * cfg["n_steps"]:
        problems.append(f"forward trace deviates from the closed form by {dev:.3e}")
    return [], problems


def check_rho(meta, cols, cfg):
    t = cols["t"]
    exact = truth.rho_formula(cfg["rho"], t)
    err = truth.rel_l2(cols["rho_rec"][1:], exact[1:])
    if cfg["mode"] == "invert-rho-fixedpoint":
        bound = FIXED_POINT_BOUND
    else:
        bound = RHO_CLEAN_C * (1.0 / cfg["n_steps"]) ** (2.0 - cfg["alpha"])
    problems = _finite(cols)
    if not err <= bound:
        problems.append(f"rho error {err:.3e} exceeds {bound:.3e}")
    return [err], problems


def _g_error(cols, cfg):
    return truth.rel_l2(cols["g_rec"], truth.g_formula(cfg["g"], cols["x"]))


def check_g_final(meta, cols, cfg):
    err = _g_error(cols, cfg)
    problems = _finite(cols)
    if not err <= G_FINAL_BOUND:
        problems.append(f"g error {err:.3e} exceeds {G_FINAL_BOUND}")
    coeffs = truth.g_coeffs(cfg["g"], cfg["N"])
    peak = truth.final_data_peak(coeffs, cfg["rho"]["params"]["value"], cfg["alpha"])
    u = np.random.default_rng(cfg["seed"]).uniform(-1.0, 1.0, cfg["N"])
    noise = cfg["noise_level"] * peak * float(np.linalg.norm(u))
    disc = float(meta["discrepancy"])
    if not abs(disc - noise) <= DISCREPANCY_RTOL * noise:
        problems.append(f"discrepancy {disc:.12e} differs from the noise norm {noise:.12e}")
    return [err], problems


def check_interior(meta, cols, cfg):
    err = _g_error(cols, cfg)
    problems = _finite(cols)
    if not err < INTERIOR_BOUND:
        problems.append(f"interior g error {err:.3e} is not below {INTERIOR_BOUND}")
    if int(meta["iterations"]) != cfg["solver"]["m_max"]:
        problems.append(f"interior iteration stopped after {meta['iterations']} sweeps")
    return [err], problems


def check_sweep(meta, cols, cfg):
    errs = cols["rel_l2_error"]
    problems = _finite(cols)
    if list(cols["n_steps"]) != cfg["sweep"]["values"]:
        problems.append("sweep values were not echoed")
    if not np.all(np.diff(errs) < 0.0):
        problems.append(f"sweep errors do not fall at every doubling: {list(errs)}")
    return [], problems


def check_ml(meta, cols, cfg):
    a, b = cfg["ml"]["alpha"], cfg["ml"]["beta"]
    problems = _finite(cols)
    if list(cols["z"]) != cfg["ml"]["z"]:
        problems.append("ml-eval z column does not echo the input")
        return [], problems
    for z, v in zip(cfg["ml"]["z"], cols["value"]):
        ref = truth.ml_reference(a, b, z)
        rel = abs(v - ref) / max(abs(ref), 1e-300)
        if not rel <= truth.ml_tolerance(z):
            problems.append(f"E_({a},{b})({z}) = {v!r}, reference {ref!r}, rel err {rel:.2e}")
    return [], problems


def _near(rng, center: float, spread: float) -> float:
    """center + U(-spread, spread), rounded to keep configs short.

    The seed moves every input a little, not a lot: the errors and costs of
    these methods depend strongly on the sensor position and the profile,
    and a run's figures must stay comparable across seeds.
    """
    return round(center + float(rng.uniform(-spread, spread)), 6)


def cli_cold_ops(seed: int) -> list:
    """README defaults (N=64, n_steps=256); alpha is fixed per mode over 0.3-0.9."""
    rng = np.random.default_rng([seed, 1])
    base = {"N": 64, "n_steps": 256}
    table = truth.ml_table()
    ops = [
        Op("forward", dict(base, mode="forward", alpha=0.5, x0=_near(rng, 0.3, 0.02),
                           g={"profile": "sine_bump"},
                           rho={"profile": "affine", "params": {
                               "intercept": _near(rng, 1.0, 0.05),
                               "slope": _near(rng, 0.5, 0.025)}}), check_forward),
        Op("invert-rho-volterra", dict(base, mode="invert-rho-volterra", alpha=0.3,
                                       x0=_near(rng, 0.3, 0.02), g={"profile": "sine_bump"},
                                       rho={"profile": "sine", "params": {
                                           "freq": _near(rng, 1.0, 0.05)}}), check_rho),
        # the 50-sweep error moves threefold over x0 in [0.33, 0.37], so the
        # sensor stays put here and the seed moves rho
        Op("invert-rho-fixedpoint", dict(base, mode="invert-rho-fixedpoint", alpha=0.45,
                                         x0=0.35, g={"profile": "sine_bump"},
                                         rho={"profile": "affine", "params": {
                                             "intercept": _near(rng, 1.0, 0.05),
                                             "slope": _near(rng, 0.5, 0.025)}}), check_rho),
        Op("invert-g-final", dict(base, mode="invert-g-final", alpha=0.75, noise_level=0.01,
                                  seed=NOISE_SEED, g={"profile": "hat"},
                                  rho={"profile": "constant", "params": {
                                      "value": _near(rng, 1.0, 0.05)}}), check_g_final),
        Op("invert-g-interior", dict(mode="invert-g-interior", alpha=0.9, N=32, n_steps=256,
                                     omega=[0.1, 0.35],
                                     g={"profile": "offset_bump", "params": {
                                         "center_frac": _near(rng, 0.6, 0.01),
                                         "width_frac": 0.5}},
                                     rho={"profile": "affine", "params": {
                                         "intercept": _near(rng, 1.0, 0.05),
                                         "slope": _near(rng, 0.5, 0.025)}},
                                     solver={"beta": 1e-8, "m_max": 200}), check_interior),
        Op("sweep", {"mode": "sweep", "sweep": {
            "key": "n_steps", "values": [64, 128, 256, 512], "metric": "rel_l2_error",
            "inner": {"mode": "invert-rho-volterra", "alpha": 0.6, "N": 32,
                      "x0": _near(rng, 0.3, 0.02),
                      "rho": {"profile": "sine", "params": {"freq": _near(rng, 1.0, 0.05)}}}}},
           check_sweep),
    ]
    for alpha, betas in ((0.1, (0.1, 1.0, 1.1)), (0.9, (0.9, 1.0, 1.9))):
        beta = float(betas[int(rng.integers(len(betas)))])
        zs = sorted((-eta for (a, b, eta) in table if a == alpha and b == beta), reverse=True)
        if alpha == 0.1:
            # the table has no point in the 4 < x < 35 band at alpha = 0.1,
            # where the extended-precision series runs; add four near x = 34
            zs += [-round(x ** alpha, 12) for x in np.sort(rng.uniform(30.0, 34.0, 4))]
        ops.append(Op(f"ml-eval-{alpha}", {"mode": "ml-eval", "ml": {
            "alpha": alpha, "beta": beta, "z": zs}}, check_ml))
    return ops


def fine_grid_ops(seed: int) -> list:
    """n_steps = 2048 with profiles that load every mode."""
    rng = np.random.default_rng([seed, 2])
    base = {"N": 64, "n_steps": 2048}
    return [
        Op("invert-rho-volterra", dict(base, mode="invert-rho-volterra", alpha=0.5,
                                       x0=_near(rng, 0.35, 0.02), g={"profile": "hat"},
                                       rho={"profile": "sine", "params": {
                                           "freq": _near(rng, 1.0, 0.05)}}), check_rho),
        Op("invert-g-final", dict(base, mode="invert-g-final", alpha=0.6, noise_level=0.01,
                                  seed=NOISE_SEED,
                                  g={"profile": "offset_bump", "params": {
                                      "center_frac": _near(rng, 0.62, 0.01),
                                      "width_frac": _near(rng, 0.4, 0.01)}},
                                  rho={"profile": "constant", "params": {
                                      "value": _near(rng, 1.0, 0.05)}}), check_g_final),
    ]


PLANS = {"cli-cold": cli_cold_ops, "fine-grid": fine_grid_ops}


def _setup_times(work: str) -> tuple[list, list]:
    """Fresh interpreters importing fracsource.cli; the first, untimed one compiles.

    Returns the wall times and the host speeds each child probed after its import.
    """
    times, speeds = [], []
    for i in range(SETUP_REPEATS + 1):
        res = spawn([sys.executable, "-c", SETUP_ENTRY], work, os.path.join(work, "setup.err"))
        if res.returncode != 0:
            raise RuntimeError(f"importing fracsource.cli failed:\n{res.stderr}")
        if i:
            times.append(res.wall_s)
            speeds += res.speeds
    return times, speeds


def run(workload: str, seed: int, seconds: float, trace: bool, log) -> dict:
    work = os.path.join(WORK, f"{workload}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    try:
        return _run(PLANS[workload](seed), work, seconds, trace, log)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(ops, work, seconds, trace, log) -> dict:
    setup, speeds = _setup_times(work)
    attempted = failed = 0
    correct = True
    errors = []
    samples = {False: [], True: []}  # traced -> [(kind, wall seconds)]
    rss = []
    first_bytes = {}
    rounds = 0
    dumps, snaps, import_s, outside, csv_bytes = [], [], [], [], 0
    t_start = time.perf_counter()
    while more_rounds(rounds, t_start, seconds, trace):
        r = rounds
        traced = traced_round(trace, r)
        rdir = os.path.join(work, f"r{r}")
        os.makedirs(rdir)
        # odd rounds run backwards, so an operation's repeats lie far apart
        # in time and are less likely to share one of the host's slow spells
        order = list(enumerate(ops))
        for i, op in order if r % 2 == 0 else order[::-1]:
            attempted += 1
            cfg_path = os.path.join(rdir, f"op{i}.json")
            csv_path = os.path.join(rdir, f"op{i}.csv")
            spans_path = os.path.join(rdir, f"op{i}.npz")
            with open(cfg_path, "w", encoding="utf-8") as fh:
                json.dump(op.cfg, fh)
            argv = ([sys.executable, os.path.join(BENCH, "tracer.py"), spans_path, cfg_path]
                    if traced else [sys.executable, "-c", ENTRY, cfg_path])
            res = spawn(argv, rdir, os.path.join(rdir, f"op{i}.err"))
            if res.returncode != 0 or not os.path.exists(csv_path):
                failed += 1
                log(f"{op.kind}: exit {res.returncode}\n{res.stderr}")
                continue
            with open(csv_path, "rb") as fh:
                data = fh.read()
            try:
                meta, cols = read_csv(csv_path)
                errs, problems = op.check(meta, cols, op.cfg)
            except (ValueError, KeyError, IndexError) as exc:
                failed += 1
                log(f"{op.kind}: unreadable output: {type(exc).__name__}: {exc}")
                continue
            samples[traced].append((op.kind, res.wall_s))
            speeds += res.speeds  # only plain children probe
            rss.append(res.peak_rss_mib)
            if first_bytes.setdefault(i, data) != data:
                problems.append("CSV bytes differ from the first round's")
            errors += errs
            if problems:
                correct = False
                log(f"{op.kind}: " + "; ".join(problems))
            if traced:
                sp = layers.Spans(spans_path)
                dumps.append(sp)
                snaps.append(({}, sp.meta["counters"]))
                import_s.append(sp.meta["import_s"])
                outside.append(res.wall_s - layers.dispatch_s(sp))
                csv_bytes += len(data)
        rounds += 1
        shutil.rmtree(rdir, ignore_errors=True)
    if not rss:
        raise RuntimeError("every operation failed")
    out = {"correct": correct, "attempted": attempted, "failed": failed}
    if trace:
        out["metrics"] = layers.layer_metrics(
            dumps, (rounds + 1) // 2, layers.sum_counters(snaps), import_s, outside,
            csv_bytes, *overhead(samples[True], samples[False]))
    else:
        out["metrics"] = end_to_end(setup, samples[False], speeds, rss, errors, log)
    return out

