"""warm-resolve: one long-lived process re-solving on a fixed grid.

The runner side (``run``) starts worker processes of this file.  A
worker imports fracsource and builds the clean data of four
configurations with one forward solve each (plus the homogeneous solve
that bounds K), which fills the Mittag-Leffler and kernel-weight caches:
that is set-up.  Then each
operation reconstructs from freshly seeded noisy data on the same grid,
so the library only serves cached values.  All four configurations share
alpha, T and n_steps, so they share those caches as a user re-solving
one problem would.  Set-up is measured in three workers; only the last
one goes on to the timed rounds.

Run as a script it is the worker:  python3 perfbench/warm.py PLAN.json
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import sys
import time
import traceback

import numpy as np

import layers
import speed
import truth
from common import BENCH, WORK, end_to_end, more_rounds, overhead, spawn, traced_round

SETUP_WORKERS = 3
NOISE = 0.01
N_STEPS = 256
OMEGA = (0.1, 0.35)
N_MESH = 257

# Bounds on noisy reconstructions (relative L2), each from the noise level:
#  - temporal: uniform noise of amplitude delta, averaged over the
#    mollifier's w = 5 nodes, has RMS delta / sqrt(3 w); the L1 derivative
#    amplifies it by about tau^(-alpha) / Gamma(2 - alpha).  At delta = 1%,
#    tau = 1/256 and alpha = 0.6 that is ~0.08; the bound is 10 delta.
RHO_NOISY_BOUND = 0.1
#  - final data: as for the CLI, Tikhonov with the discrepancy principle.
G_FINAL_BOUND = 0.5
#  - interior data: the iteration from g = 0 does not raise the error while
#    the residual stays well above the noise, so the error stays below 1.
INTERIOR_BOUND = 1.0
#  - the bisection of choose_mu_discrepancy ends far below round-off.
DISCREPANCY_RTOL = 1e-9


def plan_for(seed: int) -> dict:
    rng = np.random.default_rng([seed, 3])

    def near(center, spread):
        return round(center + float(rng.uniform(-spread, spread)), 6)

    return {
        "seed": seed,
        "alpha": 0.6,
        "x0": near(0.35, 0.02),
        "rho_t": {"profile": "sine", "params": {"freq": near(1.0, 0.05)}},
        "g_t": {"profile": "sine_bump"},
        "rho_f": {"profile": "constant", "params": {"value": near(1.0, 0.05)}},
        "g_f": {"profile": "hat"},
        "rho_i": {"profile": "affine", "params": {"intercept": near(1.0, 0.05),
                                                  "slope": near(0.5, 0.025)}},
        "g_i": {"profile": "offset_bump", "params": {"center_frac": near(0.6, 0.01),
                                                     "width_frac": 0.5}},
    }


# ---------------------------------------------------------------------------
# worker


class Problems:
    """The four configurations, their clean data and their solvers."""

    KINDS = ("interior", "fixed-point", "final-data", "volterra")

    def __init__(self, plan: dict):
        from fracsource import forward
        from fracsource.fracops import FractionalOrder, TimeGrid
        from fracsource.profiles import make_g, make_rho
        from fracsource.spectral import Domain1D

        self.plan = plan
        self.alpha = FractionalOrder(plan["alpha"])
        self.grid = TimeGrid(1.0, N_STEPS)
        dom64, dom32 = Domain1D(1.0, 64), Domain1D(1.0, 32)

        def make(spec_g, spec_r, dom):
            return (make_g(dom, spec_g["profile"], **spec_g.get("params", {})),
                    make_rho(self.grid, spec_r["profile"], **spec_r.get("params", {})))

        def solve(g, rho):
            return forward.solve_inhomogeneous(forward.separated_source(g, rho), self.alpha, self.grid)

        self.g_t, self.rho_t = make(plan["g_t"], plan["rho_t"], dom64)
        self.trace = forward.observe_point(solve(self.g_t, self.rho_t), plan["x0"]).values
        v = forward.observe_point(forward.solve_homogeneous(self.g_t, self.alpha, self.grid), plan["x0"])
        self.k_bound = float(np.max(np.abs(v.values)))
        self.g_f, self.rho_f = make(plan["g_f"], plan["rho_f"], dom64)
        self.final = solve(self.g_f, self.rho_f).modal_values[:, -1].copy()
        self.g_i, self.rho_i = make(plan["g_i"], plan["rho_i"], dom32)
        from fracsource.inverse_x import observe_interior

        self.observed = observe_interior(solve(self.g_i, self.rho_i), OMEGA, N_MESH)
        self.t = self.grid.nodes()
        self.x = np.linspace(0.0, 1.0, 257)

    def noisy(self, kind: str, r: int) -> np.ndarray:
        """Seeded data of one operation: round r, benchmark seed, kind."""
        rng = np.random.default_rng([self.plan["seed"], r + 1, self.KINDS.index(kind)])
        clean = {"interior": self.observed, "final-data": self.final}.get(kind, self.trace)
        return clean + NOISE * float(np.max(np.abs(clean))) * rng.uniform(-1.0, 1.0, clean.shape)

    def solve(self, kind: str, data: np.ndarray):
        from fracsource import inverse_t, inverse_x
        from fracsource.fracops import TimeSeries
        from fracsource.spectral import SpectralField

        if kind == "interior":
            problem = inverse_x.XSourceInteriorProblem(
                self.rho_i, self.alpha, self.grid, self.g_i.domain, OMEGA, data, N_MESH,
                beta=1e-8, m_max=200)
            return inverse_x.iterative_thresholding(problem)
        if kind == "final-data":
            fd = SpectralField(self.g_f.domain, data)
            noise = float(np.linalg.norm(data - self.final))
            mu = inverse_x.choose_mu_discrepancy(self.rho_f, self.alpha, self.grid, fd, 0.0, noise)
            return inverse_x.reconstruct_final(
                inverse_x.XSourceFinalProblem(self.rho_f, self.alpha, self.grid, fd, 0.0, mu))
        problem = inverse_t.TSourceProblem(
            self.g_t, self.plan["x0"], self.alpha, self.grid, TimeSeries(self.grid, data),
            noise_level=NOISE)
        if kind == "fixed-point":
            return inverse_t.fixed_point_iterate(problem, K=self.k_bound, m_max=50)
        return inverse_t.solve_volterra(problem)

    def check(self, kind: str, data: np.ndarray, rep) -> tuple[float, list]:
        """Error against the profile formula, plus the method's properties."""
        problems = []
        rec = getattr(rep.recovered, "values", None)
        if rec is None:
            rec = rep.recovered.coeffs
        if not np.all(np.isfinite(rec)) or not np.all(np.isfinite(rep.residual_history)):
            problems.append("non-finite output")
        if kind in ("fixed-point", "volterra"):
            err = truth.rel_l2(rec[1:], truth.rho_formula(self.plan["rho_t"], self.t)[1:])
            bound = RHO_NOISY_BOUND
        else:
            spec = self.plan["g_i" if kind == "interior" else "g_f"]
            err = truth.rel_l2(truth.synthesize(rec, self.x), truth.g_formula(spec, self.x))
            bound = INTERIOR_BOUND if kind == "interior" else G_FINAL_BOUND
        if not err < bound:
            problems.append(f"{kind} error {err:.3e} is not below {bound}")
        if kind == "interior":
            h = rep.residual_history
            if any(b > a for a, b in zip(h, h[1:])):
                problems.append("interior residual history increases")
        if kind == "final-data":
            noise = float(np.linalg.norm(data - self.final))
            disc = rep.residual_history[-1]
            if not abs(disc - noise) <= DISCREPANCY_RTOL * noise:
                problems.append(f"discrepancy {disc:.15e} differs from the noise norm {noise:.15e}")
        return err, problems


def _digest(rep) -> str:
    rec = getattr(rep.recovered, "values", None)
    if rec is None:
        rec = rep.recovered.coeffs
    return hashlib.sha256(np.ascontiguousarray(rec).tobytes()).hexdigest()


def worker(plan: dict) -> dict:
    perf = time.perf_counter
    tracer = None
    if plan["trace"]:
        from tracer import Tracer

        tracer = Tracer()
    t0 = perf()
    import fracsource.cli  # noqa: F401  (the same import the CLI pays)

    import_s = perf() - t0
    if tracer is not None:
        tracer.install()
    probs = Problems(plan)  # one forward solve per configuration fills the caches
    out = {"setup_s": perf() - plan["t_spawn"], "import_s": import_s,
           "setup_speeds": [speed.REF_S / speed.probe() for _ in range(speed.PER_CHILD)]}
    if plan["setup_only"]:
        return out
    before = tracer.snapshot() if tracer else {}
    ops, windows, digests, speeds = [], [], {}, []
    rounds = 0
    t_loop = perf()
    while more_rounds(rounds, t_loop, plan["seconds"], plan["trace"]):
        r = rounds
        traced = traced_round(plan["trace"], r)
        speeds.append(speed.REF_S / speed.probe())  # the host's speed for this round
        if traced:
            tracer.install()
        elif tracer is not None:
            tracer.uninstall()
        w0 = perf()
        for kind in Problems.KINDS:
            data = probs.noisy(kind, r)
            t = perf()
            try:
                rep = probs.solve(kind, data)
            except Exception:  # a failed operation must not stop the run
                ops.append({"kind": kind, "failed": traceback.format_exc(limit=4)})
                continue
            wall = perf() - t
            err, problems = probs.check(kind, data, rep)
            if r == 0:
                digests[kind] = _digest(rep)
            ops.append({"kind": kind, "wall_s": wall, "traced": traced, "error": err,
                        "problems": problems})
        rounds += 1
        if traced:
            windows.append([w0, perf()])
    if tracer is not None:
        tracer.uninstall()
    after = tracer.snapshot() if tracer else {}
    # repeated data must give bit-identical reconstructions
    for kind in Problems.KINDS:
        try:
            rep = probs.solve(kind, probs.noisy(kind, 0))
        except Exception:
            ops.append({"kind": kind, "failed": "repeat: " + traceback.format_exc(limit=4)})
            continue
        same = _digest(rep) == digests.get(kind)
        ops.append({"kind": kind, "repeat": True,
                    "problems": [] if same else [f"{kind}: repeated data gave different bytes"]})
    if tracer is not None:
        tracer.dump(plan["spans"], {"import_s": import_s})
    out.update(ops=ops, windows=windows, counters=[before, after], speeds=speeds)
    return out


# ---------------------------------------------------------------------------
# runner side


def run(seed: int, seconds: float, trace: bool, log) -> dict:
    work = os.path.join(WORK, f"warm-resolve-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    try:
        setups, speeds, rss, result = [], [], [], None
        for i in range(SETUP_WORKERS):
            last = i == SETUP_WORKERS - 1
            plan_path = os.path.join(work, f"plan{i}.json")
            # set-up is timed from here, as the CLI workloads time a spawn
            plan = dict(plan_for(seed), seconds=seconds, trace=trace and last,
                        setup_only=not last, spans=os.path.join(work, "spans.npz"),
                        result=os.path.join(work, f"result{i}.json"),
                        t_spawn=time.perf_counter())
            with open(plan_path, "w", encoding="utf-8") as fh:
                json.dump(plan, fh)
            res = spawn([sys.executable, os.path.join(BENCH, "warm.py"), plan_path], work,
                        os.path.join(work, f"worker{i}.err"))
            if res.returncode != 0:
                raise RuntimeError(f"warm-resolve worker failed:\n{res.stderr}")
            with open(plan["result"], "r", encoding="utf-8") as fh:
                result = json.load(fh)
            setups.append(result["setup_s"])
            speeds += result["setup_speeds"]
            rss.append(res.peak_rss_mib)
        ops = result["ops"]
        failed = [o for o in ops if "failed" in o]
        for o in failed:
            log(f"{o['kind']}: {o['failed']}")
        problems = [p for o in ops for p in o.get("problems", [])]
        for p in problems:
            log(p)
        out = {"correct": not problems, "attempted": len(ops), "failed": len(failed)}
        timed = [o for o in ops if "wall_s" in o]
        plain = [(o["kind"], o["wall_s"]) for o in timed if not o["traced"]]
        if trace:
            sp = layers.Spans(plan["spans"], windows=result["windows"])
            out["metrics"] = layers.layer_metrics(
                [sp], len(result["windows"]), layers.sum_counters([result["counters"]]),
                [result["import_s"]], [], 0,
                *overhead([(o["kind"], o["wall_s"]) for o in timed if o["traced"]], plain))
        else:
            out["metrics"] = end_to_end(setups, plain, speeds + result["speeds"], rss,
                                        [o["error"] for o in timed], log)
        return out
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    with open(sys.argv[1], "r", encoding="utf-8") as fh:
        _plan = json.load(fh)
    _result = worker(_plan)
    with open(_plan["result"], "w", encoding="utf-8") as fh:
        json.dump(_result, fh)
