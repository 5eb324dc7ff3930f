"""Per-layer metrics from the spans the tracer wrote.

A layer is a fracsource module.  Self time of a span is its duration
minus its child spans and minus the Mittag-Leffler time spent directly
under it.  Region metrics ("time inside the discrepancy bisection")
add the self times of one module's spans at or below a named span.
Counts and seconds are per round of the workload; per-value and
per-iteration figures are ratios and need no normalising.
"""

from __future__ import annotations

import json
import statistics

import numpy as np

from tracer import BANDS

SOLVES = ("forward.solve_homogeneous", "forward.solve_inhomogeneous", "forward.solve_backward_adjoint")
KERNEL = "forward.modal_kernel_weights"

PER_LAYER = (
    ("mlf.values", "count"),
    ("mlf.new_values", "count"),
    ("mlf.self_s", "s"),
    *((f"mlf.values.{b}", "count") for b in BANDS),
    *((f"mlf.us_per_new_value.{b}", "us") for b in BANDS),
    ("mlf.us_per_repeat_value", "us"),
    ("forward.kernel_weights.calls", "count"),
    ("forward.kernel_weights.self_s", "s"),
    ("forward.solves", "count"),
    ("forward.solve.self_s", "s"),
    ("forward.s_per_solve", "s"),
    ("fracops.calls", "count"),
    ("fracops.self_s", "s"),
    ("inverse_t.volterra.self_s", "s"),
    ("inverse_t.fixed_point.iterations", "count"),
    ("inverse_t.fixed_point.s_per_iteration", "s"),
    ("inverse_t.fixed_point.solves_per_iteration", "count"),
    ("inverse_x.modal_responses", "count"),
    ("inverse_x.discrepancy.self_s", "s"),
    ("inverse_x.interior.iterations", "count"),
    ("inverse_x.interior.s_per_iteration", "s"),
    ("inverse_x.interior.solves_per_iteration", "count"),
    ("inverse_x.estimate_k.self_s", "s"),
    ("profiles.self_s", "s"),
    ("spectral.self_s", "s"),
    ("cli.import_s", "s"),
    ("cli.outside_dispatch_s", "s"),
    ("cli.csv_bytes", "count"),
    ("trace.overhead_s", "s"),
    ("trace.overhead_share", "1"),
)


class Spans:
    """One dump, with self times and an optional mask of spans to count."""

    def __init__(self, path: str, windows=None):
        with np.load(path) as z:
            self.name_id = z["name_id"]
            self.parent = z["parent"]
            start, end, ml = z["start"], z["end"], z["ml"]
            self.meta = json.loads(str(z["meta"]))
        self.names = self.meta["names"]
        self.dur = end - start
        n = self.dur.shape[0]
        has_parent = self.parent >= 0
        children = np.bincount(
            self.parent[has_parent], weights=self.dur[has_parent], minlength=n
        )[:n]
        self.self_s = self.dur - children - ml
        self.module = np.array([s.split(".")[0] for s in self.names] + [""])[self.name_id]
        self.keep = np.ones(n, dtype=bool)
        if windows is not None:
            self.keep[:] = False
            for lo, hi in windows:
                self.keep |= (start >= lo) & (end <= hi)

    def is_named(self, *names) -> np.ndarray:
        ids = [i for i, s in enumerate(self.names) if s in names]
        return np.isin(self.name_id, ids)

    def below(self, mark: np.ndarray) -> np.ndarray:
        """Spans with a strict ancestor in mark."""
        out = np.zeros_like(mark)
        p = self.parent.copy()
        while True:
            live = p >= 0
            if not live.any():
                return out
            out[live] |= mark[p[live]]
            p[live] = self.parent[p[live]]

    def count(self, mask) -> int:
        return int(np.count_nonzero(mask & self.keep))

    def total(self, values, mask) -> float:
        return float(values[mask & self.keep].sum())

    def region_self(self, module: str, *names) -> float:
        mark = self.is_named(*names)
        return self.total(self.self_s, (mark | self.below(mark)) & (self.module == module))


def layer_metrics(dumps: list, rounds: int, counters: dict, import_s: list,
                  outside_dispatch_s: list, csv_bytes: float,
                  overhead_s: float, overhead_share: float) -> dict:
    """Every PER_LAYER metric, per round of the workload.

    counters holds the tracer snapshot differences summed over the traced
    processes (ML bands and solver iterations).
    """
    tot: dict[str, float] = {}

    def add(key, value):
        tot[key] = tot.get(key, 0.0) + value

    for sp in dumps:
        solve = sp.is_named(*SOLVES)
        top_solve = solve & ~sp.below(solve)
        kernel = sp.is_named(KERNEL)
        add("kernel.calls", sp.count(kernel))
        add("kernel.self", sp.region_self("forward", KERNEL))
        add("solves", sp.count(top_solve))
        add("solve.dur", sp.total(sp.dur, top_solve))
        in_kernel = kernel | sp.below(kernel)
        in_solve = (solve | sp.below(solve)) & (sp.module == "forward") & ~in_kernel
        add("solve.self", sp.total(sp.self_s, in_solve))
        fracops = sp.module == "fracops"
        add("fracops.calls", sp.count(fracops))
        add("fracops.self", sp.total(sp.self_s, fracops))
        add("volterra.self", sp.region_self("inverse_t", "inverse_t.solve_volterra"))
        fp = sp.is_named("inverse_t.fixed_point_iterate")
        add("fp.dur", sp.total(sp.dur, fp))
        add("fp.solves", sp.count(top_solve & sp.below(fp)))
        add("modal_responses", sp.count(sp.is_named("inverse_x.modal_response")))
        add("discrepancy.self", sp.region_self("inverse_x", "inverse_x.choose_mu_discrepancy"))
        it = sp.is_named("inverse_x.iterative_thresholding")
        ek = sp.is_named("inverse_x.estimate_k")
        add("it.dur", sp.total(sp.dur, it) - sp.total(sp.dur, ek & sp.below(it)))
        add("it.solves", sp.count(top_solve & sp.below(it) & ~(ek | sp.below(ek))))
        add("estimate_k.self", sp.region_self("inverse_x", "inverse_x.estimate_k"))
        add("profiles.self", sp.total(sp.self_s, sp.module == "profiles"))
        add("spectral.self", sp.total(sp.self_s, sp.module == "spectral"))

    def ratio(num, den):
        return num / den if den else 0.0

    c = counters
    new_n = [c.get(f"ml.new_n.{b}", 0) for b in BANDS]
    new_s = [c.get(f"ml.new_s.{b}", 0.0) for b in BANDS]
    rep_n = [c.get(f"ml.rep_n.{b}", 0) for b in BANDS]
    rep_s = [c.get(f"ml.rep_s.{b}", 0.0) for b in BANDS]
    fp_iter = c.get("inverse_t.fixed_point.iterations", 0)
    it_iter = c.get("inverse_x.interior.iterations", 0)
    r = float(rounds)
    out = {
        "mlf.values": (sum(new_n) + sum(rep_n)) / r,
        "mlf.new_values": sum(new_n) / r,
        "mlf.self_s": (sum(new_s) + sum(rep_s)) / r,
    }
    for i, b in enumerate(BANDS):
        out[f"mlf.values.{b}"] = (new_n[i] + rep_n[i]) / r
    for i, b in enumerate(BANDS):
        out[f"mlf.us_per_new_value.{b}"] = 1e6 * ratio(new_s[i], new_n[i])
    out["mlf.us_per_repeat_value"] = 1e6 * ratio(sum(rep_s), sum(rep_n))
    out.update({
        "forward.kernel_weights.calls": tot["kernel.calls"] / r,
        "forward.kernel_weights.self_s": tot["kernel.self"] / r,
        "forward.solves": tot["solves"] / r,
        "forward.solve.self_s": tot["solve.self"] / r,
        "forward.s_per_solve": ratio(tot["solve.dur"], tot["solves"]),
        "fracops.calls": tot["fracops.calls"] / r,
        "fracops.self_s": tot["fracops.self"] / r,
        "inverse_t.volterra.self_s": tot["volterra.self"] / r,
        "inverse_t.fixed_point.iterations": fp_iter / r,
        "inverse_t.fixed_point.s_per_iteration": ratio(tot["fp.dur"], fp_iter),
        "inverse_t.fixed_point.solves_per_iteration": ratio(tot["fp.solves"], fp_iter),
        "inverse_x.modal_responses": tot["modal_responses"] / r,
        "inverse_x.discrepancy.self_s": tot["discrepancy.self"] / r,
        "inverse_x.interior.iterations": it_iter / r,
        "inverse_x.interior.s_per_iteration": ratio(tot["it.dur"], it_iter),
        "inverse_x.interior.solves_per_iteration": ratio(tot["it.solves"], it_iter),
        "inverse_x.estimate_k.self_s": tot["estimate_k.self"] / r,
        "profiles.self_s": tot["profiles.self"] / r,
        "spectral.self_s": tot["spectral.self"] / r,
        "cli.import_s": statistics.median(import_s),
        "cli.outside_dispatch_s": statistics.median(outside_dispatch_s) if outside_dispatch_s else 0.0,
        "cli.csv_bytes": csv_bytes / r,
        "trace.overhead_s": overhead_s,
        "trace.overhead_share": overhead_share,
    })
    units = dict(PER_LAYER)
    if set(out) != set(units):
        raise RuntimeError(f"per-layer names out of step: {sorted(set(out) ^ set(units))}")
    return {k: {"value": float(v), "unit": units[k]} for k, v in out.items()}


def sum_counters(snapshots) -> dict:
    """Add (after - before) snapshot pairs key by key."""
    out: dict[str, float] = {}
    for before, after in snapshots:
        for k, v in after.items():
            out[k] = out.get(k, 0) + v - before.get(k, 0)
    return out


def dispatch_s(sp: Spans) -> float:
    """Duration of the outermost cli.dispatch span of one process."""
    d = sp.is_named("cli.dispatch")
    return sp.total(sp.dur, d & ~sp.below(d))
