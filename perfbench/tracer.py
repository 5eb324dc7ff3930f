"""Span tracer patched around fracsource's public functions from outside.

A span records a name, start, end and parent; spans live in flat arrays
in memory and are written to one .npz file when the process is done.
Mittag-Leffler calls are too many to keep one span each (a fine-grid
operation makes about 260k), so ``ml_eval`` is a leaf: its time goes to
per-band counters and is subtracted from the enclosing span's self time,
and each (alpha, beta, z) is classified once, when first seen.

Each wrapper replaces the function in every fracsource module that holds
it, because ``forward`` imports ``ml_eval`` by name and ``inverse_t`` /
``inverse_x`` import the forward solvers by name.

Run as a script it is the traced CLI:
    python3 perfbench/tracer.py SPANS.npz CONFIG.json [fracsource args]
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from array import array

MODULES = ("forward", "fracops", "inverse_t", "inverse_x", "profiles", "spectral", "cli")
# public entry points that are not in a module's __all__
EXTRA = {"cli": ("dispatch",)}
# solvers whose ReconstructionReport.iterations feed the per-layer counters
ITERATIVE = {
    "inverse_t.fixed_point_iterate": "inverse_t.fixed_point.iterations",
    "inverse_x.iterative_thresholding": "inverse_x.interior.iterations",
}
BANDS = ("series", "gap", "asymptotic")
# band edges on x = |z|^(1/alpha), set from the inputs alone
SERIES_MAX_X = 4.0
ASYMPTOTIC_MIN_X = 35.0


def ml_band(alpha: float, z: float) -> int:
    if z >= 0.0:
        return 0
    x = (-z) ** (1.0 / alpha)
    if x <= SERIES_MAX_X:
        return 0
    return 1 if x < ASYMPTOTIC_MIN_X else 2


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.ml = array("d")
        self.stack: list[list] = []
        self.counters: dict[str, float] = {}
        self.ml_seen: dict[tuple, dict] = {}
        self.ml_new_n = [0, 0, 0]
        self.ml_new_s = [0.0, 0.0, 0.0]
        self.ml_rep_n = [0, 0, 0]
        self.ml_rep_s = [0.0, 0.0, 0.0]
        self._patches: list[tuple] = []
        self._holders: list[tuple] = []

    # -- wrappers ---------------------------------------------------------

    def _span(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        counter = ITERATIVE.get(name)
        stack, perf = self.stack, time.perf_counter
        name_id, parent, start, end, ml = (
            self.name_id, self.parent, self.start, self.end, self.ml,
        )

        # the span opens before and closes after its own bookkeeping, so that
        # cost lands in this span and not in its caller's self time
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = perf()
            idx = len(name_id)
            name_id.append(nid)
            parent.append(stack[-1][0] if stack else -1)
            start.append(t0)
            end.append(0.0)
            ml.append(0.0)
            frame = [idx, 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                ml[idx] = frame[1]
                end[idx] = perf()
            if counter is not None:
                self.counters[counter] = self.counters.get(counter, 0) + result.iterations
            return result

        return wrapper

    def _ml_leaf(self, fn):
        stack, perf, seen = self.stack, time.perf_counter, self.ml_seen
        new_n, new_s, rep_n, rep_s = self.ml_new_n, self.ml_new_s, self.ml_rep_n, self.ml_rep_s

        @functools.wraps(fn)
        def ml_eval(p, z):
            t0 = perf()
            value = fn(p, z)
            dt = perf() - t0
            key = (p.alpha, p.beta)
            zs = seen.get(key)
            if zs is None:
                zs = seen[key] = {}
            band = zs.get(z)
            if band is None:
                band = zs[z] = ml_band(p.alpha, z)
                new_n[band] += 1
                new_s[band] += dt
            else:
                rep_n[band] += 1
                rep_s[band] += dt
            if stack:
                # the bookkeeping above is charged here too, so the caller's
                # self time holds only its own work
                stack[-1][1] += perf() - t0
            return value

        return ml_eval

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        """Patch every public function; a no-op while already installed."""
        import fracsource.cli  # noqa: F401  (loads every module it uses)

        if self._holders:
            return

        mods = {n: m for n, m in sys.modules.items() if n.startswith("fracsource")}
        if not self._patches:
            targets = []
            mlf = mods["fracsource.mlf"]
            targets.append((mlf.ml_eval, self._ml_leaf(mlf.ml_eval)))
            for short in MODULES:
                mod = mods[f"fracsource.{short}"]
                for attr in tuple(getattr(mod, "__all__", ())) + EXTRA.get(short, ()):
                    fn = getattr(mod, attr)
                    if inspect.isfunction(fn):
                        targets.append((fn, self._span(f"{short}.{attr}", fn)))
            self._patches = targets
        originals = {id(orig): wrapped for orig, wrapped in self._patches}
        for mod in mods.values():
            for attr, value in list(vars(mod).items()):
                wrapped = originals.get(id(value))
                if wrapped is not None:
                    setattr(mod, attr, wrapped)
                    self._holders.append((mod, attr, value))

    def uninstall(self) -> None:
        for mod, attr, value in self._holders:
            setattr(mod, attr, value)
        self._holders = []

    # -- results ----------------------------------------------------------

    def snapshot(self) -> dict:
        """Cumulative counters, so a caller can difference two moments."""
        out = dict(self.counters)
        for i, band in enumerate(BANDS):
            out[f"ml.new_n.{band}"] = self.ml_new_n[i]
            out[f"ml.new_s.{band}"] = self.ml_new_s[i]
            out[f"ml.rep_n.{band}"] = self.ml_rep_n[i]
            out[f"ml.rep_s.{band}"] = self.ml_rep_s[i]
        return out

    def dump(self, path: str, meta: dict) -> None:
        import numpy as np

        meta = dict(meta, names=self.names, counters=self.snapshot())
        np.savez(
            path,
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            ml=np.frombuffer(self.ml, dtype=np.float64),
            meta=np.array(json.dumps(meta)),
        )


def traced_cli(argv: list) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    t0 = time.perf_counter()
    import fracsource.cli

    import_s = time.perf_counter() - t0
    tracer = Tracer()
    tracer.install()
    try:
        return fracsource.cli.main(cli_args)
    finally:
        tracer.dump(spans_path, {"import_s": import_s})


if __name__ == "__main__":
    sys.exit(traced_cli(sys.argv[1:]))
