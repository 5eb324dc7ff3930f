"""Command-line harness: JSON config in, deterministic CSV out.

Usage: fracsource <config.json> [--override key=value ...]

Every mode is a thin wrapper over one library operation; no numerics
live here.  Output files use '.' as decimal separator, '\\n' line
endings and UTF-8, and re-running the same config reproduces them byte
for byte.  Exit codes: 0 success, 2 config parse error, 3 validation
error, 4 solver error (including any non-finite result).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import forward, inverse_t, inverse_x
from .errors import FracsourceError
from .fracops import FractionalOrder, TimeGrid, TimeSeries, caputo_l1
from .mlf import MLConvergenceError, MLParams, ml_eval
from .profiles import make_g, make_rho
from .report import relative_l2
from .spectral import Domain1D, SpectralField, eval_on_mesh

__all__ = ["main", "run", "add_noise"]

MODES = (
    "forward",
    "invert-rho-volterra",
    "invert-rho-fixedpoint",
    "invert-g-final",
    "invert-g-interior",
    "ml-eval",
    "sweep",
    "caputo-t2",
)


class ConfigError(ValueError):
    """Invalid configuration value; carries the offending key."""

    def __init__(self, key: str, message: str):
        super().__init__(f"config key '{key}': {message}")
        self.key = key


def add_noise(series: TimeSeries, level: float, seed: int) -> TimeSeries:
    """I.i.d. uniform perturbation of amplitude level * max|series|."""
    if level < 0.0:
        raise ValueError("noise level must be >= 0")
    if level == 0.0:
        return series
    amp = level * float(np.max(np.abs(series.values)))
    rng = np.random.default_rng(seed)
    bump = amp * rng.uniform(-1.0, 1.0, series.values.shape[0])
    return TimeSeries(series.grid, series.values + bump)


def _fmt(v) -> str:
    if isinstance(v, bool):
        return str(v).lower()
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return format(float(v), ".17g")
    return str(v)


def write_result(path: str, metadata: dict, columns: dict) -> None:
    lines = [f"# {k}={_fmt(v)}" for k, v in metadata.items()]
    if columns:
        names = list(columns)
        arrays = [np.atleast_1d(np.asarray(columns[n])) for n in names]
        lines.append(",".join(names))
        for i in range(arrays[0].shape[0]):
            lines.append(",".join(_fmt(a[i]) for a in arrays))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# config access with validation


def _get(cfg: dict, key: str, default=None, required: bool = False):
    if key in cfg:
        return cfg[key]
    if required:
        raise ConfigError(key, "missing required key")
    return default


def _num(cfg: dict, key: str, default=None, lo=None, hi=None, required=False):
    v = _get(cfg, key, default, required)
    if v is None:
        return None
    if not isinstance(v, (int, float)) or isinstance(v, bool) or not math.isfinite(v):
        raise ConfigError(key, f"expected a finite number, got {v!r}")
    if lo is not None and v < lo:
        raise ConfigError(key, f"must be >= {lo}, got {v}")
    if hi is not None and v > hi:
        raise ConfigError(key, f"must be <= {hi}, got {v}")
    return v


def _int(cfg: dict, key: str, default=None, lo=None, required=False):
    v = _get(cfg, key, default, required)
    if v is None:
        return None
    if not isinstance(v, int) or isinstance(v, bool):
        raise ConfigError(key, f"expected an integer, got {v!r}")
    if lo is not None and v < lo:
        raise ConfigError(key, f"must be >= {lo}, got {v}")
    return v


def _build_domain(cfg: dict) -> Domain1D:
    length = _num(cfg, "L", 1.0, lo=1e-12)
    n_modes = _int(cfg, "N", 64, lo=1)
    return Domain1D(length, n_modes)


def _build_grid(cfg: dict) -> TimeGrid:
    total = _num(cfg, "T", 1.0, lo=1e-12)
    n_steps = _int(cfg, "n_steps", 256, lo=2)
    return TimeGrid(total, n_steps)


def _build_alpha(cfg: dict) -> FractionalOrder:
    a = _num(cfg, "alpha", None, required=True)
    try:
        return FractionalOrder(a)
    except ValueError as exc:
        raise ConfigError("alpha", str(exc)) from exc


def _build_g(cfg: dict, domain: Domain1D) -> SpectralField:
    spec = _get(cfg, "g", {"profile": "sine_bump"})
    if not isinstance(spec, dict) or "profile" not in spec:
        raise ConfigError("g", "expected an object with a 'profile' key")
    try:
        return make_g(domain, spec["profile"], **spec.get("params", {}))
    except (ValueError, TypeError) as exc:
        raise ConfigError("g", str(exc)) from exc


def _build_rho(cfg: dict, grid: TimeGrid) -> TimeSeries:
    spec = _get(cfg, "rho", {"profile": "constant"})
    if not isinstance(spec, dict) or "profile" not in spec:
        raise ConfigError("rho", "expected an object with a 'profile' key")
    try:
        return make_rho(grid, spec["profile"], **spec.get("params", {}))
    except (ValueError, TypeError) as exc:
        raise ConfigError("rho", str(exc)) from exc


def _solver(cfg: dict) -> dict:
    s = _get(cfg, "solver", {})
    if not isinstance(s, dict):
        raise ConfigError("solver", "expected an object")
    return s


# ---------------------------------------------------------------------------
# mode runners: each returns (metadata, columns)


def _run_ml_eval(cfg: dict):
    ml = _get(cfg, "ml", {})
    a = _num(ml, "alpha", None, required=True)
    b = _num(ml, "beta", None, required=True)
    zs = ml.get("z", [0.0])
    if isinstance(zs, (int, float)):
        zs = [zs]
    try:
        p = MLParams(a, b)
        vals = [ml_eval(p, float(z)) for z in zs]
    except ValueError as exc:
        raise ConfigError("ml", str(exc)) from exc
    return (
        {"mode": "ml-eval", "alpha": a, "beta": b},
        {"z": np.asarray(zs, dtype=float), "value": np.asarray(vals)},
    )


def _synthesize(cfg: dict):
    domain = _build_domain(cfg)
    grid = _build_grid(cfg)
    alpha = _build_alpha(cfg)
    g = _build_g(cfg, domain)
    rho = _build_rho(cfg, grid)
    return domain, grid, alpha, g, rho


def _run_forward(cfg: dict):
    domain, grid, alpha, g, rho = _synthesize(cfg)
    x0 = _num(cfg, "x0", domain.length / 2.0, lo=0.0, hi=domain.length)
    u = forward.solve_inhomogeneous(forward.separated_source(g, rho), alpha, grid)
    trace = forward.observe_point(u, x0)
    l2 = np.linalg.norm(u.modal_values, axis=0)
    meta = {"mode": "forward", "alpha": alpha.alpha, "x0": x0, "n_steps": grid.n_steps}
    return meta, {"t": grid.nodes(), "u_x0": trace.values, "l2_norm": l2}


def _run_invert_rho(cfg: dict, variant: str):
    domain, grid, alpha, g, rho_true = _synthesize(cfg)
    x0 = _num(cfg, "x0", domain.length / 2.0, lo=0.0, hi=domain.length)
    level = _num(cfg, "noise_level", 0.0, lo=0.0)
    seed = _int(cfg, "seed", 0)
    s = _solver(cfg)
    u = forward.solve_inhomogeneous(forward.separated_source(g, rho_true), alpha, grid)
    trace = add_noise(forward.observe_point(u, x0), level, seed)
    problem = inverse_t.TSourceProblem(g, x0, alpha, grid, trace, noise_level=level)
    width = _int(s, "mollify_width", 5, lo=1)
    if variant == "volterra":
        rep = inverse_t.solve_volterra(problem, mollify_width=width)
    else:
        k_cfg = _num(s, "K", None, lo=0.0)
        if k_cfg is None:
            v = forward.observe_point(
                forward.solve_homogeneous(g, alpha, grid), x0
            )
            k_cfg = float(np.max(np.abs(v.values)))
        rep = inverse_t.fixed_point_iterate(
            problem,
            K=k_cfg,
            m_max=_int(s, "m_max", 50, lo=1),
            tol=_num(s, "tol", 1e-10, lo=0.0),
            mollify_width=width,
        )
    err = relative_l2(rep.recovered.values, rho_true.values, skip_first=1)
    meta = {
        "mode": f"invert-rho-{variant}",
        "alpha": alpha.alpha,
        "x0": x0,
        "noise_level": level,
        "seed": seed,
        "iterations": rep.iterations,
        "rel_l2_error": err,
        "final_residual": rep.residual_history[-1] if rep.residual_history else 0.0,
    }
    cols = {"t": grid.nodes(), "rho_rec": rep.recovered.values, "rho_true": rho_true.values}
    return meta, cols


def _run_invert_g_final(cfg: dict):
    domain, grid, alpha, g_true, rho = _synthesize(cfg)
    level = _num(cfg, "noise_level", 0.0, lo=0.0)
    seed = _int(cfg, "seed", 0)
    s = _solver(cfg)
    u = forward.solve_inhomogeneous(forward.separated_source(g_true, rho), alpha, grid)
    coeffs = u.modal_values[:, -1].copy()
    noise_norm = 0.0
    if level > 0.0:
        rng = np.random.default_rng(seed)
        bump = level * float(np.max(np.abs(coeffs))) * rng.uniform(-1.0, 1.0, coeffs.shape[0])
        coeffs = coeffs + bump
        noise_norm = float(np.linalg.norm(bump))
    final = SpectralField(domain, coeffs)
    delta = _num(s, "delta", 0.0, lo=0.0)
    mu = _num(s, "mu", None, lo=0.0)
    if mu is None:
        mu = (
            inverse_x.choose_mu_discrepancy(rho, alpha, grid, final, delta, noise_norm)
            if level > 0.0
            else 1e-10
        )
    problem = inverse_x.XSourceFinalProblem(rho, alpha, grid, final, delta, mu)
    rep = inverse_x.reconstruct_final(problem)
    err = relative_l2(rep.recovered.coeffs, g_true.coeffs)
    meta = {
        "mode": "invert-g-final",
        "alpha": alpha.alpha,
        "noise_level": level,
        "seed": seed,
        "mu": mu,
        "delta": delta,
        "retained_modes": rep.diagnostics["retained_modes"],
        "discrepancy": rep.residual_history[-1],
        "rel_l2_error": err,
    }
    xs = domain.mesh(max(4 * domain.n_modes + 1, 257))
    cols = {
        "x": xs,
        "g_rec": eval_on_mesh(rep.recovered, xs),
        "g_true": eval_on_mesh(g_true, xs),
    }
    return meta, cols


def _run_invert_g_interior(cfg: dict):
    domain, grid, alpha, g_true, rho = _synthesize(cfg)
    omega = _get(cfg, "omega", None, required=True)
    if (
        not isinstance(omega, (list, tuple))
        or len(omega) != 2
        or not all(isinstance(v, (int, float)) for v in omega)
    ):
        raise ConfigError("omega", "expected a pair [lo, hi]")
    n_mesh = _int(cfg, "n_mesh", 257, lo=8)
    level = _num(cfg, "noise_level", 0.0, lo=0.0)
    seed = _int(cfg, "seed", 0)
    s = _solver(cfg)
    u = forward.solve_inhomogeneous(forward.separated_source(g_true, rho), alpha, grid)
    observed = inverse_x.observe_interior(u, (omega[0], omega[1]), n_mesh)
    if level > 0.0:
        rng = np.random.default_rng(seed)
        observed = observed + level * float(np.max(np.abs(observed))) * rng.uniform(
            -1.0, 1.0, observed.shape
        )
    try:
        problem = inverse_x.XSourceInteriorProblem(
            rho,
            alpha,
            grid,
            domain,
            (omega[0], omega[1]),
            observed,
            n_mesh,
            K=_num(s, "K", None, lo=0.0),
            beta=_num(s, "beta", 1e-10, lo=0.0),
            m_max=_int(s, "m_max", 200, lo=1),
            tol=_num(s, "tol", 0.0, lo=0.0),
        )
    except ValueError as exc:
        raise ConfigError("omega", str(exc)) from exc
    rep = inverse_x.iterative_thresholding(problem)
    err = relative_l2(rep.recovered.coeffs, g_true.coeffs)
    meta = {
        "mode": "invert-g-interior",
        "alpha": alpha.alpha,
        "omega_lo": omega[0],
        "omega_hi": omega[1],
        "noise_level": level,
        "seed": seed,
        "K": rep.diagnostics["K"],
        "beta": rep.diagnostics["beta"],
        "iterations": rep.iterations,
        "final_data_residual": rep.residual_history[-1],
        "rel_l2_error": err,
    }
    xs = domain.mesh(max(4 * domain.n_modes + 1, 257))
    cols = {
        "x": xs,
        "g_rec": eval_on_mesh(rep.recovered, xs),
        "g_true": eval_on_mesh(g_true, xs),
    }
    return meta, cols


def _run_caputo_t2(cfg: dict):
    """Error of the L1 scheme on f(t) = t^2 against the closed form."""
    grid = _build_grid(cfg)
    alpha = _build_alpha(cfg)
    t = grid.nodes()
    f = TimeSeries(grid, t**2)
    approx = caputo_l1(f, alpha).values
    exact = 2.0 * t ** (2.0 - alpha.alpha) / math.gamma(3.0 - alpha.alpha)
    err = relative_l2(approx, exact, skip_first=1)
    meta = {
        "mode": "caputo-t2",
        "alpha": alpha.alpha,
        "n_steps": grid.n_steps,
        "rel_l2_error": err,
    }
    return meta, {"t": t, "caputo_l1": approx, "exact": exact}


def _run_sweep(cfg: dict):
    spec = _get(cfg, "sweep", None, required=True)
    if not isinstance(spec, dict):
        raise ConfigError("sweep", "expected an object")
    key = spec.get("key")
    values = spec.get("values")
    inner = spec.get("inner")
    metric = spec.get("metric", "rel_l2_error")
    if not isinstance(key, str):
        raise ConfigError("sweep.key", "expected a string")
    if not isinstance(values, list) or not values:
        raise ConfigError("sweep.values", "expected a non-empty list")
    if not isinstance(inner, dict):
        raise ConfigError("sweep.inner", "expected an inner config object")

    def one(v):
        sub = dict(inner)
        sub[key] = v
        sub.pop("output", None)
        meta, _ = dispatch(sub)
        if metric not in meta:
            raise ConfigError("sweep.metric", f"inner run produced no metric {metric!r}")
        return float(meta[metric])

    threads = max(1, int(os.environ.get("FRACSOURCE_THREADS", "1")))
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            errs = list(pool.map(one, values))
    else:
        errs = [one(v) for v in values]
    vals = np.asarray(values, dtype=float)
    errs_arr = np.asarray(errs)
    # slope of log(error) against log(parameter) between consecutive runs
    slope = np.full(vals.shape[0], math.nan)
    with np.errstate(divide="ignore", invalid="ignore"):
        slope[1:] = -(np.log(errs_arr[1:]) - np.log(errs_arr[:-1])) / (
            np.log(vals[1:]) - np.log(vals[:-1])
        )
    meta = {"mode": "sweep", "key": key, "metric": metric}
    return meta, {key: vals, metric: errs_arr, "slope": slope}


def _non_finite(meta: dict, cols: dict) -> str | None:
    """Name of the first metadata value or column holding inf or NaN."""
    for key, v in meta.items():
        if isinstance(v, (float, np.floating)) and not math.isfinite(v):
            return key
    for name, col in cols.items():
        values = np.asarray(col, dtype=float)
        if meta.get("mode") == "sweep" and name == "slope":
            values = values[1:]  # no slope before the first run, by construction
        if not np.all(np.isfinite(values)):
            return name
    return None


def dispatch(cfg: dict):
    mode = _get(cfg, "mode", None, required=True)
    if mode not in MODES:
        raise ConfigError("mode", f"unknown mode {mode!r}; options: {MODES}")
    if mode == "ml-eval":
        return _run_ml_eval(cfg)
    if mode == "forward":
        return _run_forward(cfg)
    if mode == "invert-rho-volterra":
        return _run_invert_rho(cfg, "volterra")
    if mode == "invert-rho-fixedpoint":
        return _run_invert_rho(cfg, "fixedpoint")
    if mode == "invert-g-final":
        return _run_invert_g_final(cfg)
    if mode == "invert-g-interior":
        return _run_invert_g_interior(cfg)
    if mode == "caputo-t2":
        return _run_caputo_t2(cfg)
    return _run_sweep(cfg)


def _apply_override(cfg: dict, item: str) -> None:
    if "=" not in item:
        raise ConfigError("--override", f"expected key=value, got {item!r}")
    key, raw = item.split("=", 1)
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    node = cfg
    parts = key.split(".")
    for part in parts[:-1]:
        node = node.setdefault(part, {})
        if not isinstance(node, dict):
            raise ConfigError(key, "override path crosses a non-object value")
    node[parts[-1]] = value


def run(config_path: str, overrides=()) -> int:
    try:
        with open(config_path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
        if not isinstance(cfg, dict):
            raise json.JSONDecodeError("top-level value must be an object", "", 0)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"config parse error: {exc}", file=sys.stderr)
        return 2
    try:
        for item in overrides:
            _apply_override(cfg, item)
        out_path = cfg.get("output")
        if out_path is None:
            base, _ = os.path.splitext(config_path)
            out_path = base + ".csv"
        if not isinstance(out_path, str):
            raise ConfigError("output", "expected a file path string")
        meta, cols = dispatch(cfg)
        bad = _non_finite(meta, cols)
        if bad is not None:
            raise FracsourceError(f"non-finite value in result {bad!r}")
    except ConfigError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 3
    except (FracsourceError, MLConvergenceError) as exc:
        print(f"solver error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4
    write_result(out_path, meta, cols)
    print(out_path)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="fracsource",
        description="Forward and inverse source solvers for fractional diffusion",
    )
    parser.add_argument("config", help="path to a JSON experiment config")
    parser.add_argument(
        "--override",
        action="append",
        default=[],
        metavar="key=value",
        help="override a config entry (dotted keys, JSON values); repeatable",
    )
    args = parser.parse_args(argv)
    return run(args.config, args.override)


if __name__ == "__main__":
    sys.exit(main())
