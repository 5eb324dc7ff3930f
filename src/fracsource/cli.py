"""Command-line harness: JSON config in, deterministic CSV out.

Usage: fracsource <config.json> [--override key=value ...]

Every mode is a thin wrapper over one library operation; no numerics
live here.  Output files use '.' as decimal separator, '\\n' line
endings and UTF-8, and re-running the same config reproduces them byte
for byte.  Exit codes: 0 success, 2 config parse error, 3 validation
error, 4 solver error (including any non-finite result).

A mode loads only the solver modules it uses: `forward`, `profiles`,
`inverse_t` and `inverse_x` are registered in sys.modules when this
module is imported, but their code is compiled and run on first use, so
`ml-eval` runs none of them, a rho mode no `inverse_x` and a g mode no
`inverse_t`.
"""

from __future__ import annotations

import argparse
import contextlib
import copy
import importlib.util
import json
import math
import os
import sys

import numpy as np

from .errors import FracsourceError, ParameterError
from .fracops import FractionalOrder, TimeGrid, TimeSeries, caputo_l1, product_rule_convolve
from .mlf import MLConvergenceError, ml_eval_array
from .report import relative_l2
from .spectral import Domain1D, SpectralField, eval_on_mesh

__all__ = ["main", "run", "perturb"]


def _on_first_use(name: str):
    """The submodule `name` of this package, whose code runs at its first attribute access.

    It is in sys.modules from now on, as an eager import would leave it, so
    code that imports this module and then looks the solver modules up
    there (perfbench/tracer.py wraps their functions) still finds them.
    """
    full = f"{__package__}.{name}"
    if full not in sys.modules:
        spec = importlib.util.find_spec(full)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = importlib.util.module_from_spec(spec)
        sys.modules[full] = module
        spec.loader.exec_module(module)
        setattr(sys.modules[__package__], name, module)
    return sys.modules[full]


forward = _on_first_use("forward")
inverse_t = _on_first_use("inverse_t")
inverse_x = _on_first_use("inverse_x")
profiles = _on_first_use("profiles")


class ConfigError(ValueError):
    """Invalid configuration value; carries the offending key."""

    def __init__(self, key: str, message: str):
        super().__init__(f"config key '{key}': {message}")
        self.key = key


def perturb(x: np.ndarray, level: float, seed: int) -> tuple[np.ndarray, float]:
    """x plus i.i.d. uniform noise of amplitude level * max|x|, and the noise norm.

    A noise norm that overflows raises FracsourceError.
    """
    if not level >= 0.0:  # NaN fails too
        raise ValueError(f"noise level must be >= 0, got {level}")
    if level == 0.0:
        return x, 0.0
    amp = level * float(np.max(np.abs(x), initial=0.0))
    bump = amp * np.random.default_rng(seed).uniform(-1.0, 1.0, x.shape)
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(bump))
    if not math.isfinite(norm):
        raise FracsourceError(f"the noise norm of noise_level {level} overflows")
    return x + bump, norm


def _fmt(v) -> str:
    if isinstance(v, (float, np.floating)):  # the commonest cell comes first
        return format(float(v), ".17g")
    return str(v)  # integers and strings


def write_result(path: str, metadata: dict, columns: dict) -> None:
    lines = [f"# {k}={_fmt(v)}" for k, v in metadata.items()]
    if columns:
        names = list(columns)
        arrays = [np.atleast_1d(np.asarray(columns[n])) for n in names]
        lines.append(",".join(names))
        # tolist() yields Python scalars, so no value is indexed as a numpy scalar
        for row in zip(*(a.tolist() for a in arrays)):
            lines.append(",".join(_fmt(v) for v in row))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# config access with validation


@contextlib.contextmanager
def _blame(key: str, kinds=ValueError):
    """Raise an error of `kinds` from the block as a ConfigError of key, chained to it."""
    try:
        yield
    except kinds as exc:
        raise ConfigError(key, str(exc)) from exc


def _walk(cfg: dict, key: str, make: bool = False) -> tuple[dict, str]:
    """The object that holds the last part of the dotted key 'a.b.c', and that part.

    A missing object on the way reads as empty, or is made when make is set.
    """
    *path, last = key.split(".")
    node = cfg
    for i, part in enumerate(path):
        node = node.setdefault(part, {}) if make else node.get(part, {})
        if not isinstance(node, dict):
            raise ConfigError(".".join(path[: i + 1]), "expected an object")
    return node, last


def _get(cfg: dict, key: str, default=None, required: bool = False):
    node, last = _walk(cfg, key)
    if last in node:
        return node[last]
    if required:
        raise ConfigError(key, "missing required key")
    return default


def _is_number(x) -> bool:
    """An int or float, not a bool, that float() takes: JSON reads a 401-digit integer as an int."""
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        return False
    try:  # an int is finite unless it is too large to convert
        return isinstance(x, float) or math.isfinite(x)
    except OverflowError:
        return False


def _num(cfg: dict, key: str, default, lo=None, above=None, integer=False, required=False):
    """The number at key; null only where the default is None, as for solver.K."""
    v = _get(cfg, key, default, required)
    if v is None and default is None and not required:
        return None
    ok = _is_number(v) and (isinstance(v, int) if integer else math.isfinite(v))
    if not ok:
        kind = "an integer" if integer else "a finite number"
        raise ConfigError(key, f"expected {kind}, got {v!r}")
    if lo is not None and v < lo:
        raise ConfigError(key, f"must be >= {lo}, got {v}")
    if above is not None and v <= above:
        raise ConfigError(key, f"must be > {above}, got {v}")
    return v


def _numbers(cfg: dict, key: str, default=None) -> list:
    """The non-empty list of numbers at key, as given; a bare number reads as a list of one."""
    v = _get(cfg, key, default, required=default is None)
    if _is_number(v):
        v = [v]
    if not isinstance(v, list) or not v or not all(map(_is_number, v)):
        raise ConfigError(key, f"expected a non-empty list of numbers, got {v!r}")
    return v


def _build_domain(cfg: dict) -> Domain1D:
    return Domain1D(_num(cfg, "L", 1.0, lo=1e-12), _num(cfg, "N", 64, lo=1, integer=True))


def _build_grid(cfg: dict) -> TimeGrid:
    return TimeGrid(_num(cfg, "T", 1.0, lo=1e-12), _num(cfg, "n_steps", 256, lo=2, integer=True))


def _build_alpha(cfg: dict) -> FractionalOrder:
    a = _num(cfg, "alpha", None, required=True)
    with _blame("alpha"):
        return FractionalOrder(a)


def _build_profile(cfg: dict, key: str, default: str, make, on):
    spec = _get(cfg, key, {"profile": default})
    if not isinstance(spec, dict) or "profile" not in spec:
        raise ConfigError(key, "expected an object with a 'profile' key")
    with _blame(key, (ValueError, TypeError)):
        return make(on, spec["profile"], **spec.get("params", {}))


def _interior_point(cfg: dict, domain: Domain1D) -> float:
    x0 = _num(cfg, "x0", domain.length / 2.0)
    if not 0.0 < x0 < domain.length:
        raise ConfigError("x0", f"must lie strictly inside (0, {domain.length}), got {x0}")
    return x0


# ---------------------------------------------------------------------------
# mode runners: each returns (metadata, columns)


def _run_ml_eval(cfg: dict):
    a = _num(cfg, "ml.alpha", None, required=True)
    b = _num(cfg, "ml.beta", None, required=True)
    zs = np.asarray(_numbers(cfg, "ml.z", [0.0]), dtype=float)
    with _blame("ml"):
        vals = ml_eval_array(a, b, zs)
    return {"alpha": a, "beta": b}, {"z": zs, "value": vals}


def _synthesize(cfg: dict):
    domain = _build_domain(cfg)
    grid = _build_grid(cfg)
    alpha = _build_alpha(cfg)
    g = _build_profile(cfg, "g", "sine_bump", profiles.make_g, domain)
    rho = _build_profile(cfg, "rho", "constant", profiles.make_rho, grid)
    return domain, grid, alpha, g, rho


def _noisy(cfg: dict, clean: np.ndarray):
    """The clean data with the config's noise, the noise norm and the noise metadata.

    Clean data that are not finite (the synthesis overflowed) raise FracsourceError.
    """
    level = _num(cfg, "noise_level", 0.0, lo=0.0)
    seed = _num(cfg, "seed", 0, lo=0, integer=True)
    if not np.all(np.isfinite(clean)):
        raise FracsourceError("the synthesized data are not finite")
    return (*perturb(clean, level, seed), {"noise_level": level, "seed": seed})


def _run_forward(cfg: dict):
    domain, grid, alpha, g, rho = _synthesize(cfg)
    x0 = _interior_point(cfg, domain)
    # a result that overflowed is refused by _non_finite, without numpy's warnings
    with np.errstate(over="ignore", invalid="ignore"):
        u = forward.solve_inhomogeneous(forward.separated_source(g, rho), alpha, grid)
        trace = forward.observe_point(u, x0)
        l2 = np.linalg.norm(u.modal_values, axis=0)
    meta = {"alpha": alpha.alpha, "x0": x0, "n_steps": grid.n_steps}
    return meta, {"t": grid.nodes(), "u_x0": trace.values, "l2_norm": l2}


def _run_invert_rho(cfg: dict, variant: str):
    domain, grid, alpha, g, rho_true = _synthesize(cfg)
    x0 = _interior_point(cfg, domain)
    # only the trace is observed: one convolution, not a solve of every mode
    c, d = forward.trace_weights(g, x0, alpha, grid)
    with np.errstate(over="ignore", invalid="ignore"):  # _noisy refuses overflowed data
        clean = product_rule_convolve(c, d, rho_true.values)
    observed, _, noise = _noisy(cfg, clean)
    trace = TimeSeries(grid, observed)
    problem = inverse_t.TSourceProblem(g, x0, alpha, grid, trace, noise_level=noise["noise_level"])
    width = _num(cfg, "solver.mollify_width", 5, lo=1, integer=True)
    if variant == "volterra":
        rep = inverse_t.solve_volterra(problem, mollify_width=width)
    else:
        rep = inverse_t.fixed_point_iterate(
            problem,
            K=_num(cfg, "solver.K", None, lo=0.0),
            m_max=_num(cfg, "solver.m_max", 50, lo=1, integer=True),
            tol=_num(cfg, "solver.tol", 1e-10, lo=0.0),
            mollify_width=width,
        )
    err = relative_l2(rep.recovered.values, rho_true.values, skip_first=1)
    meta = {
        "alpha": alpha.alpha,
        "x0": x0,
        **noise,
        "iterations": rep.iterations,
        "rel_l2_error": err,
        "final_residual": rep.residual_history[-1],
    }
    cols = {"t": grid.nodes(), "rho_rec": rep.recovered.values, "rho_true": rho_true.values}
    return meta, cols


def _g_columns(recovered: SpectralField, g_true: SpectralField) -> dict:
    """Recovered and true g on the mesh the profiles are sampled on."""
    xs = profiles._sample_mesh(g_true.domain)
    return {"x": xs, "g_rec": eval_on_mesh(recovered, xs), "g_true": eval_on_mesh(g_true, xs)}


def _run_invert_g_final(cfg: dict):
    domain, grid, alpha, g_true, rho = _synthesize(cfg)
    # u(., T) has coefficients g_n B_n; the rest of the field is never observed
    b = inverse_x.modal_responses(rho, alpha, grid, domain)
    with np.errstate(over="ignore"):  # _noisy refuses overflowed data
        clean = g_true.coeffs * b
    coeffs, noise_norm, noise = _noisy(cfg, clean)
    final = SpectralField(domain, coeffs)
    delta = _num(cfg, "solver.delta", 0.0, lo=0.0)
    mu = _num(cfg, "solver.mu", None, lo=0.0)
    if mu is None:
        mu = inverse_x.choose_mu_discrepancy(rho, alpha, grid, final, delta, noise_norm)
    problem = inverse_x.XSourceFinalProblem(rho, alpha, grid, final, delta, mu)
    rep = inverse_x.reconstruct_final(problem)
    err = relative_l2(rep.recovered.coeffs, g_true.coeffs)
    meta = {
        "alpha": alpha.alpha,
        **noise,
        "mu": mu,
        "delta": delta,
        "retained_modes": rep.diagnostics["retained_modes"],
        "discrepancy": rep.residual_history[-1],
        "rel_l2_error": err,
    }
    return meta, _g_columns(rep.recovered, g_true)


def _run_invert_g_interior(cfg: dict):
    domain, grid, alpha, g_true, rho = _synthesize(cfg)
    omega = _numbers(cfg, "omega")
    if len(omega) != 2:
        raise ConfigError("omega", f"expected a pair [lo, hi], got {omega!r}")
    n_mesh = _num(cfg, "n_mesh", 257, lo=8, integer=True)
    with np.errstate(over="ignore", invalid="ignore"):  # _noisy refuses overflowed data
        u = forward.solve_inhomogeneous(forward.separated_source(g_true, rho), alpha, grid)
        clean = inverse_x.observe_interior(u, (omega[0], omega[1]), n_mesh)
    observed, _, noise = _noisy(cfg, clean)
    settings = {
        "K": _num(cfg, "solver.K", None, above=0.0),
        "beta": _num(cfg, "solver.beta", 1e-10, above=0.0),
        "m_max": _num(cfg, "solver.m_max", 200, lo=1, integer=True),
        "tol": _num(cfg, "solver.tol", 0.0, lo=0.0),
    }
    with _blame("omega"):
        problem = inverse_x.XSourceInteriorProblem(
            rho, alpha, grid, domain, (omega[0], omega[1]), observed, n_mesh, **settings
        )
    rep = inverse_x.iterative_thresholding(problem)
    err = relative_l2(rep.recovered.coeffs, g_true.coeffs)
    meta = {
        "alpha": alpha.alpha,
        "omega_lo": omega[0],
        "omega_hi": omega[1],
        **noise,
        "K": rep.diagnostics["K"],
        "beta": rep.diagnostics["beta"],
        "iterations": rep.iterations,
        "final_data_residual": rep.residual_history[-1],
        "rel_l2_error": err,
    }
    return meta, _g_columns(rep.recovered, g_true)


def _run_caputo_t2(cfg: dict):
    """Error of the L1 scheme on f(t) = t^2 against the closed form."""
    grid = _build_grid(cfg)
    alpha = _build_alpha(cfg)
    t = grid.nodes()
    f = TimeSeries(grid, t**2)
    approx = caputo_l1(f, alpha).values
    exact = 2.0 * t ** (2.0 - alpha.alpha) / math.gamma(3.0 - alpha.alpha)
    err = relative_l2(approx, exact, skip_first=1)
    meta = {"alpha": alpha.alpha, "n_steps": grid.n_steps, "rel_l2_error": err}
    return meta, {"t": t, "caputo_l1": approx, "exact": exact}


def _run_sweep(cfg: dict):
    key = _get(cfg, "sweep.key")
    metric = _get(cfg, "sweep.metric", "rel_l2_error")
    for name, v in (("sweep.key", key), ("sweep.metric", metric)):
        if not isinstance(v, str):
            raise ConfigError(name, "expected a string")
    values = _numbers(cfg, "sweep.values")
    vals = np.asarray(values, dtype=float)
    # the log-log slope between neighbours is finite only for distinct finite values >= 0
    if not np.all(np.isfinite(vals) & (vals >= 0.0)) or np.any(vals[1:] == vals[:-1]):
        msg = f"expected finite values >= 0, no two neighbours equal, got {values!r}"
        raise ConfigError("sweep.values", msg)
    inner = _get(cfg, "sweep.inner")
    if not isinstance(inner, dict):
        raise ConfigError("sweep.inner", "expected an inner config object")

    def one(v):
        sub = copy.deepcopy(inner)
        _set_path(sub, key, v)
        sub.pop("output", None)
        meta, _ = dispatch(sub)
        if metric not in meta:
            raise ConfigError("sweep.metric", f"inner run produced no metric {metric!r}")
        try:
            return float(meta[metric])
        except (TypeError, ValueError) as exc:
            raise ConfigError("sweep.metric", f"metric {metric!r} is not a number") from exc

    errs_arr = np.asarray([one(v) for v in values])
    # slope of log(error) against log(parameter) between consecutive runs
    slope = np.full(vals.shape[0], math.nan)
    with np.errstate(divide="ignore", invalid="ignore"):
        slope[1:] = -np.diff(np.log(errs_arr)) / np.diff(np.log(vals))
    return {"key": key, "metric": metric}, {key: vals, metric: errs_arr, "slope": slope}


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


MODES = {
    "forward": _run_forward,
    "invert-rho-volterra": lambda cfg: _run_invert_rho(cfg, "volterra"),
    "invert-rho-fixedpoint": lambda cfg: _run_invert_rho(cfg, "fixedpoint"),
    "invert-g-final": _run_invert_g_final,
    "invert-g-interior": _run_invert_g_interior,
    "ml-eval": _run_ml_eval,
    "sweep": _run_sweep,
    "caputo-t2": _run_caputo_t2,
}


def dispatch(cfg: dict):
    """The mode's (metadata, columns), metadata led by the mode."""
    mode = _get(cfg, "mode", None, required=True)
    if not isinstance(mode, str) or mode not in MODES:
        raise ConfigError("mode", f"unknown mode {mode!r}; options: {tuple(MODES)}")
    try:
        meta, cols = MODES[mode](cfg)
    except ParameterError as exc:  # e.g. K below its bound, or a window that flattens the trace
        raise ConfigError(f"solver.{exc.name}", str(exc)) from exc
    return {"mode": mode, **meta}, cols


def _set_path(cfg: dict, key: str, value) -> None:
    """Set cfg[a][b][c] = value for the dotted key 'a.b.c', making objects as needed."""
    node, last = _walk(cfg, key, make=True)
    node[last] = value


def _apply_override(cfg: dict, item: str) -> None:
    if "=" not in item:
        raise ConfigError("--override", f"expected key=value, got {item!r}")
    key, raw = item.split("=", 1)
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    _set_path(cfg, key, value)


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
        out_path = _get(cfg, "output")
        if out_path is None:
            base, _ = os.path.splitext(config_path)
            out_path = base + ".csv"
        if not isinstance(out_path, str):
            raise ConfigError("output", "expected a file path string")
        meta, cols = dispatch(cfg)
        bad = _non_finite(meta, cols)
        if bad is not None:
            raise FracsourceError(f"non-finite value in result {bad!r}")
        with _blame("output", OSError):  # a missing directory, a directory, an empty path
            write_result(out_path, meta, cols)
    except ConfigError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 3
    except (FracsourceError, MLConvergenceError) as exc:
        print(f"solver error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4
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
