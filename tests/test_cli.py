"""Tests of the command-line harness: config handling, determinism, exit codes."""

import json
import math

import numpy as np
import pytest

from fracsource.cli import _fmt, main, perturb, run, write_result
from fracsource.fracops import TimeGrid


def write_cfg(tmp_path, name, cfg):
    path = tmp_path / name
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return str(path)


def read_meta(path):
    meta = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            if not line.startswith("# "):
                break
            key, _, value = line[2:].strip().partition("=")
            meta[key] = value
    return meta


def test_ml_eval_exponential(tmp_path, capsys):
    cfg = write_cfg(
        tmp_path,
        "ml.json",
        {"mode": "ml-eval", "ml": {"alpha": 1.0, "beta": 1.0, "z": [-1.0]}},
    )
    assert run(cfg) == 0
    out = str(tmp_path / "ml.csv")
    lines = open(out, encoding="utf-8").read().splitlines()
    header = lines[-2].split(",")
    values = lines[-1].split(",")
    row = dict(zip(header, values))
    assert float(row["value"]) == pytest.approx(math.exp(-1.0), rel=1e-14)


# every mode's metadata keys, in the order the CSV writes them
DETERMINISM_CASES = [
    (
        {"mode": "invert-rho-volterra", "alpha": 0.5, "N": 8, "n_steps": 128, "x0": 0.3,
         "noise_level": 0.01, "seed": 17, "rho": {"profile": "affine"}},
        ["mode", "alpha", "x0", "noise_level", "seed", "iterations", "rel_l2_error",
         "final_residual"],
    ),
    (
        {"mode": "forward", "alpha": 0.5, "N": 8, "n_steps": 32, "x0": 0.3},
        ["mode", "alpha", "x0", "n_steps"],
    ),
    (
        {"mode": "invert-g-final", "alpha": 0.5, "N": 16, "n_steps": 64,
         "noise_level": 0.01, "seed": 5},
        ["mode", "alpha", "noise_level", "seed", "mu", "delta", "retained_modes",
         "discrepancy", "rel_l2_error"],
    ),
    (
        {"mode": "invert-g-interior", "alpha": 0.5, "N": 8, "n_steps": 32,
         "omega": [0.1, 0.35], "noise_level": 0.01, "seed": 3},
        ["mode", "alpha", "omega_lo", "omega_hi", "noise_level", "seed", "K", "beta",
         "iterations", "final_data_residual", "rel_l2_error"],
    ),
]


def test_determinism_bytes(tmp_path):
    for i, (config, keys) in enumerate(DETERMINISM_CASES):
        cfg = write_cfg(tmp_path, f"det{i}.json", config)
        out = str(tmp_path / f"det{i}.csv")
        assert run(cfg) == 0, config["mode"]
        first = open(out, "rb").read()
        assert run(cfg) == 0
        assert open(out, "rb").read() == first, config["mode"]
        assert list(read_meta(out)) == keys


def test_volterra_mode_error_metric(tmp_path):
    cfg = write_cfg(
        tmp_path,
        "volt.json",
        {
            "mode": "invert-rho-volterra",
            "alpha": 0.5,
            "N": 8,
            "n_steps": 512,
            "x0": 0.3,
            "rho": {"profile": "affine"},
        },
    )
    assert run(cfg) == 0
    meta = read_meta(str(tmp_path / "volt.csv"))
    assert float(meta["rel_l2_error"]) <= 1e-2


def test_sweep_slope_matches_scheme_order(tmp_path):
    alpha = 0.5
    cfg = write_cfg(
        tmp_path,
        "sweep.json",
        {
            "mode": "sweep",
            "sweep": {
                "key": "n_steps",
                "values": [64, 128, 256, 512],
                "metric": "rel_l2_error",
                "inner": {"mode": "caputo-t2", "alpha": alpha},
            },
        },
    )
    assert run(cfg) == 0
    lines = open(tmp_path / "sweep.csv", encoding="utf-8").read().splitlines()
    header = lines[-5].split(",")
    idx = header.index("slope")
    slopes = [float(r.split(",")[idx]) for r in lines[-3:]]
    for s in slopes:
        assert abs(s - (2.0 - alpha)) < 0.2


def test_exit_code_parse_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    assert run(str(bad)) == 2
    assert run(str(tmp_path / "missing.json")) == 2
    assert run(write_cfg(tmp_path, "list.json", [{"mode": "caputo-t2", "alpha": 0.5}])) == 2


def test_exit_code_validation_error(tmp_path):
    cfg = write_cfg(tmp_path, "v.json", {"mode": "forward", "alpha": 1.5})
    assert run(cfg) == 3
    cfg2 = write_cfg(tmp_path, "v2.json", {"mode": "no-such-mode", "alpha": 0.5})
    assert run(cfg2) == 3
    cfg3 = write_cfg(tmp_path, "v3.json", {"mode": "forward"})
    assert run(cfg3) == 3  # alpha missing


def test_exit_code_solver_error(tmp_path):
    # phi_2 vanishes at the midpoint: the point-observation gate trips
    cfg = write_cfg(
        tmp_path,
        "s.json",
        {
            "mode": "invert-rho-volterra",
            "alpha": 0.5,
            "N": 8,
            "n_steps": 64,
            "x0": 0.5,
            "g": {"profile": "mode_k", "params": {"k": 2}},
        },
    )
    assert run(cfg) == 4
    # at alpha 0.001 the series at z = 1 does not converge in its 10000 terms
    ml = {"mode": "ml-eval", "ml": {"alpha": 0.001, "beta": 1.0, "z": [1.0]}}
    assert run(write_cfg(tmp_path, "d.json", ml)) == 4
    # g(0.05) is 5% of sup|v(0.05, .)|: the fixed-point sweeps diverge at the default K
    fp = {"mode": "invert-rho-fixedpoint", "alpha": 0.9, "N": 32, "n_steps": 256, "x0": 0.05}
    assert run(write_cfg(tmp_path, "f.json", fp)) == 4


@pytest.mark.parametrize("mode", ["forward", "invert-rho-volterra", "invert-rho-fixedpoint"])
@pytest.mark.parametrize("x0", [0.0, 1.0])
def test_exit_code_x0_on_the_boundary(tmp_path, capsys, mode, x0):
    cfg = write_cfg(
        tmp_path, "b.json", {"mode": mode, "alpha": 0.5, "N": 8, "n_steps": 32, "x0": x0}
    )
    assert run(cfg) == 3
    assert "config key 'x0'" in capsys.readouterr().err


def sweep_cfg(values, metric="rel_l2_error"):
    inner = {"mode": "caputo-t2", "alpha": 0.5}
    spec = {"key": "n_steps", "values": values, "metric": metric, "inner": inner}
    return {"mode": "sweep", "sweep": spec}


def slope_sweep_cfg(values):
    inner = {"mode": "invert-g-final", "alpha": 0.5, "N": 8, "n_steps": 16, "rho": {"profile": "affine"}}
    return {"mode": "sweep", "sweep": {"key": "rho.params.slope", "values": values, "inner": inner}}


def interior_cfg(**solver):
    return {"mode": "invert-g-interior", "alpha": 0.5, "N": 8, "n_steps": 16,
            "omega": [0.1, 0.35], "solver": solver}


NAN_RHO = {"profile": "constant", "params": {"value": math.nan}}
# a 401-digit JSON integer: the JSON reader keeps it as an int, which no double holds
HUGE = 10**400


@pytest.mark.parametrize(
    "cfg, key",
    [
        ({"mode": "ml-eval", "ml": 5}, "ml"),
        ({"mode": "ml-eval", "ml": {"alpha": 0.5, "beta": 1.0, "z": [None]}}, "ml.z"),
        ({"mode": "ml-eval", "ml": {"alpha": 0.5, "beta": 1.0, "z": [[1, 2]]}}, "ml.z"),
        (sweep_cfg(["a", "b"]), "sweep.values"),
        # no finite log-log slope: equal neighbours, a negative or a non-finite value
        (sweep_cfg([64, 64]), "sweep.values"),
        (slope_sweep_cfg([-0.5, 0.5]), "sweep.values"),
        (sweep_cfg([64, math.nan]), "sweep.values"),
        (slope_sweep_cfg([0.5, math.inf]), "sweep.values"),
        (sweep_cfg([16, 32], metric="mode"), "sweep.metric"),
        ({"mode": ["forward"]}, "mode"),
        (interior_cfg(m_max=0), "solver.m_max"),
        (interior_cfg(K=0), "solver.K"),
        (interior_cfg(beta=0), "solver.beta"),
        (interior_cfg(tol=-1.0), "solver.tol"),
        ({"mode": "invert-g-final", "alpha": 0.5, "N": 16, "n_steps": 64,
          "noise_level": 0.01, "seed": -1}, "seed"),
        # null is a value only where None is the default (solver.K, solver.mu)
        ({"mode": "forward", "alpha": 0.5, "N": None}, "N"),
        ({"mode": "forward", "alpha": 0.5, "L": None}, "L"),
        ({"mode": "caputo-t2", "alpha": 0.5, "n_steps": None}, "n_steps"),
        ({"mode": "caputo-t2", "alpha": None}, "alpha"),
        ({"mode": "forward", "alpha": 0.5, "N": 8, "n_steps": 16, "x0": None}, "x0"),
        ({"mode": "invert-g-final", "alpha": 0.5, "N": 16, "n_steps": 64,
          "noise_level": None}, "noise_level"),
        (dict(interior_cfg(), n_mesh=None), "n_mesh"),
        (interior_cfg(m_max=None), "solver.m_max"),
        ({"mode": "forward", "alpha": 0.5, "N": 8, "n_steps": 16,
          "g": {"profile": "mode_k", "params": {"k": 1.5}}}, "g"),
        ({"mode": "forward", "alpha": 0.5, "N": 8, "n_steps": 16,
          "g": {"profile": "mode_k", "params": {"k": True}}}, "g"),
        # a section that is not an object is named, whichever key is read through it
        ({"mode": "invert-rho-fixedpoint", "alpha": 0.5, "N": 8, "n_steps": 16, "solver": 5},
         "solver"),
        ({"mode": "invert-g-final", "alpha": 0.5, "N": 8, "n_steps": 16, "solver": 5}, "solver"),
        (dict(interior_cfg(), solver=5), "solver"),
        ({"mode": "sweep", "sweep": 5}, "sweep"),
        ({"mode": "ml-eval", "ml": {"beta": 1.0}}, "ml.alpha"),
        ({"mode": "ml-eval", "ml": {"alpha": 0.5, "beta": 1.0, "z": ["0.5"]}}, "ml.z"),
        ({"mode": "ml-eval", "ml": {"alpha": 0.5, "beta": 1.0, "z": []}}, "ml.z"),
        (dict(interior_cfg(), omega=["0.1", 0.35]), "omega"),
        (sweep_cfg([16, 32], metric=["rel_l2_error"]), "sweep.metric"),
        ({"mode": "forward", "alpha": 0.5, "N": 8, "n_steps": 16, "rho": NAN_RHO}, "rho"),
        ({"mode": "invert-g-final", "alpha": 0.5, "N": 8, "n_steps": 16, "rho": NAN_RHO}, "rho"),
        (dict(interior_cfg(), rho=NAN_RHO), "rho"),
        ({"mode": "caputo-t2", "alpha": 0.5, "output": "/nonexistent/dir/x.csv"}, "output"),
        ({"mode": "caputo-t2", "alpha": 0.5, "T": HUGE}, "T"),
        ({"mode": "caputo-t2", "alpha": HUGE}, "alpha"),
        ({"mode": "ml-eval", "ml": {"alpha": 0.5, "beta": 1.0, "z": [0.0, -HUGE]}}, "ml.z"),
        (sweep_cfg([16, HUGE]), "sweep.values"),
        (dict(interior_cfg(), omega=[0.1, HUGE]), "omega"),
        # counts past what a grid, a domain or a mesh takes, refused before any array is made
        ({"mode": "caputo-t2", "alpha": 0.5, "n_steps": 10**30}, "n_steps"),
        (dict(interior_cfg(), n_mesh=10**30), "n_mesh"),
        (sweep_cfg([16, 10**30]), "n_steps"),
        ({"mode": "forward", "alpha": 0.5, "N": 10**30}, "N"),
        # sweep counts past the same bound, refused before any sweep runs
        (interior_cfg(m_max=10**30), "solver.m_max"),
        ({"mode": "invert-rho-fixedpoint", "alpha": 0.5, "N": 8, "n_steps": 16, "x0": 0.3,
          "solver": {"m_max": 10**30, "tol": 0}}, "solver.m_max"),
        ({"mode": "forward", "alpha": 0.5, "N": 8, "n_steps": 16, "g": 5}, "g"),
        ({"mode": "forward", "alpha": 0.5, "N": 8, "n_steps": 16, "g": {"params": {}}}, "g"),
        (dict(interior_cfg(), omega=[0.1, 0.2, 0.3]), "omega"),
        ({"mode": "sweep", "sweep": {"key": "n_steps", "values": [16, 32], "inner": 5}},
         "sweep.inner"),
        (sweep_cfg([16, 32], metric="iterations"), "sweep.metric"),
        ({"mode": "caputo-t2", "alpha": 0.5, "output": 5}, "output"),
        # orders outside 0 < alpha < 1, 0 < beta <= 3 other than the exponential (1, 1)
        ({"mode": "ml-eval", "ml": {"alpha": 1.5, "beta": 1.0, "z": [-1.0]}}, "ml"),
        ({"mode": "ml-eval", "ml": {"alpha": 0.5, "beta": 170.0, "z": [-5.0]}}, "ml"),
    ],
    ids=[
        "ml-number", "z-null", "z-list", "sweep-strings", "sweep-equal-neighbours",
        "sweep-negative", "sweep-nan", "sweep-inf", "metric-mode", "mode-list",
        "interior-m_max", "interior-K", "interior-beta", "interior-tol", "negative-seed",
        "N-null", "L-null", "n_steps-null", "alpha-null", "x0-null", "noise_level-null",
        "n_mesh-null", "m_max-null", "mode_k-fractional-k", "mode_k-bool-k",
        "fixedpoint-solver-number", "final-solver-number", "interior-solver-number",
        "sweep-number", "ml-alpha-missing", "z-string", "z-empty", "omega-string",
        "metric-list", "forward-nan-rho", "final-nan-rho", "interior-nan-rho",
        "output-missing-dir", "T-huge", "alpha-huge", "z-huge", "sweep-huge", "omega-huge",
        "n_steps-huge", "n_mesh-huge", "sweep-n_steps-huge", "N-huge", "interior-m_max-huge",
        "fixedpoint-m_max-huge", "g-number",
        "g-without-profile", "omega-triple", "inner-number", "metric-not-produced",
        "output-number", "ml-alpha-1.5", "ml-beta-170",
    ],
)
def test_exit_code_malformed_config_value(tmp_path, capsys, cfg, key):
    assert run(write_cfg(tmp_path, "m.json", cfg)) == 3
    assert f"config key '{key}'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "cfg",
    [
        {"mode": "invert-rho-fixedpoint", "alpha": 0.5, "N": 16, "n_steps": 64, "x0": 0.3,
         "solver": {"K": None}},
        {"mode": "invert-g-interior", "alpha": 0.5, "N": 8, "n_steps": 16,
         "omega": [0.1, 0.35], "solver": {"K": None}},
        {"mode": "invert-g-final", "alpha": 0.5, "N": 16, "n_steps": 64, "solver": {"mu": None}},
    ],
    ids=["fixedpoint-K", "interior-K", "final-mu"],
)
def test_null_keeps_a_none_default(tmp_path, cfg):
    # an explicit null reads as the key left out
    assert run(write_cfg(tmp_path, "n.json", cfg)) == 0
    bare = dict(cfg, solver={})
    assert run(write_cfg(tmp_path, "b.json", bare)) == 0
    assert open(tmp_path / "n.csv", "rb").read() == open(tmp_path / "b.csv", "rb").read()


@pytest.mark.parametrize("k", [0, 1e-6])
def test_exit_code_fixed_point_k_below_bound(tmp_path, capsys, k):
    cfg = write_cfg(
        tmp_path,
        "k.json",
        {
            "mode": "invert-rho-fixedpoint",
            "alpha": 0.5,
            "N": 16,
            "n_steps": 64,
            "x0": 0.3,
            "solver": {"K": k},
        },
    )
    assert run(cfg) == 3
    assert "config key 'solver.K'" in capsys.readouterr().err


@pytest.mark.parametrize("mode", ["invert-rho-volterra", "invert-rho-fixedpoint"])
def test_exit_code_mollifier_over_every_node(tmp_path, capsys, mode):
    base = {"mode": mode, "alpha": 0.5, "N": 16, "n_steps": 2, "x0": 0.3, "noise_level": 0.01}
    assert run(write_cfg(tmp_path, "w.json", base)) == 3
    assert "config key 'solver.mollify_width'" in capsys.readouterr().err
    narrow = dict(base, solver={"mollify_width": 3})
    assert run(write_cfg(tmp_path, "w3.json", narrow)) == 0


def test_exit_code_non_finite_metadata(tmp_path, monkeypatch, capsys):
    import fracsource.cli as cli

    monkeypatch.setattr(cli, "relative_l2", lambda *a, **k: math.nan)
    cfg = write_cfg(tmp_path, "nf.json", {"mode": "caputo-t2", "alpha": 0.5, "n_steps": 16})
    assert run(cfg) == 4
    assert "solver error:" in capsys.readouterr().err
    assert not (tmp_path / "nf.csv").exists()


def test_exit_code_memory_error(tmp_path, monkeypatch, capsys):
    # an array too large for memory is a solver error on one line, not a traceback
    import fracsource.cli as cli

    def too_large(cfg):
        raise MemoryError("Unable to allocate 8.00 EiB for an array")

    monkeypatch.setitem(cli.MODES, "caputo-t2", too_large)
    cfg = write_cfg(tmp_path, "mem.json", {"mode": "caputo-t2", "alpha": 0.5})
    assert run(cfg) == 4
    assert capsys.readouterr().err == "solver error: MemoryError: Unable to allocate 8.00 EiB for an array\n"
    assert not (tmp_path / "mem.csv").exists()


def test_exit_code_non_finite_column(tmp_path, monkeypatch, capsys):
    import fracsource.cli as cli

    monkeypatch.setattr(
        cli, "ml_eval_array", lambda a, b, z: np.where(np.asarray(z) < -1.0, math.inf, 1.0)
    )
    cfg = write_cfg(
        tmp_path,
        "nc.json",
        {"mode": "ml-eval", "ml": {"alpha": 0.5, "beta": 1.0, "z": [0.0, -2.0]}},
    )
    assert run(cfg) == 4
    assert "solver error:" in capsys.readouterr().err
    # the sweep slope column is NaN in its first row by construction
    sweep = write_cfg(
        tmp_path,
        "ns.json",
        {
            "mode": "sweep",
            "sweep": {
                "key": "n_steps",
                "values": [16, 32],
                "inner": {"mode": "caputo-t2", "alpha": 0.5},
            },
        },
    )
    assert run(sweep) == 0


def test_override_flag(tmp_path, capsys):
    cfg = write_cfg(
        tmp_path,
        "o.json",
        {"mode": "caputo-t2", "alpha": 0.5, "n_steps": 64},
    )
    assert main([cfg, "--override", "alpha=0.3", "--override", "n_steps=128"]) == 0
    meta = read_meta(str(tmp_path / "o.csv"))
    assert float(meta["alpha"]) == 0.3
    assert int(meta["n_steps"]) == 128
    # a dotted key through a number is a validation error, not a traceback
    assert main([cfg, "--override", "alpha.x=1"]) == 3
    capsys.readouterr()
    assert main([cfg, "--override", "alpha"]) == 3
    assert "config key '--override'" in capsys.readouterr().err


def test_override_dotted_path(tmp_path):
    cfg = write_cfg(
        tmp_path,
        "d.json",
        {
            "mode": "ml-eval",
            "ml": {"alpha": 1.0, "beta": 1.0, "z": [0.0]},
        },
    )
    assert main([cfg, "--override", "ml.alpha=0.5"]) == 0
    meta = read_meta(str(tmp_path / "d.csv"))
    assert float(meta["alpha"]) == 0.5


def test_bare_number_list_and_raw_string_override(tmp_path):
    # a bare number reads as a list of one, and an override value that is
    # not JSON is taken as the string it is
    ml = {"mode": "ml-eval", "ml": {"alpha": 0.5, "beta": 1.0}}
    bare = write_cfg(tmp_path, "bare.json", {**ml, "ml": {**ml["ml"], "z": -1.0}})
    listed = write_cfg(tmp_path, "listed.json", {**ml, "ml": {**ml["ml"], "z": [-1.0]}})
    assert main([bare]) == 0 and main([listed]) == 0
    assert open(tmp_path / "bare.csv", "rb").read() == open(tmp_path / "listed.csv", "rb").read()
    fwd = {"mode": "forward", "alpha": 0.5, "N": 8, "n_steps": 32}
    raw = write_cfg(tmp_path, "raw.json", fwd)
    quoted = write_cfg(tmp_path, "quoted.json", {**fwd, "rho": {"profile": "sine"}})
    assert main([raw, "--override", "rho.profile=sine"]) == 0 and main([quoted]) == 0
    assert open(tmp_path / "raw.csv", "rb").read() == open(tmp_path / "quoted.csv", "rb").read()


def test_output_override_and_newlines(tmp_path):
    out = str(tmp_path / "custom_name.csv")
    cfg = write_cfg(
        tmp_path,
        "n.json",
        {"mode": "caputo-t2", "alpha": 0.5, "n_steps": 32, "output": out},
    )
    assert run(cfg) == 0
    raw = open(out, "rb").read()
    assert b"\r" not in raw
    assert raw.decode("utf-8")


def test_add_noise_properties():
    base = np.sin(TimeGrid(1.0, 64).nodes())
    same, zero_norm = perturb(base, 0.0, 1)
    assert same is base and zero_norm == 0.0
    n1, norm1 = perturb(base, 0.01, 42)
    n2, _ = perturb(base, 0.01, 42)
    assert np.array_equal(n1, n2)
    n3, _ = perturb(base, 0.01, 43)
    assert not np.array_equal(n1, n3)
    amp = 0.01 * float(np.max(np.abs(base)))
    assert np.max(np.abs(n1 - base)) <= amp
    assert norm1 == pytest.approx(float(np.linalg.norm(n1 - base)), rel=1e-12)
    with pytest.raises(ValueError):
        perturb(base, -0.1, 0)


def g_final_cfg(**extra):
    return dict({"mode": "invert-g-final", "alpha": 0.5, "N": 16, "n_steps": 64}, **extra)


def test_sweep_sets_dotted_keys(tmp_path):
    # each row is the run with that solver.mu, not the default run repeated
    mus = [1e-8, 1e-4, 0.1]
    cfg = {"mode": "sweep", "sweep": {"key": "solver.mu", "values": mus, "inner": g_final_cfg()}}
    assert run(write_cfg(tmp_path, "s.json", cfg)) == 0
    lines = open(tmp_path / "s.csv", encoding="utf-8").read().splitlines()
    assert lines[3] == "solver.mu,rel_l2_error,slope"
    swept = [float(line.split(",")[1]) for line in lines[4:]]
    alone = []
    for i, mu in enumerate(mus):
        assert run(write_cfg(tmp_path, f"a{i}.json", g_final_cfg(solver={"mu": mu}))) == 0
        alone.append(float(read_meta(str(tmp_path / f"a{i}.csv"))["rel_l2_error"]))
    assert swept == alone
    assert len(set(swept)) == 3


@pytest.mark.parametrize(
    "cfg", [sweep_cfg([16, 32, 16]), slope_sweep_cfg([0.0, 0.5])], ids=["repeat", "zero"]
)
def test_sweep_finite_slopes_stay_accepted(tmp_path, cfg):
    # a repeat that is not a neighbour, and the value 0, give finite slopes
    assert run(write_cfg(tmp_path, "f.json", cfg)) == 0


def test_sweep_leaves_its_inner_config_alone():
    import copy

    import fracsource.cli as cli

    inner = g_final_cfg(rho={"profile": "affine"}, solver={"delta": 0.0})
    cfg = {"mode": "sweep", "sweep": {"key": "rho.params.slope", "values": [0.5, 2.0],
                                      "inner": inner}}
    before = copy.deepcopy(cfg)
    _, cols = cli.dispatch(cfg)
    assert cfg == before
    assert cols["rel_l2_error"].shape == (2,)


@pytest.mark.parametrize(
    "extra",
    [{"solver": {}}, {"solver": {"K": 1}}, {"noise_level": 0.01},
     {"noise_level": 0.01, "omega": [0.35, 0.1]}],
    ids=["default-K", "K-set", "noisy", "noisy-reversed"],
)
def test_exit_code_omega_without_mesh_points(tmp_path, capsys, extra):
    cfg = {"mode": "invert-g-interior", "alpha": 0.5, "N": 16, "n_steps": 64,
           "omega": [0.501, 0.502], **extra}
    assert run(write_cfg(tmp_path, "w.json", cfg)) == 3
    assert "config key 'omega'" in capsys.readouterr().err
    assert not (tmp_path / "w.csv").exists()


def test_exit_code_final_fit_overflow(tmp_path, capsys):
    # noise this large overflows its norm: reported where it is drawn, with
    # no RuntimeWarning from the norm or the fit on the way
    cfg = g_final_cfg(noise_level=1e308)
    assert run(write_cfg(tmp_path, "o.json", cfg)) == 4
    assert "noise norm of noise_level 1e+308 overflows" in capsys.readouterr().err
    assert not (tmp_path / "o.csv").exists()


@pytest.mark.parametrize(
    "mode",
    ["invert-rho-volterra", "invert-rho-fixedpoint", "invert-g-final", "invert-g-interior"],
)
def test_exit_code_synthesized_data_overflow(tmp_path, capsys, mode):
    # g rho of about 1e300 * 1e300 overflows the data each mode synthesises:
    # a solver error named for the data, not a traceback or a NaN metric
    cfg = {"mode": mode, "alpha": 0.5, "N": 16, "n_steps": 64, "omega": [0.1, 0.35],
           "g": {"profile": "hat", "params": {"amplitude": 1e300}},
           "rho": {"profile": "constant", "params": {"value": 1e300}}}
    assert run(write_cfg(tmp_path, "big.json", cfg)) == 4
    assert "synthesized data are not finite" in capsys.readouterr().err
    assert not (tmp_path / "big.csv").exists()


@pytest.mark.parametrize(
    "mode",
    ["forward", "invert-rho-volterra", "invert-rho-fixedpoint", "invert-g-final",
     "invert-g-interior"],
)
def test_overflowing_synthesis_exits_4_without_warnings(tmp_path, mode):
    # the clean data overflow; the CLI refuses them with one message, and
    # numpy's overflow and invalid-value warnings stay off stderr
    import warnings

    cfg = {"mode": mode, "alpha": 0.5, "N": 16, "n_steps": 32, "omega": [0.1, 0.35],
           "g": {"profile": "hat", "params": {"amplitude": 1e300}},
           "rho": {"profile": "constant", "params": {"value": 1e300}}}
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run(write_cfg(tmp_path, "big.json", cfg)) == 4
    assert [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)] == []


# run in a fresh interpreter: one config through the CLI, then the names of
# the fracsource modules whose code ran, from the interpreter's exec events
MODULES_RUN = """
import os, sys
ran = set()

def hook(event, args):
    name = getattr(args[0], "co_filename", "") if event == "exec" else ""
    if os.sep + "fracsource" + os.sep in name:
        ran.add(os.path.splitext(os.path.basename(name))[0])

sys.addaudithook(hook)
from fracsource.cli import main
assert main([sys.argv[1]]) == 0
print(" ".join(sorted(ran)))
"""


@pytest.mark.parametrize(
    "cfg, needed, unused",
    [
        ({"mode": "ml-eval", "ml": {"alpha": 0.5, "beta": 1.0, "z": [-1.0]}},
         {"cli", "mlf"}, {"forward", "profiles", "inverse_t", "inverse_x"}),
        ({"mode": "invert-rho-volterra", "alpha": 0.5, "N": 4, "n_steps": 8},
         {"forward", "profiles", "inverse_t"}, {"inverse_x"}),
        ({"mode": "invert-g-final", "alpha": 0.5, "N": 4, "n_steps": 8},
         {"forward", "profiles", "inverse_x"}, {"inverse_t"}),
    ],
    ids=["ml-eval", "rho", "g"],
)
def test_a_mode_loads_only_its_solver(tmp_path, cfg, needed, unused):
    import os
    import subprocess
    import sys

    import fracsource

    src = os.path.dirname(os.path.dirname(fracsource.__file__))
    res = subprocess.run(
        [sys.executable, "-c", MODULES_RUN, write_cfg(tmp_path, "m.json", cfg)],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    ran = set(res.stdout.splitlines()[-1].split())
    assert needed <= ran and not unused & ran, ran


def test_write_result_float_columns_match_per_value_format(tmp_path):
    # columns are formatted from Python scalars; the bytes must be those of
    # formatting every numpy value with _fmt
    cols = {
        "a": np.array([0.0, -0.0, 3.0, -2.0, 1e300, 5e-324, math.nan, math.inf, -math.inf]),
        "b": np.array([0.1, 1.0 / 3.0, -1e-17, 2.0**60, 123456789.0, -7.0, 0.5, 1e16, -0.25]),
    }
    meta = {"mode": "x", "err": 0.1}
    path = str(tmp_path / "w.csv")
    write_result(path, meta, cols)
    lines = [f"# {k}={_fmt(v)}" for k, v in meta.items()] + ["a,b"]
    lines += [f"{_fmt(x)},{_fmt(y)}" for x, y in zip(cols["a"], cols["b"])]
    assert open(path, "rb").read() == ("\n".join(lines) + "\n").encode("utf-8")
    assert "-0," in open(path, encoding="utf-8").read()
    # an integer column keeps its integer text
    write_result(path, {}, {"n": np.arange(3), "v": np.array([1.0, -0.0, math.nan])})
    assert open(path, encoding="utf-8").read() == "n,v\n0,1\n1,-0\n2,nan\n"


def test_write_result_rows_are_the_cells_of_fmt(tmp_path):
    # each row is one %-format string; its bytes are those of _fmt per cell
    cols = {
        "f": np.array([0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, 2.5e-310, 1.0 / 3.0]),
        "n": np.array([0, -1, 2**62, 7, 3, -(2**40), 1, 0]),
        "ok": np.array([True, False, True, True, False, False, True, False]),
        "h": np.array([0.1, 1e-5, -2.0, 65504.0, 1.0, 0.0, -0.0, 3.0], dtype=np.float32),
    }
    path = str(tmp_path / "cells.csv")
    write_result(path, {}, cols)
    lines = [",".join(cols)]
    lines += [",".join(_fmt(v) for v in row) for row in zip(*(c.tolist() for c in cols.values()))]
    assert open(path, "rb").read() == ("\n".join(lines) + "\n").encode("utf-8")
    assert open(path, encoding="utf-8").read().splitlines()[1] == "0,0,True,0.10000000149011612"
