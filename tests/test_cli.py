"""Tests of the command-line harness: config handling, determinism, exit codes."""

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from fracsource.cli import add_noise, main, run
from fracsource.fracops import TimeGrid, TimeSeries


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


def test_determinism_bytes(tmp_path):
    cfg = write_cfg(
        tmp_path,
        "det.json",
        {
            "mode": "invert-rho-volterra",
            "alpha": 0.5,
            "N": 8,
            "n_steps": 128,
            "x0": 0.3,
            "noise_level": 0.01,
            "seed": 17,
            "rho": {"profile": "affine"},
        },
    )
    out = str(tmp_path / "det.csv")
    assert run(cfg) == 0
    first = open(out, "rb").read()
    assert run(cfg) == 0
    assert open(out, "rb").read() == first


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


def test_sweep_threads_same_result(tmp_path):
    cfg_dict = {
        "mode": "sweep",
        "sweep": {
            "key": "n_steps",
            "values": [64, 128, 256],
            "metric": "rel_l2_error",
            "inner": {"mode": "caputo-t2", "alpha": 0.4},
        },
    }
    one = write_cfg(tmp_path, "s1.json", cfg_dict)
    two = write_cfg(tmp_path, "s2.json", cfg_dict)
    old = os.environ.get("FRACSOURCE_THREADS")
    try:
        os.environ["FRACSOURCE_THREADS"] = "1"
        assert run(one) == 0
        os.environ["FRACSOURCE_THREADS"] = "4"
        assert run(two) == 0
    finally:
        if old is None:
            os.environ.pop("FRACSOURCE_THREADS", None)
        else:
            os.environ["FRACSOURCE_THREADS"] = old
    b1 = open(tmp_path / "s1.csv", "rb").read()
    b2 = open(tmp_path / "s2.csv", "rb").read()
    assert b1 == b2


def test_sweep_threads_same_result_ml_kernels(tmp_path):
    # the inner mode evaluates Mittag-Leffler kernels in every worker; each
    # thread count runs in a fresh interpreter, so no cache is warm
    import fracsource

    cfg = write_cfg(
        tmp_path,
        "t.json",
        {
            "mode": "sweep",
            "sweep": {
                "key": "n_steps",
                "values": [64, 128, 256, 512],
                "metric": "rel_l2_error",
                "inner": {"mode": "invert-rho-volterra", "alpha": 0.5, "N": 32},
            },
        },
    )
    src = os.path.dirname(os.path.dirname(fracsource.__file__))
    out = {}
    for threads in ("2", "1"):
        env = dict(os.environ, FRACSOURCE_THREADS=threads, PYTHONPATH=src)
        subprocess.run(
            [sys.executable, "-m", "fracsource.cli", cfg, "--override", f'output="t{threads}.csv"'],
            cwd=tmp_path,
            env=env,
            check=True,
            capture_output=True,
            timeout=600,
        )
        out[threads] = (tmp_path / f"t{threads}.csv").read_bytes()
    assert out["1"] == out["2"]


def test_exit_code_parse_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    assert run(str(bad)) == 2
    assert run(str(tmp_path / "missing.json")) == 2


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


def test_exit_code_non_finite_metadata(tmp_path, monkeypatch, capsys):
    import fracsource.cli as cli

    monkeypatch.setattr(cli, "relative_l2", lambda *a, **k: math.nan)
    cfg = write_cfg(tmp_path, "nf.json", {"mode": "caputo-t2", "alpha": 0.5, "n_steps": 16})
    assert run(cfg) == 4
    assert "solver error:" in capsys.readouterr().err
    assert not (tmp_path / "nf.csv").exists()


def test_exit_code_non_finite_column(tmp_path, monkeypatch, capsys):
    import fracsource.cli as cli

    monkeypatch.setattr(cli, "ml_eval", lambda p, z: math.inf if z < -1.0 else 1.0)
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


def test_override_flag(tmp_path):
    cfg = write_cfg(
        tmp_path,
        "o.json",
        {"mode": "caputo-t2", "alpha": 0.5, "n_steps": 64},
    )
    assert main([cfg, "--override", "alpha=0.3", "--override", "n_steps=128"]) == 0
    meta = read_meta(str(tmp_path / "o.csv"))
    assert float(meta["alpha"]) == 0.3
    assert int(meta["n_steps"]) == 128


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
    grid = TimeGrid(1.0, 64)
    base = TimeSeries(grid, np.sin(grid.nodes()))
    assert add_noise(base, 0.0, 1) is base
    n1 = add_noise(base, 0.01, 42).values
    n2 = add_noise(base, 0.01, 42).values
    assert np.array_equal(n1, n2)
    n3 = add_noise(base, 0.01, 43).values
    assert not np.array_equal(n1, n3)
    amp = 0.01 * float(np.max(np.abs(base.values)))
    assert np.max(np.abs(n1 - base.values)) <= amp
    with pytest.raises(ValueError):
        add_noise(base, -0.1, 0)
