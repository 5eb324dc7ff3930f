#!/usr/bin/env python3
"""One sha256 per library output that no CLI CSV holds, to check that a change leaves its bits alone.

The twin of `csv_digests.py` for what the CLI does not write: every
value of `ml_eval_array` at 95 order pairs (alpha 0.1 .. 1.9 by 0.1,
beta 0.1, 0.5, 1, 2.7 and 10) on one fixed array of 3051 arguments and
on four single arguments; everything an interior solve reports (values,
residual history, iterations, filter factors and final step) at m_max
50, 200 and 700 with tol 0, 1e-9 and 1e-4 (which stops the longest run
in its third block), and once with a K below sigma_1^2, so that some
r <= 0; fixed-point solves with a `truth` (their error
history included) at m_max 50 and 200 with tol 0 and 1e-8; and one
`solve_volterra`, `reconstruct_final` at the weight `choose_mu_discrepancy`
picks, `solve_homogeneous`, five `duhamel_residual` set-ups and one
`lipschitz_certificate`.  Every input is valid, so a change that only
refuses more inputs leaves every digest as it was.  It prints
`<sha256>  <label>` per output and imports whichever `fracsource` the
environment finds, so comparing two checkouts is one diff:

    PYTHONPATH=old/src python3 scripts/lib_digests.py > old.txt
    PYTHONPATH=new/src python3 scripts/lib_digests.py > new.txt
    diff old.txt new.txt

Usage: python3 scripts/lib_digests.py
It takes about 3 s with one BLAS thread (OPENBLAS_NUM_THREADS=1).  The
listing starts with the `# blas_threads=<n>` line of `csv_digests.py`.
"""

import hashlib

import numpy as np
from csv_digests import blas_threads

from fracsource.forward import (
    duhamel_residual,
    separated_source,
    solve_homogeneous,
    solve_inhomogeneous,
    trace_weights,
)
from fracsource.fracops import FractionalOrder, TimeGrid, TimeSeries, product_rule_convolve
from fracsource.inverse_t import (
    TSourceProblem,
    fixed_point_iterate,
    lipschitz_certificate,
    solve_volterra,
)
from fracsource.inverse_x import (
    XSourceFinalProblem,
    XSourceInteriorProblem,
    choose_mu_discrepancy,
    estimate_k,
    iterative_thresholding,
    modal_responses,
    observe_interior,
    reconstruct_final,
)
from fracsource.mlf import ml_eval_array
from fracsource.profiles import make_g, make_rho
from fracsource.spectral import Domain1D, SpectralField

ML_ALPHAS = [round(0.1 * i, 1) for i in range(1, 20)]
ML_BETAS = [0.1, 0.5, 1.0, 2.7, 10.0]
# 51 arguments in [0, 1] (the series) and 3000 on a log scale in [-1e4, -1e-3]
ML_ARGS = np.concatenate((np.linspace(0.0, 1.0, 51), -np.logspace(-3.0, 4.0, 3000)))
ML_SINGLE = [0.5, -0.5, -20.0, -300.0]


def sha(*parts) -> str:
    """sha256 of the float64 bytes of each part, a scalar, a list or an array."""
    h = hashlib.sha256()
    for part in parts:
        h.update(np.asarray(part, dtype=float).tobytes())
    return h.hexdigest()


def show(label: str, *parts) -> None:
    print(f"{sha(*parts)}  {label}", flush=True)


def ml_digests() -> None:
    for a in ML_ALPHAS:
        for b in ML_BETAS:
            singles = [ml_eval_array(a, b, z) for z in ML_SINGLE]
            show(f"ml_eval_array alpha={a} beta={b}", ml_eval_array(a, b, ML_ARGS), singles)


def interior_digests() -> None:
    dom, grid = Domain1D(1.0, 32), TimeGrid(1.0, 64)
    rho = make_rho(grid, "affine", intercept=1.0, slope=0.5)
    g = make_g(dom, "offset_bump", center_frac=0.6, width_frac=0.5)
    alpha, omega, n_mesh = FractionalOrder(0.6), (0.1, 0.35), 129
    u = solve_inhomogeneous(separated_source(g, rho), alpha, grid)
    clean = observe_interior(u, omega, n_mesh)
    y = clean + 1e-3 * np.random.default_rng(29).standard_normal(clean.shape)

    def problem(**kw):
        return XSourceInteriorProblem(rho, alpha, grid, dom, omega, y, n_mesh, beta=1e-8, **kw)

    runs = [(f"m_max={m} tol={tol}", {"m_max": m, "tol": tol})
            for m in (50, 200, 700) for tol in (0.0, 1e-9, 1e-4)]
    # K between sigma_1^2 / 2 and sigma_1^2: r_1 < 0, so 1 - r^m takes its power form
    runs.append(("K=0.75*sigma_1^2 m_max=200", {"m_max": 200, "K": 0.75 * estimate_k(problem())}))
    for label, kw in runs:
        rep = iterative_thresholding(problem(**kw))
        d = rep.diagnostics
        show(f"iterative_thresholding {label}", rep.recovered.coeffs, rep.residual_history,
             rep.iterations, d["K"], d["filter_factors"], d["final_step"], d["singular_values"])


def t_problem(noise_level: float):
    """A noisy point-trace problem on 256 steps and its true rho."""
    dom, grid = Domain1D(1.0, 16), TimeGrid(1.0, 256)
    g = make_g(dom, "sine_bump")
    rho = make_rho(grid, "affine", intercept=1.0, slope=0.5)
    alpha, x0 = FractionalOrder(0.5), 0.3
    clean = product_rule_convolve(*trace_weights(g, x0, alpha, grid), rho.values)
    rng = np.random.default_rng(42)
    trace = clean + noise_level * np.max(np.abs(clean)) * rng.uniform(-1.0, 1.0, clean.shape)
    return TSourceProblem(g, x0, alpha, grid, TimeSeries(grid, trace), noise_level), rho


def rho_digests() -> None:
    p, rho = t_problem(0.01)
    for m_max in (50, 200):
        for tol in (0.0, 1e-8):
            rep = fixed_point_iterate(p, m_max=m_max, tol=tol, truth=rho)
            d = rep.diagnostics
            show(f"fixed_point_iterate m_max={m_max} tol={tol}", rep.recovered.values,
                 rep.residual_history, rep.iterations, d["K"], d["k_bound"], d["error_history"])
    rep = solve_volterra(p)
    show("solve_volterra", rep.recovered.values, rep.residual_history, rep.diagnostics["diagonal"])
    family = [make_rho(p.grid, "affine", intercept=1.0, slope=s) for s in (-0.5, 0.0, 0.5, 2.0)]
    family.append(make_rho(p.grid, "alternating", lobes=3, offset=0.2))
    show("lipschitz_certificate", lipschitz_certificate(p.g, p.x0, p.alpha, p.grid, family))


def final_digests() -> None:
    dom, grid = Domain1D(1.0, 64), TimeGrid(1.0, 256)
    g = make_g(dom, "offset_bump", center_frac=0.62, width_frac=0.4)
    rho = make_rho(grid, "sine", freq=0.5, amplitude=1.0)
    alpha = FractionalOrder(0.6)
    clean = g.coeffs * modal_responses(rho, alpha, grid, dom)
    bump = 0.01 * np.max(np.abs(clean)) * np.random.default_rng(42).uniform(-1.0, 1.0, clean.shape)
    final = SpectralField(dom, clean + bump)
    mu = choose_mu_discrepancy(rho, alpha, grid, final, 0.0, float(np.linalg.norm(bump)))
    rep = reconstruct_final(XSourceFinalProblem(rho, alpha, grid, final, 0.0, mu))
    show("reconstruct_final", mu, rep.recovered.coeffs, rep.residual_history)
    a = make_g(dom, "hat")
    show("solve_homogeneous", solve_homogeneous(a, alpha, grid).modal_values)


def duhamel_digests() -> None:
    set_ups = [
        (4, 32, 0.3, "mode_k", {"k": 2}, "constant"),
        (8, 64, 0.5, "sine_bump", {}, "affine"),
        (16, 128, 0.7, "hat", {}, "sine"),
        (32, 256, 0.9, "offset_bump", {}, "alternating"),
        (64, 512, 0.5, "hat", {}, "affine"),
    ]
    for n_modes, n_steps, a, g_name, g_params, rho_name in set_ups:
        dom, grid = Domain1D(1.0, n_modes), TimeGrid(1.0, n_steps)
        g = make_g(dom, g_name, **g_params)
        rho = make_rho(grid, rho_name)
        label = f"duhamel_residual N={n_modes} n_steps={n_steps} alpha={a} g={g_name} rho={rho_name}"
        show(label, duhamel_residual(g, rho, FractionalOrder(a), grid))


def main() -> None:
    print(f"# blas_threads={blas_threads()}", flush=True)
    ml_digests()
    interior_digests()
    rho_digests()
    final_digests()
    duhamel_digests()


if __name__ == "__main__":
    main()
