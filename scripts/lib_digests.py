#!/usr/bin/env python3
"""One sha256 per library output that no CLI CSV holds, to check that a change leaves its bits alone.

The twin of `csv_digests.py` for what the CLI does not write: every
value of `ml_eval_array` at 46 order pairs (alpha 0.1 .. 0.9 by 0.1
with beta 0.1, 0.5, 1, 2.7 and 3, and the exponential (1, 1)) on one
fixed array of 3051 arguments and on four single arguments; everything an interior solve reports (values,
residual history, iterations, filter factors and final step) at m_max
50, 200 and 700 with tol 0, 1e-9 and 1e-4 (which stops the longest run
in its third block), and once with a K below sigma_1^2, so that some
r <= 0; fixed-point solves with a `truth` (their error
history included) at m_max 50 and 200 with tol 0 and 1e-8; and one
`solve_volterra`, `reconstruct_final` at the weight `choose_mu_discrepancy`
picks, the weights `choose_mu_discrepancy` picks for 240 seeded noisy
final data (alpha 0.6 and 0.75, noise norms from 1e-4 to 10 times the
injected one, no cutoff and the median |B|) and, under a label of their
own, for three edge noise norms on each of them (the next float above
the fit at mu = 1e-16 and that fit times 1 + 2^-30, where the
discrepancy is nearly flat, and the fit at the 40th midpoint of a plain
bisection) and for the first two on clean 8-mode data with rho = 100,
whose fit at 1e-16 is within a few roundings of 0, so that `--compare`
reports round-off moves of the regular weights apart from moves where the
discrepancy is nearly flat, `solve_homogeneous`, five
`duhamel_residual` set-ups and one `lipschitz_certificate`.  Every input
is valid, so a change that only refuses more inputs leaves every digest
as it was.  It prints `<sha256>  <label>` per output and imports
whichever `fracsource` the environment finds, so comparing two checkouts
is one diff:

    PYTHONPATH=old/src python3 scripts/lib_digests.py > old.txt
    PYTHONPATH=new/src python3 scripts/lib_digests.py > new.txt
    diff old.txt new.txt

When the digests differ, keep the values of both checkouts and compare
them: given DIR, the script also writes every output's values to
DIR/lib_digests.npz, and the second form prints for each label the
largest difference of a value relative to its old magnitude
("identical" when the bytes are, "inf" where a zero moved and "nan"
where a NaN came or went):

    PYTHONPATH=old/src python3 scripts/lib_digests.py old_npz > old.txt
    PYTHONPATH=new/src python3 scripts/lib_digests.py new_npz > new.txt
    PYTHONPATH=new/src python3 scripts/lib_digests.py --compare old_npz new_npz

Usage: python3 scripts/lib_digests.py [DIR]
       python3 scripts/lib_digests.py --compare OLD_DIR NEW_DIR
It takes about 3 s with one BLAS thread (OPENBLAS_NUM_THREADS=1).  The
listing starts with the `# blas_threads=<n>` line of `csv_digests.py`.
"""

import hashlib
import math
import os
import sys

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

ML_ALPHAS = [round(0.1 * i, 1) for i in range(1, 10)]
ML_BETAS = [0.1, 0.5, 1.0, 2.7, 3.0]
# 51 arguments in [0, 1] (the series) and 3000 on a log scale in [-1e4, -1e-3]
ML_ARGS = np.concatenate((np.linspace(0.0, 1.0, 51), -np.logspace(-3.0, 4.0, 3000)))
ML_SINGLE = [0.5, -0.5, -20.0, -300.0]


# the values behind each label, in the order they were hashed
VALUES: dict[str, np.ndarray] = {}


def show(label: str, *parts) -> None:
    """Print the sha256 of the float64 bytes of each part, a scalar, a list or an array."""
    values = np.concatenate([np.asarray(part, dtype=float).ravel() for part in parts])
    VALUES[label] = values
    print(f"{hashlib.sha256(values.tobytes()).hexdigest()}  {label}", flush=True)


def ml_digests() -> None:
    for a, b in [(a, b) for a in ML_ALPHAS for b in ML_BETAS] + [(1.0, 1.0)]:
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


def edge_norms(rho, alpha, grid, final, cutoff, noise_norm) -> list[float]:
    """Noise norms at the edges of the discrepancy equation.

    The next float above the fit at mu = 1e-16 and that fit times
    1 + 2^-30, where the discrepancy is nearly flat, and the fit at the
    40th midpoint of a plain bisection for noise_norm, which a bisection
    for that fit meets again.
    """
    def fit(mu):
        return reconstruct_final(XSourceFinalProblem(rho, alpha, grid, final, cutoff, mu)).residual_history[-1]

    at_lo = fit(1e-16)
    lo, hi = math.log(1e-16), math.log(1e6)
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if fit(math.exp(mid)) < noise_norm else (lo, mid)
    return [float(np.nextafter(at_lo, np.inf)), at_lo * (1.0 + 2.0**-30), fit(math.exp(mid))]


def choose_mu_digests() -> None:
    dom, grid = Domain1D(1.0, 64), TimeGrid(1.0, 128)
    rng = np.random.default_rng(7)
    mus, edges = [], []
    for a in (0.6, 0.75):
        alpha = FractionalOrder(a)
        rho = make_rho(grid, "constant", value=1.02)
        b = modal_responses(rho, alpha, grid, dom)
        clean = make_g(dom, "hat").coeffs * b
        for _ in range(60):
            noise = 0.01 * np.max(np.abs(clean)) * rng.uniform(-1.0, 1.0, clean.shape)
            final = SpectralField(dom, clean + noise)
            noise_norm = float(np.linalg.norm(noise)) * 10.0 ** rng.uniform(-4.0, 1.0)
            for cutoff in (0.0, float(np.median(np.abs(b)))):
                mus.append(choose_mu_discrepancy(rho, alpha, grid, final, cutoff, noise_norm))
                for norm in edge_norms(rho, alpha, grid, final, cutoff, noise_norm):
                    edges.append(choose_mu_discrepancy(rho, alpha, grid, final, cutoff, norm))
        # few modes, large B: the fit at 1e-16 is within a few roundings of 0
        few, big = Domain1D(1.0, 8), make_rho(grid, "constant", value=100.0)
        final = SpectralField(few, make_g(few, "hat").coeffs * modal_responses(big, alpha, grid, few))
        for norm in edge_norms(big, alpha, grid, final, 0.0, 1e-3)[:2]:
            edges.append(choose_mu_discrepancy(big, alpha, grid, final, 0.0, norm))
    show("choose_mu_discrepancy", mus)
    show("choose_mu_discrepancy edges", edges)


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


def compare(old_dir: str, new_dir: str) -> None:
    with np.load(os.path.join(old_dir, "lib_digests.npz")) as old, \
            np.load(os.path.join(new_dir, "lib_digests.npz")) as new:
        for label in old.files:
            a, b = old[label], new[label]
            if a.tobytes() == b.tobytes():
                print(f"{label}: identical")
            elif a.shape != b.shape:
                print(f"{label}: {a.size} values against {b.size}")
            else:
                same = (a == b) | (np.isnan(a) & np.isnan(b))
                with np.errstate(divide="ignore", invalid="ignore"):
                    rel = np.where(same, 0.0, np.abs(b - a) / np.abs(a))
                print(f"{label}: {np.max(rel):.1e}")


def main() -> None:
    if sys.argv[1:2] == ["--compare"] and len(sys.argv) == 4:
        compare(sys.argv[2], sys.argv[3])
        return
    print(f"# blas_threads={blas_threads()}", flush=True)
    ml_digests()
    interior_digests()
    rho_digests()
    final_digests()
    choose_mu_digests()
    duhamel_digests()
    if len(sys.argv) > 1:
        os.makedirs(sys.argv[1], exist_ok=True)
        np.savez(os.path.join(sys.argv[1], "lib_digests.npz"), **VALUES)


if __name__ == "__main__":
    main()
