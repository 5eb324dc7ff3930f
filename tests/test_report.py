"""Tests of the by-value set-up memo the inverse solvers share."""

import inspect
import weakref
from concurrent.futures import ThreadPoolExecutor
from functools import partial

import numpy as np
import pytest

import fracsource.inverse_t as inverse_t
import fracsource.inverse_x as inverse_x
from fracsource.forward import observe_point, separated_source, solve_inhomogeneous
from fracsource.fracops import FractionalOrder, TimeGrid, TimeSeries
from fracsource.profiles import make_g, make_rho
from fracsource.report import _by_value, relative_l2
from fracsource.spectral import Domain1D, SpectralField

GRID = TimeGrid(1.0, 8)
DOM = Domain1D(1.0, 4)


def counting_memo():
    """A memoised builder that returns a new object per build, and its build log."""
    builds = []

    @_by_value
    def build(*args):
        builds.append(args)
        return object()

    return build, builds


def set_up(values=None, coeffs=None, alpha=0.5, x0=0.3, grid=GRID, dom=DOM):
    """Fresh objects holding one set-up's values."""
    values = np.linspace(0.0, 1.0, grid.n_steps + 1) if values is None else values
    coeffs = np.array([1.0, 0.5, 0.0, -0.25]) if coeffs is None else coeffs
    return (TimeSeries(grid, values.copy()), SpectralField(dom, coeffs.copy()),
            FractionalOrder(alpha), x0, [0.1, 0.35])


@pytest.mark.parametrize(
    "recovered, truth, skip_first, expected",
    [([3.0, 4.0], [0.0, 0.0], 0, 5.0), ([9.0, 3.0, 4.0], [1.0, 0.0, 0.0], 1, 5.0)],
)
def test_relative_l2_of_a_zero_truth_is_the_absolute_error(recovered, truth, skip_first, expected):
    # no norm to divide by: the error is the norm of what was recovered
    assert relative_l2(np.array(recovered), np.array(truth), skip_first) == expected


def test_equal_values_in_other_objects_hit():
    memo, builds = counting_memo()
    first = memo(*set_up())
    # equal grids, domains, orders and samples, all in new objects
    again = memo(*set_up(grid=TimeGrid(1.0, 8), dom=Domain1D(1.0, 4)))
    assert again is first
    assert len(builds) == 1


def test_changed_value_misses():
    memo, builds = counting_memo()
    base = set_up()
    values = base[0].values.copy()
    values[3] += 1e-15
    changed = [
        set_up(values=values),
        set_up(coeffs=np.array([1.0, 0.5, 0.0, 0.25])),
        set_up(grid=TimeGrid(2.0, 8)),
        set_up(dom=Domain1D(2.0, 4)),
        set_up(alpha=0.6),
        set_up(x0=0.30000000000000004),
        base[:4] + ([0.1, 0.36],),
        # the same bytes in the other sample type
        (SpectralField(Domain1D(1.0, 9), base[0].values),) + base[1:],
    ]
    first = memo(*base)
    for args in changed:
        assert memo(*base) is first
        built = len(builds)
        assert memo(*args) is not first
        assert len(builds) == built + 1
        first = memo(*base)  # the entry holds one set-up: the base is rebuilt
        assert len(builds) == built + 2


def test_cache_clear_empties():
    memo, builds = counting_memo()
    first = memo(*set_up())
    memo.cache_clear()
    assert memo(*set_up()) is not first
    assert len(builds) == 2


def test_a_miss_frees_the_stale_value_before_it_builds():
    # a set-up of a long grid is tens of MiB: two must not be held at once
    class Table:
        pass

    refs, alive_while_building = [], []

    @_by_value
    def build(x):
        alive_while_building.append([ref() is not None for ref in refs])
        table = Table()
        refs.append(weakref.ref(table))
        return table

    build(1)
    build(1)
    build(2)
    assert alive_while_building == [[], [False]]


def test_kept_arrays_are_read_only():
    # every caller shares what the memo keeps, so the memo, not the builder, freezes it
    class Table:
        def __init__(self):
            self.array, self.pair, self.scale = np.zeros(3), (np.zeros(2), np.ones(2)), 2.0

    bare = _by_value(lambda: np.zeros(3))()
    pair = _by_value(lambda: (np.zeros(2), np.ones(2)))()
    table = _by_value(Table)()
    for a in (bare, *pair, table.array, *table.pair):
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0] = 1.0


def test_served_set_ups_are_read_only():
    grid, alpha = TimeGrid(1.0, 32), FractionalOrder(0.5)
    dom = Domain1D(1.0, 8)
    g = make_g(dom, "sine_bump")
    rho = make_rho(grid, "affine")
    s = inverse_t._set_up(g, 0.3, alpha, grid)
    sweeps = s.sweeps(s.k_bound)
    op = inverse_x._operator(rho, alpha, grid, dom, (0.1, 0.35), 65)
    damping = op.damping(1.1 * float(op.sigma[0] ** 2), 1e-8, 200)
    table = [a for a in vars(damping).values() if isinstance(a, np.ndarray)]
    operator = dict(vars(op))
    assert callable(operator.pop("damping"))  # the memo; every other attribute is an array
    served = [*s.trace_weights, s.c, s.d, s.v, s.e_spectrum, s.resolvent(), sweeps.powers,
              sweeps.coupling, *operator.values(), *table, *inverse_t._windows(33, 2),
              *inverse_x._omega_mesh(dom, (0.1, 0.35), 65)]
    for a in served:
        assert isinstance(a, np.ndarray) and not a.flags.writeable


def test_memoised_names_stay_plain_functions():
    # the span tracer wraps only functions; the public name keeps its docstring
    assert inspect.isfunction(inverse_x.modal_responses)
    assert inverse_x.modal_responses.__name__ == "modal_responses"
    assert "B_n" in inverse_x.modal_responses.__doc__


def solvers():
    """Calls that solve on two set-ups of each memoised kind, the two alternating."""
    grid, alpha = TimeGrid(1.0, 64), FractionalOrder(0.5)
    dom = Domain1D(1.0, 16)
    g = make_g(dom, "sine_bump")
    calls = []
    for i, x0 in enumerate((0.3, 0.4)):
        rho = make_rho(grid, "affine", intercept=1.0, slope=0.5 + 0.25 * i)
        u = solve_inhomogeneous(separated_source(g, rho), alpha, grid)
        t_problem = inverse_t.TSourceProblem(g, x0, alpha, grid, observe_point(u, x0))
        final = SpectralField(dom, u.modal_values[:, -1] * (1.0 + 1e-3 * np.cos(np.arange(16))))
        observed = inverse_x.observe_interior(u, (0.1, 0.35), 65)
        x_problem = partial(
            inverse_x.XSourceInteriorProblem, rho, alpha, grid, dom, (0.1, 0.35), observed, 65, m_max=30
        )

        def final_solve(rho=rho, final=final):
            mu = inverse_x.choose_mu_discrepancy(rho, alpha, grid, final, 0.0, 1e-4)
            return inverse_x.reconstruct_final(
                inverse_x.XSourceFinalProblem(rho, alpha, grid, final, 0.0, mu)
            )

        # set-up 0 alternates two beta, and with them its damping table
        betas = (1e-8, 1e-6) if i == 0 else (1e-8,)
        calls.append([
            lambda p=t_problem: inverse_t.solve_volterra(p),
            lambda p=t_problem: inverse_t.fixed_point_iterate(p, m_max=20),
            *(lambda p=x_problem(beta=b): inverse_x.iterative_thresholding(p) for b in betas),
            final_solve,
        ])
    # set-ups 0 and 1 of each kind alternate
    return [call for j in range(6) for call in calls[j % 2]]


def outcome(rep):
    rec = getattr(rep.recovered, "values", None)
    rec = rep.recovered.coeffs if rec is None else rec
    return rec.tobytes(), list(rep.residual_history), rep.iterations


def clear_solver_memos():
    for fn in (inverse_t._set_up, inverse_t._windows, inverse_x._mesh_in, inverse_x._operator,
               inverse_x.modal_responses):
        fn.cache_clear()


@pytest.mark.parametrize("warm", [False, True])
def test_threads_alternating_set_ups_match_serial(warm):
    tasks = solvers()
    clear_solver_memos()
    serial = [outcome(call()) for call in tasks]
    if not warm:
        clear_solver_memos()
    with ThreadPoolExecutor(max_workers=4) as pool:
        threaded = list(pool.map(lambda call: outcome(call()), tasks * 3))
    assert threaded == serial * 3
