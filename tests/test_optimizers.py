"""Tests for the bounded searchers (space-filling sample and local descent)."""

import sys

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from seqtune import OptResult, fit_kriging, fun_sphere, optim_lhd, optim_local_bounded
from seqtune.design import ParamSpace, make_lhd
from seqtune.optimizers import _difference_rows

LOWER = np.array([-10.0, -20.0])
UPPER = np.array([20.0, 8.0])


# ---------------------------------------------------------------------------
# space-filling search


def test_lhd_count_equals_budget():
    res = optim_lhd(None, fun_sphere, LOWER, UPPER, {"funEvals": 37, "seed": 5})
    assert res.count == 37
    assert res.x.shape == (37, 2)
    assert res.y.shape == (37, 1)


@given(seed=st.integers(0, 50))
def test_lhd_stays_within_bounds(seed):
    res = optim_lhd(None, fun_sphere, LOWER, UPPER, {"funEvals": 23, "seed": seed})
    assert np.all(res.x >= LOWER)
    assert np.all(res.x <= UPPER)


@given(seed=st.integers(0, 50))
def test_lhd_best_is_the_archive_minimum(seed):
    res = optim_lhd(None, fun_sphere, LOWER, UPPER, {"funEvals": 29, "seed": seed})
    assert res.ybest == res.y[:, 0].min()
    assert float(fun_sphere(res.xbest.reshape(1, -1))[0, 0]) == res.ybest


def test_lhd_deterministic_given_seed():
    a = optim_lhd(None, fun_sphere, LOWER, UPPER, {"funEvals": 40, "seed": 9})
    b = optim_lhd(None, fun_sphere, LOWER, UPPER, {"funEvals": 40, "seed": 9})
    c = optim_lhd(None, fun_sphere, LOWER, UPPER, {"funEvals": 40, "seed": 10})
    assert np.array_equal(a.x, b.x)
    assert a.ybest == b.ybest
    assert not np.array_equal(a.x, c.x)


@pytest.mark.parametrize("types", [(), ("integer", "numeric")])
def test_lhd_sample_is_the_single_retry_design(types):
    # the direct draw is the design make_lhd keeps when it has one candidate
    control = {"funEvals": 17, "seed": 31, "types": types}
    res = optim_lhd(None, fun_sphere, LOWER, UPPER, control)
    space = ParamSpace(LOWER, UPPER, types)
    design = make_lhd(None, space, dict(size=17, retries=1, seed=31))
    assert np.array_equal(res.x, design)


def test_lhd_sphere_default_budget_finds_a_good_point():
    res = optim_lhd(None, fun_sphere, LOWER, UPPER, {"seed": 1})
    assert res.count == 100
    assert res.ybest <= 5.0


def test_lhd_ignores_the_start_point():
    control = {"funEvals": 10, "seed": 3}
    res = optim_lhd(np.array([0.0, 0.0]), fun_sphere, LOWER, UPPER, control)
    assert np.array_equal(res.x, optim_lhd(None, fun_sphere, LOWER, UPPER, control).x)


def test_lhd_rejects_empty_budget():
    with pytest.raises(ValueError, match="funEvals"):
        optim_lhd(None, fun_sphere, LOWER, UPPER, {"funEvals": 0})


@pytest.mark.parametrize("shape", [(10, 2), (3, 1)], ids=["two-columns", "three-values"])
def test_lhd_rejects_an_objective_with_the_wrong_number_of_values(shape):
    # two columns per row used to count 20 points for 10 and take xbest from
    # the wrong row, and 3 values for 10 points were accepted
    with pytest.raises(ValueError, match="wrong number of values"):
        optim_lhd(None, lambda x: np.zeros(shape), LOWER, UPPER, {"funEvals": 10, "seed": 0})


def test_lhd_snaps_typed_columns():
    control = {"funEvals": 15, "seed": 2, "types": ("integer", "numeric")}
    res = optim_lhd(None, fun_sphere, LOWER, UPPER, control)
    assert np.array_equal(res.x[:, 0], np.round(res.x[:, 0]))


# ---------------------------------------------------------------------------
# local bounded descent


def test_local_descent_solves_the_sphere():
    res = optim_local_bounded(None, fun_sphere, LOWER, UPPER, None)
    assert res.ybest <= 1e-8
    assert res.count <= 100


def test_local_default_start_is_the_box_center():
    res = optim_local_bounded(None, fun_sphere, LOWER, UPPER, {"funEvals": 9})
    assert np.array_equal(res.x[0], (LOWER + UPPER) / 2.0)


def test_local_descent_from_a_corner_stays_feasible():
    corner = np.array([20.0, 8.0])
    res = optim_local_bounded(corner, fun_sphere, LOWER, UPPER, {"funEvals": 30})
    assert np.all(res.x >= LOWER)
    assert np.all(res.x <= UPPER)
    assert res.ybest <= float(fun_sphere(corner.reshape(1, -1))[0, 0])


def test_local_recovers_an_interior_quadratic_minimizer():
    target = np.array([0.7, -1.3])

    def quad(x):
        d = x - target
        return (3.0 * d[:, 0] ** 2 + 0.5 * d[:, 1] ** 2 + 2.0).reshape(-1, 1)

    res = optim_local_bounded(
        np.array([1.5, 1.5]), quad, np.array([-2.0, -2.0]), np.array([2.0, 2.0]), None
    )
    assert np.abs(res.xbest - target).max() <= 1e-4
    assert res.ybest == pytest.approx(2.0, abs=1e-8)


def test_local_tiny_budget_reports_exhaustion():
    res = optim_local_bounded(None, fun_sphere, LOWER, UPPER, {"funEvals": 5})
    assert res.count == 5
    assert res.msg == "budget exhausted"


def _with_gradient(x):
    return fun_sphere(x)


# two values for the one row of a mean-and-gradient call
_with_gradient.mean_and_gradient = lambda x: (np.zeros((2, 1)), np.zeros(x.shape))


@pytest.mark.parametrize("fun", [
    lambda x: np.zeros((x.shape[0], 2)),
    lambda x: np.zeros((3, 1)),
    _with_gradient,
], ids=["two-columns", "three-values", "gradient-two-values"])
def test_local_rejects_an_objective_with_the_wrong_number_of_values(fun):
    with pytest.raises(ValueError, match="wrong number of values"):
        optim_local_bounded(None, fun, LOWER, UPPER, {"funEvals": 20})


@given(budget=st.integers(3, 40))
def test_local_never_spends_more_than_the_budget(budget):
    res = optim_local_bounded(None, fun_sphere, LOWER, UPPER, {"funEvals": budget})
    assert res.count <= budget
    assert res.y.shape == (res.count, 1)
    assert res.ybest == res.y[:, 0].min()


def test_local_rejects_start_outside_bounds():
    # a NaN start used to be reported as a non-finite objective, a start
    # of the wrong length failed in numpy's broadcasting, and a start of
    # two rows started from the first
    for start, message in [
        ([25.0, 0.0], "start point outside bounds"),
        ([np.nan, 0.5], "start point outside bounds"),
        ([0.5], "start has 1 columns, expected 2"),
        ([0.5, 0.5, 0.5], "start has 3 columns, expected 2"),
        ([[1.0, 1.0], [30.0, 30.0]], "start has 2 rows, expected 1"),
    ]:
        with pytest.raises(ValueError, match=f"^{message}$"):
            optim_local_bounded(np.array(start), fun_sphere, LOWER, UPPER, None)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("search", [optim_lhd, optim_local_bounded])
@pytest.mark.parametrize("lower, upper, message", [
    pytest.param(UPPER, LOWER, "lower bound exceeds upper bound", id="reversed"),
    pytest.param([np.nan, -20.0], UPPER, "bounds must be finite", id="nan"),
    pytest.param(LOWER, [20.0, np.inf], "bounds must be finite", id="inf"),
    pytest.param(LOWER, [20.0, 8.0, 1.0], "lower and upper must be 1-d and the same length",
                 id="mismatched"),
])
def test_both_searches_reject_a_bad_box_alike(search, lower, upper, message):
    # the local search used to call reversed bounds a start point outside
    # them, and NaN or infinite ones, after a RuntimeWarning, a non-finite
    # objective at the start point
    with pytest.raises(ValueError, match=f"^{message}"):
        ParamSpace(lower, upper)
    with pytest.raises(ValueError, match=f"^{message}"):
        search(None, fun_sphere, lower, upper, {"funEvals": 10})


def test_local_rejects_non_finite_start_value():
    def broken(x):
        return np.full((x.shape[0], 1), np.nan)

    with pytest.raises(ValueError, match="not finite at the start point"):
        optim_local_bounded(None, broken, LOWER, UPPER, None)


def test_local_rejects_empty_budget():
    with pytest.raises(ValueError, match="funEvals"):
        optim_local_bounded(None, fun_sphere, LOWER, UPPER, {"funEvals": 0})


def test_result_shape_contract():
    res = optim_local_bounded(None, fun_sphere, LOWER, UPPER, {"funEvals": 12})
    assert isinstance(res, OptResult)
    assert res.x.shape[0] == res.count
    assert res.xbest.shape == (2,)


# ---------------------------------------------------------------------------
# the two gradient sources of the local descent: the objective's own
# mean_and_gradient, one row per iterate, or differences from one batched
# call of 2d + 1 rows


def _rosenbrock(x):
    x = np.atleast_2d(x)
    return (100.0 * (x[:, 1] - x[:, 0] ** 2) ** 2 + (1.0 - x[:, 0]) ** 2).reshape(-1, 1)


class _Counted:
    """An objective that records every call's rows; with `gradient` set it
    also carries the analytic mean_and_gradient of the Rosenbrock function."""

    def __init__(self, gradient: bool):
        self.calls = []
        if gradient:
            self.mean_and_gradient = self._mean_and_gradient

    def __call__(self, x):
        self.calls.append(np.array(x, copy=True))
        return _rosenbrock(x)

    def _mean_and_gradient(self, x):
        self.calls.append(np.array(x, copy=True))
        a, b = x[:, 0], x[:, 1]
        grad = np.column_stack([-400.0 * a * (b - a**2) - 2.0 * (1.0 - a), 200.0 * (b - a**2)])
        return _rosenbrock(x), grad


BOX_LOWER = np.array([-1.5, -0.5])
BOX_UPPER = np.array([1.25, 3.0])


class _NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"scipy is blocked: {name}")
        return None


@pytest.fixture
def no_scipy(monkeypatch):
    """Make every import of scipy fail, also of modules loaded already."""
    for name in [m for m in sys.modules if m == "scipy" or m.startswith("scipy.")]:
        monkeypatch.setitem(sys.modules, name, None)
    monkeypatch.setattr(sys, "meta_path", [_NoScipy(), *sys.meta_path])


@pytest.mark.parametrize("gradient", [True, False])
@pytest.mark.parametrize("start", [None, [1.25, 3.0], [-1.5, -0.5], [1.25, -0.5], [0.0, 1.0]])
@pytest.mark.parametrize("budget", [1, 4, 5, 6, 23, 200])
def test_local_descent_stays_in_the_box_and_the_budget(no_scipy, gradient, start, budget):
    fun = _Counted(gradient)
    start = None if start is None else np.array(start)
    res = optim_local_bounded(start, fun, BOX_LOWER, BOX_UPPER, {"funEvals": budget})
    assert np.all(res.x >= BOX_LOWER) and np.all(res.x <= BOX_UPPER)
    assert res.count <= budget
    assert np.array_equal(res.x, np.vstack(fun.calls))
    assert res.ybest == float(_rosenbrock(res.xbest.reshape(1, -1))[0, 0])
    assert res.ybest == res.y[:, 0].min()
    rows_per_call = {len(c) for c in fun.calls}
    if gradient:
        assert rows_per_call == {1}
    else:
        # every batch is whole, but for a last one the budget cut short
        assert {len(c) for c in fun.calls[:-1]} <= {5}
        if len(fun.calls[-1]) < 5:
            assert res.count == budget and res.msg == "budget exhausted"


@pytest.mark.parametrize("gradient", [True, False])
def test_local_descent_solves_rosenbrock_from_either_gradient(no_scipy, gradient):
    fun = _Counted(gradient)
    res = optim_local_bounded(np.array([-1.2, 1.0]), fun, BOX_LOWER, BOX_UPPER, {"funEvals": 2000})
    assert res.msg == "success"
    assert np.abs(res.xbest - 1.0).max() <= 1e-4


def test_the_gradient_branch_spends_one_row_per_iterate():
    # far fewer evaluations reach the same minimum than the differences take
    with_gradient, without = _Counted(True), _Counted(False)
    a = optim_local_bounded(None, with_gradient, BOX_LOWER, BOX_UPPER, {"funEvals": 2000})
    b = optim_local_bounded(None, without, BOX_LOWER, BOX_UPPER, {"funEvals": 2000})
    assert a.count == len(with_gradient.calls)
    assert b.count == 5 * len(without.calls)
    assert a.count < b.count


@given(x=st.tuples(st.floats(-1.5, 1.25), st.floats(-0.5, 3.0)))
def test_difference_rows_stay_in_the_box(x):
    rows, _ = _difference_rows(np.array(x), BOX_LOWER, BOX_UPPER)
    assert rows.shape == (5, 2)
    assert np.all(rows >= BOX_LOWER) and np.all(rows <= BOX_UPPER)
    assert np.array_equal(rows[0], np.array(x))


@pytest.mark.parametrize("x", [[0.3, 1.7], [-1.5, -0.5], [1.25, 3.0], [1.25 - 1e-7, -0.5 + 1e-7]])
def test_difference_gradient_is_second_order_at_and_off_the_bounds(x):
    # central inside, one-sided three-point at a bound: both exact on a quadratic
    def quad(v):
        return (3.0 * v[:, 0] ** 2 - v[:, 0] * v[:, 1] + 0.5 * v[:, 1] ** 2).reshape(-1, 1)

    x = np.array(x)
    rows, gradient = _difference_rows(x, BOX_LOWER, BOX_UPPER)
    want = [6.0 * x[0] - x[1], -x[0] + x[1]]
    assert gradient(quad(rows)[:, 0]) == pytest.approx(want, rel=1e-6, abs=1e-6)


def test_a_zero_width_axis_gets_a_zero_difference_gradient():
    lower, upper = np.array([0.0, 2.0]), np.array([1.0, 2.0])
    rows, gradient = _difference_rows(np.array([0.5, 2.0]), lower, upper)
    assert np.all(rows[:, 1] == 2.0)
    assert gradient(_rosenbrock(rows)[:, 0])[1] == 0.0


def test_a_step_that_cuts_f_by_at_most_ftol_relative_ends_the_local_search():
    # near 1e20 a unit step changes no bit of f: the first step passes the
    # Armijo test and ends the search, where the identity's next steps
    # would walk on to the bound
    def fun(x):
        return 1e20 + x[:, :1]

    fun.mean_and_gradient = lambda x: (fun(x), np.ones_like(x))
    res = optim_local_bounded(np.array([5.0]), fun, np.array([0.0]), np.array([10.0]),
                              {"funEvals": 100})
    assert res.msg == "success"
    assert res.x[:, 0].tolist() == [5.0, 4.0]


@pytest.mark.parametrize("budget", [20, 31, 60])
def test_a_local_likelihood_search_spends_exactly_its_budget(no_scipy, budget):
    rng = np.random.default_rng(19)
    X = rng.uniform(-1, 1, size=(7, 2))
    fit = fit_kriging(X, (X**2).sum(axis=1), {"budget": budget, "seed": 1, "algTheta": "local"})
    assert fit.likelihood_evals == budget
