"""Tests for the bounded searchers (space-filling sample and local descent)."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from seqtune import OptResult, fun_sphere, optim_lhd, optim_local_bounded
from seqtune.design import ParamSpace, make_lhd

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


@given(budget=st.integers(3, 40))
def test_local_never_spends_more_than_the_budget(budget):
    res = optim_local_bounded(None, fun_sphere, LOWER, UPPER, {"funEvals": budget})
    assert res.count <= budget
    assert res.y.shape == (res.count, 1)
    assert res.ybest == res.y[:, 0].min()


def test_local_rejects_start_outside_bounds():
    with pytest.raises(ValueError, match="outside bounds"):
        optim_local_bounded(np.array([25.0, 0.0]), fun_sphere, LOWER, UPPER, None)


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
