"""Benchmark objectives and the annealing scenario.

Oracles here are written from the mathematical definitions (independent
reimplementations inside the tests), not from the package internals.
"""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from seqtune.objectives import (
    DEFAULT_SANN_SCENARIO,
    SannParams,
    TuningProblem,
    fun_branin,
    fun_branin_factor,
    fun_cubic,
    fun_sphere,
    get_objective,
    make_sann_objective,
    metropolis_accept,
    sann2spot,
    sann_minimize,
)

# ---------------------------------------------------------------------------
# simple analytic objectives


def _branin_oracle(x1, x2):
    # textbook constants: a=1, b=5.1/(4 pi^2), c=5/pi, r=6, s=10, t=1/(8 pi)
    b = 5.1 / (4.0 * math.pi**2)
    c = 5.0 / math.pi
    t = 1.0 / (8.0 * math.pi)
    return (x2 - b * x1**2 + c * x1 - 6.0) ** 2 + 10.0 * (1.0 - t) * math.cos(
        x1
    ) + 10.0


def branin(x):
    """Scalar Branin on a 2-vector, the row-by-row oracle for fun_branin."""
    x1, x2 = float(x[0]), float(x[1])
    a = x2 - 5.1 / (4.0 * math.pi**2) * x1**2 + 5.0 / math.pi * x1 - 6.0
    return a**2 + 10.0 * (1.0 - 1.0 / (8.0 * math.pi)) * math.cos(x1) + 10.0


_FACTOR_SHIFT = {1: 1.0, 2: -1.0, 3: 0.0}


def branin_factor(x):
    """Branin plus the shift of level x[2]: level 1 adds 1, 2 subtracts 1, 3 none."""
    return branin(x[:2]) + _FACTOR_SHIFT[int(round(float(x[2])))]


def test_sphere_values_and_shape():
    y = fun_sphere([[1.0, 2.0], [0.0, 0.0], [-3.0, 4.0]])
    assert y.shape == (3, 1)
    assert y[:, 0] == pytest.approx([5.0, 0.0, 25.0])


def test_sphere_accepts_single_row():
    assert fun_sphere([1.0, 2.0, 2.0]).item() == pytest.approx(9.0)


def test_cubic_values():
    y = fun_cubic([[1.0, 2.0], [0.0, 0.0]])
    assert y[:, 0] == pytest.approx([7.0, -2.0])


def test_branin_known_point():
    assert fun_branin((1.0, 2.0)).item() == pytest.approx(21.62763539206238, abs=1e-9)


def test_branin_global_minimum_value():
    for pt in [(-math.pi, 12.275), (math.pi, 2.275), (9.42478, 2.475)]:
        assert fun_branin(pt).item() == pytest.approx(0.397887, abs=1e-4)


@given(
    st.floats(-5.0, 10.0, allow_nan=False),
    st.floats(0.0, 15.0, allow_nan=False),
)
def test_branin_matches_textbook_formula(x1, x2):
    assert fun_branin((x1, x2)).item() == pytest.approx(
        _branin_oracle(x1, x2), rel=1e-12
    )


def test_fun_branin_vectorizes_scalar():
    rng = np.random.default_rng(5)
    x = np.column_stack([rng.uniform(-5, 10, 20), rng.uniform(0, 15, 20)])
    y = fun_branin(x)
    assert y.shape == (20, 1)
    for row, val in zip(x, y[:, 0]):
        assert val == pytest.approx(branin(row), rel=1e-12)


def test_fun_branin_rejects_wrong_width():
    with pytest.raises(ValueError, match="^branin's x has 3 columns, expected 2$"):
        fun_branin(np.zeros((4, 3)))
    with pytest.raises(ValueError, match="^braninFactor's x has 2 columns, expected 3$"):
        fun_branin_factor(np.zeros((4, 2)))


def test_branin_factor_level_shifts():
    base = branin((2.0, 3.0))
    assert fun_branin_factor((2.0, 3.0, 1)).item() == pytest.approx(base + 1.0)
    assert fun_branin_factor((2.0, 3.0, 2)).item() == pytest.approx(base - 1.0)
    assert fun_branin_factor((2.0, 3.0, 3)).item() == pytest.approx(base)


def test_branin_factor_rejects_bad_level():
    with pytest.raises(ValueError):
        fun_branin_factor((0.0, 0.0, 4))
    with pytest.raises(ValueError):
        fun_branin_factor([[0.0, 0.0, 0.0]])


def test_fun_branin_factor_vectorizes_scalar():
    rng = np.random.default_rng(11)
    x = np.column_stack(
        [rng.uniform(-5, 10, 12), rng.uniform(0, 15, 12), rng.integers(1, 4, 12)]
    )
    y = fun_branin_factor(x)
    for row, val in zip(x, y[:, 0]):
        assert val == pytest.approx(branin_factor(row), rel=1e-12)


# ---------------------------------------------------------------------------
# Metropolis rule


def test_metropolis_always_accepts_improvements():
    assert metropolis_accept(-1.0, 1.0, 0.999999)
    assert metropolis_accept(0.0, 1e-12, 0.999999)


def test_metropolis_threshold_is_exp_of_minus_delta_over_t():
    # delta=1, T=1: acceptance threshold is exp(-1) ~ 0.36788
    assert metropolis_accept(1.0, 1.0, 0.36)
    assert not metropolis_accept(1.0, 1.0, 0.37)
    # delta=2, T=4: threshold exp(-0.5) ~ 0.60653
    assert metropolis_accept(2.0, 4.0, 0.60)
    assert not metropolis_accept(2.0, 4.0, 0.61)


def test_metropolis_extreme_ratio_does_not_overflow():
    # the exponent is clamped, so the threshold bottoms out at exp(-700)
    assert not metropolis_accept(1e9, 1e-12, 1e-300)
    assert metropolis_accept(1e-300, 1e9, 0.5)


@given(
    st.floats(-100, 100, allow_nan=False),
    st.floats(1e-6, 100, allow_nan=False),
    st.floats(0, 1, exclude_max=True, allow_nan=False),
)
def test_metropolis_matches_direct_formula(delta, t, u):
    expected = delta <= 0 or u < math.exp(-min(delta / t, 700.0))
    assert metropolis_accept(delta, t, u) == expected


# ---------------------------------------------------------------------------
# simulated annealing


def _sum_sq(v):
    return float(np.sum(np.asarray(v, dtype=float) ** 2))


def test_sann_counts_reports_proposals():
    res = sann_minimize(_sum_sq, SannParams(par=(10.0, 10.0), maxit=37, seed=0))
    assert res.counts == 37


def test_sann_never_worse_than_start():
    for seed in range(5):
        res = sann_minimize(
            _sum_sq, SannParams(par=(10.0, 10.0), maxit=50, seed=seed)
        )
        assert res.value <= _sum_sq((10.0, 10.0))
        assert res.value == pytest.approx(_sum_sq(res.par))


def test_sann_deterministic_under_seed():
    a = sann_minimize(_sum_sq, SannParams(par=(3.0, -4.0), maxit=60, seed=42))
    b = sann_minimize(_sum_sq, SannParams(par=(3.0, -4.0), maxit=60, seed=42))
    assert a.value == b.value
    assert np.array_equal(a.par, b.par)


def _replay(par, maxit, temp, tmax, seed):
    """The documented procedure, one proposal at a time with the same generator.

    Per proposal: one Gaussian step (scale = temperature, floored at 1e-8),
    then one uniform draw for the accept decision; cooling is
    temp / ln(j*tmax + e) with j advancing every tmax proposals.  Returns
    the best point and its value.
    """
    rng = np.random.default_rng(seed)
    cur = np.array(par, dtype=float)
    cur_y = _sum_sq(cur)
    best, best_y = cur.copy(), cur_y
    for i in range(1, maxit + 1):
        stage = (i - 1) // tmax
        t = temp / math.log(stage * tmax + math.e)
        prop = cur + rng.normal(0.0, max(t, 1e-8), size=cur.shape)
        prop_y = _sum_sq(prop)
        if prop_y < best_y:
            best, best_y = prop.copy(), prop_y
        delta = prop_y - cur_y
        u = rng.uniform()
        if delta <= 0 or u < math.exp(-min(delta / t, 700.0)):
            cur, cur_y = prop, prop_y
    return best, best_y


def test_sann_chain_matches_hand_replay():
    layouts = [
        (5.0, 4, 25),  # maxit not a multiple of tmax: a last stage of one
        (5.0, 1, 12),  # a new temperature every proposal
        (3.0, 40, 25),  # tmax > maxit: one stage
        (10.0, 10, 100),  # the default scenario's settings
        (2.0, 7, 50),  # a last stage of one after seven full ones
        (1e-9, 3, 20),  # every step at the 1e-8 scale floor
    ]
    for temp, tmax, maxit in layouts:
        for seed in range(5):
            params = SannParams(par=(2.0, -1.0), maxit=maxit, temp=temp, tmax=tmax, seed=seed)
            res = sann_minimize(_sum_sq, params)
            best, best_y = _replay((2.0, -1.0), maxit, temp, tmax, seed)
            assert res.value == best_y
            assert np.array_equal(res.par, best)


def test_sann_validates_settings():
    with pytest.raises(ValueError):
        sann_minimize(_sum_sq, SannParams(par=(0.0,), temp=0.0))
    with pytest.raises(ValueError):
        sann_minimize(_sum_sq, SannParams(par=(0.0,), tmax=0))
    with pytest.raises(ValueError):
        sann_minimize(_sum_sq, SannParams(par=(0.0,), maxit=0))


@pytest.mark.parametrize("temp", [np.nan, np.inf, -np.inf])
def test_sann_rejects_a_non_finite_temperature(temp):
    with pytest.raises(ValueError, match="temp must be finite"):
        sann_minimize(_sum_sq, SannParams(par=(1.0,), temp=temp, seed=0))


@pytest.mark.parametrize("tmax", [np.nan, np.inf, 2.5])
def test_sann_rejects_a_tmax_that_is_not_a_whole_number(tmax):
    with pytest.raises(ValueError, match="tmax must be a whole number"):
        sann_minimize(_sum_sq, SannParams(par=(1.0,), tmax=tmax, seed=0))


def test_sann_runs_an_integral_float_tmax_as_the_integer():
    a = sann_minimize(_sum_sq, SannParams(par=(4.0, 3.0), maxit=33, tmax=10.0, seed=5))
    b = sann_minimize(_sum_sq, SannParams(par=(4.0, 3.0), maxit=33, tmax=10, seed=5))
    assert a.value == b.value
    assert np.array_equal(a.par, b.par)


@pytest.mark.parametrize("maxit", [np.nan, np.inf, 10.5])
def test_sann_rejects_a_maxit_that_is_not_a_whole_number(maxit):
    # a fractional or NaN maxit used to leak range()'s TypeError
    with pytest.raises(ValueError, match="maxit must be a whole number"):
        sann_minimize(_sum_sq, SannParams(par=(1.0,), maxit=maxit, seed=0))


def test_sann_runs_an_integral_float_maxit_as_the_integer():
    a = sann_minimize(_sum_sq, SannParams(par=(4.0, 3.0), maxit=33.0, tmax=10, seed=5))
    b = sann_minimize(_sum_sq, SannParams(par=(4.0, 3.0), maxit=33, tmax=10, seed=5))
    assert (a.value, a.counts) == (b.value, b.counts)
    assert np.array_equal(a.par, b.par)


@pytest.mark.parametrize("x0", [(np.nan, 1.0), (np.inf, 1.0), (1.0, -np.inf)])
def test_sann_rejects_a_start_point_that_is_not_finite(x0):
    # every proposal from such a start is non-finite, and the start's own
    # value used to come back as the run's result
    with pytest.raises(ValueError, match=r"par \(the scenario's x0\) must be finite"):
        sann2spot([[5.0, 5.0]], scenario=TuningProblem(x0=x0), seed=0)


def test_sann_first_stage_runs_at_start_temperature():
    # with maxit <= tmax every proposal uses t = temp / ln(e) = temp; the
    # replay below only matches if no cooling happened in the first stage
    params = SannParams(par=(1.0,), maxit=3, temp=2.5, tmax=10, seed=4)
    res = sann_minimize(_sum_sq, params)
    rng = np.random.default_rng(4)
    cur = np.array([1.0])
    cur_y = _sum_sq(cur)
    best_y = cur_y
    for _ in range(3):
        prop = cur + rng.normal(0.0, 2.5, size=1)
        prop_y = _sum_sq(prop)
        best_y = min(best_y, prop_y)
        if prop_y - cur_y <= 0 or rng.uniform() < math.exp(
            -min((prop_y - cur_y) / 2.5, 700.0)
        ):
            cur, cur_y = prop, prop_y
    assert res.value == best_y


# ---------------------------------------------------------------------------
# the tuning wrapper


def test_sann2spot_shape_and_determinism():
    algpar = [[10.0, 5.0], [1.0, 20.0], [10.0, 5.0]]
    a = sann2spot(algpar, seed=100)
    b = sann2spot(algpar, seed=100)
    assert a.shape == (3, 1)
    assert np.array_equal(a, b)
    # identical rows get different per-row seeds, so replicate values differ
    assert a[0, 0] != a[2, 0]


def test_sann2spot_row_seed_offset():
    # row i of a batch behaves exactly like a one-row call with seed + i
    batch = sann2spot([[10.0, 5.0], [2.0, 3.0]], seed=500)
    solo = sann2spot([[2.0, 3.0]], seed=501)
    assert batch[1, 0] == solo[0, 0]


def test_sann2spot_validates_input():
    with pytest.raises(ValueError, match=r"^algpar \(temp, tmax\) has 3 columns, expected 2$"):
        sann2spot([[1.0, 2.0, 3.0]])
    with pytest.raises(ValueError):
        sann2spot([[0.0, 5.0]])  # temperature must be positive


@pytest.mark.parametrize(
    "row, name",
    [
        ([np.nan, 5.0], "temp"),
        ([np.inf, 5.0], "temp"),
        ([5.0, np.inf], "tmax"),
        ([5.0, np.nan], "tmax"),
    ],
)
def test_sann2spot_rejects_non_finite_settings(row, name):
    # a NaN or infinite temperature used to return the start value 200.0,
    # every proposal being NaN; a non-finite tmax failed in int(round(.))
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        sann2spot(np.array([row]), seed=1)


def test_sann2spot_rounds_tmax_to_at_least_one():
    # tmax 0.4 rounds to 0 and is floored at 1; equivalent to tmax=1
    a = sann2spot([[5.0, 0.4]], seed=3)
    b = sann2spot([[5.0, 1.0]], seed=3)
    assert a[0, 0] == b[0, 0]


def test_scenario_budget_is_respected():
    calls = []

    def probe(v):
        calls.append(1)
        return _sum_sq(v)

    scenario = TuningProblem(x0=(1.0, 1.0), maxit=17, fn=probe)
    sann2spot([[5.0, 5.0]], scenario=scenario, seed=0)
    # one bookkeeping call for the start plus exactly maxit proposals
    assert len(calls) == 18


def test_default_scenario_starts_far_from_optimum():
    assert tuple(DEFAULT_SANN_SCENARIO.x0) == (10.0, 10.0)
    assert DEFAULT_SANN_SCENARIO.maxit == 100
    assert DEFAULT_SANN_SCENARIO.fn((3.0, 4.0)) == pytest.approx(25.0)


def test_default_scenario_fn_is_the_sum_of_squares_bit_for_bit():
    # lengths 8 and up go through numpy's pairwise summation blocks
    rng = np.random.default_rng(0)
    for length in range(1, 21):
        for _ in range(20):
            v = rng.normal(size=length) * 10.0 ** rng.uniform(-3, 3)
            assert DEFAULT_SANN_SCENARIO.fn(v) == _sum_sq(v)
            assert DEFAULT_SANN_SCENARIO.fn(list(v)) == _sum_sq(v)


def test_make_sann_objective_accepts_seed_kwarg():
    objective = make_sann_objective()
    a = objective(np.array([[10.0, 5.0]]), seed=7)
    b = objective(np.array([[10.0, 5.0]]), seed=7)
    assert a.shape == (1, 1)
    assert np.array_equal(a, b)


# ---------------------------------------------------------------------------
# registry


def test_get_objective_known_names():
    x = np.array([[1.0, 2.0]])
    assert get_objective("sphere")(x).item() == pytest.approx(5.0)
    assert get_objective("branin")(x).item() == pytest.approx(branin((1, 2)))
    assert get_objective("cubic")(x).item() == pytest.approx(7.0)
    y = get_objective("braninFactor")(np.array([[1.0, 2.0, 3.0]]))
    assert y.item() == pytest.approx(branin((1, 2)))
    assert callable(get_objective("sannSphere"))


def test_get_objective_unknown_name():
    with pytest.raises(ValueError, match="unknown objective.*sannSphere"):
        get_objective("rosenbrock")
