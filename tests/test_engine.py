"""Tests for the sequential optimization engine: budgets, seeding, archives,
duplicate handling, replication top-ups and continuation."""

import itertools
from types import SimpleNamespace

import numpy as np
import pytest

from seqtune import (
    InfeasibleBudgetError,
    ParamSpace,
    SpotConfig,
    SpotResult,
    apply_duplicate_policy,
    optim_lhd,
    spot,
    spot_loop,
)
from seqtune.engine import initial_design


def _sphere(x):
    return np.sum(x**2, axis=1, keepdims=True)


def _noisy_sphere(x, seed=None):
    rng = np.random.default_rng(seed)
    return _sphere(x) + 0.1 * rng.standard_normal((x.shape[0], 1))


def _bowl_model(X, y, control):
    # surrogate stub whose search always lands on (2, 2)
    return SimpleNamespace(predict=lambda q: np.sum((q - 2.0) ** 2, axis=1))


_FAST_FOREST = {"model": "forest", "modelControl": {"ntree": 10}}
_GRID_CFG = {
    "designControl": {"size": 4, "seed": 3},
    "types": ("integer", "integer"),
    "model": _bowl_model,
    "optimizer": "local",
}


# ---------------------------------------------------------------------------
# replication structure and seed bookkeeping


def test_replicated_run_structure():
    # 6-point initial design then two candidates at two replicates each
    res = spot(
        None,
        _noisy_sphere,
        [-2, -2],
        [2, 2],
        {
            "funEvals": 10,
            "designControl": {"size": 6},
            "replicates": 2,
            "noise": True,
            "seedFun": 123,
            "modelControl": {"ntree": 15},
            "model": "forest",
        },
    )
    assert res.count == 10
    assert res.x.shape == (10, 2)
    assert len(np.unique(res.x[:6], axis=0)) == 6
    assert np.array_equal(res.x[6], res.x[7])
    assert np.array_equal(res.x[8], res.x[9])
    assert not np.array_equal(res.x[6], res.x[8])
    assert res.seeds == list(range(123, 133))
    assert list(res.replicates) == [1, 1, 1, 1, 1, 1, 1, 2, 1, 2]


def test_noise_runs_are_bitwise_reproducible():
    cfg = {
        "funEvals": 12,
        "designControl": {"size": 5},
        "replicates": 2,
        "noise": True,
        "seedFun": 7,
        "seedSPOT": 4,
        **_FAST_FOREST,
    }
    a = spot(None, _noisy_sphere, [-2, -2], [2, 2], cfg)
    b = spot(None, _noisy_sphere, [-2, -2], [2, 2], cfg)
    assert np.array_equal(a.x, b.x)
    assert np.array_equal(a.y, b.y)
    assert a.seeds == b.seeds


def test_objectives_without_seed_argument_get_seeded_global_rng():
    def legacy_noise(x):
        noise = np.random.standard_normal((x.shape[0], 1))
        return _sphere(x) + 0.1 * noise

    cfg = {
        "funEvals": 8,
        "designControl": {"size": 4},
        "noise": True,
        "seedFun": 42,
        **_FAST_FOREST,
    }
    a = spot(None, legacy_noise, [-2, -2], [2, 2], cfg)
    b = spot(None, legacy_noise, [-2, -2], [2, 2], cfg)
    assert np.array_equal(a.y, b.y)
    assert a.seeds == list(range(42, 50))


def _global_draw(x):
    return np.random.rand(x.shape[0], 1)


def test_an_objective_without_a_seed_archives_the_draws_of_its_rows_seeds():
    cfg = dict(_FAST_FOREST, funEvals=8, designControl={"size": 4}, noise=True, seedFun=42)
    res = spot(None, _global_draw, [-2, -2], [2, 2], cfg)
    assert res.seeds == list(range(42, 50))
    for val, seed in zip(res.y[:, 0], res.seeds):
        np.random.seed(seed)
        assert val == np.random.rand()


@pytest.mark.parametrize("resume", [False, True], ids=["spot", "spot_loop"])
def test_a_seeded_run_leaves_the_callers_global_stream_as_it_found_it(resume):
    # every seeded evaluation reseeds numpy's global generator first; the
    # caller's next draw used to come from the last evaluation's seed
    cfg = dict(_FAST_FOREST, funEvals=8, designControl={"size": 4}, noise=True, seedFun=3)
    prior = np.array([[0.5, 0.5], [-0.5, 0.25], [0.0, -0.75]])
    np.random.seed(2024)
    expected = np.random.rand()
    np.random.seed(2024)
    if resume:
        spot_loop(prior, _sphere(prior), _global_draw, [-1, -1], [1, 1], cfg)
    else:
        spot(None, _global_draw, [-1, -1], [1, 1], cfg)
    assert np.random.rand() == expected


# ---------------------------------------------------------------------------
# budget accounting


def test_budget_equal_to_design_size_runs_no_loop():
    res = spot(
        None,
        _sphere,
        [-1, -1],
        [1, 1],
        {"funEvals": 6, "designControl": {"size": 3, "replicates": 2}},
    )
    assert res.count == 6
    assert res.modelFit is None
    assert res.msg == "budget exhausted"


def test_budget_smaller_than_design_is_infeasible():
    with pytest.raises(InfeasibleBudgetError, match="needs 10 .* budget is 5"):
        spot(None, _sphere, [-1, -1], [1, 1], {"funEvals": 5})


def test_supplied_rows_count_against_the_budget():
    with pytest.raises(InfeasibleBudgetError, match="needs 13"):
        spot(
            np.zeros((3, 2)),
            _sphere,
            [-1, -1],
            [1, 1],
            {"funEvals": 12, "designControl": {"size": 10}},
        )


@pytest.mark.parametrize("control", [
    {"model": "stack", "modelControl": {"folds": 20}},
    {"model": "stack", "designControl": {"size": 3}},  # five folds by default
    {"designControl": {"size": 1}},
    {"designControl": {"size": 1}, "model": "forest"},
    {"model": "rsm", "designControl": {"size": 5}},  # six terms in two dimensions
])
def test_a_design_too_small_for_the_first_fit_stops_before_evaluating(control):
    # these used to evaluate the whole design and then fail in the first fit
    calls = []

    def fun(x):
        calls.append(x)
        return _sphere(x)

    with pytest.raises(ValueError, match="needs at least .* initial design rows, got"):
        spot(None, fun, [-1, -1], [1, 1], {"funEvals": 12, **control})
    assert calls == []
    # with no room for an iteration no model is fit, so the design runs
    rows = control.get("designControl", {}).get("size", 10)
    res = spot(None, fun, [-1, -1], [1, 1], {"funEvals": rows, **control})
    assert res.count == rows and res.modelFit is None


def test_hard_budget_and_archive_consistency():
    cfg = {
        "funEvals": 13,
        "designControl": {"size": 5},
        "optimizerControl": {"funEvals": 30},
        **_FAST_FOREST,
    }
    res = spot(None, _sphere, [-3, -3], [3, 3], cfg)
    assert res.count == 13
    assert res.x.shape == (13, 2)
    assert res.y.shape == (13, 1)
    assert len(res.seeds) == 13
    assert res.replicates.shape == (13,)
    best = int(np.argmin(res.y[:, 0]))
    assert res.ybest == res.y[best, 0]
    assert np.array_equal(res.xbest, res.x[best])


def test_the_run_record_reads_count_and_best_from_its_rows():
    rec = SpotResult.empty(2)
    for row, val in (([0, 0], 2.0), ([1, 1], np.nan), ([2, 2], 1.0), ([3, 3], 1.0)):
        rec.append(np.array(row), val, None)
    rec.append(np.array([2, 2]), 5.0, 7)
    assert rec.count == 5
    assert rec.y[1, 0] == np.inf
    assert rec.replicates.tolist() == [1, 1, 1, 1, 2]
    assert rec.seeds == [None, None, None, None, 7]
    # a tie goes to the first row, and xbest is a copy of it
    assert rec.ybest == 1.0
    best = rec.xbest
    assert best.tolist() == [2.0, 2.0]
    best[:] = 9.0
    assert rec.x[2].tolist() == [2.0, 2.0]
    assert (rec.msg, rec.modelFit) == ("budget exhausted", None)


def test_ocba_top_ups_respect_the_total_budget():
    res = spot(
        None,
        _noisy_sphere,
        [-2, -2],
        [2, 2],
        {
            "funEvals": 20,
            "designControl": {"size": 4, "replicates": 2},
            "replicates": 2,
            "noise": True,
            "seedFun": 0,
            "OCBA": True,
            "OCBAbudget": 3,
            **_FAST_FOREST,
        },
    )
    assert res.count == 20
    assert res.seeds == list(range(20))


def test_ocba_without_replication_warns():
    with pytest.warns(UserWarning, match="replicates above one"):
        spot(
            None,
            _noisy_sphere,
            [-2, -2],
            [2, 2],
            {
                "funEvals": 8,
                "designControl": {"size": 4},
                "noise": True,
                "seedFun": 0,
                "OCBA": True,
                "modelControl": {"ntree": 5},
                "model": "forest",
            },
        )


# ---------------------------------------------------------------------------
# duplicate policy


def test_duplicate_policy_passes_fresh_candidates_through():
    space = ParamSpace(np.array([0.0, 0.0]), np.array([1.0, 1.0]), ())
    archive = np.array([[0.5, 0.5]])
    out = apply_duplicate_policy(
        np.array([0.25, 0.75]), archive, "EXPLORE", space, np.random.default_rng(0)
    )
    assert np.array_equal(out, [0.25, 0.75])


def test_duplicate_policy_stop_returns_none():
    space = ParamSpace(np.array([0.0]), np.array([1.0]), ())
    out = apply_duplicate_policy(
        np.array([0.5]), np.array([[0.5]]), "STOP", space, np.random.default_rng(0)
    )
    assert out is None
    with pytest.raises(ValueError, match="^duplicate must be EXPLORE or STOP"):
        apply_duplicate_policy(
            np.array([0.5]), np.array([[0.5]]), "RETRY", space, np.random.default_rng(0)
        )


def test_duplicate_replacement_lands_on_the_only_free_cell():
    space = ParamSpace(np.array([1.0, 1.0]), np.array([3.0, 3.0]), ("integer",) * 2)
    cells = [c for c in itertools.product([1.0, 2.0, 3.0], repeat=2) if c != (2.0, 3.0)]
    out = apply_duplicate_policy(
        np.array([1.0, 1.0]),
        np.array(cells),
        "EXPLORE",
        space,
        np.random.default_rng(0),
    )
    assert np.array_equal(out, [2.0, 3.0])


def test_duplicate_replacement_gives_up_on_a_full_grid():
    space = ParamSpace(np.array([1.0, 1.0]), np.array([3.0, 3.0]), ("integer",) * 2)
    cells = np.array(list(itertools.product([1.0, 2.0, 3.0], repeat=2)))
    with pytest.raises(RuntimeError, match="1000 draws"):
        apply_duplicate_policy(
            np.array([1.0, 1.0]), cells, "EXPLORE", space, np.random.default_rng(0)
        )


def test_run_stops_on_duplicate_under_stop_policy():
    res = spot(
        None,
        _sphere,
        [1, 1],
        [3, 3],
        dict(_GRID_CFG, funEvals=20, duplicate="STOP"),
    )
    assert res.count < 20
    assert res.msg == "stopped on duplicate candidate (duplicate=STOP)"


def test_explore_fills_an_integer_grid_without_repeats():
    res = spot(
        None,
        _sphere,
        [1, 1],
        [3, 3],
        dict(_GRID_CFG, funEvals=9, duplicate="EXPLORE"),
    )
    assert res.count == 9
    assert len(set(map(tuple, res.x))) == 9
    assert np.array_equal(res.xbest, np.round(res.xbest))


def test_explore_stops_once_the_grid_is_exhausted():
    # the tenth evaluation has no unevaluated cell left: the run ends early
    # and keeps its archive instead of raising
    res = spot(
        None,
        _sphere,
        [1, 1],
        [3, 3],
        dict(_GRID_CFG, funEvals=10, duplicate="EXPLORE"),
    )
    assert res.count == 9 < 10
    assert len(set(map(tuple, res.x))) == 9
    assert res.msg == "stopped: no unevaluated point found to explore"
    assert res.ybest == 2.0


# ---------------------------------------------------------------------------
# non-finite objective values


def test_non_finite_values_are_archived_as_infinity():
    def half_nan(x):
        y = _sphere(x)
        y[x[:, 0] < 0.0] = np.nan
        return y

    res = spot(
        None,
        half_nan,
        [-1, -1],
        [1, 1],
        {
            "funEvals": 12,
            "designControl": {"size": 8, "seed": 5},
            "optimizerControl": {"funEvals": 30},
            **_FAST_FOREST,
        },
    )
    assert res.count == 12
    assert np.all(np.isinf(res.y[res.x[:, 0] < 0.0, 0]))
    assert np.isfinite(res.ybest)


def test_all_non_finite_design_cannot_start_the_loop():
    def always_nan(x):
        return np.full((x.shape[0], 1), np.nan)

    with pytest.raises(ValueError, match="finite evaluations"):
        spot(
            None,
            always_nan,
            [-1, -1],
            [1, 1],
            {"funEvals": 6, "designControl": {"size": 4}},
        )


# ---------------------------------------------------------------------------
# supplied start rows, model exposure and config validation


def test_supplied_rows_lead_the_archive_with_design_replication():
    start = np.array([[0.5, 0.5], [-0.25, 0.3]])
    res = spot(
        start,
        _sphere,
        [-1, -1],
        [1, 1],
        {
            "funEvals": 10,
            "designControl": {"size": 3, "replicates": 2, "seed": 2},
            "optimizerControl": {"funEvals": 20},
            **_FAST_FOREST,
        },
    )
    expected = np.repeat(start, 2, axis=0)
    assert np.array_equal(res.x[:4], expected)
    assert res.count == 10


def test_final_model_fit_is_exposed_and_usable():
    res = spot(
        None,
        _sphere,
        [-1, -1],
        [1, 1],
        {
            "funEvals": 8,
            "designControl": {"size": 5},
            "optimizerControl": {"funEvals": 20},
            **_FAST_FOREST,
        },
    )
    assert res.modelFit is not None
    preds = np.asarray(res.modelFit.predict(np.array([[0.1, -0.2], [0.3, 0.4]])))
    assert np.all(np.isfinite(preds))


def test_custom_design_callable_is_used():
    fixed = np.array([[0.0, 0.0], [1.0, 1.0], [-1.0, -1.0], [0.5, -0.5]])
    res = spot(
        None,
        _sphere,
        [-1, -1],
        [1, 1],
        {
            "funEvals": 6,
            "design": lambda x, space, ctl: fixed,
            "optimizerControl": {"funEvals": 20},
            **_FAST_FOREST,
        },
    )
    assert np.array_equal(res.x[:4], fixed)


def test_initial_rows_must_match_the_bounds_width():
    def two_rows(x, space, ctl):
        return np.zeros((2, space.dim))

    def five_columns(x, space, ctl):
        return np.ones((2, 5))

    # np.clip would broadcast a 1-column x across both columns
    with pytest.raises(ValueError, match="start rows x has 1 columns"):
        initial_design(np.array([[0.5]]), [-1, -1], [1, 1], {"design": two_rows})
    with pytest.raises(ValueError, match="the design has 5 columns"):
        initial_design(None, [-1, -1], [1, 1], {"design": five_columns})
    rows = initial_design(np.array([[0.5, 0.5]]), [-1, -1], [1, 1], {"design": two_rows})
    assert rows.shape == (3, 2)


def test_engine_replicates_custom_designs_and_passes_a_dict():
    seen = []

    def design(x, space, ctl):
        seen.append(ctl)
        return np.array([[0.1, 0.2], [0.3, 0.4]])

    start = np.array([[0.5, -0.5]])
    cfg = {"design": design, "designControl": {"size": 2, "replicates": 2}}
    rows = initial_design(start, [-1, -1], [1, 1], cfg)
    expected = np.repeat(np.vstack([start, design(None, None, {})]), 2, axis=0)
    assert np.array_equal(rows, expected)
    # the engine adds a seed from the generator; a given seed passes through
    assert set(seen[0]) == {"size", "replicates", "seed"}
    initial_design(start, [-1, -1], [1, 1], dict(cfg, designControl={"seed": 7}))
    assert seen[2] == {"seed": 7}


def test_config_rejects_bad_values():
    with pytest.raises(ValueError, match="funEvals"):
        SpotConfig(funEvals=0)
    with pytest.raises(ValueError, match="replicates"):
        SpotConfig(replicates=0)
    with pytest.raises(ValueError, match="OCBAbudget"):
        SpotConfig(OCBAbudget=-1)
    with pytest.raises(ValueError, match="duplicate"):
        SpotConfig(duplicate="RETRY")
    with pytest.raises(ValueError, match="funEvals"):
        SpotConfig(funEvals=12.5)
    with pytest.raises(ValueError, match="seedSPOT"):
        SpotConfig(seedSPOT="abc")
    with pytest.raises(ValueError, match="^seedFun must be an integer or none, got 1.5"):
        SpotConfig(seedFun=1.5)
    with pytest.raises(ValueError, match="^control must be a SpotConfig, dict or None"):
        spot(None, _sphere, [-1, -1], [1, 1], 5)
    with pytest.raises(ValueError, match="noise"):
        SpotConfig(noise="maybe")
    with pytest.raises(ValueError, match="modelControl"):
        SpotConfig(modelControl=5)
    for name in ("designControl", "modelControl", "optimizerControl"):
        with pytest.raises(ValueError, match=f"{name} seed"):
            SpotConfig(**{name: {"seed": "abc"}})
        with pytest.raises(ValueError, match=f"{name} seed"):
            SpotConfig(**{name: {"seed": 2.5}})
        SpotConfig(**{name: {"seed": None}})
        SpotConfig(**{name: {"seed": 7}})
        # the run's types used to be overridden by a control section's
        for types in (("integer",), None):
            with pytest.raises(ValueError, match=f"^{name} cannot set types"):
                SpotConfig(**{name: {"types": types}})
    # counts read by the designs, models and optimizers: a fraction used to
    # be truncated silently
    for name, key in (
        ("designControl", "size"),
        ("designControl", "replicates"),
        ("designControl", "retries"),
        ("modelControl", "ntree"),
        ("modelControl", "mtry"),
        ("modelControl", "min_node_size"),
        ("modelControl", "folds"),
        ("modelControl", "budget"),
        ("optimizerControl", "funEvals"),
    ):
        for value in (3.7, "abc", None, True):
            with pytest.raises(ValueError, match=f"{name} {key}"):
                SpotConfig(**{name: {key: value}})
        SpotConfig(**{name: {key: 3}})
    # a zero budget, tree count or fold count used to fail after the design
    # was evaluated, with a message that named no section
    for name, key, least in (
        ("modelControl", "ntree", 1),
        ("modelControl", "mtry", 1),
        ("modelControl", "min_node_size", 1),
        ("modelControl", "folds", 2),
        ("modelControl", "budget", 1),
        ("optimizerControl", "funEvals", 1),
    ):
        for value in (least - 1, -2):
            with pytest.raises(ValueError, match=f"{name} {key} must be at least {least}"):
                SpotConfig(**{name: {key: value}})
        SpotConfig(**{name: {key: least}})


@pytest.mark.parametrize("key, control", [
    ("seedSPOT", {"seedSPOT": -2}),
    ("designControl seed", {"designControl": {"seed": -1}}),
    ("modelControl seed", {"modelControl": {"seed": -1}}),
    ("optimizerControl seed", {"optimizerControl": {"seed": -1}}),
], ids=["seedSPOT", "designControl", "modelControl", "optimizerControl"])
def test_a_negative_seed_is_rejected_before_any_evaluation(key, control):
    # numpy's generators take no negative seed; the model's used to fail
    # after the whole design was evaluated, with a message naming no key
    calls = []

    def counting(x):
        calls.append(x)
        return _sphere(x)

    with pytest.raises(ValueError, match=f"^{key} must be a nonnegative integer"):
        spot(None, counting, [-1, -1], [1, 1],
             {"funEvals": 12, "designControl": {"size": 10}, **_FAST_FOREST, **control})
    assert calls == []


def test_a_bad_stack_member_is_rejected_before_any_evaluation():
    # a run used to go ahead with the members left after the forest's fit
    # rejected ntree 2.7: kriging and rsm
    calls = []

    def counting(x):
        calls.append(x)
        return _sphere(x)

    for model_control, message in (
        ({"ntree": 2.7}, "^modelControl ntree must be an integer, got 2.7"),
        # an unknown member used to be found after the design was evaluated
        ({"members": ["kriging", "boosting"]}, "^unknown stack member 'boosting'"),
        # a list as a name used to raise TypeError: unhashable type
        ({"members": (["kriging"],)}, r"^unknown stack member \['kriging'\]"),
    ):
        control = {"funEvals": 12, "designControl": {"size": 10}, "model": "stack",
                   "modelControl": model_control}
        with pytest.raises(ValueError, match=message):
            SpotConfig(**control)
        with pytest.raises(ValueError, match=message):
            spot(None, counting, [-1, -1], [1, 1], control)
    assert calls == []


def test_config_defaults():
    cfg = SpotConfig()
    assert cfg.funEvals == 20
    assert cfg.design == "lhd"
    assert cfg.model == "kriging"
    assert cfg.optimizer == "lhd"
    assert cfg.noise is False
    assert cfg.OCBA is False
    assert cfg.OCBAbudget == 3
    assert cfg.replicates == 1
    assert cfg.seedFun is None
    assert cfg.seedSPOT == 1
    assert cfg.duplicate == "EXPLORE"


def test_the_lhd_optimizer_callable_runs_like_its_name():
    cfg = {"funEvals": 9, "designControl": {"size": 5}, **_FAST_FOREST,
           "optimizerControl": {"funEvals": 30}}
    by_name = spot(None, _sphere, [-3, -3], [3, 3], cfg)
    # a wrapper gets the same call as optim_lhd itself: the incumbent as start
    for optimizer in (optim_lhd, lambda *a: optim_lhd(*a)):
        by_callable = spot(
            None, _sphere, [-3, -3], [3, 3], dict(cfg, optimizer=optimizer)
        )
        assert np.array_equal(by_callable.x, by_name.x)
        assert np.array_equal(by_callable.y, by_name.y)


def test_unknown_component_names_are_rejected():
    # names are checked with the config, before the design is evaluated
    calls = []

    def counted(x):
        calls.append(x.shape[0])
        return _sphere(x)

    for key, name in (("model", "spline"), ("optimizer", "bfgs"),
                      ("design", "sobol"), ("model", ["kriging", "forest"])):
        with pytest.raises(ValueError, match=f"unknown {key}"):
            spot(None, counted, [-1, -1], [1, 1], {"funEvals": 12, key: name})
    assert calls == []


@pytest.mark.parametrize("count", [0, 2])
@pytest.mark.parametrize("seeded", [False, True], ids=["batch", "seeded"])
def test_objective_must_return_one_value_per_row(seeded, count):
    def wrong(x, seed=None):
        return np.zeros((count, 1))

    cfg = {"funEvals": 6, "designControl": {"size": 4}}
    if seeded:
        cfg.update(noise=True, seedFun=1)
    with pytest.raises(ValueError, match="wrong number of values"):
        spot(None, wrong, [-1, -1], [1, 1], cfg)


def test_a_model_whose_predict_gives_two_columns_fails_the_search():
    # the lhd search used to count 2m values for m points and take its best
    # from the wrong row
    def two_columns(X, y, control):
        return SimpleNamespace(predict=lambda q: np.zeros((q.shape[0], 2)))

    with pytest.raises(ValueError, match="wrong number of values"):
        spot(None, _sphere, [-1, -1], [1, 1],
             {"funEvals": 6, "designControl": {"size": 4}, "model": two_columns})


@pytest.mark.parametrize("resume", [False, True], ids=["spot", "spot_loop"])
def test_a_negative_seedfun_for_an_objective_that_takes_a_seed_is_rejected_unevaluated(resume):
    # such an objective gets seedFun plus the row count, and numpy's
    # generators take no negative seed: seedFun -5 used to fail at the
    # first evaluation with numpy's bare "expected non-negative integer"
    calls = []

    def seeded(x, seed=None):
        calls.append(seed)
        return _noisy_sphere(x, seed)

    cfg = dict(_FAST_FOREST, funEvals=8, designControl={"size": 4}, noise=True, seedFun=-5)
    prior = np.array([[0.5, 0.5], [-0.5, 0.25], [0.0, -0.75]])

    def run(fun):
        if resume:
            return spot_loop(prior, _sphere(prior), fun, [-1, -1], [1, 1], cfg)
        return spot(None, fun, [-1, -1], [1, 1], cfg)

    with pytest.raises(ValueError, match="^seedFun must be nonnegative"):
        run(seeded)
    assert calls == []
    # an objective that takes no seed may still run on any seedFun
    seeds = run(_sphere).seeds
    assert seeds[-1] == -5 + 7


# ---------------------------------------------------------------------------
# continuation


_LOOP_CFG = {
    "funEvals": 8,
    "designControl": {"size": 5, "seed": 11},
    "optimizerControl": {"funEvals": 25},
    **_FAST_FOREST,
}


def test_continuation_keeps_the_prefix_and_extends():
    first = spot(None, _sphere, [-3, -3], [3, 3], _LOOP_CFG)
    resumed = spot_loop(
        first.x, first.y, _sphere, [-3, -3], [3, 3], dict(_LOOP_CFG, funEvals=12)
    )
    assert resumed.count == 12
    assert np.array_equal(resumed.x[:8], first.x)
    assert np.array_equal(resumed.y[:8], first.y)
    assert resumed.ybest <= first.ybest


def test_continuation_keeps_the_prior_seeds():
    cfg = dict(_LOOP_CFG, noise=True, seedFun=40)
    first = spot(None, _noisy_sphere, [-3, -3], [3, 3], cfg)
    resumed = spot_loop(first.x, first.y, _noisy_sphere, [-3, -3], [3, 3],
                        dict(cfg, funEvals=11), seeds=first.seeds)
    assert resumed.seeds[:8] == first.seeds
    assert resumed.seeds == list(range(40, 51))


def test_continuation_with_spent_budget_returns_archive_unchanged():
    first = spot(None, _sphere, [-3, -3], [3, 3], _LOOP_CFG)
    again = spot_loop(
        first.x, first.y, _sphere, [-3, -3], [3, 3], dict(_LOOP_CFG, funEvals=8)
    )
    assert again.count == 8
    assert np.array_equal(again.x, first.x)
    assert np.array_equal(again.y, first.y)
    assert again.msg == "budget exhausted"
    assert again.modelFit is None


def test_continuation_from_a_best_row_outside_the_box_searches_inside_it():
    # local search starts at the incumbent, clipped into the bounds
    x = np.array([[-1.0, 0.5], [0.5, -2.0], [2.5, 1.0], [20.0, 20.0]])
    y = np.array([1.0, 2.0, 3.0, -1.0])
    cfg = {"funEvals": 6, "model": _bowl_model, "optimizer": "local",
           "optimizerControl": {"funEvals": 25}}
    res = spot_loop(x, y, _sphere, [-3, -3], [3, 3], cfg)
    assert res.count == 6
    assert np.array_equal(res.x[:4], x)
    assert np.all(np.abs(res.x[4:]) <= 3.0)
    assert res.x[4] == pytest.approx([2.0, 2.0], abs=1e-3)


def test_continuation_validates_shapes():
    with pytest.raises(ValueError, match="row counts differ"):
        spot_loop(np.zeros((3, 2)), np.zeros(2), _sphere, [-1, -1], [1, 1], None)
    with pytest.raises(ValueError, match="x has 3 columns, expected 2"):
        spot_loop(np.zeros((3, 3)), np.zeros(3), _sphere, [-1, -1], [1, 1], None)
    with pytest.raises(ValueError, match="seeds"):
        spot_loop(np.zeros((3, 2)), np.zeros(3), _sphere, [-1, -1], [1, 1], None,
                  seeds=[1, 2])


class _RecordingBowl:
    """A bowl model that logs how the search calls it."""

    def __init__(self, log, gradient):
        self.log = log
        if gradient:
            self.mean_and_gradient = self._mean_and_gradient

    def predict(self, q):
        self.log.append(("predict", np.atleast_2d(q).shape[0]))
        return np.sum((q - 2.0) ** 2, axis=1)

    def _mean_and_gradient(self, q):
        self.log.append(("mean_and_gradient", q.shape[0]))
        return np.sum((q - 2.0) ** 2, axis=1, keepdims=True), 2.0 * (q - 2.0)


@pytest.mark.parametrize("gradient", [True, False])
def test_local_search_uses_the_models_gradient_when_it_has_one(gradient):
    log = []
    cfg = {"funEvals": 7, "designControl": {"size": 6, "seed": 3}, "optimizer": "local",
           "model": lambda X, y, control: _RecordingBowl(log, gradient),
           "optimizerControl": {"funEvals": 40}}
    res = spot(None, _sphere, [-3, -3], [3, 3], cfg)
    assert res.x[6] == pytest.approx([2.0, 2.0], abs=1e-4)
    # one row per iterate from the gradient, else 2d + 1 rows per predict
    assert set(log) == ({("mean_and_gradient", 1)} if gradient else {("predict", 5)})
