"""Space-filling designs: stratification, typing, replication, determinism."""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.spatial.distance import pdist

from seqtune.cli import main
from seqtune.design import (
    VALID_TYPES,
    ParamSpace,
    _min_pairwise_distance,
    cross_dist,
    make_lhd,
    make_uniform,
    sample_lhd,
)
from seqtune.engine import (
    _INT_KEYS,
    SpotConfig,
    fit_surrogate,
    initial_design,
    spot,
    spot_loop,
)
from seqtune.forest import fit_forest
from seqtune.kriging import fit_kriging
from seqtune.optimizers import optim_lhd, optim_local_bounded
from seqtune.rsm import fit_rsm
from seqtune.stack import fit_stack
from seqtune.stack import min_rows as stack_min_rows


def _bin_counts(col, lo, hi, size):
    """How many points fall in each of `size` equal-width bins."""
    edges = np.linspace(lo, hi, size + 1)
    idx = np.clip(np.searchsorted(edges, col, side="right") - 1, 0, size - 1)
    return np.bincount(idx, minlength=size)


# ---------------------------------------------------------------------------
# parameter space


def test_space_defaults_to_numeric():
    sp = ParamSpace([0.0, -1.0], [1.0, 1.0])
    assert sp.types == ("numeric", "numeric")
    assert sp.dim == 2


def test_space_validates_bounds():
    with pytest.raises(ValueError):
        ParamSpace([1.0], [0.0])
    with pytest.raises(ValueError):
        ParamSpace([0.0, 1.0], [1.0])
    with pytest.raises(ValueError):
        ParamSpace([], [])
    with pytest.raises(ValueError):
        ParamSpace([0.0], [1.0], ("ordinal",))
    with pytest.raises(ValueError):
        ParamSpace([0.0], [1.0], ("numeric", "numeric"))
    for types in ("numeric", ["numeric"] * 2, 7, {"numeric"}):
        with pytest.raises(ValueError, match="^types must be 1 of"):
            ParamSpace([0.0], [1.0], types)
    for types in (None, (), []):
        assert ParamSpace([0.0], [1.0], types).types == ("numeric",)


def test_space_copies_the_bounds_it_snaps():
    lower, upper = np.array([0.5, 0.5]), np.array([2.5, 2.5])
    sp = ParamSpace(lower, upper, ["integer", "factor"])
    assert sp.types == ("integer", "factor")
    assert lower.tolist() == [0.5, 0.5] and upper.tolist() == [2.5, 2.5]


def test_space_snaps_integer_bounds_inward():
    sp = ParamSpace([0.2, -3.0], [4.8, 3.0], ("integer", "numeric"))
    assert sp.lower[0] == 1.0 and sp.upper[0] == 4.0
    assert sp.lower[1] == -3.0 and sp.upper[1] == 3.0


def test_space_rejects_empty_integer_range():
    # no whole number lives in (2.1, 2.9)
    with pytest.raises(ValueError):
        ParamSpace([2.1], [2.9], ("integer",))


def test_snap_rounds_and_clips():
    sp = ParamSpace([1.0, 0.0], [3.0, 1.0], ("integer", "numeric"))
    out = sp.snap(np.array([[2.6, 0.5], [0.2, 2.0], [3.4, -1.0]]))
    assert np.array_equal(out[:, 0], [3.0, 1.0, 3.0])
    assert out[:, 1] == pytest.approx([0.5, 1.0, 0.0])


# ---------------------------------------------------------------------------
# Latin hypercube designs


@given(
    size=st.integers(2, 40),
    dim=st.integers(1, 5),
    seed=st.integers(0, 10_000),
)
def test_lhd_stratifies_every_numeric_dimension(size, dim, seed):
    lower = np.full(dim, -2.0)
    upper = np.full(dim, 3.0)
    sp = ParamSpace(lower, upper)
    x = make_lhd(None, sp, dict(size=size, retries=3, seed=seed))
    assert x.shape == (size, dim)
    assert np.all(x >= lower) and np.all(x <= upper)
    for j in range(dim):
        assert np.all(_bin_counts(x[:, j], -2.0, 3.0, size) == 1)


def test_lhd_snaps_typed_columns():
    sp = ParamSpace([1.0, 0.0, 1.0], [10.0, 1.0, 3.0],
                    ("integer", "numeric", "factor"))
    x = make_lhd(None, sp, dict(size=12, seed=5))
    assert np.array_equal(x[:, 0], np.rint(x[:, 0]))
    assert np.array_equal(x[:, 2], np.rint(x[:, 2]))
    assert set(np.unique(x[:, 2])) <= {1.0, 2.0, 3.0}
    assert np.all((x[:, 0] >= 1) & (x[:, 0] <= 10))


def test_lhd_is_deterministic_under_seed():
    sp = ParamSpace([0.0, 0.0], [1.0, 1.0])
    a = make_lhd(None, sp, dict(size=8, seed=99))
    b = make_lhd(None, sp, dict(size=8, seed=99))
    assert np.array_equal(a, b)


def test_lhd_replicates_rows_in_blocks():
    # the engine replicates the design, each row in its own block
    x = initial_design(
        None, [0.0], [1.0], {"designControl": {"size": 4, "replicates": 3, "seed": 1}}
    )
    assert x.shape == (12, 1)
    for k in range(4):
        block = x[3 * k : 3 * k + 3, 0]
        assert np.all(block == block[0])
    # distinct design points stay distinct across blocks
    assert len(np.unique(x[:, 0])) == 4
    once = make_lhd(None, ParamSpace([0.0], [1.0]), dict(size=4, seed=1))
    assert np.array_equal(x, np.repeat(once, 3, axis=0))


def test_lhd_default_size_is_ten():
    sp = ParamSpace([-1.0], [1.0])
    x = make_lhd(None, sp, dict(seed=0))
    assert x.shape == (10, 1)


def test_lhd_returns_only_new_points():
    sp = ParamSpace([0.0, 0.0], [1.0, 1.0])
    existing = np.array([[0.5, 0.5], [0.1, 0.9]])
    x = make_lhd(existing, sp, dict(size=6, seed=2))
    assert x.shape == (6, 2)


def test_lhd_validates_existing_width():
    # start rows of the wrong width are rejected before any design is drawn
    with pytest.raises(ValueError, match="5 columns"):
        initial_design(
            np.zeros((3, 5)), [0.0, 0.0], [1.0, 1.0],
            {"designControl": {"size": 4, "seed": 0}},
        )


def test_lhd_validates_control():
    sp = ParamSpace([0.0], [1.0])
    with pytest.raises(ValueError):
        make_lhd(None, sp, dict(size=0))
    with pytest.raises(ValueError):
        make_lhd(None, sp, dict(size=3, retries=0))
    with pytest.raises(ValueError, match="replicates"):
        initial_design(
            None, [0.0], [1.0], {"designControl": {"size": 3, "replicates": 0}}
        )


def test_lhd_more_retries_never_hurts_spread():
    # with a shared stream prefix, the best of 50 candidates is at least as
    # spread out as the best of 1 because candidate 1 is identical
    sp = ParamSpace([0.0, 0.0], [1.0, 1.0])

    def min_dist(x):
        diff = x[:, None, :] - x[None, :, :]
        d = np.sqrt((diff**2).sum(axis=2))
        iu = np.triu_indices(x.shape[0], k=1)
        return d[iu].min()

    one = make_lhd(None, sp, dict(size=10, retries=1, seed=7))
    many = make_lhd(None, sp, dict(size=10, retries=50, seed=7))
    assert min_dist(many) >= min_dist(one) - 1e-12


@pytest.mark.parametrize(
    "lower, upper",
    [
        ([0.0], [1.0]),
        ([-5.0, 0.0, 2.0], [15.0, 3.0, 2.0]),
        ([0.0] * 4, [1e-3, 1.0, 1e3, 7.0]),
    ],
)
def test_min_pairwise_distance_matches_pdist(lower, upper):
    # the third dimension of the second case has zero width and keeps scale 1
    sp = ParamSpace(lower, upper)
    x = np.random.default_rng(len(lower)).uniform(sp.lower, sp.upper, (15, sp.dim))
    width = sp.upper - sp.lower
    z = (x - sp.lower) / np.where(width > 0, width, 1.0)
    assert _min_pairwise_distance(x, sp) == pytest.approx(pdist(z).min(), rel=1e-12)
    assert _min_pairwise_distance(x[:1], sp) == np.inf
    # a stack of designs gives one score per design, each bit for bit its
    # own call's
    stack = np.stack([x, (x + sp.lower) / 2.0, np.roll(x, 3, axis=0)])
    scores = _min_pairwise_distance(stack, sp)
    assert scores.shape == (3,)
    for design, score in zip(stack, scores):
        zd = (design - sp.lower) / np.where(width > 0, width, 1.0)
        assert score == pytest.approx(pdist(zd).min(), rel=1e-12)
        assert score == _min_pairwise_distance(design, sp)
    assert np.array_equal(_min_pairwise_distance(stack[:, :1], sp), [np.inf] * 3)


def _lhd_one_candidate_at_a_time(space, size, retries, seed):
    """make_lhd's documented procedure: draw, snap and score each candidate
    in turn and keep the first with the largest smallest distance."""
    rng = np.random.default_rng(seed)
    best, best_score = None, -np.inf
    for _ in range(retries):
        cand = space.snap(sample_lhd(rng, space, size))
        score = _min_pairwise_distance(cand, space)
        if score > best_score:
            best, best_score = cand, score
    return best


_LHD_SPACES = {
    "numeric": ParamSpace([-5.0, 0.0], [10.0, 15.0]),
    "integer": ParamSpace([1.0, 1.0], [100.0, 100.0], ("integer", "integer")),
    "factor": ParamSpace([1.0, 0.0, 1.0], [10.0, 1.0, 3.0], ("integer", "numeric", "factor")),
    "levels": ParamSpace([1.0], [3.0], ("factor",)),
}


@pytest.mark.parametrize("retries", [1, 50])
@pytest.mark.parametrize("size", [1, 2, 5, 12])
@pytest.mark.parametrize("kind", sorted(_LHD_SPACES))
def test_lhd_matches_one_candidate_at_a_time(kind, size, retries):
    # the three-level factor space ties often, so the first maximum matters
    space = _LHD_SPACES[kind]
    for seed in range(3):
        expected = _lhd_one_candidate_at_a_time(space, size, retries, seed)
        got = make_lhd(None, space, dict(size=size, retries=retries, seed=seed))
        assert np.array_equal(got, expected)


def test_lhd_scores_large_designs_in_blocks_of_candidates():
    # 60 points in 5-d are scored three candidates a pass, so 7 retries make
    # blocks 0-2, 3-5 and 6; seeds 0, 1 and 5 pick from the last, the middle
    # and the first
    space = ParamSpace([0.0] * 5, [1.0] * 5)
    for seed in (0, 1, 5):
        expected = _lhd_one_candidate_at_a_time(space, 60, 7, seed)
        assert np.array_equal(make_lhd(None, space, dict(size=60, retries=7, seed=seed)), expected)


def test_cross_dist_on_a_stack_is_each_pair_bit_for_bit():
    rng = np.random.default_rng(11)
    types = ("numeric", "factor", "integer")
    za = np.round(rng.normal(size=(4, 6, 3)), 1)
    zb = np.round(rng.normal(size=(4, 5, 3)), 1)
    stacked = cross_dist(za, zb, types)
    assert stacked.shape == (3, 4, 6, 5)
    for k in range(4):
        assert np.array_equal(stacked[:, k], cross_dist(za[k], zb[k], types))
    # a 2-d point set broadcasts against the stack
    shared = cross_dist(za, zb[0], types)
    for k in range(4):
        assert np.array_equal(shared[:, k], cross_dist(za[k], zb[0], types))


# ---------------------------------------------------------------------------
# uniform designs


def test_uniform_bounds_types_and_shape():
    sp = ParamSpace([-5.0, 0.0], [15.0, 3.0], ("numeric", "integer"))
    x = make_uniform(None, sp, dict(size=25, seed=4))
    assert x.shape == (25, 2)
    assert np.all((x[:, 0] >= -5) & (x[:, 0] <= 15))
    assert np.array_equal(x[:, 1], np.rint(x[:, 1]))


def test_uniform_is_deterministic_under_seed():
    sp = ParamSpace([0.0], [1.0])
    a = make_uniform(None, sp, dict(size=5, seed=8))
    b = make_uniform(None, sp, dict(size=5, seed=8))
    assert np.array_equal(a, b)


def test_uniform_replicates_rows():
    x = initial_design(
        None, [0.0], [1.0],
        {"design": "uniform", "designControl": {"size": 3, "replicates": 2, "seed": 1}},
    )
    assert x.shape == (6, 1)
    assert np.array_equal(x[0], x[1])
    assert np.array_equal(x[2], x[3])
    once = make_uniform(None, ParamSpace([0.0], [1.0]), dict(size=3, seed=1))
    assert np.array_equal(x, np.repeat(once, 2, axis=0))


def test_uniform_spreads_differently_from_lhd():
    # same seed, different generators: uniform draws need not stratify
    sp = ParamSpace([0.0], [1.0])
    u = make_uniform(None, sp, dict(size=12, seed=21))
    assert not np.all(_bin_counts(u[:, 0], 0.0, 1.0, 12) == 1)


# ---------------------------------------------------------------------------
# counts: one rule for every component and for the engine


_X = np.random.default_rng(0).uniform(-1.0, 1.0, (8, 2))
_Y = np.sum(_X**2, axis=1, keepdims=True)
_BOX = ParamSpace([-1.0, -1.0], [1.0, 1.0])


def _sphere(x):
    return np.sum(x**2, axis=1, keepdims=True)


def _noisy(x, seed=None):
    return _sphere(x) + 0.1 * np.random.default_rng(seed).standard_normal((x.shape[0], 1))


def _initial_rows(value):
    # a config whose section changed after its checks reaches _initial_rows
    cfg = SpotConfig(designControl={"size": 3, "seed": 0})
    cfg.designControl["replicates"] = value
    return initial_design(None, [-1, -1], [1, 1], cfg)


def _engine_design(key):
    return lambda v: initial_design(
        None, [-1, -1], [1, 1], {"designControl": {"size": 3, "seed": 0, key: v}})


def _engine_model(key, model):
    def fit(v):
        ctl = {"ntree": 5, "members": ("forest",), key: v}
        return fit_surrogate(_X, _Y, {"model": model, "modelControl": ctl}, 0).predict(_X)
    return fit


def _engine_run(settings):
    def run(v):
        cfg = {"funEvals": 6, "designControl": {"size": 2, "seed": 0},
               "model": "forest", "modelControl": {"ntree": 5}, **settings(v)}
        fun = _noisy if cfg.get("noise") else _sphere
        return spot(None, fun, [-1, -1], [1, 1], cfg).y
    return run


# (entry point, the name its messages use, its least, the engine's
# _INT_KEYS entry for the same count); a component case also accepts its
# least, which pins the table's minimum to the one the component enforces
_COUNTS = [
    pytest.param(lambda v: make_lhd(None, _BOX, {"size": v, "seed": 0}),
                 "size", 1, ("designControl", "size"), id="make_lhd-size"),
    pytest.param(lambda v: make_lhd(None, _BOX, {"size": 4, "retries": v, "seed": 0}),
                 "retries", 1, ("designControl", "retries"), id="make_lhd-retries"),
    pytest.param(lambda v: make_uniform(None, _BOX, {"size": v, "seed": 0}),
                 "size", 1, ("designControl", "size"), id="make_uniform-size"),
    pytest.param(_initial_rows, "designControl replicates", 1,
                 ("designControl", "replicates"), id="_initial_rows-replicates"),
    pytest.param(lambda v: optim_lhd(None, _sphere, [-1, -1], [1, 1],
                                     {"funEvals": v, "seed": 0}).y,
                 "funEvals", 1, ("optimizerControl", "funEvals"), id="optim_lhd-funEvals"),
    pytest.param(lambda v: optim_local_bounded(None, _sphere, [-1, -1], [1, 1],
                                               {"funEvals": v}).y,
                 "funEvals", 1, ("optimizerControl", "funEvals"),
                 id="optim_local_bounded-funEvals"),
    pytest.param(lambda v: fit_forest(_X, _Y, {"ntree": v, "seed": 0}).predict(_X),
                 "ntree", 1, ("modelControl", "ntree"), id="fit_forest-ntree"),
    pytest.param(lambda v: fit_forest(_X, _Y, {"ntree": 5, "mtry": v, "seed": 0}).predict(_X),
                 "mtry", 1, ("modelControl", "mtry"), id="fit_forest-mtry"),
    pytest.param(lambda v: fit_forest(_X, _Y, {"ntree": 5, "min_node_size": v,
                                               "seed": 0}).predict(_X),
                 "min_node_size", 1, ("modelControl", "min_node_size"),
                 id="fit_forest-min_node_size"),
    pytest.param(lambda v: fit_kriging(_X, _Y, {"budget": v, "seed": 0}).predict(_X),
                 "budget", 1, ("modelControl", "budget"), id="fit_kriging-budget"),
    pytest.param(lambda v: stack_min_rows(_X, {"folds": v}),
                 "stack folds", 2, ("modelControl", "folds"), id="stack.min_rows-folds"),
    *[pytest.param(_engine_design(key), f"designControl {key}", 1, None,
                   id=f"SpotConfig-designControl-{key}")
      for key in ("size", "replicates", "retries")],
    *[pytest.param(_engine_model(key, model), f"modelControl {key}", least, None,
                   id=f"SpotConfig-modelControl-{key}")
      for key, model, least in (("ntree", "forest", 1), ("mtry", "forest", 1),
                                ("min_node_size", "forest", 1), ("folds", "stack", 2),
                                ("budget", "kriging", 1))],
    pytest.param(_engine_run(lambda v: {"optimizerControl": {"funEvals": v}}),
                 "optimizerControl funEvals", 1, None, id="SpotConfig-optimizerControl-funEvals"),
    pytest.param(_engine_run(lambda v: {"funEvals": v}), "funEvals", 1, None,
                 id="SpotConfig-funEvals"),
    pytest.param(_engine_run(lambda v: {"replicates": v, "funEvals": 8}), "replicates", 1, None,
                 id="SpotConfig-replicates"),
    pytest.param(_engine_run(lambda v: {
        "OCBAbudget": v, "funEvals": 10, "noise": True, "OCBA": True, "seedFun": 1,
        "designControl": {"size": 2, "replicates": 2, "seed": 0}}),
                 "OCBAbudget", 0, None, id="SpotConfig-OCBAbudget"),
]


@pytest.mark.parametrize("call, name, least, table", _COUNTS)
def test_every_count_is_an_integer_of_at_least_its_least(call, name, least, table):
    # components called from Python used to truncate: ntree 2.7 grew 2
    # trees, True grew 1, and size 3.9 gave 3 rows
    for bad in (2.7, 3.0, True, "3"):
        with pytest.raises(ValueError, match=f"^{name} must be an integer, got"):
            call(bad)
    with pytest.raises(ValueError, match=f"^{name} must be at least {least}, got"):
        call(least - 1)
    np.testing.assert_array_equal(call(np.int64(3)), call(3))
    if table is not None:
        call(least)
        section, key = table
        assert _INT_KEYS[section][key] == least


def test_every_count_of_the_engine_has_a_component_case():
    covered = {p.values[3] for p in _COUNTS if p.values[3] is not None}
    assert covered == {(s, k) for s, keys in _INT_KEYS.items() for k in keys}


# ---------------------------------------------------------------------------
# training rows and query points: one rule for every model and the engine


_FIT_CTL = {"budget": 10, "ntree": 5, "seed": 0}

# (fitter, the fewest rows it fits)
_FITTERS = [
    pytest.param(fit_kriging, 2, id="kriging"),
    pytest.param(fit_forest, 1, id="forest"),
    pytest.param(fit_rsm, 1, id="rsm"),
    pytest.param(fit_stack, 5, id="stack"),
]


@pytest.mark.parametrize("fitter, least", _FITTERS)
def test_every_fitter_rejects_bad_training_rows_alike(fitter, least):
    y_nan, x_inf = _Y.copy(), _X.copy()
    y_nan[3, 0], x_inf[5, 1] = np.nan, np.inf
    with pytest.raises(ValueError, match=r"^X and y row counts differ: 8 and 7$"):
        fitter(_X, _Y[:7], _FIT_CTL)
    for X, y in ((_X, y_nan), (x_inf, _Y)):
        with pytest.raises(ValueError, match=r"^non-finite values in X or y$"):
            fitter(X, y, _FIT_CTL)
    few = f"^need at least {least} training points, got {least - 1}$"
    with pytest.raises(ValueError, match=few):
        fitter(_X[:least - 1], _Y[:least - 1], _FIT_CTL)


def test_fit_stack_checks_its_rows_before_any_member():
    calls = []

    def recorder(X, y, control):
        calls.append(X.shape[0])
        return SimpleNamespace(predict=lambda q: np.zeros(len(q)))

    ctl = {"members": [recorder], "seed": 0}
    y_nan = _Y.copy()
    y_nan[0, 0] = np.nan
    # a member that ignores y used to be fitted six times on a NaN y and
    # weighted 1; a short y failed inside the member's folds
    for X, y in ((_X, y_nan), (_X, _Y[:7]), (_X[:4], _Y[:4])):
        with pytest.raises(ValueError, match="^(non-finite|X and y|need at least)"):
            fit_stack(X, y, ctl)
    assert calls == []
    fit_stack(_X, _Y, ctl)
    assert len(calls) == 6


def _fitted(fitter):
    return fitter(_X, _Y, _FIT_CTL)


# (call on points q, the name its message gives q); every case expects 2 columns
_QUERIES = [
    pytest.param(lambda: _fitted(fit_kriging).predict, "x", id="kriging"),
    pytest.param(lambda: _fitted(fit_forest).predict, "x", id="forest"),
    pytest.param(lambda: _fitted(fit_rsm).predict, "x", id="rsm-predict"),
    pytest.param(lambda: _fitted(fit_rsm).decode, "z", id="rsm-decode"),
    pytest.param(lambda: _fitted(fit_stack).predict, "x", id="stack"),
    pytest.param(lambda: lambda q: spot_loop(q, np.zeros(len(q)), _sphere, [-1, -1], [1, 1]),
                 "x", id="spot_loop-x"),
    pytest.param(lambda: lambda q: initial_design(q, [-1, -1], [1, 1]),
                 "start rows x", id="initial_design-x"),
    pytest.param(lambda: lambda q: initial_design(
        None, [-1, -1], [1, 1], {"design": lambda x, space, ctl: q}),
                 "the design", id="initial_design-design"),
]


@pytest.mark.parametrize("make, what", _QUERIES)
def test_every_query_of_the_wrong_width_names_both_widths(make, what):
    call = make()
    for k in (1, 3):
        with pytest.raises(ValueError, match=f"^{what} has {k} columns, expected 2$"):
            call(np.zeros((4, k)))


# ---------------------------------------------------------------------------
# type tags: one rule for the space, Kriging, the searches, the engine and
# the command line


@pytest.mark.parametrize("types, run_line", [
    pytest.param("factor", None, id="string"),
    pytest.param(("numeric",), "numeric", id="short"),
    pytest.param(("numeric", "bogus"), "numeric, bogus", id="unknown-name"),
])
def test_every_part_reads_types_alike(types, run_line, tmp_path, capsys):
    # Kriging used to split a string into its letters and fit an unknown
    # name as numeric
    message = f"types must be 2 of {VALID_TYPES}, got {types!r}"
    calls = [
        lambda: ParamSpace([-1.0, -1.0], [1.0, 1.0], types),
        lambda: fit_kriging(_X, _Y, {"types": types, "budget": 10}),
        lambda: optim_lhd(None, _sphere, [-1.0, -1.0], [1.0, 1.0], {"types": types}),
        lambda: spot(None, _sphere, [-1.0, -1.0], [1.0, 1.0], {"types": types}),
    ]
    for call in calls:
        with pytest.raises(ValueError) as err:
            call()
        assert str(err.value) == message
    if run_line is not None:
        path = tmp_path / "run.cfg"
        path.write_text(
            f"[run]\nfun = sphere\nlower = -1, -1\nupper = 1, 1\ntypes = {run_line}\n"
        )
        assert main(["tune", "--config", str(path), "--out", str(tmp_path / "b")]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
