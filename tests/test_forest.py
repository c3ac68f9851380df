"""Random-forest surrogate: split quality, hull bounds, reproducibility.

The split oracle below enumerates every (feature, threshold) pair by brute
force and compares achieved error reduction, so it is independent of the
cumulative-sum implementation inside the package.  The growth oracle is the
recursive grower that the package used before its trees grew in lockstep:
one `_best_split` and one `grow_tree` call per node, on the node's own rows,
and one row of candidate features per node that can split.  Every tree of a
fit, read as linked nodes through `ForestFit.trees`, must equal it bit for
bit when fed the draws that `fit_forest` documents, recomputed here with
numpy's Generator: the bootstrap samples, then one block of uniform keys per
tree, each row's features ordered by key in plain Python.  (The two growers
differ only where the midpoint of two neighbouring values rounds up to the
upper one or overflows: there the oracle recurses forever, and no data
compared with it make such pairs.)  The same oracle checks the trees where
the grower's integer-key sorts meet signed zeros, subnormals, +-1e308,
heavy ties and node widths on both sides of a power of two.  Two tests
read a fit's draws, stopping it before its trees grow, and pin them
against a fresh Generator across seeds, row counts and feature counts: the
keys are the stream of one `random(d)` call per node, and the fit makes
one `default_rng(seed)` and no other.  The prediction oracle sends whole
batches down each linked tree by recursive boolean-mask partitions and
adds the trees' values in tree order from 0.0; the package walks every
(tree, row) pair through its node arrays at once, so the two must agree
bit for bit.  The out-of-bag oracle walks each
linked tree one row at a time and sums, in tree order from 0.0, the trees
whose bootstrap, redrawn from the seed, left the row out.
"""

import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqtune import forest
from seqtune.forest import ForestFit, _Node, fit_forest, grow_trees


def _best_split(x: np.ndarray, y: np.ndarray, features: np.ndarray, min_leaf: int):
    """Exhaustive search over midpoint thresholds for the given features.

    Returns (feature, threshold) or None.  Targets are centered first so a
    constant node never splits on rounding noise.
    """
    n = y.shape[0]
    yc = y - y.mean()
    parent_sse = float(yc @ yc)
    best_gain, best = 1e-12 * parent_sse, None
    for f in features:
        order = np.argsort(x[:, f], kind="stable")
        xs, ys = x[order, f], yc[order]
        s1 = np.cumsum(ys)
        s2 = np.cumsum(ys**2)
        total1, total2 = s1[-1], s2[-1]
        # split after position i puts i+1 samples on the left
        sizes = np.arange(1, n)
        left_sse = s2[:-1] - s1[:-1] ** 2 / sizes
        right_n = n - sizes
        right_sse = (total2 - s2[:-1]) - (total1 - s1[:-1]) ** 2 / right_n
        gain = parent_sse - (left_sse + right_sse)
        valid = (
            (sizes >= min_leaf)
            & (right_n >= min_leaf)
            & (xs[1:] > xs[:-1])
        )
        if not np.any(valid):
            continue
        gain = np.where(valid, gain, -np.inf)
        i = int(np.argmax(gain))
        if gain[i] > best_gain:
            best_gain = gain[i]
            best = (int(f), float((xs[i] + xs[i + 1]) / 2.0))
    return best


def grow_tree(x: np.ndarray, y: np.ndarray, min_node_size: int, draw) -> _Node:
    """Recursively grow one regression tree on the given sample.

    `draw()` gives the candidate features of each node that can split, in
    depth-first order, left child first.
    """
    n = y.shape[0]
    if n < 2 * min_node_size or n < 2 or np.all(y == y[0]):
        return _Node(value=float(y.mean()))
    split = _best_split(x, y, draw(), min_node_size)
    if split is None:
        return _Node(value=float(y.mean()))
    f, thr = split
    mask = x[:, f] <= thr
    return _Node(
        feature=f,
        threshold=thr,
        left=grow_tree(x[mask], y[mask], min_node_size, draw),
        right=grow_tree(x[~mask], y[~mask], min_node_size, draw),
    )


def _node_features(keys, k):
    """Each key row's k columns of smallest key, in key order, ties by column."""
    rows = [[sorted(range(len(row)), key=lambda j: (row[j], j))[:k] for row in block]
            for block in keys.tolist()]
    return np.array(rows, dtype=np.intp).reshape(*keys.shape[:2], k)


def _documented_draws(seed, ntree, n, d, mtry, min_node_size):
    """The bootstrap samples and node features that `fit_forest` draws."""
    rng = np.random.default_rng(seed)
    samples = rng.integers(0, n, size=(ntree, n))
    keys = rng.random((ntree, forest.feature_draws(n, min_node_size), d))
    return samples, _node_features(keys, min(mtry, d))


class _Draws:
    """The rows of one tree's node features, handed out in order and counted."""

    def __init__(self, rows):
        self.rows, self.calls = rows, 0

    def __call__(self):
        self.calls += 1
        return self.rows[self.calls - 1]


def _grow_one(x, y, mtry, min_node_size, rng):
    """The package's grower on all rows of (x, y), as a single linked tree.

    Its node features are drawn from `rng` as `fit_forest` draws them after
    the bootstrap: a block of `forest.feature_draws` rows of keys.
    """
    d = x.shape[1]
    keys = rng.random((1, forest.feature_draws(x.shape[0], min_node_size), d))
    features = forest.row_per_node(_node_features(keys, min(mtry, d)))
    arrays = grow_trees(x, y, [np.arange(len(y))], min_node_size, features)
    return ForestFit(*arrays, ntree=1, mtry=min(mtry, d), min_node_size=min_node_size,
                     n_features=d).trees[0]


def _shape(node):
    """A tree as nested tuples: feature and float64 bytes of each number."""
    if node.left is None:
        return np.float64(node.value).tobytes()
    return (node.feature, np.float64(node.threshold).tobytes(),
            _shape(node.left), _shape(node.right))


def _sse(v):
    v = np.asarray(v, dtype=float)
    return float(((v - v.mean()) ** 2).sum()) if v.size else 0.0


def _best_gain_bruteforce(x, y, min_leaf):
    """Largest SSE reduction over all features and all midpoint thresholds."""
    best = 0.0
    parent = _sse(y)
    for f in range(x.shape[1]):
        xs = np.unique(x[:, f])
        for a, b in zip(xs[:-1], xs[1:]):
            thr = (a + b) / 2.0
            mask = x[:, f] <= thr
            if mask.sum() < min_leaf or (~mask).sum() < min_leaf:
                continue
            gain = parent - _sse(y[mask]) - _sse(y[~mask])
            best = max(best, gain)
    return best


def _tree_apply(node, x, rows, out):
    """Write each row's leaf value of the tree at `node` into `out[rows]`."""
    if node.left is None:
        out[rows] = node.value
        return
    mask = x[rows, node.feature] <= node.threshold
    if mask.any():
        _tree_apply(node.left, x, rows[mask], out)
    if not mask.all():
        _tree_apply(node.right, x, rows[~mask], out)


def _reference_predict(fit, x):
    acc = np.zeros(x.shape[0])
    scratch = np.empty(x.shape[0])
    rows = np.arange(x.shape[0])
    for tree in fit.trees:
        _tree_apply(tree, x, rows, scratch)
        acc += scratch
    return (acc / len(fit.trees)).reshape(-1, 1)


def _splits(node):
    if node.left is None:
        return []
    return [(node.feature, node.threshold), *_splits(node.left), *_splits(node.right)]


def _depth(node):
    return 0 if node.left is None else 1 + max(_depth(node.left), _depth(node.right))


def _single_tree_fit(tree, n_features):
    """A one-tree fit holding the linked tree `tree` as node arrays."""
    nodes, feature, threshold, left = [tree], [], [], []
    for i, node in enumerate(nodes):  # breadth first, siblings side by side
        if node.left is None:  # a leaf is its own child and sends every row left
            feature.append(0)
            threshold.append(np.inf)
            left.append(i)
        else:
            feature.append(node.feature)
            threshold.append(node.threshold)
            left.append(len(nodes))
            nodes += [node.left, node.right]
    return ForestFit(
        feature=np.array([feature], dtype=np.int32),
        threshold=np.array([threshold]),
        left=np.array([left], dtype=np.int32),
        value=np.array([[node.value for node in nodes]]),
        depth=_depth(tree), ntree=1, mtry=n_features, min_node_size=1,
        n_features=n_features,
    )


# ---------------------------------------------------------------------------
# tree growth


def test_step_data_splits_between_the_levels():
    x = np.array([[0.0], [1.0], [2.0], [3.0]])
    y = np.array([0.0, 0.0, 10.0, 10.0])
    tree = _grow_one(x, y, mtry=1, min_node_size=1,
                     rng=np.random.default_rng(0))
    assert tree.left is not None
    assert tree.feature == 0
    assert 1.0 < tree.threshold < 2.0
    pred = _single_tree_fit(tree, 1).predict(x)[:, 0]
    assert pred == pytest.approx(y)
    # a query on the threshold itself goes left
    tie = _single_tree_fit(tree, 1).predict([[tree.threshold]])
    assert tie.item() == tree.left.value


def test_root_split_achieves_bruteforce_best_gain():
    rng = np.random.default_rng(42)
    for _ in range(5):
        x = rng.uniform(-1, 1, size=(14, 2))
        y = np.where(x[:, 0] + 0.3 * x[:, 1] > 0, 5.0, -5.0) + rng.normal(
            0, 0.2, 14
        )
        # all features offered, so the root split must be globally optimal
        tree = _grow_one(x, y, mtry=2, min_node_size=1, rng=np.random.default_rng(1))
        assert tree.left is not None
        mask = x[:, tree.feature] <= tree.threshold
        gain = _sse(y) - _sse(y[mask]) - _sse(y[~mask])
        assert gain == pytest.approx(_best_gain_bruteforce(x, y, 1), rel=1e-9)


def test_constant_targets_grow_a_leaf():
    x = np.arange(10, dtype=float).reshape(-1, 1)
    tree = _grow_one(x, np.full(10, 2.5), mtry=1, min_node_size=1,
                     rng=np.random.default_rng(0))
    assert tree.left is None
    assert tree.value == 2.5


def test_small_nodes_stop_splitting():
    x = np.array([[0.0], [1.0], [2.0], [3.0]])
    y = np.array([0.0, 0.0, 10.0, 10.0])
    # 2*min_node_size exceeds n, so no split is allowed at all
    tree = _grow_one(x, y, mtry=1, min_node_size=3, rng=np.random.default_rng(0))
    assert tree.left is None
    assert tree.value == pytest.approx(5.0)


def test_neighbouring_doubles_split_between_them():
    # their midpoint rounds up to the upper value; taken as the threshold it
    # would send every row left and the node would split forever
    lo = 1.0 + np.finfo(float).eps
    hi = np.nextafter(lo, 2.0)
    x = np.array([[lo], [hi]] * 3)
    y = np.array([0.0, 1.0] * 3)
    assert (lo + hi) / 2.0 == hi
    tree = _grow_one(x, y, mtry=1, min_node_size=1, rng=np.random.default_rng(0))
    assert tree.threshold == lo
    assert (tree.left.value, tree.right.value) == (0.0, 1.0)


@pytest.mark.parametrize("min_node_size", [1, 2, 3])
@pytest.mark.parametrize("leaves_draw", [False, True])
def test_a_chain_of_splits_reaches_the_growers_bounds(leaves_draw, min_node_size):
    # y grows so fast that every split cuts off the highest x level, so the
    # depth-first stack holds one pending right child per level.  With
    # min_node_size rows per level the deepest split leaves n // min_node_size
    # nodes on the stack; with twice that many rows of two targets, every
    # leaf draws features and fails to split, so the tree makes
    # n // min_node_size - 1 draws.  The grower's stack and fit_forest's
    # feature buffer have those sizes, with one feature drawn per node and,
    # beside a constant second column, with two.  With min_node_size rows
    # per level the tree has n // min_node_size leaves, so its nodes fill
    # the grower's node arrays.
    levels = 16
    per_level = min_node_size * (2 if leaves_draw else 1)
    x = np.repeat(np.arange(levels, dtype=float), per_level)
    y = 4.0**x + (np.arange(x.size) % 2 if leaves_draw else 0)
    for x in (x.reshape(-1, 1), np.column_stack([x, np.zeros_like(x)])):
        d = x.shape[1]
        keys = np.random.default_rng(0).random(
            (1, forest.feature_draws(x.shape[0], min_node_size), d))
        draws = _Draws(_node_features(keys, d)[0])
        oracle = grow_tree(x, y, min_node_size, draws)
        tree = _grow_one(x, y, mtry=d, min_node_size=min_node_size,
                         rng=np.random.default_rng(0))
        assert _shape(tree) == _shape(oracle)
        assert _depth(tree) == levels - 1
        if leaves_draw:
            assert draws.calls == x.shape[0] // min_node_size - 1
            assert forest.feature_draws(x.shape[0], min_node_size) == draws.calls
        else:
            features = forest.row_per_node(_node_features(keys, d))
            arrays = grow_trees(x, y, [np.arange(len(y))], min_node_size, features)
            width = 2 * (x.shape[0] // min_node_size) - 1
            assert [a.shape for a in arrays[:4]] == [(1, width)] * 4


def test_fewer_rows_than_the_minimum_node_size_grow_a_single_leaf():
    X = np.array([[0.0], [1.0], [2.0]])
    fit = fit_forest(X, np.array([0.0, 1.0, 5.0]),
                     {"ntree": 4, "min_node_size": 5, "seed": 0})
    assert fit.left.shape == (4, 1) and fit.depth == 0
    assert (fit.left == 0).all() and (fit.threshold == np.inf).all()


@settings(max_examples=150)
@given(
    n=st.integers(1, 60),
    d=st.integers(1, 5),
    mtry=st.integers(1, 5),
    min_node_size=st.integers(1, 6),
    ntree=st.integers(1, 8),
    x_levels=st.sampled_from([2, 5, 1000]),
    y_levels=st.sampled_from([1, 2, 3, 0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_every_tree_equals_the_recursive_oracle_bit_for_bit(
    n, d, mtry, min_node_size, ntree, x_levels, y_levels, seed
):
    # few x levels make ties; few y levels, inexact multiples of 0.1, make
    # constant nodes and gains that are rounding noise (0 = continuous)
    rng = np.random.default_rng(seed)
    X = rng.integers(0, x_levels, size=(n, d)) / x_levels
    y = rng.integers(0, y_levels, size=n) * 0.1 if y_levels else rng.normal(0, 3, n)
    # mtry above d is allowed; both growers then offer all d features
    fit = fit_forest(X, y, {"ntree": ntree, "mtry": mtry,
                            "min_node_size": min_node_size, "seed": seed})
    assert len(fit.trees) == ntree
    samples, drawn = _documented_draws(seed, ntree, n, d, mtry, min_node_size)
    for tree, idx, rows in zip(fit.trees, samples, drawn):
        oracle = grow_tree(X[idx], y[idx], min_node_size, _Draws(rows))
        assert _shape(tree) == _shape(oracle)


# a signed zero of each sign, the largest magnitudes and subnormals; no
# two are neighbouring doubles and no two of one sign overflow when added,
# so the oracle's midpoints are the package's
_EXTREMES = np.array([-1e308, -1.0, -3e-310, -0.0, 0.0, 2e-310, 5e-310, 1.0, 1e308])


@pytest.mark.parametrize("n", [63, 64, 65, 127, 128, 129, 300])
@pytest.mark.parametrize("data", ["extremes", "ties"])
def test_the_key_sorts_keep_every_tree_equal_to_the_oracle(n, data):
    # the split search and the partition sort integer keys, a value's rank
    # above its position in the node: -0.0 and 0.0 share a rank, subnormals
    # and +-1e308 rank like any value, and these row counts put node widths
    # on both sides of the powers of two that set the position's bits
    rng = np.random.default_rng(n)
    if data == "extremes":
        X = rng.choice(_EXTREMES, size=(n, 3))
        y = rng.normal(0, 3, n)
    else:
        X = rng.integers(0, 2, size=(n, 3)) * 0.5
        y = rng.integers(0, 3, n) * 0.1
    for min_node_size in (1, 3):
        control = {"ntree": 3, "mtry": 2, "min_node_size": min_node_size, "seed": n}
        fit = fit_forest(X, y, control)
        samples, drawn = _documented_draws(n, 3, n, 3, 2, min_node_size)
        depths = []
        for tree, idx, rows in zip(fit.trees, samples, drawn):
            oracle = grow_tree(X[idx], y[idx], min_node_size, _Draws(rows))
            assert _shape(tree) == _shape(oracle)
            depths.append(_depth(oracle))
        assert fit.depth == max(depths) > 0


class _Drawn(Exception):
    """Raised in place of growing the trees, once a fit has made its draws."""


@pytest.fixture
def fit_draws(monkeypatch):
    """`fit_forest(X, y, control)`'s bootstrap samples and node features.

    The fit stops where its trees would start to grow, after every draw.
    """
    made, rows = [], forest.row_per_node

    def reading(drawn):
        made.append([None, drawn.copy()])
        return rows(drawn)

    def stopping(X, y, samples, min_node_size, features):
        made[-1][0] = np.array(samples)
        raise _Drawn

    monkeypatch.setattr(forest, "row_per_node", reading)
    monkeypatch.setattr(forest, "grow_trees", stopping)

    def draws(X, y, control):
        with pytest.raises(_Drawn):
            fit_forest(X, y, control)
        return made.pop()
    return draws


@pytest.mark.parametrize("d", range(1, 65))
def test_one_integers_call_is_the_stream_of_one_choice_per_node(d, fit_draws):
    # the name predates the one-generator fit; what it pins: the fit draws
    # every node's keys after the bootstrap, in blocks of trees, and that
    # is the stream of one random(d) call per node, each node choosing its
    # k features of smallest key, ties by column
    n, ntree = 37, 3
    X = np.tile(np.arange(n, dtype=float)[:, None], (1, d))
    for seed in range(3):
        for k in sorted({1, min(d, 3)}):
            samples, drawn = fit_draws(X, X[:, 0], {"ntree": ntree, "mtry": k,
                                                    "min_node_size": 1, "seed": seed})
            per_node = np.random.Generator(np.random.PCG64(seed))
            assert samples.tolist() == per_node.integers(0, n, size=(ntree, n)).tolist()
            expected = [[sorted(range(d), key=lambda j: (keys[j], j))[:k]
                         for keys in (per_node.random(d).tolist()
                                      for _ in range(forest.feature_draws(n, 1)))]
                        for _ in range(ntree)]
            assert drawn.tolist() == expected
            assert all(len(set(row)) == k for tree in expected for row in tree)


# the ends of each 32-bit seed word, and the largest 63-bit seed
_PINNED_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**63 - 2]


@pytest.mark.parametrize("n", range(1, 65))
def test_vectorized_draws_are_the_stream_of_default_rng(n, fit_draws, generators):
    # the name predates the one-generator fit; what it pins: every tree's
    # bootstrap in one call, then every tree's node keys, all on the fit's
    # one default_rng(seed); n = 1 draws no keys, and an odd n
    # leaves half of the bootstrap's last 64-bit word unused
    spread = np.random.SeedSequence(n).generate_state(3, np.uint64) >> np.uint64(1)
    for seed in _PINNED_SEEDS + spread.tolist():
        for d in (1, 3):
            X = np.random.Generator(np.random.PCG64(n)).uniform(size=(n, d))
            for mtry, min_node_size in ((1, 1), (d, 3)):
                generators.clear()
                samples, drawn = fit_draws(X, X.sum(axis=1), {
                    "ntree": 2, "mtry": mtry, "min_node_size": min_node_size,
                    "seed": seed})
                assert generators == [seed]
                rng = np.random.Generator(np.random.PCG64(seed))  # default_rng(seed)
                assert samples.tolist() == rng.integers(0, n, size=(2, n)).tolist()
                keys = rng.random((2, forest.feature_draws(n, min_node_size), d))
                assert drawn.tolist() == _node_features(keys, mtry).tolist()


def test_keys_drawn_in_blocks_are_the_one_call_stream(fit_draws):
    # 500 trees of 200 rows in 20 dimensions take several blocks of keys
    X = np.random.default_rng(2).uniform(size=(200, 20))
    samples, drawn = fit_draws(X, X[:, 0], {"min_node_size": 1, "mtry": 2, "seed": 9})
    rng = np.random.default_rng(9)
    rng.integers(0, 200, size=(500, 200))
    keys = rng.random((500, forest.feature_draws(200, 1), 20))
    assert drawn.shape[0] * drawn.shape[1] * 20 > forest._KEY_DOUBLES
    assert np.array_equal(drawn, np.argsort(keys, axis=2, kind="stable")[:, :, :2])


def test_the_draws_of_a_wide_fit_stay_small(monkeypatch):
    # the keys of 500 trees of 200 rows in 20 dimensions, drawn at once,
    # were 31 MB with their argsort; a block at a time, the draws hold the
    # bootstrap (0.8 MB), the (500, 199, 6) int32 features (2.4 MB) and
    # one block of keys and its argsort (1 MB)
    def stopping(X, y, samples, min_node_size, features):
        raise _Drawn(tracemalloc.get_traced_memory()[1])

    X = np.random.default_rng(3).uniform(size=(200, 20))
    monkeypatch.setattr(forest, "grow_trees", stopping)
    tracemalloc.start()
    try:
        with pytest.raises(_Drawn) as drawn:
            fit_forest(X, X.sum(axis=1), {"min_node_size": 1, "seed": 1})
    finally:
        tracemalloc.stop()
    assert drawn.value.args[0] <= 6 * 2**20


# ---------------------------------------------------------------------------
# forest fitting


def test_single_row_predicts_its_own_target():
    fit = fit_forest([[1.0, 2.0]], [7.5], {"ntree": 10, "seed": 0})
    assert fit.predict([[0.0, 0.0]]).item() == 7.5


def test_constant_targets_predict_the_constant():
    rng = np.random.default_rng(1)
    X = rng.uniform(0, 1, size=(20, 3))
    fit = fit_forest(X, np.full(20, -3.0), {"ntree": 30, "seed": 2})
    assert np.all(fit.predict(rng.uniform(0, 1, size=(10, 3))) == -3.0)


@given(seed=st.integers(0, 1000))
def test_predictions_stay_inside_the_target_range(seed):
    rng = np.random.default_rng(seed)
    X = rng.uniform(-5, 5, size=(25, 2))
    y = rng.normal(0, 10, 25)
    fit = fit_forest(X, y, {"ntree": 15, "seed": seed})
    pred = fit.predict(rng.uniform(-8, 8, size=(30, 2)))[:, 0]
    assert np.all(pred >= y.min() - 1e-12)
    assert np.all(pred <= y.max() + 1e-12)


def test_fit_is_deterministic_under_seed():
    rng = np.random.default_rng(3)
    X = rng.uniform(0, 1, size=(30, 2))
    y = np.sin(5 * X[:, 0]) + X[:, 1]
    xq = rng.uniform(0, 1, size=(10, 2))
    a = fit_forest(X, y, {"ntree": 40, "seed": 11})
    b = fit_forest(X, y, {"ntree": 40, "seed": 11})
    c = fit_forest(X, y, {"ntree": 40, "seed": 12})
    assert np.array_equal(a.predict(xq), b.predict(xq))
    assert not np.array_equal(a.predict(xq), c.predict(xq))


def test_forest_averages_its_trees():
    rng = np.random.default_rng(5)
    X = rng.uniform(0, 1, size=(15, 1))
    y = X[:, 0] ** 2
    fit = fit_forest(X, y, {"ntree": 7, "seed": 4, "min_node_size": 1})
    xq = rng.uniform(0, 1, size=(6, 1))
    per_tree = np.column_stack(
        [
            _single_tree_fit(t, 1).predict(xq)[:, 0]
            for t in fit.trees
        ]
    )
    assert fit.predict(xq)[:, 0] == pytest.approx(per_tree.mean(axis=1))


@pytest.mark.parametrize("rows", [0, 1, 100, 1000, 1681])
def test_predict_matches_the_partition_reference_bit_for_bit(rows):
    rng = np.random.default_rng(9)
    X = rng.uniform(-2, 3, size=(30, 3))
    y = np.sin(2 * X[:, 0]) * X[:, 1] + X[:, 2] ** 2
    fit = fit_forest(X, y, {"ntree": 60, "seed": 10, "min_node_size": 2})
    xq = rng.uniform(-3, 4, size=(rows, 3))
    # put two coordinates of every other row exactly on split thresholds
    splits = [s for tree in fit.trees for s in _splits(tree)]
    for i in range(0, rows, 2):
        for f, thr in (splits[j] for j in rng.integers(len(splits), size=2)):
            xq[i, f] = thr
    pred = fit.predict(xq)
    assert pred.shape == (rows, 1)
    assert pred.tobytes() == _reference_predict(fit, xq).tobytes()
    # a row alone is summed over the trees in the same order
    for i in range(min(rows, 20)):
        assert fit.predict(xq[i:i + 1]).tobytes() == pred[i:i + 1].tobytes()


def _leaf_value(node, row):
    """The value of the leaf of the linked tree at `node` that `row` reaches."""
    while node.left is not None:
        node = node.left if row[node.feature] <= node.threshold else node.right
    return node.value


@pytest.mark.parametrize("n, ntree", [(30, 1), (30, 7), (50, 500)])
def test_fold_predictions_are_the_out_of_bag_sums_bit_for_bit(n, ntree):
    # 500 trees take several chunks of rows; one tree leaves most rows
    # inside every bootstrap, and those get the whole forest's prediction
    rng = np.random.default_rng(n + ntree)
    X = rng.uniform(-2, 3, size=(n, 3))
    y = np.sin(2 * X[:, 0]) * X[:, 1] + X[:, 2] ** 2
    fit = fit_forest(X, y, {"ntree": ntree, "seed": 12, "min_node_size": 2})
    samples = np.random.default_rng(12).integers(0, n, size=(ntree, n))
    want, in_every_bag = [], 0
    for i, row in enumerate(X.tolist()):
        held_out = [tree for tree, idx in zip(fit.trees, samples) if i not in idx]
        if held_out:
            total = 0.0
            for tree in held_out:
                total += _leaf_value(tree, row)
            want.append(total / len(held_out))
        else:
            in_every_bag += 1
            want.append(_reference_predict(fit, X[i:i + 1]).item())
    got = fit.fold_predictions(np.arange(n) % 5)
    assert got.tobytes() == np.array(want).tobytes()
    if ntree == 1:
        assert 0 < in_every_bag < n
    # out of bag needs no folds: their values are ignored
    assert fit.fold_predictions(np.zeros(n, dtype=int)).tobytes() == got.tobytes()


def test_fold_predictions_need_one_fold_per_training_row():
    X = np.random.default_rng(3).uniform(size=(12, 2))
    fit = fit_forest(X, X[:, 0], {"ntree": 5, "seed": 0})
    for fold_of in (np.zeros(11, dtype=int), np.zeros(13, dtype=int), np.zeros((12, 1))):
        with pytest.raises(ValueError, match="fold_of"):
            fit.fold_predictions(fold_of)
    # a fit built from node arrays alone holds no training rows
    with pytest.raises(ValueError, match="training rows"):
        _single_tree_fit(fit.trees[0], 2).fold_predictions(np.zeros(12, dtype=int))


def test_negative_zero_targets_predict_positive_zero():
    # leaves holding -0.0: the reference sums from 0.0, which gives +0.0
    tree = _Node(feature=0, threshold=0.5, left=_Node(value=-0.0),
                 right=_Node(value=-0.0))
    xq = np.array([[0.2], [0.7], [0.5]])
    for rows in (1, 3):
        pred = _single_tree_fit(tree, 1).predict(xq[:rows])
        assert pred.tobytes() == np.zeros((rows, 1)).tobytes()
        assert pred.tobytes() == _reference_predict(
            _single_tree_fit(tree, 1), xq[:rows]).tobytes()
    X = np.random.default_rng(2).uniform(size=(12, 2))
    fit = fit_forest(X, np.full(12, -0.0), {"ntree": 9, "seed": 3})
    assert fit.predict(X[:1]).tobytes() == np.zeros((1, 1)).tobytes()


def test_a_default_forest_predicts_a_surface_grid_below_four_megabytes():
    rng = np.random.default_rng(4)
    X = rng.uniform(0, 1, size=(50, 2))
    y = np.sin(6 * X[:, 0]) + X[:, 1] ** 2 + rng.normal(0, 0.1, 50)
    fit = fit_forest(X, y, {"seed": 1})
    # the rows of `seqtune surface --grid 41`
    grid = np.stack(np.meshgrid(np.linspace(0, 1, 41), np.linspace(0, 1, 41)),
                    axis=-1).reshape(-1, 2)
    fit.predict(grid[:2])  # load lazily imported code
    tracemalloc.start()
    try:
        pred = fit.predict(grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert pred.shape == (1681, 1)
    assert peak <= 4 * 2**20


def test_forest_learns_a_signal():
    # sanity: on a clean step function the forest should beat the global mean
    rng = np.random.default_rng(6)
    X = rng.uniform(0, 1, size=(60, 1))
    y = np.where(X[:, 0] > 0.5, 10.0, 0.0)
    fit = fit_forest(X, y, {"ntree": 50, "seed": 7, "min_node_size": 2})
    xq = np.array([[0.1], [0.9]])
    pred = fit.predict(xq)[:, 0]
    assert pred[0] < 2.0
    assert pred[1] > 8.0


def test_default_controls():
    rng = np.random.default_rng(8)
    X = rng.uniform(0, 1, size=(8, 6))
    fit = fit_forest(X, rng.normal(size=8))
    assert fit.ntree == 500
    assert fit.mtry == 2  # one third of six features
    assert fit.min_node_size == 5
    assert fit.n_features == 6


def test_mtry_floor_is_one():
    X = np.linspace(0, 1, 6).reshape(-1, 1)
    fit = fit_forest(X, X[:, 0], {"ntree": 3, "seed": 0})
    assert fit.mtry == 1


def test_mtry_reports_the_features_drawn_per_node():
    X = np.random.default_rng(0).uniform(size=(12, 2))
    fit = fit_forest(X, X[:, 0], {"ntree": 3, "mtry": 5, "seed": 0})
    assert fit.mtry == 2


def test_a_default_fit_on_fifty_rows_peaks_below_three_megabytes():
    rng = np.random.default_rng(4)
    X = rng.uniform(0, 1, size=(50, 2))
    y = np.sin(6 * X[:, 0]) + X[:, 1] ** 2 + rng.normal(0, 0.1, 50)
    fit_forest(X, y, {"ntree": 5, "seed": 0})  # load lazily imported code
    tracemalloc.start()
    try:
        fit = fit_forest(X, y, {"seed": 1})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert fit.ntree == 500
    assert peak <= 3 * 2**20


def _sann_like(seed):
    """48 integer rows in replicate pairs with noisy targets, as a SANN run fits."""
    rng = np.random.default_rng(seed)
    X = np.repeat(rng.integers(1, 101, size=(24, 2)), 2, axis=0).astype(float)
    return X, (X[:, 0] - 40) ** 2 / 100 + X[:, 1] / 10 + rng.normal(0, 1, 48)


def _stack_like(seed, n):
    """n rows of Branin, as a stack fits its members on."""
    rng = np.random.default_rng(seed)
    X = rng.uniform([-5, 0], [10, 15], size=(n, 2))
    y = (X[:, 1] - 5.1 / (4 * np.pi**2) * X[:, 0] ** 2 + 5 / np.pi * X[:, 0] - 6) ** 2
    return X, y + 10 * (1 - 1 / (8 * np.pi)) * np.cos(X[:, 0]) + 10


def _fit_bytes(X, y, control, xq):
    """The node arrays, depth, predictions of xq and out-of-bag predictions."""
    fit = fit_forest(X, y, control)
    arrays = (fit.feature, fit.threshold, fit.left, fit.value, fit.predict(xq),
              fit.fold_predictions(np.zeros(len(y), dtype=int)))
    return [a.tobytes() for a in arrays] + [fit.depth]


@pytest.mark.parametrize("cells", [1, 7, 2**12, 2**14, 2**20])
@pytest.mark.parametrize("data", [_sann_like(40), _stack_like(41, 12), _stack_like(42, 19)],
                         ids=["sann-48", "stack-12", "stack-19"])
def test_the_pass_size_moves_no_bit(monkeypatch, data, cells):
    # a pass of one node (or one predicted row), passes that split a step's
    # nodes or rows at several places, and every node or row in one pass
    X, y = data
    xq = np.random.default_rng(43).uniform(X.min(axis=0), X.max(axis=0), size=(100, 2))
    control = {"seed": 44}
    want = _fit_bytes(X, y, control, xq)
    monkeypatch.setattr(forest, "_PASS_CELLS", cells)
    assert _fit_bytes(X, y, control, xq) == want


def _workspace_bytes():
    return sum(buffer.nbytes for buffer in forest._workspace.buffers.values())


def test_each_thread_fits_and_predicts_in_its_own_workspace():
    # a dozen forests, each larger than the last, so that every thread's
    # buffers grow while the other thread works in its own
    cases = []
    for i in range(12):
        X, y = _stack_like(50 + i, 10 + 3 * i)
        cases.append((X, y, {"seed": i, "ntree": 20 * (i + 1), "min_node_size": 1 + i % 3}))
    xq = np.random.default_rng(45).uniform([-5, 0], [10, 15], size=(300, 2))
    serial = [_fit_bytes(X, y, control, xq) for X, y, control in cases]
    start = threading.Barrier(2, timeout=60)
    results, grown = {}, {}

    def work(name):
        start.wait()
        results[name], grown[name] = [], []
        for X, y, control in cases:
            results[name].append(_fit_bytes(X, y, control, xq))
            grown[name].append(_workspace_bytes())

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work, args=(name,)) for name in "ab"]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    for name in "ab":
        assert results[name] == serial
        assert grown[name] == sorted(grown[name]) and len(set(grown[name])) >= 4


def test_no_workspace_view_leaves_a_fit_or_a_prediction():
    xq = np.random.default_rng(46).uniform([-5, 0], [10, 15], size=(200, 2))

    def fitted(data, seed):
        fit = fit_forest(*data, {"seed": seed})
        arrays = [fit.feature, fit.threshold, fit.left, fit.value, fit.X, fit.in_bag]
        # a query of one chunk of rows and one of several
        return arrays + [fit.predict(xq[:1]), fit.predict(xq),
                         fit.fold_predictions(np.zeros(len(data[1])))]

    a = fitted(_stack_like(47, 19), 1)
    kept = [array.tobytes() for array in a]
    b = fitted(_sann_like(48), 2)
    assert [array.tobytes() for array in a] == kept
    buffers = list(forest._workspace.buffers.values())
    for array in a:
        assert not any(np.shares_memory(array, other) for other in b + buffers)
    for array in b:
        assert not any(np.shares_memory(array, buffer) for buffer in buffers)


@pytest.fixture
def generators(monkeypatch):
    """The seeds of the generators that `np.random.default_rng` makes."""
    made, real = [], np.random.default_rng

    def counting(seed=None):
        made.append(seed)
        return real(seed)

    monkeypatch.setattr(forest.np.random, "default_rng", counting)
    return made


def test_a_default_fit_makes_no_generator_per_tree(generators):
    # building 500 generators was most of a small fit; every tree's draws
    # come from the fit's one generator, whatever the features per node
    rng = np.random.default_rng(4)
    X = rng.uniform(0, 1, size=(50, 2))
    y = np.sin(6 * X[:, 0]) + X[:, 1] ** 2 + rng.normal(0, 0.1, 50)
    for mtry in (1, 2):
        generators.clear()
        fit = fit_forest(X, y, {"seed": 1, "mtry": mtry})
        assert (fit.ntree, fit.mtry) == (500, mtry)
        assert generators == [1]


def test_fit_validates_input():
    with pytest.raises(ValueError):
        fit_forest([[0.0], [1.0]], [1.0])
    with pytest.raises(ValueError):
        fit_forest(np.empty((0, 2)), [])
    with pytest.raises(ValueError):
        fit_forest([[0.0]], [1.0], {"ntree": 0})
    with pytest.raises(ValueError):
        fit_forest([[0.0]], [1.0], {"min_node_size": 0})


def test_predict_validates_dimension():
    fit = fit_forest([[0.0, 1.0]], [1.0], {"ntree": 2, "seed": 0})
    with pytest.raises(ValueError):
        fit.predict([[0.0, 1.0, 2.0]])


def test_predict_shape_is_column():
    fit = fit_forest([[0.0], [1.0]], [0.0, 1.0], {"ntree": 5, "seed": 0})
    assert fit.predict([[0.2], [0.4], [0.9]]).shape == (3, 1)
