"""Random-forest surrogate: split quality, hull bounds, reproducibility.

The split oracle below enumerates every (feature, threshold) pair by brute
force and compares achieved error reduction, so it is independent of the
cumulative-sum implementation inside the package.  The prediction oracle
sends whole batches down each tree by recursive boolean-mask partitions and
sums the trees with numpy adds; the package walks one row at a time, so the
two must agree bit for bit.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from seqtune.forest import ForestFit, fit_forest, grow_tree


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


def _single_tree_fit(tree, n_features):
    return ForestFit(
        trees=[tree], ntree=1, mtry=n_features, min_node_size=1,
        seeds=np.array([0]), n_features=n_features,
    )


# ---------------------------------------------------------------------------
# tree growth


def test_step_data_splits_between_the_levels():
    x = np.array([[0.0], [1.0], [2.0], [3.0]])
    y = np.array([0.0, 0.0, 10.0, 10.0])
    tree = grow_tree(x, y, mtry=1, min_node_size=1,
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
        tree = grow_tree(x, y, mtry=2, min_node_size=1, rng=np.random.default_rng(1))
        assert tree.left is not None
        mask = x[:, tree.feature] <= tree.threshold
        gain = _sse(y) - _sse(y[mask]) - _sse(y[~mask])
        assert gain == pytest.approx(_best_gain_bruteforce(x, y, 1), rel=1e-9)


def test_constant_targets_grow_a_leaf():
    x = np.arange(10, dtype=float).reshape(-1, 1)
    tree = grow_tree(x, np.full(10, 2.5), mtry=1, min_node_size=1,
                     rng=np.random.default_rng(0))
    assert tree.left is None
    assert tree.value == 2.5


def test_small_nodes_stop_splitting():
    x = np.array([[0.0], [1.0], [2.0], [3.0]])
    y = np.array([0.0, 0.0, 10.0, 10.0])
    # 2*min_node_size exceeds n, so no split is allowed at all
    tree = grow_tree(x, y, mtry=1, min_node_size=3, rng=np.random.default_rng(0))
    assert tree.left is None
    assert tree.value == pytest.approx(5.0)


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


@pytest.mark.parametrize("rows", [0, 1, 100, 1000])
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
