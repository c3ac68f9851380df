"""Random forest regression written directly on numpy arrays.

Trees are fit on bootstrap resamples with per-node feature subsampling and
variance-reduction splits; every leaf predicts the mean of its training
targets, so forest predictions always stay within the observed target range.
Each tree draws from its own pre-assigned seed, which keeps fits
reproducible no matter how the trees are scheduled.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np


@dataclass
class _Node:
    feature: int = -1
    threshold: float = 0.0
    left: Optional["_Node"] = None
    right: Optional["_Node"] = None
    value: float = 0.0


@dataclass
class ForestFit:
    trees: list
    ntree: int
    mtry: int
    min_node_size: int
    seeds: np.ndarray
    n_features: int

    def predict(self, xnew: np.ndarray) -> np.ndarray:
        """Mean over tree predictions, one column."""
        xnew = np.atleast_2d(np.asarray(xnew, dtype=float))
        if xnew.shape[1] != self.n_features:
            raise ValueError(
                f"prediction input has {xnew.shape[1]} columns, model was fit on "
                f"{self.n_features}"
            )
        means = []
        for row in xnew.tolist():
            total = 0.0
            for node in self.trees:
                while node.left is not None:
                    node = node.left if row[node.feature] <= node.threshold else node.right
                total += node.value
            means.append(total / len(self.trees))
        return np.array(means).reshape(-1, 1)


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


def grow_tree(
    x: np.ndarray,
    y: np.ndarray,
    mtry: int,
    min_node_size: int,
    rng: np.random.Generator,
) -> _Node:
    """Recursively grow one regression tree on the given sample."""
    n = y.shape[0]
    if n < 2 * min_node_size or n < 2 or np.all(y == y[0]):
        return _Node(value=float(y.mean()))
    features = rng.choice(x.shape[1], size=min(mtry, x.shape[1]), replace=False)
    split = _best_split(x, y, features, min_node_size)
    if split is None:
        return _Node(value=float(y.mean()))
    f, thr = split
    mask = x[:, f] <= thr
    return _Node(
        feature=f,
        threshold=thr,
        left=grow_tree(x[mask], y[mask], mtry, min_node_size, rng),
        right=grow_tree(x[~mask], y[~mask], mtry, min_node_size, rng),
    )


def fit_forest(X: np.ndarray, y: np.ndarray, control: Optional[dict] = None) -> ForestFit:
    """Fit a forest; control keys: ntree, mtry, min_node_size, seed."""
    control = dict(control or {})
    X = np.atleast_2d(np.asarray(X, dtype=float))
    y = np.asarray(y, dtype=float).reshape(-1)
    n, d = X.shape
    if y.shape[0] != n:
        raise ValueError("X and y row counts differ")
    if not (np.isfinite(X).all() and np.isfinite(y).all()):
        raise ValueError("non-finite values in X or y")
    if n < 1:
        raise ValueError("need at least one training point")
    ntree = int(control.get("ntree", 500))
    mtry = int(control.get("mtry", max(1, d // 3)))
    min_node_size = int(control.get("min_node_size", 5))
    if ntree < 1 or mtry < 1 or min_node_size < 1:
        raise ValueError("ntree, mtry and min_node_size must be positive")
    root_rng = np.random.default_rng(control.get("seed"))
    seeds = root_rng.integers(0, 2**63 - 1, size=ntree)
    trees = []
    for s in seeds:
        rng = np.random.default_rng(int(s))
        idx = rng.integers(0, n, size=n)
        trees.append(grow_tree(X[idx], y[idx], mtry, min_node_size, rng))
    return ForestFit(
        trees=trees,
        ntree=ntree,
        mtry=mtry,
        min_node_size=min_node_size,
        seeds=seeds,
        n_features=d,
    )
