"""Random forest regression written directly on numpy arrays.

Trees are fit on bootstrap resamples with per-node feature subsampling and
variance-reduction splits; every leaf predicts the mean of its training
targets, so forest predictions always stay within the observed target range.
Each tree draws from its own pre-assigned seed, which keeps fits
reproducible no matter how the trees are scheduled.

All trees of a fit grow in lockstep.  Each tree keeps its own depth-first
stack (left child first) and its own generator; every step pops the next
node of every unfinished tree, buckets those nodes by sample count (at
most 64 to a bucket), and searches each bucket's splits in one vectorized
pass over the drawn feature slots.  The result is bit-identical to growing
each tree recursively on its own: the bootstrap draws and the one
`rng.choice` per splittable node keep their per-tree order, row-wise means,
stable argsorts and cumulative sums over equal-length rows give the bits of
the one-node calls (zero-padded rows would not, hence the buckets), the
batched parent error is the same BLAS dot as `yc @ yc`, and a child's rows
keep the parent's row order, on which the stable sort of tied values
depends.  A split must reduce the node's squared error by more than 1e-12
of it, at the midpoint between neighbouring sorted values (the lower value
where that midpoint rounds up to the upper one).  `tests/test_forest.py`
keeps the recursive grower as the bit-for-bit reference.
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


# Nodes per vectorized pass.  All roots, and often many other nodes, share a
# sample count; splitting such buckets bounds the pass's (nodes, rows)
# temporaries and so the fit's peak memory.
_PASS_NODES = 64


def _settle(popped, stacks, X, y, rngs, n_draw, min_leaf):
    """Grow every node popped in one step that holds the same number of rows.

    `popped` lists (tree, node, rows) with equal-length `rows`.  A node is a
    leaf unless the best midpoint threshold over its drawn features reduces
    its centred squared error by more than 1e-12 of that error; a split node
    pushes its right child, then its left, onto its tree's stack, each child
    keeping the parent's row order.
    """
    m = popped[0][2].shape[0]
    rows = np.array([r for _, _, r in popped])
    targets = y[rows]
    means = targets.mean(axis=1)
    splittable = (targets != targets[:, :1]).any(axis=1) & (m >= max(2, 2 * min_leaf))
    cand = np.flatnonzero(splittable)
    rows, yc = rows[cand], targets[cand]
    k = cand.shape[0]
    best_f = np.full(k, -1)
    best_thr = np.zeros(k)
    if k:
        d = X.shape[1]
        feats = np.array([rngs[popped[i][0]].choice(d, size=n_draw, replace=False)
                          for i in cand.tolist()])
        yc -= means[cand, None]
        # a batch of 1 x m by m x 1 products: the same BLAS dot as yc @ yc
        parent = np.matmul(yc.reshape(k, 1, m), yc.reshape(k, m, 1)).reshape(k)
        best_gain = 1e-12 * parent
        # a split after sorted position i puts i + 1 rows on the left; only
        # positions lo..hi-1 leave min_leaf rows on each side
        lo, hi = min_leaf - 1, m - min_leaf
        sizes = np.arange(lo + 1.0, hi + 1.0)
        right_n = m - sizes
        base = np.arange(0, k * m, m)[:, None]
        at = np.arange(k)
        for f in feats.T:
            xs = X[rows, f[:, None]]
            order = np.argsort(xs, axis=1, kind="stable")
            order += base
            xs, ys = xs.take(order), yc.take(order)
            s1, s2 = np.cumsum(ys, axis=1), np.cumsum(ys**2, axis=1)
            head1, head2 = s1[:, lo:hi], s2[:, lo:hi]
            left_sse = head2 - head1**2 / sizes
            right_sse = (s2[:, -1:] - head2) - (s1[:, -1:] - head1) ** 2 / right_n
            gain = parent[:, None] - (left_sse + right_sse)
            gain[xs[:, lo + 1:hi + 1] <= xs[:, lo:hi]] = -np.inf
            i = gain.argmax(axis=1)
            g = gain[at, i]
            i += lo
            better = g > best_gain
            best_gain[better] = g[better]
            best_f[better] = f[better]
            a, b = xs[at, i], xs[at, i + 1]
            mid = (a + b) / 2.0
            # the midpoint of neighbouring doubles can round up to b, and a + b
            # can overflow; either would send every row to one side
            best_thr[better] = np.where((a <= mid) & (mid < b), mid, a)[better]
    leaf = np.ones(len(popped), dtype=bool)
    chosen = best_f >= 0
    split, best_f, best_thr = cand[chosen], best_f[chosen], best_thr[chosen]
    leaf[split] = False
    means = means.tolist()
    for i in np.flatnonzero(leaf).tolist():
        popped[i][1].value = means[i]
    # each split node's rows, those going left first, each side in row order
    rows = rows[chosen]
    goes_left = X[rows, best_f[:, None]] <= best_thr[:, None]
    order = np.argsort(~goes_left, axis=1, kind="stable")
    order += np.arange(0, order.size, m)[:, None]
    parted = rows.take(order)
    n_left = goes_left.sum(axis=1).tolist()
    for i, f, thr, r, n in zip(split.tolist(), best_f.tolist(), best_thr.tolist(),
                               parted, n_left):
        t, node, _ = popped[i]
        node.feature, node.threshold = f, thr
        node.left, node.right = _Node(), _Node()
        stacks[t].append((node.right, r[n:]))
        stacks[t].append((node.left, r[:n]))


def grow_trees(X, y, samples, mtry, min_node_size, rngs) -> list:
    """Grow one regression tree per sample of rows of (X, y); returns the roots.

    Tree t is grown on the rows `samples[t]`, an integer array of indices
    into X and y (repeats allowed), and draws its per-node features from
    `rngs[t]` alone.  All trees grow in lockstep: each keeps a depth-first
    stack, left child first, and every step pops the next node of every
    unfinished tree.
    """
    n_draw = min(mtry, X.shape[1])
    roots = [_Node() for _ in samples]
    stacks = [[(root, rows)] for root, rows in zip(roots, samples)]
    live = range(len(roots))
    while live:
        buckets = {}
        for t in live:
            node, rows = stacks[t].pop()
            buckets.setdefault(rows.shape[0], []).append((t, node, rows))
        for popped in buckets.values():
            for i in range(0, len(popped), _PASS_NODES):
                _settle(popped[i:i + _PASS_NODES], stacks, X, y, rngs, n_draw,
                        min_node_size)
        live = [t for t in live if stacks[t]]
    return roots


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
    rngs = [np.random.default_rng(int(s)) for s in seeds]
    # int32 rows halve what every pending node holds
    samples = [rng.integers(0, n, size=n).astype(np.int32) for rng in rngs]
    return ForestFit(
        trees=grow_trees(X, y, samples, mtry, min_node_size, rngs),
        ntree=ntree,
        mtry=min(mtry, d),
        min_node_size=min_node_size,
        seeds=seeds,
        n_features=d,
    )
