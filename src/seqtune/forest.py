"""Random forest regression written directly on numpy arrays.

Trees are fit on bootstrap resamples with per-node feature subsampling and
variance-reduction splits; every leaf predicts the mean of its training
targets, so forest predictions always stay within the observed target range.
Every tree's draws are made before any tree grows, which keeps fits
reproducible no matter how the trees are scheduled.

A fit's trees live in node arrays of shape (ntree, nodes): the split
feature, the threshold, the left child (the right child is the next node)
and the node's mean target.  A leaf is its own left child with an infinite
threshold, so prediction walks every (tree, row) pair at once for as many
steps as the deepest tree has levels, and sums each row's leaf values in
tree order from 0.0.  A fit keeps its training rows and each tree's
in-bag mask, so `fold_predictions` can predict every training row from the
trees whose bootstrap left it out, summed the same way.

All trees grow in lockstep.  Each tree's rows sit in one row of a
permutation array, where a node is a segment, and each tree keeps its own
depth-first stack (left child first) of such segments.  Every step pops the
top node of every unfinished tree, and a tree goes on popping while the
node it popped has fewer than max(2, 2 * min_node_size) rows: such a node
can neither split nor draw features, so each tree still brings at most one
node that draws.  The popped nodes' splits are searched in one padded pass
per drawn feature slot: the nodes' rows, gathered to the longest node's
length, with centred targets padded by 0.  The pass sorts integer keys, a
row's rank among its column's distinct values (ranked once per fit, the
padding past every value) shifted above its position in the node.  The
keys are distinct, so any sort gives the stable order of (value, position),
and with cumulative sums that keeps the bits of the one-node calls under
the padding; row means and the parent's squared error (the same BLAS dot
as `yc @ yc`) do not, so they are computed per group of nodes with equal
sample count.  A split node's segment is partitioned in place by sorting
keys of the same kind, side above position, so each side keeps the
parent's row order, on which the order of tied values depends.  A split
must reduce the node's squared error by more than 1e-12 of it, at the
midpoint between neighbouring sorted values (the lower value where that
midpoint rounds up to the upper one).

One generator, `np.random.default_rng(seed)`, draws every random number of
a fit: first all trees' bootstrap samples, `integers(0, n, size=(ntree, n))`,
then the node features, the first min(mtry, d) columns of a stable argsort
of `random((ntree, feature_draws(n, min_node_size), d))` along its last
axis, drawn and sorted a block of trees at a time.  Tree t's nodes that
can split take the rows of its block in the order they ask.
`tests/test_forest.py` keeps the recursive grower, fed the same draws, as
the bit-for-bit reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .design import query_rows, read_count, training_data


@dataclass
class _Node:
    feature: int = -1
    threshold: float = 0.0
    left: Optional["_Node"] = None
    right: Optional["_Node"] = None
    value: float = 0.0


# Cells (nodes by padded rows in a fit, trees by rows in a prediction) per
# vectorized pass; bounds the pass's temporaries and so the peak memory.
_PASS_CELLS = 2**12

# Uniform keys drawn at once for the node features; bounds their memory.
_KEY_DOUBLES = 2**16


@dataclass
class ForestFit:
    """A fitted forest; the node arrays are (ntree, nodes), node 0 the root."""

    feature: np.ndarray  # int32 split feature, 0 at leaves
    threshold: np.ndarray  # split threshold, +inf at leaves
    left: np.ndarray  # int32 left child, right child left + 1; a leaf's is itself
    value: np.ndarray  # the node's mean training target
    depth: int  # levels below the root of the deepest tree
    ntree: int
    mtry: int
    min_node_size: int
    n_features: int
    X: Optional[np.ndarray] = None  # the training rows, (n, n_features)
    in_bag: Optional[np.ndarray] = None  # (ntree, n) bool: row i in tree t's bootstrap

    @cached_property
    def trees(self) -> list:
        """The trees as linked `_Node` roots, built on first read."""
        roots = []
        for feature, threshold, left, value in zip(
            self.feature.tolist(), self.threshold.tolist(), self.left.tolist(),
            self.value.tolist(),
        ):
            roots.append(_Node())
            todo = [(roots[-1], 0)]
            while todo:
                node, i = todo.pop()
                j = left[i]
                if j == i:
                    node.value = value[i]
                else:
                    node.feature, node.threshold = feature[i], threshold[i]
                    node.left, node.right = _Node(), _Node()
                    todo += [(node.left, j), (node.right, j + 1)]
        return roots

    def _leaf_values(self, xnew: np.ndarray):
        """Yield (first row, (ntree, rows) leaf values) for chunks of xnew.

        `xnew` is (m, n_features) and NaN-free.  Every (tree, row) pair of a
        chunk walks its tree at once, for as many steps as the deepest tree
        has levels; a chunk holds at most _PASS_CELLS pairs (or one row).
        """
        rows = xnew.shape[0]
        xnew = xnew.ravel()
        ntree, width = self.left.shape
        roots = np.arange(0, ntree * width, width)[:, None]
        left = (self.left + roots).ravel()
        feature, threshold = self.feature.ravel(), self.threshold.ravel()
        value = self.value.ravel()
        chunk = max(1, _PASS_CELLS // ntree)
        for a in range(0, rows, chunk):
            cols = np.arange(a, min(a + chunk, rows)) * self.n_features
            node = roots + np.zeros_like(cols)
            for _ in range(self.depth):
                x = xnew.take(cols + feature.take(node))
                node = left.take(node) + (x > threshold.take(node))
            yield a, value.take(node)

    def predict(self, xnew: np.ndarray) -> np.ndarray:
        """Mean over tree predictions, one column."""
        xnew = query_rows(xnew, self.n_features)
        out = np.empty(xnew.shape[0])
        # a NaN coordinate goes right at every split, as +inf does, and +inf
        # stays at a leaf
        for a, leaf in self._leaf_values(np.fmin(xnew, np.inf)):
            out[a:a + leaf.shape[1]] = _tree_sums(leaf) / leaf.shape[0]
        return out.reshape(-1, 1)

    def fold_predictions(self, fold_of: np.ndarray) -> np.ndarray:
        """Each training row's out-of-bag prediction, (n,).

        Row i's value is the sum, in tree order from 0.0, of the leaf values
        of the trees whose bootstrap left i out, divided by their number
        (Breiman, Out-of-bag estimation, 1996).  A row that every tree's
        bootstrap holds, as happens in small forests, gets the whole
        forest's prediction instead.  Out-of-bag rows need no folds: only
        the length of `fold_of`, one entry per training row, is checked,
        and its values are ignored.
        """
        if self.X is None or self.in_bag is None:
            raise ValueError("the fit holds no training rows")
        n = self.X.shape[0]
        if np.shape(fold_of) != (n,):
            raise ValueError(f"fold_of has shape {np.shape(fold_of)}, the fit has {n} rows")
        out = np.empty(n)
        for a, leaf in self._leaf_values(self.X):
            out_of_bag = ~self.in_bag[:, a:a + leaf.shape[1]]
            count = out_of_bag.sum(axis=0)
            # adding 0.0 for the trees that hold the row changes no bit of
            # the running sum, which starts from +0.0
            held_out = _tree_sums(np.where(out_of_bag, leaf, 0.0)) / np.maximum(count, 1)
            whole = _tree_sums(leaf) / leaf.shape[0]
            out[a:a + leaf.shape[1]] = np.where(count > 0, held_out, whole)
        return out

    def mean_and_gradient(self, xnew: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The prediction and its gradient, zero: the forest is piecewise constant."""
        mean = self.predict(xnew)
        return mean, np.zeros((mean.shape[0], self.n_features))


def _tree_sums(leaf: np.ndarray) -> np.ndarray:
    """Each column's sum of (ntree, rows) values, in tree order from 0.0."""
    total = np.zeros((leaf.shape[0] + 1, leaf.shape[1]))
    total[1:] = leaf
    # a running sum, so each column adds its trees one at a time
    return np.cumsum(total, axis=0)[-1]


def _settle(perm, start, m, X, ranks, y, min_leaf, features, trees):
    """Means and best splits of the nodes whose rows are perm[start:start + m].

    `m` is sorted in decreasing order and `trees` names each node's tree.
    `ranks` holds each value of X as its rank among its column's distinct
    values; the padding takes rank X.shape[0], past them all.  A node is a
    leaf unless the best midpoint threshold over its features, drawn by
    `features(trees of the nodes that can split)`, reduces its centred
    squared error by more than 1e-12 of that error.  A split node's segment
    of `perm` is partitioned in place, the rows going left first, each side
    in the parent's row order.  Returns the means, the indices of the split
    nodes, their features, thresholds and left row counts.
    """
    k, width, d = m.shape[0], int(m[0]), X.shape[1]
    cols = np.arange(width)
    pad = cols >= m[:, None]
    # rows past a node's end repeat its last row
    rows = perm.take(start[:, None] + np.minimum(cols, m[:, None] - 1))
    targets = y.take(rows)
    means, parent, yc = np.empty(k), np.empty(k), np.zeros((k, width))
    min_split = max(2, 2 * min_leaf)
    edges = (np.flatnonzero(m[1:] != m[:-1]) + 1).tolist()
    for a, b in zip([0, *edges], [*edges, k]):
        size = int(m[a])
        group = targets[a:b, :size]
        # what group.mean(axis=1) computes, without its Python wrapper
        means[a:b] = mu = np.add.reduce(group, axis=1) / size
        if size >= min_split:
            c = group - mu[:, None]
            yc[a:b, :size] = c
            # a batch of 1 x m by m x 1 products: the same BLAS dot as yc @ yc
            parent[a:b] = np.matmul(c[:, None], c[:, :, None]).reshape(-1)
    cand = np.flatnonzero((targets != targets[:, :1]).any(axis=1) & (m >= min_split))
    k = cand.shape[0]
    if not k:
        return means, cand, cand, parent[cand], cand
    if k < m.shape[0]:
        rows, yc, parent, pad, m = rows[cand], yc[cand], parent[cand], pad[cand], m[cand]
        trees = trees[cand]
    feats = features(trees)
    best_f = np.full(k, -1)
    best_gain = 1e-12 * parent
    # the best split's sorted position i, and where its rows at positions
    # i and i + 1 sit in `rows`
    best_i, below, above = np.zeros((3, k), np.intp)
    # a split after sorted position i puts i + 1 rows on the left; only
    # positions lo..m-min_leaf-1 leave min_leaf rows on each side
    lo, hi = min_leaf - 1, width - min_leaf
    size = np.arange(lo + 1.0, hi + 1.0)
    right_n = np.maximum(m[:, None] - size, 1.0)
    short = pad[:, lo + min_leaf:]
    base = np.arange(0, k * width, width)[:, None]
    at, last = np.arange(k), m - 1
    # a row's key is its rank above its position in the node, so the keys
    # are distinct and any sort puts them in the stable order of the values
    shift = (width - 1).bit_length()
    mask = (1 << shift) - 1
    cells = rows * d
    for f in feats.T:
        key = ranks.take(cells + f[:, None])
        np.putmask(key, pad, X.shape[0])
        key <<= shift
        key |= cols
        key.sort(axis=1)
        order = key & mask
        order += base
        key >>= shift
        ys = yc.take(order)
        s1, s2 = np.cumsum(ys, axis=1), np.cumsum(ys**2, axis=1)
        head1, head2 = s1[:, lo:hi], s2[:, lo:hi]
        tot1, tot2 = s1[at, last][:, None], s2[at, last][:, None]
        left_sse = head2 - head1**2 / size
        right_sse = (tot2 - head2) - (tot1 - head1) ** 2 / right_n
        gain = parent[:, None] - (left_sse + right_sse)
        gain[(key[:, lo + 1:hi + 1] == key[:, lo:hi]) | short] = -np.inf
        i = gain.argmax(axis=1)
        g = gain[at, i]
        i += lo
        better = g > best_gain
        np.copyto(best_gain, g, where=better)
        np.copyto(best_f, f, where=better)
        np.copyto(best_i, i, where=better)
        np.copyto(below, order[at, i], where=better)
        np.copyto(above, order[at, i + 1], where=better)
    chosen = best_f >= 0
    best_f, n_left = best_f[chosen], best_i[chosen] + 1
    a = X.take(rows.take(below[chosen]) * d + best_f)
    b = X.take(rows.take(above[chosen]) * d + best_f)
    rows, pad = rows[chosen], pad[chosen]
    with np.errstate(over="ignore"):
        mid = (a + b) / 2.0
    # the midpoint of neighbouring doubles can round up to b, and a + b
    # can overflow; either would send every row to one side
    best_thr = np.where((a <= mid) & (mid < b), mid, a)
    # the rows going right, then the padding, each in the parent's order
    right = (X.take(rows * d + best_f[:, None]) > best_thr[:, None]) | pad
    key = right.astype(np.int64) << shift
    key |= cols
    key.sort(axis=1)
    order = key & mask
    order += np.arange(0, order.size, width)[:, None]
    keep = ~pad
    perm[(start[cand[chosen], None] + cols)[keep]] = rows.take(order)[keep]
    return means, cand[chosen], best_f, best_thr, n_left


def feature_draws(n, min_node_size):
    """The most nodes of a tree of n rows that draw features."""
    # a node draws once if it splits or if, holding 2 * min_node_size rows
    # or more, it could have; with a leaves that drew and b that did not,
    # a tree makes (a + b - 1) + a draws and n >= (2a + b) * min_node_size
    return max(n // min_node_size - 1, 0)


def row_per_node(drawn):
    """`grow_trees`'s `features` reading tree t's rows from `drawn[t]` in order."""
    used = np.zeros(drawn.shape[0], dtype=np.intp)

    def features(trees):
        f = drawn[trees, used[trees]]
        used[trees] += 1
        return f
    return features


def grow_trees(X, y, samples, min_node_size, features):
    """Grow one regression tree per sample of rows of (X, y).

    Tree t is grown on the rows `samples[t]`, indices into X and y (repeats
    allowed, one count for all trees).  `features(trees)` returns one row of
    candidate features per named tree, for that tree's next node that can
    split; each tree's nodes ask in depth-first order, left child first.
    Returns the node arrays feature, threshold, left and value, trimmed to
    the largest tree, and the deepest tree's depth.
    """
    # a copy: each node's segment is partitioned in place
    perm = np.array(samples, dtype=np.int32)
    ntree, n = perm.shape
    perm = perm.reshape(-1)
    # every leaf and every node waiting on a tree's stack holds at least
    # min_node_size rows, disjoint from the others', so a tree has at most
    # `leaves` leaves (2 * leaves - 1 nodes) and `leaves` stack entries
    leaves = max(n // min_node_size, 1)
    # a node, its segment of perm and its depth
    stack = np.zeros((ntree, leaves, 4), dtype=np.int32)
    stack[:, 0, 1] = np.arange(0, ntree * n, n)
    stack[:, 0, 2] = stack[:, 0, 1] + n
    height = np.ones(ntree, dtype=np.intp)
    # every node starts as a leaf: feature 0, threshold +inf, its own left child
    shape = (ntree, 2 * leaves - 1)
    feature, threshold = np.zeros(shape, np.int32), np.full(shape, np.inf)
    left = np.tile(np.arange(shape[1], dtype=np.int32), (ntree, 1))
    value = np.zeros(shape)
    count = np.ones(ntree, dtype=np.intp)
    # each value's rank among its column's distinct values (np.unique's
    # inverse), from the stable argsort that fit_forest's feature draws
    # already run: np.unique's own sort would raise the peak memory
    order = np.argsort(X, axis=0, kind="stable")
    xs = np.take_along_axis(X, order, 0)
    sorted_ranks = np.zeros(X.shape, dtype=np.int64)
    np.cumsum(xs[1:] != xs[:-1], axis=0, out=sorted_ranks[1:])
    ranks = np.empty_like(sorted_ranks)
    np.put_along_axis(ranks, order, sorted_ranks, 0)
    min_split = max(2, 2 * min_node_size)
    depth = 0
    live = np.arange(ntree)
    while live.shape[0]:
        # every live tree pops its top node, and goes on popping while the
        # node it popped is too small to split (it draws no features)
        trees, nodes = [], []
        while live.shape[0]:
            height[live] -= 1
            popped = stack[live, height[live]]
            trees.append(live)
            nodes.append(popped)
            live = live[(popped[:, 2] - popped[:, 1] < min_split) & (height[live] > 0)]
        live, popped = np.concatenate(trees), np.concatenate(nodes)
        order = np.argsort(popped[:, 1] - popped[:, 2], kind="stable")
        live, popped = live[order], popped[order]
        node, start, end, level = popped.T
        m = end - start
        depth = max(depth, int(level.max()))
        sizes = m.tolist()
        a = 0
        while a < len(sizes):
            b = min(len(sizes), a + max(1, _PASS_CELLS // sizes[a]))
            t, nd = live[a:b], node[a:b]
            means, split, f, thr, n_left = _settle(
                perm, start[a:b], m[a:b], X, ranks, y, min_node_size, features, t)
            value[t, nd] = means
            t, nd = t[split], nd[split]
            child = count[t].astype(np.int32)
            count[t] += 2
            feature[t, nd], threshold[t, nd], left[t, nd] = f, thr, child
            lo, hi = start[a:b][split], end[a:b][split]
            mid = lo + n_left.astype(np.int32)
            below = level[a:b][split] + 1
            h = height[t]
            stack[t, h] = np.column_stack([child + 1, mid, hi, below])
            stack[t, h + 1] = np.column_stack([child, lo, mid, below])
            height[t] += 2
            a = b
        live = np.flatnonzero(height)
    width = int(count.max())
    return (feature[:, :width].copy(), threshold[:, :width].copy(),
            left[:, :width].copy(), value[:, :width].copy(), depth)


def fit_forest(X: np.ndarray, y: np.ndarray, control: Optional[dict] = None) -> ForestFit:
    """Fit a forest; control keys: seed and the counts ntree, mtry, min_node_size.
    Raises ValueError where `training_data(X, y)` does."""
    control = dict(control or {})
    X, y = training_data(X, y)
    n, d = X.shape
    ntree = read_count(control, "ntree", 500)
    mtry = read_count(control, "mtry", max(1, d // 3))
    min_node_size = read_count(control, "min_node_size", 5)
    rng = np.random.default_rng(control.get("seed"))
    samples = rng.integers(0, n, size=(ntree, n))
    draws = feature_draws(n, min_node_size)
    # the keys a block of trees at a time: in C order that is the stream of
    # one random((ntree, draws, d)) call, and only a block's keys and their
    # argsort are held at once
    block = max(1, _KEY_DOUBLES // max(draws * d, 1))
    drawn = np.empty((ntree, draws, min(mtry, d)), dtype=np.int32)
    for a in range(0, ntree, block):
        keys = rng.random((min(block, ntree - a), draws, d))
        drawn[a:a + block] = np.argsort(keys, axis=2, kind="stable")[:, :, :mtry]
    in_bag = np.zeros((ntree, n), dtype=bool)
    in_bag[np.arange(ntree)[:, None], samples] = True
    features = row_per_node(drawn)
    feature, threshold, left, value, depth = grow_trees(
        X, y, samples, min_node_size, features)
    return ForestFit(
        feature=feature,
        threshold=threshold,
        left=left,
        value=value,
        depth=depth,
        ntree=ntree,
        mtry=min(mtry, d),
        min_node_size=min_node_size,
        n_features=d,
        X=X,
        in_bag=in_bag,
    )
