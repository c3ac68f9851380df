"""Random forest regression written directly on numpy arrays.

Trees are fit on bootstrap resamples with per-node feature subsampling and
variance-reduction splits; every leaf predicts the mean of its training
targets, so forest predictions always stay within the observed target range.
Each tree draws from its own pre-assigned seed, which keeps fits
reproducible no matter how the trees are scheduled.

A fit's trees live in node arrays of shape (ntree, nodes): the split
feature, the threshold, the left child (the right child is the next node)
and the node's mean target.  A leaf is its own left child with an infinite
threshold, so prediction walks every (tree, row) pair at once for as many
steps as the deepest tree has levels, and sums each row's leaf values in
tree order from 0.0.

All trees grow in lockstep.  Each tree's rows sit in one row of a
permutation array, where a node is a segment, and each tree keeps its own
depth-first stack (left child first) of such segments.  Every step pops the
top node of every unfinished tree and searches their splits in one padded
pass per drawn feature slot: the nodes' rows, gathered to the longest
node's length, with features padded by +inf and centred targets by 0.
Stable argsorts and cumulative sums keep the bits of the one-node calls
under that padding; row means and the parent's squared error (the same BLAS
dot as `yc @ yc`) do not, so they are computed per group of nodes with
equal sample count.  A split node's segment is partitioned in place, each
side keeping the parent's row order, on which the stable sort of tied
values depends.  A split must reduce the node's squared error by more than
1e-12 of it, at the midpoint between neighbouring sorted values (the lower
value where that midpoint rounds up to the upper one).

Each tree draws its bootstrap sample, then its node features, from its own
seed's stream: what `np.random.default_rng(seed)` would give from
`integers(0, n, size=n)` and then, when one feature is drawn per node,
`integers(0, d)` for all of the tree's nodes at once (numpy's Floyd path in
`choice(d, 1, replace=False)` draws one bounded integer the same way).  All
trees' streams are computed together: SeedSequence's hashing in uint32
arrays, PCG64 (O'Neill, 2014) stepped in 128-bit arithmetic held as uint64
pairs with its XSL-RR output, each output split into 32-bit words low half
first, and each word bounded by Lemire's multiply-shift (TOMACS 2019).  A
tree that one of the rare rejections of that method would hit is redrawn by
its own generator, so every draw equals numpy's.  With more features per
node, each tree builds its generator, moves it past the bootstrap and calls
`choice` at every node.  `tests/test_forest.py` keeps the recursive grower
as the bit-for-bit reference and pins the streams.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np


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
    seeds: np.ndarray
    n_features: int

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

    def predict(self, xnew: np.ndarray) -> np.ndarray:
        """Mean over tree predictions, one column."""
        xnew = np.atleast_2d(np.asarray(xnew, dtype=float))
        if xnew.shape[1] != self.n_features:
            raise ValueError(
                f"prediction input has {xnew.shape[1]} columns, model was fit on "
                f"{self.n_features}"
            )
        rows = xnew.shape[0]
        # a NaN coordinate goes right at every split, as +inf does, and +inf
        # stays at a leaf
        xnew = np.fmin(xnew, np.inf).ravel()
        ntree, width = self.left.shape
        roots = np.arange(0, ntree * width, width)[:, None]
        left = (self.left + roots).ravel()
        feature, threshold = self.feature.ravel(), self.threshold.ravel()
        value = self.value.ravel()
        out = np.empty(rows)
        chunk = max(1, _PASS_CELLS // ntree)
        for a in range(0, rows, chunk):
            cols = np.arange(a, min(a + chunk, rows)) * self.n_features
            node = roots + np.zeros_like(cols)
            for _ in range(self.depth):
                x = xnew.take(cols + feature.take(node))
                node = left.take(node) + (x > threshold.take(node))
            # each row's sum in tree order from 0.0, as a running sum
            total = np.zeros((ntree + 1, cols.shape[0]))
            total[1:] = value.take(node)
            out[a:a + cols.shape[0]] = np.cumsum(total, axis=0)[-1] / ntree
        return out.reshape(-1, 1)

    def mean_and_gradient(self, xnew: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The prediction and its gradient, zero: the forest is piecewise constant."""
        mean = self.predict(xnew)
        return mean, np.zeros((mean.shape[0], self.n_features))


def _settle(perm, start, m, X, y, min_leaf, features, trees):
    """Means and best splits of the nodes whose rows are perm[start:start + m].

    `m` is sorted in decreasing order and `trees` names each node's tree.
    A node is a leaf unless the best midpoint threshold over its features,
    drawn by `features(trees of the nodes that can split)`, reduces its
    centred squared error by more than 1e-12 of that error.  A split node's
    segment of `perm` is partitioned in place, the rows going left first,
    each side in the parent's row order.  Returns the means, the indices of
    the split nodes, their features, thresholds and left row counts.
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
        means[a:b] = mu = group.mean(axis=1)
        if size >= min_split:
            c = group - mu[:, None]
            yc[a:b, :size] = c
            # a batch of 1 x m by m x 1 products: the same BLAS dot as yc @ yc
            parent[a:b] = np.matmul(c[:, None], c[:, :, None]).reshape(-1)
    cand = np.flatnonzero((targets != targets[:, :1]).any(axis=1) & (m >= min_split))
    k = cand.shape[0]
    if not k:
        return means, cand, cand, parent[cand], cand
    rows, yc, parent, pad, m = rows[cand], yc[cand], parent[cand], pad[cand], m[cand]
    feats = features(trees[cand])
    best_f = np.full(k, -1)
    best_thr = np.zeros(k)
    best_gain = 1e-12 * parent
    # a split after sorted position i puts i + 1 rows on the left; only
    # positions lo..m-min_leaf-1 leave min_leaf rows on each side
    lo, hi = min_leaf - 1, width - min_leaf
    size = np.arange(lo + 1.0, hi + 1.0)
    right_n = np.maximum(m[:, None] - size, 1.0)
    short = pad[:, lo + min_leaf:]
    base = np.arange(0, k * width, width)[:, None]
    at, last = np.arange(k), m - 1
    for f in feats.T:
        xs = X.take(rows * d + f[:, None])
        np.putmask(xs, pad, np.inf)
        order = np.argsort(xs, axis=1, kind="stable")
        order += base
        xs, ys = xs.take(order), yc.take(order)
        s1, s2 = np.cumsum(ys, axis=1), np.cumsum(ys**2, axis=1)
        head1, head2 = s1[:, lo:hi], s2[:, lo:hi]
        tot1, tot2 = s1[at, last][:, None], s2[at, last][:, None]
        left_sse = head2 - head1**2 / size
        right_sse = (tot2 - head2) - (tot1 - head1) ** 2 / right_n
        gain = parent[:, None] - (left_sse + right_sse)
        gain[(xs[:, lo + 1:hi + 1] <= xs[:, lo:hi]) | short] = -np.inf
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
    chosen = best_f >= 0
    best_f, best_thr = best_f[chosen], best_thr[chosen]
    rows, pad = rows[chosen], pad[chosen]
    # padding sorts after the rows going right
    right = (X.take(rows * d + best_f[:, None]) > best_thr[:, None]) | pad
    order = np.argsort(right, axis=1, kind="stable")
    order += np.arange(0, order.size, width)[:, None]
    keep = ~pad
    perm[(start[cand[chosen], None] + cols)[keep]] = rows.take(order)[keep]
    n_left = width - right.sum(axis=1)
    return means, cand[chosen], best_f, best_thr, n_left


def _leaves(ntree, first, end):
    """Node arrays (feature, threshold, left, value) of leaves first..end-1."""
    shape = (ntree, end - first)
    return (np.zeros(shape, dtype=np.int32), np.full(shape, np.inf),
            np.tile(np.arange(first, end, dtype=np.int32), (ntree, 1)), np.zeros(shape))


_LOW, _HALF = np.uint64(0xFFFFFFFF), np.uint64(32)
# PCG64's 128-bit multiplier, its high and low words and the low word's halves
_MUL = 0x2360ED051FC65DA44385DF649FCCF645
_MUL_HI, _MUL_LO = np.uint64(_MUL >> 64), np.uint64(_MUL & 2**64 - 1)
_MUL_LO0, _MUL_LO1 = np.uint64(_MUL & 2**32 - 1), np.uint64(_MUL >> 32 & 2**32 - 1)


def _seed_words(seeds):
    """`SeedSequence(int(s)).generate_state(4, np.uint64)` for each seed below 2**64.

    The seed enters as its low and high 32-bit words (a seed below 2**32
    hashes like one whose high word is 0); returns the four words as arrays.
    """
    mask, u32 = 2**32 - 1, np.uint32
    const = 0x43B0D7E5

    def hashmix(value):
        nonlocal const
        value = value ^ u32(const)
        const = const * 0x931E8875 & mask
        value = value * u32(const)
        return value ^ (value >> u32(16))

    def mix(x, y):
        value = u32(0xCA01F9DD) * x - u32(0x4973F715) * y
        return value ^ (value >> u32(16))

    zero = np.zeros(seeds.shape, dtype=np.uint32)
    pool = [hashmix(w) for w in ((seeds & _LOW).astype(np.uint32),
                                 (seeds >> _HALF).astype(np.uint32), zero, zero)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    const, words = 0x8B51F9DD, []
    for i in range(8):
        value = pool[i % 4] ^ u32(const)
        const = const * 0x58F38DED & mask
        value = value * u32(const)
        words.append((value ^ (value >> u32(16))).astype(np.uint64))
    return [words[k] | (words[k + 1] << _HALF) for k in range(0, 8, 2)]


def _pcg_step(hi, lo, inc_hi, inc_lo):
    """The 128-bit PCG step state * multiplier + inc, on (high, low) words."""
    a0, a1 = lo & _LOW, lo >> _HALF
    low_low, high_low = a0 * _MUL_LO0, a1 * _MUL_LO0
    cross = (low_low >> _HALF) + (high_low & _LOW) + a0 * _MUL_LO1
    carry = (high_low >> _HALF) + (cross >> _HALF) + a1 * _MUL_LO1
    hi = carry + lo * _MUL_HI + hi * _MUL_LO + inc_hi
    lo = lo * _MUL_LO + inc_lo
    return hi + (lo < inc_lo), lo


def _pcg_words(seeds, words):
    """The first `words` 32-bit words of each seed's PCG64 stream, as uint64.

    Each 64-bit output is split low half first, as numpy's `next_uint32`
    buffers it.
    """
    w0, w1, w2, w3 = _seed_words(seeds)
    inc_hi = (w2 << np.uint64(1)) | (w3 >> np.uint64(63))
    inc_lo = (w3 << np.uint64(1)) | np.uint64(1)
    # seeding: state 0, step (to inc), add the seed (w0 high, w1 low), step
    lo = inc_lo + w1
    hi, lo = _pcg_step(inc_hi + w0 + (lo < w1), lo, inc_hi, inc_lo)
    out = np.empty((seeds.shape[0], (words + 1) // 2), dtype=np.uint64)
    for k in range(out.shape[1]):
        hi, lo = _pcg_step(hi, lo, inc_hi, inc_lo)
        x, rot = hi ^ lo, hi >> np.uint64(58)  # XSL-RR output
        out[:, k] = (x >> rot) | (x << ((np.uint64(64) - rot) & np.uint64(63)))
    return np.stack([out & _LOW, out >> _HALF], axis=2).reshape(seeds.shape[0], -1)


def seeded_integers(seeds, calls):
    """Each seed's draws from `rng = np.random.default_rng(int(seed))`.

    `calls` lists (high, size) pairs, 1 <= high <= 2**32, of the calls
    `rng.integers(0, high, size=size)` made in order; returns one int64
    (len(seeds), size) array per call.  Seeds must lie below 2**64.
    """
    seeds = np.asarray(seeds, dtype=np.uint64)
    # a bound of 1 consumes no words, as numpy's zero-range path does
    stream = _pcg_words(seeds, sum(size for high, size in calls if high > 1))
    out, at = [], 0
    redraw = np.zeros(seeds.shape[0], dtype=bool)
    for high, size in calls:
        if high == 1:
            out.append(np.zeros((seeds.shape[0], size), dtype=np.int64))
            continue
        scaled = stream[:, at:at + size] * np.uint64(high)
        at += size
        # Lemire's rejection: numpy would replace such a word with the next
        redraw |= ((scaled & _LOW) < np.uint64((2**32 - high) % high)).any(axis=1)
        out.append((scaled >> _HALF).astype(np.int64))
    for t in np.flatnonzero(redraw).tolist():
        rng = np.random.default_rng(int(seeds[t]))
        for draws, (high, size) in zip(out, calls):
            draws[t] = rng.integers(0, high, size=size)
    return out


def feature_draws(n, min_node_size):
    """The most features a tree of n rows draws at one per node."""
    # a node draws once if it splits or if, holding 2 * min_node_size rows
    # or more, it could have; with a leaves that drew and b that did not,
    # a tree makes (a + b - 1) + a draws and n >= (2a + b) * min_node_size
    return max(n // min_node_size - 1, 0)


def one_per_node(drawn):
    """`grow_trees`'s `features` reading tree t's draws from `drawn[t]` in order."""
    used = np.zeros(drawn.shape[0], dtype=np.intp)

    def features(trees):
        f = drawn[trees, used[trees]]
        used[trees] += 1
        return f[:, None]
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
    # a node, its segment of perm and its depth; splitting a node at depth k
    # leaves at most k + 2 nodes on its tree's stack, and that node holds
    # 2 * min_node_size to n - k * min_node_size rows, so k + 2 <= n // min_node_size
    stack = np.zeros((ntree, max(n // min_node_size, 1), 4), dtype=np.int32)
    stack[:, 0, 1] = np.arange(0, ntree * n, n)
    stack[:, 0, 2] = stack[:, 0, 1] + n
    height = np.ones(ntree, dtype=np.intp)
    capacity = 8
    feature, threshold, left, value = _leaves(ntree, 0, capacity)
    count = np.ones(ntree, dtype=np.intp)
    depth = 0
    live = np.arange(ntree)
    while live.shape[0]:
        if count.max() + 2 > capacity:
            feature, threshold, left, value = (
                np.hstack(pair) for pair in zip((feature, threshold, left, value),
                                                _leaves(ntree, capacity, 2 * capacity)))
            capacity *= 2
        height[live] -= 1
        popped = stack[live, height[live]]
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
                perm, start[a:b], m[a:b], X, y, min_node_size, features, t)
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
    n_draw = min(mtry, d)
    draws = feature_draws(n, min_node_size) if n_draw == 1 else 0
    samples, drawn = seeded_integers(seeds, [(n, n), (d, draws)])
    if n_draw == 1:
        features = one_per_node(drawn)
    else:
        rngs = [np.random.default_rng(int(s)) for s in seeds]
        for rng in rngs:
            rng.integers(0, n, size=n)  # past the bootstrap in `samples`

        def features(trees):
            return np.array([rngs[t].choice(d, size=n_draw, replace=False)
                             for t in trees.tolist()])
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
        seeds=seeds,
        n_features=d,
    )
