"""Stacked surrogate: a nonnegative blend of heterogeneous base models.

Members are fit on the full data; their blend weights come from K-fold
out-of-fold predictions solved by nonnegative least squares (a search over
member sets) and normalized to sum to one, so the stack prediction is
always a convex combination of member predictions (Breiman, Stacked
Regressions, 1996).  A member fit that has `fold_predictions(fold_of)`
gives every fold's predictions from the full fit, so it is fit once:
Kriging in closed form at the full fit's hyperparameters and input scaling
with the mean re-estimated per fold, and the forest out of bag, each row
from the trees whose bootstrap left it out (the whole forest for a row
that every bootstrap holds).  Every other member, RSM and callables, is
refit on each fold.  Every member gets the stack's whole control and reads
its own keys from it.  `design.stack_members` checks the members list, and
a built-in member's module is loaded through `design._fitter`, so a stack
loads only the modules of the members it names.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Optional

import numpy as np

from .design import _check_name, _fitter, read_count, stack_members, training_data
from .optimizers import OPTIMIZERS, one_per_row


@dataclass
class StackFit:
    members: list
    member_names: list
    weights: np.ndarray

    def _weighted(self) -> list:
        """(weight, member) pairs of nonzero weight: adding 0.0 times a
        member's finite prediction would change no bit of the blend."""
        return [(w, m) for w, m in zip(self.weights, self.members) if w != 0.0]

    def predict(self, xnew: np.ndarray) -> np.ndarray:
        xnew = np.atleast_2d(np.asarray(xnew, dtype=float))
        out = np.zeros((xnew.shape[0], 1))
        for w, member in self._weighted():
            out += w * np.asarray(member.predict(xnew), dtype=float).reshape(-1, 1)
        return out

    @property
    def mean_and_gradient(self):
        """The blend's mean-and-gradient callable, or None when a member
        of nonzero weight has no `mean_and_gradient` (a callable member's
        fit, say)."""
        if any(getattr(m, "mean_and_gradient", None) is None for _, m in self._weighted()):
            return None
        return self._mean_and_gradient

    def _mean_and_gradient(self, xnew: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The (m, 1) blend, bit-equal to `predict`'s, and the weighted sum
        of the members' (m, d) gradients."""
        xnew = np.atleast_2d(np.asarray(xnew, dtype=float))
        out = np.zeros((xnew.shape[0], 1))
        grad = np.zeros(xnew.shape)
        for w, member in self._weighted():
            mean, member_grad = member.mean_and_gradient(xnew)
            out += w * np.asarray(mean, dtype=float).reshape(-1, 1)
            grad += w * np.asarray(member_grad, dtype=float)
        return out, grad


def min_rows(X: np.ndarray, control: Optional[dict] = None) -> int:
    """The fewest rows `fit_stack` fits: one per fold (control key folds,
    default 5, a count of at least 2 as `read_count` reads it)."""
    return read_count(control or {}, "folds", 5, least=2, name="stack folds")


def fit_stack(X: np.ndarray, y: np.ndarray, control: Optional[dict] = None) -> StackFit:
    """Fit members and their out-of-fold blend weights.

    Control keys: members (names from kriging/forest/rsm, or callables with
    the common fit signature; a single one is a one-member stack), folds
    (a count of at least 2, as `min_rows` reads it) and seed.  Every member
    is fit with a copy of the whole control, so the members' own keys (types,
    Kriging's budget, the forest's ntree and so on) go at its top level, and
    `design.stack_members` checks the names, counts and flags, and
    `optimizers.OPTIMIZERS` the algTheta, first.
    Out-of-fold predictions come from the full fit's `fold_predictions(fold_of)`
    where it has one, and otherwise from one refit per fold (RSM, callables).
    Kriging's folds keep the full fit's theta, lambda and scaling; the
    forest's are its out-of-bag predictions, which ignore the folds, with
    the whole forest's prediction for a row that every tree's bootstrap
    holds.  X and y must pass `training_data(X, y, folds)` before any
    member is fit.  Members that fail to fit on the full data or on any
    fold, or whose out-of-fold column is not one finite value per row
    (`one_per_row`), are dropped; if none survive, the last error is
    raised.  The weights are `_nnls`'s (2^k - 1 solves for k kept members;
    a member that repeats an earlier one gets 0), scaled to sum to one, or
    equal if all are 0.
    """
    control = dict(control or {})
    folds = min_rows(X, control)
    X, y = training_data(X, y, folds)
    y = y.reshape(-1, 1)
    n = X.shape[0]
    names = stack_members(control)
    _check_name(OPTIMIZERS, control.get("algTheta", "lhd"), "algTheta")

    rng = np.random.default_rng(control.get("seed"))
    order = rng.permutation(n)
    fold_of = np.empty(n, dtype=int)
    for k, chunk in enumerate(np.array_split(order, folds)):
        fold_of[chunk] = k

    fitted, kept_names, oof_cols = [], [], []
    last_error: Optional[Exception] = None
    for name in names:
        fitter = _fitter(name)[0]
        label = getattr(name, "__name__", "custom") if callable(name) else name
        sub = dict(control)
        what = f"stack member {label!r}"
        try:
            full = fitter(X, y, sub)
            if hasattr(full, "fold_predictions"):
                oof = one_per_row(full.fold_predictions(fold_of), n, what)
            else:
                oof = np.empty(n)
                for k in range(folds):
                    test = fold_of == k
                    part = fitter(X[~test], y[~test], sub)
                    oof[test] = one_per_row(part.predict(X[test]), np.count_nonzero(test), what)
            if not np.isfinite(oof).all():
                raise ValueError(f"member {label!r} predicted non-finite values")
        except Exception as err:  # member dropped, others may still work
            last_error = err
            continue
        fitted.append(full)
        kept_names.append(label)
        oof_cols.append(oof)

    if not fitted:
        raise ValueError(f"every stack member failed to fit: {last_error}")
    weights = _nnls(np.column_stack(oof_cols), y.reshape(-1))
    if weights.sum() <= 0:
        weights = np.full(len(fitted), 1.0 / len(fitted))
    else:
        weights = weights / weights.sum()
    return StackFit(members=fitted, member_names=kept_names, weights=weights)


def _nnls(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """argmin ||a x - b|| over x >= 0, by a search over column sets.

    Some set of linearly independent columns carries a minimizer, and the
    least-squares solution on it is positive (Caratheodory's theorem for
    cones); every positive solution is feasible.  So each of the 2^n - 1
    sets gets one `lstsq`, and of those of full rank and positive solution
    the first of smallest residual wins, or zero if none beats it.  A set
    with two identical columns is not of full rank: a duplicate gets 0.
    """
    n = a.shape[1]
    best, best_sq = np.zeros(n), float(b @ b)
    for k in range(1, n + 1):
        for cols in map(list, combinations(range(n), k)):
            z = np.zeros(n)
            z[cols], _, rank, _ = np.linalg.lstsq(a[:, cols], b, rcond=None)
            r = b - a @ z
            if rank == k and np.all(z[cols] > 0.0) and float(r @ r) < best_sq:
                best, best_sq = z, float(r @ r)
    return best
