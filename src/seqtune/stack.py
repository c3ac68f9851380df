"""Stacked surrogate: a nonnegative blend of heterogeneous base models.

Members are fit on the full data; their blend weights come from K-fold
out-of-fold predictions solved by nonnegative least squares and normalized
to sum to one, so the stack prediction is always a convex combination of
member predictions (Breiman, Stacked Regressions, 1996).  A member fit that
has `fold_predictions(fold_of)` gives every fold's predictions from the
full fit: Kriging in closed form at the full fit's hyperparameters and
input scaling with the mean re-estimated per fold, RSM exactly as its
refits, and the forest out of bag, each row from the trees whose bootstrap
left it out (the whole forest for a row that every bootstrap holds), so
that every built-in member is fit once.  Callable members are refit on each
fold.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .forest import fit_forest
from .kriging import fit_kriging
from .rsm import fit_rsm

DEFAULT_MEMBERS = ("kriging", "forest", "rsm")

MEMBER_FITTERS = {
    "kriging": fit_kriging,
    "forest": fit_forest,
    "rsm": fit_rsm,
}


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


def _member_settings(control: dict) -> tuple[list, dict]:
    """The members list and the memberControls dict, checked up front.

    A single name or callable is a one-member list.
    """
    names = control.get("members", DEFAULT_MEMBERS)
    if isinstance(names, str) or callable(names):
        names = [names]
    if not isinstance(names, (list, tuple)) or not names:
        raise ValueError(f"stack members must name at least one model, got {names!r}")
    per_member = control.get("memberControls", {})
    if not isinstance(per_member, dict) or not all(
        isinstance(sub, dict) for sub in per_member.values()
    ):
        raise ValueError(
            "stack memberControls must map member names to control dicts, "
            f"got {per_member!r}"
        )
    return list(names), per_member


def min_rows(X: np.ndarray, control: Optional[dict] = None) -> int:
    """The fewest rows `fit_stack` fits: one per fold (control key folds)."""
    return int(dict(control or {}).get("folds", 5))


def fit_stack(X: np.ndarray, y: np.ndarray, control: Optional[dict] = None) -> StackFit:
    """Fit members and their out-of-fold blend weights.

    Control keys: members (names from kriging/forest/rsm, or callables with
    the common fit signature; a single one is a one-member stack), folds
    (default 5), seed, types, and memberControls (a dict of per-member
    control dicts).  Out-of-fold predictions come from the full fit's
    `fold_predictions(fold_of)` where it has one, and otherwise from one
    refit per fold (callables).  Kriging's folds keep the full fit's theta,
    lambda and scaling; the forest's are its out-of-bag predictions, which
    ignore the folds, with the whole forest's prediction for a row that
    every tree's bootstrap holds.  Members that fail
    to fit on the full data or on any fold, or that predict a non-finite
    value out of fold, are dropped; if none survive, the error from the
    last failure is raised.
    """
    control = dict(control or {})
    X = np.atleast_2d(np.asarray(X, dtype=float))
    y = np.asarray(y, dtype=float).reshape(-1, 1)
    n = X.shape[0]
    folds = min_rows(X, control)
    if folds < 2:
        raise ValueError("folds must be at least 2")
    if n < folds:
        raise ValueError("need at least as many rows as folds")
    names, per_member = _member_settings(control)

    rng = np.random.default_rng(control.get("seed"))
    order = rng.permutation(n)
    fold_of = np.empty(n, dtype=int)
    for k, chunk in enumerate(np.array_split(order, folds)):
        fold_of[chunk] = k

    fitted, kept_names, oof_cols = [], [], []
    last_error: Optional[Exception] = None
    for name in names:
        if callable(name):
            fitter, label = name, getattr(name, "__name__", "custom")
        else:
            if name not in MEMBER_FITTERS:
                raise ValueError(f"unknown stack member {name!r}")
            fitter, label = MEMBER_FITTERS[name], name
        sub = dict(per_member.get(label, {}))
        sub.setdefault("seed", control.get("seed"))
        sub.setdefault("types", control.get("types"))
        try:
            full = fitter(X, y, sub)
            if hasattr(full, "fold_predictions"):
                oof = full.fold_predictions(fold_of)
            else:
                oof = np.empty(n)
                for k in range(folds):
                    test = fold_of == k
                    part = fitter(X[~test], y[~test], sub)
                    oof[test] = np.asarray(part.predict(X[test])).reshape(-1)
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
    """argmin ||a x - b|| over x >= 0 (Lawson & Hanson, 1974, ch. 23).

    The active-set method: a column joins the passive set P while the
    gradient a'(b - a x) is above a rounding tolerance at some column
    outside P (the largest joins), and x becomes the least-squares solution
    on P's columns.  Where that solution is not positive, x moves from the
    last feasible point toward it until one more entry reaches zero, that
    column leaves P and the solve repeats.  A column whose own entry comes
    out nonpositive the moment it joins ends the search, as rounding would
    otherwise let it join and leave forever.
    """
    n = a.shape[1]
    x = np.zeros(n)
    passive = np.zeros(n, dtype=bool)
    tol = 10.0 * np.finfo(float).eps * np.abs(a).sum(axis=0).max() * max(a.shape)

    def least_squares() -> np.ndarray:
        z = np.zeros(n)
        if passive.any():
            z[passive] = np.linalg.lstsq(a[:, passive], b, rcond=None)[0]
        return z

    while not passive.all():
        w = np.where(passive, -np.inf, a.T @ (b - a @ x))
        j = int(np.argmax(w))
        if not w[j] > tol:
            break
        passive[j] = True
        z = least_squares()
        if not z[j] > 0.0:
            passive[j] = False
            break
        while not np.all(z[passive] > 0.0):
            bad = passive & (z <= 0.0)
            ratio = np.where(bad, x / np.where(bad, x - z, 1.0), np.inf)
            k = int(np.argmin(ratio))
            x = x + ratio[k] * (z - x)
            x[k] = 0.0
            passive &= x > 0.0
            x[~passive] = 0.0
            z = least_squares()
        x = z
    return x
