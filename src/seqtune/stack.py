"""Stacked surrogate: a nonnegative blend of heterogeneous base models.

Members are fit on the full data; their blend weights come from K-fold
out-of-fold predictions solved by nonnegative least squares and normalized
to sum to one, so the stack prediction is always a convex combination of
member predictions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .forest import fit_forest
from .kriging import fit_kriging
from .rsm import fit_rsm

DEFAULT_MEMBERS = ("kriging", "forest", "rsm")

_FITTERS = {
    "kriging": fit_kriging,
    "forest": fit_forest,
    "rsm": fit_rsm,
}


@dataclass
class StackFit:
    members: list
    member_names: list
    weights: np.ndarray

    def predict(self, xnew: np.ndarray) -> np.ndarray:
        xnew = np.atleast_2d(np.asarray(xnew, dtype=float))
        out = np.zeros((xnew.shape[0], 1))
        for w, member in zip(self.weights, self.members):
            out += w * np.asarray(member.predict(xnew), dtype=float).reshape(-1, 1)
        return out


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
    control dicts).  Members that fail to fit on the full data or on any
    fold, or that predict a non-finite value out of fold, are dropped; if
    none survive, the error from the last failure is raised.
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
            if name not in _FITTERS:
                raise ValueError(f"unknown stack member {name!r}")
            fitter, label = _FITTERS[name], name
        sub = dict(per_member.get(label, {}))
        sub.setdefault("seed", control.get("seed"))
        sub.setdefault("types", control.get("types"))
        try:
            full = fitter(X, y, sub)
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
    from scipy.optimize import nnls
    weights, _ = nnls(np.column_stack(oof_cols), y.reshape(-1))
    if weights.sum() <= 0:
        weights = np.full(len(fitted), 1.0 / len(fitted))
    else:
        weights = weights / weights.sum()
    return StackFit(members=fitted, member_names=kept_names, weights=weights)
