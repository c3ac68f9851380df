"""Bounded single-objective search over vectorized functions.

Both optimizers evaluate objectives that map an (m, d) matrix to an (m, 1)
column, record every evaluated point, and never step outside the box.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .design import ParamSpace, sample_lhd


@dataclass
class OptResult:
    """Everything a search evaluated plus the incumbent."""

    x: np.ndarray
    y: np.ndarray
    xbest: np.ndarray
    ybest: float
    count: int
    msg: str


def _finish(x: np.ndarray, y: np.ndarray, msg: str = "success") -> OptResult:
    y = y.reshape(-1, 1)
    best = int(np.argmin(y[:, 0]))
    return OptResult(
        x=x,
        y=y,
        xbest=x[best].copy(),
        ybest=float(y[best, 0]),
        count=y.shape[0],
        msg=msg,
    )


def optim_lhd(
    start: Optional[np.ndarray],
    fun: Callable[[np.ndarray], np.ndarray],
    lower: np.ndarray,
    upper: np.ndarray,
    control: Optional[dict] = None,
) -> OptResult:
    """Best of control["funEvals"] (default 100) snapped Latin hypercube points.

    `start` is ignored, the way designs ignore `existing`.
    """
    control = dict(control or {})
    fun_evals = int(control.get("funEvals", 100))
    if fun_evals < 1:
        raise ValueError("funEvals must be at least 1")
    space = ParamSpace(lower, upper, tuple(control.get("types", ())))
    rng = np.random.default_rng(control.get("seed"))
    x = space.snap(sample_lhd(rng, space, fun_evals))
    y = np.asarray(fun(x), dtype=float)
    return _finish(x, y)


class _BudgetExhausted(Exception):
    pass


# relative step of the difference gradient, as a fraction of max(1, |x_k|)
_STEP = 1e-6


def _difference_rows(x: np.ndarray, lower: np.ndarray, upper: np.ndarray):
    """The 2d + 1 rows of a difference gradient at x, and the gradient rule.

    Rows are x, then x + a_k e_k and x + b_k e_k for every axis k.  Where a
    step of h_k = _STEP max(1, |x_k|) fits either way, (a_k, b_k) =
    (h_k, -h_k) and the gradient is the central difference.  Otherwise
    both steps go toward the farther bound, (a_k, b_k) = (s h_k, 2 s h_k)
    with h_k cut to fit, and the gradient is the one-sided three-point
    formula; a zero-width axis gets zero.  Every row lies inside the box.
    """
    h = _STEP * np.maximum(1.0, np.abs(x))
    up, down = upper - x, x - lower
    central = (h <= up) & (h <= down)
    h = np.where(central, h, np.minimum(h, np.maximum(up, down) / 2.0))
    sign = np.where(up >= down, 1.0, -1.0)
    first = np.where(central, h, sign * h)
    second = np.where(central, -h, 2.0 * sign * h)
    eye = np.eye(x.size)
    rows = np.vstack([x, x + first[:, None] * eye, x + second[:, None] * eye])
    rows = np.clip(rows, lower, upper)

    def gradient(vals: np.ndarray) -> np.ndarray:
        f0, f1, f2 = vals[0], vals[1 : x.size + 1], vals[x.size + 1 :]
        with np.errstate(divide="ignore", invalid="ignore"):
            slope = np.where(
                central, (f1 - f2) / (2.0 * h), (4.0 * f1 - f2 - 3.0 * f0) / (2.0 * first)
            )
        return np.where(h > 0, slope, 0.0)

    return rows, gradient


def optim_local_bounded(
    start: Optional[np.ndarray],
    fun: Callable[[np.ndarray], np.ndarray],
    lower: np.ndarray,
    upper: np.ndarray,
    control: Optional[dict] = None,
) -> OptResult:
    """Projected quasi-Newton descent (L-BFGS-B) on the box.

    Starts from `start` (or the box center) and stops once
    control["funEvals"] rows (default 100) have been evaluated.  When `fun`
    carries a `mean_and_gradient` callable, which maps an (m, d) matrix to
    the (m, 1) values and their (m, d) gradient, each iterate is one call
    of it on one row.  Otherwise each iterate is one call of `fun` on the
    2d + 1 rows of `_difference_rows`, and its gradient comes from their
    differences; a call that the budget cuts short evaluates the rows that
    fit and ends the search.  Every evaluated row lies inside the box, is
    recorded and counts against funEvals.
    """
    control = dict(control or {})
    fun_evals = int(control.get("funEvals", 100))
    if fun_evals < 1:
        raise ValueError("funEvals must be at least 1")
    lower = np.atleast_1d(np.asarray(lower, dtype=float))
    upper = np.atleast_1d(np.asarray(upper, dtype=float))
    if start is None:
        x0 = (lower + upper) / 2.0
    else:
        x0 = np.asarray(start, dtype=float).reshape(-1)
    if np.any(x0 < lower) or np.any(x0 > upper):
        raise ValueError("start point outside bounds")

    seen_x: list[np.ndarray] = []
    seen_y: list[np.ndarray] = []

    def record(rows: np.ndarray, vals) -> np.ndarray:
        vals = np.asarray(vals, dtype=float).reshape(-1)
        if vals.size != rows.shape[0]:
            raise ValueError("objective returned the wrong number of values")
        if not seen_y and not np.isfinite(vals[0]):
            raise ValueError("objective not finite at the start point")
        seen_x.append(rows)
        seen_y.append(vals)
        return vals

    mean_and_gradient = getattr(fun, "mean_and_gradient", None)

    def value_and_gradient(v: np.ndarray):
        left = fun_evals - sum(vals.size for vals in seen_y)
        if left <= 0:
            raise _BudgetExhausted()
        if mean_and_gradient is not None:
            row = v.reshape(1, -1).copy()
            mean, grad = mean_and_gradient(row)
            return record(row, mean)[0], np.asarray(grad, dtype=float).reshape(-1)
        rows, gradient = _difference_rows(v, lower, upper)
        vals = record(rows[:left], fun(rows[:left]))
        if left < rows.shape[0]:
            raise _BudgetExhausted()
        return vals[0], gradient(vals)

    from scipy.optimize import minimize
    msg = "success"
    try:
        minimize(
            value_and_gradient,
            x0,
            method="L-BFGS-B",
            jac=True,
            bounds=list(zip(lower, upper)),
            options={"maxfun": fun_evals, "ftol": 1e-14, "gtol": 1e-10},
        )
    except _BudgetExhausted:
        msg = "budget exhausted"
    return _finish(np.vstack(seen_x), np.concatenate(seen_y), msg)
