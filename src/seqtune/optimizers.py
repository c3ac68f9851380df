"""Bounded single-objective search over vectorized functions.

Both optimizers evaluate objectives that map an (m, d) matrix to an (m, 1)
column, record every evaluated point, and never step outside the box.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .design import ParamSpace, read_count, sample_lhd


@dataclass
class OptResult:
    """Everything a search evaluated plus the incumbent."""

    x: np.ndarray
    y: np.ndarray
    xbest: np.ndarray
    ybest: float
    count: int
    msg: str


def one_per_row(vals, rows: int) -> np.ndarray:
    """An objective's output as a flat float array of one value per row."""
    vals = np.asarray(vals, dtype=float).reshape(-1)
    if vals.size != rows:
        raise ValueError("objective returned the wrong number of values")
    return vals


def _finish(x: np.ndarray, vals, msg: str = "success") -> OptResult:
    y = one_per_row(vals, x.shape[0]).reshape(-1, 1)
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

    funEvals is a count (`read_count`); `fun` returns one value per point.
    The points are drawn from ParamSpace(lower, upper, control["types"]).
    `start` is ignored, the way designs ignore `existing`.
    """
    control = dict(control or {})
    fun_evals = read_count(control, "funEvals", 100)
    space = ParamSpace(lower, upper, control.get("types"))
    rng = np.random.default_rng(control.get("seed"))
    x = space.snap(sample_lhd(rng, space, fun_evals))
    return _finish(x, fun(x))


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
    """Projected quasi-Newton descent on the box (`_projected_bfgs`).

    Starts from `start` (or the box center) and stops once
    control["funEvals"] rows (default 100) have been evaluated.  When `fun`
    carries a `mean_and_gradient` callable, which maps an (m, d) matrix to
    the (m, 1) values and their (m, d) gradient, each iterate is one call
    of it on one row.  Otherwise each iterate is one call of `fun` on the
    2d + 1 rows of `_difference_rows`, and its gradient comes from their
    differences; a call that the budget cuts short evaluates the rows that
    fit and ends the search.  Every evaluated row lies inside the box, is
    recorded and counts against funEvals, a count (`read_count`).  The box
    is ParamSpace(lower, upper): checked, never snapped.
    """
    control = dict(control or {})
    fun_evals = read_count(control, "funEvals", 100)
    space = ParamSpace(lower, upper)
    lower, upper = space.lower, space.upper
    if start is None:
        x0 = (lower + upper) / 2.0
    else:
        x0 = np.asarray(start, dtype=float).reshape(-1)
    if np.any(x0 < lower) or np.any(x0 > upper):
        raise ValueError("start point outside bounds")

    seen_x: list[np.ndarray] = []
    seen_y: list[np.ndarray] = []
    count = 0

    def record(rows: np.ndarray, vals) -> np.ndarray:
        nonlocal count
        vals = one_per_row(vals, rows.shape[0])
        if not count and not np.isfinite(vals[0]):
            raise ValueError("objective not finite at the start point")
        seen_x.append(rows)
        seen_y.append(vals)
        count += vals.size
        return vals

    mean_and_gradient = getattr(fun, "mean_and_gradient", None)

    def value_and_gradient(v: np.ndarray):
        left = fun_evals - count
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

    msg = "success"
    try:
        _projected_bfgs(value_and_gradient, x0, lower, upper)
    except _BudgetExhausted:
        msg = "budget exhausted"
    return _finish(np.vstack(seen_x), np.concatenate(seen_y), msg)


# stopping rules: a relative reduction of f below _FTOL, or a projected
# gradient below _GTOL in every coordinate
_FTOL = 1e-14
_GTOL = 1e-10
# sufficient-decrease constant of the Armijo backtrack
_ARMIJO = 1e-4


def _projected_bfgs(value_and_gradient, x: np.ndarray, lower: np.ndarray, upper: np.ndarray):
    """Minimize over the box by quasi-Newton steps on the free variables.

    A variable is held when it sits on a bound and its gradient points out
    of the box; the others are free (Byrd, Lu, Nocedal & Zhu, 1995, for the
    idea).  The step p solves B_FF p_F = -g_F, with B the dense BFGS
    estimate of the Hessian: its free block, rather than a block of the
    inverse, keeps the step a Newton step when the free set changes.  The
    trial points x(alpha) are the projections of x + alpha p onto the box.
    alpha starts at 1, or at the last value that still moves a variable,
    and a safeguarded quadratic fit cuts it until the Armijo condition
    holds.  B is the identity until the first curvature pair, which scales
    it by y'y / s'y; a pair with s'y <= eps |g's| is skipped.  The search
    stops when the projected gradient is below _GTOL, when a step reduces
    f by at most _FTOL relative, or when the decrease that the step
    promises, -alpha g'p, is that small (before the first curvature pair
    only once backtracking has cut alpha).
    """
    f, g = value_and_gradient(x)
    hess = None  # the identity until the first curvature pair
    while True:
        if np.max(np.abs(np.clip(x - g, lower, upper) - x)) <= _GTOL:
            return
        free = ~(((x <= lower) & (g > 0)) | ((x >= upper) & (g < 0)))
        step = np.where(free, -g, 0.0)
        if hess is not None:
            step[free] = np.linalg.solve(hess[np.ix_(free, free)], step[free])
        promised = -(g @ step)
        tol = _FTOL * max(abs(f), 1.0)
        # -g'g of the identity's step says nothing of f's scale; it only
        # has to be a descent
        if not promised > (0.0 if hess is None else tol):
            return
        # beyond the largest of these alphas every moving variable is clipped
        room = np.divide(np.where(step > 0.0, upper, lower) - x, step,
                         out=np.zeros_like(x), where=step != 0.0)
        alpha = min(1.0, room.max())
        if not alpha > 0.0:
            # the quasi-Newton step only pushes against the box
            hess = None
            continue
        while True:
            x_new = np.clip(x + alpha * step, lower, upper)
            s = x_new - x
            slope = g @ s
            if slope < 0.0:
                f_new, g_new = value_and_gradient(x_new)
                if f_new <= f + _ARMIJO * slope:
                    break
                # the minimizer of the quadratic through f, slope and f_new
                curv = f_new - f - slope
                cut = -slope / (2.0 * curv) if np.isfinite(curv) else 0.1
                alpha *= min(max(cut, 0.1), 0.5)
            else:
                alpha *= 0.5
            if alpha * promised <= tol:
                return
        y = g_new - g
        sy = s @ y
        # skip a pair whose curvature is rounding next to the step's slope
        if sy > -np.finfo(float).eps * slope:
            if hess is None:
                hess = np.eye(x.size) * ((y @ y) / sy)
            hs = hess @ s
            hess = hess - np.outer(hs, hs) / (s @ hs) + np.outer(y, y) / sy
        done = f - f_new <= _FTOL * max(abs(f), abs(f_new), 1.0)
        x, f, g = x_new, f_new, g_new
        if done:
            return
