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


def optim_local_bounded(
    start: Optional[np.ndarray],
    fun: Callable[[np.ndarray], np.ndarray],
    lower: np.ndarray,
    upper: np.ndarray,
    control: Optional[dict] = None,
) -> OptResult:
    """Projected quasi-Newton descent with central finite differences.

    Starts from `start` (or the box center), keeps every iterate and
    difference step inside the bounds, and stops once control["funEvals"]
    evaluations (default 100) have been spent.
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
    seen_y: list[float] = []

    def scalar(v: np.ndarray) -> float:
        if len(seen_y) >= fun_evals:
            raise _BudgetExhausted()
        val = float(np.asarray(fun(v.reshape(1, -1)), dtype=float).reshape(-1)[0])
        if not seen_y and not np.isfinite(val):
            raise ValueError("objective not finite at the start point")
        seen_x.append(v.copy())
        seen_y.append(val)
        return val

    from scipy.optimize import minimize
    msg = "success"
    try:
        minimize(
            scalar,
            x0,
            method="L-BFGS-B",
            jac="3-point",
            bounds=list(zip(lower, upper)),
            options={
                "maxfun": fun_evals,
                "finite_diff_rel_step": 1e-6,
                "ftol": 1e-14,
                "gtol": 1e-10,
            },
        )
    except _BudgetExhausted:
        msg = "budget exhausted"
    return _finish(np.vstack(seen_x), np.asarray(seen_y), msg)
