"""Benchmark objectives and the simulated-annealing tuning scenario.

All engine-facing objectives map an (m, d) matrix to an (m, 1) column of
values, one per row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .design import _resolve, query_rows


def fun_sphere(x: np.ndarray) -> np.ndarray:
    """Sum of squares, applied row-wise."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    return np.sum(x**2, axis=1, keepdims=True)


def fun_cubic(x: np.ndarray) -> np.ndarray:
    """Row-wise sum of (x_i^3 - 1)."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    return np.sum(x**3 - 1.0, axis=1, keepdims=True)


def fun_branin(x: np.ndarray) -> np.ndarray:
    x = query_rows(x, 2, "branin's x")
    x1, x2 = x[:, 0], x[:, 1]
    a = x2 - 5.1 / (4.0 * np.pi**2) * x1**2 + 5.0 / np.pi * x1 - 6.0
    y = a**2 + 10.0 * (1.0 - 1.0 / (8.0 * np.pi)) * np.cos(x1) + 10.0
    return y.reshape(-1, 1)


def fun_branin_factor(x: np.ndarray) -> np.ndarray:
    """Branin of columns 1-2; factor level 1, 2 or 3 in column 3 adds 1, -1 or 0."""
    x = query_rows(x, 3, "braninFactor's x")
    y = fun_branin(x[:, :2])
    levels = np.rint(x[:, 2]).astype(int)
    if not np.all(np.isin(levels, [1, 2, 3])):
        raise ValueError("factor level must be 1, 2 or 3")
    shift = np.choose(levels - 1, [1.0, -1.0, 0.0])
    return y + shift.reshape(-1, 1)


def metropolis_accept(delta: float, temperature: float, u: float) -> bool:
    """Accept rule for a proposed move with objective change `delta`.

    Improving or equal moves are always accepted; worsening moves with
    probability exp(-delta / temperature), decided by the uniform draw `u`.
    """
    if delta <= 0.0:
        return True
    t = max(float(temperature), 1e-300)
    return u < math.exp(-min(delta / t, 700.0))


@dataclass
class SannParams:
    """Settings for one annealing run."""

    par: Sequence[float]
    maxit: int = 100
    temp: float = 10.0
    tmax: int = 10
    seed: Optional[int] = None


@dataclass
class SannResult:
    par: np.ndarray
    value: float
    counts: int


def sann_minimize(fn: Callable[[np.ndarray], float], params: SannParams) -> SannResult:
    """Simulated annealing with logarithmic cooling.

    The start point is evaluated once for bookkeeping; `counts` reports the
    number of proposal evaluations, which is exactly `maxit`.  The proposals
    run in stages of `tmax`, the last one shorter when `tmax` does not
    divide `maxit`; the stage whose first proposal is number j*tmax + 1 runs
    at temperature temp / ln(j*tmax + e), so the first stage runs at the
    starting temperature.  Proposals are Gaussian steps with per-dimension
    scale equal to the current temperature (clamped below at 1e-8), each
    followed by one `random()` draw for the accept decision, and the best
    point ever visited is returned.  `par` must be finite, and `maxit` and
    `tmax` whole numbers; an integral float gives the same run as the
    integer.
    """
    if not math.isfinite(params.temp):
        raise ValueError(f"temp must be finite, got {params.temp}")
    for name in ("maxit", "tmax"):
        value = getattr(params, name)
        if not math.isfinite(value) or value != int(value):
            raise ValueError(f"{name} must be a whole number, got {value}")
    if params.temp <= 0.0:
        raise ValueError("temp must be positive")
    if params.tmax < 1:
        raise ValueError("tmax must be at least 1")
    if params.maxit < 1:
        raise ValueError("maxit must be at least 1")
    maxit, tmax = int(params.maxit), int(params.tmax)
    cur = np.asarray(params.par, dtype=float).copy()
    if not np.isfinite(cur).all():
        raise ValueError(f"par (the scenario's x0) must be finite, got {params.par}")
    rng = np.random.default_rng(params.seed)
    normal, random = rng.normal, rng.random
    shape = cur.shape
    cur_y = float(fn(cur))
    # no array is changed in place, so the best point can share its buffer
    best, best_y = cur, cur_y
    for first in range(0, maxit, tmax):
        t = params.temp / math.log(first + math.e)
        scale = max(t, 1e-8)
        for _ in range(min(tmax, maxit - first)):
            prop = cur + normal(0.0, scale, size=shape)
            prop_y = float(fn(prop))
            if prop_y < best_y:
                best, best_y = prop, prop_y
            if metropolis_accept(prop_y - cur_y, t, random()):
                cur, cur_y = prop, prop_y
    return SannResult(par=best, value=best_y, counts=maxit)


@dataclass
class TuningProblem:
    """Scenario handed to the annealing wrapper: what to solve and how long.

    The wrapped objective `fn` takes a parameter vector and returns a scalar.
    """

    x0: Sequence[float] = (10.0, 10.0)
    maxit: int = 100
    fn: Callable[[np.ndarray], float] = field(
        # np.sum's reduction without its Python wrapper
        default=lambda v: float(np.add.reduce(np.square(np.asarray(v, dtype=float)), axis=None))
    )


DEFAULT_SANN_SCENARIO = TuningProblem()


def sann2spot(
    algpar: np.ndarray,
    scenario: TuningProblem = DEFAULT_SANN_SCENARIO,
    seed: Optional[int] = None,
) -> np.ndarray:
    """Run one annealing attempt per (temp, tmax) row and report its value.

    When a seed is given, row i runs with seed + i so replicate rows stay
    reproducible but independent.
    """
    algpar = query_rows(algpar, 2, "algpar (temp, tmax)")
    out = np.empty((algpar.shape[0], 1))
    for i, (temp, tmax) in enumerate(algpar):
        # sann_minimize checks temp; round() needs a finite tmax first
        if not math.isfinite(tmax):
            raise ValueError(f"tmax must be finite, got {tmax}")
        params = SannParams(
            par=scenario.x0,
            maxit=scenario.maxit,
            temp=float(temp),
            tmax=max(1, int(round(tmax))),
            seed=None if seed is None else seed + i,
        )
        out[i, 0] = sann_minimize(scenario.fn, params).value
    return out


def make_sann_objective(
    scenario: TuningProblem = DEFAULT_SANN_SCENARIO,
) -> Callable[..., np.ndarray]:
    """Bind a tuning scenario into an engine-facing objective."""

    def objective(x: np.ndarray, seed: Optional[int] = None) -> np.ndarray:
        return sann2spot(x, scenario=scenario, seed=seed)

    return objective


_REGISTRY: dict[str, Callable[..., np.ndarray]] = {
    "sphere": fun_sphere,
    "cubic": fun_cubic,
    "branin": fun_branin,
    "braninFactor": fun_branin_factor,
    "sannSphere": make_sann_objective(),
}


def get_objective(name: str) -> Callable[..., np.ndarray]:
    """Look up an objective by its public name; a callable passes through."""
    return _resolve(_REGISTRY, name, "objective")
