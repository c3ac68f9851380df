"""Sequential model-based optimization over a typed box.

The run alternates between fitting a surrogate to every archived evaluation,
searching that surrogate for one promising candidate, and spending objective
evaluations on it (optionally replicated, optionally topped up by optimal
computing budget allocation for noisy objectives).  Every evaluation lands
in an archive recording the point, its value, the seed used and the
replicate index, and the run stops exactly at the evaluation budget.
"""

from __future__ import annotations

import inspect
import warnings
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .design import (
    _MODELS, DESIGNS, MEMBER_COUNT_KEYS, MEMBER_FLAG_KEYS, ParamSpace, _check_name, _fitter,
    _resolve, is_int, query_rows, read_count, read_flag, stack_members,
)
from .optimizers import OPTIMIZERS, one_per_row


class InfeasibleBudgetError(ValueError):
    """The evaluation budget cannot cover the initial design."""


# control keys that the designs, models and optimizers read as counts, with
# the least that each of them enforces (checked before any evaluation)
_INT_KEYS = {
    "designControl": {"size": 1, "replicates": 1, "retries": 1},
    "modelControl": {**dict.fromkeys(MEMBER_COUNT_KEYS, 1), "folds": 2},
    "optimizerControl": {"funEvals": 1},
}


@dataclass
class SpotConfig:
    """Run settings; field names match the run-config file format."""

    funEvals: int = 20
    types: tuple[str, ...] = ()
    design: Union[str, Callable] = "lhd"
    designControl: dict = field(default_factory=dict)
    model: Union[str, Callable] = "kriging"
    modelControl: dict = field(default_factory=dict)
    optimizer: Union[str, Callable] = "lhd"
    optimizerControl: dict = field(default_factory=dict)
    noise: bool = False
    OCBA: bool = False
    OCBAbudget: int = 3
    replicates: int = 1
    seedFun: Optional[int] = None
    seedSPOT: int = 1
    duplicate: str = "EXPLORE"

    def __post_init__(self):
        def bad(name: str, what: str) -> ValueError:
            return ValueError(f"{name} must be {what}, got {getattr(self, name)!r}")

        for name, least in (("funEvals", 1), ("replicates", 1), ("OCBAbudget", 0)):
            read_count(vars(self), name, None, least)
        if self.seedFun is not None and not is_int(self.seedFun):
            raise bad("seedFun", "an integer or none")
        if not (is_int(self.seedSPOT) and self.seedSPOT >= 0):
            raise bad("seedSPOT", "a nonnegative integer")
        for name in ("noise", "OCBA"):
            read_flag(vars(self), name, None)
        for name, keys in _INT_KEYS.items():
            section = getattr(self, name)
            if not isinstance(section, dict):
                raise bad(name, "a section of keys")
            seed = section.get("seed")
            if seed is not None and not (is_int(seed) and seed >= 0):
                raise ValueError(
                    f"{name} seed must be a nonnegative integer or none, got {seed!r}"
                )
            if "types" in section:
                raise ValueError(f"{name} cannot set types; set them once, for the run")
            for key, least in keys.items():
                if key in section:
                    read_count(section, key, None, least, f"{name} {key}")
        for key in MEMBER_FLAG_KEYS:
            read_flag(self.modelControl, key, False, f"modelControl {key}")
        _check_name(OPTIMIZERS, self.modelControl.get("algTheta", "lhd"), "algTheta")
        if self.model == "stack":
            stack_members(self.modelControl)
        if self.duplicate not in ("EXPLORE", "STOP"):
            raise ValueError("duplicate must be EXPLORE or STOP")
        _check_name(DESIGNS, self.design, "design")
        _check_name(_MODELS, self.model, "model")
        _check_name(OPTIMIZERS, self.optimizer, "optimizer")
        if self.types is None or isinstance(self.types, list):
            self.types = tuple(self.types or ())


@dataclass
class SpotResult:
    """A run's one record: a row per evaluation, and how the run ended."""

    x: np.ndarray
    y: np.ndarray
    seeds: list
    replicates: np.ndarray
    msg: str = "budget exhausted"
    modelFit: Optional[object] = None

    @classmethod
    def empty(cls, dim: int) -> "SpotResult":
        return cls(np.empty((0, dim)), np.empty((0, 1)), [], np.empty(0, dtype=int))

    @property
    def count(self) -> int:
        return self.y.shape[0]

    @property
    def xbest(self) -> np.ndarray:
        """A copy of the first row with the smallest value."""
        return self.x[int(np.argmin(self.y[:, 0]))].copy()

    @property
    def ybest(self) -> float:
        return float(np.min(self.y[:, 0]))

    def append(self, x_row: np.ndarray, y_val: float, seed: Optional[int]) -> None:
        """Archive one evaluation; a non-finite value is stored as inf."""
        x_row = np.asarray(x_row, dtype=float).reshape(1, -1)
        prior = int(np.sum(np.all(self.x == x_row, axis=1)))
        self.x = np.vstack([self.x, x_row])
        self.y = np.vstack([self.y, [[y_val if np.isfinite(y_val) else np.inf]]])
        self.seeds.append(seed)
        self.replicates = np.append(self.replicates, prior + 1)


_MAX_DRAWS = 1000


def apply_duplicate_policy(
    candidate: np.ndarray,
    archive_x: np.ndarray,
    policy: str,
    space: ParamSpace,
    rng: np.random.Generator,
) -> Optional[np.ndarray]:
    """Resolve a candidate that duplicates an archived point.

    EXPLORE swaps in a fresh uniform draw (snapped to the space's types),
    retrying at most `_MAX_DRAWS` times before it raises RuntimeError; STOP
    returns None so the caller can end the run.  A candidate that is not a
    duplicate passes through.
    """
    candidate = np.asarray(candidate, dtype=float).reshape(-1)
    if not np.any(np.all(archive_x == candidate, axis=1)):
        return candidate
    if policy == "STOP":
        return None
    if policy != "EXPLORE":
        raise ValueError("duplicate must be EXPLORE or STOP")
    for _ in range(_MAX_DRAWS):
        draw = space.snap(rng.uniform(space.lower, space.upper, size=space.dim))[0]
        if not np.any(np.all(archive_x == draw, axis=1)):
            return draw
    raise RuntimeError(
        f"could not find a non-duplicate replacement in {_MAX_DRAWS} draws"
    )


def _accepts_seed(fun: Callable) -> bool:
    try:
        return "seed" in inspect.signature(fun).parameters
    except (TypeError, ValueError):
        return False


def _evaluate(
    fun: Callable,
    rows: np.ndarray,
    cfg: SpotConfig,
    archive: SpotResult,
    pass_seed: bool,
) -> None:
    """Evaluate rows one batch or one seeded row at a time, archiving all.

    A seeded row's seed is seedFun plus the number of rows archived before
    it, so seeds step by one per evaluation, across continuations too.
    """
    rows = np.atleast_2d(rows)
    seeded = cfg.noise and cfg.seedFun is not None
    if seeded:
        for row in rows:
            s = cfg.seedFun + archive.count
            np.random.seed(s % 2**32)
            kwargs = {"seed": s} if pass_seed else {}
            archive.append(row, one_per_row(fun(row.reshape(1, -1), **kwargs), 1)[0], s)
    else:
        for row, val in zip(rows, one_per_row(fun(rows), rows.shape[0])):
            archive.append(row, val, None)


def _min_rows(cfg: SpotConfig, x: np.ndarray) -> int:
    """The fewest rows like x that `fit_surrogate` fits the configured model to."""
    rule = _fitter(cfg.model)[1]
    return max(2, rule(x, cfg.modelControl)) if rule else 2


def fit_surrogate(x: np.ndarray, y: np.ndarray, control=None, seed=None):
    """Fit the configured surrogate to the finite rows of an archive.

    The model gets the config's modelControl plus the run's types and, where
    modelControl names none, `seed`.
    """
    cfg = _normalize_config(control)
    finite = np.isfinite(np.asarray(y, dtype=float).reshape(-1))
    need = _min_rows(cfg, x[finite])
    if finite.sum() < need:
        raise ValueError(
            f"{finite.sum()} finite evaluations cannot fit the model, it needs {need}"
        )
    ctl = dict(cfg.modelControl)
    ctl["types"] = cfg.types
    ctl.setdefault("seed", seed)
    return _fitter(cfg.model)[0](x[finite], y[finite], ctl)


def _optimizer_control(cfg: SpotConfig, rng: np.random.Generator) -> dict:
    ctl = dict(cfg.optimizerControl)
    ctl.setdefault("funEvals", 100)
    ctl["types"] = cfg.types
    ctl.setdefault("seed", int(rng.integers(2**31 - 1)))
    return ctl


def _surrogate(model) -> Callable:
    """The model's predict as an (m, d) -> (m, 1) search objective.

    It carries the model's `mean_and_gradient` (None when the model has
    none), which `optim_local_bounded` uses in place of differences.
    """
    def predict(xq: np.ndarray) -> np.ndarray:
        return np.asarray(model.predict(xq)).reshape(-1, 1)

    predict.mean_and_gradient = getattr(model, "mean_and_gradient", None)
    return predict


def _ocba_step(
    fun: Callable,
    cfg: SpotConfig,
    archive: SpotResult,
    pass_seed: bool,
) -> None:
    """Spend the OCBA top-up budget on the most informative replications."""
    extra = min(cfg.OCBAbudget, cfg.funEvals - archive.count)
    if extra <= 0:
        return
    configs, inverse = np.unique(archive.x, axis=0, return_inverse=True)
    means = np.empty(configs.shape[0])
    variances = np.empty(configs.shape[0])
    counts = np.empty(configs.shape[0], dtype=int)
    for g in range(configs.shape[0]):
        vals = archive.y[inverse == g, 0]
        counts[g] = vals.size
        means[g] = vals.mean()
        variances[g] = vals.var(ddof=1) if vals.size > 1 else 0.0
    ok = (counts >= 2) & np.isfinite(means) & np.isfinite(variances)
    if ok.sum() < 2 or np.all(variances[ok] == 0.0):
        return
    from .ocba import ocba_allocate

    alloc = ocba_allocate(means[ok], variances[ok], counts[ok], extra)
    for sub_idx, n_extra in enumerate(alloc):
        if n_extra > 0:
            row = configs[np.flatnonzero(ok)[sub_idx]]
            reps = np.repeat(row.reshape(1, -1), n_extra, axis=0)
            _evaluate(fun, reps, cfg, archive, pass_seed)


def _run(
    fun: Callable,
    cfg: SpotConfig,
    space: ParamSpace,
    rng: np.random.Generator,
    archive: SpotResult,
    design: Optional[np.ndarray] = None,
) -> SpotResult:
    """Evaluate `design`, then fit, search and evaluate until the budget is spent."""
    pass_seed = _accepts_seed(fun)
    # a seeded row hands its seed to the objective, and numpy's generators
    # take no negative seed: reject one before any evaluation
    if pass_seed and cfg.noise and cfg.seedFun is not None and cfg.seedFun < 0:
        raise ValueError("seedFun must be nonnegative for an objective that takes "
                         f"a seed, got {cfg.seedFun}")
    # seeded evaluations reseed numpy's global generator: the caller gets its
    # stream back as it was (an unseeded run leaves the stream to the objective)
    state = np.random.get_state() if cfg.noise and cfg.seedFun is not None else None
    try:
        if design is not None:
            _evaluate(fun, design, cfg, archive, pass_seed)
        run_search = _resolve(OPTIMIZERS, cfg.optimizer, "optimizer")

        while archive.count < cfg.funEvals:
            # the model seed is drawn even when modelControl sets its own, so
            # the generator's sequence does not depend on modelControl
            seed = int(rng.integers(2**31 - 1))
            model = archive.modelFit = fit_surrogate(archive.x, archive.y, cfg, seed)
            # a continued archive may hold a best row outside the box
            search = run_search(
                np.clip(archive.xbest, space.lower, space.upper),
                _surrogate(model),
                space.lower,
                space.upper,
                _optimizer_control(cfg, rng),
            )
            candidate = space.snap(search.xbest)[0]
            if not cfg.noise:
                try:
                    candidate = apply_duplicate_policy(
                        candidate, archive.x, cfg.duplicate, space, rng
                    )
                except RuntimeError:
                    archive.msg = "stopped: no unevaluated point found to explore"
                    break
                if candidate is None:
                    archive.msg = "stopped on duplicate candidate (duplicate=STOP)"
                    break
            reps = min(cfg.replicates, cfg.funEvals - archive.count)
            rows = np.repeat(candidate.reshape(1, -1), reps, axis=0)
            _evaluate(fun, rows, cfg, archive, pass_seed)
            if cfg.OCBA and cfg.noise:
                _ocba_step(fun, cfg, archive, pass_seed)

        return archive
    finally:
        if state is not None:
            np.random.set_state(state)


def _normalize_config(control) -> SpotConfig:
    if control is None:
        return SpotConfig()
    if isinstance(control, SpotConfig):
        return control
    if isinstance(control, dict):
        return SpotConfig(**control)
    raise ValueError("control must be a SpotConfig, dict or None")


def _setup(lower, upper, control):
    cfg = _normalize_config(control)
    return cfg, ParamSpace(lower, upper, cfg.types), np.random.default_rng(cfg.seedSPOT)


def _initial_rows(x, cfg: SpotConfig, space: ParamSpace, rng) -> np.ndarray:
    ctl = dict(cfg.designControl)
    seed = ctl.get("seed")
    ctl["seed"] = int(rng.integers(2**31 - 1)) if seed is None else int(seed)
    replicates = read_count(ctl, "replicates", 1, name="designControl replicates")
    if cfg.noise and cfg.OCBA and replicates < 2 and cfg.replicates < 2:
        warnings.warn(
            "OCBA needs repeated evaluations to estimate variances; "
            "set replicates above one",
            stacklevel=3,
        )
    rows = []
    if x is not None:
        x = query_rows(x, space.dim, "start rows x")
        rows.append(space.snap(x))
    design_fn = _resolve(DESIGNS, cfg.design, "design")
    rows.append(query_rows(design_fn(x, space, ctl), space.dim, "the design"))
    return np.repeat(np.vstack(rows), replicates, axis=0)


def initial_design(
    x: Optional[np.ndarray],
    lower: Sequence[float],
    upper: Sequence[float],
    control=None,
) -> np.ndarray:
    """The rows `spot` evaluates first under the same arguments, in order.

    These are the supplied rows `x`, then the design drawn from the generator
    seeded by seedSPOT, each row repeated designControl.replicates times.
    """
    cfg, space, rng = _setup(lower, upper, control)
    return _initial_rows(x, cfg, space, rng)


def spot(
    x: Optional[np.ndarray],
    fun: Callable,
    lower: Sequence[float],
    upper: Sequence[float],
    control=None,
) -> SpotResult:
    """Run one budgeted sequential optimization from scratch.

    `x` may hold extra starting rows evaluated alongside the initial design.
    The objective takes an (m, d) matrix and returns an (m, 1) column; when
    noise bookkeeping is active it may also accept a per-row seed argument.
    """
    cfg, space, rng = _setup(lower, upper, control)
    initial = _initial_rows(x, cfg, space, rng)
    if initial.shape[0] > cfg.funEvals:
        raise InfeasibleBudgetError(
            f"initial design needs {initial.shape[0]} evaluations, "
            f"budget is {cfg.funEvals}"
        )
    # unless the design spends the budget, the first model fit takes all of
    # it: check that it is big enough before evaluating any of it
    need = _min_rows(cfg, initial)
    if initial.shape[0] < min(need, cfg.funEvals):
        raise ValueError(
            f"the first model fit needs at least {need} initial design rows, "
            f"got {initial.shape[0]}"
        )
    return _run(fun, cfg, space, rng, SpotResult.empty(space.dim), initial)


def spot_loop(
    x: np.ndarray,
    y: np.ndarray,
    fun: Callable,
    lower: Sequence[float],
    upper: Sequence[float],
    control=None,
    seeds: Optional[Sequence[Optional[int]]] = None,
) -> SpotResult:
    """Resume a run from an existing archive up to a larger budget.

    Rows already evaluated are kept verbatim as the archive prefix, with
    `seeds` as their seeds (None: unknown); new seeded rows continue at
    seedFun plus the number of prior rows, one per past evaluation.  If the
    budget is already spent, the archive is returned unchanged.
    """
    cfg, space, rng = _setup(lower, upper, control)
    x = query_rows(x, space.dim)
    y = np.asarray(y, dtype=float).reshape(-1, 1)
    if x.shape[0] != y.shape[0]:
        raise ValueError("x and y row counts differ")
    if seeds is None:
        seeds = [None] * x.shape[0]
    elif len(seeds) != x.shape[0]:
        raise ValueError("seeds and x row counts differ")
    archive = SpotResult.empty(space.dim)
    for row, val, seed in zip(x, y[:, 0], seeds):
        archive.append(row, val, seed)
    return _run(fun, cfg, space, rng, archive)
