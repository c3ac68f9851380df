"""Space-filling designs over box-bounded, typed parameter spaces.

Supported variable types are "numeric" (continuous), "integer" (rounded to
the nearest whole number) and "factor" (categorical levels encoded as the
integers between the bounds).  Latin hypercube sampling stratifies every
dimension before any snapping, so continuous columns keep exactly one point
per equal-width bin.

`read_count`, `read_flag`, `read_types`, `training_data`, `query_rows` and
`ParamSpace` own the input rules that every model and the engine share.
`_check_name`, `_resolve` and `stack_members` own the name rule for designs
(`DESIGNS`), models (`_MODELS`, loaded by `_fitter`), searches, stack
members and objectives.
"""

from __future__ import annotations

import importlib
import numbers
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

VALID_TYPES = ("numeric", "integer", "factor")

# the built-in models: seqtune.<name> defines fit_<name>, which _fitter loads
# on the model's first fit; a stack's members are the others
_MODELS = ("forest", "kriging", "rsm", "stack")
DEFAULT_MEMBERS = ("kriging", "forest", "rsm")

# the model control keys that the built-in models read as counts and as flags
MEMBER_COUNT_KEYS = ("budget", "ntree", "mtry", "min_node_size")
MEMBER_FLAG_KEYS = ("useLambda", "mainEffectsOnly", "canonical")


def is_int(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def read_count(control: dict, key: str, default, least: int = 1, name=None) -> int:
    """control[key], or `default` when absent, as a count: an integer (not a
    bool, nor a float such as 3.0) of at least `least`, or ValueError naming
    `name` (default: key)."""
    value = control.get(key, default)
    if not is_int(value):
        raise ValueError(f"{name or key} must be an integer, got {value!r}")
    if value < least:
        raise ValueError(f"{name or key} must be at least {least}, got {value!r}")
    return int(value)


def read_flag(control: dict, key: str, default, name=None) -> bool:
    """control[key], or `default` when absent, as a flag: True or False, not
    1 nor "false", or ValueError naming `name` (default: key)."""
    value = control.get(key, default)
    if not isinstance(value, bool):
        raise ValueError(f"{name or key} must be true or false, got {value!r}")
    return value


def _check_name(known, value, kind: str) -> None:
    """Pass a callable or a name in `known`; anything else is a ValueError."""
    if not (callable(value) or (isinstance(value, str) and value in known)):
        names = ", ".join(sorted(known))
        raise ValueError(f"unknown {kind} {value!r} (known: {names})")


def _resolve(table: dict, value, kind: str):
    _check_name(table, value, kind)
    return value if callable(value) else table[value]


def _fitter(model) -> tuple[Callable, Optional[Callable]]:
    """The model's fit and its min_rows rule (None: it has none), importing
    a built-in model's module on first use; min_rows gives the rows that the
    fit needs beyond fit_surrogate's two, from the rows' spread."""
    _check_name(_MODELS, model, "model")
    if callable(model):
        return model, None
    module = importlib.import_module(f".{model}", __package__)
    return getattr(module, f"fit_{model}"), getattr(module, "min_rows", None)


def stack_members(control: dict) -> list:
    """The stack's members list, checked before any member is fit or loaded.

    A single name or callable is a one-member list, and every member must
    be a callable or a built-in model other than the stack (`_check_name`).
    The keys that built-in members read as counts must be integers of at
    least 1 where the control sets them, as `read_count` reads them, and
    the flags must be True or False (`read_flag`), or ValueError names the key.
    """
    names = control.get("members", DEFAULT_MEMBERS)
    if isinstance(names, str) or callable(names):
        names = [names]
    if not isinstance(names, (list, tuple)) or not names:
        raise ValueError(f"stack members must name at least one model, got {names!r}")
    known = [m for m in _MODELS if m != "stack"]
    for name in names:
        _check_name(known, name, "stack member")
    for key in MEMBER_COUNT_KEYS:
        read_count(control, key, 1, name=f"stack {key}")
    for key in MEMBER_FLAG_KEYS:
        read_flag(control, key, False, name=f"stack {key}")
    return list(names)


def read_types(types, dim: int) -> tuple[str, ...]:
    """`dim` names from VALID_TYPES as a tuple, all "numeric" when `types`
    is None or empty; ValueError for a string, another length, an unknown
    name or anything but a list or tuple."""
    sequence = isinstance(types, (list, tuple))
    if types is None or sequence and not types:
        return ("numeric",) * dim
    if not (sequence and len(types) == dim and all(t in VALID_TYPES for t in types)):
        raise ValueError(f"types must be {dim} of {VALID_TYPES}, got {types!r}")
    return tuple(types)


def training_data(X, y, least: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """The rows a model fits, X as (n, d) and y as (n,) floats; ValueError
    when the row counts differ, a value is not finite or n < least."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    y = np.asarray(y, dtype=float).reshape(-1)
    n = X.shape[0]
    if y.shape[0] != n:
        raise ValueError(f"X and y row counts differ: {n} and {y.shape[0]}")
    if not (np.isfinite(X).all() and np.isfinite(y).all()):
        raise ValueError("non-finite values in X or y")
    if n < least:
        raise ValueError(f"need at least {least} training points, got {n}")
    return X, y


def query_rows(x, width: int, what: str = "x") -> np.ndarray:
    """x as (m, width) floats, or ValueError naming `what` and both widths."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    if x.shape[1] != width:
        raise ValueError(f"{what} has {x.shape[1]} columns, expected {width}")
    return x


@dataclass
class ParamSpace:
    """Box bounds plus a per-dimension type tag.

    Integer and factor bounds are snapped inward to whole numbers, on copies
    of the bounds given, so every admissible value is an exact level.
    """

    lower: np.ndarray
    upper: np.ndarray
    types: tuple[str, ...] = ()

    def __post_init__(self):
        self.lower = np.array(self.lower, dtype=float, ndmin=1)
        self.upper = np.array(self.upper, dtype=float, ndmin=1)
        if self.lower.ndim != 1 or self.lower.shape != self.upper.shape:
            raise ValueError("lower and upper must be 1-d and the same length")
        if self.lower.size < 1:
            raise ValueError("empty parameter space")
        if not (np.isfinite(self.lower).all() and np.isfinite(self.upper).all()):
            raise ValueError(f"bounds must be finite: lower {self.lower}, upper {self.upper}")
        self.types = read_types(self.types, self.lower.size)
        for i, t in enumerate(self.types):
            if t in ("integer", "factor"):
                self.lower[i] = np.ceil(self.lower[i])
                self.upper[i] = np.floor(self.upper[i])
        if np.any(self.lower > self.upper):
            raise ValueError("lower bound exceeds upper bound")

    @property
    def dim(self) -> int:
        return self.lower.size

    def snap(self, x: np.ndarray) -> np.ndarray:
        """Round integer/factor columns to levels and clip into the box."""
        x = np.atleast_2d(np.asarray(x, dtype=float)).copy()
        for i, t in enumerate(self.types):
            if t in ("integer", "factor"):
                x[:, i] = np.rint(x[:, i])
        return np.clip(x, self.lower, self.upper)


def sample_lhd(rng: np.random.Generator, space: ParamSpace, size: int) -> np.ndarray:
    """One stratified sample: each dimension gets one point per bin."""
    d = space.dim
    width = space.upper - space.lower
    u = rng.random((size, d))
    x = np.empty((size, d))
    for i in range(d):
        perm = rng.permutation(size)
        x[:, i] = space.lower[i] + (perm + u[:, i]) / size * width[i]
    return x


def cross_dist(za: np.ndarray, zb: np.ndarray, types: tuple[str, ...]) -> np.ndarray:
    """Distance tensor between two point sets, stacked (d, ..., m, n).

    `za` is (..., m, d) and `zb` (..., n, d); their leading axes broadcast,
    and a 2-d pair gives (d, m, n).  Every entry is computed on its own, so
    its bits do not depend on the stack around it.
    """
    m, d = za.shape[-2:]
    stack = np.broadcast_shapes(za.shape[:-2], zb.shape[:-2])
    out = np.empty((d, *stack, m, zb.shape[-2]))
    for i in range(d):
        diff = za[..., i, None] - zb[..., None, :, i]
        if types[i] == "factor":
            out[i] = (diff != 0.0).astype(float)
        else:
            out[i] = np.abs(diff) ** 2.0
    return out


def _min_pairwise_distance(x: np.ndarray, space: ParamSpace):
    """Smallest pairwise Euclidean distance on bound-normalized coordinates.

    `x` is one design (m, d), giving a float, or a stack (..., m, d) of
    them, giving an array of the stack's shape.
    """
    if x.shape[-2] < 2:
        return np.full(x.shape[:-2], np.inf)[()]
    width = space.upper - space.lower
    scale = np.where(width > 0, width, 1.0)
    z = (x - space.lower) / scale
    dist = np.sqrt(cross_dist(z, z, ("numeric",) * space.dim).sum(axis=0))
    i, j = np.triu_indices(x.shape[-2], k=1)
    return dist[..., i, j].min(axis=-1)


# Distances scored per pass of make_lhd; bounds the pass's temporaries.
_PASS_DOUBLES = 2**16


def make_lhd(
    existing: Optional[np.ndarray],
    space: ParamSpace,
    control: Optional[dict] = None,
) -> np.ndarray:
    """Maximin Latin hypercube design of `size` new points; `existing` is ignored.

    Draws `retries` stratified candidates and keeps the first one whose
    smallest pairwise distance (after type snapping, on normalized
    coordinates) is largest.  Control keys: size (default 10) and retries
    (default 100), counts of at least 1 (`read_count`), and seed.
    """
    control = control or {}
    size = read_count(control, "size", 10)
    retries = read_count(control, "retries", 100)
    rng = np.random.default_rng(control.get("seed"))
    draws = [sample_lhd(rng, space, size) for _ in range(retries)]
    cands = space.snap(np.concatenate(draws)).reshape(retries, size, space.dim)
    # a block of candidates per pass: all 100 of a 12-point design in 2-d
    block = max(1, _PASS_DOUBLES // (size * size * space.dim))
    scores = np.concatenate([
        _min_pairwise_distance(cands[a:a + block], space) for a in range(0, retries, block)
    ])
    # argmax takes the first maximum, as a strict > over the candidates would
    return cands[np.argmax(scores)].copy()


def make_uniform(
    existing: Optional[np.ndarray],
    space: ParamSpace,
    control: Optional[dict] = None,
) -> np.ndarray:
    """Independent uniform draws of `size` new points; `existing` is ignored.

    Each draw is type-snapped.  Control keys: size (a count, default 10), seed.
    """
    control = control or {}
    size = read_count(control, "size", 10)
    rng = np.random.default_rng(control.get("seed"))
    x = rng.uniform(space.lower, space.upper, size=(size, space.dim))
    return space.snap(x)


DESIGNS = {"lhd": make_lhd, "uniform": make_uniform}
