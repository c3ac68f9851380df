"""Space-filling designs over box-bounded, typed parameter spaces.

Supported variable types are "numeric" (continuous), "integer" (rounded to
the nearest whole number) and "factor" (categorical levels encoded as the
integers between the bounds).  Latin hypercube sampling stratifies every
dimension before any snapping, so continuous columns keep exactly one point
per equal-width bin.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

VALID_TYPES = ("numeric", "integer", "factor")


@dataclass
class ParamSpace:
    """Box bounds plus a per-dimension type tag.

    Integer and factor bounds are snapped inward to whole numbers so every
    admissible value is an exact level.
    """

    lower: np.ndarray
    upper: np.ndarray
    types: tuple[str, ...] = ()

    def __post_init__(self):
        self.lower = np.atleast_1d(np.asarray(self.lower, dtype=float))
        self.upper = np.atleast_1d(np.asarray(self.upper, dtype=float))
        if self.lower.ndim != 1 or self.lower.shape != self.upper.shape:
            raise ValueError("lower and upper must be 1-d and the same length")
        if self.lower.size < 1:
            raise ValueError("empty parameter space")
        if not self.types:
            self.types = ("numeric",) * self.lower.size
        self.types = tuple(self.types)
        if len(self.types) != self.lower.size:
            raise ValueError("types length must match bounds")
        for t in self.types:
            if t not in VALID_TYPES:
                raise ValueError(f"unknown type {t!r}, expected one of {VALID_TYPES}")
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


@dataclass
class DesignControl:
    size: int = 10
    retries: int = 100
    replicates: int = 1
    seed: Optional[int] = None


def _check_existing(existing: Optional[np.ndarray], dim: int) -> None:
    if existing is None:
        return
    existing = np.atleast_2d(np.asarray(existing, dtype=float))
    if existing.shape[1] != dim:
        raise ValueError(
            f"existing design has {existing.shape[1]} columns, space has {dim}"
        )


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
    """Distance tensor between two point sets, stacked (d, m, n)."""
    m, d = za.shape
    out = np.empty((d, m, zb.shape[0]))
    for i in range(d):
        diff = za[:, i][:, None] - zb[:, i][None, :]
        if types[i] == "factor":
            out[i] = (diff != 0.0).astype(float)
        else:
            out[i] = np.abs(diff) ** 2.0
    return out


def _min_pairwise_distance(x: np.ndarray, space: ParamSpace) -> float:
    """Smallest pairwise Euclidean distance on bound-normalized coordinates."""
    if x.shape[0] < 2:
        return np.inf
    width = space.upper - space.lower
    scale = np.where(width > 0, width, 1.0)
    z = (x - space.lower) / scale
    dist = np.sqrt(cross_dist(z, z, ("numeric",) * space.dim).sum(axis=0))
    iu = np.triu_indices(x.shape[0], k=1)
    return float(dist[iu].min())


def make_lhd(
    existing: Optional[np.ndarray],
    space: ParamSpace,
    control: Optional[DesignControl] = None,
) -> np.ndarray:
    """Maximin Latin hypercube design.

    Draws `retries` stratified candidates, keeps the one whose smallest
    pairwise distance (after type snapping, on normalized coordinates) is
    largest, then duplicates each row `replicates` times.  Only newly
    generated points are returned; callers append them to `existing`
    themselves, which is validated for column count only.
    """
    control = control or DesignControl()
    if control.size < 1:
        raise ValueError("size must be at least 1")
    if control.retries < 1:
        raise ValueError("retries must be at least 1")
    if control.replicates < 1:
        raise ValueError("replicates must be at least 1")
    _check_existing(existing, space.dim)
    rng = np.random.default_rng(control.seed)
    best, best_score = None, -np.inf
    for _ in range(control.retries):
        cand = space.snap(sample_lhd(rng, space, control.size))
        score = _min_pairwise_distance(cand, space)
        if score > best_score:
            best, best_score = cand, score
    return np.repeat(best, control.replicates, axis=0)


def make_uniform(
    existing: Optional[np.ndarray],
    space: ParamSpace,
    control: Optional[DesignControl] = None,
) -> np.ndarray:
    """Independent uniform draws per dimension, type-snapped and replicated."""
    control = control or DesignControl()
    if control.size < 1:
        raise ValueError("size must be at least 1")
    if control.replicates < 1:
        raise ValueError("replicates must be at least 1")
    _check_existing(existing, space.dim)
    rng = np.random.default_rng(control.seed)
    x = rng.uniform(space.lower, space.upper, size=(control.size, space.dim))
    return np.repeat(space.snap(x), control.replicates, axis=0)
