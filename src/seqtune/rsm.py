"""Second-order response-surface fits with canonical and ridge analysis.

Inputs are coded to [-1, 1] per dimension using the data's min/max, the full
quadratic basis is fit by least squares, and descent paths are built by
solving the ridge subproblem (minimize the fitted quadratic on a sphere of
given radius around the coded origin) at a ladder of radii.

The basis's numerical rank is the one its least-squares solve reports: the
count of singular values above eps * max(n, terms) times the largest
(Golub & Van Loan, Matrix Computations, 5.4).  Each ridge step solves the
secular equation ||z(t)|| = r in the shift t > 0 below the smallest
eigenvalue (More & Sorensen, Computing a trust region step, 1983) by
bisection on a closed-form bracket; in the hard case, where -b/2 has no
component along the lowest eigenspace, the step is padded along it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from typing import Optional

import numpy as np

from .design import query_rows, read_flag, training_data

PATH_STEPS = 10
PATH_RADIUS = 2.5


class RankDeficiencyError(ValueError):
    """Raised when the quadratic basis cannot be estimated from the data."""


@dataclass
class RSMFit:
    centers: np.ndarray
    halves: np.ndarray
    active: np.ndarray
    b0: float
    b: np.ndarray
    B: np.ndarray
    stationary_coded: Optional[np.ndarray]
    stationary: Optional[np.ndarray]
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    main_effects_only: bool
    canonical: bool
    term_names: list = field(default_factory=list)

    def code(self, x: np.ndarray) -> np.ndarray:
        x = query_rows(x, self.centers.size)
        halves = np.where(self.halves > 0, self.halves, 1.0)
        return (x - self.centers) / halves

    def decode(self, z: np.ndarray) -> np.ndarray:
        z = query_rows(z, self.centers.size, "z")
        return self.centers + z * self.halves

    def predict(self, xnew: np.ndarray) -> np.ndarray:
        return self._surface(self.code(xnew))

    def _surface(self, z: np.ndarray) -> np.ndarray:
        """The (m, 1) fitted surface at coded points z."""
        out = self.b0 + z @ self.b + np.sum((z @ self.B) * z, axis=1)
        return out.reshape(-1, 1)

    def mean_and_gradient(self, xnew: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The (m, 1) prediction, bit-equal to `predict`'s, and its (m, d) gradient.

        The gradient is (b + (B + B') z) / halves; b and B are zero on a
        constant column, so its entry is zero there.
        """
        z = self.code(xnew)
        halves = np.where(self.halves > 0, self.halves, 1.0)
        return self._surface(z), (self.b + z @ (self.B + self.B.T)) / halves


def _basis(z: np.ndarray, active: np.ndarray, main_effects_only: bool):
    """Design matrix, column names and (i, j) pairs of the second-order columns."""
    pairs = [] if main_effects_only else [*combinations(active, 2), *zip(active, active)]
    cols = [np.ones(z.shape[0])] + [z[:, i] for i in active]
    cols += [z[:, i] * z[:, j] for i, j in pairs]
    names = ["1"] + [f"x{i + 1}" for i in active]
    names += [f"x{i + 1}^2" if i == j else f"x{i + 1}:x{j + 1}" for i, j in pairs]
    return np.column_stack(cols), names, pairs


def min_rows(X: np.ndarray, control: Optional[dict] = None) -> int:
    """The fewest rows `fit_rsm` fits where X's columns vary: one per term."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    k = int(np.count_nonzero((X != X[:1]).any(axis=0)))
    if read_flag(control or {}, "mainEffectsOnly", False):
        return 1 + k
    return 1 + k + k * (k + 1) // 2


def fit_rsm(X: np.ndarray, y: np.ndarray, control: Optional[dict] = None) -> RSMFit:
    """Least-squares fit of the full second-order model in coded units.

    Control flags: mainEffectsOnly (drop interactions and quadratics; B = 0) and
    canonical (let descent paths leave a saddle along its falling axis).
    Raises ValueError where `training_data(X, y)` does.  Constant columns
    are excluded from the basis; a rank-deficient basis raises
    RankDeficiencyError naming, in basis order, each term that the terms
    before it already span, as R's lm reports aliased coefficients.
    """
    control = dict(control or {})
    main_effects_only = read_flag(control, "mainEffectsOnly", False)
    canonical = read_flag(control, "canonical", False)
    X, y = training_data(X, y)
    n, d = X.shape
    lo, hi = X.min(axis=0), X.max(axis=0)
    centers = (lo + hi) / 2.0
    halves = (hi - lo) / 2.0
    active = np.flatnonzero(halves > 0)
    if active.size == 0:
        raise ValueError("all input columns are constant")
    scale = np.where(halves > 0, halves, 1.0)
    z = (X - centers) / scale

    basis, names, pairs = _basis(z, active, main_effects_only)
    n_terms = basis.shape[1]
    if n < n_terms:
        raise RankDeficiencyError(
            f"{n} rows cannot identify {n_terms} terms ({', '.join(names)})"
        )
    coef, _, rank, sv = np.linalg.lstsq(basis, y, rcond=None)
    if rank < n_terms:
        # each leading block's rank at this tolerance, by the same solver
        tol = np.finfo(float).eps * max(basis.shape) * sv[0]
        blocks = (np.linalg.lstsq(basis[:, :k], y, rcond=None)[3] for k in range(1, n_terms + 1))
        ranks = [int(np.sum(s > tol)) for s in blocks]
        bad = [name for name, r, before in zip(names, ranks, [0] + ranks) if r == before]
        raise RankDeficiencyError(
            "rank-deficient basis, cannot estimate: " + ", ".join(bad)
        )

    b0 = float(coef[0])
    b = np.zeros(d)
    b[active] = coef[1 : 1 + active.size]
    B = np.zeros((d, d))
    for (i, j), v in zip(pairs, coef[1 + active.size :]):
        B[i, j] = B[j, i] = v if i == j else v / 2.0

    sub = B[np.ix_(active, active)]
    eigenvalues, vecs = np.linalg.eigh(sub)
    eigenvectors = np.zeros((d, active.size))
    eigenvectors[active, :] = vecs
    stationary_coded = stationary = None
    # the condition number of the symmetric `sub`, max|l| / min|l| < 1e12,
    # without a division: min|l| may be 0
    magnitudes = np.abs(eigenvalues)
    if magnitudes.max() < 1e12 * magnitudes.min():
        stationary_coded = np.zeros(d)
        stationary_coded[active] = np.linalg.solve(sub, -0.5 * b[active])
        stationary = centers + stationary_coded * halves

    return RSMFit(
        centers=centers,
        halves=halves,
        active=active,
        b0=b0,
        b=b,
        B=B,
        stationary_coded=stationary_coded,
        stationary=stationary,
        eigenvalues=eigenvalues,
        eigenvectors=eigenvectors,
        main_effects_only=main_effects_only,
        canonical=canonical,
        term_names=names,
    )


@dataclass
class DescentPath:
    """Ladder of descent steps in original units, with the coded geometry."""

    x: np.ndarray
    y: np.ndarray
    coded: np.ndarray
    radii: np.ndarray
    mode: str


def _ridge_point(eigenvalues, vecs, c, r: float) -> np.ndarray:
    """Minimize the quadratic on the sphere of radius r.

    The step is z(t) = vecs @ (c / (g + t)) with gaps g = eigenvalues -
    eigenvalues[0] >= 0 and the shift t > 0 at which ||z(t)|| = r; the norm
    falls as t grows.  ||z(t)|| <= ||c||/t, so t = 2||c||/r bounds the root
    above; c0, the largest |c_i| with g_i = 0, gives ||z(t)|| >= c0/t, so
    t = c0/(2r) bounds it below, and the search in t keeps full relative
    precision however close the root lies to zero.  Such c_i within rounding
    of the coefficient scale count as zero, so a tie between the two sides
    of a symmetric fit does not follow the sign of rounding noise.  With
    c0 = 0 and ||z|| < r at the smallest positive t (the hard case), that z
    is padded along the lowest eigenvector up to radius r.
    """
    eps, tiny = np.finfo(float).eps, np.finfo(float).tiny
    gaps = eigenvalues - eigenvalues[0]
    low = gaps == 0.0
    cut = 4.0 * eps * max(np.linalg.norm(c), np.abs(eigenvalues).max())
    c = np.where(low & (np.abs(c) <= cut), 0.0, c)

    def z_of(t: float) -> np.ndarray:
        return vecs @ (c / (gaps + t))

    t_lo = max(np.abs(c[low]).max() / (2.0 * r), tiny)
    z = z_of(t_lo)
    nz = np.linalg.norm(z)
    if nz < r:
        return z + np.sqrt(r**2 - nz**2) * _fix_sign(vecs[:, 0])
    t_hi = 2.0 * np.linalg.norm(c) / r
    return z_of(_bisect_root(lambda t: 1.0 / r - 1.0 / np.linalg.norm(z_of(t)), t_lo, t_hi))


def _bisect_root(fun, lo: float, hi: float) -> float:
    """The root of a decreasing `fun` on [lo, hi], fun(lo) >= 0 > fun(hi).

    Bisection: each step keeps the half of the bracket whose ends differ
    in sign, until the bracket is within 4 ulps of its midpoint.
    `_ridge_point` hands it 1/r - 1/||z(t)||.
    """
    eps, tiny = np.finfo(float).eps, np.finfo(float).tiny
    while True:
        t = lo + (hi - lo) / 2.0
        if hi - lo <= 4.0 * eps * t + tiny:
            return t
        if fun(t) >= 0.0:
            lo = t
        else:
            hi = t


def _fix_sign(v: np.ndarray) -> np.ndarray:
    nz = np.flatnonzero(np.abs(v) > 1e-14)
    if nz.size and v[nz[0]] < 0:
        return -v
    return v


def descent_path(fit: RSMFit) -> DescentPath:
    """Ten-step path of decreasing predicted response.

    Steps sit at increasing coded radii up to PATH_RADIUS around the coded
    origin, each the sphere-constrained minimizer of the fitted quadratic.
    When the fitted surface has an interior minimum inside that radius, the
    ladder is adjusted to place one step exactly at the predicted minimum.
    With `canonical` set and a saddle-shaped fit, the path instead leaves
    the stationary point along the axis of most negative curvature.  A
    main-effects fit (B = 0) gets steepest descent, r * -b / ||b||, as the
    ridge step at zero curvature.
    """
    d = fit.centers.size
    radii = PATH_RADIUS * np.arange(1, PATH_STEPS + 1) / PATH_STEPS

    coef_scale = max(
        float(np.linalg.norm(fit.b[fit.active])),
        float(np.linalg.norm(fit.B[np.ix_(fit.active, fit.active)])),
    )
    if coef_scale <= 1e-12 * max(1.0, abs(fit.b0)):
        raise ValueError("flat fit has no descent direction")

    if (
        fit.canonical
        and fit.stationary_coded is not None
        and fit.eigenvalues[0] < 0 < fit.eigenvalues[-1]
    ):
        v = np.zeros(d)
        v[fit.active] = _fix_sign(fit.eigenvectors[fit.active, 0])
        coded = fit.stationary_coded[None, :] + radii[:, None] * v[None, :]
        x = fit.decode(coded)
        return DescentPath(
            x=x, y=fit.predict(x), coded=coded, radii=radii.copy(), mode="canonical"
        )

    if fit.stationary_coded is not None and fit.eigenvalues[0] > 0:
        rs = float(np.linalg.norm(fit.stationary_coded))
        if 0.0 < rs <= PATH_RADIUS:
            radii[int(np.argmin(np.abs(radii - rs)))] = rs
            radii = np.sort(radii)
    vecs = fit.eigenvectors[fit.active]
    c = vecs.T @ (-0.5 * fit.b[fit.active])
    coded = np.zeros((PATH_STEPS, d))
    for k, r in enumerate(radii):
        coded[k, fit.active] = _ridge_point(fit.eigenvalues, vecs, c, float(r))

    x = fit.decode(coded)
    return DescentPath(
        x=x, y=fit.predict(x), coded=coded, radii=radii.copy(), mode="ridge"
    )
