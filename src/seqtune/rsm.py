"""Second-order response-surface fits with canonical and ridge analysis.

Inputs are coded to [-1, 1] per dimension using the data's min/max, the full
quadratic basis is fit by least squares, and descent paths are built by
solving the ridge subproblem (minimize the fitted quadratic on a sphere of
given radius around the coded origin) at a ladder of radii.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy.linalg import qr
from scipy.optimize import brentq

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
    B: Optional[np.ndarray]
    stationary_coded: Optional[np.ndarray]
    stationary: Optional[np.ndarray]
    eigenvalues: Optional[np.ndarray]
    eigenvectors: Optional[np.ndarray]
    main_effects_only: bool
    canonical: bool
    term_names: list = field(default_factory=list)

    def code(self, x: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=float))
        halves = np.where(self.halves > 0, self.halves, 1.0)
        return (x - self.centers) / halves

    def decode(self, z: np.ndarray) -> np.ndarray:
        z = np.atleast_2d(np.asarray(z, dtype=float))
        return self.centers + z * self.halves

    def predict(self, xnew: np.ndarray) -> np.ndarray:
        return predict_rsm(self, xnew)


def _basis(z: np.ndarray, active: np.ndarray, main_effects_only: bool):
    """Design matrix columns and their names for coded points."""
    n = z.shape[0]
    cols = [np.ones(n)]
    names = ["1"]
    for i in active:
        cols.append(z[:, i])
        names.append(f"x{i + 1}")
    if not main_effects_only:
        for a_pos, i in enumerate(active):
            for j in active[a_pos + 1 :]:
                cols.append(z[:, i] * z[:, j])
                names.append(f"x{i + 1}:x{j + 1}")
        for i in active:
            cols.append(z[:, i] ** 2)
            names.append(f"x{i + 1}^2")
    return np.column_stack(cols), names


def fit_rsm(X: np.ndarray, y: np.ndarray, control: Optional[dict] = None) -> RSMFit:
    """Least-squares fit of the full second-order model in coded units.

    Control keys: mainEffectsOnly (drop interactions and quadratics) and
    canonical (let descent paths leave a saddle along its falling axis).
    Constant columns are excluded from the basis; a rank-deficient basis
    raises RankDeficiencyError naming the terms that cannot be estimated.
    """
    control = dict(control or {})
    main_effects_only = bool(control.get("mainEffectsOnly", False))
    canonical = bool(control.get("canonical", False))
    X = np.atleast_2d(np.asarray(X, dtype=float))
    y = np.asarray(y, dtype=float).reshape(-1)
    n, d = X.shape
    if y.shape[0] != n:
        raise ValueError("X and y row counts differ")
    lo, hi = X.min(axis=0), X.max(axis=0)
    centers = (lo + hi) / 2.0
    halves = (hi - lo) / 2.0
    active = np.flatnonzero(halves > 0)
    if active.size == 0:
        raise ValueError("all input columns are constant")
    scale = np.where(halves > 0, halves, 1.0)
    z = (X - centers) / scale

    basis, names = _basis(z, active, main_effects_only)
    n_terms = basis.shape[1]
    if n < n_terms:
        raise RankDeficiencyError(
            f"{n} rows cannot identify {n_terms} terms ({', '.join(names)})"
        )
    _, r, piv = qr(basis, mode="economic", pivoting=True)
    diag = np.abs(np.diag(r))
    tol = diag.max() * max(basis.shape) * np.finfo(float).eps
    rank = int(np.sum(diag > tol))
    if rank < n_terms:
        bad = sorted(names[k] for k in piv[rank:])
        raise RankDeficiencyError(
            "rank-deficient basis, cannot estimate: " + ", ".join(bad)
        )
    coef, *_ = np.linalg.lstsq(basis, y, rcond=None)

    b0 = float(coef[0])
    b = np.zeros(d)
    k = 1
    for i in active:
        b[i] = coef[k]
        k += 1
    B = None
    if not main_effects_only:
        B = np.zeros((d, d))
        for a_pos, i in enumerate(active):
            for j in active[a_pos + 1 :]:
                B[i, j] = B[j, i] = coef[k] / 2.0
                k += 1
        for i in active:
            B[i, i] = coef[k]
            k += 1

    stationary_coded = stationary = eigenvalues = eigenvectors = None
    if B is not None:
        sub = B[np.ix_(active, active)]
        eigenvalues, vecs = np.linalg.eigh(sub)
        eigenvectors = np.zeros((d, active.size))
        eigenvectors[active, :] = vecs
        if np.linalg.cond(sub) < 1e12:
            zs = np.zeros(d)
            zs[active] = np.linalg.solve(sub, -0.5 * b[active])
            stationary_coded = zs
            stationary = centers + zs * halves

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


def predict_rsm(fit: RSMFit, xnew: np.ndarray) -> np.ndarray:
    z = fit.code(xnew)
    if z.shape[1] != fit.centers.size:
        raise ValueError("prediction points have the wrong dimension")
    out = fit.b0 + z @ fit.b
    if fit.B is not None:
        out = out + np.sum((z @ fit.B) * z, axis=1)
    return out.reshape(-1, 1)


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

    Solves (B - mu I) z = -b/2 for the mu below the smallest eigenvalue at
    which ||z|| = r, handling the degenerate case where -b/2 has no
    component along the lowest eigenspace.
    """
    lam_min = eigenvalues[0]
    gap_tol = 1e-12 * max(1.0, abs(lam_min))
    low_group = eigenvalues <= lam_min + gap_tol

    def z_of(mu: float) -> np.ndarray:
        return vecs @ (c / (eigenvalues - mu))

    c_scale = np.linalg.norm(c)
    if c_scale == 0.0:
        # pure quadratic: descend along the lowest eigenvector
        v = vecs[:, 0]
        return r * _fix_sign(v)
    # A component along the lowest eigenspace only pulls ||z|| up to r if it
    # does so at some representable mu below lam_min; smaller components can
    # never bring the crossing within reach of brentq, so they behave exactly
    # like zero and belong to the degenerate case below.
    resolvable = 4.0 * np.spacing(max(1.0, abs(lam_min))) * r
    if np.any(np.abs(c[low_group]) > max(1e-10 * c_scale, resolvable)):
        # the norm grows without bound as mu approaches lam_min
        hi = lam_min - 1e-14 * max(1.0, abs(lam_min))
        lo = lam_min - max(1.0, c_scale / r)
        while np.linalg.norm(z_of(lo)) > r:
            lo = lam_min - 2.0 * (lam_min - lo)
        bracketed = True
        while np.linalg.norm(z_of(hi)) < r:
            new_hi = lam_min - 0.5 * (lam_min - hi)
            if new_hi <= hi or new_hi >= lam_min:
                bracketed = False
                break
            hi = new_hi
        if bracketed:
            mu = brentq(
                lambda m: np.linalg.norm(z_of(m)) - r, lo, hi, xtol=1e-15, rtol=1e-15
            )
            return z_of(mu)
        # the crossing sits closer to lam_min than one float spacing: fall
        # through and treat the low components as zero
    # hard case: solve on the complement and pad along the lowest eigenspace
    rest = ~low_group
    z0 = vecs[:, rest] @ (c[rest] / (eigenvalues[rest] - lam_min)) if rest.any() else 0.0
    z0 = np.asarray(z0, dtype=float)
    if z0.ndim == 0:
        z0 = np.zeros(vecs.shape[0])
    nz = np.linalg.norm(z0)
    if nz >= r:
        # no padding needed; fall back to the boundary solve on the complement
        hi = lam_min - 1e-14 * max(1.0, abs(lam_min))
        lo = lam_min - max(1.0, c_scale / r)
        while np.linalg.norm(z_of(lo)) > r:
            lo = lam_min - 2.0 * (lam_min - lo)
        mu = brentq(
            lambda m: np.linalg.norm(z_of(m)) - r, lo, hi, xtol=1e-15, rtol=1e-15
        )
        return z_of(mu)
    tau = np.sqrt(max(r**2 - nz**2, 0.0))
    return z0 + tau * _fix_sign(vecs[:, 0])


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
    the stationary point along the axis of most negative curvature.
    """
    d = fit.centers.size
    radii = PATH_RADIUS * np.arange(1, PATH_STEPS + 1) / PATH_STEPS

    coef_scale = float(np.linalg.norm(fit.b[fit.active]))
    if fit.B is not None:
        coef_scale = max(
            coef_scale,
            float(np.linalg.norm(fit.B[np.ix_(fit.active, fit.active)])),
        )
    if coef_scale <= 1e-12 * max(1.0, abs(fit.b0)):
        raise ValueError("flat fit has no descent direction")

    if (
        fit.canonical
        and fit.eigenvalues is not None
        and fit.stationary_coded is not None
        and fit.eigenvalues[0] < 0 < fit.eigenvalues[-1]
    ):
        v = np.zeros(d)
        v[fit.active] = _fix_sign(fit.eigenvectors[fit.active, 0])
        coded = fit.stationary_coded[None, :] + radii[:, None] * v[None, :]
        x = fit.decode(coded)
        return DescentPath(
            x=x, y=predict_rsm(fit, x), coded=coded, radii=radii.copy(), mode="canonical"
        )

    if fit.B is None or np.all(fit.B == 0.0):
        grad = fit.b[fit.active]
        norm = np.linalg.norm(grad)
        direction = np.zeros(d)
        direction[fit.active] = -grad / norm
        coded = radii[:, None] * direction[None, :]
    else:
        if (
            fit.stationary_coded is not None
            and fit.eigenvalues[0] > 0
        ):
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
        x=x, y=predict_rsm(fit, x), coded=coded, radii=radii.copy(), mode="ridge"
    )
