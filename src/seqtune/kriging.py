"""Kriging (Gaussian process) surrogate with a mixed numeric/factor kernel.

Correlation between two points is exp(-sum_i theta_i * d_i(a_i, b_i)) where
d_i is |a_i - b_i|^p for numeric and integer dimensions (p fixed at 2) and
the unequality indicator for factor dimensions.  Hyperparameters are found
by maximum likelihood on log10 scales, with the concentrated form giving the
process mean and variance in closed form.

Inputs are scaled to the unit box internally (factor columns excepted), so
the fitted activity parameters live on that scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotrs

from . import optimizers
from .design import cross_dist

# concentrated -log-likelihood returned when the correlation matrix cannot
# be factorized; large enough that the search never keeps such a point
_PENALTY = 1e10

DEFAULT_THETA_BOUNDS = (-6.0, 2.0)
DEFAULT_LAMBDA_BOUNDS = (-6.0, 0.0)


@dataclass
class KrigingFit:
    """Fitted surrogate state; prediction needs only what is stored here."""

    X: np.ndarray
    y: np.ndarray
    theta: np.ndarray
    lambda_: float
    mu_hat: float
    sigma2_hat: float
    corr_factorization: np.ndarray
    types: tuple[str, ...]
    likelihood_evals: int
    x_offset: np.ndarray
    x_scale: np.ndarray
    alpha: np.ndarray
    sigma2_re: float
    corr_factorization_re: Optional[np.ndarray]
    reinterp_idx: Optional[np.ndarray] = None

    def predict(self, xnew: np.ndarray) -> np.ndarray:
        """The predicted mean alone, bit-equal to predict_kriging's."""
        mean = self.mu_hat + _cross_correlation(self, xnew) @ self.alpha
        return mean.reshape(-1, 1)


def _factor(k: np.ndarray) -> Optional[np.ndarray]:
    """Lower Cholesky factor of k, or None when k is not positive definite."""
    lower, info = dpotrf(k, lower=1, clean=1)
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of dpotrf")
    return None if info > 0 else lower


def _solve(lower: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve k x = b given the lower Cholesky factor of k."""
    x, info = dpotrs(lower, b, lower=1)
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of dpotrs")
    return x


def _correlation(theta: np.ndarray, flat: np.ndarray, shape: tuple) -> np.ndarray:
    """Correlations exp(-theta . d) of the given shape from (d, m*n) distances."""
    return np.exp(-np.dot(theta.reshape(1, -1), flat)).reshape(shape)


def _neg_log_likelihood(
    theta: np.ndarray,
    lam: float,
    flat: np.ndarray,
    diag: np.ndarray,
    one: np.ndarray,
    y: np.ndarray,
):
    """Concentrated -ln-likelihood; returns (value, parts or None).

    `flat` is the (d, n*n) distance tensor, `diag` indexes the diagonal of a
    raveled n-by-n matrix and `one` is the (n, 1) ones column, all built
    once per fit.
    """
    n = y.shape[0]
    k = _correlation(theta, flat, (n, n))
    # off-diagonal correlations are >= 0, so adding the nugget on the
    # diagonal alone equals adding lam * identity
    k.reshape(-1)[diag] += lam
    lower = _factor(k)
    if lower is None:
        return _PENALTY, None
    ldiag = np.diag(lower)
    if np.any(ldiag <= 0) or not np.all(np.isfinite(ldiag)):
        return _PENALTY, None
    # a factorization that succeeds but is effectively singular is useless
    # for prediction, so such hyperparameters are penalized like a failure
    if (ldiag.max() / ldiag.min()) ** 2 > 1e12:
        return _PENALTY, None
    kinv_y = _solve(lower, y)
    kinv_one = _solve(lower, one)
    mu = ((one.T @ kinv_y) / (one.T @ kinv_one)).item()
    resid = y - mu
    kinv_resid = kinv_y - mu * kinv_one
    sigma2 = (resid.T @ kinv_resid).item() / n
    if not np.isfinite(sigma2):
        return _PENALTY, None
    value = 0.5 * n * np.log(max(sigma2, 1e-300)) + np.sum(np.log(ldiag))
    return float(value), (k, lower, mu, sigma2, kinv_resid)


def fit_kriging(X: np.ndarray, y: np.ndarray, control: Optional[dict] = None) -> KrigingFit:
    """Maximum-likelihood Kriging fit.

    Control keys read: types, algTheta ("lhd", "local" or a callable with
    the optimizer signature), budget (likelihood evaluations, default 200
    per hyperparameter), useLambda (fit a nugget, default True) and seed;
    any other key is ignored.  Hyperparameters are searched on the log10
    ranges DEFAULT_THETA_BOUNDS and DEFAULT_LAMBDA_BOUNDS.
    """
    control = dict(control or {})
    X = np.atleast_2d(np.asarray(X, dtype=float))
    y = np.asarray(y, dtype=float).reshape(-1, 1)
    n, d = X.shape
    if y.shape[0] != n:
        raise ValueError("X and y row counts differ")
    if not (np.isfinite(X).all() and np.isfinite(y).all()):
        raise ValueError("non-finite values in X or y")
    if n < 2:
        raise ValueError("need at least 2 training points")
    types = tuple(control.get("types") or ("numeric",) * d)
    if len(types) != d:
        raise ValueError("types length must match X columns")
    use_lambda = bool(control.get("useLambda", True))

    if not use_lambda:
        uniq = np.unique(X, axis=0)
        if uniq.shape[0] != n:
            raise ValueError("duplicate rows require a nugget (useLambda)")

    # scale distance-based columns onto the unit box for conditioning
    x_offset = X.min(axis=0)
    span = X.max(axis=0) - x_offset
    x_scale = np.where(span > 0, span, 1.0)
    for i, t in enumerate(types):
        if t == "factor":
            x_offset[i], x_scale[i] = 0.0, 1.0
    z = (X - x_offset) / x_scale
    flat = cross_dist(z, z, types).reshape(d, n * n)
    diag = np.arange(n) * (n + 1)
    one = np.ones((n, 1))

    n_par = d + (1 if use_lambda else 0)
    budget = int(control.get("budget", 200 * n_par))
    lower = np.full(n_par, DEFAULT_THETA_BOUNDS[0])
    upper = np.full(n_par, DEFAULT_THETA_BOUNDS[1])
    if use_lambda:
        lower[-1], upper[-1] = DEFAULT_LAMBDA_BOUNDS

    def objective(v: np.ndarray) -> np.ndarray:
        v = np.atleast_2d(v)
        out = np.empty((v.shape[0], 1))
        for i, row in enumerate(v):
            theta = 10.0 ** row[:d]
            lam = 10.0 ** row[d] if use_lambda else 0.0
            out[i, 0] = _neg_log_likelihood(theta, lam, flat, diag, one, y)[0]
        return out

    alg = control.get("algTheta", "lhd")
    seed = control.get("seed")
    if alg == "lhd" or callable(alg):
        search = optimizers.optim_lhd if alg == "lhd" else alg
        res = search(None, objective, lower, upper, {"funEvals": budget, "seed": seed})
        xbest, evals = res.xbest, res.count
    elif alg == "local":
        # global screen picks the basin, bounded local search polishes it
        screen_evals = budget // 2 if budget >= 20 else 0
        start = None
        if screen_evals:
            start = optimizers.optim_lhd(
                None, objective, lower, upper,
                {"funEvals": screen_evals, "seed": seed},
            ).xbest.ravel()
        res = optimizers.optim_local_bounded(
            start, objective, lower, upper,
            {"funEvals": budget - screen_evals, "seed": seed},
        )
        xbest, evals = res.xbest, res.count + screen_evals
    else:
        raise ValueError(f"unknown algTheta {alg!r}")
    xbest = np.asarray(xbest, dtype=float).ravel()

    theta = 10.0 ** xbest[:d]
    lam = 10.0 ** xbest[d] if use_lambda else 0.0
    value, parts = _neg_log_likelihood(theta, lam, flat, diag, one, y)
    if parts is None:
        raise ValueError(
            "correlation matrix is singular at the selected hyperparameters"
        )
    k_mat, lower_chol, mu, sigma2, alpha = parts

    # polish the prediction weights by iterative refinement: the plain solve
    # is fine for the likelihood but loses digits when the kernel is nearly
    # flat, and predictions at the training points inherit that error
    resid = y - mu
    scale_r = max(1.0, float(np.max(np.abs(resid))))
    for _ in range(3):
        gap = resid - k_mat @ alpha
        if np.max(np.abs(gap)) <= 1e-14 * scale_r:
            break
        alpha = alpha + _solve(lower_chol, gap)

    sigma2_re = sigma2
    lower_re = None
    uniq_idx = None
    if lam > 0.0:
        # nugget-free correlation, for error estimates that vanish at the
        # data; built over the distinct training sites because replicated
        # rows would make it exactly singular
        psi_pure = _correlation(theta, flat, (n, n))
        sigma2_re = (alpha.T @ psi_pure @ alpha).item() / n
        uniq_idx = np.sort(np.unique(z, axis=0, return_index=True)[1])
        psi_u = psi_pure[np.ix_(uniq_idx, uniq_idx)]
        for jitter in (0.0, 1e-12, 1e-10, 1e-8):
            lower_re = _factor(psi_u + jitter * np.eye(uniq_idx.size))
            if lower_re is not None:
                break

    return KrigingFit(
        X=X,
        y=y,
        theta=theta,
        lambda_=lam,
        mu_hat=mu,
        sigma2_hat=sigma2,
        corr_factorization=lower_chol,
        types=types,
        likelihood_evals=evals,
        x_offset=x_offset,
        x_scale=x_scale,
        alpha=alpha,
        sigma2_re=sigma2_re,
        corr_factorization_re=lower_re,
        reinterp_idx=uniq_idx,
    )


def _cross_correlation(fit: KrigingFit, xnew: np.ndarray) -> np.ndarray:
    """Correlations between new points (rows) and the training points."""
    xnew = np.atleast_2d(np.asarray(xnew, dtype=float))
    if xnew.shape[1] != fit.X.shape[1]:
        raise ValueError("prediction points have the wrong dimension")
    znew = (xnew - fit.x_offset) / fit.x_scale
    ztrain = (fit.X - fit.x_offset) / fit.x_scale
    cross = cross_dist(znew, ztrain, fit.types)
    return _correlation(fit.theta, cross.reshape(cross.shape[0], -1), cross.shape[1:])


def predict_kriging(fit: KrigingFit, xnew: np.ndarray) -> dict:
    """Predict mean and standard deviation at new points.

    With a positive nugget the error estimate uses the nugget-free
    correlation, so it collapses to zero at the training points; at zero
    nugget, or if that correlation would not factorize, the fitted one.
    """
    psi = _cross_correlation(fit, xnew)
    mean = fit.mu_hat + psi @ fit.alpha

    if fit.corr_factorization_re is not None:
        psi_u = psi[:, fit.reinterp_idx]
        solved = _solve(fit.corr_factorization_re, psi_u.T)
        s2 = fit.sigma2_re * (1.0 - np.sum(psi_u.T * solved, axis=0))
    else:
        solved = _solve(fit.corr_factorization, psi.T)
        s2 = fit.sigma2_hat * (
            1.0 + fit.lambda_ - np.sum(psi.T * solved, axis=0)
        )
    sd = np.sqrt(np.clip(s2, 0.0, None)).reshape(-1, 1)
    return {"mean": mean.reshape(-1, 1), "sd": sd}
