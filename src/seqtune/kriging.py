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

# the likelihood search factors its hyperparameter rows in stacks of about
# this many doubles, which keeps the search's memory flat in the budget
_STACK_DOUBLES = 2**15

# trailing diagonal of the bordered matrices: far above 1' K^-1 1 and
# y' K^-1 y of any factor that the search keeps, so the last two pivots
# stay positive
_BORDER = 1e300

# larger targets skip the bordered factor: there the per-row path's own
# overflow, not the border, decides which rows are penalized
_MAX_BORDERED_Y = 1e100

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


def _usable_factor(ldiag: np.ndarray) -> np.ndarray:
    """Whether each row of Cholesky pivots (B, n) gives a usable factor.

    Every pivot must be positive and finite, and the factor must not be
    effectively singular (squared pivot ratio above 1e12): that would be
    useless for prediction, so it is penalized like a failure.
    """
    lo, hi = ldiag.min(axis=1), ldiag.max(axis=1)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # a NaN pivot makes lo and hi NaN, which fails every comparison
        return (lo > 0) & (hi < np.inf) & ((hi / lo) ** 2 <= 1e12)


def _likelihood_values(ldiag: np.ndarray, sigma2: np.ndarray):
    """Concentrated -ln-likelihoods from pivots (B, n) and variances (B,).

    Returns (values, usable).  A row is usable, and its value not _PENALTY,
    when its factor is usable and its sigma2 finite.
    """
    n = ldiag.shape[1]
    usable = _usable_factor(ldiag) & np.isfinite(sigma2)
    with np.errstate(divide="ignore", invalid="ignore"):
        half_log_det = np.log(ldiag).sum(axis=1)
        value = 0.5 * n * np.log(np.maximum(sigma2, 1e-300)) + half_log_det
    return np.where(usable, value, _PENALTY), usable


def _neg_log_likelihood(
    theta: np.ndarray,
    lam: float,
    flat: np.ndarray,
    diag: np.ndarray,
    one: np.ndarray,
    y: np.ndarray,
):
    """Concentrated -ln-likelihood of one row; returns (value, parts or None).

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
    if lower is None or not _usable_factor(np.diag(lower)[None])[0]:
        return _PENALTY, None
    kinv_y = _solve(lower, y)
    kinv_one = _solve(lower, one)
    # huge targets can overflow here; the rule below penalizes that
    with np.errstate(over="ignore", invalid="ignore"):
        mu = ((one.T @ kinv_y) / (one.T @ kinv_one)).item()
        resid = y - mu
        kinv_resid = kinv_y - mu * kinv_one
        sigma2 = (resid.T @ kinv_resid).item() / n
    value, usable = _likelihood_values(np.diag(lower)[None], np.array([sigma2]))
    if not usable[0]:
        return _PENALTY, None
    return float(value[0]), (k, lower, mu, sigma2, kinv_resid)


def _bordered_values(m: np.ndarray) -> Optional[np.ndarray]:
    """Likelihood values from a stack of bordered matrices (B, n+2, n+2).

    None when any matrix of the stack does not factor.
    """
    n = m.shape[1] - 2
    try:
        lower = np.linalg.cholesky(m)
    except np.linalg.LinAlgError:
        return None
    kinv_one = lower[:, n, :n]
    kinv_y = lower[:, n + 1, :n]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        mu = (kinv_one * kinv_y).sum(axis=1) / (kinv_one * kinv_one).sum(axis=1)
        resid = kinv_y - mu[:, None] * kinv_one
        sigma2 = (resid * resid).sum(axis=1) / n
    # the first n entries of each factor's diagonal
    pivots = lower.reshape(m.shape[0], -1)[:, : n * (n + 3) : n + 3]
    return _likelihood_values(pivots, sigma2)[0]


def _stacked_neg_log_likelihood(
    theta: np.ndarray,
    lam: np.ndarray,
    flat: np.ndarray,
    diag: np.ndarray,
    one: np.ndarray,
    y: np.ndarray,
) -> np.ndarray:
    """Concentrated -ln-likelihoods of the rows of theta (B, d) and lam (B,).

    The rows go in stacks of about _STACK_DOUBLES doubles, and one
    np.linalg.cholesky call factors a stack's bordered matrices
    [[K + lam I, 1, y], [1', C, 0], [y', 0, C]].  Rows n and n+1 of each
    factor are then L^-1 1 and L^-1 y, and its leading n pivots are those of
    K + lam I, so no solve is needed.  The values agree with
    _neg_log_likelihood to rounding, not bit for bit.  A stack with a matrix
    that does not factor, or every row when y is too large for the border,
    is evaluated by _neg_log_likelihood instead.
    """

    def per_row(lo: int, hi: int) -> list:
        return [
            _neg_log_likelihood(t, lam_t, flat, diag, one, y)[0]
            for t, lam_t in zip(theta[lo:hi], lam[lo:hi])
        ]

    rows, n = theta.shape[0], y.shape[0]
    if np.max(np.abs(y)) > _MAX_BORDERED_Y:
        return np.array(per_row(0, rows))
    block = max(1, min(rows, _STACK_DOUBLES // (n + 2) ** 2))
    # buffers shared by the stacks, so that each stack allocates only its
    # factor; the border is written once
    corr = np.empty((block, n * n))
    m = np.empty((block, n + 2, n + 2))
    m[:, n, :n] = m[:, :n, n] = 1.0
    m[:, n + 1, :n] = m[:, :n, n + 1] = y.ravel()
    m[:, n:, n:] = [[_BORDER, 0.0], [0.0, _BORDER]]
    values = np.empty(rows)
    for lo in range(0, rows, block):
        hi = min(rows, lo + block)
        b = hi - lo
        c = np.matmul(theta[lo:hi], flat, out=corr[:b])
        np.negative(c, out=c)
        np.exp(c, out=c)
        m[:b, :n, :n] = c.reshape(b, n, n)
        # the diagonal of a raveled (n+2)-square matrix has stride n+3
        m[:b].reshape(b, -1)[:, : n * (n + 3) : n + 3] += lam[lo:hi, None]
        stacked = _bordered_values(m[:b])
        values[lo:hi] = per_row(lo, hi) if stacked is None else stacked
    return values


def fit_kriging(X: np.ndarray, y: np.ndarray, control: Optional[dict] = None) -> KrigingFit:
    """Maximum-likelihood Kriging fit.

    Control keys read: types, algTheta ("lhd", "local" or a callable with
    the optimizer signature), budget (likelihood evaluations, default 200
    per hyperparameter), useLambda (fit a nugget, default True) and seed;
    any other key is ignored.  Hyperparameters are searched on the log10
    ranges DEFAULT_THETA_BOUNDS and DEFAULT_LAMBDA_BOUNDS.

    The search evaluates its rows in stacks of about _STACK_DOUBLES
    doubles, one bordered Cholesky factorization per stack
    (_stacked_neg_log_likelihood).  The fit at the chosen hyperparameters
    takes the per-row LAPACK path (_neg_log_likelihood), so the stored
    factor, weights and variances, and every prediction from them, do not
    depend on how the search grouped its rows.
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
        theta = 10.0 ** v[:, :d]
        lam = 10.0 ** v[:, d] if use_lambda else np.zeros(v.shape[0])
        values = _stacked_neg_log_likelihood(theta, lam, flat, diag, one, y)
        return values.reshape(-1, 1)

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
