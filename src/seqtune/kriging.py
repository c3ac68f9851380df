"""Kriging (Gaussian process) surrogate with a mixed numeric/factor kernel.

Correlation between two points is exp(-sum_i theta_i * d_i(a_i, b_i)) where
d_i is |a_i - b_i|^p for numeric and integer dimensions (p fixed at 2) and
the unequality indicator for factor dimensions.  Hyperparameters are found
by maximum likelihood on log10 scales, with the concentrated form giving the
process mean and variance in closed form.

Every likelihood value, in the search and in the final fit, comes from one
computation: the Cholesky factor of the bordered matrix
[[K + lam I, 1, y], [1', C, 0], [y', 0, C]], whose last two rows hold
L^-1 1 and L^-1 y.  The targets enter it divided by the smallest power of
two above max|y|, so y and 2^k y give it the same bits.

Inputs are scaled to the unit box internally (factor columns excepted), so
the fitted activity parameters live on that scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from . import optimizers
from .design import cross_dist, query_rows, read_count, read_types, training_data

# concentrated -log-likelihood returned when the correlation matrix cannot
# be factorized; large enough that the search never keeps such a point
_PENALTY = 1e10

# the likelihood search factors its hyperparameter rows in stacks of about
# this many doubles, which keeps the search's memory flat in the budget
_STACK_DOUBLES = 2**15

# trailing diagonal of the bordered matrices: far above 1' K^-1 1 and
# y' K^-1 y (|y| < 1) of any factor that the search keeps, so the last two
# pivots stay positive
_BORDER = 1e300

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
    z: np.ndarray  # X on the unit-box scale: (X - x_offset) / x_scale
    alpha: np.ndarray

    def predict(self, xnew: np.ndarray) -> np.ndarray:
        """The predicted mean alone, bit-equal to predict_kriging's."""
        mean = self.mu_hat + _cross_correlation(self, _scaled(self, xnew)) @ self.alpha
        return mean.reshape(-1, 1)

    def mean_and_gradient(self, xnew: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The (m, 1) mean, bit-equal to `predict`'s, and its (m, d) gradient.

        On numeric and integer columns d mean / d x_k is
        -(2 theta_k / s_k) sum_i alpha_i psi_i (z_k - z_ik), where s_k is
        the column's input scale; on factor columns, whose kernel term is an
        indicator, it is zero.
        """
        znew = _scaled(self, xnew)
        psi = _cross_correlation(self, znew)
        mean = self.mu_hat + psi @ self.alpha
        factor = np.array(self.types) == "factor"
        slope = np.where(factor, 0.0, -2.0 * self.theta / self.x_scale)
        weighted = psi * self.alpha.T
        diff = znew[:, None, :] - self.z[None, :, :]
        return mean.reshape(-1, 1), np.einsum("mn,mnd->md", weighted, diff) * slope

    def fold_predictions(self, fold_of: np.ndarray) -> np.ndarray:
        """Each row's mean predicted from the rows outside its fold, (n,).

        `fold_of[i]` is row i's fold, 0 to folds - 1.  The folds keep this
        fit's theta, lambda and input scaling and re-estimate the constant
        mean.  With R = K + lam I, u = R^-1 1 and s = 1'u, the data block
        of the bordered matrix's inverse is C = R^-1 - u u' / s, and fold
        I's held-out means are y_I - C_II^-1 alpha_I (Dubrule, 1983, on
        blocks of rows).  Raises ValueError unless `fold_of` holds one
        integer id >= 0 per row, and when a fold leaves fewer than 2 rows,
        as fit_kriging does.
        """
        n = self.y.shape[0]
        fold_of = np.asarray(fold_of)
        if fold_of.shape != (n,):
            raise ValueError(f"fold_of has shape {fold_of.shape}, the fit has {n} rows")
        if fold_of.dtype.kind not in "iu" or fold_of.min() < 0:
            raise ValueError("fold_of must hold integer fold ids >= 0")
        r_inv = _solve(self.corr_factorization, np.eye(n))
        u = r_inv.sum(axis=1)
        c = r_inv - np.outer(u, u) / u.sum()
        y, alpha = self.y.reshape(-1), self.alpha.reshape(-1)
        out = np.empty(n)
        for k in range(int(fold_of.max()) + 1):
            test = fold_of == k
            if (kept := n - np.count_nonzero(test)) < 2:
                raise ValueError(f"need at least 2 training points, got {kept}")
            out[test] = y[test] - np.linalg.solve(c[np.ix_(test, test)], alpha[test])
        return out

    @cached_property
    def _nugget_free(self) -> Optional[tuple[float, np.ndarray, np.ndarray]]:
        """(sigma2, factor, rows) of the nugget-free correlation, or None.

        With a positive nugget, predict_kriging's sd uses K with its unit
        diagonal, factored over the distinct training sites (replicated rows
        would make it singular), so that sd vanishes at the data; sigma2 is
        alpha' K alpha / n, between 0 and sigma2_hat.  Only predict_kriging
        reads it, so it is built on that call's first use and kept.  None
        without a nugget, and when K does not factor even with jitter.
        """
        if not self.lambda_ > 0.0:
            return None
        n, d = self.z.shape
        # K as the fit built it, and alpha and sigma2 on its target scale
        flat = cross_dist(self.z, self.z, self.types).reshape(d, n * n)
        m = next(_bordered_stacks(self.theta[None], np.array([self.lambda_]), flat, self.y))
        psi_pure = np.where(np.eye(n, dtype=bool), 1.0, m[0, :n, :n])
        e = int(np.frexp(np.max(np.abs(self.y)))[1])
        alpha = np.ldexp(self.alpha, -e)
        sigma2 = float(np.ldexp((alpha.T @ psi_pure @ alpha).item() / n, 2 * e))
        rows = np.sort(np.unique(self.z, axis=0, return_index=True)[1])
        psi_u = psi_pure[np.ix_(rows, rows)]
        for jitter in (0.0, 1e-12, 1e-10, 1e-8):
            try:
                return sigma2, np.linalg.cholesky(psi_u + jitter * np.eye(rows.size)), rows
            except np.linalg.LinAlgError:
                continue
        return None


def _solve(lower: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve k x = b, b (n,) or (n, m), given the lower Cholesky factor of k.

    Forward substitution on L z = b, then back substitution on L' x = z,
    one column of the factor at a time: each step divides one row of the
    solution by its pivot and subtracts that row times the column from the
    rows still to come.  Every operation is elementwise, so no BLAS call
    and no summation order depends on the machine or the thread count.
    One right-hand side, as in the fit's weight refinement, runs in Python
    floats: at a fit's sizes that is several times faster than one numpy
    call per step, which several right-hand sides share.  Both do the same
    operations in the same order, so they give the same bits.
    """
    n = lower.shape[0]
    x = np.array(b, dtype=float).reshape(n, -1)
    if x.shape[1] == 1:
        z = x[:, 0].tolist()
        for k, col in enumerate(lower.T.tolist()):
            zk = z[k] = z[k] / col[k]
            for i in range(k + 1, n):
                z[i] -= col[i] * zk
        for k, row in reversed(list(enumerate(lower.tolist()))):
            zk = z[k] = z[k] / row[k]
            for i in range(k):
                z[i] -= row[i] * zk
        return np.array(z).reshape(np.shape(b))
    cols = lower.T.copy()  # row k holds column k of the factor
    pivots = cols.diagonal().tolist()
    for k in range(n):
        x[k] /= pivots[k]
        x[k + 1 :] -= cols[k, k + 1 :, None] * x[k]
    for k in range(n - 1, -1, -1):
        x[k] /= pivots[k]
        x[:k] -= lower[k, :k, None] * x[k]
    return x.reshape(np.shape(b))


def _likelihood_values(lower: np.ndarray):
    """Concentrated -ln-likelihoods from a stack of bordered factors.

    `lower` is (B, n+2, n+2): rows n and n+1 of each factor are L^-1 1 and
    L^-1 y, and its first n pivots are those of K + lam I.  Returns
    (values, usable, mu, sigma2).  A row is usable, and its value not
    _PENALTY, when every pivot is positive and finite, K + lam I is not
    effectively singular (a lower bound on its condition number above
    1e12: useless for prediction, so penalized like a failure) and sigma2
    is finite.
    """
    n = lower.shape[1] - 2
    l_one = lower[:, n, :n]
    l_y = lower[:, n + 1, :n]
    # the first n entries of each factor's diagonal
    pivots = lower.reshape(lower.shape[0], -1)[:, : n * (n + 3) : n + 3]
    lo, hi = pivots.min(axis=1), pivots.max(axis=1)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        one_q, one_y = (l_one * l_one).sum(axis=1), (l_one * l_y).sum(axis=1)
        mu = one_y / one_q
        resid = l_y - mu[:, None] * l_one
        sigma2 = (resid * resid).sum(axis=1) / n
        # lower bounds on the condition number, as lambda_max >= 1: the
        # squared pivot ratio, and 1'K^-1 1 / n and y'K^-1 y / n (|y| < 1),
        # which is sigma2 + mu 1'K^-1 y / n
        kappa = np.maximum((hi / lo) ** 2, np.maximum(one_q / n, sigma2 + mu * one_y / n))
        # a NaN pivot makes lo, hi and kappa NaN, which fail every comparison
        usable = (lo > 0) & (hi < np.inf) & (kappa <= 1e12)
        usable &= np.isfinite(sigma2)
        half_log_det = np.log(pivots).sum(axis=1)
        value = 0.5 * n * np.log(np.maximum(sigma2, 1e-300)) + half_log_det
    return np.where(usable, value, _PENALTY), usable, mu, sigma2


def _bordered_stacks(theta: np.ndarray, lam: np.ndarray, flat: np.ndarray, y: np.ndarray):
    """Yield the bordered matrices of the rows of theta (B, d) and lam (B,).

    Each stack is (b, n+2, n+2) and holds [[K + lam I, 1, y], [1', C, 0],
    [y', 0, C]] for b consecutive rows, where `flat` is the (d, n*n)
    distance tensor.  A stack holds about _STACK_DOUBLES doubles, which
    keeps memory flat in the row count; the next stack overwrites it.
    """
    rows, n = theta.shape[0], y.shape[0]
    block = max(1, min(rows, _STACK_DOUBLES // (n + 2) ** 2))
    # buffers shared by the stacks, so that each stack allocates only its
    # factor; the border is written once
    corr = np.empty((block, n * n))
    m = np.empty((block, n + 2, n + 2))
    m[:, n, :n] = m[:, :n, n] = 1.0
    m[:, n + 1, :n] = m[:, :n, n + 1] = y.ravel()
    m[:, n:, n:] = [[_BORDER, 0.0], [0.0, _BORDER]]
    for lo in range(0, rows, block):
        hi = min(rows, lo + block)
        b = hi - lo
        # einsum sums theta . d in numpy's own loops, one row at a time, so
        # that a row's bits do not depend on the stack's row count, as a
        # BLAS product's would
        c = np.einsum("bj,jk->bk", theta[lo:hi], flat, out=corr[:b])
        np.negative(c, out=c)
        np.exp(c, out=c)
        m[:b, :n, :n] = c.reshape(b, n, n)
        # the diagonal of a raveled (n+2)-square matrix has stride n+3
        m[:b].reshape(b, -1)[:, : n * (n + 3) : n + 3] += lam[lo:hi, None]
        yield m[:b]


def _bordered_values(m: np.ndarray) -> np.ndarray:
    """Likelihood values of a stack of bordered matrices (B, n+2, n+2).

    np.linalg.cholesky raises for the whole stack when one of its matrices
    does not factor, so such a stack is factored again one matrix at a
    time (one more factorization each; halving was slower where many rows
    fail), and a matrix that does not factor gets _PENALTY.
    """
    try:
        lower = np.linalg.cholesky(m)
    except np.linalg.LinAlgError:
        if m.shape[0] == 1:
            return np.array([_PENALTY])
        return np.concatenate([_bordered_values(m[i : i + 1]) for i in range(m.shape[0])])
    return _likelihood_values(lower)[0]


def fit_kriging(X: np.ndarray, y: np.ndarray, control: Optional[dict] = None) -> KrigingFit:
    """Maximum-likelihood Kriging fit.

    Control keys read: types (one per column of X, all numeric when absent
    or empty, as `read_types` reads them), algTheta ("lhd", "local" or a
    callable with the optimizer signature), budget (likelihood evaluations,
    a count as `read_count` reads it, default 200 per hyperparameter),
    useLambda (fit a nugget, default True) and seed; any other key is ignored.
    Hyperparameters are searched on the log10 ranges DEFAULT_THETA_BOUNDS
    and DEFAULT_LAMBDA_BOUNDS.

    The search and the fit at the chosen hyperparameters take their
    likelihood values, mu and sigma2 from the same bordered Cholesky factor
    (_bordered_stacks, _likelihood_values), with y divided by 2**e, the
    smallest power of two above max|y|.  The weights are solved and refined
    on that scale too, so the fit on 2**k y is the fit on y with mu and
    alpha times 2**k and the variances times 4**k, bit for bit.  Raises
    ValueError where `training_data(X, y, least=2)` does, when the chosen
    hyperparameters give a correlation matrix that the search penalizes,
    and when the scaled-back mean, variances or weights overflow (max|y|
    beyond about 1e150).
    """
    control = dict(control or {})
    X, y = training_data(X, y, least=2)
    y = y.reshape(-1, 1)
    n, d = X.shape
    types = read_types(control.get("types"), d)
    use_lambda = bool(control.get("useLambda", True))

    if not use_lambda:
        uniq = np.unique(X, axis=0)
        if uniq.shape[0] != n:
            raise ValueError("duplicate rows require a nugget (useLambda)")

    # scale distance-based columns onto the unit box for conditioning
    x_offset = X.min(axis=0)
    span = X.max(axis=0) - x_offset
    x_scale = np.where(span > 0, span, 1.0)
    factor = np.array(types) == "factor"
    x_offset[factor], x_scale[factor] = 0.0, 1.0
    z = (X - x_offset) / x_scale
    flat = cross_dist(z, z, types).reshape(d, n * n)
    # np.ldexp, as 2.0 ** e overflows for max|y| near the largest double
    e = int(np.frexp(np.max(np.abs(y)))[1])
    y_unit = np.ldexp(y, -e)

    n_par = d + (1 if use_lambda else 0)
    budget = read_count(control, "budget", 200 * n_par)
    lower = np.full(n_par, DEFAULT_THETA_BOUNDS[0])
    upper = np.full(n_par, DEFAULT_THETA_BOUNDS[1])
    if use_lambda:
        lower[-1], upper[-1] = DEFAULT_LAMBDA_BOUNDS

    def objective(v: np.ndarray) -> np.ndarray:
        v = np.atleast_2d(v)
        theta = 10.0 ** v[:, :d]
        lam = 10.0 ** v[:, d] if use_lambda else np.zeros(v.shape[0])
        stacks = _bordered_stacks(theta, lam, flat, y_unit)
        return np.concatenate([_bordered_values(m) for m in stacks]).reshape(-1, 1)

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
    # the chosen row's bordered matrix, built and factored as in the search
    m = next(_bordered_stacks(theta[None], np.array([lam]), flat, y_unit))
    singular = "correlation matrix is singular at the selected hyperparameters"
    try:
        factor = np.linalg.cholesky(m)
    except np.linalg.LinAlgError:
        raise ValueError(singular) from None
    _, usable, mu, sigma2 = _likelihood_values(factor)
    if not usable[0]:
        raise ValueError(singular)
    mu, sigma2 = mu[0], sigma2[0]
    lower_chol = factor[0, :n, :n]
    # cholesky leaves m intact, so its leading block is K + lam I
    k_mat = m[0, :n, :n]

    # polish the prediction weights by iterative refinement: the plain solve
    # is fine for the likelihood but loses digits when the kernel is nearly
    # flat, and predictions at the training points inherit that error
    resid = y_unit - mu
    alpha = _solve(lower_chol, resid)
    scale_r = max(1.0, float(np.max(np.abs(resid))))
    for _ in range(3):
        gap = resid - k_mat @ alpha
        if np.max(np.abs(gap)) <= 1e-14 * scale_r:
            break
        alpha = alpha + _solve(lower_chol, gap)

    # back to the units of y, exactly, since the scale is a power of two
    with np.errstate(over="ignore"):
        mu, sigma2 = np.ldexp([mu, sigma2], [e, 2 * e]).tolist()
        alpha = np.ldexp(alpha, e)
    if not (np.isfinite([mu, sigma2]).all() and np.isfinite(alpha).all()):
        raise ValueError("the targets are too large: the process variance overflows")

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
        z=z,
        alpha=alpha,
    )


def _scaled(fit: KrigingFit, xnew: np.ndarray) -> np.ndarray:
    """New points (rows) on the training inputs' unit-box scale."""
    xnew = query_rows(xnew, fit.X.shape[1])
    return (xnew - fit.x_offset) / fit.x_scale


def _cross_correlation(fit: KrigingFit, znew: np.ndarray) -> np.ndarray:
    """Correlations between scaled new points (rows) and the training points."""
    cross = cross_dist(znew, fit.z, fit.types)
    psi = np.exp(-np.dot(fit.theta.reshape(1, -1), cross.reshape(cross.shape[0], -1)))
    return psi.reshape(cross.shape[1:])


def predict_kriging(fit: KrigingFit, xnew: np.ndarray) -> dict:
    """Predict mean and standard deviation at new points.

    With a positive nugget the error estimate uses the nugget-free
    correlation, so it collapses to zero at the training points; at zero
    nugget, or if that correlation would not factorize, the fitted one.
    The nugget-free factor is built on a fit's first call and kept.
    """
    psi = _cross_correlation(fit, _scaled(fit, xnew))
    mean = fit.mu_hat + psi @ fit.alpha

    nugget_free = fit._nugget_free
    if nugget_free is not None:
        sigma2_re, lower_re, rows = nugget_free
        psi_u = psi[:, rows]
        solved = _solve(lower_re, psi_u.T)
        s2 = sigma2_re * (1.0 - np.sum(psi_u.T * solved, axis=0))
    else:
        solved = _solve(fit.corr_factorization, psi.T)
        s2 = fit.sigma2_hat * (
            1.0 + fit.lambda_ - np.sum(psi.T * solved, axis=0)
        )
    sd = np.sqrt(np.clip(s2, 0.0, None)).reshape(-1, 1)
    return {"mean": mean.reshape(-1, 1), "sd": sd}
