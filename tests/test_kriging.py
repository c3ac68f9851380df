"""Kriging surrogate: kernel algebra, BLUP equations, noise handling.

The prediction oracle below recomputes the best linear unbiased predictor
with plain dense solves (np.linalg.solve on the full correlation matrix),
so it shares no code path with the Cholesky-based implementation.  The
kernel oracle `kernel_value` sums the correlation exponent one term at a
time, independent of the vectorized distance kernel in the package.

The package takes every likelihood value, in the search and in the final
fit, from one bordered Cholesky factor per hyperparameter row, which
np.linalg.cholesky computes for a stack of rows at a time.
`_reference_neg_log_likelihood` computes the likelihood one row at a time
through scipy's `cholesky`/`cho_solve` wrappers and names the branch of
each penalty; the search's values are checked against it to a tolerance
that grows with the conditioning.  Prediction solves by forward and back
substitution on the stored factor.  `_reference_predict` writes the same
computation with `np.tensordot` and a solve passed in: with
`_substitution_solve`, the same substitution one scalar at a time in
plain Python floats, it must agree with the package bit for bit; with
scipy's `cho_solve` (LAPACK's dpotrs) to 1e-12.
"""

import math
import tracemalloc
from typing import Optional, Sequence

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from scipy.linalg import cho_solve, cholesky

from seqtune.design import cross_dist
from seqtune.kriging import (
    _PENALTY,
    DEFAULT_LAMBDA_BOUNDS,
    DEFAULT_THETA_BOUNDS,
    KrigingFit,
    _bordered_stacks,
    _bordered_values,
    _cross_correlation,
    _scaled,
    _solve,
    fit_kriging,
    predict_kriging,
)
from seqtune.optimizers import optim_lhd

# ---------------------------------------------------------------------------
# kernel


def kernel_value(
    a: Sequence[float],
    b: Sequence[float],
    theta: Sequence[float],
    p: float = 2.0,
    types: Optional[Sequence[str]] = None,
) -> float:
    """Correlation between two raw-coordinate points, one term at a time."""
    a = np.asarray(a, dtype=float).reshape(-1)
    b = np.asarray(b, dtype=float).reshape(-1)
    theta = np.asarray(theta, dtype=float).reshape(-1)
    if not (a.shape == b.shape == theta.shape):
        raise ValueError("a, b and theta must have the same length")
    if np.any(theta < 0):
        raise ValueError("theta must be nonnegative")
    types = tuple(types) if types else ("numeric",) * a.size
    acc = 0.0
    for i, t in enumerate(types):
        if t == "factor":
            acc += theta[i] * (a[i] != b[i])
        else:
            acc += theta[i] * abs(a[i] - b[i]) ** p
    return float(np.exp(-acc))


def test_kernel_is_one_at_identical_points():
    assert kernel_value([1.0, 2.0], [1.0, 2.0], [3.0, 0.5]) == 1.0


def test_kernel_unit_distance_unit_theta():
    assert kernel_value([0.0], [1.0], [1.0]) == pytest.approx(math.exp(-1.0))


def test_kernel_squared_exponent_by_default():
    # distance 2 with theta 1 and p=2 gives exp(-4)
    assert kernel_value([0.0], [2.0], [1.0]) == pytest.approx(math.exp(-4.0))


def test_kernel_zero_theta_ignores_dimension():
    assert kernel_value([0.0, 0.0], [9.0, 1.0], [0.0, 1.0]) == pytest.approx(
        math.exp(-1.0)
    )


def test_kernel_factor_dimension_is_indicator():
    t = ("numeric", "factor")
    same = kernel_value([0.0, 2.0], [0.0, 2.0], [1.0, 5.0], types=t)
    diff = kernel_value([0.0, 1.0], [0.0, 3.0], [1.0, 5.0], types=t)
    assert same == 1.0
    # any unequal level pair costs exactly exp(-theta), independent of gap
    assert diff == pytest.approx(math.exp(-5.0))
    assert kernel_value([0.0, 1.0], [0.0, 2.0], [1.0, 5.0], types=t) == diff


@given(
    st.lists(st.floats(-10, 10, allow_nan=False), min_size=1, max_size=4),
    st.lists(st.floats(-10, 10, allow_nan=False), min_size=1, max_size=4),
    st.lists(st.floats(0, 5, allow_nan=False), min_size=1, max_size=4),
)
def test_kernel_symmetry_and_range(a, b, theta):
    k = min(len(a), len(b), len(theta))
    a, b, theta = a[:k], b[:k], theta[:k]
    v1 = kernel_value(a, b, theta)
    v2 = kernel_value(b, a, theta)
    assert v1 == pytest.approx(v2)
    assert 0.0 <= v1 <= 1.0


def test_kernel_validates_input():
    with pytest.raises(ValueError):
        kernel_value([0.0], [1.0, 2.0], [1.0])
    with pytest.raises(ValueError):
        kernel_value([0.0], [1.0], [-1.0])


# ---------------------------------------------------------------------------
# fitting and the BLUP equations


def _blup_oracle(fit: KrigingFit, xnew: np.ndarray) -> np.ndarray:
    """Dense-solve reimplementation of the predictor from fitted state."""
    z = (fit.X - fit.x_offset) / fit.x_scale
    zq = (np.atleast_2d(xnew) - fit.x_offset) / fit.x_scale
    n = z.shape[0]
    psi = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            psi[i, j] = kernel_value(z[i], z[j], fit.theta, types=fit.types)
    k = psi + fit.lambda_ * np.eye(n)
    one = np.ones((n, 1))
    kinv_y = np.linalg.solve(k, fit.y)
    kinv_one = np.linalg.solve(k, one)
    mu = (one.T @ kinv_y).item() / (one.T @ kinv_one).item()
    kinv_resid = np.linalg.solve(k, fit.y - mu)
    out = np.empty((zq.shape[0], 1))
    for m in range(zq.shape[0]):
        cross = np.array(
            [kernel_value(zq[m], z[i], fit.theta, types=fit.types) for i in range(n)]
        )
        out[m, 0] = mu + cross @ kinv_resid[:, 0]
    return out


def test_two_point_fit_interpolates_exactly():
    fit = fit_kriging(
        [[0.0], [1.0]], [1.0, 3.0], {"useLambda": False, "budget": 60, "seed": 1}
    )
    pred = predict_kriging(fit, [[0.0], [1.0]])
    assert pred["mean"][:, 0] == pytest.approx([1.0, 3.0], abs=1e-8)
    assert pred["sd"][:, 0] == pytest.approx([0.0, 0.0], abs=1e-6)
    # away from the data the error estimate is positive
    assert predict_kriging(fit, [[0.5]])["sd"].item() > 0


def test_prediction_matches_dense_blup_oracle():
    rng = np.random.default_rng(3)
    X = rng.uniform(-2.0, 4.0, size=(9, 2))
    y = np.sin(X[:, 0]) + 0.3 * X[:, 1] ** 2
    fit = fit_kriging(X, y, {"useLambda": False, "budget": 90, "seed": 2})
    xq = rng.uniform(-2.0, 4.0, size=(6, 2))
    assert predict_kriging(fit, xq)["mean"] == pytest.approx(
        _blup_oracle(fit, xq), abs=1e-8
    )


def test_prediction_matches_oracle_with_nugget_and_offset_scaling():
    # data far from the origin exercises the internal unit-box scaling
    rng = np.random.default_rng(7)
    X = rng.uniform(100.0, 140.0, size=(10, 2))
    y = 0.01 * (X[:, 0] - 120.0) ** 2 + rng.normal(0, 0.1, 10)
    fit = fit_kriging(X, y, {"budget": 90, "seed": 4})
    xq = rng.uniform(100.0, 140.0, size=(5, 2))
    assert predict_kriging(fit, xq)["mean"] == pytest.approx(
        _blup_oracle(fit, xq), abs=1e-7
    )


def test_interpolation_of_noise_free_data():
    rng = np.random.default_rng(11)
    X = rng.uniform(0.0, 1.0, size=(12, 2))
    y = fit_y = (X**2).sum(axis=1)
    fit = fit_kriging(X, y, {"useLambda": False, "budget": 120, "seed": 5})
    pred = fit.predict(X)[:, 0]
    span = fit_y.max() - fit_y.min()
    assert np.max(np.abs(pred - fit_y)) <= 1e-6 * span


def test_reinterpolation_zeroes_error_at_training_points():
    rng = np.random.default_rng(13)
    base = rng.uniform(0.0, 10.0, size=(6, 1))
    X = np.vstack([base, base])  # every point evaluated twice
    y = (X[:, 0] - 5.0) ** 2 + rng.normal(0.0, 0.5, 12)
    fit = fit_kriging(X, y, {"budget": 120, "seed": 6})
    assert fit.lambda_ > 0
    assert fit.lambda_ >= 10 ** DEFAULT_LAMBDA_BOUNDS[0]
    out = predict_kriging(fit, base)
    spread = np.std(y)
    assert np.all(out["sd"][:, 0] <= 1e-6 * spread)
    # between training sites the uncertainty comes back
    mid = np.array([[np.sort(base[:, 0])[:2].mean()]])
    assert predict_kriging(fit, mid)["sd"].item() > 1e-6 * spread


def test_duplicates_without_nugget_are_rejected():
    X = [[0.0], [0.0], [1.0]]
    with pytest.raises(ValueError, match="nugget"):
        fit_kriging(X, [1.0, 1.1, 2.0], {"useLambda": False})


def test_constant_targets_predict_the_constant():
    X = np.linspace(0, 1, 8).reshape(-1, 1)
    fit = fit_kriging(X, np.full(8, 4.25), {"budget": 60, "seed": 0})
    assert fit.predict([[0.33], [0.91]])[:, 0] == pytest.approx(
        [4.25, 4.25], abs=1e-8
    )


def test_fit_is_deterministic_under_seed():
    rng = np.random.default_rng(17)
    X = rng.uniform(-1, 1, size=(8, 2))
    y = X[:, 0] * X[:, 1]
    a = fit_kriging(X, y, {"budget": 80, "seed": 21})
    b = fit_kriging(X, y, {"budget": 80, "seed": 21})
    assert np.array_equal(a.theta, b.theta)
    assert a.lambda_ == b.lambda_


def test_likelihood_search_respects_budget():
    rng = np.random.default_rng(19)
    X = rng.uniform(-1, 1, size=(7, 2))
    y = (X**2).sum(axis=1)
    lhd = fit_kriging(X, y, {"budget": 50, "seed": 1, "algTheta": "lhd"})
    assert lhd.likelihood_evals == 50
    local = fit_kriging(X, y, {"budget": 50, "seed": 1, "algTheta": "local"})
    assert local.likelihood_evals <= 50


def test_default_budget_counts_hyperparameters():
    # 2 activity parameters + 1 nugget at 200 likelihood calls each
    rng = np.random.default_rng(23)
    X = rng.uniform(0, 1, size=(6, 2))
    y = X[:, 0]
    fit = fit_kriging(X, y, {"algTheta": "lhd", "seed": 1})
    assert fit.likelihood_evals == 600


def test_custom_search_callable_is_used():
    calls = []

    def my_search(start, fun, lower, upper, control):
        calls.append(control["funEvals"])
        return optim_lhd(start, fun, lower, upper, control)

    rng = np.random.default_rng(29)
    X = rng.uniform(0, 1, size=(6, 1))
    fit = fit_kriging(X, X[:, 0], {"algTheta": my_search, "budget": 40, "seed": 3})
    assert calls == [40]
    assert fit.likelihood_evals == 40


def test_unknown_search_name_is_rejected():
    with pytest.raises(ValueError, match="algTheta"):
        fit_kriging([[0.0], [1.0]], [0.0, 1.0], {"algTheta": "gradient"})


def test_fit_validates_shapes():
    with pytest.raises(ValueError):
        fit_kriging([[0.0], [1.0]], [1.0])
    with pytest.raises(ValueError):
        fit_kriging([[0.0]], [1.0])
    with pytest.raises(ValueError):
        fit_kriging([[0.0], [1.0]], [0.0, 1.0], {"types": ("numeric",) * 3})


def test_predict_validates_dimension():
    fit = fit_kriging([[0.0], [1.0]], [0.0, 1.0], {"budget": 40, "seed": 1})
    with pytest.raises(ValueError):
        predict_kriging(fit, [[0.0, 1.0]])


def test_factor_training_column_changes_prediction_by_level():
    # same numeric location, different level: predictions may differ; and a
    # level seen in training predicts its own target back under interpolation
    rng = np.random.default_rng(31)
    xnum = rng.uniform(0, 1, size=(12, 1))
    lev = np.tile([1.0, 2.0], 6).reshape(-1, 1)
    X = np.hstack([xnum, lev])
    y = xnum[:, 0] + np.where(lev[:, 0] == 1.0, 1.0, -1.0)
    fit = fit_kriging(
        X, y,
        {"types": ("numeric", "factor"), "useLambda": False,
         "budget": 120, "seed": 8},
    )
    pred = fit.predict(X)[:, 0]
    assert np.max(np.abs(pred - y)) <= 1e-5 * (y.max() - y.min())


def test_theta_search_range_reaches_tiny_activity():
    # near-inactive factor dimensions need activity weights down at 1e-6 to
    # model almost-perfect cross-level correlation
    assert DEFAULT_THETA_BOUNDS[0] <= -6.0
    assert DEFAULT_THETA_BOUNDS[1] >= 2.0


# ---------------------------------------------------------------------------
# references: scipy's wrappers and the scalar substitution


def _reference_neg_log_likelihood(theta, lam, dists, y):
    """The likelihood through scipy's wrappers, for |y| < 1.

    Returns (value, parts or the name of the penalty's branch, bound), where
    bound is the lower bound on the condition number of K + lam I that the
    penalty rule reads, NaN when there is no factor to read it from.
    """
    n = y.shape[0]
    psi = np.exp(-np.tensordot(theta, dists, axes=1))
    k = psi + lam * np.eye(n)
    try:
        lower = cholesky(k, lower=True, check_finite=False)
    except np.linalg.LinAlgError:
        return _PENALTY, "factor", np.nan
    diag = np.diag(lower)
    if np.any(diag <= 0) or not np.all(np.isfinite(diag)):
        return _PENALTY, "diagonal", np.nan
    one = np.ones((n, 1))
    kinv_y = cho_solve((lower, True), y, check_finite=False)
    kinv_one = cho_solve((lower, True), one, check_finite=False)
    # the squared pivot ratio, and the Rayleigh quotients of K^-1 at 1 and
    # y over n, which are at most 1 / lambda_min while lambda_max >= 1
    quotients = (one.T @ kinv_one).item() / n, (y.T @ kinv_y).item() / n
    bound = max((diag.max() / diag.min()) ** 2, *quotients)
    if bound > 1e12:
        return _PENALTY, "conditioning", bound
    mu = ((one.T @ kinv_y) / (one.T @ kinv_one)).item()
    resid = y - mu
    kinv_resid = kinv_y - mu * kinv_one
    sigma2 = (resid.T @ kinv_resid).item() / n
    if not np.isfinite(sigma2):
        return _PENALTY, "sigma2", bound
    value = 0.5 * n * np.log(max(sigma2, 1e-300)) + np.sum(np.log(diag))
    if not np.isfinite(value):
        return _PENALTY, "value", bound
    return float(value), (psi, k, lower, mu, sigma2, kinv_resid), bound


def _substitution_solve(lower: np.ndarray, b: np.ndarray) -> np.ndarray:
    """k x = b from the lower Cholesky factor of k, one scalar at a time.

    Column-oriented forward and back substitution in Python floats, for
    each column of b in turn: the package's order of operations, with no
    numpy arithmetic.
    """
    rows = lower.tolist()
    n = len(rows)
    out = []
    for z in np.asarray(b, dtype=float).reshape(n, -1).T.tolist():
        for k in range(n):
            z[k] /= rows[k][k]
            for i in range(k + 1, n):
                z[i] -= rows[i][k] * z[k]
        for k in range(n - 1, -1, -1):
            z[k] /= rows[k][k]
            for i in range(k):
                z[i] -= rows[k][i] * z[k]
        out.append(z)
    return np.array(out).T.reshape(np.shape(b))


def _cho_solve(lower: np.ndarray, b: np.ndarray) -> np.ndarray:
    return cho_solve((lower, True), b, check_finite=False)


def _reference_predict(fit: KrigingFit, xnew: np.ndarray, solve=_substitution_solve) -> dict:
    """`predict_kriging` through `np.tensordot` and `solve`."""
    xnew = np.atleast_2d(np.asarray(xnew, dtype=float))
    znew = (xnew - fit.x_offset) / fit.x_scale
    ztrain = (fit.X - fit.x_offset) / fit.x_scale
    cross = cross_dist(znew, ztrain, fit.types)
    psi = np.exp(-np.tensordot(fit.theta, cross, axes=1))
    mean = fit.mu_hat + psi @ fit.alpha
    if fit.corr_factorization_re is not None:
        psi_u = psi[:, fit.reinterp_idx]
        solved = solve(fit.corr_factorization_re, psi_u.T)
        s2 = fit.sigma2_re * (1.0 - np.sum(psi_u.T * solved, axis=0))
    else:
        solved = solve(fit.corr_factorization, psi.T)
        s2 = fit.sigma2_hat * (1.0 + fit.lambda_ - np.sum(psi.T * solved, axis=0))
    sd = np.sqrt(np.clip(s2, 0.0, None)).reshape(-1, 1)
    return {"mean": mean.reshape(-1, 1), "sd": sd}


def _bits(a) -> bytes:
    return np.asarray(a).tobytes()


@pytest.mark.parametrize("rows", [1, 100])
@pytest.mark.parametrize("use_lambda", [True, False])
def test_prediction_matches_the_wrapper_reference_bit_for_bit(use_lambda, rows):
    # with a nugget sd comes from the nugget-free factor, without it from
    # the fitted one
    rng = np.random.default_rng(37)
    base = rng.uniform(-5.0, 10.0, size=(10, 2))
    # replicated sites need the nugget
    X = np.vstack([base, base[:4]]) if use_lambda else base
    y = np.cos(X[:, 0]) + 0.1 * X[:, 1] + rng.normal(0.0, 0.3, X.shape[0])
    fit = fit_kriging(X, y, {"budget": 120, "seed": 9, "useLambda": use_lambda})
    assert (fit.lambda_ > 0) == use_lambda
    assert (fit.corr_factorization_re is not None) == use_lambda
    xq = rng.uniform(-5.0, 10.0, size=(rows, 2))
    got = predict_kriging(fit, xq)
    want = _reference_predict(fit, xq)
    assert _bits(got["mean"]) == _bits(want["mean"])
    assert _bits(got["sd"]) == _bits(want["sd"])
    assert _bits(fit.predict(xq)) == _bits(want["mean"])
    # the solves that sd reads agree with LAPACK's dpotrs to 1e-12
    lower = fit.corr_factorization_re if use_lambda else fit.corr_factorization
    psi = _cross_correlation(fit, _scaled(fit, xq))
    psi = psi[:, fit.reinterp_idx] if use_lambda else psi
    ours, lapack = _solve(lower, psi.T), _cho_solve(lower, psi.T)
    assert np.abs(ours - lapack).max() <= 1e-12 * np.abs(lapack).max()


def test_predict_reads_the_scaled_inputs_stored_at_fit_time():
    # fit.z is the unit-box scaling of X that predict used to recompute on
    # every call; the stored copy gives the same bits, and its kernel values
    # are the scalar oracle's
    rng = np.random.default_rng(41)
    types = ("numeric", "integer", "factor")
    X = np.column_stack([rng.uniform(-5.0, 10.0, 12), rng.integers(0, 8, 12),
                         rng.integers(0, 3, 12)]).astype(float)
    y = np.sin(X[:, 0]) + 0.2 * X[:, 1] + X[:, 2] + rng.normal(0.0, 0.1, 12)
    fit = fit_kriging(X, y, {"types": types, "budget": 80, "seed": 3})
    assert _bits(fit.z) == _bits((fit.X - fit.x_offset) / fit.x_scale)
    xq = np.column_stack([rng.uniform(-5.0, 10.0, 7), rng.integers(0, 8, 7),
                          rng.integers(0, 3, 7)]).astype(float)
    assert _bits(fit.predict(xq)) == _bits(_reference_predict(fit, xq)["mean"])
    zq = (xq - fit.x_offset) / fit.x_scale
    psi = np.array([[kernel_value(a, b, fit.theta, types=types) for b in fit.z] for a in zq])
    assert fit.predict(xq) == pytest.approx(fit.mu_hat + psi @ fit.alpha, rel=1e-12)


# ---------------------------------------------------------------------------
# the stacked likelihood search against the per-row reference


class _Captured(Exception):
    """Carries the objective, lower and upper that fit_kriging hands its search."""


def _search_objective(X, y, types, use_lambda):
    """The objective that fit_kriging hands its hyperparameter search."""

    def capture(start, fun, lower, upper, control):
        raise _Captured(fun, lower, upper)

    control = {"types": types, "useLambda": use_lambda, "algTheta": capture}
    with pytest.raises(_Captured) as captured:
        fit_kriging(X, y, control)
    return captured.value.args


def _reference_values(X, y, types, rows, use_lambda):
    """Reference values, squared pivot ratios, condition bounds and numbers.

    The numeric columns of X span [0, 1] exactly, so the fit's unit-box
    scaling leaves them unchanged and the distances here are the fit's.  y
    is divided by the smallest power of two above max|y|, as in the fit.
    The squared pivot ratio is that of the reference's factor, and 1 where
    the reference penalizes the row; the bound is the one its penalty rule
    reads.  The condition number of K + lam I comes from its singular
    values, a computation that shares nothing with either factorization.
    Also returns the branches that the rows reached.
    """
    n, d = X.shape
    dists = cross_dist(X, X, types)
    y_unit = np.ldexp(y, -np.frexp(np.max(np.abs(y)))[1])
    values, ratio2, bounds, kappa, branches = [], [], [], [], set()
    for row in rows:
        theta, lam = 10.0 ** row[:d], 10.0 ** row[d] if use_lambda else 0.0
        value, ref, bound = _reference_neg_log_likelihood(theta, lam, dists, y_unit)
        values.append(value)
        bounds.append(bound)
        if isinstance(ref, str):
            branches.add(ref)
            ratio2.append(1.0)
        else:
            branches.add("value")
            pivots = np.diag(ref[2])
            ratio2.append((pivots.max() / pivots.min()) ** 2)
        kappa.append(np.linalg.cond(np.exp(-np.tensordot(theta, dists, axes=1)) + lam * np.eye(n)))
    return tuple(map(np.array, (values, ratio2, bounds, kappa))) + (branches,)


def _check_search_against_reference(X, y, types, use_lambda, rng):
    """300 random rows through the search's objective against the reference.

    Returns the reference's branches that the rows reached.
    """
    objective, lower, upper = _search_objective(X, y, types, use_lambda)
    rows = rng.uniform(lower, upper, size=(300, lower.size))
    got = objective(rows)[:, 0]
    want, ratio2, bound, kappa, branches = _reference_values(X, y, types, rows, use_lambda)
    n, eps = y.shape[0], np.finfo(float).eps
    # beyond a condition number of 1/eps, reached only without a nugget, K
    # is singular to working precision: whether it factors, and the pivots
    # that the penalty rule reads, depend on the rounding of the LAPACK
    # build.  Below it the bound that the rule reads still carries a
    # relative error of up to about n eps kappa, so a row whose bound is
    # that close to 1e12 can fall on either side.
    near = np.abs(np.log(bound / 1e12)) <= np.log1p(n * eps * kappa)
    determined = (kappa < 1.0 / eps) & ~near
    assert determined.all() or not use_lambda
    assert np.array_equal((got == _PENALTY)[determined], (want == _PENALTY)[determined])
    # both paths round like a backward-stable solve, so beyond a squared
    # pivot ratio of 1e4 the gap grows with the conditioning
    tol = 1e-9 * np.maximum(1.0, ratio2 / 1e4) * np.maximum(1.0, np.abs(want))
    if not use_lambda:
        # without a nugget the squared pivot ratio can understate the
        # condition number a hundred million times; beyond 1e8 a scored
        # row's gap is bounded by n eps kappa instead (the largest seen on
        # 600 fuzzed examples was a tenth of that)
        wide = (want < _PENALTY) & (kappa > 1e8)
        tol = np.where(wide, np.maximum(tol, n * eps * kappa), tol)
    agree = (got == _PENALTY) == (want == _PENALTY)
    assert np.all((np.abs(got - want) <= tol)[agree])
    # a row that the reference penalizes keeps ratio 1, so the search's best
    # row must be one that the reference scores
    best, want_best = int(np.argmin(got)), int(np.argmin(want))
    tie = want[best] - want[want_best] <= tol[best] + tol[want_best]
    assert best == want_best or tie
    return branches


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(2, 40),
    types=st.lists(st.sampled_from(["numeric", "factor"]), min_size=1, max_size=3),
    use_lambda=st.booleans(),
    magnitude=st.integers(-150, 150),
    seed=st.integers(0, 2**32 - 1),
)
def test_stacked_search_matches_the_per_row_likelihood(
    n, types, use_lambda, magnitude, seed
):
    rng = np.random.default_rng(seed)
    types = tuple(types)
    X = np.column_stack([
        rng.integers(0, 3, n).astype(float) if t == "factor" else rng.uniform(0, 1, n)
        for t in types
    ])
    X[:2, [t == "numeric" for t in types]] = [[0.0], [1.0]]
    if not use_lambda:
        X = np.unique(X, axis=0)  # without a nugget the fit rejects duplicates
        assume(X.shape[0] >= 2)
    y = 10.0**magnitude * rng.normal(size=(X.shape[0], 1))
    _check_search_against_reference(X, y, types, use_lambda, rng)


@pytest.mark.parametrize("n", [12, 30, 60])
def test_the_search_without_a_nugget_reaches_both_penalties(n):
    # near-zero activity makes K all but a matrix of ones, which does not
    # factor, and moderate activity leaves factors too badly conditioned to
    # use; both must be penalized as the reference penalizes them
    rng = np.random.default_rng(n)
    X = rng.uniform(0.0, 1.0, size=(n, 2))
    X[:2] = [[0.0, 0.0], [1.0, 1.0]]
    y = (np.sin(6.0 * X[:, 0]) + X[:, 1] ** 2).reshape(-1, 1)
    branches = _check_search_against_reference(X, y, ("numeric",) * 2, False, rng)
    assert {"value", "factor", "conditioning"} <= branches


def test_a_stack_that_does_not_factor_is_evaluated_row_by_row(monkeypatch):
    # without a nugget, near-zero activity makes K + lam I all but a matrix
    # of ones, which does not factor; np.linalg.cholesky then raises for the
    # whole stack, which is factored again one matrix at a time
    rng = np.random.default_rng(43)
    n, d = 12, 2
    z = rng.uniform(0.0, 1.0, size=(n, d))
    y = (np.sin(6.0 * z[:, 0]) + z[:, 1] ** 2).reshape(-1, 1)
    flat = cross_dist(z, z, ("numeric",) * d).reshape(d, n * n)
    theta = 10.0 ** np.array([[1.0, 1.0], [-6.0, -6.0], [0.5, 1.5]])
    lam = np.zeros(3)
    shapes, raised = [], []
    cholesky = np.linalg.cholesky

    def spy(a):
        shapes.append(a.shape[0])
        try:
            return cholesky(a)
        except np.linalg.LinAlgError:
            raised.append(a.shape[0])
            raise

    monkeypatch.setattr(np.linalg, "cholesky", spy)
    m = next(_bordered_stacks(theta, lam, flat, y))
    assert m.shape == (3, n + 2, n + 2)
    got = _bordered_values(m)
    assert shapes == [3, 1, 1, 1]
    assert raised == [3, 1]
    assert got[1] == _PENALTY
    # each other matrix of the stack gets the value it gets alone
    for i in (0, 2):
        alone = _bordered_values(m[i : i + 1])
        assert _bits(got[i]) == _bits(alone) and alone[0] < _PENALTY


@pytest.mark.parametrize("use_lambda", [True, False])
def test_targets_scaled_by_a_power_of_two_give_the_same_fit(use_lambda):
    # the search sees y divided by the smallest power of two above max|y|,
    # so y and 2**k y give it the same bits, and the fit scales back exactly
    rng = np.random.default_rng(59)
    X = rng.uniform(0.0, 1.0, size=(12, 2))
    y = np.sin(6.0 * X[:, 0]) + X[:, 1] ** 2
    xq = rng.uniform(0.0, 1.0, size=(5, 2))
    control = {"seed": 3, "useLambda": use_lambda}
    base = fit_kriging(X, y, control)
    base_pred = predict_kriging(base, xq)
    for k in (-400, 400):
        fit = fit_kriging(X, np.ldexp(y, k), control)
        assert _bits(fit.theta) == _bits(base.theta)
        assert fit.lambda_ == base.lambda_
        pred = predict_kriging(fit, xq)
        assert np.all(np.isfinite(pred["mean"])) and np.all(pred["sd"] > 0)
        assert _bits(pred["mean"]) == _bits(np.ldexp(base_pred["mean"], k))
        assert _bits(pred["sd"]) == _bits(np.ldexp(base_pred["sd"], k))
    # at 2**1000 y the process variance, 4**1000 times the fit's, is no double
    with pytest.raises(ValueError, match="overflows"):
        fit_kriging(X, np.ldexp(y, 1000), control)


def test_the_search_factors_each_stack_of_rows_in_one_call(monkeypatch):
    # 2**15 doubles hold 167 bordered 14-by-14 matrices; with a nugget
    # every stack factors, so the 400 rows take three calls; the final fit
    # then factors the chosen row's bordered matrix and the nugget-free
    # correlation
    shapes = []
    cholesky = np.linalg.cholesky

    def spy(a):
        lower = cholesky(a)
        shapes.append(a.shape)
        return lower

    monkeypatch.setattr(np.linalg, "cholesky", spy)
    rng = np.random.default_rng(53)
    X = rng.uniform(-1.0, 1.0, size=(12, 1))
    fit = fit_kriging(X, np.cos(3.0 * X[:, 0]), {"seed": 2})
    assert fit.likelihood_evals == 400
    assert shapes == [(167, 14, 14), (167, 14, 14), (66, 14, 14), (1, 14, 14), (12, 12)]


@pytest.mark.parametrize("use_lambda", [True, False])
def test_the_final_fit_factors_the_matrix_that_the_search_scored(monkeypatch, use_lambda):
    # with six columns a BLAS product rounds a row's correlations by the
    # number of rows it is computed with; the chosen row's bordered matrix
    # and factor in the final fit's one-row stack must still be the ones
    # the search scored in a stack of many rows
    calls = []
    cholesky = np.linalg.cholesky

    def spy(a):
        lower = cholesky(a)
        calls.append((a.copy(), lower))
        return lower

    monkeypatch.setattr(np.linalg, "cholesky", spy)
    rng = np.random.default_rng(61)
    X = rng.uniform(0.0, 1.0, size=(20, 6))
    y = np.sin(4.0 * X[:, 0]) + X[:, 1:].sum(axis=1) ** 2
    fit = fit_kriging(X, y, {"seed": 5, "useLambda": use_lambda})
    stacks = [(a, lower) for a, lower in calls if a.ndim == 3]
    (final, final_lower), searched = stacks[-1], stacks[:-1]
    assert final.shape == (1, 22, 22)
    matches = [
        (a.shape[0], lower[i])
        for a, lower in searched
        for i in np.flatnonzero((a == final).all(axis=(1, 2)))
    ]
    assert matches and all(size > 1 for size, _ in matches)
    for _, lower in matches:
        assert _bits(lower) == _bits(final_lower[0])
    assert _bits(fit.corr_factorization) == _bits(final_lower[0, :20, :20])


def test_a_default_fit_on_thirty_rows_peaks_below_one_and_a_half_megabytes():
    # the search factors its rows in stacks of about 2**15 doubles
    rng = np.random.default_rng(47)
    X = rng.uniform(0.0, 1.0, size=(30, 2))
    y = np.sin(6.0 * X[:, 0]) + X[:, 1] ** 2
    fit_kriging(X[:5], y[:5], {"budget": 5, "seed": 0})  # load lazily imported code
    tracemalloc.start()
    try:
        fit = fit_kriging(X, y, {"seed": 1})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert fit.likelihood_evals == 600
    assert peak <= 1.5 * 2**20
