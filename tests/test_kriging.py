"""Kriging surrogate: kernel algebra, BLUP equations, noise handling.

The prediction oracle below recomputes the best linear unbiased predictor
with plain dense solves (np.linalg.solve on the full correlation matrix),
so it shares no code path with the Cholesky-based implementation.  The
kernel oracle `kernel_value` sums the correlation exponent one term at a
time, independent of the vectorized distance kernel in the package.

The package factors and solves through LAPACK's dpotrf/dpotrs directly.
`_reference_neg_log_likelihood` and `_reference_predict` keep the same
computations written with scipy's `cholesky`/`cho_solve` wrappers and
`np.tensordot`, and the results must agree with them bit for bit.
"""

import math
from typing import Optional, Sequence

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from scipy.linalg import cho_solve, cholesky

from seqtune.design import cross_dist
from seqtune.kriging import (
    _PENALTY,
    DEFAULT_LAMBDA_BOUNDS,
    DEFAULT_THETA_BOUNDS,
    KrigingFit,
    _correlation,
    _neg_log_likelihood,
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
# bit-for-bit references for the direct LAPACK calls


def _reference_neg_log_likelihood(theta, lam, dists, y):
    """The likelihood through scipy's wrappers; a penalty names its branch."""
    n = y.shape[0]
    psi = np.exp(-np.tensordot(theta, dists, axes=1))
    k = psi + lam * np.eye(n)
    try:
        lower = cholesky(k, lower=True, check_finite=False)
    except np.linalg.LinAlgError:
        return _PENALTY, "factor"
    diag = np.diag(lower)
    if np.any(diag <= 0) or not np.all(np.isfinite(diag)):
        return _PENALTY, "diagonal"
    if (diag.max() / diag.min()) ** 2 > 1e12:
        return _PENALTY, "conditioning"
    one = np.ones((n, 1))
    kinv_y = cho_solve((lower, True), y, check_finite=False)
    kinv_one = cho_solve((lower, True), one, check_finite=False)
    mu = ((one.T @ kinv_y) / (one.T @ kinv_one)).item()
    resid = y - mu
    kinv_resid = kinv_y - mu * kinv_one
    sigma2 = (resid.T @ kinv_resid).item() / n
    if not np.isfinite(sigma2):
        return _PENALTY, "sigma2"
    value = 0.5 * n * np.log(max(sigma2, 1e-300)) + np.sum(np.log(diag))
    if not np.isfinite(value):
        return _PENALTY, "value"
    return float(value), (psi, k, lower, mu, sigma2, kinv_resid)


def _reference_predict(fit: KrigingFit, xnew: np.ndarray) -> dict:
    """`predict_kriging` through scipy's `cho_solve` and `np.tensordot`."""
    xnew = np.atleast_2d(np.asarray(xnew, dtype=float))
    znew = (xnew - fit.x_offset) / fit.x_scale
    ztrain = (fit.X - fit.x_offset) / fit.x_scale
    cross = cross_dist(znew, ztrain, fit.types)
    psi = np.exp(-np.tensordot(fit.theta, cross, axes=1))
    mean = fit.mu_hat + psi @ fit.alpha
    if fit.corr_factorization_re is not None:
        psi_u = psi[:, fit.reinterp_idx]
        solved = cho_solve(
            (fit.corr_factorization_re, True), psi_u.T, check_finite=False
        )
        s2 = fit.sigma2_re * (1.0 - np.sum(psi_u.T * solved, axis=0))
    else:
        solved = cho_solve((fit.corr_factorization, True), psi.T, check_finite=False)
        s2 = fit.sigma2_hat * (1.0 + fit.lambda_ - np.sum(psi.T * solved, axis=0))
    sd = np.sqrt(np.clip(s2, 0.0, None)).reshape(-1, 1)
    return {"mean": mean.reshape(-1, 1), "sd": sd}


def _bits(a) -> bytes:
    return np.asarray(a).tobytes()


@pytest.mark.parametrize("nugget", [True, False])
@pytest.mark.parametrize("n", [12, 30, 60])
def test_likelihood_matches_the_wrapper_reference_bit_for_bit(n, nugget):
    rng = np.random.default_rng(n)
    d = 2
    z = rng.uniform(0.0, 1.0, size=(n, d))
    y = (np.sin(6.0 * z[:, 0]) + z[:, 1] ** 2).reshape(-1, 1)
    dists = cross_dist(z, z, ("numeric",) * d)
    flat = dists.reshape(d, n * n)
    diag = np.arange(n) * (n + 1)
    one = np.ones((n, 1))
    rows = rng.uniform(DEFAULT_THETA_BOUNDS[0], DEFAULT_THETA_BOUNDS[1], (200, d))
    lams = 10.0 ** rng.uniform(*DEFAULT_LAMBDA_BOUNDS, 200) if nugget else np.zeros(200)
    branches = set()
    for row, lam in zip(rows, lams):
        theta = 10.0 ** row
        want, ref = _reference_neg_log_likelihood(theta, lam, dists, y)
        got, parts = _neg_log_likelihood(theta, lam, flat, diag, one, y)
        assert _bits(got) == _bits(want)
        if isinstance(ref, str):
            branches.add(ref)
            assert parts is None
            continue
        branches.add("value")
        psi, *ref_parts = ref
        assert _bits(_correlation(theta, flat, (n, n))) == _bits(psi)
        assert len(parts) == len(ref_parts)
        for part, ref_part in zip(parts, ref_parts):
            assert _bits(part) == _bits(ref_part)
    # the rows must reach a finite value, and without a nugget both ways a
    # correlation matrix is penalized: a failed factorization and a factor
    # that is too badly conditioned to use
    assert "value" in branches
    if not nugget:
        assert {"factor", "conditioning"} <= branches


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
