"""Kriging surrogate: kernel algebra, BLUP equations, noise handling.

The prediction oracle below recomputes the best linear unbiased predictor
with plain dense solves (np.linalg.solve on the full correlation matrix),
so it shares no code path with the Cholesky-based implementation.  The
kernel oracle `kernel_value` sums the correlation exponent one term at a
time, independent of the vectorized distance kernel in the package.

The package factors and solves through LAPACK's dpotrf/dpotrs directly.
`_reference_neg_log_likelihood` and `_reference_predict` keep the same
computations written with scipy's `cholesky`/`cho_solve` wrappers and
`np.tensordot`, and the results must agree with them bit for bit.  The
likelihood search factors stacks of bordered matrices instead; its values
are checked against the per-row `_neg_log_likelihood` to a tolerance that
grows with the conditioning.
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
    _correlation,
    _neg_log_likelihood,
    _stacked_neg_log_likelihood,
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


# ---------------------------------------------------------------------------
# the stacked likelihood search against the per-row likelihood


def _search_objective(X, y, types, use_lambda):
    """The objective that fit_kriging hands its hyperparameter search."""
    captured = []

    def capture(start, fun, lower, upper, control):
        captured.append((fun, lower, upper))
        return optim_lhd(start, fun, lower, upper, control)

    control = {"types": types, "useLambda": use_lambda, "algTheta": capture}
    try:
        fit_kriging(X, y, dict(control, budget=1, seed=0))
    except ValueError as err:  # the one drawn row can be penalized
        assert "singular" in str(err)
    return captured[0]


def _per_row_oracle(X, y, types, rows, use_lambda):
    """Per-row values and squared pivot ratios on the fit's own scale.

    The numeric columns of X span [0, 1] exactly, so the fit's unit-box
    scaling leaves them unchanged and the distances here are the fit's.
    """
    n, d = X.shape
    flat = cross_dist(X, X, types).reshape(d, n * n)
    diag, one = np.arange(n) * (n + 1), np.ones((n, 1))
    values, ratio2 = [], []
    for row in rows:
        lam = 10.0 ** row[d] if use_lambda else 0.0
        value, parts = _neg_log_likelihood(10.0**row[:d], lam, flat, diag, one, y)
        values.append(value)
        pivots = np.diag(parts[1]) if parts else np.ones(1)
        ratio2.append((pivots.max() / pivots.min()) ** 2)
    return np.array(values), np.array(ratio2)


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
    objective, lower, upper = _search_objective(X, y, types, use_lambda)
    rows = rng.uniform(lower, upper, size=(300, lower.size))
    got = objective(rows)[:, 0]
    want, ratio2 = _per_row_oracle(X, y, types, rows, use_lambda)
    assert np.array_equal(got == _PENALTY, want == _PENALTY)
    # both paths round like a backward-stable solve, so beyond a squared
    # pivot ratio of 1e4 the gap grows with the conditioning (near 1e12 the
    # per-row value can be 4e-4 off the exact likelihood of the same matrix)
    tol = 1e-9 * np.maximum(1.0, ratio2 / 1e4) * np.maximum(1.0, np.abs(want))
    assert np.all(np.abs(got - want) <= tol)
    best, want_best = int(np.argmin(got)), int(np.argmin(want))
    tie = want[best] - want[want_best] <= tol[best] + tol[want_best]
    assert best == want_best or tie


def test_a_stack_that_does_not_factor_is_evaluated_row_by_row(monkeypatch):
    # without a nugget, near-zero activity makes K + lam I all but a matrix
    # of ones, which does not factor; the stack then falls back to the
    # per-row path, whose values are bit-equal to the oracle's
    rng = np.random.default_rng(43)
    n, d = 12, 2
    z = rng.uniform(0.0, 1.0, size=(n, d))
    y = (np.sin(6.0 * z[:, 0]) + z[:, 1] ** 2).reshape(-1, 1)
    flat = cross_dist(z, z, ("numeric",) * d).reshape(d, n * n)
    diag, one = np.arange(n) * (n + 1), np.ones((n, 1))
    theta = 10.0 ** np.array([[1.0, 1.0], [-6.0, -6.0], [0.5, 1.5]])
    lam = np.zeros(3)
    raised = []
    cholesky = np.linalg.cholesky

    def spy(a):
        try:
            return cholesky(a)
        except np.linalg.LinAlgError:
            raised.append(a.shape)
            raise

    monkeypatch.setattr(np.linalg, "cholesky", spy)
    got = _stacked_neg_log_likelihood(theta, lam, flat, diag, one, y)
    assert raised == [(3, n + 2, n + 2)]
    want = [_neg_log_likelihood(t, 0.0, flat, diag, one, y)[0] for t in theta]
    assert _bits(got) == _bits(np.array(want))
    assert got[1] == _PENALTY and np.all(got[[0, 2]] < _PENALTY)


def test_targets_beyond_1e100_take_the_per_row_path():
    # near |y| = 1e149 the per-row products overflow and penalize rows that
    # the bordered factor would score, so such targets skip the border and
    # the per-row path makes every decision
    rng = np.random.default_rng(59)
    n, d = 12, 2
    z = rng.uniform(0.0, 1.0, size=(n, d))
    y = 1e120 * (np.sin(6.0 * z[:, 0]) + z[:, 1] ** 2).reshape(-1, 1)
    flat = cross_dist(z, z, ("numeric",) * d).reshape(d, n * n)
    diag, one = np.arange(n) * (n + 1), np.ones((n, 1))
    theta = 10.0 ** rng.uniform(-2.0, 2.0, size=(20, d))
    lam = np.full(20, 1e-3)
    got = _stacked_neg_log_likelihood(theta, lam, flat, diag, one, y)
    want = [_neg_log_likelihood(t, 1e-3, flat, diag, one, y)[0] for t in theta]
    assert _bits(got) == _bits(np.array(want))
    assert np.all(got < _PENALTY)


def test_the_search_factors_each_stack_of_rows_in_one_call(monkeypatch):
    # 2**15 doubles hold 167 bordered 14-by-14 matrices; with a nugget
    # every stack factors, so the 400 rows take three calls
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
    assert shapes == [(167, 14, 14), (167, 14, 14), (66, 14, 14)]


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
