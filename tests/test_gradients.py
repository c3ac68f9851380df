"""Analytic model gradients against central differences of `predict`.

Every built-in fit offers `mean_and_gradient(x)`: the (m, 1) prediction,
bit-equal to `predict(x)`, and its (m, d) gradient in the raw coordinates.
The local search feeds that gradient to its quasi-Newton steps, so it is checked here
against central differences of `predict` itself, on Hypothesis inputs.
"""

from types import SimpleNamespace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from seqtune.forest import fit_forest
from seqtune.kriging import fit_kriging
from seqtune.rsm import fit_rsm
from seqtune.stack import StackFit, fit_stack

TYPES = ("numeric", "integer", "factor")


def _bits(a) -> bytes:
    return np.asarray(a).tobytes()


def _central_differences(fit, x: np.ndarray, steps: np.ndarray) -> np.ndarray:
    """(m, d) central differences of fit.predict, zero where a step is zero."""
    grad = np.zeros(x.shape)
    for k, h in enumerate(steps):
        if h > 0:
            e = np.zeros(x.shape[1])
            e[k] = h
            grad[:, k] = (fit.predict(x + e) - fit.predict(x - e))[:, 0] / (2.0 * h)
    return grad


def _check_against_differences(fit, x, steps, rel):
    mean, grad = fit.mean_and_gradient(x)
    assert mean.shape == (x.shape[0], 1)
    assert grad.shape == x.shape
    assert _bits(mean) == _bits(fit.predict(x))
    want = _central_differences(fit, x, steps)
    # the differences' own rounding error is about eps |mean| / h
    noise = 8.0 * np.finfo(float).eps * np.abs(mean).max() / steps[steps > 0].min()
    assert np.abs(grad - want).max() <= rel * max(1.0, np.abs(want).max()) + noise
    return grad


def _mixed_data(seed: int, n: int):
    rng = np.random.default_rng(seed)
    X = np.column_stack([
        rng.uniform(-3.0, 5.0, n),
        rng.integers(0, 6, n).astype(float),
        rng.integers(0, 3, n).astype(float),
    ])
    y = np.sin(X[:, 0]) + 0.3 * X[:, 1] + X[:, 2] + rng.normal(0.0, 0.1, n)
    query = np.column_stack([
        rng.uniform(-3.0, 5.0, 3), rng.uniform(0.0, 5.0, 3), rng.integers(0, 3, 3),
    ])
    return X, y, query


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10**6), n=st.integers(6, 14), use_lambda=st.booleans())
def test_kriging_gradient_matches_differences_and_is_zero_on_factors(seed, n, use_lambda):
    X, y, query = _mixed_data(seed, n)
    control = {"types": TYPES, "budget": 40, "seed": seed, "useLambda": use_lambda}
    try:
        fit = fit_kriging(X, y, control)
    except ValueError:  # duplicate rows without a nugget, or a singular fit
        return
    # integer columns are differentiated as numeric ones
    steps = 1e-6 * fit.x_scale * np.array([1.0, 1.0, 0.0])
    grad = _check_against_differences(fit, query, steps, rel=1e-6)
    assert np.all(grad[:, 2] == 0.0)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10**6), main_effects_only=st.booleans())
def test_rsm_gradient_matches_differences_with_an_inactive_column(seed, main_effects_only):
    rng = np.random.default_rng(seed)
    X = np.column_stack([rng.uniform(-2.0, 3.0, 20), np.full(20, 4.0), rng.uniform(10.0, 50.0, 20)])
    y = X[:, 0] ** 2 - 0.1 * X[:, 0] * X[:, 2] + 0.01 * X[:, 2] ** 2 + rng.normal(0.0, 0.1, 20)
    fit = fit_rsm(X, y, {"mainEffectsOnly": main_effects_only})
    assert fit.halves[1] == 0.0
    query = np.column_stack([rng.uniform(-2.0, 3.0, 4), rng.uniform(3.0, 5.0, 4),
                             rng.uniform(10.0, 50.0, 4)])
    steps = 1e-5 * np.array([1.0, 1.0, 10.0])
    grad = _check_against_differences(fit, query, steps, rel=1e-6)
    assert np.all(grad[:, 1] == 0.0)


def test_forest_gradient_is_zero():
    X, y, query = _mixed_data(3, 30)
    fit = fit_forest(X, y, {"ntree": 20, "seed": 3})
    mean, grad = fit.mean_and_gradient(query)
    assert _bits(mean) == _bits(fit.predict(query))
    assert np.array_equal(grad, np.zeros(query.shape))


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_stack_gradient_is_the_weighted_sum_of_its_members(seed):
    X, y, query = _mixed_data(seed, 20)
    control = {"types": TYPES, "seed": seed, "folds": 4, "budget": 40, "ntree": 10}
    fit = fit_stack(X, y, control)
    mean, grad = fit.mean_and_gradient(query)
    assert _bits(mean) == _bits(fit.predict(query))
    want = np.zeros(query.shape)
    for w, member in zip(fit.weights, fit.members):
        want += w * member.mean_and_gradient(query)[1]
    assert np.allclose(grad, want, rtol=1e-12, atol=1e-300)
    # RSM treats the factor column as numeric; Kriging's indicator term takes
    # the same value on both sides of a factor level, as its zero gradient says
    steps = 1e-6 * (X.max(axis=0) - X.min(axis=0))
    # the forest's steps are invisible to the gradient, so compare without it
    smooth = StackFit(
        [m for m, name in zip(fit.members, fit.member_names) if name != "forest"],
        [name for name in fit.member_names if name != "forest"],
        np.array([w for w, name in zip(fit.weights, fit.member_names) if name != "forest"]),
    )
    if smooth.members:
        _check_against_differences(smooth, query, steps, rel=1e-6)


class _NoGradient:
    def __init__(self, value):
        self.value = value

    def predict(self, xnew):
        return np.full((np.atleast_2d(xnew).shape[0], 1), self.value)


def _never_called(xnew):
    raise AssertionError("a zero-weight member was called")


def test_a_stack_with_a_member_without_gradient_has_none():
    X, y, query = _mixed_data(5, 12)
    rsm = fit_rsm(X, y, {"mainEffectsOnly": True})
    assert StackFit([rsm, _NoGradient(1.0)], ["rsm", "custom"], np.array([0.5, 0.5])) \
        .mean_and_gradient is None
    # a member of weight zero is skipped, so it does not take the gradient away
    blend = StackFit([rsm, _NoGradient(1.0)], ["rsm", "custom"], np.array([1.0, 0.0]))
    mean, grad = blend.mean_and_gradient(query)
    assert _bits(mean) == _bits(blend.predict(query))
    assert np.array_equal(grad, rsm.mean_and_gradient(query)[1])


def test_skipping_zero_weight_members_keeps_the_blend_bits():
    X, y, query = _mixed_data(7, 24)
    members = [
        fit_kriging(X, y, {"types": TYPES, "budget": 40, "seed": 1}),
        fit_forest(X, y, {"ntree": 10, "seed": 1}),
        fit_rsm(X, y, {"mainEffectsOnly": True}),
    ]
    weights = np.array([0.625, 0.0, 0.375])
    # the blend as summed before zero weights were skipped: 0.0 * p included
    full = np.zeros((query.shape[0], 1))
    for w, member in zip(weights, members):
        full += w * member.predict(query)
    fit = StackFit(members, ["kriging", "forest", "rsm"], weights)
    assert _bits(fit.predict(query)) == _bits(full)
    assert _bits(fit.mean_and_gradient(query)[0]) == _bits(full)
    # and the zero-weight member is not called at all
    members[1] = SimpleNamespace(predict=_never_called, mean_and_gradient=_never_called)
    fit = StackFit(members, ["kriging", "forest", "rsm"], weights)
    assert _bits(fit.predict(query)) == _bits(full)
    assert _bits(fit.mean_and_gradient(query)[0]) == _bits(full)
