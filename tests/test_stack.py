"""Stacked surrogate: weight simplex, member dropping, convex blending."""

from types import SimpleNamespace

import numpy as np
import pytest

from seqtune.design import ParamSpace, make_lhd
from seqtune.forest import fit_forest
from seqtune.kriging import fit_kriging
from seqtune.rsm import fit_rsm
from seqtune.stack import fit_stack


class _MeanModel:
    """Trivial member used to test custom callables: predicts the train mean."""

    def __init__(self, value):
        self.value = value

    def predict(self, xnew):
        return np.full((np.atleast_2d(xnew).shape[0], 1), self.value)


def _fit_mean(X, y, control=None):
    return _MeanModel(float(np.asarray(y).mean()))


def _fit_nan(X, y, control=None):
    return SimpleNamespace(predict=lambda q: np.full(np.atleast_2d(q).shape[0], np.nan))


def _sphere_data(n=30, d=3, seed=123):
    space = ParamSpace([-1.0] * d, [1.0] * d)
    X = make_lhd(None, space, dict(size=n, seed=seed))
    y = (X**2).sum(axis=1)
    return X, y


_FAST = {
    "memberControls": {"kriging": {"budget": 60}, "forest": {"ntree": 25}},
}


def test_weights_form_a_simplex():
    X, y = _sphere_data()
    fit = fit_stack(X, y, dict(_FAST, seed=123))
    assert np.all(fit.weights >= 0)
    assert fit.weights.sum() == pytest.approx(1.0, abs=1e-12)
    assert len(fit.weights) == len(fit.members) == len(fit.member_names)


def test_exact_quadratic_data_selects_the_quadratic_member():
    # the sphere is exactly representable by the second-order member, whose
    # out-of-fold predictions are then error-free
    X, y = _sphere_data()
    fit = fit_stack(X, y, dict(_FAST, seed=123))
    w = dict(zip(fit.member_names, fit.weights))
    assert w["rsm"] > 0.9
    assert fit.predict([[1.0, 1.0, 1.0]]).item() == pytest.approx(3.0, abs=0.05)


def test_prediction_is_the_weighted_member_blend():
    X, y = _sphere_data(seed=7)
    fit = fit_stack(X, y, dict(_FAST, seed=7))
    xq = np.random.default_rng(0).uniform(-1, 1, size=(8, 3))
    manual = np.zeros((8, 1))
    for w, member in zip(fit.weights, fit.members):
        manual += w * np.asarray(member.predict(xq)).reshape(-1, 1)
    assert fit.predict(xq) == pytest.approx(manual)


def test_single_member_gets_unit_weight():
    X, y = _sphere_data(n=12)
    fit = fit_stack(X, y, {"members": ("forest",),
                           "memberControls": {"forest": {"ntree": 10}},
                           "seed": 1})
    assert fit.member_names == ["forest"]
    assert np.array_equal(fit.weights, [1.0])

    # a config file gives a lone name as a string, not a one-item list
    for members, name in (("forest", "forest"), (_fit_mean, "_fit_mean")):
        fit = fit_stack(X, y, {"members": members,
                               "memberControls": {"forest": {"ntree": 10}},
                               "seed": 1})
        assert fit.member_names == [name]
        assert np.array_equal(fit.weights, [1.0])


def test_single_member_with_no_nnls_weight_still_gets_unit_weight():
    # out-of-fold predictions of -||x||^2 anticorrelate with y = ||x||^2, so
    # NNLS gives the lone column weight 0 and the equal-weight fallback holds
    def upside_down(X, y, control=None):
        return SimpleNamespace(predict=lambda q: -np.sum(q**2, axis=1))

    X, y = _sphere_data(n=10)
    fit = fit_stack(X, y, {"members": (upside_down,), "seed": 5})
    assert fit.member_names == ["upside_down"]
    assert np.array_equal(fit.weights, [1.0])
    assert fit.predict(X)[:, 0] == pytest.approx(-y)


def test_failing_member_is_dropped():
    # 8 rows cannot identify the 10 coefficients of a 3-input quadratic, so
    # the quadratic member fails its fit and the others carry on
    X, y = _sphere_data(n=8)
    fit = fit_stack(X, y, dict(_FAST, seed=2))
    assert "rsm" not in fit.member_names
    assert set(fit.member_names) == {"kriging", "forest"}
    assert fit.weights.sum() == pytest.approx(1.0)

    # a member whose out-of-fold predictions are not finite is dropped too
    X, y = _sphere_data(n=10)
    fit = fit_stack(X, y, {"members": (_fit_nan, _fit_mean), "seed": 2})
    assert fit.member_names == ["_fit_mean"]
    assert np.array_equal(fit.weights, [1.0])


def test_all_members_failing_raises():
    X, y = _sphere_data(n=8)
    with pytest.raises(ValueError, match="every stack member failed"):
        fit_stack(X, y, {"members": ("rsm",), "seed": 3})
    with pytest.raises(ValueError, match="every stack member failed"):
        fit_stack(X, y, {"members": (_fit_nan,), "seed": 3})


def test_callable_members_are_supported():
    X, y = _sphere_data(n=10)
    fit = fit_stack(X, y, {"members": (_fit_mean,), "seed": 4})
    assert fit.member_names == ["_fit_mean"]
    assert fit.predict([[0.0, 0.0, 0.0]]).item() == pytest.approx(y.mean())

    # like the named members, a custom one gets the stack's seed and types
    seen = []

    def recording(X, y, control):
        seen.append(control)
        return _fit_mean(X, y)

    types = ("numeric", "integer", "numeric")
    fit_stack(X, y, {"members": (recording,), "seed": 4, "types": types})
    assert seen and all(c == {"seed": 4, "types": types} for c in seen)


def test_unknown_member_name_is_rejected():
    X, y = _sphere_data(n=10)
    with pytest.raises(ValueError, match="unknown stack member"):
        fit_stack(X, y, {"members": ("kriging", "boosting")})


def test_validates_folds_and_rows():
    X, y = _sphere_data(n=10)
    with pytest.raises(ValueError):
        fit_stack(X, y, {"folds": 1})
    with pytest.raises(ValueError):
        fit_stack(X[:3], y[:3], {"folds": 5})
    for key, bad in (
        ("members", ()),
        ("members", None),
        ("members", 3),
        ("memberControls", "x"),
        ("memberControls", {"forest": 10}),
    ):
        with pytest.raises(ValueError, match=f"stack {key} must"):
            fit_stack(X, y, {key: bad})


@pytest.mark.parametrize("fitter", [fit_kriging, fit_forest, fit_rsm, fit_stack])
@pytest.mark.parametrize("where", ["y", "X"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_training_data_is_rejected(fitter, where, bad):
    # every fitter refuses it, rather than fitting a model that predicts nan
    # or a stack that silently keeps only the members that tolerate it
    X, y = _sphere_data()
    (y if where == "y" else X[:, 1])[4] = bad
    with pytest.raises(ValueError, match="non-finite"):
        fitter(X, y, dict(_FAST, seed=1, budget=60, ntree=25))


def test_fit_is_deterministic_under_seed():
    X, y = _sphere_data(seed=5)
    y = y + np.random.default_rng(5).normal(0, 0.05, y.shape)
    a = fit_stack(X, y, dict(_FAST, seed=11))
    b = fit_stack(X, y, dict(_FAST, seed=11))
    assert np.array_equal(a.weights, b.weights)
    xq = [[0.3, -0.2, 0.8]]
    assert a.predict(xq) == pytest.approx(b.predict(xq))
