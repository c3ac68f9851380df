"""Stacked surrogate: weight simplex, member dropping, convex blending, and
the Kriging and RSM fold predictions and the forest's out-of-bag ones that
stand in for refits."""

from types import SimpleNamespace

import numpy as np
import pytest

from seqtune import stack
from seqtune.design import ParamSpace, make_lhd
from seqtune.forest import fit_forest
from seqtune.kriging import fit_kriging
from seqtune.objectives import fun_branin
from seqtune.rsm import RankDeficiencyError, fit_rsm
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


# ---------------------------------------------------------------------------
# fold predictions from the full fit


def _folds(n, folds, seed):
    """fit_stack's fold of each row."""
    fold_of = np.empty(n, dtype=int)
    order = np.random.default_rng(seed).permutation(n)
    for k, chunk in enumerate(np.array_split(order, folds)):
        fold_of[chunk] = k
    return fold_of


def _branin_design(seed):
    rng = np.random.default_rng(seed)
    n = 12 + seed % 8
    X = rng.uniform([-5.0, 0.0], [10.0, 15.0], size=(n, 2))
    return X, fun_branin(X)[:, 0]


@pytest.mark.parametrize("seed", range(24))
def test_kriging_fold_predictions_are_the_bordered_solve_of_each_fold(seed):
    # at the full fit's theta, lambda and scaling, fold I's held-out means
    # are those of a Kriging fit to the other rows with its own GLS mean:
    # [K_IT, 1] times the solution of [[K_TT + lam I, 1], [1', 0]] [a; mu] = [y_T; 0]
    X, y = _branin_design(seed)
    rng = np.random.default_rng(1000 + seed)
    fixed = np.r_[rng.uniform(-1.0, 1.0, 2), rng.uniform(-4.0, -2.0)]

    def at_fixed(start, fun, lower, upper, control):
        return SimpleNamespace(xbest=fixed, count=1)

    fit = fit_kriging(X, y, {"algTheta": at_fixed})
    fold_of = _folds(y.size, 5, seed)
    got = fit.fold_predictions(fold_of)
    z = fit.z
    K = np.exp(-(((z[:, None, :] - z[None, :, :]) ** 2) * fit.theta).sum(axis=2))
    for k in range(5):
        test, train = fold_of == k, fold_of != k
        m = int(train.sum())
        bordered = np.ones((m + 1, m + 1))
        bordered[:m, :m] = K[np.ix_(train, train)] + fit.lambda_ * np.eye(m)
        bordered[m, m] = 0.0
        a = np.linalg.solve(bordered, np.r_[y[train], 0.0])
        want = K[np.ix_(test, train)] @ a[:m] + a[m]
        assert np.abs(got[test] - want).max() <= 1e-10 * np.abs(y).max()


def test_kriging_fold_predictions_need_two_rows_outside_each_fold():
    X, y = _branin_design(0)
    fit = fit_kriging(X[:3], y[:3], {"budget": 30})
    assert np.isfinite(fit.fold_predictions(np.arange(3))).all()
    with pytest.raises(ValueError, match="at least 2 training points"):
        fit.fold_predictions(np.array([0, 0, 1]))


@pytest.mark.parametrize("name", ["kriging", "forest", "rsm"])
def test_fold_predictions_need_one_fold_per_training_row(name):
    X, y = _branin_design(0)  # 12 rows
    fit = stack.MEMBER_FITTERS[name](X, y, {"budget": 30, "ntree": 5, "seed": 0})
    for fold_of in (np.zeros(11, dtype=int), np.zeros(13, dtype=int), np.zeros((12, 1))):
        with pytest.raises(ValueError, match="fold_of has shape"):
            fit.fold_predictions(fold_of)


@pytest.mark.parametrize("name", ["kriging", "rsm"])
def test_fold_predictions_need_integer_fold_ids_from_zero(name):
    # fold -1 would never be visited, so its rows would be left unwritten
    X, y = _branin_design(0)
    fit = stack.MEMBER_FITTERS[name](X, y, {"budget": 30})
    for fold_of in (np.arange(12) % 3 - 1, np.zeros(12), np.zeros(12, dtype=bool)):
        with pytest.raises(ValueError, match="fold ids >= 0"):
            fit.fold_predictions(fold_of)
    assert np.isfinite(fit.fold_predictions(np.arange(12) % 3)).all()


@pytest.mark.parametrize("seed", range(24))
def test_rsm_fold_predictions_are_the_refit_of_each_fold(seed):
    X, y = _branin_design(seed)
    fold_of = _folds(y.size, 5, seed)
    got = fit_rsm(X, y).fold_predictions(fold_of)
    for k in range(5):
        test = fold_of == k
        want = fit_rsm(X[~test], y[~test]).predict(X[test])[:, 0]
        assert np.abs(got[test] - want).max() <= 1e-10 * np.abs(y).max()


def test_rsm_folds_that_the_closed_form_cannot_take_get_the_refit_outcome():
    X, y = _branin_design(3)  # 15 rows
    fold_of = np.arange(15) % 3
    # column 2 varies only in fold 0, so fold 0's refit drops it from the basis
    test = fold_of == 0
    lone = X.copy()
    lone[:, 1] = 0.0
    lone[test, 1] = np.arange(1.0, 6.0)
    got = fit_rsm(lone, y).fold_predictions(fold_of)
    assert np.array_equal(got[test], fit_rsm(lone[~test], y[~test]).predict(lone[test])[:, 0])

    # column 1 takes two levels outside fold 0, so x1^2 is the intercept there
    levels = X.copy()
    levels[:, 0] = np.where(np.arange(15) % 2, 1.0, -1.0)
    levels[test, 0] = 0.25
    with pytest.raises(RankDeficiencyError):
        fit_rsm(levels[~test], y[~test])
    with pytest.raises(RankDeficiencyError):
        fit_rsm(levels, y).fold_predictions(fold_of)

    # 6 terms and 5 rows outside each fold
    with pytest.raises(RankDeficiencyError, match="5 rows cannot identify 6 terms"):
        fit_rsm(X[:8], y[:8]).fold_predictions(np.arange(8) % 3)


def _counting(calls, name, fitter):
    def fit(X, y, control=None):
        calls[name] = calls.get(name, 0) + 1
        return fitter(X, y, control)
    return fit


def test_every_built_in_member_is_fit_once_and_a_callable_once_per_fold(monkeypatch):
    calls = {}
    for name, fitter in list(stack.MEMBER_FITTERS.items()):
        monkeypatch.setitem(stack.MEMBER_FITTERS, name, _counting(calls, name, fitter))
    X, y = _sphere_data(n=20)
    fit = fit_stack(X, y, dict(_FAST, seed=1, folds=4, members=(
        "kriging", "forest", "rsm", _counting(calls, "mean", _fit_mean))))
    assert fit.member_names == ["kriging", "forest", "rsm", "fit"]
    assert calls == {"kriging": 1, "forest": 1, "rsm": 1, "mean": 5}


def _refitting(name):
    """The named member without fold_predictions, so each fold is refit."""
    def fit(X, y, control=None):
        return SimpleNamespace(predict=stack.MEMBER_FITTERS[name](X, y, control).predict)
    fit.__name__ = name  # memberControls and member_names go by it
    return fit


@pytest.mark.parametrize("members, n, folds, kept", [
    # 1 row outside each fold: Kriging needs 2
    (("kriging", _fit_mean), 2, 2, ["_fit_mean"]),
    (("kriging", _fit_mean), 3, 3, ["kriging", "_fit_mean"]),
    # 4 rows outside each fold cannot identify 6 terms; 6 can
    (("rsm", _fit_mean), 8, 2, ["_fit_mean"]),
    (("rsm", _fit_mean), 12, 2, ["rsm", "_fit_mean"]),
    ((_fit_nan, "rsm"), 12, 3, ["rsm"]),
])
def test_members_are_dropped_as_the_fold_refits_drop_them(members, n, folds, kept):
    X, y = _sphere_data(n=n, d=2, seed=n)
    control = dict(_FAST, seed=3, folds=folds)
    assert fit_stack(X, y, dict(control, members=members)).member_names == kept
    refit = [_refitting(m) if m in stack.MEMBER_FITTERS else m for m in members]
    assert fit_stack(X, y, dict(control, members=refit)).member_names == kept
