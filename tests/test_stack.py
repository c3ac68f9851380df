"""Stacked surrogate: weight simplex, member dropping, convex blending, the
Kriging fold predictions and the forest's out-of-bag ones that stand in for
refits, and the refits of every other member."""

import importlib
from types import SimpleNamespace

import numpy as np
import pytest

from seqtune import stack
from seqtune.design import ParamSpace, make_lhd
from seqtune.forest import fit_forest
from seqtune.kriging import fit_kriging
from seqtune.objectives import fun_branin
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


def _own_fit(name):
    """The built-in model's own fit_<name>, which the engine's loader calls."""
    return getattr(importlib.import_module(f"seqtune.{name}"), f"fit_{name}")


def _sphere_data(n=30, d=3, seed=123):
    space = ParamSpace([-1.0] * d, [1.0] * d)
    X = make_lhd(None, space, dict(size=n, seed=seed))
    y = (X**2).sum(axis=1)
    return X, y


# Kriging reads budget and the forest ntree; each member ignores the other's key
_FAST = {"budget": 60, "ntree": 25}


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


def test_a_duplicate_member_gets_no_weight():
    # the two Kriging columns are identical, so no set of full rank holds
    # both and the copy changes nothing; the weight used to be split 0.5/0.5
    rng = np.random.default_rng(0)
    X = rng.uniform([-5.0, 0.0], [10.0, 15.0], size=(14, 2))
    y = fun_branin(X)[:, 0]
    control = {"seed": 1, "ntree": 50, "budget": 60}
    twice = fit_stack(X, y, dict(control, members=["kriging", "kriging", "forest"]))
    once = fit_stack(X, y, dict(control, members=["kriging", "forest"]))
    assert twice.weights[1] == 0.0
    assert np.delete(twice.weights, 1).tobytes() == once.weights.tobytes()
    xq = rng.uniform([-5.0, 0.0], [10.0, 15.0], size=(8, 2))
    assert twice.predict(xq).tobytes() == once.predict(xq).tobytes()


def test_single_member_gets_unit_weight():
    X, y = _sphere_data(n=12)
    fit = fit_stack(X, y, {"members": ("forest",), "ntree": 10, "seed": 1})
    assert fit.member_names == ["forest"]
    assert np.array_equal(fit.weights, [1.0])

    # a config file gives a lone name as a string, not a one-item list
    for members, name in (("forest", "forest"), (_fit_mean, "_fit_mean")):
        fit = fit_stack(X, y, {"members": members, "ntree": 10, "seed": 1})
        assert fit.member_names == [name]
        assert np.array_equal(fit.weights, [1.0])


def test_a_member_reads_its_counts_from_the_stack_control():
    # only memberControls used to reach a member: this grew 500 trees
    X, y = _sphere_data(n=12)
    forest = fit_stack(X, y, {"members": ("forest",), "ntree": 7}).members[0]
    assert forest.ntree == 7 and forest.feature.shape[0] == 7


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


@pytest.mark.parametrize("member, key, bad", [
    ("forest", "ntree", 2.7),
    ("forest", "mtry", 0),
    ("forest", "min_node_size", True),
    ("kriging", "budget", "60"),
    ("kriging", "budget", 0),
])
def test_a_bad_member_count_is_rejected_before_any_member_is_fit(member, key, bad):
    # the member's own fit used to reject it, and the stack dropped the
    # member: ntree 2.7 fit a stack of kriging alone
    X, y = _sphere_data(n=10)
    fitted = []

    def first(X, y, control=None):
        fitted.append(control)
        return _fit_mean(X, y)

    control = {"members": (first, member), "seed": 1, key: bad}
    with pytest.raises(ValueError, match=f"^stack {key} must be"):
        fit_stack(X, y, control)
    assert fitted == []
    # a count of 1 is a count
    control[key] = 1
    assert fit_stack(X, y, control).member_names == ["first", member]


@pytest.mark.parametrize("key, bad, good, message", [
    ("algTheta", "nope", "local", "unknown algTheta 'nope' (known: lhd, local)"),
    ("algTheta", ["local"], "lhd", "unknown algTheta ['local'] (known: lhd, local)"),
    ("useLambda", "flase", False, "stack useLambda must be true or false, got 'flase'"),
    ("mainEffectsOnly", 0, True, "stack mainEffectsOnly must be true or false, got 0"),
    ("canonical", "no", False, "stack canonical must be true or false, got 'no'"),
], ids=["algTheta-name", "algTheta-list", "useLambda", "mainEffectsOnly", "canonical"])
def test_a_bad_search_or_flag_is_rejected_before_any_member_is_fit(key, bad, good, message):
    # algTheta "nope" used to drop Kriging as a member that failed to fit,
    # and useLambda "flase" turned the nugget on
    X, y = _sphere_data(n=10)
    fitted = []

    def first(X, y, control=None):
        fitted.append(control)
        return _fit_mean(X, y)

    control = {"members": (first, "kriging"), "seed": 1, "budget": 20, key: bad}
    with pytest.raises(ValueError) as err:
        fit_stack(X, y, control)
    assert str(err.value) == message
    assert fitted == []
    control[key] = good
    assert fit_stack(X, y, control).member_names == ["first", "kriging"]



def _fit_one_value(X, y, control=None):
    return SimpleNamespace(predict=lambda q: np.array([0.5]))


def _fit_short_folds(X, y, control=None):
    return SimpleNamespace(predict=_fit_mean(X, y).predict,
                           fold_predictions=lambda fold_of: np.zeros(fold_of.size - 1))


@pytest.mark.parametrize("member", [_fit_one_value, _fit_short_folds])
def test_a_member_without_one_out_of_fold_value_per_row_is_dropped(member):
    # one value for a fold's rows used to be broadcast over them and kept,
    # and a fold column of the wrong length failed the whole stack
    X, y = _sphere_data(n=10)
    fit = fit_stack(X, y, {"members": (member, _fit_mean), "seed": 2})
    assert fit.member_names == ["_fit_mean"]
    with pytest.raises(ValueError, match="wrong number of values") as err:
        fit_stack(X, y, {"members": (member,), "seed": 2})
    # the error names the member, not an objective
    assert f"stack member {member.__name__!r} returned" in str(err.value)

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

    # like the named members, a custom one gets a copy of the stack's control
    seen = []

    def recording(X, y, control):
        seen.append(control)
        return _fit_mean(X, y)

    control = {"members": (recording,), "seed": 4, "budget": 60,
               "types": ("numeric", "integer", "numeric")}
    fit_stack(X, y, control)
    assert seen and all(c == control and c is not control for c in seen)


@pytest.mark.parametrize("members, bad", [
    (("kriging", "boosting"), "'boosting'"),
    (("kriging", "stack"), "'stack'"),  # a stack cannot be its own member
    ((["kriging"],), r"\['kriging'\]"),  # a list is no name, and no dict key
], ids=["boosting", "stack", "list"])
def test_unknown_member_name_is_rejected(members, bad):
    X, y = _sphere_data(n=10)
    with pytest.raises(ValueError, match=f"^unknown stack member {bad}"):
        fit_stack(X, y, {"members": members})


def test_validates_folds_and_rows():
    X, y = _sphere_data(n=10)
    with pytest.raises(ValueError):
        fit_stack(X, y, {"folds": 1})
    with pytest.raises(ValueError):
        fit_stack(X[:3], y[:3], {"folds": 5})
    # folds 2.9 used to run 2 folds, and True to fail as if it were 1
    for key, bad in (
        ("folds", 2.9),
        ("folds", 3.0),
        ("folds", True),
        ("folds", "3"),
        ("members", ()),
        ("members", None),
        ("members", 3),
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
        fitter(X, y, dict(_FAST, seed=1))


def test_fit_is_deterministic_under_seed():
    X, y = _sphere_data(seed=5)
    y = y + np.random.default_rng(5).normal(0, 0.05, y.shape)
    a = fit_stack(X, y, dict(_FAST, seed=11))
    b = fit_stack(X, y, dict(_FAST, seed=11))
    assert np.array_equal(a.weights, b.weights)
    xq = [[0.3, -0.2, 0.8]]
    assert a.predict(xq) == pytest.approx(b.predict(xq))


# ---------------------------------------------------------------------------
# held-out predictions: from the full fit, or one refit per fold


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
    # in training_data's words, with the count the fold leaves
    with pytest.raises(ValueError, match="^need at least 2 training points, got 1$"):
        fit.fold_predictions(np.array([0, 0, 1]))


@pytest.mark.parametrize("name", ["kriging", "forest"])
def test_fold_predictions_need_one_fold_per_training_row(name):
    X, y = _branin_design(0)  # 12 rows
    fit = _own_fit(name)(X, y, {"budget": 30, "ntree": 5, "seed": 0})
    for fold_of in (np.zeros(11, dtype=int), np.zeros(13, dtype=int), np.zeros((12, 1))):
        with pytest.raises(ValueError, match="fold_of has shape"):
            fit.fold_predictions(fold_of)


@pytest.mark.parametrize("name", ["kriging"])
def test_fold_predictions_need_integer_fold_ids_from_zero(name):
    # fold -1 would never be visited, so its rows would be left unwritten
    X, y = _branin_design(0)
    fit = _own_fit(name)(X, y, {"budget": 30})
    for fold_of in (np.arange(12) % 3 - 1, np.zeros(12), np.zeros(12, dtype=bool)):
        with pytest.raises(ValueError, match="fold ids >= 0"):
            fit.fold_predictions(fold_of)
    assert np.isfinite(fit.fold_predictions(np.arange(12) % 3)).all()


@pytest.mark.parametrize("seed", range(24))
def test_rsm_fold_predictions_are_the_refit_of_each_fold(seed, monkeypatch):
    # the stack's held-out RSM column, as its NNLS solve gets it, is
    # fit_rsm's prediction from the rows outside each fold, bit for bit
    columns = []

    def recording(a, b):
        columns.append(a.copy())
        return nnls(a, b)

    nnls = stack._nnls
    monkeypatch.setattr(stack, "_nnls", recording)
    X, y = _branin_design(seed)
    fit_stack(X, y, {"members": "rsm", "seed": seed})
    fold_of = _folds(y.size, 5, seed)
    want = np.empty(y.size)
    for k in range(5):
        test = fold_of == k
        want[test] = fit_rsm(X[~test], y[~test]).predict(X[test])[:, 0]
    assert columns[0][:, 0].tobytes() == want.tobytes()


def _counting(calls, name, fitter):
    def fit(X, y, control=None):
        calls[name] = calls.get(name, 0) + 1
        return fitter(X, y, control)
    return fit


def test_kriging_and_the_forest_are_fit_once_and_rsm_and_a_callable_once_per_fold(
    monkeypatch,
):
    calls = {}
    for name in ("kriging", "forest", "rsm"):
        monkeypatch.setattr(f"seqtune.{name}.fit_{name}",
                            _counting(calls, name, _own_fit(name)))
    X, y = _sphere_data(n=20)
    fit = fit_stack(X, y, dict(_FAST, seed=1, folds=4, members=(
        "kriging", "forest", "rsm", _counting(calls, "mean", _fit_mean))))
    assert fit.member_names == ["kriging", "forest", "rsm", "fit"]
    assert calls == {"kriging": 1, "forest": 1, "rsm": 5, "mean": 5}


def _refitting(name):
    """The named member without fold_predictions, so each fold is refit."""
    def fit(X, y, control=None):
        return SimpleNamespace(predict=_own_fit(name)(X, y, control).predict)
    fit.__name__ = name  # member_names go by it
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
    refit = [_refitting(m) if isinstance(m, str) else m for m in members]
    assert fit_stack(X, y, dict(control, members=refit)).member_names == kept
