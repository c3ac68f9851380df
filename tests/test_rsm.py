"""Second-order response surfaces: coding, exact fits, descent geometry.

Two independent oracles anchor this file: a design matrix built from the
documented contract (coded [-1,1] inputs, term order 1/linear/interaction/
quadratic) solved with plain lstsq, and random-direction sphere sampling
that bounds the constrained minimum each ridge step must attain.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from seqtune.rsm import (
    PATH_RADIUS,
    PATH_STEPS,
    RankDeficiencyError,
    descent_path,
    fit_rsm,
    min_rows,
)


def _grid2(lo=-1.0, hi=1.0, steps=5):
    g = np.linspace(lo, hi, steps)
    a, b = np.meshgrid(g, g)
    return np.column_stack([a.ravel(), b.ravel()])


def _test_basis(x, centers, halves, d):
    """Contract-built design matrix: 1, linear, interactions, squares."""
    z = (np.atleast_2d(x) - centers) / np.where(halves > 0, halves, 1.0)
    cols = [np.ones(z.shape[0])]
    cols += [z[:, i] for i in range(d)]
    for i in range(d):
        for j in range(i + 1, d):
            cols.append(z[:, i] * z[:, j])
    cols += [z[:, i] ** 2 for i in range(d)]
    return np.column_stack(cols)


# ---------------------------------------------------------------------------
# coding and fitting


def test_coding_maps_data_extremes_to_unit_interval():
    rng = np.random.default_rng(2)
    X = rng.uniform(-3, 9, size=(20, 2))
    fit = fit_rsm(X, rng.normal(size=20))
    z = fit.code(X)
    assert z.min(axis=0) == pytest.approx([-1.0, -1.0])
    assert z.max(axis=0) == pytest.approx([1.0, 1.0])


def test_code_decode_roundtrip_on_training_rows():
    rng = np.random.default_rng(3)
    X = rng.uniform(-5, 5, size=(12, 3))
    fit = fit_rsm(X, rng.normal(size=12))
    assert fit.decode(fit.code(X)) == pytest.approx(X)


def test_fit_matches_external_least_squares():
    rng = np.random.default_rng(4)
    X = rng.uniform(0, 10, size=(25, 2))
    y = rng.normal(size=25)  # noisy: the fit is a genuine projection
    fit = fit_rsm(X, y)
    centers = (X.min(axis=0) + X.max(axis=0)) / 2
    halves = (X.max(axis=0) - X.min(axis=0)) / 2
    basis = _test_basis(X, centers, halves, 2)
    coef, *_ = np.linalg.lstsq(basis, y, rcond=None)
    xq = rng.uniform(0, 10, size=(7, 2))
    expected = _test_basis(xq, centers, halves, 2) @ coef
    assert fit.predict(xq)[:, 0] == pytest.approx(expected, abs=1e-9)


def test_exact_quadratic_is_reproduced_everywhere():
    rng = np.random.default_rng(5)
    X = rng.uniform(2, 6, size=(15, 2))

    def q(x):
        return 3.0 + (x[:, 0] - 5.0) ** 2 + 2.0 * (x[:, 1] + 2.0) ** 2 - x[:, 0] * x[:, 1]

    fit = fit_rsm(X, q(X))
    xq = rng.uniform(0, 8, size=(30, 2))
    assert fit.predict(xq)[:, 0] == pytest.approx(q(xq), abs=1e-8)


def test_stationary_point_of_known_bowl():
    rng = np.random.default_rng(6)
    X = rng.uniform(2, 6, size=(18, 2))
    X[:, 1] = rng.uniform(-3, 1, 18)
    y = (X[:, 0] - 5.0) ** 2 + 2.0 * (X[:, 1] + 2.0) ** 2
    fit = fit_rsm(X, y)
    assert fit.stationary == pytest.approx([5.0, -2.0], abs=1e-8)
    assert np.all(fit.eigenvalues > 0)
    assert fit.predict([[5.0, -2.0]]).item() == pytest.approx(0.0, abs=1e-8)


def test_saddle_is_detected_by_the_eigenvalues():
    X = _grid2()
    y = X[:, 0] ** 2 - X[:, 1] ** 2
    fit = fit_rsm(X, y)
    assert fit.eigenvalues[0] < 0 < fit.eigenvalues[-1]
    assert fit.stationary == pytest.approx([0.0, 0.0], abs=1e-10)


def test_term_names_follow_the_documented_order():
    X = np.random.default_rng(7).uniform(0, 1, size=(12, 2))
    fit = fit_rsm(X, X[:, 0])
    assert fit.term_names == ["1", "x1", "x2", "x1:x2", "x1^2", "x2^2"]


def test_constant_column_is_excluded_from_the_basis():
    rng = np.random.default_rng(8)
    X = np.column_stack([rng.uniform(0, 1, 15), np.full(15, 3.0)])
    y = (X[:, 0] - 0.5) ** 2
    fit = fit_rsm(X, y)
    assert list(fit.active) == [0]
    assert "x2" not in fit.term_names
    assert fit.predict([[0.5, 3.0]]).item() == pytest.approx(0.0, abs=1e-10)


def test_all_constant_columns_are_rejected():
    with pytest.raises(ValueError, match="constant"):
        fit_rsm(np.full((8, 2), 1.0), np.arange(8.0))


def test_too_few_rows_raise_rank_error():
    X = np.random.default_rng(9).uniform(0, 1, size=(5, 2))
    with pytest.raises(RankDeficiencyError, match="5 rows cannot identify 6 terms"):
        fit_rsm(X, X[:, 0])


@pytest.mark.parametrize("control", [{}, {"mainEffectsOnly": True}])
def test_min_rows_is_the_term_count_of_the_varying_columns(control):
    # the third column is constant, so it adds no term
    rng = np.random.default_rng(11)
    X = np.column_stack([rng.uniform(0, 1, size=(12, 2)), np.full(12, 0.5)])
    need = min_rows(X, control)
    assert need == (3 if control else 6)
    fit_rsm(X[:need], X[:need, 0], control)
    with pytest.raises(RankDeficiencyError, match=f"cannot identify {need} terms"):
        fit_rsm(X[:need - 1], X[:need - 1, 0], control)


def test_collinear_columns_raise_rank_error_naming_terms():
    # x2 is a multiple of x1, so it codes to x1 and x1:x2 to x1^2: in basis
    # order x2, then both squares, are spanned by the terms before them
    rng = np.random.default_rng(10)
    a = rng.uniform(0, 1, 20)
    X = np.column_stack([a, 2.0 * a])
    with pytest.raises(RankDeficiencyError, match="cannot estimate: x2, x1\\^2, x2\\^2$"):
        fit_rsm(X, a**2)


def test_a_two_level_factorial_names_both_squares():
    # on a 2x2 factorial x1^2 and x2^2 are the intercept column again
    X = np.array([[-1.0, -1.0], [-1.0, 1.0], [1.0, -1.0], [1.0, 1.0]] * 2)
    with pytest.raises(RankDeficiencyError, match="cannot estimate: x1\\^2, x2\\^2$"):
        fit_rsm(X, np.arange(8.0))


def test_a_basis_that_its_solve_finds_rank_deficient_is_rejected():
    # x2 is x1 plus noise near 2e-7, which leaves x2^2 about 1e-14 from the
    # span of the terms before it, at lstsq's tolerance: the solve drops
    # that singular value, and a fit that kept it would return the solve's
    # truncated coefficients (b near +-2.2e6 here)
    rng = np.random.default_rng(1349)
    rng.integers(1, 4)
    rng.integers(0, 9)
    X = rng.uniform(-1, 1, (8, 2))
    X[:, 1] = X[:, 0] + 10.0 ** rng.uniform(-16, -6) * rng.normal(size=8)
    y = rng.normal(size=8)
    with pytest.raises(RankDeficiencyError, match="cannot estimate: x2\\^2$"):
        fit_rsm(X, y)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 3), extra=st.integers(0, 8),
       defect=st.sampled_from(["two levels", "copied column", "few sites", "none",
                               "near copy"]))
def test_the_fit_raises_exactly_when_its_solve_reports_a_lower_rank(seed, d, extra, defect):
    rng = np.random.default_rng(seed)
    n = 1 + d + d * (d + 1) // 2 + extra
    X = rng.uniform(-1.0, 1.0, size=(n, d))
    if defect == "two levels":
        X[:, 0] = rng.choice([-1.0, 1.0], size=n)
    elif defect == "copied column" and d > 1:
        X[:, 1] = X[:, 0]
    elif defect == "few sites":
        X = X[rng.integers(0, max(2, d + 1), size=n)]
    elif defect == "near copy" and d > 1:
        X[:, 1] = X[:, 0] + 10.0 ** rng.uniform(-16, -6) * rng.normal(size=n)
    y = rng.normal(size=n)
    lo, hi = X.min(axis=0), X.max(axis=0)
    active = np.flatnonzero(hi > lo)
    assume(active.size > 0)
    # the fit's basis, bit for bit: the active columns, coded
    centers, halves = (lo + hi) / 2.0, (hi - lo) / 2.0
    basis = _test_basis(X[:, active], centers[active], halves[active], active.size)
    rank = np.linalg.lstsq(basis, y, rcond=None)[2]
    if rank == basis.shape[1]:
        fit_rsm(X, y)
        return
    with pytest.raises(RankDeficiencyError) as raised:
        fit_rsm(X, y)
    if defect != "near copy" and n >= basis.shape[1]:
        # an exact defect: one named term per missing rank (near the
        # tolerance, rounding in the leading blocks' singular values could
        # name one term more or fewer)
        named = str(raised.value).split(": ", 1)[1].split(", ")
        assert len(named) == basis.shape[1] - rank


def test_row_count_mismatch_is_rejected():
    with pytest.raises(ValueError, match="row counts differ"):
        fit_rsm(np.zeros((4, 2)), np.zeros(3))


def test_predict_validates_dimension():
    X = np.random.default_rng(11).uniform(0, 1, size=(10, 2))
    fit = fit_rsm(X, X[:, 0])
    for xq in ([[0.0, 1.0, 2.0]], [[0.5]]):
        with pytest.raises(ValueError, match="columns, expected 2"):
            fit.predict(xq)
        with pytest.raises(ValueError, match="columns, expected 2"):
            fit.decode(xq)


def test_main_effects_only_fits_a_plane():
    rng = np.random.default_rng(12)
    X = rng.uniform(-2, 2, size=(10, 2))
    y = 1.0 + 3.0 * X[:, 0] - 4.0 * X[:, 1]
    fit = fit_rsm(X, y, {"mainEffectsOnly": True})
    assert fit.main_effects_only
    assert np.array_equal(fit.B, np.zeros((2, 2)))
    assert fit.term_names == ["1", "x1", "x2"]
    xq = rng.uniform(-2, 2, size=(5, 2))
    assert fit.predict(xq)[:, 0] == pytest.approx(
        1.0 + 3.0 * xq[:, 0] - 4.0 * xq[:, 1], abs=1e-10
    )


# ---------------------------------------------------------------------------
# descent paths


def _sphere_oracle_min(fit, radius, n=400, seed=0):
    """Best quadratic value over random directions at the given coded radius."""
    rng = np.random.default_rng(seed)
    d = fit.active.size
    u = rng.normal(size=(n, d))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    best = np.inf
    for row in u:
        z = np.zeros(fit.centers.size)
        z[fit.active] = radius * row
        val = fit.predict(fit.decode(z[None, :])).item()
        best = min(best, val)
    return best


def test_path_points_sit_at_their_coded_radii():
    X = _grid2()
    y = X[:, 0] ** 2 + 2 * X[:, 1] ** 2 + X[:, 0] - 3 * X[:, 1]
    path = descent_path(fit_rsm(X, y))
    assert path.mode == "ridge"
    assert path.coded.shape == (PATH_STEPS, 2)
    norms = np.linalg.norm(path.coded, axis=1)
    assert norms == pytest.approx(path.radii, abs=1e-9)
    assert np.all(np.diff(path.radii) > 0)
    assert path.radii[-1] == pytest.approx(PATH_RADIUS)


def test_each_path_point_beats_random_sphere_samples():
    rng = np.random.default_rng(13)
    X = rng.uniform(-2, 2, size=(30, 3))
    y = (
        X[:, 0] ** 2
        - 0.5 * X[:, 1] ** 2
        + 0.2 * X[:, 0] * X[:, 2]
        + X[:, 1]
        - 2.0 * X[:, 2]
    )
    fit = fit_rsm(X, y)
    path = descent_path(fit)
    for k, r in enumerate(path.radii):
        sampled = _sphere_oracle_min(fit, r, seed=k)
        assert path.y[k, 0] <= sampled + 1e-9


@pytest.mark.parametrize("e", [0.0, 1e-12, 1e-9, 1e-6])
def test_hard_case_geometry_still_minimizes(e):
    # quadratic whose gradient has no (e = 0) or almost no component along
    # the falling axis: the textbook degenerate ridge case and its neighbours
    X = _grid2()
    y = -(X[:, 0] ** 2) + X[:, 1] ** 2 - 2.0 * X[:, 1] + e * X[:, 0]
    fit = fit_rsm(X, y)
    path = descent_path(fit)
    norms = np.linalg.norm(path.coded, axis=1)
    assert np.all(np.abs(norms - path.radii) <= 1e-12 * np.maximum(1.0, path.radii))
    for k, r in enumerate(path.radii):
        assert path.y[k, 0] <= _sphere_oracle_min(fit, r, seed=100 + k) + 1e-9
    # the descent genuinely uses the falling axis
    assert abs(path.coded[-1, 0]) > 0.5


def test_interior_minimum_gets_its_own_rung():
    X = _grid2()
    zmin = np.array([0.33, 0.21])
    y = (X[:, 0] - zmin[0]) ** 2 + (X[:, 1] - zmin[1]) ** 2
    fit = fit_rsm(X, y)
    path = descent_path(fit)
    rs = np.linalg.norm(zmin)
    assert np.min(np.abs(path.radii - rs)) == pytest.approx(0.0, abs=1e-9)
    k = int(np.argmin(np.abs(path.radii - rs)))
    assert path.coded[k] == pytest.approx(zmin, abs=1e-8)
    assert path.y[k, 0] == pytest.approx(0.0, abs=1e-9)
    assert k == int(np.argmin(path.y[:, 0]))
    # valley shape: decreasing to the minimum, rising after it
    assert np.all(np.diff(path.y[: k + 1, 0]) <= 1e-12)
    assert np.all(np.diff(path.y[k:, 0]) >= -1e-12)


def test_plane_fit_descends_along_the_negative_gradient():
    rng = np.random.default_rng(14)
    X = rng.uniform(-1, 1, size=(12, 2))
    y = 2.0 + 3.0 * X[:, 0] - 4.0 * X[:, 1]
    fit = fit_rsm(X, y, {"mainEffectsOnly": True})
    path = descent_path(fit)
    assert path.mode == "ridge"
    # direction is constant and proportional to -(coded gradient)
    dirs = path.coded / np.linalg.norm(path.coded, axis=1, keepdims=True)
    assert np.allclose(dirs, dirs[0])
    assert np.all(np.diff(path.y[:, 0]) < 0)


@pytest.mark.parametrize("seed", range(8))
def test_main_effects_path_is_the_steepest_descent_closed_form(seed):
    # B = 0 makes every ridge step the normalized negative gradient; the
    # reference is the closed form the ridge solve replaces
    rng = np.random.default_rng(seed)
    d = 1 + seed % 4
    X = rng.uniform(-3, 3, size=(12, d))
    if d > 1 and seed % 2:
        X[:, 0] = 1.5  # a constant column drops out of the basis
    y = X @ rng.normal(size=d) + rng.normal(scale=0.1, size=12)
    fit = fit_rsm(X, y, {"mainEffectsOnly": True})
    path = descent_path(fit)
    reference = path.radii[:, None] * (-fit.b / np.linalg.norm(fit.b))[None, :]
    scale = np.abs(reference).max()
    assert np.abs(path.coded - reference).max() <= 1e-14 * scale
    assert path.mode == "ridge"


def test_flat_fit_has_no_path():
    X = np.random.default_rng(15).uniform(0, 1, size=(10, 2))
    fit = fit_rsm(X, np.full(10, 2.0), {"mainEffectsOnly": True})
    with pytest.raises(ValueError, match="flat fit"):
        descent_path(fit)


def test_canonical_mode_leaves_a_saddle_downhill():
    X = _grid2()
    y = -2.0 * X[:, 0] ** 2 + X[:, 1] ** 2
    fit = fit_rsm(X, y, {"canonical": True})
    path = descent_path(fit)
    assert path.mode == "canonical"
    # starts near the stationary point and walks along the falling axis
    step0 = path.coded[0] - fit.stationary_coded
    assert np.linalg.norm(step0) == pytest.approx(path.radii[0], abs=1e-9)
    assert np.all(np.diff(path.y[:, 0]) < 0)
    # x1 carries the negative curvature here
    assert abs(path.coded[-1, 0] - fit.stationary_coded[0]) > 2.0


def test_the_canonical_path_does_not_depend_on_the_eigenvector_signs(monkeypatch):
    # eigh may return either sign of an eigenvector; the path takes the one
    # whose first entry is positive, so negating them all changes nothing
    X = _grid2()
    y = -2.0 * X[:, 0] ** 2 + X[:, 1] ** 2 + 0.3 * X[:, 0] * X[:, 1]
    before = descent_path(fit_rsm(X, y, {"canonical": True}))
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a: (eigh(a)[0], -eigh(a)[1]))
    fit = fit_rsm(X, y, {"canonical": True})
    after = descent_path(fit)
    assert before.mode == after.mode == "canonical"
    assert np.array_equal(after.coded, before.coded)
    assert after.coded[0, 0] > fit.stationary_coded[0]


def test_saddle_without_canonical_stays_in_ridge_mode():
    X = _grid2()
    y = -2.0 * X[:, 0] ** 2 + X[:, 1] ** 2
    path = descent_path(fit_rsm(X, y))
    assert path.mode == "ridge"


@given(seed=st.integers(0, 200))
def test_path_step_beats_random_probes_on_its_sphere(seed):
    # each step minimizes the fitted surface on its own coded sphere, so no
    # probe point at the same radius may predict lower
    rng = np.random.default_rng(seed)
    X = rng.uniform(-1, 1, size=(14, 2))
    y = rng.normal(size=14)
    fit = fit_rsm(X, y)
    try:
        path = descent_path(fit)
    except ValueError:
        return  # flat fit: nothing to check
    probes = rng.normal(size=(40, 2))
    probes /= np.linalg.norm(probes, axis=1, keepdims=True)
    norms = np.linalg.norm(path.coded, axis=1)
    assert np.all(np.abs(norms - path.radii) <= 1e-12 * np.maximum(1.0, path.radii))
    for k, r in enumerate(path.radii):
        vals = fit.predict(fit.decode(r * probes))[:, 0]
        floor = float(vals.min())
        assert path.y[k, 0] <= floor + 1e-7 * max(1.0, abs(floor))
