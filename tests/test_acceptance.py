"""End-to-end acceptance checks, one test per shipped guarantee.

Each test states its tolerance inline and runs the full protocol it
guarantees, so `pytest -v tests/test_acceptance.py` prints one pass/fail
line per guarantee.  Reference values quoted in comments give the expected
scale for each protocol; tolerances absorb RNG-stream differences.
"""

import itertools
import os
import shutil
import time

import numpy as np
from scipy.stats import norm

from seqtune import (
    ParamSpace,
    descent_path,
    fit_kriging,
    fit_rsm,
    fit_stack,
    fun_branin,
    fun_branin_factor,
    fun_sphere,
    get_objective,
    make_lhd,
    ocba_allocate,
    spot,
    spot_loop,
)
from seqtune.cli import main

BRANIN_AT_1_2 = 21.62763539206238


def _branin_sample(size=20, seed=1):
    space = ParamSpace(np.array([-5.0, 0.0]), np.array([10.0, 15.0]), ())
    X = make_lhd(None, space, dict(size=size, seed=seed))
    return X, fun_branin(X)


def test_01_kriging_interpolates_noise_free_training_data():
    # nugget pinned at its floor: training points reproduced to 1e-6 * range
    t0 = time.perf_counter()
    X, y = _branin_sample()
    fit = fit_kriging(X, y, {"useLambda": False, "seed": 1})
    resid = np.max(np.abs(fit.predict(X).reshape(-1) - y.reshape(-1)))
    assert resid <= 1e-6 * np.ptp(y)
    assert time.perf_counter() - t0 < 5.0


def test_02_kriging_prediction_matches_the_reference_point():
    # reference run predicted 22.29809 at (1,2); true value 21.62764
    t0 = time.perf_counter()
    X, y = _branin_sample()
    fit = fit_kriging(X, y, {"useLambda": False, "seed": 1})
    pred = float(fit.predict(np.array([[1.0, 2.0]])).reshape(-1)[0])
    assert abs(pred - BRANIN_AT_1_2) <= 3.0
    assert time.perf_counter() - t0 < 5.0


def test_03_factor_kernel_beats_numeric_encoding_on_categorical_data():
    # 50 train / 200 test, third column categorical in {1,2,3}; the
    # factor-aware kernel must win on test MSE in at least 8 of 10 seeds
    # (reference run: 1.51 vs 4.53)
    t0 = time.perf_counter()
    wins = 0
    for seed in range(1, 11):
        rng = np.random.default_rng(seed)

        def draw(n):
            return np.column_stack(
                [
                    rng.uniform(size=n) * 15.0 - 5.0,
                    rng.uniform(size=n) * 15.0,
                    rng.integers(1, 4, size=n).astype(float),
                ]
            )

        xtrain, xtest = draw(50), draw(200)
        ytrain = fun_branin_factor(xtrain)
        ytest = fun_branin_factor(xtest).reshape(-1)
        numeric = fit_kriging(xtrain, ytrain, {"algTheta": "local", "seed": seed})
        factor = fit_kriging(
            xtrain,
            ytrain,
            {
                "algTheta": "local",
                "seed": seed,
                "types": ("numeric", "numeric", "factor"),
            },
        )
        mse_numeric = np.mean((numeric.predict(xtest).reshape(-1) - ytest) ** 2)
        mse_factor = np.mean((factor.predict(xtest).reshape(-1) - ytest) ** 2)
        wins += mse_factor < mse_numeric
    assert wins >= 8
    assert time.perf_counter() - t0 < 60.0


def test_04_lhd_designs_stratify_every_numeric_column():
    # one point per axis-aligned bin, exactly, across sizes and dimensions
    t0 = time.perf_counter()
    for size in (2, 5, 10, 50):
        for dim in (1, 2, 4):
            lower = np.full(dim, -2.0)
            upper = np.full(dim, 3.0)
            space = ParamSpace(lower, upper, ())
            mat = make_lhd(None, space, dict(size=size, seed=10 * size + dim))
            assert mat.shape == (size, dim)
            for j in range(dim):
                bins = np.floor(
                    (mat[:, j] - lower[j]) / (upper[j] - lower[j]) * size
                ).astype(int)
                bins = np.clip(bins, 0, size - 1)
                assert np.array_equal(np.sort(bins), np.arange(size))
    assert time.perf_counter() - t0 < 1.0


def test_05_replicated_noisy_run_has_the_documented_archive_shape():
    # 6 initial points once each, then two candidates evaluated twice each
    t0 = time.perf_counter()

    def noisy_sphere(x, seed=None):
        rng = np.random.default_rng(seed)
        return fun_sphere(x) + 0.1 * rng.standard_normal((x.shape[0], 1))

    res = spot(
        None,
        noisy_sphere,
        [-2, -2],
        [2, 2],
        {
            "funEvals": 10,
            "designControl": {"size": 6},
            "replicates": 2,
            "noise": True,
            "seedFun": 1,
            "model": "forest",
        },
    )
    assert res.count == 10
    assert len(np.unique(res.x[:6], axis=0)) == 6
    assert np.array_equal(res.x[6], res.x[7])
    assert np.array_equal(res.x[8], res.x[9])
    assert not np.array_equal(res.x[6], res.x[8])
    assert time.perf_counter() - t0 < 30.0


def test_06_continuation_extends_a_run_without_touching_its_past():
    t0 = time.perf_counter()
    cfg = {"funEvals": 5, "designControl": {"size": 5, "seed": 7}, "seedSPOT": 2}
    first = spot(None, fun_sphere, [-5, -5], [5, 5], cfg)
    assert first.count == 5
    resumed = spot_loop(
        first.x, first.y, fun_sphere, [-5, -5], [5, 5], dict(cfg, funEvals=8)
    )
    assert resumed.count == 8
    assert np.array_equal(resumed.x[:5], first.x)
    assert np.array_equal(resumed.y[:5], first.y)
    assert resumed.ybest <= first.ybest
    assert time.perf_counter() - t0 < 10.0


def test_07_surrogate_search_solves_the_sphere_reliably():
    # 20-evaluation budget, Kriging + bounded local search; at least 9 of 10
    # seeds must reach 1e-2 (reference run: 5.84e-6)
    t0 = time.perf_counter()
    hits = 0
    for seed in range(1, 11):
        res = spot(
            None,
            fun_sphere,
            [-5, -5],
            [5, 5],
            {
                "funEvals": 20,
                "designControl": {"size": 10},
                "optimizer": "local",
                "seedSPOT": seed,
            },
        )
        hits += res.ybest <= 1e-2
    assert hits >= 9
    assert time.perf_counter() - t0 < 120.0


def test_08_tuning_the_annealer_beats_its_default_configuration():
    # full tuning run: 50 evaluations, forest surrogate, noisy replicated
    # measurements; the tuned (temp, tmax) must move in the documented
    # direction (reference: (3, 69)) and win a 30-run comparison against
    # the default (10, 10)
    t0 = time.perf_counter()
    sann = get_objective("sannSphere")
    res = spot(
        None,
        sann,
        [1, 1],
        [100, 100],
        {
            "types": ("integer", "integer"),
            "funEvals": 50,
            "noise": True,
            "seedFun": 1,
            "replicates": 2,
            "seedSPOT": 1,
            "design": "lhd",
            "model": "forest",
            "optimizer": "lhd",
            "optimizerControl": {"funEvals": 100},
        },
    )
    assert res.count == 50
    temp, tmax = res.xbest
    assert temp < 10.0
    assert tmax > 10.0
    tuned_mean = float(np.mean(sann(np.tile(res.xbest, (30, 1)), seed=2000)))
    default_mean = float(np.mean(sann(np.tile([10.0, 10.0], (30, 1)), seed=2000)))
    assert tuned_mean < default_mean
    assert time.perf_counter() - t0 < 600.0


def test_09_quadratic_analysis_recovers_the_sphere_geometry():
    # stationary point at the origin to 1e-6, positive curvature, and a
    # descent path reaching predicted y <= 0.1 (reference path min: 0.013)
    t0 = time.perf_counter()
    space = ParamSpace(np.array([-5.0, -5.0]), np.array([5.0, 5.0]), ())
    X = make_lhd(None, space, dict(size=20, seed=1))
    fit = fit_rsm(X, fun_sphere(X))
    assert np.all(np.abs(fit.stationary) <= 1e-6)
    assert np.all(fit.eigenvalues > 0)
    path = descent_path(fit)
    assert path.y.min() <= 0.1
    assert time.perf_counter() - t0 < 5.0


def _apcs(means, variances, counts):
    best = int(np.argmin(means))
    p_err = 0.0
    for i in range(len(means)):
        if i == best:
            continue
        tau2 = variances[best] / counts[best] + variances[i] / counts[i]
        delta = means[i] - means[best]
        if tau2 <= 0.0:
            p_err += 0.5 if delta == 0.0 else 0.0
        else:
            p_err += norm.cdf(-delta / np.sqrt(tau2))
    return 1.0 - p_err


def test_10_replication_allocator_matches_exhaustive_search():
    # on a fixed grid of 3-configuration instances with budgets up to 6,
    # the allocation must reach the brute-force optimum of the selection
    # criterion and always sum to the budget
    t0 = time.perf_counter()
    for case in range(120):
        rng = np.random.default_rng(case)
        means = np.round(rng.normal(0.0, 2.0, 3), 3)
        variances = np.round(rng.uniform(0.1, 4.0, 3), 3)
        counts = rng.integers(2, 12, 3)
        budget = case % 7
        alloc = ocba_allocate(means, variances, counts, budget)
        assert alloc.sum() == budget
        assert np.all(alloc >= 0)
        achieved = _apcs(means, variances, counts + alloc)
        best = -np.inf
        for comp in itertools.product(range(budget + 1), repeat=3):
            if sum(comp) == budget:
                best = max(best, _apcs(means, variances, counts + np.asarray(comp)))
        assert achieved >= best - 1e-12
    assert time.perf_counter() - t0 < 10.0


def test_11_stacked_surrogate_is_a_sound_convex_blend():
    # 30-point 3-D sphere design: prediction at (1,1,1) within 0.5 of 3
    # (reference: 2.9849), weights on the simplex to 1e-12
    t0 = time.perf_counter()
    space = ParamSpace(np.full(3, -1.0), np.full(3, 1.0), ())
    X = make_lhd(None, space, dict(size=30, seed=123))
    fit = fit_stack(X, fun_sphere(X), {"seed": 5})
    assert np.all(fit.weights >= -1e-12)
    assert abs(fit.weights.sum() - 1.0) <= 1e-12
    pred = float(np.asarray(fit.predict(np.array([[1.0, 1.0, 1.0]]))).reshape(-1)[0])
    assert abs(pred - 3.0) <= 0.5
    assert time.perf_counter() - t0 < 60.0


def test_12_cli_runs_are_byte_identical_across_invocations(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "[run]\n"
        "fun = sphere\n"
        "lower = -2, -2\n"
        "upper = 2, 2\n"
        "\n"
        "[spot]\n"
        "funEvals = 10\n"
        "model = forest\n"
        "seedSPOT = 3\n"
        "\n"
        "[designControl]\n"
        "size = 5\n"
        "\n"
        "[modelControl]\n"
        "ntree = 10\n"
        "\n"
        "[optimizerControl]\n"
        "funEvals = 25\n"
    )

    def archive(bundle):
        with open(os.path.join(bundle, "archive.csv"), "rb") as fh:
            return fh.read()

    for command in ("tune", "optimize"):
        a, b = str(tmp_path / f"{command}_a"), str(tmp_path / f"{command}_b")
        assert main([command, "--config", str(cfg), "--out", a]) == 0
        assert main([command, "--config", str(cfg), "--out", b]) == 0
        assert archive(a) == archive(b)

    d1, d2 = str(tmp_path / "d1.csv"), str(tmp_path / "d2.csv")
    assert main(["design", "--config", str(cfg), "--out", d1, "--seed", "9"]) == 0
    assert main(["design", "--config", str(cfg), "--out", d2, "--seed", "9"]) == 0
    with open(d1, "rb") as f1, open(d2, "rb") as f2:
        assert f1.read() == f2.read()

    src = str(tmp_path / "tune_a")
    c1, c2 = str(tmp_path / "c1"), str(tmp_path / "c2")
    shutil.copytree(src, c1)
    shutil.copytree(src, c2)
    assert main(["continue", "--bundle", c1, "--funEvals", "13"]) == 0
    assert main(["continue", "--bundle", c2, "--funEvals", "13"]) == 0
    assert archive(c1) == archive(c2)
