"""Tests for run bundles (archive CSV + metadata) and the command line."""

import json
import os

import numpy as np
import pytest

from seqtune import (
    CorruptBundleError,
    SpotConfig,
    archive_lines,
    get_objective,
    load_bundle,
    save_bundle,
    spot_loop,
)
from seqtune.cli import _read_ini, _run_section, _spot_config, main
from seqtune.engine import fit_surrogate

BOUNDS_CFG = """\
[run]
fun = sphere
lower = -2, -2
upper = 2, 2

[spot]
funEvals = 10
model = forest
seedSPOT = 3

[designControl]
size = 5

[modelControl]
ntree = 10

[optimizerControl]
funEvals = 25
"""


@pytest.fixture
def cfg_path(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(BOUNDS_CFG)
    return str(path)


def _read(path):
    with open(path, "rb") as fh:
        return fh.read()


# ---------------------------------------------------------------------------
# archive rendering and bundle round-trips


def test_archive_lines_format(tmp_path):
    lines = archive_lines(
        np.array([[0.5, 1.25], [0.1, -3.0]]),
        np.array([2.0, 7.5]),
        [7, None],
        np.array([1, 1]),
    )
    assert lines[0] == "x1,x2,y,seed,replicate"
    assert lines[1] == "0.5,1.25,2.0,7,1"
    assert lines[2] == "0.1,-3.0,7.5,,1"
    # a short seeds list used to be written as blank seeds, and a short y or
    # replicates raised IndexError
    full = (np.zeros((2, 1)), np.zeros(2), [None, None], np.ones(2, dtype=int))
    for k in range(1, 4):
        short = list(full)
        short[k] = short[k][:1]
        with pytest.raises(ValueError, match="^need one y, seed and replicate per row of x$"):
            archive_lines(*short)
        with pytest.raises(ValueError, match="^need one y, seed and replicate"):
            save_bundle(str(tmp_path / "b"), *short, {})
    assert not os.path.exists(tmp_path / "b" / "archive.csv")


def test_bundle_round_trip_is_exact(tmp_path):
    x = np.array([[0.1, 1.0 / 3.0], [-1e-17, 123456.789], [0.1, 1.0 / 3.0]])
    y = np.array([[np.pi], [-0.0], [1e300]])
    seeds = [5, None, 6]
    reps = np.array([1, 1, 2])
    where = str(tmp_path / "bundle")
    save_bundle(where, x, y, seeds, reps, {"note": "roundtrip"})
    back = load_bundle(where)
    assert np.array_equal(back["x"], x)
    assert np.array_equal(back["y"], y)
    assert back["seeds"] == seeds
    assert np.array_equal(back["replicates"], reps)
    assert back["meta"]["note"] == "roundtrip"
    assert back["meta"]["count"] == 3
    # saving the loaded data again reproduces the file byte for byte
    again = str(tmp_path / "bundle2")
    save_bundle(again, back["x"], back["y"], back["seeds"], back["replicates"], {})
    assert _read(os.path.join(where, "archive.csv")) == _read(
        os.path.join(again, "archive.csv")
    )


def test_load_rejects_missing_bundle(tmp_path):
    with pytest.raises(CorruptBundleError, match="no bundle directory"):
        load_bundle(str(tmp_path / "nope"))


def test_load_rejects_missing_files(tmp_path):
    os.makedirs(tmp_path / "b")
    with pytest.raises(CorruptBundleError, match="missing its files"):
        load_bundle(str(tmp_path / "b"))


def _write_bundle_files(tmp_path, archive_text, meta_text='{"count": 1}\n'):
    where = tmp_path / "b"
    os.makedirs(where, exist_ok=True)
    (where / "archive.csv").write_text(archive_text)
    (where / "meta.json").write_text(meta_text)
    return str(where)


def test_load_rejects_bad_metadata_json(tmp_path):
    where = _write_bundle_files(tmp_path, "x1,y,seed,replicate\n1.0,2.0,,1\n", "{oops")
    with pytest.raises(CorruptBundleError, match="unreadable metadata"):
        load_bundle(where)


def test_load_rejects_non_object_metadata(tmp_path):
    where = _write_bundle_files(tmp_path, "x1,y,seed,replicate\n1.0,2.0,,1\n", "[1]\n")
    with pytest.raises(CorruptBundleError, match="not a JSON object"):
        load_bundle(where)


def test_load_rejects_wrong_header(tmp_path):
    for text, message in (
        ("a,b,c,d\n1.0,2.0,3.0,4\n", "archive header"),
        ("x1,x3,y,seed,replicate\n1.0,2.0,3.0,,1\n", "archive header"),
        ("", "archive is empty"),
    ):
        where = _write_bundle_files(tmp_path, text)
        with pytest.raises(CorruptBundleError, match=message):
            load_bundle(where)


def test_load_rejects_short_rows(tmp_path):
    where = _write_bundle_files(tmp_path, "x1,y,seed,replicate\n1.0,2.0\n")
    with pytest.raises(CorruptBundleError, match="malformed archive row"):
        load_bundle(where)


def test_load_rejects_non_numeric_cells(tmp_path):
    where = _write_bundle_files(tmp_path, "x1,y,seed,replicate\none,2.0,,1\n")
    with pytest.raises(CorruptBundleError, match="malformed archive row"):
        load_bundle(where)


def test_load_rejects_non_finite_inputs_but_keeps_infinite_values(tmp_path):
    for cell in ("nan", "inf", "-inf"):
        where = _write_bundle_files(
            tmp_path, f"x1,y,seed,replicate\n{cell},2.0,,1\n"
        )
        with pytest.raises(CorruptBundleError, match="non-finite input"):
            load_bundle(where)
    # an infinite y marks a failed evaluation and loads as it is
    where = _write_bundle_files(tmp_path, "x1,y,seed,replicate\n1.0,inf,,1\n")
    assert np.isposinf(load_bundle(where)["y"][0, 0])


def test_load_rejects_row_count_mismatch(tmp_path):
    where = _write_bundle_files(
        tmp_path, "x1,y,seed,replicate\n1.0,2.0,,1\n", '{"count": 5}\n'
    )
    with pytest.raises(CorruptBundleError, match="metadata says 5 rows"):
        load_bundle(where)


# ---------------------------------------------------------------------------
# design command


def test_design_command_emits_a_deterministic_csv(cfg_path, tmp_path):
    out1, out2 = str(tmp_path / "d1.csv"), str(tmp_path / "d2.csv")
    assert main(["design", "--config", cfg_path, "--out", out1, "--seed", "4"]) == 0
    assert main(["design", "--config", cfg_path, "--out", out2, "--seed", "4"]) == 0
    assert _read(out1) == _read(out2)
    lines = _read(out1).decode().splitlines()
    assert lines[0] == "x1,x2"
    assert len(lines) == 6
    grid = np.array([[float(c) for c in ln.split(",")] for ln in lines[1:]])
    assert np.all(grid >= -2.0) and np.all(grid <= 2.0)


def test_design_seed_changes_the_sample(cfg_path, tmp_path):
    out1, out2 = str(tmp_path / "d1.csv"), str(tmp_path / "d2.csv")
    main(["design", "--config", cfg_path, "--out", out1, "--seed", "4"])
    main(["design", "--config", cfg_path, "--out", out2, "--seed", "5"])
    assert _read(out1) != _read(out2)


def test_design_is_the_design_tune_evaluates_first(cfg_path, tmp_path):
    for seed in ([], ["--seed", "21"]):
        out1, out2 = str(tmp_path / "d1.csv"), str(tmp_path / "d2.csv")
        where = str(tmp_path / "bundle")
        assert main(["design", "--config", cfg_path, "--out", out1, *seed]) == 0
        assert main(["design", "--config", cfg_path, "--out", out2, *seed]) == 0
        assert _read(out1) == _read(out2)
        assert main(["tune", "--config", cfg_path, "--out", where, *seed]) == 0
        design = _read(out1).decode().splitlines()[1:]
        archive = _read(os.path.join(where, "archive.csv")).decode().splitlines()
        assert design == [",".join(ln.split(",")[:2]) for ln in archive[1:6]]


# ---------------------------------------------------------------------------
# tune / optimize commands


def test_tune_writes_a_bundle_and_reruns_byte_identical(cfg_path, tmp_path):
    b1, b2 = str(tmp_path / "b1"), str(tmp_path / "b2")
    assert main(["tune", "--config", cfg_path, "--out", b1]) == 0
    assert main(["tune", "--config", cfg_path, "--out", b2]) == 0
    assert _read(os.path.join(b1, "archive.csv")) == _read(
        os.path.join(b2, "archive.csv")
    )
    data = load_bundle(b1)
    assert data["x"].shape == (10, 2)
    meta = data["meta"]
    assert meta["count"] == 10
    assert meta["fun"] == "sphere"
    assert meta["msg"] == "budget exhausted"
    assert meta["ybest"] == data["y"].min()


def test_tune_seed_flag_overrides_the_engine_seed(cfg_path, tmp_path):
    b1, b2 = str(tmp_path / "b1"), str(tmp_path / "b2")
    main(["tune", "--config", cfg_path, "--out", b1, "--seed", "21"])
    main(["tune", "--config", cfg_path, "--out", b2, "--seed", "22"])
    assert _read(os.path.join(b1, "archive.csv")) != _read(
        os.path.join(b2, "archive.csv")
    )


def test_optimize_forces_determinism(tmp_path):
    cfg = tmp_path / "opt.cfg"
    cfg.write_text(
        "[run]\nfun = sphere\nlower = -2, -2\nupper = 2, 2\n\n"
        "[spot]\nfunEvals = 12\nnoise = true\nseedFun = 9\nmodel = forest\n\n"
        "[designControl]\nsize = 6\n\n[modelControl]\nntree = 10\n\n"
        "[optimizerControl]\nfunEvals = 40\n"
    )
    out = str(tmp_path / "bundle")
    assert main(["optimize", "--config", str(cfg), "--out", out]) == 0
    data = load_bundle(out)
    assert data["meta"]["config"]["noise"] is False
    assert data["meta"]["config"]["optimizer"] == "local"
    assert data["seeds"] == [None] * 12


# ---------------------------------------------------------------------------
# continue command


def test_continue_extends_and_keeps_the_prefix_bytes(cfg_path, tmp_path):
    where = str(tmp_path / "bundle")
    main(["tune", "--config", cfg_path, "--out", where])
    before = _read(os.path.join(where, "archive.csv")).decode().splitlines()
    ybest_before = load_bundle(where)["meta"]["ybest"]
    assert main(["continue", "--bundle", where, "--funEvals", "14"]) == 0
    after = _read(os.path.join(where, "archive.csv")).decode().splitlines()
    assert after[: len(before)] == before
    assert len(after) == 15
    meta = load_bundle(where)["meta"]
    assert meta["count"] == 14
    assert meta["ybest"] <= ybest_before


def test_continue_into_a_fresh_directory_keeps_the_source(cfg_path, tmp_path):
    src, dst = str(tmp_path / "src"), str(tmp_path / "dst")
    main(["tune", "--config", cfg_path, "--out", src])
    before = _read(os.path.join(src, "archive.csv"))
    assert main(["continue", "--bundle", src, "--funEvals", "13", "--out", dst]) == 0
    assert _read(os.path.join(src, "archive.csv")) == before
    assert load_bundle(dst)["x"].shape == (13, 2)
    data = _read(os.path.join(dst, "archive.csv")).decode().splitlines()
    assert data[: len(before.decode().splitlines())] == before.decode().splitlines()


def test_continue_to_a_spent_budget_leaves_the_archive_alone(cfg_path, tmp_path):
    where = str(tmp_path / "bundle")
    main(["tune", "--config", cfg_path, "--out", where])
    before = _read(os.path.join(where, "archive.csv"))
    assert main(["continue", "--bundle", where, "--funEvals", "10"]) == 0
    assert _read(os.path.join(where, "archive.csv")) == before


def test_continue_result_seeds_match_the_archive(tmp_path):
    noisy = "seedSPOT = 3\nnoise = true\nseedFun = 70"
    cfg = _cfg(tmp_path, BOUNDS_CFG.replace("seedSPOT = 3", noisy))
    src, dst = str(tmp_path / "src"), str(tmp_path / "dst")
    assert main(["tune", "--config", cfg, "--out", src]) == 0
    assert main(["continue", "--bundle", src, "--funEvals", "12", "--out", dst]) == 0
    data, continued = load_bundle(src), load_bundle(dst)
    meta = data["meta"]
    result = spot_loop(
        data["x"], data["y"], get_objective(meta["fun"]), meta["lower"],
        meta["upper"], SpotConfig(**dict(meta["config"], types=(), funEvals=12)),
        seeds=data["seeds"],
    )
    assert result.seeds == continued["seeds"] == list(range(70, 82))
    assert np.array_equal(result.x, continued["x"])


# ---------------------------------------------------------------------------
# rsm-path and surface commands


def test_rsm_path_emits_ten_descending_steps(cfg_path, tmp_path, capsys):
    where = str(tmp_path / "bundle")
    main(["tune", "--config", cfg_path, "--out", where])
    out = str(tmp_path / "path.csv")
    assert main(["rsm-path", "--bundle", where, "--out", out]) == 0
    capsys.readouterr()
    # without --out the same table goes to stdout
    assert main(["rsm-path", "--bundle", where]) == 0
    assert capsys.readouterr().out.encode() == _read(out)
    lines = _read(out).decode().splitlines()
    assert lines[0] == "x1,x2,y"
    assert len(lines) == 11
    vals = np.array([[float(c) for c in ln.split(",")] for ln in lines[1:]])
    assert np.all(np.isfinite(vals))


def test_surface_grid_covers_the_bounds(cfg_path, tmp_path):
    out = str(tmp_path / "s.csv")
    assert main(["surface", "--config", cfg_path, "--grid", "3", "--out", out]) == 0
    lines = _read(out).decode().splitlines()
    assert lines[0] == "x1,x2,y"
    assert len(lines) == 10
    grid = np.array([[float(c) for c in ln.split(",")] for ln in lines[1:]])
    assert grid[:, 0].min() == -2.0 and grid[:, 0].max() == 2.0
    assert grid[:, 1].min() == -2.0 and grid[:, 1].max() == 2.0
    # the objective itself is evaluated: corners of the sphere give 8
    corner = grid[(grid[:, 0] == 2.0) & (grid[:, 1] == 2.0)]
    assert corner[0, 2] == 8.0


def test_surface_at_is_the_base_point_of_the_grid(tmp_path, capsys):
    text = "[run]\nfun = sphere\nlower = -1, -1, -1\nupper = 1, 1, 1\n[surface]\n"
    out = str(tmp_path / "s.csv")
    assert main(["surface", "--config", _cfg(tmp_path, text + "at = 0, 0, 3\n"),
                 "--grid", "3", "--out", out]) == 0
    grid = np.array([[float(c) for c in ln.split(",")]
                     for ln in _read(out).decode().splitlines()[1:]])
    # the third axis stays at its `at` value, 3, outside the box
    np.testing.assert_array_equal(grid[:, 2], grid[:, 0] ** 2 + grid[:, 1] ** 2 + 9.0)
    assert main(["surface", "--config", _cfg(tmp_path, text + "at = 0, 0\n"),
                 "--grid", "3"]) == 2
    assert "[surface] at has 2 columns, expected 3" in capsys.readouterr().err


def test_surface_from_a_bundle_uses_the_fitted_model(cfg_path, tmp_path):
    where = str(tmp_path / "bundle")
    main(["tune", "--config", cfg_path, "--out", where])
    out = str(tmp_path / "s.csv")
    assert main(["surface", "--bundle", where, "--grid", "4", "--out", out]) == 0
    lines = _read(out).decode().splitlines()
    assert len(lines) == 17
    vals = np.array([float(ln.split(",")[2]) for ln in lines[1:]])
    assert np.all(np.isfinite(vals))


def test_surface_requires_exactly_one_source(cfg_path, tmp_path, capsys):
    assert main(["surface"]) == 2
    where = str(tmp_path / "bundle")
    main(["tune", "--config", cfg_path, "--out", where])
    capsys.readouterr()
    assert main(["surface", "--bundle", where, "--config", cfg_path]) == 2
    assert "exactly one" in capsys.readouterr().err


def test_surface_validates_grid_and_dims(cfg_path):
    assert main(["surface", "--config", cfg_path, "--grid", "1"]) == 2
    assert main(["surface", "--config", cfg_path, "--dims", "1,1"]) == 2
    assert main(["surface", "--config", cfg_path, "--dims", "0,2"]) == 2
    assert main(["surface", "--config", cfg_path, "--dims", "a,b"]) == 2


# ---------------------------------------------------------------------------
# exit codes


def _cfg(tmp_path, text):
    path = tmp_path / "c.cfg"
    path.write_text(text)
    return str(path)


def test_unusable_configs_exit_2(tmp_path, capsys):
    missing_run = _cfg(tmp_path, "[spot]\nfunEvals = 5\n")
    assert main(["design", "--config", missing_run, "--out", "/dev/null"]) == 2
    assert "config error" in capsys.readouterr().err

    for key in ("bogus = 1", "types = integer"):
        unknown_key = _cfg(
            tmp_path, f"[run]\nfun = sphere\nlower = 0\nupper = 1\n[spot]\n{key}\n"
        )
        assert main(["design", "--config", unknown_key, "--out", "/dev/null"]) == 2
        assert f"unknown [spot] keys: {key.split()[0]}" in capsys.readouterr().err

    for text, message in (
        ("fun = sphere\nlower = 0\nupper = 1\nbogus = 1\n", "unknown [run] keys: bogus"),
        ("fun = sphere\nlower = 0\n", "[run] is missing 'upper'"),
        ("fun = sphere\nlower = a, b\nupper = 1, 1\n", "cannot parse [run] lower"),
    ):
        bad_run = _cfg(tmp_path, "[run]\n" + text)
        assert main(["design", "--config", bad_run, "--out", "/dev/null"]) == 2
        assert message in capsys.readouterr().err

    mismatched = _cfg(tmp_path, "[run]\nfun = sphere\nlower = 0, 0\nupper = 1\n")
    assert main(["design", "--config", mismatched, "--out", "/dev/null"]) == 2

    # a NaN bound used to pass the lower <= upper check: the uniform design
    # then crashed, and the LHD failed with a message about its column count;
    # surface gridded NaN and reversed bounds and exited 0
    for bound in ("nan", "-inf"):
        for design in ("lhd", "uniform"):
            non_finite = _cfg(
                tmp_path,
                f"[run]\nfun = sphere\nlower = {bound}, 0\nupper = 1, 1\n"
                f"[spot]\ndesign = {design}\n",
            )
            for command in ("design", "surface"):
                assert main([command, "--config", non_finite, "--out", "/dev/null"]) == 2
                assert "bounds must be finite" in capsys.readouterr().err
    reversed_box = _cfg(tmp_path, "[run]\nfun = sphere\nlower = 10, 15\nupper = -5, 0\n")
    errors = []
    for command in ("design", "surface"):
        assert main([command, "--config", reversed_box, "--out", "/dev/null"]) == 2
        errors.append(capsys.readouterr().err)
    assert errors[0] == errors[1] == "config error: lower bound exceeds upper bound\n"

    unknown_fun = _cfg(tmp_path, "[run]\nfun = mystery\nlower = 0\nupper = 1\n")
    out = str(tmp_path / "b")
    assert main(["tune", "--config", unknown_fun, "--out", out]) == 2
    assert "unknown objective" in capsys.readouterr().err

    unknown_model = _cfg(
        tmp_path,
        "[run]\nfun = sphere\nlower = 0, 0\nupper = 1, 1\n[spot]\nmodel = spline\n",
    )
    assert main(["tune", "--config", unknown_model, "--out", out]) == 2

    unparsable = _cfg(tmp_path, "run]\nfun = sphere\n")
    assert main(["design", "--config", unparsable, "--out", "/dev/null"]) == 2

    nonexistent = str(tmp_path / "missing.cfg")
    assert main(["design", "--config", nonexistent, "--out", "/dev/null"]) == 2

    # wrong value types: a float budget used to make tune loop forever
    for line in ("seedSPOT = abc", "noise = maybe", "funEvals = 12.5"):
        wrong_type = _cfg(
            tmp_path, f"[run]\nfun = sphere\nlower = 0\nupper = 1\n[spot]\n{line}\n"
        )
        assert main(["design", "--config", wrong_type, "--out", "/dev/null"]) == 2
        assert line.split()[0] in capsys.readouterr().err

    # a control section's types used to override the run's types
    control_types = _cfg(
        tmp_path,
        "[run]\nfun = sphere\nlower = 0, 0\nupper = 1, 1\n"
        "[modelControl]\ntypes = factor, factor\n",
    )
    assert main(["tune", "--config", control_types, "--out", out]) == 2
    assert "modelControl cannot set types" in capsys.readouterr().err
    assert not os.path.exists(out)

    # a bad seed in a control section used to crash the run with a TypeError
    for section, text in (
        ("modelControl", "[modelControl]\nntree = 10\nseed = abc\n"),
        ("optimizerControl",
         "[modelControl]\nntree = 10\n[optimizerControl]\nseed = abc\n"),
    ):
        bad_seed = _cfg(
            tmp_path,
            "[run]\nfun = sphere\nlower = 0, 0\nupper = 1, 1\n"
            "[spot]\nfunEvals = 12\nmodel = forest\n" + text,
        )
        assert main(["tune", "--config", bad_seed, "--out", out]) == 2
        assert f"{section} seed" in capsys.readouterr().err

    # a fractional count used to be truncated: 3 rows, 8 rows, 20 trees
    sphere = "[run]\nfun = sphere\nlower = 0, 0\nupper = 1, 1\n"
    for command, text, key in (
        ("design", "[designControl]\nsize = 3.7\n", "designControl size"),
        ("design", "[designControl]\nsize = 4\nreplicates = 2.5\n",
         "designControl replicates"),
        ("tune",
         "[spot]\nfunEvals = 12\nmodel = forest\n[modelControl]\nntree = 20.9\n",
         "modelControl ntree"),
    ):
        fractional = _cfg(tmp_path, sphere + text)
        target = "/dev/null" if command == "design" else out
        assert main([command, "--config", fractional, "--out", target]) == 2
        assert key in capsys.readouterr().err

    # a zero budget, tree count or fold count used to evaluate the whole
    # design, then fail with a message that named no section
    for model, text, key, least in (
        ("kriging", "[modelControl]\nbudget = 0\n", "modelControl budget", 1),
        ("kriging", "[optimizerControl]\nfunEvals = 0\n", "optimizerControl funEvals", 1),
        ("forest", "[modelControl]\nntree = 0\n", "modelControl ntree", 1),
        ("forest", "[modelControl]\nmtry = 0\n", "modelControl mtry", 1),
        ("forest", "[modelControl]\nmin_node_size = 0\n", "modelControl min_node_size", 1),
        ("stack", "[modelControl]\nfolds = 1\n", "modelControl folds", 2),
    ):
        zero_count = _cfg(
            tmp_path, sphere + f"[spot]\nfunEvals = 12\nmodel = {model}\n" + text
        )
        fresh = str(tmp_path / key.replace(" ", "_"))
        assert main(["tune", "--config", zero_count, "--out", fresh]) == 2
        assert f"{key} must be at least {least}" in capsys.readouterr().err
        assert not os.path.exists(fresh)

    # unusable stack settings used to end in a TypeError or AttributeError
    bad_stack = _cfg(
        tmp_path, sphere + "[spot]\nfunEvals = 12\nmodel = stack\n[modelControl]\nmembers =\n"
    )
    assert main(["tune", "--config", bad_stack, "--out", out]) == 2
    assert "stack members" in capsys.readouterr().err


def test_an_unknown_stack_member_exits_2_unevaluated(tmp_path, capsys, monkeypatch):
    # it used to evaluate the whole design, then exit 2 without a bundle
    calls = []
    fun = get_objective("sphere")
    monkeypatch.setattr("seqtune.cli.get_objective",
                        lambda name: lambda x: calls.append(x) or fun(x))
    config = _cfg(tmp_path, "[run]\nfun = sphere\nlower = 0, 0\nupper = 1, 1\n"
                  "[spot]\nfunEvals = 12\nmodel = stack\n"
                  "[modelControl]\nmembers = kriging, boosting\n")
    out = str(tmp_path / "b")
    assert main(["tune", "--config", config, "--out", out]) == 2
    assert "config error: bad run settings: unknown stack member 'boosting'" in (
        capsys.readouterr().err)
    assert calls == []
    assert not os.path.exists(out)


@pytest.mark.parametrize("model, line, message", [
    ("kriging", "algTheta = nope", "unknown algTheta 'nope' (known: lhd, local)"),
    ("stack", "algTheta = nope", "unknown algTheta 'nope' (known: lhd, local)"),
    ("kriging", "useLambda = flase", "modelControl useLambda must be true or false, got 'flase'"),
    ("rsm", "mainEffectsOnly = 0", "modelControl mainEffectsOnly must be true or false, got 0"),
    ("stack", "canonical = flase", "modelControl canonical must be true or false, got 'flase'"),
], ids=["kriging-algTheta", "stack-algTheta", "kriging-useLambda", "rsm-mainEffectsOnly",
        "stack-canonical"])
def test_a_bad_search_or_model_flag_exits_2_unevaluated(
    tmp_path, capsys, monkeypatch, model, line, message
):
    # algTheta = nope used to evaluate the whole design, then exit 2
    # without a bundle; useLambda = flase fitted a nugget
    calls = []
    fun = get_objective("sphere")
    monkeypatch.setattr("seqtune.cli.get_objective",
                        lambda name: lambda x: calls.append(x) or fun(x))
    config = _cfg(tmp_path, "[run]\nfun = sphere\nlower = 0, 0\nupper = 1, 1\n"
                  f"[spot]\nfunEvals = 12\nmodel = {model}\n[modelControl]\n{line}\n")
    out = str(tmp_path / "b")
    assert main(["tune", "--config", config, "--out", out]) == 2
    assert capsys.readouterr().err == f"config error: bad run settings: {message}\n"
    assert calls == []
    assert not os.path.exists(out)


def test_a_stack_config_sets_its_members_counts(tmp_path):
    # fit_stack used to drop them: the forest grew 500 trees and Kriging
    # evaluated 600 likelihood rows
    config = _cfg(tmp_path, "[run]\nfun = sphere\nlower = 0, 0\nupper = 1, 1\n"
                  "[spot]\nmodel = stack\n"
                  "[modelControl]\nmembers = kriging, forest\nntree = 7\nbudget = 30\n")
    cp = _read_ini(config)
    cfg = SpotConfig(**_spot_config(cp, _run_section(cp)))
    x = np.random.default_rng(0).uniform(size=(12, 2))
    fit = fit_surrogate(x, get_objective("sphere")(x), cfg, 0)
    assert fit.member_names == ["kriging", "forest"]
    kriging, forest = fit.members
    assert kriging.likelihood_evals == 30
    assert forest.ntree == 7 and forest.feature.shape[0] == 7


def test_a_design_too_small_for_the_first_fit_exits_2_unevaluated(
    tmp_path, capsys, monkeypatch
):
    # these used to evaluate the whole design, then exit 2 without a bundle
    calls = []

    def objective(name):
        fun = get_objective(name)
        return lambda x: calls.append(x) or fun(x)

    monkeypatch.setattr("seqtune.cli.get_objective", objective)
    sphere = "[run]\nfun = sphere\nlower = 0, 0\nupper = 1, 1\n[spot]\nfunEvals = 12\n"
    for text, need in (
        ("model = stack\n[modelControl]\nfolds = 20\n", 20),
        ("[designControl]\nsize = 1\n", 2),
        ("model = rsm\n[designControl]\nsize = 5\n", 6),
    ):
        small = _cfg(tmp_path, sphere + text)
        out = str(tmp_path / "b")
        assert main(["tune", "--config", small, "--out", out]) == 2
        err = capsys.readouterr().err
        assert "config error" in err
        assert f"the first model fit needs at least {need} initial design rows" in err
        assert calls == []
        assert not os.path.exists(out)


def test_a_negative_seedfun_for_a_seeded_objective_exits_2_unevaluated(
    tmp_path, capsys, monkeypatch
):
    # sannSphere hands seedFun plus the row count to numpy's default_rng;
    # seedFun = -5 used to fail at the first evaluation with numpy's bare
    # "expected non-negative integer" and no bundle
    calls = []

    def counting(x, seed=None):
        calls.append(seed)
        return np.zeros((np.atleast_2d(x).shape[0], 1))

    monkeypatch.setattr("seqtune.cli.get_objective", lambda name: counting)
    shipped = os.path.join(os.path.dirname(__file__), "..", "configs", "sann_forest.cfg")
    with open(shipped) as fh:
        text = fh.read()
    cfg = _cfg(tmp_path, text.replace("seedFun = 1\n", "seedFun = -5\nfunEvals = 12\n")
               .replace("funEvals = 50\n", ""))
    out = str(tmp_path / "b")
    assert main(["tune", "--config", cfg, "--out", out]) == 2
    err = capsys.readouterr().err
    assert "seedFun must be nonnegative for an objective that takes a seed, got -5" in err
    assert calls == []
    assert not os.path.exists(out)

    # an objective that takes no seed may still run on any seedFun
    noisy = _cfg(tmp_path, BOUNDS_CFG.replace("seedSPOT = 3", "noise = true\nseedFun = -5"))
    monkeypatch.undo()
    assert main(["tune", "--config", noisy, "--out", out]) == 0
    assert load_bundle(out)["seeds"][:2] == [-5, -4]


def test_a_lone_stack_member_in_a_config_is_one_member(tmp_path, capsys):
    cfg = _cfg(
        tmp_path,
        "[run]\nfun = sphere\nlower = 0, 0\nupper = 1, 1\n"
        "[spot]\nfunEvals = 11\nmodel = stack\n[modelControl]\nmembers = rsm\n",
    )
    out = str(tmp_path / "b")
    assert main(["tune", "--config", cfg, "--out", out]) == 0
    assert load_bundle(out)["x"].shape == (11, 2)


def test_tune_saves_a_run_that_ran_out_of_grid_points(tmp_path, capsys):
    # four integer points and a budget of six: the fifth candidate has no
    # unevaluated replacement, so the run ends there and is still saved
    cfg = _cfg(
        tmp_path,
        "[run]\nfun = sphere\nlower = 1, 1\nupper = 2, 2\ntypes = integer, integer\n"
        "[spot]\nfunEvals = 6\nmodel = forest\n[designControl]\nsize = 2\n"
        "[modelControl]\nntree = 10\n",
    )
    out = str(tmp_path / "b")
    assert main(["tune", "--config", cfg, "--out", out]) == 0
    assert "msg: stopped: no unevaluated point found" in capsys.readouterr().out
    data = load_bundle(out)
    assert data["x"].shape == (4, 2)
    assert set(map(tuple, data["x"])) == {(1, 1), (1, 2), (2, 1), (2, 2)}


def test_infeasible_budget_exits_3(tmp_path, capsys):
    cfg = _cfg(
        tmp_path,
        "[run]\nfun = sphere\nlower = 0, 0\nupper = 1, 1\n"
        "[spot]\nfunEvals = 5\n[designControl]\nsize = 10\n",
    )
    assert main(["tune", "--config", cfg, "--out", str(tmp_path / "b")]) == 3
    assert "budget error" in capsys.readouterr().err


def test_corrupt_bundles_exit_4(tmp_path, capsys):
    missing = str(tmp_path / "nothing")
    assert main(["continue", "--bundle", missing, "--funEvals", "9"]) == 4
    assert "bundle error" in capsys.readouterr().err
    assert main(["rsm-path", "--bundle", missing]) == 4
    assert main(["surface", "--bundle", missing]) == 4


@pytest.mark.parametrize("command", ["continue", "surface"])
@pytest.mark.parametrize(
    "corrupt",
    [lambda meta: dict(meta, config=5), lambda meta: dict(meta, config=["a"]),
     lambda meta: dict(meta, config=dict(meta["config"], types=7)),
     lambda meta: {key: val for key, val in meta.items() if key != "fun"},
     # bounds and types that make no ParamSpace, and an archive narrower
     # than the bounds, used to exit 2 as config errors
     lambda meta: dict(meta, lower=["a", "b"]),
     lambda meta: dict(meta, lower=[-2.0]),
     lambda meta: dict(meta, lower=meta["upper"], upper=meta["lower"]),
     lambda meta: dict(meta, config=dict(meta["config"], types=["numeric", "bogus"])),
     lambda meta: dict(meta, lower=[-2.0] * 3, upper=[2.0] * 3)],
    ids=["number", "list", "types-number", "no-fun", "string-bounds", "short-lower",
         "reversed", "unknown-type", "narrow-archive"],
)
def test_corrupt_bundle_config_exits_4(cfg_path, tmp_path, capsys, command, corrupt):
    where = str(tmp_path / "bundle")
    main(["tune", "--config", cfg_path, "--out", where])
    meta_path = os.path.join(where, "meta.json")
    meta = corrupt(json.loads(_read(meta_path)))
    with open(meta_path, "w") as fh:
        json.dump(meta, fh)
    capsys.readouterr()
    args = {"continue": ["--funEvals", "12"], "surface": ["--grid", "3"]}[command]
    assert main([command, "--bundle", where] + args) == 4
    assert "bundle error" in capsys.readouterr().err


def test_continue_with_a_list_objective_exits_2_and_keeps_the_archive(
        cfg_path, tmp_path, capsys):
    where = str(tmp_path / "bundle")
    main(["tune", "--config", cfg_path, "--out", where])
    meta_path = os.path.join(where, "meta.json")
    meta = dict(json.loads(_read(meta_path)), fun=["branin"])
    with open(meta_path, "w") as fh:
        json.dump(meta, fh)
    archive = _read(os.path.join(where, "archive.csv"))
    capsys.readouterr()
    # a list used to escape as TypeError: unhashable type: 'list'
    assert main(["continue", "--bundle", where, "--funEvals", "12"]) == 2
    err = capsys.readouterr().err
    assert "config error: unknown objective ['branin']" in err
    assert "Traceback" not in err
    assert _read(os.path.join(where, "archive.csv")) == archive


@pytest.mark.parametrize("extra, message", [
    # a misspelled section used to be ignored, and the run saved
    ("[designcontrol]\nsize = 1000\n", "unknown config sections: designcontrol"),
    # a % used to escape as configparser's InterpolationSyntaxError
    ("[spot]\nduplicate = 100%\n", "duplicate"),
    # and a %(name)s as InterpolationMissingOptionError
    ("[spot]\nseedSPOT = %(x)s\n", "seedSPOT"),
], ids=["section", "percent", "percent-name"])
def test_tune_with_a_bad_section_or_value_exits_2_without_a_bundle(
        tmp_path, capsys, extra, message):
    cfg = _cfg(tmp_path, "[run]\nfun = sphere\nlower = 0, 0\nupper = 1, 1\n" + extra)
    out = str(tmp_path / "b")
    assert main(["tune", "--config", cfg, "--out", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and message in err
    assert "Traceback" not in err
    assert not os.path.exists(out)


@pytest.mark.parametrize("command", ["continue", "rsm-path", "surface"])
def test_non_finite_archive_inputs_exit_4(cfg_path, tmp_path, capsys, command):
    where = str(tmp_path / "bundle")
    main(["tune", "--config", cfg_path, "--out", where])
    archive_path = os.path.join(where, "archive.csv")
    lines = _read(archive_path).decode().split("\n")
    lines[2] = "nan" + lines[2][lines[2].index(","):]
    with open(archive_path, "w") as fh:
        fh.write("\n".join(lines))
    capsys.readouterr()
    args = {"continue": ["--funEvals", "12"], "rsm-path": [],
            "surface": ["--grid", "3"]}[command]
    assert main([command, "--bundle", where] + args) == 4
    assert "non-finite input" in capsys.readouterr().err


def test_continue_searches_inside_the_box_after_an_edited_best_row(cfg_path, tmp_path):
    where = str(tmp_path / "bundle")
    main(["tune", "--config", cfg_path, "--out", where])
    data = load_bundle(where)
    best = int(np.argmin(data["y"][:, 0]))
    data["x"][best, 0] = 99.0
    meta = dict(data["meta"], config=dict(data["meta"]["config"], optimizer="local"))
    save_bundle(where, data["x"], data["y"], data["seeds"], data["replicates"], meta)
    assert main(["continue", "--bundle", where, "--funEvals", "12"]) == 0
    back = load_bundle(where)
    assert back["x"][best, 0] == 99.0
    assert np.all(np.abs(back["x"][10:]) <= 2.0)


def test_metadata_contains_the_resolved_config(cfg_path, tmp_path):
    where = str(tmp_path / "bundle")
    main(["tune", "--config", cfg_path, "--out", where])
    meta = json.loads(_read(os.path.join(where, "meta.json")))
    assert meta["config"]["funEvals"] == 10
    assert meta["config"]["model"] == "forest"
    assert meta["lower"] == [-2.0, -2.0]
    assert meta["upper"] == [2.0, 2.0]
    assert "created" in meta and "finished" in meta
