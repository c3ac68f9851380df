"""Golden run outputs, compared byte for byte.

Each file under tests/golden/ is the output of one `seqtune` command on a
fixed config: the archive.csv of the three shipped configs, of a stacked
Branin run, of a noisy OCBA run and of its continuation, and the CSV of a
surface drawn from a bundle's fitted model.  The test re-runs every command
and compares bytes, so reproducibility is pinned across commits, not only
between two runs in one process.  The stacked run and the Branin Kriging run
are also repeated in a fresh interpreter with OpenBLAS held to one thread,
so their archives cannot depend on the BLAS thread count.  The two
forest-only runs (the shipped SANN forest config and the OCBA run) are
repeated under OpenBLAS's Haswell and Prescott kernels, and with numpy's
AVX-512 loops disabled, so their archives cannot depend on the CPU's BLAS
kernel or on numpy's SIMD dispatch either.

The `*_rsm_path.csv` files are the `rsm-path` output on the bundles of the
three shipped configs.  Their header is compared byte for byte and their
values to 1e-12 of each column's largest magnitude: the ridge step is the
root of a secular equation, and a change to the root search may move its
last digits without changing the path.

A change that alters a golden file alters the engine's results.  Regenerate
the files only together with a note saying what changed and why:

    PYTHONPATH=src python tests/test_golden.py

Regeneration rewrites only the files that fail their own comparison, so an
rsm-path file whose values moved within the tolerance keeps its bytes.
"""

import io
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from seqtune.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"
SHIPPED = ("sphere_kriging", "branin_kriging", "sann_forest")

NAMES = [
    "sphere_kriging.csv",
    "branin_kriging.csv",
    "sann_forest.csv",
    "branin_stack.csv",
    "sann_ocba.csv",
    "sann_ocba_continue.csv",
    "sphere_kriging_surface.csv",
]


def _run(*argv) -> None:
    code = main([str(a) for a in argv])
    if code != 0:
        raise RuntimeError(f"seqtune {' '.join(map(str, argv))} exited {code}")


def produce(out: Path) -> dict:
    """Run every golden command under `out`; returns file name -> bytes."""
    configs = {name: ROOT / "configs" / f"{name}.cfg" for name in SHIPPED}
    configs.update({name: GOLDEN / f"{name}.cfg"
                    for name in ("branin_stack", "sann_ocba")})
    for name, cfg in configs.items():
        _run("tune", "--config", cfg, "--out", out / name)
    _run("continue", "--bundle", out / "sann_ocba", "--funEvals", 22,
         "--out", out / "sann_ocba_continue")
    _run("surface", "--bundle", out / "sphere_kriging", "--grid", 11,
         "--out", out / "sphere_kriging_surface.csv")
    files = {f"{name}.csv": (out / name / "archive.csv").read_bytes()
             for name in [*configs, "sann_ocba_continue"]}
    files["sphere_kriging_surface.csv"] = (
        out / "sphere_kriging_surface.csv").read_bytes()
    for name in SHIPPED:
        path = out / f"{name}_rsm_path.csv"
        _run("rsm-path", "--bundle", out / name, "--out", path)
        files[path.name] = path.read_bytes()
    return files


@pytest.fixture(scope="module")
def produced(tmp_path_factory):
    return produce(tmp_path_factory.mktemp("golden"))


@pytest.mark.parametrize("name", NAMES)
def test_output_matches_the_golden_file(produced, name):
    assert produced[name] == (GOLDEN / name).read_bytes()


@pytest.mark.parametrize("name", [f"{name}_rsm_path.csv" for name in SHIPPED])
def test_rsm_path_matches_the_golden_file(produced, name):
    assert rsm_path_matches(produced[name], (GOLDEN / name).read_bytes())


def rsm_path_matches(got: bytes, want: bytes) -> bool:
    """Equal headers, and values equal to 1e-12 of each column's largest."""
    if got.split(b"\n", 1)[0] != want.split(b"\n", 1)[0]:
        return False
    got, want = (np.loadtxt(io.BytesIO(data), delimiter=",", skiprows=1)
                 for data in (got, want))
    return got.shape == want.shape and bool(
        np.all(np.abs(got - want) <= 1e-12 * np.abs(want).max(axis=0)))


def matches_the_golden_file(name: str, data: bytes) -> bool:
    """Whether `data` passes the comparison its golden file is held to."""
    path = GOLDEN / name
    if not path.exists():
        return False
    if name.endswith("_rsm_path.csv"):
        return rsm_path_matches(data, path.read_bytes())
    return data == path.read_bytes()


def _seqtune_in_subprocess(*argv, check: str = "", **env_vars) -> str:
    """Run `seqtune *argv` in a fresh interpreter; returns stderr.

    `check` is Python code that the interpreter runs first.
    """
    env = dict(os.environ, **env_vars)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    cli = f"{check}\nimport sys\nfrom seqtune.cli import main\nsys.exit(main(sys.argv[1:]))"
    proc = subprocess.run(
        [sys.executable, "-c", cli, *map(str, argv)],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stderr


def _tune_in_subprocess(config: Path, out: Path, check: str = "", **env_vars) -> str:
    return _seqtune_in_subprocess("tune", "--config", config, "--out", out,
                                 check=check, **env_vars)


@pytest.mark.parametrize("config", [
    GOLDEN / "branin_stack.cfg",
    ROOT / "configs" / "branin_kriging.cfg",
], ids=lambda path: path.stem)
def test_run_does_not_depend_on_the_blas_thread_count(tmp_path, config):
    out = tmp_path / config.stem
    _tune_in_subprocess(config, out, OPENBLAS_NUM_THREADS="1")
    assert (out / "archive.csv").read_bytes() == (
        GOLDEN / f"{config.stem}.csv").read_bytes()


# OpenBLAS names the kernel it runs in its verbose start-up line; some builds
# run the Prescott request on their Katmai kernels
KERNEL_NAMES = {"Haswell": ("Haswell",), "Prescott": ("Prescott", "Katmai")}


@pytest.mark.parametrize("coretype", sorted(KERNEL_NAMES))
@pytest.mark.parametrize("config", [
    ROOT / "configs" / "sann_forest.cfg",
    GOLDEN / "sann_ocba.cfg",
], ids=lambda path: path.stem)
def test_forest_runs_do_not_depend_on_the_blas_kernel(tmp_path, config, coretype):
    out = tmp_path / config.stem
    stderr = _tune_in_subprocess(config, out, OPENBLAS_CORETYPE=coretype,
                                 OPENBLAS_VERBOSE="2")
    cores = [line.split(":", 1)[1].strip() for line in stderr.splitlines()
             if line.startswith("Core:")]
    assert cores, "OpenBLAS printed no kernel name"
    assert all(core in KERNEL_NAMES[coretype] for core in cores), cores
    assert (out / "archive.csv").read_bytes() == (
        GOLDEN / f"{config.stem}.csv").read_bytes()


# numpy's dispatched exp, log and power give other last bits on their AVX2
# loops than on their AVX-512 ones; this setting takes the AVX2 loops
NO_AVX512 = "X86_V4,AVX512_ICL,AVX512_SPR"
EXP_NOT_ON_AVX512 = """
import numpy as np
info = np.lib.introspect.opt_func_info(func_name="^exp$", signature="float64")
current = [loop["current"] for loops in info.values() for loop in loops.values()]
assert current and "X86_V4" not in current, info
"""


@pytest.mark.parametrize("config", [
    ROOT / "configs" / "sann_forest.cfg",
    GOLDEN / "sann_ocba.cfg",
], ids=lambda path: path.stem)
def test_forest_runs_do_not_depend_on_numpy_simd_dispatch(tmp_path, config):
    out = tmp_path / config.stem
    _tune_in_subprocess(config, out, check=EXP_NOT_ON_AVX512,
                        NPY_DISABLE_CPU_FEATURES=NO_AVX512)
    assert (out / "archive.csv").read_bytes() == (
        GOLDEN / f"{config.stem}.csv").read_bytes()


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        for name, data in produce(Path(scratch)).items():
            if matches_the_golden_file(name, data):
                print(f"kept {GOLDEN / name}", file=sys.stderr)
            else:
                (GOLDEN / name).write_bytes(data)
                print(f"wrote {GOLDEN / name}", file=sys.stderr)
