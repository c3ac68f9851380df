"""seqtune runs without scipy, and loads only the modules a run uses.

seqtune's runtime needs numpy alone: the triangular solves, the local
search, the ridge step's root and the stack's NNLS are its own code.  The
checks run in fresh interpreters: this pytest process has imported scipy
already, through the oracle computations of other test modules.  The first
two checks report the scipy modules loaded when the interpreter exits; the
next ones block every scipy import and run each CLI command that the golden
files pin.  The last ones report the seqtune modules loaded at exit: set-up
loads no model's module, a run loads only its own model's (a stack's, its
members' too), a stack fit alone loads no engine, and the package's names
load their submodule on first use.
"""

import importlib
import os
import subprocess
import sys

import pytest

import seqtune
from test_golden import (
    GOLDEN, ROOT, SHIPPED, _seqtune_in_subprocess, _tune_in_subprocess, rsm_path_matches,
)


def _at_exit_code(package: str) -> str:
    """Code that prints the `package` modules loaded when the interpreter
    exits, as one line of standard error that _at_exit reads back."""
    return f"""
import atexit, sys
atexit.register(lambda: print("{package} at exit:", *sorted(
    m for m in sys.modules if m == "{package}" or m.startswith("{package}.")), file=sys.stderr))
"""


SCIPY_AT_EXIT = _at_exit_code("scipy")
SEQTUNE_AT_EXIT = _at_exit_code("seqtune")

# the modules that set-up never uses: the models' and OCBA's
MODEL_MODULES = {f"seqtune.{m}" for m in ("forest", "kriging", "rsm", "stack", "ocba")}

# makes every import of scipy or of a scipy submodule raise ImportError
NO_SCIPY = """
import sys
assert not any(m == "scipy" or m.startswith("scipy.") for m in sys.modules)

class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"scipy is blocked: {name}")
        return None

sys.meta_path.insert(0, NoScipy())
"""


def _at_exit(stderr: str, package: str = "scipy") -> list[str]:
    lines = [ln for ln in stderr.splitlines() if ln.startswith(f"{package} at exit:")]
    assert len(lines) == 1, stderr
    return lines[0].split()[3:]


def _python(code: str, *argv) -> subprocess.CompletedProcess:
    """Run `code` in a fresh interpreter that imports seqtune from src/."""
    return subprocess.run([sys.executable, "-c", code, *map(str, argv)],
                          capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
                          cwd=ROOT, timeout=120)


def _set_up_probe(config, check: str) -> str:
    """Run what perfbench/setup_probe.py times on `config` after `check`:
    importing seqtune and seqtune.cli, reading the run config, building the
    SpotConfig, resolving the objective; returns stderr."""
    probe = ROOT / "perfbench" / "setup_probe.py"
    proc = _python(f"""{check}
import runpy, sys
sys.argv = [{str(probe)!r}, {str(ROOT)!r}, {str(config)!r}]
runpy.run_path(sys.argv[0], run_name="__main__")
""")
    assert proc.returncode == 0, proc.stderr
    return proc.stderr


def test_set_up_loads_no_scipy():
    stderr = _set_up_probe(ROOT / "configs" / "sann_forest.cfg", SCIPY_AT_EXIT)
    assert _at_exit(stderr) == []


def test_forest_lhd_ocba_run_loads_no_scipy(tmp_path):
    out = tmp_path / "sann_ocba"
    stderr = _tune_in_subprocess(GOLDEN / "sann_ocba.cfg", out, check=SCIPY_AT_EXIT)
    assert _at_exit(stderr) == []
    assert (out / "archive.csv").read_bytes() == (GOLDEN / "sann_ocba.csv").read_bytes()


def test_the_blocker_stops_a_scipy_import():
    proc = subprocess.run([sys.executable, "-c", NO_SCIPY + "\nimport scipy.linalg\n"],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert "scipy is blocked: scipy" in proc.stderr


@pytest.mark.parametrize("config", [
    *(ROOT / "configs" / f"{name}.cfg" for name in SHIPPED),
    GOLDEN / "branin_stack.cfg",
], ids=lambda path: path.stem)
def test_every_command_runs_without_scipy(tmp_path, config):
    out = tmp_path / config.stem
    _tune_in_subprocess(config, out, check=NO_SCIPY)
    assert (out / "archive.csv").read_bytes() == (
        GOLDEN / f"{config.stem}.csv").read_bytes()
    if config.stem not in SHIPPED:
        return
    path = tmp_path / f"{config.stem}_rsm_path.csv"
    _seqtune_in_subprocess("rsm-path", "--bundle", out, "--out", path, check=NO_SCIPY)
    assert rsm_path_matches(path.read_bytes(), (GOLDEN / path.name).read_bytes())
    if config.stem == "sphere_kriging":
        path = tmp_path / "sphere_kriging_surface.csv"
        _seqtune_in_subprocess("surface", "--bundle", out, "--grid", 11, "--out", path,
                               check=NO_SCIPY)
        assert path.read_bytes() == (GOLDEN / path.name).read_bytes()


@pytest.mark.parametrize("config", [
    ROOT / "configs" / "branin_kriging.cfg",
    ROOT / "configs" / "sann_forest.cfg",
    # a stack config's member check reads names only, and loads no member
    GOLDEN / "branin_stack.cfg",
], ids=lambda path: path.stem)
def test_set_up_loads_no_model_module(config):
    loaded = set(_at_exit(_set_up_probe(config, SEQTUNE_AT_EXIT), "seqtune"))
    assert "seqtune.cli" in loaded
    assert not loaded & MODEL_MODULES


def test_a_kriging_run_loads_no_other_model_module(tmp_path):
    out = tmp_path / "branin_kriging"
    stderr = _tune_in_subprocess(ROOT / "configs" / "branin_kriging.cfg", out,
                                 check=SEQTUNE_AT_EXIT)
    assert set(_at_exit(stderr, "seqtune")) & MODEL_MODULES == {"seqtune.kriging"}
    assert (out / "archive.csv").read_bytes() == (
        GOLDEN / "branin_kriging.csv").read_bytes()


def test_a_stack_run_loads_only_its_members_modules(tmp_path):
    config = tmp_path / "kriging_forest_stack.cfg"
    config.write_text((GOLDEN / "branin_stack.cfg").read_text()
                      + "\n[modelControl]\nmembers = kriging, forest\n")
    stderr = _tune_in_subprocess(config, tmp_path / "out", check=SEQTUNE_AT_EXIT)
    assert set(_at_exit(stderr, "seqtune")) & MODEL_MODULES == {
        "seqtune.stack", "seqtune.kriging", "seqtune.forest"}


def test_an_unknown_model_exits_2_and_loads_no_model_module(tmp_path):
    config = tmp_path / "nope.cfg"
    config.write_text("[run]\nfun = branin\nlower = -5, 0\nupper = 10, 15\n"
                      "[spot]\nmodel = nope\n")
    proc = _python(f"{SEQTUNE_AT_EXIT}\nimport sys\nfrom seqtune.cli import main\n"
                   "sys.exit(main(sys.argv[1:]))",
                   "tune", "--config", config, "--out", tmp_path / "out")
    assert proc.returncode == 2, proc.stderr
    assert "unknown model 'nope' (known: forest, kriging, rsm, stack)" in proc.stderr
    assert not set(_at_exit(proc.stderr, "seqtune")) & MODEL_MODULES


def test_a_stack_fit_does_not_load_the_engine():
    proc = _python("""
import sys
import numpy as np
import seqtune.stack
X = np.random.default_rng(0).uniform(-1.0, 1.0, (12, 2))
fit = seqtune.stack.fit_stack(X, (X ** 2).sum(axis=1), {"seed": 1})
assert fit.member_names == ["kriging", "forest", "rsm"], fit.member_names
assert "seqtune.engine" not in sys.modules, [m for m in sys.modules if m.startswith("seqtune")]
""")
    assert proc.returncode == 0, proc.stderr


def test_the_package_names_are_the_submodules_own_objects():
    names = {}
    exec("from seqtune import *", names)
    assert len(seqtune.__all__) == len(set(seqtune.__all__)) == 42
    assert set(seqtune.__all__) <= set(names)
    for module, exported in seqtune._EXPORTS.items():
        source = importlib.import_module(f"seqtune.{module}")
        for name in exported:
            assert getattr(seqtune, name) is getattr(source, name) is names[name]
    assert seqtune.fit_forest is seqtune.forest.fit_forest
    assert set(seqtune.__all__) <= set(dir(seqtune))
    with pytest.raises(AttributeError, match="has no attribute 'nope'"):
        seqtune.nope


def test_a_name_loads_its_submodule_on_first_use():
    proc = _python("""
import sys
import seqtune
assert not [m for m in sys.modules if m.startswith("seqtune.")], sys.modules
fit = seqtune.fit_forest
loaded = {m for m in sys.modules if m.startswith("seqtune.")}
assert "seqtune.forest" in loaded and not loaded & {
    "seqtune.engine", "seqtune.kriging", "seqtune.rsm", "seqtune.stack"}, loaded
assert "fit_forest" in vars(seqtune) and fit is sys.modules["seqtune.forest"].fit_forest
from seqtune import rsm
assert rsm is sys.modules["seqtune.rsm"] is seqtune.rsm
""")
    assert proc.returncode == 0, proc.stderr
