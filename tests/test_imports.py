"""seqtune runs without scipy.

seqtune's runtime needs numpy alone: the triangular solves, the local
search, the ridge step's root and the stack's NNLS are its own code.  The
checks run in fresh interpreters: this pytest process has imported scipy
already, through the oracle computations of other test modules.  The first
two checks report the scipy modules loaded when the interpreter exits; the
others block every scipy import and run each CLI command that the golden
files pin.
"""

import os
import subprocess
import sys

import pytest

from test_golden import (
    GOLDEN, ROOT, SHIPPED, _seqtune_in_subprocess, _tune_in_subprocess, rsm_path_matches,
)

# prints the scipy modules loaded when the interpreter exits, as one line
# of standard error that _scipy_at_exit reads back
SCIPY_AT_EXIT = """
import atexit, sys
atexit.register(lambda: print("scipy at exit:", *sorted(
    m for m in sys.modules if m == "scipy" or m.startswith("scipy.")), file=sys.stderr))
"""

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


def _scipy_at_exit(stderr: str) -> list[str]:
    lines = [ln for ln in stderr.splitlines() if ln.startswith("scipy at exit:")]
    assert len(lines) == 1, stderr
    return lines[0].split()[3:]


def test_set_up_loads_no_scipy():
    """What perfbench/setup_probe.py times: importing seqtune and seqtune.cli,
    reading the run config, building the SpotConfig, resolving the objective."""
    probe = ROOT / "perfbench" / "setup_probe.py"
    config = ROOT / "configs" / "sann_forest.cfg"
    code = f"""{SCIPY_AT_EXIT}
import runpy, sys
sys.argv = [{str(probe)!r}, {str(ROOT)!r}, {str(config)!r}]
runpy.run_path(sys.argv[0], run_name="__main__")
"""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
                          cwd=ROOT, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert _scipy_at_exit(proc.stderr) == []


def test_forest_lhd_ocba_run_loads_no_scipy(tmp_path):
    out = tmp_path / "sann_ocba"
    stderr = _tune_in_subprocess(GOLDEN / "sann_ocba.cfg", out, check=SCIPY_AT_EXIT)
    assert _scipy_at_exit(stderr) == []
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
