"""scipy stays off the import path.

seqtune imports each scipy routine it calls (dpotrs, minimize, qr, brentq,
nnls) inside the function that calls it, so start-up loads numpy and no
scipy, and a forest run with LHD search never loads scipy at all.  The
checks run in fresh interpreters: this pytest process has imported scipy
already, through the reference computations of other test modules.

The archives must not depend on when scipy is first imported either.  The
rsm-path run below is the first thing in its interpreter to load scipy, part
way through, and the Kriging and stack runs of
test_run_does_not_depend_on_the_blas_thread_count in test_golden.py import
dpotrs, minimize, qr and nnls part way through theirs.
"""

import os
import subprocess
import sys

from test_golden import (
    GOLDEN, ROOT, _assert_rsm_path_matches, _run, _seqtune_in_subprocess,
    _tune_in_subprocess,
)

# prints the scipy modules loaded when the interpreter exits, as one line
# of standard error that _scipy_at_exit reads back
SCIPY_AT_EXIT = """
import atexit, sys
atexit.register(lambda: print("scipy at exit:", *sorted(
    m for m in sys.modules if m == "scipy" or m.startswith("scipy.")), file=sys.stderr))
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


def test_rsm_path_that_first_loads_scipy_matches_the_golden_file(tmp_path):
    bundle, path = tmp_path / "sann_forest", tmp_path / "rsm_path.csv"
    _run("tune", "--config", ROOT / "configs" / "sann_forest.cfg", "--out", bundle)
    stderr = _seqtune_in_subprocess("rsm-path", "--bundle", bundle, "--out", path,
                                    check=SCIPY_AT_EXIT)
    # qr for the fit and brentq for the ridge steps were imported during the run
    assert {"scipy.linalg", "scipy.optimize"} <= set(_scipy_at_exit(stderr))
    _assert_rsm_path_matches(path.read_bytes(),
                             (GOLDEN / "sann_forest_rsm_path.csv").read_bytes())
