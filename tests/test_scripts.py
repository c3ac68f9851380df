"""The example scripts run to completion on small budgets.

Each script runs in a fresh interpreter with the package source on its path,
so a public name the scripts import cannot disappear unnoticed.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "args, first_line",
    [
        (["tune_sann.py", "--budget", "14", "--replays", "2"], "evaluations used : 14"),
        (["compare_surrogates.py", "--train", "10", "--test", "20"], "train 10  test 20"),
        (["rsm_path_demo.py"], "stationary point : "),
    ],
)
def test_script_runs_and_reports(args, first_line):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / args[0]), *args[1:]],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0].startswith(first_line)
