"""Machine-speed probes for scaling wall times.

On a machine whose cores are shared with other tenants, the speed switches
between a few levels that last seconds each, and the slowest is about 1.5x
the fastest, so the same run can read 20-40% slower from one minute to the
next.  A fixed reference kernel timed every INTERVAL seconds while a run
executes (from a SIGALRM handler, between bytecodes) tracks the speed over
the run itself.  The run's wall time, less the kernel's own time, is then
scaled by TICK_SECONDS / mean(kernel time): seconds at a fixed machine
speed.

The kernel mirrors seqtune's hot loops: recursive regression-tree growth on
tiny numpy arrays, like the forest, and 30x30 Cholesky factorizations, like
the Kriging likelihood.  It lives here, outside the package, so no change
to seqtune moves it.  It draws from its own generator and leaves numpy's
global random state alone.

Set-up times are dominated by a fresh interpreter's imports, which this
kernel does not track.  They are scaled instead by a reference interpreter
that imports a fixed set of standard-library modules (import_seconds).
"""

from __future__ import annotations

import signal
import statistics
import subprocess
import sys
import time

import numpy as np

# nominal kernel time on the 2-vCPU Xeon machine baseline.json was recorded on
TICK_SECONDS = 0.005
INTERVAL = 0.25
# nominal import_seconds() on the same machine
IMPORT_SECONDS = 0.11
REFERENCE_IMPORTS = ("asyncio, email.mime.multipart, http.server, xml.dom.minidom, "
                     "decimal, unittest, json, argparse, logging")

_rng = np.random.default_rng(0)
_X = _rng.random((40, 2))
_Y = _rng.random(40)
_A = _rng.random((30, 30))
_SPD = _A @ _A.T + 30.0 * np.eye(30)


def _grow(x: np.ndarray, y: np.ndarray, depth: int):
    if y.shape[0] < 5 or depth > 6:
        return (float(y.mean()),)
    best = None
    for f in range(x.shape[1]):
        order = np.argsort(x[:, f], kind="stable")
        ys = y[order] - y.mean()
        s1 = np.cumsum(ys)[:-1]
        n_left = np.arange(1, ys.shape[0])
        gain = s1**2 / n_left + s1**2 / (ys.shape[0] - n_left)
        i = int(np.argmax(gain))
        if best is None or gain[i] > best[0]:
            best = (gain[i], f, x[order[i], f])
    mask = x[:, best[1]] <= best[2]
    if mask.all() or not mask.any():
        return (float(y.mean()),)
    return (best[1], best[2], _grow(x[mask], y[mask], depth + 1),
            _grow(x[~mask], y[~mask], depth + 1))


def kernel_seconds() -> float:
    """Wall seconds of one pass of the reference kernel."""
    start = time.perf_counter()
    rng = np.random.default_rng(1)
    for _ in range(3):
        idx = rng.integers(0, _Y.shape[0], _Y.shape[0])
        _grow(_X[idx], _Y[idx], 0)
    for _ in range(40):
        np.exp(-np.linalg.cholesky(_SPD)).sum()
    return time.perf_counter() - start


def timed(fn, edge_ticks: int = 2, probe: bool = True):
    """Call fn() and time it against the machine's speed.

    Returns (fn's result, wall seconds without the probe's own time, the
    factor that scales seconds to the nominal speed).  `edge_ticks` kernel
    passes run right before and after the call.  With `probe` set, one more
    runs every INTERVAL seconds during the call.
    """
    ticks = [kernel_seconds() for _ in range(edge_ticks)]
    during: list[float] = []
    if probe:
        previous = signal.signal(signal.SIGALRM, lambda *_: during.append(kernel_seconds()))
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
    start = time.perf_counter()
    try:
        result = fn()
    finally:
        wall = time.perf_counter() - start
        if probe:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
    ticks += during + [kernel_seconds() for _ in range(edge_ticks)]
    return result, wall - sum(during), TICK_SECONDS / statistics.fmean(ticks)


def import_seconds() -> float:
    """Seconds a fresh isolated interpreter takes to import REFERENCE_IMPORTS."""
    code = ("import time; start = time.perf_counter(); "
            f"import {REFERENCE_IMPORTS}; print(repr(time.perf_counter() - start))")
    proc = subprocess.run([sys.executable, "-I", "-c", code], capture_output=True,
                          text=True, timeout=60, check=True)
    return float(proc.stdout)
