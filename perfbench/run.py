"""seqtune benchmark: complete tuning runs on three workloads.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload branin-kriging --seed 0 --seconds 20 --trace 0

With ``--trace 0`` each run goes through ``seqtune.cli.main(["tune", ...])``
and the end-to-end metrics are reported: run_s (median wall seconds of one
run), setup_s (median set-up time of fresh interpreters) and peak_rss_mb
(peak memory of this process after a warm-up and one full run).  With
``--trace 1``, traced runs through the public Python API take turns with
plain and probed ``tune`` runs, and the per-layer metrics are reported.
Every run's bundle is checked; the last line of standard output is one JSON
object with the result.  Work files go to .perfbench_work/ in the checkout.
See NOTES.md.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

import numpy as np

import calibrate
import checks
import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_PROBES = 8  # fresh interpreters timed per run


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _import_seqtune():
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "seqtune", "__init__.py")):
        raise BenchError(f"no seqtune sources under {src}")
    sys.path.insert(0, src)
    import seqtune
    import seqtune.cli

    if not os.path.abspath(seqtune.__file__).startswith(src + os.sep):
        raise BenchError(f"imported seqtune from {seqtune.__file__}, not {src}")
    return seqtune, seqtune.cli


def _environment() -> dict:
    import ctypes
    import glob

    import scipy

    blas = {}
    for pkg in (np, scipy):
        libdir = os.path.join(os.path.dirname(pkg.__file__), os.pardir, pkg.__name__ + ".libs")
        for lib in sorted(glob.glob(os.path.join(libdir, "*openblas*"))):
            handle = ctypes.CDLL(lib)
            for sym in ("scipy_openblas_get_num_threads64_",
                        "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
                if hasattr(handle, sym):
                    getter = getattr(handle, sym)
                    getter.restype = ctypes.c_int
                    blas[f"{pkg.__name__}:{os.path.basename(lib)}"] = getter()
                    break
    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_threads": blas,
    }


def _setup_seconds(config_path: str) -> list[float]:
    """Scaled set-up time of SETUP_PROBES fresh interpreters.

    Each probe times itself.  It is scaled by the mean of the reference
    imports timed right before and right after it.  seqtune must already
    have been imported once, so its .pyc files exist and are not counted.
    """
    cmd = [sys.executable, os.path.join(HERE, "setup_probe.py"), ROOT, config_path]
    refs = [calibrate.import_seconds()]
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise BenchError(f"set-up probe failed:\n{proc.stderr}")
        refs.append(calibrate.import_seconds())
        scale = calibrate.IMPORT_SECONDS / statistics.fmean(refs[-2:])
        times.append(float(proc.stdout.strip().splitlines()[-1]) * scale)
    return times


class Runs:
    """Counts attempted and failed runs and holds the workload's archive digest."""

    def __init__(self, seqtune, spec):
        self.seqtune = seqtune
        self.spec = spec
        self.attempted = 0
        self.failed = 0
        self.sha = None

    def verdict(self, label: str, out_dir: str, problems: list[str]) -> bool:
        """Check a finished run's bundle; record and report a failure."""
        self.attempted += 1
        if not problems:
            problems = checks.check_bundle(self.seqtune, out_dir, self.spec)
            sha = checks.sha256(os.path.join(out_dir, "archive.csv"))
            if self.sha is None:
                self.sha = sha
            elif sha != self.sha:
                problems.append(f"archive sha256 {sha[:12]} differs from {self.sha[:12]}")
        if problems:
            self.failed += 1
            print(f"FAILED {label}: " + "; ".join(problems), file=sys.stderr)
        return not problems

    def cli_run(self, cli, config_path: str, out_dir: str, probe: bool):
        """One untraced `seqtune tune` run, with the speed probe or without.

        Returns its wall seconds (less the probe's own time) and its seconds
        scaled to the nominal machine speed, or None if it failed.
        """
        shutil.rmtree(out_dir, ignore_errors=True)
        gc.collect()
        problems = []

        def tune():
            with contextlib.redirect_stdout(io.StringIO()):
                return cli.main(["tune", "--config", config_path, "--out", out_dir])

        try:
            code, wall, factor = calibrate.timed(tune, probe=probe)
            if code != 0:
                problems.append(f"seqtune tune exited with {code}")
        except Exception:
            problems.append("seqtune tune raised:\n" + traceback.format_exc())
        return (wall, wall * factor) if self.verdict("tune", out_dir, problems) else None

    def traced_run(self, out_dir: str):
        """One traced run; its per-layer metrics, or None if it failed."""
        shutil.rmtree(out_dir, ignore_errors=True)
        gc.collect()
        problems = []
        try:
            tracer, result, data = tracing.traced_run(self.seqtune, self.spec, out_dir)
            if not checks.same_arrays(result, data):
                problems.append("load_bundle does not return the run's arrays bit for bit")
        except Exception:
            problems.append("traced run raised:\n" + traceback.format_exc())
        if not self.verdict("traced run", out_dir, problems):
            return None
        tracer.write(os.path.join(out_dir, "spans.jsonl"))
        return tracing.layer_metrics(tracer, out_dir)


def _regret(seqtune, spec, out_dir: str) -> float:
    """Result quality of the run's best point; 0 is the objective's optimum.

    Branin: ybest minus the global minimum.  SANN: mean of fresh annealer
    runs at xbest, seeded outside every seed the run used.
    """
    data = seqtune.load_bundle(out_dir)
    best = int(np.argmin(data["y"][:, 0]))
    if spec.fun == "branin":
        return float(data["y"][best, 0]) - workloads.BRANIN_MIN
    if spec.fun == "sannSphere":
        rows = np.repeat(data["x"][best : best + 1], workloads.SANN_SCORE_RUNS, axis=0)
        fun = seqtune.get_objective("sannSphere")
        return float(np.mean(fun(rows, seed=workloads.SANN_SCORE_SEED)))
    raise BenchError(f"no regret defined for objective {spec.fun!r}")


def _tail(samples: list[float]) -> str:
    """Highest percentile with at least ten samples beyond it, if there is one."""
    n = len(samples)
    if n <= 10:
        return f"no percentile has ten samples beyond it (n={n})"
    k = n - 10
    return f"p{100 * k // n} = {sorted(samples)[k - 1]:.4f} s (10 of n={n} beyond)"


def _load_json(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def run(args) -> dict:
    workload = workloads.WORKLOADS[args.workload]
    for rel in (workload.config, "src"):
        if not os.path.exists(os.path.join(ROOT, rel)):
            raise BenchError(f"{rel} is missing from {ROOT}")
    work = os.path.join(ROOT, ".perfbench_work", workload.name)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    cp = workloads.read_config(ROOT, workload, args.seed)
    config_path = os.path.join(work, "run.cfg")
    workloads.write_config(cp, config_path)
    warmup_path = os.path.join(work, "warmup.cfg")
    workloads.write_config(workloads.warmup_config(cp), warmup_path)
    seqtune, cli = _import_seqtune()
    spec = workloads.run_spec(cli, config_path)
    setup = [] if args.trace else _setup_seconds(config_path)
    env = _environment()
    runs = Runs(seqtune, spec)
    out_dir = os.path.join(work, "bundle")

    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["tune", "--config", warmup_path, "--out", out_dir])
    if code != 0:
        raise BenchError(f"the warm-up run exited with {code}")

    # trace 0 measures probed `tune` runs.  trace 1 cycles through a traced
    # run, a plain `tune` run and a probed one, at least one cycle, so the
    # cost of tracing and of the speed probe are each read against the
    # plain run of the same cycle.
    cycle = ("traced", "plain", "probed") if args.trace else ("probed",)
    samples = {kind: [] for kind in cycle}  # None marks a failed run
    peak_rss_mb = None
    traced_dir = os.path.join(work, "traced")
    start, n = time.perf_counter(), 0
    while time.perf_counter() - start < args.seconds or n < len(cycle):
        kind = cycle[n % len(cycle)]
        if kind == "traced":
            samples[kind].append(runs.traced_run(traced_dir))
        else:
            samples[kind].append(runs.cli_run(cli, config_path, out_dir, kind == "probed"))
            if peak_rss_mb is None:
                # peak memory of this process over the warm-up and one full run
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        n += 1
    print(f"workload {workload.name} seed {args.seed} trace {args.trace}")
    print("environment " + json.dumps(env, sort_keys=True))
    print(f"failed_frac {runs.failed / runs.attempted:.4f} "
          f"({runs.failed} of {runs.attempted} runs)")
    if runs.failed:
        return {"correct": False, "attempted": runs.attempted, "failed": runs.failed,
                "metrics": {}}

    regret = _regret(seqtune, spec, out_dir)
    data = seqtune.load_bundle(out_dir)
    xbest = [float(v) for v in data["meta"]["xbest"]]
    ybest = float(data["meta"]["ybest"])

    baseline_path = os.path.join(HERE, "baseline.json")
    baseline = {}
    if os.path.isfile(baseline_path):
        baseline = _load_json(baseline_path)["workloads"].get(workload.name, {})
    if args.seed == 0 and "archive_sha256" in baseline:
        drift = "same as" if baseline["archive_sha256"] == runs.sha else "DIFFERS from"
        digest_note = f"{drift} the recorded baseline"
    else:
        digest_note = "no baseline recorded for this seed"

    print(f"archive.csv sha256 {runs.sha} ({digest_note})")
    print(f"xbest {xbest} ybest {ybest!r} regret {regret!r}")

    if args.trace:
        layers = samples["traced"]
        plain = [wall for wall, _ in samples["plain"]]
        probed = [wall for wall, _ in samples["probed"]]
        metrics = {k: statistics.median(m[k] for m in layers) for k in layers[0]}
        metrics["trace.untraced_run_s"] = statistics.median(plain)
        metrics["trace.overhead_s"] = statistics.median(
            m["trace.run_s"] - wall for m, wall in zip(layers, plain))
        metrics["trace.probe_overhead_s"] = statistics.median(
            p - wall for p, wall in zip(probed, plain))
        metrics["result.regret"] = regret
        print(f"cycles {len(probed)}: tracing overhead {metrics['trace.overhead_s']:.4f} s, "
              f"speed-probe overhead {metrics['trace.probe_overhead_s']:.4f} s "
              f"(medians of per-cycle differences to the plain run)")
        for key in sorted(metrics):
            print(f"  {key} = {metrics[key]!r}")
        section = "per_layer"
    else:
        run_wall = [wall for wall, _ in samples["probed"]]
        run_s = [scaled for _, scaled in samples["probed"]]
        metrics = {
            "run_s": statistics.median(run_s),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": peak_rss_mb,
        }
        print(f"run_s median {metrics['run_s']:.4f} s over n={len(run_s)}; {_tail(run_s)}; "
              f"unscaled wall median {statistics.median(run_wall):.4f} s")
        print(f"setup_s median {metrics['setup_s']:.4f} s over n={len(setup)} "
              f"fresh interpreters")
        print(f"peak_rss_mb {peak_rss_mb:.1f} MB over the warm-up and one full run")
        section = "end_to_end"
    declared = _load_json(os.path.join(ROOT, "BENCHMARK.json"))[section]
    return {
        "correct": True,
        "attempted": runs.attempted,
        "failed": 0,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }


def main(argv=None) -> int:
    args = _parse_args(argv)
    try:
        result = run(args)
    except BenchError as err:
        print(f"benchmark error: {err}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
