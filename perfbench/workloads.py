"""The benchmark's workloads: shipped run configs plus seed overrides.

Each workload starts from a config under ``configs/`` and overrides some
``[spot]`` keys.  The workload seed, taken modulo SEED_RANGE so that any
integer is accepted, shifts ``seedSPOT`` (and ``seedFun`` for the noisy
workload); seed 0 keeps the shipped values.
"""

from __future__ import annotations

import configparser
import os
from dataclasses import dataclass, field

BRANIN_MIN = 0.397887357729738

# Fresh annealer runs that score a tuned SANN setting draw their seeds from
# here, far above any seed a run hands out (seedFun + offset * SEED_FUN_STRIDE
# + funEvals stays below it for every offset below SEED_RANGE).
SANN_SCORE_SEED = 2**40
SANN_SCORE_RUNS = 64
SEED_FUN_STRIDE = 1000
SEED_RANGE = 10**6


@dataclass(frozen=True)
class Workload:
    name: str
    config: str  # path relative to the checkout root
    overrides: dict = field(default_factory=dict)  # [spot] key -> value


WORKLOADS = {
    w.name: w
    for w in (
        Workload("branin-kriging", "configs/branin_kriging.cfg"),
        Workload("sann-forest", "configs/sann_forest.cfg"),
        Workload(
            "branin-stack",
            "configs/branin_kriging.cfg",
            {"model": "stack", "funEvals": 20},
        ),
    )
}


def _parser() -> configparser.ConfigParser:
    cp = configparser.ConfigParser()
    cp.optionxform = str  # the engine's field names are case-sensitive
    return cp


def read_config(root: str, workload: Workload, seed: int) -> configparser.ConfigParser:
    """The workload's run config with its overrides and seeds applied."""
    cp = _parser()
    with open(os.path.join(root, workload.config)) as fh:
        cp.read_file(fh)
    offset = seed % SEED_RANGE
    spot = cp["spot"]
    for key, val in workload.overrides.items():
        spot[key] = str(val)
    spot["seedSPOT"] = str(int(spot.get("seedSPOT", "1")) + offset)
    if spot.get("noise", "false").strip().lower() == "true" and "seedFun" in spot:
        spot["seedFun"] = str(int(spot["seedFun"]) + offset * SEED_FUN_STRIDE)
    return cp


def warmup_config(cp: configparser.ConfigParser) -> configparser.ConfigParser:
    """The run cut to its initial design plus one iteration.

    Running it first loads every code path the timed runs take (lazy
    imports, caches) at a fraction of a full run's cost.  The sizes mirror
    the engine's design defaults (10 rows, 1 replicate).
    """
    warm = _parser()
    warm.read_dict(cp)
    design = cp["designControl"] if cp.has_section("designControl") else {}
    rows = int(design.get("size", "10")) * int(design.get("replicates", "1"))
    spot = warm["spot"]
    budget = rows + int(spot.get("replicates", "1"))
    spot["funEvals"] = str(min(int(spot["funEvals"]), budget))
    return warm


def write_config(cp: configparser.ConfigParser, path: str) -> None:
    with open(path, "w") as fh:
        cp.write(fh)


@dataclass
class RunSpec:
    """What the traced run and the output checks need to know about a run."""

    fun: str
    lower: list
    upper: list
    types: tuple
    fields: dict  # keyword arguments for seqtune.SpotConfig


def run_spec(cli, path: str) -> RunSpec:
    """Read a run config with seqtune.cli's own parser, as `tune` does."""
    cp = cli._read_ini(path)
    run = cli._run_section(cp)
    fields = cli._spot_config(cp, run)
    return RunSpec(
        fun=run["fun"],
        lower=run["lower"],
        upper=run["upper"],
        types=fields["types"],
        fields=fields,
    )
