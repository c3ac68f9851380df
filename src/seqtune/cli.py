"""Command-line front end.

Subcommands: design, tune, optimize, continue, rsm-path, surface.  Runs are
driven by an INI-style config whose [spot] keys mirror the engine's config
fields verbatim, with [designControl], [modelControl] and [optimizerControl]
sub-blocks passed through to the corresponding components.  Exit codes:
0 success, 2 unusable config or arguments, 3 infeasible evaluation budget,
4 corrupt bundle.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import sys
from datetime import datetime, timezone
from typing import Optional

import numpy as np

from .bundle import CorruptBundleError, fmt, load_bundle, save_bundle, write_lines
from .design import ParamSpace, query_rows
from .engine import (
    InfeasibleBudgetError,
    SpotConfig,
    fit_surrogate,
    initial_design,
    spot,
    spot_loop,
)
from .objectives import get_objective
from .rsm import descent_path, fit_rsm


class ConfigError(Exception):
    pass


# [spot] holds the engine fields other than the control sections and types
_CONTROL_SECTIONS = ("designControl", "modelControl", "optimizerControl")
_SPOT_KEYS = {f.name for f in dataclasses.fields(SpotConfig)}
_SPOT_KEYS -= {*_CONTROL_SECTIONS, "types"}
_RUN_KEYS = {"fun", "lower", "upper", "types"}


def _parse_floats(text: str, what: str) -> list[float]:
    try:
        return [float(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError:
        raise ConfigError(f"cannot parse {what}: {text!r}") from None


def _coerce(text: str):
    s = text.strip()
    low = s.lower()
    if low in ("true", "yes", "on"):
        return True
    if low in ("false", "no", "off"):
        return False
    if low in ("none", "na", ""):
        return None
    try:
        return int(s)
    except ValueError:
        pass
    try:
        return float(s)
    except ValueError:
        pass
    if "," in s:
        return [_coerce(tok) for tok in s.split(",")]
    return s


def _read_ini(path: str) -> configparser.ConfigParser:
    cp = configparser.ConfigParser()
    cp.optionxform = str  # keep key case, the field names are case-sensitive
    try:
        with open(path) as fh:
            cp.read_file(fh)
    except OSError as err:
        raise ConfigError(f"cannot read config {path}: {err}") from None
    except configparser.Error as err:
        raise ConfigError(f"malformed config {path}: {err}") from None
    return cp


def _control_dict(cp: configparser.ConfigParser, section: str) -> dict:
    if not cp.has_section(section):
        return {}
    return {key: _coerce(val) for key, val in cp.items(section)}


def _run_section(cp: configparser.ConfigParser) -> dict:
    if not cp.has_section("run"):
        raise ConfigError("config needs a [run] section with fun, lower and upper")
    run = dict(cp.items("run"))
    unknown = set(run) - _RUN_KEYS
    if unknown:
        raise ConfigError(f"unknown [run] keys: {', '.join(sorted(unknown))}")
    for key in ("fun", "lower", "upper"):
        if key not in run:
            raise ConfigError(f"[run] is missing {key!r}")
    out = {
        "fun": run["fun"].strip(),
        "lower": _parse_floats(run["lower"], "[run] lower"),
        "upper": _parse_floats(run["upper"], "[run] upper"),
        "types": [],
    }
    if "types" in run:
        out["types"] = [tok.strip() for tok in run["types"].split(",") if tok.strip()]
    return out


def _spot_config(cp: configparser.ConfigParser, run: dict) -> dict:
    fields: dict = {"types": tuple(run["types"])}
    if cp.has_section("spot"):
        items = dict(cp.items("spot"))
        unknown = set(items) - _SPOT_KEYS
        if unknown:
            raise ConfigError(f"unknown [spot] keys: {', '.join(sorted(unknown))}")
        for key, val in items.items():
            fields[key] = _coerce(val)
    for section in _CONTROL_SECTIONS:
        fields[section] = _control_dict(cp, section)
    return fields


def _build_spot_config(fields: dict) -> SpotConfig:
    try:
        return SpotConfig(**fields)
    except (TypeError, ValueError) as err:
        raise ConfigError(f"bad run settings: {err}") from None


def _now() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def _meta_from_config(fields: dict, run: dict) -> dict:
    cfg_json = dict(fields)
    cfg_json["types"] = list(cfg_json.get("types", ()))
    return {
        "config": cfg_json,
        "fun": run["fun"],
        "lower": run["lower"],
        "upper": run["upper"],
    }


def _read_bundle_run(meta: dict, **overrides) -> tuple[dict, SpotConfig, dict]:
    """Config fields, engine config and [run] values stored in bundle metadata."""
    try:
        config = meta["config"]
        run = {key: meta[key] for key in ("fun", "lower", "upper")}
    except KeyError as err:
        raise CorruptBundleError(f"metadata is missing {err}") from None
    if not isinstance(config, dict) or not isinstance(config.get("types", []), list):
        raise CorruptBundleError("metadata config is not an object with a types list")
    fields = dict(config, **overrides)
    fields["types"] = tuple(fields.get("types", ()))
    return fields, _build_spot_config(fields), run


def _save_run(path: str, result, meta: dict) -> None:
    meta.update(
        {
            "xbest": [float(v) for v in result.xbest],
            "ybest": result.ybest,
            "msg": result.msg,
            "finished": _now(),
        }
    )
    save_bundle(path, result.x, result.y, result.seeds, result.replicates, meta)


def _write_table(path: Optional[str], names: list[str], rows: np.ndarray) -> None:
    """CSV of float rows under a header of `names`, to `path` or stdout."""
    lines = [",".join(names)] + [",".join(fmt(v) for v in row) for row in rows]
    if path is None:
        sys.stdout.write("\n".join(lines) + "\n")
    else:
        write_lines(path, lines)


def _read_config(args) -> tuple[dict, dict]:
    """The [run] values and engine fields of --config, --seed as seedSPOT."""
    cp = _read_ini(args.config)
    run = _run_section(cp)
    fields = _spot_config(cp, run)
    if args.seed is not None:
        fields["seedSPOT"] = args.seed
    return run, fields


def cmd_design(args) -> int:
    run, fields = _read_config(args)
    mat = initial_design(None, run["lower"], run["upper"], _build_spot_config(fields))
    _write_table(args.out, [f"x{i + 1}" for i in range(mat.shape[1])], mat)
    return 0


def _run_spot(args, force_deterministic: bool) -> int:
    run, fields = _read_config(args)
    if force_deterministic:
        fields["noise"] = False
        fields.setdefault("optimizer", "local")
    cfg = _build_spot_config(fields)
    fun = get_objective(run["fun"])
    meta = _meta_from_config(fields, run)
    meta["created"] = _now()
    result = spot(None, fun, run["lower"], run["upper"], cfg)
    _save_run(args.out, result, meta)
    print(f"xbest: {result.xbest.tolist()}")
    print(f"ybest: {result.ybest}")
    print(f"count: {result.count}")
    print(f"msg: {result.msg}")
    print(f"bundle: {args.out}")
    return 0


def cmd_tune(args) -> int:
    return _run_spot(args, force_deterministic=False)


def cmd_optimize(args) -> int:
    return _run_spot(args, force_deterministic=True)


def cmd_continue(args) -> int:
    data = load_bundle(args.bundle)
    fields, cfg, run = _read_bundle_run(data["meta"], funEvals=args.funEvals)
    fun = get_objective(run["fun"])
    result = spot_loop(
        data["x"], data["y"], fun, run["lower"], run["upper"], cfg, data["seeds"]
    )
    meta = dict(data["meta"], **_meta_from_config(fields, run))
    _save_run(args.out or args.bundle, result, meta)
    print(f"rows: {result.count} (kept {len(data['seeds'])})")
    print(f"ybest: {result.ybest}")
    return 0


def cmd_rsm_path(args) -> int:
    data = load_bundle(args.bundle)
    finite = np.isfinite(data["y"][:, 0])
    fit = fit_rsm(data["x"][finite], data["y"][finite])
    path = descent_path(fit)
    names = [f"x{i + 1}" for i in range(path.x.shape[1])] + ["y"]
    _write_table(args.out, names, np.column_stack([path.x, path.y]))
    return 0


def _surface_eval(args):
    if args.bundle:
        data = load_bundle(args.bundle)
        _, cfg, run = _read_bundle_run(data["meta"])
        space = ParamSpace(run["lower"], run["upper"], cfg.types)
        fit = fit_surrogate(data["x"], data["y"], cfg, cfg.seedSPOT)
        return (lambda pts: np.asarray(fit.predict(pts)).reshape(-1)), space, None
    cp = _read_ini(args.config)
    run = _run_section(cp)
    space = ParamSpace(run["lower"], run["upper"], run["types"])
    fun = get_objective(run["fun"])
    at = None
    if cp.has_section("surface") and cp.has_option("surface", "at"):
        at = _parse_floats(cp.get("surface", "at"), "[surface] at")
    return (lambda pts: np.asarray(fun(pts)).reshape(-1)), space, at


def cmd_surface(args) -> int:
    if bool(args.bundle) == bool(args.config):
        raise ConfigError("surface needs exactly one of --bundle or --config")
    evaluate, space, at = _surface_eval(args)
    lower, upper, d = space.lower, space.upper, space.dim
    try:
        di, dj = (int(tok) for tok in args.dims.split(","))
    except ValueError:
        raise ConfigError(f"cannot parse --dims {args.dims!r}") from None
    if not (1 <= di <= d and 1 <= dj <= d) or di == dj:
        raise ConfigError(f"--dims must name two distinct axes in 1..{d}")
    if args.grid < 2:
        raise ConfigError("--grid must be at least 2")
    base = (lower + upper) / 2.0
    if at is not None:
        base = query_rows(at, d, "[surface] at")[0]
    gi = np.linspace(lower[di - 1], upper[di - 1], args.grid)
    gj = np.linspace(lower[dj - 1], upper[dj - 1], args.grid)
    pts = np.tile(base, (args.grid * args.grid, 1))
    pts[:, di - 1] = np.repeat(gi, args.grid)
    pts[:, dj - 1] = np.tile(gj, args.grid)
    cols = [pts[:, di - 1], pts[:, dj - 1], evaluate(pts)]
    _write_table(args.out, [f"x{di}", f"x{dj}", "y"], np.column_stack(cols))
    return 0


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="seqtune",
        description="Sequential surrogate-model-based optimization and tuning",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("design", help="emit a space-filling design as CSV")
    p.add_argument("--config", required=True)
    p.add_argument("--out")
    p.add_argument("--seed", type=int)
    p.set_defaults(handler=cmd_design)

    for name, handler, blurb in (
        ("tune", cmd_tune, "tune a noisy objective with the full loop"),
        ("optimize", cmd_optimize, "optimize a deterministic objective"),
    ):
        p = sub.add_parser(name, help=blurb)
        p.add_argument("--config", required=True)
        p.add_argument("--out", required=True)
        p.add_argument("--seed", type=int)
        p.set_defaults(handler=handler)

    p = sub.add_parser("continue", help="resume a bundle to a larger budget")
    p.add_argument("--bundle", required=True)
    p.add_argument("--funEvals", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(handler=cmd_continue)

    p = sub.add_parser("rsm-path", help="steepest-descent path from a bundle")
    p.add_argument("--bundle", required=True)
    p.add_argument("--out")
    p.set_defaults(handler=cmd_rsm_path)

    p = sub.add_parser("surface", help="grid-evaluate a model or objective")
    p.add_argument("--bundle")
    p.add_argument("--config")
    p.add_argument("--out")
    p.add_argument("--grid", type=int, default=20)
    p.add_argument("--dims", default="1,2")
    p.set_defaults(handler=cmd_surface)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.handler(args)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except InfeasibleBudgetError as err:
        print(f"budget error: {err}", file=sys.stderr)
        return 3
    except CorruptBundleError as err:
        print(f"bundle error: {err}", file=sys.stderr)
        return 4
    except ValueError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
