"""Run bundles: an archive CSV plus a metadata sidecar in one directory.

The archive holds one evaluation per line with header x1,...,xd,y,seed,
replicate, decimal points, LF line endings and full round-trip precision,
so a reloaded archive is bit-identical to the arrays that produced it.
`archive_lines` is the only renderer: re-rendering a loaded archive gives
back the bytes of every archive it wrote, which is how a continued run
keeps its prefix.  Metadata (resolved config, bounds, objective name, best
point, message, timestamps) lives in meta.json next to it.
"""

from __future__ import annotations

import json
import os

import numpy as np

ARCHIVE_NAME = "archive.csv"
META_NAME = "meta.json"


class CorruptBundleError(Exception):
    """The bundle directory is missing pieces or inconsistent."""


def fmt(v: float) -> str:
    return repr(float(v))


def archive_lines(
    x: np.ndarray,
    y: np.ndarray,
    seeds: list,
    replicates: np.ndarray,
) -> list[str]:
    """Render archive rows, header first, one string per line; ValueError
    unless there is one y, seed and replicate per row of x."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    y = np.asarray(y, dtype=float).reshape(-1)
    if not x.shape[0] == y.size == len(seeds) == len(replicates):
        raise ValueError("need one y, seed and replicate per row of x")
    d = x.shape[1]
    header = ",".join([f"x{i + 1}" for i in range(d)] + ["y", "seed", "replicate"])
    lines = [header]
    for row, val, seed, rep in zip(x, y, seeds, replicates):
        seed_cell = "" if seed is None else str(int(seed))
        lines.append(",".join([*map(fmt, row), fmt(val), seed_cell, str(int(rep))]))
    return lines


def write_lines(path: str, lines: list[str]) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def save_bundle(
    path: str,
    x: np.ndarray,
    y: np.ndarray,
    seeds: list,
    replicates: np.ndarray,
    meta: dict,
) -> None:
    """Write archive.csv and meta.json under `path` (created if needed)."""
    os.makedirs(path, exist_ok=True)
    write_lines(
        os.path.join(path, ARCHIVE_NAME), archive_lines(x, y, seeds, replicates)
    )
    meta = dict(meta)
    meta["count"] = int(np.asarray(y).reshape(-1).shape[0])
    with open(os.path.join(path, META_NAME), "w", newline="\n") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_bundle(path: str) -> dict:
    """Read a bundle back; raises CorruptBundleError on any inconsistency.

    Returns a dict with keys meta, x, y, seeds and replicates.  Saving
    these values again writes the same archive bytes for any archive
    `save_bundle` wrote; a hand-edited line comes back in canonical form.
    """
    archive_path = os.path.join(path, ARCHIVE_NAME)
    meta_path = os.path.join(path, META_NAME)
    if not os.path.isdir(path):
        raise CorruptBundleError(f"no bundle directory at {path}")
    if not os.path.isfile(archive_path) or not os.path.isfile(meta_path):
        raise CorruptBundleError(f"bundle at {path} is missing its files")
    try:
        with open(meta_path) as fh:
            meta = json.load(fh)
    except (OSError, json.JSONDecodeError) as err:
        raise CorruptBundleError(f"unreadable metadata: {err}") from None
    if not isinstance(meta, dict):
        raise CorruptBundleError("metadata is not a JSON object")
    try:
        with open(archive_path, newline="") as fh:
            raw = fh.read()
    except OSError as err:
        raise CorruptBundleError(f"unreadable archive: {err}") from None
    lines = raw.split("\n")
    if lines and lines[-1] == "":
        lines = lines[:-1]
    if not lines:
        raise CorruptBundleError("archive is empty")
    header = lines[0].split(",")
    if len(header) < 4 or header[-3:] != ["y", "seed", "replicate"]:
        raise CorruptBundleError(f"unexpected archive header: {lines[0]!r}")
    d = len(header) - 3
    if header[:d] != [f"x{i + 1}" for i in range(d)]:
        raise CorruptBundleError(f"unexpected archive header: {lines[0]!r}")
    xs, ys, seeds, reps = [], [], [], []
    for ln in lines[1:]:
        cells = ln.split(",")
        if len(cells) != d + 3:
            raise CorruptBundleError(f"malformed archive row: {ln!r}")
        try:
            xs.append([float(c) for c in cells[:d]])
            ys.append(float(cells[d]))
            seeds.append(None if cells[d + 1] == "" else int(cells[d + 1]))
            reps.append(int(cells[d + 2]))
        except ValueError:
            raise CorruptBundleError(f"malformed archive row: {ln!r}") from None
        if not np.isfinite(xs[-1]).all():  # y may be inf, a failed evaluation
            raise CorruptBundleError(f"non-finite input in archive row: {ln!r}")
    if "count" in meta and meta["count"] != len(ys):
        raise CorruptBundleError(
            f"metadata says {meta['count']} rows, archive has {len(ys)}"
        )
    return {
        "meta": meta,
        "x": np.asarray(xs, dtype=float).reshape(len(ys), d),
        "y": np.asarray(ys, dtype=float).reshape(-1, 1),
        "seeds": seeds,
        "replicates": np.asarray(reps, dtype=int),
    }
