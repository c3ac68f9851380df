"""Output checks applied to every run the benchmark makes."""

from __future__ import annotations

import hashlib
import os

import numpy as np


def sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _parse_archive(text: str):
    """Independent reading of archive.csv: x, y, seeds and replicates."""
    lines = text.split("\n")
    if lines[-1] == "":
        lines = lines[:-1]
    rows = [ln.split(",") for ln in lines[1:]]
    d = len(lines[0].split(",")) - 3
    x = np.array([[float(c) for c in r[:d]] for r in rows], dtype=float).reshape(-1, d)
    y = np.array([float(r[d]) for r in rows], dtype=float).reshape(-1, 1)
    seeds = [None if r[d + 1] == "" else int(r[d + 1]) for r in rows]
    reps = np.array([int(r[d + 2]) for r in rows], dtype=int)
    return x, y, seeds, reps


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def check_bundle(seqtune, out_dir: str, spec) -> list[str]:
    """Problems found in the bundle at `out_dir`; an empty list means it passed.

    Checks the row count against funEvals, the bounds, whole numbers in
    integer columns, replicate indices against repeated rows, and that
    load_bundle returns exactly the values written (bit for bit, and
    re-rendering them reproduces the archive's bytes).
    """
    path = os.path.join(out_dir, "archive.csv")
    with open(path, newline="") as fh:
        text = fh.read()
    x, y, seeds, reps = _parse_archive(text)
    problems = []
    fun_evals = int(spec.fields["funEvals"])
    if x.shape[0] != fun_evals:
        problems.append(f"archive has {x.shape[0]} rows, funEvals is {fun_evals}")
    lower, upper = np.asarray(spec.lower), np.asarray(spec.upper)
    if np.any(x < lower) or np.any(x > upper):
        problems.append("a row lies outside the bounds")
    for j, kind in enumerate(spec.types):
        if kind == "integer" and np.any(x[:, j] != np.round(x[:, j])):
            problems.append(f"integer column x{j + 1} holds a fraction")
    expected = [1 + int(np.sum(np.all(x[:i] == x[i], axis=1))) for i in range(x.shape[0])]
    if reps.tolist() != expected:
        problems.append("replicate indices disagree with repeated rows")

    data = seqtune.load_bundle(out_dir)
    if not (
        _same_bits(data["x"], x)
        and _same_bits(data["y"], y)
        and _same_bits(data["replicates"], reps)
        and list(data["seeds"]) == seeds
    ):
        problems.append("load_bundle disagrees with the archive's text")
    rendered = seqtune.archive_lines(data["x"], data["y"], data["seeds"], data["replicates"])
    if "\n".join(rendered) + "\n" != text:
        problems.append("re-rendering the loaded arrays changes the archive bytes")
    return problems


def same_arrays(result, data) -> bool:
    """A SpotResult and a loaded bundle hold bit-identical arrays."""
    return (
        _same_bits(np.asarray(result.x, dtype=float), data["x"])
        and _same_bits(np.asarray(result.y, dtype=float).reshape(-1, 1), data["y"])
        and _same_bits(np.asarray(result.replicates, dtype=int), data["replicates"])
        and list(result.seeds) == list(data["seeds"])
    )
