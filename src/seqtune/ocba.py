"""Optimal computing budget allocation for replicated noisy comparisons.

Given the running mean, variance and evaluation count of each configuration,
`ocba_allocate` decides how many extra replications each one receives so the
approximate probability of picking the true best (the usual normal
approximation with independent pairwise comparisons against the lowest mean)
is maximized.  Replications are handed out one at a time along the marginal
gain of that criterion and polished by single-unit exchanges, which is exact
for the small per-iteration top-ups the engine requests.
"""

from __future__ import annotations

import math

import numpy as np

def _phi(x: float) -> float:
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def _apcs(means: np.ndarray, variances: np.ndarray, counts: np.ndarray) -> float:
    """Approximate probability that the lowest-mean config really is best."""
    b = int(np.argmin(means))
    total = 0.0
    for i in range(means.size):
        if i == b:
            continue
        delta = means[i] - means[b]
        s2 = variances[b] / counts[b] + variances[i] / counts[i]
        if s2 <= 0.0:
            total += 0.5 if delta == 0.0 else 0.0
        else:
            total += _phi(-delta / math.sqrt(s2))
    return 1.0 - total


def ocba_allocate(
    means: np.ndarray,
    variances: np.ndarray,
    counts: np.ndarray,
    budget: int,
) -> np.ndarray:
    """Split `budget` extra replications across configurations.

    Returns nonnegative integers summing exactly to the budget.  Zero
    variance marks a configuration as already resolved, so it receives
    nothing.  Requires at least two configurations, each already evaluated
    at least twice so its variance estimate exists.
    """
    means = np.asarray(means, dtype=float).reshape(-1)
    variances = np.asarray(variances, dtype=float).reshape(-1)
    counts = np.asarray(counts, dtype=int).reshape(-1)
    m = means.size
    if m < 2:
        raise ValueError("need at least two configurations")
    if variances.size != m or counts.size != m:
        raise ValueError("means, variances and counts must align")
    if np.any(variances < 0):
        raise ValueError("variances must be nonnegative")
    if np.any(counts < 2):
        raise ValueError("every configuration needs at least two evaluations")
    budget = int(budget)
    if budget < 0:
        raise ValueError("budget must be nonnegative")
    if budget == 0:
        return np.zeros(m, dtype=int)
    if np.all(variances == 0.0):
        raise ValueError("all configurations have zero variance")

    eligible = variances > 0.0
    alloc = np.zeros(m, dtype=int)
    work = counts.astype(float)
    for _ in range(budget):
        gains = np.full(m, -np.inf)
        for i in range(m):
            if not eligible[i]:
                continue
            work[i] += 1.0
            gains[i] = _apcs(means, variances, work)
            work[i] -= 1.0
        pick = int(np.argmax(gains))
        alloc[pick] += 1
        work[pick] += 1.0

    # single-unit exchanges until no move improves the selection criterion
    cur = _apcs(means, variances, counts + alloc)
    improved = True
    while improved:
        improved = False
        for i in range(m):
            if alloc[i] == 0:
                continue
            for j in range(m):
                if i == j or not eligible[j]:
                    continue
                trial = alloc.copy()
                trial[i] -= 1
                trial[j] += 1
                val = _apcs(means, variances, counts + trial)
                if val > cur + 1e-15:
                    alloc, cur, improved = trial, val, True
    return alloc
