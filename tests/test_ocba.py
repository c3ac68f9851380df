"""Tests for replication-budget allocation across noisy configurations.

The reference oracle recomputes the approximate probability of correct
selection (normal approximation, pairwise against the lowest mean) with
scipy's normal CDF and finds the best integer allocation by brute-force
enumeration, independently of the package's own criterion code.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.stats import norm

from seqtune import ocba_allocate
from seqtune.ocba import _apcs


def _apcs_oracle(means, variances, counts):
    """P(lowest sample mean is truly best), Bonferroni-style lower bound."""
    means = np.asarray(means, dtype=float)
    variances = np.asarray(variances, dtype=float)
    counts = np.asarray(counts, dtype=float)
    b = int(np.argmin(means))
    p_err = 0.0
    for i in range(means.size):
        if i == b:
            continue
        tau2 = variances[b] / counts[b] + variances[i] / counts[i]
        delta = means[i] - means[b]
        if tau2 <= 0.0:
            p_err += 0.5 if delta == 0.0 else 0.0
        else:
            p_err += norm.cdf(-delta / np.sqrt(tau2))
    return 1.0 - p_err


def _exhaustive_max(means, variances, counts, budget):
    """Best reachable criterion value over every integer allocation."""
    m = len(means)
    best = -np.inf
    for comp in itertools.product(range(budget + 1), repeat=m):
        if sum(comp) != budget:
            continue
        extra = np.asarray(comp)
        if np.any((np.asarray(variances) == 0.0) & (extra > 0)):
            continue  # resolved configs receive nothing by contract
        best = max(best, _apcs_oracle(means, variances, counts + extra))
    return best


def _random_instance(seed, m):
    rng = np.random.default_rng(seed)
    means = np.round(rng.normal(0.0, 2.0, m), 3)
    variances = np.round(rng.uniform(0.1, 4.0, m), 3)
    counts = rng.integers(2, 12, m)
    budget = int(rng.integers(0, 7))
    return means, variances, counts, budget


@given(seed=st.integers(0, 400))
def test_three_config_allocation_matches_exhaustive_search(seed):
    means, variances, counts, budget = _random_instance(seed, 3)
    alloc = ocba_allocate(means, variances, counts, budget)
    assert alloc.sum() == budget
    assert np.all(alloc >= 0)
    achieved = _apcs_oracle(means, variances, counts + alloc)
    assert achieved >= _exhaustive_max(means, variances, counts, budget) - 1e-12


@given(seed=st.integers(0, 400))
def test_four_config_allocation_matches_exhaustive_search(seed):
    means, variances, counts, budget = _random_instance(seed, 4)
    budget = min(budget, 4)
    alloc = ocba_allocate(means, variances, counts, budget)
    assert alloc.sum() == budget
    achieved = _apcs_oracle(means, variances, counts + alloc)
    assert achieved >= _exhaustive_max(means, variances, counts, budget) - 1e-12


def test_two_configs_budget_goes_to_the_lagging_competitor():
    # equal variance, best config already has more replicates: every extra
    # evaluation is worth most on the competitor until counts even out
    alloc = ocba_allocate([0.0, 1.0], [1.0, 1.0], [5, 2], 3)
    assert list(alloc) == [0, 3]


def test_two_configs_equalize_counts():
    alloc = ocba_allocate([0.0, 1.0], [1.0, 1.0], [5, 2], 5)
    assert list(np.array([5, 2]) + alloc) == [6, 6]


def test_zero_variance_config_receives_nothing():
    for budget in (1, 3, 6, 100):
        alloc = ocba_allocate([0.0, 0.5, 1.0], [1.0, 0.0, 1.0], [3, 3, 3], budget)
        assert alloc[1] == 0
        assert alloc.sum() == budget


@pytest.mark.parametrize("means", [[0.0, 0.0, 1.0, 2.0], [0.0, 0.5, 1.0, 2.0]],
                         ids=["tie", "gap"])
def test_a_zero_variance_rival_of_a_zero_variance_best_is_a_tie_or_certain(means):
    # with no variance on either side, equal means count one half against
    # the best, and a gap counts nothing
    variances, counts = [0.0, 0.0, 1.5, 0.7], np.array([3, 3, 2, 4])
    rest = norm.cdf(-1.0 / np.sqrt(1.5 / 2)) + norm.cdf(-2.0 / np.sqrt(0.7 / 4))
    value = _apcs(np.array(means), np.array(variances), counts)
    assert value == pytest.approx(1.0 - (0.5 if means[1] == 0.0 else 0.0) - rest, abs=1e-12)
    assert value == pytest.approx(_apcs_oracle(means, variances, counts), abs=1e-12)
    for budget in (1, 3, 5):
        alloc = ocba_allocate(means, variances, counts, budget)
        assert alloc[:2].tolist() == [0, 0]
        achieved = _apcs_oracle(means, variances, counts + alloc)
        assert achieved >= _exhaustive_max(means, variances, counts, budget) - 1e-12


def test_budget_zero_allocates_nothing():
    alloc = ocba_allocate([0.0, 1.0], [1.0, 1.0], [2, 2], 0)
    assert list(alloc) == [0, 0]
    assert np.issubdtype(alloc.dtype, np.integer)


def test_large_budget_sums_and_is_single_exchange_optimal():
    means = np.array([0.0, 0.1, 5.0])
    variances = np.array([1.0, 1.0, 1.0])
    counts = np.array([2, 2, 2])
    budget = 200
    alloc = ocba_allocate(means, variances, counts, budget)
    assert alloc.sum() == budget
    assert np.all(alloc >= 0)
    # the close competitor is the expensive comparison; the distant one is not
    assert alloc[1] > alloc[2]
    # no single-unit exchange may improve the selection criterion
    base = _apcs_oracle(means, variances, counts + alloc)
    for i in range(3):
        if alloc[i] == 0:
            continue
        for j in range(3):
            if i == j:
                continue
            trial = alloc.copy()
            trial[i] -= 1
            trial[j] += 1
            assert _apcs_oracle(means, variances, counts + trial) <= base + 1e-9


def test_allocation_is_deterministic():
    args = ([0.3, -0.2, 1.7], [0.5, 2.0, 1.0], [4, 2, 7], 6)
    first = ocba_allocate(*args)
    second = ocba_allocate(*args)
    assert np.array_equal(first, second)


def test_rejects_single_configuration():
    with pytest.raises(ValueError, match="two configurations"):
        ocba_allocate([1.0], [1.0], [2], 3)


def test_rejects_misaligned_inputs():
    with pytest.raises(ValueError, match="align"):
        ocba_allocate([0.0, 1.0], [1.0], [2, 2], 3)


def test_rejects_negative_variance():
    with pytest.raises(ValueError, match="nonnegative"):
        ocba_allocate([0.0, 1.0], [1.0, -0.5], [2, 2], 3)


def test_rejects_single_evaluation_counts():
    with pytest.raises(ValueError, match="at least two evaluations"):
        ocba_allocate([0.0, 1.0], [1.0, 1.0], [2, 1], 3)


def test_rejects_negative_budget():
    with pytest.raises(ValueError, match="budget"):
        ocba_allocate([0.0, 1.0], [1.0, 1.0], [2, 2], -1)


def test_rejects_all_zero_variances():
    with pytest.raises(ValueError, match="zero variance"):
        ocba_allocate([0.0, 1.0], [0.0, 0.0], [2, 2], 3)
