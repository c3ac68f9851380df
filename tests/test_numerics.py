"""seqtune's own numerical routines against scipy as the oracle.

The package needs numpy alone; scipy, from the `test` extra, checks each
routine that replaced one of its own:

- `kriging._solve` (forward and back substitution) against LAPACK's dpotrs;
- `stack._nnls` (a least-squares solve on every set of columns) against
  `scipy.optimize.nnls`, on the residual norm and the optimality (KKT)
  conditions, also on exact fits with fewer rows than columns;
- `rsm._bisect_root` against `scipy.optimize.brentq` on the ridge step's
  secular equation;
- `optim_local_bounded` (projected BFGS) against L-BFGS-B on bounded
  convex quadratics whose minimizer has active bounds.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg.lapack import dpotrs
from scipy.optimize import brentq, minimize, nnls

from seqtune.kriging import _solve
from seqtune.optimizers import optim_local_bounded
from seqtune.rsm import _bisect_root
from seqtune.stack import _nnls

seeds = st.integers(0, 2**32 - 1)


def _spd(rng, n: int, cond: float) -> np.ndarray:
    """A random symmetric positive definite matrix of condition number cond."""
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    return (q * np.geomspace(1.0, cond, n)) @ q.T


# ---------------------------------------------------------------------------
# triangular solves


@settings(max_examples=100, deadline=None)
@given(seed=seeds, n=st.integers(1, 40), m=st.sampled_from([None, 1, 3, 50]),
       cond=st.sampled_from([1.0, 1e2, 1e3]))
def test_substitution_matches_dpotrs(seed, n, m, cond):
    rng = np.random.default_rng(seed)
    lower = np.linalg.cholesky(_spd(rng, n, cond))
    b = rng.normal(size=n if m is None else (n, m))
    got = _solve(lower, b)
    want, info = dpotrs(lower, b, lower=1)
    assert info == 0
    assert got.shape == b.shape
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_substitution_leaves_its_inputs_alone():
    rng = np.random.default_rng(3)
    lower = np.linalg.cholesky(_spd(rng, 6, 10.0))
    b = rng.normal(size=(6, 2)).T.copy().T  # a non-contiguous view
    before = lower.copy(), b.copy()
    _solve(lower, b)
    assert np.array_equal(lower, before[0]) and np.array_equal(b, before[1])


# ---------------------------------------------------------------------------
# nonnegative least squares


def _assert_nnls_optimal(a, b, x):
    """x >= 0, and the gradient a'(b - a x) is at most rounding on x's zeros
    and rounding in size where x is positive."""
    scale = np.abs(a).sum(axis=0).max() * max(np.linalg.norm(b), 1e-300)
    w = a.T @ (b - a @ x)
    assert np.all(x >= 0.0)
    assert np.all(w[x == 0.0] <= 1e-10 * scale)
    assert np.all(np.abs(w[x > 0.0]) <= 1e-10 * scale)


@settings(max_examples=200, deadline=None)
@given(seed=seeds, m=st.integers(1, 30), n=st.integers(1, 5),
       shape=st.sampled_from(["general", "nonnegative", "collinear", "zero column"]))
def test_nnls_matches_scipy(seed, m, n, shape):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(m, n))
    b = rng.normal(size=m)
    if shape == "nonnegative":
        a = np.abs(a)
    elif shape == "collinear" and n > 1:
        a[:, -1] = a[:, 0] * rng.uniform(0.5, 2.0)
    elif shape == "zero column":
        a[:, -1] = 0.0
    x = _nnls(a, b)
    want, _ = nnls(a, b)
    _assert_nnls_optimal(a, b, x)
    got_norm, want_norm = np.linalg.norm(a @ x - b), np.linalg.norm(a @ want - b)
    assert got_norm <= want_norm + 1e-12 * np.linalg.norm(b)
    # the weights are numpy's least-squares solve on their own support, the
    # bits the archives were made with
    support = x > 0.0
    assert np.all(x[~support] == 0.0)
    assert x[support].tobytes() == np.linalg.lstsq(a[:, support], b, rcond=None)[0].tobytes()


@pytest.mark.parametrize("m", [1, 4, 20])
def test_nnls_gives_all_zero_weights_when_no_column_helps(m):
    # every column points away from b, so x = 0 is optimal
    rng = np.random.default_rng(m)
    a = np.abs(rng.normal(size=(m, 3)))
    b = -np.abs(rng.normal(size=m))
    assert np.array_equal(_nnls(a, b), np.zeros(3))
    assert np.array_equal(nnls(a, b)[0], np.zeros(3))


def test_nnls_splits_nothing_between_identical_columns_it_does_not_need():
    # two copies of the exact column: the fit is exact whichever takes it
    rng = np.random.default_rng(8)
    col = np.abs(rng.normal(size=12))
    a = np.column_stack([col, col, rng.normal(size=12)])
    x = _nnls(a, 2.0 * col)
    assert x[0] + x[1] == pytest.approx(2.0, rel=1e-12)
    assert abs(x[2]) <= 1e-12
    _assert_nnls_optimal(a, 2.0 * col, x)


@pytest.mark.parametrize("seed", [2156, 3299, 6260, 16815])
def test_nnls_stops_where_a_joining_column_comes_out_nonpositive(seed):
    # exact fits with fewer rows than columns: any m independent columns
    # with positive weights fit b up to rounding, and no set of more than
    # m columns has full rank
    rng = np.random.default_rng(seed)
    m, k = int(rng.integers(1, 8)), int(rng.integers(2, 5))
    a, b = rng.normal(size=(m, k)), rng.normal(size=m)
    assert m < k
    x = _nnls(a, b)
    want, _ = nnls(a, b)
    _assert_nnls_optimal(a, b, x)
    got_norm, want_norm = np.linalg.norm(a @ x - b), np.linalg.norm(a @ want - b)
    assert got_norm <= want_norm + 1e-12 * np.linalg.norm(b)


# ---------------------------------------------------------------------------
# the ridge step's root


def _secular(rng, k: int):
    """The ridge step's 1/r - 1/||z(t)|| for a random fit, with its bracket."""
    eigenvalues = np.sort(rng.normal(size=k) * 3.0)
    gaps = eigenvalues - eigenvalues[0]
    c = rng.normal(size=k)
    r = rng.uniform(0.1, 3.0)

    def psi(t):
        return 1.0 / r - 1.0 / np.linalg.norm(c / (gaps + t))

    return psi, abs(c[0]) / (2.0 * r), 2.0 * np.linalg.norm(c) / r


@settings(max_examples=200, deadline=None)
@given(seed=seeds, k=st.integers(1, 6))
def test_bisect_root_matches_brentq(seed, k):
    psi, lo, hi = _secular(np.random.default_rng(seed), k)
    assert psi(lo) >= 0.0 > psi(hi)
    got = _bisect_root(psi, lo, hi)
    tiny = np.finfo(float).tiny
    want = brentq(psi, lo, hi, xtol=tiny, rtol=4 * np.finfo(float).eps)
    assert lo <= got <= hi
    assert abs(got - want) <= 1e-12 * want


@pytest.mark.parametrize("root", [1e-200, 1e-8, 0.5, 3.0, 1e5])
def test_bisect_root_finds_roots_far_from_the_bracket_middle(root):
    got = _bisect_root(lambda t: np.log(root) - np.log(t), root / 1e3, root * 1e6)
    assert got == pytest.approx(root, rel=1e-14)


# ---------------------------------------------------------------------------
# the projected BFGS search


class _Quadratic:
    """0.5 x'Qx + c'x as a search objective that carries its gradient."""

    def __init__(self, q, c):
        self.q, self.c = q, c

    def __call__(self, x):
        return (0.5 * np.einsum("ij,jk,ik->i", x, self.q, x) + x @ self.c).reshape(-1, 1)

    def mean_and_gradient(self, x):
        return self(x), x @ self.q + self.c


@settings(max_examples=60, deadline=None)
@given(seed=seeds, d=st.integers(1, 6), cond=st.sampled_from([1.0, 10.0, 1e3]),
       gradient=st.booleans())
def test_projected_bfgs_matches_lbfgsb_on_bounded_quadratics(seed, d, cond, gradient):
    rng = np.random.default_rng(seed)
    q = _spd(rng, d, cond)
    # the unconstrained minimizer -Q^-1 c lies well outside [-1, 1]^d
    c = -q @ rng.uniform(-3.0, 3.0, size=d)
    fun = _Quadratic(q, c)
    if not gradient:
        fun = fun.__call__
    lower, upper = -np.ones(d), np.ones(d)
    start = rng.uniform(-1.0, 1.0, size=d)
    res = optim_local_bounded(start, fun, lower, upper, {"funEvals": 5000})
    want = minimize(lambda v: (float(fun(v[None])[0, 0]), v @ q + c), start, jac=True,
                    method="L-BFGS-B", bounds=list(zip(lower, upper)),
                    options={"ftol": 1e-15, "gtol": 1e-12, "maxiter": 10000})
    assert res.msg == "success"
    assert np.all(res.x >= lower) and np.all(res.x <= upper)
    # no worse than L-BFGS-B, and first-order optimal: the projected
    # gradient vanishes to rounding of the gradient's scale
    assert res.ybest <= want.fun + 1e-9 * max(1.0, abs(want.fun))
    g = res.xbest @ q + c
    projected = np.clip(res.xbest - g, lower, upper) - res.xbest
    assert np.abs(projected).max() <= 1e-6 * max(np.abs(c).max(), np.abs(q).max())
