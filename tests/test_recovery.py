"""Recovery-action tests: CoSaMP convergence, the two l1 solvers against
independent oracles, constraint radii, and the bound report.

The l1 oracle is cvxpy's interior-point SOCP where cvxpy imports, and
otherwise a narrow interval from scipy's SLSQP on the dual and on the
primal, which shares no code with the solvers.  Both l1 solvers also carry
a duality certificate, and the buffered subsampled solver, which stops on
that certificate's gap, is checked bit for bit against a plain allocating
copy of its over-relaxed loop; the same copy with relaxation 1 is the
plain Douglas-Rachford loop whose iteration count the relaxation must
beat.  CoSaMP's Gram solve on row subsets is checked against lstsq's
residual, and each of its fallbacks to lstsq is pinned by a deterministic
case.
"""

import dataclasses
import math

import mpmath as mp
import numpy as np
import pytest
import scipy.optimize
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cad_defense import (A_L0, A_L2, A_LINF, L1Problem, SensingOperator,
                         action_radius, check_bound, cosamp_run,
                         l1_min_general, l1_min_orthonormal,
                         estimate_clean_stats, make_clean_compressible,
                         make_clean_sparse, top_k)
from cad_defense.recovery import (_GAP_CHECK_PERIOD, _RELAXATION, CosampState,
                                  L1Result, _least_squares, _soft_threshold,
                                  _threshold_table)


def _l1_optimum(A, y, radius, tol):
    """An interval holding min ||z||_1 s.t. ||A z - y||_2 <= radius: the
    interior-point SOCP value where cvxpy imports, else scipy's primal-dual
    bounds (A with orthonormal rows), checked to be at most tol / 100 wide."""
    try:
        import cvxpy as cp
    except ImportError:
        lower, upper = _l1_bounds(A, y, radius)
        assert -1e-12 <= upper - lower <= tol / 100
        return lower, upper
    z = cp.Variable(A.shape[1])
    prob = cp.Problem(cp.Minimize(cp.norm1(z)), [cp.norm2(A @ z - y) <= radius])
    prob.solve(solver=cp.CLARABEL)
    return float(prob.value), float(prob.value)


def _l1_bounds(A, y, radius):
    """Lower and upper bounds on min ||z||_1 s.t. ||A z - y||_2 <= radius
    for A with orthonormal rows, from SLSQP on the dual and on the primal.

    Any u with ||A^T u||_inf <= 1 gives ||z||_1 >= <A^T u, z> >= <u, y> -
    radius ||u||_2 on the feasible set (weak duality), so the dual iterate,
    scaled to exact feasibility, bounds the optimum from below.  Feasible
    points bound it from above: the split primal iterate (z = p - q with
    p, q >= 0), and the sign-fixed solve on the support the dual iterate
    names, each pulled onto the ball along A^T (exact since A A^T = I).
    """
    n = A.shape[1]
    norm = np.linalg.norm
    at = A.T
    both = np.vstack([-at, at])  # 1 + both @ u >= 0 is ||A^T u||_inf <= 1
    dual = scipy.optimize.minimize(
        lambda u: radius * norm(u) - u @ y, y / max(np.abs(at @ y).max(), 1e-300),
        jac=lambda u: radius * u / max(norm(u), 1e-300) - y, method="SLSQP",
        constraints=[{"type": "ineq", "fun": lambda u: 1.0 + both @ u,
                      "jac": lambda u: both}],
        options={"ftol": 1e-15, "maxiter": 1000})
    u = dual.x / max(1.0, np.abs(at @ dual.x).max())
    lower = max(0.0, float(u @ y - radius * norm(u)))

    split = np.hstack([A, -A])
    start = at @ y
    primal = scipy.optimize.minimize(
        np.sum, np.concatenate([np.maximum(start, 0), np.maximum(-start, 0)]),
        jac=lambda w: np.ones(2 * n), method="SLSQP", bounds=[(0.0, None)] * (2 * n),
        constraints=[{"type": "ineq",
                      "fun": lambda w: radius ** 2 - norm(split @ w - y) ** 2,
                      "jac": lambda w: -2.0 * split.T @ (split @ w - y)}],
        options={"ftol": 1e-15, "maxiter": 1000})
    # on the support B where |A^T u| = 1, with the signs of A^T u, the
    # minimum of sign^T z s.t. ||B z - y|| <= radius is z = B^+ y - t d for
    # d = (B^T B)^+ sign, where t spends what the radius leaves
    guided = np.zeros(n)
    support = np.abs(at @ u) >= 1.0 - 1e-6
    if support.any():
        b = A[:, support]
        fit = np.linalg.lstsq(b, y, rcond=None)[0]
        d = np.linalg.lstsq(b.T @ b, np.sign(at @ u)[support], rcond=None)[0]
        left = max(radius ** 2 - norm(b @ fit - y) ** 2, 0.0)
        guided[support] = fit - np.sqrt(left) / max(norm(b @ d), 1e-300) * d
    upper = np.inf
    for z in (primal.x[:n] - primal.x[n:], guided):
        e = A @ z - y
        if norm(e) > radius:
            z = z - at @ e * (1.0 - radius / norm(e))
        upper = min(upper, float(np.abs(z).sum()))
    return lower, upper


# ---------------------------------------------------------------------------
# CoSaMP


def _reference_cosamp_step(state, y, op, k):
    """One CoSaMP iteration: merge the proxy's top 2k entries with the
    estimate's support, fit least squares there, prune to k terms."""
    back = op.adjoint(y)
    proxy = op.adjoint(state.residual)
    omega = np.argsort(-np.abs(proxy), kind="stable")[: 2 * k]
    merged = np.union1d(omega, np.flatnonzero(state.estimate))
    b = np.zeros(op.n)
    b[merged] = back[merged] if op.is_full else _least_squares(op, merged, y, back)
    estimate = top_k(b, k)
    return CosampState(estimate=estimate, residual=y - op.synthesize(estimate))


def _reference_cosamp_states(y, op, k, n_iters, x0=None):
    """The loop without the fixed-point exit: every one of n_iters steps is computed."""
    y = np.asarray(y, dtype=np.float64)
    est = np.zeros(op.n) if x0 is None else top_k(np.asarray(x0, dtype=np.float64), k)
    state = CosampState(estimate=est, residual=y - op.synthesize(est))
    states = [state]
    for _ in range(n_iters):
        state = _reference_cosamp_step(state, y, op, k)
        states.append(state)
    return states


def test_cosamp_one_step_exact_noiseless():
    op = SensingOperator(32)
    x = make_clean_sparse(32, 4, np.random.default_rng(0))
    y = op.synthesize(x)
    nxt = cosamp_run(y, op, 4, 1, x0=np.zeros(32))  # a zero start takes the step
    assert np.abs(nxt.estimate - x).max() < 1e-12
    assert np.linalg.norm(nxt.residual) < 1e-12


def test_cosamp_zero_input_stays_zero():
    op = SensingOperator(16)
    state = cosamp_run(np.zeros(16), op, 3, 5)
    assert not state.estimate.any()
    assert not state.residual.any()


def test_cosamp_noiseless_exactness_batch():
    rng = np.random.default_rng(1)
    op = SensingOperator(64)
    for _ in range(200):
        k = int(rng.integers(1, 9))
        x = make_clean_sparse(64, k, rng)
        state = cosamp_run(op.synthesize(x), op, k, 5)
        rel = np.linalg.norm(state.estimate - x) / np.linalg.norm(x)
        assert rel <= 1e-8


def test_cosamp_l2_noise_error_within_budget():
    # k = 2 spikes at amplitude >= 1 against eta = 0.1 noise: the true
    # support always wins the proxy, so the error is the on-support noise
    op = SensingOperator(16)
    for seed in range(20):
        rng = np.random.default_rng([3, seed])
        x = make_clean_sparse(16, 2, rng)
        g = rng.standard_normal(16)
        e = 0.1 * g / np.linalg.norm(g)
        y = op.synthesize(x + e)
        state = cosamp_run(y, op, 2, 10)
        assert np.linalg.norm(state.estimate - x) <= 0.1


def test_cosamp_error_non_increasing_noiseless():
    op = SensingOperator(32)
    for seed in range(100):
        rng = np.random.default_rng([4, seed])
        x = make_clean_sparse(32, 5, rng)
        states = _reference_cosamp_states(op.synthesize(x), op, 5, 6)
        errs = [np.linalg.norm(s.estimate - x) for s in states[1:]]
        for a, b in zip(errs, errs[1:]):
            assert b <= a + 1e-12


def test_cosamp_warm_start_stays_noise_bounded():
    op = SensingOperator(32)
    rng = np.random.default_rng(5)
    x = make_clean_sparse(32, 4, rng)
    e = rng.standard_normal(32)
    e *= 0.05 / np.linalg.norm(e)
    y = op.synthesize(x + e)
    for state in _reference_cosamp_states(y, op, 4, 8, x0=x):
        # never drifts beyond the noise scale once started at the answer
        assert np.linalg.norm(state.estimate - x) <= 2 * 0.05


def test_cosamp_iterates_sparse_and_merge_bounded():
    op = SensingOperator(64)
    rng = np.random.default_rng(6)
    x = make_clean_sparse(64, 6, rng)
    y = op.synthesize(x + 0.3 * rng.standard_normal(64) / 8.0)
    states = _reference_cosamp_states(y, op, 6, 6)
    for prev, cur in zip(states, states[1:]):
        assert np.count_nonzero(cur.estimate) <= 6
        proxy = op.adjoint(prev.residual)
        omega = np.argsort(-np.abs(proxy), kind="stable")[:12]
        merged = np.union1d(omega, np.flatnonzero(prev.estimate))
        assert merged.size <= 3 * 6
        assert np.abs(cur.residual - (y - op.synthesize(cur.estimate))).max() < 1e-10


def test_cosamp_subsampled_least_squares_route():
    rng = np.random.default_rng(5)
    rows = np.sort(rng.choice(32, size=24, replace=False))
    sub = SensingOperator(32, rows=rows)
    for seed in range(50):
        r = np.random.default_rng([2, seed])
        x = make_clean_sparse(32, 2, r)
        state = cosamp_run(sub.synthesize(x), sub, 2, 10)
        assert np.linalg.norm(state.estimate - x) < 1e-6


@settings(max_examples=200, deadline=None)
@given(data=st.data(), n=st.integers(1, 48))
def test_least_squares_residual_matches_lstsq(data, n):
    # the Gram solve, or its lstsq fallback on wide or numerically dependent
    # supports, fits as well as lstsq on any support of any row subset
    rows = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n,
                              unique=True).map(sorted))
    op = SensingOperator(n, rows=rows)
    support = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n,
                                 unique=True).map(sorted))
    support = np.array(support)
    sub = op.columns(support)
    y = np.array(data.draw(st.lists(_ENTRY, min_size=op.m, max_size=op.m)))
    ours = np.linalg.norm(sub @ _least_squares(op, support, y, op.adjoint(y)) - y)
    theirs = np.linalg.norm(sub @ np.linalg.lstsq(sub, y, rcond=None)[0] - y)
    assert abs(ours - theirs) <= 1e-7 * np.linalg.norm(y)


class _ColumnsOperator:
    """The operator members a least-squares fit reads (m, gram, columns and
    adjoint), for a measurement matrix with the given columns."""

    def __init__(self, sub):
        self.m, self.gram, self._sub = sub.shape[0], sub.T @ sub, sub

    def columns(self, idx):
        return self._sub[:, idx]

    def adjoint(self, v):
        return self._sub.T @ v


def _tangent_columns(eps):
    """Columns e0, e0 + eps e1 (at angle about eps to e0) and e2, in four rows."""
    sub = np.zeros((4, 3))
    sub[0, 0] = sub[2, 2] = 1.0
    sub[0, 1], sub[1, 1] = 1.0, eps
    return _ColumnsOperator(sub), np.arange(3)


@pytest.mark.parametrize("case, factored, gram", [
    ("well_conditioned", 1, True),
    ("wider_than_rows", 0, False),
    ("cholesky_raises", 1, False),
    ("small_pivot", 1, False),
    ("rank_deficient_rows", 1, False),
])
def test_least_squares_falls_back_to_lstsq(monkeypatch, case, factored, gram):
    # the Gram solve answers a well-conditioned support; lstsq answers a
    # support wider than the rows without factoring, one whose Gram matrix
    # is singular, and one whose Cholesky pivots span more than 1 / 1e-3.
    # Rows 5 and 11 of the n=17 operator agree on columns 8, 10 and 14, yet
    # their Gram factor keeps a pivot ratio near 1.5e-6; there a Gram solve's
    # residual on this y is 0.36 ||y|| above lstsq's
    op, support = {"well_conditioned": _tangent_columns(1.0),
                   "wider_than_rows": (SensingOperator(8, rows=[0, 3, 5]), np.arange(5)),
                   "cholesky_raises": _tangent_columns(0.0),
                   "small_pivot": _tangent_columns(1e-7),
                   "rank_deficient_rows": (SensingOperator(17, rows=[5, 7, 11]),
                                           np.array([8, 10, 14]))}[case]
    sub = op.columns(support)
    y = np.arange(1.0, op.m + 1)
    expected = np.linalg.lstsq(sub, y, rcond=None)[0]
    calls = []

    def counting(name):
        real = getattr(np.linalg, name)
        return lambda *a, **kw: calls.append(name) or real(*a, **kw)

    for name in ("lstsq", "cholesky"):
        monkeypatch.setattr(np.linalg, name, counting(name))
    ours = _least_squares(op, support, y, op.adjoint(y))
    assert calls.count("cholesky") == factored
    assert calls.count("lstsq") == (0 if gram else 1)
    if gram:
        assert np.abs(ours - expected).max() <= 1e-12
    else:
        assert ours.tobytes() == expected.tobytes()


def test_cosamp_run_validation():
    op = SensingOperator(8)
    with pytest.raises(ValueError):
        cosamp_run(np.zeros(8), op, 0, 3)
    with pytest.raises(ValueError):
        cosamp_run(np.zeros(8), op, 2, -1)
    y = np.arange(8.0)
    start = cosamp_run(y, op, 2, 0)
    assert not start.estimate.any()
    assert start.residual.tobytes() == y.tobytes() and start.residual is not y
    for bad in (np.ones(5), np.full(8, np.nan)):  # checked before any step
        with pytest.raises(ValueError):
            cosamp_run(bad, op, 2, 0)


@settings(max_examples=150, deadline=None)
@given(data=st.data(), n=st.integers(2, 48))
def test_cosamp_run_matches_every_step_of_the_reference_loop(data, n):
    rows = data.draw(st.one_of(
        st.none(),
        st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True).map(sorted)))
    op = SensingOperator(n, rows=rows)
    k = data.draw(st.integers(1, n))
    # an exactly sparse signal lets the subsampled iterates settle on a fixed point
    x = np.zeros(n)
    support = data.draw(st.lists(st.integers(0, n - 1), max_size=k, unique=True))
    x[support] = data.draw(st.lists(_ENTRY, min_size=len(support), max_size=len(support)))
    noise = data.draw(st.sampled_from([0.0, 1e-3, 1.0]))
    y = op.synthesize(x) + noise * np.random.default_rng(n).standard_normal(op.m)
    warm = np.array(data.draw(st.lists(
        st.one_of(st.sampled_from([0.0, -0.0]), _ENTRY), min_size=n, max_size=n)))
    n_iters = data.draw(st.integers(0, 12))
    for x0 in (None, warm):
        ours = cosamp_run(y, op, k, n_iters, x0=x0)
        theirs = _reference_cosamp_states(y, op, k, n_iters, x0=x0)[-1]
        assert ours.estimate.tobytes() == theirs.estimate.tobytes()
        assert ours.residual.tobytes() == theirs.residual.tobytes()


def test_cosamp_run_stops_computing_at_a_fixed_point(monkeypatch):
    # on the full operator the second step from a zero start repeats the
    # first; a cold run returns that fixed point without stepping.  Each
    # step applies the adjoint once, to its residual, beside the run's one
    # adjoint of y
    op, y = SensingOperator(16), SensingOperator(16).synthesize(np.arange(16.0))
    adjoints = []
    real_adjoint = SensingOperator.adjoint
    monkeypatch.setattr(SensingOperator, "adjoint",
                        lambda self, v: adjoints.append(1) or real_adjoint(self, v))
    warm = cosamp_run(y, op, 4, 10, x0=np.zeros(16))
    assert len(adjoints) == 1 + 2
    adjoints.clear()
    cold = cosamp_run(y, op, 4, 10)
    assert len(adjoints) == 1
    expected = top_k(op.analyze(y), 4).tobytes()
    for state in (warm, cold):
        assert state.estimate.tobytes() == expected
    assert cold.residual.tobytes() == warm.residual.tobytes()


def test_cold_full_operator_cosamp_applies_the_operator_twice(monkeypatch):
    # one adjoint of y, one synthesis of the pruned estimate; the stats fit
    # recovers each signal with such a run
    op = SensingOperator(64)
    rng = np.random.default_rng(31)
    signals = [op.synthesize(make_clean_compressible(64, 8, rng)) for _ in range(6)]
    calls = []
    for name in ("analyze", "synthesize", "adjoint"):
        real = getattr(SensingOperator, name)
        monkeypatch.setattr(SensingOperator, name,
                            lambda self, v, real=real, name=name:
                            calls.append(name) or real(self, v))
    cosamp_run(signals[0], op, 8, 5)
    assert calls == ["adjoint", "synthesize"]
    calls.clear()
    estimate_clean_stats(signals, op, 8, n_cosamp=5, ridge=1e-4)
    assert len(calls) == 2 * len(signals)


# ---------------------------------------------------------------------------
# l1 on the full orthonormal operator


def test_l1_orthonormal_zero_radius_returns_coefficients():
    op = SensingOperator(8)
    c = np.random.default_rng(7).standard_normal(8)
    y = op.synthesize(c)
    out = l1_min_orthonormal(L1Problem(observed=y, op=op, radius=0.0))
    assert np.abs(out - c).max() < 1e-10


def test_l1_orthonormal_large_radius_returns_zero():
    op = SensingOperator(8)
    c = np.random.default_rng(8).standard_normal(8)
    y = op.synthesize(c)
    out = l1_min_orthonormal(
        L1Problem(observed=y, op=op, radius=float(np.linalg.norm(c)) + 0.1))
    assert not out.any()


def test_l1_orthonormal_two_entry_closed_form():
    # c = (3, 1), radius 1: both entries shrink by 1/sqrt(2)
    op = SensingOperator(2)
    c = np.array([3.0, 1.0])
    y = op.synthesize(c)
    out = l1_min_orthonormal(L1Problem(observed=y, op=op, radius=1.0))
    shrink = 1.0 / np.sqrt(2.0)
    assert np.abs(out - (c - shrink)).max() < 1e-8


def test_l1_orthonormal_monotone_shrinkage():
    op = SensingOperator(24)
    rng = np.random.default_rng(9)
    for _ in range(50):
        c = rng.standard_normal(24)
        y = op.synthesize(c)
        radius = float(rng.uniform(0.0, 1.0)) * float(np.linalg.norm(c))
        out = l1_min_orthonormal(L1Problem(observed=y, op=op, radius=radius))
        assert np.all(np.abs(out) <= np.abs(c) + 1e-12)
        assert np.all(out * c >= -1e-15)  # no sign flips
        # shrinkage spends exactly the radius (when it binds)
        assert abs(np.linalg.norm(out - c) - radius) <= 1e-8


def test_l1_orthonormal_matches_socp_oracle():
    rng = np.random.default_rng(10)
    for trial in range(40):
        n = int(rng.integers(2, 17))
        op = SensingOperator(n)
        c = rng.standard_normal(n) * float(rng.choice([0.2, 1.0, 5.0]))
        y = op.synthesize(c)
        radius = float(rng.uniform(0.05, 1.2) * np.linalg.norm(c))
        ours = l1_min_orthonormal(L1Problem(observed=y, op=op, radius=radius))
        lower, upper = _l1_optimum(op.matrix, y, radius, 1e-6)
        assert lower - 1e-6 <= np.abs(ours).sum() <= upper + 1e-6
        assert np.linalg.norm(ours - c) <= radius + 1e-9


def test_l1_orthonormal_duality_certificate():
    # u = (c - z) / ||c - z||_inf has ||u||_inf <= 1, so every feasible z has
    # ||z||_1 >= <u, c> - r ||u||_2; z is optimal to the gap, in 50 digits
    rng = np.random.default_rng(18)
    for trial in range(60):
        n = int(rng.integers(2, 65))
        op = SensingOperator(n)
        c = rng.standard_normal(n)
        if trial % 3 == 0:
            c = np.round(c, 1)  # repeated magnitudes and exact zeros
        c *= float(rng.choice([1e-3, 0.2, 1.0, 5.0, 1e3]))
        y = op.synthesize(c)
        radius = float(rng.uniform(0.01, 0.99)) * float(np.linalg.norm(c))
        z = l1_min_orthonormal(L1Problem(observed=y, op=op, radius=radius))
        with mp.workdps(50):
            a = op.matrix
            c_mp = [mp.fsum(mp.mpf(float(a[i, j])) * mp.mpf(float(y[i]))
                            for i in range(n)) for j in range(n)]
            z_mp = [mp.mpf(float(v)) for v in z]
            d = [ci - zi for ci, zi in zip(c_mp, z_mp)]
            t = max(abs(di) for di in d)
            u = [di / t for di in d]
            r = mp.mpf(radius)
            dist = mp.sqrt(mp.fsum(di * di for di in d))
            norm_u = mp.sqrt(mp.fsum(ui * ui for ui in u))
            l1 = mp.fsum(abs(zi) for zi in z_mp)
            gap = l1 - (mp.fsum(ui * ci for ui, ci in zip(u, c_mp)) - r * norm_u)
            assert abs(dist - r) <= 1e-12 * mp.sqrt(mp.fsum(ci * ci for ci in c_mp))
            assert abs(gap) <= 1e-12 * max(1, l1)


def test_l1_general_duality_certificate():
    # rows of A are orthonormal; u = (y - A z) / ||A^T (y - A z)||_inf has
    # ||A^T u||_inf <= 1, so every feasible z has ||z||_1 >= <u, y> - r ||u||.
    # Converged solves stop on this gap, evaluated in float64, at the default
    # relative tolerance 1e-4; recomputed in 50 digits it holds to round-off
    rng = np.random.default_rng(20)
    certified = 0
    for trial in range(60):
        n = int(rng.integers(4, 49))
        m = int(rng.integers(max(1, n // 3), n))
        op = SensingOperator(n, rows=np.sort(rng.choice(n, size=m, replace=False)))
        x = make_clean_sparse(n, max(1, n // 8), rng) + 0.05 * rng.standard_normal(n)
        y = op.synthesize(x) * float(rng.choice([1e-2, 1.0, 1e2]))
        radius = float(rng.uniform(0.02, 0.9)) * float(np.linalg.norm(y))
        res = l1_min_general(L1Problem(observed=y, op=op, radius=radius))
        if not res.converged:
            continue
        certified += 1
        with mp.workdps(50):
            a = [[mp.mpf(float(v)) for v in row] for row in op.matrix]
            z_mp = [mp.mpf(float(v)) for v in res.coeffs]
            y_mp = [mp.mpf(float(v)) for v in y]
            w = [yi - mp.fsum(aij * zj for aij, zj in zip(row, z_mp))
                 for row, yi in zip(a, y_mp)]
            back = [mp.fsum(a[i][j] * w[i] for i in range(m)) for j in range(n)]
            t = max(abs(b) for b in back)
            u = [wi / t for wi in w]
            r = mp.mpf(radius)
            dist = mp.sqrt(mp.fsum(wi * wi for wi in w))
            norm_u = mp.sqrt(mp.fsum(ui * ui for ui in u))
            l1 = mp.fsum(abs(zi) for zi in z_mp)
            gap = l1 - (mp.fsum(ui * yi for ui, yi in zip(u, y_mp)) - r * norm_u)
            assert dist - r <= 1e-6  # the solver's feasibility tolerance
            # weak duality, loosened only by the iterate's own infeasibility
            assert gap >= -norm_u * max(0, dist - r) - mp.mpf(10) ** -40
            assert gap <= (mp.mpf(1e-4) + mp.mpf(1e-12)) * l1
    assert certified >= 40


# magnitudes whose squares neither overflow nor underflow
_MAGNITUDE = st.one_of(st.just(0.0), st.floats(1e-100, 1e100))


@settings(max_examples=200, deadline=None)
@given(data=st.data(), n=st.integers(1, 64))
def test_l1_orthonormal_threshold_properties(data, n):
    mags = np.array(data.draw(st.lists(_MAGNITUDE, min_size=n, max_size=n)))
    signs = np.array(data.draw(st.lists(st.sampled_from([-1.0, 1.0]),
                                        min_size=n, max_size=n)))
    op = SensingOperator(n)
    y = op.synthesize(signs * mags)
    c = op.analyze(y)
    norm_c = float(np.linalg.norm(c))
    # one ulp below ||c|| is where every knot can fall short of the radius
    radius = data.draw(st.one_of(
        st.just(float(np.nextafter(norm_c, 0.0))),
        st.floats(1e-3, 1.0, exclude_max=True).map(lambda f: f * norm_c)))
    z = l1_min_orthonormal(L1Problem(observed=y, op=op, radius=radius))
    assert np.all(np.isfinite(z))
    assert np.all(np.abs(z) <= np.abs(c))
    assert np.all(z * c >= 0.0)  # no sign flips
    if radius > 0.0:
        assert abs(np.linalg.norm(z - c) - radius) <= 1e-12 * norm_c


def test_l1_orthonormal_tie_corner_case():
    # duplicate magnitudes shrink together; objective still optimal
    op = SensingOperator(4)
    c = np.array([2.0, -2.0, 2.0, 0.0])
    y = op.synthesize(c)
    ours = l1_min_orthonormal(L1Problem(observed=y, op=op, radius=1.5))
    lower, upper = _l1_optimum(op.matrix, y, 1.5, 1e-6)
    assert lower - 1e-6 <= np.abs(ours).sum() <= upper + 1e-6


def test_l1_orthonormal_rejects_subsampled():
    sub = SensingOperator(8, rows=[0, 1, 2])
    with pytest.raises(ValueError):
        l1_min_orthonormal(L1Problem(observed=np.zeros(3), op=sub, radius=0.1))
    with pytest.raises(ValueError):
        L1Problem(observed=np.zeros(8), op=SensingOperator(8), radius=-1.0)


def _sorted_soft_threshold(c, radius):
    """l1_min_orthonormal's closed form as it was before the threshold
    table: one sort of |c| for every radius."""
    c = c.copy()
    if radius == 0.0:
        return c
    absc = np.abs(c)
    if radius >= np.linalg.norm(c):
        return np.zeros_like(c)
    knots = np.sort(absc)
    sq = knots * knots
    below = np.concatenate(([0.0], np.cumsum(sq[:-1])))
    above = np.arange(knots.size, 0, -1)
    r2 = radius * radius
    j = min(int(np.searchsorted(below + above * sq, r2)), knots.size - 1)
    thr = math.sqrt((r2 - below[j]) / above[j])
    return np.sign(c) * np.maximum(absc - thr, 0.0)


# few distinct magnitudes, zero among them, so that |c| ties
_TIED_MAGNITUDE = st.one_of(st.sampled_from([0.0, 0.25, 1.0, 3.0]), _MAGNITUDE)


def _radius(norm_c):
    """Radii at every branch of the closed form: 0, the clamp of the last
    segment one ulp below ||c||, ||c|| and beyond, and inside the ball."""
    return st.one_of(
        st.sampled_from([0.0, norm_c * (1.0 - 2.0 ** -52), norm_c, 2.0 * norm_c, math.inf]),
        st.floats(0.0, 1.0, exclude_max=True).map(lambda f: f * norm_c))


@settings(max_examples=300, deadline=None)
@given(data=st.data(), n=st.integers(1, 48))
def test_threshold_table_gives_the_sort_based_bytes(data, n):
    mags = np.array(data.draw(st.lists(_TIED_MAGNITUDE, min_size=n, max_size=n)))
    signs = np.array(data.draw(st.lists(st.sampled_from([-1.0, 1.0]),
                                        min_size=n, max_size=n)))
    c = signs * mags
    norm_c = float(np.linalg.norm(c))
    order = np.argsort(-np.abs(c), kind="stable")
    # the run's stable descending order, reversed, is the sorted |c|
    assert np.abs(c)[order[::-1]].tobytes() == np.sort(np.abs(c)).tobytes()
    table = _threshold_table(c, order)
    op = SensingOperator(n)
    # one table serves the three radii of a run's l1 actions
    for radius in data.draw(st.lists(_radius(norm_c), min_size=3, max_size=3)):
        want = _sorted_soft_threshold(c, radius)
        assert _soft_threshold(table, radius).tobytes() == want.tobytes()
        # the public solve analyses y itself, and sorts it by the same path
        y = op.synthesize(c)
        assert (l1_min_orthonormal(L1Problem(observed=y, op=op, radius=radius)).tobytes()
                == _sorted_soft_threshold(op.analyze(y), radius).tobytes())
    assert c.tobytes() == (signs * mags).tobytes()


def test_threshold_table_reaches_the_last_segment_clamp():
    # one ulp below ||c|| rounding leaves every knot short of the radius
    # for some c; those take the threshold from the last segment
    clamped = 0
    rng = np.random.default_rng(52)
    for _ in range(400):
        n = int(rng.integers(40, 200))
        c = rng.standard_normal(n) * 10.0 ** rng.uniform(-2.0, 2.0, n)
        table = _threshold_table(c, np.argsort(-np.abs(c), kind="stable"))
        radius = float(np.linalg.norm(c)) * (1.0 - 2.0 ** -52)
        clamped += int(np.searchsorted(table.reach, radius * radius)) == c.size
        assert (_soft_threshold(table, radius).tobytes()
                == _sorted_soft_threshold(c, radius).tobytes())
    assert clamped > 0


# ---------------------------------------------------------------------------
# l1 on subsampled operators


def test_l1_general_zero_observation():
    sub = SensingOperator(8, rows=[0, 2, 4])
    res = l1_min_general(L1Problem(observed=np.zeros(3), op=sub, radius=0.5))
    assert not res.coeffs.any() and res.converged


def test_l1_general_agrees_with_orthonormal_on_full():
    rng = np.random.default_rng(11)
    for trial in range(20):
        n = int(rng.integers(4, 17))
        op = SensingOperator(n)
        c = rng.standard_normal(n)
        y = op.synthesize(c)
        radius = float(rng.uniform(0.1, 0.9) * np.linalg.norm(c))
        a = l1_min_orthonormal(L1Problem(observed=y, op=op, radius=radius))
        res = l1_min_general(L1Problem(observed=y, op=op, radius=radius,
                                       tolerance=1e-8, max_iters=50000))
        assert np.linalg.norm(a - res.coeffs) <= 1e-6


def test_l1_general_recovers_one_sparse_exactly():
    # 6-of-8 rows, radius 0: the 1-sparse consistent vector is optimal
    rng = np.random.default_rng(12)
    rows = np.sort(rng.choice(8, size=6, replace=False))
    sub = SensingOperator(8, rows=rows)
    for seed in range(20):
        r = np.random.default_rng([13, seed])
        x = make_clean_sparse(8, 1, r)
        y = sub.synthesize(x)
        res = l1_min_general(L1Problem(observed=y, op=sub, radius=0.0,
                                       tolerance=1e-8, max_iters=50000))
        # enumeration oracle: the only consistent 1-sparse candidate
        candidates = []
        for idx in range(8):
            col = sub.matrix[:, idx]
            coef = float(col @ y / (col @ col))
            if np.linalg.norm(coef * col - y) < 1e-8:
                cand = np.zeros(8)
                cand[idx] = coef
                candidates.append(cand)
        best = min(candidates, key=lambda z: np.abs(z).sum())
        assert np.linalg.norm(res.coeffs - best) <= 1e-6
        assert res.converged


def test_l1_general_matches_socp_on_subsampled():
    rng = np.random.default_rng(42)
    for trial in range(10):
        rows = np.sort(rng.choice(12, size=9, replace=False))
        sub = SensingOperator(12, rows=rows)
        c = rng.standard_normal(12)
        y = sub.synthesize(c) + 0.01 * rng.standard_normal(9)
        res = l1_min_general(L1Problem(observed=y, op=sub, radius=0.3,
                                       max_iters=20000))
        assert res.converged and res.feasibility_gap <= 1e-6
        lower, upper = _l1_optimum(sub.matrix, y, 0.3, 1e-4)
        assert lower - 1e-4 <= np.abs(res.coeffs).sum() <= upper + 1e-4


def test_l1_general_flags_non_convergence():
    sub = SensingOperator(16, rows=np.arange(12))
    c = np.random.default_rng(14).standard_normal(16)
    y = sub.synthesize(c)
    res = l1_min_general(L1Problem(observed=y, op=sub, radius=0.01, max_iters=2))
    assert not res.converged and res.iterations == 2


def test_l1_general_warm_start():
    op = SensingOperator(8)
    c = np.random.default_rng(15).standard_normal(8)
    y = op.synthesize(c)
    exact = l1_min_orthonormal(L1Problem(observed=y, op=op, radius=0.2))
    res = l1_min_general(L1Problem(observed=y, op=op, radius=0.2,
                                   tolerance=1e-8, max_iters=50000), x0=exact)
    assert np.linalg.norm(res.coeffs - exact) <= 1e-6


def _reference_certificate(v, y, op, radius, tolerance, s, step):
    """Allocating duality certificate through the validating operator calls;
    at radius 0 its dual point comes from the prox subgradient at s.  The
    feasibility tolerance is 1e-6 at unit scale and above and 1e-6 * ||y||
    below it."""
    w = y - op.synthesize(v)
    feasibility = max(0.0, float(np.linalg.norm(w)) - radius)
    l1 = float(np.abs(v).sum())
    if radius == 0.0:
        u = op.synthesize(np.clip(s / step, -1.0, 1.0))
        u = u / max(1.0, float(np.abs(op.adjoint(u)).max()))
        bound = max(0.0, float(u @ y))
    else:
        scale = float(np.abs(op.adjoint(w)).max())
        bound = 0.0
        if scale > 0.0:
            u = w / scale
            bound = max(0.0, float(u @ y) - radius * float(np.linalg.norm(u)))
    gap = l1 - bound
    feasible = feasibility <= 1e-6 * min(1.0, float(np.linalg.norm(y)))
    return feasible and gap <= tolerance * l1, feasibility, gap


def _reference_l1_min_general(p, x0=None, relaxation=_RELAXATION):
    """The allocating over-relaxed Douglas-Rachford loop that l1_min_general
    must match bit for bit; relaxation=1.0 is the plain loop.  With t the
    clip of s to [-step, step], the soft threshold of s is z = s - t and
    2 z - s is v = s - 2 t.  The Gram matrix P = A^T A, formed here from
    op.matrix, gives g = P v - A^T y = A^T (A v - y), whose norm is
    ||A v - y|| as A A^T = I (P is symmetric, and the product is taken as
    P^T v, as the solver takes it); the ball projection of v is v - c g,
    and s + relaxation (v - z) is s - relaxation (t + c g)."""
    y = np.asarray(p.observed, dtype=np.float64)
    excess = float(np.linalg.norm(y)) - p.radius
    if excess <= 1e-6 * min(1.0, float(np.linalg.norm(y))):
        return L1Result(np.zeros(p.op.n), 0, True, max(0.0, excess), 0.0)
    back = p.op.adjoint(y)
    step = 0.14 * float(np.abs(back).max())
    if step <= 0.0:
        step = 1.0
    s = np.asarray(x0, dtype=np.float64).copy() if x0 is not None else back
    gram = p.op.matrix.T @ p.op.matrix
    z = np.zeros(p.op.n)
    it = 0
    for it in range(1, p.max_iters + 1):
        t = np.clip(s, -step, step)
        z = s - t
        v = s - 2.0 * t
        g = gram.T @ v - back
        nw = float(np.linalg.norm(g))
        if nw > p.radius:
            g = (1.0 if p.radius == 0.0 else 1.0 - p.radius / nw) * g
            v = v - g
            t = t + g
        if it % 10 == 0:  # the certificate is evaluated every tenth iteration
            certified, feasibility, gap = _reference_certificate(v, y, p.op, p.radius,
                                                                 p.tolerance, s, step)
            if certified:
                return L1Result(v, it, True, feasibility, gap, s)
        s = s - relaxation * t
    return L1Result(z, it, *_reference_certificate(z, y, p.op, p.radius, p.tolerance,
                                                   s, step), s)


_ENTRY = st.floats(-1e3, 1e3)


def _lp_dual_point(a, y):
    """A dual point u of min ||z||_1 subject to a z = y, with ||a^T u||_inf
    <= 1: the equality multipliers of that problem as a linear program in
    z = p - q, scaled back into the dual ball after their round-off.  The
    program is posed on y / ||y||, which has the same dual points, so that
    the solver's absolute tolerances do not swamp a tiny y."""
    from scipy.optimize import linprog
    n = a.shape[1]
    res = linprog(np.ones(2 * n), A_eq=np.hstack([a, -a]), b_eq=y / np.linalg.norm(y),
                  bounds=(0, None), method="highs")
    assert res.status == 0
    u = res.eqlin.marginals
    return u / max(1.0, float(np.abs(a.T @ u).max()))


@settings(max_examples=150, deadline=None)
@given(data=st.data(), n=st.integers(4, 64))
def test_l1_general_bit_identical_to_reference_loop(data, n):
    rows = data.draw(st.one_of(
        st.none(),
        st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True).map(sorted)))
    op = SensingOperator(n, rows=rows)
    y = np.array(data.draw(st.lists(_ENTRY, min_size=op.m, max_size=op.m)))
    norm_y = float(np.linalg.norm(y))
    radius = data.draw(st.one_of(
        st.just(0.0),
        st.floats(1e-3, 1.0, exclude_max=True).map(lambda f: f * norm_y),
        st.floats(1.0, 3.0).map(lambda f: f * norm_y)))
    # the warm start carries signed zeros, which the soft threshold must map
    # as np.sign does; a single iteration returns that first threshold
    warm = [-0.0, 0.0] + data.draw(st.lists(
        st.one_of(st.sampled_from([0.0, -0.0]), _ENTRY), min_size=n - 2, max_size=n - 2))
    max_iters = data.draw(st.one_of(st.just(1), st.integers(2, 300)))
    tolerance = data.draw(st.sampled_from([1e-2, 1e-4, 1e-8]))
    p = L1Problem(observed=y, op=op, radius=radius, tolerance=tolerance,
                  max_iters=max_iters)
    for x0 in (None, np.array(warm)):
        ours, ref = l1_min_general(p, x0), _reference_l1_min_general(p, x0)
        assert ours.coeffs.tobytes() == ref.coeffs.tobytes()
        assert ours.iterations == ref.iterations
        assert ours.converged == ref.converged
        assert ours.feasibility_gap == ref.feasibility_gap
        assert ours.duality_gap == ref.duality_gap
        if ref.state is None:
            assert ours.state is None
        else:
            assert ours.state.tobytes() == ref.state.tobytes()


@settings(max_examples=150, deadline=None)
@given(data=st.data(), n=st.integers(4, 48))
def test_l1_general_converged_means_certified(data, n):
    # a converged solve carries its certificate: within 1e-6 of the ball and
    # a duality gap of at most tolerance * ||coeffs||_1, which an independent
    # float dual point confirms (at radius 0, where the residual is rounding
    # noise, a linear-programming optimum does); any other solve used its
    # whole budget
    rows = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n,
                              unique=True).map(sorted))
    op = SensingOperator(n, rows=rows)
    y = np.array(data.draw(st.lists(_ENTRY, min_size=op.m, max_size=op.m)))
    norm_y = float(np.linalg.norm(y))
    radius = data.draw(st.one_of(
        st.just(0.0),
        st.floats(1e-3, 1.0, exclude_max=True).map(lambda f: f * norm_y),
        st.floats(1.0, 3.0).map(lambda f: f * norm_y)))
    x0 = data.draw(st.one_of(st.none(), st.lists(_ENTRY, min_size=n, max_size=n)))
    p = L1Problem(observed=y, op=op, radius=radius,
                  tolerance=data.draw(st.sampled_from([1e-2, 1e-4, 1e-6])),
                  max_iters=data.draw(st.integers(1, 400)))
    res = l1_min_general(p, None if x0 is None else np.array(x0))
    if not res.converged:
        assert res.iterations == p.max_iters
        return
    l1 = float(np.abs(res.coeffs).sum())
    assert res.duality_gap <= p.tolerance * l1
    w = y - op.matrix @ res.coeffs
    assert res.feasibility_gap <= 1e-6
    assert np.linalg.norm(w) - radius <= 1e-6
    if radius == 0.0:
        bound = 0.0 if norm_y == 0.0 else max(0.0, float(_lp_dual_point(op.matrix, y) @ y))
        assert l1 - bound <= (p.tolerance + 1e-7) * l1
        return
    back = np.abs(op.matrix.T @ w).max()
    bound = 0.0 if back == 0.0 else max(0.0, (w @ y - radius * np.linalg.norm(w)) / back)
    assert l1 - bound <= (p.tolerance + 1e-9) * l1


@settings(max_examples=150, deadline=None)
@given(data=st.data(), n=st.integers(4, 48))
def test_l1_general_certified_solves_from_two_starts_agree(data, n):
    # the defence loop lets an action's certified solve stand for the run: a
    # re-solve from another warm start is certified against the same optimum,
    # so the two l1 norms lie within the certified gap of each other
    rows = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n - 1,
                              unique=True).map(sorted))
    op = SensingOperator(n, rows=rows)
    y = np.array(data.draw(st.lists(_ENTRY, min_size=op.m, max_size=op.m)))
    norm_y = float(np.linalg.norm(y))
    radius = data.draw(st.one_of(
        st.just(0.0), st.floats(1e-3, 1.0, exclude_max=True).map(lambda f: f * norm_y)))
    p = L1Problem(observed=y, op=op, radius=radius,
                  tolerance=data.draw(st.sampled_from([1e-2, 1e-4, 1e-6])))
    starts = [data.draw(st.one_of(st.none(), st.lists(_ENTRY, min_size=n, max_size=n)))
              for _ in range(2)]
    solves = [l1_min_general(p, None if x0 is None else np.array(x0)) for x0 in starts]
    assume(all(res.converged for res in solves))
    l1 = [float(np.abs(res.coeffs).sum()) for res in solves]
    assert abs(l1[0] - l1[1]) <= p.tolerance * max(l1)


@settings(max_examples=100, deadline=None)
@given(data=st.data(), n=st.integers(4, 48))
def test_l1_general_resumes_exactly_from_its_state(data, n):
    # a run capped at a multiple of the certificate period, uncertified,
    # and resumed from its state for more iterations gives the bytes of one
    # run of both caps together: the defence loop's budgets (multiples of
    # 200) lose nothing when an l1 solve continues a run's state
    rows = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n - 1,
                              unique=True).map(sorted))
    op = SensingOperator(n, rows=rows)
    y = np.array(data.draw(st.lists(_ENTRY, min_size=op.m, max_size=op.m)))
    norm_y = float(np.linalg.norm(y))
    radius = data.draw(st.one_of(
        st.just(0.0), st.floats(1e-3, 1.0, exclude_max=True).map(lambda f: f * norm_y)))
    tolerance = data.draw(st.sampled_from([1e-6, 1e-8, 1e-10]))
    first_cap = _GAP_CHECK_PERIOD * data.draw(st.integers(1, 20))
    second_cap = data.draw(st.integers(1, 300))
    x0 = data.draw(st.one_of(st.none(), st.lists(_ENTRY, min_size=n, max_size=n)))
    x0 = None if x0 is None else np.array(x0)

    def solve(cap, start):
        return l1_min_general(L1Problem(observed=y, op=op, radius=radius,
                                        tolerance=tolerance, max_iters=cap), start)

    first = solve(first_cap, x0)
    assume(not first.converged)
    resumed, whole = solve(second_cap, first.state), solve(first_cap + second_cap, x0)
    assert first.iterations + resumed.iterations == whole.iterations
    assert resumed.coeffs.tobytes() == whole.coeffs.tobytes()
    assert resumed.state.tobytes() == whole.state.tobytes()
    assert (resumed.converged, resumed.feasibility_gap, resumed.duality_gap) == (
        whole.converged, whole.feasibility_gap, whole.duality_gap)


def test_l1_general_over_relaxation_saves_iterations():
    # the relaxed loop needs at most 0.8x the iterations of the plain
    # Douglas-Rachford loop on a fixed batch of energy-bounded problems
    rng = np.random.default_rng(22)
    op = SensingOperator(64, rows=np.sort(rng.choice(64, size=40, replace=False)))
    relaxed = plain = 0
    for _ in range(24):
        e = rng.standard_normal(64)
        eta = float(rng.uniform(0.5, 4.0))
        y = op.synthesize(make_clean_compressible(64, 8, rng) + eta * e / np.linalg.norm(e))
        p = L1Problem(observed=y, op=op, radius=eta)
        ours = l1_min_general(p)
        assert ours.converged
        relaxed += ours.iterations
        plain += _reference_l1_min_general(p, relaxation=1.0).iterations
    assert relaxed <= 0.8 * plain


def test_l1_general_is_scale_invariant_below_unit_scale():
    # the feasibility tolerance shrinks with ||y|| below unit scale, so a
    # tiny problem is solved like a large one instead of returning zero
    op = SensingOperator(8, rows=[1, 4, 6])
    y = np.random.default_rng(3).standard_normal(3)
    solves = []
    for exponent in range(4, -13, -1):
        scaled = 10.0 ** exponent * y
        res = l1_min_general(L1Problem(observed=scaled, op=op,
                                       radius=0.5 * float(np.linalg.norm(scaled))))
        assert res.converged
        solves.append((res.iterations, float(np.abs(res.coeffs).sum()) / 10.0 ** exponent))
    assert {its for its, _ in solves} == {solves[0][0]}
    for _, l1 in solves:
        assert abs(l1 - solves[0][1]) <= 1e-12 * solves[0][1]


@pytest.mark.parametrize("which, bad, message", [
    ("x0", "nan", "coefficients contains non-finite entries"),
    ("x0", "inf", "coefficients contains non-finite entries"),
    ("x0", "short", "coefficients must be a length-16 vector"),
    ("y", "nan", "measurements contains non-finite entries"),
    ("y", "short", "measurements must be a length-8 vector"),
])
def test_l1_general_rejects_bad_input(which, bad, message):
    sub = SensingOperator(16, rows=np.arange(0, 16, 2))
    c = np.random.default_rng(16).standard_normal(16)
    vecs = {"y": sub.synthesize(c), "x0": c}
    if bad == "short":
        vecs[which] = vecs[which][:-1]
    else:
        vecs[which][3] = np.nan if bad == "nan" else np.inf
    with pytest.raises(ValueError, match=message):
        l1_min_general(L1Problem(observed=vecs["y"], op=sub, radius=0.1), x0=vecs["x0"])


@pytest.mark.parametrize("y, radius, x0, message", [
    (np.zeros(5), 0.0, None, "measurements must be a length-4 vector"),
    (np.ones((2, 2)), 5.0, None, "measurements must be a length-4 vector"),
    (np.zeros(4), 0.0, np.zeros(7), "coefficients must be a length-8 vector"),
    (np.ones(4), 5.0, np.full(8, np.nan), "coefficients contains non-finite entries"),
])
def test_l1_general_rejects_bad_input_inside_the_ball(y, radius, x0, message):
    # zero lies within the ball of each of these problems, so the solver
    # would return it at once; the inputs are checked before that return
    op = SensingOperator(8, rows=[0, 2, 5, 7])
    with pytest.raises(ValueError, match=message):
        l1_min_general(L1Problem(observed=y, op=op, radius=radius), x0=x0)


@pytest.mark.parametrize("field, value", [
    ("radius", np.nan), ("radius", -1e-9), ("radius", -np.inf),
    ("max_iters", 0), ("max_iters", -3), ("max_iters", 2.5), ("max_iters", True),
    ("tolerance", np.nan), ("tolerance", -1.0), ("tolerance", np.inf),
])
def test_l1_problem_rejects_values_that_void_its_certificate(field, value):
    # a NaN radius once returned zero as a certified solve, a cap below one
    # returned a negative duality gap, and a NaN or negative tolerance never
    # certified; a checked problem cannot take such a value later either
    sub = SensingOperator(16, rows=np.arange(0, 16, 2))
    y = sub.synthesize(np.random.default_rng(17).standard_normal(16))
    kwargs = {"radius": 0.1, field: value}
    with pytest.raises(ValueError, match=field):
        L1Problem(observed=y, op=sub, **kwargs)
    checked = L1Problem(observed=y, op=sub, radius=0.1)
    with pytest.raises(ValueError, match=field):
        dataclasses.replace(checked, **{field: value})
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(checked, field, value)


def test_l1_problem_infinite_radius_is_solved_by_zero():
    c = np.random.default_rng(18).standard_normal(16)
    full, sub = SensingOperator(16), SensingOperator(16, rows=np.arange(0, 16, 2))
    assert not l1_min_orthonormal(L1Problem(observed=full.synthesize(c), op=full,
                                            radius=np.inf)).any()
    res = l1_min_general(L1Problem(observed=sub.synthesize(c), op=sub, radius=np.inf))
    assert res.converged and res.iterations == 0 and res.state is None
    assert not res.coeffs.any()


# ---------------------------------------------------------------------------
# configured constraint radii


def test_action_radius_values():
    assert abs(action_radius(A_L0, 15, 0.3, 0.15, 0.04, 784) - 2.25) <= 1e-12
    assert abs(action_radius(A_L2, 15, 0.3, 0.15, 0.04, 784) - 0.3) <= 1e-12
    assert abs(action_radius(A_LINF, 15, 0.3, 0.15, 0.04, 784) - 1.12) <= 1e-12


def test_action_radius_rejects_greedy_action():
    with pytest.raises(ValueError):
        action_radius(0, 15, 0.3, 0.15, 0.04, 784)


# ---------------------------------------------------------------------------
# error-budget reporting


def test_check_bound_exact_recovery_is_zero():
    clean = np.array([1.0, 0.0, -2.0, 0.0])
    rep = check_bound(clean, clean.copy(), 2, 0.0)
    assert rep.empirical_l2_error == 0.0
    assert rep.sigma_k_l1 == 0.0
    assert rep.ratio is None


def test_check_bound_reports_tail_and_ratio():
    clean = np.array([5.0, -3.0, 1.0, 0.5])
    rep = check_bound(clean, np.array([5.0, -3.0, 0.0, 0.0]), 2, 0.5)
    assert abs(rep.sigma_k_l1 - 1.5) < 1e-12
    assert abs(rep.empirical_l2_error - np.hypot(1.0, 0.5)) < 1e-12
    assert abs(rep.ratio - rep.empirical_l2_error / 0.5) < 1e-12
    with pytest.raises(ValueError):
        check_bound(clean, clean, 2, -1.0)


def test_l1_error_dominated_by_twice_budget():
    # both the truth and the solution sit within radius of c, so the
    # recovered spectrum can stray at most two budgets from the truth
    op = SensingOperator(64)
    rng = np.random.default_rng(16)
    for _ in range(50):
        x = make_clean_sparse(64, 6, rng)
        eps = float(rng.uniform(0.05, 0.5))
        g = rng.standard_normal(64)
        y = op.synthesize(x + eps * g / np.linalg.norm(g))
        z = l1_min_orthonormal(L1Problem(observed=y, op=op, radius=eps))
        assert np.linalg.norm(z - x) <= 2 * eps + 1e-9


def test_error_grows_at_most_linearly_with_budget():
    # doubling the budget never more than doubles the mean error (1.1x slack)
    op = SensingOperator(64)
    clean = make_clean_sparse(64, 6, np.random.default_rng(0), amplitude=(2.0, 3.0))
    eps = 0.1
    means = []
    for scale in (1.0, 2.0):
        errs = []
        for seed in range(100):
            rng = np.random.default_rng([17, seed])
            g = rng.standard_normal(64)
            e = scale * eps * g / np.linalg.norm(g)
            y = op.synthesize(clean + e)
            z = l1_min_orthonormal(L1Problem(observed=y, op=op, radius=scale * eps))
            errs.append(np.linalg.norm(z - clean))
        means.append(np.mean(errs))
    assert means[1] <= 1.1 * 2.0 * means[0]
