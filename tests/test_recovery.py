"""Recovery-action tests: CoSaMP convergence, the two l1 solvers against
independent oracles, constraint radii, and the bound report.

The SOCP oracle needs cvxpy and skips only its own tests without it; both
l1 solvers also carry a duality certificate that needs none, and the
buffered subsampled solver, which stops on that certificate's gap, is
checked bit for bit against a plain allocating copy of its loop.
"""

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cad_defense import (A_L0, A_L2, A_LINF, L1Problem, SensingOperator,
                         action_radius, analyze, check_bound, cosamp_run,
                         cosamp_step, l1_min_general, l1_min_orthonormal,
                         make_clean_sparse, top_k)
from cad_defense.recovery import CosampState, L1Result


def _socp_oracle(A, y, radius):
    """Independent constrained-l1 solve via an interior-point SOCP."""
    cp = pytest.importorskip("cvxpy")
    z = cp.Variable(A.shape[1])
    prob = cp.Problem(cp.Minimize(cp.norm1(z)), [cp.norm2(A @ z - y) <= radius])
    prob.solve(solver=cp.CLARABEL)
    return np.asarray(z.value), float(prob.value)


# ---------------------------------------------------------------------------
# CoSaMP


def test_cosamp_one_step_exact_noiseless():
    op = SensingOperator(32)
    x = make_clean_sparse(32, 4, np.random.default_rng(0))
    y = op.synthesize(x)
    state = CosampState(estimate=np.zeros(32), residual=y, iteration=0)
    nxt = cosamp_step(state, y, op, 4)
    assert np.abs(nxt.estimate - x).max() < 1e-12
    assert np.linalg.norm(nxt.residual) < 1e-12


def test_cosamp_zero_input_stays_zero():
    op = SensingOperator(16)
    run = cosamp_run(np.zeros(16), op, 3, 5)
    assert not run.final.estimate.any()
    assert not run.final.residual.any()


def test_cosamp_noiseless_exactness_batch():
    rng = np.random.default_rng(1)
    op = SensingOperator(64)
    for _ in range(200):
        k = int(rng.integers(1, 9))
        x = make_clean_sparse(64, k, rng)
        run = cosamp_run(op.synthesize(x), op, k, 5)
        rel = np.linalg.norm(run.final.estimate - x) / np.linalg.norm(x)
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
        run = cosamp_run(y, op, 2, 10)
        assert np.linalg.norm(run.final.estimate - x) <= 0.1


def test_cosamp_error_non_increasing_noiseless():
    op = SensingOperator(32)
    for seed in range(100):
        rng = np.random.default_rng([4, seed])
        x = make_clean_sparse(32, 5, rng)
        run = cosamp_run(op.synthesize(x), op, 5, 6)
        errs = [np.linalg.norm(s.estimate - x) for s in run.states[1:]]
        for a, b in zip(errs, errs[1:]):
            assert b <= a + 1e-12


def test_cosamp_warm_start_stays_noise_bounded():
    op = SensingOperator(32)
    rng = np.random.default_rng(5)
    x = make_clean_sparse(32, 4, rng)
    e = rng.standard_normal(32)
    e *= 0.05 / np.linalg.norm(e)
    y = op.synthesize(x + e)
    run = cosamp_run(y, op, 4, 8, x0=x)
    for state in run.states:
        # never drifts beyond the noise scale once started at the answer
        assert np.linalg.norm(state.estimate - x) <= 2 * 0.05


def test_cosamp_iterates_sparse_and_merge_bounded():
    op = SensingOperator(64)
    rng = np.random.default_rng(6)
    x = make_clean_sparse(64, 6, rng)
    y = op.synthesize(x + 0.3 * rng.standard_normal(64) / 8.0)
    run = cosamp_run(y, op, 6, 6)
    for prev, cur in zip(run.states, run.states[1:]):
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
        run = cosamp_run(sub.synthesize(x), sub, 2, 10)
        assert np.linalg.norm(run.final.estimate - x) < 1e-6


def test_cosamp_run_validation():
    op = SensingOperator(8)
    with pytest.raises(ValueError):
        cosamp_run(np.zeros(8), op, 0, 3)
    with pytest.raises(ValueError):
        cosamp_run(np.zeros(8), op, 2, -1)
    run = cosamp_run(np.zeros(8), op, 2, 0)
    assert len(run.states) == 1 and run.final.iteration == 0


def _reference_cosamp_states(y, op, k, n_iters, x0=None):
    """The loop without the fixed-point exit: every one of n_iters steps is computed."""
    y = np.asarray(y, dtype=np.float64)
    est = np.zeros(op.n) if x0 is None else top_k(np.asarray(x0, dtype=np.float64), k)
    state = CosampState(estimate=est, residual=y - op.synthesize(est), iteration=0)
    states = [state]
    for _ in range(n_iters):
        state = cosamp_step(state, y, op, k)
        states.append(state)
    return states


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
        run = cosamp_run(y, op, k, n_iters, x0=x0)
        ref = _reference_cosamp_states(y, op, k, n_iters, x0=x0)
        assert len(run.states) == len(ref) == n_iters + 1
        for ours, theirs in zip(run.states, ref):
            assert ours.estimate.tobytes() == theirs.estimate.tobytes()
            assert ours.residual.tobytes() == theirs.residual.tobytes()
            assert ours.iteration == theirs.iteration


def test_cosamp_run_stops_computing_at_a_fixed_point(monkeypatch):
    # on the full operator the second step from a zero start repeats the first
    import cad_defense.recovery as recovery
    op, y = SensingOperator(16), SensingOperator(16).synthesize(np.arange(16.0))
    steps = []
    real_step = recovery.cosamp_step
    monkeypatch.setattr(recovery, "cosamp_step",
                        lambda *a: steps.append(1) or real_step(*a))
    run = recovery.cosamp_run(y, op, 4, 10)
    assert len(steps) == 2
    assert [s.iteration for s in run.states] == list(range(11))
    assert run.final.estimate.tobytes() == top_k(op.analyze(y), 4).tobytes()


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
        _, obj = _socp_oracle(op.matrix, y, radius)
        assert abs(np.abs(ours).sum() - obj) <= 1e-6
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
    _, obj = _socp_oracle(op.matrix, y, 1.5)
    assert abs(np.abs(ours).sum() - obj) <= 1e-6


def test_l1_orthonormal_rejects_subsampled():
    sub = SensingOperator(8, rows=[0, 1, 2])
    with pytest.raises(ValueError):
        l1_min_orthonormal(L1Problem(observed=np.zeros(3), op=sub, radius=0.1))
    with pytest.raises(ValueError):
        L1Problem(observed=np.zeros(8), op=SensingOperator(8), radius=-1.0)


@pytest.mark.parametrize("radius", [0.0, 0.5, 3.0, 1e3])
def test_l1_orthonormal_cached_coefficients_give_the_same_bytes(radius):
    op = SensingOperator(32)
    y = op.synthesize(np.random.default_rng(17).standard_normal(32))
    c = op.analyze(y)
    p = L1Problem(observed=y, op=op, radius=radius)
    out = l1_min_orthonormal(p, coeffs=c)
    assert out.tobytes() == l1_min_orthonormal(p).tobytes()
    out[:] = 7.0  # the result never aliases the caller's coefficients
    assert c.tobytes() == op.analyze(y).tobytes()


def test_l1_orthonormal_rejects_bad_cached_coefficients():
    op = SensingOperator(8)
    y = op.synthesize(np.arange(8.0))
    p = L1Problem(observed=y, op=op, radius=0.1)
    nan = op.analyze(y)
    nan[2] = np.nan
    for bad in (op.analyze(y)[:-1], nan):
        with pytest.raises(ValueError, match="cached coefficients"):
            l1_min_orthonormal(p, coeffs=bad)
    sub = SensingOperator(8, rows=[0, 1, 2])
    with pytest.raises(ValueError, match="full operator"):
        l1_min_orthonormal(L1Problem(observed=y[:3], op=sub, radius=0.1),
                           coeffs=op.analyze(y))


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
        _, obj = _socp_oracle(sub.matrix, y, 0.3)
        assert abs(np.abs(res.coeffs).sum() - obj) <= 1e-4


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


def _reference_project_ball(z, y, op, radius):
    """Allocating ball projection through the validating operator calls."""
    w = op.synthesize(z) - y
    nw = np.linalg.norm(w)
    if nw <= radius:
        return z
    scale = 1.0 if radius == 0.0 else 1.0 - radius / nw
    return z - op.adjoint(scale * w)


def _reference_certificate(v, y, op, radius, tolerance, s, step):
    """Allocating duality certificate through the validating operator calls;
    at radius 0 its dual point comes from the prox subgradient at s."""
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
    return feasibility <= 1e-6 and gap <= tolerance * l1, feasibility, gap


def _reference_l1_min_general(p, x0=None):
    """The allocating Douglas-Rachford loop that l1_min_general must match bit for bit."""
    y = np.asarray(p.observed, dtype=np.float64)
    if np.linalg.norm(y) <= p.radius:
        return L1Result(np.zeros(p.op.n), 0, True, 0.0, 0.0)
    step = 0.1 * float(np.abs(p.op.adjoint(y)).max())
    if step <= 0.0:
        step = 1.0
    s = np.asarray(x0, dtype=np.float64).copy() if x0 is not None else p.op.adjoint(y)
    z = np.zeros(p.op.n)
    it = 0
    for it in range(1, p.max_iters + 1):
        z = np.sign(s) * np.maximum(np.abs(s) - step, 0.0)
        v = _reference_project_ball(2.0 * z - s, y, p.op, p.radius)
        if it % 10 == 0:  # the certificate is evaluated every tenth iteration
            certified, feasibility, gap = _reference_certificate(v, y, p.op, p.radius,
                                                                 p.tolerance, s, step)
            if certified:
                return L1Result(v, it, True, feasibility, gap)
        s = s + v - z
    return L1Result(z, it, *_reference_certificate(z, y, p.op, p.radius, p.tolerance,
                                                   s, step))


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
    assert rep.empirical_l1_error == 0.0
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
