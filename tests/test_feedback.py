"""Feedback-layer tests: residuals, Mahalanobis scoring against explicit-
and triangular-solve oracles built from numpy's sample covariance and a
50-digit reference, clean statistics, per-action predicates, stopping."""

import dataclasses
import json

import mpmath as mp
import numpy as np
import pytest
import scipy.linalg

from cad_defense import (AttackSpec, CleanStats, FeedbackConfig,
                         SensingOperator, cosamp_run, estimate_clean_stats,
                         feedback_bit, load_clean_stats, mahalanobis,
                         make_clean_compressible, make_clean_sparse, perturb,
                         residual, save_clean_stats, should_stop,
                         thresholded_count)
from cad_defense.recovery import A_COSAMP, A_L0, A_L2, A_LINF

MNIST_THRESHOLDS = dict(alpha=8.0, beta=5.0, m=1.8, tau=15, theta=65.0)


def _cfg(**overrides):
    params = dict(MNIST_THRESHOLDS)
    params.update(overrides)
    return FeedbackConfig(**params)


# ---------------------------------------------------------------------------
# residual


def test_residual_of_exact_analysis_is_zero():
    op = SensingOperator(16)
    y = np.random.default_rng(0).standard_normal(16)
    v = residual(y, op.analyze(y), op)
    assert np.abs(v).max() < 1e-10


def test_residual_of_zero_estimate_is_observation():
    op = SensingOperator(16)
    y = np.random.default_rng(1).standard_normal(16)
    assert np.array_equal(residual(y, np.zeros(16), op), y)


def test_residual_dimension_check():
    op = SensingOperator(16)
    with pytest.raises(ValueError):
        residual(np.zeros(15), np.zeros(16), op)


@pytest.mark.parametrize("n", [16, 64, 784])
def test_support_residual_is_within_the_dot_product_bound_of_the_dense_one(n):
    # each entry of A x is a dot product of at most n terms, and each
    # computed one lies within n eps sum_j |A_ij x_j| of the exact value
    # whatever the order of summation (Higham, Accuracy and Stability of
    # Numerical Algorithms, 3.1), so the support product and the dense one
    # differ by at most twice that; the subtraction from y rounds each once
    op = SensingOperator(n)
    eps = np.finfo(np.float64).eps
    rng = np.random.default_rng(n)
    for y in (np.zeros(n), rng.standard_normal(n) * 10.0):
        for size in (0, 1, n // 8, n):
            x = np.zeros(n)
            support = rng.choice(n, size, replace=False)
            x[support] = rng.standard_normal(size) * 10.0 ** rng.uniform(-3.0, 3.0, size)
            ours, dense = residual(y, x, op), y - op.synthesize(x)
            bound = (2 * n * eps * (np.abs(op.columns(np.arange(op.n))) @ np.abs(x))
                     + eps * (np.abs(ours) + np.abs(dense)))
            assert np.all(np.abs(ours - dense) <= bound), (n, size)


@pytest.mark.parametrize("n", [16, 784])
def test_residual_of_zero_estimate_is_the_bytes_of_the_observation(n):
    op = SensingOperator(n)
    y = np.random.default_rng(n).standard_normal(n)
    y[::5] = -0.0
    assert residual(y, np.zeros(n), op).tobytes() == y.tobytes()


def test_row_subset_residual_is_within_the_dot_product_bound_of_the_dense_one():
    # the bound of the full-operator test above, over the rows kept
    op = SensingOperator(64, rows=np.arange(0, 64, 3))
    eps = np.finfo(np.float64).eps
    rng = np.random.default_rng(5)
    y = rng.standard_normal(op.m)
    for size in (0, 1, 8, 64):
        x = np.zeros(64)
        x[rng.choice(64, size, replace=False)] = (rng.standard_normal(size)
                                                  * 10.0 ** rng.uniform(-3.0, 3.0, size))
        ours, dense = residual(y, x, op), y - op.synthesize(x)
        bound = (2 * op.n * eps * (np.abs(op.columns(np.arange(op.n))) @ np.abs(x))
                 + eps * (np.abs(ours) + np.abs(dense)))
        assert np.all(np.abs(ours - dense) <= bound), size


def test_residual_rejects_the_estimates_synthesize_rejects():
    nan = np.zeros(16)
    nan[3] = np.nan
    for op in (SensingOperator(16), SensingOperator(16, rows=[0, 2, 5])):
        y = np.zeros(op.m)
        for bad in (np.zeros(15), nan, np.zeros((16, 1))):
            with pytest.raises(ValueError) as want:
                op.synthesize(bad)
            with pytest.raises(ValueError) as got:
                residual(y, bad, op)
            assert str(got.value) == str(want.value)


# ---------------------------------------------------------------------------
# thresholded count


def test_thresholded_count_is_strict():
    v = np.array([0.5, -0.5, 0.6, 0.0, -0.7])
    assert thresholded_count(v, 0.5) == 2


def test_thresholded_count_monotone_in_threshold():
    rng = np.random.default_rng(2)
    v = rng.standard_normal(100)
    counts = [thresholded_count(v, t) for t in np.linspace(0.0, 3.0, 30)]
    for a, b in zip(counts, counts[1:]):
        assert b <= a


# ---------------------------------------------------------------------------
# Mahalanobis distance


def _stats(residuals, ridge=0.0):
    return CleanStats(np.asarray(residuals, dtype=np.float64), ridge)


def _sample_cov(stats):
    return np.atleast_2d(np.cov(stats.residuals, rowvar=False, ddof=1))


def _dense_regularized(stats):
    """C + ridge I built independently, from numpy's sample covariance."""
    return _sample_cov(stats) + stats.ridge * np.eye(stats.n)


def test_mahalanobis_zero_at_mean():
    stats = _stats([[1.0, -2.0], [1.0, -2.0]], ridge=1.0)
    assert mahalanobis(np.array([1.0, -2.0]), stats) == 0.0


def test_mahalanobis_identity_metric():
    # equal residuals leave C = 0, and a unit ridge makes C + ridge I = I
    stats = _stats(np.zeros((2, 3)), ridge=1.0)
    assert abs(mahalanobis(np.array([0.0, 1.0, 0.0]), stats) - 1.0) < 1e-12


def test_mahalanobis_diagonal_scaling():
    # residuals +-e1 give C = diag(2, 0); ridge 2 makes it diag(4, 2)
    stats = _stats([[1.0, 0.0], [-1.0, 0.0]], ridge=2.0)
    assert abs(mahalanobis(np.array([2.0, 0.0]), stats) - 1.0) < 1e-12
    assert abs(mahalanobis(np.array([0.0, 2.0]), stats) - np.sqrt(2.0)) < 1e-12


def test_mahalanobis_matches_explicit_solve():
    rng = np.random.default_rng(3)
    for _ in range(50):
        n = int(rng.integers(2, 12))
        count = int(rng.integers(2, 2 * n + 3))  # fewer and more rows than n
        stats = _stats(rng.standard_normal((count, n)) * rng.uniform(0.2, 2.0),
                       float(rng.uniform(0.1, 0.6)))
        v = rng.standard_normal(n)
        d = v - stats.mean
        oracle = np.sqrt(d @ np.linalg.solve(_dense_regularized(stats), d))
        assert abs(mahalanobis(v, stats) - oracle) < 1e-9


def test_mahalanobis_at_ridge_zero_matches_explicit_solve():
    # N - 1 >= n residuals give a full-rank C: no ridge is needed
    rng = np.random.default_rng(14)
    for _ in range(50):
        n = int(rng.integers(1, 12))
        count = int(rng.integers(2 * n + 1, 4 * n + 3))
        stats = _stats(rng.standard_normal((count, n)), 0.0)
        v = rng.standard_normal(n)
        d = v - stats.mean
        oracle = np.sqrt(d @ np.linalg.solve(_dense_regularized(stats), d))
        assert abs(mahalanobis(v, stats) - oracle) <= 1e-12 * oracle


def test_mahalanobis_at_ridge_zero_is_singular_below_n_plus_one_residuals():
    # C has rank at most N - 1, so N <= n residuals need a ridge; statistics
    # that could not whiten a residual are refused when built
    for count, n in ((5, 5), (3, 8), (2, 2)):
        residuals = np.random.default_rng(count).standard_normal((count, n))
        with pytest.raises(np.linalg.LinAlgError,
                           match=f"{count} clean residuals in dimension {n}.*ridge 0"):
            _stats(residuals, 0.0)
    # enough rows, but all equal: C = 0
    with pytest.raises(np.linalg.LinAlgError, match="singular at ridge 0"):
        _stats(np.ones((6, 2)), 0.0)
    # a ridge regularizes either: C + ridge I = 0.5 I
    stats = _stats(np.ones((6, 2)), 0.5)
    assert np.array_equal(stats.scale, [0.5, 0.5])
    assert mahalanobis(np.zeros(2), stats) > 0.0


def test_mahalanobis_covariance_scaling_law():
    # residuals x2 (and the ridge x4) make C + ridge I four times larger
    rng = np.random.default_rng(4)
    for count, ridge in ((5, 0.0), (2, 0.3)):
        b = rng.standard_normal((count, 5))
        residuals = np.vstack([b, -b])  # mean exactly zero at both scales
        v = rng.standard_normal(5)
        base = mahalanobis(v, _stats(residuals, ridge))
        scaled = mahalanobis(v, _stats(2.0 * residuals, 4.0 * ridge))
        assert abs(scaled - base / 2.0) < 1e-9


def _high_precision_distance(stats, digits=50):
    """md to `digits` digits by the push-through identity
    (X^T X + r I)^{-1} = (I - X^T (X X^T + r I)^{-1} X) / r, on the exact
    float64 residuals: an N x N solve, no n x n matrix and no SVD."""
    mp.mp.dps = digits
    rows = mp.matrix(stats.residuals.tolist())
    count, n = stats.residuals.shape
    mean = [mp.fsum(rows[i, j] for i in range(count)) / count for j in range(n)]
    x = mp.matrix(count, n)
    for i in range(count):
        for j in range(n):
            x[i, j] = (rows[i, j] - mean[j]) / mp.sqrt(count - 1)
    r = mp.mpf(stats.ridge)
    inner = mp.inverse(x * x.T + r * mp.eye(count))

    def distance(v):
        d = mp.matrix([mp.mpf(float(v[j])) - mean[j] for j in range(n)])
        xd = x * d
        return mp.sqrt((mp.fsum(e * e for e in d) - (xd.T * inner * xd)[0]) / r)
    return distance


def test_mahalanobis_matches_triangular_solve_oracle():
    # harness-shaped: 26 clean residuals in n = 256 and the default ridge
    n, k = 256, 24
    op = SensingOperator(n)
    rng = np.random.default_rng(11)
    cleans = [op.synthesize(make_clean_compressible(n, k, rng)) for _ in range(26)]
    stats = estimate_clean_stats(cleans, op, k)
    reg = _dense_regularized(stats)
    cond = np.linalg.cond(reg)
    assert 1e6 < cond < 1e8
    independent = scipy.linalg.cholesky(reg, lower=True)
    reference = _high_precision_distance(stats)
    for t in range(30):
        r = np.random.default_rng([12, t])
        x = make_clean_compressible(n, k, r)
        y = op.synthesize(x)
        if t % 2:
            y = perturb(x, AttackSpec(family="l2", eta=0.5, seed=t), op).observed
        v = cosamp_run(y, op, k, 5).residual
        d = v - stats.mean
        md = mahalanobis(v, stats)
        exact = float(reference(v))
        assert abs(md - exact) <= 1e-12 * exact
        # the dense factor's round-off is amplified up to cond * eps
        other = np.linalg.norm(scipy.linalg.solve_triangular(independent, d, lower=True))
        assert abs(md - other) <= cond * np.finfo(float).eps * other


def test_clean_stats_rejects_non_finite_residuals():
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="finite"):
            _stats([[0.0, 1.0], [bad, 0.0]], ridge=1.0)


def test_clean_stats_is_its_residuals_and_ridge():
    assert [f.name for f in dataclasses.fields(CleanStats) if f.init] == \
        ["residuals", "ridge"]
    stats = _stats([[1.0, 2.0, 3.0], [3.0, 2.0, 1.0], [2.0, 2.0, 2.0]], ridge=0.5)
    assert stats.n == 3 and stats.source_count == 3
    assert np.array_equal(stats.mean, [2.0, 2.0, 2.0])
    assert stats.basis.shape == (3, 3) and stats.scale.shape == (3,)
    for residuals in (np.zeros(4), np.zeros((1, 4)), np.zeros((2, 2, 2))):
        with pytest.raises(ValueError, match="at least two"):
            _stats(residuals, ridge=1.0)
    # no ridge is the default: 1e-6 x the summed column variances 1, 0, 1 / n
    assert CleanStats(stats.residuals).ridge == 1e-6 * 2.0 / 3
    assert CleanStats(stats.residuals, None).ridge == 1e-6 * 2.0 / 3
    for ridge in (-1e-9, np.nan, np.inf, True, "1"):
        with pytest.raises(ValueError, match="ridge"):
            _stats(np.zeros((2, 2)), ridge=ridge)


def test_mahalanobis_dimension_check():
    stats = _stats(np.zeros((2, 3)), ridge=1.0)
    with pytest.raises(ValueError):
        mahalanobis(np.zeros(4), stats)


def test_factor_is_cached(monkeypatch):
    # one SVD per CleanStats, when it is built, however many distances read it
    calls = []
    svd = np.linalg.svd

    def counted(*args, **kwargs):
        calls.append(1)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    stats = _stats(np.eye(3), ridge=1.0)
    assert len(calls) == 1
    for v in np.eye(3):
        mahalanobis(v, stats)
    assert len(calls) == 1


# ---------------------------------------------------------------------------
# clean statistics estimation


def test_clean_stats_exact_sparse_residuals_vanish():
    op = SensingOperator(32)
    rng = np.random.default_rng(5)
    cleans = [op.synthesize(make_clean_sparse(32, 4, rng)) for _ in range(10)]
    stats = estimate_clean_stats(cleans, op, 4, n_cosamp=5, ridge=1e-6)
    assert np.linalg.norm(stats.mean) <= 1e-8
    assert np.abs(_sample_cov(stats)).max() <= 1e-16
    assert stats.source_count == 10


def test_clean_stats_identical_signals_zero_covariance():
    op = SensingOperator(16)
    y = op.synthesize(make_clean_compressible(16, 3, np.random.default_rng(6)))
    stats = estimate_clean_stats([y, y, y], op, 3, ridge=1e-3)
    assert np.abs(_sample_cov(stats)).max() <= 1e-20
    assert np.abs(stats.scale - 1e-3).max() <= 1e-20


def test_clean_stats_needs_two_signals():
    op = SensingOperator(16)
    y = op.synthesize(make_clean_sparse(16, 3, np.random.default_rng(7)))
    with pytest.raises(ValueError):
        estimate_clean_stats([y], op, 3)


def test_clean_stats_accepts_generator_and_default_ridge():
    op = SensingOperator(16)
    rng = np.random.default_rng(8)
    gen = (op.synthesize(make_clean_compressible(16, 3, rng)) for _ in range(12))
    stats = estimate_clean_stats(gen, op, 3)
    expected = 1e-6 * np.trace(_sample_cov(stats)) / 16
    assert abs(stats.ridge - expected) < 1e-18
    mahalanobis(np.zeros(16), stats)  # factorization succeeds


def test_mahalanobis_separates_clean_from_attacked():
    # fresh clean residuals score below eta = 0.3 attacked ones
    n, k, tail = 64, 8, 0.2
    op = SensingOperator(n)
    rng = np.random.default_rng(100)
    cleans = [op.synthesize(make_clean_compressible(n, k, rng, tail_norm=tail))
              for _ in range(100)]
    stats = estimate_clean_stats(cleans, op, k, n_cosamp=5, ridge=1e-4)
    wins = 0
    for trial in range(500):
        r = np.random.default_rng([101, trial])
        fresh = op.synthesize(make_clean_compressible(n, k, r, tail_norm=tail))
        v_clean = cosamp_run(fresh, op, k, 5).residual
        x = make_clean_compressible(n, k, r, tail_norm=tail)
        attacked = perturb(x, AttackSpec(family="l2", eta=0.3, seed=trial), op).observed
        v_att = cosamp_run(attacked, op, k, 5).residual
        wins += mahalanobis(v_clean, stats) < mahalanobis(v_att, stats)
    assert wins >= 0.95 * 500


# ---------------------------------------------------------------------------
# per-action feedback predicates


def _bit(action, v, cfg, v_spec=None, md=None):
    """The predicate on v's features, its count taken on v_spec (default v)."""
    v_spec = v if v_spec is None else v_spec
    return feedback_bit(action, float(np.linalg.norm(v)), float(np.abs(v).max()),
                        thresholded_count(v_spec, cfg.count_threshold), cfg, md)


def test_a1_zero_residual_succeeds():
    assert _bit(A_COSAMP, np.zeros(8), _cfg()) == 1
    assert feedback_bit(A_COSAMP, 0.0, 0.0, 0, _cfg()) == 1


def test_a2_sparse_count_example():
    # l2 norm 10 over alpha = 8, 12 thresholded entries under tau = 15
    v = np.zeros(64)
    v[:12] = 10.0 / np.sqrt(12.0)
    assert abs(np.linalg.norm(v) - 10.0) < 1e-12
    assert thresholded_count(v, 0.5) == 12
    assert _bit(A_L0, v, _cfg()) == 1
    # over tau entries flips it
    w = np.zeros(64)
    w[:20] = 10.0 / np.sqrt(20.0)
    assert _bit(A_L0, w, _cfg()) == 0


def test_a3_a4_interval_split():
    v = np.zeros(64)
    v[0] = 6.0
    v[1:] = 8.0 / np.sqrt(63.0)  # fills out the l2 norm past alpha
    assert np.linalg.norm(v) > 8.0 and np.abs(v).max() == 6.0
    assert _bit(A_LINF, v, _cfg()) == 1
    assert _bit(A_L2, v, _cfg()) == 0  # max entry above beta
    w = np.zeros(64)
    w[0] = 3.0
    w[1:] = 9.0 / np.sqrt(63.0)
    assert _bit(A_L2, w, _cfg()) == 1  # max in (m, beta)
    assert _bit(A_LINF, w, _cfg()) == 0


def test_a3_a4_mutually_exclusive():
    rng = np.random.default_rng(9)
    cfg = _cfg()
    for _ in range(200):
        v = rng.standard_normal(32) * float(rng.choice([0.5, 2.0, 8.0]))
        assert _bit(A_L2, v, cfg) + _bit(A_LINF, v, cfg) <= 1
        if np.abs(v).max() <= cfg.m:
            assert _bit(A_L2, v, cfg) == 0
            assert _bit(A_LINF, v, cfg) == 0


def test_small_residual_fails_attack_actions():
    v = np.full(16, 0.1)
    cfg = _cfg()
    assert _bit(A_L0, v, cfg) == 0
    assert _bit(A_L2, v, cfg) == 0
    assert _bit(A_LINF, v, cfg) == 0


def test_a1_md_clause_requires_stats():
    v = np.zeros(16)
    v[0] = 9.0  # l2 norm above alpha, so only the MD clause could save it
    cfg = _cfg(m=100.0)
    assert _bit(A_COSAMP, v, cfg) == 0  # no distance, no clause
    # equal residuals leave C = 0, so C + ridge I = 100 I
    md = mahalanobis(v, _stats(np.zeros((2, 16)), 100.0))
    assert md == pytest.approx(0.9)
    assert _bit(A_COSAMP, v, cfg, md=md) == 1
    assert _bit(A_COSAMP, v, cfg, md=70.0) == 0  # not under theta
    # a small but spiky residual: l2 norm 2 under alpha = 8 but max 2 over
    # m = 1.8; smallness alone accepts it, whatever its (clean) distance
    w = np.zeros(16)
    w[0] = 2.0
    md = mahalanobis(w, _stats(np.zeros((2, 16)), 1.0))
    assert md == 2.0 < 65.0
    assert _bit(A_COSAMP, w, _cfg(), md=md) == 1
    assert _bit(A_COSAMP, w, _cfg()) == 1


def test_count_taken_from_spectral_view_when_given():
    v = np.full(64, 1.2)  # dense in the measurement domain: count 64
    v_spec = np.zeros(64)
    v_spec[:5] = 3.0      # sparse in the transform domain: count 5
    # scale v so its l2 norm clears alpha
    v = v * (9.0 / np.linalg.norm(v))
    assert _bit(A_L0, v, _cfg(), v_spec) == 1
    assert _bit(A_L0, v, _cfg()) == 0  # pixel count 64 over tau
    with pytest.raises(TypeError):
        feedback_bit(A_L0, 9.0, 1.2, _cfg())  # the count is required


def test_feedback_bit_unknown_action():
    with pytest.raises(ValueError):
        feedback_bit(7, 0.0, 0.0, 0, _cfg())


# ---------------------------------------------------------------------------
# stopping rule


def test_stop_on_probability():
    assert should_stop(0.85, 20.0, _cfg()) == "prob"


def test_stop_on_residual():
    assert should_stop(0.25, 1.5, _cfg()) == "residual"


def test_continue_when_neither_fires():
    assert should_stop(0.25, 10.0, _cfg()) is None
    assert should_stop(0.25, _cfg().delta_res, _cfg()) is None  # strict
    assert should_stop(_cfg().delta_prob, 10.0, _cfg()) is None  # strict


def test_stop_monotone():
    cfg = _cfg()
    assert should_stop(0.85, 11.3, cfg) == "prob"
    assert should_stop(0.95, 11.3, cfg) == "prob"  # larger max still stops
    assert should_stop(0.85, 0.28, cfg) == "prob"  # smaller norm still stops


def test_probability_clause_wins_when_both_hold():
    assert should_stop(0.95, 0.1, _cfg()) == "prob"


# ---------------------------------------------------------------------------
# persistence


def test_clean_stats_round_trip(tmp_path):
    op = SensingOperator(16)
    rng = np.random.default_rng(10)
    cleans = [op.synthesize(make_clean_compressible(16, 3, rng)) for _ in range(8)]
    stats = estimate_clean_stats(cleans, op, 3, ridge=1e-5)
    path = tmp_path / "stats_ch0.f64"
    save_clean_stats(stats, path)
    back = load_clean_stats(path)
    assert back.residuals.tobytes() == stats.residuals.tobytes()
    assert back.mean.tobytes() == stats.mean.tobytes()
    assert back.ridge == stats.ridge and back.source_count == stats.source_count == 8
    assert path.stat().st_size == 8 * 16 * 8


def test_clean_stats_load_rejects_bad_size(tmp_path):
    path = tmp_path / "stats.f64"
    np.zeros(5).astype("<f8").tofile(path)
    (tmp_path / "stats.f64.json").write_text(
        '{"n": 4, "rows": 2, "ridge": 1.0}')
    with pytest.raises(ValueError):
        load_clean_stats(path)


@pytest.mark.parametrize("width, key, value", [
    (3, "n", "3"), (3, "n", 3.0), (3, "rows", 5.0), (3, "rows", 5.7), (1, "n", True),
    (3, "ridge", "0.0001"), (3, "ridge", True), (3, "ridge", None)])
def test_clean_stats_load_rejects_sidecar_types(tmp_path, width, key, value):
    # each of these would load as 5 x width residuals if cast, rows 5.7 by truncation
    path = tmp_path / "stats.f64"
    save_clean_stats(CleanStats(np.random.default_rng(0).standard_normal((5, width)),
                                1e-4), path)
    load_clean_stats(path)
    sidecar = tmp_path / "stats.f64.json"
    sidecar.write_text(json.dumps({**json.loads(sidecar.read_text()), key: value}))
    with pytest.raises(ValueError):
        load_clean_stats(path)


def test_feedback_config_validation():
    with pytest.raises(ValueError):
        _cfg(alpha=-1.0)
    with pytest.raises(ValueError):
        _cfg(t_max=0)
    bad = [dict(t_max=2.5), dict(t_max=True), dict(tau=2.5), dict(tau=True),
           dict(alpha=np.nan), dict(theta=np.nan), dict(delta_res=np.nan),
           dict(count_threshold=np.nan), dict(m="big"), dict(beta=True)]
    for fields in bad:
        with pytest.raises(ValueError):
            _cfg(**fields)
    # infinity starves a clause, which the fallback tests rely on
    _cfg(alpha=np.inf, beta=np.inf, m=np.inf, theta=np.inf, tau=np.int64(3))
    for removed in ("a1_precedence", "l0_count_gate"):
        with pytest.raises(TypeError):
            _cfg(**{removed: None})
