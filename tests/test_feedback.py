"""Feedback-layer tests: residuals, Mahalanobis scoring against explicit-
and triangular-solve oracles, clean statistics, per-action predicates,
stopping."""

import numpy as np
import pytest
import scipy.linalg

from cad_defense import (ActionDistribution, AttackSpec, CleanStats,
                         FeedbackConfig, SensingOperator, cosamp_run,
                         draw_perturbation, estimate_clean_stats, feedback_bit,
                         load_clean_stats, mahalanobis,
                         make_clean_compressible, make_clean_sparse, residual,
                         save_clean_stats, should_stop, thresholded_count)
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


def _stats(mean, cov, ridge=0.0):
    return CleanStats(mean=np.asarray(mean, dtype=np.float64),
                      covariance=np.asarray(cov, dtype=np.float64),
                      ridge=ridge)


def test_mahalanobis_zero_at_mean():
    stats = _stats(np.array([1.0, -2.0]), np.eye(2))
    assert mahalanobis(np.array([1.0, -2.0]), stats) == 0.0


def test_mahalanobis_identity_metric():
    stats = _stats(np.zeros(3), np.eye(3))
    assert abs(mahalanobis(np.array([0.0, 1.0, 0.0]), stats) - 1.0) < 1e-12


def test_mahalanobis_diagonal_scaling():
    stats = _stats(np.zeros(2), np.diag([4.0, 1.0]))
    assert abs(mahalanobis(np.array([2.0, 0.0]), stats) - 1.0) < 1e-12


def test_mahalanobis_matches_explicit_solve():
    rng = np.random.default_rng(3)
    for _ in range(50):
        n = int(rng.integers(2, 12))
        b = rng.standard_normal((n, n))
        cov = b @ b.T + 0.1 * np.eye(n)
        mean = rng.standard_normal(n)
        ridge = float(rng.uniform(0.0, 0.5))
        v = rng.standard_normal(n)
        stats = _stats(mean, cov, ridge)
        d = v - mean
        oracle = np.sqrt(d @ np.linalg.solve(cov + ridge * np.eye(n), d))
        assert abs(mahalanobis(v, stats) - oracle) < 1e-9


def test_mahalanobis_covariance_scaling_law():
    rng = np.random.default_rng(4)
    b = rng.standard_normal((5, 5))
    cov = b @ b.T + np.eye(5)
    v = rng.standard_normal(5)
    base = mahalanobis(v, _stats(np.zeros(5), cov))
    scaled = mahalanobis(v, _stats(np.zeros(5), 4.0 * cov))
    assert abs(scaled - base / 2.0) < 1e-9


def test_mahalanobis_rejects_indefinite_covariance():
    stats = _stats(np.zeros(2), np.diag([1.0, -1.0]))
    with pytest.raises(scipy.linalg.LinAlgError, match="leading minor"):
        mahalanobis(np.ones(2), stats)


def test_mahalanobis_matches_triangular_solve_oracle():
    # harness-shaped: 26 clean residuals in n = 256 and the default ridge
    n, k = 256, 24
    op = SensingOperator(n)
    rng = np.random.default_rng(11)
    cleans = [op.synthesize(make_clean_compressible(n, k, rng)) for _ in range(26)]
    stats = estimate_clean_stats(cleans, op, k)
    reg = stats.covariance + stats.ridge * np.eye(n)
    cond = np.linalg.cond(reg)
    assert 1e6 < cond < 1e8
    chol = np.linalg.cholesky(reg)
    independent = scipy.linalg.cholesky(reg, lower=True)
    for t in range(30):
        r = np.random.default_rng([12, t])
        x = make_clean_compressible(n, k, r)
        if t % 2:
            x = x + draw_perturbation(AttackSpec(family="l2", eta=0.5, seed=t), n)
        v = cosamp_run(op.synthesize(x), op, k, 5).residual
        d = v - stats.mean
        md = mahalanobis(v, stats)
        oracle = np.linalg.norm(scipy.linalg.solve_triangular(chol, d, lower=True))
        assert abs(md - oracle) <= 1e-12 * oracle
        # scipy's own factor differs by round-off amplified up to cond * eps
        other = np.linalg.norm(scipy.linalg.solve_triangular(independent, d, lower=True))
        assert abs(md - other) <= cond * np.finfo(float).eps * other


def test_mahalanobis_names_the_first_failing_minor():
    stats = _stats(np.zeros(4), np.diag([1.0, 1.0, -1.0, 1.0]))
    with pytest.raises(np.linalg.LinAlgError, match="3-th leading minor"):
        mahalanobis(np.ones(4), stats)


def test_failing_minor_agrees_with_scipy():
    rng = np.random.default_rng(13)
    for _ in range(40):
        n = int(rng.integers(1, 40))
        b = rng.standard_normal((n, n))
        eig = rng.uniform(0.1, 2.0, n)
        eig[rng.integers(n)] = -float(rng.uniform(0.1, 2.0))
        q, _ = np.linalg.qr(b)
        cov = (q * eig) @ q.T
        cov = (cov + cov.T) / 2
        with pytest.raises(scipy.linalg.LinAlgError) as expected:
            scipy.linalg.cho_factor(cov, lower=True)
        with pytest.raises(np.linalg.LinAlgError) as got:
            mahalanobis(np.zeros(n), _stats(np.zeros(n), cov))
        assert str(got.value) == str(expected.value)


def test_mahalanobis_rejects_non_finite_covariance():
    stats = _stats(np.zeros(2), np.diag([1.0, np.nan]))
    with pytest.raises(ValueError, match="infs or NaNs"):
        mahalanobis(np.ones(2), stats)


def test_mahalanobis_dimension_check():
    stats = _stats(np.zeros(3), np.eye(3))
    with pytest.raises(ValueError):
        mahalanobis(np.zeros(4), stats)


def test_factor_is_cached():
    stats = _stats(np.zeros(2), np.eye(2))
    assert stats.factor() is stats.factor()


# ---------------------------------------------------------------------------
# clean statistics estimation


def test_clean_stats_exact_sparse_residuals_vanish():
    op = SensingOperator(32)
    rng = np.random.default_rng(5)
    cleans = [op.synthesize(make_clean_sparse(32, 4, rng)) for _ in range(10)]
    stats = estimate_clean_stats(cleans, op, 4, n_cosamp=5, ridge=1e-6)
    assert np.linalg.norm(stats.mean) <= 1e-8
    assert np.abs(stats.covariance).max() <= 1e-16
    assert stats.source_count == 10


def test_clean_stats_identical_signals_zero_covariance():
    op = SensingOperator(16)
    y = op.synthesize(make_clean_compressible(16, 3, np.random.default_rng(6)))
    stats = estimate_clean_stats([y, y, y], op, 3, ridge=1e-3)
    assert np.abs(stats.covariance).max() <= 1e-20


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
    expected = 1e-6 * np.trace(stats.covariance) / 16
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
        e = draw_perturbation(AttackSpec(family="l2", eta=0.3, seed=trial), n)
        v_att = cosamp_run(op.synthesize(x + e), op, k, 5).residual
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
    md = mahalanobis(v, _stats(np.zeros(16), 100.0 * np.eye(16)))
    assert md == pytest.approx(0.9)
    assert _bit(A_COSAMP, v, cfg, md=md) == 1
    assert _bit(A_COSAMP, v, cfg, md=70.0) == 0  # not under theta
    # a small but spiky residual: l2 norm 2 under alpha = 8 but max 2 over
    # m = 1.8; smallness alone accepts it, whatever its (clean) distance
    w = np.zeros(16)
    w[0] = 2.0
    md = mahalanobis(w, _stats(np.zeros(16), np.eye(16)))
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


def _dist(p_max):
    rest = (1.0 - p_max) / 3.0
    return ActionDistribution(probs=np.array([p_max, rest, rest, rest]))


def test_stop_on_probability():
    assert should_stop(_dist(0.85), 20.0, _cfg()) == 1


def test_stop_on_residual():
    assert should_stop(_dist(0.25), 1.5, _cfg()) == 1


def test_continue_when_neither_fires():
    assert should_stop(_dist(0.25), 10.0, _cfg()) == 0
    assert should_stop(_dist(0.25), _cfg().delta_res, _cfg()) == 0  # strict


def test_stop_monotone():
    cfg = _cfg()
    assert should_stop(_dist(0.85), 11.3, cfg) == 1
    assert should_stop(_dist(0.95), 11.3, cfg) == 1  # larger max still stops
    assert should_stop(_dist(0.85), 0.28, cfg) == 1  # smaller norm still stops


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
    assert np.array_equal(back.mean, stats.mean)
    assert np.array_equal(back.covariance, stats.covariance)
    assert back.ridge == stats.ridge and back.source_count == stats.source_count


def test_clean_stats_load_rejects_bad_size(tmp_path):
    path = tmp_path / "stats.f64"
    np.zeros(5).astype("<f8").tofile(path)
    (tmp_path / "stats.f64.json").write_text(
        '{"n": 4, "ridge": 0.0, "source_count": 2}')
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
