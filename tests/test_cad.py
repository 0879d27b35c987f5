"""Defence-loop tests: stopping, fallback, trace consistency, determinism,
schedules, and family identification on a calibrated ensemble.

The loop is also checked bit for bit against a plain copy of the loop that
recomputes every action's evidence on every iteration and, on a row subset,
reuses the chosen l1 action's latest converged solve as the final answer.
"""

import functools
import logging
import math

import numpy as np
import pytest
from hypothesis import given, settings

import cad_defense.cad
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from cad_defense import (ACTION_LABELS, FALLBACK_LABEL, AttackSpec,
                         BanditState, CadConfig, FeedbackConfig, L1Problem,
                         SensingOperator, action_radius, cad_run, cosamp_run,
                         estimate_clean_stats, inner_iterations,
                         l1_min_general, l1_min_orthonormal,
                         make_clean_compressible, make_clean_sparse, perturb,
                         probabilities, reward, run_action, top_k, update)
from cad_defense.bandit import penalty_clamped, sample_action
from cad_defense.cad import CadIterationRecord, CadOutcome, CadTrace
from cad_defense.feedback import (feedback_bit, mahalanobis, residual,
                                  should_stop, thresholded_count)
from cad_defense.recovery import A_COSAMP, A_L0, A_L2, A_LINF, N_ACTIONS

MNIST_FB = dict(alpha=8.0, beta=5.0, m=1.8, tau=15, theta=65.0)


def _fb(**overrides):
    params = dict(MNIST_FB)
    params.update(overrides)
    return FeedbackConfig(**params)


def _clean_instance(n=64, k=6, seed=0):
    op = SensingOperator(n)
    x = make_clean_sparse(n, k, np.random.default_rng(seed))
    return op, x, op.synthesize(x)


# ---------------------------------------------------------------------------
# inner-iteration schedule


def test_schedule_base_and_growth():
    assert inner_iterations(1, (3, 2)) == 3
    assert inner_iterations(3, (3, 2)) == 7
    assert inner_iterations(5, (1, 4)) == 17


def test_schedule_constant_when_increment_zero():
    for times in range(1, 6):
        assert inner_iterations(times, (4, 0)) == 4


def test_schedule_monotone_and_validated():
    budgets = [inner_iterations(t, (3, 2)) for t in range(1, 10)]
    assert budgets == sorted(budgets)
    with pytest.raises(ValueError):
        inner_iterations(0, (3, 2))
    with pytest.raises(ValueError):
        CadConfig(k=2, feedback=_fb(), inner_schedule=(0, 2))


# ---------------------------------------------------------------------------
# run_action mirrors the underlying solvers


def test_run_action_l1_matches_direct_solve():
    op, x, y = _clean_instance()
    cfg = CadConfig(k=6, feedback=_fb())
    out, _ = run_action(A_L2, y, op, cfg, budget=3)
    radius = action_radius(A_L2, cfg.feedback.tau, cfg.eta, cfg.eta_prime,
                           cfg.eta_dprime, op.n)
    direct = l1_min_orthonormal(L1Problem(observed=y, op=op, radius=radius))
    assert np.array_equal(out, direct)


def test_run_action_cosamp_continues_from_start():
    op, x, y = _clean_instance()
    cfg = CadConfig(k=6, feedback=_fb())
    out, _ = run_action(A_COSAMP, y, op, cfg, budget=1, x_start=x)
    assert np.abs(out - x).max() < 1e-10


@settings(max_examples=200, deadline=None)
@given(data=st.data(), n=st.integers(1, 48), steps=st.integers(1, 4))
def test_full_operator_cosamp_is_top_k_of_analysis(data, n, steps):
    # from a zero start the first proxy is F y itself, and every least-squares
    # step on the full operator restricts F y, so the iterates never move;
    # magnitudes stay where F y cannot overflow, which the operator rejects
    y = data.draw(arrays(np.float64, n, elements=st.floats(-1e150, 1e150)))
    k = data.draw(st.integers(1, n))
    op = SensingOperator(n)
    greedy = cosamp_run(y, op, k, steps).final.estimate
    assert greedy.tobytes() == top_k(op.analyze(y), k).tobytes()


def test_subsampled_actions_keep_the_iterative_solvers():
    n, k = 64, 4
    rows = np.sort(np.random.default_rng(5).choice(n, 40, replace=False))
    op = SensingOperator(n, rows=rows)
    x = make_clean_sparse(n, k, np.random.default_rng(3))
    y = op.synthesize(x)
    start = top_k(np.random.default_rng(4).standard_normal(n), k)
    cfg = CadConfig(k=k, feedback=_fb())
    greedy, _ = run_action(A_COSAMP, y, op, cfg, budget=2, x_start=start)
    assert np.array_equal(greedy, cosamp_run(y, op, k, 2, x0=start).final.estimate)
    radius = action_radius(A_L2, cfg.feedback.tau, cfg.eta, cfg.eta_prime,
                           cfg.eta_dprime, n)
    convex, _ = run_action(A_L2, y, op, cfg, budget=2, x_start=start)
    direct = l1_min_general(L1Problem(observed=y, op=op, radius=radius,
                                      max_iters=400), x0=start)
    assert np.array_equal(convex, direct.coeffs)
    # the fallback's final answer is a cold run of final_iters CoSaMP steps
    starved = _fb(alpha=0.0, theta=0.0, tau=0, m=math.inf, beta=math.inf,
                  delta_res=0.0, t_max=5)
    out = cad_run(y, CadConfig(k=k, feedback=starved, final_iters=3), None, op)
    assert out.fallback
    assert np.array_equal(out.estimate, cosamp_run(y, op, k, 3).final.estimate)


def test_run_action_reports_whether_its_solve_is_final():
    # every full-operator solve is a closed form and final; a subsampled l1
    # solve is final exactly when its solver converged, CoSaMP never
    n, k = 64, 4
    full = SensingOperator(n)
    sub = SensingOperator(n, rows=np.sort(np.random.default_rng(5).choice(n, 40, replace=False)))
    x = make_clean_sparse(n, k, np.random.default_rng(3))
    noise = np.random.default_rng(1).standard_normal(n)
    start = top_k(np.random.default_rng(4).standard_normal(n), k)
    cfg = CadConfig(k=k, feedback=_fb())
    y = full.synthesize(x) + noise
    for action in (A_COSAMP, A_L0, A_L2, A_LINF):
        assert run_action(action, y, full, cfg, budget=1, x_start=start)[1] is True
    y = y[sub.rows]
    flags = []
    for budget in (1, 2, 30):
        assert run_action(A_COSAMP, y, sub, cfg, budget, x_start=start)[1] is False
        for action in (A_L0, A_L2, A_LINF):
            radius = action_radius(action, cfg.feedback.tau, cfg.eta, cfg.eta_prime,
                                   cfg.eta_dprime, n)
            direct = l1_min_general(L1Problem(observed=y, op=sub, radius=radius,
                                              max_iters=200 * budget), x0=start)
            _, final = run_action(action, y, sub, cfg, budget, x_start=start)
            assert final is direct.converged
            flags.append(final)
    assert True in flags and False in flags


@pytest.mark.parametrize("action", [A_COSAMP, A_L0, A_L2, A_LINF])
def test_run_action_cached_coefficients_give_the_same_bytes(action):
    op, x, y = _clean_instance()
    y = y + 0.5 * np.random.default_rng(8).standard_normal(op.m)
    cfg = CadConfig(k=6, feedback=_fb())
    c = op.analyze(y)
    out, _ = run_action(action, y, op, cfg, budget=3, x_start=x, coeffs=c)
    assert out.tobytes() == run_action(action, y, op, cfg, budget=3, x_start=x)[0].tobytes()
    out[:] = 7.0  # the result never aliases the caller's coefficients
    assert c.tobytes() == op.analyze(y).tobytes()


@pytest.mark.parametrize("action", [A_COSAMP, A_L0, A_L2, A_LINF])
def test_run_action_rejects_bad_cached_coefficients(action):
    op, x, y = _clean_instance()
    cfg = CadConfig(k=6, feedback=_fb())
    nan = op.analyze(y)
    nan[5] = np.nan
    for bad in (op.analyze(y)[:-1], nan):
        with pytest.raises(ValueError, match="cached coefficients"):
            run_action(action, y, op, cfg, budget=3, coeffs=bad)
    sub = SensingOperator(64, rows=np.arange(0, 64, 2))
    with pytest.raises(ValueError, match="full operator"):
        run_action(action, sub.synthesize(x), sub, cfg, budget=3, coeffs=op.analyze(y))


def test_unconverged_subsampled_solve_logs_at_debug(caplog):
    n, k = 64, 4
    op = SensingOperator(n, rows=np.sort(np.random.default_rng(5).choice(n, 40, replace=False)))
    y = (op.synthesize(make_clean_sparse(n, k, np.random.default_rng(3)))
         + np.random.default_rng(1).standard_normal(op.m))  # 200 iterations fall short
    cfg = CadConfig(k=k, feedback=_fb())
    with caplog.at_level(logging.WARNING, logger="cad_defense"):
        quiet, _ = run_action(A_L2, y, op, cfg, budget=1)
    assert not caplog.records
    with caplog.at_level(logging.DEBUG, logger="cad_defense"):
        loud, _ = run_action(A_L2, y, op, cfg, budget=1)
    assert loud.tobytes() == quiet.tobytes()
    [record] = caplog.records
    assert record.levelno == logging.DEBUG
    assert record.getMessage().startswith("a3 unconverged after 200 of 200 iterations")
    assert "feasibility gap" in record.getMessage()
    assert "duality gap" in record.getMessage()


def test_certified_subsampled_solve_is_the_final_answer(monkeypatch):
    # an l1 action whose in-loop solve carried a duality certificate answers
    # with that solve's pruned estimate and no cold run; one that never
    # certified answers with exactly one cold run
    n, k = 64, 8
    op = SensingOperator(n, rows=np.sort(np.random.default_rng(5).choice(n, 40, replace=False)))
    calls = []

    def counting(problem, x0=None):
        result = l1_min_general(problem, x0)
        calls.append((problem.radius, x0 is None, result))
        return result

    monkeypatch.setattr(cad_defense.cad, "l1_min_general", counting)
    outcomes = []
    for schedule in [(3, 2), (1, 0)]:
        for spec in _ORACLE_ATTACKS[1:]:
            for seed in range(8):
                calls.clear()
                x = make_clean_compressible(n, k, np.random.default_rng([70, seed]))
                y = perturb(x, spec, SensingOperator(n)).observed[op.rows]
                fb = _fb(alpha=3.0, beta=2.0, m=0.8, tau=k, theta=float(op.m),
                         delta_res=0.0, t_max=12)
                cfg = CadConfig(k=k, feedback=fb, inner_schedule=schedule, seed=seed)
                out = cad_run(y, cfg, None, op)
                cold = [res for _, is_cold, res in calls if is_cold]
                if out.recovery_is_greedy:
                    assert not cold
                    continue
                radius = action_radius(out.final_method, fb.tau, cfg.eta, cfg.eta_prime,
                                       cfg.eta_dprime, n)
                solved = [res for r, is_cold, res in calls
                          if r == radius and not is_cold and res.converged]
                if solved:
                    assert not cold
                    answer = solved[-1]
                else:
                    assert len(cold) == 1
                    answer = cold[0]
                assert out.estimate.tobytes() == top_k(answer.coeffs, k).tobytes()
                outcomes.append(bool(solved))
    assert outcomes.count(True) >= 10 and outcomes.count(False) >= 5


# ---------------------------------------------------------------------------
# the loop against a copy that recomputes every action's evidence


def _reference_solve(action, y, op, cfg, budget=None, x_start=None):
    """The dispatcher as it was before the loop cached F y: analyses y itself.

    Returns the spectrum and whether the subsampled l1 solver converged.
    """
    if action == A_COSAMP:
        if op.is_full:
            return op.analyze(y), False
        steps = cfg.final_iters if budget is None else budget
        return cosamp_run(y, op, cfg.k, steps, x0=x_start).final.estimate, False
    radius = action_radius(action, cfg.feedback.tau, cfg.eta, cfg.eta_prime,
                           cfg.eta_dprime, op.n)
    problem = L1Problem(observed=y, op=op, radius=radius)
    if op.is_full:
        return l1_min_orthonormal(problem), False
    if budget is not None:
        problem.max_iters = 200 * budget
    result = l1_min_general(problem, x0=x_start)
    return result.coeffs, result.converged


def _reference_run_single(y, cfg, stats, op, seed):
    """The loop before the evidence memo: every step solves afresh, and the
    final answer reuses the chosen action's latest converged subsampled l1
    solve or else solves afresh."""
    y = np.asarray(y, dtype=np.float64)
    fb = cfg.feedback
    rng = np.random.default_rng(seed)
    if cfg.x0_mode == "random":
        estimate = top_k(rng.standard_normal(op.n), cfg.k)
    else:
        estimate = np.zeros(op.n)
    coeffs = op.analyze(y) if op.is_full else None
    state = BanditState.fresh(cfg.gamma, cfg.sigma, cfg.lam)
    times = [0] * N_ACTIONS
    trace = CadTrace()
    converged = {}
    stop_reason = "t_max"
    t = 0
    for t in range(1, fb.t_max + 1):
        dist = probabilities(state)
        a = sample_action(dist, rng)
        times[a] += 1
        budget = inner_iterations(times[a], cfg.inner_schedule)
        raw, solved = _reference_solve(a, y, op, cfg, budget, x_start=estimate)
        estimate = top_k(raw, cfg.k)
        if solved:
            converged[a] = estimate
        v = residual(y, estimate, op)
        v_spec = coeffs - estimate if coeffs is not None else op.adjoint(v)
        md = None
        if a == A_COSAMP and stats is not None:
            md = mahalanobis(v, stats)
        f = feedback_bit(a, v, fb, stats=stats, v_spec=v_spec, md=md)
        p = float(dist.probs[a])
        r = reward(a, a, f, p, cfg.lam)
        state = update(state, a, r)
        trace.records.append(CadIterationRecord(
            t=t, action=a, probs=tuple(dist.probs), inner_iters=budget,
            feedback=f, reward=r, scores=tuple(state.scores),
            residual_l2=float(np.linalg.norm(v)),
            residual_linf=float(np.abs(v).max()),
            residual_count=thresholded_count(v_spec, fb.count_threshold),
            md=md, penalty_clamped=bool(f == 0 and penalty_clamped(p)),
        ))
        if should_stop(dist, v, fb):
            stop_reason = "prob" if dist.max_prob > fb.delta_prob else "residual"
            break
    best = int(np.argmax(state.scores))
    fallback = bool(state.scores.max() <= 0.0)
    chosen = A_COSAMP if fallback else best
    final = (converged[chosen] if chosen in converged
             else top_k(_reference_solve(chosen, y, op, cfg)[0], cfg.k))
    return CadOutcome(
        final_method=best, fallback=fallback, estimate=final,
        reconstruction=op.synthesize(final), trace=trace, stopped_at=t,
        stop_reason=stop_reason, final_scores=tuple(state.scores),
    )


_ORACLE_OPERATORS = {"full16": (16, None), "full64": (64, None), "full128": (128, None),
                     "rows40of64": (64, 40)}
_ORACLE_ATTACKS = [AttackSpec("none"), AttackSpec("l0", tau=5, eta_prime=3.0),
                   AttackSpec("l2", eta=6.0), AttackSpec("linf", eta_dprime=1.5)]


@functools.lru_cache(maxsize=None)
def _oracle_setup(name):
    n, m = _ORACLE_OPERATORS[name]
    rows = None if m is None else np.sort(np.random.default_rng(n).choice(n, m, replace=False))
    op = SensingOperator(n, rows=rows)
    rng = np.random.default_rng([66, n])
    cleans = [op.synthesize(make_clean_compressible(n, n // 8, rng)) for _ in range(16)]
    return op, estimate_clean_stats(cleans, op, n // 8, ridge=1e-4)


@settings(max_examples=100, deadline=None)
@given(data=st.data(), name=st.sampled_from(sorted(_ORACLE_OPERATORS)),
       seed=st.integers(0, 2 ** 32 - 1), x0_mode=st.sampled_from(["zero", "random"]),
       with_stats=st.booleans(), channels=st.sampled_from([1, 3]))
def test_loop_matches_the_reference_loop_bit_for_bit(data, name, seed, x0_mode,
                                                     with_stats, channels):
    op, clean_stats = _oracle_setup(name)
    n, k = op.n, op.n // 8
    t_max = data.draw(st.integers(1, 40 if op.is_full else 12))
    # loose thresholds, so that every action's bit and the fallback occur
    fb = _fb(alpha=data.draw(st.sampled_from([1.0, 3.0, 8.0])), beta=2.0, m=0.8,
             tau=data.draw(st.integers(0, n)), theta=float(op.m),
             delta_res=data.draw(st.sampled_from([0.0, 0.5])), t_max=t_max)
    cfg = CadConfig(k=k, feedback=fb, x0_mode=x0_mode, channels=channels, seed=seed)
    rng = np.random.default_rng(seed)
    ys = []
    for _ in range(channels):
        x = make_clean_compressible(n, k, rng)
        spec = data.draw(st.sampled_from(_ORACLE_ATTACKS))
        observed = perturb(x, spec, SensingOperator(n)).observed
        ys.append(observed if op.is_full else observed[op.rows])
    stats = clean_stats if with_stats else None
    out = cad_run(np.concatenate(ys), cfg, stats if channels == 1 else (stats,) * 3, op)
    for ch, ours in enumerate(out.channels if channels == 3 else [out]):
        ref = _reference_run_single(ys[ch], cfg, stats, op, [seed, ch])
        assert ours.to_jsonable() == ref.to_jsonable()
        assert ours.estimate.tobytes() == ref.estimate.tobytes()
        assert ours.reconstruction.tobytes() == ref.reconstruction.tobytes()
        assert (ours.stop_reason, ours.stopped_at) == (ref.stop_reason, ref.stopped_at)
        assert ours.final_scores == ref.final_scores


# ---------------------------------------------------------------------------
# clean-input behaviour


def test_clean_run_stops_on_residual_and_recovers():
    op, x, y = _clean_instance()
    cfg = CadConfig(k=6, feedback=_fb(), seed=3)
    out = cad_run(y, cfg, None, op)
    assert out.stop_reason == "residual"
    assert np.linalg.norm(out.reconstruction - y) <= 1e-8
    assert np.linalg.norm(out.estimate - x) <= 1e-8
    assert np.count_nonzero(out.estimate) <= 6
    assert np.allclose(out.reconstruction, op.synthesize(out.estimate))
    assert out.stopped_at == len(out.trace)


def test_clean_runs_stop_on_residual_across_seeds():
    op, x, y = _clean_instance()
    reasons = []
    for seed in range(20):
        out = cad_run(y, CadConfig(k=6, feedback=_fb(), seed=seed), None, op)
        reasons.append(out.stop_reason)
        assert np.linalg.norm(out.estimate - x) <= 1e-8
    assert all(r == "residual" for r in reasons)


# ---------------------------------------------------------------------------
# fallback under uninformative feedback


def test_all_zero_feedback_forces_fallback():
    # thresholds that no residual can satisfy: every action always fails
    fb = _fb(alpha=0.0, theta=0.0, tau=0, m=math.inf, beta=math.inf,
             delta_res=0.0)
    op = SensingOperator(64)
    for seed in range(50):
        rng = np.random.default_rng([60, seed])
        x = make_clean_sparse(64, 6, rng)
        inst = perturb(x, AttackSpec(family="l2", eta=1.0, seed=seed), op)
        out = cad_run(inst.observed, CadConfig(k=6, feedback=fb, seed=seed),
                      None, op)
        assert out.fallback
        assert out.method_label == FALLBACK_LABEL
        assert max(out.final_scores) <= 0.0
        assert all(r.feedback == 0 for r in out.trace.records)


def test_fallback_recovery_is_greedy():
    fb = _fb(alpha=0.0, theta=0.0, tau=0, m=math.inf, beta=math.inf,
             delta_res=0.0)
    op, x, y = _clean_instance()
    out = cad_run(y, CadConfig(k=6, feedback=fb, seed=1), None, op)
    assert out.recovery_is_greedy
    # the fallback still recovers the clean spectrum greedily
    assert np.linalg.norm(out.estimate - x) <= 1e-8


# ---------------------------------------------------------------------------
# trace consistency


def _attacked_run(seed=0, t_max=40):
    op = SensingOperator(128)
    rng = np.random.default_rng([61, seed])
    x = make_clean_sparse(128, 10, rng, amplitude=(4.0, 6.0))
    inst = perturb(x, AttackSpec(family="l2", eta=6.0, seed=seed), op)
    cfg = CadConfig(k=10, feedback=_fb(alpha=3.0, delta_res=0.5, t_max=t_max),
                    seed=seed)
    return cad_run(inst.observed, cfg, None, op), cfg


def test_trace_replays_through_bandit_update():
    out, cfg = _attacked_run()
    state = BanditState.fresh(cfg.gamma, cfg.sigma, cfg.lam)
    for rec in out.trace.records:
        dist = probabilities(state)
        assert np.abs(np.asarray(rec.probs) - dist.probs).max() < 1e-15
        r = reward(rec.action, rec.action, rec.feedback,
                   float(dist.probs[rec.action]), cfg.lam)
        assert r == rec.reward
        state = update(state, rec.action, r)
        assert np.abs(np.asarray(rec.scores) - state.scores).max() < 1e-15
    assert np.abs(np.asarray(out.final_scores) - state.scores).max() < 1e-15


def test_stop_reason_matches_trace_values():
    for seed in range(10):
        out, cfg = _attacked_run(seed=seed)
        last = out.trace.records[-1]
        if out.stop_reason == "prob":
            assert max(last.probs) > cfg.feedback.delta_prob
        elif out.stop_reason == "residual":
            assert last.residual_l2 < cfg.feedback.delta_res
        else:
            assert out.stopped_at == cfg.feedback.t_max


def test_budgets_follow_schedule_per_action():
    out, cfg = _attacked_run(seed=2)
    seen = [0, 0, 0, 0]
    for rec in out.trace.records:
        seen[rec.action] += 1
        assert rec.inner_iters == inner_iterations(seen[rec.action], cfg.inner_schedule)


def test_md_recorded_only_for_greedy_action_with_stats():
    op = SensingOperator(32)
    rng = np.random.default_rng(62)
    cleans = [op.synthesize(make_clean_compressible(32, 4, rng)) for _ in range(20)]
    stats = estimate_clean_stats(cleans, op, 4, ridge=1e-4)
    x = make_clean_sparse(32, 4, rng, amplitude=(3.0, 5.0))
    inst = perturb(x, AttackSpec(family="l2", eta=2.0, seed=0), op)
    records = []
    for seed in range(10):
        cfg = CadConfig(k=4, feedback=_fb(alpha=1.0, delta_res=0.1, t_max=30),
                        seed=seed)
        records.extend(cad_run(inst.observed, cfg, stats, op).trace.records)
    assert any(r.action == A_COSAMP for r in records)
    for rec in records:
        if rec.action == A_COSAMP:
            assert rec.md is not None and rec.md >= 0.0
        else:
            assert rec.md is None


# ---------------------------------------------------------------------------
# determinism


def test_identical_seeds_reproduce_bitwise():
    a, _ = _attacked_run(seed=7)
    b, _ = _attacked_run(seed=7)
    assert np.array_equal(a.estimate, b.estimate)
    assert np.array_equal(a.reconstruction, b.reconstruction)
    assert a.stop_reason == b.stop_reason and a.stopped_at == b.stopped_at
    assert [r.to_dict() for r in a.trace.records] == [
        r.to_dict() for r in b.trace.records]


def test_different_seeds_explore_differently():
    seqs = set()
    for seed in range(5):
        out, _ = _attacked_run(seed=seed)
        seqs.add(tuple(r.action for r in out.trace.records))
    assert len(seqs) >= 2


def test_random_init_mode_runs_and_is_deterministic():
    op, x, y = _clean_instance()
    cfg = CadConfig(k=6, feedback=_fb(), x0_mode="random", seed=9)
    a = cad_run(y, cfg, None, op)
    b = cad_run(y, cfg, None, op)
    assert np.array_equal(a.estimate, b.estimate)
    assert np.count_nonzero(a.estimate) <= 6
    with pytest.raises(ValueError):
        CadConfig(k=6, feedback=_fb(), x0_mode="gaussian")


# ---------------------------------------------------------------------------
# family identification on the calibrated synthetic ensemble


def _identify(family, attack_kw, trials=20):
    n, k = 784, 80
    op = SensingOperator(n)
    labels = []
    for seed in range(trials):
        rng = np.random.default_rng([50, seed])
        clean = make_clean_compressible(n, k, rng, amplitude=(4.5, 7.0),
                                        tail_norm=0.5)
        inst = perturb(clean, AttackSpec(family=family, seed=seed, **attack_kw), op)
        out = cad_run(inst.observed, CadConfig(k=k, feedback=_fb(), seed=seed),
                      None, op)
        labels.append(out.method_label)
    return labels


def test_linf_attack_selects_a4_majority():
    labels = _identify("linf", dict(eta_dprime=4.0))
    assert labels.count("a4") >= 0.8 * len(labels)


def test_l0_attack_selects_a2_majority():
    labels = _identify("l0", dict(tau=12, eta_prime=4.0))
    assert labels.count("a2") >= 0.8 * len(labels)


def test_l2_attack_selects_a3_majority():
    labels = _identify("l2", dict(eta=20.0))
    assert labels.count("a3") >= 0.8 * len(labels)


# ---------------------------------------------------------------------------
# channel handling


def test_three_channel_aggregation():
    n = 32
    op = SensingOperator(n)
    rng = np.random.default_rng(63)
    chans = [make_clean_sparse(n, 4, np.random.default_rng([64, ch]))
             for ch in range(3)]
    y = np.concatenate([op.synthesize(c) for c in chans])
    cfg = CadConfig(k=4, feedback=_fb(), channels=3, seed=11)
    out = cad_run(y, cfg, None, op)
    assert len(out.channels) == 3
    assert np.array_equal(
        out.estimate, np.concatenate([o.estimate for o in out.channels]))
    # aggregate call is the majority of per-channel calls, first channel
    # breaking ties
    labels = [(o.final_method, o.fallback) for o in out.channels]
    counts = {lab: labels.count(lab) for lab in labels}
    top = max(counts.values())
    expect = next(lab for lab in labels if counts[lab] == top)
    assert (out.final_method, out.fallback) == expect
    for ch, o in enumerate(out.channels):
        assert np.linalg.norm(o.estimate - chans[ch]) <= 1e-8


def test_three_channel_validation():
    op = SensingOperator(16)
    cfg = CadConfig(k=2, feedback=_fb(), channels=3)
    with pytest.raises(ValueError):
        cad_run(np.zeros(16), cfg, None, op)  # needs 3 * 16 samples
    with pytest.raises(ValueError):
        cad_run(np.zeros(48), cfg, [None, None], op)


def test_single_channel_validation():
    op = SensingOperator(16)
    cfg = CadConfig(k=2, feedback=_fb())
    with pytest.raises(ValueError):
        cad_run(np.zeros(15), cfg, None, op)
    with pytest.raises(ValueError, match="exceeds"):
        cad_run(np.zeros(16), CadConfig(k=17, feedback=_fb()), None, op)


def test_config_validation():
    with pytest.raises(ValueError):
        CadConfig(k=0, feedback=_fb())
    with pytest.raises(ValueError):
        CadConfig(k=2, feedback=_fb(), channels=2)
    with pytest.raises(ValueError):
        CadConfig(k=2, feedback=_fb(), bandit_params=(1.0, 1.0, 1.0))
    for final_iters in (0, -1):
        with pytest.raises(ValueError, match="final_iters"):
            CadConfig(k=2, feedback=_fb(), final_iters=final_iters)


def test_action_labels_cover_methods():
    assert ACTION_LABELS == ("a1", "a2", "a3", "a4")
    assert FALLBACK_LABEL == "cosamp_fallback"
