"""Defence-loop tests: stopping, fallback, trace consistency, determinism,
schedules, and family identification on a calibrated ensemble.

The loop is also checked bit for bit against a plain copy of the loop that
recomputes every action's evidence on every iteration and scores the
residual vectors with copies of the vector-based feedback predicate and
stop rule, except that on a row subset an l1 action whose solve converged
reuses that solve on its repeats and as the final answer.
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
                         probabilities, reward, top_k, update)
from cad_defense.bandit import ActionDistribution, penalty_clamped, sample_action
from cad_defense.cad import (CadIterationRecord, CadOutcome, CadTrace, _solve,
                             run_action)
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
# one loop step: _solve mirrors the underlying solvers, run_action scores it


def _step(action, y, op, cfg, budget, x_start=None, stats=None, finals=None):
    """run_action with the loop's c = F y (None on a row subset)."""
    c = op.analyze(y) if op.is_full else None
    return run_action(action, y, op, cfg, stats, c, {} if finals is None else finals,
                      budget, np.zeros(op.n) if x_start is None else x_start)


def test_run_action_l1_matches_direct_solve():
    op, x, y = _clean_instance()
    cfg = CadConfig(k=6, feedback=_fb())
    radius = action_radius(A_L2, cfg.feedback.tau, cfg.eta, cfg.eta_prime,
                           cfg.eta_dprime, op.n)
    direct = l1_min_orthonormal(L1Problem(observed=y, op=op, radius=radius))
    spectrum, final = _solve(A_L2, y, op, cfg, op.analyze(y), budget=3)
    assert np.array_equal(spectrum, direct) and final
    assert np.array_equal(_step(A_L2, y, op, cfg, budget=3)[0], top_k(direct, 6))


def test_run_action_cosamp_continues_from_start():
    op, x, y = _clean_instance()
    cfg = CadConfig(k=6, feedback=_fb())
    assert np.abs(_step(A_COSAMP, y, op, cfg, budget=1, x_start=x)[0] - x).max() < 1e-10


@settings(max_examples=200, deadline=None)
@given(data=st.data(), n=st.integers(1, 48), steps=st.integers(1, 4))
def test_full_operator_cosamp_is_top_k_of_analysis(data, n, steps):
    # from a zero start the first proxy is F y itself, and every least-squares
    # step on the full operator restricts F y, so the iterates never move;
    # magnitudes stay where F y cannot overflow, which the operator rejects
    y = data.draw(arrays(np.float64, n, elements=st.floats(-1e150, 1e150)))
    k = data.draw(st.integers(1, n))
    op = SensingOperator(n)
    greedy = cosamp_run(y, op, k, steps).estimate
    assert greedy.tobytes() == top_k(op.analyze(y), k).tobytes()


def test_subsampled_actions_keep_the_iterative_solvers():
    n, k = 64, 4
    rows = np.sort(np.random.default_rng(5).choice(n, 40, replace=False))
    op = SensingOperator(n, rows=rows)
    x = make_clean_sparse(n, k, np.random.default_rng(3))
    y = op.synthesize(x)
    start = top_k(np.random.default_rng(4).standard_normal(n), k)
    cfg = CadConfig(k=k, feedback=_fb())
    greedy, _ = _solve(A_COSAMP, y, op, cfg, None, budget=2, x_start=start)
    assert np.array_equal(greedy, cosamp_run(y, op, k, 2, x0=start).estimate)
    radius = action_radius(A_L2, cfg.feedback.tau, cfg.eta, cfg.eta_prime,
                           cfg.eta_dprime, n)
    convex, _ = _solve(A_L2, y, op, cfg, None, budget=2, x_start=start)
    direct = l1_min_general(L1Problem(observed=y, op=op, radius=radius,
                                      max_iters=400), x0=start)
    assert np.array_equal(convex, direct.coeffs)
    # the fallback's final answer is a cold run of ten CoSaMP steps
    starved = _fb(alpha=0.0, theta=0.0, tau=0, m=math.inf, beta=math.inf,
                  delta_res=0.0, t_max=5)
    out = cad_run(y, CadConfig(k=k, feedback=starved), None, op)
    assert out.fallback
    assert np.array_equal(out.estimate, cosamp_run(y, op, k, 10).estimate)


def test_run_action_reports_whether_its_solve_is_final():
    # every full-operator solve is a closed form and final; a subsampled l1
    # solve is final exactly when its solver converged, CoSaMP never; a step
    # stores its evidence exactly when its solve is final
    n, k = 64, 4
    full = SensingOperator(n)
    sub = SensingOperator(n, rows=np.sort(np.random.default_rng(5).choice(n, 40, replace=False)))
    x = make_clean_sparse(n, k, np.random.default_rng(3))
    noise = np.random.default_rng(1).standard_normal(n)
    start = top_k(np.random.default_rng(4).standard_normal(n), k)
    cfg = CadConfig(k=k, feedback=_fb())
    y = full.synthesize(x) + noise
    for action in (A_COSAMP, A_L0, A_L2, A_LINF):
        assert _solve(action, y, full, cfg, full.analyze(y), 1, start)[1] is True
        finals = {}
        assert _step(action, y, full, cfg, 1, start, finals=finals) is finals[action]
    y = y[sub.rows]
    flags = []
    for budget in (1, 2, 30):
        assert _solve(A_COSAMP, y, sub, cfg, None, budget, start)[1] is False
        finals = {}
        _step(A_COSAMP, y, sub, cfg, budget, start, finals=finals)
        assert not finals
        for action in (A_L0, A_L2, A_LINF):
            radius = action_radius(action, cfg.feedback.tau, cfg.eta, cfg.eta_prime,
                                   cfg.eta_dprime, n)
            direct = l1_min_general(L1Problem(observed=y, op=sub, radius=radius,
                                              max_iters=200 * budget), x0=start)
            _, final = _solve(action, y, sub, cfg, None, budget, start)
            assert final is direct.converged
            evidence = _step(action, y, sub, cfg, budget, start, finals=finals)
            assert (finals.get(action) is evidence) is final
            flags.append(final)
    assert True in flags and False in flags


@pytest.mark.parametrize("action", [A_COSAMP, A_L0, A_L2, A_LINF])
def test_run_action_cached_coefficients_give_the_same_bytes(action):
    # the run's cached c gives the bytes of a fresh analysis, and a step
    # neither writes to c nor hands back an estimate that aliases it
    op, x, y = _clean_instance()
    y = y + 0.5 * np.random.default_rng(8).standard_normal(op.m)
    cfg = CadConfig(k=6, feedback=_fb())
    c = op.analyze(y)
    estimate = run_action(action, y, op, cfg, None, c, {}, 3, x)[0]
    if action == A_COSAMP:
        fresh = op.analyze(y)
    else:
        radius = action_radius(action, cfg.feedback.tau, cfg.eta, cfg.eta_prime,
                               cfg.eta_dprime, op.n)
        fresh = l1_min_orthonormal(L1Problem(observed=y, op=op, radius=radius))
    assert estimate.tobytes() == top_k(fresh, 6).tobytes()
    estimate[:] = 7.0
    assert c.tobytes() == op.analyze(y).tobytes()


def test_unconverged_subsampled_solve_logs_at_debug(caplog):
    n, k = 64, 4
    op = SensingOperator(n, rows=np.sort(np.random.default_rng(5).choice(n, 40, replace=False)))
    y = (op.synthesize(make_clean_sparse(n, k, np.random.default_rng(3)))
         + np.random.default_rng(1).standard_normal(op.m))  # 200 iterations fall short
    cfg = CadConfig(k=k, feedback=_fb())
    with caplog.at_level(logging.WARNING, logger="cad_defense"):
        quiet, _ = _solve(A_L2, y, op, cfg, None, budget=1)
    assert not caplog.records
    with caplog.at_level(logging.DEBUG, logger="cad_defense"):
        loud, _ = _solve(A_L2, y, op, cfg, None, budget=1)
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
                if out.fallback or out.final_method == A_COSAMP:
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


_SUBSET_K = 8


def _subset_runs(monkeypatch):
    """Defence runs on a row subset, each with the actions of its
    l1_min_general results (and whether each converged) and its loop steps
    as (action, stored evidence before the step, returned evidence, solver
    calls during the step, stored evidence after it)."""
    n, k = 64, _SUBSET_K
    op = SensingOperator(n, rows=np.sort(np.random.default_rng(5).choice(n, 40, replace=False)))
    fb = _fb(alpha=3.0, beta=2.0, m=0.8, tau=k, theta=float(op.m), delta_res=0.0, t_max=12)
    cfg = CadConfig(k=k, feedback=fb)
    by_radius = {action_radius(a, fb.tau, cfg.eta, cfg.eta_prime, cfg.eta_dprime, n): a
                 for a in (A_L0, A_L2, A_LINF)}
    assert len(by_radius) == 3

    def solving(problem, x0=None):
        result = l1_min_general(problem, x0)
        solves.append((by_radius[problem.radius], result.converged))
        return result

    def greedy(*args, **kwargs):
        solves.append((A_COSAMP, False))
        return cosamp_run(*args, **kwargs)

    def stepping(action, y, op, cfg, stats, c, finals, budget, x_start):
        stored, before = finals.get(action), len(solves)
        evidence = run_action(action, y, op, cfg, stats, c, finals, budget, x_start)
        steps.append((action, stored, evidence, solves[before:], finals.get(action)))
        return evidence

    monkeypatch.setattr(cad_defense.cad, "l1_min_general", solving)
    monkeypatch.setattr(cad_defense.cad, "cosamp_run", greedy)
    monkeypatch.setattr(cad_defense.cad, "run_action", stepping)
    runs = []
    for spec in _ORACLE_ATTACKS[1:]:
        for seed in range(8):
            solves, steps = [], []
            x = make_clean_compressible(n, k, np.random.default_rng([70, seed]))
            y = perturb(x, spec, SensingOperator(n)).observed[op.rows]
            out = cad_run(y, CadConfig(k=k, feedback=fb, seed=seed), None, op)
            runs.append((out, [s for s in solves if s[0] != A_COSAMP], steps))
    return runs


def test_certified_subset_l1_action_is_never_solved_again(monkeypatch):
    # a certified solve stands for the rest of the run: the action's repeats,
    # and its final answer, reach the splitting solver no more
    reused = 0
    for out, solves, _ in _subset_runs(monkeypatch):
        certified = set()
        for action, converged in solves:
            assert action not in certified
            if converged:
                certified.add(action)
        reused += (sum(r.action in certified for r in out.trace.records)
                   - sum(a in certified for a, _ in solves))
    assert reused >= 10


def test_subset_repeats_still_call_run_action_once_per_iteration(monkeypatch):
    # every iteration makes one run_action call; a repeat of an action with a
    # final solve gets the identical stored evidence back and calls no
    # solver, any other step makes one solver call and stores its evidence
    # exactly when that solve certified; the trace records that evidence
    repeats = 0
    for out, _, steps in _subset_runs(monkeypatch):
        assert len(steps) == out.stopped_at
        assert [s[0] for s in steps] == [r.action for r in out.trace.records]
        for record, (action, stored, evidence, calls, after) in zip(out.trace.records, steps):
            if stored is not None:
                assert evidence is stored and after is stored and not calls
                repeats += 1
            else:
                [(solver, converged)] = calls
                assert solver == action
                assert (after is evidence) is converged
            estimate, md, f, l2, linf, count = evidence
            assert ((record.md, record.feedback, record.residual_l2,
                     record.residual_linf, record.residual_count)
                    == (md, f, l2, linf, count))
    assert repeats >= 10


# ---------------------------------------------------------------------------
# the loop against a copy that recomputes every action's evidence


def _reference_solve(action, y, op, cfg, budget=None, x_start=None):
    """The dispatcher as it was before the loop cached F y: analyses y itself.

    Returns the spectrum and whether the subsampled l1 solver converged.
    """
    if action == A_COSAMP:
        if op.is_full:
            return op.analyze(y), False
        steps = 10 if budget is None else budget
        return cosamp_run(y, op, cfg.k, steps, x0=x_start).estimate, False
    radius = action_radius(action, cfg.feedback.tau, cfg.eta, cfg.eta_prime,
                           cfg.eta_dprime, op.n)
    problem = L1Problem(observed=y, op=op, radius=radius)
    if op.is_full:
        return l1_min_orthonormal(problem), False
    if budget is not None:
        problem.max_iters = 200 * budget
    result = l1_min_general(problem, x0=x_start)
    return result.coeffs, result.converged


def _reference_feedback_bit(action, v, cfg, v_spec, md=None):
    """The vector-based predicate as it was before it read features."""
    v = np.asarray(v, dtype=np.float64)
    l2 = float(np.linalg.norm(v))
    linf = float(np.abs(v).max()) if v.size else 0.0
    if action == A_COSAMP:
        return int(l2 < cfg.alpha
                   or (md is not None and md < cfg.theta and linf < cfg.m))
    if action == A_L0:
        return int(l2 > cfg.alpha
                   and thresholded_count(v_spec, cfg.count_threshold) < cfg.tau)
    if action == A_L2:
        return int(l2 > cfg.alpha and cfg.m < linf < cfg.beta)
    if action == A_LINF:
        return int(l2 > cfg.alpha and linf > cfg.beta)
    raise ValueError(f"unknown action {action}")


def _reference_should_stop(dist, v, cfg):
    """The vector-based stop rule as it was before it read features."""
    return int(dist.max_prob > cfg.delta_prob
               or float(np.linalg.norm(v)) < cfg.delta_res)


def _reference_run_single(y, cfg, stats, op, seed):
    """The loop before the evidence memo: every step solves afresh unless
    the action has a converged subsampled l1 solve, which its repeats and
    the final answer reuse."""
    y = np.asarray(y, dtype=np.float64)
    fb = cfg.feedback
    rng = np.random.default_rng(seed)
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
        raw, solved = ((converged[a], True) if a in converged
                       else _reference_solve(a, y, op, cfg, budget, x_start=estimate))
        estimate = top_k(raw, cfg.k)
        if solved:
            converged[a] = estimate
        v = residual(y, estimate, op)
        v_spec = coeffs - estimate if coeffs is not None else op.adjoint(v)
        md = None
        if a == A_COSAMP and stats is not None:
            md = mahalanobis(v, stats)
        f = _reference_feedback_bit(a, v, fb, v_spec, md)
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
        if _reference_should_stop(dist, v, fb):
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
       seed=st.integers(0, 2 ** 32 - 1), with_stats=st.booleans(),
       channels=st.sampled_from([1, 3]))
def test_loop_matches_the_reference_loop_bit_for_bit(data, name, seed, with_stats,
                                                     channels):
    op, clean_stats = _oracle_setup(name)
    n, k = op.n, op.n // 8
    t_max = data.draw(st.integers(1, 40 if op.is_full else 12))
    # loose thresholds, so that every action's bit and the fallback occur
    fb = _fb(alpha=data.draw(st.sampled_from([1.0, 3.0, 8.0])), beta=2.0, m=0.8,
             tau=data.draw(st.integers(0, n)), theta=float(op.m),
             delta_res=data.draw(st.sampled_from([0.0, 0.5])), t_max=t_max)
    cfg = CadConfig(k=k, feedback=fb, channels=channels, seed=seed)
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


def test_full_operator_run_reaches_no_row_subset_solver(monkeypatch):
    # every action is a closed form of F y on the full operator, and so is
    # CoSaMP's fit behind the clean statistics: apart from the one Cholesky
    # factorization that whitens those statistics, neither they nor a run
    # reach the least-squares fit, a Cholesky factorization or the splitting
    # solver that row subsets use
    def refuse(*args, **kwargs):
        raise AssertionError("a row-subset solver ran on the full operator")

    cholesky = np.linalg.cholesky
    for module, name in ((np.linalg, "lstsq"), (np.linalg, "cholesky"),
                         (cad_defense.cad, "l1_min_general")):
        monkeypatch.setattr(module, name, refuse)
    op = SensingOperator(64)
    rng = np.random.default_rng([66, 64])
    stats = estimate_clean_stats(
        [op.synthesize(make_clean_compressible(64, 8, rng)) for _ in range(16)],
        op, 8, ridge=1e-4)
    with monkeypatch.context() as whitening:
        whitening.setattr(np.linalg, "cholesky", cholesky)
        stats.factor()
    fb = _fb(alpha=3.0, beta=2.0, m=0.8, tau=8, theta=64.0, t_max=40)
    actions, answers = set(), set()
    for spec in _ORACLE_ATTACKS:
        for seed in range(4):
            x = make_clean_compressible(64, 8, np.random.default_rng([71, seed]))
            out = cad_run(perturb(x, spec, op).observed,
                          CadConfig(k=8, feedback=fb, seed=seed), stats, op)
            actions.update(record.action for record in out.trace.records)
            answers.add(out.method_label)
    assert actions == set(range(N_ACTIONS))
    assert len(answers) > 1


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
    assert out.stopped_at == len(out.trace.records)


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


def test_fallback_answers_with_greedy_recovery():
    fb = _fb(alpha=0.0, theta=0.0, tau=0, m=math.inf, beta=math.inf,
             delta_res=0.0)
    op, x, y = _clean_instance()
    out = cad_run(y, CadConfig(k=6, feedback=fb, seed=1), None, op)
    assert out.fallback or out.final_method == A_COSAMP
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


@pytest.mark.parametrize("name,with_stats,channels", [
    ("full64", True, 1), ("full64", False, 1), ("full64", True, 3),
    ("full64", False, 3), ("rows40of64", False, 1), ("rows40of64", False, 3)])
def test_trace_record_explains_its_call(name, with_stats, channels):
    # each record's bit is the predicate of that record's features, and the
    # stop rule, read from the record's probabilities and residual norm,
    # fires on the last record only, for the stated reason
    op, clean_stats = _oracle_setup(name)
    n, k = op.n, op.n // 8
    stats = clean_stats if with_stats else None
    bits, reasons = set(), set()
    for seed in range(9):
        # every third run is cut short by the iteration cap
        fb = _fb(alpha=3.0, beta=2.0, m=0.8, tau=k, theta=float(op.m),
                 delta_res=0.5 if seed % 2 else 0.0, t_max=3 if seed % 3 == 2 else 12)
        rng = np.random.default_rng([72, seed])
        ys = []
        for ch in range(channels):
            spec = _ORACLE_ATTACKS[(seed + ch) % len(_ORACLE_ATTACKS)]
            observed = perturb(make_clean_compressible(n, k, rng), spec,
                               SensingOperator(n)).observed
            ys.append(observed if op.is_full else observed[op.rows])
        cfg = CadConfig(k=k, feedback=fb, channels=channels, seed=seed)
        out = cad_run(np.concatenate(ys), cfg, stats if channels == 1 else (stats,) * 3, op)
        for run in (out.channels if channels == 3 else [out]):
            for i, rec in enumerate(run.trace.records, 1):
                assert rec.feedback == feedback_bit(rec.action, rec.residual_l2,
                                                    rec.residual_linf,
                                                    rec.residual_count, fb, rec.md)
                stop = should_stop(ActionDistribution(probs=np.array(rec.probs)),
                                   rec.residual_l2, fb)
                if i < run.stopped_at:
                    assert not stop
                elif run.stop_reason == "t_max":
                    assert not stop and i == fb.t_max
                else:
                    assert stop
                    assert (run.stop_reason == "prob") == (max(rec.probs) > fb.delta_prob)
                bits.add(rec.feedback)
            reasons.add(run.stop_reason)
    assert bits == {0, 1} and {"prob", "t_max"} <= reasons


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
    # aggregate call is the majority of per-channel method labels, first
    # channel breaking ties; that channel gives final_method and fallback
    labels = [o.method_label for o in out.channels]
    counts = {lab: labels.count(lab) for lab in labels}
    top = max(counts.values())
    first = next(o for o in out.channels if counts[o.method_label] == top)
    assert out.method_label == first.method_label
    assert (out.final_method, out.fallback) == (first.final_method, first.fallback)
    for ch, o in enumerate(out.channels):
        assert np.linalg.norm(o.estimate - chans[ch]) <= 1e-8


def test_three_channel_vote_counts_fallbacks_as_one_label(monkeypatch):
    # a2 against two fallbacks whose argmaxes differ: the fallbacks win
    def outcome(final_method, fallback):
        return CadOutcome(final_method=final_method, fallback=fallback,
                          estimate=np.zeros(4), reconstruction=np.zeros(4),
                          trace=CadTrace(), stopped_at=1, stop_reason="t_max",
                          final_scores=(0.0,) * N_ACTIONS)
    outcomes = iter([outcome(A_L0, False), outcome(A_COSAMP, True),
                     outcome(A_L2, True)])
    monkeypatch.setattr(cad_defense.cad, "_run_single",
                        lambda *args: next(outcomes))
    cfg = CadConfig(k=2, feedback=_fb(), channels=3)
    out = cad_run(np.zeros(12), cfg, None, SensingOperator(4))
    assert out.method_label == FALLBACK_LABEL
    assert (out.final_method, out.fallback) == (A_COSAMP, True)


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
    bad = [dict(k=2.5), dict(k=True), dict(channels=True),
           dict(eta=-1.0), dict(eta="x"), dict(eta=math.nan), dict(eta=True),
           dict(eta_prime=math.inf), dict(eta_dprime=math.nan),
           dict(bandit_params=(0.07, math.nan, 1.25)),
           dict(bandit_params=(0.07, 1.01, math.inf)),
           dict(bandit_params=(0.07, 1.01, math.nan)),
           dict(inner_schedule=(2.5, 1)), dict(inner_schedule=(True, 2)),
           dict(inner_schedule=(3, 0.5))]
    for fields in bad:
        with pytest.raises(ValueError):
            CadConfig(**{"k": 2, "feedback": _fb(), **fields})
    CadConfig(k=2, feedback=_fb(), eta=0, eta_prime=np.float64(0.5),
              inner_schedule=(np.int64(1), 0))


def test_action_labels_cover_methods():
    assert ACTION_LABELS == ("a1", "a2", "a3", "a4")
    assert FALLBACK_LABEL == "cosamp_fallback"
