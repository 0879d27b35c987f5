"""Defence-loop tests: stopping, fallback, trace consistency, determinism,
schedules, and family identification on a calibrated ensemble.

The loop is also checked bit for bit against a plain copy of the loop that
recomputes every action's evidence on every iteration, scores the residual
vectors with copies of the vector-based feedback predicate and stop rule,
and selects actions with its own numpy bandit, except that on a row subset
an l1 action whose solve converged reuses that solve on its repeats and as
the final answer, and every l1 solve there continues from the latest
splitting state of the run.
"""

import dataclasses
import functools
import hashlib
import itertools
import logging
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings

import cad_defense.cad
import cad_defense.harness
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from cad_defense import (ACTION_LABELS, FALLBACK_LABEL, AttackSpec,
                         CadConfig, CleanStats, FeedbackConfig, L1Problem,
                         SensingOperator, action_radius, cad_run, cosamp_run,
                         estimate_clean_stats, l1_min_general, l1_min_orthonormal,
                         make_clean_compressible, make_clean_sparse, perturb,
                         top_k)
from cad_defense.cad import (_INNER_SCHEDULE, CadIterationRecord, CadOutcome,
                             _ClosedForms, _Iterative, run_action)
from cad_defense.feedback import (feedback_bit, mahalanobis, save_clean_stats,
                                  should_stop, thresholded_count)
from cad_defense.harness import ConfigError, ExperimentConfig, _load_stats, _run_one
from cad_defense.recovery import (A_COSAMP, A_L0, A_L2, A_LINF, N_ACTIONS,
                                  _soft_threshold, _threshold_table)
from cad_defense.transform import _largest, residual

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


def _budget(times_selected):
    """An action's in-loop budget on its times_selected-th selection."""
    n0, inc = _INNER_SCHEDULE
    return n0 + inc * (times_selected - 1)


def test_schedule_base_and_growth():
    assert _INNER_SCHEDULE == (3, 2)
    assert [_budget(t) for t in (1, 2, 3)] == [3, 5, 7]


def _in_loop_budgets(monkeypatch):
    """action -> the budget of each in-loop solve of it, in order, over the
    row-subset ensemble: CoSaMP's steps, or the splitting solver's cap in
    units of _GENERAL_ITERS_PER_UNIT; final runs are left out."""
    calls = []

    def solving(problem, x0=None):
        calls.append((by_radius[problem.radius],
                      problem.max_iters / cad_defense.cad._GENERAL_ITERS_PER_UNIT))
        return l1_min_general(problem, x0)

    def greedy(y, op, k, n_iters, x0=None):
        calls.append((A_COSAMP, n_iters))
        return cosamp_run(y, op, k, n_iters, x0=x0)

    monkeypatch.setattr(cad_defense.cad, "l1_min_general", solving)
    monkeypatch.setattr(cad_defense.cad, "cosamp_run", greedy)
    budgets = {a: [] for a in range(N_ACTIONS)}
    for op, y, cfg in _row_subset_ensemble():
        fb = cfg.feedback
        by_radius = {action_radius(a, fb.tau, cfg.eta, cfg.eta_prime, cfg.eta_dprime,
                                   op.n): a for a in (A_L0, A_L2, A_LINF)}
        calls.clear()
        out = cad_run(y, cfg, None, op)
        # a CoSaMP step always solves, an l1 step exactly when it records a
        # splitting solve; the final answer's run, if any, comes last
        solves = [sum(r.action == a and (a == A_COSAMP or r.solver_iters is not None)
                      for r in out.trace) for a in range(N_ACTIONS)]
        for a in range(N_ACTIONS):
            budgets[a].append([b for c, b in calls if c == a][:solves[a]])
    return budgets


def test_schedule_constant_when_increment_zero(monkeypatch):
    # the loop reads the schedule when a run starts, so a patched constant
    # sizes every in-loop solve of the run
    monkeypatch.setattr(cad_defense.cad, "_INNER_SCHEDULE", (4, 0))
    budgets = _in_loop_budgets(monkeypatch)
    assert all(any(runs) for runs in budgets.values())
    assert {b for runs in budgets.values() for run in runs for b in run} == {4}


def test_schedule_monotone_and_validated():
    n0, inc = _INNER_SCHEDULE
    assert isinstance(n0, int) and isinstance(inc, int) and n0 >= 1 and inc >= 0
    budgets = [_budget(t) for t in range(1, 10)]
    assert budgets == sorted(budgets)


# ---------------------------------------------------------------------------
# one loop step: each provider's estimate mirrors the underlying solvers,
# run_action scores it


def _step(action, y, op, cfg, budget, x_start=None):
    """run_action on a fresh full-operator provider."""
    return run_action(action, _ClosedForms(y, op, cfg, None), budget,
                      np.zeros(op.n) if x_start is None else x_start)


def test_run_action_l1_matches_direct_solve():
    op, x, y = _clean_instance()
    cfg = CadConfig(k=6, feedback=_fb())
    radius = action_radius(A_L2, cfg.feedback.tau, cfg.eta, cfg.eta_prime,
                           cfg.eta_dprime, op.n)
    direct = l1_min_orthonormal(L1Problem(observed=y, op=op, radius=radius))
    estimate, final, solved = _ClosedForms(y, op, cfg, None).estimate(A_L2, 3, None)
    assert np.array_equal(estimate, top_k(direct, 6)) and final and solved is None
    assert np.array_equal(_step(A_L2, y, op, cfg, budget=3)[0], top_k(direct, 6))


def test_run_action_cosamp_continues_from_start():
    # on a row subset a CoSaMP step runs its budget of steps from the
    # loop's current estimate, which lands elsewhere than a cold run
    n, k = 64, 4
    op = SensingOperator(n, rows=np.sort(np.random.default_rng(5).choice(n, 40, replace=False)))
    y = (op.synthesize(make_clean_sparse(n, k, np.random.default_rng(3)))
         + 0.1 * np.random.default_rng(1).standard_normal(op.m))
    start = top_k(np.random.default_rng(4).standard_normal(n), k)
    cfg = CadConfig(k=k, feedback=_fb())
    for budget in (1, 2, 3):
        step = run_action(A_COSAMP, _Iterative(y, op, cfg, None), budget, start)[0]
        want = cosamp_run(y, op, k, budget, x0=start).estimate
        assert step.tobytes() == want.tobytes()
        assert step.tobytes() != cosamp_run(y, op, k, budget).estimate.tobytes()


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


@settings(max_examples=300, deadline=None)
@given(data=st.data(), n=st.integers(4, 39))
def test_loop_prune_gives_the_bytes_of_top_k(data, n):
    # the loop prunes every estimate to order[:k], its one order of |c|;
    # magnitudes from a small set, exact zeros and radii on or beside the
    # knots of the soft threshold make shrunk magnitudes tie,
    # thresholded-away entries keep the sign of c as a signed zero, and
    # some estimates have fewer than k nonzeros.  The kept magnitudes are
    # top_k's in every case, and so are the bytes unless the k-th and
    # (k+1)-th magnitudes along the order tie, where the tie-breaks differ.
    # Each step's residual features are those of transform.residual and
    # c - estimate
    magnitudes = np.array(data.draw(st.lists(
        st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0, 3.0]), min_size=n, max_size=n)))
    signs = np.array(data.draw(st.lists(st.sampled_from([-1.0, 1.0]),
                                        min_size=n, max_size=n)))
    c = signs * magnitudes
    k = data.draw(st.integers(1, n - 1))
    knots = np.sort(magnitudes)
    at_knots = np.sqrt([float(np.sum(np.minimum(t, magnitudes) ** 2)) for t in knots])
    radius = float(data.draw(st.one_of(
        st.sampled_from(sorted(at_knots)).flatmap(lambda r: st.sampled_from(
            [r, np.nextafter(r, 0.0), np.nextafter(r, np.inf)])),
        st.floats(0.05, 0.95).map(lambda f: f * float(np.linalg.norm(c))))))
    op = SensingOperator(n)
    cfg = CadConfig(k=k, feedback=_fb(tau=1), eta=radius, eta_prime=radius,
                    eta_dprime=radius / math.sqrt(n))
    y = op.synthesize(c)
    # the run's c, exactly: the round trip through y would break the ties
    closed = _ClosedForms(y, op, cfg, None)
    # the stable argsort is the oracle of the run's selection
    order = np.argsort(-np.abs(c), kind="stable")
    closed.c, closed.keep = c, _largest(c, k)
    # the run's residuals are products on the kept columns: gathered again
    closed.cols = op.columns(np.flatnonzero(closed.keep))
    table = _threshold_table(c)
    for action in range(N_ACTIONS):
        raw = c if action == A_COSAMP else _soft_threshold(table, closed.radius(action))
        estimate, _, _, l2, linf, count, _ = run_action(action, closed, 1, np.zeros(n))
        v = residual(y, estimate, op)
        assert (l2, linf, count) == (
            float(np.linalg.norm(v)), float(np.abs(v).max()),
            thresholded_count(c - estimate, cfg.feedback.count_threshold))
        kept, dropped = order[:k], order[k:]
        assert estimate[kept].tobytes() == raw[kept].tobytes()
        assert estimate[dropped].tobytes() == np.zeros(n - k).tobytes()
        pruned = top_k(raw, k)
        assert np.array_equal(np.sort(np.abs(estimate)), np.sort(np.abs(pruned)))
        if abs(raw[order[k - 1]]) != abs(raw[order[k]]):
            assert estimate.tobytes() == pruned.tobytes()


def test_subsampled_actions_keep_the_iterative_solvers():
    n, k = 64, 4
    rows = np.sort(np.random.default_rng(5).choice(n, 40, replace=False))
    op = SensingOperator(n, rows=rows)
    x = make_clean_sparse(n, k, np.random.default_rng(3))
    y = op.synthesize(x)
    start = top_k(np.random.default_rng(4).standard_normal(n), k)
    cfg = CadConfig(k=k, feedback=_fb())
    greedy, *_ = _Iterative(y, op, cfg, None).estimate(A_COSAMP, 2, start)
    assert np.array_equal(greedy, cosamp_run(y, op, k, 2, x0=start).estimate)
    radius = action_radius(A_L2, cfg.feedback.tau, cfg.eta, cfg.eta_prime,
                           cfg.eta_dprime, n)
    # a run's first l1 solve starts cold, whatever the loop's estimate
    convex, *_ = _Iterative(y, op, cfg, None).estimate(A_L2, 2, start)
    direct = l1_min_general(L1Problem(observed=y, op=op, radius=radius,
                                      max_iters=400))
    assert np.array_equal(convex, top_k(direct.coeffs, k))
    # the fallback's final answer is a cold run of ten CoSaMP steps
    starved = _fb(alpha=0.0, theta=0.0, tau=0, m=math.inf, beta=math.inf,
                  delta_res=0.0, t_max=5)
    out = cad_run(y, CadConfig(k=k, feedback=starved), None, op)
    assert out.fallback
    assert np.array_equal(out.estimate, cosamp_run(y, op, k, 10).estimate)


def test_run_action_reports_whether_its_solve_is_final(monkeypatch):
    # every full-operator solve is a closed form and final; a subsampled l1
    # solve, which starts from the run's latest splitting state and leaves
    # its own there, is final exactly when its solver converged, CoSaMP
    # never; a step stores its evidence exactly when its solve is final.
    # 20-iteration budget units leave some subsampled solves uncertified
    monkeypatch.setattr(cad_defense.cad, "_GENERAL_ITERS_PER_UNIT", 20)
    n, k = 64, 4
    full = SensingOperator(n)
    sub = SensingOperator(n, rows=np.sort(np.random.default_rng(5).choice(n, 40, replace=False)))
    x = make_clean_sparse(n, k, np.random.default_rng(3))
    noise = np.random.default_rng(1).standard_normal(n)
    start = top_k(np.random.default_rng(4).standard_normal(n), k)
    cfg = CadConfig(k=k, feedback=_fb())
    y = full.synthesize(x) + noise
    for action in (A_COSAMP, A_L0, A_L2, A_LINF):
        closed = _ClosedForms(y, full, cfg, None)
        assert closed.estimate(action, 1, start)[1:] == (True, None)
        assert run_action(action, closed, 1, start) is closed.finals[action]
    y = y[sub.rows]
    flags = []
    for budget in (1, 2, 30):
        iterative = _Iterative(y, sub, cfg, None)
        assert iterative.estimate(A_COSAMP, budget, start)[1:] == (False, None)
        run_action(A_COSAMP, iterative, budget, start)
        assert not iterative.finals and iterative.state is None
        for action in (A_L0, A_L2, A_LINF):
            radius = action_radius(action, cfg.feedback.tau, cfg.eta, cfg.eta_prime,
                                   cfg.eta_dprime, n)
            direct = l1_min_general(L1Problem(observed=y, op=sub, radius=radius,
                                              max_iters=20 * budget), x0=iterative.state)
            evidence = run_action(action, iterative, budget, start)
            final = direct.converged
            assert evidence[-1].coeffs.tobytes() == direct.coeffs.tobytes()
            assert evidence[-1].converged is final
            assert iterative.state.tobytes() == direct.state.tobytes()
            stored = iterative.finals.get(action)
            assert (stored is not None) is final
            if final:
                assert stored[:-1] == evidence[:-1] and stored[-1] is None
            flags.append(final)
    assert True in flags and False in flags


@pytest.mark.parametrize("action", [A_COSAMP, A_L0, A_L2, A_LINF])
def test_run_action_cached_coefficients_give_the_same_bytes(action):
    # the run's cached c gives the bytes of a fresh analysis, and a step
    # neither writes to c nor hands back an estimate that aliases it
    op, x, y = _clean_instance()
    y = y + 0.5 * np.random.default_rng(8).standard_normal(op.m)
    cfg = CadConfig(k=6, feedback=_fb())
    closed = _ClosedForms(y, op, cfg, None)
    estimate = run_action(action, closed, 3, x)[0]
    if action == A_COSAMP:
        fresh = op.analyze(y)
    else:
        radius = action_radius(action, cfg.feedback.tau, cfg.eta, cfg.eta_prime,
                               cfg.eta_dprime, op.n)
        fresh = l1_min_orthonormal(L1Problem(observed=y, op=op, radius=radius))
    assert estimate.tobytes() == top_k(fresh, 6).tobytes()
    estimate[:] = 7.0
    assert closed.c.tobytes() == op.analyze(y).tobytes()


@pytest.mark.parametrize("n, k", [(64, 6), (784, 80)])
def test_closed_forms_residual_gives_the_bytes_of_the_support_residual(n, k):
    # on its kept columns when every kept entry is nonzero, and through
    # transform.residual's smaller support when one is zero
    op = SensingOperator(n)
    y = np.random.default_rng(n).standard_normal(n)
    closed = _ClosedForms(y, op, CadConfig(k=k, feedback=_fb()), None)
    estimate = closed.estimate(A_COSAMP, None, None)[0]
    assert np.count_nonzero(estimate) == k
    thinned = estimate.copy()
    thinned[np.flatnonzero(closed.keep)[k // 2]] = 0.0
    for x in (estimate, thinned):
        assert closed.residual(x).tobytes() == residual(y, x, op).tobytes()


def test_full_operator_run_gathers_its_kept_columns_once(monkeypatch):
    # every residual of the run is a product on one gather of A[:, keep],
    # however many distinct actions the loop scores
    n, k = 128, 8
    op = SensingOperator(n)
    clean = make_clean_compressible(n, k, np.random.default_rng(5), (4.0, 7.0), 0.5)
    inst = perturb(clean, AttackSpec(family="l0", seed=5, tau=4, eta_prime=2.0), op)
    gathers = []
    columns = SensingOperator.columns
    monkeypatch.setattr(SensingOperator, "columns",
                        lambda self, idx: gathers.append(idx) or columns(self, idx))
    out = cad_run(inst.observed, CadConfig(k=k, feedback=_fb(), seed=5), None, op)
    assert len(out.trace) >= 3 and len({r.action for r in out.trace}) == N_ACTIONS
    assert len(gathers) == 1


def test_unconverged_subsampled_solve_logs_at_debug(caplog):
    n, k = 64, 4
    op = SensingOperator(n, rows=np.sort(np.random.default_rng(5).choice(n, 40, replace=False)))
    y = (op.synthesize(make_clean_sparse(n, k, np.random.default_rng(3)))
         + np.random.default_rng(1).standard_normal(op.m))  # 200 iterations fall short
    cfg = CadConfig(k=k, feedback=_fb())
    with caplog.at_level(logging.WARNING, logger="cad_defense"):
        quiet, *_ = _Iterative(y, op, cfg, None).estimate(A_L2, 1, None)
    assert not caplog.records
    with caplog.at_level(logging.DEBUG, logger="cad_defense"):
        loud, *_ = _Iterative(y, op, cfg, None).estimate(A_L2, 1, None)
    assert loud.tobytes() == quiet.tobytes()
    [record] = caplog.records
    assert record.levelno == logging.DEBUG
    assert record.getMessage().startswith("a3 unconverged after 200 of 200 iterations")
    assert "feasibility gap" in record.getMessage()
    assert "duality gap" in record.getMessage()


def test_certified_subsampled_solve_is_the_final_answer(monkeypatch):
    # an l1 action whose in-loop solve carried a duality certificate answers
    # with that solve's pruned estimate and no further run; one that never
    # certified answers with exactly one run of the solver's default cap,
    # from the run's latest splitting state; 10-iteration budgets leave
    # some chosen actions uncertified
    n, k = 64, 8
    op = SensingOperator(n, rows=np.sort(np.random.default_rng(5).choice(n, 40, replace=False)))
    calls = []

    def counting(problem, x0=None):
        result = l1_min_general(problem, x0)
        calls.append((problem.radius, x0, problem.max_iters, result))
        return result

    monkeypatch.setattr(cad_defense.cad, "l1_min_general", counting)
    outcomes = []
    for schedule, per_unit in [((3, 2), 200), ((1, 0), 200), ((1, 0), 10)]:
        monkeypatch.setattr(cad_defense.cad, "_INNER_SCHEDULE", schedule)
        monkeypatch.setattr(cad_defense.cad, "_GENERAL_ITERS_PER_UNIT", per_unit)
        for spec in _ORACLE_ATTACKS[1:]:
            for seed in range(8):
                calls.clear()
                x = make_clean_compressible(n, k, np.random.default_rng([70, seed]))
                y = perturb(x, spec, SensingOperator(n)).observed[op.rows]
                fb = _fb(alpha=3.0, beta=2.0, m=0.8, tau=k, theta=float(op.m),
                         delta_res=0.0, t_max=12)
                cfg = CadConfig(k=k, feedback=fb, seed=seed)
                out = cad_run(y, cfg, None, op)
                in_loop = sum(r.solver_iters is not None for r in out.trace)
                final_runs = calls[in_loop:]
                if out.fallback or out.final_method == A_COSAMP:
                    assert not final_runs
                    continue
                radius = action_radius(out.final_method, fb.tau, cfg.eta, cfg.eta_prime,
                                       cfg.eta_dprime, n)
                solved = [res for r, _, _, res in calls[:in_loop]
                          if r == radius and res.converged]
                if solved:
                    assert not final_runs
                    answer = solved[-1]
                else:
                    [(r, x0, cap, answer)] = final_runs
                    states = [res.state for *_, res in calls[:in_loop]
                              if res.state is not None]
                    assert (r, cap) == (radius, 5000)
                    if states:
                        assert x0.tobytes() == states[-1].tobytes()
                    else:
                        assert x0 is None
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

    def stepping(action, provider, budget, x_start):
        stored, before = provider.finals.get(action), len(solves)
        evidence = run_action(action, provider, budget, x_start)
        steps.append((action, stored, evidence, solves[before:],
                      provider.finals.get(action)))
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
        reused += (sum(r.action in certified for r in out.trace)
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
        assert [s[0] for s in steps] == [r.action for r in out.trace]
        for record, (action, stored, evidence, calls, after) in zip(out.trace, steps):
            if stored is not None:
                assert evidence is stored and after is stored and not calls
                repeats += 1
            else:
                [(solver, converged)] = calls
                assert solver == action
                assert (after is not None) is converged
                assert after is None or after[:-1] == evidence[:-1]
            estimate, md, f, l2, linf, count, _ = evidence
            assert ((record.md, record.feedback, record.residual_l2,
                     record.residual_linf, record.residual_count)
                    == (md, f, l2, linf, count))
    assert repeats >= 10


def test_subset_l1_solves_continue_the_runs_splitting_state(monkeypatch):
    # a run's first l1 solve starts cold, and every later one, the final
    # answer's included, from the bytes of the latest state returned before
    # it; a solve that returned at once (a4's ball holds zero here) leaves
    # that state as it was.  10-iteration budget units leave some chosen
    # actions uncertified, so that the final answer solves
    n, k = 64, _SUBSET_K
    op = SensingOperator(n, rows=np.sort(np.random.default_rng(5).choice(n, 40, replace=False)))
    calls = []

    def solving(problem, x0=None):
        result = l1_min_general(problem, x0)
        calls.append((x0, result))
        return result

    monkeypatch.setattr(cad_defense.cad, "l1_min_general", solving)
    monkeypatch.setattr(cad_defense.cad, "_GENERAL_ITERS_PER_UNIT", 10)
    fb = _fb(alpha=3.0, beta=2.0, m=0.8, tau=k, theta=float(op.m), delta_res=0.0, t_max=12)
    at_once = final_runs = 0
    for spec in _ORACLE_ATTACKS:
        for seed in range(8):
            calls.clear()
            x = make_clean_compressible(n, k, np.random.default_rng([70, seed]))
            y = perturb(x, spec, SensingOperator(n)).observed[op.rows]
            cfg = CadConfig(k=k, feedback=fb, seed=seed,
                            eta_dprime=float(np.linalg.norm(y)) / math.sqrt(n))
            out = cad_run(y, cfg, None, op)
            latest = None
            for x0, result in calls:
                if latest is None:
                    assert x0 is None
                else:
                    assert x0.tobytes() == latest.tobytes()
                if result.state is None:
                    assert result.iterations == 0
                    at_once += 1
                else:
                    latest = result.state
            final_runs += len(calls) > sum(r.solver_iters is not None for r in out.trace)
    assert at_once >= 5 and final_runs >= 5


def test_trace_records_each_steps_splitting_solve(monkeypatch):
    # a record carries the iterations and certificate flag of its step's
    # splitting solve, and None for both where the step ran none: CoSaMP
    # steps, repeats that reused final evidence, and every full-operator step
    solved = skipped = 0
    for out, _, steps in _subset_runs(monkeypatch):
        for record, (action, _, _, calls, _) in zip(out.trace, steps):
            if action != A_COSAMP and calls:
                [(_, converged)] = calls
                assert record.certified is converged
                assert isinstance(record.solver_iters, int) and record.solver_iters >= 0
                solved += 1
            else:
                assert record.solver_iters is None and record.certified is None
                skipped += 1
        assert all(key in row for row in out.to_jsonable()["trace"]
                   for key in ("solver_iters", "certified"))
    assert solved >= 10 and skipped >= 10
    out, _ = _attacked_run(seed=2)
    assert all(r.solver_iters is None and r.certified is None for r in out.trace)


# ---------------------------------------------------------------------------
# the loop against a copy that recomputes every action's evidence


def _reference_solve(action, y, op, cfg, budget=None, x_start=None):
    """The dispatcher as it was before the loop cached F y: analyses y itself.

    Returns the spectrum, whether the subsampled l1 solver converged, and
    that solver's result (None for every other solve).
    """
    if action == A_COSAMP:
        if op.is_full:
            return op.analyze(y), False, None
        steps = 10 if budget is None else budget
        return cosamp_run(y, op, cfg.k, steps, x0=x_start).estimate, False, None
    radius = action_radius(action, cfg.feedback.tau, cfg.eta, cfg.eta_prime,
                           cfg.eta_dprime, op.n)
    problem = L1Problem(observed=y, op=op, radius=radius)
    if op.is_full:
        return l1_min_orthonormal(problem), False, None
    if budget is not None:
        problem = dataclasses.replace(problem, max_iters=200 * budget)
    result = l1_min_general(problem, x0=x_start)
    return result.coeffs, result.converged, result


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


def _reference_should_stop(probs, v, cfg):
    """The vector-based stop rule as it was before it read features."""
    return int(probs.max() > cfg.delta_prob
               or float(np.linalg.norm(v)) < cfg.delta_res)


# The reference bandit: the numpy mixed softmax and inverse-CDF draw, on a
# numpy score vector, with lambda / p in plain floats.  It shares no code
# with cad_defense.bandit, so the bit-for-bit oracle sees a bit that moves.
_REFERENCE_CLAMP = 1e-6


def _reference_probabilities(scores, gamma, sigma):
    scaled = sigma * np.asarray(scores, dtype=np.float64)
    w = np.exp(scaled - scaled.max())
    soft = w / w.sum()
    return (1.0 - gamma) * soft + gamma / 4


def _reference_draw(probs, rng):
    cum = np.cumsum(probs)
    return int(min(np.searchsorted(cum, rng.random(), side="right"), 3))


def _reference_reward(feedback, p, lam):
    return lam / p if feedback else -1.0 / max(1.0 - p, _REFERENCE_CLAMP)


def _reference_run_single(y, cfg, stats, op, seed):
    """The loop before the evidence memo: every step solves afresh unless
    the action has a converged subsampled l1 solve, which its repeats and
    the final answer reuse.  CoSaMP starts from the current estimate and
    every subsampled l1 solve, the final answer's included, from the
    latest splitting state any of them returned.  On the full operator
    every estimate keeps its first k entries along a stable descending
    argsort of |F y|, taken here; on a row subset top_k prunes it.
    Residuals are the product over the estimate's support, formed here,
    not through transform.residual."""
    y = np.asarray(y, dtype=np.float64)
    fb = cfg.feedback
    rng = np.random.default_rng(seed)
    estimate = np.zeros(op.n)
    coeffs = op.analyze(y) if op.is_full else None
    keep = None if coeffs is None else np.argsort(-np.abs(coeffs), kind="stable")[:cfg.k]

    def prune(raw):
        if keep is None:
            return top_k(raw, cfg.k)
        out = np.zeros(op.n)
        out[keep] = raw[keep]
        return out

    scores = np.zeros(N_ACTIONS)
    times = [0] * N_ACTIONS
    trace = []
    converged = {}
    splitting = None
    stop_reason = "t_max"
    t = 0
    for t in range(1, fb.t_max + 1):
        probs = _reference_probabilities(scores, *cfg.bandit_params[:2])
        a = _reference_draw(probs, rng)
        times[a] += 1
        n0, inc = cad_defense.cad._INNER_SCHEDULE
        budget = n0 + inc * (times[a] - 1)
        solver = None
        if a in converged:
            raw, solved = converged[a], True
        else:
            start = estimate if a == A_COSAMP else splitting
            raw, solved, solver = _reference_solve(a, y, op, cfg, budget, x_start=start)
            if solver is not None and solver.state is not None:
                splitting = solver.state
        estimate = prune(raw)
        if solved:
            converged[a] = estimate
        # the product over the estimate's support, as the loop forms it
        support = np.flatnonzero(estimate)
        v = y - op.columns(support) @ estimate[support]
        v_spec = coeffs - estimate if coeffs is not None else op.adjoint(v)
        md = None
        if a == A_COSAMP and stats is not None:
            md = mahalanobis(v, stats)
        f = _reference_feedback_bit(a, v, fb, v_spec, md)
        p = float(probs[a])
        r = _reference_reward(f, p, cfg.bandit_params[2])
        scores[a] += r
        trace.append(CadIterationRecord(
            t=t, action=a, probs=tuple(probs),
            solver_iters=None if solver is None else solver.iterations,
            certified=None if solver is None else solver.converged,
            feedback=f, reward=r, scores=tuple(scores),
            residual_l2=float(np.linalg.norm(v)),
            residual_linf=float(np.abs(v).max()),
            residual_count=thresholded_count(v_spec, fb.count_threshold),
            md=md, penalty_clamped=bool(f == 0 and 1.0 - p < _REFERENCE_CLAMP),
        ))
        if _reference_should_stop(probs, v, fb):
            stop_reason = "prob" if probs.max() > fb.delta_prob else "residual"
            break
    best = int(np.argmax(scores))
    fallback = bool(scores.max() <= 0.0)
    chosen = A_COSAMP if fallback else best
    final = (converged[chosen] if chosen in converged
             else prune(_reference_solve(chosen, y, op, cfg, x_start=(
                 None if chosen == A_COSAMP else splitting))[0]))
    return CadOutcome(
        final_method=best, fallback=fallback, estimate=final, trace=trace,
        stopped_at=t, stop_reason=stop_reason, final_scores=tuple(scores),
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
       seed=st.integers(0, 2 ** 32 - 1), with_stats=st.booleans())
def test_loop_matches_the_reference_loop_bit_for_bit(data, name, seed, with_stats):
    op, clean_stats = _oracle_setup(name)
    n, k = op.n, op.n // 8
    t_max = data.draw(st.integers(1, 40 if op.is_full else 12))
    # loose thresholds, so that every action's bit and the fallback occur
    fb = _fb(alpha=data.draw(st.sampled_from([1.0, 3.0, 8.0])), beta=2.0, m=0.8,
             tau=data.draw(st.integers(0, n)), theta=float(op.m),
             delta_res=data.draw(st.sampled_from([0.0, 0.5])), t_max=t_max)
    cfg = CadConfig(k=k, feedback=fb, seed=seed)
    x = make_clean_compressible(n, k, np.random.default_rng(seed))
    spec = data.draw(st.sampled_from(_ORACLE_ATTACKS))
    observed = perturb(x, spec, SensingOperator(n)).observed
    y = observed if op.is_full else observed[op.rows]
    stats = clean_stats if with_stats else None
    ours = cad_run(y, cfg, stats, op)
    ref = _reference_run_single(y, cfg, stats, op, [seed, 0])
    assert ours.to_jsonable() == ref.to_jsonable()
    assert ours.estimate.tobytes() == ref.estimate.tobytes()
    assert (ours.stop_reason, ours.stopped_at) == (ref.stop_reason, ref.stopped_at)
    assert ours.final_scores == ref.final_scores


# ---------------------------------------------------------------------------
# exact metamorphic relations of the whole loop
#
# A sign flip and a power-of-two scale commute with every IEEE rounding away
# from overflow and subnormals, orders by magnitude keep their ties, and the
# bandit reads only bits.  So flipping the observation and the clean
# residuals flips the estimate exactly; doubling them, with the ridge x4 and
# every absolute threshold and budget x2, doubles the estimate and every
# residual norm exactly and leaves md, the bits and the labels as they were.
# l1_min_general's feasibility tolerance is absolute above ||y|| = 1, so on
# row subsets the relations are drawn with ||y|| > 1 at both scales.


def _doubled(cfg):
    fb = cfg.feedback
    return dataclasses.replace(
        cfg, eta=2 * cfg.eta, eta_prime=2 * cfg.eta_prime, eta_dprime=2 * cfg.eta_dprime,
        feedback=dataclasses.replace(
            fb, alpha=2 * fb.alpha, beta=2 * fb.beta, m=2 * fb.m,
            count_threshold=2 * fb.count_threshold, delta_res=2 * fb.delta_res))


def _drawn_run(data, name, seed, with_stats):
    """(y, cfg, stats, op) of one drawn single-channel run."""
    op, clean_stats = _oracle_setup(name)
    n, k = op.n, op.n // 8
    fb = _fb(alpha=data.draw(st.sampled_from([1.0, 3.0, 8.0])), beta=2.0, m=0.8,
             tau=data.draw(st.integers(0, n)), theta=float(op.m),
             delta_res=data.draw(st.sampled_from([0.0, 0.5])),
             t_max=data.draw(st.integers(1, 40 if op.is_full else 12)))
    x = make_clean_compressible(n, k, np.random.default_rng(seed))
    y = perturb(x, data.draw(st.sampled_from(_ORACLE_ATTACKS)), SensingOperator(n)).observed
    y = y if op.is_full else y[op.rows]
    assume(op.is_full or np.linalg.norm(y) > 1.0)
    return y, CadConfig(k=k, feedback=fb, seed=seed), clean_stats if with_stats else None, op


def _assert_equivariant(base, mapped, factor):
    assert np.array_equal(mapped.estimate, factor * base.estimate)
    assert (mapped.final_method, mapped.fallback, mapped.method_label) == \
        (base.final_method, base.fallback, base.method_label)
    assert (mapped.stopped_at, mapped.stop_reason) == (base.stopped_at, base.stop_reason)
    assert mapped.final_scores == base.final_scores
    for ours, ref in zip(mapped.trace, base.trace, strict=True):
        ref = dataclasses.replace(ref, residual_l2=abs(factor) * ref.residual_l2,
                                  residual_linf=abs(factor) * ref.residual_linf)
        assert dataclasses.asdict(ours) == dataclasses.asdict(ref)


@settings(max_examples=100, deadline=None)
@given(data=st.data(), name=st.sampled_from(sorted(_ORACLE_OPERATORS)),
       seed=st.integers(0, 2 ** 32 - 1), with_stats=st.booleans())
def test_loop_is_odd_in_the_observation(data, name, seed, with_stats):
    y, cfg, stats, op = _drawn_run(data, name, seed, with_stats)
    flipped = None if stats is None else CleanStats(-stats.residuals, stats.ridge)
    _assert_equivariant(cad_run(y, cfg, stats, op), cad_run(-y, cfg, flipped, op), -1.0)


@settings(max_examples=100, deadline=None)
@given(data=st.data(), name=st.sampled_from(sorted(_ORACLE_OPERATORS)),
       seed=st.integers(0, 2 ** 32 - 1), with_stats=st.booleans())
def test_loop_commutes_with_a_power_of_two_scale(data, name, seed, with_stats):
    y, cfg, stats, op = _drawn_run(data, name, seed, with_stats)
    doubled = None if stats is None else CleanStats(2.0 * stats.residuals, 4.0 * stats.ridge)
    _assert_equivariant(cad_run(y, cfg, stats, op),
                        cad_run(2.0 * y, _doubled(cfg), doubled, op), 2.0)


def test_full_operator_run_reaches_no_row_subset_solver(monkeypatch):
    # every action is a closed form of F y on the full operator, and so is
    # CoSaMP's fit behind the clean statistics: neither they (nor their thin
    # SVD) nor a run reach the least-squares fit, a Cholesky factorization,
    # the splitting solver, the operator's Gram matrix or the provider that
    # row subsets use
    def refuse(*args, **kwargs):
        raise AssertionError("a row-subset solver ran on the full operator")

    for module, name in ((np.linalg, "lstsq"), (np.linalg, "cholesky"),
                         (cad_defense.cad, "l1_min_general"),
                         (cad_defense.cad, "_Iterative")):
        monkeypatch.setattr(module, name, refuse)
    monkeypatch.setattr(SensingOperator, "gram", property(refuse))
    op = SensingOperator(64)
    rng = np.random.default_rng([66, 64])
    stats = estimate_clean_stats(
        [op.synthesize(make_clean_compressible(64, 8, rng)) for _ in range(16)],
        op, 8, ridge=1e-4)
    fb = _fb(alpha=3.0, beta=2.0, m=0.8, tau=8, theta=64.0, t_max=40)
    actions, answers = set(), set()
    for spec in _ORACLE_ATTACKS:
        for seed in range(4):
            x = make_clean_compressible(64, 8, np.random.default_rng([71, seed]))
            out = cad_run(perturb(x, spec, op).observed,
                          CadConfig(k=8, feedback=fb, seed=seed), stats, op)
            actions.update(record.action for record in out.trace)
            answers.add(out.method_label)
    assert actions == set(range(N_ACTIONS))
    assert len(answers) > 1


def _row_subset_ensemble():
    """(op, y, cfg) of each run of a small row-subset ensemble: four
    families, four seeds each."""
    op, _ = _oracle_setup("rows40of64")
    n, k = op.n, op.n // 8
    fb = _fb(alpha=3.0, beta=2.0, m=0.8, tau=k, theta=float(op.m), delta_res=0.0, t_max=12)
    runs = []
    for spec in _ORACLE_ATTACKS:
        for seed in range(4):
            x = make_clean_compressible(n, k, np.random.default_rng([73, seed]))
            y = perturb(x, spec, SensingOperator(n)).observed[op.rows]
            runs.append((op, y, CadConfig(k=k, feedback=fb, seed=seed)))
    return runs


def test_row_subset_run_reaches_no_closed_form(monkeypatch):
    # the mirror image: a row-subset run of any family neither analyses y
    # nor builds the full operator's provider or its threshold table
    def refuse(*args, **kwargs):
        raise AssertionError("a full-operator closed form ran on a row subset")

    runs = _row_subset_ensemble()
    for module, name in ((SensingOperator, "analyze"), (cad_defense.cad, "_ClosedForms"),
                         (cad_defense.cad, "_threshold_table")):
        monkeypatch.setattr(module, name, refuse)
    actions = set()
    for op, y, cfg in runs:
        actions.update(record.action for record in cad_run(y, cfg, None, op).trace)
    assert actions == set(range(N_ACTIONS))


def test_threshold_table_is_built_on_the_first_l1_solve(monkeypatch):
    # a full-operator run builds its threshold table once if its loop selects
    # an l1 action, and never if CoSaMP is all it runs
    built = []

    def counting(*args):
        built.append(args)
        return threshold_table(*args)

    threshold_table = cad_defense.cad._threshold_table
    monkeypatch.setattr(cad_defense.cad, "_threshold_table", counting)
    op, x, y = _clean_instance()
    greedy_only = with_l1 = 0
    for seed in range(20):
        built.clear()
        out = cad_run(y, CadConfig(k=6, feedback=_fb(), seed=seed), None, op)
        l1 = any(record.action != A_COSAMP for record in out.trace)
        assert len(built) == int(l1)
        greedy_only += not l1
        with_l1 += l1
    assert greedy_only >= 2 and with_l1 >= 2


# ---------------------------------------------------------------------------
# the two regimes against each other
#
# SensingOperator(n, rows=np.arange(n)) keeps every row, so it is the
# orthonormal operator, yet a run on it takes the iterative path.  Both
# regimes must then make the same calls on the same observation.  The
# iterative l1 solver stops once its certified duality gap is at most
# L1Problem.tolerance of its objective, and the estimates are held to that
# relative distance.

_REGIME_SEEDS = (0, 1, 2, 3, 4, 5)


def _first_flip(closed, iterative):
    """The features both regimes recorded at the first iteration whose
    action or bit differs, or at the end of the shorter trace."""
    pairs = list(zip(closed.trace, iterative.trace))
    t = next((i for i, (a, b) in enumerate(pairs)
              if (a.action, a.feedback) != (b.action, b.feedback)), len(pairs) - 1)
    fields = ("t", "action", "feedback", "residual_l2", "residual_linf", "residual_count", "md")
    return [{f: getattr(r, f) for f in fields} for r in pairs[t]]


@pytest.mark.parametrize("name", ["full64", "full128"])
def test_closed_forms_and_iterative_path_agree_on_every_row(name):
    op, clean_stats = _oracle_setup(name)
    n, k = op.n, op.n // 8
    every_row = SensingOperator(n, rows=np.arange(n))
    fb = _fb(alpha=3.0, beta=2.0, m=0.8, tau=k, theta=float(n), delta_res=0.0)
    for spec, seed, stats in itertools.product(_ORACLE_ATTACKS, _REGIME_SEEDS,
                                               (None, clean_stats)):
        x = make_clean_compressible(n, k, np.random.default_rng([19, seed]))
        y = perturb(x, dataclasses.replace(spec, seed=seed), op).observed
        cfg = CadConfig(k=k, feedback=fb, seed=seed)
        closed, iterative = cad_run(y, cfg, stats, op), cad_run(y, cfg, stats, every_row)
        case = f"{spec.family} seed={seed} stats={stats is not None}"
        assert ((closed.method_label, closed.stopped_at, closed.stop_reason)
                == (iterative.method_label, iterative.stopped_at, iterative.stop_reason)
                and [(r.action, r.feedback) for r in closed.trace]
                == [(r.action, r.feedback) for r in iterative.trace]), \
            f"{case}: {_first_flip(closed, iterative)}"
        gap = np.linalg.norm(iterative.estimate - closed.estimate)
        assert gap <= L1Problem.tolerance * np.linalg.norm(closed.estimate), case


# sha256 of the labels and estimate bytes of a small row-subset ensemble: it
# pins the bytes of the iterative path beside the reference loop's oracle
_ROW_SUBSET_GOLDEN = "6b0e85cbf6ab601d1d08d9e948137c53aa8213c432f0788c2a2200a3e4c801f6"


def test_row_subset_ensemble_matches_its_golden_digest():
    digest = hashlib.sha256()
    for op, y, cfg in _row_subset_ensemble():
        out = cad_run(y, cfg, None, op)
        digest.update(out.method_label.encode())
        digest.update(out.estimate.tobytes())
    assert digest.hexdigest() == _ROW_SUBSET_GOLDEN


# the Gram matrix of 160 of 256 rows and the estimate of one energy-bounded
# row-subset run on it, as one digest
_THREAD_PROBE = """
import hashlib
import numpy as np
from cad_defense import (AttackSpec, CadConfig, FeedbackConfig, SensingOperator,
                         cad_run, make_clean_compressible, perturb)
rows = np.sort(np.random.default_rng(256).choice(256, 160, replace=False))
op = SensingOperator(256, rows=rows)
digest = hashlib.sha256(op.gram.tobytes())
x = make_clean_compressible(256, 26, np.random.default_rng(7))
y = perturb(x, AttackSpec("l2", eta=14.0), SensingOperator(256)).observed[rows]
fb = FeedbackConfig(alpha=8.0, beta=5.0, m=1.8, tau=15, theta=65.0)
out = cad_run(y, CadConfig(k=26, feedback=fb, seed=7), None, op)
digest.update(out.estimate.tobytes())
print(digest.hexdigest(), sum(r.solver_iters or 0 for r in out.trace))
"""


def test_row_subset_bytes_do_not_depend_on_the_blas_thread_count():
    # the Gram matrix and the splitting and least-squares solves that read it
    # give the same bytes at one BLAS thread, as in a pool worker, and at two,
    # as a serial run may have
    src = Path(cad_defense.__file__).resolve().parents[1]
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS=threads)
        proc = subprocess.run([sys.executable, "-c", _THREAD_PROBE], env=env,
                              capture_output=True, text=True, check=True)
        outputs.append(proc.stdout)
    assert int(outputs[0].split()[1]) > 0  # the run reached the splitting solver
    assert outputs[0] == outputs[1]


# ---------------------------------------------------------------------------
# clean-input behaviour


def test_clean_run_stops_on_residual_and_recovers():
    op, x, y = _clean_instance()
    cfg = CadConfig(k=6, feedback=_fb(), seed=3)
    out = cad_run(y, cfg, None, op)
    assert out.stop_reason == "residual"
    assert np.linalg.norm(op.synthesize(out.estimate) - y) <= 1e-8
    assert np.linalg.norm(out.estimate - x) <= 1e-8
    assert np.count_nonzero(out.estimate) <= 6
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
        assert all(r.feedback == 0 for r in out.trace)


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
    scores = np.zeros(N_ACTIONS)
    for rec in out.trace:
        probs = _reference_probabilities(scores, *cfg.bandit_params[:2])
        assert np.abs(np.asarray(rec.probs) - probs).max() < 1e-15
        r = _reference_reward(rec.feedback, float(probs[rec.action]), cfg.bandit_params[2])
        assert r == rec.reward
        scores[rec.action] += r
        assert np.abs(np.asarray(rec.scores) - scores).max() < 1e-15
    assert np.abs(np.asarray(out.final_scores) - scores).max() < 1e-15


def test_stop_reason_matches_trace_values():
    for seed in range(10):
        out, cfg = _attacked_run(seed=seed)
        last = out.trace[-1]
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
    # fires on the last record only, for the stated reason; each seed runs
    # channels observations, one cad_run each, as the harness defends the
    # channels of an instance
    op, clean_stats = _oracle_setup(name)
    n, k = op.n, op.n // 8
    stats = clean_stats if with_stats else None
    bits, reasons = set(), set()
    for seed in range(9):
        # every third run is cut short by the iteration cap
        fb = _fb(alpha=3.0, beta=2.0, m=0.8, tau=k, theta=float(op.m),
                 delta_res=0.5 if seed % 2 else 0.0, t_max=3 if seed % 3 == 2 else 12)
        rng = np.random.default_rng([72, seed])
        for ch in range(channels):
            spec = _ORACLE_ATTACKS[(seed + ch) % len(_ORACLE_ATTACKS)]
            observed = perturb(make_clean_compressible(n, k, rng), spec,
                               SensingOperator(n)).observed
            y = observed if op.is_full else observed[op.rows]
            run = cad_run(y, CadConfig(k=k, feedback=fb, seed=seed), stats, op)
            for i, rec in enumerate(run.trace, 1):
                assert rec.feedback == feedback_bit(rec.action, rec.residual_l2,
                                                    rec.residual_linf,
                                                    rec.residual_count, fb, rec.md)
                stop = should_stop(max(rec.probs), rec.residual_l2, fb)
                if i < run.stopped_at:
                    assert not stop
                elif run.stop_reason == "t_max":
                    assert not stop and i == fb.t_max
                else:
                    assert stop == run.stop_reason
                    assert (run.stop_reason == "prob") == (max(rec.probs) > fb.delta_prob)
                bits.add(rec.feedback)
            reasons.add(run.stop_reason)
    assert bits == {0, 1} and {"prob", "t_max"} <= reasons


def test_budgets_follow_schedule_per_action(monkeypatch):
    # the i-th in-loop solve of an action is its i-th selection (a certified
    # l1 action solves no more), and it gets _budget(i); 10-iteration budget
    # units leave l1 solves uncertified, so that l1 actions solve again
    monkeypatch.setattr(cad_defense.cad, "_GENERAL_ITERS_PER_UNIT", 10)
    budgets = _in_loop_budgets(monkeypatch)
    for runs in budgets.values():
        for run in runs:
            assert run == [_budget(i) for i in range(1, len(run) + 1)]
    longest = [max(map(len, budgets[a])) for a in range(N_ACTIONS)]
    assert min(longest) >= 1 and longest[A_COSAMP] >= 2 and max(longest[1:]) >= 2


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
        records.extend(cad_run(inst.observed, cfg, stats, op).trace)
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
    assert a.stop_reason == b.stop_reason and a.stopped_at == b.stopped_at
    assert ([dataclasses.asdict(r) for r in a.trace]
            == [dataclasses.asdict(r) for r in b.trace])


def test_different_seeds_explore_differently():
    seqs = set()
    for seed in range(5):
        out, _ = _attacked_run(seed=seed)
        seqs.add(tuple(r.action for r in out.trace))
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
# channel handling: cad_run defends one channel, and the harness runs one
# cad_run per channel of an instance and votes over their calls


def _channels_config(**overrides):
    raw = {"n": 32, "channels": 3, "seed": 63, "count": 1,
           "clean": {"kind": "sparse", "amplitude": [1.0, 2.0]},
           "attacks": [{"family": "none"}],
           "cad": {"k": 4, "feedback": dict(MNIST_FB)}}
    raw.update(overrides)
    return ExperimentConfig.from_dict(raw)


def test_three_channel_aggregation():
    cfg = _channels_config()
    op = SensingOperator(cfg.n)
    for index in range(3):
        result = _run_one(cfg, op, None, index, cfg.attacks[0])
        rows, inst = result["rows"], result["inst"]
        assert [r["channel"] for r in rows] == [0, 1, 2]
        # the instance call is the majority of per-channel method labels,
        # the first channel breaking ties; that channel gives final_method
        # and fallback
        labels = [r["method_label"] for r in rows]
        counts = {lab: labels.count(lab) for lab in labels}
        top = max(counts.values())
        first = next(r for r in rows if counts[r["method_label"]] == top)
        assert inst["method_label"] == first["method_label"]
        assert (inst["final_method"], inst["fallback"]) == \
            (first["final_method"], first["fallback"])
        # every clean sparse channel is recovered, and so is their concatenation
        for r in rows:
            assert r["err_l2"] <= 1e-8
        assert inst["err_l2"] <= 1e-8


def test_three_channel_vote_counts_fallbacks_as_one_label(monkeypatch):
    # a2 against two fallbacks whose argmaxes differ: the fallbacks win
    calls = iter([(A_L0, False), (A_COSAMP, True), (A_L2, True)])

    def scripted(*args):
        final_method, fallback = next(calls)
        return dataclasses.replace(cad_run(*args), final_method=final_method,
                                   fallback=fallback)

    monkeypatch.setattr(cad_defense.harness, "cad_run", scripted)
    cfg = _channels_config(n=16, cad={"k": 2, "feedback": dict(MNIST_FB)})
    inst = _run_one(cfg, SensingOperator(cfg.n), None, 0, cfg.attacks[0])["inst"]
    assert inst["method_label"] == FALLBACK_LABEL
    assert (inst["final_method"], inst["fallback"]) == (A_COSAMP, 1)


def test_three_channel_validation(tmp_path):
    op = SensingOperator(16)
    cfg = CadConfig(k=2, feedback=_fb())
    # cad_run takes one channel's op.m samples, not three channels' 3 * op.m
    with pytest.raises(ValueError, match=r"y must have shape \(16,\)"):
        cad_run(np.zeros(48), cfg, None, op)
    # channels is 1 or 3, and a setting of the experiment, not of the loop
    with pytest.raises(ConfigError, match="channels"):
        _channels_config(channels=2)
    with pytest.raises(ConfigError, match="channels"):
        _channels_config(cad={"k": 4, "channels": 3, "feedback": dict(MNIST_FB)})
    # each channel loads its own stats, and each must fit the config's n
    rng = np.random.default_rng(0)
    for ch, n in enumerate((32, 16, 32)):
        save_clean_stats(CleanStats(rng.standard_normal((4, n)), 1e-4),
                         tmp_path / f"clean_stats_ch{ch}.f64")
    with pytest.raises(ConfigError, match="clean_stats_ch1"):
        _load_stats(_channels_config(stats_dir=str(tmp_path)))


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
        CadConfig(k=2, feedback=_fb(), bandit_params=(1.0, 1.0, 1.0))
    bad = [dict(k=2.5), dict(k=True),
           dict(eta=-1.0), dict(eta="x"), dict(eta=math.nan), dict(eta=True),
           dict(eta_prime=math.inf), dict(eta_dprime=math.nan),
           dict(bandit_params=(0.07, math.nan, 1.25)),
           dict(bandit_params=(0.07, 1.01, math.inf)),
           dict(bandit_params=(0.07, 1.01, math.nan))]
    for fields in bad:
        with pytest.raises(ValueError):
            CadConfig(**{"k": 2, "feedback": _fb(), **fields})
    # a wrong count of parameters is refused with the others, by name
    for params in ((0.07, 1.01), (0.07, 1.01, 1.25, 1.0), (0.07, math.nan, 1.25)):
        with pytest.raises(ValueError, match=r"^bandit_params=\(.*\) must be three finite"):
            CadConfig(k=2, feedback=_fb(), bandit_params=params)
    CadConfig(k=2, feedback=_fb(), eta=0, eta_prime=np.float64(0.5))


def test_action_labels_cover_methods():
    assert ACTION_LABELS == ("a1", "a2", "a3", "a4")
    assert FALLBACK_LABEL == "cosamp_fallback"
