"""The adaptive defence loop tying recovery, feedback, and the bandit together.

Each iteration samples one of the four recovery actions and takes one step
of it (run_action): solve, prune to k terms, and compute the residual's
features once (l2 and max norms, the thresholded count of its
transform-domain view, and its Mahalanobis distance when CoSaMP runs with
clean statistics).  The feedback bit, the stop rule and the trace record
read those same values, and the bit's importance-weighted reward updates
the action scores.  The loop stops on the clause the stop rule names (some
action's probability concentrates, or the residual collapses) or at the
iteration cap; the trace is the plain list of per-iteration records.  The
best-scoring action, or greedy recovery when no action ever earned a
positive score, gives the final answer.  Every solve reports whether it is
final, that is, whether it may stand as the answer, and the loop keeps the
evidence of each action's latest final solve: a later step of that action
returns it without solving, and the chosen action answers with its
estimate, or else with one more run.  On the full operator each action is
a closed form of c = F y, analysed once per run, so every solve is final,
and the magnitudes of c are sorted once per run as well: that order prunes
every estimate of the run (_prune), with top_k's bytes, and gives the knots
of the run's one threshold table, from which each l1 action is one
searchsorted and one soft threshold.  There the residual of a k-sparse
estimate is a product over its support, n k multiply-adds instead of the
n^2 of a dense synthesis.
On a row-subsampled operator in-loop runs get a budget that grows with each
selection.  CoSaMP starts at the current estimate; it is not convex, so its
solve is never final and it is solved again on every selection.  The three
l1 actions share one Douglas-Rachford state per run: each l1 solve, the
final answer's included, continues from the latest state any l1 solve of
the run left, not from the pruned estimate, so iterations spent under one
radius carry over to the next.  An l1 solve is final exactly when the
solver reports it converged under its own duality certificate, which is
the only stop rule: a certified solve's l1 norm lies within the certified
gap of its program's optimum whatever its start, so a re-solve would carry
no new evidence.  Each record of a step that ran the splitting solver
carries that solve's iterations and certificate flag.
"""

from __future__ import annotations

import dataclasses
import logging
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .bandit import penalty_clamped, probabilities, reward, sample_action, update
from .feedback import (CleanStats, FeedbackConfig, feedback_bit, mahalanobis,
                       residual, should_stop, thresholded_count)
from .recovery import (A_COSAMP, N_ACTIONS, L1Problem, _soft_threshold,
                       _threshold_table, action_radius, cosamp_run, l1_min_general,
                       l1_min_orthonormal)
from .transform import SensingOperator, _is_number, top_k

__all__ = [
    "ACTION_LABELS",
    "FALLBACK_LABEL",
    "CadConfig",
    "CadIterationRecord",
    "CadOutcome",
    "ChannelsOutcome",
    "cad_run",
]

ACTION_LABELS = ("a1", "a2", "a3", "a4")
FALLBACK_LABEL = "cosamp_fallback"

log = logging.getLogger("cad_defense")

# iteration budget granted to the general l1 solver per schedule unit
_GENERAL_ITERS_PER_UNIT = 200
# CoSaMP steps of a cold final run on a row-subsampled operator
_FINAL_COSAMP_STEPS = 10
# in-loop budget (n0, increment) of an action, in CoSaMP steps or units of
# _GENERAL_ITERS_PER_UNIT: n0 on its first selection, increment more on each
# later one; full-operator solves are closed forms and ignore it
_INNER_SCHEDULE = (3, 2)


@dataclass(frozen=True)
class CadConfig:
    """Everything one defence run needs besides the operator and statistics."""

    k: int
    feedback: FeedbackConfig
    bandit_params: tuple[float, float, float] = (0.07, 1.01, 1.25)
    eta: float = 0.3
    eta_prime: float = 0.15
    eta_dprime: float = 0.04
    seed: int = 0

    def __post_init__(self):
        if not (_is_number(self.k, numbers.Integral) and self.k >= 1):
            raise ValueError(f"k must be an integer >= 1, got {self.k!r}")
        for name in ("eta", "eta_prime", "eta_dprime"):
            value = getattr(self, name)
            if not (_is_number(value) and 0 <= value < math.inf):
                raise ValueError(f"{name} must be a finite number >= 0, got {value!r}")
        gamma, sigma, lam = self.bandit_params
        # stated as what must hold, so that a NaN fails it
        if not (all(_is_number(v) for v in self.bandit_params)
                and 0.0 <= gamma < 1.0 and 0 < sigma < math.inf and 0 < lam < math.inf):
            raise ValueError(f"bad bandit params {self.bandit_params}")

    @property
    def gamma(self) -> float:
        return self.bandit_params[0]

    @property
    def sigma(self) -> float:
        return self.bandit_params[1]

    @property
    def lam(self) -> float:
        return self.bandit_params[2]


@dataclass
class CadIterationRecord:
    """One loop iteration as recorded in the trace."""

    t: int
    action: int
    probs: tuple
    inner_iters: int
    # iterations and certificate flag of the step's splitting solve; None
    # where the step ran none (closed forms, reused evidence, CoSaMP)
    solver_iters: int | None
    certified: bool | None
    feedback: int
    reward: float
    scores: tuple
    residual_l2: float
    residual_linf: float
    residual_count: int
    md: float | None
    penalty_clamped: bool


class _RunMemo(dict):
    """What one run keeps across its loop steps: action -> evidence of the
    action's latest final solve; on the full operator the threshold table
    of c that every l1 solve reads (table); and for its row-subset l1
    solves the latest Douglas-Rachford state (state; None before the
    first) and the result of the latest splitting solve (solved)."""

    table = None
    state = None
    solved = None


@dataclass
class CadOutcome:
    """Result of one single-channel defence run."""

    final_method: int
    fallback: bool
    estimate: np.ndarray
    trace: list[CadIterationRecord]
    stopped_at: int
    stop_reason: str
    final_scores: tuple

    @property
    def method_label(self) -> str:
        return FALLBACK_LABEL if self.fallback else ACTION_LABELS[self.final_method]

    def to_jsonable(self) -> dict:
        return {
            "final_method": self.final_method,
            "method_label": self.method_label,
            "fallback": self.fallback,
            "stopped_at": self.stopped_at,
            "stop_reason": self.stop_reason,
            "final_scores": list(self.final_scores),
            "estimate": self.estimate.tolist(),
            "trace": [dataclasses.asdict(r) for r in self.trace],
        }


@dataclass
class ChannelsOutcome:
    """Per-channel outcomes plus the aggregated call for RGB inputs."""

    channels: list[CadOutcome]
    final_method: int
    fallback: bool
    estimate: np.ndarray

    @property
    def method_label(self) -> str:
        return FALLBACK_LABEL if self.fallback else ACTION_LABELS[self.final_method]

    def to_jsonable(self) -> dict:
        return {
            "final_method": self.final_method,
            "method_label": self.method_label,
            "fallback": self.fallback,
            "estimate": self.estimate.tolist(),
            "channels": [c.to_jsonable() for c in self.channels],
        }


def run_action(action: int, y: np.ndarray, op: SensingOperator, cfg: CadConfig,
               stats: CleanStats | None, c: np.ndarray | None,
               order: np.ndarray | None, finals: dict, budget: int,
               x_start: np.ndarray) -> tuple:
    """One loop step of an action: its evidence (pruned estimate, md,
    feedback bit, residual l2, l-inf and thresholded count).

    An action whose latest solve in the run was final hands back that
    solve's evidence from finals.  Otherwise the action is solved (_solve,
    with c = F y on the full operator and None on a row subset), pruned to
    k terms and scored, each feature computed once; the count is taken on
    the residual's transform-domain view.  order is the run's one stable
    descending order of |c| (None on a row subset), through which _prune
    keeps top_k's bytes without sorting again wherever the k-th and
    (k+1)-th entries along it differ in magnitude.  x_start is the
    estimate a row-subset CoSaMP solve starts from; a row-subset l1 solve
    continues from, and records itself in, the run's memo finals (a
    _RunMemo, see _solve), and a full-operator one reads its threshold
    table.  Evidence of a final solve is stored in finals.
    """
    evidence = finals.get(action)
    if evidence is not None:
        return evidence
    raw, final = _solve(action, y, op, cfg, c, budget, x_start, finals)
    estimate = _prune(action, raw, cfg.k, order)
    v = residual(y, estimate, op)
    v_spec = c - estimate if c is not None else op.adjoint(v)
    md = mahalanobis(v, stats) if action == A_COSAMP and stats is not None else None
    l2, linf = float(np.linalg.norm(v)), float(np.abs(v).max())
    count = thresholded_count(v_spec, cfg.feedback.count_threshold)
    evidence = (estimate, md, feedback_bit(action, l2, linf, count, cfg.feedback, md),
                l2, linf, count)
    if final:
        finals[action] = evidence
    return evidence


def _prune(action: int, raw: np.ndarray, k: int, order: np.ndarray | None) -> np.ndarray:
    """top_k(raw, k), read off the run's order of |c| where that is exact.

    On the full operator CoSaMP's raw spectrum is c itself, so order[:k]
    is what top_k keeps.  Each l1 action soft-thresholds c, which is
    monotone in |c|: |raw| does not increase along order, so when the k-th
    entry along it is strictly larger in magnitude than the (k+1)-th, the
    k largest entries of raw are exactly order[:k].  At a tie there the
    two tie-breaks differ (top_k keeps the lower index, order the larger
    |c|, and every thresholded-away entry ties at zero), so top_k decides.
    """
    if order is not None and k < order.size:
        keep = order[:k]
        if action == A_COSAMP or abs(raw[keep[-1]]) > abs(raw[order[k]]):
            out = np.zeros(raw.size)
            out[keep] = raw[keep]
            return out
    return top_k(raw, k)


def _solve(action: int, y: np.ndarray, op: SensingOperator, cfg: CadConfig,
           c: np.ndarray | None, budget: int | None = None,
           x_start: np.ndarray | None = None,
           memo: _RunMemo | None = None) -> tuple[np.ndarray, bool]:
    """Unpruned spectrum of one action and whether it is final; budget None
    gives a final run.

    On the full operator each action is a closed form of the run's
    c = F y (CoSaMP's least-squares step restricts c, so its pruned iterate
    is top_k(c) and c itself is returned; each l1 action soft-thresholds
    c, read off memo.table when the memo holds one, through
    l1_min_orthonormal otherwise), so every solve is final.  On a row
    subset x_start is where the solve starts: CoSaMP's estimate (None:
    zero), or an l1 action's splitting state (None: the solver's cold
    start).  Given the run's memo, an l1 solve starts from memo.state
    instead, stores its result in memo.solved and, unless it returned at
    once, its state in memo.state; the solver's step depends on y alone,
    the same for all three radii, so a state carries over between actions
    unscaled.  A subsampled final run is _FINAL_COSAMP_STEPS CoSaMP steps
    or the splitting solver to its iteration cap.  There a CoSaMP solve is
    never final and a splitting solve is final exactly when the solver
    reports it converged; one that did not is logged at debug level with
    its feasibility and duality gaps.
    """
    if action == A_COSAMP:
        if op.is_full:
            return c, True
        steps = _FINAL_COSAMP_STEPS if budget is None else budget
        return cosamp_run(y, op, cfg.k, steps, x0=x_start).estimate, False
    radius = action_radius(action, cfg.feedback.tau, cfg.eta, cfg.eta_prime,
                           cfg.eta_dprime, op.n)
    table = getattr(memo, "table", None)
    if table is not None:
        return _soft_threshold(table, radius), True
    problem = L1Problem(observed=y, op=op, radius=radius)
    if op.is_full:
        return l1_min_orthonormal(problem, coeffs=c), True
    if budget is not None:
        problem = dataclasses.replace(problem, max_iters=_GENERAL_ITERS_PER_UNIT * budget)
    result = l1_min_general(problem, x0=x_start if memo is None else memo.state)
    if memo is not None:
        memo.solved = result
        if result.state is not None:
            memo.state = result.state
    if not result.converged:
        log.debug("%s unconverged after %d of %d iterations, feasibility gap %.3g, "
                  "duality gap %.3g", ACTION_LABELS[action], result.iterations,
                  problem.max_iters, result.feasibility_gap, result.duality_gap)
    return result.coeffs, result.converged


def _run_single(y: np.ndarray, cfg: CadConfig, stats: CleanStats | None,
                op: SensingOperator, seed) -> CadOutcome:
    y = np.asarray(y, dtype=np.float64)
    if y.shape != (op.m,):
        raise ValueError(f"y must have shape ({op.m},), got {y.shape}")
    if cfg.k > op.n:
        raise ValueError(f"k={cfg.k} exceeds the dimension n={op.n}")
    fb = cfg.feedback
    rng = np.random.default_rng(seed)
    estimate = np.zeros(op.n)
    c = op.analyze(y) if op.is_full else None
    finals = _RunMemo()
    order = None
    if c is not None:
        # stable, so that it is the order top_k takes on c
        order = np.argsort(-np.abs(c), kind="stable")
        finals.table = _threshold_table(c, order)
    scores = [0.0] * N_ACTIONS
    times = [0] * N_ACTIONS
    n0, inc = _INNER_SCHEDULE
    trace = []
    stop_reason = None
    t = 0
    for t in range(1, fb.t_max + 1):
        probs = probabilities(scores, cfg.gamma, cfg.sigma)
        a = sample_action(probs, rng)
        times[a] += 1
        budget = n0 + inc * (times[a] - 1)
        finals.solved = None
        estimate, md, f, v_l2, v_linf, v_count = run_action(
            a, y, op, cfg, stats, c, order, finals, budget, estimate)
        solved = finals.solved
        p = probs[a]
        r = reward(a, a, f, p, cfg.lam)
        update(scores, a, r)
        trace.append(CadIterationRecord(
            t=t, action=a, probs=tuple(probs), inner_iters=budget,
            solver_iters=None if solved is None else solved.iterations,
            certified=None if solved is None else solved.converged,
            feedback=f, reward=r, scores=tuple(scores),
            residual_l2=v_l2, residual_linf=v_linf, residual_count=v_count,
            md=md, penalty_clamped=bool(f == 0 and penalty_clamped(p)),
        ))
        stop_reason = should_stop(max(probs), v_l2, fb)
        if stop_reason is not None:
            break
    best = scores.index(max(scores))  # ties resolve to the lowest index
    fallback = max(scores) <= 0.0
    chosen = A_COSAMP if fallback else best
    if chosen in finals:
        answer = finals[chosen][0]
    else:
        answer = _prune(chosen, _solve(chosen, y, op, cfg, c, memo=finals)[0], cfg.k,
                        order)
    return CadOutcome(
        final_method=best, fallback=fallback, estimate=answer, trace=trace,
        stopped_at=t, stop_reason=stop_reason or "t_max",
        final_scores=tuple(scores),
    )


def cad_run(y: np.ndarray, cfg: CadConfig, stats, op: SensingOperator):
    """Run the defence on one observation; its length sets the channels.

    A y of op.m samples, with optional CleanStats, is one channel and
    returns a CadOutcome.  A y of 3 * op.m samples is the channel-major
    concatenation of three channels: it takes a per-channel stats sequence
    (or None) and returns a ChannelsOutcome whose aggregate call is the
    majority of per-channel method labels, ties resolved toward the first
    channel; every fallback is one label, whatever its argmax.  The first
    channel with the winning label gives the aggregate final_method and
    fallback.  Any other length raises ValueError.
    """
    y = np.asarray(y, dtype=np.float64)
    if y.shape != (3 * op.m,):
        return _run_single(y, cfg, stats, op, [cfg.seed, 0])
    if stats is None:
        stats = (None, None, None)
    if len(stats) != 3:
        raise ValueError("three-channel runs need one stats entry per channel")
    outcomes = [
        _run_single(y[ch * op.m:(ch + 1) * op.m], cfg, stats[ch], op, [cfg.seed, ch])
        for ch in range(3)
    ]
    labels = [o.method_label for o in outcomes]
    # max keeps the first of the most common labels
    winner = outcomes[labels.index(max(labels, key=labels.count))]
    return ChannelsOutcome(
        channels=outcomes, final_method=winner.final_method, fallback=winner.fallback,
        estimate=np.concatenate([o.estimate for o in outcomes]),
    )
