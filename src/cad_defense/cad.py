"""The adaptive defence loop tying recovery, feedback, and the bandit together.

Each iteration samples one of the four recovery actions and takes one step
of it (run_action): solve, prune to k terms, and compute the residual's
features once (l2 and max norms, the thresholded count of its
transform-domain view, and its Mahalanobis distance when CoSaMP runs with
clean statistics).  The feedback bit, the stop rule and the trace record
read those same values, and the bit's importance-weighted reward updates
the action scores.  The loop stops once some action's probability
concentrates, the residual collapses, or the iteration cap is hit.  The
best-scoring action, or greedy recovery when no action ever earned a
positive score, gives the final answer.  Every solve reports whether it is
final, that is, whether it may stand as the answer, and the loop keeps the
evidence of each action's latest final solve: a later step of that action
returns it without solving, and the chosen action answers with its
estimate, or else with one cold run.  On the full operator each action is
a closed form of c = F y, analysed once per run, so every solve is final.
On a row-subsampled operator in-loop runs warm-start at the current
estimate with a budget that grows with each selection; an l1 solve is
final exactly when the solver reports it converged under its own duality
certificate, and a CoSaMP solve, which is not convex, never is, so CoSaMP
is solved again on every selection.  Each l1 action is one fixed convex
program, and a certified solve's l1 norm lies within the certified gap of
that program's optimum; a warm re-solve from another start lands on
another point within the same gap, so it would carry no new evidence.
"""

from __future__ import annotations

import logging
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .bandit import (BanditState, penalty_clamped, probabilities, reward,
                     sample_action, update)
from .feedback import (CleanStats, FeedbackConfig, feedback_bit, mahalanobis,
                       residual, should_stop, thresholded_count)
from .recovery import (A_COSAMP, N_ACTIONS, L1Problem, action_radius,
                       cosamp_run, l1_min_general, l1_min_orthonormal)
from .transform import SensingOperator, _is_number, top_k

__all__ = [
    "ACTION_LABELS",
    "FALLBACK_LABEL",
    "CadConfig",
    "CadIterationRecord",
    "CadTrace",
    "CadOutcome",
    "ChannelsOutcome",
    "inner_iterations",
    "cad_run",
]

ACTION_LABELS = ("a1", "a2", "a3", "a4")
FALLBACK_LABEL = "cosamp_fallback"

log = logging.getLogger("cad_defense")

# iteration budget granted to the general l1 solver per schedule unit
_GENERAL_ITERS_PER_UNIT = 200
# CoSaMP steps of a cold final run on a row-subsampled operator
_FINAL_COSAMP_STEPS = 10


@dataclass(frozen=True)
class CadConfig:
    """Everything one defence run needs besides the operator and statistics."""

    k: int
    feedback: FeedbackConfig
    bandit_params: tuple[float, float, float] = (0.07, 1.01, 1.25)
    eta: float = 0.3
    eta_prime: float = 0.15
    eta_dprime: float = 0.04
    inner_schedule: tuple[int, int] = (3, 2)
    channels: int = 1
    seed: int = 0

    def __post_init__(self):
        if not (_is_number(self.k, numbers.Integral) and self.k >= 1):
            raise ValueError(f"k must be an integer >= 1, got {self.k!r}")
        if not (_is_number(self.channels, numbers.Integral) and self.channels in (1, 3)):
            raise ValueError(f"channels must be 1 or 3, got {self.channels!r}")
        n0, inc = self.inner_schedule
        if not (_is_number(n0, numbers.Integral) and _is_number(inc, numbers.Integral)
                and n0 >= 1 and inc >= 0):
            raise ValueError(f"bad inner schedule {self.inner_schedule}")
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
    feedback: int
    reward: float
    scores: tuple
    residual_l2: float
    residual_linf: float
    residual_count: int
    md: float | None
    penalty_clamped: bool

    def to_dict(self) -> dict:
        return {
            "t": self.t,
            "action": self.action,
            "probs": list(self.probs),
            "inner_iters": self.inner_iters,
            "feedback": self.feedback,
            "reward": self.reward,
            "scores": list(self.scores),
            "residual_l2": self.residual_l2,
            "residual_linf": self.residual_linf,
            "residual_count": self.residual_count,
            "md": self.md,
            "penalty_clamped": self.penalty_clamped,
        }


@dataclass
class CadTrace:
    records: list[CadIterationRecord] = field(default_factory=list)

    def to_jsonable(self) -> list[dict]:
        return [r.to_dict() for r in self.records]


@dataclass
class CadOutcome:
    """Result of one single-channel defence run."""

    final_method: int
    fallback: bool
    estimate: np.ndarray
    reconstruction: np.ndarray
    trace: CadTrace
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
            "reconstruction": self.reconstruction.tolist(),
            "trace": self.trace.to_jsonable(),
        }


@dataclass
class ChannelsOutcome:
    """Per-channel outcomes plus the aggregated call for RGB inputs."""

    channels: list[CadOutcome]
    final_method: int
    fallback: bool
    estimate: np.ndarray
    reconstruction: np.ndarray

    @property
    def method_label(self) -> str:
        return FALLBACK_LABEL if self.fallback else ACTION_LABELS[self.final_method]

    def to_jsonable(self) -> dict:
        return {
            "final_method": self.final_method,
            "method_label": self.method_label,
            "fallback": self.fallback,
            "estimate": self.estimate.tolist(),
            "reconstruction": self.reconstruction.tolist(),
            "channels": [c.to_jsonable() for c in self.channels],
        }


def inner_iterations(times_selected: int, schedule: tuple[int, int]) -> int:
    """Arithmetic budget growth: n0 on first selection, +increment after."""
    if times_selected < 1:
        raise ValueError(f"times_selected must be >= 1, got {times_selected}")
    n0, inc = schedule
    return n0 + inc * (times_selected - 1)


def run_action(action: int, y: np.ndarray, op: SensingOperator, cfg: CadConfig,
               stats: CleanStats | None, c: np.ndarray | None, finals: dict,
               budget: int, x_start: np.ndarray) -> tuple:
    """One loop step of an action: its evidence (pruned estimate, md,
    feedback bit, residual l2, l-inf and thresholded count).

    An action whose latest solve in the run was final hands back that
    solve's evidence from finals.  Otherwise the action is solved (_solve,
    with c = F y on the full operator and None on a row subset), pruned to
    k terms and scored, each feature computed once; the count is taken on
    the residual's transform-domain view.  Evidence of a final solve is
    stored in finals.
    """
    evidence = finals.get(action)
    if evidence is not None:
        return evidence
    raw, final = _solve(action, y, op, cfg, c, budget, x_start)
    estimate = top_k(raw, cfg.k)
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


def _solve(action: int, y: np.ndarray, op: SensingOperator, cfg: CadConfig,
           c: np.ndarray | None, budget: int | None = None,
           x_start: np.ndarray | None = None) -> tuple[np.ndarray, bool]:
    """Unpruned spectrum of one action and whether it is final; budget None
    gives a cold final run.

    On the full operator each action is a closed form of the run's
    c = F y (CoSaMP's least-squares step restricts c, so its pruned iterate
    is top_k(c) and c itself is returned; each l1 action soft-thresholds
    c), so every solve is final.  A subsampled cold run is
    _FINAL_COSAMP_STEPS CoSaMP steps or the splitting solver to its
    iteration cap.  There a CoSaMP solve is never final and a splitting
    solve is final exactly when the solver reports it converged; one that
    did not is logged at debug level with its feasibility and duality gaps.
    """
    if action == A_COSAMP:
        if op.is_full:
            return c, True
        steps = _FINAL_COSAMP_STEPS if budget is None else budget
        return cosamp_run(y, op, cfg.k, steps, x0=x_start).estimate, False
    radius = action_radius(action, cfg.feedback.tau, cfg.eta, cfg.eta_prime,
                           cfg.eta_dprime, op.n)
    problem = L1Problem(observed=y, op=op, radius=radius)
    if op.is_full:
        return l1_min_orthonormal(problem, coeffs=c), True
    if budget is not None:
        problem.max_iters = _GENERAL_ITERS_PER_UNIT * budget
    result = l1_min_general(problem, x0=x_start)
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
    finals = {}  # action -> evidence of its latest final solve
    state = BanditState.fresh(cfg.gamma, cfg.sigma, cfg.lam)
    times = [0] * N_ACTIONS
    trace = CadTrace()
    stop_reason = "t_max"
    t = 0
    for t in range(1, fb.t_max + 1):
        dist = probabilities(state)
        a = sample_action(dist, rng)
        times[a] += 1
        budget = inner_iterations(times[a], cfg.inner_schedule)
        estimate, md, f, v_l2, v_linf, v_count = run_action(
            a, y, op, cfg, stats, c, finals, budget, estimate)
        p = float(dist.probs[a])
        r = reward(a, a, f, p, cfg.lam)
        state = update(state, a, r)
        trace.records.append(CadIterationRecord(
            t=t, action=a, probs=tuple(dist.probs), inner_iters=budget,
            feedback=f, reward=r, scores=tuple(state.scores),
            residual_l2=v_l2, residual_linf=v_linf, residual_count=v_count,
            md=md, penalty_clamped=bool(f == 0 and penalty_clamped(p)),
        ))
        if should_stop(dist, v_l2, fb):
            stop_reason = "prob" if dist.max_prob > fb.delta_prob else "residual"
            break
    best = int(np.argmax(state.scores))  # ties resolve to the lowest index
    fallback = bool(state.scores.max() <= 0.0)
    chosen = A_COSAMP if fallback else best
    if chosen in finals:
        answer = finals[chosen][0]
    else:
        answer = top_k(_solve(chosen, y, op, cfg, c)[0], cfg.k)
    return CadOutcome(
        final_method=best, fallback=fallback, estimate=answer,
        reconstruction=op.synthesize(answer), trace=trace, stopped_at=t,
        stop_reason=stop_reason, final_scores=tuple(state.scores),
    )


def cad_run(y: np.ndarray, cfg: CadConfig, stats, op: SensingOperator):
    """Run the defence on one observation.

    Single-channel configs take y of length n and optional CleanStats,
    returning a CadOutcome.  Three-channel configs take the channel-major
    concatenation (length 3n) with a per-channel stats sequence and return
    a ChannelsOutcome whose aggregate call is the majority of per-channel
    method labels, ties resolved toward the first channel; every fallback
    is one label, whatever its argmax.  The first channel with the winning
    label gives the aggregate final_method and fallback.
    """
    if cfg.channels == 1:
        return _run_single(y, cfg, stats, op, [cfg.seed, 0])
    y = np.asarray(y, dtype=np.float64)
    if y.shape != (3 * op.m,):
        raise ValueError(f"expected {3 * op.m} samples for 3 channels, got {y.shape}")
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
        reconstruction=np.concatenate([o.reconstruction for o in outcomes]),
    )
