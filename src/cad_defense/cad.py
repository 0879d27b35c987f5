"""The adaptive defence loop tying recovery, feedback, and the bandit together.

Each iteration samples one of the four recovery actions, runs it, prunes
to k terms, scores the residual with that action's feedback predicate,
and feeds the importance-weighted reward back into the action scores.
The loop stops once some action's probability concentrates, the residual
collapses, or the iteration cap is hit.  The best-scoring action, or
greedy recovery when no action ever earned a positive score, gives the
final answer.  Every solve also reports whether it is final, that is,
whether it may stand as the answer.  On the full operator each action is a
closed form of c = F y, analysed once per run, so every solve is final and
its evidence (pruned estimate, residual, feedback bit, trace fields) is
computed when it first runs and reused after.  On a row-subsampled
operator in-loop runs warm-start at the current estimate with a budget that
grows with each selection; an l1 solve is final exactly when the solver
reports it converged under its own duality certificate, and a CoSaMP solve,
which is not convex, never is.  The chosen action answers with the pruned
estimate of its latest final solve, or else with one cold run.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .bandit import (BanditState, penalty_clamped, probabilities, reward,
                     sample_action, update)
from .feedback import (CleanStats, FeedbackConfig, feedback_bit, mahalanobis,
                       residual, should_stop, thresholded_count)
from .recovery import (A_COSAMP, N_ACTIONS, L1Problem, _full_analysis,
                       action_radius, cosamp_run, l1_min_general,
                       l1_min_orthonormal)
from .transform import SensingOperator, top_k

__all__ = [
    "ACTION_LABELS",
    "FALLBACK_LABEL",
    "CadConfig",
    "CadIterationRecord",
    "CadTrace",
    "CadOutcome",
    "ChannelsOutcome",
    "inner_iterations",
    "run_action",
    "cad_run",
]

ACTION_LABELS = ("a1", "a2", "a3", "a4")
FALLBACK_LABEL = "cosamp_fallback"

log = logging.getLogger("cad_defense")

# iteration budget granted to the general l1 solver per schedule unit
_GENERAL_ITERS_PER_UNIT = 200


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
    x0_mode: str = "zero"
    channels: int = 1
    seed: int = 0
    final_iters: int = 10

    def __post_init__(self):
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        if self.final_iters < 1:
            raise ValueError(f"final_iters must be >= 1, got {self.final_iters}")
        if self.x0_mode not in ("zero", "random"):
            raise ValueError(f"unknown x0_mode {self.x0_mode!r}")
        if self.channels not in (1, 3):
            raise ValueError(f"channels must be 1 or 3, got {self.channels}")
        n0, inc = self.inner_schedule
        if n0 < 1 or inc < 0:
            raise ValueError(f"bad inner schedule {self.inner_schedule}")
        gamma, sigma, lam = self.bandit_params
        if not 0.0 <= gamma < 1.0 or sigma <= 0 or lam <= 0:
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

    def __len__(self) -> int:
        return len(self.records)

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

    @property
    def recovery_is_greedy(self) -> bool:
        """True when the final reconstruction came from CoSaMP (chosen or fallback)."""
        return self.fallback or self.final_method == A_COSAMP

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

    @property
    def recovery_is_greedy(self) -> bool:
        return self.fallback or self.final_method == A_COSAMP

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
               budget: int, x_start: np.ndarray | None = None, *,
               coeffs: np.ndarray | None = None) -> tuple[np.ndarray, bool]:
    """One loop step of an action: its unpruned spectrum, and whether that
    solve may stand as the final answer (see _solve).

    The full operator takes the closed form of c = F y, read from coeffs
    when the caller passes its cached c (ValueError on a row-subsampled
    operator, at the wrong length or with a non-finite entry); a
    row-subsampled one runs `budget` CoSaMP steps or at most 200 * budget
    splitting iterations from x_start.
    """
    return _solve(action, y, op, cfg, budget, x_start, coeffs)


def _solve(action: int, y: np.ndarray, op: SensingOperator, cfg: CadConfig,
           budget: int | None = None, x_start: np.ndarray | None = None,
           coeffs: np.ndarray | None = None) -> tuple[np.ndarray, bool]:
    """Unpruned spectrum of one action and whether it is final; budget None
    gives a cold final run.

    On the full operator each action is a closed form of c = F y (CoSaMP's
    least-squares step restricts c, so its pruned iterate is top_k(c); each
    l1 action soft-thresholds c), so every solve is final.  A subsampled
    cold run is cfg.final_iters CoSaMP steps or the splitting solver to its
    cap.  There a CoSaMP solve is never final and a splitting solve is final
    exactly when the solver reports it converged; one that did not is logged
    at debug level with its feasibility and duality gaps.
    """
    if coeffs is not None and not op.is_full:
        raise ValueError("cached coefficients need the full operator")
    if action == A_COSAMP:
        if op.is_full:
            return _full_analysis(y, op, coeffs), True
        steps = cfg.final_iters if budget is None else budget
        return cosamp_run(y, op, cfg.k, steps, x0=x_start).final.estimate, False
    radius = action_radius(action, cfg.feedback.tau, cfg.eta, cfg.eta_prime,
                           cfg.eta_dprime, op.n)
    problem = L1Problem(observed=y, op=op, radius=radius)
    if op.is_full:
        return l1_min_orthonormal(problem, coeffs=coeffs), True
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
    if cfg.x0_mode == "random":
        estimate = top_k(rng.standard_normal(op.n), cfg.k)
    else:
        estimate = np.zeros(op.n)
    coeffs = op.analyze(y) if op.is_full else None
    memo = {}  # full operator: action -> its evidence, fixed for the whole run
    answers = {}  # action -> pruned estimate of its latest final solve
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
        raw, final = run_action(a, y, op, cfg, budget, x_start=estimate, coeffs=coeffs)
        evidence = memo.get(a)
        if evidence is None:
            estimate = top_k(raw, cfg.k)
            v = residual(y, estimate, op)
            v_spec = coeffs - estimate if coeffs is not None else op.adjoint(v)
            md = mahalanobis(v, stats) if a == A_COSAMP and stats is not None else None
            f = feedback_bit(a, v, fb, stats=stats, v_spec=v_spec, md=md)
            evidence = (estimate, v, md, f, float(np.linalg.norm(v)),
                        float(np.abs(v).max()),
                        thresholded_count(v_spec, fb.count_threshold))
            if coeffs is not None:
                memo[a] = evidence
            if final:
                answers[a] = estimate
        estimate, v, md, f, v_l2, v_linf, v_count = evidence
        p = float(dist.probs[a])
        r = reward(a, a, f, p, cfg.lam)
        state = update(state, a, r)
        trace.records.append(CadIterationRecord(
            t=t, action=a, probs=tuple(dist.probs), inner_iters=budget,
            feedback=f, reward=r, scores=tuple(state.scores),
            residual_l2=v_l2, residual_linf=v_linf, residual_count=v_count,
            md=md, penalty_clamped=bool(f == 0 and penalty_clamped(p)),
        ))
        if should_stop(dist, v, fb):
            stop_reason = "prob" if dist.max_prob > fb.delta_prob else "residual"
            break
    best = int(np.argmax(state.scores))  # ties resolve to the lowest index
    fallback = bool(state.scores.max() <= 0.0)
    chosen = A_COSAMP if fallback else best
    answer = answers.get(chosen)
    if answer is None:
        answer = top_k(_solve(chosen, y, op, cfg, coeffs=coeffs)[0], cfg.k)
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
    calls, ties resolved toward the first channel.
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
    labels = [(o.final_method, o.fallback) for o in outcomes]
    method, fallback = max(labels, key=labels.count)  # first of the most common
    return ChannelsOutcome(
        channels=outcomes, final_method=method, fallback=fallback,
        estimate=np.concatenate([o.estimate for o in outcomes]),
        reconstruction=np.concatenate([o.reconstruction for o in outcomes]),
    )
