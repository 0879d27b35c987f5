"""The adaptive defence loop tying recovery, feedback, and the bandit together.

A run first decides its regime, once: a _ClosedForms provider on the full
orthonormal operator, an _Iterative one on a row subset.  Each iteration
then samples one of the four recovery actions and takes one step of it
(run_action): the provider solves and prunes the action to k terms, and
the step computes the residual's features once (l2 and max norms, the
thresholded count of its transform-domain view, and its Mahalanobis
distance when CoSaMP runs with clean statistics).  The feedback bit, the
stop rule and the trace record read those same values, and the bit's
importance-weighted reward updates the action scores.  The loop stops on
the clause the stop rule names (some action's probability concentrates, or
the residual collapses) or at the iteration cap; the trace is the plain
list of per-iteration records.  Every solve reports whether it is final,
that is, whether it may stand as the answer, and the run keeps the
evidence of each action's latest final solve: a later step of that action
returns it without solving.  The best-scoring action, or greedy recovery
when no action ever earned a positive score, gives the final answer: its
final estimate, or else one more run of it.
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
                       _threshold_table, action_radius, cosamp_run, l1_min_general)
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
        params = self.bandit_params
        # stated as what must hold, so that a NaN fails it
        if not (len(params) == 3 and all(_is_number(v) and 0 <= v < math.inf for v in params)
                and params[0] < 1 and params[1] > 0 and params[2] > 0):
            raise ValueError(f"bandit_params={params!r} must be three finite numbers gamma, "
                             "sigma, lambda with 0 <= gamma < 1, sigma > 0 and lambda > 0")

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


def run_action(action: int, provider: _Provider, budget: int, x_start: np.ndarray) -> tuple:
    """One loop step of an action: its evidence (pruned estimate, md,
    feedback bit, residual l2, l-inf and thresholded count) and the
    splitting solve it ran, or None.

    An action whose latest solve in the run was final hands back that
    solve's evidence, kept in provider.finals, and runs no solve.
    Otherwise the provider solves and prunes it (x_start is the loop's
    current estimate), and the step scores it, each feature computed once.
    """
    evidence = provider.finals.get(action)
    if evidence is not None:
        return evidence
    estimate, final, solved = provider.estimate(action, budget, x_start)
    cfg, stats = provider.cfg, provider.stats
    v = residual(provider.y, estimate, provider.op)
    md = mahalanobis(v, stats) if action == A_COSAMP and stats is not None else None
    l2, linf = float(np.linalg.norm(v)), float(np.abs(v).max())
    count = thresholded_count(provider.spectrum(v, estimate), cfg.feedback.count_threshold)
    evidence = (estimate, md, feedback_bit(action, l2, linf, count, cfg.feedback, md),
                l2, linf, count, solved)
    if final:
        # a later step that reuses the evidence runs no splitting solve
        provider.finals[action] = evidence if solved is None else (*evidence[:-1], None)
    return evidence


class _Provider:
    """One run's inputs, and action -> evidence of the action's latest
    final solve (finals).  A subclass solves the actions in its regime:
    estimate(action, budget, x_start) gives the pruned estimate, whether
    it is final and the splitting solve it ran, where budget None asks for
    a final run; spectrum(v, estimate) is the residual v's transform-domain
    view."""

    def __init__(self, y: np.ndarray, op: SensingOperator, cfg: CadConfig,
                 stats: CleanStats | None):
        self.y, self.op, self.cfg, self.stats = y, op, cfg, stats
        self.finals = {}

    def radius(self, action: int) -> float:
        cfg = self.cfg
        return action_radius(action, cfg.feedback.tau, cfg.eta, cfg.eta_prime,
                             cfg.eta_dprime, self.op.n)

    def answer(self, action: int) -> np.ndarray:
        """The run's answer by an action: its final estimate, or one final run."""
        evidence = self.finals.get(action)
        return evidence[0] if evidence is not None else self.estimate(action, None, None)[0]


class _ClosedForms(_Provider):
    """The full orthonormal operator: each action is a closed form of
    c = F y, analysed once per run, so every solve is final and budgets
    and starts are moot.  CoSaMP's least-squares step restricts c; each l1
    action soft-thresholds c through the run's threshold table, built on
    the first l1 solve.

    Every estimate keeps order[:k], k entries along the run's stable order
    of |c|, sorted once per run: a soft threshold is monotone in |c|, so
    they are the estimate's k largest magnitudes (for CoSaMP, top_k(c)).
    """

    def __init__(self, y, op, cfg, stats):
        super().__init__(y, op, cfg, stats)
        self.c = op.analyze(y)
        self.order = np.argsort(-np.abs(self.c), kind="stable")
        self.table = None

    def estimate(self, action, budget, x_start):
        if action == A_COSAMP:
            raw = self.c
        else:
            if self.table is None:
                self.table = _threshold_table(self.c, self.order)
            raw = _soft_threshold(self.table, self.radius(action))
        keep = self.order[:self.cfg.k]
        out = np.zeros(raw.size)
        out[keep] = raw[keep]
        return out, True, None

    def spectrum(self, v, estimate):
        return self.c - estimate


class _Iterative(_Provider):
    """A row-subsampled operator: each action runs its iterative solver,
    in the loop under a budget (CoSaMP steps, or units of
    _GENERAL_ITERS_PER_UNIT splitting iterations), in a final run for
    _FINAL_COSAMP_STEPS cold steps or to the splitting solver's cap.

    CoSaMP starts at x_start, the loop's current estimate, and returns a
    pruned estimate; it is not convex, so its solve is never final.  The
    l1 actions share one Douglas-Rachford state per run: each l1 solve,
    the final answer's included, continues from the latest state any of
    them left (one that returned at once leaves none), since the solver's
    step depends on y alone.  An l1 solve is final exactly when the solver
    certifies it converged: a certified solve's l1 norm lies within the
    certified gap of the optimum whatever its start, so a re-solve would
    carry no new evidence.  An uncertified one is logged at debug level.
    """

    state = None  # the run's latest Douglas-Rachford state; None before the first

    def estimate(self, action, budget, x_start):
        k = self.cfg.k
        if action == A_COSAMP:
            steps = _FINAL_COSAMP_STEPS if budget is None else budget
            return cosamp_run(self.y, self.op, k, steps, x0=x_start).estimate, False, None
        cap = L1Problem.max_iters if budget is None else _GENERAL_ITERS_PER_UNIT * budget
        problem = L1Problem(observed=self.y, op=self.op, radius=self.radius(action),
                            max_iters=cap)
        result = l1_min_general(problem, x0=self.state)
        if result.state is not None:
            self.state = result.state
        if not result.converged:
            log.debug("%s unconverged after %d of %d iterations, feasibility gap %.3g, "
                      "duality gap %.3g", ACTION_LABELS[action], result.iterations,
                      cap, result.feasibility_gap, result.duality_gap)
        return top_k(result.coeffs, k), result.converged, result

    def spectrum(self, v, estimate):
        return self.op.adjoint(v)


def _run_single(y: np.ndarray, cfg: CadConfig, stats: CleanStats | None,
                op: SensingOperator, seed) -> CadOutcome:
    y = np.asarray(y, dtype=np.float64)
    if y.shape != (op.m,):
        raise ValueError(f"y must have shape ({op.m},), got {y.shape}")
    if cfg.k > op.n:
        raise ValueError(f"k={cfg.k} exceeds the dimension n={op.n}")
    provider = (_ClosedForms if op.is_full else _Iterative)(y, op, cfg, stats)
    fb = cfg.feedback
    rng = np.random.default_rng(seed)
    estimate = np.zeros(op.n)
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
        estimate, md, f, v_l2, v_linf, v_count, solved = run_action(
            a, provider, budget, estimate)
        p = probs[a]
        r = reward(a, a, f, p, cfg.lam)
        update(scores, a, r)
        trace.append(CadIterationRecord(
            t=t, action=a, probs=tuple(probs),
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
    return CadOutcome(
        final_method=best, fallback=fallback,
        estimate=provider.answer(A_COSAMP if fallback else best), trace=trace,
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
    if isinstance(stats, CleanStats) or len(stats) != 3:
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
