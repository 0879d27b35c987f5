"""Exponential-weight action selection over the four recovery behaviours.

Probabilities mix a softmax of accumulated scores with uniform exploration:

    p_i = (1 - gamma) * exp(sigma * S_i) / sum_m exp(sigma * S_m) + gamma / 4

and rewards are importance-weighted by the probability of the chosen
action, so each action's score tracks its feedback in expectation no
matter how rarely it is played.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .recovery import N_ACTIONS

__all__ = [
    "CLAMP_EPS",
    "BanditState",
    "ActionDistribution",
    "probabilities",
    "sample_action",
    "reward",
    "penalty_clamped",
    "update",
]

# penalty denominators smaller than this are clamped (and flagged in traces)
CLAMP_EPS = 1e-6


@dataclass(frozen=True)
class BanditState:
    """Cumulative scores plus the mixing / scaling / reward parameters."""

    scores: np.ndarray
    gamma: float
    sigma: float
    lam: float

    def __post_init__(self):
        scores = np.asarray(self.scores, dtype=np.float64)
        if scores.shape != (N_ACTIONS,):
            raise ValueError(f"scores must have shape ({N_ACTIONS},)")
        if not 0.0 <= self.gamma < 1.0:
            raise ValueError(f"gamma must lie in [0, 1), got {self.gamma}")
        if self.sigma <= 0.0 or self.lam <= 0.0:
            raise ValueError("sigma and lambda must be positive")
        object.__setattr__(self, "scores", scores)

    @classmethod
    def fresh(cls, gamma: float, sigma: float, lam: float) -> "BanditState":
        return cls(scores=np.zeros(N_ACTIONS), gamma=gamma, sigma=sigma, lam=lam)


@dataclass(frozen=True)
class ActionDistribution:
    """A probability vector over the four actions."""

    probs: np.ndarray

    def __post_init__(self):
        probs = np.asarray(self.probs, dtype=np.float64)
        if probs.shape != (N_ACTIONS,):
            raise ValueError(f"probs must have shape ({N_ACTIONS},)")
        # stated as what must hold, so that a NaN entry fails it
        if not (abs(probs.sum() - 1.0) <= 1e-9 and probs.min() >= 0.0):
            raise ValueError("probs must be a probability vector")
        object.__setattr__(self, "probs", probs)

    @property
    def max_prob(self) -> float:
        return float(self.probs.max())


def _mix(scores, gamma: float, sigma: float) -> list[float]:
    """The mixed softmax as floats.  sigma * score stays in numpy, so that
    its overflow warns rather than passing silently, and the sum runs left
    to right, as numpy sums four entries: the bits are numpy's."""
    scaled = np.multiply(sigma, scores)
    w = np.exp(scaled - scaled.max()).tolist()
    total = ((w[0] + w[1]) + w[2]) + w[3]
    return [(1.0 - gamma) * (x / total) + gamma / N_ACTIONS for x in w]


def _draw(probs, u: float) -> int:
    """The first action whose cumulative probability exceeds u, else the last."""
    cum, action = 0.0, 0
    for p in probs[:N_ACTIONS - 1]:
        cum += p
        action += cum <= u
    return action


def probabilities(state: BanditState) -> ActionDistribution:
    """Mixed softmax of Eq-style scores; max-subtraction keeps exp finite."""
    return ActionDistribution(np.array(_mix(state.scores, state.gamma, state.sigma)))


def sample_action(dist: ActionDistribution, rng: np.random.Generator) -> int:
    """Draw an action index; deterministic under a fixed generator state."""
    return _draw(dist.probs.tolist(), rng.random())


def penalty_clamped(p_chosen: float) -> bool:
    """True when the failure penalty denominator 1 - p had to be clamped."""
    return 1.0 - p_chosen < CLAMP_EPS


def reward(action: int, chosen: int, feedback: int, p_chosen: float,
           lam: float) -> float:
    """Importance-weighted reward: lam/p on success, -1/(1-p) on failure.

    Actions other than the chosen one receive 0.  A chosen probability at
    (or within CLAMP_EPS of) 1 would blow up the penalty, so the
    denominator is clamped there; penalty_clamped reports when that
    happened so callers can flag it.
    """
    if not 0.0 < p_chosen <= 1.0:
        raise ValueError(f"p_chosen must lie in (0, 1], got {p_chosen}")
    if action != chosen:
        return 0.0
    if feedback:
        return lam / p_chosen
    return -1.0 / max(1.0 - p_chosen, CLAMP_EPS)


def update(state: BanditState, chosen: int, r: float) -> BanditState:
    """Add the reward to the chosen action's score; other scores unchanged."""
    if not 0 <= chosen < N_ACTIONS:
        raise ValueError(f"chosen must index an action, got {chosen}")
    scores = state.scores.copy()
    scores[chosen] += r
    return replace(state, scores=scores)
