"""Exponential-weight action selection over the four recovery behaviours.

Probabilities mix a softmax of accumulated scores with uniform exploration:

    p_i = (1 - gamma) * exp(sigma * S_i) / sum_m exp(sigma * S_m) + gamma / 4

and rewards are importance-weighted by the probability of the chosen
action, so each action's score tracks its feedback in expectation no
matter how rarely it is played.  The whole state is the four scores,
a list of floats the caller keeps and update adds each reward to.
"""

from __future__ import annotations

import math

import numpy as np

from .recovery import N_ACTIONS

__all__ = ["probabilities", "sample_action", "reward", "penalty_clamped",
           "update"]

# penalty denominators smaller than this are clamped (and flagged in traces)
_CLAMP_EPS = 1e-6


def _check_distribution(probs: list[float]) -> None:
    # stated as what must hold, so that a NaN entry fails it
    if not (abs(math.fsum(probs) - 1.0) <= 1e-9 and min(probs) >= 0.0):
        raise ValueError("probs must be a probability vector")


def probabilities(scores, gamma: float, sigma: float) -> list[float]:
    """The mixed softmax of the four scores, as floats.  sigma * score stays
    in numpy, so that its overflow warns rather than passing silently, and
    the sum runs left to right, as numpy sums four entries: the bits are
    numpy's.  Max-subtraction keeps exp finite."""
    # stated as what must hold, so that a NaN parameter fails it
    if not (0.0 <= gamma < 1.0 and 0.0 < sigma < math.inf):
        raise ValueError(f"need 0 <= gamma < 1 and 0 < sigma < inf, got {gamma}, {sigma}")
    scaled = np.multiply(sigma, scores)
    if scaled.shape != (N_ACTIONS,):
        raise ValueError(f"scores must have shape ({N_ACTIONS},)")
    w = np.exp(scaled - scaled.max()).tolist()
    total = ((w[0] + w[1]) + w[2]) + w[3]
    probs = [(1.0 - gamma) * (x / total) + gamma / N_ACTIONS for x in w]
    _check_distribution(probs)
    return probs


def sample_action(probs, rng: np.random.Generator) -> int:
    """The first action whose cumulative probability exceeds one uniform
    draw, else the last; deterministic under a fixed generator state."""
    if np.shape(probs) != (N_ACTIONS,):
        raise ValueError(f"probs must have shape ({N_ACTIONS},)")
    probs = [float(p) for p in probs]
    _check_distribution(probs)
    u = rng.random()
    cum, action = 0.0, 0
    for p in probs[:N_ACTIONS - 1]:
        cum += p
        action += cum <= u
    return action


def penalty_clamped(p_chosen: float) -> bool:
    """True when the failure penalty denominator 1 - p had to be clamped."""
    return 1.0 - p_chosen < _CLAMP_EPS


def reward(action: int, chosen: int, feedback: int, p_chosen: float,
           lam: float) -> float:
    """Importance-weighted reward: lam/p on success, -1/(1-p) on failure,
    0 for actions other than the chosen one.  lam/p divides in numpy, so
    that its overflow warns rather than passing silently.  The penalty's
    denominator 1 - p is clamped at 1e-6, which penalty_clamped flags."""
    if not 0.0 < p_chosen <= 1.0:
        raise ValueError(f"p_chosen must lie in (0, 1], got {p_chosen}")
    if not 0.0 < lam < math.inf:
        raise ValueError(f"lambda must be positive and finite, got {lam}")
    if action != chosen:
        return 0.0
    if feedback:
        return float(np.float64(lam) / p_chosen)
    return -1.0 / max(1.0 - p_chosen, _CLAMP_EPS)


def update(scores: list[float], chosen: int, r: float) -> None:
    """Add the reward to the chosen action's score, in place."""
    if not 0 <= chosen < N_ACTIONS:
        raise ValueError(f"chosen must index an action, got {chosen}")
    scores[chosen] += r
