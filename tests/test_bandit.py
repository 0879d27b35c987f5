"""Bandit-layer tests: mixed-softmax probabilities against an
arbitrary-precision oracle, the float code against the numpy bodies it
replaced, parameter checks, sampling, rewards, and score updates."""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cad_defense import (penalty_clamped, probabilities, reward,
                         sample_action, update)


def oracle_probs(scores, gamma, sigma, dps=50):
    """Mixed softmax evaluated in 50-digit arithmetic, no stabilization."""
    with mp.workdps(dps):
        ws = [mp.e ** (mp.mpf(repr(float(sigma))) * mp.mpf(repr(float(s))))
              for s in scores]
        total = mp.fsum(ws)
        g = mp.mpf(repr(float(gamma)))
        return np.array([float((1 - g) * w / total + g / 4) for w in ws])


def _probs(scores, gamma=0.07, sigma=1.01):
    return np.array(probabilities(np.asarray(scores, dtype=np.float64), gamma, sigma))


# ---------------------------------------------------------------------------
# probabilities


@pytest.mark.parametrize("value", [0.0, -3.5, 12.0, 1e5])
def test_equal_scores_give_uniform(value):
    probs = _probs([value] * 4, gamma=0.3, sigma=2.0)
    assert np.abs(probs - 0.25).max() < 1e-12


def test_three_to_one_weights_no_exploration():
    # exp terms (3, 1, 1, 1) with gamma = 0 -> (1/2, 1/6, 1/6, 1/6)
    probs = _probs([math.log(3.0), 0.0, 0.0, 0.0], gamma=0.0, sigma=1.0)
    assert np.abs(probs - np.array([0.5, 1 / 6, 1 / 6, 1 / 6])).max() < 1e-12


def test_dominant_score_mnist_parameters():
    probs = _probs([10.0, 0.0, 0.0, 0.0])
    expected = 0.93 * math.exp(10.1) / (math.exp(10.1) + 3.0) + 0.0175
    assert abs(probs[0] - expected) < 1e-12
    assert probs.min() >= 0.0175 - 1e-15  # gamma / 4 floor


def test_probabilities_match_oracle_random_states():
    rng = np.random.default_rng(0)
    for _ in range(1000):
        scores = rng.uniform(-50.0, 50.0, size=4)
        gamma = float(rng.uniform(0.0, 0.99))
        sigma = float(rng.uniform(0.1, 3.0))
        probs = _probs(scores, gamma=gamma, sigma=sigma)
        assert np.abs(probs - oracle_probs(scores, gamma, sigma)).max() <= 1e-12


def test_probabilities_survive_huge_scores():
    # naive exponentiation overflows here; the stabilized form must not
    probs = _probs([1e6, -1e6, 0.0, 5.0])
    assert np.isfinite(probs).all()
    assert np.abs(probs - oracle_probs([1e6, -1e6, 0.0, 5.0], 0.07, 1.01)).max() <= 1e-12


def test_simplex_and_floor_invariants():
    rng = np.random.default_rng(1)
    for _ in range(2000):
        gamma = float(rng.uniform(0.0, 0.99))
        probs = _probs(rng.uniform(-100, 100, size=4),
                       gamma=gamma, sigma=float(rng.uniform(0.1, 2.0)))
        assert abs(probs.sum() - 1.0) <= 1e-12
        assert probs.min() >= gamma / 4 - 1e-15
        assert probs.max() <= (1 - gamma) + gamma / 4 + 1e-15


@settings(max_examples=300, deadline=None)
@given(scores=st.lists(st.floats(-1e300, 1e300), min_size=4, max_size=4),
       gamma=st.floats(0.0, 1.0, exclude_max=True),
       sigma=st.floats(1e-3, 1e3))
def test_probabilities_stay_on_simplex(scores, gamma, sigma):
    # any finite scores whose scaled values sigma * score stay finite
    probs = _probs(scores, gamma=gamma, sigma=sigma)
    assert np.isfinite(probs).all()
    assert abs(probs.sum() - 1.0) <= 1e-12
    assert probs.min() >= gamma / 4 - 1e-15


def test_overflowing_scores_raise_instead_of_nan():
    # sigma * score overflows to +-inf, and the softmax to NaN
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(ValueError, match="probability vector"):
        probabilities([1e308, -1e308, 0.0, 0.0], 0.07, 10.0)


def test_softmax_shift_invariance():
    rng = np.random.default_rng(2)
    for _ in range(200):
        scores = rng.uniform(-20, 20, size=4)
        shift = float(rng.uniform(-1e3, 1e3))
        a = _probs(scores)
        b = _probs(scores + shift)
        assert np.abs(a - b).max() <= 1e-12


def test_state_validation():
    # every bound is stated so that NaN fails it
    nan, inf = math.nan, math.inf
    for scores, gamma, sigma in [([0.0] * 3, 0.07, 1.01), ([0.0] * 4, 1.0, 1.01),
                                 ([0.0] * 4, 0.07, 0.0), ([0.0] * 4, nan, 1.01),
                                 ([0.0] * 4, -0.1, 1.01), ([0.0] * 4, 0.07, nan),
                                 ([0.0] * 4, 0.07, inf), ([0.0] * 4, 0.07, -1.0)]:
        with pytest.raises(ValueError):
            probabilities(np.array(scores), gamma, sigma)
    rng = np.random.default_rng(0)
    for probs in ([0.5, 0.5, 0.5, -0.5], [nan, 0.5, 0.5, 0.0], [0.25] * 3, [[0.25]] * 4,
                  [0.25] * 5, [0.5] * 4, [0.25, 0.25, 0.25, inf]):
        with pytest.raises(ValueError, match="probs"):
            sample_action(np.array(probs), rng)
    for lam in (0.0, -1.25, inf, nan):
        with pytest.raises(ValueError, match="lambda"):
            reward(0, 0, 1, 0.5, lam)


# ---------------------------------------------------------------------------
# the float code keeps the bits of the numpy bodies it replaced
#
# The loop runs on probabilities and sample_action.  The reference loop in
# test_cad.py runs on its own copies of these numpy bodies, so it sees a
# bit the float code moves; these tests name the function that moved it.


def _numpy_probabilities(scores, gamma, sigma):
    scaled = sigma * np.asarray(scores, dtype=np.float64)
    w = np.exp(scaled - scaled.max())
    soft = w / w.sum()
    return (1.0 - gamma) * soft + gamma / 4


def _numpy_draw(probs, u):
    cum = np.cumsum(probs)
    return int(min(np.searchsorted(cum, u, side="right"), 3))


def _bit_cases(count=25_000):
    """(scores, gamma, sigma): spread and clustered scores, score sums the
    loop's rewards make, ties, and gamma 0, where probabilities underflow to 0."""
    rng = np.random.default_rng(12)
    for i in range(count):
        kind = i % 4
        if kind == 0:
            scores = rng.uniform(-50.0, 50.0, size=4)
        elif kind == 1:
            scores = rng.normal(0.0, 1.0, size=4) * 10.0 ** rng.integers(-6, 4)
        elif kind == 2:
            p = rng.uniform(0.0175, 0.9, size=(4, 8))
            scores = np.where(rng.random((4, 8)) < 0.5, 1.25 / p, -1.0 / (1.0 - p)).sum(1)
        else:
            scores = rng.choice([0.0, 1.25, -2.5, 40.0], size=4)
        gamma = 0.0 if i % 5 == 0 else float(rng.uniform(0.0, 0.99))
        yield scores, gamma, float(rng.uniform(0.05, 20.0))


class _FixedDraw:
    """A generator stand-in whose one uniform draw is u, a float as
    Generator.random() returns it."""

    def __init__(self, u):
        self.u, self.calls = float(u), 0

    def random(self):
        self.calls += 1
        return self.u


def _draw(probs, u):
    rng = _FixedDraw(u)
    action = sample_action(probs, rng)
    assert rng.calls == 1 and type(action) is int
    return action


def test_mix_has_the_numpy_bits():
    for scores, gamma, sigma in _bit_cases():
        ours = np.array(probabilities(scores.tolist(), gamma, sigma))
        assert ours.tobytes() == _numpy_probabilities(scores, gamma, sigma).tobytes()


def test_draw_has_the_numpy_bits():
    rng = np.random.default_rng(13)
    below_one = np.nextafter(1.0, 0.0)
    for i, (scores, gamma, sigma) in enumerate(_bit_cases(5_000)):
        probs = _numpy_probabilities(scores, gamma, sigma)
        cum = np.cumsum(probs)
        # u on every cumulative sum and a step either side, where <= decides
        us = [0.0, below_one, float(rng.random()),
              *cum.tolist(), *np.nextafter(cum, 0.0).tolist(),
              *np.nextafter(cum, 2.0).tolist()]
        for u in us:
            if u < 1.0:
                assert _draw(probs.tolist(), u) == _numpy_draw(probs, u), (probs, u)
                assert _draw(probs, u) == _numpy_draw(probs, u), (probs, u)
    for probs in ([1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 1.0], [0.5, 0.5, 0.0, 0.0],
                  [0.25, 0.0, 0.0, 0.75]):
        for u in (0.0, 0.25, 0.5, 0.75, below_one):
            assert _draw(probs, u) == _numpy_draw(np.array(probs), u)


def test_mix_keeps_the_scaling_overflow_in_numpy():
    # a float product would overflow to inf without a word
    with np.errstate(over="raise"), pytest.raises(FloatingPointError, match="overflow"):
        probabilities([2.5, 0.0, 0.0, 0.0], 0.07, 1e308)


def test_reward_keeps_the_lambda_overflow_in_numpy():
    # a float quotient would overflow to inf without a word
    with np.errstate(over="raise"), pytest.raises(FloatingPointError, match="overflow"):
        reward(0, 0, 1, 0.5, 1e308)


def test_reward_has_the_float_bits():
    rng = np.random.default_rng(14)
    for lam, p in zip(rng.uniform(0.01, 10.0, 2000), rng.uniform(1e-3, 1.0, 2000)):
        r = reward(1, 1, 1, float(p), float(lam))
        assert type(r) is float and r == float(lam) / float(p)


# ---------------------------------------------------------------------------
# sampling


def test_degenerate_distribution_always_first():
    probs = [1.0, 0.0, 0.0, 0.0]
    rng = np.random.default_rng(3)
    assert all(sample_action(probs, rng) == 0 for _ in range(100))


def test_uniform_sampling_frequencies():
    probs = np.full(4, 0.25)
    rng = np.random.default_rng(4)
    draws = np.array([sample_action(probs, rng) for _ in range(100_000)])
    freqs = np.bincount(draws, minlength=4) / draws.size
    assert np.abs(freqs - 0.25).max() <= 0.01


def test_sampling_deterministic_under_seed():
    probs = probabilities([1.0, 0.5, 0.0, -0.5], 0.07, 1.01)
    a = [sample_action(probs, np.random.default_rng(5)) for _ in range(1)]
    seq1 = [sample_action(probs, rng) for rng in [np.random.default_rng(6)] * 1]
    rng1, rng2 = np.random.default_rng(7), np.random.default_rng(7)
    s1 = [sample_action(probs, rng1) for _ in range(50)]
    s2 = [sample_action(probs, rng2) for _ in range(50)]
    assert s1 == s2
    assert a == a and seq1 == seq1  # smoke determinism for single draws


# ---------------------------------------------------------------------------
# rewards and updates


def test_reward_success_branch():
    assert reward(2, 2, 1, 0.5, 1.25) == 2.5


def test_reward_failure_branch():
    assert reward(1, 1, 0, 0.75, 1.25) == -4.0


def test_reward_unchosen_is_zero():
    assert reward(0, 3, 1, 0.9, 1.25) == 0.0
    assert reward(0, 3, 0, 0.9, 1.25) == 0.0


def test_reward_penalty_clamp_at_certainty():
    r = reward(1, 1, 0, 1.0, 1.25)
    assert r == -1.0 / 1e-6
    assert penalty_clamped(1.0)
    assert not penalty_clamped(0.5)


def test_reward_probability_validation():
    with pytest.raises(ValueError):
        reward(0, 0, 1, 0.0, 1.25)
    with pytest.raises(ValueError):
        reward(0, 0, 1, 1.5, 1.25)


def test_update_moves_only_chosen_score():
    scores = [0.0] * 4
    update(scores, 1, 2.5)
    assert scores == [0.0, 2.5, 0.0, 0.0]
    update(scores, 2, 0.0)
    assert scores == [0.0, 2.5, 0.0, 0.0]
    for chosen in (4, -1):
        with pytest.raises(ValueError):
            update(scores, chosen, 1.0)
    assert scores == [0.0, 2.5, 0.0, 0.0]


def test_update_scores_are_additive():
    scores = [0.0] * 4
    rewards = [(0, 1.0), (2, -0.5), (0, 0.25), (3, 2.0)]
    for chosen, r in rewards:
        update(scores, chosen, r)
    expected = np.zeros(4)
    for chosen, r in rewards:
        expected[chosen] += r
    assert np.array_equal(scores, expected)


# ---------------------------------------------------------------------------
# statistical properties of the importance weighting


def test_importance_weighting_unbiased():
    # action i always succeeds when chosen: its mean reward over rounds
    # (zeros included) estimates lambda
    lam = 1.25
    probs = probabilities([0.5, 0.0, -0.5, 0.2], 0.07, 1.01)
    rng = np.random.default_rng(8)
    i = 1
    p_i = probs[i]
    rounds = 100_000
    total = 0.0
    for _ in range(rounds):
        chosen = sample_action(probs, rng)
        total += reward(i, chosen, 1, probs[chosen], lam)
    mean = total / rounds
    se = math.sqrt((lam / p_i) ** 2 * p_i * (1 - p_i) / rounds)
    assert abs(mean - lam) <= 3 * se


@pytest.mark.parametrize("gamma,sigma,lam", [(0.07, 1.01, 1.25), (0.2, 0.5, 1.0)])
def test_argmax_dominance_under_consistent_feedback(gamma, sigma, lam):
    # one action always succeeds, the rest always fail: its probability
    # approaches the (1 - gamma) + gamma/4 ceiling and it wins the argmax
    target = 2
    scores = [0.0] * 4
    rng = np.random.default_rng(9)
    for _ in range(200):
        probs = probabilities(scores, gamma, sigma)
        chosen = sample_action(probs, rng)
        f = int(chosen == target)
        update(scores, chosen, reward(chosen, chosen, f, probs[chosen], lam))
    final = probabilities(scores, gamma, sigma)
    cap = (1 - gamma) + gamma / 4
    assert int(np.argmax(scores)) == target
    assert final[target] >= cap - 1e-3
