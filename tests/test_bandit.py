"""Bandit-layer tests: mixed-softmax probabilities against an
arbitrary-precision oracle, the float kernels against the numpy bodies
they replaced, sampling, rewards, and score updates."""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cad_defense import (CLAMP_EPS, ActionDistribution, BanditState,
                         penalty_clamped, probabilities, reward,
                         sample_action, update)
from cad_defense.bandit import _draw, _mix


def oracle_probs(scores, gamma, sigma, dps=50):
    """Mixed softmax evaluated in 50-digit arithmetic, no stabilization."""
    with mp.workdps(dps):
        ws = [mp.e ** (mp.mpf(repr(float(sigma))) * mp.mpf(repr(float(s))))
              for s in scores]
        total = mp.fsum(ws)
        g = mp.mpf(repr(float(gamma)))
        return np.array([float((1 - g) * w / total + g / 4) for w in ws])


def _state(scores, gamma=0.07, sigma=1.01, lam=1.25):
    return BanditState(scores=np.asarray(scores, dtype=np.float64),
                       gamma=gamma, sigma=sigma, lam=lam)


# ---------------------------------------------------------------------------
# probabilities


@pytest.mark.parametrize("value", [0.0, -3.5, 12.0, 1e5])
def test_equal_scores_give_uniform(value):
    dist = probabilities(_state([value] * 4, gamma=0.3, sigma=2.0))
    assert np.abs(dist.probs - 0.25).max() < 1e-12


def test_three_to_one_weights_no_exploration():
    # exp terms (3, 1, 1, 1) with gamma = 0 -> (1/2, 1/6, 1/6, 1/6)
    state = _state([math.log(3.0), 0.0, 0.0, 0.0], gamma=0.0, sigma=1.0)
    dist = probabilities(state)
    assert np.abs(dist.probs - np.array([0.5, 1 / 6, 1 / 6, 1 / 6])).max() < 1e-12


def test_dominant_score_mnist_parameters():
    dist = probabilities(_state([10.0, 0.0, 0.0, 0.0]))
    expected = 0.93 * math.exp(10.1) / (math.exp(10.1) + 3.0) + 0.0175
    assert abs(dist.probs[0] - expected) < 1e-12
    assert dist.probs.min() >= 0.0175 - 1e-15  # gamma / 4 floor


def test_probabilities_match_oracle_random_states():
    rng = np.random.default_rng(0)
    for _ in range(1000):
        scores = rng.uniform(-50.0, 50.0, size=4)
        gamma = float(rng.uniform(0.0, 0.99))
        sigma = float(rng.uniform(0.1, 3.0))
        dist = probabilities(_state(scores, gamma=gamma, sigma=sigma))
        assert np.abs(dist.probs - oracle_probs(scores, gamma, sigma)).max() <= 1e-12


def test_probabilities_survive_huge_scores():
    # naive exponentiation overflows here; the stabilized form must not
    dist = probabilities(_state([1e6, -1e6, 0.0, 5.0]))
    assert np.isfinite(dist.probs).all()
    assert np.abs(dist.probs - oracle_probs([1e6, -1e6, 0.0, 5.0], 0.07, 1.01)).max() <= 1e-12


def test_simplex_and_floor_invariants():
    rng = np.random.default_rng(1)
    for _ in range(2000):
        gamma = float(rng.uniform(0.0, 0.99))
        dist = probabilities(_state(rng.uniform(-100, 100, size=4),
                                    gamma=gamma, sigma=float(rng.uniform(0.1, 2.0))))
        assert abs(dist.probs.sum() - 1.0) <= 1e-12
        assert dist.probs.min() >= gamma / 4 - 1e-15
        assert dist.probs.max() <= (1 - gamma) + gamma / 4 + 1e-15


@settings(max_examples=300, deadline=None)
@given(scores=st.lists(st.floats(-1e300, 1e300), min_size=4, max_size=4),
       gamma=st.floats(0.0, 1.0, exclude_max=True),
       sigma=st.floats(1e-3, 1e3))
def test_probabilities_stay_on_simplex(scores, gamma, sigma):
    # any finite scores whose scaled values sigma * score stay finite
    probs = probabilities(_state(scores, gamma=gamma, sigma=sigma)).probs
    assert np.isfinite(probs).all()
    assert abs(probs.sum() - 1.0) <= 1e-12
    assert probs.min() >= gamma / 4 - 1e-15


def test_overflowing_scores_raise_instead_of_nan():
    # sigma * score overflows to +-inf, and the softmax to NaN
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(ValueError, match="probability vector"):
        probabilities(_state([1e308, -1e308, 0.0, 0.0], sigma=10.0))


def test_softmax_shift_invariance():
    rng = np.random.default_rng(2)
    for _ in range(200):
        scores = rng.uniform(-20, 20, size=4)
        shift = float(rng.uniform(-1e3, 1e3))
        a = probabilities(_state(scores)).probs
        b = probabilities(_state(scores + shift)).probs
        assert np.abs(a - b).max() <= 1e-12


def test_state_validation():
    with pytest.raises(ValueError):
        _state([0.0, 0.0, 0.0], gamma=0.07)
    with pytest.raises(ValueError):
        _state(np.zeros(4), gamma=1.0)
    with pytest.raises(ValueError):
        _state(np.zeros(4), sigma=0.0)
    with pytest.raises(ValueError):
        ActionDistribution(probs=np.array([0.5, 0.5, 0.5, -0.5]))
    with pytest.raises(ValueError):
        ActionDistribution(probs=np.array([np.nan, 0.5, 0.5, 0.0]))


# ---------------------------------------------------------------------------
# the float kernels keep the bits of the numpy bodies they replaced
#
# The loop and the reference loop in test_cad.py both run on _mix and
# _draw, so the loop's bit-for-bit oracle cannot see a bit they move; these
# numpy bodies, probabilities' and sample_action's before the kernels, can.


def _numpy_probabilities(scores, gamma, sigma):
    scaled = sigma * np.asarray(scores, dtype=np.float64)
    w = np.exp(scaled - scaled.max())
    soft = w / w.sum()
    return (1.0 - gamma) * soft + gamma / 4


def _numpy_draw(probs, u):
    cum = np.cumsum(probs)
    return int(min(np.searchsorted(cum, u, side="right"), 3))


def _kernel_cases(count=25_000):
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


def test_mix_has_the_numpy_bits():
    for scores, gamma, sigma in _kernel_cases():
        ours = np.array(_mix(scores.tolist(), gamma, sigma))
        assert ours.tobytes() == _numpy_probabilities(scores, gamma, sigma).tobytes()


def test_draw_has_the_numpy_bits():
    rng = np.random.default_rng(13)
    below_one = np.nextafter(1.0, 0.0)
    for i, (scores, gamma, sigma) in enumerate(_kernel_cases(5_000)):
        probs = _numpy_probabilities(scores, gamma, sigma)
        cum = np.cumsum(probs)
        # u on every cumulative sum and a step either side, where <= decides
        us = [0.0, below_one, float(rng.random()),
              *cum.tolist(), *np.nextafter(cum, 0.0).tolist(),
              *np.nextafter(cum, 2.0).tolist()]
        for u in us:
            if u < 1.0:
                assert _draw(probs.tolist(), u) == _numpy_draw(probs, u), (probs, u)
    for probs in ([1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 1.0], [0.5, 0.5, 0.0, 0.0],
                  [0.25, 0.0, 0.0, 0.75]):
        for u in (0.0, 0.25, 0.5, 0.75, below_one):
            assert _draw(probs, u) == _numpy_draw(np.array(probs), u)


def test_mix_keeps_the_scaling_overflow_in_numpy():
    # a float product would overflow to inf without a word
    with np.errstate(over="raise"), pytest.raises(FloatingPointError, match="overflow"):
        _mix([2.5, 0.0, 0.0, 0.0], 0.07, 1e308)


# ---------------------------------------------------------------------------
# sampling


def test_degenerate_distribution_always_first():
    dist = ActionDistribution(probs=np.array([1.0, 0.0, 0.0, 0.0]))
    rng = np.random.default_rng(3)
    assert all(sample_action(dist, rng) == 0 for _ in range(100))


def test_uniform_sampling_frequencies():
    dist = ActionDistribution(probs=np.full(4, 0.25))
    rng = np.random.default_rng(4)
    draws = np.array([sample_action(dist, rng) for _ in range(100_000)])
    freqs = np.bincount(draws, minlength=4) / draws.size
    assert np.abs(freqs - 0.25).max() <= 0.01


def test_sampling_deterministic_under_seed():
    dist = probabilities(_state([1.0, 0.5, 0.0, -0.5]))
    a = [sample_action(dist, np.random.default_rng(5)) for _ in range(1)]
    seq1 = [sample_action(dist, rng) for rng in [np.random.default_rng(6)] * 1]
    rng1, rng2 = np.random.default_rng(7), np.random.default_rng(7)
    s1 = [sample_action(dist, rng1) for _ in range(50)]
    s2 = [sample_action(dist, rng2) for _ in range(50)]
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
    assert r == -1.0 / CLAMP_EPS
    assert penalty_clamped(1.0)
    assert not penalty_clamped(0.5)


def test_reward_probability_validation():
    with pytest.raises(ValueError):
        reward(0, 0, 1, 0.0, 1.25)
    with pytest.raises(ValueError):
        reward(0, 0, 1, 1.5, 1.25)


def test_update_moves_only_chosen_score():
    state = BanditState.fresh(0.07, 1.01, 1.25)
    nxt = update(state, 1, 2.5)
    assert np.array_equal(nxt.scores, np.array([0.0, 2.5, 0.0, 0.0]))
    assert not state.scores.any()  # original untouched
    same = update(state, 2, 0.0)
    assert np.array_equal(same.scores, state.scores)
    with pytest.raises(ValueError):
        update(state, 4, 1.0)


def test_update_scores_are_additive():
    state = BanditState.fresh(0.07, 1.01, 1.25)
    rewards = [(0, 1.0), (2, -0.5), (0, 0.25), (3, 2.0)]
    for chosen, r in rewards:
        state = update(state, chosen, r)
    expected = np.zeros(4)
    for chosen, r in rewards:
        expected[chosen] += r
    assert np.allclose(state.scores, expected, atol=0.0)


# ---------------------------------------------------------------------------
# statistical properties of the importance weighting


def test_importance_weighting_unbiased():
    # action i always succeeds when chosen: its mean reward over rounds
    # (zeros included) estimates lambda
    lam = 1.25
    dist = probabilities(_state([0.5, 0.0, -0.5, 0.2]))
    rng = np.random.default_rng(8)
    i = 1
    p_i = float(dist.probs[i])
    rounds = 100_000
    total = 0.0
    for _ in range(rounds):
        chosen = sample_action(dist, rng)
        total += reward(i, chosen, 1, float(dist.probs[chosen]), lam)
    mean = total / rounds
    se = math.sqrt((lam / p_i) ** 2 * p_i * (1 - p_i) / rounds)
    assert abs(mean - lam) <= 3 * se


@pytest.mark.parametrize("gamma,sigma,lam", [(0.07, 1.01, 1.25), (0.2, 0.5, 1.0)])
def test_argmax_dominance_under_consistent_feedback(gamma, sigma, lam):
    # one action always succeeds, the rest always fail: its probability
    # approaches the (1 - gamma) + gamma/4 ceiling and it wins the argmax
    target = 2
    state = BanditState.fresh(gamma, sigma, lam)
    rng = np.random.default_rng(9)
    for _ in range(200):
        dist = probabilities(state)
        chosen = sample_action(dist, rng)
        f = int(chosen == target)
        r = reward(chosen, chosen, f, float(dist.probs[chosen]), lam)
        state = update(state, chosen, r)
    final = probabilities(state)
    cap = (1 - gamma) + gamma / 4
    assert int(np.argmax(state.scores)) == target
    assert final.probs[target] >= cap - 1e-3
