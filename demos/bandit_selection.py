"""
Exponential-weight action selection under bandit feedback
=========================================================

The selector keeps one score per recovery action, samples from a softmax
mixed with a uniform exploration floor, and feeds importance-weighted
rewards back into the chosen score only.  A single reliably succeeding
action therefore collects all the probability mass, while a run where
nothing succeeds leaves every score non-positive -- the trigger for the
greedy fallback.  The whole state is a list of four floats the caller
keeps and update adds each reward to.
"""

import numpy as np

from cad_defense import probabilities, reward, sample_action, update

GAMMA, SIGMA, LAM = 0.07, 1.01, 1.25
rng = np.random.default_rng(7)
scores = [0.0] * 4

# Only the third action (index 2) ever reports success.
print("round   p(a1)   p(a2)   p(a3)   p(a4)")
for t in range(60):
    probs = probabilities(scores, GAMMA, SIGMA)
    if t % 10 == 0:
        print(f"{t:5d}  " + "  ".join(f"{p:.4f}" for p in probs))
    chosen = sample_action(probs, rng)
    bit = int(chosen == 2)
    update(scores, chosen, reward(chosen, chosen, bit, probs[chosen], LAM))
final = probabilities(scores, GAMMA, SIGMA)
print("final  " + "  ".join(f"{p:.4f}" for p in final))
print(f"\nexploration floor gamma/4 = {GAMMA / 4}: min prob {min(final):.4f}")
print(f"winning action: a{int(np.argmax(scores)) + 1} "
      f"(scores {np.round(scores, 2)})")

# When no action ever succeeds, every chosen action is penalized and the
# score vector stays non-positive -- the defence would fall back.
scores = [0.0] * 4
for t in range(40):
    probs = probabilities(scores, GAMMA, SIGMA)
    chosen = sample_action(probs, rng)
    update(scores, chosen, reward(chosen, chosen, 0, probs[chosen], LAM))
print(f"\nall-failure run: max score {max(scores):.2f} <= 0 "
      f"-> greedy fallback")
