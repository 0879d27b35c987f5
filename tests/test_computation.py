"""The paper's computation claim, as a count: CAD reaches its answer with
fewer splitting iterations than running every recovery action.

The count is the l1 actions' Douglas-Rachford iterations on a row subset,
built as the sub256 benchmark workload builds its ensemble: 160 of 256 DCT
rows, k = 26, the l2, linf and none families.  On the full operator every
action is a closed form, cheap next to the n x n products both sides pay,
so the claim is about row subsets only.
"""

import dataclasses
import random

import numpy as np

import cad_defense.cad
from cad_defense import (A_L0, A_L2, A_LINF, AttackSpec, CadConfig,
                         FeedbackConfig, L1Problem, SensingOperator,
                         action_radius, cad_run, cosamp_run, l1_min_general,
                         make_clean_compressible, perturb)
from cad_defense.cad import _FINAL_COSAMP_STEPS

# the ensemble: its master seed picks the rows and every instance
SEED = 7
PER_FAMILY = 4
N, ROWS, K = 256, 160, 26
ATTACKS = [{"family": "l2", "eta": 14.0}, {"family": "linf", "eta_dprime": 5.0},
           {"family": "none"}]
FB = {"alpha": 8.0, "beta": 5.0, "m": 1.8, "tau": 15, "theta": 65.0}


def test_cad_runs_fewer_splitting_iterations_than_every_action(monkeypatch):
    # the baseline runs every action once: CoSaMP for the final run's steps,
    # then the three l1 radii, each to certification (or the solver's cap,
    # as CAD's final answer) on one chained state, the cheapest such run
    rows = sorted(random.Random(SEED).sample(range(N), ROWS))
    full, op = SensingOperator(N), SensingOperator(N, rows=rows)
    cfg = CadConfig(k=K, feedback=FeedbackConfig(**FB))
    radii = [action_radius(a, FB["tau"], cfg.eta, cfg.eta_prime, cfg.eta_dprime, N)
             for a in (A_L0, A_L2, A_LINF)]
    cad_iters = []

    def counting(*args, **kwargs):
        result = l1_min_general(*args, **kwargs)
        cad_iters.append(result.iterations)
        return result

    monkeypatch.setattr(cad_defense.cad, "l1_min_general", counting)
    baseline_iters = 0
    for index, entry in enumerate(e for e in ATTACKS for _ in range(PER_FAMILY)):
        rng = np.random.default_rng([SEED, index])
        clean = make_clean_compressible(N, K, rng, (4.5, 7.0), 0.5)
        spec = AttackSpec(seed=int(rng.integers(2 ** 62)), **entry)
        y = perturb(clean, spec, full).observed[op.rows]
        cad_run(y, dataclasses.replace(cfg, seed=int(rng.integers(2 ** 62))), None, op)
        cosamp_run(y, op, K, _FINAL_COSAMP_STEPS)
        state = None
        for radius in radii:
            result = l1_min_general(L1Problem(observed=y, op=op, radius=radius), x0=state)
            baseline_iters += result.iterations
            state = state if result.state is None else result.state
    ratio = sum(cad_iters) / baseline_iters
    print(f"splitting iterations: CAD {sum(cad_iters)}, every action {baseline_iters}, "
          f"ratio {ratio:.3f}")
    assert sum(cad_iters) <= baseline_iters
