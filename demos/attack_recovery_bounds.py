"""
Perturbation families and recovery error budgets
================================================

Each attack family lives in a different norm ball in the spectral domain.
The matching constrained-l1 action absorbs a perturbation of l2 size
epsilon with recovery error at most 2 epsilon (feasible-point argument on
an orthonormal operator); the greedy action has no such certificate but
tracks the same budget empirically.
"""

import numpy as np

from cad_defense import (AttackSpec, L1Problem, SensingOperator, check_bound,
                         cosamp_run, l1_min_orthonormal, make_clean_sparse,
                         perturb)

rng = np.random.default_rng(1)
op = SensingOperator(64)
x = make_clean_sparse(64, 6, rng, amplitude=(1.0, 2.0))

families = [
    AttackSpec(family="l0", tau=4, eta_prime=0.15, seed=10),
    AttackSpec(family="l2", eta=0.3, seed=11),
    AttackSpec(family="linf", eta_dprime=0.04, seed=12),
]

print("family  ||e||_0  ||e||_2   ||e||_inf")
for spec in families:
    e = perturb(x, spec, op).perturbation
    print(f"{spec.family:6s}  {np.count_nonzero(e):5d}  {np.linalg.norm(e):8.4f} "
          f"{np.abs(e).max():10.4f}")

# Recover under an l2 perturbation of known size and compare both actions
# against the 2-epsilon certificate.
print("\nrecovery under an l2 perturbation, certificate err <= 2 eps")
print("   eps    l1 error   greedy error")
for eps in (0.05, 0.1, 0.2, 0.4):
    inst = perturb(x, AttackSpec(family="l2", eta=eps, seed=2), op)
    z = l1_min_orthonormal(L1Problem(observed=inst.observed, op=op, radius=eps))
    g = cosamp_run(inst.observed, op, 6, 10).estimate
    print(f"  {eps:.2f}  {np.linalg.norm(z - x):9.4f}  {np.linalg.norm(g - x):12.4f}")

# The bound report packages the same comparison for harness rows.
inst = perturb(x, AttackSpec(family="l2", eta=0.2, seed=3), op)
z = l1_min_orthonormal(L1Problem(observed=inst.observed, op=op, radius=0.2))
report = check_bound(x, z, 6, budget=0.2)
print(f"\nbound report: err {report.empirical_l2_error:.4f}, "
      f"budget {report.budget}, err/budget {report.ratio:.3f}, "
      f"k-term l1 tail {report.sigma_k_l1:.3e}")
