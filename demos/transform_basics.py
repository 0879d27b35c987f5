"""
Orthonormal spectral sensing and k-term approximation
=====================================================

The sensing operator maps spectral coefficients to signal samples through
an explicit orthonormal cosine basis.  Orthonormality makes analysis the
exact inverse of synthesis, preserves energy, and turns hard-thresholding
into the best k-term approximation in the l2 sense.
"""

import numpy as np

from cad_defense import (SensingOperator, best_k_term_error,
                         make_clean_compressible, top_k)

rng = np.random.default_rng(0)
op = SensingOperator(64)

# A round trip through the basis is exact to machine precision.
coeffs = rng.standard_normal(64)
signal = op.synthesize(coeffs)
back = op.analyze(signal)
print(f"round-trip error      : {np.abs(back - coeffs).max():.3e}")
print(f"energy ratio          : {np.linalg.norm(signal) / np.linalg.norm(coeffs):.12f}")

# A compressible spectrum has a heavy head and a light tail, so a few
# coefficients carry almost all of the signal.
comp = make_clean_compressible(64, 8, rng, amplitude=(2.0, 4.0), tail_norm=0.5)
energy = float(np.linalg.norm(comp))
print("\nk-term approximation of a compressible spectrum")
for k in (2, 4, 8, 16, 32):
    head = top_k(comp, k)
    rel = np.linalg.norm(comp - head) / energy
    print(f"  k = {k:2d}: kept {np.count_nonzero(head):2d} coefficients, "
          f"relative l2 tail {rel:.4f}, l1 tail {best_k_term_error(comp, k):.4f}")

# Subsampled rows keep their orthonormality, which the general l1 solver
# later exploits for a closed-form feasibility projection.
rows = np.sort(rng.choice(64, size=48, replace=False))
sub = SensingOperator(64, rows=rows)
gram = sub.matrix @ sub.matrix.T
print(f"\nsubsampled rows       : {sub.m} of {op.n}")
print(f"row-gram vs identity  : {np.abs(gram - np.eye(sub.m)).max():.3e}")
