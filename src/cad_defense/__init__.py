"""Compressive-sensing adaptive defence.

A bandit-driven defence that reconstructs a k-sparse spectral
approximation of an observed signal while identifying which structured
perturbation family (if any) produced it.  Four recovery actions compete:
greedy CoSaMP and three radius-constrained l1 programs, each matched to an
attack family's budget; residual feedback rewards the action whose
assumptions fit the data.
"""

from .transform import SensingOperator, best_k_term_error, residual, top_k
from .attacks import (AdversarialInstance, AttackSpec, load_signal_channels,
                      make_clean_compressible, make_clean_sparse, perturb)
from .recovery import (A_COSAMP, A_L0, A_L2, A_LINF, N_ACTIONS, BoundReport,
                       CosampState, L1Problem, L1Result, action_radius,
                       check_bound, cosamp_run, l1_min_general,
                       l1_min_orthonormal)
from .bandit import (penalty_clamped, probabilities, reward, sample_action,
                     update)
from .feedback import (CleanStats, FeedbackConfig, estimate_clean_stats,
                       feedback_bit, load_clean_stats, mahalanobis,
                       save_clean_stats, should_stop, thresholded_count)
from .cad import (ACTION_LABELS, FALLBACK_LABEL, CadConfig,
                  CadIterationRecord, CadOutcome, cad_run)

__version__ = "0.1.0"
