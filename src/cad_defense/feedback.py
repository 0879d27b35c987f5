"""Residual feedback predicates, clean-residual statistics, and stopping.

Each loop iteration checks whether the chosen action's residual looks the
way that action's target attack family would leave it.  Norm thresholds
follow the per-dataset tuning convention (see FeedbackConfig), and each
clause has one reading.  The predicates read features of the residual (its
l2 and max norms, its thresholded count and its Mahalanobis distance),
each computed once by the caller, so the bit and the stop rule see the
values the trace records.  The stop rule reads the largest action
probability and the residual's l2 norm, and names the clause that fired.
Clean statistics take their default ridge, mean and the thin SVD of their
deviations when built, so no n x n covariance is ever formed and every
copy of them, a pool worker's unpickled one too, holds the same factor.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .recovery import A_COSAMP, A_L0, A_L2, A_LINF, cosamp_run
# residual stays a feedback name, where the benchmark's tracer wraps it
from .transform import SensingOperator, _is_number, residual  # noqa: F401

__all__ = [
    "FeedbackConfig",
    "CleanStats",
    "thresholded_count",
    "mahalanobis",
    "estimate_clean_stats",
    "feedback_bit",
    "should_stop",
    "save_clean_stats",
    "load_clean_stats",
]


@dataclass(frozen=True)
class FeedbackConfig:
    """Thresholds for the per-action feedback bits and the stop rule.

    alpha bounds the residual l2 norm, m and beta bracket its max entry,
    tau bounds the thresholded count (entries above count_threshold) and
    theta the Mahalanobis distance; delta_prob, delta_res and t_max drive
    the stop rule.  The clean check reads l2 < alpha or (md < theta and
    linf < m): a small residual, or a statistically clean and flat one.
    """

    alpha: float
    beta: float
    m: float
    tau: int
    theta: float
    count_threshold: float = 0.5
    delta_prob: float = 0.8
    delta_res: float = 2.0
    t_max: int = 40

    def __post_init__(self):
        for name in ("alpha", "beta", "m", "theta", "count_threshold",
                     "delta_prob", "delta_res"):
            value = getattr(self, name)
            # NaN fails the comparison; infinity passes, and starves a clause
            if not (_is_number(value) and value >= 0):
                raise ValueError(f"{name} must be a number >= 0, got {value!r}")
        for name, least in (("tau", 0), ("t_max", 1)):
            value = getattr(self, name)
            if not (_is_number(value, numbers.Integral) and value >= least):
                raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")

@dataclass(eq=False)
class CleanStats:
    """Clean recovery residuals, one per row, and the ridge (None: the
    default 1e-6 * trace(C) / n), factored when built.

    C = X^T X for X = (residuals - mean) / sqrt(N - 1) has rank at most
    N - 1.  The thin SVD X = U S V^T gives basis = V^T and scale = s^2 +
    ridge, C + ridge I = V (S^2 + ridge) V^T + ridge (I - V V^T): singular
    at ridge 0 when N - 1 < n or an s is zero, which raises LinAlgError.
    """

    residuals: np.ndarray
    ridge: float | None = None
    mean: np.ndarray = field(init=False, repr=False)
    basis: np.ndarray = field(init=False, repr=False)
    scale: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.residuals = np.asarray(self.residuals, dtype=np.float64)
        if not (self.residuals.ndim == 2 and len(self.residuals) >= 2
                and np.isfinite(self.residuals).all()):
            raise ValueError("clean statistics need a 2-D stack of at least two finite "
                             f"residuals, got shape {self.residuals.shape}")
        count, n = self.residuals.shape
        if self.ridge is None:
            self.ridge = 1e-6 * float(np.var(self.residuals, axis=0, ddof=1).sum()) / n
        # NaN fails the comparison
        if not (_is_number(self.ridge) and 0 <= self.ridge < math.inf):
            raise ValueError(f"ridge must be finite and >= 0, got {self.ridge!r}")
        self.ridge = float(self.ridge)
        self.mean = self.residuals.mean(axis=0)
        x = (self.residuals - self.mean) / math.sqrt(count - 1)
        _, s, self.basis = np.linalg.svd(x, full_matrices=False)
        self.scale = s * s + self.ridge
        if self.ridge == 0 and (count - 1 < n or not self.scale.all()):
            raise np.linalg.LinAlgError(
                f"the covariance of {count} clean residuals in dimension {n} is "
                "singular at ridge 0: set a positive ridge")

    @property
    def n(self) -> int:
        return self.residuals.shape[1]

    @property
    def source_count(self) -> int:
        return self.residuals.shape[0]

    @property
    def condition(self) -> float:
        """cond(C + ridge I), whose eigenvalues are scale and, off the basis's
        span, the ridge."""
        least = self.scale.min() if len(self.scale) == self.n else self.ridge
        return float(self.scale.max() / least)


def thresholded_count(v: np.ndarray, threshold: float) -> int:
    """Number of entries with magnitude strictly above the threshold."""
    return int(np.count_nonzero(np.abs(v) > threshold))


def mahalanobis(v: np.ndarray, stats: CleanStats) -> float:
    """Distance sqrt(d^T (C + ridge I)^{-1} d) of v from the clean mean.

    With d = v - mean and p = V^T d for the statistics' basis, md^2 =
    sum(p^2 / (s^2 + ridge)) + ||d - V p||^2 / ridge, two products with the
    N x n factor; at ridge 0 the factor spans every dimension and the second
    term is zero.
    """
    v = np.asarray(v, dtype=np.float64)
    if v.shape != stats.mean.shape:
        raise ValueError(f"v must have shape {stats.mean.shape}, got {v.shape}")
    d = v - stats.mean
    p = stats.basis @ d
    md2 = float(p @ (p / stats.scale))
    if stats.ridge > 0:
        rest = d - p @ stats.basis
        md2 += float(rest @ rest) / stats.ridge
    return math.sqrt(md2)


def estimate_clean_stats(clean_signals, op: SensingOperator, k: int,
                         n_cosamp: int = 5, ridge: float | None = None) -> CleanStats:
    """Fit residual statistics from greedy recoveries of clean signals.

    Each signal is recovered by n_cosamp CoSaMP steps and the final
    residuals are the statistics' rows; ridge=None is CleanStats's default.
    """
    # the per-signal list is freed before CleanStats factors the stack
    residuals = np.reshape([cosamp_run(y, op, k, n_cosamp).residual
                            for y in clean_signals], (-1, op.m))
    return CleanStats(residuals, ridge)


def feedback_bit(action: int, l2: float, linf: float, count: int,
                 cfg: FeedbackConfig, md: float | None = None) -> int:
    """Success bit for the chosen action given its residual's features.

    l2 and linf are the measurement-domain residual's norms, count its
    thresholded count (entries above cfg.count_threshold) on the
    transform-domain view, and md its Mahalanobis distance from the clean
    statistics, or None when there are none; the clean check (action 1) is
    l2 < alpha or (md < theta and linf < m), its second clause false
    without a distance.
    """
    if action == A_COSAMP:
        return int(l2 < cfg.alpha
                   or (md is not None and md < cfg.theta and linf < cfg.m))
    if action == A_L0:
        return int(l2 > cfg.alpha and count < cfg.tau)
    if action == A_L2:
        return int(l2 > cfg.alpha and cfg.m < linf < cfg.beta)
    if action == A_LINF:
        return int(l2 > cfg.alpha and linf > cfg.beta)
    raise ValueError(f"unknown action {action}")


def should_stop(max_prob: float, l2: float, cfg: FeedbackConfig) -> str | None:
    """The stop clause that holds, or None: "prob" when the largest action
    probability exceeds delta_prob, else "residual" when the residual l2
    norm fell below delta_res."""
    if max_prob > cfg.delta_prob:
        return "prob"
    if l2 < cfg.delta_res:
        return "residual"
    return None


def save_clean_stats(stats: CleanStats, path) -> None:
    """Little-endian float64 residual rows, row-major, plus a JSON sidecar
    {"n", "rows", "ridge"}."""
    stats.residuals.astype("<f8").tofile(path)
    sidecar = {"n": stats.n, "rows": stats.source_count, "ridge": stats.ridge}
    Path(str(path) + ".json").write_text(json.dumps(sidecar))


def load_clean_stats(path) -> CleanStats:
    """Statistics written by save_clean_stats; ValueError when the sidecar's
    rows or n is no integer, its ridge is null or no number, or the file
    does not hold rows x n float64 values."""
    meta = json.loads(Path(str(path) + ".json").read_text())
    n, rows, ridge = meta["n"], meta["rows"], meta["ridge"]
    if ridge is None:
        raise ValueError(f"{path}: the sidecar's ridge must be a number, got null")
    buf = np.fromfile(path, dtype="<f8")
    if not (_is_number(n, int) and _is_number(rows, int) and buf.size == rows * n):
        raise ValueError(f"{path}: expected integer rows x n = {rows!r} x {n!r} "
                         f"float64 values, got {buf.size}")
    return CleanStats(buf.reshape(rows, n), ridge)
