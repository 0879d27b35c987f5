"""Residual feedback predicates, clean-residual statistics, and stopping.

Each loop iteration checks whether the chosen action's residual looks the
way that action's target attack family would leave it.  Norm thresholds
follow the per-dataset tuning convention (see FeedbackConfig), and each
clause has one reading.  The predicates read features of the residual (its
l2 and max norms, its thresholded count and its Mahalanobis distance),
each computed once by the caller, so the bit and the stop rule see the
values the trace records.  The stop rule reads the largest action
probability and the residual's l2 norm, and names the clause that fired.
Clean statistics hold only what they are fitted from, the clean residuals
and a ridge; the distance reads the thin SVD of their deviations, taken
once, so no n x n covariance is ever formed.
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
    """Clean recovery residuals, one per row, and the ridge.

    The mean, the source count N and the factor derive from them.  The
    regularized covariance is C + ridge I, where C = X^T X for the scaled
    deviations X = (residuals - mean) / sqrt(N - 1) has rank at most N - 1.
    """

    residuals: np.ndarray
    ridge: float
    mean: np.ndarray = field(init=False, repr=False)
    _factor: tuple | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        self.residuals = np.asarray(self.residuals, dtype=np.float64)
        if not (self.residuals.ndim == 2 and len(self.residuals) >= 2
                and np.isfinite(self.residuals).all()):
            raise ValueError("clean statistics need a 2-D stack of at least two finite "
                             f"residuals, got shape {self.residuals.shape}")
        # NaN fails the comparison
        if not (_is_number(self.ridge) and 0 <= self.ridge < math.inf):
            raise ValueError(f"ridge must be finite and >= 0, got {self.ridge!r}")
        self.ridge = float(self.ridge)
        self.mean = self.residuals.mean(axis=0)

    @property
    def n(self) -> int:
        return self.residuals.shape[1]

    @property
    def source_count(self) -> int:
        return self.residuals.shape[0]

    def factor(self) -> tuple[np.ndarray, np.ndarray]:
        """Cached (V^T, s^2 + ridge) of the thin SVD X = U S V^T, so that
        C + ridge I = V (S^2 + ridge) V^T + ridge (I - V V^T); at ridge 0 that
        is singular when N - 1 < n or a singular value is zero, which raises
        np.linalg.LinAlgError."""
        if self._factor is None:
            count, n = self.residuals.shape
            x = (self.residuals - self.mean) / math.sqrt(count - 1)
            _, s, vt = np.linalg.svd(x, full_matrices=False)
            scale = s * s + self.ridge
            if self.ridge == 0 and (count - 1 < n or not scale.all()):
                raise np.linalg.LinAlgError(
                    f"the covariance of {count} clean residuals in dimension {n} is "
                    "singular at ridge 0: set a positive ridge")
            self._factor = (vt, scale)
        return self._factor


def thresholded_count(v: np.ndarray, threshold: float) -> int:
    """Number of entries with magnitude strictly above the threshold."""
    return int(np.count_nonzero(np.abs(v) > threshold))


def mahalanobis(v: np.ndarray, stats: CleanStats) -> float:
    """Distance sqrt(d^T (C + ridge I)^{-1} d) of v from the clean mean.

    With d = v - mean and p = V^T d for the cached factor, md^2 =
    sum(p^2 / (s^2 + ridge)) + ||d - V p||^2 / ridge, two products with the
    N x n factor; at ridge 0 the factor spans every dimension and the second
    term is zero.  Raises np.linalg.LinAlgError when C + ridge I is singular.
    """
    v = np.asarray(v, dtype=np.float64)
    if v.shape != stats.mean.shape:
        raise ValueError(f"v must have shape {stats.mean.shape}, got {v.shape}")
    vt, scale = stats.factor()
    d = v - stats.mean
    p = vt @ d
    md2 = float(p @ (p / scale))
    if stats.ridge > 0:
        rest = d - p @ vt
        md2 += float(rest @ rest) / stats.ridge
    return math.sqrt(md2)


def estimate_clean_stats(clean_signals, op: SensingOperator, k: int,
                         n_cosamp: int = 5, ridge: float | None = None) -> CleanStats:
    """Fit residual statistics from greedy recoveries of clean signals.

    Each signal is recovered by n_cosamp CoSaMP steps and the final
    residuals are the statistics' rows.  ridge=None applies the default
    1e-6 * trace(C) / n, the sum of the residuals' sample variances.
    """
    residuals = [cosamp_run(y, op, k, n_cosamp).residual for y in clean_signals]
    stats = CleanStats(np.reshape(residuals, (-1, op.m)), 0.0 if ridge is None else ridge)
    if ridge is None:
        trace = float(np.var(stats.residuals, axis=0, ddof=1).sum())
        stats = CleanStats(stats.residuals, 1e-6 * trace / stats.n)
    return stats


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
    rows or n is no integer, the file does not hold rows x n float64 values,
    or CleanStats rejects them (a ridge that is no number among them)."""
    meta = json.loads(Path(str(path) + ".json").read_text())
    n, rows = meta["n"], meta["rows"]
    buf = np.fromfile(path, dtype="<f8")
    if not (_is_number(n, int) and _is_number(rows, int) and buf.size == rows * n):
        raise ValueError(f"{path}: expected integer rows x n = {rows!r} x {n!r} "
                         f"float64 values, got {buf.size}")
    return CleanStats(buf.reshape(rows, n), meta["ridge"])
