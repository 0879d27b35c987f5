"""Residual feedback predicates, clean-residual statistics, and stopping.

Each loop iteration checks whether the chosen action's residual looks the
way that action's target attack family would leave it.  Norm thresholds
follow the per-dataset tuning convention: alpha on the residual l2 norm,
m and beta bracketing its max entry, tau bounding the thresholded nonzero
count, and theta bounding the Mahalanobis distance from clean-residual
statistics.  Each clause has one reading.  The clean check (action 1)
accepts a residual that is small, or one that is both statistically clean
and flat: l2 < alpha or (md < theta and linf < m), where the distance md
is supplied by the caller and the second clause is false without it.  The
predicates read features of the residual (its l2 and max norms, its
thresholded count and its distance), each computed once by the caller,
so the bit and the stop rule see the values the trace records.  The
Mahalanobis distance needs only numpy: the regularized covariance is
factored once and its inverse Cholesky factor whitens each residual.
"""

from __future__ import annotations

import json
import numbers
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .bandit import ActionDistribution
from .recovery import A_COSAMP, A_L0, A_L2, A_LINF, cosamp_run
from .transform import SensingOperator, _is_number

__all__ = [
    "FeedbackConfig",
    "CleanStats",
    "residual",
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
    """Mean and covariance of clean recovery residuals, plus the ridge.

    The covariance is regularized as C + ridge * I before factorization;
    sample counts near the dimension leave C singular, so a positive
    ridge is required there.
    """

    mean: np.ndarray
    covariance: np.ndarray
    ridge: float
    source_count: int = 0
    _whitening: np.ndarray | None = field(default=None, repr=False, compare=False)

    @property
    def n(self) -> int:
        return self.mean.shape[0]

    def factor(self) -> np.ndarray:
        """Cached whitening matrix W = L^{-1}, where C + ridge * I = L L^T.

        Computed once per stats object: one Cholesky factorization and one
        inverse of the triangular factor.  Non-finite entries raise
        ValueError; a regularized covariance that is not positive definite
        raises np.linalg.LinAlgError naming its first failing leading minor.
        """
        if self._whitening is None:
            reg = np.asarray_chkfinite(self.covariance + self.ridge * np.eye(self.n))
            try:
                chol = np.linalg.cholesky(reg)
            except np.linalg.LinAlgError:
                raise np.linalg.LinAlgError(
                    f"{_first_failing_minor(reg)}-th leading minor of the array "
                    "is not positive definite") from None
            self._whitening = np.linalg.inv(chol)
        return self._whitening


def _first_failing_minor(reg: np.ndarray) -> int:
    """Order of the smallest leading block of reg that does not factor.

    Only called once reg itself failed.  A block that fails makes every
    larger one fail, so bisection needs O(log n) factorizations.
    """
    ok, bad = 0, reg.shape[0]
    while bad - ok > 1:
        mid = (ok + bad) // 2
        try:
            np.linalg.cholesky(reg[:mid, :mid])
            ok = mid
        except np.linalg.LinAlgError:
            bad = mid
    return bad


def residual(y: np.ndarray, estimate: np.ndarray, op: SensingOperator) -> np.ndarray:
    """Measurement-domain residual y - A xhat."""
    y = np.asarray(y, dtype=np.float64)
    if y.shape != (op.m,):
        raise ValueError(f"y must have shape ({op.m},), got {y.shape}")
    return y - op.synthesize(estimate)


def thresholded_count(v: np.ndarray, threshold: float) -> int:
    """Number of entries with magnitude strictly above the threshold."""
    return int(np.count_nonzero(np.abs(v) > threshold))


def mahalanobis(v: np.ndarray, stats: CleanStats) -> float:
    """Distance sqrt((v - mean)^T (C + ridge I)^{-1} (v - mean)).

    With C + ridge I = L L^T this is ||W (v - mean)||_2 for the cached
    whitening matrix W = L^{-1}: one matrix-vector product per call.
    Raises np.linalg.LinAlgError naming the offending leading minor when
    C + ridge I is not positive definite.
    """
    v = np.asarray(v, dtype=np.float64)
    if v.shape != stats.mean.shape:
        raise ValueError(f"v must have shape {stats.mean.shape}, got {v.shape}")
    return float(np.linalg.norm(stats.factor() @ (v - stats.mean)))


def estimate_clean_stats(clean_signals, op: SensingOperator, k: int,
                         n_cosamp: int = 5, ridge: float | None = None) -> CleanStats:
    """Fit residual statistics from greedy recoveries of clean signals.

    Each signal is recovered by n_cosamp CoSaMP steps and the final
    residuals feed a sample mean and covariance.  ridge=None applies the
    default 1e-6 * trace(C) / n.
    """
    residuals = []
    for y in clean_signals:
        residuals.append(cosamp_run(np.asarray(y, dtype=np.float64), op, k,
                                    n_cosamp).residual)
    if len(residuals) < 2:
        raise ValueError("need at least two clean signals for a covariance")
    stack = np.vstack(residuals)
    mean = stack.mean(axis=0)
    cov = np.cov(stack, rowvar=False, ddof=1)
    cov = np.atleast_2d(cov)
    if ridge is None:
        ridge = 1e-6 * float(np.trace(cov)) / op.m
    if ridge < 0:
        raise ValueError(f"ridge must be >= 0, got {ridge}")
    return CleanStats(mean=mean, covariance=cov, ridge=float(ridge),
                      source_count=len(residuals))


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


def should_stop(dist: ActionDistribution, l2: float, cfg: FeedbackConfig) -> int:
    """1 iff some action's probability exceeds delta_prob or the residual
    l2 norm fell below delta_res."""
    return int(dist.max_prob > cfg.delta_prob or l2 < cfg.delta_res)


def save_clean_stats(stats: CleanStats, path) -> None:
    """Little-endian float64 mean then row-major covariance, plus sidecar."""
    path = Path(path)
    buf = np.concatenate([stats.mean, stats.covariance.reshape(-1)])
    buf.astype("<f8").tofile(path)
    sidecar = {"n": stats.n, "ridge": stats.ridge, "source_count": stats.source_count}
    Path(str(path) + ".json").write_text(json.dumps(sidecar))


def load_clean_stats(path) -> CleanStats:
    path = Path(path)
    meta = json.loads(Path(str(path) + ".json").read_text())
    n = int(meta["n"])
    buf = np.fromfile(path, dtype="<f8")
    if buf.size != n + n * n:
        raise ValueError(f"{path}: expected {n + n * n} float64 values, got {buf.size}")
    return CleanStats(mean=buf[:n], covariance=buf[n:].reshape(n, n),
                      ridge=float(meta["ridge"]), source_count=int(meta["source_count"]))
