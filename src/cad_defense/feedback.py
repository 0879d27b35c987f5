"""Residual feedback predicates, clean-residual statistics, and stopping.

Each loop iteration checks whether the chosen action's residual looks the
way that action's target attack family would leave it.  Norm thresholds
follow the per-dataset tuning convention: alpha on the residual l2 norm,
m and beta bracketing its max entry, tau bounding the thresholded nonzero
count, and theta bounding the Mahalanobis distance from clean-residual
statistics.  The thresholded count is taken on the transform-domain view
of the residual when the caller supplies one: the sparse attack family is
sparse in that domain, so that is where its leftover support shows up.
The Mahalanobis distance needs only numpy: the regularized covariance is
factored once and its inverse Cholesky factor whitens each residual.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .bandit import ActionDistribution
from .recovery import A_COSAMP, A_L0, A_L2, A_LINF, cosamp_run
from .transform import SensingOperator

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

    a1_precedence picks how the clean check combines its three clauses:
    "or_and" (default) accepts when the residual is small OR it is both
    statistically clean and flat; "and_or" requires flatness always and
    accepts either smallness or statistical cleanness.

    l0_count_gate, when set, additionally requires the dense-attack
    actions (2 and 3) to see a thresholded count above the gate; dense
    perturbations leave residuals with a large number of nonzero entries,
    so a small count there is evidence against those families.
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
    l0_count_gate: int | None = None
    a1_precedence: str = "or_and"

    def __post_init__(self):
        if self.a1_precedence not in ("or_and", "and_or"):
            raise ValueError(f"unknown a1_precedence {self.a1_precedence!r}")
        for name in ("alpha", "beta", "m", "theta", "count_threshold",
                     "delta_prob", "delta_res"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if self.tau < 0 or self.t_max < 1:
            raise ValueError("tau must be >= 0 and t_max >= 1")


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
        run = cosamp_run(np.asarray(y, dtype=np.float64), op, k, n_cosamp)
        residuals.append(run.final.residual)
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


def feedback_bit(action: int, v: np.ndarray, cfg: FeedbackConfig,
                 stats: CleanStats | None = None,
                 v_spec: np.ndarray | None = None,
                 md: float | None = None) -> int:
    """Success bit for the chosen action given its residual.

    v is the measurement-domain residual; v_spec, when given, is its
    transform-domain view and carries the thresholded count (see module
    docstring).  md may pass a precomputed Mahalanobis distance; otherwise
    it is computed from stats on demand.  Without stats the statistical
    clause of the clean check is simply unavailable (evaluates false).
    """
    v = np.asarray(v, dtype=np.float64)
    l2 = float(np.linalg.norm(v))
    linf = float(np.abs(v).max()) if v.size else 0.0
    if action == A_COSAMP:
        small = l2 < cfg.alpha
        flat = linf < cfg.m
        if md is None and stats is not None:
            md = mahalanobis(v, stats)
        clean_md = md is not None and md < cfg.theta
        if cfg.a1_precedence == "or_and":
            return int(small or (clean_md and flat))
        return int((small or clean_md) and flat)
    count_src = v_spec if v_spec is not None else v
    count = thresholded_count(count_src, cfg.count_threshold)
    if action == A_L0:
        return int(l2 > cfg.alpha and count < cfg.tau)
    gate_ok = cfg.l0_count_gate is None or count > cfg.l0_count_gate
    if action == A_L2:
        return int(l2 > cfg.alpha and cfg.m < linf < cfg.beta and gate_ok)
    if action == A_LINF:
        return int(l2 > cfg.alpha and linf > cfg.beta and gate_ok)
    raise ValueError(f"unknown action {action}")


def should_stop(dist: ActionDistribution, v: np.ndarray, cfg: FeedbackConfig) -> int:
    """1 iff some action's probability exceeds delta_prob or the residual
    l2 norm fell below delta_res."""
    return int(dist.max_prob > cfg.delta_prob
               or float(np.linalg.norm(v)) < cfg.delta_res)


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
