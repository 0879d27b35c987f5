"""Sparse recovery actions: CoSaMP and radius-constrained l1 minimization.

Four recovery behaviours are indexed 0..3 throughout the package:

* 0 greedy CoSaMP with sparsity k,
* 1 l1 minimization in a ball of radius tau * eta_prime (sparse attacks),
* 2 l1 minimization in a ball of radius eta (energy-bounded attacks),
* 3 l1 minimization in a ball of radius sqrt(n) * eta_dprime (uniform
  amplitude attacks).

The l1 ball constraint is ||A z - y||_2 <= radius; the closed set makes the
minimum attained.  On the full orthonormal operator this collapses to
soft-thresholding of the analysis coefficients, whose threshold has a
closed form over the sorted coefficient magnitudes.
The general row-subsampled case runs an over-relaxed Douglas-Rachford
splitting loop that validates its inputs once and then applies the
measurement matrix and its transpose directly, in buffers reused across
iterations.  It stops on a duality gap: every few iterations it evaluates a
dual certificate at its feasible point and returns that point once the
certified gap is small.  Its feasibility tolerance is absolute at unit
scale and above and relative to ||y|| below it.

CoSaMP's least-squares fit restricts F y on the full operator.  On a row
subset it solves the normal equations from a Cholesky factor of the
support's Gram matrix, well conditioned under the restricted isometry
property (Needell & Tropp 2009, section 5), and falls back to an SVD-based
np.linalg.lstsq for wide or numerically dependent supports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .transform import SensingOperator, _check_vector, best_k_term_error, top_k

__all__ = [
    "A_COSAMP",
    "A_L0",
    "A_L2",
    "A_LINF",
    "N_ACTIONS",
    "CosampState",
    "cosamp_step",
    "cosamp_run",
    "L1Problem",
    "L1Result",
    "l1_min_orthonormal",
    "l1_min_general",
    "action_radius",
    "BoundReport",
    "check_bound",
]

A_COSAMP, A_L0, A_L2, A_LINF = 0, 1, 2, 3
N_ACTIONS = 4

# the splitting loop evaluates its duality certificate every this many iterations
_GAP_CHECK_PERIOD = 10
# over-relaxation of the splitting update s += lambda (v - z); any value in
# (0, 2) converges (Eckstein & Bertsekas 1992), 1 is plain Douglas-Rachford
_RELAXATION = 1.8
# excess of ||A z - y|| over the radius that still counts as feasible, in
# units of min(1, ||y||)
_FEASIBILITY_TOL = 1e-6
# smallest diagonal entry of a Gram matrix's Cholesky factor, relative to its
# largest, for which CoSaMP solves its least squares from that factor.  Over
# random row subsets of n <= 48, numerically rank-deficient supports kept
# ratios up to 1.5e-6 and well-posed ones went down to 2e-4; a well-posed
# support below the bound only costs an SVD
_GRAM_PIVOT_RATIO = 1e-3


@dataclass
class CosampState:
    """State of the greedy loop: k-sparse estimate and its residual."""

    estimate: np.ndarray
    residual: np.ndarray


def cosamp_step(state: CosampState, y: np.ndarray, op: SensingOperator,
                k: int) -> CosampState:
    """One CoSaMP iteration: identify, merge supports, estimate, prune.

    The signal proxy is A^* v; its top-2k support is merged with the current
    estimate's support, a least-squares fit is solved on the merged support,
    and the fit is pruned back to k terms.  For the full orthonormal operator
    the least-squares fit on any support is just the matching entries of
    A^* y, which is used as a fast path; on a row subset the fit comes from
    _least_squares (a Cholesky Gram solve, lstsq on ill-posed supports).
    """
    proxy = op.adjoint(state.residual)
    order = np.argsort(-np.abs(proxy), kind="stable")
    omega = order[: 2 * k]
    merged = np.union1d(omega, np.flatnonzero(state.estimate))
    b = np.zeros(op.n)
    if op.is_full:
        b[merged] = op.adjoint(y)[merged]
    else:
        b[merged] = _least_squares(op.columns(merged), y)
    estimate = top_k(b, k)
    residual = y - op.synthesize(estimate)
    return CosampState(estimate=estimate, residual=residual)


def _least_squares(sub: np.ndarray, y: np.ndarray) -> np.ndarray:
    """argmin_b ||sub b - y||_2 through the normal equations sub^T sub b = sub^T y.

    The Gram matrix is factored by Cholesky and solved with its two
    triangular factors (through np.linalg.solve: numpy has no triangular
    solver, and scipy stays out of the runtime imports).  np.linalg.lstsq
    (an SVD) answers instead when sub has more columns than rows, when the
    factorization fails, or when the factor's smallest diagonal entry is
    below _GRAM_PIVOT_RATIO of its largest: the columns are then
    numerically dependent, and the normal equations would square that
    conditioning.
    """
    if sub.shape[1] <= sub.shape[0]:
        try:
            factor = np.linalg.cholesky(sub.T @ sub)
        except np.linalg.LinAlgError:
            pass
        else:
            pivots = np.diagonal(factor)
            if pivots.min() >= _GRAM_PIVOT_RATIO * pivots.max():
                return np.linalg.solve(factor.T, np.linalg.solve(factor, sub.T @ y))
    sol, *_ = np.linalg.lstsq(sub, y, rcond=None)
    return sol


def cosamp_run(y: np.ndarray, op: SensingOperator, k: int, n_iters: int,
               x0: np.ndarray | None = None) -> CosampState:
    """The state n_iters CoSaMP steps from x0 (zero start by default) reach.

    A step is a function of its state's estimate and residual bytes alone,
    so once a step reproduces both, every later one would too: the run
    stops there and returns that state.
    """
    if not 0 < k <= op.n:
        raise ValueError(f"need 0 < k <= {op.n}, got k={k}")
    if n_iters < 0:
        raise ValueError(f"n_iters must be >= 0, got {n_iters}")
    y = np.asarray(y, dtype=np.float64)
    if x0 is None:
        est = np.zeros(op.n)
    else:
        est = top_k(np.asarray(x0, dtype=np.float64), k)
    state = CosampState(estimate=est, residual=y - op.synthesize(est))
    for _ in range(n_iters):
        step = cosamp_step(state, y, op, k)
        if (step.estimate.tobytes() == state.estimate.tobytes()
                and step.residual.tobytes() == state.residual.tobytes()):
            break
        state = step
    return state


@dataclass
class L1Problem:
    """min ||z||_1 subject to ||A z - y||_2 <= radius.

    tolerance is the relative duality gap at which l1_min_general stops: a
    returned z with gap <= tolerance * ||z||_1 is within that fraction of
    the optimal objective.  max_iters caps its iterations.
    """

    observed: np.ndarray
    op: SensingOperator
    radius: float
    tolerance: float = 1e-4
    max_iters: int = 5000

    def __post_init__(self):
        if self.radius < 0:
            raise ValueError(f"radius must be >= 0, got {self.radius}")


@dataclass
class L1Result:
    """General-solver output with convergence diagnostics.

    feasibility_gap is max(0, ||A coeffs - y|| - radius) and duality_gap the
    certified bound on ||coeffs||_1 minus the optimum; converged means the
    first is at most 1e-6 * min(1, ||y||) and the second at most
    tolerance * ||coeffs||_1.
    """

    coeffs: np.ndarray
    iterations: int
    converged: bool
    feasibility_gap: float
    duality_gap: float


def l1_min_orthonormal(p: L1Problem, *, coeffs: np.ndarray | None = None) -> np.ndarray:
    """Exact solution on the full operator via a sort-based soft threshold.

    With orthonormal A, ||A z - y||_2 = ||z - c||_2 for c = F y, so the
    minimizer is the soft-threshold of c whose total shrinkage has l2 norm
    equal to the radius.  g(t)^2 = || min(t, |c|) ||_2^2 is continuous,
    nondecreasing and quadratic between the sorted magnitudes |c|; the
    threshold solves that quadratic on the first segment where g reaches
    the radius (the l1-ball projection of Duchi et al. 2008).

    coeffs may pass the caller's F y of p.observed, which then is not
    recomputed; it is rejected with ValueError on a row-subsampled operator,
    at the wrong length, or with non-finite entries.
    """
    if not p.op.is_full:
        raise ValueError("orthonormal path requires the full operator")
    if coeffs is None:
        c = p.op.analyze(p.observed)
    else:
        c = _check_vector(coeffs, p.op.n, "cached coefficients").copy()
    if p.radius == 0.0:
        return c
    absc = np.abs(c)
    if p.radius >= np.linalg.norm(c):
        return np.zeros_like(c)
    knots = np.sort(absc)
    sq = knots * knots
    below = np.concatenate(([0.0], np.cumsum(sq[:-1])))  # squares under knot j
    above = np.arange(knots.size, 0, -1)  # entries at or above knot j
    r2 = p.radius * p.radius
    # rounding can leave g(max |c|)^2 short of r2 when the radius is within
    # an ulp of ||c||; the last segment then holds the threshold
    j = min(int(np.searchsorted(below + above * sq, r2)), knots.size - 1)
    thr = math.sqrt((r2 - below[j]) / above[j])
    return np.sign(c) * np.maximum(absc - thr, 0.0)


def _certify(v: np.ndarray, y: np.ndarray, a: np.ndarray, radius: float,
             tolerance: float, s: np.ndarray, step: float,
             feasibility_tol: float) -> tuple[bool, float, float]:
    """Whether v is certified, its feasibility gap, and its duality gap.

    The rows of a are orthonormal, so for w = y - a v the dual point
    u = w / ||a^T w||_inf has ||a^T u||_inf <= 1, and every feasible z has
    ||z||_1 >= max(0, <u, y> - radius ||u||) (u = 0 gives the 0).  At
    radius 0 that w is rounding noise, so the dual point comes instead from
    the subgradient g = clip(s / step, -1, 1) of the l1 prox at s with that
    step: u = a g / max(1, ||a^T a g||_inf), bound max(0, <u, y>); weak
    duality holds for any g.  The gap is ||v||_1 minus the bound; v is
    certified when it lies within feasibility_tol of the ball and its gap
    is at most tolerance * ||v||_1.
    """
    w = y - a @ v
    feasibility = max(0.0, math.sqrt(w.dot(w)) - radius)
    l1 = float(np.abs(v).sum())
    if radius == 0.0:
        u = a @ np.clip(s / step, -1.0, 1.0)
        u /= max(1.0, float(np.abs(a.T @ u).max()))
        bound = max(0.0, float(u.dot(y)))
    else:
        scale = float(np.abs(a.T @ w).max())
        bound = 0.0
        if scale > 0.0:
            u = w / scale
            bound = max(0.0, float(u.dot(y)) - radius * math.sqrt(u.dot(u)))
    gap = l1 - bound
    return (feasibility <= feasibility_tol and gap <= tolerance * l1,
            feasibility, gap)


def l1_min_general(p: L1Problem, x0: np.ndarray | None = None) -> L1Result:
    """Operator-splitting solver for arbitrary row subsets.

    Douglas-Rachford alternation between the l1 proximal map (soft
    threshold) and exact projection onto the measurement ball; the rows of
    a subsampled orthonormal operator stay orthonormal, which makes the
    ball projection closed-form.  The update s += _RELAXATION * (v - z) is
    over-relaxed (Eckstein & Bertsekas 1992), which converges for any
    relaxation in (0, 2) and takes fewer iterations than the plain
    s += v - z.  Every _GAP_CHECK_PERIOD iterations the projected point v,
    feasible by construction, is certified (_certify): once its duality gap
    is at most p.tolerance * ||v||_1 the solver stops and returns v as
    converged.  A run that reaches max_iters returns its last prox output
    z, flagged converged only if z passes the same certificate.  When zero
    itself lies within the feasibility tolerance of the ball it is returned
    at once, converged with a zero gap.  That tolerance is _FEASIBILITY_TOL
    * min(1, ||y||): absolute at unit scale and above, relative below it,
    so a problem scaled below unit scale is solved as at unit scale.

    y and x0 are validated once, on entry; the loop then applies op.matrix
    and its transpose directly, in reused buffers.  A run that reaches its
    cap validates its final iterate, so a non-finite one raises there.
    """
    y = np.asarray(p.observed, dtype=np.float64)
    norm_y = float(np.linalg.norm(y))
    feasibility_tol = _FEASIBILITY_TOL * min(1.0, norm_y)
    # zero is the exact l1 minimiser once it lies within that tolerance of
    # the ball; solving instead would certify a rounding-level iterate
    # against a rounding-level dual bound
    excess = norm_y - p.radius
    if excess <= feasibility_tol:
        return L1Result(np.zeros(p.op.n), 0, True, max(0.0, excess), 0.0)
    back = p.op.adjoint(y)
    # prox step length: a fraction of the largest back-projected magnitude
    step = 0.1 * float(np.abs(back).max())
    if step <= 0.0:
        step = 1.0
    s = back if x0 is None else _check_vector(x0, p.op.n, "coefficients").copy()
    a, radius, tol = p.op.matrix, p.radius, p.tolerance
    z, v, t = np.zeros(p.op.n), np.empty(p.op.n), np.empty(p.op.n)
    r = np.empty(p.op.m)
    it = 0
    for it in range(1, p.max_iters + 1):
        # z = sign(s) * max(|s| - step, 0)
        np.maximum(np.subtract(np.abs(s, out=t), step, out=t), 0.0, out=t)
        np.multiply(np.sign(s, out=z), t, out=z)
        # v = 2 z - s, projected onto ||A v - y|| <= radius (exact: A A^* = I)
        np.subtract(np.multiply(z, 2.0, out=v), s, out=v)
        np.subtract(np.matmul(a, v, out=r), y, out=r)
        nw = math.sqrt(r.dot(r))
        if nw > radius:
            scale = 1.0 if radius == 0.0 else 1.0 - radius / nw
            np.subtract(v, np.matmul(a.T, np.multiply(r, scale, out=r), out=t), out=v)
        if it % _GAP_CHECK_PERIOD == 0:
            certified, feasibility, gap = _certify(v, y, a, radius, tol, s, step,
                                                   feasibility_tol)
            if certified:
                return L1Result(v, it, True, feasibility, gap)
        # s += lambda (v - z)
        np.add(s, np.multiply(np.subtract(v, z, out=t), _RELAXATION, out=t), out=s)
    z = _check_vector(z, p.op.n, "coefficients")
    certified, feasibility, gap = _certify(z, y, a, radius, tol, s, step,
                                           feasibility_tol)
    return L1Result(coeffs=z, iterations=it, converged=certified,
                    feasibility_gap=feasibility, duality_gap=gap)


def action_radius(action: int, tau: int, eta: float, eta_prime: float,
                  eta_dprime: float, n: int) -> float:
    """Constraint radius each l1 action assumes for its attack family.

    Action 1 budgets a tau-sparse attack at per-entry level eta_prime, so
    its worst-case l2 energy is tau * eta_prime.  Action 2 uses the l2
    budget eta directly.  Action 3 budgets a dense attack at amplitude
    eta_dprime, worst case sqrt(n) * eta_dprime.
    """
    if action == A_L0:
        return float(tau * eta_prime)
    if action == A_L2:
        return float(eta)
    if action == A_LINF:
        return float(math.sqrt(n) * eta_dprime)
    raise ValueError(f"no constraint radius for action {action}")


@dataclass
class BoundReport:
    """Observed recovery error against the attack budget it should track."""

    empirical_l2_error: float
    empirical_l1_error: float
    budget: float
    sigma_k_l1: float
    ratio: float | None


def check_bound(clean: np.ndarray, recovered: np.ndarray, k: int,
                budget: float) -> BoundReport:
    """Report recovery errors, the clean k-term l1 tail, and error/budget."""
    clean = np.asarray(clean, dtype=np.float64)
    recovered = np.asarray(recovered, dtype=np.float64)
    if clean.shape != recovered.shape:
        raise ValueError("clean and recovered must have matching shapes")
    if budget < 0:
        raise ValueError(f"budget must be >= 0, got {budget}")
    diff = recovered - clean
    l2 = float(np.linalg.norm(diff))
    l1 = float(np.abs(diff).sum())
    ratio = l2 / budget if budget > 0 else None
    return BoundReport(empirical_l2_error=l2, empirical_l1_error=l1,
                       budget=float(budget),
                       sigma_k_l1=best_k_term_error(clean, k), ratio=ratio)
