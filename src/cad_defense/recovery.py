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
operator's Gram matrix P = A^T A once per iteration, in buffers reused
across iterations: n^2 multiply-adds against the 2 m n of A then A^T, a
saving once m > n / 2 (every benchmarked row subset keeps 160 of 256 rows).
It stops on a duality gap: every few iterations it evaluates a dual
certificate at its feasible point and returns that point once the
certified gap is small.  At a radius > 0 the certificate is read off the
iteration's own product with P, whose residual is a multiple of the
feasible point's, so a certified solve of N iterations applies P N times;
at radius 0, and at the iteration cap, it is evaluated through P and A^T y
(_certify).  The solver reads no other form of the operator.  Its
feasibility tolerance is absolute at unit scale and above and relative to
||y|| below it; below ||y|| near 1e-154 squares of its entries underflow,
and its gaps carry absolute errors (see l1_min_general).

CoSaMP's least-squares fit restricts F y on the full operator, so a cold
run there lands on its fixed point top_k(F y) in one step and returns that
point directly.  On a row subset the fit solves the normal equations, read
off P and A^T y (computed once per run), well conditioned under the
restricted isometry property (Needell & Tropp 2009, section 5); a Cholesky
factorization tests that conditioning, and an SVD-based np.linalg.lstsq
answers wide or numerically dependent supports.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .transform import (SensingOperator, _check_vector, _is_number, _largest,
                        best_k_term_error, residual, top_k)

__all__ = [
    "A_COSAMP",
    "A_L0",
    "A_L2",
    "A_LINF",
    "N_ACTIONS",
    "CosampState",
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
# prox step length as a fraction of max |A^T y|, probed at that relaxation:
# in sub256 defence runs 0.14 takes 12-16% fewer iterations than 0.1 and
# about 1% more than 0.15, the best of a 0.1-0.3 grid on most seeds; from
# 0.15 up the relaxation saves under a fifth of the plain loop's
# iterations on energy-bounded problems
_STEP_FRACTION = 0.14
# excess of ||A z - y|| over the radius that still counts as feasible, in
# units of min(1, ||y||)
_FEASIBILITY_TOL = 1e-6
# smallest diagonal entry of a Gram matrix's Cholesky factor, relative to its
# largest, for which CoSaMP solves its least squares from that factor.
# Contiguous blocks pass small bounds while ill-posed (rows and frequencies
# 0-8 of n = 16: ratio 1.5e-3, cond(A_S) 1.2e6).  Over 319 102 fits on row
# blocks of n <= 24 with supports near a block, a bound of 1e-3 left 941
# fits more than 1e-7 ||y|| above lstsq's residual (worst 0.44 ||y||), 0.1
# none (worst 7e-8) and 0.3 none (worst 2.5e-12).  Every fit of the sub256
# benchmark on seeds 7, 1009 and 3 has a ratio of at least 0.52; a
# well-posed support below the bound only costs an SVD
_GRAM_PIVOT_RATIO = 0.3


@dataclass
class CosampState:
    """State of the greedy loop: k-sparse estimate and its residual."""

    estimate: np.ndarray
    residual: np.ndarray


def _least_squares(op: SensingOperator, support: np.ndarray, y: np.ndarray,
                   back: np.ndarray) -> np.ndarray:
    """argmin_b ||A[:, S] b - y||_2 over the support S, through the normal
    equations P[S, S] b = back[S], with P = op.gram and back = A^T y.

    Both sides are gathered, so a fit costs an |S|-by-|S| solve and no
    product with A.  A Cholesky factorization of P[S, S] tests its
    conditioning: np.linalg.lstsq (an SVD) on A[:, S] answers instead when S
    has more entries than A has rows, when the factorization fails, or when
    the factor's smallest diagonal entry is below _GRAM_PIVOT_RATIO of its
    largest: the columns are then numerically dependent, and the normal
    equations would square that conditioning.
    """
    if support.size <= op.m:
        gram = op.gram.take(support, 0).take(support, 1)
        try:
            pivots = np.diagonal(np.linalg.cholesky(gram))
        except np.linalg.LinAlgError:
            pass
        else:
            if pivots.min() >= _GRAM_PIVOT_RATIO * pivots.max():
                return np.linalg.solve(gram, back[support])
    sol, *_ = np.linalg.lstsq(op.columns(support), y, rcond=None)
    return sol


def cosamp_run(y: np.ndarray, op: SensingOperator, k: int, n_iters: int,
               x0: np.ndarray | None = None) -> CosampState:
    """The state n_iters CoSaMP steps from x0 (zero start by default) reach.

    A step merges the top 2k entries of the proxy A^* r, for the residual
    r, with the estimate's support, fits least squares on the merged
    support and prunes the fit back to k terms.  On the full orthonormal
    operator the fit is the matching entries of A^* y; on a row subset it
    comes from _least_squares (a Gram solve, lstsq on ill-posed supports).
    A state's residual is residual(y, estimate, op), the product over the
    estimate's support.

    So a step is a function of its state's estimate bytes alone: once a
    step reproduces the estimate, every later one would too, and the run
    returns that state there, without forming the residual again.  Its fit
    is a function of the merged support alone, so a step that merges the
    support its state was fitted on would reproduce that state: the run
    returns it before the fit.  On the full operator a cold run (x0 None,
    n_iters >= 1) returns its fixed point top_k(A^* y) directly: the first
    step reaches it, as its fit restricts A^* y.  y must be a finite vector
    of length op.m: the adjoint that reads it raises ValueError otherwise.
    """
    if not 0 < k <= op.n:
        raise ValueError(f"need 0 < k <= {op.n}, got k={k}")
    if n_iters < 0:
        raise ValueError(f"n_iters must be >= 0, got {n_iters}")
    back = op.adjoint(y)
    if x0 is None and op.is_full and n_iters:
        est = top_k(back, k)
        return CosampState(estimate=est, residual=residual(y, est, op))
    # a zero start's residual is y itself: y - (+0.0) keeps y's bytes
    est = np.zeros(op.n) if x0 is None else top_k(np.asarray(x0, dtype=np.float64), k)
    state = CosampState(estimate=est, residual=residual(y, est, op))
    fitted = None  # the merged support the state was fitted on
    for _ in range(n_iters):
        merged = _largest(op.adjoint(state.residual), 2 * k)
        merged |= state.estimate != 0.0
        if fitted is not None and merged.tobytes() == fitted.tobytes():
            break
        support = np.flatnonzero(merged)
        b = np.zeros(op.n)
        b[support] = back[support] if op.is_full else _least_squares(op, support, y, back)
        estimate = top_k(b, k)
        if estimate.tobytes() == state.estimate.tobytes():
            break
        state = CosampState(estimate=estimate, residual=residual(y, estimate, op))
        fitted = merged
    return state


@dataclass(frozen=True)
class L1Problem:
    """min ||z||_1 subject to ||A z - y||_2 <= radius.

    tolerance is the relative duality gap at which l1_min_general stops: a
    returned z with gap <= tolerance * ||z||_1 is within that fraction of
    the optimal objective.  max_iters caps its iterations.  radius must be
    >= 0 (inf makes zero the minimiser), tolerance finite and >= 0, and
    max_iters an integer >= 1; anything else, NaN included, raises
    ValueError.  The problem is frozen, so the checks hold for its life
    (dataclasses.replace makes a checked copy).
    """

    observed: np.ndarray
    op: SensingOperator
    radius: float
    tolerance: float = 1e-4
    max_iters: int = 5000

    def __post_init__(self):
        # stated as what must hold, so that a NaN fails it
        if not (_is_number(self.radius) and self.radius >= 0):
            raise ValueError(f"radius must be >= 0, got {self.radius!r}")
        if not (_is_number(self.tolerance) and 0 <= self.tolerance < math.inf):
            raise ValueError(f"tolerance must be a finite number >= 0, got {self.tolerance!r}")
        if not (_is_number(self.max_iters, numbers.Integral) and self.max_iters >= 1):
            raise ValueError(f"max_iters must be an integer >= 1, got {self.max_iters!r}")


@dataclass
class L1Result:
    """General-solver output with convergence diagnostics.

    feasibility_gap is max(0, ||A coeffs - y|| - radius) and duality_gap the
    certified bound on ||coeffs||_1 minus the optimum; converged means the
    first is at most 1e-6 * min(1, ||y||) and the second at most
    tolerance * ||coeffs||_1.  state is the splitting variable s at return,
    from which a later solve (x0=state) continues exactly where this one
    stopped; it is None when zero lay within the ball and the solver
    returned at once.
    """

    coeffs: np.ndarray
    iterations: int
    converged: bool
    feasibility_gap: float
    duality_gap: float
    state: np.ndarray | None = None


def l1_min_orthonormal(p: L1Problem) -> np.ndarray:
    """Exact solution on the full operator via a sort-based soft threshold.

    With orthonormal A, ||A z - y||_2 = ||z - c||_2 for c = F y, so the
    minimizer is the soft-threshold of c whose total shrinkage has l2 norm
    equal to the radius.  g(t)^2 = || min(t, |c|) ||_2^2 is continuous,
    nondecreasing and quadratic between the sorted magnitudes |c|; the
    threshold solves that quadratic on the first segment where g reaches
    the radius (the l1-ball projection of Duchi et al. 2008).  The solve is
    _threshold_table(c) followed by _soft_threshold at p.radius, so a
    caller solving several radii for one c builds the table, and its one
    sort, once.
    """
    if not p.op.is_full:
        raise ValueError("orthonormal path requires the full operator")
    return _soft_threshold(_threshold_table(p.op.analyze(p.observed)), p.radius)


class _ThresholdTable(NamedTuple):
    """The radius-free part of l1_min_orthonormal's closed form for one c.

    With the knots |c| in ascending order, below[j] sums the squares under
    knot j, above[j] counts the entries at or above it, and reach[j] =
    below[j] + above[j] * knot_j^2 is g(knot_j)^2.
    """

    coeffs: np.ndarray
    magnitudes: np.ndarray
    signs: np.ndarray
    norm: float
    below: np.ndarray
    above: np.ndarray
    reach: np.ndarray


def _threshold_table(c: np.ndarray) -> _ThresholdTable:
    """The table of c, its knots np.sort(|c|)."""
    absc = np.abs(c)
    knots = np.sort(absc)
    sq = knots * knots
    below = np.concatenate(([0.0], np.cumsum(sq[:-1])))  # squares under knot j
    above = np.arange(knots.size, 0, -1)  # entries at or above knot j
    return _ThresholdTable(c, absc, np.sign(c), np.linalg.norm(c), below, above,
                           below + above * sq)


def _soft_threshold(table: _ThresholdTable, radius: float) -> np.ndarray:
    """l1_min_orthonormal's answer at a radius >= 0, read off the table;
    never the table's own coefficient array."""
    if radius == 0.0:
        return table.coeffs.copy()
    if radius >= table.norm:
        return np.zeros_like(table.coeffs)
    r2 = radius * radius
    # rounding can leave g(max |c|)^2 short of r2 when the radius is within
    # an ulp of ||c||; the last segment then holds the threshold
    j = min(int(np.searchsorted(table.reach, r2)), table.reach.size - 1)
    thr = math.sqrt((r2 - table.below[j]) / table.above[j])
    return table.signs * np.maximum(table.magnitudes - thr, 0.0)


def _certify(x: np.ndarray, back: np.ndarray, gram: np.ndarray, radius: float,
             tolerance: float, s: np.ndarray, step: float,
             feasibility_tol: float) -> tuple[bool, float, float]:
    """Whether x is certified, its feasibility gap, and its duality gap,
    read through the Gram matrix P = A^T A (gram) and back = A^T y.

    As A A^T = I, r = P x - A^T y = A^T (A x - y) has the norm of A x - y,
    and for w = y - A x, A^T w = -r and <w, y> = -<r, A^T y>.  So the dual
    point u = w / ||A^T w||_inf, with ||A^T u||_inf <= 1, shows that every
    feasible z has ||z||_1 >= max(0, (-<r, A^T y> - radius ||r||) /
    ||r||_inf) (u = 0 gives the 0): _read_certificate with c = 0.  At
    radius 0 that r is rounding noise, so the dual point comes instead from
    the subgradient q = clip(s / step, -1, 1) of the l1 prox at s with that
    step: u = A q / max(1, ||P q||_inf), bound max(0, <q, A^T y> / max(1,
    ||P q||_inf)); weak duality holds for any q.  The gap is ||x||_1 minus
    the bound; x is certified when it lies within feasibility_tol of the
    ball and its gap is at most tolerance * ||x||_1.
    """
    # P is symmetric; its transpose is the view the splitting loop applies
    r = gram.T.dot(x) - back
    norm_r = math.sqrt(r.dot(r))
    if radius != 0.0:
        return _read_certificate(x, float(r.dot(back)), float(np.abs(r).max()), norm_r,
                                 0.0, radius, tolerance, feasibility_tol)
    q = np.clip(s / step, -1.0, 1.0)
    bound = max(0.0, float(q.dot(back)) / max(1.0, float(np.abs(gram.T.dot(q)).max())))
    l1 = float(np.abs(x).sum())
    return norm_r <= feasibility_tol and l1 - bound <= tolerance * l1, norm_r, l1 - bound


def _read_certificate(x: np.ndarray, gb: float, gmax: float, nw: float, c: float,
                      radius: float, tolerance: float,
                      feasibility_tol: float) -> tuple[bool, float, float]:
    """_certify's answer at a radius > 0 for x = v - c g, read off
    g = P v - A^T y: gb = <g, A^T y>, gmax = ||g||_inf and nw = ||g||.

    As A A^T = I, P g = g, so the residual P x - A^T y of x is (1 - c) g,
    and for c < 1 the factor 1 - c cancels from _certify's bound: the
    feasibility gap is max(0, (1 - c) nw - radius) and the bound
    max(0, (-gb - radius nw) / gmax), 0 when g = 0.  The splitting loop
    reads its certificate here, with no product with P.
    """
    feasibility = max(0.0, (1.0 - c) * nw - radius)
    l1 = float(np.abs(x).sum())
    gap = l1 - (max(0.0, (-gb - radius * nw) / gmax) if gmax > 0.0 else 0.0)
    return feasibility <= feasibility_tol and gap <= tolerance * l1, feasibility, gap


def l1_min_general(p: L1Problem, x0: np.ndarray | None = None) -> L1Result:
    """Operator-splitting solver for arbitrary row subsets.

    Douglas-Rachford alternation between the l1 proximal map (soft
    threshold) and exact projection onto the measurement ball; the rows of
    a subsampled orthonormal operator stay orthonormal, which makes the
    ball projection closed-form.  With t = clip(s, -step, step), the prox
    output is z = s - t and the reflected point v = 2 z - s = s - 2 t; the
    iteration forms g = P v - A^T y = A^T (A v - y) with one product with
    the Gram matrix P = op.gram, whose norm is ||A v - y|| (A A^T = I), and
    the projection of v is v - c g, with c = 1 - radius / ||g|| outside the
    ball (1 at radius 0) and 0 inside.  The update s += _RELAXATION * (v - z),
    which is s -= _RELAXATION * (t + c g), is
    over-relaxed (Eckstein & Bertsekas 1992), which converges for any
    relaxation in (0, 2) and takes fewer iterations than the plain
    s += v - z.  Every _GAP_CHECK_PERIOD iterations the projected point v,
    feasible by construction, is certified: once its duality gap is at most
    p.tolerance * ||v||_1 the solver stops and returns v as converged.  At
    a radius > 0 the certificate is read off the unscaled g
    (_read_certificate: the projected point's residual is (1 - c) g, since
    P g = g), so the check spends no product with P; at radius 0 it is
    _certify, which spends two.  A run that reaches max_iters returns its
    last prox output z, flagged converged only if z passes _certify, one
    more product at a radius > 0.  When zero
    itself lies within the feasibility tolerance of the ball it is returned
    at once, converged with a zero gap.  That tolerance is _FEASIBILITY_TOL
    * min(1, ||y||): absolute at unit scale and above, relative below it,
    so a problem scaled by a power of two below unit scale is solved as at
    unit scale, down to ||y|| near 1e-154.  Below that, squares and
    products of its entries round into the subnormal range, each with an
    absolute error of up to 2^-1075, so its gaps carry errors of order
    n 2^-1075 / ||y|| that do not scale with it.

    x0 is the splitting variable s to start from, as L1Result.state hands
    it back (None: the cold start s = A^T y).  The step is
    _STEP_FRACTION * max|A^T y|, a function of y alone, so a state carries
    over unscaled between problems that differ only in radius, and a run
    resumed from a capped run's state repeats the iterations one longer run
    would take, provided the first run's cap is a multiple of
    _GAP_CHECK_PERIOD.

    y and x0 are validated once, on entry (ValueError on a wrong shape or a
    non-finite entry, also when zero would be returned at once); a solve
    that iterates applies the adjoint once, to y, and the loop and its
    certificates then apply only op.gram, in reused buffers, forming the
    projected v only at the certificate checks and z only at the cap.  A run that reaches
    its cap validates its final iterate, so a non-finite one raises there.
    """
    y = _check_vector(p.observed, p.op.m, "measurements")
    if x0 is not None:
        x0 = _check_vector(x0, p.op.n, "coefficients")
    norm_y = float(np.linalg.norm(y))
    feasibility_tol = _FEASIBILITY_TOL * min(1.0, norm_y)
    # zero is the exact l1 minimiser once it lies within that tolerance of
    # the ball; solving instead would certify a rounding-level iterate
    # against a rounding-level dual bound
    excess = norm_y - p.radius
    if excess <= feasibility_tol:
        return L1Result(np.zeros(p.op.n), 0, True, max(0.0, excess), 0.0)
    back = p.op.adjoint(y)
    step = _STEP_FRACTION * float(np.abs(back).max())
    if step <= 0.0:
        step = 1.0
    s = (back if x0 is None else x0).copy()
    gram, radius, tol = p.op.gram, p.radius, p.tolerance
    v, t, g = np.empty(p.op.n), np.empty(p.op.n), np.empty(p.op.n)
    it = 0
    for it in range(1, p.max_iters + 1):
        # t = clip(s, -step, step), so z = s - t is the soft threshold of s
        # (np.clip costs several times the two calls here)
        np.maximum(np.minimum(s, step, out=t), -step, out=t)
        # v = 2 z - s = s - 2 t, and g = P v - A^T y, of norm ||A v - y||.  P
        # is symmetric; OpenBLAS 0.3.31 multiplies its column-major view P^T
        # in 6.4-6.7 us against 7.7-8.6 us for P at n = 256 on a 2-core Xeon
        np.subtract(s, np.add(t, t, out=v), out=v)
        np.subtract(gram.T.dot(v, out=g), back, out=g)
        nw = math.sqrt(g.dot(g))
        projected = nw > radius
        checked = it % _GAP_CHECK_PERIOD == 0
        if checked and radius != 0.0:
            # the certificate of v - c g reads off g before it is scaled
            gb, gmax = float(g.dot(back)), float(np.abs(g).max())
        # g becomes c g, so that v - g is v projected onto the ball
        c = 0.0
        if projected:
            c = 1.0 - radius / nw
            g *= c
        if checked:
            if projected:
                v -= g
            if radius == 0.0:
                certified, feasibility, gap = _certify(v, back, gram, radius, tol, s, step,
                                                       feasibility_tol)
            else:
                certified, feasibility, gap = _read_certificate(v, gb, gmax, nw, c, radius,
                                                                tol, feasibility_tol)
            if certified:
                return L1Result(v, it, True, feasibility, gap, s)
        if it == p.max_iters:
            z = s - t
        # s += lambda (v - z), that is s -= lambda (t + c g)
        if projected:
            t += g
        t *= _RELAXATION
        s -= t
    z = _check_vector(z, p.op.n, "coefficients")
    certified, feasibility, gap = _certify(z, back, gram, radius, tol, s, step,
                                           feasibility_tol)
    return L1Result(coeffs=z, iterations=it, converged=certified,
                    feasibility_gap=feasibility, duality_gap=gap, state=s)


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
    ratio = l2 / budget if budget > 0 else None
    return BoundReport(empirical_l2_error=l2, budget=float(budget),
                       sigma_k_l1=best_k_term_error(clean, k), ratio=ratio)
