"""Acceptance suite: one test per shipped guarantee.

Each test evaluates its criterion end to end, prints a single
"criterion N: PASS/FAIL" line with the measured figures, and asserts.
Tolerances are stated inline next to each check.
"""

import json
import math
import time

import mpmath as mp
import numpy as np
import pytest

from cad_defense import (A_L0, A_L2, A_LINF, AttackSpec, CadConfig,
                         FeedbackConfig, L1Problem, SensingOperator,
                         action_radius, cad_run, cosamp_run, l1_min_general,
                         l1_min_orthonormal, make_clean_sparse, perturb,
                         probabilities, reward, sample_action)
from cad_defense.harness import ExperimentConfig, cmd_gen, cmd_run

cp = pytest.importorskip("cvxpy")

MNIST_FB = {"alpha": 8.0, "beta": 5.0, "m": 1.8, "tau": 15, "theta": 65.0}


def _verdict(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"criterion {num}: {detail}"


# ---------------------------------------------------------------------------
# 1. exact sparse recovery with zero perturbation


def test_criterion_1_exact_recovery():
    cases = [(64, None, 150, SensingOperator(64)),
             (784, 80, 50, SensingOperator(784))]
    worst = 0.0
    checked = 0
    t0 = time.perf_counter()
    for n, fixed_k, count, op in cases:
        for i in range(count):
            rng = np.random.default_rng([100, n, i])
            k = fixed_k if fixed_k else int(rng.integers(1, 9))
            x = make_clean_sparse(n, k, rng)
            y = op.synthesize(x)
            scale = float(np.linalg.norm(x))
            greedy = cosamp_run(y, op, k, 10).estimate
            # a radius of zero makes the three l1 actions the same problem
            pursuit = l1_min_orthonormal(L1Problem(observed=y, op=op, radius=0.0))
            for est in (greedy, pursuit):
                worst = max(worst, float(np.linalg.norm(est - x)) / scale)
            checked += 1
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-8 and elapsed <= 5.0 and checked == 200
    _verdict(1, ok, f"{checked} instances, worst rel l2 err {worst:.2e} "
                    f"(tol 1e-8), {elapsed:.2f}s (limit 5s)")


# ---------------------------------------------------------------------------
# 2. l1 solvers against an interior-point oracle


def _oracle_objective(A, y, radius):
    z = cp.Variable(A.shape[1])
    prob = cp.Problem(cp.Minimize(cp.norm1(z)), [cp.norm2(A @ z - y) <= radius])
    prob.solve(solver=cp.CLARABEL)
    return float(prob.value)


def test_criterion_2_l1_oracle_equivalence():
    rng = np.random.default_rng(101)
    cases = []
    for n in (4, 8, 12, 16):
        for _ in range(25):
            c = rng.normal(0.0, 2.0, size=n)
            radius = float(rng.uniform(0.05, 0.9) * np.linalg.norm(c))
            cases.append((n, c, radius))
    corners = [
        (4, np.array([2.0, -2.0, 2.0, 0.0]), 1.5),      # three-way tie
        (4, np.array([1.0, 1.0, 1.0, 1.0]), 1.0),       # equal magnitudes
        (6, np.array([10.0, 0.1, -0.1, 0.05, 0.0, 0.0]), 0.2),  # dominant spike
        (8, np.full(8, -3.0), 0.99 * math.sqrt(8) * 3.0),       # near-total budget
        (5, np.array([4.0, -4.0, 4.0, -4.0, 4.0]), 2.0),        # sign flips
    ]
    worst_obj, worst_feas = 0.0, 0.0
    for n, c, radius in cases + corners:
        op = SensingOperator(n)
        y = op.synthesize(c)
        z = l1_min_orthonormal(L1Problem(observed=y, op=op, radius=radius))
        obj_gap = abs(np.abs(z).sum() - _oracle_objective(op.columns(np.arange(n)), y, radius))
        feas_gap = float(np.linalg.norm(y - op.synthesize(z))) - radius
        worst_obj = max(worst_obj, obj_gap)
        worst_feas = max(worst_feas, feas_gap)
    # zero radius and fully slack radius have closed-form optima
    op = SensingOperator(8)
    c = rng.normal(size=8)
    y = op.synthesize(c)
    exact = l1_min_orthonormal(L1Problem(observed=y, op=op, radius=0.0))
    worst_obj = max(worst_obj, abs(np.abs(exact).sum() - np.abs(c).sum()))
    slack = l1_min_orthonormal(L1Problem(
        observed=y, op=op, radius=float(np.linalg.norm(c)) * 1.001))
    worst_obj = max(worst_obj, float(np.abs(slack).sum()))

    worst_pair = 0.0
    for n in (8, 16, 32):
        for i in range(10):
            prng = np.random.default_rng([102, n, i])
            c = prng.normal(0.0, 2.0, size=n)
            op = SensingOperator(n)
            y = op.synthesize(c)
            radius = float(prng.uniform(0.1, 0.8) * np.linalg.norm(c))
            ortho = l1_min_orthonormal(L1Problem(observed=y, op=op, radius=radius))
            # tolerance bounds the relative objective gap; along the ball the
            # point error is about its square root, so 1e-6 needs ~1e-12
            general = l1_min_general(L1Problem(observed=y, op=op, radius=radius,
                                               tolerance=1e-12, max_iters=50000))
            worst_pair = max(worst_pair,
                             float(np.linalg.norm(general.coeffs - ortho)))
    ok = worst_obj <= 1e-6 and worst_feas <= 1e-9 and worst_pair <= 1e-6
    _verdict(2, ok, f"objective gap {worst_obj:.2e} (tol 1e-6), "
                    f"feasibility excess {worst_feas:.2e} (tol 1e-9), "
                    f"general-vs-orthonormal {worst_pair:.2e} (tol 1e-6)")


# ---------------------------------------------------------------------------
# 3. constraint radii for the published MNIST parameters


def test_criterion_3_constraint_radii():
    got = [action_radius(a, tau=15, eta=0.3, eta_prime=0.15, eta_dprime=0.04,
                         n=784) for a in (A_L0, A_L2, A_LINF)]
    want = [2.25, 0.3, 28.0 * 0.04]
    gaps = [abs(g - w) for g, w in zip(got, want)]
    ok = max(gaps) <= 1e-12
    _verdict(3, ok, f"radii {got} vs {want}, worst gap {max(gaps):.2e} "
                    f"(tol 1e-12)")


# ---------------------------------------------------------------------------
# 4. selection probabilities, rewards, and importance weighting


def _oracle_probs(scores, gamma, sigma):
    with mp.workdps(50):
        ws = [mp.e ** (mp.mpf(repr(float(sigma))) * mp.mpf(repr(float(s))))
              for s in scores]
        total = mp.fsum(ws)
        g = mp.mpf(repr(float(gamma)))
        return np.array([float((1 - g) * w / total + g / 4) for w in ws])


def test_criterion_4_probability_and_reward_conformance():
    rng = np.random.default_rng(103)
    worst = 0.0
    floor_ok = simplex_ok = True
    for _ in range(10_000):
        scores = rng.uniform(-40.0, 40.0, size=4)
        gamma = float(rng.uniform(0.0, 0.99))
        sigma = float(rng.uniform(0.1, 3.0))
        probs = np.array(probabilities(scores, gamma, sigma))
        worst = max(worst, float(np.abs(probs - _oracle_probs(scores, gamma, sigma)).max()))
        simplex_ok &= abs(float(probs.sum()) - 1.0) <= 1e-12
        floor_ok &= bool(probs.min() >= gamma / 4 - 1e-15)

    reward_ok = True
    for chosen in range(4):
        for action in range(4):
            for bit in (0, 1):
                p = 0.4
                r = reward(action, chosen, bit, p, 1.25)
                if action != chosen:
                    reward_ok &= r == 0.0
                elif bit:
                    reward_ok &= abs(r - 1.25 / p) <= 1e-15
                else:
                    reward_ok &= abs(r + 1.0 / (1.0 - p)) <= 1e-15

    probs = probabilities(np.array([0.3, -0.7, 1.1, 0.2]), 0.07, 1.01)
    target = int(np.argmin(probs))
    p = float(probs[target])
    lam, rounds = 1.25, 100_000
    rng = np.random.default_rng(104)
    total = 0.0
    for _ in range(rounds):
        if sample_action(probs, rng) == target:
            total += lam / p
    mean = total / rounds
    se = math.sqrt((lam / p) ** 2 * p * (1.0 - p) / rounds)
    mc_ok = abs(mean - lam) <= 3.0 * se
    ok = worst <= 1e-12 and simplex_ok and floor_ok and reward_ok and mc_ok
    _verdict(4, ok, f"prob gap {worst:.2e} over 1e4 states (tol 1e-12), "
                    f"simplex/floor hold, rewards match all branches, "
                    f"MC mean {mean:.4f} vs 1.25 within {abs(mean - lam) / se:.2f} SE "
                    f"(limit 3)")


# ---------------------------------------------------------------------------
# 5. error-budget dominance on noisy ensembles


def test_criterion_5_error_budget_dominance():
    op = SensingOperator(64)
    worst_l1, worst_greedy = 0.0, 0.0
    ok = True
    for i in range(500):
        rng = np.random.default_rng([90, i])
        k = int(rng.integers(1, 9))
        x = make_clean_sparse(64, k, rng, amplitude=(1.0, 2.0))
        eps = float(rng.uniform(0.02, 0.3))
        inst = perturb(x, AttackSpec(family="l2", eta=eps, seed=1000 + i), op)
        z = l1_min_orthonormal(L1Problem(observed=inst.observed, op=op, radius=eps))
        err_l1 = float(np.linalg.norm(z - x))
        err_greedy = float(np.linalg.norm(
            cosamp_run(inst.observed, op, k, 10).estimate - x))
        ok &= err_l1 <= 2.0 * eps + 1e-9 and err_greedy <= 3.0 * eps
        worst_l1 = max(worst_l1, err_l1 / eps)
        worst_greedy = max(worst_greedy, err_greedy / eps)
    _verdict(5, ok, f"500 instances, worst l1 err/eps {worst_l1:.3f} "
                    f"(limit 2 + 1e-9), worst greedy err/eps {worst_greedy:.3f} "
                    f"(limit 3)")


# ---------------------------------------------------------------------------
# 6. attack-family identification on a calibrated ensemble


def test_criterion_6_attack_identification(tmp_path):
    raw = {
        "n": 784, "seed": 7, "count": 100,
        "clean": {"kind": "compressible", "amplitude": [4.5, 7.0],
                  "tail_norm": 0.5, "k": 80},
        "attacks": [{"family": "l0", "tau": 12, "eta_prime": 4.0},
                    {"family": "l2", "eta": 20.0},
                    {"family": "linf", "eta_dprime": 4.0},
                    {"family": "none"}],
        "cad": {"k": 80, "feedback": dict(MNIST_FB)},
        "stats": {"count": 40, "n_cosamp": 5, "ridge": 1e-4},
    }
    t0 = time.perf_counter()
    res = cmd_run(ExperimentConfig.from_dict(raw), tmp_path)
    elapsed = time.perf_counter() - t0
    rates = {a["family"]: a["identification_rate"] for a in res["aggregates"]}
    res_stop = {a["family"]: a["residual_stop_rate"] for a in res["aggregates"]}
    ok = (all(rates[f] >= 0.80 for f in ("l0", "l2", "linf", "none"))
          and res_stop["none"] >= 0.95 and elapsed <= 600.0)
    _verdict(6, ok, f"identification {rates} (min 0.80 over 100 runs/family), "
                    f"clean residual-stop {res_stop['none']:.2f} (min 0.95), "
                    f"{elapsed:.1f}s (limit 600s)")


# ---------------------------------------------------------------------------
# 7. forced fallback and stop-reason bookkeeping


def test_criterion_7_fallback_and_stopping():
    starved = FeedbackConfig(alpha=0.0, beta=math.inf, m=math.inf, tau=0,
                             theta=0.0, delta_res=0.0)
    op = SensingOperator(64)
    fallbacks = 0
    runs = []
    for seed in range(100):
        rng = np.random.default_rng([105, seed])
        x = make_clean_sparse(64, 6, rng)
        inst = perturb(x, AttackSpec(family="l2", eta=1.0, seed=seed), op)
        out = cad_run(inst.observed, CadConfig(k=6, feedback=starved, seed=seed),
                      None, op)
        fallbacks += int(out.fallback and max(out.final_scores) <= 0.0)
        runs.append((out, starved))

    normal = FeedbackConfig(**MNIST_FB)
    for seed in range(100):
        rng = np.random.default_rng([106, seed])
        x = make_clean_sparse(64, 6, rng)
        fam = ("none", "l2")[seed % 2]
        spec = AttackSpec(family=fam, seed=seed,
                          **({"eta": 6.0} if fam == "l2" else {}))
        inst = perturb(x, spec, op)
        out = cad_run(inst.observed, CadConfig(k=6, feedback=normal, seed=seed),
                      None, op)
        runs.append((out, normal))

    consistent = 0
    for out, fb in runs:
        last = out.trace[-1]
        if out.stop_reason == "prob":
            consistent += int(max(last.probs) > fb.delta_prob)
        elif out.stop_reason == "residual":
            consistent += int(last.residual_l2 < fb.delta_res)
        else:
            consistent += int(out.stopped_at == fb.t_max)
    ok = fallbacks == 100 and consistent == len(runs)
    _verdict(7, ok, f"fallback {fallbacks}/100 under all-zero feedback, "
                    f"stop-reason consistent {consistent}/{len(runs)}")


# ---------------------------------------------------------------------------
# 8. quadratic per-iteration cost trend


def test_criterion_8_complexity_trend(tmp_path):
    medians = {}
    for n, k, eta in ((392, 40, 14.0), (784, 80, 20.0)):
        raw = {
            "n": n, "seed": 7, "count": 20,
            "clean": {"kind": "compressible", "amplitude": [4.5, 7.0],
                      "tail_norm": 0.5, "k": k},
            "attacks": [{"family": "l2", "eta": eta}],
            "cad": {"k": k, "feedback": dict(MNIST_FB)},
        }
        res = cmd_run(ExperimentConfig.from_dict(raw), tmp_path / str(n))
        medians[n] = float(np.median([t["per_iter_s"] for t in res["timings"]]))
    factor = medians[784] / medians[392]
    ok = 2.0 <= factor <= 6.0
    _verdict(8, ok, f"median per-iteration {medians[392]:.2e}s @392 -> "
                    f"{medians[784]:.2e}s @784, factor {factor:.2f} "
                    f"(accepted [2, 6])")


# ---------------------------------------------------------------------------
# 9. byte-identical reports


def test_criterion_9_report_determinism(tmp_path):
    raw = {
        "n": 64, "seed": 9, "count": 10,
        "clean": {"kind": "sparse", "amplitude": [1.0, 2.0]},
        "attacks": [{"family": "none"}, {"family": "l2", "eta": 0.5},
                    {"family": "l0", "tau": 4, "eta_prime": 0.4}],
        "cad": {"k": 6, "feedback": dict(MNIST_FB)},
        "stats": {"count": 20, "ridge": 1e-4},
    }
    cfg = ExperimentConfig.from_dict(raw)
    identical = True
    for sub_a, sub_b, runner in (("ga", "gb", cmd_gen), ("ra", "rb", cmd_run)):
        runner(cfg, tmp_path / sub_a)
        runner(cfg, tmp_path / sub_b)
    identical &= ((tmp_path / "ga" / "manifest.json").read_bytes()
                  == (tmp_path / "gb" / "manifest.json").read_bytes())
    for name in ("report.csv", "instances.csv", "aggregate.csv"):
        identical &= ((tmp_path / "ra" / name).read_bytes()
                      == (tmp_path / "rb" / name).read_bytes())
    cmd_run(cfg, tmp_path / "ja", fmt="json")
    cmd_run(cfg, tmp_path / "jb", fmt="json")
    identical &= ((tmp_path / "ja" / "report.json").read_bytes()
                  == (tmp_path / "jb" / "report.json").read_bytes())
    _verdict(9, bool(identical),
             "manifest, CSV reports, and JSON report byte-identical "
             "across reruns")
