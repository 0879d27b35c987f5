"""One repetition of a workload, in a fresh interpreter.

Usage: python3 perfbench/rep.py MODE KIND WORKERS CONFIG OUT_DIR RESULT

MODE is "setup" (time set-up only), "run" (untraced) or "trace" (run
with spans); KIND is "cli" or "library" (see workloads.py).  Reports go
to OUT_DIR and a JSON summary to RESULT.  run.py starts one of these per
repetition so that set-up time and peak RSS are those of a fresh process.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import json
import math
import os
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
REPORTS = ("report.csv", "instances.csv", "aggregate.csv")


def _read_csv(path: Path) -> list[dict]:
    lines = [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]
    return list(csv.DictReader(lines))


def _summary(wall: float, instances: int, latencies: list[float],
             per_iter: list[float], rates: list[float], errs: list[float]) -> dict:
    """End-to-end figures of one repetition (set-up and RSS are added later)."""
    ordered = sorted(latencies)
    # p90 leaves at least ten samples beyond it on every workload (18 of 180
    # on sub256, 40 of 400 on ident784).  The highest such percentile, the
    # 11th-largest latency, is reported too; it varied by 12-25% between
    # seeds, which no bound of at most 25% can hold.
    p90 = statistics.quantiles(ordered, n=10)[-1]
    last = max(len(ordered) - 11, 0)
    return {
        "run_wall_s": wall,
        "instances_per_s": instances / wall,
        "defend_p50_ms": statistics.median(latencies) * 1e3,
        "defend_tail_ms": p90 * 1e3,
        "tail_beyond": sum(v > p90 for v in ordered),
        "tail_samples": len(ordered),
        "tail_last_ms": ordered[last] * 1e3,
        "tail_last_percentile": 100.0 * (last + 1) / len(ordered),
        "per_iter_us": statistics.median(per_iter) * 1e6,
        "ident_rate_min": min(rates),
        "err_l2_median": statistics.median(errs),
    }


def _run_cli(cfg, op, config: str, out_dir: str, workers: int) -> dict:
    """`cad-defense run` over the ensemble, read back from its reports."""
    import cad_defense.cli
    expected = len(cfg.attacks) * cfg.count
    argv = ["run", "--config", config, "--out", out_dir, "--workers", str(workers)]
    t0 = time.perf_counter()
    code = cad_defense.cli.main(argv)
    wall = time.perf_counter() - t0
    if code != 0:
        return {"error": f"cad-defense run exited {code}",
                "attempted": expected, "failed": expected}
    out = Path(out_dir)
    rows = _read_csv(out / "report.csv")
    insts = _read_csv(out / "instances.csv")
    aggs = _read_csv(out / "aggregate.csv")
    timings = _read_csv(out / "timings.csv")
    non_finite = {r["instance"] for r in rows if not math.isfinite(float(r["err_l2"]))}
    return {
        "attempted": expected,
        "failed": len(non_finite) + expected - len(insts),
        "digest": {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
                   for name in REPORTS},
        "metrics": _summary(
            wall, len(insts) * cfg.channels,
            [float(t["wall_s"]) for t in timings],
            [float(t["per_iter_s"]) for t in timings],
            [float(a["identification_rate"]) for a in aggs if a["identification_rate"]],
            [float(r["err_l2"]) for r in insts]),
    }


def _run_library(cfg, full_op, config: str, out_dir: str, workers: int) -> dict:
    """cad_run per instance on the row-subsampled operator, no clean stats.

    Instances are drawn and perturbed on the full operator and observed
    through the seeded rows, the same per-index seeding idea as the harness.
    """
    import numpy as np
    from cad_defense import attacks, cad, recovery
    from cad_defense.harness import designated_action
    from cad_defense.transform import SensingOperator

    k = int(cfg.clean["k"])
    amplitude = tuple(cfg.clean["amplitude"])
    tail_norm = float(cfg.clean["tail_norm"])
    digest = hashlib.sha256()
    latencies, per_iter, errs = [], [], []
    hits: dict[str, list[int]] = {}
    attempted = failed = 0
    t0 = time.perf_counter()
    op = SensingOperator(cfg.n, rows=cfg.raw["rows"])
    for entry in cfg.attacks:
        family = entry["family"]
        for _ in range(cfg.count):
            rng = np.random.default_rng([cfg.seed, attempted])
            attempted += 1
            clean = attacks.make_clean_compressible(cfg.n, k, rng, amplitude, tail_norm)
            spec = attacks.AttackSpec(seed=int(rng.integers(2 ** 62)), **entry)
            inst = attacks.perturb(clean, spec, full_op)
            cad_cfg = dataclasses.replace(cfg.cad, seed=int(rng.integers(2 ** 62)))
            try:
                t1 = time.perf_counter()
                out = cad.cad_run(inst.observed[op.rows], cad_cfg, None, op)
                latency = time.perf_counter() - t1
                bound = recovery.check_bound(clean, out.estimate, k,
                                             float(np.linalg.norm(inst.perturbation)))
            except Exception as exc:  # an instance that raises counts as failed
                print(f"instance {attempted - 1}: {exc!r}", file=sys.stderr)
                failed += 1
                continue
            if not np.all(np.isfinite(out.estimate)):
                failed += 1
                continue
            latencies.append(latency)
            per_iter.append(latency / max(out.stopped_at, 1))
            errs.append(bound.empirical_l2_error)
            designated = designated_action(family)
            if family == "none":
                hit = out.fallback or out.final_method == designated
            else:
                hit = not out.fallback and out.final_method == designated
            hits.setdefault(family, []).append(int(hit))
            digest.update(out.method_label.encode())
            digest.update(out.estimate.tobytes())
    wall = time.perf_counter() - t0
    if not latencies:
        return {"error": "every instance failed", "attempted": attempted,
                "failed": failed}
    return {
        "attempted": attempted,
        "failed": failed,
        "digest": {"labels+estimates": digest.hexdigest()},
        "metrics": _summary(wall, len(latencies), latencies, per_iter,
                            [sum(h) / len(h) for h in hits.values()], errs),
    }


def _environment() -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": " ".join(str(blas.get("openblas configuration", "")).split()),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def main(argv: list[str]) -> int:
    mode, kind, workers, config, out_dir, result_path = argv
    sys.path.insert(0, str(ROOT / "src"))
    t0 = time.perf_counter()
    import cad_defense.cli  # noqa: F401  (set-up cost: the CLI's imports)
    from cad_defense.harness import ExperimentConfig
    from cad_defense.transform import SensingOperator
    cfg = ExperimentConfig.from_json(config)
    op = SensingOperator(cfg.n)
    result = {"setup_s": time.perf_counter() - t0}
    if mode != "setup":
        tracer = None
        if mode == "trace":
            from tracer import Tracer
            tracer = Tracer()
            tracer.install()
        runner = _run_cli if kind == "cli" else _run_library
        result.update(runner(cfg, op, config, out_dir, int(workers)))
        if tracer is not None:
            tracer.uninstall()
            result["layers"] = tracer.layer_metrics()
            result["absent"] = tracer.absent
            tracer.write_spans(Path(result_path).parent / "spans.jsonl")
        self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        # only the largest child's peak is reported, so count it per worker
        child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        pool_kb = child_kb * int(workers) if int(workers) > 1 else 0
        if "metrics" in result:
            result["metrics"]["rss_peak_mb"] = (self_kb + pool_kb) / 1024.0
        result["env"] = _environment()
    Path(result_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
