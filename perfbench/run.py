"""cad-defense benchmark: run one workload for a fixed time and report it.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload ident784 --seed 7 --seconds 20 --trace 0

Each repetition runs in a fresh interpreter (perfbench/rep.py), one at a
time: a closed loop with a single client.  Repetitions continue until
--seconds have been measured, and every reported figure is the median
over them.  --trace 0 reports the end-to-end metrics; --trace 1 reports
the per-layer metrics from traced repetitions, plus the tracing overhead
against one untraced repetition.  The metric names and units are those
of BENCHMARK.json; layers.json says which end-to-end metric each layer
metric should move, and on which workload.

The correctness gate: every repetition of an invocation must produce the
same report digest, and so must one unmeasured rerun through the process
pool (`--workers 2`) where the workload has one, since results may not
depend on worker count.  No instance may fail, and in traced runs the
exact counters must repeat exactly.  On a violation the result line says
"correct": false and the exit code is 1.

BLAS thread variables are recorded, never set, so the pooled rerun shows
what the program does with the environment it is given.  Everything the
benchmark writes goes under .perfbench_runs/.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import EXACT_COUNTERS
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = ROOT / ".perfbench_runs"

MIN_REPS = 2            # untraced repetitions per measured invocation
MIN_TRACED_REPS = 2     # so the exact counters can be compared
MIN_SETUP_SAMPLES = 5
DEADLINE_S = 150        # start no measured repetition expected to end after this
LIMIT_S = 170           # kill any repetition still running at this point


class Bench:
    """Runs repetitions of one workload and keeps what they returned."""

    def __init__(self, work: Path, kind: str, config: Path):
        self.work, self.kind, self.config = work, kind, config
        self.started = time.perf_counter()
        self.results: list[dict] = []

    def elapsed(self) -> float:
        return time.perf_counter() - self.started

    def rep(self, mode: str, workers: int = 1) -> dict:
        """Run rep.py once; a crash, or running past LIMIT_S, is an error."""
        i = len(self.results)
        out_dir = self.work / f"rep{i}"
        result_path = self.work / f"rep{i}.json"
        cmd = [sys.executable, str(HERE / "rep.py"), mode, self.kind,
               str(workers), str(self.config), str(out_dir),
               str(result_path)]
        env = dict(os.environ, TMPDIR=str(self.work))
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, process_group=0)
        try:
            code = proc.wait(timeout=max(LIMIT_S - self.elapsed(), 1.0))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            code = "timeout"
        if code == 0:
            result = json.loads(result_path.read_text())
        else:
            result = {"error": f"rep.py {mode} exited {code}"}
        result.update(mode=mode, workers=workers,
                      elapsed_s=time.perf_counter() - t0)
        shutil.rmtree(out_dir, ignore_errors=True)
        self.results.append(result)
        return result

    def measure(self, mode: str, seconds: float, min_reps: int) -> list[dict]:
        """Repetitions until `seconds` are measured (at least min_reps)."""
        reps = []
        t0 = time.perf_counter()
        while True:
            r = self.rep(mode)
            reps.append(r)
            if "error" in r:
                break
            if len(reps) >= min_reps and time.perf_counter() - t0 >= seconds:
                break
            if self.elapsed() + r["elapsed_s"] > DEADLINE_S:
                break
        return reps


def _median_metrics(reps: list[dict], key: str) -> dict:
    names = reps[0][key].keys()
    return {n: statistics.median(r[key][n] for r in reps) for n in names}


def _gate(bench: Bench, traced: list[dict]) -> list[str]:
    """Correctness violations over every repetition of this invocation."""
    problems = [r["error"] for r in bench.results if "error" in r]
    runs = [r for r in bench.results if "digest" in r]
    digests = {json.dumps(r["digest"], sort_keys=True) for r in runs}
    if len(digests) > 1:
        problems.append(f"{len(digests)} different report digests across "
                        f"{len(runs)} repetitions")
    failed = sum(r.get("failed", 0) for r in bench.results)
    if failed:
        problems.append(f"{failed} failed instances")
    for name in EXACT_COUNTERS:
        values = {r["layers"][name] for r in traced if "layers" in r}
        if len(values) > 1:
            problems.append(f"exact counter {name} differs: {sorted(values)}")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "cad_defense" / "__init__.py").is_file():
        print(f"perfbench: no cad_defense package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    build, kind, check_workers = WORKLOADS[args.workload]
    work = RUNS / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    work.mkdir(parents=True)
    config = work / "config.json"
    config.write_text(json.dumps(build(args.seed)))
    bench = Bench(work, kind, config)

    if args.trace:
        untraced = bench.rep("run")
        reps = bench.measure("trace", args.seconds, MIN_TRACED_REPS)
        good = [r for r in reps if "layers" in r]
        values = _median_metrics(good, "layers") if good else {}
        if good and "metrics" in untraced:
            values["trace.overhead_s"] = (
                statistics.median(r["metrics"]["run_wall_s"] for r in good)
                - untraced["metrics"]["run_wall_s"])
        listed = spec["per_layer"]
    else:
        reps = bench.measure("run", args.seconds, MIN_REPS)
        good = [r for r in reps if "metrics" in r]
        values = _median_metrics(good, "metrics") if good else {}
        setup = [r["setup_s"] for r in bench.results if "setup_s" in r]
        while good and len(setup) < MIN_SETUP_SAMPLES:
            probe = bench.rep("setup")
            if "setup_s" not in probe:
                break
            setup.append(probe["setup_s"])
        if setup:
            values["setup_s"] = statistics.median(setup)
        listed = spec["end_to_end"]
    pooled = bench.rep("run", workers=check_workers) if check_workers else None

    problems = _gate(bench, reps if args.trace else [])
    attempted = sum(r.get("attempted", 0) for r in bench.results)
    failed = sum(r.get("failed", 0) for r in bench.results)
    missing = [m["name"] for m in listed if m["name"] not in values]
    if missing:
        problems.append(f"no value for {', '.join(missing)}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in listed if m["name"] in values}

    first = next((r for r in bench.results if "env" in r), {})
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": first.get("env"),
              "digest": first.get("digest"), "absent": first.get("absent"),
              "problems": problems, "metrics": metrics, "repetitions": bench.results}
    (work / "result.json").write_text(json.dumps(record, indent=1))

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(reps)} measured repetitions, {bench.elapsed():.1f} s in all")
    env = first.get("env") or {}
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    for name, digest in (first.get("digest") or {}).items():
        print(f"digest {name} {digest}")
    if args.trace and first.get("absent"):
        print("absent (zero calls): " + ", ".join(first["absent"]))
    for name, m in metrics.items():
        print(f"  {name:<44} {m['value']:.6g} {m['unit']}")
    if not args.trace and good:
        tail = good[0]["metrics"]
        print(f"  defend_tail_ms is p90 of {tail['tail_samples']} latencies per "
              f"repetition ({tail['tail_beyond']} beyond it); the 11th-largest "
              f"(p{tail['tail_last_percentile']:.1f}) is "
              f"{values['tail_last_ms']:.6g} ms")
        print(f"  {'failed_frac':<44} {failed / max(attempted, 1):.6g} ratio "
              f"({failed} of {attempted})")
    if pooled and "metrics" in pooled:
        print(f"  pooled rerun (--workers {check_workers}, unmeasured): "
              f"{pooled['metrics']['run_wall_s']:.3f} s wall")
    for p in problems:
        print(f"INCORRECT: {p}")
    print(f"result file {work.relative_to(ROOT) / 'result.json'}")
    print(json.dumps({"correct": not problems, "attempted": max(attempted, 1),
                      "failed": failed if attempted else 1, "metrics": metrics}))
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
