"""Tests of the benchmark itself: exact counters, tolerant wrappers, gating.

Run from the repository root with `python3 -m pytest perfbench/tests -q`.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import cad_defense.cad  # noqa: E402
import cad_defense.recovery  # noqa: E402
from cad_defense import (CadConfig, FeedbackConfig, SensingOperator,  # noqa: E402
                         make_clean_sparse)
from run import Bench  # noqa: E402
from tracer import EXACT_COUNTERS, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_exact_counters_repeat_across_traced_runs(workload, tmp_path):
    build, kind, _ = WORKLOADS[workload]
    config = tmp_path / "config.json"
    config.write_text(json.dumps(build(3)))
    bench = Bench(tmp_path, kind, config)
    first, second = bench.rep("trace"), bench.rep("trace")
    assert "error" not in first and "error" not in second
    assert first["digest"] == second["digest"]
    for name in EXACT_COUNTERS:
        assert first["layers"][name] == second["layers"][name], name
    assert first["layers"]["cad.loop_iters"] > 0
    assert first["layers"]["cad.run_action.calls"] == first["layers"]["cad.loop_iters"]


def test_removed_name_reads_as_absent_with_zero_calls(monkeypatch):
    monkeypatch.delattr(cad_defense.recovery, "l1_min_general")
    monkeypatch.delattr(cad_defense.cad, "l1_min_general")
    op = SensingOperator(32)
    y = op.synthesize(make_clean_sparse(32, 4, np.random.default_rng(0)))
    cfg = CadConfig(k=4, feedback=FeedbackConfig(alpha=8.0, beta=5.0, m=1.8,
                                                 tau=15, theta=65.0))
    tracer = Tracer()
    tracer.install()
    try:
        out = cad_defense.cad.cad_run(y, cfg, None, op)
    finally:
        tracer.uninstall()
    layers = tracer.layer_metrics()
    assert tracer.absent == ["recovery.l1_min_general"]
    assert layers["recovery.l1_min_general.calls"] == 0
    assert layers["recovery.l1_min_general.iters"] == 0
    assert layers["cad.loop_iters"] == out.stopped_at
    assert layers["cad.run_action.calls"] == out.stopped_at
    assert not hasattr(cad_defense.cad.cad_run, "__wrapped__")


def test_self_time_excludes_child_spans():
    tracer = Tracer()
    tracer.spans = [["cad.cad_run", 0.0, 10.0, -1, 0],
                    ["cad.run_action", 1.0, 4.0, 0, 0],
                    ["recovery.l1_min_orthonormal", 2.0, 3.5, 1, 0],
                    ["recovery.cosamp_run", 6.0, 8.0, 0, 0]]
    layers = tracer.layer_metrics()
    assert layers["cad.cad_run.self_s"] == pytest.approx(5.0)
    assert layers["cad.run_action.self_s"] == pytest.approx(1.5)
    assert layers["recovery.l1_min_orthonormal.self_s"] == pytest.approx(1.5)
    # a solver called by cad_run itself is the final re-run, counted whole
    assert layers["cad.final_rerun.self_s"] == pytest.approx(2.0)


def test_checkout_without_sources_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sub256", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
