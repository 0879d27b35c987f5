"""Command-line interface tests: subcommands, exit codes, seed override,
report formats, log-level control, and the demos run as scripts."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import cad_defense
import cad_defense.harness
from cad_defense.cli import (EXIT_CONFIG, EXIT_IO, EXIT_NUMERICAL, EXIT_OK,
                             main)
from cad_defense.feedback import CleanStats, save_clean_stats

FB = {"alpha": 8.0, "beta": 5.0, "m": 1.8, "tau": 15, "theta": 65.0}
DEMOS = Path(__file__).resolve().parents[1] / "demos"


def _write_config(tmp_path, name="config.json", **overrides):
    raw = {
        "n": 32, "seed": 5, "count": 4,
        "clean": {"kind": "sparse", "amplitude": [1.0, 2.0]},
        "attacks": [{"family": "none"}],
        "cad": {"k": 4, "feedback": dict(FB)},
    }
    raw.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(raw))
    return path


def test_run_succeeds_and_writes_reports(tmp_path):
    cfg = _write_config(tmp_path)
    out = tmp_path / "out"
    code = main(["run", "--config", str(cfg), "--out", str(out)])
    assert code == EXIT_OK
    for name in ("report.csv", "instances.csv", "aggregate.csv", "timings.csv"):
        assert (out / name).exists()


def test_gen_stats_bench_subcommands(tmp_path):
    cfg = _write_config(tmp_path, stats={"count": 12, "ridge": 1e-4},
                        bench={"n": [32], "k": [4], "count": 2,
                               "attacks": [{"family": "l2", "eta": 0.4}]})
    assert main(["gen", "--config", str(cfg), "--out", str(tmp_path / "g")]) == EXIT_OK
    assert (tmp_path / "g" / "manifest.json").exists()
    assert main(["stats", "--config", str(cfg), "--out", str(tmp_path / "s")]) == EXIT_OK
    assert (tmp_path / "s" / "clean_stats_ch0.f64").exists()
    assert main(["bench", "--config", str(cfg), "--out", str(tmp_path / "b")]) == EXIT_OK
    assert (tmp_path / "b" / "bench.csv").exists()


def test_json_report_format(tmp_path):
    cfg = _write_config(tmp_path)
    out = tmp_path / "out"
    code = main(["run", "--config", str(cfg), "--out", str(out),
                 "--format", "json"])
    assert code == EXIT_OK
    payload = json.loads((out / "report.json").read_text())
    assert payload["config"]["n"] == 32
    assert len(payload["instances"]) == 4


def test_seed_override_changes_ensemble(tmp_path):
    cfg = _write_config(tmp_path)
    for seed_args, sub in (([], "base"), (["--seed", "5"], "same"),
                           (["--seed", "123"], "other")):
        assert main(["gen", "--config", str(cfg), "--out",
                     str(tmp_path / sub)] + seed_args) == EXIT_OK
    base = (tmp_path / "base" / "manifest.json").read_bytes()
    assert (tmp_path / "same" / "manifest.json").read_bytes() == base
    assert (tmp_path / "other" / "manifest.json").read_bytes() != base


def test_exit_code_bad_config(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not valid json")
    code = main(["run", "--config", str(bad), "--out", str(tmp_path / "o")])
    assert code == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err

    incomplete = tmp_path / "incomplete.json"
    incomplete.write_text(json.dumps({"n": 16}))
    assert main(["run", "--config", str(incomplete),
                 "--out", str(tmp_path / "o2")]) == EXIT_CONFIG


def _stats_for_n64(tmp_path):
    stats_dir = tmp_path / "stats"
    stats_dir.mkdir()
    stats = CleanStats(mean=np.zeros(64), covariance=np.eye(64), ridge=1e-4,
                       source_count=5)
    save_clean_stats(stats, stats_dir / "clean_stats_ch0.f64")
    return {"n": 128, "stats_dir": str(stats_dir)}


def _corrupt_stats(damage):
    """Stats for the n=32 config, with one file damaged after saving."""
    def overrides(tmp_path):
        stats_dir = tmp_path / "stats"
        stats_dir.mkdir()
        path = stats_dir / "clean_stats_ch0.f64"
        save_clean_stats(CleanStats(mean=np.zeros(32), covariance=np.eye(32),
                                    ridge=1e-4, source_count=5), path)
        damage(path, path.with_name(path.name + ".json"))
        return {"stats_dir": str(stats_dir)}
    return overrides


def _drop_key(key):
    def damage(_, sidecar):
        meta = json.loads(sidecar.read_text())
        del meta[key]
        sidecar.write_text(json.dumps(meta))
    return damage


def _cad(**entries):
    """The cad section of the default config, with entries set."""
    return lambda _: {"cad": {"k": 4, "feedback": dict(FB), **entries}}


# values the loop cannot use; each must fail as a config error, not run
BAD_CAD_VALUES = [
    ("eta", -1), ("eta", "x"), ("eta", math.nan), ("eta", True),
    ("eta_prime", math.inf), ("eta_dprime", -0.5),
    ("bandit_params", [0.07, math.nan, 1.25]), ("bandit_params", [0.07, 1.01, math.nan]),
    ("bandit_params", [0.07, 1.01, math.inf]), ("bandit_params", [math.nan, 1.01, 1.25]),
    ("inner_schedule", [2.5, 1]), ("inner_schedule", [True, 2]),
    ("inner_schedule", [3, 0.5]),
]
BAD_FEEDBACK_VALUES = [
    ("t_max", 2.5), ("t_max", True), ("tau", 2.5), ("tau", True),
    ("alpha", math.nan), ("theta", math.nan), ("delta_res", math.nan),
    ("m", "big"), ("beta", True),
]


@pytest.mark.parametrize("overrides", [
    lambda _: {"attacks": [{"family": "l9"}]},
    lambda _: {"attacks": [{"family": "l2", "eta": math.nan}]},
    lambda _: {"cad": {"k": 33, "feedback": dict(FB)}},
    _stats_for_n64,
    lambda _: {"attacks": [{"family": "l0", "tau": 33, "eta_prime": 0.5}]},
    _corrupt_stats(lambda f64, _: f64.write_bytes(f64.read_bytes()[:-8])),
    _corrupt_stats(lambda _, sidecar: sidecar.write_text("{not json")),
    _corrupt_stats(_drop_key("n")),
    _corrupt_stats(_drop_key("ridge")),
    _corrupt_stats(_drop_key("source_count")),
    lambda _: {"stats": {"count": 8, "ridge": -1}},
    lambda _: {"stats": {"count": 1}},
    lambda _: {"stats": {"count": 8, "n_cosamp": -1}},
    lambda _: {"stats": {"cout": 8}},
    lambda _: {"cad": {"k": 4, "feedback": dict(FB, a1_precedence="or_and")}},
    lambda _: {"cad": {"k": 4, "feedback": dict(FB), "x0_mode": "zero"}},
    lambda _: {"cad": {"k": 4, "feedback": dict(FB), "final_iters": 10}},
    lambda _: {"clean": {"kind": "sparse", "amplitud": [1.0, 2.0]}},
    lambda _: {"bench": {"nn": [16]}},
    lambda _: {"attacks": [{"family": "none", "count": 5}]},
    lambda _: {"attacks": [{"family": "none", "seed": 3}]},
    lambda _: {"clean": {"kind": "sparse", "amplitude": [1.0]}},
    lambda _: {"clean": {"kind": "sparse", "amplitude": [-1.0, 2.0]}},
    lambda _: {"clean": {"kind": "sparse", "amplitude": [2.0, 1.0]}},
    lambda _: {"clean": {"kind": "compressible", "amplitude": [1.0, 2.0],
                         "tail_norm": -1}},
    lambda _: {"n": 32.9},
    lambda _: {"n": "32"},
    lambda _: {"count": 2.7},
    lambda _: {"seed": 5.5},
    lambda _: {"seed": -1},
    lambda _: {"channels": 1.0},
    lambda _: {"cad": {"k": 4.5, "feedback": dict(FB)}},
    lambda _: {"clean": {"kind": "sparse", "amplitude": [1.0, 2.0], "k": 4.5}},
    lambda _: {"bench": {"n": [32.5]}},
    lambda _: {"bench": {"k": [4.5]}},
    lambda _: {"bench": {"count": 2.5}},
    lambda _: {"stats_dir": 5},
    lambda _: {"attacks": [{"family": "l0", "tau": 2.5, "eta_prime": 0.5}]},
    lambda _: {"attacks": [{"family": "l0", "tau": True, "eta_prime": 0.5}]},
    lambda _: {"attacks": [{"family": "l2", "eta": 0.5, "clip": "yes"}]},
    lambda _: {"attacks": [{"family": "l0", "tau": 3, "eta_prime": 0.5,
                            "low_freq_bias": 1}]},
    *[_cad(**{key: value}) for key, value in BAD_CAD_VALUES],
    *[_cad(feedback=dict(FB, **{key: value})) for key, value in BAD_FEEDBACK_VALUES],
    *[_cad(seed=value) for value in (0, 99, -5, 2.5, "not-an-int")],
], ids=["unknown_family", "nan_budget", "k_above_n", "stats_of_other_n",
        "l0_tau_above_n", "stats_short_f64", "stats_sidecar_not_json",
        "stats_sidecar_without_n", "stats_sidecar_without_ridge",
        "stats_sidecar_without_source_count", "stats_negative_ridge",
        "stats_count_below_two", "stats_negative_n_cosamp",
        "stats_unknown_key", "removed_a1_precedence", "removed_x0_mode",
        "removed_final_iters", "clean_unknown_key", "bench_unknown_key",
        "entry_count", "entry_seed", "clean_one_amplitude",
        "clean_negative_amplitude", "clean_reversed_amplitude",
        "clean_negative_tail_norm", "n_float", "n_string", "count_float",
        "seed_float", "seed_negative", "channels_float", "cad_k_float",
        "clean_k_float", "bench_n_float", "bench_k_float", "bench_count_float",
        "stats_dir_not_string", "l0_tau_float", "l0_tau_bool", "clip_string",
        "low_freq_bias_int",
        *[f"cad_{key}_{value}" for key, value in BAD_CAD_VALUES],
        *[f"feedback_{key}_{value}" for key, value in BAD_FEEDBACK_VALUES],
        *[f"cad_seed_{value}" for value in (0, 99, -5, 2.5, "not-an-int")]])
def test_bad_config_fails_fast_with_one_line(tmp_path, capsys, overrides):
    cfg = _write_config(tmp_path, **overrides(tmp_path))
    code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err.splitlines()
    assert code == EXIT_CONFIG
    assert len(err) == 1 and err[0].startswith("config error:")
    assert not (tmp_path / "o" / "report.csv").exists()


@pytest.mark.parametrize("key", ["seed", "channels"])
def test_cad_seed_and_channels_name_the_top_level_key(tmp_path, capsys, key):
    # the loop's seed derives from the master seed, and channels is set once
    cfg = _write_config(tmp_path, cad={"k": 4, "feedback": dict(FB), key: 1})
    code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err.splitlines()
    assert code == EXIT_CONFIG
    assert len(err) == 1 and err[0].startswith(f"config error: cad.{key}")
    assert f"top-level {key}" in err[0]


@pytest.mark.parametrize("command", ["run", "bench"])
@pytest.mark.parametrize("workers", ["0", "-2"])
def test_workers_below_one_fail_fast_with_one_line(tmp_path, capsys, command, workers):
    cfg = _write_config(tmp_path, bench={"n": [32], "k": [4], "count": 2})
    code = main([command, "--config", str(cfg), "--out", str(tmp_path / "o"),
                 "--workers", workers])
    err = capsys.readouterr().err.splitlines()
    assert code == EXIT_CONFIG
    assert err == [f"config error: --workers={workers} must be >= 1"]
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["gen", "run", "bench"])
def test_file_signals_only_serve_stats(tmp_path, capsys, command):
    cfg = _write_config(tmp_path, clean={"kind": "files", "paths": []},
                        bench={"n": [32], "k": [4], "count": 2})
    code = main([command, "--config", str(cfg), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err.splitlines()
    assert code == EXIT_CONFIG
    assert len(err) == 1 and err[0].startswith("config error:")
    assert not (tmp_path / "o").exists()


def test_bench_checks_every_cell_before_running_one(tmp_path, capsys, monkeypatch):
    # the (8, 10) cell has k above n; the three cells before it must not run
    runs = []
    monkeypatch.setattr(cad_defense.harness, "_run_ensemble",
                        lambda *args, **kwargs: runs.append(args))
    cfg = _write_config(tmp_path, bench={"n": [32, 8], "k": [4, 10], "count": 20})
    code = main(["bench", "--config", str(cfg), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err.splitlines()
    assert code == EXIT_CONFIG
    assert len(err) == 1 and err[0].startswith("config error: cad.k=10")
    assert not runs
    assert not (tmp_path / "o" / "bench.csv").exists()


def test_exit_code_missing_config(tmp_path, capsys):
    code = main(["run", "--config", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path / "o")])
    assert code == EXIT_IO
    assert "io error" in capsys.readouterr().err


def test_exit_code_numerical_failure(tmp_path, capsys):
    # stats whose covariance is not positive definite fail factorization
    stats_dir = tmp_path / "stats"
    stats_dir.mkdir()
    bad = CleanStats(mean=np.zeros(16), covariance=-np.eye(16), ridge=0.0,
                     source_count=5)
    save_clean_stats(bad, stats_dir / "clean_stats_ch0.f64")
    cfg = _write_config(
        tmp_path, n=16, count=1, stats_dir=str(stats_dir),
        attacks=[{"family": "l2", "eta": 4.0}],
        cad={"k": 2, "feedback": dict(FB, alpha=1.0, delta_res=0.0)})
    code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == EXIT_NUMERICAL
    assert "numerical failure" in capsys.readouterr().err


def test_usage_errors_map_to_config_exit(capsys):
    assert main([]) == EXIT_CONFIG
    assert main(["frobnicate"]) == EXIT_CONFIG
    assert main(["run", "--config", "x"]) == EXIT_CONFIG  # missing --out
    assert main(["--help"]) == EXIT_OK  # help is a successful exit
    capsys.readouterr()


def _child_env(**extra) -> dict:
    """Environment for a child interpreter that imports this cad_defense."""
    src = os.path.dirname(os.path.dirname(cad_defense.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path, **extra)


def test_log_env_controls_verbosity(tmp_path):
    cfg = _write_config(tmp_path, count=2)
    env = _child_env(CAD_LOG="info")
    quiet_env = {k: v for k, v in env.items() if k != "CAD_LOG"}
    cmd = [sys.executable, "-m", "cad_defense.cli", "run",
           "--config", str(cfg), "--out", str(tmp_path / "o")]
    loud = subprocess.run(cmd, env=env, capture_output=True, text=True)
    quiet = subprocess.run(cmd, env=quiet_env, capture_output=True, text=True)
    assert loud.returncode == 0 and quiet.returncode == 0
    assert "run: family=none" in loud.stderr
    assert "run: family=" not in quiet.stderr


def test_cli_import_leaves_scipy_and_the_process_pool_unloaded():
    # both cost start-up time that only tests or pooled runs need
    code = ("import sys, cad_defense.cli; "
            "print(sorted(m for m in sys.modules if m == 'scipy' "
            "or m.startswith('scipy.') or m == 'concurrent.futures.process'))")
    out = subprocess.run([sys.executable, "-c", code], env=_child_env(),
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


@pytest.mark.parametrize("demo", sorted(p.name for p in DEMOS.glob("*.py")))
def test_demo_runs(demo):
    out = subprocess.run([sys.executable, str(DEMOS / demo)], env=_child_env(),
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
