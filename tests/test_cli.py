"""Command-line interface tests: subcommands, exit codes, seed override,
report formats, log-level control, and the demos run as scripts."""

import concurrent.futures
import contextlib
import copy
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    stats = CleanStats(np.random.default_rng(0).standard_normal((5, 64)), 1e-4)
    save_clean_stats(stats, stats_dir / "clean_stats_ch0.f64")
    return {"n": 128, "stats_dir": str(stats_dir)}


def _corrupt_stats(damage):
    """Stats for the n=32 config, with one file damaged after saving."""
    def overrides(tmp_path):
        stats_dir = tmp_path / "stats"
        stats_dir.mkdir()
        path = stats_dir / "clean_stats_ch0.f64"
        save_clean_stats(CleanStats(np.random.default_rng(0).standard_normal((5, 32)),
                                    1e-4), path)
        damage(path, path.with_name(path.name + ".json"))
        return {"stats_dir": str(stats_dir)}
    return overrides


def _drop_key(key):
    def damage(_, sidecar):
        meta = json.loads(sidecar.read_text())
        del meta[key]
        sidecar.write_text(json.dumps(meta))
    return damage


def _set_key(key, value):
    def damage(_, sidecar):
        meta = json.loads(sidecar.read_text())
        meta[key] = value
        sidecar.write_text(json.dumps(meta))
    return damage


def _named(*messages_then_overrides):
    """overrides whose config error line must contain each message."""
    *messages, overrides = messages_then_overrides
    overrides.messages = messages
    return overrides


def _log_level(value):
    """The default config, run with CAD_LOG set to value."""
    overrides = _named(f"CAD_LOG={value!r}", lambda _: {})
    overrides.env = {"CAD_LOG": value}
    return overrides


# CAD_LOG values that name no level: once read as warning, now refused
BAD_LOG_LEVELS = ["verbose", "", "warn", "critical", "10", "info "]


def _cad(**entries):
    """The cad section of the default config, with entries set."""
    return lambda _: {"cad": {"k": 4, "feedback": dict(FB), **entries}}


def _clean(**entries):
    """The clean section of the default config, with entries set."""
    return lambda _: {"clean": {"kind": "sparse", "amplitude": [1.0, 2.0], **entries}}


# values the loop cannot use; each must fail as a config error, not run
BAD_CAD_VALUES = [
    ("eta", -1), ("eta", "x"), ("eta", math.nan), ("eta", True),
    ("eta_prime", math.inf), ("eta_dprime", -0.5),
    ("bandit_params", [0.07, math.nan, 1.25]), ("bandit_params", [0.07, 1.01, math.nan]),
    ("bandit_params", [0.07, 1.01, math.inf]), ("bandit_params", [math.nan, 1.01, 1.25]),
    # inner_schedule is no cad key (the schedule is fixed), whatever its value
    ("inner_schedule", [2.5, 1]), ("inner_schedule", [True, 2]),
    ("inner_schedule", [3, 0.5]),
]
# counts whose commands would never finish: each is refused up front
HUGE_COUNTS = [(key, value) for key in ("count", "stats", "bench")
               for value in (10 ** 30, 2 ** 63)]


def _huge_count(key, value):
    """The default config with the top-level, stats or bench count set to value."""
    message = "instances" if key == "count" else f"{key}.count={value}"
    return _named(message, lambda _: {"count": value} if key == "count"
                  else {key: {"count": value}})


NULL_SECTIONS = [("clean", "an object"), ("cad", "an object"), ("stats", "an object"),
                 ("attacks", "an array")]
BAD_FEEDBACK_VALUES = [
    ("t_max", 2.5), ("t_max", True), ("tau", 2.5), ("tau", True),
    ("alpha", math.nan), ("theta", math.nan), ("delta_res", math.nan),
    ("m", "big"), ("beta", True),
]


@pytest.mark.parametrize("overrides", [
    lambda _: {"attacks": [{"family": "l9"}]},
    lambda _: {"attacks": [{"family": "l2", "eta": math.nan}]},
    _named("cad.k=33", lambda _: {"cad": {"k": 33, "feedback": dict(FB)}}),
    _stats_for_n64,
    _named("attacks[0].tau=33",
           lambda _: {"attacks": [{"family": "l0", "tau": 33, "eta_prime": 0.5}]}),
    _corrupt_stats(lambda f64, _: f64.write_bytes(f64.read_bytes()[:-8])),
    _corrupt_stats(lambda _, sidecar: sidecar.write_text("{not json")),
    _corrupt_stats(lambda _, sidecar: sidecar.write_bytes(b"\xff\xfe{}")),
    _corrupt_stats(lambda _, sidecar: sidecar.write_text("[" * 10 ** 5 + "]" * 10 ** 5)),
    _corrupt_stats(_drop_key("n")),
    _corrupt_stats(_drop_key("ridge")),
    _corrupt_stats(_drop_key("rows")),
    _corrupt_stats(_set_key("ridge", -1.0)),
    _corrupt_stats(_set_key("rows", 4)),
    _corrupt_stats(_set_key("rows", 5.0)),
    _corrupt_stats(_set_key("rows", 5.7)),
    _corrupt_stats(_set_key("n", "32")),
    _corrupt_stats(_set_key("n", 32.0)),
    _corrupt_stats(_set_key("ridge", "0.0001")),
    _corrupt_stats(_set_key("ridge", True)),
    _named("stats.ridge=-1", lambda _: {"stats": {"count": 8, "ridge": -1}}),
    _named("stats.count=1", lambda _: {"stats": {"count": 1}}),
    _named("stats.n_cosamp=-1", lambda _: {"stats": {"count": 8, "n_cosamp": -1}}),
    _named("stats.cout", lambda _: {"stats": {"cout": 8}}),
    lambda _: {"cad": {"k": 4, "feedback": dict(FB, a1_precedence="or_and")}},
    lambda _: {"cad": {"k": 4, "feedback": dict(FB), "x0_mode": "zero"}},
    lambda _: {"cad": {"k": 4, "feedback": dict(FB), "final_iters": 10}},
    lambda _: {"cad": {"k": 4, "feedback": dict(FB), "inner_schedule": [3, 2]}},
    _named("clean.amplitud", lambda _: {"clean": {"kind": "sparse", "amplitud": [1.0, 2.0]}}),
    _named("bench.nn", lambda _: {"bench": {"nn": [16]}}),
    lambda _: {"attacks": [{"family": "none", "count": 5}]},
    lambda _: {"attacks": [{"family": "none", "seed": 3}]},
    _named("clean.amplitude", _clean(amplitude=[1.0])),
    _named("clean.amplitude", _clean(amplitude=[-1.0, 2.0])),
    _named("clean.amplitude", _clean(amplitude=[2.0, 1.0])),
    _named("clean.tail_norm", _clean(kind="compressible", tail_norm=-1)),
    _named("n=", lambda _: {"n": 32.9}),
    _named("n=", lambda _: {"n": "32"}),
    _named("count=", lambda _: {"count": 2.7}),
    _named("seed=", lambda _: {"seed": 5.5}),
    _named("seed=", lambda _: {"seed": -1}),
    _named("channels=", lambda _: {"channels": 1.0}),
    lambda _: {"cad": {"k": 4.5, "feedback": dict(FB)}},
    _named("clean.k", _clean(k=4.5)),
    _named("bench.n", lambda _: {"bench": {"n": [32.5]}}),
    _named("bench.k", lambda _: {"bench": {"k": [4.5]}}),
    _named("bench.count", lambda _: {"bench": {"count": 2.5}}),
    _named("stats_dir=", lambda _: {"stats_dir": 5}),
    lambda _: {"attacks": [{"family": "l0", "tau": 2.5, "eta_prime": 0.5}]},
    lambda _: {"attacks": [{"family": "l0", "tau": True, "eta_prime": 0.5}]},
    lambda _: {"attacks": [{"family": "l2", "eta": 0.5, "clip": "yes"}]},
    lambda _: {"attacks": [{"family": "l0", "tau": 3, "eta_prime": 0.5,
                            "low_freq_bias": 1}]},
    *[_named(key, _cad(**{key: value})) for key, value in BAD_CAD_VALUES],
    *[_named(key, _cad(feedback=dict(FB, **{key: value})))
      for key, value in BAD_FEEDBACK_VALUES],
    *[_cad(seed=value) for value in (0, 99, -5, 2.5, "not-an-int")],
    # n above the bound: refused before any n x n matrix is built
    _named("n=", lambda _: {"n": 16385}),
    _named("n=", lambda _: {"n": 1000000000000}),
    _named("bench.n", lambda _: {"bench": {"n": [32, 1000000000000]}}),
    *[_huge_count(key, value) for key, value in HUGE_COUNTS],
    _named("clean='sparse' must be an object", lambda _: {"clean": "sparse"}),
    _named("cad=[4] must be an object", lambda _: {"cad": [4]}),
    _named("cad.feedback='paper' must be an object",
           lambda _: {"cad": {"k": 4, "feedback": "paper"}}),
    _named("stats=8 must be an object", lambda _: {"stats": 8}),
    _named("bench=[32] must be an object", lambda _: {"bench": [32]}),
    _named("attacks={'family': 'none'} must be an array",
           lambda _: {"attacks": {"family": "none"}}),
    _named("attacks[0]='none' must be an object", lambda _: {"attacks": ["none"]}),
    # null is no section: only bench and stats_dir read it as absent
    *[_named(f"{key}=None must be {noun}", lambda _, key=key: {key: None})
      for key, noun in NULL_SECTIONS],
    _named("cad.bandit_params=0.5 must be an array", _cad(bandit_params=0.5)),
    _named("bandit_params=(0.07, 1.01)", _cad(bandit_params=[0.07, 1.01])),
    # each cell is within the bound, the grid is not
    _named("bench", "instances", lambda _: {"bench": {"n": [32, 64], "count": 10 ** 6}}),
    # a JSON boolean is no budget
    _named("attacks[0]", "eta", lambda _: {"attacks": [{"family": "l2", "eta": True}]}),
    _named("attacks[0]", "eta_dprime",
           lambda _: {"attacks": [{"family": "linf", "eta_dprime": True}]}),
    # a budget or flag the family never reads is refused, not ignored
    _named("attacks[0]", "tau, eta_dprime, low_freq_bias",
           lambda _: {"attacks": [{"family": "l2", "eta": 2.0, "low_freq_bias": True,
                                   "tau": 3, "eta_dprime": 9.0}]}),
    _named("attacks[0]", "eta_prime", lambda _: {"attacks": [{"family": "none",
                                                              "eta_prime": 0.5}]}),
    # null would read as the default ridge, which the file was not fitted with
    _corrupt_stats(_set_key("ridge", None)),
    # the bench grid is checked when the config loads, whatever the command
    _named("bench.n=[0]", lambda _: {"bench": {"n": [0]}}),
    _named("bench.k=[0]", lambda _: {"bench": {"k": [0]}}),
    _named("bench.k=99", "bench.n=32", lambda _: {"bench": {"k": [99]}}),
    _named("bench.k=8", "bench.n=4", lambda _: {"bench": {"n": [4, 32], "k": [2, 8]}}),
    _named("bench.attacks[0].tau=20", "n=16",
           lambda _: {"bench": {"n": [16, 32], "k": [4], "attacks": [
               {"family": "l0", "tau": 20, "eta_prime": 0.5}]}}),
    _named("bench.attacks[0]", "eta",
           lambda _: {"bench": {"attacks": [{"family": "l2", "eta": True}]}}),
    _named("bench.attacks[0]", lambda _: {"bench": {"attacks": ["none"]}}),
    _named("stats.count=16385",
           lambda _: {"stats": {"count": 16385}, "bench": {"n": [32, 16384]}}),
    *[_log_level(value) for value in BAD_LOG_LEVELS],
], ids=["unknown_family", "nan_budget", "k_above_n", "stats_of_other_n",
        "l0_tau_above_n", "stats_short_f64", "stats_sidecar_not_json",
        "stats_sidecar_not_utf8", "stats_sidecar_nested_too_deep",
        "stats_sidecar_without_n", "stats_sidecar_without_ridge",
        "stats_sidecar_without_rows", "stats_sidecar_negative_ridge",
        "stats_sidecar_other_rows", "stats_sidecar_rows_float",
        "stats_sidecar_rows_fraction", "stats_sidecar_n_string",
        "stats_sidecar_n_float", "stats_sidecar_ridge_string",
        "stats_sidecar_ridge_bool", "stats_negative_ridge",
        "stats_count_below_two", "stats_negative_n_cosamp",
        "stats_unknown_key", "removed_a1_precedence", "removed_x0_mode",
        "removed_final_iters", "removed_inner_schedule", "clean_unknown_key",
        "bench_unknown_key",
        "entry_count", "entry_seed", "clean_one_amplitude",
        "clean_negative_amplitude", "clean_reversed_amplitude",
        "clean_negative_tail_norm", "n_float", "n_string", "count_float",
        "seed_float", "seed_negative", "channels_float", "cad_k_float",
        "clean_k_float", "bench_n_float", "bench_k_float", "bench_count_float",
        "stats_dir_not_string", "l0_tau_float", "l0_tau_bool", "clip_string",
        "low_freq_bias_int",
        *[f"cad_{key}_{value}" for key, value in BAD_CAD_VALUES],
        *[f"feedback_{key}_{value}" for key, value in BAD_FEEDBACK_VALUES],
        *[f"cad_seed_{value}" for value in (0, 99, -5, 2.5, "not-an-int")],
        "n_above_bound", "n_huge", "bench_n_huge",
        *[f"{key}_count_{value}" for key, value in HUGE_COUNTS], "clean_not_object",
        "cad_not_object", "feedback_not_object", "stats_not_object",
        "bench_not_object", "attacks_not_list", "attack_entry_not_object",
        *[f"{key}_null" for key, _ in NULL_SECTIONS], "bandit_params_not_list",
        "bandit_params_short", "bench_grid_over_instances", "l2_eta_bool",
        "linf_eta_dprime_bool", "l2_unread_keys", "none_unread_budget",
        "stats_sidecar_ridge_null", "bench_n_zero", "bench_k_zero", "bench_k_above_n",
        "bench_k_above_a_grid_n", "bench_l0_tau_above_a_grid_n", "bench_eta_bool",
        "bench_attack_entry_not_object", "stats_count_above_a_bench_n_bound",
        *[f"log_level_{value!r}" for value in BAD_LOG_LEVELS]])
def test_bad_config_fails_fast_with_one_line(tmp_path, capsys, monkeypatch, overrides):
    for name, value in getattr(overrides, "env", {}).items():
        monkeypatch.setenv(name, value)
    cfg = _write_config(tmp_path, **overrides(tmp_path))
    code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err.splitlines()
    assert code == EXIT_CONFIG
    assert len(err) == 1 and err[0].startswith("config error:")
    assert all(message in err[0] for message in getattr(overrides, "messages", ()))
    assert not (tmp_path / "o" / "report.csv").exists()


# a valid n=16 run config that sets every top-level key but stats_dir
# (which would name files), and every clean, attack, cad, feedback, stats
# and bench key
MUTATED_BASE = {
    "n": 16, "channels": 1, "seed": 5, "count": 1,
    "clean": {"kind": "compressible", "amplitude": [1.0, 2.0], "tail_norm": 0.5, "k": 2},
    "attacks": [{"family": "l0", "tau": 2, "eta_prime": 0.5}, {"family": "l2", "eta": 0.4},
                {"family": "linf", "eta_dprime": 0.1}],
    "cad": {"k": 2, "bandit_params": [0.07, 1.01, 1.25], "eta": 0.3, "eta_prime": 0.15,
            "eta_dprime": 0.04,
            "feedback": dict(FB, count_threshold=0.5, delta_prob=0.8, delta_res=2.0,
                             t_max=40)},
    "stats": {"count": 8, "n_cosamp": 5, "ridge": 1e-4},
    "bench": {"n": [16], "k": [2], "attacks": [{"family": "none"}], "count": 1},
}
JUNK = [math.nan, math.inf, -math.inf, -1, 0, 2.5, True, None, "x", [], {}, 1e308,
        10 ** 30, 2 ** 63]
EXIT_PREFIXES = {EXIT_CONFIG: "config error:", EXIT_IO: "io error:",
                 EXIT_NUMERICAL: "numerical failure:"}


def _paths(node, path=()):
    """The path of every key and list element below node."""
    for key, value in node.items() if isinstance(node, dict) else enumerate(node):
        yield path + (key,)
        if isinstance(value, (dict, list)):
            yield from _paths(value, path + (key,))


def _at(node, path):
    for key in path:
        node = node[key]
    return node


@st.composite
def _mutated_configs(draw):
    """A copy of MUTATED_BASE with one leaf or element set to junk, one key
    deleted, or one unknown key inserted."""
    raw = copy.deepcopy(MUTATED_BASE)
    paths = list(_paths(raw))
    kind = draw(st.sampled_from(["set", "delete", "insert"]))
    if kind == "insert":
        objects = [()] + [p for p in paths if isinstance(_at(raw, p), dict)]
        _at(raw, draw(st.sampled_from(objects)))["zz_unknown"] = draw(st.sampled_from(JUNK))
        return raw
    path = draw(st.sampled_from(paths if kind == "set"
                                else [p for p in paths if isinstance(p[-1], str)]))
    if kind == "set":
        _at(raw, path[:-1])[path[-1]] = draw(st.sampled_from(JUNK))
    else:
        del _at(raw, path[:-1])[path[-1]]
    return raw


# what each command writes when it accepts a config; gen and run echo the
# config there
WRITES = {"gen": "manifest.json", "stats": "clean_stats_ch0.f64",
          "run": "report.json", "bench": "bench.csv"}


# a run that gets past validation takes about 0.1 s at n=16 and most are
# refused in milliseconds: 400 examples take about 2 s per command.  The
# slowest of every single mutation through each command took 42 ms, so an
# example that takes 5 s fails the test
@pytest.mark.parametrize("command", sorted(WRITES))
@settings(max_examples=400, deadline=5000)
@given(raw=_mutated_configs())
def test_mutated_config_run_exits_with_its_code_and_one_line(command, raw):
    # no exception escapes main; a refused config exits with its documented
    # code and one stderr line; an accepted one writes its output, and gen
    # and run echo every given top-level key but bench and unknown keys
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "config.json", Path(tmp) / "o"
        path.write_text(json.dumps(raw))
        argv = [command, "--config", str(path), "--out", str(out)]
        if command == "run":
            argv += ["--format", "json"]
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(argv)
        lines = err.getvalue().splitlines()
        if code == EXIT_OK:
            written = out / WRITES[command]
            assert written.exists()
            if command in ("gen", "run"):
                echoed = json.loads(written.read_text())["config"]
                assert (set(raw) & set(MUTATED_BASE)) - {"bench"} <= set(echoed)
        else:
            assert code in EXIT_PREFIXES
            assert len(lines) == 1 and lines[0].startswith(EXIT_PREFIXES[code])


@pytest.mark.parametrize("command", ["gen", "stats", "run", "bench"])
@pytest.mark.parametrize("bench", [{"n": [0]}, {"k": [0]}, {"k": [99]}],
                         ids=["n_zero", "k_zero", "k_above_n"])
def test_bench_grid_is_checked_for_every_command(tmp_path, capsys, command, bench):
    cfg = _write_config(tmp_path, stats={"count": 8, "ridge": 1e-4}, bench=bench)
    code = main([command, "--config", str(cfg), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err.splitlines()
    assert code == EXIT_CONFIG
    assert len(err) == 1 and err[0].startswith("config error: bench.")
    assert not (tmp_path / "o").exists()


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
@pytest.mark.parametrize("workers", ["0", "-2", str(os.cpu_count() + 1)])
def test_workers_below_one_fail_fast_with_one_line(tmp_path, capsys, monkeypatch,
                                                   command, workers):
    # below one, or above the CPU count: refused before any output
    # directory, statistics fit or worker process is made
    def refuse(*args, **kwargs):
        raise AssertionError("a process pool was built")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", refuse)
    cfg = _write_config(tmp_path, bench={"n": [32], "k": [4], "count": 2},
                        stats={"count": 8, "ridge": 1e-4})
    code = main([command, "--config", str(cfg), "--out", str(tmp_path / "o"),
                 "--workers", workers])
    err = capsys.readouterr().err.splitlines()
    assert code == EXIT_CONFIG
    assert err == [f"config error: --workers={workers} must be an integer in "
                   f"[1, {os.cpu_count()}]"]
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


# each would run nothing and write reports holding only their header lines
EMPTY_LISTS = {
    "attacks": ("run", {"attacks": []}),
    "bench_n": ("bench", {"bench": {"n": []}}),
    "bench_k": ("bench", {"bench": {"k": []}}),
    "bench_attacks": ("bench", {"bench": {"attacks": []}}),
}


@pytest.mark.parametrize("case", sorted(EMPTY_LISTS))
def test_empty_lists_fail_fast_with_one_line(tmp_path, capsys, case):
    command, overrides = EMPTY_LISTS[case]
    cfg = _write_config(tmp_path, **overrides)
    code = main([command, "--config", str(cfg), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err.splitlines()
    assert code == EXIT_CONFIG
    assert len(err) == 1 and err[0].startswith("config error:")
    assert not (tmp_path / "o").exists()


def _good_and(write_bad):
    """clean.paths of a good 32-sample PGM and a bad file write_bad makes."""
    def paths(tmp_path):
        good = tmp_path / "good.pgm"
        good.write_bytes(b"P5\n4 8\n255\n" + bytes([128] * 32))
        return [str(good), str(write_bad(tmp_path, good))]
    return paths


def _raw_signal(tmp_path, values, sidecar):
    """A raw little-endian float64 signal beside the given JSON sidecar text."""
    bad = tmp_path / "bad.raw"
    np.asarray(values, dtype="<f8").tofile(bad)
    bad.with_name("bad.raw.json").write_text(sidecar)
    return bad


def _txt_signal(tmp_path, _):
    bad = tmp_path / "bad.txt"
    bad.write_text("0.5\n" * 32)
    return bad


def _truncated_pgm(tmp_path, good):
    bad = tmp_path / "bad.pgm"
    bad.write_bytes(good.read_bytes()[:-4])
    return bad


def _raw_without_channels(tmp_path, _):
    return _raw_signal(tmp_path, np.full(32, 0.5), json.dumps({"n": 32}))


def _raw_with_nan(tmp_path, _):
    return _raw_signal(tmp_path, np.r_[np.full(31, 0.5), np.nan],
                       json.dumps({"n": 32, "channels": 1}))


def _raw_sidecar_nested_too_deep(tmp_path, _):
    return _raw_signal(tmp_path, np.full(32, 0.5), "[" * 10 ** 5 + "]" * 10 ** 5)


BAD_SIGNAL_PATHS = {
    "paths_string": lambda _: "ab",
    "paths_numbers": lambda _: [1, 2],
    "txt_suffix": _good_and(_txt_signal),
    "truncated_pgm": _good_and(_truncated_pgm),
    "raw_sidecar_without_channels": _good_and(_raw_without_channels),
    "raw_nan": _good_and(_raw_with_nan),
    "raw_sidecar_nested_too_deep": _good_and(_raw_sidecar_nested_too_deep),
}


@pytest.mark.parametrize("case", sorted(BAD_SIGNAL_PATHS))
def test_bad_signal_files_fail_stats_with_one_line(tmp_path, capsys, case):
    paths = BAD_SIGNAL_PATHS[case](tmp_path)
    cfg = _write_config(tmp_path, clean={"kind": "files", "paths": paths})
    code = main(["stats", "--config", str(cfg), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err.splitlines()
    assert code == EXIT_CONFIG
    assert len(err) == 1 and err[0].startswith("config error:")
    if isinstance(paths, list) and all(isinstance(p, str) for p in paths):
        assert Path(paths[1]).name in err[0]
    assert not list((tmp_path / "o").glob("clean_stats_*"))


def test_bench_checks_every_cell_before_running_one(tmp_path, capsys, monkeypatch):
    # no cell runs while a later one is refused
    runs = []
    monkeypatch.setattr(cad_defense.harness, "_run_ensemble",
                        lambda *args, **kwargs: runs.append(args))
    for bench, stats, message in (
        # the (8, 10) cell has k above n: the grid check refuses it as the config loads
        ({"n": [32, 8], "k": [4, 10], "count": 20}, {}, "bench.k=10"),
        # 16385 clean residuals fit n=32 but not the n=16384 cells: the
        # config load refuses them at the largest grid n
        ({"n": [32, 16384], "k": [4], "count": 20}, {"count": 16385}, "stats.count=16385"),
    ):
        cfg = _write_config(tmp_path, bench=bench, stats=stats)
        code = main(["bench", "--config", str(cfg), "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err.splitlines()
        assert code == EXIT_CONFIG
        assert len(err) == 1 and err[0].startswith(f"config error: {message}")
        assert not runs
        assert not (tmp_path / "o" / "bench.csv").exists()


@pytest.mark.parametrize("content", [
    b"\xff\xfe{}",
    b"[" * 10 ** 5 + b"]" * 10 ** 5,
    b'{"n": 32, "clean": ' + b"[" * 10 ** 5 + b"]" * 10 ** 5 + b"}",
], ids=["not_utf8", "nested_too_deep", "value_nested_too_deep"])
def test_unreadable_config_fails_fast_with_one_line(tmp_path, capsys, content):
    # a file the JSON parser cannot read is a config error, not a traceback
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    code = main(["run", "--config", str(bad), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err.splitlines()
    assert code == EXIT_CONFIG
    assert len(err) == 1 and err[0].startswith("config error:")


def test_exit_code_missing_config(tmp_path, capsys):
    code = main(["run", "--config", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path / "o")])
    assert code == EXIT_IO
    assert "io error" in capsys.readouterr().err


def test_exit_code_numerical_failure(tmp_path, capsys):
    # five residuals in 16 dimensions leave the covariance singular, and
    # with no ridge the statistics do not factor: CleanStats refuses to be
    # built from them, so the file is written as save_clean_stats would
    stats_dir = tmp_path / "stats"
    stats_dir.mkdir()
    f64 = stats_dir / "clean_stats_ch0.f64"
    np.random.default_rng(1).standard_normal((5, 16)).astype("<f8").tofile(f64)
    f64.with_name(f64.name + ".json").write_text(
        json.dumps({"n": 16, "rows": 5, "ridge": 0.0}))
    cfg = _write_config(
        tmp_path, n=16, count=1, stats_dir=str(stats_dir),
        attacks=[{"family": "l2", "eta": 4.0}],
        cad={"k": 2, "feedback": dict(FB, alpha=1.0, delta_res=0.0)})
    code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err.splitlines()
    assert code == EXIT_NUMERICAL
    assert len(err) == 1 and err[0].startswith("numerical failure: ")
    assert "5 clean residuals in dimension 16" in err[0]


# each overflows float64 somewhere between instance generation and the
# reports, which must not carry the inf or nan that follows
OVERFLOWING = {
    "l2_eta_1e308": ("run", {"attacks": [{"family": "l2", "eta": 1e308}]}),
    "l2_eta_1e200": ("run", {"attacks": [{"family": "l2", "eta": 1e200}]}),
    "clean_amplitude_1e305": ("run", {"clean": {"kind": "sparse",
                                                "amplitude": [1e300, 1e305]}}),
    "linf_gen": ("gen", {"attacks": [{"family": "linf", "eta_dprime": 1e308}]}),
    # sigma * score overflows in the bandit's mix
    "bandit_sigma_1e308": ("run", {"attacks": [{"family": "l2", "eta": 6.0}],
                                   "cad": {"k": 4, "feedback": dict(FB),
                                           "bandit_params": [0.07, 1e308, 1.25]}}),
    # lambda / p overflows in the bandit's reward on the first step
    "bandit_lambda_1e308": ("run", {"attacks": [{"family": "l2", "eta": 6.0}],
                                    "cad": {"k": 4, "feedback": dict(FB, t_max=1),
                                            "bandit_params": [0.07, 1.01, 1e308]}}),
}


@pytest.mark.parametrize("case, workers", [
    (case, workers) for case, (command, _) in sorted(OVERFLOWING.items())
    for workers in ((1, 2) if command == "run" else (1,))])
def test_overflow_is_a_numerical_failure(tmp_path, capsys, case, workers):
    command, overrides = OVERFLOWING[case]
    cfg = _write_config(tmp_path, n=16, **overrides)
    out = tmp_path / "o"
    argv = [command, "--config", str(cfg), "--out", str(out)]
    code = main(argv + (["--workers", str(workers)] if command == "run" else []))
    err = capsys.readouterr().err.splitlines()
    assert code == EXIT_NUMERICAL
    assert len(err) == 1 and err[0].startswith("numerical failure: ")
    assert not (out / "report.csv").exists() and not (out / "manifest.json").exists()


def test_non_finite_stats_file_is_a_config_error(tmp_path, capsys):
    cfg = _write_config(tmp_path, stats={"count": 8, "ridge": 1e-4})
    stats_dir = tmp_path / "stats"
    assert main(["stats", "--config", str(cfg), "--out", str(stats_dir)]) == EXIT_OK
    capsys.readouterr()
    f64 = stats_dir / "clean_stats_ch0.f64"
    values = np.fromfile(f64, dtype="<f8")
    values[40] = np.nan  # a residual entry
    values.tofile(f64)
    cfg = _write_config(tmp_path, stats_dir=str(stats_dir))
    code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err.splitlines()
    assert code == EXIT_CONFIG
    assert len(err) == 1 and err[0].startswith("config error: ")
    assert "corrupt stats" in err[0]


def test_singular_clean_stats_fail_before_the_first_instance(tmp_path, capsys):
    # three clean residuals leave a 16-dimensional covariance singular, and
    # with no ridge it does not factor: the run fails up front, although no
    # instance of this clean-only ensemble (seed 3) plays CoSaMP, the one
    # action that reads the distance
    cfg = _write_config(tmp_path, n=16, seed=3, stats={"count": 3, "ridge": 0.0})
    out = tmp_path / "o"
    code = main(["run", "--config", str(cfg), "--out", str(out)])
    err = capsys.readouterr().err.splitlines()
    assert code == EXIT_NUMERICAL
    assert len(err) == 1 and err[0].startswith("numerical failure: ")
    assert not (out / "report.csv").exists()
    # nor does the stats command write statistics no run could use
    code = main(["stats", "--config", str(cfg), "--out", str(tmp_path / "s")])
    err = capsys.readouterr().err.splitlines()
    assert code == EXIT_NUMERICAL
    assert len(err) == 1 and err[0].startswith("numerical failure: ")
    assert not list((tmp_path / "s").glob("clean_stats_*"))


@pytest.mark.parametrize("workers", [1, 2])
def test_stats_file_runs_give_the_reports_of_in_run_stats(tmp_path, capsys, workers):
    stats = {"count": 12, "n_cosamp": 5, "ridge": 1e-4}
    attacks = [{"family": "none"}, {"family": "l2", "eta": 3.0},
               {"family": "linf", "eta_dprime": 0.8}]
    fitted = _write_config(tmp_path, "fitted.json", stats=stats, attacks=attacks)
    assert main(["stats", "--config", str(fitted), "--out", str(tmp_path / "s")]) == EXIT_OK
    loaded = _write_config(tmp_path, "loaded.json", stats_dir=str(tmp_path / "s"),
                           attacks=attacks)
    for cfg, out in ((fitted, "in_run"), (loaded, "from_file")):
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / out),
                     "--workers", str(workers)]) == EXIT_OK
    capsys.readouterr()
    for name in ("report.csv", "instances.csv", "aggregate.csv"):
        assert (tmp_path / "in_run" / name).read_bytes() == \
            (tmp_path / "from_file" / name).read_bytes()


def test_stats_directory_of_the_old_covariance_layout_is_a_config_error(tmp_path, capsys):
    # n + n^2 values of a mean and a covariance: at n = 39 that is 40 rows
    # of 39, the size 40 residuals would have, but the sidecar has no rows
    n = 39
    stats_dir = tmp_path / "stats"
    stats_dir.mkdir()
    path = stats_dir / "clean_stats_ch0.f64"
    np.concatenate([np.zeros(n), np.eye(n).ravel()]).astype("<f8").tofile(path)
    (stats_dir / "clean_stats_ch0.f64.json").write_text(
        json.dumps({"n": n, "ridge": 1e-4, "source_count": 40}))
    assert path.stat().st_size == 40 * n * 8
    cfg = _write_config(tmp_path, n=n, stats_dir=str(stats_dir))
    code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err.splitlines()
    assert code == EXIT_CONFIG
    assert len(err) == 1 and err[0].startswith("config error: ")
    assert "corrupt stats" in err[0]
    assert not (tmp_path / "o" / "report.csv").exists()


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


@pytest.mark.parametrize("value", ["DEBUG", "Info", "warning", "eRRor"])
def test_log_levels_are_read_in_any_case(tmp_path, capsys, monkeypatch, value):
    monkeypatch.setenv("CAD_LOG", value)
    cfg = _write_config(tmp_path, count=1)
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_OK
    assert (tmp_path / "o" / "report.csv").exists()
    capsys.readouterr()


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


def test_readme_quickstart_runs():
    # the README's Python quickstart, run as written, keeps its printed call
    readme = (DEMOS.parent / "README.md").read_text()
    section = readme.split("## Library quickstart", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    out = subprocess.run([sys.executable, "-c", code], env=_child_env(),
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[0] == "a4"
