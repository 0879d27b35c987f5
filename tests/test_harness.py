"""Harness tests: ensemble generation, stats estimation, runs, aggregates,
benchmarks, and report determinism."""

import concurrent.futures
import copy
import csv
import hashlib
import json
import math
import os
import pickle
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cad_defense.harness
from cad_defense.feedback import load_clean_stats
from cad_defense.harness import (ConfigError, ExperimentConfig,
                                 _build_instance, _resolve_stats, _write_csv,
                                 cmd_bench, cmd_gen, cmd_run, cmd_stats,
                                 designated_action)
from cad_defense.transform import SensingOperator

FB = {"alpha": 8.0, "beta": 5.0, "m": 1.8, "tau": 15, "theta": 65.0}


def _raw(**overrides):
    raw = {
        "n": 64, "seed": 3, "count": 20,
        "clean": {"kind": "sparse", "amplitude": [1.0, 2.0]},
        "attacks": [{"family": "none"}],
        "cad": {"k": 6, "feedback": dict(FB)},
    }
    raw.update(overrides)
    return raw


def _csv_rows(path):
    """The data rows of a report CSV as strings, past its '#' header lines."""
    lines = [ln for ln in Path(path).read_text().splitlines() if not ln.startswith("#")]
    return list(csv.DictReader(lines))


# ---------------------------------------------------------------------------
# gen


def test_gen_l2_budgets_exact(tmp_path):
    raw = _raw(n=784, count=25, seed=11,
               clean={"kind": "compressible", "amplitude": [4.5, 7.0],
                      "tail_norm": 0.5},
               attacks=[{"family": "l2", "eta": 0.3}],
               cad={"k": 80, "feedback": dict(FB)})
    manifest = cmd_gen(ExperimentConfig.from_dict(raw), tmp_path)
    assert len(manifest["instances"]) == 25
    for row in manifest["instances"]:
        assert abs(row["budget_l2"] - 0.3) <= 1e-9
        assert (tmp_path / row["file"]).exists()
    payload = json.loads((tmp_path / manifest["instances"][0]["file"]).read_text())
    inst = payload["channels"][0]
    assert len(inst["observed"]) == 784
    assert abs(np.linalg.norm(inst["perturbation"]) - 0.3) <= 1e-9


def test_gen_rerun_is_byte_identical(tmp_path):
    raw = _raw(count=6, attacks=[{"family": "l0", "tau": 4, "eta_prime": 0.5},
                                 {"family": "none"}])
    for sub in ("a", "b"):
        cmd_gen(ExperimentConfig.from_dict(raw), tmp_path / sub)
    a, b = tmp_path / "a", tmp_path / "b"
    assert (a / "manifest.json").read_bytes() == (b / "manifest.json").read_bytes()
    for f in sorted(p.name for p in (a / "instances").iterdir()):
        assert (a / "instances" / f).read_bytes() == (b / "instances" / f).read_bytes()


def test_gen_instances_depend_only_on_index(tmp_path):
    # regenerating index 4 in isolation reproduces the ensemble file exactly
    raw = _raw(count=6, attacks=[{"family": "l2", "eta": 0.7}])
    cfg = ExperimentConfig.from_dict(raw)
    cmd_gen(cfg, tmp_path)
    op = SensingOperator(cfg.n)
    solo = _build_instance(cfg, op, 4, cfg.attacks[0])[0]
    payload = json.loads((tmp_path / "instances" / "inst_00004.json").read_text())
    stored = payload["channels"][0]
    for name in ("observed", "clean_spectral", "perturbation"):
        assert np.array_equal(getattr(solo, name), stored[name])


# ---------------------------------------------------------------------------
# stats


def test_stats_exact_sparse_has_tiny_mean(tmp_path, capsys):
    raw = _raw(n=32, cad={"k": 4, "feedback": dict(FB)},
               stats={"count": 24, "ridge": 1e-6})
    paths = cmd_stats(ExperimentConfig.from_dict(raw), tmp_path)
    assert [p.name for p in paths] == ["clean_stats_ch0.f64"]
    st = load_clean_stats(paths[0])
    assert st.n == 32 and st.source_count == 24
    assert np.linalg.norm(st.mean) <= 1e-8
    out = capsys.readouterr().out
    assert "channel 0:" in out and "ridge" in out


def _write_ppm(path, reds, greens, blues):
    n = len(reds)
    body = bytearray()
    for i in range(n):
        body += bytes([reds[i], greens[i], blues[i]])
    Path(path).write_bytes(f"P6\n{n} 1\n255\n".encode() + bytes(body))


def test_stats_from_ppm_corpus(tmp_path):
    n = 16
    rng = np.random.default_rng(70)
    files = []
    for i in range(3):
        p = tmp_path / f"img_{i}.ppm"
        q = rng.integers(0, 256, size=(3, n))
        _write_ppm(p, q[0], q[1], q[2])
        files.append(str(p))
    raw = _raw(n=n, channels=3,
               clean={"kind": "files", "paths": files},
               cad={"k": 2, "feedback": dict(FB)},
               stats={"ridge": 1e-3})
    paths = cmd_stats(ExperimentConfig.from_dict(raw), tmp_path / "out")
    assert [p.name for p in paths] == [f"clean_stats_ch{c}.f64" for c in range(3)]
    for p in paths:
        assert load_clean_stats(p).source_count == 3

    short = dict(raw, clean={"kind": "files", "paths": files[:1]})
    with pytest.raises(ConfigError, match="at least two"):
        cmd_stats(ExperimentConfig.from_dict(short), tmp_path / "short")


# ---------------------------------------------------------------------------
# run


def test_run_clean_ensemble_and_determinism(tmp_path):
    cfg = ExperimentConfig.from_dict(_raw())
    res = cmd_run(cfg, tmp_path / "a")
    agg = res["aggregates"]
    assert len(agg) == 1 and agg[0]["family"] == "none"
    assert agg[0]["identification_rate"] >= 0.95
    assert agg[0]["residual_stop_rate"] >= 0.95

    header = (tmp_path / "a" / "report.csv").read_text().splitlines()[:4]
    assert header[0] == "# n=64 channels=1 seed=3 count=20"
    assert "k=6 alpha=8.0 beta=5.0 m=1.8 tau=15 theta=65.0" in header[1]
    assert "gamma=0.07 sigma=1.01 lambda=1.25" in header[2]
    assert "eta=0.3 eta_prime=0.15 eta_dprime=0.04" in header[3]

    timings = _csv_rows(tmp_path / "a" / "timings.csv")
    assert len(timings) == 20
    assert all(float(row["wall_s"]) >= 0.0 for row in timings)

    cmd_run(cfg, tmp_path / "b")
    for name in ("report.csv", "instances.csv", "aggregate.csv"):
        assert (tmp_path / "a" / name).read_bytes() == \
            (tmp_path / "b" / name).read_bytes()


def test_run_parallel_matches_serial(tmp_path, monkeypatch):
    cfg = ExperimentConfig.from_dict(_raw(n=32, count=8,
                                          cad={"k": 4, "feedback": dict(FB)}))
    cmd_run(cfg, tmp_path / "serial", workers=1)
    # one BLAS variable set and two unset: both kinds must come back as they were
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    environ = dict(os.environ)
    cmd_run(cfg, tmp_path / "pool", workers=2)
    assert dict(os.environ) == environ  # the pool's BLAS thread pins are undone
    for name in ("report.csv", "instances.csv", "aggregate.csv"):
        assert (tmp_path / "serial" / name).read_bytes() == \
            (tmp_path / "pool" / name).read_bytes()


def test_pool_workers_receive_the_parents_whitening(tmp_path, monkeypatch):
    # the clean statistics are factored when built, in the parent, before
    # the pool starts: a worker unpickles the parent's factor bytes and
    # factors nothing itself, whatever BLAS thread count it runs under
    cfg = ExperimentConfig.from_dict(_raw(
        n=32, count=8, attacks=[{"family": "none"}, {"family": "l2", "eta": 3.0}],
        cad={"k": 4, "feedback": dict(FB)}, stats={"count": 8, "ridge": 1e-4}))
    fitted = _resolve_stats(cfg, SensingOperator(cfg.n))[0]
    parent = (fitted.basis, fitted.scale)
    seen = []

    def refuse(*args, **kwargs):
        raise AssertionError("a pool worker factored the clean statistics")

    class SpawnedPool:
        """Pickles the initializer's arguments, as spawning a worker does,
        and runs the worker in this process."""

        def __init__(self, max_workers, mp_context, initializer, initargs):
            monkeypatch.setattr(np.linalg, "svd", refuse)
            initializer(*pickle.loads(pickle.dumps(initargs)))
            received = cad_defense.harness._POOL["stats"][0]
            seen.append((received.basis, received.scale))

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks, chunksize=1):
            return list(map(fn, tasks))

    monkeypatch.setattr(cad_defense.harness, "_POOL", {})
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SpawnedPool)
    cmd_run(cfg, tmp_path / "pool", workers=2)
    [factor] = seen
    assert [a.tobytes() for a in factor] == [a.tobytes() for a in parent]


# SHA-256 of the reports of a small full-operator run with clean stats,
# recorded with numpy 2.4 and OpenBLAS 0.3.31 on x86-64 (another BLAS may
# round the products differently).  A refactor that moves a bit of any
# report fails here; a change that moves bits on purpose records them
# again and names the fields that moved.  report.csv was re-recorded when
# the full-operator residual became a product over the estimate's support:
# its residual_l2 field moved by rounding in 14 of the 24 rows.
GOLDEN_REPORTS = {
    "report.csv": "df33e9b5e10d28f37f71d2959f227e9b6dcf0d5c25066ad82308da3295cc5652",
    "instances.csv": "f83af2e2a2267576f53079c251762d3453bc72052290ee4107bef9e8b9e3aae8",
    "aggregate.csv": "927716012965d7a6a6e651ae99438e294f25d9cdae23789f8086d28d6516677b",
}


def test_run_reports_match_their_golden_digests(tmp_path):
    # the calls span the clean check, the fallback and two attack labels,
    # runs stop on probability and on the residual, and CoSaMP's bit reads
    # the distance
    raw = _raw(n=64, seed=3, count=6,
               clean={"kind": "compressible", "amplitude": [4.5, 7.0], "tail_norm": 0.5},
               attacks=[{"family": "l0", "tau": 4, "eta_prime": 4.0},
                        {"family": "l2", "eta": 20.0},
                        {"family": "linf", "eta_dprime": 4.0}, {"family": "none"}],
               cad={"k": 8, "feedback": dict(FB)},
               stats={"count": 16, "n_cosamp": 5, "ridge": 1e-4})
    cmd_run(ExperimentConfig.from_dict(raw), tmp_path)
    labels = {r["method_label"] for r in _csv_rows(tmp_path / "report.csv")}
    assert labels == {"a1", "a3", "a4", "cosamp_fallback"}
    for name, digest in GOLDEN_REPORTS.items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name


def test_run_json_format(tmp_path):
    cfg = ExperimentConfig.from_dict(_raw(count=4))
    res = cmd_run(cfg, tmp_path, fmt="json")
    payload = json.loads((tmp_path / "report.json").read_text())
    assert set(payload) == {"config", "rows", "instances", "aggregates"}
    assert payload["config"]["seed"] == 3
    assert payload["aggregates"] == json.loads(json.dumps(res["aggregates"]))
    assert (tmp_path / "timings.csv").exists()
    assert not (tmp_path / "report.csv").exists()
    with pytest.raises(ConfigError):
        cmd_run(cfg, tmp_path, fmt="tsv")


def test_aggregate_recomputable_from_instances(tmp_path):
    raw = _raw(count=6, attacks=[{"family": "none"},
                                 {"family": "l2", "eta": 0.5},
                                 {"family": "gradient_proxy", "eta_dprime": 0.2}])
    cmd_run(ExperimentConfig.from_dict(raw), tmp_path)
    instances = _csv_rows(tmp_path / "instances.csv")
    assert len(instances) == 18 and len(_csv_rows(tmp_path / "report.csv")) == 18
    by_family = {a["family"]: a for a in _csv_rows(tmp_path / "aggregate.csv")}
    assert set(by_family) == {"none", "l2", "gradient_proxy"}
    assert by_family["gradient_proxy"]["identification_rate"] == ""
    for family, agg in by_family.items():
        rows = [r for r in instances if r["family"] == family]
        assert int(agg["count"]) == len(rows) == 6
        idents = [int(r["identified"]) for r in rows if r["identified"]]
        if idents:
            assert abs(float(agg["identification_rate"])
                       - sum(idents) / len(idents)) <= 1e-12
        errs = np.array([float(r["err_l2"]) for r in rows])
        assert abs(float(agg["mean_err_l2"]) - errs.mean()) <= 1e-12
        assert abs(float(agg["median_err_l2"]) - np.median(errs)) <= 1e-12
        assert abs(float(agg["fallback_rate"])
                   - np.mean([int(r["fallback"]) for r in rows])) <= 1e-12
        for label in ("a1", "a2", "a3", "a4", "cosamp_fallback"):
            assert int(agg[f"method_{label}"]) == sum(
                r["method_label"] == label for r in rows)


def test_csv_round_trip_preserves_types(tmp_path):
    rows = [{"i": 7, "x": 0.1 + 0.2, "s": "a3", "none": None},
            {"i": -2, "x": 1e-17, "s": "cosamp_fallback", "none": 3.5}]
    path = tmp_path / "t.csv"
    _write_csv(path, rows, ["hdr line"])
    assert path.read_text() == ("# hdr line\n"
                                "i,x,s,none\n"
                                "7,0.30000000000000004,a3,\n"
                                "-2,1e-17,cosamp_fallback,3.5\n")
    # repr floats read back exactly
    assert [float(r["x"]) for r in _csv_rows(path)] == [0.1 + 0.2, 1e-17]
    _write_csv(path, [], ["one", "two"])
    assert path.read_text() == "# one\n# two\n"


# ---------------------------------------------------------------------------
# bench


def test_bench_single_cell_matches_run(tmp_path):
    entry = {"family": "l2", "eta": 0.5}
    raw = _raw(n=32, count=6, cad={"k": 4, "feedback": dict(FB)},
               bench={"n": [32], "k": [4], "count": 6, "attacks": [entry]})
    cells = cmd_bench(ExperimentConfig.from_dict(raw), tmp_path / "bench")
    assert len(cells) == 1

    run_raw = _raw(n=32, count=6, cad={"k": 4, "feedback": dict(FB)},
                   attacks=[entry])
    res = cmd_run(ExperimentConfig.from_dict(run_raw), tmp_path / "run")
    errs = np.array([r["err_l2"] for r in res["instances"]])
    assert cells[0]["median_err_l2"] == float(np.median(errs))
    assert cells[0]["n"] == 32 and cells[0]["k"] == 4 and cells[0]["count"] == 6
    rows = _csv_rows(tmp_path / "bench" / "bench.csv")
    assert float(rows[0]["median_err_l2"]) == cells[0]["median_err_l2"]


def test_bench_eta_sweep_errors_monotone(tmp_path):
    raw = _raw(seed=1,
               bench={"n": [64], "k": [6], "count": 10,
                      "attacks": [{"family": "l2", "eta": 0.1},
                                  {"family": "l2", "eta": 0.2},
                                  {"family": "l2", "eta": 0.3}]})
    cells = cmd_bench(ExperimentConfig.from_dict(raw), tmp_path)
    medians = [c["median_err_l2"] for c in cells]
    assert medians == sorted(medians)
    assert medians[0] < medians[-1]


def test_bench_requires_section(tmp_path):
    cfg = ExperimentConfig.from_dict(_raw())
    with pytest.raises(ConfigError, match="bench"):
        cmd_bench(cfg, tmp_path)


# ---------------------------------------------------------------------------
# config parsing


def test_config_requires_core_fields():
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"cad": {"k": 2, "feedback": dict(FB)}})
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"n": 16})
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(_raw(channels=2))
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(_raw(clean={"kind": "images"}))
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(_raw(attacks=[{"eta": 0.3}]))
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(_raw(count=0))
    # parsing builds no operator, so the bound is checked without allocating
    assert ExperimentConfig.from_dict(_raw(n=16384)).n == 16384
    for raw in (_raw(n=16385), _raw(bench={"n": [64, 16385]})):
        with pytest.raises(ConfigError, match="exceeds the largest supported n=16384"):
            ExperimentConfig.from_dict(raw)
    for key, value, noun in (("clean", "sparse", "an object"), ("cad", [6], "an object"),
                             ("stats", 8, "an object"), ("bench", [64], "an object"),
                             ("attacks", {"family": "none"}, "an array")):
        with pytest.raises(ConfigError, match=f"^{key}=.* must be {noun}$"):
            ExperimentConfig.from_dict(_raw(**{key: value}))
    with pytest.raises(ConfigError, match="must be a JSON object"):
        ExperimentConfig.from_dict([_raw()])


def test_null_bench_and_stats_dir_read_as_absent():
    cfg = ExperimentConfig.from_dict(_raw(bench=None, stats_dir=None))
    assert cfg.bench is None and cfg.stats_dir is None


# a small valid config that sets every harness-owned key, each family's
# budgets and every cad and feedback key
VALID = {
    "n": 32, "channels": 1, "seed": 5, "count": 2, "stats_dir": "stats",
    "clean": {"kind": "compressible", "amplitude": [1.0, 2.0], "tail_norm": 0.5, "k": 4},
    "attacks": [{"family": "l0", "tau": 3, "eta_prime": 0.5}, {"family": "l2", "eta": 0.4},
                {"family": "linf", "eta_dprime": 0.1}],
    "cad": {"k": 4, "bandit_params": [0.07, 1.01, 1.25], "eta": 0.3, "eta_prime": 0.15,
            "eta_dprime": 0.04,
            "feedback": dict(FB, count_threshold=0.5, delta_prob=0.8, delta_res=2.0,
                             t_max=40)},
    "stats": {"count": 8, "n_cosamp": 5, "ridge": 1e-4},
    "bench": {"n": [32], "k": [4], "attacks": [{"family": "none"}], "count": 2},
}
JUNK = [math.nan, math.inf, -math.inf, -1, 0, 2.5, True, None, "x", [], {}, 1e308,
        10 ** 30, 2 ** 63]


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


PATHS = list(_paths(VALID))
KEY_PATHS = [p for p in PATHS if isinstance(p[-1], str)]
DICT_PATHS = [()] + [p for p in PATHS if isinstance(_at(VALID, p), dict)]


@st.composite
def _mutations(draw):
    """A copy of VALID with one leaf or element set to junk, one key deleted,
    or one unknown key inserted, and the key name the change is under."""
    raw = copy.deepcopy(VALID)
    kind = draw(st.sampled_from(["set", "delete", "insert"]))
    if kind == "insert":
        _at(raw, draw(st.sampled_from(DICT_PATHS)))["zz_unknown"] = draw(st.sampled_from(JUNK))
        return raw, "zz_unknown"
    path = draw(st.sampled_from(PATHS if kind == "set" else KEY_PATHS))
    parent = _at(raw, path[:-1])
    if kind == "set":
        parent[path[-1]] = draw(st.sampled_from(JUNK))
    else:
        del parent[path[-1]]
    return raw, [key for key in path if isinstance(key, str)][-1]


def test_valid_config_loads():
    assert ExperimentConfig.from_dict(copy.deepcopy(VALID)).echo()["n"] == 32


def test_echo_keeps_a_given_empty_stats_section():
    # an accepted config echoes every top-level key it gave but bench,
    # stats_dir and unknown keys; no stats section echoes none
    raw = {key: value for key, value in VALID.items() if key not in ("stats", "stats_dir")}
    assert "stats" not in ExperimentConfig.from_dict(raw).echo()
    assert ExperimentConfig.from_dict(dict(raw, stats={})).echo()["stats"] == {}


@settings(max_examples=400, deadline=None)
@given(_mutations())
def test_mutated_config_loads_or_names_the_mutated_key(mutation):
    # the parser either accepts the config or refuses it with a ConfigError
    # (any other exception fails the test) whose message names the key
    raw, key = mutation
    try:
        ExperimentConfig.from_dict(raw)
    except ConfigError as exc:
        assert key in str(exc)


def test_config_from_json_paths(tmp_path):
    good = tmp_path / "good.json"
    good.write_text(json.dumps(_raw()))
    cfg = ExperimentConfig.from_json(good)
    assert cfg.n == 64 and cfg.cad.k == 6 and cfg.cad.feedback.alpha == 8.0

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError, match="invalid JSON"):
        ExperimentConfig.from_json(bad)
    with pytest.raises(OSError):
        ExperimentConfig.from_json(tmp_path / "missing.json")


def test_designated_action_map():
    assert designated_action("none") == 0
    assert designated_action("l0") == 1
    assert designated_action("l1") == 2
    assert designated_action("l2") == 2
    assert designated_action("linf") == 3
    assert designated_action("gradient_proxy") is None
