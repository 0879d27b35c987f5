"""Experiment harness: ensemble generation, statistics, runs, benchmarks.

A single JSON experiment config drives everything.  Instances are seeded
per index from the master seed, so any subset of instances can be
regenerated independently and reruns are byte-identical.  Wall-clock
measurements go to a separate timings sidecar; the primary reports contain
only deterministic fields.
"""

from __future__ import annotations

import dataclasses
import json
import logging
import os
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .attacks import (AdversarialInstance, AttackSpec, load_signal_channels,
                      make_clean_compressible, make_clean_sparse, perturb)
from .cad import ACTION_LABELS, FALLBACK_LABEL, CadConfig, cad_run
from .feedback import (CleanStats, FeedbackConfig, estimate_clean_stats,
                       load_clean_stats, save_clean_stats)
from .recovery import A_COSAMP, A_L0, A_L2, A_LINF
from .transform import SensingOperator, _is_number, best_k_term_error

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "designated_action",
    "cmd_gen",
    "cmd_stats",
    "cmd_run",
    "cmd_bench",
]

log = logging.getLogger("cad_defense")

# which action each attack family should be identified as
_DESIGNATED = {"none": A_COSAMP, "l0": A_L0, "l1": A_L2, "l2": A_L2, "linf": A_LINF}


# the largest n a config may set: the n x n float64 DCT matrix alone is 2 GiB
_MAX_N = 16_384
# the most instances (count x attack entries) one config, or bench grid, may ask for
_MAX_INSTANCES = 10 ** 6
_MAX_FLOAT = float(np.finfo(np.float64).max)


class ConfigError(Exception):
    """Invalid or inconsistent experiment configuration."""


def designated_action(family: str) -> int | None:
    """Ground-truth action for a family; None when there is none to match."""
    return _DESIGNATED.get(family)


def _finite(value) -> bool:
    """A finite number >= 0; stated as what must hold, so that NaN fails it."""
    return _is_number(value) and 0 <= value <= _MAX_FLOAT


def _integer(least: int, most: float = np.inf) -> tuple:
    """The noun and check of a JSON integer in [least, most]."""
    bound = f">= {least}" if most == np.inf else f"in [{least}, {most}]"
    return f"an integer {bound}", lambda v: _is_number(v, int) and least <= v <= most


# The harness-owned keys: section -> key -> (what the value must be, its
# check, its default).  Every section but the top level ("") refuses unknown
# keys; CadConfig, FeedbackConfig and AttackSpec check cad and the attack
# entries.  A None default is required (n, cad) or read from elsewhere:
# clean.k from cad.k, and each bench axis from the run's own value.
_CLEAN = {
    "kind": ("'sparse', 'compressible' or 'files'",
             lambda v: v in ("sparse", "compressible", "files"), "sparse"),
    "amplitude": ("two finite numbers lo, hi with 0 < lo <= hi",
                  lambda v: isinstance(v, (list, tuple)) and len(v) == 2
                  and all(_finite(a) for a in v) and 0 < v[0] <= v[1], (1.0, 2.0)),
    "tail_norm": ("a finite number >= 0", _finite, 0.5),
    "k": (*_integer(1), None),
    "paths": ("a list of strings",
              lambda v: isinstance(v, list) and all(isinstance(p, str) for p in v), ()),
}
_SCHEMA = {
    "": {
        "n": (f"an integer in [1, {_MAX_N}] (a larger one exceeds the largest "
              f"supported n={_MAX_N})", _integer(1, _MAX_N)[1], None),
        "channels": ("1 or 3", lambda v: _is_number(v, int) and v in (1, 3), 1),
        "seed": (*_integer(0), 0),
        "count": (*_integer(1), 1),
        "stats_dir": ("a string", lambda v: v is None or isinstance(v, str), None),
        # an absent clean section is echoed as its default kind and amplitude
        "clean": ("an object", lambda v: isinstance(v, dict),
                  {key: _CLEAN[key][2] for key in ("kind", "amplitude")}),
        "cad": ("an object", lambda v: isinstance(v, dict), None),
        "stats": ("an object", lambda v: isinstance(v, dict), {}),
        "bench": ("an object", lambda v: v is None or isinstance(v, dict), None),
        "attacks": ("an array", lambda v: isinstance(v, list), [{"family": "none"}]),
    },
    "clean": _CLEAN,
    "stats": {
        "count": (*_integer(2), 32),
        "n_cosamp": (*_integer(0), 5),
        "ridge": ("null or a finite number >= 0", lambda v: v is None or _finite(v), None),
    },
    # an empty axis would make an empty grid
    "bench": {
        "n": (f"a non-empty list of integers >= 1, none of which exceeds the largest "
              f"supported n={_MAX_N}", lambda v: isinstance(v, list) and v != []
              and all(_integer(1, _MAX_N)[1](n) for n in v), None),
        "k": ("a non-empty list of integers >= 1", lambda v: isinstance(v, list)
              and v != [] and all(_integer(1)[1](k) for k in v), None),
        "attacks": ("a non-empty list", lambda v: isinstance(v, list) and v != [], None),
        "count": (*_integer(1, _MAX_INSTANCES), None),
    },
}


def _check(section: str, entries: dict) -> None:
    """Each entry of a config section against its schema row."""
    rows = _SCHEMA[section]
    for key, value in entries.items():
        name = f"{section}.{key}" if section else key
        if key not in rows:
            raise ConfigError(f"{name} is not a {section} key ({', '.join(rows)})")
        noun, ok, _ = rows[key]
        if not ok(value):
            raise ConfigError(f"{name}={value!r} must be {noun}")


def _construct(name: str, make):
    """make(), its TypeError or ValueError a config error naming the section."""
    try:
        return make()
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{name}: {exc}") from exc


def _setting(cfg: "ExperimentConfig", section: str, key: str):
    """The clean or stats value of key, or its schema default."""
    return getattr(cfg, section).get(key, _SCHEMA[section][key][2])


def _bench_axes(cfg: "ExperimentConfig") -> tuple[list, list, list, int]:
    """The bench axes n, k, attacks and the count per cell, the run's own by default."""
    bench = cfg.bench or {}
    return (bench.get("n", [cfg.n]), bench.get("k", [cfg.cad.k]),
            bench.get("attacks", cfg.attacks), bench.get("count", cfg.count))


@dataclass
class ExperimentConfig:
    """Parsed experiment description; see _SCHEMA for the harness's keys."""

    n: int
    channels: int
    seed: int
    clean: dict
    attacks: list[dict]
    count: int
    cad: CadConfig
    stats: dict
    stats_dir: str | None
    bench: dict | None
    raw: dict

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        if not isinstance(d, dict):
            raise ConfigError(f"the config must be a JSON object, got {d!r}")
        top = {key: d.get(key, row[2]) for key, row in _SCHEMA[""].items()}
        _check("", top)
        for section in ("clean", "stats", "bench"):
            _check(section, top[section] or {})
        cad_d = dict(top["cad"])
        feedback = cad_d.pop("feedback", None)
        shapes = [(f"attacks[{i}]", a, dict) for i, a in enumerate(top["attacks"])]
        shapes += [("cad.feedback", feedback, dict),
                   ("cad.bandit_params", cad_d.get("bandit_params", ()), (list, tuple))]
        for name, value, kind in shapes:
            if not isinstance(value, kind):
                noun = "an object" if kind is dict else "an array"
                raise ConfigError(f"{name}={value!r} must be {noun}")
        # instance seeds derive from the master seed, and channels is one setting
        misplaced = sorted({"seed", "channels"} & set(cad_d))
        if misplaced:
            raise ConfigError(f"cad.{misplaced[0]} is not a cad key: set the "
                              f"top-level {misplaced[0]}")
        if "bandit_params" in cad_d:
            cad_d["bandit_params"] = tuple(cad_d["bandit_params"])
        fb = _construct("cad.feedback", lambda: FeedbackConfig(**feedback))
        cad = _construct("cad", lambda: CadConfig(feedback=fb, **cad_d))
        cfg = cls(n=top["n"], channels=top["channels"], seed=top["seed"],
                  clean=dict(top["clean"]), attacks=[dict(a) for a in top["attacks"]],
                  count=top["count"], cad=cad, stats=dict(top["stats"]),
                  stats_dir=top["stats_dir"], bench=top["bench"] and dict(top["bench"]),
                  raw=d)
        # the rules that span keys, each key having passed its own row; an
        # attack entry must hold at n, and a bench one at every grid n
        n, count, attacks = cfg.n, cfg.count, cfg.attacks
        grid_n, grid_k, grid_attacks, per_cell = _bench_axes(cfg)
        for key, entries, least_n in (("attacks", attacks, n),
                                      ("bench.attacks", grid_attacks, min(grid_n))):
            for i, entry in enumerate(entries):
                spec = _construct(f"{key}[{i}]", lambda: AttackSpec(seed=0, **entry))
                if spec.family == "l0" and spec.tau > least_n:
                    raise ConfigError(f"{key}[{i}].tau={spec.tau} must be at most n={least_n}")
        clean_k, stats_count = cfg.clean.get("k", cad.k), _setting(cfg, "stats", "count")
        widest = max(n, *grid_n)
        cells = len(grid_n) * len(grid_k) * len(grid_attacks)
        for broken, message in (
            (not attacks, "attacks=[] must list at least one attack entry"),
            (cad.k > n, f"cad.k={cad.k} must be an integer in [1, n={n}]"),
            (clean_k > n, f"clean.k={clean_k} must be an integer in [1, n={n}]"),
            (count * len(attacks) > _MAX_INSTANCES, f"count={count} x {len(attacks)} "
             f"attack entries exceeds the largest supported {_MAX_INSTANCES} instances"),
            # the count x n residual matrix no larger than the largest DCT
            # matrix, at the run's n and at every bench grid n
            (stats_count * widest > _MAX_N ** 2, f"stats.count={stats_count} must be "
             f"at most {_MAX_N ** 2 // widest} at n={widest}"),
            (cells * per_cell > _MAX_INSTANCES, f"bench: {cells} grid cells x count="
             f"{per_cell} exceeds the largest supported {_MAX_INSTANCES} instances"),
            (max(grid_k) > min(grid_n),
             f"bench.k={max(grid_k)} must be at most the smallest bench.n={min(grid_n)}"),
        ):
            if broken:
                raise ConfigError(message)
        return cfg

    @classmethod
    def from_json(cls, path) -> "ExperimentConfig":
        # a file that is not UTF-8, not JSON, or nested deeper than the parser recurses
        try:
            d = json.loads(Path(path).read_text(encoding="utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
            raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
        return cls.from_dict(d)

    def echo(self) -> dict:
        """Deterministic, JSON-ready copy of the effective configuration; a
        stats section appears when it was given, even empty."""
        out = {
            "n": self.n, "channels": self.channels, "seed": self.seed,
            "clean": self.clean, "attacks": self.attacks, "count": self.count,
            "cad": dataclasses.asdict(self.cad),
        }
        if self.stats or "stats" in self.raw:
            out["stats"] = self.stats
        return out


def _require_synthetic(cfg: ExperimentConfig) -> None:
    """Instances are drawn from the synthetic clean kinds only."""
    if _setting(cfg, "clean", "kind") == "files":
        raise ConfigError('clean.kind "files" only serves the stats command')


# ---------------------------------------------------------------------------
# instance construction


def _clean_rng(cfg: ExperimentConfig, index: int, channel: int) -> np.random.Generator:
    return np.random.default_rng([cfg.seed, index, 2 * channel])


def _attack_seed(cfg: ExperimentConfig, index: int, channel: int) -> int:
    return int(np.random.default_rng([cfg.seed, index, 2 * channel + 1]).integers(2 ** 62))


def _loop_seed(cfg: ExperimentConfig, index: int, channel: int) -> int:
    return int(np.random.default_rng([cfg.seed, index, 2 ** 30 + channel]).integers(2 ** 62))


def _draw_clean(cfg: ExperimentConfig, rng: np.random.Generator) -> np.ndarray:
    amp = tuple(_setting(cfg, "clean", "amplitude"))
    k = cfg.clean.get("k", cfg.cad.k)
    if _setting(cfg, "clean", "kind") == "compressible":
        return make_clean_compressible(cfg.n, k, rng, amp,
                                       float(_setting(cfg, "clean", "tail_norm")))
    return make_clean_sparse(cfg.n, k, rng, amp)


def _attack_entries(cfg: ExperimentConfig) -> list[tuple[int, dict]]:
    """Flat (index, attack entry) list: count instances per attack entry."""
    return list(enumerate(entry for entry in cfg.attacks for _ in range(cfg.count)))


def _build_instance(cfg: ExperimentConfig, op: SensingOperator, index: int,
                    entry: dict) -> list[AdversarialInstance]:
    """Per-channel adversarial instances for one index, fully seed-derived."""
    insts = []
    for ch in range(cfg.channels):
        spec = AttackSpec(seed=_attack_seed(cfg, index, ch), **entry)
        clean = _draw_clean(cfg, _clean_rng(cfg, index, ch))
        insts.append(perturb(clean, spec, op))
    return insts


# ---------------------------------------------------------------------------
# stats


def _stats_signals(cfg: ExperimentConfig, op: SensingOperator, channel: int):
    rng = np.random.default_rng([cfg.seed, 2 ** 31 + channel])
    for _ in range(_setting(cfg, "stats", "count")):
        yield op.synthesize(_draw_clean(cfg, rng))


def _file_signals(cfg: ExperimentConfig) -> list[list[np.ndarray]]:
    paths = sorted(_setting(cfg, "clean", "paths"))
    if len(paths) < 2:
        raise ConfigError("files-based stats need at least two input signals")
    per_channel: list[list[np.ndarray]] = [[] for _ in range(cfg.channels)]
    for p in paths:
        try:
            vals, channels = load_signal_channels(p)
        except (KeyError, TypeError, ValueError, RecursionError) as exc:
            raise ConfigError(f"{p}: bad signal file: {exc}") from exc
        if channels != cfg.channels:
            raise ConfigError(f"{p}: has {channels} channels, config says {cfg.channels}")
        if vals.size != cfg.n * cfg.channels:
            raise ConfigError(f"{p}: expected {cfg.n * cfg.channels} samples")
        for ch in range(channels):
            per_channel[ch].append(vals[ch * cfg.n:(ch + 1) * cfg.n])
    return per_channel


def _compute_stats(cfg: ExperimentConfig, op: SensingOperator) -> list[CleanStats]:
    signals = (_file_signals(cfg) if _setting(cfg, "clean", "kind") == "files"
               else [_stats_signals(cfg, op, ch) for ch in range(cfg.channels)])
    return [estimate_clean_stats(sigs, op, cfg.cad.k,
                                 n_cosamp=_setting(cfg, "stats", "n_cosamp"),
                                 ridge=_setting(cfg, "stats", "ridge"))
            for sigs in signals]


def _load_stats(cfg: ExperimentConfig) -> list[CleanStats]:
    stats = []
    for ch in range(cfg.channels):
        path = Path(cfg.stats_dir) / f"clean_stats_ch{ch}.f64"
        try:
            st = load_clean_stats(path)
        except np.linalg.LinAlgError:  # singular at ridge 0: a numerical failure
            raise
        except (KeyError, TypeError, ValueError, RecursionError) as exc:
            raise ConfigError(f"{path}: corrupt stats: {exc!r}") from exc
        if st.n != cfg.n:
            raise ConfigError(f"{path}: stats have n={st.n}, config has n={cfg.n}")
        stats.append(st)
    return stats


def _resolve_stats(cfg: ExperimentConfig) -> list[CleanStats] | None:
    if cfg.stats_dir:
        return _load_stats(cfg)
    if "count" in cfg.stats:
        return _compute_stats(cfg, SensingOperator(cfg.n))
    return None


# ---------------------------------------------------------------------------
# running


def _identified(family: str, method: int, fallback: bool) -> int | None:
    designated = designated_action(family)
    if designated is None:
        return None
    if family == "none":
        # the fallback recovers with CoSaMP too, which is the clean call
        return int(fallback or method == A_COSAMP)
    return int(not fallback and method == designated)


def _run_one(cfg: ExperimentConfig, op: SensingOperator,
             stats: list[CleanStats] | None, index: int, entry: dict) -> dict:
    """Defend each channel of one instance on its own loop seed.  The call is
    the first channel's among the most common method labels, every fallback
    one label whatever its argmax.  The instance's error and budget are the
    l2 norms of the channels' concatenated estimate error and perturbation,
    and ratio is their quotient (None at a zero budget)."""
    insts = _build_instance(cfg, op, index, entry)
    configs = [dataclasses.replace(cfg.cad, seed=_loop_seed(cfg, index, ch))
               for ch in range(cfg.channels)]
    t0 = time.perf_counter()
    outcomes = [cad_run(inst.observed, configs[ch], stats[ch] if stats else None, op)
                for ch, inst in enumerate(insts)]
    wall = time.perf_counter() - t0
    labels = [o.method_label for o in outcomes]
    outcome = outcomes[labels.index(max(labels, key=labels.count))]
    family = entry["family"]
    budget = float(np.linalg.norm(np.concatenate([inst.perturbation for inst in insts])))
    err = float(np.linalg.norm(np.concatenate([o.estimate for o in outcomes])
                               - np.concatenate([inst.clean_spectral for inst in insts])))
    ident = _identified(family, outcome.final_method, outcome.fallback)
    chan_rows = []
    for ch, o in enumerate(outcomes):
        chan_rows.append({
            "instance": index, "channel": ch, "family": family,
            "designated": designated_action(family),
            "final_method": o.final_method, "method_label": o.method_label,
            "fallback": int(o.fallback), "stop_reason": o.stop_reason,
            "stopped_at": o.stopped_at,
            "err_l2": float(np.linalg.norm(o.estimate - insts[ch].clean_spectral)),
            "residual_l2": o.trace[-1].residual_l2,
        })
    inst_row = {
        "instance": index, "family": family,
        "designated": designated_action(family),
        "final_method": outcome.final_method,
        "method_label": outcome.method_label,
        "fallback": int(outcome.fallback),
        "stop_reason": outcomes[0].stop_reason,
        "identified": ident,
        "err_l2": err,
        "budget_l2": budget,
        "ratio": err / budget if budget > 0 else None,
        # each channel's estimate has k terms, so its own k-term tail is the one that counts
        "sigma_k_l1": sum(best_k_term_error(inst.clean_spectral, cfg.cad.k)
                          for inst in insts),
    }
    iters = sum(o.stopped_at for o in outcomes)
    timing = {"instance": index, "wall_s": wall, "iterations": iters,
              "per_iter_s": wall / max(iters, 1)}
    return {"rows": chan_rows, "inst": inst_row, "timing": timing}


# module globals for pool workers, set once per process by the initializer
_POOL = {}
# read by each worker's BLAS as it loads: one thread per worker, so that a
# pool does not oversubscribe the cores
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _pool_init(cfg: ExperimentConfig, stats: list[CleanStats] | None,
               errors: dict):
    # a spawned process starts from numpy's default error handling
    np.seterr(**errors)
    _POOL.update(cfg=cfg, op=SensingOperator(cfg.n), stats=stats)


def _pool_run(task: tuple[int, dict]) -> dict:
    index, entry = task
    return _run_one(_POOL["cfg"], _POOL["op"], _POOL["stats"], index, entry)


def _check_workers(workers: int) -> None:
    """At most one pool worker, an interpreter of its own, per core."""
    noun, ok = _integer(1, os.cpu_count() or 1)
    if not ok(workers):
        raise ConfigError(f"--workers={workers} must be {noun}")


def _run_ensemble(cfg: ExperimentConfig, stats: list[CleanStats] | None,
                  workers: int = 1) -> dict:
    op = SensingOperator(cfg.n)
    tasks = _attack_entries(cfg)
    if workers > 1:
        # imported here so that serial runs do not pay for loading them
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        saved = {var: os.environ.get(var) for var in _BLAS_THREAD_VARS}
        os.environ.update(dict.fromkeys(_BLAS_THREAD_VARS, "1"))
        try:
            with ProcessPoolExecutor(max_workers=workers,
                                     mp_context=multiprocessing.get_context("spawn"),
                                     initializer=_pool_init,
                                     initargs=(cfg, stats, np.geterr())) as pool:
                results = list(pool.map(_pool_run, tasks, chunksize=4))
        finally:
            for var, value in saved.items():
                if value is None:
                    os.environ.pop(var, None)
                else:
                    os.environ[var] = value
    else:
        results = [_run_one(cfg, op, stats, i, e) for i, e in tasks]
    rows = [r for res in results for r in res["rows"]]
    insts = [res["inst"] for res in results]
    timings = [res["timing"] for res in results]
    return {"rows": rows, "instances": insts, "timings": timings,
            "aggregates": _aggregate(insts)}


def _aggregate(inst_rows: list[dict]) -> list[dict]:
    """Per-family aggregates, recomputable exactly from the instance rows."""
    out = []
    for family in sorted({r["family"] for r in inst_rows}):
        rows = [r for r in inst_rows if r["family"] == family]
        idents = [r["identified"] for r in rows if r["identified"] is not None]
        errs = np.array([r["err_l2"] for r in rows])
        agg = {
            "family": family,
            "count": len(rows),
            "identification_rate": (sum(idents) / len(idents)) if idents else None,
            "residual_stop_rate": sum(r["stop_reason"] == "residual" for r in rows) / len(rows),
            "fallback_rate": sum(r["fallback"] for r in rows) / len(rows),
            "mean_err_l2": float(errs.mean()),
            "median_err_l2": float(np.median(errs)),
        }
        for label in (*ACTION_LABELS, FALLBACK_LABEL):
            agg[f"method_{label}"] = sum(r["method_label"] == label for r in rows)
        out.append(agg)
    return out


# ---------------------------------------------------------------------------
# serialization helpers


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write_csv(path: Path, rows: list[dict], header_lines: list[str] = ()) -> None:
    lines = [f"# {h}" for h in header_lines]
    if rows:
        lines.append(",".join(rows[0]))
        lines += [",".join(_fmt(r[c]) for c in rows[0]) for r in rows]
    path.write_text("".join(f"{line}\n" for line in lines))


def _config_header(cfg: ExperimentConfig) -> list[str]:
    fb = cfg.cad.feedback
    gamma, sigma, lam = cfg.cad.bandit_params
    return [
        f"n={cfg.n} channels={cfg.channels} seed={cfg.seed} count={cfg.count}",
        f"k={cfg.cad.k} alpha={fb.alpha} beta={fb.beta} m={fb.m} tau={fb.tau} "
        f"theta={fb.theta} count_threshold={fb.count_threshold}",
        f"gamma={gamma} sigma={sigma} lambda={lam} "
        f"delta_prob={fb.delta_prob} delta_res={fb.delta_res} t_max={fb.t_max}",
        f"eta={cfg.cad.eta} eta_prime={cfg.cad.eta_prime} eta_dprime={cfg.cad.eta_dprime}",
    ]


# ---------------------------------------------------------------------------
# commands


def cmd_gen(cfg: ExperimentConfig, out_dir) -> dict:
    """Materialize the ensemble: one instance JSON per index plus a manifest."""
    _require_synthetic(cfg)
    out = Path(out_dir)
    inst_dir = out / "instances"
    inst_dir.mkdir(parents=True, exist_ok=True)
    op = SensingOperator(cfg.n)
    manifest_rows = []
    for index, entry in _attack_entries(cfg):
        insts = _build_instance(cfg, op, index, entry)
        payload = {"index": index, "family": entry["family"],
                   "channels": [i.to_jsonable() for i in insts]}
        name = f"inst_{index:05d}.json"
        (inst_dir / name).write_text(json.dumps(payload))
        manifest_rows.append({
            "index": index, "family": entry["family"], "file": f"instances/{name}",
            "budget_l2": float(np.linalg.norm(
                np.concatenate([i.perturbation for i in insts]))),
        })
    manifest = {"config": cfg.echo(), "instances": manifest_rows}
    (out / "manifest.json").write_text(json.dumps(manifest, sort_keys=True))
    log.info("gen: wrote %d instances to %s", len(manifest_rows), inst_dir)
    return manifest


def cmd_stats(cfg: ExperimentConfig, out_dir) -> list[Path]:
    """Estimate per-channel clean-residual statistics and persist them."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = []
    for ch, st in enumerate(_compute_stats(cfg, SensingOperator(cfg.n))):
        path = out / f"clean_stats_ch{ch}.f64"
        save_clean_stats(st, path)
        paths.append(path)
        print(f"channel {ch}: {st.source_count} residuals, "
              f"mean |residual| = {np.linalg.norm(st.mean):.3e}, "
              f"ridge = {st.ridge:.3e}, cond(C + ridge I) ~ {st.condition:.3e}")
    return paths


def cmd_run(cfg: ExperimentConfig, out_dir, workers: int = 1,
            fmt: str = "csv") -> dict:
    """Run the defence over the ensemble and write deterministic reports.

    Writes report.csv (per channel), instances.csv, aggregate.csv (or
    report.json for fmt=json) plus a timings.csv sidecar that carries the
    only nondeterministic fields.  workers > 1 spawns worker processes,
    which run under the caller's numpy error handling (np.geterr) and
    import the caller's main script: call it under the
    `if __name__ == "__main__":` guard.  workers is at most os.cpu_count().
    """
    _check_workers(workers)
    if fmt not in ("csv", "json"):
        raise ConfigError(f"unknown report format {fmt!r}")
    _require_synthetic(cfg)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    result = _run_ensemble(cfg, _resolve_stats(cfg), workers=workers)
    header = _config_header(cfg)
    if fmt == "csv":
        _write_csv(out / "report.csv", result["rows"], header)
        _write_csv(out / "instances.csv", result["instances"], header)
        _write_csv(out / "aggregate.csv", result["aggregates"], header)
    else:
        payload = {"config": cfg.echo(), "rows": result["rows"],
                   "instances": result["instances"],
                   "aggregates": result["aggregates"]}
        (out / "report.json").write_text(json.dumps(payload, sort_keys=True))
    _write_csv(out / "timings.csv", result["timings"])
    for agg in result["aggregates"]:
        rate = agg["identification_rate"]
        log.info("run: family=%s count=%d identified=%s median_err=%.3g",
                 agg["family"], agg["count"],
                 "n/a" if rate is None else f"{rate:.2f}", agg["median_err_l2"])
    return result


def cmd_bench(cfg: ExperimentConfig, out_dir, workers: int = 1) -> list[dict]:
    """Sweep the bench grid; each cell runs the same path as cmd_run.

    The long-format bench.csv holds one row per cell with per-cell medians
    (error, loop iterations, per-iteration wall seconds) and mean
    error/budget ratio.
    """
    _check_workers(workers)
    if not cfg.bench:
        raise ConfigError("config has no bench section")
    _require_synthetic(cfg)
    grid_n, grid_k, grid_attacks, count = _bench_axes(cfg)
    # every cell's config, and the stats it loads, is checked before the first cell runs
    subs = []
    for n in grid_n:
        for k in grid_k:
            for entry in grid_attacks:
                sub_raw = dict(cfg.raw, n=n, count=count, attacks=[entry],
                               cad=dict(cfg.raw["cad"], k=k))
                if "k" in cfg.clean:
                    sub_raw["clean"] = dict(cfg.clean, k=k)
                subs.append(ExperimentConfig.from_dict(sub_raw))
    # stats loaded from stats_dir depend on n alone, fitted ones on (n, k):
    # one table holds each, resolved once before the first cell runs
    keyed = [(sub.n if cfg.stats_dir else (sub.n, sub.cad.k), sub) for sub in subs]
    stats = {}
    for key, sub in keyed:
        if key not in stats:
            stats[key] = _resolve_stats(sub)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    cells = []
    for key, sub in keyed:
        res = _run_ensemble(sub, stats[key], workers=workers)
        agg, = res["aggregates"]  # one attack entry: one family
        ratios = [r["ratio"] for r in res["instances"] if r["ratio"] is not None]
        iters = np.array([t["iterations"] for t in res["timings"]])
        per_iter = np.array([t["per_iter_s"] for t in res["timings"]])
        cells.append({
            "n": sub.n, "k": sub.cad.k, "family": sub.attacks[0]["family"],
            "count": sub.count,
            "median_err_l2": agg["median_err_l2"],
            "mean_ratio": float(np.mean(ratios)) if ratios else None,
            "identification_rate": agg["identification_rate"],
            "median_iterations": float(np.median(iters)),
            "median_per_iter_s": float(np.median(per_iter)),
        })
    _write_csv(out / "bench.csv", cells, _config_header(cfg))
    return cells
