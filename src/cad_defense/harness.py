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
import math
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
from .recovery import A_COSAMP, A_L0, A_L2, A_LINF, check_bound
from .transform import SensingOperator, _is_number

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
# the most instances (count x attack entries) one config, or bench cell, may ask for
_MAX_INSTANCES = 10 ** 6


class ConfigError(Exception):
    """Invalid or inconsistent experiment configuration."""


def designated_action(family: str) -> int | None:
    """Ground-truth action for a family; None when there is none to match."""
    return _DESIGNATED.get(family)


@dataclass
class ExperimentConfig:
    """Parsed experiment description; see from_json for the schema."""

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
        for key in ("clean", "cad", "stats", "bench", "attacks"):
            kind, noun = (list, "an array") if key == "attacks" else (dict, "an object")
            if d.get(key) is not None and not isinstance(d[key], kind):
                raise ConfigError(f"{key}={d[key]!r} must be {noun}")
        entries = [(f"attacks[{i}]", a) for i, a in enumerate(d.get("attacks") or [])]
        if "feedback" in (d.get("cad") or {}):
            entries.append(("cad.feedback", d["cad"]["feedback"]))
        for name, value in entries:
            if not isinstance(value, dict):
                raise ConfigError(f"{name}={value!r} must be an object")
        try:
            n = d["n"]
            channels = d.get("channels", 1)
            seed = d.get("seed", 0)
            clean = dict(d.get("clean", {"kind": "sparse", "amplitude": [1.0, 2.0]}))
            attacks = [dict(a) for a in d.get("attacks", [{"family": "none"}])]
            count = d.get("count", 1)
            cad_d = dict(d["cad"])
            # instance seeds derive from the master seed, and channels is one setting
            misplaced = sorted({"seed", "channels"} & set(cad_d))
            if misplaced:
                raise ConfigError(f"cad.{misplaced[0]} is not a cad key: set the "
                                  f"top-level {misplaced[0]}")
            fb = FeedbackConfig(**cad_d.pop("feedback"))
            if "bandit_params" in cad_d:
                cad_d["bandit_params"] = tuple(cad_d["bandit_params"])
            cad = CadConfig(feedback=fb, **cad_d)
            stats = dict(d.get("stats", {}))
            stats_dir = d.get("stats_dir")
            bench = d.get("bench")
            bench = None if bench is None else dict(bench)
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"bad experiment config: {exc}") from exc
        for name, value, least in (("n", n, 1), ("count", count, 1), ("seed", seed, 0)):
            _require_int(name, value, least)
        if n > _MAX_N:
            raise ConfigError(f"n={n} exceeds the largest supported n={_MAX_N}")
        if count * len(attacks) > _MAX_INSTANCES:
            raise ConfigError(f"count={count} x {len(attacks)} attack entries exceeds "
                              f"the largest supported {_MAX_INSTANCES} instances")
        if not (_is_number(channels, int) and channels in (1, 3)):
            raise ConfigError(f"channels={channels!r} must be 1 or 3")
        if stats_dir is not None and not isinstance(stats_dir, str):
            raise ConfigError(f"stats_dir={stats_dir!r} must be a string")
        if not attacks:
            raise ConfigError("attacks must list at least one attack entry")
        for a in attacks:
            if "family" not in a:
                raise ConfigError(f"attack entry missing family: {a}")
            try:
                spec = AttackSpec(seed=0, **a)
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"bad attack entry {a}: {exc}") from exc
            if spec.family == "l0" and spec.tau > n:
                raise ConfigError(f"bad attack entry {a}: tau={spec.tau} exceeds n={n}")
        for name, k in (("cad.k", cad.k), ("clean.k", clean.get("k", cad.k))):
            if not (_is_number(k, int) and 1 <= k <= n):
                raise ConfigError(f"{name}={k!r} must be an integer in [1, n={n}]")
        _check_clean_section(clean)
        if bench is not None:
            _check_bench_section(bench)
        _check_stats_section(stats, n)
        return cls(n=n, channels=channels, seed=seed, clean=clean,
                   attacks=attacks, count=count, cad=cad, stats=stats,
                   stats_dir=stats_dir, bench=bench, raw=d)

    @classmethod
    def from_json(cls, path) -> "ExperimentConfig":
        text = Path(path).read_text()
        try:
            d = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
        return cls.from_dict(d)

    def echo(self) -> dict:
        """Deterministic, JSON-ready copy of the effective configuration."""
        out = {
            "n": self.n, "channels": self.channels, "seed": self.seed,
            "clean": self.clean, "attacks": self.attacks, "count": self.count,
            "cad": dataclasses.asdict(self.cad),
        }
        if self.stats:
            out["stats"] = self.stats
        return out


def _is_finite(value) -> bool:
    return _is_number(value) and math.isfinite(value)


def _require_int(name: str, value, least: int, most=math.inf) -> None:
    if not (_is_number(value, int) and least <= value <= most):
        bound = f">= {least}" if most == math.inf else f"in [{least}, {most}]"
        raise ConfigError(f"{name}={value!r} must be an integer {bound}")


def _reject_unknown(section: str, entries, allowed: set) -> None:
    unknown = sorted(set(entries) - allowed)
    if unknown:
        raise ConfigError(f"unknown {section} keys {unknown}")


def _check_clean_section(clean: dict) -> None:
    kind = clean.get("kind", "sparse")
    if kind not in ("sparse", "compressible", "files"):
        raise ConfigError(f"unknown clean kind {kind!r}")
    _reject_unknown("clean", clean, {"kind", "amplitude", "tail_norm", "k", "paths"})
    if kind == "files":
        paths = clean.get("paths", [])
        if not (isinstance(paths, list) and all(isinstance(p, str) for p in paths)):
            raise ConfigError(f"clean.paths={paths!r} must be a list of strings")
        return
    # absent keys take the generators' defaults
    if "amplitude" in clean:
        amp = clean["amplitude"]
        if not (isinstance(amp, (list, tuple)) and len(amp) == 2
                and all(_is_finite(a) for a in amp) and 0 < amp[0] <= amp[1]):
            raise ConfigError(f"clean.amplitude={amp!r} must be two finite "
                              "numbers lo, hi with 0 < lo <= hi")
    if "tail_norm" in clean:
        tail_norm = clean["tail_norm"]
        if not (_is_finite(tail_norm) and tail_norm >= 0):
            raise ConfigError(f"clean.tail_norm={tail_norm!r} must be finite and >= 0")


def _check_bench_section(bench: dict) -> None:
    _reject_unknown("bench", bench, {"n", "k", "attacks", "count"})
    # an empty axis would make an empty grid
    for key in ("n", "k", "attacks"):
        if key in bench and not (isinstance(bench[key], list) and bench[key]):
            raise ConfigError(f"bench.{key}={bench[key]!r} must be a non-empty list")
    for key in ("n", "k"):
        if not all(_is_number(v, int) for v in bench.get(key, [])):
            raise ConfigError(f"bench.{key}={bench[key]!r} must be a list of integers")
    if any(n > _MAX_N for n in bench.get("n", [])):
        raise ConfigError(f"bench.n={bench['n']!r} exceeds the largest supported n={_MAX_N}")
    if "count" in bench:
        _require_int("bench.count", bench["count"], 1, _MAX_INSTANCES)


def _check_stats_section(stats: dict, n: int) -> None:
    _reject_unknown("stats", stats, {"count", "n_cosamp", "ridge"})
    # the count x n residual matrix no larger than the largest DCT matrix
    for key, least, most in (("count", 2, _MAX_N ** 2 // n), ("n_cosamp", 0, math.inf)):
        _require_int(f"stats.{key}", stats.get(key, least), least, most)
    ridge = stats.get("ridge")
    if ridge is not None and not (_is_finite(ridge) and ridge >= 0):
        raise ConfigError(f"stats.ridge={ridge!r} must be null or finite and >= 0")


def _require_synthetic(cfg: ExperimentConfig) -> None:
    """Instances are drawn from the synthetic clean kinds only."""
    if cfg.clean.get("kind") == "files":
        raise ConfigError('clean.kind "files" only serves the stats command')


# ---------------------------------------------------------------------------
# instance construction


def _clean_rng(cfg: ExperimentConfig, index: int, channel: int) -> np.random.Generator:
    return np.random.default_rng([cfg.seed, index, 2 * channel])


def _attack_seed(cfg: ExperimentConfig, index: int, channel: int) -> int:
    return int(np.random.default_rng([cfg.seed, index, 2 * channel + 1]).integers(2 ** 62))


def _draw_clean(cfg: ExperimentConfig, rng: np.random.Generator) -> np.ndarray:
    kind = cfg.clean.get("kind", "sparse")
    amp = tuple(cfg.clean.get("amplitude", (1.0, 2.0)))
    k = cfg.clean.get("k", cfg.cad.k)
    if kind == "compressible":
        return make_clean_compressible(cfg.n, k, rng, amp,
                                       float(cfg.clean.get("tail_norm", 0.5)))
    return make_clean_sparse(cfg.n, k, rng, amp)


def _attack_entries(cfg: ExperimentConfig) -> list[tuple[int, dict]]:
    """Flat (index, attack entry) list: count instances per attack entry."""
    out = []
    idx = 0
    for entry in cfg.attacks:
        for _ in range(cfg.count):
            out.append((idx, entry))
            idx += 1
    return out


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
    count = int(cfg.stats.get("count", 32))
    rng = np.random.default_rng([cfg.seed, 2 ** 31 + channel])
    for _ in range(count):
        yield op.synthesize(_draw_clean(cfg, rng))


def _file_signals(cfg: ExperimentConfig) -> list[list[np.ndarray]]:
    paths = sorted(cfg.clean.get("paths", []))
    if len(paths) < 2:
        raise ConfigError("files-based stats need at least two input signals")
    per_channel: list[list[np.ndarray]] = [[] for _ in range(cfg.channels)]
    for p in paths:
        try:
            vals, channels = load_signal_channels(p)
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"{p}: bad signal file: {exc}") from exc
        if channels != cfg.channels:
            raise ConfigError(f"{p}: has {channels} channels, config says {cfg.channels}")
        if vals.size != cfg.n * cfg.channels:
            raise ConfigError(f"{p}: expected {cfg.n * cfg.channels} samples")
        for ch in range(channels):
            per_channel[ch].append(vals[ch * cfg.n:(ch + 1) * cfg.n])
    return per_channel


def _compute_stats(cfg: ExperimentConfig, op: SensingOperator) -> list[CleanStats]:
    if cfg.clean.get("kind") == "files":
        signals = _file_signals(cfg)
    else:
        signals = [_stats_signals(cfg, op, ch) for ch in range(cfg.channels)]
    ridge = cfg.stats.get("ridge")
    n_cosamp = cfg.stats.get("n_cosamp", 5)
    return [estimate_clean_stats(sigs, op, cfg.cad.k, n_cosamp=n_cosamp,
                                 ridge=None if ridge is None else float(ridge))
            for sigs in signals]


def _load_stats(cfg: ExperimentConfig) -> list[CleanStats]:
    stats = []
    for ch in range(cfg.channels):
        path = Path(cfg.stats_dir) / f"clean_stats_ch{ch}.f64"
        try:
            st = load_clean_stats(path)
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"{path}: corrupt stats: {exc!r}") from exc
        if st.n != cfg.n:
            raise ConfigError(f"{path}: stats have n={st.n}, config has n={cfg.n}")
        stats.append(st)
    return stats


def _resolve_stats(cfg: ExperimentConfig, op: SensingOperator) -> list[CleanStats] | None:
    if cfg.stats_dir:
        return _load_stats(cfg)
    if cfg.stats.get("count"):
        return _compute_stats(cfg, op)
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
    insts = _build_instance(cfg, op, index, entry)
    y = np.concatenate([inst.observed for inst in insts])
    clean = np.concatenate([inst.clean_spectral for inst in insts])
    pert = np.concatenate([inst.perturbation for inst in insts])
    cad_cfg = dataclasses.replace(cfg.cad, seed=int(
        np.random.default_rng([cfg.seed, index, 2 ** 30]).integers(2 ** 62)))
    t0 = time.perf_counter()
    if cfg.channels == 1:
        outcome = cad_run(y, cad_cfg, stats[0] if stats else None, op)
        channel_outcomes = [outcome]
    else:
        outcome = cad_run(y, cad_cfg, stats, op)
        channel_outcomes = outcome.channels
    wall = time.perf_counter() - t0
    family = entry["family"]
    budget = float(np.linalg.norm(pert))
    report = check_bound(clean, np.concatenate(
        [o.estimate for o in channel_outcomes]), cfg.cad.k, budget)
    ident = _identified(family, outcome.final_method, outcome.fallback)
    chan_rows = []
    for ch, o in enumerate(channel_outcomes):
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
        "stop_reason": channel_outcomes[0].stop_reason,
        "identified": ident,
        "err_l2": report.empirical_l2_error,
        "budget_l2": report.budget,
        "ratio": report.ratio,
        "sigma_k_l1": report.sigma_k_l1,
    }
    iters = sum(o.stopped_at for o in channel_outcomes)
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


def _run_ensemble(cfg: ExperimentConfig, workers: int = 1) -> dict:
    op = SensingOperator(cfg.n)
    stats = _resolve_stats(cfg, op)
    # factored here, once: pool workers unpickle these bytes rather than
    # re-deriving them under another BLAS thread count
    for st in stats or ():
        st.factor()
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
    results.sort(key=lambda r: r["inst"]["instance"])
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
    if not rows:
        path.write_text("".join(f"# {h}\n" for h in header_lines))
        return
    cols = list(rows[0].keys())
    lines = [f"# {h}" for h in header_lines]
    lines.append(",".join(cols))
    for r in rows:
        lines.append(",".join(_fmt(r[c]) for c in cols))
    path.write_text("\n".join(lines) + "\n")


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
                   "channels": [json.loads(i.to_json()) for i in insts]}
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
        # eigenvalues s^2 + ridge, and ridge off the factor's span when that
        # is not all of R^n; a fit no run could use fails before it is saved
        _, scale = st.factor()
        cond = float(scale.max() / (scale.min() if len(scale) == st.n else st.ridge))
        path = out / f"clean_stats_ch{ch}.f64"
        save_clean_stats(st, path)
        paths.append(path)
        print(f"channel {ch}: {st.source_count} residuals, "
              f"mean |residual| = {np.linalg.norm(st.mean):.3e}, "
              f"ridge = {st.ridge:.3e}, cond(C + ridge I) ~ {cond:.3e}")
    return paths


def cmd_run(cfg: ExperimentConfig, out_dir, workers: int = 1,
            fmt: str = "csv") -> dict:
    """Run the defence over the ensemble and write deterministic reports.

    Writes report.csv (per channel), instances.csv, aggregate.csv (or
    report.json for fmt=json) plus a timings.csv sidecar that carries the
    only nondeterministic fields.  workers > 1 spawns worker processes,
    which run under the caller's numpy error handling (np.geterr) and
    import the caller's main script: call it under the
    `if __name__ == "__main__":` guard.
    """
    if fmt not in ("csv", "json"):
        raise ConfigError(f"unknown report format {fmt!r}")
    _require_synthetic(cfg)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    result = _run_ensemble(cfg, workers=workers)
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
    if not cfg.bench:
        raise ConfigError("config has no bench section")
    _require_synthetic(cfg)
    grid_n = cfg.bench.get("n", [cfg.n])
    grid_k = cfg.bench.get("k", [cfg.cad.k])
    grid_attacks = cfg.bench.get("attacks", cfg.attacks)
    count = cfg.bench.get("count", cfg.count)
    # every cell's config is checked before the first cell runs
    subs = []
    for n in grid_n:
        for k in grid_k:
            for entry in grid_attacks:
                sub_raw = dict(cfg.raw)
                sub_raw.update({"n": n, "count": count, "attacks": [entry]})
                sub_raw["cad"] = dict(cfg.raw["cad"], k=k)
                if "clean" in sub_raw and "k" in sub_raw.get("clean", {}):
                    sub_raw["clean"] = dict(sub_raw["clean"], k=k)
                subs.append(ExperimentConfig.from_dict(sub_raw))
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    cells = []
    for sub in subs:
        res = _run_ensemble(sub, workers=workers)
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
