"""Synthetic attack families, adversarial instances, and signal readers.

Perturbations live in the spectral domain: an instance observes
y = A(xhat + e) where xhat is the clean spectrum and e is drawn under one
of the family budgets below.  Budgets are enforced exactly at draw time;
observed pixels are not clipped unless AttackSpec.clip is set, because
clipping silently breaks the declared budget.
"""

from __future__ import annotations

import json
import numbers
from dataclasses import dataclass, asdict
from pathlib import Path

import numpy as np

from .transform import SensingOperator, _is_number

__all__ = [
    "AttackSpec",
    "AdversarialInstance",
    "make_clean_sparse",
    "make_clean_compressible",
    "perturb",
    "load_signal_channels",
]

# each family and the budgets it reads; low_freq_bias is read by l0 alone
_BUDGETS = {"none": (), "l0": ("tau", "eta_prime"), "l1": ("eta",), "l2": ("eta",),
            "linf": ("eta_dprime",), "gradient_proxy": ("eta_dprime",)}


@dataclass(frozen=True)
class AttackSpec:
    """Family label plus the budget parameters that family consumes.

    tau / eta_prime bound the l0 family (support size, placed low by
    low_freq_bias / entry magnitude), eta is the l1 or l2 energy budget,
    eta_dprime the per-entry amplitude for linf and gradient_proxy.  What a
    family does not read must stay unset; tau is an integer, flags booleans.
    """

    family: str
    tau: int | None = None
    eta: float | None = None
    eta_prime: float | None = None
    eta_dprime: float | None = None
    seed: int = 0
    low_freq_bias: bool = False
    clip: bool = False

    def __post_init__(self):
        if not (isinstance(self.family, str) and self.family in _BUDGETS):
            raise ValueError(f"unknown attack family {self.family!r}")
        if self.tau is not None and not _is_number(self.tau, numbers.Integral):
            raise ValueError(f"tau must be an integer, got {self.tau!r}")
        for name in ("low_freq_bias", "clip"):
            if not isinstance(getattr(self, name), (bool, np.bool_)):
                raise ValueError(f"{name} must be a boolean, got {getattr(self, name)!r}")
        need = _BUDGETS[self.family]
        for name in need:
            val = getattr(self, name)
            if not (_is_number(val) and 0 < val < np.inf):
                raise ValueError(f"family {self.family!r} needs finite {name} > 0, got {val}")
        unread = [name for name in ("tau", "eta", "eta_prime", "eta_dprime")
                  if name not in need and getattr(self, name) is not None]
        if self.low_freq_bias and self.family != "l0":
            unread.append("low_freq_bias")
        if unread:
            raise ValueError(f"family {self.family!r} does not read {', '.join(unread)}")


@dataclass
class AdversarialInstance:
    """One sensing instance: clean spectrum, drawn perturbation, observation."""

    n: int
    spec: AttackSpec
    clean_spectral: np.ndarray
    perturbation: np.ndarray
    observed: np.ndarray

    def to_json(self) -> str:
        payload = {
            "n": self.n,
            "spec": asdict(self.spec),
            "clean_spectral": self.clean_spectral.tolist(),
            "perturbation": self.perturbation.tolist(),
            "observed": self.observed.tolist(),
        }
        return json.dumps(payload)


def make_clean_sparse(n: int, k: int, rng: np.random.Generator,
                      amplitude: tuple[float, float] = (1.0, 2.0)) -> np.ndarray:
    """Exactly k-sparse spectrum with signed magnitudes in the amplitude range."""
    if not 0 < k <= n:
        raise ValueError(f"need 0 < k <= n, got k={k}, n={n}")
    lo, hi = amplitude
    if not 0 < lo <= hi:
        raise ValueError(f"bad amplitude range {amplitude}")
    xhat = np.zeros(n)
    support = rng.choice(n, size=k, replace=False)
    mags = rng.uniform(lo, hi, size=k)
    signs = rng.choice((-1.0, 1.0), size=k)
    xhat[support] = mags * signs
    return xhat


def make_clean_compressible(n: int, k: int, rng: np.random.Generator,
                            amplitude: tuple[float, float] = (1.0, 2.0),
                            tail_norm: float = 0.5) -> np.ndarray:
    """k dominant entries plus a dense Gaussian tail of the given l2 norm.

    Closer to natural images than an exactly sparse spectrum: a k-term
    approximation leaves a floor of tail_norm behind, which is what the
    clean-residual statistics are estimated from.
    """
    xhat = make_clean_sparse(n, k, rng, amplitude)
    tail = rng.standard_normal(n)
    tail *= tail_norm / np.linalg.norm(tail)
    return xhat + tail


def _draw_perturbation(spec: AttackSpec, n: int) -> np.ndarray:
    """Draw the spectral perturbation e for spec, deterministic in spec.seed."""
    rng = np.random.default_rng(spec.seed)
    e = np.zeros(n)
    if spec.family == "none":
        return e
    if spec.family == "l0":
        if spec.tau > n:
            raise ValueError(f"tau={spec.tau} exceeds n={n}")
        if spec.low_freq_bias:
            pool = max(spec.tau, n // 4)
            support = rng.choice(pool, size=spec.tau, replace=False)
        else:
            support = rng.choice(n, size=spec.tau, replace=False)
        mags = spec.eta_prime * rng.uniform(0.5, 1.0, size=spec.tau)
        e[support] = mags * rng.choice((-1.0, 1.0), size=spec.tau)
        return e
    if spec.family == "l1":
        w = rng.dirichlet(np.ones(n))
        w = w / w.sum()  # renormalize so the l1 budget is met to float precision
        return spec.eta * w * rng.choice((-1.0, 1.0), size=n)
    if spec.family == "l2":
        g = rng.standard_normal(n)
        return spec.eta * g / np.linalg.norm(g)
    if spec.family == "linf":
        e = spec.eta_dprime * rng.uniform(-1.0, 1.0, size=n)
        witness = rng.integers(n)
        e[witness] = spec.eta_dprime * rng.choice((-1.0, 1.0))
        return e
    # gradient_proxy: dense sign pattern at full amplitude
    return spec.eta_dprime * rng.choice((-1.0, 1.0), size=n)


def perturb(clean: np.ndarray, spec: AttackSpec, op: SensingOperator) -> AdversarialInstance:
    """Attack the clean spectrum under spec and observe through op."""
    clean = np.asarray(clean, dtype=np.float64)
    if clean.shape != (op.n,):
        raise ValueError(f"clean spectrum must have shape ({op.n},), got {clean.shape}")
    e = _draw_perturbation(spec, op.n)
    observed = op.synthesize(clean + e)
    if spec.clip:
        observed = np.clip(observed, 0.0, 1.0)
    return AdversarialInstance(
        n=op.n, spec=spec, clean_spectral=clean, perturbation=e, observed=observed,
    )


# ---------------------------------------------------------------------------
# signal readers: binary PGM/PPM and raw float64 with a JSON sidecar


def _read_pnm_header(data: bytes, magic: bytes, path) -> tuple[int, int, int, int]:
    if not data.startswith(magic):
        raise ValueError(f"{path}: expected {magic.decode()} header")
    fields = []
    pos = 2
    while len(fields) < 3:
        while pos < len(data) and data[pos] in b" \t\r\n":
            pos += 1
        if pos < len(data) and data[pos:pos + 1] == b"#":
            while pos < len(data) and data[pos] not in b"\r\n":
                pos += 1
            continue
        start = pos
        while pos < len(data) and data[pos] not in b" \t\r\n":
            pos += 1
        if pos == start:
            raise ValueError(f"{path}: truncated header")
        try:
            fields.append(int(data[start:pos]))
        except ValueError:
            raise ValueError(f"{path}: malformed header token {data[start:pos]!r}") from None
    pos += 1  # single whitespace byte ends the header
    width, height, maxval = fields
    if width < 1 or height < 1 or not 0 < maxval < 65536:
        raise ValueError(f"{path}: bad dimensions {width}x{height} maxval={maxval}")
    return width, height, maxval, pos


def _read_pnm(path: Path, channels: int) -> np.ndarray:
    magic = b"P5" if channels == 1 else b"P6"
    data = path.read_bytes()
    width, height, maxval, pos = _read_pnm_header(data, magic, path)
    count = width * height * channels
    dtype = np.dtype(">u2") if maxval > 255 else np.dtype("u1")
    if len(data) - pos < count * dtype.itemsize:
        raise ValueError(f"{path}: expected {count} samples, file too short")
    raw = np.frombuffer(data, dtype=dtype, count=count, offset=pos)
    vals = raw.astype(np.float64) / maxval
    if channels == 1:
        return vals
    # interleaved RGB -> channel-major concatenation
    return vals.reshape(-1, 3).T.reshape(-1)


def _infer_format(path: Path) -> str:
    suffix = path.suffix.lower()
    table = {".pgm": "pgm", ".ppm": "ppm", ".raw": "raw", ".f64": "raw"}
    if suffix not in table:
        raise ValueError(f"{path}: cannot infer format from suffix {suffix!r}")
    return table[suffix]


def load_signal_channels(path) -> tuple[np.ndarray, int]:
    """Load a signal and its channel count; values are scaled to [0, 1].

    The file suffix decides the format: binary PGM (.pgm, one channel) or
    PPM (.ppm, three channels, returned channel-major), 8 or 16 bits per
    sample; or raw (.raw, .f64) little-endian float64 values in [0, 1],
    channel-major, beside a JSON sidecar path + ".json" holding
    {"n": samples per channel, "channels": count}, both integers >= 1.
    """
    path = Path(path)
    fmt = _infer_format(path)
    if fmt == "pgm":
        return _read_pnm(path, 1), 1
    if fmt == "ppm":
        return _read_pnm(path, 3), 3
    sidecar = Path(str(path) + ".json")
    try:
        meta = json.loads(sidecar.read_text())
    except FileNotFoundError:
        raise ValueError(f"{path}: missing sidecar {sidecar}") from None
    n, channels = meta["n"], meta["channels"]
    if not all(_is_number(v, int) and v >= 1 for v in (n, channels)):
        raise ValueError(f"{path}: sidecar n and channels must be integers >= 1, "
                         f"got {n!r} and {channels!r}")
    vals = np.fromfile(path, dtype="<f8")
    if vals.size != n * channels:
        raise ValueError(f"{path}: expected {n * channels} float64 values, got {vals.size}")
    # stated as what must hold, so that a NaN fails it
    if not ((vals >= -1e-9) & (vals <= 1.0 + 1e-9)).all():
        raise ValueError(f"{path}: values outside [0, 1]")
    return vals, channels
