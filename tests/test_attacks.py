"""Attack-family tests: budget exactness per family, determinism, the
composition identity, and the signal readers on hand-written files."""

import dataclasses
import json
import math

import numpy as np
import pytest

from cad_defense import (AttackSpec, SensingOperator, load_signal_channels,
                         make_clean_compressible, make_clean_sparse, perturb)
from cad_defense.attacks import _draw_perturbation

N = 64
N_DRAWS = 1000


def _spec(family, seed, **kw):
    return AttackSpec(family=family, seed=seed, **kw)


# ---------------------------------------------------------------------------
# clean-signal generators


def test_make_clean_sparse_exact_support():
    rng = np.random.default_rng(0)
    xhat = make_clean_sparse(784, 80, rng)
    assert np.count_nonzero(xhat) == 80
    mags = np.abs(xhat[xhat != 0.0])
    assert mags.min() >= 1.0 and mags.max() <= 2.0


def test_make_clean_sparse_boundaries():
    rng = np.random.default_rng(1)
    dense = make_clean_sparse(16, 16, rng)
    assert np.count_nonzero(dense) == 16
    single = make_clean_sparse(16, 1, rng, amplitude=(1.0, 1.0))
    assert np.count_nonzero(single) == 1
    assert abs(np.abs(single).max() - 1.0) < 1e-15
    with pytest.raises(ValueError):
        make_clean_sparse(16, 0, rng)
    with pytest.raises(ValueError):
        make_clean_sparse(16, 2, rng, amplitude=(2.0, 1.0))


def test_make_clean_compressible_tail():
    rng = np.random.default_rng(2)
    xhat = make_clean_compressible(128, 8, rng, tail_norm=0.5)
    assert np.count_nonzero(xhat) == 128  # dense tail everywhere
    # the k dominant entries sit well above the tail floor
    from cad_defense import top_k
    head = top_k(xhat, 8)
    assert np.count_nonzero(head) == 8
    tail = xhat - head
    assert np.linalg.norm(tail) < 1.0


# ---------------------------------------------------------------------------
# per-family budget exactness, 1000 draws each


def test_none_draws_zero():
    for seed in range(N_DRAWS):
        assert not _draw_perturbation(_spec("none", seed), N).any()


def test_l0_budget_holds_every_draw():
    tau, eta_prime = 15, 0.15
    for seed in range(N_DRAWS):
        e = _draw_perturbation(_spec("l0", seed, tau=tau, eta_prime=eta_prime), N)
        assert np.count_nonzero(e) <= tau
        assert np.abs(e).max() <= eta_prime + 1e-15
        assert np.linalg.norm(e) <= tau * eta_prime


def test_l1_budget_equality():
    eta = 0.3
    for seed in range(N_DRAWS):
        e = _draw_perturbation(_spec("l1", seed, eta=eta), N)
        assert abs(np.abs(e).sum() - eta) <= 1e-9


def test_l2_budget_equality():
    eta = 0.3
    for seed in range(N_DRAWS):
        e = _draw_perturbation(_spec("l2", seed, eta=eta), N)
        assert abs(np.linalg.norm(e) - eta) <= 1e-9


def test_linf_budget_with_witness():
    eta_dprime = 0.04
    for seed in range(N_DRAWS):
        e = _draw_perturbation(_spec("linf", seed, eta_dprime=eta_dprime), N)
        assert np.abs(e).max() <= eta_dprime + 1e-15
        # at least one entry sits exactly at the bound
        assert np.isclose(np.abs(e).max(), eta_dprime, atol=1e-15)


def test_gradient_proxy_dense_signs():
    eta_dprime = 0.04
    for seed in range(200):
        e = _draw_perturbation(_spec("gradient_proxy", seed, eta_dprime=eta_dprime), N)
        assert np.allclose(np.abs(e), eta_dprime, atol=1e-15)


def test_l0_l2_bound_mnist_parameters():
    # tau = 15 entries of at most 0.15 cannot exceed l2 norm 2.25
    spec = _spec("l0", 5, tau=15, eta_prime=0.15)
    e = _draw_perturbation(spec, 784)
    assert np.count_nonzero(e) <= 15
    assert np.linalg.norm(e) <= 2.25


def test_linf_l2_bound_mnist_parameters():
    # dense amplitude 0.04 at n = 784 keeps l2 norm at most 28 * 0.04 = 1.12
    e = _draw_perturbation(_spec("linf", 5, eta_dprime=0.04), 784)
    assert np.linalg.norm(e) <= 1.12


def test_low_freq_bias_support_placement():
    spec = _spec("l0", 9, tau=10, eta_prime=0.2, low_freq_bias=True)
    for seed in range(50):
        e = _draw_perturbation(dataclasses.replace(spec, seed=seed), 128)
        assert np.flatnonzero(e).max() < 32  # lowest-index quarter


def test_determinism_bit_for_bit():
    for family, kw in [("l0", dict(tau=5, eta_prime=0.2)), ("l1", dict(eta=1.0)),
                       ("l2", dict(eta=1.0)), ("linf", dict(eta_dprime=0.1)),
                       ("gradient_proxy", dict(eta_dprime=0.1))]:
        a = _draw_perturbation(_spec(family, 123, **kw), N)
        b = _draw_perturbation(_spec(family, 123, **kw), N)
        assert np.array_equal(a, b)
        c = _draw_perturbation(_spec(family, 124, **kw), N)
        assert not np.array_equal(a, c)


# ---------------------------------------------------------------------------
# AttackSpec validation and instance composition


def test_attack_spec_validation():
    with pytest.raises(ValueError):
        AttackSpec(family="dos")
    with pytest.raises(ValueError):
        AttackSpec(family="l0", tau=5)  # missing eta_prime
    with pytest.raises(ValueError):
        AttackSpec(family="l2", eta=0.0)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            AttackSpec(family="l2", eta=bad)
        with pytest.raises(ValueError, match="finite"):
            AttackSpec(family="l0", tau=4, eta_prime=bad)
    with pytest.raises(ValueError):
        _draw_perturbation(AttackSpec(family="l0", tau=65, eta_prime=0.1), N)
    for bad in (2.5, True, "3"):
        with pytest.raises(ValueError, match="tau must be an integer"):
            AttackSpec(family="l0", tau=bad, eta_prime=0.1)
    for flag in ("low_freq_bias", "clip"):
        with pytest.raises(ValueError, match=f"{flag} must be a boolean"):
            AttackSpec(family="l2", eta=1.0, **{flag: "yes"})
    assert AttackSpec(family="l0", tau=np.int64(4), eta_prime=0.1, clip=np.bool_(True)).clip


@pytest.mark.parametrize("family,budget", [
    ("l0", "eta_prime"), ("l1", "eta"), ("l2", "eta"), ("linf", "eta_dprime"),
    ("gradient_proxy", "eta_dprime")])
def test_attack_spec_refuses_boolean_budgets(family, budget):
    # True would otherwise pass as the budget 1
    given = {"tau": 4, "eta_prime": 0.1} if family == "l0" else {}
    with pytest.raises(ValueError, match=f"needs finite {budget} > 0, got True"):
        AttackSpec(family=family, **{**given, budget: True})


@pytest.mark.parametrize("family, given", [
    ("none", {}), ("l0", {"tau": 4, "eta_prime": 0.1}), ("l1", {"eta": 1.0}),
    ("l2", {"eta": 1.0}), ("linf", {"eta_dprime": 0.1}),
    ("gradient_proxy", {"eta_dprime": 0.1})])
def test_attack_spec_refuses_what_its_family_does_not_read(family, given):
    AttackSpec(family=family, clip=True, **given)
    unread = [name for name in ("tau", "eta", "eta_prime", "eta_dprime") if name not in given]
    for name in unread:
        # 0 too: a given key is refused whatever its value
        for value in (3, 0):
            with pytest.raises(ValueError, match=f"does not read {name}$"):
                AttackSpec(family=family, **given, **{name: value})
    if family == "l0":
        assert AttackSpec(family=family, low_freq_bias=True, **given).low_freq_bias
    else:
        with pytest.raises(ValueError, match="does not read low_freq_bias"):
            AttackSpec(family=family, low_freq_bias=True, **given)


def test_perturb_composition_identity():
    op = SensingOperator(N)
    rng = np.random.default_rng(3)
    clean = make_clean_sparse(N, 6, rng)
    inst = perturb(clean, _spec("l2", 7, eta=0.5), op)
    recon = op.analyze(inst.observed)
    assert np.abs(recon - (inst.clean_spectral + inst.perturbation)).max() < 1e-10


def test_perturb_none_is_identity():
    op = SensingOperator(N)
    clean = make_clean_sparse(N, 6, np.random.default_rng(4))
    inst = perturb(clean, _spec("none", 0), op)
    assert not inst.perturbation.any()
    assert np.allclose(inst.observed, op.synthesize(clean), atol=1e-15)


def test_perturb_clip_flag():
    op = SensingOperator(N)
    clean = make_clean_sparse(N, 6, np.random.default_rng(5), amplitude=(3.0, 4.0))
    spec = AttackSpec(family="l2", eta=2.0, seed=1, clip=True)
    inst = perturb(clean, spec, op)
    assert inst.observed.min() >= 0.0 and inst.observed.max() <= 1.0


def test_instance_json_round_trip():
    op = SensingOperator(N)
    clean = make_clean_sparse(N, 6, np.random.default_rng(6))
    inst = perturb(clean, _spec("l0", 8, tau=4, eta_prime=0.3), op)
    back = json.loads(inst.to_json())
    assert back["n"] == inst.n and AttackSpec(**back["spec"]) == inst.spec
    for name in ("clean_spectral", "perturbation", "observed"):
        assert np.array_equal(np.array(back[name]), getattr(inst, name))


# ---------------------------------------------------------------------------
# signal IO


def test_pgm_all_white_is_ones(tmp_path):
    path = tmp_path / "white.pgm"
    path.write_bytes(b"P5\n28 28\n255\n" + b"\xff" * 784)
    vals, channels = load_signal_channels(path)
    assert channels == 1
    assert np.array_equal(vals, np.ones(784))


def test_pgm_round_trip_quantized(tmp_path):
    orig = np.random.default_rng(10).random(64)
    pix = np.rint(orig * 255).astype(np.uint8)
    path = tmp_path / "img.pgm"
    path.write_bytes(b"P5\n8 8\n255\n" + pix.tobytes())
    vals, _ = load_signal_channels(path)
    assert np.array_equal(vals, pix / 255.0)
    assert np.abs(vals - orig).max() <= 0.5 / 255 + 1e-12


def test_pgm_16bit_maxval(tmp_path):
    # above maxval 255 each sample is two bytes, most significant first
    pix = np.array([0, 1, 256, 4660, 65534, 65535])
    path = tmp_path / "deep.pgm"
    path.write_bytes(b"P5\n3 2\n65535\n" + pix.astype(">u2").tobytes())
    vals, _ = load_signal_channels(path)
    assert np.array_equal(vals, pix / 65535.0)


def test_pgm_comment_header(tmp_path):
    body = bytes(range(4))
    path = tmp_path / "c.pgm"
    path.write_bytes(b"P5\n# a comment line\n2 2\n255\n" + body)
    vals, _ = load_signal_channels(path)
    assert np.allclose(vals, np.arange(4) / 255.0)


def test_ppm_channel_major(tmp_path):
    # interleaved RGB pixels come back as [R..., G..., B...]
    path = tmp_path / "rgb.ppm"
    pixels = bytes([255, 0, 0, 0, 255, 0])  # red pixel then green pixel
    path.write_bytes(b"P6\n2 1\n255\n" + pixels)
    vals, channels = load_signal_channels(path)
    assert channels == 3
    assert np.array_equal(vals, np.array([1.0, 0.0, 0.0, 1.0, 0.0, 0.0]))


def test_malformed_headers_error(tmp_path):
    bad_magic = tmp_path / "bad.pgm"
    bad_magic.write_bytes(b"P4\n2 2\n255\n" + bytes(4))
    with pytest.raises(ValueError):
        load_signal_channels(bad_magic)
    truncated = tmp_path / "short.pgm"
    truncated.write_bytes(b"P5\n2 2\n255\n" + bytes(2))
    with pytest.raises(ValueError):
        load_signal_channels(truncated)
    token = tmp_path / "tok.pgm"
    token.write_bytes(b"P5\nx 2\n255\n" + bytes(4))
    with pytest.raises(ValueError):
        load_signal_channels(token)


def _write_raw(path, values, meta):
    np.asarray(values, dtype="<f8").tofile(path)
    path.with_name(path.name + ".json").write_text(json.dumps(meta))


def test_raw_round_trip(tmp_path):
    path = tmp_path / "sig.raw"
    vals = np.random.default_rng(11).random(2 * 392)
    _write_raw(path, vals, {"n": 392, "channels": 2})
    loaded, channels = load_signal_channels(path)
    assert channels == 2
    assert loaded.tobytes() == vals.tobytes()


@pytest.mark.parametrize("meta", [
    {"n": "32", "channels": 1},
    {"n": 32.7, "channels": 1.2},
    {"n": 32.0, "channels": 1},
    {"n": True, "channels": 32},
    {"n": -32, "channels": -1},
], ids=["string", "fractions", "integral_float", "bool", "negative"])
def test_raw_sidecar_needs_json_integers(tmp_path, meta):
    # under int() each of these matched the file's 32 values: the bool as
    # 32 channels of one sample, the negative pair as -32 x -1
    path = tmp_path / "sig.raw"
    _write_raw(path, np.full(32, 0.5), meta)
    with pytest.raises(ValueError, match="must be integers >= 1"):
        load_signal_channels(path)


def test_raw_out_of_range_rejected(tmp_path):
    path = tmp_path / "neg.raw"
    _write_raw(path, [-0.5, 0.5], {"n": 2, "channels": 1})
    with pytest.raises(ValueError):
        load_signal_channels(path)


def test_raw_missing_sidecar(tmp_path):
    path = tmp_path / "lone.raw"
    np.zeros(4).astype("<f8").tofile(path)
    with pytest.raises(ValueError):
        load_signal_channels(path)
