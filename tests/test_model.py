import hashlib
import json
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dimino import autodiff as ad
from dimino.model import (
    CKPT_MAGIC,
    CorruptCheckpoint,
    DimINOModel,
    FieldSetMismatch,
    ModeOverflow,
    ModelConfig,
    init_params,
    load_model,
    save_model,
)
from dimino import dims

from conftest import random_sample


def small_config(**kw):
    base = dict(
        system="ns-vorticity2d",
        in_fields=["omega", "f"],
        target_fields=["omega"],
        rank=2,
        width=8,
        depth=2,
        modes=4,
        init_seed=0,
    )
    base.update(kw)
    return ModelConfig(**base)


# -- gate layout -----------------------------------------------------------

def _gate(c, n, gamma):
    """The model's gate layout, applied to one sample's gate inputs."""
    c = ad.Tape().leaf(np.asarray(c, dtype=float)[None])
    return ad.gate_expand(c, n, gamma).data[0]


def test_gate_expand_block_layout():
    assert ad.gate_block_length(8, 2, 0.25) == 3
    np.testing.assert_array_equal(_gate([2.0, 3.0], 8, 0.25), [2, 2, 2, 3, 3, 3, 1, 1])


def test_gate_expand_remainder_padding():
    assert ad.gate_block_length(7, 3, 0.0) == 2
    np.testing.assert_array_equal(_gate([4.0, 5.0, 6.0], 7, 0.0), [4, 4, 5, 5, 6, 6, 1])


def test_gate_expand_gamma_one_is_all_ones():
    np.testing.assert_array_equal(_gate([4.0, 5.0], 6, 1.0), np.ones(6))


def test_gate_expand_exhaustive_layout_law():
    for n in (1, 2, 5, 8, 16, 33, 64):
        for m in (1, 2, 3, 8):
            for gamma in (0.0, 0.25, 0.5, 0.75, 1.0):
                l = int(np.floor((1 - gamma) * n / m))
                assert ad.gate_block_length(n, m, gamma) == l
                out = _gate(np.arange(2, 2 + m, dtype=float), n, gamma)
                for i in range(n):
                    want = 2 + i // l if l > 0 and i < m * l else 1.0
                    assert out[i] == want, (n, m, gamma, i)


def test_gamma_one_model_bit_equals_gate_free_path():
    cfg = small_config(gamma=1.0)
    model = DimINOModel(cfg)
    sample = random_sample("ns-vorticity2d", seed=1)
    gated = model.predict([sample])

    # replay the pipeline with the gate stage removed entirely
    scales = dims.characteristic_scales_from_sample(sample)
    nd = dims.nondimensionalize(sample, scales)
    p = model.params
    tape = ad.Tape()
    x = tape.leaf(np.stack([nd.fields[n] for n in cfg.in_fields], axis=-1)[None])
    x = ad.layernorm(x, (1, 2))
    x = ad.linear(x, tape.leaf(p["pre_w1"]), tape.leaf(p["pre_b1"]))
    x = ad.gelu(x)
    x = ad.linear(x, tape.leaf(p["pre_w2"]), tape.leaf(p["pre_b2"]))
    for i in range(cfg.depth):
        xh = ad.rfftn(x, (1, 2))
        y = ad.mode_mix(xh, tape.leaf(p[f"block{i}_spec"]), (cfg.modes,) * 2)
        y = ad.irfftn(y, (1, 2), sample.grid.points)
        y = ad.add(y, ad.linear(x, tape.leaf(p[f"block{i}_byp_w"]),
                                tape.leaf(p[f"block{i}_byp_b"])))
        x = ad.gelu(y) if i < cfg.depth - 1 else y
    x = ad.linear(x, tape.leaf(p["head_w1"]), tape.leaf(p["head_b1"]))
    x = ad.gelu(x)
    x = ad.linear(x, tape.leaf(p["head_w2"]), tape.leaf(p["head_b2"]))
    ungated = x.data * scales["omega"].value
    np.testing.assert_array_equal(gated, ungated)


# -- config ----------------------------------------------------------------

def test_constant_names_exclude_fields_and_axes():
    assert small_config().constant_names == ["nu"]
    dr = small_config(
        system="diffreact2d", in_fields=["u", "v"], target_fields=["u", "v"]
    )
    assert dr.constant_names == ["Du", "Dv", "k"]


def test_twin_input_channels_include_constants_and_horizon():
    cfg = small_config(use_dimnorm=False)
    assert cfg.in_channels == 2 + 1 + 1  # fields + nu + t_final
    assert small_config().in_channels == 2


def test_init_params_deterministic_and_ordered():
    a = init_params(small_config())
    b = init_params(small_config())
    assert list(a) == list(b)
    for k in a:
        np.testing.assert_array_equal(a[k], b[k])
    c = init_params(small_config(init_seed=1))
    assert not np.array_equal(a["pre_w1"], c["pre_w1"])


def test_config_validation():
    with pytest.raises(ValueError):
        small_config(depth=0)
    with pytest.raises(ValueError):
        small_config(precision="f16")


@pytest.mark.parametrize("gamma", [1.5, -0.5])
def test_gamma_outside_unit_interval_rejected(gamma):
    # 1.5 would train an all-pass gate, -0.5 would fail later inside forward
    with pytest.raises(ValueError, match="gamma"):
        small_config(gamma=gamma)


# -- forward ---------------------------------------------------------------

def test_forward_shapes_and_finiteness():
    model = DimINOModel(small_config())
    samples = [random_sample("ns-vorticity2d", seed=s) for s in range(3)]
    out = model.predict(samples)
    assert out.shape == (3, 16, 16, 1)
    assert np.all(np.isfinite(out))


def test_mode_overflow_raises():
    model = DimINOModel(small_config(modes=12))
    with pytest.raises(ModeOverflow):
        model.predict([random_sample("ns-vorticity2d", seed=0)])


def test_field_set_mismatch_raises():
    model = DimINOModel(small_config())
    sample = random_sample("ns-vorticity2d", seed=0)
    del sample.fields["f"]
    with pytest.raises(FieldSetMismatch):
        model.predict([sample])


def test_gated_forward_extracts_scales_once_per_sample(monkeypatch):
    seen = []
    extract = dims.characteristic_scales_from_sample

    def counting(sample):
        seen.append(sample)
        return extract(sample)

    monkeypatch.setattr(dims, "characteristic_scales_from_sample", counting)
    model = DimINOModel(small_config())
    samples = [random_sample("ns-vorticity2d", seed=s) for s in range(3)]
    model.forward(samples)
    assert len(seen) == len(samples)
    assert all(a is b for a, b in zip(seen, samples))


def test_f32_precision_runs_in_single():
    model = DimINOModel(small_config(precision="f32"))
    out = model.predict([random_sample("ns-vorticity2d", seed=0)])
    assert out.dtype == np.float32


def test_latent_is_bit_invariant_under_similarity_transform():
    model = DimINOModel(small_config())
    sample = random_sample("ns-vorticity2d", seed=4)
    base = model.forward([sample])
    for p in (0.5, 2.0, 8.0):
        moved = model.forward([dims.similar_transform(sample, p)])
        np.testing.assert_array_equal(moved.u_star.data, base.u_star.data)
        np.testing.assert_array_equal(
            moved.output.data, base.output.data / p if p != 0.5 else
            base.output.data * 2.0
        )


def test_twin_latent_is_not_invariant():
    model = DimINOModel(small_config(use_dimnorm=False))
    sample = random_sample("ns-vorticity2d", seed=4)
    base = model.predict([sample])
    moved = model.predict([dims.similar_transform(sample, 2.0)])
    assert not np.allclose(moved, base / 2.0)


# -- spectral block oracle -------------------------------------------------

def _spectral_block(x, spec_w, byp_w, byp_b, modes):
    """One spectral block of ``forward`` before its activation, on (B, *spatial, C) input."""
    rank = len(modes)
    spatial_axes = tuple(range(1, 1 + rank))
    spatial = x.shape[1:1 + rank]
    tape = ad.Tape()
    xl = tape.leaf(x)
    xh = ad.rfftn(xl, spatial_axes)
    y = ad.mode_mix(xh, tape.leaf(spec_w), modes)
    y = ad.irfftn(y, spatial_axes, spatial)
    return ad.add(y, ad.linear(xl, tape.leaf(byp_w), tape.leaf(byp_b))).data


def test_spectral_block_matches_dense_circular_convolution():
    rng = np.random.default_rng(0)
    n, cin, cout, m = 32, 2, 3, 5
    x = rng.standard_normal((1, n, cin))
    w = rng.standard_normal((cin, cout, m)) + 1j * rng.standard_normal((cin, cout, m))
    byp_w = np.zeros((cin, cout))
    byp_b = np.zeros(cout)
    got = _spectral_block(x, w, byp_w, byp_b, (m,))

    # oracle: per channel pair, circular convolution with the kernel whose
    # spectrum is the zero-padded weight row
    want = np.zeros((1, n, cout))
    for o in range(cout):
        for i in range(cin):
            wpad = np.zeros(n // 2 + 1, dtype=complex)
            wpad[:m] = w[i, o]
            kernel = np.fft.irfft(wpad, n=n)
            conv = np.array([
                np.sum(x[0, :, i] * np.roll(kernel[::-1], j + 1))
                for j in range(n)
            ])
            want[0, :, o] += conv
    np.testing.assert_allclose(got, want, atol=1e-10)


def test_mode_mix_2d_truncates_outside_corners():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((1, 16, 16, 1))
    m = 3
    w = np.ones((1, 1, 2 * m, m), dtype=complex)
    tape = ad.Tape()
    y = ad.mode_mix(ad.rfftn(tape.leaf(x), (1, 2)), tape.leaf(w), (m, m))
    spec = y.data[0, :, :, 0]
    kept = np.zeros_like(spec, dtype=bool)
    kept[:m, :m] = kept[16 - m:, :m] = True
    assert np.all(spec[~kept] == 0)
    xh = np.fft.rfftn(x[0, :, :, 0], axes=(0, 1))
    np.testing.assert_allclose(spec[kept], xh[kept], atol=1e-12)


# -- checkpoints -----------------------------------------------------------

def test_checkpoint_round_trip_bit_exact(tmp_path):
    model = DimINOModel(small_config())
    path = tmp_path / "m.bin"
    save_model(model, path)
    loaded = load_model(path)
    assert loaded.config == model.config
    assert list(loaded.params) == list(model.params)
    for k in model.params:
        np.testing.assert_array_equal(loaded.params[k], model.params[k])
    sample = random_sample("ns-vorticity2d", seed=0)
    np.testing.assert_array_equal(
        loaded.predict([sample]), model.predict([sample])
    )


def test_checkpoint_truncation_detected(tmp_path):
    model = DimINOModel(small_config())
    path = tmp_path / "m.bin"
    save_model(model, path)
    raw = path.read_bytes()
    path.write_bytes(raw[:-20])
    with pytest.raises(CorruptCheckpoint):
        load_model(path)


def test_checkpoint_corruption_detected(tmp_path):
    model = DimINOModel(small_config())
    path = tmp_path / "m.bin"
    save_model(model, path)
    raw = bytearray(path.read_bytes())
    raw[100] ^= 0xFF
    path.write_bytes(bytes(raw))
    with pytest.raises(CorruptCheckpoint):
        load_model(path)


@pytest.fixture(scope="module")
def checkpoint_bytes(tmp_path_factory):
    path = tmp_path_factory.mktemp("ckpt") / "m.bin"
    save_model(DimINOModel(small_config()), path)
    return path.read_bytes()


@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_any_flipped_byte_raises_only_corrupt_checkpoint(checkpoint_bytes, data):
    raw = bytearray(checkpoint_bytes)
    at = data.draw(st.integers(0, len(raw) - 1), label="byte")
    raw[at] ^= data.draw(st.integers(1, 255), label="xor mask")
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.bin"
        path.write_bytes(bytes(raw))
        with pytest.raises(CorruptCheckpoint):
            load_model(path)


def test_checkpoint_bad_magic_detected(tmp_path):
    path = tmp_path / "m.bin"
    path.write_bytes(b"NOTACKPT" + b"\x00" * 64)
    with pytest.raises(CorruptCheckpoint):
        load_model(path)


def _rewrite_header(path, version=None, header=None, edit_config=None):
    """Rewrite a saved checkpoint's version or header and re-digest it, so
    only the header check can refuse it."""
    body = path.read_bytes()[:-8]
    off = len(CKPT_MAGIC)
    (old_version,) = struct.unpack_from("<I", body, off)
    (header_len,) = struct.unpack_from("<I", body, off + 4)
    raw = body[off + 8:off + 8 + header_len]
    if edit_config is not None:
        parsed = json.loads(raw)
        edit_config(parsed["config"])
        raw = json.dumps(parsed, sort_keys=True).encode()
    if header is not None:
        raw = header
    new = (CKPT_MAGIC + struct.pack("<I", old_version if version is None else version)
           + struct.pack("<I", len(raw)) + raw + body[off + 8 + header_len:])
    path.write_bytes(new + hashlib.blake2b(new, digest_size=8).digest())


@pytest.mark.parametrize("fault", [
    dict(version=2),
    dict(edit_config=lambda c: c.update(gate_ffw=True)),
    dict(edit_config=lambda c: c.pop("width")),
    dict(header=b"{not json"),
    dict(header=b"[1, 2]"),
    dict(edit_config=lambda c: c.update(gamma=1.5)),
    dict(edit_config=lambda c: c.update(depth="four")),
], ids=["v2-file", "unknown-key", "missing-key", "malformed-json", "not-an-object",
        "rejected-gamma", "wrong-type"])
def test_checkpoint_header_faults_are_typed(tmp_path, fault):
    path = tmp_path / "m.bin"
    save_model(DimINOModel(small_config()), path)
    _rewrite_header(path, **fault)
    with pytest.raises(CorruptCheckpoint):
        load_model(path)
