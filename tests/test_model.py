import gc
import hashlib
import json
import struct
import tempfile
import tracemalloc
import weakref
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dimino import autodiff as ad
from dimino.model import (
    CKPT_MAGIC,
    CKPT_VERSION,
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
from dimino.data import Batch, Grid, write_sealed
from dimino.solvers import random_fourier_field
from dimino.training import build_loss

from conftest import make_sample, random_batch, random_sample, row_scales


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
    gated = model.predict(Batch.stack([sample]))

    # replay the pipeline with the gate stage removed entirely
    scales = row_scales(sample)
    p = model.params
    tape = ad.Tape()
    x = tape.leaf(np.stack([sample.fields[n] / scales[n] for n in cfg.in_fields],
                           axis=-1)[None])
    x = ad.layernorm(x, (1, 2))
    x = ad.linear(x, tape.leaf(p["pre_w1"]), tape.leaf(p["pre_b1"]))
    x = ad.gelu(x)
    x = ad.linear(x, tape.leaf(p["pre_w2"]), tape.leaf(p["pre_b2"]))
    modes = (cfg.modes,) * 2
    for i in range(cfg.depth):
        xh = ad.rfftn(x, (1, 2), modes)
        y = ad.mode_mix(xh, tape.leaf(p[f"block{i}_spec"]))
        y = ad.irfftn(y, (1, 2), sample.grid.points, modes)
        y = ad.add(y, ad.linear(x, tape.leaf(p[f"block{i}_byp_w"]),
                                tape.leaf(p[f"block{i}_byp_b"])))
        x = ad.gelu(y) if i < cfg.depth - 1 else y
    x = ad.linear(x, tape.leaf(p["head_w1"]), tape.leaf(p["head_b1"]))
    x = ad.gelu(x)
    x = ad.linear(x, tape.leaf(p["head_w2"]), tape.leaf(p["head_b2"]))
    ungated = x.data * scales["omega"]
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


@pytest.mark.parametrize("field", ["width", "modes"])
def test_width_and_modes_below_one_rejected(field):
    # zero used to reach init_params and fail there as "float division by zero"
    with pytest.raises(ValueError, match=f"{field} must be >= 1, got 0"):
        small_config(**{field: 0})


@pytest.mark.parametrize("gamma", [1.5, -0.5])
def test_gamma_outside_unit_interval_rejected(gamma):
    # 1.5 would train an all-pass gate, -0.5 would fail later inside forward
    with pytest.raises(ValueError, match="gamma"):
        small_config(gamma=gamma)


# -- forward ---------------------------------------------------------------

def test_forward_shapes_and_finiteness():
    model = DimINOModel(small_config())
    out = model.predict(random_batch("ns-vorticity2d", range(3)))
    assert out.shape == (3, 16, 16, 1)
    assert np.all(np.isfinite(out))


def test_mode_overflow_raises():
    model = DimINOModel(small_config(modes=12))
    with pytest.raises(ModeOverflow):
        model.predict(random_batch("ns-vorticity2d"))


def test_field_set_mismatch_raises():
    model = DimINOModel(small_config())
    sample = random_sample("ns-vorticity2d", seed=0)
    del sample.fields["f"]
    with pytest.raises(FieldSetMismatch):
        model.predict(Batch.stack([sample]))


@pytest.mark.parametrize("gated", [True, False])
def test_samples_of_another_system_are_refused(gated):
    # burgers1d samples carry the field u that an advection1d model reads
    model = DimINOModel(ModelConfig("advection1d", ["u"], ["u"], 1, width=6, depth=2, modes=4,
                                    use_dimnorm=gated))
    with pytest.raises(FieldSetMismatch, match="'burgers1d'.*'advection1d'"):
        model.prepare(random_batch("burgers1d"))


def test_gated_prepare_extracts_scales_once_per_batch(monkeypatch):
    seen = []
    extract = dims.characteristic_scales_from_sample

    def counting(batch):
        seen.append((batch, extract(batch)))
        return seen[-1][1]

    monkeypatch.setattr(dims, "characteristic_scales_from_sample", counting)
    model = DimINOModel(small_config())
    batch = random_batch("ns-vorticity2d", range(3))
    model.forward(model.prepare(batch))
    ((arg, columns),) = seen
    assert arg is batch
    for name, column in columns.items():
        assert column.dtype == np.float64
        assert np.array_equal(column, [row_scales(row)[name] for row in batch]), name


def test_f32_precision_runs_in_single():
    model = DimINOModel(small_config(precision="f32"))
    out = model.predict(random_batch("ns-vorticity2d"))
    assert out.dtype == np.float32


@pytest.mark.parametrize("gated", [True, False])
def test_predict_reads_no_targets(gated):
    """predict gives the same bits with and without a batch's targets, and
    stacks no (B, *grid, Cout) target array for a batch that has them."""
    model = DimINOModel(small_config(use_dimnorm=gated))
    batch = random_batch("ns-vorticity2d", range(16), with_targets=True)
    bare = replace(batch, targets={})
    stack_bytes = batch.targets["omega"].nbytes

    def peak(b):
        gc.collect()
        gc.disable()
        tracemalloc.start()
        try:
            out = model.predict(b)
            return out, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            gc.enable()

    model.predict(batch)  # fills the cached DFT bases
    (with_targets, peak_with), (without, peak_without) = peak(batch), peak(bare)
    assert np.array_equal(with_targets, without)
    assert peak_with - peak_without < stack_bytes // 2


# Each system's input and target fields, as generate_dataset writes them.
FIELDS = {
    "advection1d": (["u"], ["u"]),
    "burgers1d": (["u"], ["u"]),
    "diffreact2d": (["u", "v"], ["u", "v"]),
    "ns-vorticity2d": (["omega", "f"], ["omega"]),
}


@st.composite
def sti_cases(draw):
    """A gated model on random weights, a random sample and a power-of-two p."""
    system = draw(st.sampled_from(sorted(FIELDS)))
    sample = random_batch(system, [draw(st.integers(0, 2**16))])
    points = sample.grid.points
    max_modes = points[0] // 2 if sample.grid.rank == 2 else points[-1] // 2
    in_fields, target_fields = FIELDS[system]
    config = ModelConfig(
        system=system, in_fields=in_fields, target_fields=target_fields,
        rank=sample.grid.rank,
        width=draw(st.integers(4, 16)),
        depth=draw(st.integers(1, 3)),
        modes=draw(st.integers(1, max_modes)),
        gamma=draw(st.floats(0.0, 1.0)),
        init_seed=draw(st.integers(0, 2**16)),
    )
    return DimINOModel(config), sample, 2.0 ** draw(st.integers(-3, 3))


@given(case=sti_cases())
@settings(max_examples=40, deadline=None)
def test_latent_is_bit_invariant_under_similarity_transform(case):
    model, sample, p = case
    base = model.forward(sample)
    moved = model.forward(dims.similar_transform(sample, p))
    rule = dims.similarity_exponents(sample.system)
    ratios = np.array([p ** rule[name] for name in model.config.target_fields])
    np.testing.assert_array_equal(moved.u_star.data, base.u_star.data)
    np.testing.assert_array_equal(moved.output.data, ratios * base.output.data)


def test_twin_latent_is_not_invariant():
    model = DimINOModel(small_config(use_dimnorm=False))
    batch = random_batch("ns-vorticity2d", [4])
    base = model.predict(batch)
    moved = model.predict(dims.similar_transform(batch, 2.0))
    assert not np.allclose(moved, base / 2.0)


# -- the input stage --------------------------------------------------------

@st.composite
def gathered_batches(draw):
    """A model, a Batch, and row indices into it, repeats allowed."""
    system = draw(st.sampled_from(sorted(FIELDS)))
    in_fields, target_fields = FIELDS[system]
    samples = random_batch(system, [draw(st.integers(0, 2**16))
                                    for _ in range(draw(st.integers(1, 4)))])
    config = ModelConfig(
        system=system, in_fields=in_fields, target_fields=target_fields,
        rank=samples[0].grid.rank, width=draw(st.integers(2, 8)), depth=2, modes=2,
        use_dimnorm=draw(st.booleans(), label="gated"),
        precision=draw(st.sampled_from(["f64", "f32"])),
        init_seed=draw(st.integers(0, 2**16)),
    )
    idx = draw(st.lists(st.integers(0, len(samples) - 1), min_size=1, max_size=6))
    return DimINOModel(config), samples, np.array(idx)


@given(case=gathered_batches())
@settings(max_examples=60, deadline=None)
def test_gathered_inputs_bit_equal_the_sample_list(case):
    model, samples, idx = case
    got = model.forward(model.prepare(samples).take(idx))
    want = model.forward(samples[idx])
    for a, b in ((got.output, want.output), (got.u_star, want.u_star)):
        assert a.data.dtype == b.data.dtype == model.config.dtype
        np.testing.assert_array_equal(a.data, b.data)


@pytest.mark.parametrize("gated", [True, False], ids=["gated", "twin"])
@pytest.mark.parametrize("system", ["burgers1d", "ns-vorticity2d"], ids=["1d", "2d"])
@given(data=st.data())
@settings(max_examples=15, deadline=None)
def test_a_chunk_of_two_or_more_rows_predicts_its_bits_in_the_full_batch(system, gated, data):
    """Rows are independent: any contiguous chunk of at least two rows of a
    batch predicts, bit for bit, what those rows get in the whole batch.
    (A one-row batch does not: numpy's (k, 1, Cin) @ (k, Cin, Cout) in
    ``mode_mix`` takes another path and rounds differently.)"""
    n = data.draw(st.integers(2, 8), label="rows")
    lo = data.draw(st.integers(0, n - 2), label="lo")
    hi = data.draw(st.integers(lo + 2, n), label="hi")
    batch = random_batch(system, [data.draw(st.integers(0, 2**16)) for _ in range(n)])
    in_fields, target_fields = FIELDS[system]
    model = DimINOModel(ModelConfig(
        system=system, in_fields=in_fields, target_fields=target_fields,
        rank=batch.grid.rank, width=data.draw(st.integers(2, 12), label="width"),
        depth=data.draw(st.integers(1, 3), label="depth"),
        modes=data.draw(st.integers(1, 8), label="modes"), use_dimnorm=gated,
        init_seed=data.draw(st.integers(0, 2**16), label="init_seed")))
    assert np.array_equal(model.predict(batch[lo:hi]), model.predict(batch)[lo:hi])


def _divide_then_stack(config, samples):
    """The input stage as (x, log_c, out_scales), built one sample at a
    time: the gated model divides each field by its own scale and stacks the
    quotients; the twin stacks fields, constants and t_final."""
    cast = [1] * config.rank
    if config.use_dimnorm:
        spec = dims.REGISTRY[config.system]
        xs, cvecs, outs = [], [], []
        for s in samples:
            sc = row_scales(s)
            xs.append(np.stack([s.fields[n] / sc[n] for n in config.in_fields], axis=-1))
            cvecs.append([number.evaluate(sc) for number in spec.numbers])
            outs.append([sc[n] for n in config.target_fields])
        return (np.stack(xs).astype(config.dtype),
                np.log(np.array(cvecs)).astype(config.dtype),
                np.array(outs).reshape(-1, *cast, config.out_channels).astype(config.dtype))
    chans = [np.stack([s.fields[n] for s in samples]) for n in config.in_fields]
    per_sample = [[s.constants[n] for s in samples] for n in config.constant_names]
    per_sample.append([s.t_final for s in samples])
    for vals in per_sample:
        chans.append(np.broadcast_to(np.array(vals).reshape(-1, *cast), chans[0].shape))
    return np.stack(chans, axis=-1).astype(config.dtype), None, None


@st.composite
def input_stage_cases(draw):
    """A model and 1-6 samples with mixed t_final, all fields float64 or all
    float32, and optionally one field whose scale is floored at EPS_FLOOR."""
    system = draw(st.sampled_from(sorted(FIELDS)))
    in_fields, target_fields = FIELDS[system]
    field_dtype = draw(st.sampled_from([np.float64, np.float32]))
    samples = [random_sample(system, seed=draw(st.integers(0, 2**16)),
                             t_final=draw(st.floats(1e-3, 1e3)))
               for _ in range(draw(st.integers(1, 6)))]
    for s in samples:
        s.fields = {n: a.astype(field_dtype) for n, a in s.fields.items()}
    if draw(st.booleans(), label="floored"):
        s = samples[draw(st.integers(0, len(samples) - 1))]
        name = draw(st.sampled_from(in_fields))
        peak = draw(st.sampled_from([0.0, 1e-3, 1.0])) * dims.EPS_FLOOR
        s.fields[name] = (s.fields[name] / np.max(np.abs(s.fields[name])) * peak
                          ).astype(field_dtype)
    config = ModelConfig(
        system=system, in_fields=in_fields, target_fields=target_fields,
        rank=samples[0].grid.rank, width=4, depth=1, modes=2,
        use_dimnorm=draw(st.booleans(), label="gated"),
        precision=draw(st.sampled_from(["f64", "f32"])),
    )
    return config, samples


@given(case=input_stage_cases())
@settings(max_examples=80, deadline=None)
def test_prepare_bit_equals_divide_then_stack(case):
    config, samples = case
    got = DimINOModel(config).prepare(Batch.stack(samples))
    want = _divide_then_stack(config, samples)
    for a, b in zip((got.x, got.log_c, got.out_scales), want):
        if b is None:
            assert a is None
        else:
            assert a.dtype == b.dtype == config.dtype
            np.testing.assert_array_equal(a, b)


def test_inputs_of_the_twin_carry_no_gate_or_scales():
    samples = random_batch("ns-vorticity2d", range(3))
    gated = DimINOModel(small_config()).prepare(samples)
    assert gated.x.shape == (3, 16, 16, 2)
    assert gated.log_c.shape == (3, len(dims.REGISTRY["ns-vorticity2d"]))
    assert gated.out_scales.shape == (3, 1, 1, 1)
    twin = DimINOModel(small_config(use_dimnorm=False)).prepare(samples).take([2, 0])
    assert twin.x.shape == (2, 16, 16, small_config(use_dimnorm=False).in_channels)
    assert twin.log_c is None and twin.out_scales is None


# -- what a training step keeps ---------------------------------------------

def _closure_contents(fn, seen=None):
    """Every object a backward closure reaches through its cells, nested
    closures included."""
    seen = set() if seen is None else seen
    out = []
    for cell in fn.__closure__ or ():
        obj = cell.cell_contents
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        out.append(obj)
        if callable(obj) and getattr(obj, "__closure__", None):
            out += _closure_contents(obj, seen)
    return out


def test_a_training_step_keeps_only_what_backward_reads(monkeypatch):
    """At the end of forward plus the h1 loss, a block's irfftn output and its
    bypass linear output are already freed, no tape node holds a Tensor, and
    the step holds at most 16 activations of (B, N, width)."""
    b, n, width = 8, 256, 16
    model = DimINOModel(ModelConfig("advection1d", ["u"], ["u"], 1, width=width,
                                    depth=4, modes=12))
    grid, rng = Grid((n,), (1.0,)), np.random.default_rng(0)
    samples = Batch.stack([
        make_sample("advection1d", grid, {"u": random_fourier_field(rng, grid)},
                    {"beta": 0.5 + 0.1 * i}, 1.0, {"u": random_fourier_field(rng, grid)})
        for i in range(b)])
    target = samples.targets["u"][..., None]

    def step():
        res = model.forward(samples, train=True)
        return res, build_loss("h1", res.output, target, 1)

    res, loss = step()  # warm the DFT basis caches
    res.tape.backward(loss)
    del res, loss

    freed = {"irfftn": [], "byp": []}
    irfftn, linear = ad.irfftn, ad.linear
    byp = {id(model.params[f"block{i}_byp_w"]) for i in range(4)}

    def watched_irfftn(y, axes, s, modes):
        out = irfftn(y, axes, s, modes)
        freed["irfftn"].append(weakref.ref(out.data))
        return out

    def watched_linear(x, w, b):
        out = linear(x, w, b)
        if id(w.data) in byp:
            freed["byp"].append(weakref.ref(out.data))
        return out

    monkeypatch.setattr(ad, "irfftn", watched_irfftn)
    monkeypatch.setattr(ad, "linear", watched_linear)
    gc.collect()
    gc.disable()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        res, loss = step()
        held = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
        gc.enable()
    assert [len(freed[k]) for k in freed] == [4, 4]
    assert all(ref() is None for refs in freed.values() for ref in refs)
    for _, _, backward in res.tape._nodes:
        assert not any(isinstance(o, ad.Tensor) for o in _closure_contents(backward))
    activation = b * n * width * 8
    assert held <= 16 * activation, f"{held / activation:.1f} activations held"
    res.tape.backward(loss)


# -- primitives each model path reaches ------------------------------------

FORWARD_PRIMITIVES = ("rfftn", "irfftn", "mode_mix", "linear", "gelu", "layernorm",
                      "gate_expand", "gate_mul", "add", "const_mul")
GATE_PRIMITIVES = ("layernorm", "gate_expand", "gate_mul", "const_mul")
LOSS_PRIMITIVES = ("sub", "reduce_sum", "power", "sqrt", "smul", "h1_seminorm2")


def _count_calls(monkeypatch):
    counts = dict.fromkeys(FORWARD_PRIMITIVES + LOSS_PRIMITIVES + ("Tape.backward",), 0)

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in FORWARD_PRIMITIVES + LOSS_PRIMITIVES:
        monkeypatch.setattr(ad, name, counted(name, getattr(ad, name)))
    monkeypatch.setattr(ad.Tape, "backward", counted("Tape.backward", ad.Tape.backward))
    return counts


@pytest.mark.parametrize("system, in_fields, target, rank, gated", [
    ("advection1d", ["u"], "u", 1, True),
    ("advection1d", ["u"], "u", 1, False),
    ("ns-vorticity2d", ["omega", "f"], "omega", 2, True),
])
def test_forward_and_training_step_reach_every_primitive(monkeypatch, system, in_fields,
                                                         target, rank, gated):
    """Every block runs rfftn, mode_mix and irfftn as separate tape primitives,
    and one h1 step reaches the loss primitives and the backward pass: the
    per-layer self-check of ``perfbench`` expects each of them to be called."""
    model = DimINOModel(ModelConfig(system, in_fields, [target], rank, width=8, depth=3,
                                    modes=4, use_dimnorm=gated))
    samples = random_batch(system, range(2), with_targets=True)
    counts = _count_calls(monkeypatch)
    res = model.forward(samples, train=True)
    expected = set(FORWARD_PRIMITIVES) - (set() if gated else set(GATE_PRIMITIVES))
    assert {name for name in expected if not counts[name]} == set()
    assert [counts[name] for name in ("rfftn", "mode_mix", "irfftn")] == [3, 3, 3]

    targets = samples.targets[target][..., None]
    res.tape.backward(build_loss("h1", res.output, targets, rank))
    assert {name for name in LOSS_PRIMITIVES + ("Tape.backward",) if not counts[name]} == set()


# -- spectral block oracle -------------------------------------------------

def _spectral_block(x, spec_w, byp_w, byp_b, modes):
    """One spectral block of ``forward`` before its activation, on (B, *spatial, C) input."""
    rank = len(modes)
    spatial_axes = tuple(range(1, 1 + rank))
    spatial = x.shape[1:1 + rank]
    tape = ad.Tape()
    xl = tape.leaf(x)
    xh = ad.rfftn(xl, spatial_axes, modes)
    y = ad.mode_mix(xh, tape.leaf(spec_w))
    y = ad.irfftn(y, spatial_axes, spatial, modes)
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
    y = ad.mode_mix(ad.rfftn(tape.leaf(x), (1, 2), (m, m)), tape.leaf(w))
    xh = np.fft.rfftn(x[0, :, :, 0], axes=(0, 1))
    kept = np.zeros_like(xh, dtype=bool)
    kept[:m, :m] = kept[16 - m:, :m] = True
    # the compact spectrum holds the corner rows [:m] then [16 - m:]
    corners = np.concatenate([xh[:m, :m], xh[16 - m:, :m]])
    np.testing.assert_allclose(y.data[0, :, :, 0], corners, atol=1e-12)
    back = ad.irfftn(y, (1, 2), (16, 16), (m, m)).data[0, :, :, 0]
    np.testing.assert_allclose(back, np.fft.irfftn(np.where(kept, xh, 0), s=(16, 16), axes=(0, 1)),
                               atol=1e-12)


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
    batch = random_batch("ns-vorticity2d")
    np.testing.assert_array_equal(loaded.predict(batch), model.predict(batch))


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


def _rewrite_header(path, version=None, header=None, edit=None):
    """Rewrite a saved checkpoint's version or header and re-digest it, so
    only the header check can refuse it."""
    body = path.read_bytes()[:-8]
    off = len(CKPT_MAGIC)
    (old_version,) = struct.unpack_from("<I", body, off)
    (header_len,) = struct.unpack_from("<I", body, off + 4)
    raw = body[off + 8:off + 8 + header_len]
    if edit is not None:
        parsed = json.loads(raw)
        edit(parsed)
        raw = json.dumps(parsed, sort_keys=True).encode()
    if header is not None:
        raw = header
    new = (CKPT_MAGIC + struct.pack("<I", old_version if version is None else version)
           + struct.pack("<I", len(raw)) + raw + body[off + 8 + header_len:])
    path.write_bytes(new + hashlib.blake2b(new, digest_size=8).digest())


@pytest.mark.parametrize("fault", [
    dict(version=2),
    dict(version=3),
    dict(version=4),
    dict(edit=lambda h: h["config"].update(gate_ffw=True)),
    dict(edit=lambda h: h["config"].pop("width")),
    dict(header=b"{not json"),
    dict(header=b"[1, 2]"),
    dict(edit=lambda h: h["config"].update(gamma=1.5)),
    dict(edit=lambda h: h["config"].update(depth="four")),
    dict(edit=lambda h: h["config"].update(width=0)),
    dict(edit=lambda h: h["config"].update(system="made-up")),
    dict(edit=lambda h: h["config"].update(in_fields=["omega", "nope"])),
    dict(edit=lambda h: h["config"].update(target_fields=["psi"])),
    dict(edit=lambda h: h["config"].update(in_fields=["omega", "x"])),
    dict(edit=lambda h: h.update(dataset_field_scales=None)),
    dict(edit=lambda h: h.update(dataset_field_scales={"omega": 1.0, "f": 1.0})),
    dict(edit=lambda h: h.update(comment="")),
    dict(edit=lambda h: h.update(Config=h["config"])),
    dict(edit=lambda h: h.update({"": None})),
    dict(edit=lambda h: h.update(config2={})),
], ids=["v2-file", "v3-file", "v4-file", "unknown-key", "missing-key", "malformed-json",
        "not-an-object", "rejected-gamma", "wrong-type", "zero-width", "unknown-system",
        "unknown-in-field", "unknown-target-field", "grid-name-as-field", "header-null-scales",
        "header-shared-scales", "header-comment", "header-config-twice", "header-empty-key",
        "header-extra-object"])
def test_checkpoint_header_faults_are_typed(tmp_path, fault):
    path = tmp_path / "m.bin"
    save_model(DimINOModel(small_config()), path)
    _rewrite_header(path, **fault)
    with pytest.raises(CorruptCheckpoint):
        load_model(path)


@pytest.mark.parametrize("edit", [
    lambda p: p.pop("head_b2"),
    lambda p: p.pop("cfw_w1"),
    lambda p: p.update(head_w2=np.zeros((3, 3))),
    lambda p: p.update(head_b1=p["head_b1"].astype(np.float32)),
    lambda p: p.update(block0_spec=p["block0_spec"].real.copy()),
    lambda p: p.update(extra=np.zeros(2)),
    lambda p: p.update({"pre_w1": p.pop("pre_w1")}),
], ids=["missing-head-b2", "missing-gate", "head-w2-shape", "head-b1-dtype", "real-spectrum",
        "extra-array", "reordered"])
def test_parameter_table_that_disagrees_with_the_config_is_refused(tmp_path, edit):
    model = DimINOModel(small_config())
    params = dict(model.params)
    edit(params)
    path = tmp_path / "m.bin"
    write_sealed(path, CKPT_MAGIC, CKPT_VERSION, {"config": asdict(model.config)}, params.items())
    with pytest.raises(CorruptCheckpoint, match="parameter table"):
        load_model(path)
