import math
import resource
import sys
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dimino.data import Batch, Dataset, Grid
from dimino import spectral, training
from dimino.dims import EPS_FLOOR, similar_transform
from dimino.model import DimINOModel, ModelConfig, load_model, save_model
from dimino.solvers import generate_dataset
from dimino.training import (
    LOSS_FLOOR,
    LOSS_KINDS,
    METRIC_KINDS,
    MissingSplit,
    NaNLoss,
    TrainConfig,
    adam_step,
    build_loss,
    evaluate,
    format_metric_table,
    gains,
    grad_check_model,
    _FlatParams,
    _lr_at,
    history_json,
    rel_metric,
    train,
)
from dimino import autodiff as ad

from conftest import random_batch, random_sample


# -- metrics ---------------------------------------------------------------

def _field_rel_metric(kind, pred, target, extent=None) -> float:
    """The per-field rule that ``rel_metric`` applies to each row: the
    relative error of one field of one sample, or its absolute norm when the
    target vanishes."""
    extent = (1.0,) * pred.ndim if extent is None else tuple(extent)
    e = pred - target
    if kind == "rel-l2":
        num, den = np.linalg.norm(e.ravel()), np.linalg.norm(target.ravel())
    elif kind == "rel-l1":
        num, den = np.abs(e).sum(), np.abs(target).sum()
    else:
        axes = tuple(range(e.ndim))
        h1 = lambda f: np.sum(f**2) + spectral.h1_seminorm2(f, axes, extent)[0]
        num, den = math.sqrt(h1(e)), math.sqrt(h1(target))
    return float(num) if den == 0 else float(num / den)


@st.composite
def metric_cases(draw):
    """(kind, pred, target, extent): a (B, *grid, C) stack in float32 or
    float64, some of whose target rows are zero."""
    rank = draw(st.integers(1, 2))
    sizes = [2, 3, 6, 8, 16, 64, 256] if rank == 1 else [2, 3, 4, 8, 16, 32]
    grid = tuple(draw(st.sampled_from(sizes)) for _ in range(rank))
    rows, channels = draw(st.integers(1, 5)), draw(st.integers(1, 3))
    extent = draw(st.none() | st.tuples(*[st.sampled_from([0.25, 1.0, 3.0])] * rank))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = 10.0 ** draw(st.integers(-3, 3))
    pred, target = (scale * rng.standard_normal((rows, *grid, channels)) for _ in range(2))
    pred = pred.astype(draw(st.sampled_from([np.float32, np.float64])))
    target = target.astype(draw(st.sampled_from([np.float32, np.float64])))
    zero = np.array(draw(st.lists(st.booleans(), min_size=rows, max_size=rows)))
    target[zero] = 0.0
    if draw(st.booleans()):
        pred[zero] = 0.0
    return draw(st.sampled_from(METRIC_KINDS)), pred, target, extent


@given(case=metric_cases())
@settings(max_examples=300, deadline=None)
def test_rel_metric_scores_each_row_by_the_per_field_rule(case):
    """One call on a stack gives, bit for bit and without a warning, each
    row's per-field rule as float64: on whole rows, and on channel slices
    ``[..., j]``, whose strided layout must not change the summation."""
    kind, pred, target, extent = case
    grid_extent = None if extent is None else extent + (1.0,)
    stacks = [(pred, target, grid_extent)]
    stacks += [(pred[..., j], target[..., j], extent) for j in range(pred.shape[-1])]
    for p, t, ext in stacks:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = rel_metric(kind, p, t, ext)
        want = np.array([_field_rel_metric(kind, pi, ti, ext) for pi, ti in zip(p, t)])
        assert got.dtype == np.float64 and got.shape == (len(p),)
        assert np.array_equal(got, want)


@pytest.mark.parametrize("kind", ["rel-l2", "rel-h1", "rel-l1"])
def test_metric_zero_on_equal_fields(kind):
    rng = np.random.default_rng(0)
    a = rng.standard_normal((1, 32))
    assert rel_metric(kind, a, a.copy()).tolist() == [0.0]


@pytest.mark.parametrize("kind", ["rel-l2", "rel-h1", "rel-l1"])
def test_metric_one_on_zero_prediction(kind):
    rng = np.random.default_rng(1)
    t = rng.standard_normal((1, 32))
    assert rel_metric(kind, np.zeros_like(t), t)[0] == pytest.approx(1.0)


@pytest.mark.parametrize("kind", ["rel-l2", "rel-h1", "rel-l1"])
def test_metric_invariant_under_joint_scaling(kind):
    rng = np.random.default_rng(2)
    for trial in range(20):
        pred = rng.standard_normal((1, 16, 16))
        target = rng.standard_normal((1, 16, 16))
        base = rel_metric(kind, pred, target)[0]
        scaled = rel_metric(kind, 7.5 * pred, 7.5 * target)[0]
        assert scaled == pytest.approx(base, rel=1e-12)


def test_metric_absolute_fallback_on_zero_target():
    pred = np.ones((1, 8))
    assert rel_metric("rel-l2", pred, np.zeros((1, 8)))[0] == pytest.approx(
        np.linalg.norm(pred)
    )


def test_rel_h1_penalizes_gradient_error_more():
    n = 64
    x = np.linspace(0, 1, n, endpoint=False)
    target = np.sin(2 * np.pi * x)[None]
    rough = target + 0.01 * np.sin(2 * np.pi * 24 * x)
    assert rel_metric("rel-h1", rough, target)[0] > rel_metric("rel-l2", rough, target)[0]


def test_metric_shape_mismatch():
    with pytest.raises(ad.ShapeMismatch):
        rel_metric("rel-l2", np.ones((1, 4)), np.ones((1, 5)))
    with pytest.raises(ValueError):
        rel_metric("rel-linf", np.ones((1, 4)), np.ones((1, 4)))


def test_build_loss_matches_rel_metric_for_l2():
    rng = np.random.default_rng(3)
    pred = rng.standard_normal((2, 16, 1))
    target = rng.standard_normal((2, 16, 1))
    tape = ad.Tape()
    out = tape.leaf(pred)
    loss = build_loss("l2", out, target, rank=1)
    want = np.mean(rel_metric("rel-l2", pred[..., 0], target[..., 0]))
    assert float(loss.data) == pytest.approx(want, rel=1e-12)


def test_build_loss_h1_matches_rel_metric():
    rng = np.random.default_rng(4)
    for shape, extent in (((2, 16, 16, 1), (1.0, 1.0)), ((3, 32, 1), (2.0,)),
                          ((2, 16, 8, 3), (1.0, 2.0))):
        pred, target = rng.standard_normal(shape), rng.standard_normal(shape)
        tape = ad.Tape()
        loss = build_loss("h1", tape.leaf(pred), target, len(extent), extent)
        # rel_metric falls back to each row's absolute norm against a zero
        # field; a row's loss is the relative norm over all of its channels
        norm2 = lambda f: rel_metric("rel-h1", f, np.zeros_like(f), extent) ** 2
        want = np.mean(np.sqrt(
            sum(norm2(pred[..., c] - target[..., c]) for c in range(shape[-1]))
            / sum(norm2(target[..., c]) for c in range(shape[-1]))))
        assert float(loss.data) == pytest.approx(want, rel=1e-12)


# -- gains -----------------------------------------------------------------

def _gain(base, score):
    return gains({"rel-l2": base}, {"rel-l2": score})["rel-l2-gain"]


def test_gain_formula_reference_points():
    assert _gain(1.203, 0.915) == pytest.approx(0.239, abs=5e-4)
    assert _gain(24.792, 5.866) == pytest.approx(0.763, abs=5e-4)
    assert _gain(1.0, 1.0) == 0.0


def test_a_zero_or_missing_base_score_has_no_gain_column():
    table = {"rel-l2": 0.1, "rel-h1": 0.2, "rel-l1": 0.3}
    got = gains({"rel-l2": 0.0, "rel-h1": 0.4}, table)
    assert got == {"rel-h1-gain": pytest.approx(0.5)}


# -- adam ------------------------------------------------------------------

def test_adam_zero_gradient_is_identity():
    p = [np.array([1.0, -2.0])]
    state = {}
    adam_step(p, [np.zeros(2)], state, lr=0.1)
    np.testing.assert_array_equal(p[0], [1.0, -2.0])


def test_adam_converges_on_quadratic():
    p = [np.array([5.0, -3.0])]
    state = {}
    for _ in range(2000):
        adam_step(p, [2 * p[0]], state, lr=0.05)
    assert np.max(np.abs(p[0])) < 1e-6


def test_adam_first_step_size_is_lr():
    # bias correction makes the first step exactly lr * sign(g)
    p = [np.array([0.0])]
    adam_step(p, [np.array([3.0])], {}, lr=0.01)
    assert p[0][0] == pytest.approx(-0.01, rel=1e-6)


def test_adam_handles_complex_parameters():
    p = [np.array([1.0 + 1.0j])]
    state = {}
    for _ in range(3000):
        adam_step(p, [p[0].copy()], state, lr=0.05)
    assert abs(p[0][0]) < 1e-5


def _adam_per_array(params, grads, state, lr, betas=(0.9, 0.999), eps=1e-8):
    """Adam as one loop over the parameter arrays, each update in fresh arrays:
    the reference that the in-place, flat update must reproduce."""
    if not state:
        state["step"] = 0
        state["m"] = [np.zeros_like(p) for p in params]
        state["v"] = [np.zeros_like(p) for p in params]
    b1, b2 = betas
    state["step"] += 1
    t = state["step"]
    for p, g, m, v in zip(params, grads, state["m"], state["v"]):
        m *= b1
        m += (1 - b1) * g
        v *= b2
        v += (1 - b2) * np.abs(g) ** 2
        mhat = m / (1 - b1**t)
        vhat = v / (1 - b2**t)
        p -= lr * mhat / (np.sqrt(vhat) + eps)


@pytest.mark.parametrize("precision", ["f64", "f32"])
def test_flat_adam_bit_equals_the_per_array_loop(precision):
    rng = np.random.default_rng(11)
    real, cplx = (np.float64, np.complex128) if precision == "f64" else (np.float32, np.complex64)
    shapes = {"w": ((5, 7), real), "spec": ((3, 3, 4), cplx), "b": ((7,), real),
              "spec2": ((2, 3), cplx), "head": ((4, 1), real)}

    def draw(shape, dtype):
        a = rng.standard_normal(shape) * 10.0 ** rng.integers(-6, 3, shape)
        if np.issubdtype(dtype, np.complexfloating):
            a = a + 1j * rng.standard_normal(shape) * 10.0 ** rng.integers(-6, 3, shape)
        return a.astype(dtype)

    params = {n: draw(*spec) for n, spec in shapes.items()}
    want = {n: p.copy() for n, p in params.items()}
    flat = _FlatParams(params)
    assert list(flat.views) == list(params)
    state, ref_state = {}, {}
    for step in range(25):
        grads = {n: draw(*spec) for n, spec in shapes.items()}
        leaves = {n: SimpleNamespace(grad=g) for n, g in grads.items()}
        adam_step(flat.flat, flat.gather(leaves), state, lr=1e-2 * (1 + step % 3))
        _adam_per_array(list(want.values()), list(grads.values()), ref_state,
                        lr=1e-2 * (1 + step % 3))
    for n in params:
        assert flat.views[n].dtype == want[n].dtype
        assert np.array_equal(flat.views[n], want[n]), n
    # the per-array call of the in-place update agrees as well
    per_array = {n: p.copy() for n, p in params.items()}
    ref = {n: p.copy() for n, p in params.items()}
    state, ref_state = {}, {}
    for step in range(5):
        grads = [draw(*shapes[n]) for n in params]
        adam_step(list(per_array.values()), grads, state, lr=3e-3)
        _adam_per_array(list(ref.values()), grads, ref_state, lr=3e-3)
    for n in params:
        assert np.array_equal(per_array[n], ref[n]), n


# -- train loop ------------------------------------------------------------

def _tiny_dataset(system="advection1d", n=12, seed=0):
    grid = Grid((32,), (1.0,))
    return generate_dataset(system, {}, n, seed, grid, 1.0)


def _tiny_model(seed=0, **kw):
    base = dict(
        system="advection1d", in_fields=["u"], target_fields=["u"], rank=1,
        width=6, depth=2, modes=4, init_seed=seed,
    )
    base.update(kw)
    return DimINOModel(ModelConfig(**base))


def test_zero_lr_training_is_flat():
    ds = _tiny_dataset()
    cfg = TrainConfig(loss="l2", epochs=3, batch_size=4, lr=0.0,
                      warmup_epochs=0, patience=0)
    _, history = train(_tiny_model(), ds, cfg)
    # parameters never move, so the validation metric is exactly flat
    scores = [h["valid_rel-l2"] for h in history]
    assert scores[0] == scores[-1]


def test_training_reduces_loss_and_restores_best():
    ds = _tiny_dataset(n=16)
    cfg = TrainConfig(loss="l2", epochs=12, batch_size=4, lr=5e-3,
                      seed=0, patience=0)
    model, history = train(_tiny_model(), ds, cfg)
    assert history[-1]["train_loss"] < history[0]["train_loss"]
    best = min(h["valid_rel-l2"] for h in history)
    # the returned model is the best-valid checkpoint
    assert min(h["valid_rel-l2"] for h in history) == best


def test_training_is_deterministic():
    ds = _tiny_dataset()
    cfg = TrainConfig(loss="l2", epochs=4, batch_size=4, lr=2e-3, seed=7)
    m1, h1 = train(_tiny_model(), ds, cfg)
    m2, h2 = train(_tiny_model(), ds, cfg)
    assert h1 == h2
    for k in m1.params:
        np.testing.assert_array_equal(m1.params[k], m2.params[k])


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_nan_loss_raises():
    ds = _tiny_dataset()
    model = _tiny_model()
    model.params["head_w2"] *= np.inf
    cfg = TrainConfig(loss="l2", epochs=1, batch_size=4, lr=1e-3)
    with pytest.raises(NaNLoss):
        train(model, ds, cfg)


@pytest.fixture(scope="module")
def burgers_dataset():
    return _tiny_dataset("burgers1d", n=10)


@pytest.mark.parametrize("use_dimnorm,precision", [
    pytest.param(dimnorm, precision,
                 id=f"per-sample-{dimnorm}" + ("" if precision == "f64" else f"-{precision}"))
    for precision in ("f64", "f32")
    for dimnorm in (True, False)
])
def test_checkpoint_reload_keeps_predictions_bit_identical(
        burgers_dataset, tmp_path, use_dimnorm, precision):
    model = _tiny_model(system="burgers1d", use_dimnorm=use_dimnorm, precision=precision)
    cfg = TrainConfig(loss="l2", epochs=2, batch_size=4, patience=0)
    model, _ = train(model, burgers_dataset, cfg)
    save_model(model, tmp_path / "m.bin")
    loaded = load_model(tmp_path / "m.bin")
    assert loaded.config == model.config
    samples = burgers_dataset.split("train")
    np.testing.assert_array_equal(loaded.predict(samples), model.predict(samples))


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(epochs=0)
    with pytest.raises(ValueError):
        TrainConfig(lr=-1.0)


def test_a_loss_outside_loss_kinds_is_refused_at_construction():
    assert [TrainConfig(loss=kind).loss for kind in LOSS_KINDS] == ["h1", "l2"]
    with pytest.raises(ValueError, match=r"loss must be one of \('h1', 'l2'\), got 'l3'"):
        TrainConfig(loss="l3")
    with pytest.raises(ValueError, match="loss must be one of"):
        build_loss("l3", ad.Tape().leaf(np.ones((1, 4, 1))), np.ones((1, 4, 1)), rank=1)


@pytest.mark.parametrize("field, value", [
    ("valid_frac", float("nan")), ("valid_frac", 1.5), ("valid_frac", 1.0),
    ("valid_frac", 0.0), ("valid_frac", -0.5), ("warmup_epochs", -3),
])
def test_bad_split_fraction_and_warmup_rejected(field, value):
    with pytest.raises(ValueError, match=f"{field} must .*, got {value}"):
        TrainConfig(**{field: value})


def _train_per_batch(model, dataset, cfg):
    """``train`` as it was before the input stage ran once per call: each
    step prepares its own rows and stacks its own targets, and validation
    predicts batches of rows."""
    samples = dataset.split("train")
    perm = np.random.default_rng(cfg.seed).permutation(len(samples))
    n_valid = max(1, int(round(cfg.valid_frac * len(samples))))
    valid = samples[perm[:n_valid]]
    train_samples = samples[perm[n_valid:]]
    names = list(model.params)
    state, history = {}, []
    best = {"rel-l2": np.inf, "params": None, "epoch": -1}
    extent = dataset.grid.extent
    for epoch in range(cfg.epochs):
        lr = _lr_at(cfg, epoch)
        order = np.random.default_rng([cfg.seed, epoch]).permutation(len(train_samples))
        losses = []
        for start in range(0, len(order), cfg.batch_size):
            batch = train_samples[order[start:start + cfg.batch_size]]
            result = model.forward(batch, train=True)
            target = np.stack([batch.targets[n] for n in model.config.target_fields], axis=-1)
            loss = build_loss(cfg.loss, result.output, target, model.config.rank, extent)
            result.tape.backward(loss)
            adam_step([model.params[n] for n in names],
                      [result.leaves[n].grad for n in names], state, lr)
            losses.append(float(loss.data))
        sums, count = dict.fromkeys(METRIC_KINDS, 0.0), 0
        for start in range(0, len(valid), 32):
            batch = valid[start:start + 32]
            pred = model.predict(batch)
            for i, s in enumerate(batch):
                for j, name in enumerate(model.config.target_fields):
                    for k in METRIC_KINDS:
                        sums[k] += _field_rel_metric(k, pred[i, ..., j], s.targets[name], extent)
                    count += 1
        metrics = {k: sums[k] / count for k in METRIC_KINDS}
        history.append({"epoch": epoch, "lr": lr, "train_loss": float(np.mean(losses)),
                        **{f"valid_{k}": metrics[k] for k in METRIC_KINDS}})
        if metrics["rel-l2"] < best["rel-l2"]:
            best = {"rel-l2": metrics["rel-l2"], "epoch": epoch,
                    "params": {k: v.copy() for k, v in model.params.items()}}
    model.params = best["params"]
    return model, history


@pytest.mark.parametrize("use_dimnorm", [True, False], ids=["gated", "twin"])
def test_train_bit_equals_the_per_batch_loop(monkeypatch, use_dimnorm):
    # 180 samples: 36 validate in two predict batches (32 + 4), and 144 train
    # in batches of 40, so the last batch of each epoch is short.
    ds = generate_dataset("advection1d", {"amp": (0.01, 100.0)}, 180, 3,
                          Grid((32,), (1.0,)), 1.0)
    cfg = TrainConfig(loss="h1", epochs=3, batch_size=40, lr=5e-3, seed=5,
                      warmup_epochs=1, patience=0)
    want, want_history = _train_per_batch(_tiny_model(use_dimnorm=use_dimnorm), ds, cfg)
    prepared = []
    prepare = DimINOModel.prepare
    monkeypatch.setattr(DimINOModel, "prepare",
                        lambda self, samples: prepared.append(len(samples)) or
                        prepare(self, samples))
    got, got_history = train(_tiny_model(use_dimnorm=use_dimnorm), ds, cfg)
    # the train split once, then the valid split once
    assert prepared == [144, 36]
    assert got_history == want_history
    assert list(got.params) == list(want.params)
    for k in got.params:
        np.testing.assert_array_equal(got.params[k], want.params[k])


# Each system's input fields, target fields and rank.
_MODEL_FIELDS = {
    "advection1d": (["u"], ["u"], 1),
    "burgers1d": (["u"], ["u"], 1),
    "diffreact2d": (["u", "v"], ["u", "v"], 2),
    "ns-vorticity2d": (["omega", "f"], ["omega"], 2),
}


@given(system=st.sampled_from(sorted(_MODEL_FIELDS)), loss=st.sampled_from(["h1", "l2"]),
       precision=st.sampled_from(["f64", "f32"]), k=st.integers(-3, 3).filter(bool),
       seed=st.integers(0, 2**16))
@settings(max_examples=40, deadline=None)
def test_gated_training_is_similarity_invariant(system, loss, precision, k, seed):
    """Training on the similarity transform T_p(D), p = 2^k, leaves the gated
    model's parameters and history bit-identical to training on D; the
    twin's differ.  random_sample's scales stay far above EPS_FLOOR here."""
    in_fields, target_fields, rank = _MODEL_FIELDS[system]
    samples = random_batch(system, range(seed, seed + 24), with_targets=True)
    cfg = TrainConfig(loss=loss, epochs=3, batch_size=8, seed=seed, patience=0)

    def run(use_dimnorm, data):
        model = DimINOModel(ModelConfig(system, in_fields, target_fields, rank, width=8,
                                        depth=2, modes=4, use_dimnorm=use_dimnorm,
                                        precision=precision))
        model, history = train(model, Dataset(system, data.grid, {"train": data}), cfg)
        return history, model.params

    def same(a, b):
        return a[0] == b[0] and all(np.array_equal(a[1][n], b[1][n]) for n in a[1])
    moved = similar_transform(samples, 2.0 ** k)
    assert same(run(True, samples), run(True, moved))
    assert not same(run(False, samples), run(False, moved))


@pytest.mark.parametrize("ulps, invariant", [(-1, False), (0, True), (1, True)],
                         ids=["below-floor", "at-floor", "above-floor"])
def test_training_invariance_ends_where_a_field_scale_crosses_eps_floor(ulps, invariant):
    """Gated training on T_p(D) stays bit-identical to training on D until a
    field's max-abs under T_p falls below EPS_FLOOR, where its characteristic
    scale is floored: one ulp below the floor breaks it, the floor itself
    and one ulp above it do not."""
    p = 8.0  # burgers1d's u is a velocity, so T_p divides it by p
    edge = EPS_FLOOR + ulps * np.spacing(EPS_FLOOR)
    samples = [random_sample("burgers1d", seed=s, with_targets=True) for s in range(12)]
    first = samples[0]
    u, target = first.fields["u"], first.targets["u"]
    # max-abs exactly p * edge, so exactly edge under T_p
    first.fields["u"] = u / np.max(np.abs(u)) * (p * edge)
    first.targets["u"] = target / np.max(np.abs(target)) * (p * edge)
    samples = Batch.stack(samples)
    moved = similar_transform(samples, p)
    assert np.max(np.abs(moved[0].fields["u"])) == edge
    assert min(np.max(np.abs(s.fields["u"])) for s in moved[1:]) > 1e3 * EPS_FLOOR
    cfg = TrainConfig(loss="h1", epochs=2, batch_size=4, seed=3, patience=0)

    def run(data):
        model = _tiny_model(system="burgers1d")
        model, history = train(model, Dataset("burgers1d", data.grid, {"train": data}), cfg)
        return history, model.params

    (h, params), (h_moved, params_moved) = run(samples), run(moved)
    same = h == h_moved and all(np.array_equal(params[n], params_moved[n]) for n in params)
    assert same == invariant


def _floor_case(edge_target, split):
    """burgers1d samples whose first sample of ``split`` has, under T_8, a
    target with sum of squares exactly ``edge_target``, zero but for two
    entries; every input field stays far above EPS_FLOOR."""
    p = 8.0  # burgers1d's u is a velocity, so T_p divides it by p
    samples = [random_sample("burgers1d", seed=s, with_targets=True) for s in range(12)]
    cfg = TrainConfig(loss="l2", epochs=2, batch_size=4, seed=3, patience=0)
    perm = np.random.default_rng(cfg.seed).permutation(len(samples))
    n_valid = max(1, int(round(cfg.valid_frac * len(samples))))
    k = perm[0] if split == "valid" else perm[n_valid]
    a = np.sqrt(edge_target)
    while a * a > edge_target:
        a = np.nextafter(a, 0.0)
    moved_target = np.zeros_like(samples[k].targets["u"])
    moved_target[:2] = a, np.sqrt(edge_target - a * a)
    samples[k].targets["u"] = p * moved_target
    samples = Batch.stack(samples)
    moved = similar_transform(samples, p)
    assert np.sum(moved[k].targets["u"] ** 2) == edge_target
    assert min(np.max(np.abs(s.fields["u"])) for s in moved) > 1e3 * EPS_FLOOR

    def run(data):
        model = _tiny_model(system="burgers1d")
        model, history = train(model, Dataset("burgers1d", data.grid, {"train": data}), cfg)
        return history, model.params

    (h, params), (h_moved, params_moved) = run(samples), run(moved)
    return h == h_moved and all(np.array_equal(params[n], params_moved[n]) for n in params)


@pytest.mark.parametrize("ulps, invariant", [(-1, False), (0, True), (1, True)],
                         ids=["below-floor", "at-floor", "above-floor"])
def test_training_invariance_ends_where_a_target_norm_crosses_the_loss_floor(ulps, invariant):
    """Gated l2 training on T_p(D) stays bit-identical to training on D until
    a training target's sum of squares under T_p falls below LOSS_FLOOR, where
    build_loss floors its denominator: one ulp below breaks it, the floor
    itself and one ulp above it do not."""
    assert _floor_case(LOSS_FLOOR + ulps * np.spacing(LOSS_FLOOR), "train") == invariant


@pytest.mark.parametrize("split", ["train", "valid"])
def test_a_zero_target_breaks_training_invariance(split):
    """A zero target has no relative error: build_loss floors its
    denominator, and rel_metric (den == 0) falls back to the absolute norm,
    which T_p rescales."""
    assert not _floor_case(0.0, split)


def test_evaluate_missing_split():
    ds = _tiny_dataset()
    with pytest.raises(MissingSplit):
        evaluate(_tiny_model(), ds, "test")


def test_evaluate_refuses_an_empty_split_before_prepare(monkeypatch):
    ds = _tiny_dataset()
    ds.splits["test"] = ds.split("train")[:0]
    model = _tiny_model()
    monkeypatch.setattr(model, "prepare", lambda batch: pytest.fail("prepared"))
    with pytest.raises(MissingSplit, match="split 'test' has no samples"):
        evaluate(model, ds, "test")


def test_evaluate_gain_columns():
    ds = _tiny_dataset()
    table = evaluate(_tiny_model(), ds, "train")
    assert not any(k.endswith("-gain") for k in table)
    table.update(gains({"rel-l2": 1.0, "rel-h1": 1.0, "rel-l1": 1.0}, table))
    assert "rel-l2-gain" in table
    assert table["rel-l2-gain"] == pytest.approx(1.0 - table["rel-l2"])


def test_format_metric_table_layout():
    text = format_metric_table({"m": {"rel-l2": 0.915, "rel-l2-gain": 0.239}})
    assert "91.500" in text
    assert "23.9%" in text


def test_format_metric_table_never_runs_cells_together():
    # a burgers1d twin once printed 519853377.8413149589500.228 for two cells
    wide = {"rel-l2": 5.2e6, "rel-h1": 3.1e7, "rel-l1": 1e12, "rel-l2-gain": -4.2e9,
            "rel-h1-gain": -1e13, "rel-l1-gain": None}
    lines = format_metric_table({"twin": wide, "m": {"rel-l2": 0.5}}).splitlines()
    assert [len(line.split()) for line in lines] == [7, 7, 7]
    assert lines[1].split()[1:4] == ["520000000.000", "3100000000.000", "100000000000000.000"]


def test_history_json_is_line_delimited():
    text = history_json([{"epoch": 0, "train_loss": 1.0}])
    assert text.endswith("\n")
    assert '"epoch": 0' in text


def test_full_model_grad_check():
    ds = _tiny_dataset(n=2)
    err = grad_check_model(_tiny_model(), ds.split("train"), seed=0)
    assert err < 1e-6


@pytest.mark.parametrize("system, in_fields, target, rank", [
    ("advection1d", ["u"], "u", 1), ("ns-vorticity2d", ["omega", "f"], "omega", 2)])
def test_full_model_h1_grad_check(system, in_fields, target, rank):
    model = DimINOModel(ModelConfig(system, in_fields, [target], rank, width=6, depth=2,
                                    modes=4))
    samples = random_batch(system, range(2), with_targets=True)
    assert grad_check_model(model, samples, loss_kind="h1", seed=0) < 1e-6


@pytest.mark.parametrize("system, in_fields, target, rank", [
    ("advection1d", ["u"], "u", 1), ("ns-vorticity2d", ["omega", "f"], "omega", 2)])
def test_float32_model_trains_with_float32_gradients(system, in_fields, target, rank):
    model = DimINOModel(ModelConfig(system, in_fields, [target], rank, width=8, depth=2,
                                    modes=4, precision="f32"))
    samples = random_batch(system, range(3), with_targets=True)
    res = model.forward(samples, train=True)
    targets = samples.targets[target][..., None]
    loss = build_loss("h1", res.output, targets, rank)
    assert loss.data.dtype == np.float32
    res.tape.backward(loss)
    for name, leaf in res.leaves.items():
        assert leaf.grad.dtype == model.params[name].dtype, name


# Minor page faults per steady-state step (train step plus, at an epoch's
# end, its validation pass) of the paired-advection gated model, as the
# median over the last two of four epochs.  On a 2-vCPU Linux VM (glibc
# 2.36, numpy 2.4.6), over 8 runs, the median read 0 with the step
# workspace (no steady step above 12); over 5 runs without it, when each
# step's freed arrays were trimmed from the heap and faulted back in by the
# next step, it read 758-1613.
MAX_STEADY_FAULTS_PER_STEP = 32


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="counts Linux minor page faults")
def test_steady_state_training_steps_do_not_fault(monkeypatch):
    ds = generate_dataset("advection1d", {"amp": (0.01, 100.0)}, 96, 1,
                          Grid((256,), (1.0,)), 1.0)
    cfg = TrainConfig(loss="h1", epochs=4, batch_size=16, seed=1, patience=0)
    marks = []
    adam = training.adam_step

    def counted(*args, **kwargs):
        out = adam(*args, **kwargs)
        marks.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt)
        return out

    monkeypatch.setattr(training, "adam_step", counted)
    config = ModelConfig("advection1d", ["u"], ["u"], 1, width=16, depth=4, modes=12)
    train(DimINOModel(config), ds, cfg)  # the process's heap reaches its size
    marks.clear()
    train(DimINOModel(config), ds, cfg)
    per_step = np.diff(marks)
    steady = per_step[len(per_step) // 2:]
    assert np.median(steady) <= MAX_STEADY_FAULTS_PER_STEP, per_step.tolist()
