import gc
import math
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import erf

from dimino import autodiff as ad
from dimino import spectral
from dimino.model import DimINOModel, ModelConfig
from dimino.training import build_loss

from conftest import random_batch


def scalar_loss(t):
    return ad.reduce_sum(ad.power(t, 2))


# -- engine basics ---------------------------------------------------------

def test_simple_quadratic_gradient():
    tape = ad.Tape()
    x = tape.leaf(np.array([1.0, 2.0, 3.0]), requires_grad=True)
    tape.backward(scalar_loss(x))
    np.testing.assert_allclose(x.grad, [2.0, 4.0, 6.0])


def test_backward_rejects_nonscalar_loss():
    tape = ad.Tape()
    x = tape.leaf(np.ones(3), requires_grad=True)
    with pytest.raises(ad.NonScalarLoss):
        tape.backward(ad.power(x, 2))


def test_unused_leaf_gets_zero_gradient():
    tape = ad.Tape()
    x = tape.leaf(np.ones(3), requires_grad=True)
    y = tape.leaf(np.ones(3), requires_grad=True)
    tape.backward(scalar_loss(x))
    np.testing.assert_array_equal(y.grad, np.zeros(3))


def test_a_tape_replays_once():
    tape = ad.Tape()
    x = tape.leaf(np.array([1.0, 2.0]), requires_grad=True)
    loss = scalar_loss(x)
    tape.backward(loss)
    with pytest.raises(ad.AutodiffError, match="already replayed"):
        tape.backward(loss)
    np.testing.assert_array_equal(x.grad, [2.0, 4.0])


def test_backward_frees_each_step_without_the_cycle_collector():
    # The tape holds every activation and each Tensor holds its tape; backward
    # must break that cycle, or each step's arrays wait for gc.collect().
    samples = random_batch("advection1d", range(8), with_targets=True)
    target = np.stack([s.targets["u"] for s in samples])[..., None]
    model = DimINOModel(ModelConfig("advection1d", ["u"], ["u"], 1, width=16, depth=4,
                                    modes=8))

    def step():
        result = model.forward(samples, train=True)
        result.tape.backward(build_loss("h1", result.output, target, 1))

    step()
    gc.collect()
    gc.disable()
    tracemalloc.start()
    try:
        step()
        baseline = tracemalloc.get_traced_memory()[0]
        for _ in range(5):
            step()
        retained = tracemalloc.get_traced_memory()[0] - baseline
    finally:
        tracemalloc.stop()
        gc.enable()
    assert retained < 1_000_000, f"{retained / 1e6:.2f} MB retained by 5 steps"


def test_a_forward_only_tape_is_freed_without_the_cycle_collector(monkeypatch):
    # Only a requires-grad leaf is recorded on its tape, so the tape of a
    # predict refers to none of its tensors and dies with its result.
    model = DimINOModel(ModelConfig("advection1d", ["u"], ["u"], 1, width=8, depth=2,
                                    modes=4))
    samples = random_batch("advection1d", range(2))
    tapes = []
    forward = model.forward

    def recording(*args, **kwargs):
        result = forward(*args, **kwargs)
        tapes.append(weakref.ref(result.tape))
        return result

    monkeypatch.setattr(model, "forward", recording)
    gc.collect()
    gc.disable()
    try:
        model.predict(samples)
        assert len(tapes) == 1 and tapes[0]() is None
    finally:
        gc.enable()


def test_cross_tape_use_is_rejected():
    a = ad.Tape().leaf(np.ones(2))
    b = ad.Tape().leaf(np.ones(2))
    with pytest.raises(ad.AutodiffError):
        ad.add(a, b)


def test_gradients_are_deterministic():
    def run():
        tape = ad.Tape()
        x = tape.leaf(np.linspace(-1, 1, 12).reshape(3, 4), requires_grad=True)
        w = tape.leaf(np.linspace(0, 1, 8).reshape(4, 2), requires_grad=True)
        y = ad.gelu(ad.linear(x, w))
        tape.backward(ad.reduce_sum(ad.power(y, 2)))
        return x.grad.copy(), w.grad.copy()

    g1, g2 = run(), run()
    np.testing.assert_array_equal(g1[0], g2[0])
    np.testing.assert_array_equal(g1[1], g2[1])


def test_linear_shape_mismatch():
    tape = ad.Tape()
    x = tape.leaf(np.ones((2, 3)))
    w = tape.leaf(np.ones((4, 5)))
    with pytest.raises(ad.ShapeMismatch):
        ad.linear(x, w)


def test_h1_seminorm2_requires_even_axis():
    tape = ad.Tape()
    x = tape.leaf(np.ones((2, 15)))
    with pytest.raises(ad.UnsupportedPrimitive):
        ad.h1_seminorm2(x, (1,), (1.0,))


def test_layernorm_requires_positive_eps():
    tape = ad.Tape()
    x = tape.leaf(np.ones((2, 8)))
    with pytest.raises(ad.AutodiffError):
        ad.layernorm(x, (1,), eps=0.0)


# -- spectral identities ---------------------------------------------------

def test_fft_round_trip_identity():
    # keeping all N/2 real-FFT modes drops only the Nyquist mode, which x lacks
    rng = np.random.default_rng(0)
    xh = np.fft.rfft(rng.standard_normal((2, 16, 3)), axis=1)
    xh[:, -1] = 0
    x = np.fft.irfft(xh, 16, axis=1)
    tape = ad.Tape()
    t = tape.leaf(x)
    back = ad.irfftn(ad.rfftn(t, (1,), (8,)), (1,), (16,), (8,))
    assert np.max(np.abs(back.data - x)) < 1e-12


def test_parseval_identity():
    rng = np.random.default_rng(1)
    x = rng.standard_normal(64)
    xh = np.fft.rfft(x)
    # unnormalized forward: sum|x|^2 == (|X0|^2 + 2 sum_int |Xk|^2 + |XN|^2)/N
    spec = np.abs(xh[0]) ** 2 + 2 * np.sum(np.abs(xh[1:-1]) ** 2) + np.abs(xh[-1]) ** 2
    assert abs(np.sum(x**2) - spec / 64) < 1e-10


def test_layernorm_gradient_annihilates_constants():
    # adding a constant to the input does not change the output, so the
    # gradient must sum to zero over the normalized axes
    rng = np.random.default_rng(3)
    tape = ad.Tape()
    x = tape.leaf(rng.standard_normal((2, 8, 3)), requires_grad=True)
    y = ad.layernorm(x, (1,))
    tape.backward(ad.reduce_sum(ad.power(y, 3)))
    sums = x.grad.sum(axis=1)
    assert np.max(np.abs(sums)) < 1e-10


def test_gate_expand_layout_in_engine():
    tape = ad.Tape()
    c = tape.leaf(np.array([[2.0, 3.0]]))
    out = ad.gate_expand(c, 8, 0.25)
    np.testing.assert_array_equal(
        out.data[0], [2.0, 2.0, 2.0, 3.0, 3.0, 3.0, 1.0, 1.0]
    )


# -- numerical gradient audit ---------------------------------------------

def test_all_primitives_pass_grad_check():
    results = ad.standard_primitive_checks(seed=0)
    assert set(results)  # non-empty
    for name, err in results.items():
        assert err < 1e-6, f"{name}: {err:.3e}"


def test_grad_check_step_bounds():
    with pytest.raises(ValueError):
        ad.grad_check(lambda x: scalar_loss(x), [np.ones(3)], step=1e-2)


def test_grad_check_flags_a_wrong_gradient():
    def broken(x):
        # forward of mul, backward of identity: deliberately inconsistent
        return x.tape._emit(
            np.sum(x.data**2), (x,), lambda g: (np.ones_like(x.data),)
        )

    err = ad.grad_check(broken, [np.linspace(1, 2, 5)], n_sample=5, seed=0)
    assert err > 1e-2


# -- spectral mode mixing ----------------------------------------------------

def _mode_mix_einsum(xhat, w, modes, g):
    """The per-corner einsum form of mode_mix: forward y, and the cotangents
    gx, gw of Re<g, y>."""
    y, gx = np.zeros(xhat.shape[:-1] + w.shape[1:2], xhat.dtype), np.zeros_like(xhat)
    if len(modes) == 1:
        (m,) = modes
        y[:, :m] = np.einsum("bki,iok->bko", xhat[:, :m], w)
        gx[:, :m] = np.einsum("bko,iok->bki", g[:, :m], np.conj(w))
        gw = np.einsum("bki,bko->iok", np.conj(xhat[:, :m]), g[:, :m])
        return y, gx, gw.astype(w.dtype)
    m1, m2 = modes
    gws = []
    for rows, w_c in ((slice(0, m1), w[:, :, :m1]),
                      (slice(xhat.shape[1] - m1, None), w[:, :, m1:])):
        y[:, rows, :m2] = np.einsum("bxyi,ioxy->bxyo", xhat[:, rows, :m2], w_c)
        gx[:, rows, :m2] = np.einsum("bxyo,ioxy->bxyi", g[:, rows, :m2], np.conj(w_c))
        gws.append(np.einsum("bxyi,bxyo->ioxy", np.conj(xhat[:, rows, :m2]), g[:, rows, :m2]))
    return y, gx, np.concatenate(gws, axis=2).astype(w.dtype)


def _full_spectrum_block(x, w, modes, g):
    """The FNO block as full pocketfft transforms around a zero-filled,
    per-corner einsum mix: forward y, and the cotangents gx, gw of <g, y>."""
    axes = tuple(range(1, x.ndim - 1))
    sizes = x.shape[1:-1]
    xhat = spectral.rfftn(x, axes)
    gyhat = _irfftn_adjoint_copy_and_scale(g, axes, xhat.dtype)
    yhat, gxhat, gw = _mode_mix_einsum(xhat, w, modes, gyhat)
    return (spectral.irfftn(yhat, sizes, axes),
            _rfftn_adjoint_copy_and_scale(gxhat, sizes, axes, x.dtype), gw)


def _half_or_less(draw, n, label):
    """A mode count in [1, n // 2], with the edge n // 2 drawn often."""
    return draw(st.one_of(st.just(n // 2), st.integers(1, n // 2)), label=label)


@st.composite
def _kept_block_case(draw):
    rank = draw(st.sampled_from([1, 2]), label="rank")
    # power-of-two and other even grids; an axis before the last may be odd
    even = [2, 4, 8, 16, 32, 6, 10, 12, 18, 24]
    sizes = tuple(draw(st.sampled_from(even + ([5, 7, 9] if a < rank - 1 else [])),
                       label=f"N{a}") for a in range(rank))
    modes = tuple(_half_or_less(draw, n, f"m{a}") for a, n in enumerate(sizes))
    b = draw(st.integers(1, 3), label="B")
    c_in, c_out = draw(st.integers(1, 4), label="Cin"), draw(st.integers(1, 4), label="Cout")
    real = draw(st.sampled_from([np.float64, np.float32]), label="dtype")
    seed = draw(st.integers(0, 2**32 - 1), label="seed")
    return modes, (b, *sizes, c_in), c_out, real, seed


@given(case=_kept_block_case())
@settings(max_examples=150, deadline=None)
def test_kept_mode_block_matches_full_fft_and_einsum(case):
    modes, x_shape, c_out, real, seed = case
    rng = np.random.default_rng(seed)
    cplx = np.result_type(real, np.complex64)
    kept = tuple(2 * m for m in modes[:-1]) + modes[-1:]
    x = rng.standard_normal(x_shape).astype(real)
    w = (rng.standard_normal((x_shape[-1], c_out, *kept))
         + 1j * rng.standard_normal((x_shape[-1], c_out, *kept))).astype(cplx)
    g = rng.standard_normal(x_shape[:-1] + (c_out,)).astype(real)
    axes, sizes = tuple(range(1, len(x_shape) - 1)), x_shape[1:-1]
    tape = ad.Tape()
    xl, wl = tape.leaf(x, requires_grad=True), tape.leaf(w, requires_grad=True)
    y = ad.irfftn(ad.mode_mix(ad.rfftn(xl, axes, modes), wl), axes, sizes, modes)
    tape.backward(ad.reduce_sum(ad.const_mul(y, g)))  # cotangent of y is g

    # Each result is bilinear in two operands.  A result that cancels to near
    # zero (the DC mode alone, m = 1, often does) is judged against the size
    # of its operands' products, not against its own size.
    rtol = 1e-13 if real == np.float64 else 1e-5
    amax = lambda a: float(np.max(np.abs(a)))
    operands = ((x, w), (g, w), (x, g))
    for got, want, (a, b) in zip((y.data, xl.grad, wl.grad),
                                 _full_spectrum_block(x, w, modes, g), operands):
        assert got.shape == want.shape and got.dtype == want.dtype
        assert amax(got - want) <= rtol * max(amax(want), amax(a) * amax(b))


def test_kept_mode_arguments_are_checked():
    tape = ad.Tape()
    x = tape.leaf(np.ones((1, 7, 8, 2)))
    with pytest.raises(ad.ShapeMismatch, match="do not fit grid"):
        ad.rfftn(x, (1, 2), (4, 2))  # 2 * 4 rows on a 7-point axis
    with pytest.raises(ad.ShapeMismatch, match="do not fit grid"):
        ad.rfftn(x, (1, 2), (3, 5))  # 5 real-FFT modes on 8 points
    with pytest.raises(ad.ShapeMismatch, match="do not fit grid"):
        ad.rfftn(x, (1, 2), (3, 0))
    with pytest.raises(ad.ShapeMismatch, match="do not fit grid"):
        ad.rfftn(x, (1, 2), (3,))
    xk = ad.rfftn(x, (1, 2), (3, 2))
    assert xk.shape == (1, 6, 2, 2)
    np.testing.assert_array_equal(ad.rfftn(x, (-3, -2), (3, 2)).data, xk.data)
    np.testing.assert_array_equal(ad.irfftn(xk, (-3, -2), (7, 8), (3, 2)).data,
                                  ad.irfftn(xk, (1, 2), (7, 8), (3, 2)).data)
    with pytest.raises(ad.ShapeMismatch, match="weight"):
        ad.mode_mix(xk, tape.leaf(np.ones((2, 3, 6, 3), dtype=complex)))
    with pytest.raises(ad.ShapeMismatch, match="weight"):
        ad.mode_mix(xk, tape.leaf(np.ones((3, 3, 6, 2), dtype=complex)))
    with pytest.raises(ad.ShapeMismatch, match="compact layout"):
        ad.irfftn(xk, (1, 2), (7, 8), (3, 3))
    with pytest.raises(ad.ShapeMismatch, match="do not fit grid"):
        ad.irfftn(xk, (1, 2), (5, 8), (3, 2))


@pytest.mark.parametrize("system, in_fields, target, rank", [
    ("advection1d", ["u"], "u", 1), ("ns-vorticity2d", ["omega", "f"], "omega", 2)])
def test_cold_and_warm_basis_caches_give_equal_results(system, in_fields, target, rank):
    model = DimINOModel(ModelConfig(system, in_fields, [target], rank, width=8, depth=2, modes=4))
    samples = random_batch(system, range(3), with_targets=True)
    targets = np.stack([s.targets[target] for s in samples])[..., None]

    def step():
        res = model.forward(samples, train=True)
        res.tape.backward(build_loss("h1", res.output, targets, rank))
        return res.output.data, {k: t.grad for k, t in res.leaves.items()}

    spectral._real_basis.cache_clear()
    spectral._complex_basis.cache_clear()
    cold = step()
    warm = step()
    np.testing.assert_array_equal(cold[0], warm[0])
    for name in cold[1]:
        np.testing.assert_array_equal(cold[1][name], warm[1][name])


# -- rewritten kernels against the expressions they replace -----------------

def _rfftn_adjoint_copy_and_scale(g, sizes, axes, dtype):
    d = np.array(g)
    d[(slice(None),) * axes[-1] + (slice(1, -1),)] *= 0.5
    return (spectral.irfftn(d, s=sizes, axes=axes) * math.prod(sizes)).astype(dtype, copy=False)


def _irfftn_adjoint_copy_and_scale(g, axes, dtype):
    gy = spectral.rfftn(g, axes=axes)
    gy[(slice(None),) * axes[-1] + (slice(1, -1),)] *= 2.0
    n_total = math.prod(g.shape[a] for a in axes)
    return (gy / n_total).astype(dtype, copy=False)


def _gelu_erf_expressions(x, g):
    cdf = 0.5 * (1.0 + erf(x * (1.0 / math.sqrt(2.0))))
    pdf = np.exp(-0.5 * x**2) * (1.0 / math.sqrt(2.0 * math.pi))
    return x * cdf, g * (cdf + x * pdf)


def _h1_seminorm_chain(x, extent, g):
    """The H1 seminorm as the four-node tape chain rfftn -> abs2 -> const_mul
    -> reduce_sum, node by node in numpy: the per-row forward, and the
    cotangent of x for the cotangent g of that forward."""
    axes, sizes = tuple(range(1, x.ndim - 1)), x.shape[1:-1]
    sum_axes = tuple(range(1, x.ndim))
    w = spectral.h1_weights(sizes, extent)[..., None].astype(x.dtype)
    xh = spectral.rfftn(x, axes)
    y = ((xh.real**2 + xh.imag**2) * w).sum(axis=sum_axes)
    gh = np.broadcast_to(np.expand_dims(g, sum_axes), xh.shape).copy()  # reduce_sum
    gh = xh * (2 * (gh * np.conj(w)))  # const_mul, then abs2
    # the full rfftn's adjoint: N at DC and Nyquist, N/2 on the modes between
    adj = np.full(xh.shape[-2], 0.5 * math.prod(sizes))
    adj[[0, -1]] = math.prod(sizes)
    gx = spectral.irfftn(np.multiply(gh, adj[:, None], dtype=gh.dtype), sizes, axes)
    return y, gx.astype(x.dtype, copy=False)


@given(rank=st.sampled_from([1, 2]), b=st.integers(1, 3), c=st.integers(1, 3),
       sizes=st.lists(st.sampled_from([2, 4, 8, 16, 32]), min_size=2, max_size=2),
       extent=st.lists(st.floats(0.25, 8.0).filter(lambda e: e != 1.0), min_size=2,
                       max_size=2),
       real=st.sampled_from([np.float64, np.float32]), wide=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
@settings(max_examples=150, deadline=None)
def test_h1_seminorm2_bit_equals_the_four_node_chain(rank, b, c, sizes, extent, real, wide,
                                                     seed):
    """Forward and input gradient, against the chain the primitive replaced;
    a float32 field may meet a float64 cotangent."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((b, *sizes[:rank], c)).astype(real)
    g = rng.standard_normal(b).astype(np.float64 if wide else real)
    extent = tuple(extent[:rank])
    xl = (tape := ad.Tape()).leaf(x, requires_grad=True)
    y = ad.h1_seminorm2(xl, tuple(range(1, 1 + rank)), extent)
    tape.backward(ad.reduce_sum(ad.const_mul(y, g)))  # cotangent of y is g
    want_y, want_gx = _h1_seminorm_chain(x, extent, g)
    for got, want in ((y.data, want_y), (xl.grad, want_gx)):
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)


@given(shape=st.lists(st.integers(1, 9), min_size=1, max_size=3),
       real=st.sampled_from([np.float64, np.float32]), wide=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_gelu_bit_equals_erf_expressions(shape, real, wide, seed):
    """Forward with and without a gradient, and the derivative that forward
    builds for backward, against the erf expressions; a float32 input may
    meet a float64 cotangent."""
    rng = np.random.default_rng(seed)
    x = (3 * rng.standard_normal(shape)).astype(real)
    g = rng.standard_normal(shape).astype(np.float64 if wide else real)
    want_y, want_gx = _gelu_erf_expressions(x, g)
    tape = ad.Tape()
    xl = tape.leaf(x, requires_grad=True)
    y = ad.gelu(xl)
    tape.backward(ad.reduce_sum(ad.const_mul(y, g)))  # cotangent of y is g
    y_no_grad = ad.gelu(ad.Tape().leaf(x))
    for got, want in ((y.data, want_y), (y_no_grad.data, want_y), (xl.grad, want_gx)):
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(x, xl.data)  # the input is never written


def test_gelu_without_a_gradient_records_no_node_and_builds_no_derivative(monkeypatch):
    exps = []
    exp = np.exp
    monkeypatch.setattr(np, "exp", lambda *a, **k: exps.append(1) or exp(*a, **k))
    tape = ad.Tape()
    x = np.linspace(-3, 3, 12).reshape(3, 4)
    ad.gelu(tape.leaf(x))
    assert tape._nodes == [] and exps == []
    ad.gelu(tape.leaf(x, requires_grad=True))
    assert len(tape._nodes) == 1 and len(exps) == 1


# -- step workspace --------------------------------------------------------

# Each model's system, input fields, target field and rank.
_WS_MODELS = {1: ("advection1d", ["u"], "u"), 2: ("ns-vorticity2d", ["omega", "f"], "omega")}


def _ws_model(rank, gated, precision="f64", width=6):
    system, fields, target = _WS_MODELS[rank]
    return DimINOModel(ModelConfig(system, fields, [target], rank, width=width, depth=2,
                                   modes=4, use_dimnorm=gated, precision=precision))


def _ws_step(model, samples):
    """Forward, h1 loss and backward of one batch: output, loss and leaf grads."""
    target = model.config.target_fields[0]
    result = model.forward(samples, train=True)
    loss = build_loss("h1", result.output,
                      np.stack([s.targets[target] for s in samples])[..., None],
                      model.config.rank)
    result.tape.backward(loss)
    return result.output.data, loss.data, {n: t.grad for n, t in result.leaves.items()}


@pytest.fixture
def pool_everything(monkeypatch):
    """Route every array, however small, through the workspace's pool."""
    monkeypatch.setattr(ad, "_SMALL", 1)


@given(rank=st.sampled_from([1, 2]), precision=st.sampled_from(["f64", "f32"]),
       gated=st.booleans(), sizes=st.lists(st.integers(1, 5), min_size=2, max_size=4),
       seed=st.integers(0, 2**16))
@settings(max_examples=30, deadline=None)
def test_a_workspace_tape_equals_the_plain_tape_bit_for_bit(rank, precision, gated, sizes,
                                                              seed):
    system = _WS_MODELS[rank][0]
    model = _ws_model(rank, gated, precision)
    batches = [random_batch(system, [seed + 10 * i + j for j in range(b)], with_targets=True)
               for i, b in enumerate(sizes)]
    want = [_ws_step(model, batch) for batch in batches]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ad, "_SMALL", 1)
        with ad.Workspace():
            got = [_ws_step(model, batch) for batch in batches]
    for (out, loss, grads), (w_out, w_loss, w_grads) in zip(got, want):
        assert np.array_equal(out, w_out) and out.dtype == w_out.dtype
        assert np.array_equal(loss, w_loss)
        for n in w_grads:
            assert np.array_equal(grads[n], w_grads[n]) and grads[n].dtype == w_grads[n].dtype, n


def test_arrays_a_caller_holds_are_never_overwritten(pool_everything):
    samples = random_batch("advection1d", range(60), with_targets=True)
    twin, gated = _ws_model(1, False), _ws_model(1, True)
    held = []
    with ad.Workspace():
        # batch sizes 16, 12, 32 of distinct samples, so every overwrite shows
        for batch in (samples[:16], samples[16:28], samples[28:]):
            b = len(batch)
            pred = twin.predict(batch)
            # the twin's output is its head linear's, so it sits on a pooled buffer
            assert pred.base is not None and pred.base.dtype == np.uint8
            out, loss, grads = _ws_step(gated, batch)
            # a leaf read twice gets its gradient by the fan-in sum, also pooled
            tape = ad.Tape()
            x = tape.leaf(np.full((b, 64, 6), float(b)), requires_grad=True)
            w = tape.leaf(np.eye(6))
            tape.backward(scalar_loss(ad.add(ad.linear(x, w), ad.gelu(x))))
            assert x.grad.base is not None and x.grad.base.dtype == np.uint8
            arrays = [pred, out, loss, x.grad, *grads.values()]
            held.append((arrays, [a.copy() for a in arrays]))
        for arrays, copies in held:
            for a, c in zip(arrays, copies):
                assert np.array_equal(a, c)


def test_a_buffer_is_handed_out_only_while_free():
    ws = ad.Workspace()
    with ws:
        a = ws.empty((16, 1024), np.float64)
        view = a[3:5].view(np.complex128)
        ids = {id(a.base)}  # ids, not references, so the buffers can come free
        del a
        b = ws.empty((16, 1024), np.float64)  # the first buffer is still viewed
        assert not np.shares_memory(b, view)
        ids.add(id(b.base))
        del view, b
        # both are free again, and smaller requests of any dtype reuse them
        c = ws.empty((8, 1024), np.float64)
        d = ws.empty((4, 1024), np.complex128)
        assert {id(c.base), id(d.base)} == ids
    # outside the with block the workspace pools nothing
    assert ws.empty((16, 1024), np.float64).base is None
