import ast
from pathlib import Path

import numpy as np
import pytest
import scipy.fft
from hypothesis import given, settings, strategies as st

from dimino import autodiff as ad
from dimino import spectral
from dimino.training import rel_metric

POW2 = st.sampled_from([8, 16, 32, 64])
EXTENT = st.floats(0.25, 8.0)


def _trig_polynomial(rng, shape, extent, n_terms=4):
    """Random sum of plane waves below Nyquist on a periodic grid, and its
    exact gradient."""
    xs = np.meshgrid(*[np.arange(n) * (L / n) for n, L in zip(shape, extent)],
                     indexing="ij")
    f = np.zeros(shape)
    grads = [np.zeros(shape) for _ in shape]
    for _ in range(n_terms):
        m = [int(rng.integers(-(n // 2) + 1, n // 2)) for n in shape]
        a, phase = rng.uniform(-1, 1), rng.uniform(0, 2 * np.pi)
        arg = sum(2 * np.pi * mi * x / L for mi, x, L in zip(m, xs, extent)) + phase
        f += a * np.cos(arg)
        for g, mi, L in zip(grads, m, extent):
            g -= a * (2 * np.pi * mi / L) * np.sin(arg)
    return f, grads


def _seminorm2(f, extent):
    fh = spectral.rfftn(f, tuple(range(f.ndim)))
    return np.sum(spectral.h1_weights(f.shape, tuple(extent)) * (fh.real**2 + fh.imag**2))


@settings(max_examples=60, deadline=None)
@given(shape=st.lists(POW2, min_size=1, max_size=2),
       extent=st.lists(EXTENT, min_size=2, max_size=2),
       seed=st.integers(0, 2**32 - 1))
def test_h1_weights_match_analytic_gradient_energy(shape, extent, seed):
    extent = extent[:len(shape)]
    f, grads = _trig_polynomial(np.random.default_rng(seed), shape, extent)
    exact = sum(np.sum(g**2) for g in grads)
    assert abs(_seminorm2(f, extent) - exact) <= 1e-10 * max(1.0, exact)


@given(n=POW2, channels=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=20, deadline=None)
def test_gradients_carry_batch_and_channel_axes(n, channels, seed):
    """The H1 weights, broadcast over a (batch, *spatial, channel) spectrum as
    the training loss does, weigh each slice exactly as that slice alone."""
    arr = np.random.default_rng(seed).standard_normal((3, n, n, channels))
    w = spectral.h1_weights((n, n), (1.0, 2.0))
    ah = spectral.rfftn(arr, (1, 2))
    energy = w[..., None] * (ah.real**2 + ah.imag**2)
    for b in range(3):
        for c in range(channels):
            fh = spectral.rfftn(arr[b, :, :, c], (0, 1))
            assert np.array_equal(energy[b, :, :, c], w * (fh.real**2 + fh.imag**2))


@given(shape=st.lists(POW2, min_size=1, max_size=2), extent=st.lists(EXTENT, min_size=2, max_size=2))
def test_h1_weights_vanish_only_on_dc_and_nyquist_modes(shape, extent):
    shape, extent = tuple(shape), tuple(extent[:len(shape)])
    w = spectral.h1_weights(shape, extent)
    # a mode with every axis at DC or Nyquist has zero weight, every other a positive one
    edge = np.ones((), dtype=bool)
    for n, m in zip(shape, spectral.mode_numbers(shape)):
        edge = edge & ((m == 0) | (m == n // 2))
    assert w.shape == edge.shape
    assert np.all(w[edge] == 0) and np.all(w[~edge] > 0)
    # so a field holding only Nyquist modes has a zero seminorm
    idx = np.indices(shape)
    for axes in ([0], [len(shape) - 1], list(range(len(shape)))):
        nyquist = (-1.0) ** sum(idx[a] for a in axes)
        assert _seminorm2(nyquist, extent) <= 1e-20 * nyquist.size


def _grid_coords(shape):
    return np.meshgrid(*[np.arange(n) / n for n in shape], indexing="ij")


@pytest.mark.parametrize("shape, modes", [
    ((7,), (3,)), ((7, 8), (3, 0)), ((8, 7), (0, 3)), ((7, 5), (3, 2)), ((9, 6), (4, 2)),
], ids=["1d-7", "2d-odd-first", "2d-odd-last", "2d-both-odd", "2d-9x6"])
def test_h1_seminorm_on_an_odd_axis_keeps_its_highest_mode(shape, modes):
    """On an odd axis, index n // 2 is a real mode, not a Nyquist one, so the
    seminorm of a product of sines at the top modes is its analytic value:
    sum over the grid of |grad f|^2 (for sin(2 pi 3x) on 7 points, 36 pi^2 7 / 2)."""
    xs = _grid_coords(shape)
    waves = [np.sin(2 * np.pi * m * x) if m else np.ones_like(x) for m, x in zip(modes, xs)]
    f = np.prod(waves, axis=0)
    n_total = np.prod(shape)
    # each sine squared sums to half its axis, a constant axis to all of it
    share = np.prod([0.5 if m else 1.0 for m in modes])
    want = sum((2 * np.pi * m) ** 2 for m in modes) * share * n_total
    got = spectral.h1_seminorm2(f, tuple(range(len(shape))), (1.0,) * len(shape))[0]
    assert got == pytest.approx(want, rel=1e-12)
    # rel-h1 against a constant target of 1: the target's seminorm is 0, and
    # sum(f) is 0, so the error's squared H1 norm is sum(f**2) + n_total + want
    rel = rel_metric("rel-h1", f, np.ones(shape))
    assert rel == pytest.approx(np.sqrt((share * n_total + n_total + want) / n_total),
                                rel=1e-12)


def _power_of_two_h1_weights(shape, extent):
    """``h1_weights`` as written before odd axes were handled: every axis
    zeroed at index n // 2."""
    k2 = 0.0
    for n, k in zip(shape, spectral.wavenumbers(shape, extent)):
        k = k.copy()
        k.flat[n // 2] = 0.0
        k2 = k2 + k**2
    mult = np.ones(shape[-1] // 2 + 1)
    mult[1:(shape[-1] + 1) // 2] = 2.0
    return k2 * (mult / np.prod(shape))


@pytest.mark.parametrize("shape", [
    (2,), (8,), (16,), (32,), (64,), (128,), (256,), (2, 2), (8, 8), (16, 16), (32, 32),
    (64, 64), (8, 16), (16, 8), (16, 32), (6,), (10, 12)])
@pytest.mark.parametrize("extent", [1.0, 3.0, 0.25])
def test_h1_weights_are_unchanged_on_even_axes(shape, extent):
    extent = (extent,) * len(shape)
    assert np.array_equal(spectral.h1_weights(shape, extent),
                          _power_of_two_h1_weights(shape, extent))


def test_h1_weights_check_the_extent():
    with pytest.raises(ad.ShapeMismatch, match="extent"):
        spectral.h1_weights((8,), (1.0, 2.0))
    with pytest.raises(ad.ShapeMismatch, match="extent"):
        spectral.h1_weights((8, 8), ())
    with pytest.raises(ad.ShapeMismatch, match="extent"):
        rel_metric("rel-h1", np.ones(8), np.arange(8.0), (1.0, 2.0))
    with pytest.raises(ad.ShapeMismatch, match="extent"):
        rel_metric("rel-h1", np.ones(8), np.arange(8.0), ())


@given(shape=st.lists(POW2, min_size=1, max_size=2), extent=st.lists(EXTENT, min_size=2, max_size=2))
def test_wavenumbers_match_numpy_frequencies(shape, extent):
    extent = extent[:len(shape)]
    ks = spectral.wavenumbers(shape, extent)
    for axis, (n, L, k) in enumerate(zip(shape, extent, ks)):
        freq = np.fft.rfftfreq if axis == len(shape) - 1 else np.fft.fftfreq
        assert np.array_equal(k.reshape(-1), 2 * np.pi * freq(n, d=L / n))


def _old_dealias_mask_1d(n, frac):
    m = np.arange(n // 2 + 1)
    return m <= frac * (n // 2)


def _old_dealias_mask_2d(shape, frac):
    nx, ny = shape
    mx = np.abs(np.fft.fftfreq(nx) * nx) <= frac * (nx // 2)
    my = np.arange(ny // 2 + 1) <= frac * (ny // 2)
    return mx[:, None] & my[None, :]


FRAC = st.one_of(st.just(2.0 / 3.0), st.just(1.0), st.floats(0.01, 1.0))


@given(n=st.sampled_from([4, 8, 16, 32, 64, 128, 256]), frac=FRAC)
def test_dealias_mask_1d_keeps_the_same_modes(n, frac):
    assert np.array_equal(spectral.dealias_mask((n,), frac), _old_dealias_mask_1d(n, frac))


@given(nx=st.sampled_from([4, 8, 16, 32, 64, 128]),
       ny=st.sampled_from([4, 8, 16, 32, 64, 128]), frac=FRAC)
def test_dealias_mask_2d_keeps_the_same_modes(nx, ny, frac):
    got = spectral.dealias_mask((nx, ny), frac)
    assert got.shape == (nx, ny // 2 + 1)
    assert np.array_equal(got, _old_dealias_mask_2d((nx, ny), frac))


@pytest.mark.parametrize("shape, axes", [((16, 256, 16), (1,)), ((8, 32, 32, 16), (1, 2))])
def test_transforms_bit_equal_numpy_on_model_shapes(shape, axes):
    x = np.random.default_rng(0).standard_normal(shape)
    s = [shape[a] for a in axes]
    xh = spectral.rfftn(x, axes=axes)
    assert np.array_equal(xh, np.fft.rfftn(x, axes=axes))
    assert np.array_equal(spectral.irfftn(xh, s=s, axes=axes),
                          np.fft.irfftn(xh, s=s, axes=axes))


@given(k=st.integers(1, 4), nx=POW2, ny=POW2, seed=st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_stacked_transform_equals_per_slice(k, nx, ny, seed):
    w = np.random.default_rng(seed).standard_normal((k, nx, ny))
    wh = spectral.rfftn(w, (-2, -1))
    back = spectral.irfftn(wh, (nx, ny), (-2, -1))
    for i in range(k):
        assert np.array_equal(wh[i], spectral.rfftn(w[i], (-2, -1)))
        assert np.array_equal(back[i], spectral.irfftn(wh[i], (nx, ny), (-2, -1)))


@pytest.mark.parametrize("shape, axes", [((32,), (0,)), ((16, 8), (0, 1)),
                                         ((3, 16, 16), (-2, -1)), ((4, 1, 8, 16), (-2, -1))],
                         ids=["1d", "2d", "stacked", "stacked-4d"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_out_is_written_returned_and_bit_equal(shape, axes, dtype):
    rng = np.random.default_rng(7)
    x = rng.standard_normal(shape).astype(dtype)
    s = tuple(shape[a] for a in axes)
    want = spectral.rfftn(x, axes)
    out = np.full(want.shape, np.nan, want.dtype)  # stale content must not show through
    assert spectral.rfftn(x, axes, out=out) is out and np.array_equal(out, want)
    y = (rng.standard_normal(want.shape) + 1j * rng.standard_normal(want.shape)).astype(want.dtype)
    y_before = y.copy()
    want = spectral.irfftn(y, s, axes)
    back = np.full(shape, np.nan, dtype)
    assert spectral.irfftn(y, s, axes, out=back) is back and np.array_equal(back, want)
    assert np.array_equal(y, y_before)


def test_irfftn_with_out_keeps_its_layout_check():
    out = np.zeros((16, 16))
    with pytest.raises(ValueError, match="real-FFT layout"):
        spectral.irfftn(np.ones((16, 8), dtype=complex), (16, 16), (0, 1), out=out)
    assert not out.any()


@st.composite
def _transform_cases(draw):
    """(array shape, transformed axes) with 0-2 stacked leading axes, rank 1 or
    2, and an optional trailing channel axis, which makes the transformed axes
    strided as in the model's (B, *spatial, C) layout."""
    lead = draw(st.lists(st.integers(1, 3), max_size=2))
    spatial = draw(st.lists(st.integers(1, 40), min_size=1, max_size=2))
    channels = draw(st.lists(st.integers(1, 4), max_size=1))
    shape = (*lead, *spatial, *channels)
    axes = tuple(range(len(lead), len(lead) + len(spatial)))
    if not channels and draw(st.booleans()):
        axes = tuple(a - len(shape) for a in axes)
    return shape, axes


@given(case=_transform_cases(), dtype=st.sampled_from([np.float32, np.float64]),
       seed=st.integers(0, 2**32 - 1))
@settings(max_examples=150, deadline=None)
def test_transforms_bit_equal_public_scipy_fft(case, dtype, seed):
    shape, axes = case
    s = tuple(shape[a] for a in axes)
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(shape).astype(dtype)
    xh = spectral.rfftn(x, axes)
    want = scipy.fft.rfftn(x, axes=axes)
    assert xh.dtype == want.dtype and np.array_equal(xh, want)
    # an arbitrary spectrum in the real-FFT layout, not only one rfftn made
    y = (rng.standard_normal(xh.shape) + 1j * rng.standard_normal(xh.shape)).astype(xh.dtype)
    back = spectral.irfftn(y, s, axes)
    want = scipy.fft.irfftn(y, s=s, axes=axes)
    assert back.dtype == want.dtype == dtype and np.array_equal(back, want)


@pytest.mark.parametrize("last_modes", [8, 10], ids=["truncated", "padded"])
def test_irfftn_refuses_a_spectrum_outside_the_real_fft_layout(last_modes):
    y = np.ones((16, last_modes), dtype=complex)
    with pytest.raises(ValueError, match="real-FFT layout"):
        spectral.irfftn(y, (16, 16), (0, 1))
    with pytest.raises(ValueError, match="real-FFT layout"):
        spectral.irfftn(y, (8, 2 * last_modes - 2), (0, 1))


def _fft_imports(tree):
    """Names of every scipy.fft / numpy.fft import or attribute use in a module."""
    fft_modules = {"scipy.fft", "numpy.fft"}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (a.name for a in node.names
                        if any(a.name.startswith(m) for m in fft_modules))
        elif isinstance(node, ast.ImportFrom) and node.module:
            if any(node.module.startswith(m) for m in fft_modules):
                yield node.module
            elif node.module in ("scipy", "numpy"):
                yield from (f"{node.module}.{a.name}" for a in node.names if a.name == "fft")
        elif (isinstance(node, ast.Attribute) and node.attr == "fft"
              and isinstance(node.value, ast.Name)
              and node.value.id in ("np", "numpy", "scipy", "sp")):
            yield f"{node.value.id}.fft"


def test_only_spectral_imports_an_fft_module():
    src = Path(spectral.__file__).parent
    found = {path.name: sorted(set(_fft_imports(ast.parse(path.read_text()))))
             for path in sorted(src.glob("*.py"))}
    assert found.pop("spectral.py"), "the guard no longer sees spectral's own import"
    assert {name: uses for name, uses in found.items() if uses} == {}


def _manifest_names(tree):
    """Line numbers of every string constant that names the manifest file."""
    for node in ast.walk(tree):
        if (isinstance(node, ast.Constant) and isinstance(node.value, str)
                and "manifest.json" in node.value):
            yield node.lineno


def test_only_data_names_the_manifest_file():
    """dimino.data alone reads and writes manifest.json; other modules pass
    extra manifest keys through ``Dataset.meta``."""
    src = Path(spectral.__file__).parent
    found = {path.name: sorted(set(_manifest_names(ast.parse(path.read_text()))))
             for path in sorted(src.glob("*.py"))}
    assert found.pop("data.py"), "the guard no longer sees data's own manifest I/O"
    assert {name: lines for name, lines in found.items() if lines} == {}


def _einsum_uses(tree):
    """Line numbers of every einsum name, attribute or import in a module."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if any("einsum" in a.name for a in node.names):
                yield node.lineno
        elif ((isinstance(node, ast.Name) and "einsum" in node.id)
              or (isinstance(node, ast.Attribute) and "einsum" in node.attr)):
            yield node.lineno


def test_no_module_calls_einsum():
    """Spectral mode mixing has one path, a batched matmul; einsum (whose
    default path does not call BLAS) is only a test oracle."""
    assert list(_einsum_uses(ast.parse("y = np.einsum('ij->ji', x)"))) == [1]
    src = Path(spectral.__file__).parent
    found = {path.name: sorted(set(_einsum_uses(ast.parse(path.read_text()))))
             for path in sorted(src.glob("*.py"))}
    assert "autodiff.py" in found
    assert {name: lines for name, lines in found.items() if lines} == {}
