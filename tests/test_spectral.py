import ast
from pathlib import Path

import numpy as np
import pytest
import scipy.fft
from hypothesis import given, settings, strategies as st

from dimino import spectral

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


@settings(max_examples=60, deadline=None)
@given(shape=st.lists(POW2, min_size=1, max_size=2),
       extent=st.lists(EXTENT, min_size=2, max_size=2),
       seed=st.integers(0, 2**32 - 1))
def test_fourier_derivative_matches_analytic(shape, extent, seed):
    extent = extent[:len(shape)]
    f, exact = _trig_polynomial(np.random.default_rng(seed), shape, extent)
    got = spectral.gradients(f, extent)
    assert len(got) == len(shape)
    for g, e in zip(got, exact):
        assert np.max(np.abs(g - e)) <= 1e-10 * max(1.0, np.max(np.abs(e)))


@given(n=POW2, channels=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=20, deadline=None)
def test_gradients_carry_batch_and_channel_axes(n, channels, seed):
    rng = np.random.default_rng(seed)
    arr = rng.standard_normal((3, n, n, channels))
    got = spectral.gradients(arr, (1.0, 2.0), axes=(1, 2))
    for b in range(3):
        for c in range(channels):
            ref = spectral.gradients(arr[b, :, :, c], (1.0, 2.0))
            for axis in range(2):
                assert np.array_equal(got[axis][b, :, :, c], ref[axis])


@given(shape=st.lists(POW2, min_size=1, max_size=2), extent=st.lists(EXTENT, min_size=2, max_size=2))
def test_derivative_symbol_zeroes_nyquist(shape, extent):
    symbols = spectral.derivative_symbols(shape, extent[:len(shape)])
    for axis, (n, ik) in enumerate(zip(shape, symbols)):
        flat = ik.reshape(-1)
        assert ik.shape[axis] == flat.size
        assert flat[n // 2] == 0
        assert np.all(flat[1:n // 2] != 0)


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
