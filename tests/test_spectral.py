import ast
import json
import os
import subprocess
import sys
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
    rel = rel_metric("rel-h1", f[None], np.ones((1, *shape)))[0]
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
        rel_metric("rel-h1", np.ones((1, 8)), np.arange(8.0)[None], (1.0, 2.0))
    with pytest.raises(ad.ShapeMismatch, match="extent"):
        rel_metric("rel-h1", np.ones((1, 8)), np.arange(8.0)[None], ())


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
    assert spectral.rfftn_plan(x, axes, out)() is out and np.array_equal(out, want)
    y = (rng.standard_normal(want.shape) + 1j * rng.standard_normal(want.shape)).astype(want.dtype)
    y_before = y.copy()
    want = spectral.irfftn(y, s, axes)
    back = np.full(shape, np.nan, dtype)
    assert spectral.irfftn_plan(y, s, axes, back)() is back and np.array_equal(back, want)
    assert np.array_equal(y, y_before)


def test_irfftn_with_out_keeps_its_layout_check():
    out = np.zeros((16, 16))
    with pytest.raises(ValueError, match="real-FFT layout"):
        spectral.irfftn_plan(np.ones((16, 8), dtype=complex), (16, 16), (0, 1), out)
    assert not out.any()


_PROBE = """
import json
import numpy as np
from dimino import spectral
calls = []
for name in ("_r2c", "_c2r"):
    kernel = getattr(spectral, name)
    setattr(spectral, name, lambda *a, kernel=kernel, name=name: calls.append(name) or kernel(*a))
out = {out}
out[...] = 7
try:
    spectral.{plan}({args}, out)()
    raised = None
except ValueError as exc:
    raised = str(exc)
print(json.dumps({{"raised": raised, "calls": calls, "untouched": bool((out == 7).all())}}))
"""


@pytest.mark.parametrize("plan, args, out", [
    ("rfftn_plan", "np.ones(16), (0,)", "np.zeros(8, complex)"),
    ("rfftn_plan", "np.ones(16), (0,)", "np.zeros(9, np.complex64)"),
    ("rfftn_plan", "np.ones((16, 16)), (0, 1)", "np.zeros((8, 9), complex)"),
    ("rfftn_plan", "np.ones((16, 16)), (0, 1)", "np.zeros((16, 9))"),
    ("irfftn_plan", "np.ones(9, complex), (16,), (0,)", "np.zeros(8)"),
    ("irfftn_plan", "np.ones(9, complex), (16,), (0,)", "np.zeros(16, np.float32)"),
    ("irfftn_plan", "np.ones((16, 9), complex), (16, 16), (0, 1)", "np.zeros((8, 16))"),
    ("irfftn_plan", "np.ones((16, 9), complex), (16, 16), (0, 1)", "np.zeros((16, 16), complex)"),
], ids=["r2c-1d-small", "r2c-1d-dtype", "r2c-2d-small", "r2c-2d-dtype",
        "c2r-1d-small", "c2r-1d-dtype", "c2r-2d-small", "c2r-2d-dtype"])
def test_a_plan_refuses_a_wrong_out_before_any_kernel_runs(plan, args, out):
    """An ``out`` too small or of the wrong dtype is refused with a
    ValueError naming the shapes, before pocketfft is called: unchecked, the
    kernel writes past a small buffer and the interpreter aborts later on a
    corrupt heap (``_run_fresh`` would raise), and a wrong dtype reaches a
    bare RuntimeError."""
    got = _run_fresh(_PROBE.format(plan=plan, args=args, out=out))
    assert got["raised"] is not None and "needs" in got["raised"]
    assert got["calls"] == [] and got["untouched"]


def test_a_plan_refuses_an_out_that_overlaps_its_input():
    buffer = np.zeros((2, 32))
    with pytest.raises(ValueError, match="overlaps"):
        spectral.rfftn_plan(buffer[:, :16], (-1,), buffer.view(complex)[:, 7:])
    y = np.zeros((2, 9), complex)
    with pytest.raises(ValueError, match="overlaps"):
        spectral.irfftn_plan(y, (16,), (-1,), y.view(float)[:, :16])


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


@given(case=_transform_cases(), dtype=st.sampled_from([np.float32, np.float64]),
       seed=st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_plans_bit_equal_the_transforms(case, dtype, seed):
    """A plan transforms what its input holds at each call, into its ``out``,
    bit for bit as ``rfftn`` / ``irfftn`` do."""
    shape, axes = case
    s = tuple(shape[a] for a in axes)
    rng = np.random.default_rng(seed)
    x = np.empty(shape, dtype)
    xh = np.empty(spectral.rfftn(x, axes).shape, np.result_type(dtype, np.complex64))
    y, back = np.empty_like(xh), np.empty_like(x)
    forward, inverse = spectral.rfftn_plan(x, axes, xh), spectral.irfftn_plan(y, s, axes, back)
    for _ in range(2):
        x[...] = rng.standard_normal(shape)
        assert forward() is xh and np.array_equal(xh, spectral.rfftn(x, axes))
        y[...] = rng.standard_normal(y.shape) + 1j * rng.standard_normal(y.shape)
        assert inverse() is back and np.array_equal(back, spectral.irfftn(y, s, axes))


@pytest.mark.parametrize("last_modes", [8, 10], ids=["truncated", "padded"])
def test_irfftn_refuses_a_spectrum_outside_the_real_fft_layout(last_modes):
    y = np.ones((16, last_modes), dtype=complex)
    with pytest.raises(ValueError, match="real-FFT layout"):
        spectral.irfftn(y, (16, 16), (0, 1))
    with pytest.raises(ValueError, match="real-FFT layout"):
        spectral.irfftn(y, (8, 2 * last_modes - 2), (0, 1))


def _names_scipy_or_fft(module: str) -> bool:
    return any(module == m or module.startswith(m + ".") for m in ("scipy", "numpy.fft"))


def _scipy_and_fft_uses(tree):
    """Every scipy import or string constant naming a scipy module, and every
    numpy.fft import or attribute use, in a module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (a.name for a in node.names if _names_scipy_or_fft(a.name))
        elif isinstance(node, ast.ImportFrom) and node.module:
            if _names_scipy_or_fft(node.module):
                yield node.module
            elif node.module == "numpy":
                yield from ("numpy.fft" for a in node.names if a.name == "fft")
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and node.value.startswith("scipy.")):
            yield node.value
        elif (isinstance(node, ast.Attribute) and node.attr == "fft"
              and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy")):
            yield f"{node.value.id}.fft"


def test_only_spectral_names_scipy_or_an_fft_module():
    src = Path(spectral.__file__).parent
    found = {path.name: sorted(set(_scipy_and_fft_uses(ast.parse(path.read_text()))))
             for path in sorted(src.glob("*.py"))}
    own = found.pop("spectral.py")
    assert "numpy.fft" in own and any(name.startswith("scipy.") for name in own), \
        "the guard no longer sees spectral's own use"
    assert {name: uses for name, uses in found.items() if uses} == {}


def _kernel_uses(tree):
    """(enclosing function, line) of every use of the pocketfft kernels that
    may write into a caller's array: every reference to ``_r2c``, ``_c2r``,
    ``_pocketfft`` or an ``r2c`` / ``c2r`` attribute, except a direct
    ``_r2c`` / ``_c2r`` call whose ``out`` (the second-to-last of its six or
    seven positional arguments) is ``None``, and the module-level names' own
    binding."""
    kernels, arity = {"_r2c", "_c2r", "_pocketfft"}, {"_r2c": 6, "_c2r": 7}
    allowed = set()
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and len(node.args) == arity.get(node.func.id) and not node.keywords
                and isinstance(node.args[-2], ast.Constant) and node.args[-2].value is None):
            allowed.add(id(node.func))
        if isinstance(node, ast.Assign) and any(
                isinstance(n, ast.Name) and n.id in kernels for t in node.targets
                for n in ast.walk(t)):
            allowed |= {id(n) for n in ast.walk(node.value)}

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from visit(child, child.name)
                continue
            named = ((isinstance(child, ast.Name) and child.id in kernels
                      and isinstance(child.ctx, ast.Load))
                     or (isinstance(child, ast.Attribute)
                         and child.attr in kernels | {"r2c", "c2r"}))
            if named and id(child) not in allowed:
                yield scope, child.lineno
            yield from visit(child, scope)
    yield from visit(tree, None)


def test_only_the_plans_pass_an_out_to_pocketfft():
    """No unchecked ``out`` reaches pocketfft: outside ``rfftn_plan`` and
    ``irfftn_plan`` every kernel call in dimino passes ``out=None``."""
    probe = ast.parse("_r2c, _c2r = _pocketfft.r2c, _pocketfft.c2r\n"
                      "def f(x):\n    return _r2c(x, (0,), True, 0, None, 1)\n"
                      "def e(x):\n    return _c2r(x, (0,), 8, False, 2, None, 1)\n"
                      "def g(x, o):\n    return _c2r(x, (0,), 8, False, 2, o, 1)\n"
                      "def h(x, o):\n    return partial(_r2c, x, (0,), True, 0, o, 1)\n")
    assert [scope for scope, _ in _kernel_uses(probe)] == ["g", "h"]
    src = Path(spectral.__file__).parent
    found = {(path.name, scope) for path in sorted(src.glob("*.py"))
             for scope, _ in _kernel_uses(ast.parse(path.read_text()))}
    assert found == {("spectral.py", "rfftn_plan"), ("spectral.py", "irfftn_plan")}


def _run_fresh(code: str) -> dict:
    """The JSON that ``code`` prints, run in a fresh interpreter on this dimino."""
    env = {**os.environ, "PYTHONPATH": str(Path(spectral.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    return json.loads(proc.stdout)


def test_import_loads_two_scipy_kernels_and_no_scipy_package():
    loaded = _run_fresh("import json, sys; import dimino.cli; "
                        "print(json.dumps(sorted(n for n in sys.modules if n.startswith('scipy'))))")
    assert loaded == ["scipy.fft._pocketfft.pypocketfft", "scipy.special._special_ufuncs"]


@pytest.mark.parametrize("dimino_first", [True, False], ids=["dimino-first", "scipy-first"])
def test_kernels_are_scipys_own_objects_in_either_import_order(dimino_first):
    imports = ["from dimino import autodiff, spectral", "import scipy.fft, scipy.special"]
    checks = _run_fresh("\n".join([
        "import json, sys",
        *(imports if dimino_first else imports[::-1]),
        "import numpy as np",
        "x = np.random.default_rng(0).standard_normal((6, 8))",
        "print(json.dumps({",
        "    'erf': scipy.special.erf is autodiff.erf is spectral.erf,",
        "    'pocketfft': scipy.fft._pocketfft.basic.pfft is spectral._pocketfft",
        "                 is sys.modules['scipy.fft._pocketfft.pypocketfft'],",
        "    'rfftn': bool(np.array_equal(scipy.fft.rfftn(x), spectral.rfftn(x, (0, 1)))),",
        "}))",
    ]))
    assert checks == {"erf": True, "pocketfft": True, "rfftn": True}


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
