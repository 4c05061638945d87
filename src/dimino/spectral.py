"""Fourier transforms, wavenumbers, dealiasing and the H1 seminorm's weights.

Every FFT in dimino goes through ``rfftn`` and ``irfftn`` here.  Both call
the pocketfft kernel that ``scipy.fft`` dispatches to, with the arguments
``scipy.fft.rfftn`` / ``irfftn`` pass for the default norm and one worker, so
every result equals scipy's bit for bit, with or without an ``out=`` array
to write into; for float64 input they also equal
numpy.fft's, and a transform over a stacked leading axis equals the per-slice
transforms bit for bit.  The kernel is reached through scipy's private
``_pocketfft.pypocketfft`` binding because scipy.fft's per-call Python
dispatch (backend lookup, dtype and shape normalisation) costs several times
the kernel itself on the small grids the solvers step thousands of times.
``tests/test_spectral.py::test_transforms_bit_equal_public_scipy_fft`` pins
the equality, so a scipy upgrade that moves a bit fails there.

This module is the only one in dimino that names scipy, and it uses exactly
two of scipy's compiled kernels: pocketfft's ``r2c`` / ``c2r`` and the
``erf`` ufunc, which it exports for :mod:`dimino.autodiff`.  Both are loaded
straight from their extension files, without running the ``__init__`` of
``scipy``, ``scipy.fft`` or ``scipy.special``: those set up array-API
machinery that imports ``numpy.f2py``, ``numpy.ma`` and ``numpy.testing``.
On a 2-vCPU x86_64 VM (Python 3.11, numpy 2.4.6, scipy 1.17.1) a fresh
``import dimino.cli`` took a median 0.37 s through them and takes 0.14 s
without them (12 alternating runs each).  The kernels are
registered under their own module names, so a later ``import scipy.fft`` or
``scipy.special`` reuses the same module objects (``scipy.special.erf is
spectral.erf``).  ``fftfreq`` / ``rfftfreq`` come from numpy, which
scipy's own ``fftfreq`` / ``rfftfreq`` call for numpy arrays.

FFT convention: unnormalized forward transform, 1/N inverse.  Real float32
and float64 input keep their precision.

Spectra use the real-FFT layout: every transformed axis holds its modes in
``fftfreq`` order except the last, which holds the ``n // 2 + 1``
non-negative modes.  ``irfftn`` requires exactly that layout (it neither pads
nor truncates).  ``mode_numbers`` and ``wavenumbers`` take the spatial
``shape`` and return one array per axis, shaped to broadcast against such a
spectrum; ``k_squared`` and ``h1_weights`` return one array of its shape,
and ``h1_seminorm2`` weighs one ``rfftn`` by ``h1_weights`` (Parseval).

Kept-mode transforms: ``rfftn_kept`` evaluates only the low modes an FNO
block keeps, as small dense DFT matmuls (direct spectral evaluation, Lingsch
et al., arXiv 2305.19663), into a compact spectrum.  Its last axis holds the
real-FFT modes ``[0, m)``; every other transformed axis holds rows ``[0, m)``
then ``[n - m, n)``, so the compact shape is ``(2*m1, ..., m)``.
``irfftn_kept`` is the ``irfftn`` of that spectrum zero-filled to the full
layout.  Each comes with its exact adjoint; all four use the same cached
bases, and they match pocketfft to float64 rounding, not bit for bit.  Given
an ``autodiff.Workspace`` as ``ws``, they write every activation-sized array
into its buffers.
"""
from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import math
import os
import sys
from typing import List, Sequence

import numpy as np
from numpy.fft import fftfreq, rfftfreq


def _scipy_kernel(name: str):
    """The compiled scipy module ``name``, loaded from its extension file
    without importing any scipy package, and registered in ``sys.modules``.

    A module already imported is returned as it is.  A parent package
    imported later does not get the module as an attribute, but its own
    ``from . import`` statements find it in ``sys.modules``.
    """
    if name in sys.modules:
        return sys.modules[name]
    root = importlib.util.find_spec("scipy")
    package = name.rpartition(".")[0].split(".")[1:]
    spec = root and importlib.machinery.PathFinder.find_spec(
        name, [os.path.join(p, *package) for p in root.submodule_search_locations])
    if spec is None:
        raise ImportError(f"dimino needs scipy>=1.17, whose compiled module {name} "
                          "was not found", name=name)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    sys.modules[name] = module
    return module


_pocketfft = _scipy_kernel("scipy.fft._pocketfft.pypocketfft")
_r2c, _c2r = _pocketfft.r2c, _pocketfft.c2r
erf = _scipy_kernel("scipy.special._special_ufuncs").erf

__all__ = ["rfftn", "irfftn", "rfftn_kept", "rfftn_kept_adjoint", "irfftn_kept",
           "irfftn_kept_adjoint", "mode_numbers", "wavenumbers", "dealias_mask",
           "k_squared", "h1_weights", "h1_seminorm2", "erf"]


def rfftn(x: np.ndarray, axes, out=None) -> np.ndarray:
    """Real-to-complex FFT over ``axes``; the last of them keeps n // 2 + 1 modes.
    Given ``out`` (the spectrum's shape, complex in ``x``'s precision, not
    overlapping ``x``), writes into it and returns it."""
    return _r2c(x, axes, True, 0, out, 1)


def irfftn(y: np.ndarray, s, axes, out=None) -> np.ndarray:
    """Inverse of ``rfftn`` to the real shape ``s`` on ``axes``; ``out`` as for
    ``rfftn``, real.  ``y`` is left as it was."""
    last = s[-1]
    if [y.shape[a] for a in axes] != [*s[:-1], last // 2 + 1]:
        raise ValueError(f"irfftn: spectrum shape {y.shape} on axes {tuple(axes)} is not "
                         f"the real-FFT layout of s={tuple(s)}")
    return _c2r(y, axes, last, False, 2, out, 1)


def _phases(rows, n):
    """2*pi*(k*n mod N)/N for each row k and point n, reduced exactly in integers."""
    return (2 * np.pi / n) * (np.outer(rows, np.arange(n)) % n)


@functools.lru_cache(maxsize=64)
def _real_basis(n: int, m: int, dtype: np.dtype) -> np.ndarray:
    """(2m, n) rows cos then -sin of real-FFT modes [0, m): one matmul gives
    [Re; Im] of those modes."""
    phase = _phases(np.arange(m), n)
    basis = np.concatenate([np.cos(phase), -np.sin(phase)]).astype(dtype)
    basis.flags.writeable = False
    return basis


@functools.lru_cache(maxsize=64)
def _complex_basis(n: int, m: int, dtype: np.dtype) -> np.ndarray:
    """(2m, n) complex DFT rows k in [0, m) then [n - m, n), in the complex
    precision of the real ``dtype``."""
    phase = _phases(np.r_[0:m, n - m:n], n)
    basis = (np.cos(phase) - 1j * np.sin(phase)).astype(np.result_type(dtype, np.complex64))
    basis.flags.writeable = False
    return basis


def _out(ws, shape, dtype):
    """An ``out=`` array from the ``autodiff.Workspace`` ``ws``; None (numpy
    allocates) without one."""
    return None if ws is None else ws.empty(shape, dtype)


def _along(mat: np.ndarray, a: np.ndarray, axis: int, ws=None) -> np.ndarray:
    """``mat`` (k, n) applied to ``axis`` of ``a``: that axis becomes k long."""
    shape, axis = a.shape, axis % a.ndim
    a = a.reshape(math.prod(shape[:axis]), shape[axis], -1)
    out = np.matmul(mat, a, out=_out(ws, (a.shape[0], mat.shape[0], a.shape[2]),
                                     np.result_type(mat, a)))
    return out.reshape(shape[:axis] + (mat.shape[0],) + shape[axis + 1:])


def _real_dtype(a: np.ndarray) -> np.dtype:
    return np.result_type(a.real.dtype, np.float32)


def rfftn_kept(x: np.ndarray, axes, modes, ws=None) -> np.ndarray:
    """``rfftn(x, axes)`` at the kept modes only, as a compact spectrum.

    ``modes`` has one entry per axis: the last axis keeps real-FFT modes
    [0, m), every other axis rows [0, m) and [n - m, n).
    """
    last, m = axes[-1], modes[-1]
    real, lead = _real_dtype(x), (slice(None),) * (last % x.ndim)
    reim = _along(_real_basis(x.shape[last], m, real), x, last, ws)
    re, im = reim[lead + (slice(m),)], reim[lead + (slice(m, None),)]
    cdtype = np.result_type(real, np.complex64)
    y = np.empty(re.shape, cdtype) if ws is None else ws.empty(re.shape, cdtype)
    y.real, y.imag = re, im
    for a, m in zip(axes[:-1], modes):
        y = _along(_complex_basis(x.shape[a], m, real), y, a, ws)
    return y


def rfftn_kept_adjoint(y: np.ndarray, axes, s, ws=None) -> np.ndarray:
    """Adjoint of ``rfftn_kept`` to the real shape ``s`` on ``axes``."""
    last = axes[-1] % y.ndim
    real = _real_dtype(y)
    for a, n in zip(axes[:-1], s):
        y = _along(_complex_basis(n, y.shape[a] // 2, real).conj().T, y, a, ws)
    basis = _real_basis(s[-1], y.shape[last], real)
    stacked = _out(ws, y.shape[:last] + (2 * y.shape[last],) + y.shape[last + 1:], real)
    return _along(basis.T, np.concatenate([y.real, y.imag], axis=last, out=stacked), last, ws)


@functools.lru_cache(maxsize=64)
def _c2r_weights(n: int, m: int, trailing: int, dtype: np.dtype) -> np.ndarray:
    """irfftn's weight per kept mode of the last axis on an n-point grid: 1/n at
    DC, 2/n on the modes between (conjugate pairs).  Cached; read-only."""
    w = np.full(m, 2.0 / n)
    w[0] = 1.0 / n
    w = w.astype(dtype).reshape((m,) + (1,) * trailing)
    w.flags.writeable = False
    return w


def irfftn_kept(y: np.ndarray, axes, s, ws=None) -> np.ndarray:
    """``irfftn`` of the compact spectrum ``y`` zero-filled to the full layout.

    As the c2r kernel does, it ignores the imaginary part of the DC column.
    """
    last = axes[-1] % y.ndim
    w = _c2r_weights(math.prod(s), y.shape[last], y.ndim - 1 - last, _real_dtype(y))
    return rfftn_kept_adjoint(np.multiply(y, w, out=_out(ws, y.shape, np.result_type(y, w))),
                              axes, s, ws)


def irfftn_kept_adjoint(g: np.ndarray, axes, modes, ws=None) -> np.ndarray:
    """Adjoint of ``irfftn_kept``, from the real cotangent ``g``."""
    gy = rfftn_kept(g, axes, modes, ws)
    gy *= _c2r_weights(math.prod([g.shape[a] for a in axes]), modes[-1],
                       g.ndim - 1 - axes[-1] % g.ndim, _real_dtype(g))
    return gy


def _per_axis(arrays) -> List[np.ndarray]:
    d = len(arrays)
    return [a.reshape([-1 if i == axis else 1 for i in range(d)])
            for axis, a in enumerate(arrays)]


def mode_numbers(shape: Sequence[int]) -> List[np.ndarray]:
    """Integer mode number |m| of each axis."""
    *full, last = shape
    return _per_axis([np.abs((np.arange(n) + n // 2) % n - n // 2) for n in full]
                     + [np.arange(last // 2 + 1)])


def wavenumbers(shape: Sequence[int], extent: Sequence[float]) -> List[np.ndarray]:
    """Angular wavenumbers 2*pi*m/L of each axis."""
    *full, last = shape
    return _per_axis([2 * np.pi * fftfreq(n, d=extent[a] / n) for a, n in enumerate(full)]
                     + [2 * np.pi * rfftfreq(last, d=extent[-1] / last)])


def dealias_mask(shape: Sequence[int], frac: float) -> np.ndarray:
    """True on the modes kept by the ``frac`` rule: |m| <= frac * (n // 2) on every axis."""
    mask = np.ones((), dtype=bool)
    for n, m in zip(shape, mode_numbers(shape)):
        mask = mask & (m <= frac * (n // 2))
    return mask


@functools.lru_cache(maxsize=64)
def k_squared(shape: tuple, extent: tuple) -> np.ndarray:
    """sum_a k_a**2 per mode of an ``rfftn`` spectrum, the symbol of -Laplace:
    k_a is axis a's wavenumber, zeroed at index n // 2 when n is even (that
    index is then the Nyquist mode, and zeroing it keeps differentiation
    skew-symmetric; on an odd axis it is a real mode).  Cached; read-only."""
    if len(extent) != len(shape):
        from .autodiff import ShapeMismatch  # autodiff imports this module
        raise ShapeMismatch(f"k_squared: extent {extent} does not match grid {shape}")
    k2 = 0.0
    for n, k in zip(shape, wavenumbers(shape, extent)):
        if n % 2 == 0:
            k.flat[n // 2] = 0.0
        k2 = k2 + k**2
    k2.flags.writeable = False
    return k2


@functools.lru_cache(maxsize=64)
def h1_weights(shape: tuple, extent: tuple) -> np.ndarray:
    """The H1 seminorm's weight per mode of an ``rfftn`` spectrum, by Parseval.

    For a real field f on ``shape``, sum(w * |rfftn(f)|**2) is
    sum over x and a of (df/dx_a)**2, where w = mult * k_squared / N: mult
    is 1 at the last axis's DC and Nyquist and 2 on the modes between, which
    stand for conjugate pairs, and N is the whole grid.  Cached per
    (shape, extent) tuple; read-only.
    """
    mult = np.ones(shape[-1] // 2 + 1)
    mult[1:(shape[-1] + 1) // 2] = 2.0
    w = k_squared(shape, extent) * (mult / math.prod(shape))
    w.flags.writeable = False
    return w


def h1_seminorm2(f: np.ndarray, axes, extent, dtype=np.float64):
    """The squared H1 seminorm of the real field ``f`` per row, with the
    spectrum it is computed from: sum((re**2 + im**2) * w) over the
    consecutive ``axes`` and every axis after them, where re + i im is
    ``rfftn(f, axes)`` and w is ``h1_weights`` in ``dtype``."""
    w = h1_weights(tuple(f.shape[a] for a in axes), tuple(extent)).astype(dtype, copy=False)
    w = w.reshape(w.shape + (1,) * (f.ndim - 1 - axes[-1]))
    fh = rfftn(f, axes)
    return np.sum((fh.real**2 + fh.imag**2) * w, axis=tuple(range(axes[0], f.ndim))), fh
