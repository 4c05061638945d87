"""Fourier transforms, wavenumbers, dealiasing and the Fourier derivative.

Every FFT in dimino goes through ``rfftn`` and ``irfftn`` here.  Both call
the pocketfft kernel that ``scipy.fft`` dispatches to, with the arguments
``scipy.fft.rfftn`` / ``irfftn`` pass for the default norm and one worker, so
every result equals scipy's bit for bit; for float64 input they also equal
numpy.fft's, and a transform over a stacked leading axis equals the per-slice
transforms bit for bit.  The kernel is reached through scipy's private
``_pocketfft.pypocketfft`` binding because scipy.fft's per-call Python
dispatch (backend lookup, dtype and shape normalisation) costs several times
the kernel itself on the small grids the solvers step thousands of times.
``tests/test_spectral.py::test_transforms_bit_equal_public_scipy_fft`` pins
the equality, so a scipy upgrade that moves a bit fails there.

FFT convention: unnormalized forward transform, 1/N inverse.  Real float32
and float64 input keep their precision.

Spectra use the real-FFT layout: every transformed axis holds its modes in
``fftfreq`` order except the last, which holds the ``n // 2 + 1``
non-negative modes.  ``irfftn`` requires exactly that layout (it neither pads
nor truncates), and the helpers below take the spatial ``shape`` and return
one array per axis, shaped to broadcast against such a spectrum.
"""
from __future__ import annotations

from typing import List, Sequence

import numpy as np
from scipy.fft import fftfreq, rfftfreq
from scipy.fft._pocketfft.pypocketfft import c2r as _c2r, r2c as _r2c

__all__ = ["rfftn", "irfftn", "mode_numbers", "wavenumbers", "dealias_mask",
           "derivative_symbols", "gradients"]


def rfftn(x: np.ndarray, axes) -> np.ndarray:
    """Real-to-complex FFT over ``axes``; the last of them keeps n // 2 + 1 modes."""
    return _r2c(x, axes, True, 0, None, 1)


def irfftn(y: np.ndarray, s, axes) -> np.ndarray:
    """Inverse of ``rfftn`` to the real shape ``s`` on ``axes``."""
    last = s[-1]
    if [y.shape[a] for a in axes] != [*s[:-1], last // 2 + 1]:
        raise ValueError(f"irfftn: spectrum shape {y.shape} on axes {tuple(axes)} is not "
                         f"the real-FFT layout of s={tuple(s)}")
    return _c2r(y, axes, last, False, 2, None, 1)


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


def derivative_symbols(shape: Sequence[int], extent: Sequence[float]) -> List[np.ndarray]:
    """i*k of each axis with the Nyquist mode zeroed, so differentiation stays
    skew-symmetric."""
    symbols = []
    for n, k in zip(shape, wavenumbers(shape, extent)):
        k.flat[n // 2] = 0.0
        symbols.append(1j * k)
    return symbols


def gradients(arr: np.ndarray, extent: Sequence[float], axes=None) -> List[np.ndarray]:
    """d(arr)/dx_a on each transformed axis, by the Fourier derivative.

    ``axes`` (default: all) must be consecutive; axes after them, such as a
    trailing channel axis, are carried along.
    """
    axes = tuple(range(arr.ndim)) if axes is None else tuple(axes)
    shape = tuple(arr.shape[a] for a in axes)
    trailing = (1,) * (arr.ndim - 1 - axes[-1])
    ah = rfftn(arr, axes)
    return [irfftn(ah * ik.reshape(ik.shape + trailing), shape, axes)
            for ik in derivative_symbols(shape, extent)]
