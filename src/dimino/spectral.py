"""Fourier transforms, wavenumbers, dealiasing and the Fourier derivative.

Every FFT in dimino goes through this module.  The transforms are scipy.fft's
(pocketfft, run on the calling thread); for float64 input they equal
numpy.fft's bit for bit, and a transform over a stacked leading axis equals
the per-slice transforms bit for bit.

FFT convention: unnormalized forward transform, 1/N inverse.

Spectra use the real-FFT layout: every transformed axis holds its modes in
``fftfreq`` order except the last, which holds the ``n // 2 + 1``
non-negative modes.  The helpers below take the spatial ``shape`` and return
one array per axis, shaped to broadcast against such a spectrum.
"""
from __future__ import annotations

from typing import List, Sequence

import numpy as np
from scipy.fft import fftfreq, irfft, irfft2, irfftn, rfft, rfft2, rfftfreq, rfftn

__all__ = ["rfft", "irfft", "rfft2", "irfft2", "rfftn", "irfftn", "mode_numbers",
           "wavenumbers", "dealias_mask", "derivative_symbols", "gradients"]


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
    ah = rfftn(arr, axes=axes)
    return [irfftn(ah * ik.reshape(ik.shape + trailing), s=shape, axes=axes)
            for ik in derivative_symbols(shape, extent)]
