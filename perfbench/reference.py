"""Reference kernels that track the machine's current speed.

The benchmark shares a small virtual machine with other tenants, and its
speed drifts by tens of percent over minutes.  The runner times a fixed
kernel next to every round and scales the round's times to the kernel's
nominal duration, so a slow minute slows both and cancels out.

Each workload gets a miniature of its own work, written with numpy and scipy
only and never calling dimino, so no change to dimino can move it: how fast
the machine runs depends on the mix of interpreter-bound small-array code and
FFT-bound large-array code, and each kernel keeps its workload's mix.
"""
from __future__ import annotations

import time

import numpy as np
from scipy.special import erf

_rng = np.random.default_rng(0)


def _spectral_block(x, w, modes, axes):
    """FNO-style block: FFT, truncated mode mix, inverse FFT, bypass, GELU."""
    xh = np.fft.rfftn(x, axes=axes)
    keep = tuple(slice(None) if a not in axes else slice(0, modes) for a in range(x.ndim))
    yh = np.zeros_like(xh)
    yh[keep] = xh[keep] @ w
    y = np.fft.irfftn(yh, s=[x.shape[a] for a in axes], axes=axes) + x @ w.real
    return y * 0.5 * (1.0 + erf(y * 0.7071067811865476))


def _mode_mix(xh, w, m):
    """Mix the two retained corner blocks of a 2D half spectrum."""
    out = np.zeros(xh.shape[:3] + (w.shape[-1],), dtype=xh.dtype)
    out[:, :m, :m] = np.einsum("bxyi,xyio->bxyo", xh[:, :m, :m], w[0])
    out[:, -m:, :m] = np.einsum("bxyi,xyio->bxyo", xh[:, -m:, :m], w[1])
    return out


def _gelu(x):
    return x * 0.5 * (1.0 + erf(x * 0.7071067811865476))


def _operator_forward(x, w_in, w_spec, w_byp, w_out, m):
    """Dimension-free miniature of the 2D operator forward: layer norm,
    lifting, four spectral blocks with bypass, projection."""
    x = (x - x.mean(axis=(1, 2), keepdims=True)) / (x.std(axis=(1, 2), keepdims=True) + 1e-5)
    x = _gelu(x @ w_in)
    for i in range(4):
        y = np.fft.irfftn(_mode_mix(np.fft.rfftn(x, axes=(1, 2)), w_spec, m),
                          s=x.shape[1:3], axes=(1, 2))
        x = _gelu(y + x @ w_byp[i])
    return _gelu(x @ w_byp[4]) @ w_out


def _ifrk4(v, steps, dt, lin, nonlin):
    """Integrating-factor RK4 steps, as the reference solvers take them."""
    e_full, e_half = np.exp(lin * dt), np.exp(lin * dt / 2)
    for _ in range(steps):
        k1 = nonlin(v)
        k2 = nonlin(e_half * (v + dt / 2 * k1))
        k3 = nonlin(e_half * v + dt / 2 * k2)
        k4 = nonlin(e_full * v + dt * e_half * k3)
        v = e_full * v + dt / 6 * (e_full * k1 + 2 * e_half * (k2 + k3) + k4)
    return v


def _burgers_steps(u, steps):
    """Viscous Burgers on 128 points (small FFTs, interpreter-bound)."""
    n = u.size
    k = 2 * np.pi * np.fft.rfftfreq(n, d=1.0 / n)
    mask = np.arange(n // 2 + 1) <= 2 / 3 * (n // 2)

    def nonlin(v):
        w = np.fft.irfft(v * mask, n=n)
        return -0.5j * k * (np.fft.rfft(w * w) * mask)

    return _ifrk4(np.fft.rfft(u), steps, 10 / 5120, -1e-2 * k**2, nonlin)


def _vorticity_steps(w, steps):
    """2D vorticity transport through the streamfunction."""
    shape = w.shape
    kx = 2 * np.pi * np.fft.fftfreq(shape[0], d=1.0 / shape[0])[:, None]
    ky = 2 * np.pi * np.fft.rfftfreq(shape[1], d=1.0 / shape[1])[None, :]
    k2 = kx**2 + ky**2
    k2_inv = np.where(k2 > 0, 1.0 / np.where(k2 > 0, k2, 1.0), 0.0)

    def nonlin(v):
        psi = v * k2_inv
        ux = np.fft.irfft2(1j * ky * psi, s=shape)
        uy = np.fft.irfft2(-1j * kx * psi, s=shape)
        wx = np.fft.irfft2(1j * kx * v, s=shape)
        wy = np.fft.irfft2(1j * ky * v, s=shape)
        return -np.fft.rfft2(ux * wx + uy * wy)

    return _ifrk4(np.fft.rfft2(w), steps, 1 / 32, -5e-3 * k2, nonlin)


def _diffreact_steps(u, v, steps):
    """Strang-split diffusion with an RK4 reaction step on a 2D grid."""
    kx = 2 * np.pi * np.fft.fftfreq(u.shape[0], d=1.0 / u.shape[0])[:, None]
    ky = 2 * np.pi * np.fft.rfftfreq(u.shape[1], d=1.0 / u.shape[1])[None, :]
    dt = 0.01
    e = np.exp(-3e-3 * (kx**2 + ky**2) * dt / 2)

    def react(a, b):
        return a - a**3 - 3e-3 - b, a - b

    for _ in range(steps):
        u = np.fft.irfft2(np.fft.rfft2(u) * e, s=u.shape)
        v = np.fft.irfft2(np.fft.rfft2(v) * e, s=u.shape)
        r1u, r1v = react(u, v)
        r2u, r2v = react(u + dt / 2 * r1u, v + dt / 2 * r1v)
        r3u, r3v = react(u + dt / 2 * r2u, v + dt / 2 * r2v)
        r4u, r4v = react(u + dt * r3u, v + dt * r3v)
        u = u + dt / 6 * (r1u + 2 * r2u + 2 * r3u + r4u)
        v = v + dt / 6 * (r1v + 2 * r2v + 2 * r3v + r4v)
        u = np.fft.irfft2(np.fft.rfft2(u) * e, s=u.shape)
        v = np.fft.irfft2(np.fft.rfft2(v) * e, s=u.shape)
    return u, v


_ADV = _rng.standard_normal((16, 256, 16))
_W = (_rng.standard_normal((16, 16)) / 4).astype(np.complex128)
_FIELDS = [_rng.standard_normal(256) for _ in range(16)]
_NS_IN = _rng.standard_normal((8, 32, 32, 2))
_NS_W = (_rng.standard_normal((2, 16)) / 2,
         (_rng.standard_normal((2, 8, 8, 16, 16)) / 16).astype(np.complex128),
         [_rng.standard_normal((16, 16)) / 4 for _ in range(5)],
         _rng.standard_normal((16, 1)) / 4)
_U1 = np.sin(2 * np.pi * np.arange(128) / 128)
_U64 = 0.3 * _rng.standard_normal((2, 64, 64))
_W32 = 0.2 * _rng.standard_normal((32, 32))


def _train_adv1d():
    for _ in range(26):
        y = _spectral_block(_ADV, _W, 12, (1,))
        (y @ _W.real.T).sum()
        for a in _FIELDS:
            float(np.max(np.abs(a)))


def _sti_ns2d():
    w_in, w_spec, w_byp, w_out = _NS_W
    _operator_forward(_NS_IN, w_in, w_spec, w_byp, w_out, 8)
    _vorticity_steps(_W32, 25)


def _gen_data():
    _burgers_steps(_U1, 250)
    _diffreact_steps(_U64[0], _U64[1], 25)


KERNELS = {"train-adv1d": _train_adv1d, "sti-ns2d": _sti_ns2d, "gen-data": _gen_data}

# Median duration of each kernel on the machine the benchmark was written on
# (2-vCPU x86_64 VM, numpy 2.4.6 with scipy-openblas, one BLAS thread).
NOMINAL_S = {"train-adv1d": 0.11, "sti-ns2d": 0.09, "gen-data": 0.095}


def reference_seconds(workload: str) -> float:
    """Wall time of the workload's reference kernel."""
    t0 = time.perf_counter()
    KERNELS[workload]()
    return time.perf_counter() - t0
