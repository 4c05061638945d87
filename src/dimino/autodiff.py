"""Minimal reverse-mode differentiation over a closed primitive set.

The engine records primitive applications on an append-only tape and replays
them in exact reverse order, so gradients are bit-deterministic.  Complex
tensors appear only inside the spectral primitives; their cotangents follow
the (dL/dRe + i dL/dIm) convention, which makes the FFT adjoints below exact
under the convention of :mod:`dimino.spectral`.

``rfftn`` and ``irfftn`` map straight between a real field and the compact
spectrum of the modes an FNO block keeps (dense DFT bases, no full
transform), and ``mode_mix`` mixes that compact spectrum.  ``h1_seminorm2``
is the H1 loss's seminorm, :func:`spectral.h1_seminorm2` on the tape.

A tape made inside ``with Workspace():`` writes its activation-sized arrays
(``add``, ``linear``, ``gelu``, ``gate_mul``, the kept-mode transforms and
the gradient fan-in of ``Tape.backward``) into buffers that the workspace
reuses from step to step, so repeated steps of one shape stop allocating and
faulting fresh pages.  The results are the same bits either way.
"""
from __future__ import annotations

import contextvars
import math
import sys
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from . import spectral
from .spectral import _out, erf


class AutodiffError(Exception):
    pass


class ShapeMismatch(AutodiffError):
    pass


class NonScalarLoss(AutodiffError):
    pass


def _refs_of_a_free_buffer() -> int:
    """``sys.getrefcount`` of a pooled buffer that nothing else references,
    read by the same loop that ``Workspace._take`` runs."""
    pool = [np.empty(1, np.uint8)]
    for buf in pool:
        return sys.getrefcount(buf)


_FREE = _refs_of_a_free_buffer()
_SMALL = 1 << 16
FD_STEP = 1e-5  # grad_check's central-difference step
_ACTIVE: contextvars.ContextVar = contextvars.ContextVar("dimino_workspace", default=None)


class Workspace:
    """Byte buffers that tapes made inside ``with Workspace():`` write into.

    A buffer is handed out only while nothing but the pool references it: an
    array built on it, or any view of one, holds a reference to it, so an
    array a caller keeps is never overwritten.  A request takes a free buffer
    of exactly its byte size, else the smallest larger free one (so a short
    last batch reuses the full batches' buffers), else a new one, for which
    free smaller buffers give their memory back (so validation's larger
    batches do not keep a second set).  Arrays under ``_SMALL`` bytes come
    from ``np.empty``: malloc serves those from its free lists without page
    faults, and the lookup would cost more than it saves.  Leaving the
    ``with`` block drops the pool.  The active workspace is a context
    variable, so ``forward`` and ``predict`` reach it without a parameter and
    another thread never sees it.
    """

    def __init__(self):
        self._pool: Dict[int, List[np.ndarray]] = {}
        self._sizes: Dict[tuple, tuple] = {}  # (shape, dtype) -> (nbytes, np.dtype)
        self._token = None

    def __enter__(self) -> "Workspace":
        self._token = _ACTIVE.set(self)
        return self

    def __exit__(self, *exc) -> None:
        _ACTIVE.reset(self._token)
        # drop the pool; an array still in use keeps its own buffer alive
        self._token, self._pool, self._sizes = None, {}, {}

    def empty(self, shape, dtype) -> np.ndarray:
        """An uninitialised array of the tuple ``shape`` and ``dtype`` on a free
        buffer (a plain ``np.empty`` once the workspace has been left)."""
        if (shape, dtype) not in self._sizes:
            dt = np.dtype(dtype)
            self._sizes[shape, dtype] = (math.prod(shape) * dt.itemsize, dt)
        n, dtype = self._sizes[shape, dtype]
        if n < _SMALL or self._token is None:
            return np.empty(shape, dtype)
        return self._take(n)[:n].view(dtype).reshape(shape)

    def _take(self, n: int) -> np.ndarray:
        for buf in self._pool.get(n, ()):
            if sys.getrefcount(buf) == _FREE:
                return buf
        best = None
        for size, bufs in self._pool.items():
            if size > n and (best is None or size < best.nbytes):
                for buf in bufs:
                    if sys.getrefcount(buf) == _FREE:
                        best = buf
                        break
        if best is None:
            # free buffers too small for this request give their memory back
            dropped = 0
            for size, bufs in self._pool.items():
                if size < n:
                    keep = []
                    for buf in bufs:
                        if dropped < n and sys.getrefcount(buf) == _FREE:
                            dropped += size
                        else:
                            keep.append(buf)
                    bufs[:] = keep
            best = np.empty(n, np.uint8)
            self._pool.setdefault(n, []).append(best)
        return best


class Tensor:
    __slots__ = ("data", "grad", "tape", "nid", "_needs")

    def __init__(self, data, tape, nid, needs=False):
        self.data = data
        self.grad = None
        self.tape = tape
        self.nid = nid
        self._needs = needs

    @property
    def shape(self):
        return self.data.shape


class Tape:
    """Append-only record of primitive applications, consumed by one backward."""

    def __init__(self):
        self._nodes = []
        self._leaves: List[Tensor] = []
        self._next_id = 0
        self.ws: Optional[Workspace] = _ACTIVE.get()

    def leaf(self, data, requires_grad=False) -> Tensor:
        t = Tensor(np.asarray(data), self, self._next_id, requires_grad)
        self._next_id += 1
        if requires_grad:
            self._leaves.append(t)
        return t

    def _emit(self, data, inputs: Sequence[Tensor], backward: Callable) -> Tensor:
        """Record ``backward`` if any input needs a gradient.  A node holds ids
        only, so an activation stays alive only while a closure reads it."""
        ids = tuple([(t.nid, t._needs) for t in inputs])
        needs = any([n for _, n in ids])
        out = Tensor(data, self, self._next_id, needs)
        self._next_id += 1
        if needs:
            self._nodes.append((out.nid, ids, backward))
        return out

    def backward(self, loss: Tensor) -> None:
        """Accumulate gradients into every requires-grad leaf, dropping each node
        once it has run, so reference counting frees the step's activations."""
        if loss.data.size != 1:
            raise NonScalarLoss(f"loss must be scalar, got shape {loss.data.shape}")
        if self._leaves is None:
            raise AutodiffError("tape already replayed")
        nodes, leaves, self._nodes, self._leaves = self._nodes, self._leaves, [], None
        grads = {loss.nid: np.ones_like(loss.data)}
        while nodes:
            nid, inputs, backward = nodes.pop()
            g = grads.pop(nid, None)
            if g is None:
                continue
            for (i, needs), gi in zip(inputs, backward(g)):
                if gi is None or not needs:
                    continue
                if i in grads:
                    # not in place: add's backward hands one g to both inputs
                    acc = grads[i]
                    grads[i] = np.add(acc, gi, out=_out(self.ws, acc.shape,
                                                        np.result_type(acc, gi)))
                else:
                    grads[i] = gi
        for leaf in leaves:
            g = grads.get(leaf.nid)
            leaf.grad = np.zeros_like(leaf.data) if g is None else g


def _same_tape(*tensors) -> Tape:
    tape = tensors[0].tape
    for t in tensors[1:]:
        if t.tape is not tape:
            raise AutodiffError("tensors belong to different tapes")
    return tape


def _sum_to(g: np.ndarray, shape) -> np.ndarray:
    """Reverse numpy broadcasting."""
    if g.shape == shape:
        return g
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for i, (gs, s) in enumerate(zip(g.shape, shape)):
        if s == 1 and gs != 1:
            g = g.sum(axis=i, keepdims=True)
    return g


# Backward closures capture the arrays they read and plain shapes and dtypes,
# never a Tensor, so forward frees every activation no backward reads.

def add(a: Tensor, b: Tensor) -> Tensor:
    tape = _same_tape(a, b)
    sa, sb = a.shape, b.shape
    shape = sa if sa == sb else np.broadcast_shapes(sa, sb)
    y = np.add(a.data, b.data, out=_out(tape.ws, shape, np.result_type(a.data, b.data)))
    return tape._emit(y, (a, b), lambda g: (_sum_to(g, sa), _sum_to(g, sb)))


def sub(a: Tensor, b: Tensor) -> Tensor:
    tape = _same_tape(a, b)
    sa, sb, b_needs = a.shape, b.shape, b._needs
    return tape._emit(a.data - b.data, (a, b),
                      lambda g: (_sum_to(g, sa), _sum_to(-g, sb) if b_needs else None))


def smul(a: Tensor, s: float) -> Tensor:
    return a.tape._emit(a.data * s, (a,), lambda g: (g * s,))


def const_mul(a: Tensor, c: np.ndarray) -> Tensor:
    """Elementwise multiply by a constant real array."""
    c = np.asarray(c)
    shape = a.shape
    return a.tape._emit(a.data * c, (a,), lambda g: (_sum_to(g * c, shape),))


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Channel-axis matmul with bias: x[..., i] @ w[i, o] + b[o]."""
    if x.data.shape[-1] != w.data.shape[0]:
        raise ShapeMismatch(
            f"linear: {x.data.shape[-1]} input channels vs weight {w.data.shape}"
        )
    tape = _same_tape(x, w, b)
    xd, wd, ws = x.data, w.data, tape.ws
    y = np.matmul(xd, wd, out=_out(ws, xd.shape[:-1] + wd.shape[1:], np.result_type(xd, wd)))
    y += b.data
    b_shape, x_needs = b.shape, x._needs

    def backward(g):
        gx = None if not x_needs else np.matmul(
            g, wd.T, out=_out(ws, g.shape[:-1] + wd.shape[:1], np.result_type(g, wd)))
        gw = xd.reshape(-1, wd.shape[0]).T @ g.reshape(-1, wd.shape[1])
        return gx, gw, _sum_to(g, b_shape)

    return tape._emit(y, (x, w, b), backward)


_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT2PI = 1.0 / math.sqrt(2.0 * math.pi)


def gelu(x: Tensor) -> Tensor:
    """x * Phi(x).  When x needs a gradient, forward builds the derivative
    Phi(x) + x * phi(x) and the tape keeps only that array; the output is
    built in the buffer of Phi(x)."""
    xd, ws = x.data, x.tape.ws
    y = np.multiply(xd, _INV_SQRT2, out=_out(ws, xd.shape, xd.dtype))
    erf(y, out=y)
    y += 1.0
    y *= 0.5
    if not x._needs:
        y *= xd
        return x.tape._emit(y, (x,), None)
    d = np.multiply(xd, xd, out=_out(ws, xd.shape, xd.dtype))
    np.exp(np.multiply(d, -0.5, out=d), out=d)
    d *= _INV_SQRT2PI
    d *= xd
    d += y
    y *= xd
    return x.tape._emit(
        y, (x,), lambda g: (np.multiply(d, g, out=d if d.dtype == g.dtype else None),)
    )


def layernorm(x: Tensor, axes, eps: float = 1e-5) -> Tensor:
    """Normalize to zero mean, unit variance over `axes` (no affine)."""
    if eps <= 0:
        raise AutodiffError("layernorm eps must be positive")
    axes = tuple(axes)
    mu = x.data.mean(axis=axes, keepdims=True)
    xc = x.data - mu
    var = np.mean(xc**2, axis=axes, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    y = xc * inv

    def backward(g):
        gm = g.mean(axis=axes, keepdims=True)
        gy = np.mean(g * y, axis=axes, keepdims=True)
        return (inv * (g - gm - y * gy),)

    return x.tape._emit(y, (x,), backward)


def kept_shape(modes) -> tuple:
    """Compact-spectrum shape of ``modes``: 2*m rows on every axis but the
    last, m real-FFT modes on the last."""
    return tuple(2 * m for m in modes[:-1]) + tuple(modes[-1:])


def _kept_shape(name, sizes, modes):
    """``modes`` and their ``kept_shape``, checked against a grid of ``sizes``."""
    modes, kept = tuple(modes), kept_shape(modes)
    limits = tuple(sizes[:-1]) + (sizes[-1] // 2,)
    if len(modes) != len(sizes) or not all(1 <= k <= n for k, n in zip(kept, limits)):
        raise ShapeMismatch(f"{name}: modes {modes} do not fit grid {tuple(sizes)}: "
                            "need 1 <= 2*m <= N before the last axis, 1 <= m <= N/2 on it")
    return modes, kept


def rfftn(x: Tensor, axes, modes) -> Tensor:
    """Real-to-complex FFT over the given axes (unnormalized) at the kept
    ``modes`` only, by dense DFT bases, into the compact spectrum
    (B, *kept, C) of :func:`spectral.rfftn_kept`: 1D keeps (m,), 2D the
    (2*m1, m2) low-|k| corner rows."""
    axes = tuple(axes)
    sizes = tuple(x.data.shape[a] for a in axes)
    dtype = x.data.dtype
    modes, _ = _kept_shape("rfftn", sizes, modes)
    ws = x.tape.ws

    def backward(g):
        gx = spectral.rfftn_kept_adjoint(g, axes, sizes, ws)
        return (gx.astype(dtype, copy=False),)

    return x.tape._emit(spectral.rfftn_kept(x.data, axes, modes, ws), (x,), backward)


def irfftn(y: Tensor, axes, s, modes) -> Tensor:
    """Complex-to-real inverse FFT (1/N normalized) of a compact spectrum
    ``y`` from ``rfftn(..., modes)``, zero-filled to the full spectrum, to
    the real shape ``s`` on ``axes``."""
    axes = tuple(axes)
    s = tuple(s)
    dtype = y.data.dtype
    modes, kept = _kept_shape("irfftn", s, modes)
    if tuple(y.data.shape[a] for a in axes) != kept:
        raise ShapeMismatch(f"irfftn: spectrum {y.data.shape} on axes {axes} "
                            f"is not the compact layout {kept}")

    ws = y.tape.ws

    def backward(g):
        gy = spectral.irfftn_kept_adjoint(g, axes, modes, ws)
        return (gy.astype(dtype, copy=False),)

    return y.tape._emit(spectral.irfftn_kept(y.data, axes, s, ws), (y,), backward)


def h1_seminorm2(x: Tensor, axes, extent) -> Tensor:
    """The squared H1 seminorm of ``x`` per row, summed over the consecutive
    ``axes`` and every axis after them: :func:`spectral.h1_seminorm2` with
    the weights in x's dtype.  Its backward is 2 * g * (-Laplace x), computed
    from the forward's spectrum X as irfftn(X * (2 * (g * k2))) with k2 the
    :func:`spectral.k_squared` of the grid."""
    axes, xd = tuple(axes), x.data
    sizes = tuple(xd.shape[a] for a in axes)
    y, xh = spectral.h1_seminorm2(xd, axes, extent, xd.dtype)
    k2 = spectral.k_squared(sizes, tuple(extent)).astype(xd.dtype)
    k2 = k2.reshape(k2.shape + (1,) * (xd.ndim - 1 - axes[-1]))

    def backward(g):
        gx = spectral.irfftn(xh * (2 * np.multiply.outer(g, k2)), sizes, axes)
        return (gx.astype(xd.dtype, copy=False),)

    return x.tape._emit(y, (x,), backward)


def mode_mix(xk: Tensor, w: Tensor) -> Tensor:
    """Complex channel linear per kept mode (the spectral convolution kernel).

    xk (B, *kept, Cin) is a compact spectrum from ``rfftn(..., modes)`` and
    w (Cin, Cout, *kept) holds one (Cin, Cout) matrix per mode.  The modes
    are mixed by one k-major batched matmul, (k, B, Cin) @ (k, Cin, Cout).
    """
    tape = _same_tape(xk, w)
    b, *kept, c_in = xk.data.shape
    c_out = w.data.shape[1]
    if w.data.shape != (c_in, c_out, *kept):
        raise ShapeMismatch(f"mode_mix: weight {w.data.shape} vs spectrum {xk.data.shape}")
    n_k = math.prod(kept)
    x_shape, w_shape, w_dtype = xk.data.shape, w.data.shape, w.data.dtype
    # fixed-axis views: (Cin, Cout, k) -> (k, Cin, Cout) and (B, k, C) <-> (k, B, C)
    wk = w.data.reshape(c_in, c_out, n_k).transpose(2, 0, 1).copy()
    xs = xk.data.reshape(b, n_k, c_in).transpose(1, 0, 2)

    def backward(g):
        gs = g.reshape(b, n_k, c_out).transpose(1, 0, 2)
        gx = (gs @ np.conj(wk).transpose(0, 2, 1)).transpose(1, 0, 2).reshape(x_shape)
        gw = np.conj(xs).transpose(0, 2, 1) @ gs
        return gx, gw.transpose(1, 2, 0).reshape(w_shape).astype(w_dtype)

    return tape._emit((xs @ wk).transpose(1, 0, 2).reshape((b, *kept, c_out)), (xk, w), backward)


def gate_mul(x: Tensor, gate: Tensor) -> Tensor:
    """Channel-broadcast gate multiply: x (B, *sp, C) times gate (B, C)."""
    tape = _same_tape(x, gate)
    xd, ws = x.data, tape.ws
    n_spatial = xd.ndim - 2
    gexp = gate.data.reshape(gate.data.shape[0], *([1] * n_spatial), -1)
    spatial_axes = tuple(range(1, 1 + n_spatial))

    def backward(g):
        gx = np.multiply(g, gexp, out=_out(ws, g.shape, np.result_type(g, gexp)))
        gxd = np.multiply(g, xd, out=_out(ws, g.shape, np.result_type(g, xd)))
        return gx, np.sum(gxd, axis=spatial_axes)

    y = np.multiply(xd, gexp, out=_out(ws, xd.shape, np.result_type(xd, gexp)))
    return tape._emit(y, (x, gate), backward)


def gate_expand(c: Tensor, n: int, gamma: float) -> Tensor:
    """Block-repeat (B, m) gate inputs into (B, n); the tail is ones."""
    b, m = c.data.shape
    dtype = c.data.dtype
    l = gate_block_length(n, m, gamma)
    idx = np.arange(m * l) // max(l, 1)
    out = np.ones((b, n), dtype=dtype)
    if l > 0:
        out[:, : m * l] = c.data[:, idx]

    def backward(g):
        gc = np.zeros((b, m), dtype=dtype)
        if l > 0:
            np.add.at(gc.T, idx, g[:, : m * l].T)
        return (gc,)

    return c.tape._emit(out, (c,), backward)


def gate_block_length(n: int, m: int, gamma: float) -> int:
    """l = floor((1 - gamma) * n / m); zero when the gate is skip-only."""
    if m == 0:
        return 0
    return int(math.floor((1.0 - gamma) * n / m))


def reduce_sum(x: Tensor, axes=None) -> Tensor:
    shape = x.data.shape

    def backward(g):
        return (np.broadcast_to(g if axes is None else np.expand_dims(g, axes), shape).copy(),)

    return x.tape._emit(x.data.sum(axis=axes), (x,), backward)


def power(x: Tensor, k: float) -> Tensor:
    xd = x.data
    return x.tape._emit(xd**k, (x,), lambda g: (g * k * xd ** (k - 1),))


def sqrt(x: Tensor) -> Tensor:
    y = np.sqrt(x.data)
    return x.tape._emit(y, (x,), lambda g: (g * 0.5 / y,))


def _perturbable(arr):
    """Coordinate list: (index, component) with component in {re, im}."""
    comps = ("re", "im") if np.iscomplexobj(arr) else ("re",)
    return [(idx, comp) for idx in np.ndindex(arr.shape) for comp in comps]


def standard_primitive_checks(seed: int = 0, n_sample: int = 12) -> dict:
    """Gradient-check every primitive on random inputs; name -> worst error."""
    rng = np.random.default_rng(seed)
    r = rng.standard_normal
    rc = lambda *s: r(s) + 1j * r(s)
    checks = {
        "add": (lambda a, b: reduce_sum(power(add(a, b), 2)), [r((3, 4)), r(4)]),
        "sub": (lambda a, b: reduce_sum(power(sub(a, b), 2)), [r((3, 4)), r((3, 4))]),
        "scalar-mul": (lambda a: reduce_sum(power(smul(a, 1.7), 2)), [r((3, 4))]),
        "linear": (
            lambda x, w, b: reduce_sum(power(linear(x, w, b), 2)),
            [r((2, 5, 3)), r((3, 4)), r(4)],
        ),
        "gelu": (lambda x: reduce_sum(gelu(x)), [r((3, 5))]),
        "layer-normalize": (
            lambda x: reduce_sum(power(layernorm(x, (1, 2)), 3)),
            [r((2, 4, 4))],
        ),
        "layer-normalize-flat": (
            lambda x: reduce_sum(power(layernorm(x, (1,), eps=1e-4), 2)),
            [1e-2 * r((2, 6)) + 5.0],
        ),
        "h1-seminorm-1d": (
            lambda x: reduce_sum(h1_seminorm2(x, (1,), (3.0,))), [r((2, 16, 3))],
        ),
        "h1-seminorm-2d": (
            lambda x: reduce_sum(h1_seminorm2(x, (1, 2), (1.0, 2.0))), [r((2, 8, 8, 3))],
        ),
        "mode-mix-1d": (
            lambda x, w: reduce_sum(
                power(irfftn(mode_mix(rfftn(x, (1,), (4,)), w), (1,), (16,), (4,)), 2)
            ),
            [r((2, 16, 3)), rc(3, 2, 4)],
        ),
        "mode-mix-2d": (
            lambda x, w: reduce_sum(
                power(irfftn(mode_mix(rfftn(x, (1, 2), (3, 3)), w), (1, 2), (8, 8), (3, 3)), 2)
            ),
            [r((2, 8, 8, 3)), rc(3, 2, 6, 3)],
        ),
        "gate-multiply": (
            lambda x, g: reduce_sum(power(gate_mul(x, g), 2)),
            [r((2, 6, 5)), r((2, 5))],
        ),
        "gate-expand": (
            lambda c: reduce_sum(power(gate_expand(c, 8, 0.25), 2)),
            [r((2, 2))],
        ),
        "sum": (lambda x: reduce_sum(power(reduce_sum(x, (1,)), 2)), [r((3, 4, 2))]),
        "power": (lambda x: reduce_sum(power(x, 3)), [r((3, 4)) + 3.0]),
        "sqrt": (lambda x: reduce_sum(sqrt(x)), [np.abs(r((3, 4))) + 1.0]),
    }
    return {
        name: grad_check(f, arrays, n_sample=n_sample, seed=seed)
        for name, (f, arrays) in checks.items()
    }


def grad_check(f: Callable, arrays, n_sample: int = 32, seed: int = 0) -> float:
    """Compare reverse-mode gradients of f against central differences of
    step ``FD_STEP``.

    `f` takes one leaf Tensor per input array and returns a scalar loss
    Tensor.  A random subsample of coordinates is perturbed; the return value
    is the worst absolute deviation normalized by the largest gradient
    magnitude (floored at 1).
    """
    arrays = [np.asarray(a, dtype=np.complex128 if np.iscomplexobj(a) else np.float64)
              for a in arrays]
    tape = Tape()
    leaves = [tape.leaf(a.copy(), requires_grad=True) for a in arrays]
    tape.backward(f(*leaves))
    grads = [leaf.grad for leaf in leaves]
    gmax = max(1.0, max(float(np.max(np.abs(g))) for g in grads))

    def eval_loss(mods):
        t = Tape()
        ls = []
        for i, a in enumerate(arrays):
            a = a.copy()
            for j, idx, comp, delta in mods:
                if j == i:
                    a[idx] += delta if comp == "re" else 1j * delta
            ls.append(t.leaf(a, requires_grad=False))
        return float(np.real(f(*ls).data))

    rng = np.random.default_rng(seed)
    worst = 0.0
    for i, arr in enumerate(arrays):
        coords = _perturbable(arr)
        if len(coords) > n_sample:
            picks = rng.choice(len(coords), size=n_sample, replace=False)
            coords = [coords[p] for p in picks]
        for idx, comp in coords:
            lp = eval_loss([(i, idx, comp, FD_STEP)])
            lm = eval_loss([(i, idx, comp, -FD_STEP)])
            fd = (lp - lm) / (2 * FD_STEP)
            g = grads[i][idx]
            ad = float(np.real(g)) if comp == "re" else float(np.imag(g))
            worst = max(worst, abs(ad - fd))
    return worst / gmax
