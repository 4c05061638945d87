"""Reference pseudo-spectral solvers and dataset generation.

All solvers run in double precision on periodic grids.  Nonlinear products
are 2/3-rule dealiased; advection-dominated systems use an integrating-factor
RK4 (diffusion exact in spectral space), the stiff diffusion-reaction system
uses Strang splitting with an RK4 reaction step.  ``solve_sample`` solves a
whole ``data.Batch`` and returns its targets as (B, *grid) columns.  No
solver raises: a row whose solve blows up comes back non-finite
(``finite_rows``), for ``generate_dataset`` to redraw and ``sti`` to refuse.

Time stepping allocates, casts and broadcasts nothing: each solve allocates
its stages, stage argument and FFT scratch once, and every step writes into
them through the ufuncs bound below, given ``out`` positionally, and
through ``spectral`` transform plans built once per solve (per running
block for burgers1d), so no step re-checks a transform's layout.  Every
factor a step multiplies by (integrating factors, stage coefficients,
dealias masks and spectral symbols) is expanded once per solve to the
complex dtype and full shape of the state it multiplies, so no step's ufunc
casts a real operand or broadcasts a smaller one.  numpy multiplies real by
complex by casting the real operand to ``x + 0j`` and running the complex
loop, so the expanded factors give the same products.  Each product and sum
keeps the operands and the grouping of the textbook expression, except that
burgers1d folds its 0-or-1 dealias mask into the flux symbol, which changes
no finite value (a masked mode is zero either way); so the targets are those of the expression form bit for bit
(``tests/test_solvers.py`` pins each loop against it).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from .data import Batch, Dataset, Grid, Sample
from .spectral import (dealias_mask, irfftn, irfftn_plan, mode_numbers, rfftn, rfftn_plan,
                       wavenumbers)


class StepUnstable(Exception):
    """A row non-finite on every draw of ``generate_dataset``, or an STI truth row."""


# Courant number of the adaptive step count, and the retained fraction of
# each axis's modes in nonlinear products (the 2/3 rule).
CFL = 0.25
DEALIAS_FRAC = 2.0 / 3.0

# Initial fields: spectrum ~ |k|^-IC_DECAY up to _ic_k_max(grid); a sample
# whose solve goes non-finite is redrawn on a sub-seed up to MAX_RETRIES times.
IC_DECAY = 2.5
MAX_RETRIES = 3

# Each system's target fields, in the order its solver returns them.
TARGETS = {"advection1d": ("u",), "burgers1d": ("u",), "diffreact2d": ("u", "v"),
           "ns-vorticity2d": ("omega",)}

# The ufuncs of every solver step, called with ``out`` in its positional slot.
_mul, _add, _sub = np.multiply, np.add, np.subtract


def _ic_k_max(grid: Grid) -> int:
    return max(grid.points[0] // 8, 2)


@dataclass
class SolverConfig:
    steps: Optional[int] = None

    def __post_init__(self):
        if self.steps is not None and self.steps < 1:
            raise ValueError("steps must be >= 1")


def finite_rows(targets: Dict[str, np.ndarray]) -> np.ndarray:
    """(B,) bool: the rows of {name: (B, *grid)} ``targets`` whose solve did not fail."""
    return np.all([np.isfinite(a).reshape(len(a), -1).all(axis=1) for a in targets.values()],
                  axis=0)


def solve_advection_analytic(u0: np.ndarray, beta, t, extent: float = 1.0) -> np.ndarray:
    """Shift u0 by beta*t with spectral interpolation (exact if band-limited);
    ``u0`` is one field (n,) or a stack (B, n) with a beta and t per row or one for all."""
    k, = wavenumbers(u0.shape[-1:], (extent,))
    beta, t = (np.reshape(x, np.shape(x) + (1,) * (u0.ndim - 1)) for x in (beta, t))
    return irfftn(rfftn(u0, (-1,)) * np.exp(-1j * k * beta * t), u0.shape[-1:], (-1,))


def _ifrk4(v, n_steps, dt, lin, nonlin):
    """Integrating-factor RK4 over a stack: exact linear part, RK4 on the
    nonlinearity.

    Row i of ``v`` (its leading axis) takes ``n_steps[i]`` steps of ``dt[i]``
    under the linear symbol ``lin[i]``.  Rows come ordered by non-increasing
    step count, so the rows still running always form a leading block, and
    only that block is advanced; ``nonlin(w, out)`` writes such a block's
    nonlinear term into ``out``.  Each row computes the single-sample
    expressions with its own ``dt``, and the loop-invariant factors are
    hoisted, in ``v``'s complex dtype and shape, without reordering any
    product, so every row gets the textbook IF-RK4 bit for bit.  The stages
    and the stage argument live in buffers allocated once; every product and
    sum writes into them with its operands in the textbook's order.

    Non-finite values are absorbing, so a row that blows up stays non-finite;
    once every running row has (checked every 16 steps) the loop stops early.
    The caller inspects the returned stack.
    """
    dt = np.asarray(dt, dtype=float).reshape((-1,) + (1,) * (v.ndim - 1))
    e_half = np.exp(lin * dt / 2)
    e_full, e_half, half_dt, sixth_dt, dt_e_half, two_e_half = (
        np.full(v.shape, x, v.dtype)
        for x in (np.exp(lin * dt), e_half, dt / 2, dt / 6, dt * e_half, 2 * e_half))
    v = v.copy()
    buffers = [np.empty_like(v) for _ in range(6)]
    mul, add = _mul, _add
    done = 0
    for a in range(len(v), 0, -1):  # a rows still running
        if n_steps[a - 1] <= done:
            continue
        w, ef, eh, h, s6, de, te = (x[:a] for x in (v, e_full, e_half, half_dt,
                                                     sixth_dt, dt_e_half, two_e_half))
        k1, k2, k3, k4, arg, ef_w = (x[:a] for x in buffers)
        for step in range(done, n_steps[a - 1]):
            nonlin(w, k1)
            mul(h, k1, arg)  # eh * (w + h * k1)
            add(w, arg, arg)
            mul(eh, arg, arg)
            nonlin(arg, k2)
            mul(eh, w, arg)  # eh * w + h * k2
            mul(h, k2, k3)
            add(arg, k3, arg)
            nonlin(arg, k3)
            mul(ef, w, ef_w)  # ef_w + de * k3
            mul(de, k3, arg)
            add(ef_w, arg, arg)
            nonlin(arg, k4)
            # w = ef_w + s6 * ((ef * k1 + te * (k2 + k3)) + k4)
            mul(ef, k1, k1)
            add(k2, k3, k2)
            mul(te, k2, k2)
            add(k1, k2, k1)
            add(k1, k4, k1)
            mul(s6, k1, k1)
            add(ef_w, k1, w)
            if step % 16 == 15 and not np.isfinite(w).reshape(a, -1).all(axis=1).any():
                return v
        done = n_steps[a - 1]
    return v


def solve_burgers_1d(u0: np.ndarray, nu, t, cfg: SolverConfig = None,
                     extent: float = 1.0) -> np.ndarray:
    """Viscous Burgers on a periodic interval, conservative form.

    ``u0`` is one initial field (n,) or a stack (B, n) with one ``nu`` and
    one ``t`` per row (or one for all).  A stack is solved as one batch and
    equals the row-by-row solves bit for bit: each row keeps its own CFL step
    count and time step.  A row whose solve blows up comes back non-finite.
    """
    cfg = cfg or SolverConfig()
    rows = np.atleast_2d(u0)
    b, n = rows.shape
    nu = np.broadcast_to(np.asarray(nu, dtype=float), (b,))
    t = np.broadcast_to(np.asarray(t, dtype=float), (b,))
    k, = wavenumbers((n,), (extent,))
    if cfg.steps is not None:
        n_steps = np.full(b, cfg.steps)
    else:
        umax = np.maximum(np.max(np.abs(rows), axis=1), 1e-6)
        dt_cfl = CFL * (extent / n) / umax
        n_steps = np.maximum(np.ceil(t / dt_cfl).astype(int), 16)
    dt = t / n_steps
    modes = (b, n // 2 + 1)
    mask, flux_symbol = (np.full(modes, x, np.complex128)
                         for x in (dealias_mask((n,), DEALIAS_FRAC), -0.5j * k))
    # The dealias mask is 0 or 1, so folding it into the flux symbol changes
    # no product: (flux_symbol * mask) * rfftn(u * u) is one multiply.
    flux_mask = flux_symbol * mask
    spec, field = np.empty(modes, np.complex128), np.empty((b, n))
    blocks = {}  # rows running -> their views and transform plans
    mul = _mul

    def nonlin(v, out):
        """out <- (flux_symbol * mask) * rfftn(u * u), u = irfftn(v * mask)."""
        a = len(v)
        if a not in blocks:
            vh, u = spec[:a], field[:a]
            blocks[a] = (vh, u, mask[:a], flux_mask[:a], irfftn_plan(vh, (n,), (-1,), u),
                         rfftn_plan(u, (-1,), vh))
        vh, u, m, fm, to_field, to_spec = blocks[a]
        mul(v, m, vh)
        to_field()
        mul(u, u, u)
        to_spec()
        mul(fm, vh, out)

    order = np.argsort(-n_steps, kind="stable")
    v = _ifrk4(rfftn(rows[order], (-1,)), n_steps[order].tolist(), dt[order],
               -nu[order, None] * k**2, nonlin)
    out = np.empty_like(rows, dtype=np.float64)
    out[order] = irfftn(v, (n,), (-1,))
    return out[0] if np.ndim(u0) == 1 else out


def solve_diffreact_2d(u0, v0, Du, Dv, k_const, t, cfg: SolverConfig = None,
                       extent=(1.0, 1.0), reaction: bool = True):
    """FitzHugh-Nagumo diffusion-reaction, Strang splitting.

    Diffusion is integrated exactly in spectral space; the pointwise reaction
    (Ru = u - u^3 - k - v, Rv = u - v) takes an RK4 step.  The closing half
    step of diffusion of one step and the opening half step of the next are
    merged into one full step (first same as last), so n steps take n + 1
    diffusions.  A solve that blows up stops early and comes back non-finite.
    ``reaction=False`` is a test hook for the pure-diffusion probe.
    """
    cfg = cfg or SolverConfig()
    shape = u0.shape
    kx, ky = wavenumbers(shape, extent)
    n_steps = cfg.steps if cfg.steps is not None else max(int(math.ceil(t / 0.01)), 16)
    dt = t / n_steps
    # u and v share one (2, nx, ny) state, so each diffusion is one stacked
    # transform pair.
    rate = -np.array([Du, Dv])[:, None, None] * (kx**2 + ky**2)
    half, full = (np.exp(x).astype(np.complex128) for x in (rate * dt / 2, rate * dt))

    w = np.stack((u0, v0)).astype(np.float64)
    spec = np.empty(rate.shape, np.complex128)
    r1, r2, r3, r4, arg = (np.empty((2,) + shape) for _ in range(5))
    (u, v), (au, av) = w, arg
    (r1u, r1v), (r2u, r2v), (r3u, r3v), (r4u, r4v) = r1, r2, r3, r4
    to_spec, to_field = rfftn_plan(w, (-2, -1), spec), irfftn_plan(spec, shape, (-2, -1), w)
    mul, add, sub = _mul, _add, _sub

    def diffuse(factor):
        """w <- irfftn(rfftn(w) * factor), in place."""
        to_spec()
        mul(spec, factor, spec)
        to_field()

    def react(u, v, ru, rv):
        """(ru, rv) <- (u - u * u * u - k - v, u - v)."""
        mul(u, u, ru)
        mul(ru, u, ru)
        sub(u, ru, ru)
        sub(ru, k_const, ru)
        sub(ru, v, ru)
        sub(u, v, rv)

    def stage(r, h):
        """arg <- w + h * r."""
        mul(h, r, arg)
        add(w, arg, arg)

    diffuse(half)
    for step in range(n_steps):
        if reaction:
            react(u, v, r1u, r1v)
            stage(r1, dt / 2)
            react(au, av, r2u, r2v)
            stage(r2, dt / 2)
            react(au, av, r3u, r3v)
            stage(r3, dt)
            react(au, av, r4u, r4v)
            # w <- w + dt / 6 * (((r1 + 2 * r2) + 2 * r3) + r4)
            mul(2, r2, r2)
            add(r1, r2, r1)
            mul(2, r3, r3)
            add(r1, r3, r1)
            add(r1, r4, r1)
            mul(dt / 6, r1, r1)
            add(w, r1, w)
        diffuse(full if step < n_steps - 1 else half)
        if step % 16 == 15 and not np.isfinite(w).all():
            break
    return w[0], w[1]


def solve_ns_vorticity_2d(omega0, nu, f, t, cfg: SolverConfig = None,
                          extent=(1.0, 1.0)):
    """2D incompressible Navier-Stokes in vorticity form on the torus.

    Velocity is recovered through the spectral streamfunction; the viscous
    term is handled by the integrating factor, so nu=0 is a valid test mode.
    """
    cfg = cfg or SolverConfig()
    shape = omega0.shape
    kx, ky = wavenumbers(shape, extent)
    k2 = kx**2 + ky**2
    k2_inv = np.zeros_like(k2)
    k2_inv[k2 > 0] = 1.0 / k2[k2 > 0]
    modes = (1,) + k2.shape  # one row: the state's shape in _ifrk4
    k2_inv, mask, iky, minus_ikx, ikx = (
        np.full(modes, x, np.complex128)
        for x in (k2_inv, dealias_mask(shape, DEALIAS_FRAC), 1j * ky, -1j * kx, 1j * kx))
    grads_hat = np.empty((4,) + modes, np.complex128)
    grads, spec = np.empty((4, 1) + shape), np.empty(modes, np.complex128)
    (ux_hat, uy_hat, wx_hat, wy_hat), (ux, uy, wx, wy) = grads_hat, grads
    to_grads, to_spec = (irfftn_plan(grads_hat, shape, (-2, -1), grads),
                         rfftn_plan(ux, (-2, -1), spec))
    mul, add, sub = _mul, _add, _sub

    def velocity_and_gradient(w_hat):
        """grads <- ux, uy, d(omega)/dx, d(omega)/dy of the (1, nx, ny // 2 + 1)
        spectrum ``w_hat``, from one stacked inverse transform."""
        mul(w_hat, k2_inv, uy_hat)  # the streamfunction's spectrum
        mul(iky, uy_hat, ux_hat)
        mul(minus_ikx, uy_hat, uy_hat)
        mul(ikx, w_hat, wx_hat)
        mul(iky, w_hat, wy_hat)
        to_grads()

    scale = max(float(np.max(np.abs(omega0))), 1e-12)
    if abs(float(np.mean(omega0))) > 1e-10 * scale:
        omega0 = omega0 - np.mean(omega0)
    f = f - np.mean(f)

    w_hat = rfftn(omega0, (0, 1))
    f_hat = rfftn(f, (0, 1)) * mask

    if cfg.steps is not None:
        n_steps = cfg.steps
    else:
        velocity_and_gradient(w_hat[None])
        umax = max(float(np.max(np.hypot(ux, uy))), 1e-6)
        dt_cfl = CFL * (extent[0] / shape[0]) / umax
        n_steps = max(int(math.ceil(t / dt_cfl)), 32)
    dt = t / n_steps

    def nonlin(v, out=None):
        """f_hat - rfftn(ux * wx + uy * wy) * mask, of the masked ``v``."""
        mul(v, mask, spec)
        velocity_and_gradient(spec)
        mul(ux, wx, ux)
        mul(uy, wy, uy)
        add(ux, uy, ux)
        to_spec()
        mul(spec, mask, spec)
        return sub(f_hat, spec, out)

    w_hat = _ifrk4(w_hat[None], [n_steps], [dt], -nu * k2, nonlin)[0]
    return irfftn(w_hat, shape, (0, 1))


def _solve_row(s: Sample, cfg):
    """One row's targets, in the order of TARGETS[s.system]."""
    t, f, c, extent = s.t_final, s.fields, s.constants, s.grid.extent
    if s.system == "diffreact2d":
        return solve_diffreact_2d(f["u"], f["v"], c["Du"], c["Dv"], c["k"], t, cfg, extent)
    return (solve_ns_vorticity_2d(f["omega"], c["nu"], f["f"], t, cfg, extent),)


def solve_sample(batch: Batch, cfg: SolverConfig = None) -> Dict[str, np.ndarray]:
    """The reference solver's targets of every row of ``batch``, as
    {name: (B, *grid)}; a row whose solve blew up comes back non-finite,
    for the caller to redraw or refuse.

    The 1D systems are solved as one stack, each row with its own constant,
    t_final and step count: that pays where per-call overhead dominates, as
    on their 128-256 points.  The 2D systems are solved row by row, each
    solve reusing its own step buffers.  A stacked prototype with the same
    expanded factors (bit-equal to the per-row solves) ran at 0.91-0.93x and
    0.82-0.87x of the per-row speed for ns-vorticity2d on 4 and 16 rows at
    64^2, and at 0.96x and 0.84x for diffreact2d there; it gained only on
    small NS grids, 1.22-1.43x on 8 rows and 1.08-1.52x on 32 rows at 32^2
    (two runs, 2-vCPU x86_64 VM, one BLAS thread, default parameter ranges).
    """
    if batch.system not in TARGETS:
        raise ValueError(f"unknown system {batch.system!r}")
    f, c, t, extent = batch.fields, batch.constants, batch.t_final, batch.grid.extent
    if batch.system == "advection1d":
        return {"u": solve_advection_analytic(f["u"], c["beta"], t, extent[0])}
    if batch.system == "burgers1d":
        return {"u": solve_burgers_1d(f["u"], c["nu"], t, cfg, extent[0])}
    names = TARGETS[batch.system]
    out = np.empty((len(names), len(batch)) + batch.grid.shape)
    for i, row in enumerate(batch):
        out[:, i] = _solve_row(row, cfg)
    return dict(zip(names, out))


def random_fourier_field(rng, grid: Grid, amplitude: float = 1.0) -> np.ndarray:
    """Mean-zero random field with spectrum ~ |k|^-IC_DECAY up to _ic_k_max."""
    k_max, decay = _ic_k_max(grid), IC_DECAY
    if grid.rank == 1:
        n = grid.points[0]
        coef = np.zeros(n // 2 + 1, dtype=np.complex128)
        m = np.arange(1, k_max + 1)
        coef[1:k_max + 1] = (
            rng.standard_normal(k_max) + 1j * rng.standard_normal(k_max)
        ) * m**-decay
        u = irfftn(coef, (n,), (0,)) * n
    else:
        nx, ny = grid.points
        mx, my = mode_numbers((nx, ny))
        kk = np.sqrt(mx**2 + my**2)
        keep = (kk > 0) & (kk <= k_max)
        coef = np.where(
            keep,
            (rng.standard_normal(kk.shape) + 1j * rng.standard_normal(kk.shape))
            * np.where(kk > 0, kk, 1.0) ** -decay,
            0.0,
        )
        u = irfftn(coef, (nx, ny), (0, 1)) * nx * ny
    u -= u.mean()
    peak = max(float(np.max(np.abs(u))), 1e-12)
    return u * (amplitude / peak)


DEFAULT_PARAM_RANGES = {
    "advection1d": {"beta": (0.2, 2.0), "amp": (0.5, 2.0)},
    "burgers1d": {"nu": (1e-3, 1e-1), "amp": (0.5, 2.0)},
    "diffreact2d": {
        "Du": (1e-3, 1e-2),
        "Dv": (1e-3, 1e-2),
        "k": (1e-3, 1e-2),
        "amp": (0.1, 1.0),
    },
    "ns-vorticity2d": {"nu": (1e-3, 1e-2), "amp": (1.0, 4.0), "f_amp": (0.05, 0.5)},
}

DEFAULT_GRIDS = {
    "advection1d": Grid((256,), (1.0,)),
    "burgers1d": Grid((128,), (1.0,)),
    "diffreact2d": Grid((64, 64), (1.0, 1.0)),
    "ns-vorticity2d": Grid((64, 64), (1.0, 1.0)),
}

# Long horizon for the 1D/2D benchmark family, unit horizon for the vorticity system
DEFAULT_T_FINAL = {"advection1d": 10.0, "burgers1d": 10.0, "diffreact2d": 10.0,
                   "ns-vorticity2d": 1.0}


def _log_uniform(rng, lo, hi):
    return float(np.exp(rng.uniform(np.log(lo), np.log(hi))))


def _draw_sample(system, rng, grid, t_final, ranges) -> Sample:
    """A sample's initial fields and constants; its targets are left to solve."""
    amp = _log_uniform(rng, *ranges["amp"])

    def random_field(amplitude):
        return random_fourier_field(rng, grid, amplitude=amplitude)
    if system == "advection1d":
        fields = {"u": random_field(amp)}
        constants = {"beta": _log_uniform(rng, *ranges["beta"])}
    elif system == "burgers1d":
        fields = {"u": random_field(amp)}
        constants = {"nu": _log_uniform(rng, *ranges["nu"])}
    elif system == "diffreact2d":
        fields = {"u": random_field(amp), "v": random_field(amp)}
        constants = {name: _log_uniform(rng, *ranges[name]) for name in ("Du", "Dv", "k")}
    else:
        f_amp = _log_uniform(rng, *ranges["f_amp"])
        fields = {"omega": random_field(amp), "f": random_field(f_amp)}
        constants = {"nu": _log_uniform(rng, *ranges["nu"])}
    return Sample(system, grid, fields, constants, t_final)


def _param_ranges(system: str, overrides) -> dict:
    """The system's default ranges with ``overrides`` checked and applied."""
    ranges = dict(DEFAULT_PARAM_RANGES[system])
    for name, bounds in (overrides or {}).items():
        if name not in ranges:
            raise ValueError(f"unknown parameter {name!r} for {system}; "
                             f"its parameters are {', '.join(sorted(ranges))}")
        try:
            lo, hi = (float(b) for b in bounds)
        except (TypeError, ValueError):
            raise ValueError(f"parameter {name!r}: a range is two numbers LO,HI, "
                             f"got {bounds!r}") from None
        if not (np.isfinite(hi) and 0 < lo <= hi):
            raise ValueError(f"parameter {name!r}: a range needs finite 0 < LO <= HI, "
                             f"got LO={lo:g}, HI={hi:g}")
        ranges[name] = (lo, hi)
    return ranges


def generate_dataset(system: str, param_ranges: dict = None, n_samples: int = 64,
                     seed: int = 0, grid: Grid = None, t_final: float = None,
                     cfg: SolverConfig = None, split: str = "train") -> Dataset:
    """Deterministic dataset generation; ``grid`` and ``t_final`` default to
    the system's ``DEFAULT_GRIDS`` and ``DEFAULT_T_FINAL`` entries.

    Sample i is drawn from the generator seeded ``[seed, i, attempt]``.  All
    samples are drawn, stacked and solved as one Batch, then those whose
    solve went non-finite are redrawn on the next attempt, up to MAX_RETRIES
    times; a sample that fails every attempt raises StepUnstable.
    """
    if system not in DEFAULT_PARAM_RANGES:
        raise ValueError(f"unknown system {system!r}")
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    grid = grid or DEFAULT_GRIDS[system]
    t_final = DEFAULT_T_FINAL[system] if t_final is None else t_final
    if grid.rank != DEFAULT_GRIDS[system].rank:
        raise ValueError(f"{system} needs a {DEFAULT_GRIDS[system].rank}D grid, "
                         f"got points {grid.points}")
    ranges = _param_ranges(system, param_ranges)
    rows = [None] * n_samples
    pending = list(range(n_samples))
    for attempt in range(MAX_RETRIES + 1):
        drawn = Batch.stack([_draw_sample(system, np.random.default_rng([seed, i, attempt]),
                                          grid, t_final, ranges) for i in pending])
        drawn.targets = solve_sample(drawn, cfg)
        for i, row, ok in zip(pending, drawn, finite_rows(drawn.targets)):
            rows[i] = row if ok else None
        pending = [i for i in pending if rows[i] is None]
        if not pending:
            break
    else:
        raise StepUnstable(f"{system} sample {pending[0]} (seed {seed}) went non-finite "
                           f"on all {MAX_RETRIES + 1} draws")
    meta = {
        "seed": seed,
        "t_final": t_final,
        "param_ranges": {k: list(v) for k, v in ranges.items()},
        "ic_spectrum": {"decay": IC_DECAY, "k_max": _ic_k_max(grid)},
    }
    return Dataset(system, grid, {split: Batch.stack(rows)}, meta)
