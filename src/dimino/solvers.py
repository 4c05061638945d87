"""Reference pseudo-spectral solvers and dataset generation.

All solvers run in double precision on periodic grids.  Nonlinear products
are 2/3-rule dealiased; advection-dominated systems use an integrating-factor
RK4 (diffusion exact in spectral space), the stiff diffusion-reaction system
uses Strang splitting with an RK4 reaction step.  ``solve_sample`` solves a
whole ``data.Batch`` and returns its targets as (B, *grid) columns;
``generate_dataset`` draws rows, stacks them once, and redraws the rows
whose solve went non-finite.

Time stepping allocates nothing: each solve allocates its stages, stage
argument and FFT scratch once, and every step writes into them through
``out=``.  Each product and sum keeps the operands and the grouping of the
textbook expression, so the targets are those of the expression form bit
for bit (``tests/test_solvers.py`` pins each loop against it).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from .data import Batch, Dataset, Grid, Sample
from .spectral import dealias_mask, irfftn, mode_numbers, rfftn, wavenumbers


class StepUnstable(Exception):
    """A solve went non-finite (in ``generate_dataset``: on every draw)."""


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


def _ic_k_max(grid: Grid) -> int:
    return max(grid.points[0] // 8, 2)


@dataclass
class SolverConfig:
    steps: Optional[int] = None

    def __post_init__(self):
        if self.steps is not None and self.steps < 1:
            raise ValueError("steps must be >= 1")


def _check_finite(arr, step):
    if not np.all(np.isfinite(arr)):
        raise StepUnstable(f"solution became non-finite by step {step}")


def solve_advection_analytic(u0: np.ndarray, beta, t, extent: float = 1.0) -> np.ndarray:
    """Shift u0 by beta*t with spectral interpolation (exact if band-limited)."""
    k, = wavenumbers(u0.shape, (extent,))
    shift = np.exp(-1j * k * beta * t)
    return irfftn(rfftn(u0, (0,)) * shift, u0.shape, (0,))


def _ifrk4(v, n_steps, dt, lin, nonlin):
    """Integrating-factor RK4 over a stack: exact linear part, RK4 on the
    nonlinearity.

    Row i of ``v`` (its leading axis) takes ``n_steps[i]`` steps of ``dt[i]``
    under the linear symbol ``lin[i]``.  Rows come ordered by non-increasing
    step count, so the rows still running always form a leading block, and
    only that block is advanced; ``nonlin(w, out)`` writes such a block's
    nonlinear term into ``out``.  Each row computes the single-sample
    expressions with ``(rows, 1, ...)`` columns for its ``dt``, and the
    loop-invariant factors are hoisted without reordering any product, so
    every row gets the textbook IF-RK4 bit for bit.  The stages and the
    stage argument live in buffers allocated once; every product and sum
    writes into them with its operands in the textbook's order.

    Non-finite values are absorbing, so a row that blows up stays non-finite;
    once every running row has (checked every 16 steps) the loop stops early.
    The caller inspects the returned stack.
    """
    dt = np.asarray(dt, dtype=float).reshape((-1,) + (1,) * (v.ndim - 1))
    e_full = np.exp(lin * dt)
    e_half = np.exp(lin * dt / 2)
    half_dt, sixth_dt = dt / 2, dt / 6
    dt_e_half, two_e_half = dt * e_half, 2 * e_half
    v = v.copy()
    buffers = [np.empty_like(v) for _ in range(6)]
    done = 0
    for a in range(len(v), 0, -1):  # a rows still running
        if n_steps[a - 1] <= done:
            continue
        w, ef, eh, h, s6, de, te = (x[:a] for x in (v, e_full, e_half, half_dt,
                                                     sixth_dt, dt_e_half, two_e_half))
        k1, k2, k3, k4, arg, ef_w = (x[:a] for x in buffers)
        for step in range(done, n_steps[a - 1]):
            nonlin(w, k1)
            np.multiply(h, k1, out=arg)  # eh * (w + h * k1)
            np.add(w, arg, out=arg)
            np.multiply(eh, arg, out=arg)
            nonlin(arg, k2)
            np.multiply(eh, w, out=arg)  # eh * w + h * k2
            np.multiply(h, k2, out=k3)
            np.add(arg, k3, out=arg)
            nonlin(arg, k3)
            np.multiply(ef, w, out=ef_w)  # ef_w + de * k3
            np.multiply(de, k3, out=arg)
            np.add(ef_w, arg, out=arg)
            nonlin(arg, k4)
            # w = ef_w + s6 * ((ef * k1 + te * (k2 + k3)) + k4)
            np.multiply(ef, k1, out=k1)
            np.add(k2, k3, out=k2)
            np.multiply(te, k2, out=k2)
            np.add(k1, k2, out=k1)
            np.add(k1, k4, out=k1)
            np.multiply(s6, k1, out=k1)
            np.add(ef_w, k1, out=w)
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
    count and time step.  A single field raises StepUnstable if its solve
    goes non-finite; in a stack such a row is returned non-finite, for the
    caller to redraw.
    """
    cfg = cfg or SolverConfig()
    rows = np.atleast_2d(u0)
    b, n = rows.shape
    nu = np.broadcast_to(np.asarray(nu, dtype=float), (b,))
    t = np.broadcast_to(np.asarray(t, dtype=float), (b,))
    k, = wavenumbers((n,), (extent,))
    mask = dealias_mask((n,), DEALIAS_FRAC).astype(np.complex128)
    if cfg.steps is not None:
        n_steps = np.full(b, cfg.steps)
    else:
        umax = np.maximum(np.max(np.abs(rows), axis=1), 1e-6)
        dt_cfl = CFL * (extent / n) / umax
        n_steps = np.maximum(np.ceil(t / dt_cfl).astype(int), 16)
    dt = t / n_steps
    flux_symbol = -0.5j * k
    spec, field = np.empty((b, n // 2 + 1), np.complex128), np.empty((b, n))

    def nonlin(v, out=None):
        """flux_symbol * (rfftn(u * u) * mask), u = irfftn(v * mask)."""
        vh, u = spec[:len(v)], field[:len(v)]
        irfftn(np.multiply(v, mask, out=vh), (n,), (-1,), out=u)
        rfftn(np.multiply(u, u, out=u), (-1,), out=vh)
        return np.multiply(flux_symbol, np.multiply(vh, mask, out=vh), out=out)

    order = np.argsort(-n_steps, kind="stable")
    v = _ifrk4(rfftn(rows[order], (-1,)), n_steps[order].tolist(), dt[order],
               -nu[order, None] * k**2, nonlin)
    out = np.empty_like(rows, dtype=np.float64)
    out[order] = irfftn(v, (n,), (-1,))
    if np.ndim(u0) == 1:
        _check_finite(out, n_steps[0] - 1)
        return out[0]
    return out


def solve_diffreact_2d(u0, v0, Du, Dv, k_const, t, cfg: SolverConfig = None,
                       extent=(1.0, 1.0), reaction: bool = True):
    """FitzHugh-Nagumo diffusion-reaction, Strang splitting.

    Diffusion is integrated exactly in spectral space; the pointwise reaction
    (Ru = u - u^3 - k - v, Rv = u - v) takes an RK4 step.  The closing half
    step of diffusion of one step and the opening half step of the next are
    merged into one full step (first same as last), so n steps take n + 1
    diffusions.  ``reaction=False`` is a test hook for the pure-diffusion
    probe.
    """
    cfg = cfg or SolverConfig()
    shape = u0.shape
    kx, ky = wavenumbers(shape, extent)
    n_steps = cfg.steps if cfg.steps is not None else max(int(math.ceil(t / 0.01)), 16)
    dt = t / n_steps
    # u and v share one (2, nx, ny) state, so each diffusion is one stacked
    # transform pair.
    rate = -np.array([Du, Dv])[:, None, None] * (kx**2 + ky**2)
    half, full = np.exp(rate * dt / 2), np.exp(rate * dt)

    spec = np.empty(rate.shape, np.complex128)
    r1, r2, r3, r4, arg = (np.empty((2,) + shape) for _ in range(5))

    def diffuse(w, factor):
        """w <- irfftn(rfftn(w) * factor), in place."""
        rfftn(w, (-2, -1), out=spec)
        irfftn(np.multiply(spec, factor, out=spec), shape, (-2, -1), out=w)

    def react(w, out):
        """out <- (u - u * u * u - k - v, u - v) for (u, v) = w."""
        (u, v), (ru, rv) = w, out
        np.multiply(u, u, out=ru)
        np.multiply(ru, u, out=ru)
        np.subtract(u, ru, out=ru)
        np.subtract(ru, k_const, out=ru)
        np.subtract(ru, v, out=ru)
        np.subtract(u, v, out=rv)

    def stage(r, h):
        """w + h * r, in the stage argument's buffer."""
        return np.add(w, np.multiply(h, r, out=arg), out=arg)

    w = np.stack((u0, v0)).astype(np.float64)
    diffuse(w, half)
    for step in range(n_steps):
        if reaction:
            react(w, r1)
            react(stage(r1, dt / 2), r2)
            react(stage(r2, dt / 2), r3)
            react(stage(r3, dt), r4)
            # w <- w + dt / 6 * (((r1 + 2 * r2) + 2 * r3) + r4)
            np.add(r1, np.multiply(2, r2, out=r2), out=r1)
            np.add(r1, np.multiply(2, r3, out=r3), out=r1)
            np.add(r1, r4, out=r1)
            np.add(w, np.multiply(dt / 6, r1, out=r1), out=w)
        diffuse(w, full if step < n_steps - 1 else half)
        if step % 16 == 15:
            _check_finite(w, step)
    _check_finite(w, n_steps - 1)
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
    mask = dealias_mask(shape, DEALIAS_FRAC).astype(np.complex128)
    iky, minus_ikx, ikx = 1j * ky, -1j * kx, 1j * kx
    grads_hat = np.empty((4, 1) + k2.shape, np.complex128)
    grads, spec = np.empty((4, 1) + shape), np.empty((1,) + k2.shape, np.complex128)

    def velocity_and_gradient(w_hat):
        """ux, uy, d(omega)/dx, d(omega)/dy of the (1, nx, ny // 2 + 1)
        spectrum ``w_hat``, from one stacked inverse transform."""
        psi_hat = np.multiply(w_hat, k2_inv, out=grads_hat[1])
        np.multiply(iky, psi_hat, out=grads_hat[0])
        np.multiply(minus_ikx, psi_hat, out=grads_hat[1])
        np.multiply(ikx, w_hat, out=grads_hat[2])
        np.multiply(iky, w_hat, out=grads_hat[3])
        return irfftn(grads_hat, shape, (-2, -1), out=grads)

    scale = max(float(np.max(np.abs(omega0))), 1e-12)
    if abs(float(np.mean(omega0))) > 1e-10 * scale:
        omega0 = omega0 - np.mean(omega0)
    f = f - np.mean(f)

    w_hat = rfftn(omega0, (0, 1))
    f_hat = rfftn(f, (0, 1)) * mask

    if cfg.steps is not None:
        n_steps = cfg.steps
    else:
        ux, uy, _, _ = velocity_and_gradient(w_hat[None])
        umax = max(float(np.max(np.hypot(ux, uy))), 1e-6)
        dt_cfl = CFL * (extent[0] / shape[0]) / umax
        n_steps = max(int(math.ceil(t / dt_cfl)), 32)
    dt = t / n_steps

    def nonlin(v, out=None):
        """f_hat - rfftn(ux * wx + uy * wy) * mask, of the masked ``v``."""
        ux, uy, wx, wy = velocity_and_gradient(np.multiply(v, mask, out=spec))
        np.add(np.multiply(ux, wx, out=ux), np.multiply(uy, wy, out=uy), out=ux)
        return np.subtract(f_hat, np.multiply(rfftn(ux, (-2, -1), out=spec), mask, out=spec),
                           out=out)

    w_hat = _ifrk4(w_hat[None], [n_steps], [dt], -nu * k2, nonlin)[0]
    _check_finite(w_hat, n_steps - 1)
    return irfftn(w_hat, shape, (0, 1))


def _solve_row(s: Sample, cfg):
    """One row's targets, in the order of TARGETS[s.system]."""
    t, f, c, extent = s.t_final, s.fields, s.constants, s.grid.extent
    if s.system == "advection1d":
        return (solve_advection_analytic(f["u"], c["beta"], t, extent[0]),)
    if s.system == "diffreact2d":
        return solve_diffreact_2d(f["u"], f["v"], c["Du"], c["Dv"], c["k"], t, cfg, extent)
    return (solve_ns_vorticity_2d(f["omega"], c["nu"], f["f"], t, cfg, extent),)


def solve_sample(batch: Batch, cfg: SolverConfig = None) -> Dict[str, np.ndarray]:
    """The reference solver's targets of every row of ``batch``, as
    {name: (B, *grid)}; a row whose solve went non-finite comes back
    non-finite, for the caller to redraw or refuse.

    burgers1d is solved as one stack, each row with its own nu, t_final and
    step count: that pays where per-call overhead dominates, as on its 128
    points.  The other systems are solved row by row, each solve reusing
    its own step buffers; an allocation-free stacked prototype ran at
    0.82-0.91x of the per-row speed for ns-vorticity2d and 0.88-1.05x for
    diffreact2d on 4 and 16 rows at 64^2, and gained only on small NS
    grids (1.23x on 8 rows at 32^2).
    """
    if batch.system not in TARGETS:
        raise ValueError(f"unknown system {batch.system!r}")
    if batch.system == "burgers1d":
        return {"u": solve_burgers_1d(batch.fields["u"], batch.constants["nu"],
                                      batch.t_final, cfg, batch.grid.extent[0])}
    names = TARGETS[batch.system]
    out = np.full((len(names), len(batch)) + batch.grid.shape, np.nan)
    for i, row in enumerate(batch):
        try:
            out[:, i] = _solve_row(row, cfg)
        except StepUnstable:
            pass  # the row stays NaN
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
        for i, row in zip(pending, drawn):
            if all(np.isfinite(a).all() for a in row.targets.values()):
                rows[i] = row
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
