"""Reference pseudo-spectral solvers and dataset generation.

All solvers run in double precision on periodic grids.  Nonlinear products
are 2/3-rule dealiased; advection-dominated systems use an integrating-factor
RK4 (diffusion exact in spectral space), the stiff diffusion-reaction system
uses Strang splitting with an RK4 reaction step.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from .data import Dataset, Grid, Sample
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

# Systems whose samples generate_dataset solves as one SampleStack: it pays
# where per-call overhead dominates, as on burgers1d's 128 points.  On the 2D
# grids it does not: a stacked prototype ran ns-vorticity2d at 64^2 at
# 0.53-0.60x and diffreact2d at 0.95-1.04x of the per-sample speed.
STACKED_SYSTEMS = ("burgers1d",)


def _ic_k_max(grid: Grid) -> int:
    return max(grid.points[0] // 8, 2)


@dataclass
class SolverConfig:
    steps: Optional[int] = None

    def __post_init__(self):
        if self.steps is not None and self.steps < 1:
            raise ValueError("steps must be >= 1")


@dataclass
class SampleStack:
    """Samples of one system on one grid and horizon, stacked for one solve.

    ``fields`` hold (B, *grid.shape) arrays and ``constants`` (B,) arrays of
    values; ``solve_sample`` returns targets stacked the same way.
    """

    system: str
    grid: Grid
    fields: Dict[str, np.ndarray]
    constants: Dict[str, np.ndarray]
    t_final: float

    def __post_init__(self):
        if self.system not in STACKED_SYSTEMS:
            raise ValueError(f"{self.system} samples are solved one at a time, "
                             f"not stacked (stacked systems: {STACKED_SYSTEMS})")

    @classmethod
    def of(cls, samples: List[Sample]) -> "SampleStack":
        first = samples[0]
        return cls(first.system, first.grid,
                   {n: np.stack([s.fields[n] for s in samples]) for n in first.fields},
                   {n: np.array([s.constants[n] for s in samples])
                    for n in first.constants},
                   first.t_final)


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
    only that block is advanced; ``nonlin`` maps such a block to its
    nonlinear term.  Each row computes the single-sample expressions with
    ``(rows, 1, ...)`` columns for its ``dt``, and the loop-invariant factors
    are hoisted without reordering any product, so every row gets the
    textbook IF-RK4 bit for bit.

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
    done = 0
    for a in range(len(v), 0, -1):  # a rows still running
        if n_steps[a - 1] <= done:
            continue
        w, ef, eh, h, s6, de, te = (x[:a] for x in (v, e_full, e_half, half_dt,
                                                     sixth_dt, dt_e_half, two_e_half))
        for step in range(done, n_steps[a - 1]):
            k1 = nonlin(w)
            k2 = nonlin(eh * (w + h * k1))
            k3 = nonlin(eh * w + h * k2)
            ef_w = ef * w
            k4 = nonlin(ef_w + de * k3)
            w = ef_w + s6 * (ef * k1 + te * (k2 + k3) + k4)
            if step % 16 == 15 and not np.isfinite(w).reshape(a, -1).all(axis=1).any():
                v[:a] = w
                return v
        v[:a] = w
        done = n_steps[a - 1]
    return v


def solve_burgers_1d(u0: np.ndarray, nu, t, cfg: SolverConfig = None,
                     extent: float = 1.0) -> np.ndarray:
    """Viscous Burgers on a periodic interval, conservative form.

    ``u0`` is one initial field (n,) or a stack (B, n) with one ``nu`` per
    row.  A stack is solved as one batch and equals the row-by-row solves bit
    for bit: each row keeps its own CFL step count and time step.  A single
    field raises StepUnstable if its solve goes non-finite; in a stack such a
    row is returned non-finite, for the caller to redraw.
    """
    cfg = cfg or SolverConfig()
    rows = np.atleast_2d(u0)
    b, n = rows.shape
    nu = np.broadcast_to(np.asarray(nu, dtype=float), (b,))
    k, = wavenumbers((n,), (extent,))
    mask = dealias_mask((n,), DEALIAS_FRAC)
    if cfg.steps is not None:
        n_steps = np.full(b, cfg.steps)
    else:
        umax = np.maximum(np.max(np.abs(rows), axis=1), 1e-6)
        dt_cfl = CFL * (extent / n) / umax
        n_steps = np.maximum(np.ceil(t / dt_cfl).astype(int), 16)
    dt = t / n_steps
    flux_symbol = -0.5j * k

    def nonlin(v):
        u = irfftn(v * mask, (n,), (-1,))
        return flux_symbol * (rfftn(u * u, (-1,)) * mask)

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

    def diffuse(w, factor):
        return irfftn(rfftn(w, (-2, -1)) * factor, shape, (-2, -1))

    def react(w):
        u, v = w
        return np.stack((u - u * u * u - k_const - v, u - v))

    w = diffuse(np.stack((u0, v0)).astype(np.float64), half)
    for step in range(n_steps):
        if reaction:
            r1 = react(w)
            r2 = react(w + dt / 2 * r1)
            r3 = react(w + dt / 2 * r2)
            r4 = react(w + dt * r3)
            w = w + dt / 6 * (r1 + 2 * r2 + 2 * r3 + r4)
        w = diffuse(w, full if step < n_steps - 1 else half)
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
    mask = dealias_mask(shape, DEALIAS_FRAC)

    def velocity_and_gradient(w_hat):
        """ux, uy, d(omega)/dx, d(omega)/dy from one stacked inverse transform."""
        psi_hat = w_hat * k2_inv
        return irfftn(np.stack((1j * ky * psi_hat, -1j * kx * psi_hat,
                                1j * kx * w_hat, 1j * ky * w_hat)), shape, (-2, -1))

    scale = max(float(np.max(np.abs(omega0))), 1e-12)
    if abs(float(np.mean(omega0))) > 1e-10 * scale:
        omega0 = omega0 - np.mean(omega0)
    f = f - np.mean(f)

    w_hat = rfftn(omega0, (0, 1))
    f_hat = rfftn(f, (0, 1)) * mask

    if cfg.steps is not None:
        n_steps = cfg.steps
    else:
        ux, uy, _, _ = velocity_and_gradient(w_hat)
        umax = max(float(np.max(np.hypot(ux, uy))), 1e-6)
        dt_cfl = CFL * (extent[0] / shape[0]) / umax
        n_steps = max(int(math.ceil(t / dt_cfl)), 32)
    dt = t / n_steps

    def nonlin(v):
        ux, uy, wx, wy = velocity_and_gradient(v * mask)
        return f_hat - rfftn(ux * wx + uy * wy, (-2, -1)) * mask

    w_hat = _ifrk4(w_hat[None], [n_steps], [dt], -nu * k2, nonlin)[0]
    _check_finite(w_hat, n_steps - 1)
    return irfftn(w_hat, shape, (0, 1))


def solve_sample(sample: Sample, cfg: SolverConfig = None) -> Dict[str, np.ndarray]:
    """Run the reference solver for a sample; returns target-field dict.

    ``sample`` may be a SampleStack: its targets come back stacked, with a
    non-finite row where that row's solve blew up.
    """
    t, f, c, extent = sample.t_final, sample.fields, sample.constants, sample.grid.extent
    if sample.system == "advection1d":
        return {"u": solve_advection_analytic(f["u"], c["beta"], t, extent[0])}
    if sample.system == "burgers1d":
        return {"u": solve_burgers_1d(f["u"], c["nu"], t, cfg, extent[0])}
    if sample.system == "diffreact2d":
        u, v = solve_diffreact_2d(f["u"], f["v"], c["Du"], c["Dv"], c["k"], t, cfg, extent)
        return {"u": u, "v": v}
    if sample.system == "ns-vorticity2d":
        return {"omega": solve_ns_vorticity_2d(f["omega"], c["nu"], f["f"], t, cfg, extent)}
    raise ValueError(f"unknown system {sample.system!r}")


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


def _solve_all(samples: List[Sample], cfg) -> List[Optional[Dict[str, np.ndarray]]]:
    """Each sample's targets, or None where its solve went non-finite."""
    if samples[0].system in STACKED_SYSTEMS:
        stacked = solve_sample(SampleStack.of(samples), cfg)
        rows = [{name: arr[i] for name, arr in stacked.items()} for i in range(len(samples))]
        return [r if all(np.all(np.isfinite(a)) for a in r.values()) else None for r in rows]
    solved = []
    for sample in samples:
        try:
            solved.append(solve_sample(sample, cfg))
        except StepUnstable:
            solved.append(None)
    return solved


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
                     seed: int = 0, grid: Grid = None, t_final: float = 1.0,
                     cfg: SolverConfig = None, split: str = "train") -> Dataset:
    """Deterministic dataset generation.

    Sample i is drawn from the generator seeded ``[seed, i, attempt]``.  All
    samples are drawn and solved (burgers1d as one SampleStack), then those
    whose solve went non-finite are redrawn on the next attempt, up to
    MAX_RETRIES times; a sample that fails every attempt raises StepUnstable.
    """
    if system not in DEFAULT_PARAM_RANGES:
        raise ValueError(f"unknown system {system!r}")
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    grid = grid or DEFAULT_GRIDS[system]
    if grid.rank != DEFAULT_GRIDS[system].rank:
        raise ValueError(f"{system} needs a {DEFAULT_GRIDS[system].rank}D grid, "
                         f"got points {grid.points}")
    ranges = _param_ranges(system, param_ranges)
    samples = [None] * n_samples
    pending = list(range(n_samples))
    for attempt in range(MAX_RETRIES + 1):
        drawn = [_draw_sample(system, np.random.default_rng([seed, i, attempt]), grid,
                              t_final, ranges) for i in pending]
        for i, sample, targets in zip(pending, drawn, _solve_all(drawn, cfg)):
            if targets is not None:
                sample.targets = targets
                samples[i] = sample
        pending = [i for i in pending if samples[i] is None]
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
    return Dataset(system, grid, {split: samples}, meta)
