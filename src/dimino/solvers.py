"""Reference pseudo-spectral solvers and dataset generation.

All solvers run in double precision on periodic grids.  Nonlinear products
are 2/3-rule dealiased; advection-dominated systems use an integrating-factor
RK4 (diffusion exact in spectral space), the stiff diffusion-reaction system
uses Strang splitting with an RK4 reaction step.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from .data import Dataset, Grid, Sample
from .dims import Quantity, SCALE_DIMS
from .spectral import dealias_mask, irfftn, mode_numbers, rfftn, wavenumbers


class StepUnstable(Exception):
    def __init__(self, step: int):
        super().__init__(f"solution became non-finite at step {step}")
        self.step = step


class NonZeroMeanInput(Exception):
    pass


# Courant number of the adaptive step count, and the retained fraction of
# each axis's modes in nonlinear products (the 2/3 rule).
CFL = 0.25
DEALIAS_FRAC = 2.0 / 3.0

# Initial fields: spectrum ~ |k|^-IC_DECAY up to _ic_k_max(grid); a sample
# whose solve goes non-finite is redrawn on a sub-seed up to MAX_RETRIES times.
IC_DECAY = 2.5
MAX_RETRIES = 3


def _ic_k_max(grid: Grid) -> int:
    return max(grid.points[0] // 8, 2)


@dataclass
class SolverConfig:
    steps: Optional[int] = None

    def __post_init__(self):
        if self.steps is not None and self.steps < 1:
            raise ValueError("steps must be >= 1")


def _val(q) -> float:
    return q.value if isinstance(q, Quantity) else float(q)


def _check_finite(arr, step):
    if not np.all(np.isfinite(arr)):
        raise StepUnstable(step)


def solve_advection_analytic(u0: np.ndarray, beta, t, extent: float = 1.0) -> np.ndarray:
    """Shift u0 by beta*t with spectral interpolation (exact if band-limited)."""
    k, = wavenumbers(u0.shape, (extent,))
    shift = np.exp(-1j * k * _val(beta) * _val(t))
    return irfftn(rfftn(u0, (0,)) * shift, u0.shape, (0,))


def _ifrk4(v, n_steps, dt, lin, nonlin):
    """Integrating-factor RK4: exact linear part, RK4 on the nonlinearity.

    The loop-invariant factors are hoisted without reordering any product,
    so each step computes the textbook expressions bit for bit.
    """
    e_full = np.exp(lin * dt)
    e_half = np.exp(lin * dt / 2)
    dt_e_half, two_e_half = dt * e_half, 2 * e_half
    for step in range(n_steps):
        k1 = nonlin(v)
        k2 = nonlin(e_half * (v + dt / 2 * k1))
        k3 = nonlin(e_half * v + dt / 2 * k2)
        e_full_v = e_full * v
        k4 = nonlin(e_full_v + dt_e_half * k3)
        v = e_full_v + dt / 6 * (e_full * k1 + two_e_half * (k2 + k3) + k4)
        if step % 16 == 15:
            _check_finite(v, step)
    _check_finite(v, n_steps - 1)
    return v


def solve_burgers_1d(u0: np.ndarray, nu, t, cfg: SolverConfig = None,
                     extent: float = 1.0) -> np.ndarray:
    """Viscous Burgers on a periodic interval, conservative form."""
    cfg = cfg or SolverConfig()
    nu, t = _val(nu), _val(t)
    n = u0.shape[0]
    k, = wavenumbers((n,), (extent,))
    mask = dealias_mask((n,), DEALIAS_FRAC)
    if cfg.steps is not None:
        n_steps = cfg.steps
    else:
        umax = max(float(np.max(np.abs(u0))), 1e-6)
        dt_cfl = CFL * (extent / n) / umax
        n_steps = max(int(math.ceil(t / dt_cfl)), 16)
    dt = t / n_steps
    flux_symbol = -0.5j * k

    def nonlin(v):
        u = irfftn(v * mask, (n,), (0,))
        return flux_symbol * (rfftn(u * u, (0,)) * mask)

    v = _ifrk4(rfftn(u0, (0,)), n_steps, dt, -nu * k**2, nonlin)
    return irfftn(v, (n,), (0,))


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
    Du, Dv, k_const, t = _val(Du), _val(Dv), _val(k_const), _val(t)
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
                          extent=(1.0, 1.0), subtract_mean: bool = True):
    """2D incompressible Navier-Stokes in vorticity form on the torus.

    Velocity is recovered through the spectral streamfunction; the viscous
    term is handled by the integrating factor, so nu=0 is a valid test mode.
    """
    cfg = cfg or SolverConfig()
    nu, t = _val(nu), _val(t)
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
        if not subtract_mean:
            raise NonZeroMeanInput("omega0 must be mean-zero")
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
        return f_hat - rfftn(ux * wx + uy * wy, (0, 1)) * mask

    w_hat = _ifrk4(w_hat, n_steps, dt, -nu * k2, nonlin)
    return irfftn(w_hat, shape, (0, 1))


def solve_sample(sample: Sample, cfg: SolverConfig = None, t: float = None
                 ) -> Dict[str, np.ndarray]:
    """Run the reference solver for a sample; returns target-field dict."""
    t = sample.t_final if t is None else t
    f, c, extent = sample.fields, sample.constants, sample.grid.extent
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


def _make_sample(system, rng, grid, t_final, ranges, cfg) -> Sample:
    dims = SCALE_DIMS[system]
    amp = _log_uniform(rng, *ranges["amp"])

    def random_field(amplitude):
        return random_fourier_field(rng, grid, amplitude=amplitude)
    if system == "advection1d":
        fields = {"u": random_field(amp)}
        constants = {"beta": Quantity(_log_uniform(rng, *ranges["beta"]), dims["beta"])}
    elif system == "burgers1d":
        fields = {"u": random_field(amp)}
        constants = {"nu": Quantity(_log_uniform(rng, *ranges["nu"]), dims["nu"])}
    elif system == "diffreact2d":
        fields = {"u": random_field(amp), "v": random_field(amp)}
        constants = {
            name: Quantity(_log_uniform(rng, *ranges[name]), dims[name])
            for name in ("Du", "Dv", "k")
        }
    elif system == "ns-vorticity2d":
        f_amp = _log_uniform(rng, *ranges["f_amp"])
        fields = {"omega": random_field(amp), "f": random_field(f_amp)}
        constants = {"nu": Quantity(_log_uniform(rng, *ranges["nu"]), dims["nu"])}
    else:
        raise ValueError(f"unknown system {system!r}")
    sample = Sample(system, grid, fields, constants, t_final)
    sample.targets = solve_sample(sample, cfg)
    return sample


def generate_dataset(system: str, param_ranges: dict = None, n_samples: int = 64,
                     seed: int = 0, grid: Grid = None, t_final: float = 1.0,
                     cfg: SolverConfig = None, split: str = "train") -> Dataset:
    """Deterministic dataset generation; failed samples retry on a sub-seed."""
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    grid = grid or DEFAULT_GRIDS[system]
    ranges = dict(DEFAULT_PARAM_RANGES[system])
    if param_ranges:
        ranges.update(param_ranges)
    samples = []
    for i in range(n_samples):
        for attempt in range(MAX_RETRIES + 1):
            rng = np.random.default_rng([seed, i, attempt])
            try:
                samples.append(_make_sample(system, rng, grid, t_final, ranges, cfg))
                break
            except StepUnstable:
                if attempt == MAX_RETRIES:
                    raise
    meta = {
        "seed": seed,
        "t_final": t_final,
        "param_ranges": {k: list(v) for k, v in ranges.items()},
        "ic_spectrum": {"decay": IC_DECAY, "k_max": _ic_k_max(grid)},
    }
    return Dataset(system, grid, {split: samples}, meta)
