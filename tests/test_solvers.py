import math
import re

import numpy as np
import pytest
import scipy.fft
from hypothesis import given, settings, strategies as st
from scipy.integrate import solve_ivp

from dimino import solvers
from dimino.data import Grid
from dimino.solvers import (
    CFL,
    DEALIAS_FRAC,
    MAX_RETRIES,
    SampleStack,
    SolverConfig,
    StepUnstable,
    generate_dataset,
    random_fourier_field,
    solve_advection_analytic,
    solve_burgers_1d,
    solve_diffreact_2d,
    solve_ns_vorticity_2d,
    solve_sample,
)
from dimino.spectral import dealias_mask, wavenumbers


def rel_l2(a, b):
    return np.linalg.norm((a - b).ravel()) / np.linalg.norm(b.ravel())


def grid_xy(n):
    x = np.linspace(0, 1, n, endpoint=False)
    return np.meshgrid(x, x, indexing="ij")


# -- advection -------------------------------------------------------------

def test_advection_matches_closed_form_shift():
    n = 128
    x = np.linspace(0, 1, n, endpoint=False)
    u0 = np.sin(2 * np.pi * x) + 0.3 * np.cos(6 * np.pi * x)
    beta, t = 0.7, 1.3
    got = solve_advection_analytic(u0, beta, t)
    want = np.sin(2 * np.pi * (x - beta * t)) + 0.3 * np.cos(
        6 * np.pi * (x - beta * t)
    )
    assert rel_l2(got, want) < 1e-10


def test_advection_integer_shift_is_grid_roll():
    n = 64
    rng = np.random.default_rng(0)
    u0 = random_fourier_field(rng, Grid((n,), (1.0,)))
    got = solve_advection_analytic(u0, beta=1.0, t=8 / n)
    np.testing.assert_allclose(got, np.roll(u0, 8), atol=1e-12)


# -- burgers ---------------------------------------------------------------

def test_burgers_small_amplitude_heat_decay():
    n = 128
    x = np.linspace(0, 1, n, endpoint=False)
    eps, nu, t = 1e-5, 0.05, 1.0
    u0 = eps * np.sin(2 * np.pi * x)
    got = solve_burgers_1d(u0, nu, t, SolverConfig(steps=256))
    want = eps * np.exp(-nu * (2 * np.pi) ** 2 * t) * np.sin(2 * np.pi * x)
    assert rel_l2(got, want) < 1e-4  # nonlinear residue is O(eps)


def test_burgers_self_convergence_under_step_halving():
    n = 128
    rng = np.random.default_rng(1)
    u0 = random_fourier_field(rng, Grid((n,), (1.0,)))
    nu, t = 0.01, 0.5
    ref = solve_burgers_1d(u0, nu, t, SolverConfig(steps=2048))
    coarse = solve_burgers_1d(u0, nu, t, SolverConfig(steps=512))
    fine = solve_burgers_1d(u0, nu, t, SolverConfig(steps=1024))
    e_coarse, e_fine = rel_l2(coarse, ref), rel_l2(fine, ref)
    assert e_fine < e_coarse
    assert e_fine < 1e-6


def test_burgers_conserves_mean():
    rng = np.random.default_rng(2)
    u0 = random_fourier_field(rng, Grid((128,), (1.0,)))
    out = solve_burgers_1d(u0, 0.01, 1.0)
    assert abs(out.mean() - u0.mean()) < 1e-10


# -- diffusion-reaction ----------------------------------------------------

def test_diffreact_uniform_fields_match_ode_oracle():
    n = 32
    cu, cv, k = 0.3, -0.2, 5e-3
    u0 = np.full((n, n), cu)
    v0 = np.full((n, n), cv)

    def rhs(_, y):
        u, v = y
        return [u - u**3 - k - v, u - v]

    sol = solve_ivp(rhs, (0, 2.0), [cu, cv], rtol=1e-12, atol=1e-12)
    u, v = solve_diffreact_2d(u0, v0, 1e-3, 2e-3, k, 2.0, SolverConfig(steps=512))
    assert np.max(np.abs(u - sol.y[0, -1])) < 1e-6
    assert np.max(np.abs(v - sol.y[1, -1])) < 1e-6


def test_diffreact_pure_diffusion_is_exact_spectral_decay():
    n = 32
    X, Y = grid_xy(n)
    u0 = np.sin(2 * np.pi * X) * np.cos(4 * np.pi * Y)
    Du, t = 3e-3, 1.0
    u, _ = solve_diffreact_2d(
        u0, u0.copy(), Du, Du, 0.0, t, SolverConfig(steps=8), reaction=False
    )
    k2 = (2 * np.pi) ** 2 + (4 * np.pi) ** 2
    want = np.exp(-Du * k2 * t) * u0
    assert rel_l2(u, want) < 1e-10


# -- navier-stokes vorticity -----------------------------------------------

def test_ns_taylor_green_viscous_decay():
    n = 64
    X, Y = grid_xy(n)
    omega0 = np.sin(2 * np.pi * X) * np.sin(2 * np.pi * Y)
    nu, t = 0.01, 1.0
    got = solve_ns_vorticity_2d(omega0, nu, np.zeros_like(omega0), t,
                                SolverConfig(steps=256))
    want = np.exp(-8 * np.pi**2 * nu * t) * omega0
    assert rel_l2(got, want) < 1e-6


def test_ns_inviscid_enstrophy_conservation():
    n = 64
    rng = np.random.default_rng(3)
    omega0 = random_fourier_field(rng, Grid((n, n), (1.0, 1.0)))
    got = solve_ns_vorticity_2d(omega0, 0.0, np.zeros_like(omega0), 0.2,
                                SolverConfig(steps=512))
    z0 = np.sum(omega0**2)
    z1 = np.sum(got**2)
    assert abs(z1 - z0) / z0 < 1e-6


def test_ns_mean_zero_is_preserved():
    rng = np.random.default_rng(4)
    grid = Grid((32, 32), (1.0, 1.0))
    omega0 = random_fourier_field(rng, grid)
    f = random_fourier_field(rng, grid, amplitude=0.1)
    got = solve_ns_vorticity_2d(omega0, 5e-3, f, 1.0, SolverConfig(steps=128))
    assert abs(got.mean()) < 1e-10
    # a non-zero mean is subtracted before the solve
    shifted = solve_ns_vorticity_2d(omega0 + 0.25, 5e-3, f, 1.0, SolverConfig(steps=128))
    assert abs(shifted.mean()) < 1e-10
    np.testing.assert_allclose(shifted, got, rtol=0, atol=1e-12)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_unstable_step_raises():
    rng = np.random.default_rng(5)
    u0 = 10.0 * random_fourier_field(rng, Grid((128,), (1.0,)))
    with pytest.raises(StepUnstable):
        solve_burgers_1d(u0, 0.0, 1000.0, SolverConfig(steps=64))


# -- IF-RK4 reference equivalence ------------------------------------------

def _reference_ifrk4(v, n_steps, dt, lin, nonlin):
    """The IF-RK4 loop as first written: every factor recomputed in every step."""
    e_full = np.exp(lin * dt)
    e_half = np.exp(lin * dt / 2)
    for step in range(n_steps):
        k1 = nonlin(v)
        k2 = nonlin(e_half * (v + dt / 2 * k1))
        k3 = nonlin(e_half * v + dt / 2 * k2)
        k4 = nonlin(e_full * v + dt * e_half * k3)
        v = e_full * v + dt / 6 * (e_full * k1 + 2 * e_half * (k2 + k3) + k4)
    return v


def _reference_burgers(u0, nu, t, steps):
    """solve_burgers_1d as first written, on the public scipy.fft transforms."""
    n = u0.shape[0]
    k, = wavenumbers((n,), (1.0,))
    mask = dealias_mask((n,), DEALIAS_FRAC)
    if steps is None:
        umax = max(float(np.max(np.abs(u0))), 1e-6)
        steps = max(int(math.ceil(t / (CFL * (1.0 / n) / umax))), 16)

    def nonlin(v):
        u = scipy.fft.irfft(v * mask, n=n)
        return -0.5j * k * (scipy.fft.rfft(u * u) * mask)

    v = _reference_ifrk4(scipy.fft.rfft(u0), steps, t / steps, -nu * k**2, nonlin)
    return scipy.fft.irfft(v, n=n)


def _reference_ifrk4_rows(v, n_steps, dt, lin, nonlin):
    """``_reference_ifrk4`` on each row of a stack, behind the stacked signature."""
    lin = np.broadcast_to(lin, v.shape)
    return np.stack([_reference_ifrk4(v[i], n_steps[i], dt[i], lin[i],
                                      lambda w: nonlin(w[None])[0])
                     for i in range(len(v))])


STEPS = st.one_of(st.none(), st.integers(32, 512))  # None: the CFL step count


@given(n=st.sampled_from([16, 64, 128]), amp=st.floats(0.1, 4.0), nu=st.floats(1e-3, 1e-1),
       steps=STEPS, seed=st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_burgers_equals_reference_ifrk4(n, amp, nu, steps, seed):
    u0 = random_fourier_field(np.random.default_rng(seed), Grid((n,), (1.0,)), amp)
    want = _reference_burgers(u0, nu, 0.5, steps)
    try:
        got = solve_burgers_1d(u0, nu, 0.5, SolverConfig(steps=steps))
    except StepUnstable:  # too few fixed steps: the reference must blow up too
        assert not np.all(np.isfinite(want))
        return
    assert np.array_equal(got, want)


@given(n=st.sampled_from([16, 32]), amp=st.floats(0.1, 4.0), nu=st.floats(1e-3, 1e-2),
       steps=STEPS, seed=st.integers(0, 2**32 - 1))
@settings(max_examples=15, deadline=None)
def test_ns_vorticity_equals_reference_ifrk4(n, amp, nu, steps, seed):
    rng = np.random.default_rng(seed)
    grid = Grid((n, n), (1.0, 1.0))
    omega0 = random_fourier_field(rng, grid, amp)
    f = random_fourier_field(rng, grid, 0.1 * amp)
    got = solve_ns_vorticity_2d(omega0, nu, f, 0.25, SolverConfig(steps=steps))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solvers, "_ifrk4", _reference_ifrk4_rows)
        want = solve_ns_vorticity_2d(omega0, nu, f, 0.25, SolverConfig(steps=steps))
    assert np.array_equal(got, want)


# -- stacked burgers solve -------------------------------------------------

@given(n=st.sampled_from([16, 64, 128]),
       rows=st.lists(st.tuples(st.floats(0.1, 4.0), st.floats(1e-3, 1e-1)),
                     min_size=1, max_size=8),
       steps=st.one_of(st.none(), st.integers(16, 256)), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_burgers_stack_equals_per_sample(n, rows, steps, seed):
    rng = np.random.default_rng(seed)
    grid = Grid((n,), (1.0,))
    u0 = np.stack([random_fourier_field(rng, grid, amp) for amp, _ in rows])
    nu = np.array([nu for _, nu in rows])
    cfg = SolverConfig(steps=steps)
    got = solve_burgers_1d(u0, nu, 0.5, cfg)
    assert got.shape == u0.shape
    for i in range(len(rows)):
        want = _reference_burgers(u0[i], nu[i], 0.5, steps)
        if not np.all(np.isfinite(want)):  # too few fixed steps: all three blow up
            assert not np.all(np.isfinite(got[i]))
            with pytest.raises(StepUnstable):
                solve_burgers_1d(u0[i], nu[i], 0.5, cfg)
            continue
        assert np.array_equal(got[i], want)
        assert np.array_equal(solve_burgers_1d(u0[i], nu[i], 0.5, cfg), want)


def test_sample_stack_refuses_a_2d_system():
    s = generate_dataset("ns-vorticity2d", {}, 1, 0, Grid((16, 16), (1.0, 1.0)), 0.1
                         ).split("train")[0]
    with pytest.raises(ValueError, match="one at a time"):
        SampleStack.of([s])


def _reference_generate(system, ranges, n_samples, seed, grid, t_final, cfg):
    """generate_dataset's samples as first written: one sample at a time,
    each redrawn at once when its solve raises.  Also returns the redraws."""
    ranges = {**solvers.DEFAULT_PARAM_RANGES[system], **ranges}
    samples, redraws = [], 0
    for i in range(n_samples):
        for attempt in range(MAX_RETRIES + 1):
            rng = np.random.default_rng([seed, i, attempt])
            sample = solvers._draw_sample(system, rng, grid, t_final, ranges)
            try:
                sample.targets = solve_sample(sample, cfg)
            except StepUnstable:
                if attempt == MAX_RETRIES:
                    raise
                redraws += 1
                continue
            samples.append(sample)
            break
    return samples, redraws


@pytest.mark.parametrize("ranges, n_samples, seed, points, t_final, steps, redraws", [
    ({}, 6, 0, 64, 0.5, None, 0),
    ({"amp": (1.0, 1.0)}, 2, 111, 128, 10.0, None, 0),
    ({"amp": (0.5, 3.0), "nu": (1e-3, 1e-3)}, 12, 5, 64, 1.0, 32, 15),
], ids=["default-ranges", "pinned-amp", "retries"])
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_generate_burgers_equals_per_sample_loop(ranges, n_samples, seed, points,
                                                 t_final, steps, redraws):
    grid, cfg = Grid((points,), (1.0,)), SolverConfig(steps=steps)
    want, seen = _reference_generate("burgers1d", ranges, n_samples, seed, grid, t_final, cfg)
    assert seen == redraws
    got = generate_dataset("burgers1d", ranges, n_samples, seed, grid, t_final, cfg
                           ).split("train")
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert np.array_equal(a.fields["u"], b.fields["u"])
        assert np.array_equal(a.targets["u"], b.targets["u"])
        assert a.constants["nu"] == b.constants["nu"]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_generate_burgers_raises_when_retries_run_out():
    args = ("burgers1d", {"amp": (30.0, 40.0)}, 4, 1, Grid((64,), (1.0,)), 1.0,
            SolverConfig(steps=24))
    with pytest.raises(StepUnstable):
        _reference_generate(*args)
    with pytest.raises(StepUnstable, match="on all 4 draws"):
        generate_dataset(*args)


@pytest.mark.parametrize("ranges, message", [
    ({"Nu": (1e-3, 1e-2)}, "unknown parameter 'Nu' for burgers1d; its parameters are amp, nu"),
    ({"nu": (1e-2, 1e-3)}, "0 < LO <= HI"),
    ({"nu": (0.0, 1e-3)}, "0 < LO <= HI"),
    ({"nu": (-1.0, 1e-3)}, "0 < LO <= HI"),
    ({"nu": (1e-3, float("inf"))}, "finite"),
    ({"nu": ("1e-3",)}, "two numbers LO,HI"),
    ({"nu": ("1e-3", "1e-2", "1")}, "two numbers LO,HI"),
    ({"nu": ("1e-3", "x")}, "two numbers LO,HI"),
    ({"nu": 1e-3}, "two numbers LO,HI"),
], ids=["unknown-name", "lo-above-hi", "zero-lo", "negative-lo", "infinite-hi",
        "one-bound", "three-bounds", "not-a-number", "not-a-pair"])
def test_generate_dataset_rejects_bad_param_ranges(ranges, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        generate_dataset("burgers1d", ranges, 1, 0, Grid((16,), (1.0,)), 0.1)


def test_generate_dataset_accepts_string_bounds_and_a_point_range():
    ds = generate_dataset("burgers1d", {"nu": ("1e-2", "1e-2"), "amp": (1, 1)}, 1, 0,
                          Grid((16,), (1.0,)), 0.1)
    assert ds.meta["param_ranges"]["nu"] == [1e-2, 1e-2]
    assert ds.split("train")[0].constants["nu"] == pytest.approx(1e-2, rel=1e-15)


@pytest.mark.parametrize("system, points", [
    ("burgers1d", (16, 16)), ("advection1d", (16, 16)), ("ns-vorticity2d", (16,)),
    ("diffreact2d", (16,)),
])
def test_generate_dataset_rejects_a_grid_of_the_wrong_rank(system, points):
    grid = Grid(points, (1.0,) * len(points))
    with pytest.raises(ValueError, match=f"{system} needs a"):
        generate_dataset(system, {}, 1, 0, grid, 0.1)


# -- dataset generation ----------------------------------------------------

def test_random_fourier_field_properties():
    rng = np.random.default_rng(6)
    u = random_fourier_field(rng, Grid((64,), (1.0,)), amplitude=1.5)
    assert abs(u.mean()) < 1e-12
    assert np.max(np.abs(u)) == pytest.approx(1.5)


def test_generate_dataset_is_deterministic():
    a = generate_dataset("burgers1d", {}, 4, 123, Grid((64,), (1.0,)), 0.5)
    b = generate_dataset("burgers1d", {}, 4, 123, Grid((64,), (1.0,)), 0.5)
    c = generate_dataset("burgers1d", {}, 4, 124, Grid((64,), (1.0,)), 0.5)
    for sa, sb in zip(a.split("train"), b.split("train")):
        np.testing.assert_array_equal(sa.fields["u"], sb.fields["u"])
        np.testing.assert_array_equal(sa.targets["u"], sb.targets["u"])
        assert sa.constants["nu"] == sb.constants["nu"]
    assert not np.array_equal(
        a.split("train")[0].fields["u"], c.split("train")[0].fields["u"]
    )


def test_generate_dataset_targets_match_solver():
    ds = generate_dataset("advection1d", {}, 2, 7, Grid((64,), (1.0,)), 1.0)
    for s in ds.split("train"):
        np.testing.assert_allclose(
            s.targets["u"], solve_sample(s)["u"], atol=1e-12
        )


def test_solve_sample_rejects_unknown_system():
    s = generate_dataset("advection1d", {}, 1, 0, Grid((64,), (1.0,)), 1.0
                         ).split("train")[0]
    s.system = "nope"
    with pytest.raises(ValueError):
        solve_sample(s)
