import ast
import math
import re
from pathlib import Path

import numpy as np
import pytest
import scipy.fft
from hypothesis import given, settings, strategies as st
from scipy.integrate import solve_ivp

from dimino import solvers
from dimino.data import Batch, Grid, Sample
from dimino.solvers import (
    CFL,
    DEALIAS_FRAC,
    MAX_RETRIES,
    SolverConfig,
    StepUnstable,
    finite_rows,
    generate_dataset,
    random_fourier_field,
    solve_advection_analytic,
    solve_burgers_1d,
    solve_diffreact_2d,
    solve_ns_vorticity_2d,
    solve_sample,
)
from dimino.spectral import dealias_mask, wavenumbers

from conftest import random_sample


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
def test_unstable_step_comes_back_non_finite():
    # no solver raises: a solve that blows up returns a field with no finite value
    rng = np.random.default_rng(5)
    u0 = 10.0 * random_fourier_field(rng, Grid((128,), (1.0,)))
    got = solve_burgers_1d(u0, 0.0, 1000.0, SolverConfig(steps=64))
    assert got.shape == u0.shape
    assert not np.isfinite(got).any()


def _raisers(tree, exc_name):
    """Dotted names of the functions (and methods) whose own body raises
    ``exc_name``, and of those with a handler that catches it."""
    raised, caught = [], []

    def named(node):
        node = node.func if isinstance(node, ast.Call) else node
        return exc_name in (getattr(node, "id", None), getattr(node, "attr", None))

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + [child.name])
                continue
            if isinstance(child, ast.Raise) and child.exc is not None and named(child.exc):
                raised.append(".".join(scope))
            if isinstance(child, ast.ExceptHandler) and child.type is not None and any(
                    named(n) for n in ast.walk(child.type)):
                caught.append(".".join(scope))
            visit(child, scope)
    visit(tree, [])
    return raised, caught


def test_only_generate_dataset_and_the_sti_truth_raise_step_unstable():
    # a failed solve is a non-finite row everywhere below the two callers that refuse one
    assert _raisers(ast.parse("def f():\n    raise X('a')\nclass C:\n    def g(self):\n"
                              "        try:\n            pass\n        except (X, Y):\n"
                              "            raise m.X\n"), "X") == (["f", "C.g"], ["C.g"])
    src = Path(solvers.__file__).parent
    raised, caught = set(), set()
    for path in sorted(src.glob("*.py")):
        r, c = _raisers(ast.parse(path.read_text()), "StepUnstable")
        raised |= {f"{path.stem}.{name}" for name in r}
        caught |= {f"{path.stem}.{name}" for name in c}
    assert raised == {"solvers.generate_dataset", "sti._truth"}
    assert caught == set()


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
    got = solve_burgers_1d(u0, nu, 0.5, SolverConfig(steps=steps))
    if not np.isfinite(got).all():  # too few fixed steps: the reference must blow up too
        assert not np.isfinite(got).any()
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


def _reference_diffreact(u0, v0, Du, Dv, k_const, t, steps, reaction):
    """solve_diffreact_2d's Strang loop in expression form, on the public
    scipy.fft transforms: each stage and diffusion a fresh array."""
    shape = u0.shape
    kx, ky = wavenumbers(shape, (1.0, 1.0))
    n_steps = steps if steps is not None else max(int(math.ceil(t / 0.01)), 16)
    dt = t / n_steps
    rate = -np.array([Du, Dv])[:, None, None] * (kx**2 + ky**2)
    half, full = np.exp(rate * dt / 2), np.exp(rate * dt)

    def diffuse(w, factor):
        return scipy.fft.irfftn(scipy.fft.rfftn(w, axes=(-2, -1)) * factor, shape,
                                axes=(-2, -1))

    def react(w):
        u, v = w
        return np.stack((u - u * u * u - k_const - v, u - v))

    w = diffuse(np.stack((u0, v0)), half)
    for step in range(n_steps):
        if reaction:
            r1 = react(w)
            r2 = react(w + dt / 2 * r1)
            r3 = react(w + dt / 2 * r2)
            r4 = react(w + dt * r3)
            w = w + dt / 6 * (r1 + 2 * r2 + 2 * r3 + r4)
        w = diffuse(w, full if step < n_steps - 1 else half)
    return w[0], w[1]


@given(n=st.sampled_from([8, 16, 32]), amp=st.floats(0.1, 1.0),
       coefficients=st.tuples(*[st.floats(1e-3, 1e-2)] * 3),
       steps=st.one_of(st.none(), st.integers(1, 64)), reaction=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_diffreact_equals_reference_strang_loop(n, amp, coefficients, steps, reaction, seed):
    rng = np.random.default_rng(seed)
    grid = Grid((n, n), (1.0, 1.0))
    u0, v0 = (random_fourier_field(rng, grid, amp) for _ in range(2))
    want = _reference_diffreact(u0, v0, *coefficients, 0.5, steps, reaction)
    got = solve_diffreact_2d(u0, v0, *coefficients, 0.5, SolverConfig(steps=steps),
                             reaction=reaction)
    if not all(np.isfinite(g).all() for g in got):
        # too few fixed steps: the reference must blow up too
        assert not all(np.isfinite(w).all() for w in want)
        return
    assert all(np.array_equal(g, w) for g, w in zip(got, want))


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
        alone = solve_burgers_1d(u0[i], nu[i], 0.5, cfg)
        assert alone.shape == u0[i].shape
        if not np.all(np.isfinite(want)):  # too few fixed steps: all three blow up
            assert not np.isfinite(got[i]).any()
            assert not np.isfinite(alone).any()
            continue
        assert np.array_equal(got[i], want)
        assert np.array_equal(alone, want)


@given(n=st.sampled_from([16, 64]),
       rows=st.lists(st.tuples(st.integers(0, 2**16), st.floats(0.05, 2.0)),
                     min_size=1, max_size=9),
       steps=st.one_of(st.none(), st.integers(16, 128)))
@settings(max_examples=25, deadline=None)
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_burgers_batch_with_a_t_final_per_row_equals_its_rows(n, rows, steps):
    """A burgers1d Batch whose rows have different t_final solves as one
    stack, bit for bit like each row solved alone."""
    grid = Grid((n,), (1.0,))
    batch = Batch.stack([
        Sample("burgers1d", grid, {"u": random_fourier_field(np.random.default_rng(seed), grid)},
               {"nu": 1e-3 + seed % 97 * 1e-3}, t) for seed, t in rows])
    cfg = SolverConfig(steps=steps)
    got = solve_sample(batch, cfg)["u"]
    for i, row in enumerate(batch):
        alone = solve_sample(batch[i:i + 1], cfg)["u"][0]
        assert np.array_equal(got[i], alone, equal_nan=True)
        want = solve_burgers_1d(row.fields["u"], row.constants["nu"], row.t_final, cfg)
        if np.isfinite(alone).all():
            assert np.array_equal(got[i], want)
        else:
            assert not np.isfinite(want).any()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_a_2d_row_that_blows_up_comes_back_non_finite():
    """The 2D systems are solved row by row: a row whose solve blows up comes
    back with no finite value, and its neighbours are the rows' own solves."""
    calm, steep = (random_sample("diffreact2d", seed=s) for s in (0, 1))
    steep.fields = {n: 20 * a for n, a in steep.fields.items()}
    batch, cfg = Batch.stack([calm, steep, calm]), SolverConfig(steps=16)
    got = solve_sample(batch, cfg)
    alone = solve_diffreact_2d(steep.fields["u"], steep.fields["v"], steep.constants["Du"],
                               steep.constants["Dv"], steep.constants["k"], 1.0, cfg)
    want = solve_diffreact_2d(calm.fields["u"], calm.fields["v"], calm.constants["Du"],
                              calm.constants["Dv"], calm.constants["k"], 1.0, cfg)
    assert list(finite_rows(got)) == [True, False, True]
    for name, a, w in zip(("u", "v"), alone, want):
        assert not np.isfinite(a).any()
        assert not np.isfinite(got[name][1]).any()
        assert np.array_equal(got[name][0], w) and np.array_equal(got[name][2], w)


def _solve_alone(row, cfg):
    """One row's targets from its system's solver, called directly."""
    f, c, t = row.fields, row.constants, row.t_final
    if row.system == "burgers1d":
        return (solve_burgers_1d(f["u"], c["nu"], t, cfg),)
    if row.system == "diffreact2d":
        return solve_diffreact_2d(f["u"], f["v"], c["Du"], c["Dv"], c["k"], t, cfg)
    return (solve_ns_vorticity_2d(f["omega"], c["nu"], f["f"], t, cfg),)


@given(system=st.sampled_from(["burgers1d", "diffreact2d", "ns-vorticity2d"]),
       seeds=st.lists(st.integers(0, 2**16), min_size=2, max_size=4),
       steep=st.lists(st.booleans(), min_size=4, max_size=4).filter(
           lambda b: any(b[:2]) and not all(b[:2])),
       steps=st.integers(4, 24))
@settings(max_examples=30, deadline=None)
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_solve_sample_returns_calm_rows_bit_equal_and_blown_rows_non_finite(
        system, seeds, steep, steps):
    """Calm rows mixed with rows scaled x20 and solved with few fixed steps:
    a row whose own solve is finite comes back as that solve bit for bit, and
    a row whose own solve blew up comes back with no finite value."""
    rows = [random_sample(system, seed=seed) for seed in seeds]
    for row, scaled in zip(rows, steep):
        if scaled:
            row.fields = {n: 20 * a for n, a in row.fields.items()}
    batch, cfg = Batch.stack(rows), SolverConfig(steps=steps)
    got = solve_sample(batch, cfg)
    assert list(got) == list(solvers.TARGETS[system])
    calm = []
    for i, row in enumerate(batch):
        alone = _solve_alone(row, cfg)
        calm.append(all(np.isfinite(a).all() for a in alone))
        if calm[-1]:
            assert all(np.array_equal(got[n][i], a) for n, a in zip(got, alone))
        else:
            assert not any(np.isfinite(a).any() for a in alone)
            assert not any(np.isfinite(got[n][i]).any() for n in got)
    assert list(finite_rows(got)) == calm


def _reference_generate(system, ranges, n_samples, seed, grid, t_final, cfg):
    """generate_dataset's burgers1d samples as first written: one sample at
    a time, each redrawn at once when its solve comes back non-finite.  Also
    returns the redraws."""
    ranges = {**solvers.DEFAULT_PARAM_RANGES[system], **ranges}
    samples, redraws = [], 0
    for i in range(n_samples):
        for attempt in range(MAX_RETRIES + 1):
            rng = np.random.default_rng([seed, i, attempt])
            sample = solvers._draw_sample(system, rng, grid, t_final, ranges)
            sample.targets = {"u": solve_burgers_1d(
                sample.fields["u"], sample.constants["nu"], sample.t_final, cfg)}
            if not np.isfinite(sample.targets["u"]).all():
                if attempt == MAX_RETRIES:
                    raise StepUnstable(f"sample {i} went non-finite on every draw")
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
    batch = ds.split("train")
    np.testing.assert_allclose(batch.targets["u"], solve_sample(batch)["u"], atol=1e-12)


def test_solve_sample_rejects_unknown_system():
    s = generate_dataset("advection1d", {}, 1, 0, Grid((64,), (1.0,)), 1.0
                         ).split("train")
    s.system = "nope"
    with pytest.raises(ValueError):
        solve_sample(s)
