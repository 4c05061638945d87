"""Acceptance suite.

Each test checks one release gate at its pinned tolerance and prints a
one-line summary with the measured value, so ``pytest -v -s`` doubles as an
acceptance report.  Budgets (wall-clock ceilings) are asserted where stated.
"""
import math
import time

import numpy as np
import pytest

from conftest import random_batch
from dimino import dims
from dimino import autodiff as ad
from dimino.data import Dataset, Grid, dataset_hash
from dimino.cli import main as cli_main
from dimino.model import DimINOModel, ModelConfig
from dimino.solvers import (
    SolverConfig,
    generate_dataset,
    solve_advection_analytic,
    solve_burgers_1d,
    solve_diffreact_2d,
    solve_ns_vorticity_2d,
    solve_sample,
)
from dimino.sti import sti_check
from dimino.training import (
    TrainConfig,
    evaluate,
    grad_check_model,
    rel_metric,
    train,
)

SYSTEMS = ("advection1d", "burgers1d", "diffreact2d", "ns-vorticity2d")

# Shared NS regime: forcing-dominated (weak initial vorticity, strong
# forcing), so the solution map is nearly linear in f.  The raw twin then
# learns an output that scales like f — which transforms as 1/p^2 — while
# the true solution scales like omega (1/p), so its similarity-transform
# failure is structural and its in-distribution base error stays low.
NS_GRID = Grid((32, 32), (1.0, 1.0))
NS_RANGES = {"amp": (0.1, 0.2), "nu": (5e-3, 6e-3), "f_amp": (5.0, 10.0)}


@pytest.fixture(scope="session")
def ns_dataset():
    tr = generate_dataset("ns-vorticity2d", NS_RANGES, 64, 7, NS_GRID, 1.0)
    te = generate_dataset(
        "ns-vorticity2d", NS_RANGES, 32, 1007, NS_GRID, 1.0, split="test"
    )
    return Dataset(
        "ns-vorticity2d",
        NS_GRID,
        {"train": tr.split("train"), "test": te.split("test")},
        tr.meta,
    )


def _ns_model_config(**kw):
    base = dict(
        system="ns-vorticity2d",
        in_fields=["omega", "f"],
        target_fields=["omega"],
        rank=2,
        width=16,
        depth=4,
        modes=8,
        init_seed=7,
    )
    base.update(kw)
    return ModelConfig(**base)


@pytest.mark.slow
def test_sti_exactness_random_and_trained(ns_dataset):
    """Latent/output invariance under power-of-two similarity transforms."""
    t0 = time.monotonic()
    samples = ns_dataset.split("test")
    assert len(samples) == 32

    random_model = DimINOModel(_ns_model_config())
    trained_model = DimINOModel(_ns_model_config(init_seed=8))
    trained_model, _ = train(
        trained_model, ns_dataset, TrainConfig(epochs=10, batch_size=8, seed=8)
    )

    for label, model in (("random", random_model), ("trained", trained_model)):
        report = sti_check(model, samples, [1, 2, 4, 8])
        latents = [e.latent_residual for e in report.entries]
        scalings = [e.output_scaling_residual for e in report.entries]
        errs = {e.p: e.model_rel_l2 for e in report.entries}
        spread = max(abs(errs[p] - errs[1.0]) for p in (2.0, 4.0, 8.0))
        print(
            f"[acceptance] sti-exactness {label}: latent={max(latents):.2e} "
            f"(<1e-12) scaling={max(scalings):.2e} (<1e-10) "
            f"rel-l2 spread={spread:.2e} (<1e-4)"
        )
        assert max(latents) < 1e-12
        assert max(scalings) < 1e-10
        assert spread < 1e-4

    elapsed = time.monotonic() - t0
    print(f"[acceptance] sti-exactness runtime {elapsed:.0f}s (<120s)")
    assert elapsed < 120


@pytest.mark.slow
def test_baseline_sti_degradation(ns_dataset):
    """The gate-ablated twin must degrade >=5x under a p=2 transform."""
    t0 = time.monotonic()
    twin = DimINOModel(
        _ns_model_config(width=16, modes=12, use_dimnorm=False)
    )
    twin, _ = train(
        twin, ns_dataset, TrainConfig(epochs=100, batch_size=8, seed=7)
    )
    samples = ns_dataset.split("test")

    def twin_error(p):
        eval_samples = samples if p == 1 else dims.similar_transform(samples, p)
        pred = twin.predict(eval_samples)
        truth = solve_sample(eval_samples)["omega"]
        errs = [rel_metric("rel-l2", pred[i, ..., 0], truth[i]) for i in range(len(truth))]
        return float(np.mean(errs))

    base = twin_error(1)
    shifted = twin_error(2)
    ratio = shifted / base
    elapsed = time.monotonic() - t0
    print(
        f"[acceptance] baseline-degradation: p=1 {base:.4f}, p=2 {shifted:.4f}, "
        f"ratio {ratio:.2f} (>=5) runtime {elapsed:.0f}s (<300s)"
    )
    assert elapsed < 300
    assert ratio >= 5.0


def test_dimensionless_numbers_are_similarity_invariant():
    """compute_dimensionless commutes with similar_transform to 1e-12."""
    worst = 0.0
    for system in SYSTEMS:
        spec = dims.REGISTRY[system]
        batch = random_batch(system, range(100))
        nums = dims.compute_dimensionless(
            spec, dims.characteristic_scales_from_sample(batch)
        )
        for p in (0.5, 2.0, 8.0):
            moved = dims.similar_transform(batch, p)
            nums_p = dims.compute_dimensionless(
                spec, dims.characteristic_scales_from_sample(moved)
            )
            worst = max(worst, float(np.max(np.abs(nums_p - nums) / np.abs(nums))))
    print(f"[acceptance] dimensionless invariance: worst rel dev {worst:.2e} (<1e-12)")
    assert worst < 1e-12


def test_solver_oracles():
    t0 = time.monotonic()

    # Taylor-Green vortex: exact decay e^{-8 pi^2 nu t} on the unit torus.
    n, nu, t = 64, 0.01, 1.0
    x = np.linspace(0, 1, n, endpoint=False)
    xx, yy = np.meshgrid(x, x, indexing="ij")
    omega0 = np.sin(2 * np.pi * xx) * np.sin(2 * np.pi * yy)
    got = solve_ns_vorticity_2d(omega0, nu, np.zeros_like(omega0), t)
    want = omega0 * math.exp(-8 * math.pi**2 * nu * t)
    tg_err = float(np.max(np.abs(got - want)))

    # Advection: spectral shift vs the closed-form shifted profile.
    xs = np.linspace(0, 1, 256, endpoint=False)
    u0 = np.sin(2 * np.pi * xs) + 0.3 * np.cos(6 * np.pi * xs)
    beta, ta = 0.731, 0.57
    got = solve_advection_analytic(u0, beta, ta)
    s = xs - beta * ta
    want = np.sin(2 * np.pi * s) + 0.3 * np.cos(6 * np.pi * s)
    adv_err = float(np.max(np.abs(got - want)))

    # Uniform diffusion-reaction: diffusion is a no-op, compare to the ODE.
    from scipy.integrate import solve_ivp

    Du, Dv, kc, td = 5e-3, 3e-3, 4e-3, 2.0
    u0c, v0c = 0.3, -0.1
    uu = np.full((16, 16), u0c)
    vv = np.full((16, 16), v0c)
    u, v = solve_diffreact_2d(uu, vv, Du, Dv, kc, td, SolverConfig(steps=400))
    sol = solve_ivp(
        lambda _, y: [y[0] - y[0] ** 3 - kc - y[1], y[0] - y[1]],
        (0.0, td),
        [u0c, v0c],
        rtol=1e-12,
        atol=1e-14,
    )
    dr_err = max(
        float(np.max(np.abs(u - sol.y[0, -1]))), float(np.max(np.abs(v - sol.y[1, -1])))
    )

    # Burgers: self-convergence against a refined-step reference.
    rng = np.random.default_rng(11)
    cs = rng.standard_normal(4) * np.arange(1, 5) ** -2.0
    xb = np.linspace(0, 1, 128, endpoint=False)
    ub = sum(c * np.sin(2 * np.pi * (k + 1) * xb) for k, c in enumerate(cs))
    ref = solve_burgers_1d(ub, 5e-3, 1.0, SolverConfig(steps=2048))
    coarse = solve_burgers_1d(ub, 5e-3, 1.0, SolverConfig(steps=512))
    bg_err = float(np.max(np.abs(coarse - ref)))

    elapsed = time.monotonic() - t0
    print(
        f"[acceptance] solver oracles: taylor-green {tg_err:.2e} (<1e-6), "
        f"advection {adv_err:.2e} (<1e-10), diffreact {dr_err:.2e} (<1e-6), "
        f"burgers {bg_err:.2e} (<1e-6), runtime {elapsed:.0f}s (<180s)"
    )
    assert tg_err < 1e-6
    assert adv_err < 1e-10
    assert dr_err < 1e-6
    assert bg_err < 1e-6
    assert elapsed < 180


def test_gradient_checks():
    """Every primitive and the full depth-4 pipeline pass grad_check."""
    t0 = time.monotonic()
    worst_prim = 0.0
    for seed in range(100):
        results = ad.standard_primitive_checks(seed=seed, n_sample=4)
        worst_prim = max(worst_prim, max(results.values()))

    samples = random_batch("advection1d", (0, 1), with_targets=True)
    worst_model = 0.0
    for seed in range(5):
        model = DimINOModel(
            ModelConfig(
                "advection1d", ["u"], ["u"], 1, width=6, depth=4, modes=4,
                init_seed=seed,
            )
        )
        worst_model = max(
            worst_model, grad_check_model(model, samples, n_sample=4, seed=seed)
        )

    elapsed = time.monotonic() - t0
    print(
        f"[acceptance] grad-check: primitives {worst_prim:.2e} (<1e-6), "
        f"full model {worst_model:.2e} (<1e-6), runtime {elapsed:.0f}s (<300s)"
    )
    assert worst_prim < 1e-6
    assert worst_model < 1e-6
    assert elapsed < 300


@pytest.mark.slow
def test_paired_advection_training():
    """Median test rel-L2 of the gated model must not exceed the raw twin's.

    The comparison regime spreads initial-condition amplitudes over four
    decades: the gated model's nondimensionalized view is invariant to the
    spread, while the raw twin must absorb it from data.
    """
    grid = Grid((256,), (1.0,))
    ranges = {"amp": (0.01, 100.0)}
    results = {True: [], False: []}
    for seed in (0, 1, 2):
        tr = generate_dataset("advection1d", ranges, 256, seed, grid, 1.0)
        te = generate_dataset(
            "advection1d", ranges, 64, seed + 1000, grid, 1.0, split="test"
        )
        ds = Dataset(
            "advection1d",
            grid,
            {"train": tr.split("train"), "test": te.split("test")},
            tr.meta,
        )
        for dimnorm in (True, False):
            t0 = time.monotonic()
            model = DimINOModel(
                ModelConfig(
                    "advection1d", ["u"], ["u"], 1, width=16, depth=4, modes=12,
                    use_dimnorm=dimnorm, init_seed=seed,
                )
            )
            model, _ = train(model, ds, TrainConfig(epochs=200, seed=seed))
            err = evaluate(model, ds, "test")["rel-l2"]
            results[dimnorm].append(err)
            elapsed = time.monotonic() - t0
            label = "gated" if dimnorm else "twin"
            print(
                f"[acceptance] paired-training seed {seed} {label}: "
                f"rel-l2 {err:.4f}, runtime {elapsed:.0f}s (<900s)"
            )
            assert elapsed < 900
    med_gated = float(np.median(results[True]))
    med_twin = float(np.median(results[False]))
    print(
        f"[acceptance] paired-training medians: gated {med_gated:.4f} <= "
        f"twin {med_twin:.4f}"
    )
    assert med_gated <= med_twin


def test_gate_layout_exhaustive():
    """Block layout l = floor((1-gamma) n / m) with ones padding, all cases."""
    rng = np.random.default_rng(0)
    tape = ad.Tape()
    for n in range(1, 65):
        x = rng.standard_normal(n)
        for m in range(0, 9):
            c = np.exp(rng.standard_normal(m))
            for gamma in (0.0, 0.25, 0.5, 0.75, 1.0):
                l = math.floor((1 - gamma) * n / m) if m else 0
                assert ad.gate_block_length(n, m, gamma) == l
                gate = ad.gate_expand(tape.leaf(c[None]), n, gamma).data[0]
                want = np.concatenate([np.repeat(c, l), np.ones(n - m * l)])
                np.testing.assert_array_equal(gate, want)
                if gamma == 1.0 or m == 0:
                    np.testing.assert_array_equal(gate, np.ones(n))
                    np.testing.assert_array_equal(x * gate, x)
    print("[acceptance] gate layout: exhaustive n<=64, m<=8, 5 gammas OK")


def test_metric_identities():
    rng = np.random.default_rng(42)
    worst = 0.0
    for i in range(1000):
        shape = (32,) if i % 2 else (8, 8)
        a = rng.standard_normal(shape)
        b = rng.standard_normal(shape)
        s = float(np.exp(rng.uniform(-3, 3)))
        for kind in ("rel-l2", "rel-l1", "rel-h1"):
            assert rel_metric(kind, b, b) == 0.0
            assert rel_metric(kind, np.zeros(shape), b) == 1.0
            dev = abs(rel_metric(kind, s * a, s * b) - rel_metric(kind, a, b))
            worst = max(worst, dev)
    print(f"[acceptance] metric identities: worst scaling dev {worst:.2e} (<1e-12)")
    assert worst < 1e-12


def test_cli_reproducibility(tmp_path):
    """gen-data and train are byte-identical across reruns on one BLAS thread."""

    def run_once(root):
        data = root / "data"
        run = root / "run"
        rc = cli_main(
            [
                "gen-data", "--system", "burgers1d",
                "--grid", "32", "--n", "6", "--n-test", "2", "--seed", "3",
                "--t", "0.5", "--out", str(data),
            ]
        )
        assert rc == 0
        rc = cli_main(
            [
                "train", "--data", str(data), "--epochs", "3",
                "--width", "8", "--modes", "4", "--batch-size", "4",
                "--seed", "3", "--out", str(run),
            ]
        )
        assert rc == 0
        return data, run

    data_a, run_a = run_once(tmp_path / "a")
    data_b, run_b = run_once(tmp_path / "b")

    assert dataset_hash(data_a) == dataset_hash(data_b)
    for name in ("manifest.json", "train.bin", "test.bin"):
        assert (data_a / name).read_bytes() == (data_b / name).read_bytes()
    for name in ("checkpoint.bin", "dimino-history.jsonl"):
        assert (run_a / name).read_bytes() == (run_b / name).read_bytes()
    print("[acceptance] reproducibility: datasets, checkpoints, history identical")
