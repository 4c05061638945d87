import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import make_sample, random_batch
from dimino import dims, solvers, sti
from dimino.data import Batch, Grid
from dimino.model import DimINOModel, ModelConfig
from dimino.solvers import SolverConfig, StepUnstable, generate_dataset, solve_sample
from dimino.sti import SpecMismatch, solver_sti_oracle, sti_check
from dimino.training import rel_metric

# system -> (in_fields, target_fields, rank)
_MODEL_FIELDS = {
    "burgers1d": (["u"], ["u"], 1),
    "diffreact2d": (["u", "v"], ["u", "v"], 2),
    "ns-vorticity2d": (["omega", "f"], ["omega"], 2),
}


def _model(system, use_dimnorm=True, precision="f64"):
    in_fields, target_fields, rank = _MODEL_FIELDS[system]
    return DimINOModel(ModelConfig(
        system=system, in_fields=in_fields, target_fields=target_fields,
        rank=rank, width=8, depth=2, modes=4, use_dimnorm=use_dimnorm,
        precision=precision, init_seed=0,
    ))


def _ns_samples(n=2, seed=0):
    grid = Grid((16, 16), (1.0, 1.0))
    ranges = {"nu": (5e-3, 1e-2), "amp": (1.0, 2.0), "f_amp": (0.02, 0.05)}
    ds = generate_dataset("ns-vorticity2d", ranges, n, seed, grid, 0.5,
                          SolverConfig(steps=64))
    return ds.split("train")


def test_p_equal_one_has_zero_residuals():
    report = sti_check(_model("ns-vorticity2d"), _ns_samples(), [1.0],
                       solver_cfg=SolverConfig(steps=64))
    entry = report.entries[0]
    assert entry.p == 1.0
    assert entry.latent_residual == 0.0
    assert entry.output_scaling_residual == 0.0


def test_power_of_two_sweep_is_bit_invariant():
    report = sti_check(_model("ns-vorticity2d"), _ns_samples(), [2.0, 4.0],
                       solver_cfg=SolverConfig(steps=64))
    for entry in report.entries:
        assert entry.latent_residual == 0.0
        assert entry.output_scaling_residual == 0.0


def test_baseline_columns_populated():
    report = sti_check(_model("ns-vorticity2d"), _ns_samples(), [1.0, 2.0],
                       baseline=_model("ns-vorticity2d", use_dimnorm=False),
                       solver_cfg=SolverConfig(steps=64))
    for entry in report.entries:
        assert entry.baseline_single_shot is not None
        assert entry.baseline_rollout is not None  # both p values are integer


def test_report_serialization_and_table():
    report = sti_check(_model("ns-vorticity2d"), _ns_samples(), [1.0, 2.0],
                       solver_cfg=SolverConfig(steps=64))
    payload = json.loads(report.to_json())
    assert payload["system"] == "ns-vorticity2d"
    assert len(payload["entries"]) == 2
    table = report.format_table()
    assert "p=1" in table and "p=2" in table
    assert "latent residual" in table


def test_table_marks_a_rollout_it_has_no_value_for():
    # p = 0.5 has no integer rollout; the table once failed on its None
    report = sti_check(_model("ns-vorticity2d"), _ns_samples(), [0.5, 2.0],
                       baseline=_model("ns-vorticity2d", use_dimnorm=False),
                       solver_cfg=SolverConfig(steps=64))
    rows = {line[:22].strip(): line[22:].split() for line in report.format_table().splitlines()}
    assert rows["rel-L2 (1e-2)"] == ["p=0.5", "p=1", "p=2"]
    assert rows["baseline rollout"][0] == "-"
    assert [float(c) for c in rows["baseline rollout"][1:]] == pytest.approx(
        [100 * e.baseline_rollout for e in report.entries[1:]], abs=1e-3)


def test_table_never_runs_cells_together():
    # a value wider than its column once ran into the next cell
    report = sti.STIReport("burgers1d", 2, [
        sti.STIEntry(0.5, 1e-13, 2e-12, 5.2e6, baseline_single_shot=3.1e7),
        sti.STIEntry(1024.0, 1e300, 1e-300, 4.2e9, 1e10, 5.2e6)])
    lines = report.format_table().splitlines()
    assert [line[:22].strip() for line in lines] == [
        "rel-L2 (1e-2)", "model", "baseline single-shot", "baseline rollout",
        "latent residual", "output-scale residual"]
    assert [len(line[22:].split()) for line in lines] == [2] * 6
    assert lines[1][22:].split() == ["520000000.000", "420000000000.000"]


def test_system_mismatch_rejected():
    model = DimINOModel(ModelConfig(
        system="burgers1d", in_fields=["u"], target_fields=["u"], rank=1,
        width=6, depth=2, modes=4,
    ))
    with pytest.raises(SpecMismatch):
        sti_check(model, _ns_samples(), [1.0])


@pytest.mark.parametrize("gated", [True, False])
def test_baseline_of_another_system_rejected(gated, monkeypatch):
    # refused where the model's system is checked, before any solve
    baseline = DimINOModel(ModelConfig("advection1d", ["u"], ["u"], 1, width=6, depth=2,
                                       modes=4, use_dimnorm=gated))
    solves = []
    monkeypatch.setattr(sti, "solve_sample", lambda *args: solves.append(args))
    with pytest.raises(SpecMismatch, match="baseline is for 'advection1d', samples are "
                                           "'burgers1d'"):
        sti_check(_model("burgers1d"), random_batch("burgers1d", range(2)), [1.0],
                  baseline=baseline, solver_cfg=SolverConfig(steps=16))
    assert solves == []


def test_no_samples_rejected():
    with pytest.raises(ValueError, match="at least one sample"):
        sti_check(_model("ns-vorticity2d"), _ns_samples()[:0], [1.0, 2.0])


def test_duplicate_p_values_are_dropped():
    batch, model = _ns_samples(), _model("ns-vorticity2d")
    cfg = SolverConfig(steps=64)
    report = sti_check(model, batch, [2, 2.0, 1], solver_cfg=cfg)
    assert [e.p for e in report.entries] == [1.0, 2.0]
    assert report.to_json() == sti_check(model, batch, [2.0], solver_cfg=cfg).to_json()


@pytest.mark.parametrize("p_list, bad", [([0, 2], "0.0"), ([2, -1], "-1.0"),
                                         ([float("nan")], "nan"), ([2, float("inf")], "inf")])
def test_a_bad_p_is_refused_before_any_work(p_list, bad, monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("work started before the p list was checked")

    for target in (solvers, sti):
        monkeypatch.setattr(target, "solve_sample", no_work)
    monkeypatch.setattr(DimINOModel, "forward", no_work)
    with pytest.raises(ValueError, match=f"p must be finite and positive, got {bad}"):
        sti_check(_model("burgers1d"), random_batch("burgers1d", range(2)), p_list)


def _blowing_up_burgers():
    """Two burgers1d rows, the second so steep that 24 fixed steps blow up."""
    calm, steep = random_batch("burgers1d", range(2))
    steep.fields["u"] = 35.0 * steep.fields["u"]
    return Batch.stack([calm, steep]), SolverConfig(steps=24)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_a_non_finite_truth_row_raises():
    batch, cfg = _blowing_up_burgers()
    assert np.isfinite(solve_sample(batch[:1], cfg)["u"]).all()
    assert not np.isfinite(solve_sample(batch, cfg)["u"][1]).all()
    with pytest.raises(StepUnstable):
        sti_check(_model("burgers1d"), batch, [1.0], solver_cfg=cfg)
    with pytest.raises(StepUnstable):
        solver_sti_oracle(batch, 2.0, cfg)


def test_solver_oracle_taylor_green_p2():
    # Taylor-Green input: the solver itself must obey the similarity rule
    grid = Grid((32, 32), (1.0, 1.0))
    x = np.linspace(0, 1, 32, endpoint=False)
    X, Y = np.meshgrid(x, x, indexing="ij")
    sample = make_sample(
        "ns-vorticity2d", grid,
        {"omega": np.sin(2 * np.pi * X) * np.sin(2 * np.pi * Y),
         "f": np.zeros((32, 32))},
        {"nu": 0.01}, 1.0,
    )
    assert solver_sti_oracle(Batch.stack([sample]), 2.0, SolverConfig(steps=128)) == 0.0


def test_solver_oracle_generic_sample_p8():
    sample = _ns_samples(n=1, seed=3)
    assert solver_sti_oracle(sample, 8.0, SolverConfig(steps=64)) == 0.0


@settings(max_examples=25, deadline=None)
@given(system=st.sampled_from(sorted(sti.EXACT_SOLVER_SYMMETRY)),
       k=st.integers(-3, 3), seed=st.integers(0, 2**16),
       steps=st.sampled_from([None, 24]))
def test_solver_oracle_exact_for_power_of_two_p(system, k, seed, steps):
    """Both CFL and fixed step counts: the transformed solve is the rescaled
    original bit for bit."""
    sample = random_batch(system, [seed], t_final=0.25)
    cfg = SolverConfig(steps=steps) if steps else None
    assert solver_sti_oracle(sample, 2.0**k, cfg) == 0.0


def test_solver_oracle_diffreact_rule_is_not_a_symmetry():
    # the reaction u - u^3 - k - v has an implicit unit rate, so the rule is
    # not a symmetry of the PDE; this pins the known defect
    sample = random_batch("diffreact2d", t_final=0.5)
    assert solver_sti_oracle(sample, 2.0, SolverConfig(steps=50)) > 0.1


def test_solver_oracle_rejects_bad_p():
    with pytest.raises(ValueError):
        solver_sti_oracle(_ns_samples(n=1), 0.0)


def _per_p_solve_sti_check(model, samples, p_list, baseline, solver_cfg):
    """Reference sweep: a second forward and a fresh solver run for every p,
    a row-by-row baseline rollout, and every error scored one row at a time."""
    system = samples.system
    rule = dims.similarity_exponents(system)
    p_list = sorted(set(float(p) for p in p_list) | {1.0})
    report = sti.STIReport(system, len(samples))
    base = model.forward(samples)
    base_pred, base_star = base.output.data, base.u_star.data
    n = len(samples)

    def row_err(pred, ref):
        return rel_metric("rel-l2", pred[None], ref[None])[0]

    def mean_err(pred, names, truth):
        return float(np.mean([row_err(pred[i, ..., j], truth[name][i])
                              for i in range(n) for j, name in enumerate(names)]))

    for p in p_list:
        transformed = dims.similar_transform(samples, p)
        result = model.forward(transformed)
        pred, star = result.output.data, result.u_star.data
        ratios = np.array([p ** rule.get(name, 0) for name in model.config.target_fields])
        truth = solve_sample(transformed, solver_cfg)
        entry = sti.STIEntry(
            p=p,
            latent_residual=float(np.mean(
                [row_err(star[i], base_star[i]) for i in range(n)])),
            output_scaling_residual=float(np.mean(
                [row_err(pred[i], ratios * base_pred[i]) for i in range(n)])),
            model_rel_l2=mean_err(pred, model.config.target_fields, truth),
        )
        names = baseline.config.target_fields
        entry.baseline_single_shot = mean_err(baseline.predict(transformed), names, truth)
        if p.is_integer():
            current = [replace(s, t_final=s.t_final / int(p)) for s in transformed]
            for _ in range(int(p)):
                rolled = baseline.predict(Batch.stack(current))
                nxt = []
                for i, s in enumerate(current):
                    fields = dict(s.fields)
                    for j, name in enumerate(names):
                        fields[name] = rolled[i, ..., j]
                    nxt.append(replace(s, fields=fields))
                current = nxt
            entry.baseline_rollout = float(np.mean(
                [row_err(s.fields[name], truth[name][i])
                 for i, s in enumerate(current) for name in names]))
        report.entries.append(entry)
    return report


@pytest.mark.parametrize("system,p_list,solver_cfg,solves_per_sample,precision", [
    ("ns-vorticity2d", [0.5, 1, 2, 3, 4], None, 2, "f64"),
    ("burgers1d", [0.5, 1, 2, 3, 4], SolverConfig(steps=48), 2, "f64"),
    ("diffreact2d", [1, 2], None, 2, "f64"),
    ("ns-vorticity2d", [0.5, 1, 2, 3, 4], None, 2, "f32"),
    ("burgers1d", [0.5, 1, 2, 3, 4], SolverConfig(steps=48), 2, "f32"),
], ids=["ns-vorticity2d-p_list0-None-2", "burgers1d-p_list1-solver_cfg1-2",
        "diffreact2d-p_list2-None-2", "ns-vorticity2d-f32", "burgers1d-f32"])
def test_sti_check_matches_per_p_solve_reference(system, p_list, solver_cfg,
                                                 solves_per_sample, precision, monkeypatch):
    """Reusing the p = 1 solve (and forward) changes no bit of the report, and
    solves only p = 1 and the p that no exact rescaling covers.  A float32
    model's expected output scaling is taken in float64, as the reference's
    float64 ratios take it."""
    grid = Grid((32,), (1.0,)) if system == "burgers1d" else Grid((16, 16), (1.0, 1.0))
    samples = generate_dataset(system, None, 2, 5, grid, 0.5,
                               SolverConfig(steps=32)).split("train")
    model = _model(system, precision=precision)
    twin = _model(system, use_dimnorm=False, precision=precision)
    expected = _per_p_solve_sti_check(model, samples, p_list, twin, solver_cfg)

    calls = []

    def counting_solve(batch, cfg=None):
        calls.append(len(batch))
        return solve_sample(batch, cfg)

    monkeypatch.setattr(sti, "solve_sample", counting_solve)
    report = sti_check(model, samples, p_list, twin, solver_cfg)
    assert report.to_json() == expected.to_json()
    assert calls == [len(samples)] * solves_per_sample
