import ast
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from dimino import dims
from dimino.dims import Dimension, DimensionMismatch, UnknownSystemRule, dim

from hypothesis import given, settings, strategies as st

from conftest import make_sample, random_batch, random_sample, row_scales
from dimino.data import Batch, Grid
from dimino.model import DimINOModel, ModelConfig


# -- dimensions --------------------------------------------------------------

def test_dimension_rejects_wrong_length():
    assert dim(l=1, t=-1) == Dimension((0, 1, -1))
    with pytest.raises(DimensionMismatch):
        Dimension((1, 2))


def _dimension_uses(tree):
    """Line numbers where a module constructs a Dimension or reads .exponents."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name in ("Dimension", "dim"):
                yield node.lineno
        elif isinstance(node, ast.Attribute) and node.attr == "exponents":
            yield node.lineno


def test_only_dims_and_data_handle_dimensions():
    # a dimension is stored in SCALE_DIMS only; every runtime value is a float
    src = Path(dims.__file__).parent
    found = {path.name: sorted(set(_dimension_uses(ast.parse(path.read_text()))))
             for path in sorted(src.glob("*.py"))}
    assert found.pop("dims.py"), "the guard no longer sees SCALE_DIMS being built"
    assert found.pop("data.py"), "the guard no longer sees the manifest's dims"
    assert {name: lines for name, lines in found.items() if lines} == {}


# -- registry --------------------------------------------------------------

def test_registry_covers_all_systems():
    assert set(dims.REGISTRY) == {
        "advection1d", "burgers1d", "diffreact2d", "ns-vorticity2d"
    }


def test_registry_numbers_are_dimensionless():
    for system, spec in dims.REGISTRY.items():
        scale_dims = dims.SCALE_DIMS[system]
        for number in spec.numbers:
            comp = number.composite_dimension(scale_dims)
            assert all(c == 0 for c in comp), (system, number.name)


def test_spec_rejects_non_dimensionless_monomial():
    # burgers u*x carries [L2 T-1], so it cannot be a gate input
    bad = dims.DimlessNumber("u-times-x", {"u": Fraction(1), "x": Fraction(1)})
    with pytest.raises(dims.NonDimensionlessMonomial, match="u-times-x"):
        dims.DimlessSpec("burgers1d", (bad,))


def test_registry_table_is_versioned():
    table = dims.registry_table()
    assert table.startswith("# dimino dimensionless-number registry v")
    assert "froude" in table


def _one_row(scales):
    """A scale table of (1,) columns from one row of floats."""
    return {name: np.array([value]) for name, value in scales.items()}


def test_burgers_reynolds_value():
    scales = _one_row({"u": 1.0, "x": 1.0, "nu": 1e-3, "t": 1.0})
    c = dims.compute_dimensionless(dims.REGISTRY["burgers1d"], scales)
    assert c.shape == (1, 1) and c[0] == pytest.approx([1000.0])


def test_advection_number_value():
    scales = _one_row({"u": 1.0, "beta": 0.5, "x": 1.0, "t": 2.0})
    c = dims.compute_dimensionless(dims.REGISTRY["advection1d"], scales)
    assert c[0] == pytest.approx([1.0])


def test_ns_group_values():
    # omega=2, x=1, nu=0.01, t=1, f=4 -> Re=200, St=2, Fr=1
    scales = _one_row({"omega": 2.0, "x": 1.0, "nu": 0.01, "t": 1.0, "f": 4.0})
    c = dims.compute_dimensionless(dims.REGISTRY["ns-vorticity2d"], scales)
    assert c[0] == pytest.approx([200.0, 2.0, 1.0])


# -- characteristic scales and the nondim round trip -----------------------

def test_scales_chain_reynolds():
    grid = Grid((64,), (1.0,))
    u = np.zeros(64)
    u[5] = 0.64
    batch = Batch.stack([make_sample("burgers1d", grid, {"u": u}, {"nu": 0.01}, 1.0)])
    scales = dims.characteristic_scales_from_sample(batch)
    assert list(scales["u"]) == [0.64]
    c = dims.compute_dimensionless(dims.REGISTRY["burgers1d"], scales)
    assert c[0] == pytest.approx([64.0])


def test_scale_floor_on_tiny_fields():
    grid = Grid((64,), (1.0,))
    batch = Batch.stack([make_sample(
        "burgers1d", grid, {"u": np.full(64, 1e-30)}, {"nu": 1.0}, 1.0
    )])
    scales = dims.characteristic_scales_from_sample(batch)
    assert list(scales["u"]) == [dims.EPS_FLOOR]


def _prepared(samples):
    """The gated input stage of samples, with each one's scales."""
    s = samples[0]
    config = ModelConfig(s.system, list(s.fields), list(s.targets), s.grid.rank)
    return DimINOModel(config).prepare(Batch.stack(samples)), [row_scales(s) for s in samples]


def test_nondim_redim_round_trip():
    # prepare divides each field by its scale: every channel's max-abs is at
    # most 1, and multiplying by the scale column gives the fields back
    for system in dims.REGISTRY:
        samples = [random_sample(system, seed=7 + i, t_final=0.5 + i, with_targets=True)
                   for i in range(3)]
        inputs, scales = _prepared(samples)
        for i, (s, sc) in enumerate(zip(samples, scales)):
            for j, name in enumerate(s.fields):
                arr = inputs.x[i, ..., j]
                assert np.max(np.abs(arr)) <= 1.0 + 1e-12
                np.testing.assert_allclose(arr * sc[name], s.fields[name], rtol=1e-12)
            assert list(inputs.out_scales[i].ravel()) == [sc[n] for n in s.targets]
            cvec = [number.evaluate(sc) for number in dims.REGISTRY[system].numbers]
            assert list(inputs.log_c[i]) == list(np.log(cvec))


def test_nondim_constants_match_registry_order():
    sample = random_sample("ns-vorticity2d", seed=3, with_targets=True)
    inputs, (scales,) = _prepared([sample])
    spec = dims.REGISTRY["ns-vorticity2d"]
    assert spec.names == ["reynolds", "strouhal", "froude"]
    want = [np.log(number.evaluate(scales)) for number in spec.numbers]
    assert list(inputs.log_c[0]) == want


# -- similarity transforms -------------------------------------------------

@pytest.mark.parametrize("system", sorted(dims.REGISTRY))
@pytest.mark.parametrize("p", [0.5, 2.0, 8.0])
def test_similar_transform_preserves_groups(system, p):
    sample = random_batch(system, [11])
    spec = dims.REGISTRY[system]
    base = dims.compute_dimensionless(
        spec, dims.characteristic_scales_from_sample(sample)
    )
    moved = dims.compute_dimensionless(
        spec,
        dims.characteristic_scales_from_sample(dims.similar_transform(sample, p)),
    )
    np.testing.assert_allclose(moved, base, rtol=1e-12)


def test_similar_transform_power_of_two_bit_exact():
    sample = random_batch("ns-vorticity2d", [5])
    spec = dims.REGISTRY["ns-vorticity2d"]
    base = dims.compute_dimensionless(
        spec, dims.characteristic_scales_from_sample(sample)
    )
    for p in (0.5, 2.0, 4.0, 8.0):
        moved = dims.compute_dimensionless(
            spec,
            dims.characteristic_scales_from_sample(
                dims.similar_transform(sample, p)
            ),
        )
        assert np.array_equal(moved, base)


@pytest.mark.parametrize("system", sorted(dims.REGISTRY))
def test_dimensionless_numbers_are_bit_invariant_at_power_of_two_p(system):
    """Every group is bit-identical after the scales move by p = 2^k.  A
    plain ``scale ** -1.0`` breaks this for about one scale in five thousand,
    hence the many draws."""
    spec, rule = dims.REGISTRY[system], dims.similarity_exponents(system)
    draws = 10.0 ** np.random.default_rng(7).uniform(-4, 4, (2000, len(rule)))
    scales = dict(zip(rule, draws.T))
    base = dims.compute_dimensionless(spec, scales)
    for k in (-3, -1, 1, 2):
        moved = {n: s * 2.0 ** (k * rule[n]) for n, s in scales.items()}
        bad = np.flatnonzero((dims.compute_dimensionless(spec, moved) != base).any(axis=1))
        assert not len(bad), (draws[bad[:3]], k)


@pytest.mark.parametrize("system", sorted(dims.REGISTRY))
def test_dimensionless_columns_equal_the_scalar_evaluate_per_row(system):
    """compute_dimensionless of 2000 rows of columns is array_equal to each
    number's scalar ``evaluate`` of each row, on the sweep above."""
    spec, rule = dims.REGISTRY[system], dims.similarity_exponents(system)
    draws = 10.0 ** np.random.default_rng(7).uniform(-4, 4, (2000, len(rule)))
    want = [[number.evaluate(dict(zip(rule, row.tolist()))) for number in spec.numbers]
            for row in draws]
    assert np.array_equal(dims.compute_dimensionless(spec, dict(zip(rule, draws.T))), want)


def test_similar_transform_inverse_pair():
    sample = random_sample("burgers1d", seed=9)
    back = dims.similar_transform(dims.similar_transform(sample, 2.0), 0.5)
    np.testing.assert_array_equal(back.fields["u"], sample.fields["u"])
    assert back.t_final == sample.t_final
    assert back.constants["nu"] == sample.constants["nu"]


def test_similarity_exponents_are_time_exponents():
    # the rule table this derivation replaced, nonzero entries only
    rules = {
        "advection1d": {"beta": -1, "t": 1},
        "burgers1d": {"u": -1, "nu": -1, "t": 1},
        "diffreact2d": {"u": -1, "v": -1, "Du": -1, "Dv": -1, "k": -1, "t": 1},
        "ns-vorticity2d": {"omega": -1, "nu": -1, "f": -2, "t": 1},
    }
    for system, rule in rules.items():
        exps = dims.similarity_exponents(system)
        assert {name: e for name, e in exps.items() if e} == rule
    with pytest.raises(UnknownSystemRule):
        dims.similarity_exponents("made-up")


def test_similar_transform_rejects_unknown_system():
    sample = random_sample("burgers1d", seed=0)
    sample.system = "made-up"
    with pytest.raises(UnknownSystemRule):
        dims.similar_transform(sample, 2.0)
    with pytest.raises(ValueError):
        dims.similar_transform(random_sample("burgers1d"), -1.0)


# -- whole batches -----------------------------------------------------------

@st.composite
def batches(draw):
    """A Batch of 1-9 random rows of any system, with mixed t_final."""
    system = draw(st.sampled_from(sorted(dims.REGISTRY)))
    with_targets = draw(st.booleans(), label="targets")
    return Batch.stack([random_sample(system, seed=draw(st.integers(0, 2**16)),
                                      t_final=draw(st.floats(1e-3, 1e3)),
                                      with_targets=with_targets)
                        for _ in range(draw(st.integers(1, 9)))])


@given(batch=batches())
@settings(max_examples=40, deadline=None)
def test_batch_scales_equal_the_per_row_reference(batch):
    columns = dims.characteristic_scales_from_sample(batch)
    rows = [row_scales(row) for row in batch]
    assert set(columns) == set(rows[0])
    for name, column in columns.items():
        assert column.dtype == np.float64 and column.shape == (len(batch),)
        assert np.array_equal(column, [r[name] for r in rows]), name


@given(batch=batches(), k=st.integers(-3, 3))
@settings(max_examples=40, deadline=None)
def test_batch_transform_equals_the_per_row_transform(batch, k):
    moved = dims.similar_transform(batch, 2.0 ** k)
    for i, row in enumerate(batch):
        want, got = dims.similar_transform(row, 2.0 ** k), moved[i]
        assert got.t_final == want.t_final
        assert got.constants == want.constants
        for kind in ("fields", "targets"):
            assert list(getattr(got, kind)) == list(getattr(want, kind))
            for name, arr in getattr(want, kind).items():
                assert np.array_equal(getattr(got, kind)[name], arr), (kind, name)
