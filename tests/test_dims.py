from fractions import Fraction

import numpy as np
import pytest

from dimino import dims
from dimino.dims import (
    DIMLESS,
    Dimension,
    DimensionMismatch,
    DivisionByZero,
    NonIntegerPower,
    Quantity,
    UnknownSystemRule,
    dim,
)

from conftest import make_sample, random_sample
from dimino.data import Grid


# -- unit algebra ----------------------------------------------------------

def test_dimension_group_axioms():
    a, b, c = dim(l=1, t=-1), dim(m=1, l=-2), dim(t=3)
    assert (a * b) * c == a * (b * c)
    assert a * DIMLESS == a
    assert a * (DIMLESS / a) == DIMLESS
    assert a * b == b * a


def test_dimension_power_and_errors():
    v = dim(l=1, t=-1)
    assert v**3 == dim(l=3, t=-3)
    assert v**0 == DIMLESS
    with pytest.raises(NonIntegerPower):
        v ** 0.5
    with pytest.raises(DimensionMismatch):
        Dimension((1, 2))


def test_quantity_arithmetic():
    u = Quantity(3.0, dim(l=1, t=-1))
    x = Quantity(2.0, dim(l=1))
    assert (u * x).dim == dim(l=2, t=-1)
    assert (u / x).dim == dim(t=-1)
    assert (u + u).value == 6.0
    with pytest.raises(DimensionMismatch):
        u + x
    with pytest.raises(DivisionByZero):
        u / Quantity(0.0, dim(l=1))
    with pytest.raises(NonIntegerPower):
        u ** 1.5


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


def test_burgers_reynolds_value():
    scales = {
        "u": Quantity(1.0, dim(l=1, t=-1)),
        "x": Quantity(1.0, dim(l=1)),
        "nu": Quantity(1e-3, dim(l=2, t=-1)),
        "t": Quantity(1.0, dim(t=1)),
    }
    c = dims.compute_dimensionless(dims.REGISTRY["burgers1d"], scales)
    assert c == pytest.approx([1000.0])


def test_advection_number_value():
    scales = {
        "u": Quantity(1.0, DIMLESS),
        "beta": Quantity(0.5, dim(l=1, t=-1)),
        "x": Quantity(1.0, dim(l=1)),
        "t": Quantity(2.0, dim(t=1)),
    }
    c = dims.compute_dimensionless(dims.REGISTRY["advection1d"], scales)
    assert c == pytest.approx([1.0])


def test_ns_group_values():
    # omega=2, x=1, nu=0.01, t=1, f=4 -> Re=200, St=2, Fr=1
    scales = {
        "omega": Quantity(2.0, dim(t=-1)),
        "x": Quantity(1.0, dim(l=1)),
        "nu": Quantity(0.01, dim(l=2, t=-1)),
        "t": Quantity(1.0, dim(t=1)),
        "f": Quantity(4.0, dim(l=1, t=-2)),
    }
    c = dims.compute_dimensionless(dims.REGISTRY["ns-vorticity2d"], scales)
    assert c == pytest.approx([200.0, 2.0, 1.0])


# -- characteristic scales and the nondim round trip -----------------------

def test_scales_chain_reynolds():
    grid = Grid((64,), (1.0,))
    u = np.zeros(64)
    u[5] = 0.64
    sample = make_sample("burgers1d", grid, {"u": u}, {"nu": 0.01}, 1.0)
    scales = dims.characteristic_scales_from_sample(sample)
    assert scales["u"].value == 0.64
    c = dims.compute_dimensionless(dims.REGISTRY["burgers1d"], scales)
    assert c == pytest.approx([64.0])


def test_scale_floor_on_tiny_fields():
    grid = Grid((64,), (1.0,))
    sample = make_sample(
        "burgers1d", grid, {"u": np.full(64, 1e-30)}, {"nu": 1.0}, 1.0
    )
    scales = dims.characteristic_scales_from_sample(sample)
    assert scales["u"].value == dims.EPS_FLOOR


def test_nondim_redim_round_trip():
    for system in dims.REGISTRY:
        sample = random_sample(system, seed=7, with_targets=True)
        scales = dims.characteristic_scales_from_sample(sample)
        nd = dims.nondimensionalize(sample, scales)
        assert nd.t_final == 1.0
        for name, arr in nd.fields.items():
            assert np.max(np.abs(arr)) <= 1.0 + 1e-12
            back = arr * scales[name].value
            np.testing.assert_allclose(back, sample.fields[name], rtol=1e-12)
        for q in nd.constants.values():
            assert q.dim == DIMLESS


def test_nondim_constants_match_registry_order():
    sample = random_sample("ns-vorticity2d", seed=3)
    nd = dims.nondimensionalize(
        sample, dims.characteristic_scales_from_sample(sample)
    )
    assert list(nd.constants) == ["reynolds", "strouhal", "froude"]


def test_dataset_scales_take_max():
    a = random_sample("burgers1d", seed=1)
    b = random_sample("burgers1d", seed=2)
    shared = dims.dataset_scales([a, b])
    expect = max(np.max(np.abs(a.fields["u"])), np.max(np.abs(b.fields["u"])))
    assert shared["u"].value == expect


# -- similarity transforms -------------------------------------------------

@pytest.mark.parametrize("system", sorted(dims.REGISTRY))
@pytest.mark.parametrize("p", [0.5, 2.0, 8.0])
def test_similar_transform_preserves_groups(system, p):
    sample = random_sample(system, seed=11)
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
    sample = random_sample("ns-vorticity2d", seed=5)
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


def test_similar_transform_inverse_pair():
    sample = random_sample("burgers1d", seed=9)
    back = dims.similar_transform(dims.similar_transform(sample, 2.0), 0.5)
    np.testing.assert_array_equal(back.fields["u"], sample.fields["u"])
    assert back.t_final == sample.t_final
    assert back.constants["nu"].value == sample.constants["nu"].value


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
