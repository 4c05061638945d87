"""Dimensional-analysis core.

Units are tracked as integer exponent vectors over the base set (M, L, T).
The module also owns the per-system registries of dimensionless numbers,
characteristic-scale extraction, nondimensionalization and its inverse, and
the similarity-transform generator used by the invariance harness.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Dict, List, Mapping

import numpy as np

BASE_UNITS = ("M", "L", "T")

EPS_FLOOR = 1e-8

REGISTRY_VERSION = "1"


class DimensionError(Exception):
    """Base class for unit-algebra failures."""


class DimensionMismatch(DimensionError):
    pass


class NonIntegerPower(DimensionError):
    pass


class DivisionByZero(DimensionError):
    pass


class MissingScale(DimensionError):
    pass


class NonDimensionlessMonomial(DimensionError):
    pass


class UnknownSystemRule(DimensionError):
    pass


class EmptyField(DimensionError):
    pass


@dataclass(frozen=True)
class Dimension:
    """Exponent vector over (M, L, T)."""

    exponents: tuple

    def __post_init__(self):
        if len(self.exponents) != len(BASE_UNITS):
            raise DimensionMismatch(
                f"expected {len(BASE_UNITS)} exponents, got {len(self.exponents)}"
            )
        object.__setattr__(self, "exponents", tuple(self.exponents))

    def __mul__(self, other: "Dimension") -> "Dimension":
        return Dimension(tuple(a + b for a, b in zip(self.exponents, other.exponents)))

    def __truediv__(self, other: "Dimension") -> "Dimension":
        return Dimension(tuple(a - b for a, b in zip(self.exponents, other.exponents)))

    def __pow__(self, k: int) -> "Dimension":
        if not isinstance(k, int):
            raise NonIntegerPower(f"dimension power must be an integer, got {k!r}")
        return Dimension(tuple(a * k for a in self.exponents))

    @property
    def is_dimensionless(self) -> bool:
        return all(e == 0 for e in self.exponents)

    def __str__(self):
        parts = [f"{u}{e:+d}" for u, e in zip(BASE_UNITS, self.exponents) if e != 0]
        return "[" + " ".join(parts) + "]" if parts else "[1]"


DIMLESS = Dimension((0, 0, 0))


def dim(m=0, l=0, t=0) -> Dimension:
    return Dimension((m, l, t))


@dataclass(frozen=True)
class Quantity:
    """A finite scalar tagged with a Dimension."""

    value: float
    dim: Dimension = DIMLESS

    def __post_init__(self):
        if not np.isfinite(self.value):
            raise DimensionError(f"quantity value must be finite, got {self.value}")

    def __add__(self, other: "Quantity") -> "Quantity":
        if self.dim != other.dim:
            raise DimensionMismatch(f"cannot add {self.dim} and {other.dim}")
        return Quantity(self.value + other.value, self.dim)

    def __sub__(self, other: "Quantity") -> "Quantity":
        if self.dim != other.dim:
            raise DimensionMismatch(f"cannot subtract {other.dim} from {self.dim}")
        return Quantity(self.value - other.value, self.dim)

    def __mul__(self, other: "Quantity") -> "Quantity":
        return Quantity(self.value * other.value, self.dim * other.dim)

    def __truediv__(self, other: "Quantity") -> "Quantity":
        if other.value == 0:
            raise DivisionByZero("division by a zero-valued quantity")
        return Quantity(self.value / other.value, self.dim / other.dim)

    def __pow__(self, k: int) -> "Quantity":
        if not isinstance(k, int):
            raise NonIntegerPower(f"quantity power must be an integer, got {k!r}")
        return Quantity(self.value**k, self.dim**k)


# A characteristic-scale table: name -> positive Quantity.  Field names map to
# their max-abs magnitude, constants to their own magnitude, "x" to the domain
# extent, and "t" to the prediction interval.
CharacteristicScales = Dict[str, Quantity]


@dataclass(frozen=True)
class DimlessNumber:
    """One named monomial over characteristic-scale entries.

    Exponents are exact rationals so groups like w0*sqrt(L/f0) stay checkable.
    """

    name: str
    monomial: Mapping[str, Fraction]

    def evaluate(self, scales: CharacteristicScales) -> float:
        value = 1.0
        for scale_name, exp in self.monomial.items():
            if scale_name not in scales:
                raise MissingScale(f"{self.name}: no scale entry named {scale_name!r}")
            value *= scales[scale_name].value ** float(exp)
        return value

    def composite_dimension(self, dims: Mapping[str, Dimension]):
        """Exponent vector of the monomial, as exact Fractions."""
        total = [Fraction(0)] * len(BASE_UNITS)
        for scale_name, exp in self.monomial.items():
            d = dims[scale_name]
            for i, e in enumerate(d.exponents):
                total[i] += Fraction(exp) * e
        return total


@dataclass(frozen=True)
class DimlessSpec:
    """Ordered dimensionless-number definitions for one PDE system."""

    system: str
    numbers: tuple

    def __post_init__(self):
        scale_dims = SCALE_DIMS[self.system]
        for number in self.numbers:
            comp = number.composite_dimension(scale_dims)
            if any(c != 0 for c in comp):
                raise NonDimensionlessMonomial(
                    f"{self.system}/{number.name}: composite exponents {comp}"
                )

    @property
    def names(self):
        return [n.name for n in self.numbers]

    def __len__(self):
        return len(self.numbers)


def _fr(d: dict) -> dict:
    return {k: Fraction(v) for k, v in d.items()}


# Dimension assignments per system for everything a monomial can reference.
# Fields in the diffusion-reaction system are assigned velocity-like units so
# the groups u0*x0/Du and v0*x0/Dv come out dimensionless; the forcing scale in
# the vorticity system carries the acceleration units of the velocity-equation
# force, matching the Froude group w0*sqrt(L/f0).
SCALE_DIMS: Dict[str, Dict[str, Dimension]] = {
    "advection1d": {
        "u": DIMLESS,
        "beta": dim(l=1, t=-1),
        "x": dim(l=1),
        "t": dim(t=1),
    },
    "burgers1d": {
        "u": dim(l=1, t=-1),
        "nu": dim(l=2, t=-1),
        "x": dim(l=1),
        "t": dim(t=1),
    },
    "diffreact2d": {
        "u": dim(l=1, t=-1),
        "v": dim(l=1, t=-1),
        "Du": dim(l=2, t=-1),
        "Dv": dim(l=2, t=-1),
        "k": dim(l=1, t=-1),
        "x": dim(l=1),
        "t": dim(t=1),
    },
    "ns-vorticity2d": {
        "omega": dim(t=-1),
        "f": dim(l=1, t=-2),
        "nu": dim(l=2, t=-1),
        "x": dim(l=1),
        "t": dim(t=1),
    },
}

# Frozen registry ordering: gate channel assignment depends on it.
_REGISTRY_DEFS = {
    "advection1d": [("advection-number", {"beta": 1, "t": 1, "x": -1})],
    "burgers1d": [("reynolds", {"u": 1, "x": 1, "nu": -1})],
    "diffreact2d": [
        ("diffusivity-ratio", {"Du": 1, "Dv": -1}),
        ("u-transport", {"u": 1, "x": 1, "Du": -1}),
        ("v-transport", {"v": 1, "x": 1, "Dv": -1}),
    ],
    "ns-vorticity2d": [
        ("reynolds", {"omega": 1, "x": 2, "nu": -1}),
        ("strouhal", {"t": 1, "omega": 1}),
        ("froude", {"omega": 1, "x": Fraction(1, 2), "f": Fraction(-1, 2)}),
    ],
}

def similarity_exponents(system: str) -> Dict[str, int]:
    """Power of p that a similarity transform multiplies onto each named value.

    The transform rescales the unit of time by p, so each exponent is the time
    exponent of the name's dimension in SCALE_DIMS.  "t" scales the prediction
    interval; target fields follow their same-named input field.
    """
    scale_dims = SCALE_DIMS.get(system)
    if scale_dims is None:
        raise UnknownSystemRule(f"no similarity rule for system {system!r}")
    t_axis = BASE_UNITS.index("T")
    return {name: d.exponents[t_axis] for name, d in scale_dims.items()}


# Building a spec proves each of its monomials dimensionless, once.
REGISTRY: Dict[str, DimlessSpec] = {
    system: DimlessSpec(
        system, tuple(DimlessNumber(name, _fr(mono)) for name, mono in defs)
    )
    for system, defs in _REGISTRY_DEFS.items()
}


def registry_table() -> str:
    """Dump the dimensionless-number registry as a versioned text table."""
    lines = [f"# dimino dimensionless-number registry v{REGISTRY_VERSION}"]
    for system, spec in REGISTRY.items():
        for number in spec.numbers:
            terms = " ".join(f"{k}^{v}" for k, v in number.monomial.items())
            lines.append(f"{system}\t{number.name}\t{terms}")
    return "\n".join(lines) + "\n"


def compute_dimensionless(spec: DimlessSpec, scales: CharacteristicScales) -> np.ndarray:
    """Evaluate the spec's dimensionless numbers in registry order.

    Dimensional consistency was proved when the spec was built.
    """
    return np.array([number.evaluate(scales) for number in spec.numbers],
                    dtype=np.float64)


def characteristic_scales_from_sample(sample) -> CharacteristicScales:
    """Extract per-sample characteristic scales.

    Fields map to their max-abs over the spatial domain (floored at EPS_FLOOR),
    constants to their own floored magnitudes, "x" to the domain extent, and
    "t" to the prediction interval.
    """
    dims = SCALE_DIMS[sample.system]
    scales: CharacteristicScales = {}
    for name, arr in sample.fields.items():
        if arr.size == 0:
            raise EmptyField(f"field {name!r} is empty")
        scales[name] = Quantity(
            max(float(np.max(np.abs(arr))), EPS_FLOOR), sample.field_dims[name]
        )
    for name, q in sample.constants.items():
        scales[name] = Quantity(max(abs(q.value), EPS_FLOOR), q.dim)
    scales["x"] = Quantity(float(sample.grid.extent[0]), dims["x"])
    scales["t"] = Quantity(float(sample.t_final), dims["t"])
    return scales


def dataset_scales(samples) -> CharacteristicScales:
    """Shared field scales for a collection of samples (max over the set).

    Constants stay per-sample; only field entries are returned here.
    """
    scales: CharacteristicScales = {}
    for sample in samples:
        for name, arr in sample.fields.items():
            m = max(float(np.max(np.abs(arr))), EPS_FLOOR)
            prev = scales.get(name)
            if prev is None or m > prev.value:
                scales[name] = Quantity(m, sample.field_dims[name])
    return scales


def nondimensionalize(sample, scales: CharacteristicScales):
    """Divide fields by their scales; replace constants with the c-vector."""
    spec = REGISTRY[sample.system]
    fields = {}
    for name, arr in sample.fields.items():
        if name not in scales:
            raise MissingScale(f"no scale for field {name!r}")
        fields[name] = arr / scales[name].value
    targets = {
        name: arr / scales[name].value for name, arr in sample.targets.items()
    }
    cvec = compute_dimensionless(spec, scales)
    constants = {
        number.name: Quantity(float(c), DIMLESS)
        for number, c in zip(spec.numbers, cvec)
    }
    return replace(
        sample,
        fields=fields,
        targets=targets,
        constants=constants,
        field_dims={name: DIMLESS for name in sample.field_dims},
        t_final=sample.t_final / scales["t"].value,
    )


def similar_transform(sample, p: float):
    """Rescale a sample by the system's similarity rule.

    Dimensionless numbers of the result equal those of the original; for p a
    power of two the equality is bit-exact.
    """
    if p <= 0:
        raise ValueError(f"p must be positive, got {p}")
    rule = similarity_exponents(sample.system)
    fields = {
        name: arr * p ** rule.get(name, 0) for name, arr in sample.fields.items()
    }
    targets = {
        name: arr * p ** rule.get(name, 0) for name, arr in sample.targets.items()
    }
    constants = {
        name: Quantity(q.value * p ** rule.get(name, 0), q.dim)
        for name, q in sample.constants.items()
    }
    return replace(
        sample,
        fields=fields,
        targets=targets,
        constants=constants,
        t_final=sample.t_final * p ** rule.get("t", 0),
    )
