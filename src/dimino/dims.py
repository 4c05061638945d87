"""Dimensional-analysis core.

A dimension is an integer exponent vector over the base set (M, L, T), and
each system's SCALE_DIMS table is the only place one is stored: every runtime
value (a field scale, a constant, a prediction interval) is a plain float, or
a column of them, whose dimension follows from its system and name.  The
module also owns the per-system registries of dimensionless numbers, and it
works on whole ``data.Batch``es: characteristic-scale extraction gives one
(B,) column per name, ``compute_dimensionless`` one row of numbers per
sample, and the similarity transform used by the invariance harness scales
every column at once.  ``DimINOModel.prepare`` divides the fields by their
scales.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Dict, Mapping

import numpy as np

BASE_UNITS = ("M", "L", "T")

EPS_FLOOR = 1e-8

REGISTRY_VERSION = "1"


class DimensionError(Exception):
    """Base class for unit-algebra failures."""


class DimensionMismatch(DimensionError):
    pass


class MissingScale(DimensionError):
    pass


class NonDimensionlessMonomial(DimensionError):
    pass


class UnknownSystemRule(DimensionError):
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


DIMLESS = Dimension((0, 0, 0))


def dim(m=0, l=0, t=0) -> Dimension:
    return Dimension((m, l, t))


# A characteristic-scale table: name -> positive values (a (B,) column, one
# per row of a batch; a float in ``DimlessNumber.evaluate``), whose dimension
# is SCALE_DIMS[system][name].  Field names map to their max-abs magnitude,
# constants to their own magnitude, "x" to the domain extent, and "t" to the
# prediction interval.
CharacteristicScales = Dict[str, np.ndarray]


@dataclass(frozen=True)
class DimlessNumber:
    """One named monomial over characteristic-scale entries.

    Exponents are exact rationals so groups like w0*sqrt(L/f0) stay checkable.
    """

    name: str
    monomial: Mapping[str, Fraction]

    def evaluate(self, scales: CharacteristicScales) -> float:
        """Product of scale ** (n/d), as m ** (n/d) * 2**(j*n) for scale =
        m * 2**(d*j): a scale times 2**(d*k) moves it by exactly 2**(k*n),
        which ``pow`` alone misses for a few scales in ten thousand."""
        value = 1.0
        for scale_name, exp in self.monomial.items():
            if scale_name not in scales:
                raise MissingScale(f"{self.name}: no scale entry named {scale_name!r}")
            m, j = math.frexp(scales[scale_name])
            j, r = divmod(j, exp.denominator)
            value *= math.ldexp(math.ldexp(m, r) ** float(exp), j * exp.numerator)
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
    """The spec's dimensionless numbers of each row of ``scales``, as (B, m)
    in registry order.

    Each row is evaluated on Python floats by ``DimlessNumber.evaluate``,
    whose ``**`` is the C library's ``pow``; numpy's ``power`` need not
    round as it does.  Dimensional consistency was proved when the spec was
    built.
    """
    names = list(scales)
    rows = zip(*(np.asarray(scales[n], dtype=np.float64).tolist() for n in names))
    return np.array([[number.evaluate(dict(zip(names, row))) for number in spec.numbers]
                     for row in rows], dtype=np.float64).reshape(-1, len(spec))


def characteristic_scales_from_sample(batch) -> CharacteristicScales:
    """The characteristic scales of each row of a Batch, as (B,) columns.

    Fields map to their max-abs over the spatial domain, constants to their
    magnitudes (both floored at EPS_FLOOR, in float64), "x" to the domain
    extent, and "t" to the prediction interval.
    """
    scales: CharacteristicScales = {}
    for name, arr in batch.fields.items():
        peak = np.max(np.abs(arr), axis=tuple(range(1, arr.ndim)))
        scales[name] = np.maximum(peak, EPS_FLOOR, dtype=np.float64)
    for name, col in batch.constants.items():
        scales[name] = np.maximum(np.abs(col), EPS_FLOOR, dtype=np.float64)
    scales["x"] = np.full(len(batch), float(batch.grid.extent[0]))
    scales["t"] = np.asarray(batch.t_final, dtype=np.float64)
    return scales


def similar_transform(batch, p: float):
    """Rescale a Batch (or one Sample row) by the system's similarity rule.

    Dimensionless numbers of the result equal those of the original; for p a
    power of two the equality is bit-exact.
    """
    if not 0 < p < np.inf:
        raise ValueError(f"p must be finite and positive, got {p}")
    rule = similarity_exponents(batch.system)

    def scaled(values):
        return {name: v * p ** rule.get(name, 0) for name, v in values.items()}
    return replace(batch, fields=scaled(batch.fields), targets=scaled(batch.targets),
                   constants=scaled(batch.constants),
                   t_final=batch.t_final * p ** rule.get("t", 0))
