"""Dataset containers and on-disk format.

A dataset is a directory with ``manifest.json`` plus one binary blob per
split.  Blob layout: 8-byte magic ``DIMINO01``, u32 sample count, u32 rank,
per-axis u32 sizes, u32 item size (4 or 8 bytes), then the records listed in
the manifest, concatenated in order as row-major little-endian floats.
"""
from __future__ import annotations

import hashlib
import json
import struct
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List

import numpy as np

from .dims import DIMLESS, Dimension, Quantity, SCALE_DIMS

BLOB_MAGIC = b"DIMINO01"


class DatasetFormatError(Exception):
    pass


@dataclass(frozen=True)
class Grid:
    """Uniform periodic grid, 1D or 2D, power-of-two points per axis."""

    points: tuple
    extent: tuple

    def __post_init__(self):
        object.__setattr__(self, "points", tuple(int(n) for n in self.points))
        object.__setattr__(self, "extent", tuple(float(e) for e in self.extent))
        for n in self.points:
            if n < 2 or n & (n - 1):
                raise ValueError(f"points per axis must be a power of two, got {n}")
        for e in self.extent:
            if e <= 0:
                raise ValueError(f"extent must be positive, got {e}")

    @property
    def rank(self) -> int:
        return len(self.points)

    @property
    def shape(self) -> tuple:
        return self.points

    def axes(self):
        """Cell coordinates per axis, periodic convention (endpoint excluded)."""
        return [
            np.linspace(0.0, ext, n, endpoint=False)
            for n, ext in zip(self.points, self.extent)
        ]


@dataclass
class Sample:
    """Input fields + constants + prediction interval + target fields."""

    system: str
    grid: Grid
    fields: Dict[str, np.ndarray]
    constants: Dict[str, Quantity]
    t_final: float
    targets: Dict[str, np.ndarray] = field(default_factory=dict)
    field_dims: Dict[str, Dimension] = None

    def __post_init__(self):
        if self.field_dims is None:
            dims = SCALE_DIMS.get(self.system, {})
            self.field_dims = {
                name: dims.get(name, DIMLESS)
                for name in list(self.fields) + list(self.targets)
            }
        if self.t_final <= 0:
            raise ValueError(f"t_final must be positive, got {self.t_final}")
        for name, arr in {**self.fields, **self.targets}.items():
            if arr.shape != self.grid.shape:
                raise ValueError(
                    f"field {name!r} shape {arr.shape} != grid shape {self.grid.shape}"
                )


@dataclass
class Dataset:
    system: str
    grid: Grid
    splits: Dict[str, List[Sample]]
    meta: dict = field(default_factory=dict)

    def split(self, name: str) -> List[Sample]:
        if name not in self.splits:
            raise KeyError(f"no split {name!r} (have {sorted(self.splits)})")
        return self.splits[name]


def _record_order(sample: Sample):
    records = [("field", name) for name in sample.fields]
    records += [("constant", name) for name in sample.constants]
    records.append(("time", "t_final"))
    records += [("target", name) for name in sample.targets]
    return records


def _write_blob(path: Path, samples: List[Sample], records, dtype) -> None:
    grid = samples[0].grid
    itemsize = np.dtype(dtype).itemsize
    with open(path, "wb") as fh:
        fh.write(BLOB_MAGIC)
        fh.write(struct.pack("<II", len(samples), grid.rank))
        fh.write(struct.pack(f"<{grid.rank}I", *grid.points))
        fh.write(struct.pack("<I", itemsize))
        for kind, name in records:
            if kind in ("field", "target"):
                attr = "fields" if kind == "field" else "targets"
                block = np.stack([getattr(s, attr)[name] for s in samples])
            elif kind == "constant":
                block = np.array([s.constants[name].value for s in samples])
            else:
                block = np.array([s.t_final for s in samples])
            fh.write(np.ascontiguousarray(block, dtype=dtype).tobytes())


def save_dataset(dataset: Dataset, directory, dtype="float64") -> Path:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    first = next(s for split in dataset.splits.values() for s in split)
    records = _record_order(first)
    manifest = {
        "format": "dimino-dataset-v1",
        "system": dataset.system,
        "grid": {
            "points": list(dataset.grid.points),
            "extent": list(dataset.grid.extent),
        },
        "dtype": dtype,
        "records": [{"kind": k, "name": n} for k, n in records],
        "field_dims": {
            name: list(d.exponents) for name, d in first.field_dims.items()
        },
        "constant_dims": {
            name: list(q.dim.exponents) for name, q in first.constants.items()
        },
        "dimless_spec": dataset.system,
        "splits": {name: len(split) for name, split in dataset.splits.items()},
        **dataset.meta,
    }
    with open(directory / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    for name, split in dataset.splits.items():
        _write_blob(directory / f"{name}.bin", split, records, dtype)
    return directory


def load_dataset(directory) -> Dataset:
    directory = Path(directory)
    with open(directory / "manifest.json") as fh:
        manifest = json.load(fh)
    if manifest.get("format") != "dimino-dataset-v1":
        raise DatasetFormatError(f"unknown manifest format in {directory}")
    grid = Grid(
        tuple(manifest["grid"]["points"]), tuple(manifest["grid"]["extent"])
    )
    dtype = np.dtype(manifest["dtype"])
    records = [(r["kind"], r["name"]) for r in manifest["records"]]
    field_dims = {
        name: Dimension(tuple(e)) for name, e in manifest["field_dims"].items()
    }
    constant_dims = {
        name: Dimension(tuple(e)) for name, e in manifest["constant_dims"].items()
    }
    splits = {}
    for split_name in manifest["splits"]:
        splits[split_name] = _read_blob(
            directory / f"{split_name}.bin",
            manifest["system"],
            grid,
            records,
            dtype,
            field_dims,
            constant_dims,
        )
    meta = {
        k: v
        for k, v in manifest.items()
        if k
        not in (
            "format",
            "system",
            "grid",
            "dtype",
            "records",
            "field_dims",
            "constant_dims",
            "dimless_spec",
            "splits",
        )
    }
    return Dataset(manifest["system"], grid, splits, meta)


def _read_blob(path, system, grid, records, dtype, field_dims, constant_dims):
    with open(path, "rb") as fh:
        magic = fh.read(8)
        if magic != BLOB_MAGIC:
            raise DatasetFormatError(f"{path}: bad magic {magic!r}")
        count, rank = struct.unpack("<II", fh.read(8))
        points = struct.unpack(f"<{rank}I", fh.read(4 * rank))
        if points != grid.points:
            raise DatasetFormatError(f"{path}: grid mismatch {points}")
        (itemsize,) = struct.unpack("<I", fh.read(4))
        if itemsize != np.dtype(dtype).itemsize:
            raise DatasetFormatError(f"{path}: item size mismatch")
        per_sample = {"field": {}, "target": {}, "constant": {}, "time": None}
        for kind, name in records:
            if kind in ("field", "target"):
                n = count * int(np.prod(points))
                block = np.frombuffer(fh.read(n * itemsize), dtype=dtype)
                per_sample[kind][name] = block.reshape(count, *points)
            else:
                block = np.frombuffer(fh.read(count * itemsize), dtype=dtype)
                if kind == "constant":
                    per_sample["constant"][name] = block
                else:
                    per_sample["time"] = block
    samples = []
    for i in range(count):
        samples.append(
            Sample(
                system=system,
                grid=grid,
                fields={
                    n: np.array(b[i], dtype=np.float64)
                    for n, b in per_sample["field"].items()
                },
                constants={
                    n: Quantity(float(b[i]), constant_dims[n])
                    for n, b in per_sample["constant"].items()
                },
                t_final=float(per_sample["time"][i]),
                targets={
                    n: np.array(b[i], dtype=np.float64)
                    for n, b in per_sample["target"].items()
                },
                field_dims=dict(field_dims),
            )
        )
    return samples


def dataset_hash(directory) -> str:
    """Content hash over the manifest and all blobs, for determinism checks."""
    directory = Path(directory)
    h = hashlib.blake2b(digest_size=16)
    for path in sorted(directory.iterdir()):
        if path.name == "manifest.json" or path.suffix == ".bin":
            h.update(path.name.encode())
            h.update(path.read_bytes())
    return h.hexdigest()
