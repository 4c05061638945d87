"""Dataset containers and dimino's one sealed binary container.

Every binary file dimino writes, a dataset blob or a model checkpoint, is a
sealed container (``write_sealed`` / ``read_sealed``): an 8-byte magic, u32
version, u32-length JSON header, then one record per named array (u16 name
length, name, u8 dtype code, u8 ndim, u32 per axis, row-major little-endian
bytes), then an 8-byte blake2b digest of everything before it.

A dataset is a directory with ``manifest.json`` plus one blob per split.  A
blob (magic ``DINODATA``, version 3) holds one array per manifest record, in
manifest order and the manifest's dtype, named ``kind/name``: fields and
targets as (count, *grid), constants and ``t_final`` as (count,).  Its header
``{"manifest_blake2b": ...}`` seals the manifest's exact bytes, so an edited
manifest (a grid extent, a constant's dimensions, a meta value) does not load.
"""
from __future__ import annotations

import hashlib
import json
import math
import struct
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Tuple

import numpy as np

from .dims import SCALE_DIMS

FORMAT = "dimino-dataset-v3"
BLOB_MAGIC = b"DINODATA"
BLOB_VERSION = 3


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


@dataclass
class Sample:
    """Input fields + constants + prediction interval + target fields."""

    system: str
    grid: Grid
    fields: Dict[str, np.ndarray]
    constants: Dict[str, float]
    t_final: float
    targets: Dict[str, np.ndarray] = field(default_factory=dict)

    def __post_init__(self):
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


_DTYPES = ("float64", "float32", "complex128", "complex64")  # index = dtype code


def write_sealed(path, magic: bytes, version: int, header: dict, arrays) -> None:
    """Write a sealed container of the (name, array) pairs ``arrays`` yields,
    streaming each record to the file and the digest as it comes."""
    digest = hashlib.blake2b(digest_size=8)
    with open(path, "wb") as fh:
        def put(*chunks):
            for chunk in chunks:
                digest.update(chunk)
                fh.write(chunk)
        head = json.dumps(header, sort_keys=True).encode()
        put(magic, struct.pack("<II", version, len(head)), head)
        for name, arr in arrays:
            arr, nb = np.ascontiguousarray(arr), name.encode()
            put(struct.pack("<H", len(nb)), nb, struct.pack(
                f"<BB{arr.ndim}I", _DTYPES.index(arr.dtype.name), arr.ndim, *arr.shape), arr)
        fh.write(digest.digest())


def read_sealed(path, magic: bytes, version: int, error) -> Tuple[dict, Dict[str, np.ndarray]]:
    """Header and named arrays of a sealed container.  A wrong magic, digest
    or version, or a malformed header or record, raises ``error``."""
    raw = Path(path).read_bytes()
    if len(raw) < len(magic) + 16 or raw[:len(magic)] != magic:
        raise error(f"{path}: bad or truncated magic")
    body = raw[:-8]
    if hashlib.blake2b(body, digest_size=8).digest() != raw[-8:]:
        raise error(f"{path}: content hash mismatch")
    found, head_len = struct.unpack_from("<II", body, len(magic))
    if found != version:
        raise error(f"{path}: format version {found}, expected {version}")
    off = len(magic) + 8 + head_len
    arrays = {}
    try:
        header = json.loads(body[off - head_len:off])
        while off < len(body):
            (nlen,) = struct.unpack_from("<H", body, off)
            name = body[off + 2:off + 2 + nlen].decode()
            code, ndim = struct.unpack_from("<BB", body, off + 2 + nlen)
            shape = struct.unpack_from(f"<{ndim}I", body, off + 4 + nlen)
            off += 4 + nlen + 4 * ndim
            dtype, count = np.dtype(_DTYPES[code]), math.prod(shape)
            if name in arrays:
                raise ValueError(f"array {name!r} repeats")
            arrays[name] = np.frombuffer(body, dtype, count, off).reshape(shape).copy()
            off += count * dtype.itemsize
    except (struct.error, IndexError, ValueError) as exc:
        raise error(f"{path}: malformed container: {exc}") from exc
    return header, arrays


def _manifest_digest(raw: bytes) -> str:
    return hashlib.blake2b(raw, digest_size=16).hexdigest()


def _write_blob(path: Path, samples: List[Sample], records, shape, dtype, seal: str) -> None:
    def blocks():
        for kind, name in records:
            # a sample's fields, targets and constants sit in its attribute kind + "s"
            values = [s.t_final if kind == "time" else getattr(s, kind + "s")[name]
                      for s in samples]
            rows = shape if kind in ("field", "target") else ()
            yield f"{kind}/{name}", np.array(values, dtype).reshape(len(samples), *rows)
    write_sealed(path, BLOB_MAGIC, BLOB_VERSION, {"manifest_blake2b": seal}, blocks())


def _manifest_dims(system: str, records) -> dict:
    """The manifest's ``field_dims`` and ``constant_dims``, read off SCALE_DIMS."""
    table = SCALE_DIMS[system]
    dims = {"field_dims": {}, "constant_dims": {}}
    for kind, name in records:
        if kind != "time":
            key = "constant_dims" if kind == "constant" else "field_dims"
            dims[key][name] = list(table[name].exponents)
    return dims


def save_dataset(dataset: Dataset, directory, dtype="float64") -> Path:
    first = next((s for split in dataset.splits.values() for s in split), None)
    if first is None:
        raise ValueError("dataset has no samples")
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    records = _record_order(first)
    manifest = {
        "format": FORMAT,
        "system": dataset.system,
        "grid": {
            "points": list(dataset.grid.points),
            "extent": list(dataset.grid.extent),
        },
        "dtype": dtype,
        "records": [{"kind": k, "name": n} for k, n in records],
        **_manifest_dims(dataset.system, records),
        "dimless_spec": dataset.system,
        "splits": {name: len(split) for name, split in dataset.splits.items()},
        **dataset.meta,
    }
    raw = (json.dumps(manifest, indent=2, sort_keys=True) + "\n").encode()
    (directory / "manifest.json").write_bytes(raw)
    for name, split in dataset.splits.items():
        _write_blob(directory / f"{name}.bin", split, records, dataset.grid.shape, dtype,
                    _manifest_digest(raw))
    return directory


# Every key save_dataset writes besides the meta block; all are required.
_MANIFEST_KEYS = ("format", "system", "grid", "dtype", "records", "field_dims",
                  "constant_dims", "dimless_spec", "splits")


def load_dataset(directory) -> Dataset:
    """Read a dataset; a malformed manifest or blob, or a blob sealed for
    other manifest bytes, raises DatasetFormatError."""
    directory = Path(directory)
    raw = (directory / "manifest.json").read_bytes()
    try:
        manifest = json.loads(raw)
    except ValueError as exc:
        raise DatasetFormatError(f"{directory}: manifest is not JSON: {exc}") from exc
    if not isinstance(manifest, dict) or manifest.get("format") != FORMAT:
        raise DatasetFormatError(f"{directory}: manifest format is not {FORMAT}")
    missing = [k for k in _MANIFEST_KEYS if k not in manifest]
    if missing:
        raise DatasetFormatError(f"{directory}: manifest lacks {missing}")
    try:
        grid = Grid(
            tuple(manifest["grid"]["points"]), tuple(manifest["grid"]["extent"])
        )
        dtype = np.dtype(manifest["dtype"])
        records = [(r["kind"], r["name"]) for r in manifest["records"]]
        if sorted(k for k, _ in records if k not in ("field", "target", "constant")) != ["time"]:
            raise ValueError(f"records need known kinds and one time entry: {records}")
        counts = {name: int(n) for name, n in manifest["splits"].items()}
        _check_dims(directory, manifest, records)
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise DatasetFormatError(f"{directory}: malformed manifest: {exc!r}") from exc
    splits = {
        name: _read_blob(directory / f"{name}.bin", manifest["system"], grid, records,
                         dtype, count, _manifest_digest(raw))
        for name, count in counts.items()
    }
    meta = {k: v for k, v in manifest.items() if k not in _MANIFEST_KEYS}
    return Dataset(manifest["system"], grid, splits, meta)


def _check_dims(directory, manifest, records) -> None:
    """The manifest's system, record names and dims must match SCALE_DIMS."""
    system = manifest["system"]
    if system not in SCALE_DIMS:
        raise DatasetFormatError(f"{directory}: unknown system {system!r}")
    known = set(SCALE_DIMS[system]) - {"x", "t"}
    unknown = [name for kind, name in records if kind != "time" and name not in known]
    if unknown:
        raise DatasetFormatError(f"{directory}: {system} has no field or constant {unknown}")
    for key, want in _manifest_dims(system, records).items():
        if manifest[key] != want:
            raise DatasetFormatError(
                f"{directory}: {key} {manifest[key]} differ from {system}'s {want}")


def _read_blob(path, system, grid, records, dtype, count, seal):
    """A split's samples.  Disagreements with the manifest are reported as
    such; a blob that agrees but was sealed for other manifest bytes raises
    last."""
    header, arrays = read_sealed(path, BLOB_MAGIC, BLOB_VERSION, DatasetFormatError)
    names = [f"{kind}/{name}" for kind, name in records]
    if list(header) != ["manifest_blake2b"] or list(arrays) != names:
        raise DatasetFormatError(f"{path}: header {header} and arrays {list(arrays)}, "
                                 f"expected keys ['manifest_blake2b'] and {names}")
    blocks = {"field": {}, "target": {}, "constant": {}, "time": {}}
    for (kind, name), key in zip(records, names):
        arr, rows = arrays[key], grid.shape if kind in ("field", "target") else ()
        if arr.dtype != dtype or arr.ndim != 1 + len(rows) or arr.shape[1:] != rows:
            raise DatasetFormatError(
                f"{path}: {key} is {arr.dtype} {arr.shape}, expected {dtype} (n, *{rows})")
        if len(arr) != count:
            raise DatasetFormatError(f"{path}: {len(arr)} samples, manifest says {count}")
        blocks[kind][name] = arr.astype(np.float64, copy=False)
    (times,) = blocks["time"].values()
    for kind in ("field", "target", "constant"):
        if not all(np.isfinite(b).all() for b in blocks[kind].values()):
            raise DatasetFormatError(f"{path}: a {kind} is not finite")
    if not (np.isfinite(times) & (times > 0)).all():
        raise DatasetFormatError(f"{path}: t_final must be finite and positive")
    if header["manifest_blake2b"] != seal:
        raise DatasetFormatError(f"{path}: sealed for another manifest.json (sealed "
                                 f"blake2b {header['manifest_blake2b']}, manifest's {seal})")
    return [
        Sample(
            system=system,
            grid=grid,
            fields={n: b[i] for n, b in blocks["field"].items()},
            constants={n: float(b[i]) for n, b in blocks["constant"].items()},
            t_final=float(times[i]),
            targets={n: b[i] for n, b in blocks["target"].items()},
        )
        for i in range(count)
    ]


def dataset_hash(directory) -> str:
    """Content hash over the manifest and all blobs, for determinism checks."""
    directory = Path(directory)
    h = hashlib.blake2b(digest_size=16)
    for path in sorted(directory.iterdir()):
        if path.name == "manifest.json" or path.suffix == ".bin":
            h.update(path.name.encode())
            h.update(path.read_bytes())
    return h.hexdigest()
