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
In memory each split is a ``Batch`` of the same columns, so a blob is read
and written without a loop over samples.
"""
from __future__ import annotations

import hashlib
import json
import math
import struct
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Tuple

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
    """One row of a Batch: input fields + constants + prediction interval +
    target fields.  ``batch[i]`` is a row whose arrays are views; rows made
    elsewhere are checked when ``Batch.stack`` makes them columns."""

    system: str
    grid: Grid
    fields: Dict[str, np.ndarray]
    constants: Dict[str, float]
    t_final: float
    targets: Dict[str, np.ndarray] = field(default_factory=dict)


def _take(columns: Dict[str, np.ndarray], idx) -> Dict[str, np.ndarray]:
    return {name: col[idx] for name, col in columns.items()}


@dataclass
class Batch:
    """B samples of one system on one grid, as columns: fields and targets
    (B, *grid), constants and ``t_final`` (B,).

    ``len`` counts the rows, iteration yields them, ``batch[i]`` is row i as
    a Sample and ``batch[slice or index array]`` is a Batch of those rows.
    """

    system: str
    grid: Grid
    fields: Dict[str, np.ndarray]
    constants: Dict[str, np.ndarray]
    t_final: np.ndarray
    targets: Dict[str, np.ndarray] = field(default_factory=dict)

    def __post_init__(self):
        rows = (len(self),)
        for name, arr in {**self.fields, **self.targets}.items():
            if arr.shape != rows + self.grid.shape:
                raise ValueError(f"field {name!r} shape {arr.shape} != "
                                 f"(rows, *grid) {rows + self.grid.shape}")
        for name, col in self.constants.items():
            if col.shape != rows:
                raise ValueError(f"constant {name!r} shape {col.shape} != {rows}")
        if not np.all(self.t_final > 0):
            raise ValueError(f"t_final must be positive, got {self.t_final}")

    def __len__(self) -> int:
        return len(self.t_final)

    def __iter__(self):
        return (self[i] for i in range(len(self)))

    def __getitem__(self, idx):
        kind = Sample if isinstance(idx, (int, np.integer)) else Batch
        return kind(self.system, self.grid, _take(self.fields, idx),
                    _take(self.constants, idx), self.t_final[idx], _take(self.targets, idx))

    @classmethod
    def stack(cls, rows) -> "Batch":
        """Rows of one system, grid and set of names as one Batch: the one
        place rows become columns."""
        def layout(r):
            return r.system, r.grid, list(r.fields), list(r.constants), list(r.targets)
        if any(layout(r) != layout(rows[0]) for r in rows):
            raise ValueError("a Batch holds rows of one system, grid and set of names")
        first = rows[0]

        def column(kind):
            return {n: np.stack([getattr(r, kind)[n] for r in rows])
                    for n in getattr(first, kind)}
        return cls(first.system, first.grid, column("fields"), column("constants"),
                   np.array([r.t_final for r in rows], dtype=np.float64), column("targets"))


@dataclass
class Dataset:
    system: str
    grid: Grid
    splits: Dict[str, Batch]
    meta: dict = field(default_factory=dict)

    def split(self, name: str) -> Batch:
        if name not in self.splits:
            raise KeyError(f"no split {name!r} (have {sorted(self.splits)})")
        return self.splits[name]


_DTYPES = ("float64", "float32", "complex128", "complex64")  # index = dtype code
WRITABLE_DTYPES = ("float32", "float64")  # the dtypes a dataset is written and read in


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


def _columns(batch: Batch, records, dtype) -> list:
    """The batch's columns in record order, cast to the written ``dtype``."""
    # a batch's fields, targets and constants sit in its attribute kind + "s"
    return [np.asarray(batch.t_final if kind == "time" else getattr(batch, kind + "s")[name],
                       dtype) for kind, name in records]


def _check_values(path, records, columns) -> None:
    """Refuse a split whose field, target or constant is not finite, or whose
    t_final is not finite and positive: the one check of a blob's values, on
    save (after the cast to the written dtype) and on load."""
    for kind in ("field", "target", "constant"):
        if not all(np.isfinite(c).all() for (k, _), c in zip(records, columns) if k == kind):
            raise DatasetFormatError(f"{path}: a {kind} is not finite")
    (times,) = (c for (k, _), c in zip(records, columns) if k == "time")
    if not (np.isfinite(times) & (times > 0)).all():
        raise DatasetFormatError(f"{path}: t_final must be finite and positive")


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
    """Write ``dataset`` to ``directory``.  A ``dtype`` outside
    ``WRITABLE_DTYPES`` raises ValueError; a split whose system, grid or
    names differ from the dataset's, or that ``load_dataset`` would refuse
    for its values (checked after the cast to ``dtype``), raises
    DatasetFormatError.  Both are raised before any file is written."""
    if dtype not in WRITABLE_DTYPES:
        raise ValueError(f"dtype must be one of {WRITABLE_DTYPES}, got {dtype!r}")
    first = next((split for split in dataset.splits.values() if len(split)), None)
    if first is None:
        raise ValueError("dataset has no samples")

    def layout(batch):
        """A split's system, grid, and field, constant and target names."""
        return batch.system, batch.grid, *(sorted(getattr(batch, kind))
                                           for kind in ("fields", "constants", "targets"))
    want = (dataset.system, dataset.grid, *layout(first)[2:])
    for name, split in dataset.splits.items():
        if layout(split) != want:
            raise DatasetFormatError(f"split {name!r} is {layout(split)}, "
                                     f"not the dataset's {want}")
    directory = Path(directory)
    records = [*(("field", n) for n in first.fields),
               *(("constant", n) for n in first.constants), ("time", "t_final"),
               *(("target", n) for n in first.targets)]
    columns = {name: _columns(split, records, dtype) for name, split in dataset.splits.items()}
    for name, cols in columns.items():
        _check_values(directory / f"{name}.bin", records, cols)
    directory.mkdir(parents=True, exist_ok=True)
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
    names = [f"{kind}/{name}" for kind, name in records]
    for name, cols in columns.items():
        write_sealed(directory / f"{name}.bin", BLOB_MAGIC, BLOB_VERSION,
                     {"manifest_blake2b": _manifest_digest(raw)}, zip(names, cols))
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
        if manifest["dtype"] not in WRITABLE_DTYPES:
            raise ValueError(f"dtype {manifest['dtype']!r} is not one of {WRITABLE_DTYPES}")
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
    """A split's Batch.  Disagreements with the manifest are reported as
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
    _check_values(path, records, [blocks[kind][name] for kind, name in records])
    (times,) = blocks["time"].values()
    if header["manifest_blake2b"] != seal:
        raise DatasetFormatError(f"{path}: sealed for another manifest.json (sealed "
                                 f"blake2b {header['manifest_blake2b']}, manifest's {seal})")
    return Batch(system, grid, blocks["field"], blocks["constant"], times, blocks["target"])


def dataset_hash(directory) -> str:
    """Content hash over the manifest and all blobs, for determinism checks."""
    directory = Path(directory)
    h = hashlib.blake2b(digest_size=16)
    for path in sorted(directory.iterdir()):
        if path.name == "manifest.json" or path.suffix == ".bin":
            h.update(path.name.encode())
            h.update(path.read_bytes())
    return h.hexdigest()
