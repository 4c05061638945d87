import json
import shutil
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dimino.data import (
    _MANIFEST_KEYS,
    BLOB_MAGIC,
    BLOB_VERSION,
    FORMAT,
    Batch,
    Dataset,
    DatasetFormatError,
    Grid,
    Sample,
    dataset_hash,
    load_dataset,
    read_sealed,
    WRITABLE_DTYPES,
    save_dataset,
    write_sealed,
)
from dimino import data
from dimino.solvers import generate_dataset

from conftest import random_sample

# Each system's input fields, constants and targets, as generate_dataset writes them.
LAYOUTS = {
    "advection1d": (1, ("u",), ("beta",), ("u",)),
    "burgers1d": (1, ("u",), ("nu",), ("u",)),
    "diffreact2d": (2, ("u", "v"), ("Du", "Dv", "k"), ("u", "v")),
    "ns-vorticity2d": (2, ("omega", "f"), ("nu",), ("omega",)),
}


def test_grid_validates_power_of_two_points():
    with pytest.raises(ValueError):
        Grid((48,), (1.0,))
    with pytest.raises(ValueError):
        Grid((64,), (-1.0,))
    g = Grid((64, 32), (1.0, 2.0))
    assert g.rank == 2


def test_sample_validates_shapes_and_time():
    # a row is checked when Batch.stack makes it a column
    grid = Grid((16,), (1.0,))
    with pytest.raises(ValueError, match="shape"):
        Batch.stack([Sample("burgers1d", grid, {"u": np.zeros(8)}, {}, 1.0)])
    with pytest.raises(ValueError, match="t_final must be positive"):
        Batch.stack([Sample("burgers1d", grid, {"u": np.zeros(16)}, {}, 0.0)])


@st.composite
def row_lists(draw):
    """1-9 random rows of one system, with mixed t_final and constants."""
    system = draw(st.sampled_from(sorted(LAYOUTS)))
    with_targets = draw(st.booleans(), label="targets")
    return [random_sample(system, seed=draw(st.integers(0, 2**16)),
                          t_final=draw(st.floats(1e-3, 1e3)), with_targets=with_targets)
            for _ in range(draw(st.integers(1, 9)))]


def _same_row(a: Sample, b: Sample) -> bool:
    def head(s):
        return s.system, s.grid, s.t_final, s.constants
    return (head(a) == head(b)
            and all(list(getattr(a, k)) == list(getattr(b, k))
                    and all(np.array_equal(getattr(a, k)[n], getattr(b, k)[n])
                            for n in getattr(a, k)) for k in ("fields", "targets")))


@given(rows=row_lists(), picks=st.data())
@settings(max_examples=60, deadline=None)
def test_batch_rows_slices_and_gathers_equal_the_stacked_rows(rows, picks):
    batch = Batch.stack(rows)
    assert len(batch) == len(rows)
    for i, row in enumerate(batch):
        assert isinstance(row, Sample)
        assert all(a.shape == row.grid.shape for a in (*row.fields.values(), *row.targets.values()))
        assert _same_row(row, rows[i]) and _same_row(batch[i], rows[i])
    n = len(rows)
    start, stop = sorted(picks.draw(st.lists(st.integers(0, n), min_size=2, max_size=2)))
    idx = np.array(picks.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=12)))
    for got, chosen in ((batch[start:stop], rows[start:stop]),
                        (batch[idx], [rows[i] for i in idx])):
        assert isinstance(got, Batch) and len(got) == len(chosen)
        if chosen:
            want = Batch.stack(chosen)
            assert np.array_equal(got.t_final, want.t_final)
            for kind in ("fields", "constants", "targets"):
                assert list(getattr(got, kind)) == list(getattr(want, kind))
                for name, col in getattr(want, kind).items():
                    assert np.array_equal(getattr(got, kind)[name], col), (kind, name)


def test_batch_stack_refuses_mixed_rows():
    with pytest.raises(ValueError, match="one system"):
        Batch.stack([random_sample("advection1d"), random_sample("burgers1d")])
    with pytest.raises(ValueError, match="one system"):
        Batch.stack([random_sample("burgers1d"), random_sample("burgers1d", with_targets=True)])


def test_dataset_round_trip_bit_exact(tmp_path):
    ds = generate_dataset("ns-vorticity2d", {}, 3, 5, Grid((16, 16), (1.0, 1.0)), 0.5)
    save_dataset(ds, tmp_path / "d")
    back = load_dataset(tmp_path / "d")
    assert back.system == ds.system
    assert back.grid == ds.grid
    for sa, sb in zip(ds.split("train"), back.split("train")):
        for name in sa.fields:
            np.testing.assert_array_equal(sa.fields[name], sb.fields[name])
        for name in sa.targets:
            np.testing.assert_array_equal(sa.targets[name], sb.targets[name])
        assert sa.constants["nu"] == sb.constants["nu"]
        assert sa.t_final == sb.t_final
    assert back.meta["seed"] == 5


def test_blob_magic_is_checked(tmp_path):
    ds = generate_dataset("burgers1d", {}, 2, 0, Grid((16,), (1.0,)), 0.5)
    save_dataset(ds, tmp_path / "d")
    blob = tmp_path / "d" / "train.bin"
    raw = bytearray(blob.read_bytes())
    assert raw[:8] == BLOB_MAGIC
    raw[0] ^= 0xFF
    blob.write_bytes(bytes(raw))
    with pytest.raises(DatasetFormatError):
        load_dataset(tmp_path / "d")


def test_manifest_format_is_checked(tmp_path):
    ds = generate_dataset("burgers1d", {}, 2, 0, Grid((16,), (1.0,)), 0.5)
    save_dataset(ds, tmp_path / "d")
    manifest = tmp_path / "d" / "manifest.json"
    manifest.write_text(manifest.read_text().replace(FORMAT, "v0"))
    with pytest.raises(DatasetFormatError):
        load_dataset(tmp_path / "d")


@pytest.fixture(scope="module")
def saved_dataset(tmp_path_factory):
    directory = tmp_path_factory.mktemp("saved") / "d"
    save_dataset(generate_dataset("burgers1d", {}, 2, 0, Grid((16,), (1.0,)), 0.5), directory)
    return directory


def _load_edited(directory, edit):
    """load_dataset on a copy of ``directory`` after ``edit(copy)``."""
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "d"
        shutil.copytree(directory, copy)
        edit(copy)
        return load_dataset(copy)


@given(cut=st.data())
@settings(max_examples=60, deadline=None)
def test_truncated_blob_raises_format_error(saved_dataset, cut):
    blob = (saved_dataset / "train.bin").read_bytes()
    keep = cut.draw(st.integers(0, len(blob) - 1), label="kept bytes")
    with pytest.raises(DatasetFormatError):
        _load_edited(saved_dataset, lambda d: (d / "train.bin").write_bytes(blob[:keep]))


@given(extra=st.binary(min_size=1, max_size=24))
@settings(max_examples=20, deadline=None)
def test_trailing_bytes_raise_format_error(saved_dataset, extra):
    blob = (saved_dataset / "train.bin").read_bytes()
    # the last 8 bytes are read as the digest, so the digest check refuses them
    with pytest.raises(DatasetFormatError, match="content hash mismatch"):
        _load_edited(saved_dataset, lambda d: (d / "train.bin").write_bytes(blob + extra))


@pytest.mark.parametrize("key", _MANIFEST_KEYS)
def test_manifest_missing_key_raises_format_error(saved_dataset, key):
    def drop(d):
        manifest = json.loads((d / "manifest.json").read_text())
        del manifest[key]
        (d / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(DatasetFormatError, match=key):
        _load_edited(saved_dataset, drop)


def _recount(d):
    manifest = json.loads((d / "manifest.json").read_text())
    manifest["splits"]["train"] = 3
    (d / "manifest.json").write_text(json.dumps(manifest))


def _patch_manifest(change):
    """An edit that applies ``change`` to a copy's parsed manifest."""
    def edit(d):
        manifest = json.loads((d / "manifest.json").read_text())
        change(manifest)
        (d / "manifest.json").write_text(json.dumps(manifest))
    return edit


@pytest.mark.parametrize("edit, message", [
    (_recount, "2 samples, manifest says 3"),
    (lambda d: (d / "manifest.json").write_text("{"), "not JSON"),
    pytest.param(_patch_manifest(lambda m: m.update(system="made-up")),
                 "unknown system 'made-up'", id="unknown-system"),
    pytest.param(_patch_manifest(lambda m: m["records"][1].update(name="mu")),
                 r"no field or constant \['mu'\]", id="renamed-constant"),
    pytest.param(_patch_manifest(lambda m: m["records"][0].update(name="w")),
                 r"no field or constant \['w'\]", id="renamed-field"),
    pytest.param(_patch_manifest(lambda m: m["field_dims"].update(u=[0, 2, -1])),
                 "field_dims", id="wrong-field-dims"),
    pytest.param(_patch_manifest(lambda m: m["constant_dims"].update(nu=[0, 1, -1])),
                 "constant_dims", id="wrong-constant-dims"),
    pytest.param(_patch_manifest(lambda m: m["field_dims"].update(u=[1, -1])),
                 "field_dims", id="short-dim-vector"),
])
def test_bad_manifest_raises_format_error(saved_dataset, edit, message):
    with pytest.raises(DatasetFormatError, match=message):
        _load_edited(saved_dataset, edit)


def _reseal(blob, edit):
    """Apply ``edit`` to a blob's header and arrays and re-seal the blob, so
    only the checks after the digest can refuse it."""
    header, arrays = read_sealed(blob, BLOB_MAGIC, BLOB_VERSION, DatasetFormatError)
    header, arrays = edit(header, arrays) or (header, arrays)
    write_sealed(blob, BLOB_MAGIC, BLOB_VERSION, header, arrays.items())


def _set_value(key, index, stored, value):
    """An edit that sets entry ``index`` of array ``key``, which must hold ``stored``."""
    def edit(d):
        def put(header, arrays):
            assert arrays[key][index] == stored, "blob layout moved"
            arrays[key][index] = value
        _reseal(d / "train.bin", put)
    return edit


@pytest.mark.parametrize("kind, value", [
    ("constant", float("nan")),
    ("constant", float("inf")),
    ("time", float("nan")),
    ("time", float("inf")),
    ("time", -1.0),
    ("time", 0.0),
])
def test_bad_scalar_in_blob_raises_format_error(saved_dataset, kind, value):
    first = load_dataset(saved_dataset).split("train")[0]
    stored = first.t_final if kind == "time" else first.constants["nu"]
    key = "time/t_final" if kind == "time" else "constant/nu"
    message = "a constant is not finite" if kind == "constant" else "t_final must be finite"
    with pytest.raises(DatasetFormatError, match=message):
        _load_edited(saved_dataset, _set_value(key, 0, stored, value))


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("kind", ["field", "target"])
def test_non_finite_value_in_blob_raises_format_error(saved_dataset, kind, value):
    i = 5 if kind == "field" else 9
    second = load_dataset(saved_dataset).split("train")[1]
    stored = (second.fields if kind == "field" else second.targets)["u"][i]
    with pytest.raises(DatasetFormatError, match=f"a {kind} is not finite"):
        _load_edited(saved_dataset, _set_value(f"{kind}/u", (1, i), stored, value))


@pytest.mark.parametrize("edit, message", [
    pytest.param(lambda h, a: (h, dict(reversed(a.items()))), "arrays", id="reordered"),
    pytest.param(lambda h, a: (h, {k.replace("target", "field"): v for k, v in a.items()}),
                 "arrays", id="renamed"),
    pytest.param(lambda h, a: (h, {k: v for k, v in a.items() if k != "target/u"}),
                 "arrays", id="missing-array"),
    pytest.param(lambda h, a: ({"count": 2}, a), "header {'count': 2}", id="header"),
    pytest.param(lambda h, a: a.update({"field/u": a["field/u"].astype(np.float32)}),
                 "field/u is float32", id="dtype"),
    pytest.param(lambda h, a: a.update({"field/u": a["field/u"][:, :8]}),
                 r"field/u is float64 \(2, 8\)", id="grid"),
    pytest.param(lambda h, a: a.update({"constant/nu": a["constant/nu"][:, None]}),
                 r"constant/nu is float64 \(2, 1\)", id="scalar-rank"),
    pytest.param(lambda h, a: a.update({"time/t_final": a["time/t_final"][:1]}),
                 "1 samples, manifest says 2", id="count"),
])
def test_blob_that_disagrees_with_its_manifest_raises(saved_dataset, edit, message):
    with pytest.raises(DatasetFormatError, match=message):
        _load_edited(saved_dataset, lambda d: _reseal(d / "train.bin", edit))


def test_a_repeated_array_name_is_refused(tmp_path):
    path = tmp_path / "twice.bin"
    write_sealed(path, BLOB_MAGIC, BLOB_VERSION, {}, [("a", np.zeros(2)), ("a", np.ones(2))])
    with pytest.raises(DatasetFormatError, match="'a' repeats"):
        read_sealed(path, BLOB_MAGIC, BLOB_VERSION, DatasetFormatError)


@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_any_flipped_byte_raises_only_dataset_format_error(saved_dataset, data):
    raw = bytearray((saved_dataset / "train.bin").read_bytes())
    at = data.draw(st.integers(0, len(raw) - 1), label="byte")
    raw[at] ^= data.draw(st.integers(1, 255), label="xor mask")
    with pytest.raises(DatasetFormatError):
        _load_edited(saved_dataset, lambda d: (d / "train.bin").write_bytes(bytes(raw)))


def _write_v1(d):
    """Rewrite a saved float64 dataset in the v1 layout: manifest format
    ``dimino-dataset-v1``; blob magic ``DIMINO01``, u32 count, rank, points
    and item size, then the record blocks, and no digest."""
    manifest = json.loads((d / "manifest.json").read_text())
    manifest["format"] = "dimino-dataset-v1"
    (d / "manifest.json").write_text(json.dumps(manifest))
    for split, count in manifest["splits"].items():
        _, arrays = read_sealed(d / f"{split}.bin", BLOB_MAGIC, BLOB_VERSION, DatasetFormatError)
        points = manifest["grid"]["points"]
        head = struct.pack(f"<II{len(points)}II", count, len(points), *points, 8)
        (d / f"{split}.bin").write_bytes(
            b"DIMINO01" + head + b"".join(a.tobytes() for a in arrays.values()))


def test_v1_dataset_is_refused(saved_dataset):
    with pytest.raises(DatasetFormatError, match="not dimino-dataset-v3"):
        _load_edited(saved_dataset, _write_v1)

    def v1_blobs_only(d):
        _write_v1(d)
        _patch_manifest(lambda m: m.update(format=FORMAT))(d)
    with pytest.raises(DatasetFormatError, match="bad or truncated magic"):
        _load_edited(saved_dataset, v1_blobs_only)


def _manifest_leaves(node, path=()):
    """(path, value) of every scalar in a parsed manifest."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _manifest_leaves(value, path + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _manifest_leaves(value, path + (i,))
    else:
        yield path, node


def _edited(value):
    if isinstance(value, bool):
        return not value
    if isinstance(value, (int, float)):
        return value * 7 if value else 1
    return value + "x"


def test_an_edited_extent_is_refused_by_the_seal(saved_dataset):
    def stretch(d):
        text = (d / "manifest.json").read_text()
        extent = '"extent": [\n      1.0\n    ]'
        assert text.count(extent) == 1
        (d / "manifest.json").write_text(text.replace(extent, extent.replace("1.0", "7.0")))
    with pytest.raises(DatasetFormatError, match="sealed for another manifest.json"):
        _load_edited(saved_dataset, stretch)


def test_every_edited_manifest_value_raises(saved_dataset):
    manifest = json.loads((saved_dataset / "manifest.json").read_text())
    leaves = list(_manifest_leaves(manifest))
    assert len(leaves) > 15 and (("grid", "extent", 0), 1.0) in leaves
    for path, value in leaves:
        def edit(d):
            m = json.loads((d / "manifest.json").read_text())
            node = m
            for key in path[:-1]:
                node = node[key]
            node[path[-1]] = _edited(value)
            (d / "manifest.json").write_text(json.dumps(m, indent=2, sort_keys=True) + "\n")
        with pytest.raises(DatasetFormatError):
            _load_edited(saved_dataset, edit)
    # a re-indented manifest holds the same values but other bytes
    with pytest.raises(DatasetFormatError, match="sealed for another manifest.json"):
        _load_edited(saved_dataset, lambda d: (d / "manifest.json").write_text(
            json.dumps(manifest, sort_keys=True)))


def test_intact_copy_loads(saved_dataset):
    back = _load_edited(saved_dataset, lambda d: None)
    assert len(back.split("train")) == 2


def test_dataset_hash_tracks_content(tmp_path):
    a = generate_dataset("burgers1d", {}, 2, 0, Grid((16,), (1.0,)), 0.5)
    b = generate_dataset("burgers1d", {}, 2, 1, Grid((16,), (1.0,)), 0.5)
    save_dataset(a, tmp_path / "a")
    save_dataset(a, tmp_path / "a2")
    save_dataset(b, tmp_path / "b")
    assert dataset_hash(tmp_path / "a") == dataset_hash(tmp_path / "a2")
    assert dataset_hash(tmp_path / "a") != dataset_hash(tmp_path / "b")


def test_float32_storage_round_trips(tmp_path):
    ds = generate_dataset("burgers1d", {}, 2, 0, Grid((16,), (1.0,)), 0.5)
    save_dataset(ds, tmp_path / "d", dtype="float32")
    back = load_dataset(tmp_path / "d")
    orig = ds.split("train")[0].fields["u"]
    got = back.split("train")[0].fields["u"]
    np.testing.assert_allclose(got, orig, atol=1e-6)


def test_empty_split_round_trips_and_no_samples_raises(tmp_path):
    ds = generate_dataset("burgers1d", {}, 2, 0, Grid((16,), (1.0,)), 0.5)
    ds.splits["test"] = ds.split("train")[:0]
    back = load_dataset(save_dataset(ds, tmp_path / "d"))
    assert len(back.splits["test"]) == 0 and len(back.split("train")) == 2
    _, arrays = read_sealed(tmp_path / "d" / "test.bin", BLOB_MAGIC, BLOB_VERSION,
                            DatasetFormatError)
    assert {k: a.shape for k, a in arrays.items()} == {
        "field/u": (0, 16), "constant/nu": (0,), "time/t_final": (0,), "target/u": (0, 16)}
    with pytest.raises(ValueError, match="no samples"):
        empty = ds.split("train")[:0]
        save_dataset(Dataset("burgers1d", ds.grid, {"train": empty, "test": empty}),
                     tmp_path / "e")


def _fixed_dataset():
    """A two-split diffreact2d dataset built by exact arithmetic, no solver."""
    grid = Grid((4, 4), (1.0, 2.0))

    def split(n, shift):
        k = np.arange(n * 16, dtype=np.float64).reshape(n, 4, 4) / 16 - shift
        return Batch("diffreact2d", grid, {"u": k, "v": -k / 3},
                     {"Du": 1e-3 * np.arange(1, n + 1), "Dv": np.full(n, 0.1),
                      "k": np.full(n, 5e-3)},
                     np.linspace(0.5, 1.0, n), {"u": k / 7, "v": k * 1.1})
    return Dataset("diffreact2d", grid, {"train": split(3, 1.0), "test": split(2, 0.25)},
                   {"seed": 0})


@pytest.mark.parametrize("dtype, digest", [
    ("float64", "a6cc9fdbc9c9303bc1180cf7ac23f44c"),
    ("float32", "20a77c853353205aaf2ba7f62780f0b9"),
])
def test_a_finite_dataset_keeps_its_bytes(tmp_path, dtype, digest):
    """The check of a save's values changes no byte that it lets through."""
    assert dataset_hash(save_dataset(_fixed_dataset(), tmp_path / "d", dtype)) == digest


def _poison(ds, kind):
    """Make one value of ``kind`` in the test split non-finite."""
    test = ds.split("test")
    if kind == "time":
        test.t_final[1] = np.inf
    else:
        getattr(test, kind + "s")["v"][1, 2, 3] = np.nan
    return ds


@pytest.mark.parametrize("kind, message", [
    ("time", "t_final must be finite and positive"),
    ("field", "a field is not finite"),
    ("target", "a target is not finite"),
])
@pytest.mark.parametrize("dtype", ["float64", "float32"])
def test_save_refuses_what_load_would_refuse_and_writes_nothing(tmp_path, kind, message,
                                                                dtype):
    out = tmp_path / "d"
    with pytest.raises(DatasetFormatError, match=f"test.bin: {message}"):
        save_dataset(_poison(_fixed_dataset(), kind), out, dtype)
    assert not out.exists()


@pytest.mark.filterwarnings("ignore:overflow encountered in cast:RuntimeWarning")
def test_save_refuses_a_value_that_overflows_its_written_dtype(tmp_path):
    ds = _fixed_dataset()
    ds.split("train").fields["u"][0, 0, 0] = 1e39
    save_dataset(ds, tmp_path / "f64", "float64")
    with pytest.raises(DatasetFormatError, match="train.bin: a field is not finite"):
        save_dataset(ds, tmp_path / "f32", "float32")
    assert not (tmp_path / "f32").exists()


@pytest.mark.parametrize("dtype", ["float16", "complex128", "int64"])
def test_save_refuses_an_unwritable_dtype_and_writes_nothing(tmp_path, dtype):
    out = tmp_path / "d"
    with pytest.raises(ValueError, match=r"dtype must be one of \('float32', 'float64'\)"):
        save_dataset(_fixed_dataset(), out, dtype)
    assert not out.exists()


def test_load_refuses_a_manifest_dtype_it_cannot_have_written(tmp_path, monkeypatch):
    """A complex128 dataset, which save_dataset no longer writes, does not load."""
    monkeypatch.setattr(data, "WRITABLE_DTYPES", WRITABLE_DTYPES + ("complex128",))
    save_dataset(_fixed_dataset(), tmp_path / "d", "complex128")
    monkeypatch.undo()
    with pytest.raises(DatasetFormatError, match="'complex128' is not one of"):
        load_dataset(tmp_path / "d")


def test_missing_split_raises():
    ds = Dataset("burgers1d", Grid((16,), (1.0,)), {"train": []})
    with pytest.raises(KeyError):
        ds.split("test")


@st.composite
def random_datasets(draw):
    """A dataset of random values: any system, grid, split sizes and horizon."""
    system = draw(st.sampled_from(sorted(LAYOUTS)))
    rank, fields, constants, targets = LAYOUTS[system]
    grid = Grid(tuple(draw(st.sampled_from([2, 4, 8, 16])) for _ in range(rank)),
                tuple(draw(st.floats(0.1, 10.0)) for _ in range(rank)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    t_final = draw(st.floats(1e-3, 1e3))

    def sample():
        return Sample(system, grid,
                      {n: rng.standard_normal(grid.shape) for n in fields},
                      {n: float(rng.uniform(1e-4, 10.0)) for n in constants},
                      t_final,
                      {n: rng.standard_normal(grid.shape) for n in targets})
    splits = {"train": Batch.stack([sample() for _ in range(draw(st.integers(1, 3)))])}
    n_test = draw(st.integers(0, 2))
    if n_test:
        splits["test"] = Batch.stack([sample() for _ in range(n_test)])
    return Dataset(system, grid, splits, {"seed": draw(st.integers(0, 99)), "t_final": t_final})


@given(ds=random_datasets(), dtype=st.sampled_from(["float32", "float64"]))
@settings(max_examples=60, deadline=None)
def test_save_load_save_is_byte_identical(ds, dtype):
    with tempfile.TemporaryDirectory() as tmp:
        first = save_dataset(ds, Path(tmp) / "a", dtype=dtype)
        again = save_dataset(load_dataset(first), Path(tmp) / "b", dtype=dtype)
        names = sorted(p.name for p in first.iterdir())
        assert names == sorted(p.name for p in again.iterdir())
        for name in names:
            assert (first / name).read_bytes() == (again / name).read_bytes(), name
        assert dataset_hash(first) == dataset_hash(again)
