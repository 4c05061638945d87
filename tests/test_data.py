import json
import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dimino.data import (
    _MANIFEST_KEYS,
    BLOB_MAGIC,
    Dataset,
    DatasetFormatError,
    Grid,
    Sample,
    dataset_hash,
    load_dataset,
    save_dataset,
)
from dimino.dims import Quantity, SCALE_DIMS
from dimino.solvers import generate_dataset

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
    axes = g.axes()
    assert axes[1][1] == pytest.approx(2.0 / 32)


def test_sample_validates_shapes_and_time():
    grid = Grid((16,), (1.0,))
    with pytest.raises(ValueError):
        Sample("burgers1d", grid, {"u": np.zeros(8)}, {}, 1.0)
    with pytest.raises(ValueError):
        Sample("burgers1d", grid, {"u": np.zeros(16)}, {}, 0.0)


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
        assert sa.constants["nu"].value == sb.constants["nu"].value
        assert sa.constants["nu"].dim == sb.constants["nu"].dim
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
    manifest.write_text(manifest.read_text().replace("dimino-dataset-v1", "v0"))
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
    with pytest.raises(DatasetFormatError, match="trailing bytes"):
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


@pytest.mark.parametrize("edit, message", [
    (_recount, "2 samples, manifest says 3"),
    (lambda d: (d / "manifest.json").write_text("{"), "not JSON"),
])
def test_bad_manifest_raises_format_error(saved_dataset, edit, message):
    with pytest.raises(DatasetFormatError, match=message):
        _load_edited(saved_dataset, edit)


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
    dims = SCALE_DIMS[system]

    def sample():
        return Sample(system, grid,
                      {n: rng.standard_normal(grid.shape) for n in fields},
                      {n: Quantity(float(rng.uniform(1e-4, 10.0)), dims[n]) for n in constants},
                      t_final,
                      {n: rng.standard_normal(grid.shape) for n in targets})
    splits = {"train": [sample() for _ in range(draw(st.integers(1, 3)))]}
    n_test = draw(st.integers(0, 2))
    if n_test:
        splits["test"] = [sample() for _ in range(n_test)]
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
