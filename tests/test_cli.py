import argparse
import dataclasses
import inspect
import json
import re
from pathlib import Path

import numpy as np
import pytest

from dimino import cli, solvers, sti
from dimino.autodiff import standard_primitive_checks
from dimino.cli import main
from dimino.data import (FORMAT, WRITABLE_DTYPES, Grid, dataset_hash, load_dataset,
                         save_dataset)
from dimino.dims import similar_transform
from dimino.model import DimINOModel, ModelConfig, save_model
from dimino.training import LOSS_KINDS, TrainConfig


def run(argv):
    return main(argv)


@pytest.fixture(scope="module")
def adv_data(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli") / "data-adv"
    code = run([
        "gen-data", "--system", "advection1d", "--n", "10", "--n-test", "4",
        "--seed", "3", "--grid", "32", "--t", "1", "--out", str(out),
    ])
    assert code == 0
    return out


@pytest.fixture(scope="module")
def trained(adv_data, tmp_path_factory):
    out = tmp_path_factory.mktemp("cli") / "run-adv"
    code = run([
        "train", "--data", str(adv_data), "--out", str(out),
        "--loss", "l2", "--epochs", "3", "--batch-size", "4",
        "--width", "6", "--depth", "2", "--modes", "4", "--seed", "0",
    ])
    assert code == 0
    return out


def test_gen_data_writes_manifest_audit_and_run_record(adv_data):
    manifest = json.loads((adv_data / "manifest.json").read_text())
    assert manifest["format"] == FORMAT == "dimino-dataset-v3"
    assert "advection-number" in manifest["dimensionless_audit"]
    record = json.loads((adv_data / "run.json").read_text())
    assert record["command"] == "gen-data"
    assert "dataset_hash" in record["inputs"]


def test_gen_data_is_reproducible(tmp_path):
    args = ["gen-data", "--system", "burgers1d", "--n", "4", "--seed", "9",
            "--grid", "32", "--t", "0.5"]
    assert run(args + ["--out", str(tmp_path / "a")]) == 0
    assert run(args + ["--out", str(tmp_path / "b")]) == 0
    assert dataset_hash(tmp_path / "a") == dataset_hash(tmp_path / "b")


def test_gen_data_without_out_writes_under_runs(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run(["gen-data", "--system", "burgers1d", "--n", "1", "--grid", "16",
                "--t", "0.1"]) == 0
    assert (tmp_path / "runs" / "gen-data" / "manifest.json").is_file()


def test_gen_data_unknown_system_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["gen-data", "--system", "nonsense", "--n", "2"])
    assert exc.value.code == 2


@pytest.mark.parametrize("extra, message", [
    (["--param", "Nu,1e-3,1e-2"], "unknown parameter 'Nu' for burgers1d; its parameters are amp, nu"),
    (["--param", "nu,1e-2,1e-3"], "0 < LO <= HI"),
    (["--param", "nu,0,1e-3"], "0 < LO <= HI"),
    (["--param", "nu,1e-3"], "two numbers LO,HI"),
    (["--param", "nu"], "two numbers LO,HI"),
    (["--param", "nu,1e-3,1e-2,1"], "two numbers LO,HI"),
    (["--grid", "16,16"], "burgers1d needs a 1D grid, got points (16, 16)"),
    (["--grid", "16", "--solver-steps", "0"], "steps must be >= 1"),
], ids=["misspelled-name", "lo-above-hi", "zero-lo", "missing-hi", "no-bounds",
        "extra-field", "2d-grid", "zero-solver-steps"])
def test_gen_data_bad_param_or_grid_exits_one(tmp_path, capsys, extra, message):
    # a failed command leaves no output directory behind, empty or not
    argv = ["gen-data", "--system", "burgers1d", "--n", "1", "--t", "0.1",
            "--out", str(tmp_path / "d"), *extra]
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert not (tmp_path / "d").exists()


def test_train_on_a_missing_dataset_exits_one_and_makes_no_directory(tmp_path, capsys):
    assert run(["train", "--data", str(tmp_path / "nowhere"), "--out",
                str(tmp_path / "t")]) == 1
    assert "nowhere/manifest.json" in capsys.readouterr().err
    assert not (tmp_path / "t").exists()


@pytest.mark.filterwarnings("ignore:overflow encountered in cast:RuntimeWarning")
def test_gen_data_refuses_a_dataset_its_dtype_cannot_hold(tmp_path, capsys):
    """Fields of 1e39 overflow float32: gen-data exits 1 before writing a
    manifest, as load_dataset would refuse what it wrote."""
    out = tmp_path / "d"
    argv = ["gen-data", "--system", "advection1d", "--n", "2", "--grid", "16",
            "--param", "amp,1e39,1e39", "--dtype", "float32", "--out", str(out)]
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "train.bin: a field is not finite" in err
    assert not out.exists()


def test_train_writes_checkpoint_metrics_history(trained):
    assert (trained / "checkpoint.bin").exists()
    assert (trained / "metrics.json").exists()
    history = (trained / "dimino-history.jsonl").read_text().splitlines()
    assert len(history) == 3
    assert json.loads(history[0])["epoch"] == 0


def test_train_gamma_outside_unit_interval_exits_one(adv_data, tmp_path, capsys):
    assert run(["train", "--data", str(adv_data), "--out", str(tmp_path / "o"),
                "--epochs", "1", "--width", "6", "--depth", "2", "--modes", "4",
                "--gamma", "1.5"]) == 1
    assert "gamma" in capsys.readouterr().err


@pytest.mark.parametrize("n_train", [0, 1])
def test_train_too_small_split_exits_one(tmp_path, capsys, n_train):
    data = tmp_path / "d"
    assert run(["gen-data", "--system", "advection1d", "--n", "1", "--n-test", "2",
                "--grid", "16", "--t", "1", "--out", str(data)]) == 0
    if n_train == 0:
        dataset = load_dataset(data)
        dataset.splits["train"] = dataset.split("train")[:0]
        save_dataset(dataset, data)
        assert len(load_dataset(data).splits["train"]) == 0
    assert run(["train", "--data", str(data), "--out", str(tmp_path / "o"),
                "--epochs", "1", "--width", "6", "--depth", "1", "--modes", "4"]) == 1
    assert capsys.readouterr().err == "error: dataset too small to split\n"


def test_train_missing_dataset_exits_one(tmp_path, capsys):
    assert run(["train", "--data", str(tmp_path / "nope"),
                "--out", str(tmp_path / "o")]) == 1
    assert "error:" in capsys.readouterr().err


def test_eval_prints_table_and_gains(adv_data, trained, capsys):
    code = run([
        "eval", "--data", str(adv_data), "--ckpt",
        str(trained / "checkpoint.bin"), "--split", "test",
        "--baseline-ckpt", str(trained / "checkpoint.bin"),
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "rel-l2" in out
    assert "0.0%" in out  # model vs itself has zero gain


def test_eval_missing_split_exits_one(adv_data, trained, capsys):
    assert run([
        "eval", "--data", str(adv_data), "--ckpt",
        str(trained / "checkpoint.bin"), "--split", "nope",
    ]) == 1
    assert "error:" in capsys.readouterr().err


def test_eval_empty_split_exits_one(adv_data, trained, tmp_path, capsys):
    dataset = load_dataset(adv_data)
    dataset.splits["test"] = dataset.split("test")[:0]
    save_dataset(dataset, tmp_path / "d")
    assert run(["eval", "--data", str(tmp_path / "d"), "--ckpt",
                str(trained / "checkpoint.bin"), "--split", "test"]) == 1
    assert capsys.readouterr().err == "error: split 'test' has no samples\n"


@pytest.mark.parametrize("extra, message", [
    (["--batch-size", "-4"], "batch_size must be >= 1, got -4"),
    (["--batch-size", "0"], "batch_size must be >= 1, got 0"),
    (["--lr", "nan"], "lr must be >= 0, got nan"),
    (["--lr", "-0.1"], "lr must be >= 0, got -0.1"),
    (["--patience", "-1"], "patience must be >= 0, got -1"),
    (["--width", "0"], "width must be >= 1, got 0"),
    (["--modes", "0"], "modes must be >= 1, got 0"),
], ids=["negative-batch", "zero-batch", "nan-lr", "negative-lr", "negative-patience",
        "zero-width", "zero-modes"])
def test_train_bad_flag_exits_one(adv_data, tmp_path, capsys, extra, message):
    assert run(["train", "--data", str(adv_data), "--out", str(tmp_path / "o"),
                "--epochs", "1", "--width", "6", "--depth", "1", "--modes", "4",
                *extra]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


def test_sti_check_table_and_report(adv_data, trained, tmp_path, capsys):
    out = tmp_path / "sti"
    code = run([
        "sti-check", "--data", str(adv_data), "--ckpt",
        str(trained / "checkpoint.bin"), "--p", "1,2", "--n", "2",
        "--max-latent", "1e-12", "--out", str(out),
    ])
    text = capsys.readouterr().out
    assert code == 0
    assert "p=2" in text
    report = json.loads((out / "sti-report.json").read_text())
    assert all(e["latent_residual"] == 0.0 for e in report["entries"])


@pytest.mark.parametrize("extra, message", [
    (["--split", "nope"], "no split 'nope'"),
    (["--n", "-1"], "--n must be >= 1, got -1"),
    (["--n", "0"], "--n must be >= 1, got 0"),
    (["--solver-steps", "0"], "steps must be >= 1"),
    (["--p", "1,nan"], "p must be finite and positive, got nan"),
], ids=["missing-split", "negative-n", "zero-n", "zero-solver-steps", "nan-p"])
def test_sti_check_bad_flag_exits_one(adv_data, trained, capsys, extra, message):
    assert run(["sti-check", "--data", str(adv_data), "--ckpt",
                str(trained / "checkpoint.bin"), "--p", "1,2", *extra]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


def test_sti_check_drops_duplicate_p_columns(adv_data, trained, capsys):
    assert run(["sti-check", "--data", str(adv_data), "--ckpt",
                str(trained / "checkpoint.bin"), "--p", "2,2", "--n", "2"]) == 0
    header = capsys.readouterr().out.splitlines()[0]
    assert header.split()[-2:] == ["p=1", "p=2"] and header.count("p=2") == 1


@pytest.mark.parametrize("p", ["0,2", "2,-1", "nan", "1,inf"])
def test_sti_check_refuses_a_bad_p_before_any_solve(adv_data, trained, capsys, monkeypatch, p):
    def no_solve(*args, **kwargs):
        raise AssertionError("solved before the p list was checked")

    monkeypatch.setattr(sti, "solve_sample", no_solve)
    monkeypatch.setattr(solvers, "solve_sample", no_solve)
    assert run(["sti-check", "--data", str(adv_data), "--ckpt",
                str(trained / "checkpoint.bin"), "--p", p, "--n", "2"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: p must be finite and positive, got ")


def test_sti_check_latent_threshold_breach_exits_one(adv_data, trained, capsys):
    # an impossible threshold of exactly 0 passes for phi-last; force a breach
    # by checking the ablated configuration instead
    code = run([
        "train", "--data", str(adv_data), "--out",
        str(adv_data.parent / "twin"), "--loss", "l2", "--epochs", "1",
        "--batch-size", "4", "--width", "6", "--depth", "2", "--modes", "4",
        "--ablate-gate",
    ])
    assert code == 0
    code = run([
        "sti-check", "--data", str(adv_data), "--ckpt",
        str(adv_data.parent / "twin" / "ablated-checkpoint.bin"),
        "--p", "1,2", "--n", "2", "--max-latent", "1e-12",
    ])
    assert code == 1
    assert "latent residual" in capsys.readouterr().err


def test_sti_check_nan_latent_residual_breaches_threshold(adv_data, tmp_path, capsys):
    model = DimINOModel(ModelConfig("advection1d", ["u"], ["u"], 1, width=6, depth=2, modes=4))
    model.params["head_w2"][:] = np.nan
    save_model(model, tmp_path / "nan.bin")
    assert run(["sti-check", "--data", str(adv_data), "--ckpt", str(tmp_path / "nan.bin"),
                "--p", "1,2", "--n", "2", "--max-latent", "1"]) == 1
    assert "error: latent residual nan > 1.000e+00" in capsys.readouterr().err


def test_sti_check_oracle_is_exact_at_power_of_two_p(tmp_path, capsys):
    data = tmp_path / "ns"
    assert run(["gen-data", "--system", "ns-vorticity2d", "--n", "2", "--n-test", "2",
                "--seed", "4", "--grid", "16,16", "--t", "0.25", "--out", str(data)]) == 0
    ckpt = tmp_path / "ns.bin"
    save_model(DimINOModel(ModelConfig(
        "ns-vorticity2d", ["omega", "f"], ["omega"], 2, width=6, depth=2, modes=4,
    )), ckpt)
    code = run(["sti-check", "--data", str(data), "--ckpt", str(ckpt), "--p", "1,8",
                "--n", "2", "--solver-steps", "32", "--oracle"])
    assert code == 0
    assert "solver oracle residual at p=8: 0.00e+00" in capsys.readouterr().out


def test_grad_check_exits_zero(capsys):
    assert run(["grad-check", "--seed", "0"]) == 0
    out = capsys.readouterr().out
    rows = [*standard_primitive_checks(n_sample=1), "full-model", "full-model-h1"]
    for row in rows:
        assert re.search(rf"^{re.escape(row)} +\d\.\d{{3}}e[+-]\d+$", out, re.M), row
    assert "worst relative error" in out


def test_grad_check_threshold_breach_exits_one(capsys):
    assert run(["grad-check", "--seed", "0", "--threshold", "1e-18"]) == 1
    assert "gradient check failed" in capsys.readouterr().err


def test_dump_registry(capsys):
    assert run(["dump-registry"]) == 0
    out = capsys.readouterr().out
    assert "ns-vorticity2d\treynolds" in out


def test_train_determinism_byte_identical(adv_data, tmp_path):
    args = ["train", "--data", str(adv_data), "--loss", "l2", "--epochs", "2",
            "--batch-size", "4", "--width", "6", "--depth", "2", "--modes", "4",
            "--seed", "1"]
    assert run(args + ["--out", str(tmp_path / "a")]) == 0
    assert run(args + ["--out", str(tmp_path / "b")]) == 0
    assert (tmp_path / "a" / "checkpoint.bin").read_bytes() == (
        tmp_path / "b" / "checkpoint.bin"
    ).read_bytes()
    assert (tmp_path / "a" / "dimino-history.jsonl").read_text() == (
        tmp_path / "b" / "dimino-history.jsonl"
    ).read_text()


def test_train_is_byte_identical_on_a_similarity_transform(adv_data, tmp_path):
    moved = load_dataset(adv_data)
    moved.splits = {name: similar_transform(split, 2.0)
                    for name, split in moved.splits.items()}
    save_dataset(moved, tmp_path / "moved")
    assert dataset_hash(tmp_path / "moved") != dataset_hash(adv_data)
    args = ["train", "--loss", "h1", "--epochs", "3", "--batch-size", "4", "--width", "6",
            "--depth", "2", "--modes", "4", "--seed", "2"]
    assert run(args + ["--data", str(adv_data), "--out", str(tmp_path / "a")]) == 0
    assert run(args + ["--data", str(tmp_path / "moved"), "--out", str(tmp_path / "b")]) == 0
    for name in ("checkpoint.bin", "dimino-history.jsonl"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_every_parsed_option_is_read():
    """A flag that is parsed but never read (once ``--threads``) cannot return."""
    parser = cli.build_parser()
    subparsers = next(a for a in parser._actions
                      if isinstance(a, argparse._SubParsersAction))
    dests = {a.dest for p in (parser, *subparsers.choices.values()) for a in p._actions
             if not isinstance(a, argparse._HelpAction)}
    read = set(re.findall(r"\bargs\.(\w+)", Path(cli.__file__).read_text()))
    assert dests - read == set()
    with pytest.raises(SystemExit) as exc:
        main(["--threads", "1", "gen-data", "--system", "burgers1d"])
    assert exc.value.code == 2


def test_flag_defaults_are_the_library_defaults(tmp_path):
    """Each flag's default is the library's, so one default cannot drift from
    another: train's are TrainConfig's and ModelConfig's, gen-data's are
    generate_dataset's and save_dataset's, and gen-data without --t writes
    the horizon generate_dataset picks for the system.  The --loss and
    --dtype choices are training.LOSS_KINDS and data.WRITABLE_DTYPES."""
    parser = cli.build_parser()
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    choices = {(name, a.dest): a.choices for name, p in subparsers.choices.items()
               for a in p._actions}
    assert choices["train", "loss"] is LOSS_KINDS
    assert choices["gen-data", "dtype"] is WRITABLE_DTYPES
    args = parser.parse_args(["train", "--data", "d"])
    for config in (TrainConfig, ModelConfig):
        for f in dataclasses.fields(config):
            if f.name in vars(args):
                assert getattr(args, f.name) == f.default, (config.__name__, f.name)
    assert args.seed == ModelConfig.init_seed
    args = cli.build_parser().parse_args(["gen-data", "--system", "burgers1d"])
    params = inspect.signature(solvers.generate_dataset).parameters
    assert (args.n, args.seed) == (params["n_samples"].default, params["seed"].default)
    assert args.dtype == inspect.signature(save_dataset).parameters["dtype"].default
    written, library = {}, {}
    for system, grid in (("advection1d", "16"), ("burgers1d", "16"),
                         ("diffreact2d", "8,8"), ("ns-vorticity2d", "8,8")):
        out = tmp_path / system
        assert run(["gen-data", "--system", system, "--n", "1", "--grid", grid,
                    "--out", str(out)]) == 0
        written[system] = load_dataset(out).meta["t_final"]
        points = tuple(int(p) for p in grid.split(","))
        grid = Grid(points, (1.0,) * len(points))
        library[system] = solvers.generate_dataset(system, None, 1, 0, grid).meta["t_final"]
    assert written == library


def test_train_omits_the_gain_of_a_zero_ablated_score(adv_data, tmp_path, monkeypatch):
    """--ablate-gate's gain columns follow evaluate's rule: a zero baseline
    score gets no column, and nothing raises."""
    scores = iter([{"rel-l2": 0.5, "rel-h1": 0.5, "rel-l1": 0.5, "n": 4},
                   {"rel-l2": 0.0, "rel-h1": 1.0, "rel-l1": 0.0, "n": 4}])
    monkeypatch.setattr(cli, "evaluate", lambda *a: next(scores))
    assert run(["train", "--data", str(adv_data), "--out", str(tmp_path), "--epochs", "1",
                "--batch-size", "4", "--width", "6", "--depth", "2", "--modes", "4",
                "--ablate-gate"]) == 0
    table = json.loads((tmp_path / "metrics.json").read_text())["dimino"]
    assert sorted(k for k in table if k.endswith("-gain")) == ["rel-h1-gain"]
    assert table["rel-h1-gain"] == 0.5
