import argparse
import json
import re
from pathlib import Path

import numpy as np
import pytest

from dimino import cli
from dimino.autodiff import standard_primitive_checks
from dimino.cli import main
from dimino.data import FORMAT, dataset_hash, load_dataset, save_dataset
from dimino.dims import similar_transform
from dimino.model import DimINOModel, ModelConfig, save_model


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
], ids=["misspelled-name", "lo-above-hi", "zero-lo", "missing-hi", "no-bounds",
        "extra-field", "2d-grid"])
def test_gen_data_bad_param_or_grid_exits_one(tmp_path, capsys, extra, message):
    argv = ["gen-data", "--system", "burgers1d", "--n", "1", "--t", "0.1",
            "--out", str(tmp_path / "d"), *extra]
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert not (tmp_path / "d" / "manifest.json").exists()


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
    assert not (out / "manifest.json").exists()


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
