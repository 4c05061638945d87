"""Command-line front end binding all modules into reproducible runs."""
from __future__ import annotations

import argparse
import hashlib
import inspect
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__, dims
from .data import WRITABLE_DTYPES, dataset_hash, load_dataset, save_dataset
from .model import PRECISIONS, DimINOModel, ModelConfig, load_model, save_model
from .solvers import DEFAULT_PARAM_RANGES, Grid, SolverConfig, generate_dataset
from .sti import solver_sti_oracle, sti_check
from .training import (
    LOSS_KINDS,
    TrainConfig,
    evaluate,
    format_metric_table,
    gains,
    grad_check_model,
    history_json,
    train,
)
from .autodiff import standard_primitive_checks


def _default(fn, name):
    """The default value of ``fn``'s parameter ``name``."""
    return inspect.signature(fn).parameters[name].default


def _out_dir(args) -> Path:
    """The run directory; a command makes it only as it writes its first file."""
    return Path(args.out) if args.out else Path("runs") / args.command


def _file_hash(path) -> str:
    return hashlib.blake2b(Path(path).read_bytes(), digest_size=16).hexdigest()


def _write_run_record(out: Path, args, inputs: dict) -> None:
    record = {
        "command": args.command,
        "config": {k: v for k, v in vars(args).items() if k != "func"},
        "inputs": inputs,
        "package_version": __version__,
        "registry_version": dims.REGISTRY_VERSION,
    }
    with open(out / "run.json", "w") as fh:
        json.dump(record, fh, indent=2, sort_keys=True, default=str)
        fh.write("\n")


def cmd_gen_data(args) -> int:
    out = _out_dir(args)
    grid = None
    if args.grid:
        pts = tuple(int(p) for p in args.grid.split(","))
        grid = Grid(pts, (1.0,) * len(pts))
    # generate_dataset checks each name and its LO,HI bounds
    ranges = {}
    for spec in args.param or []:
        name, *bounds = spec.split(",")
        ranges[name] = bounds
    cfg = SolverConfig(steps=args.solver_steps)
    dataset = generate_dataset(args.system, ranges, args.n, args.seed, grid, args.t, cfg)
    if args.n_test:
        dataset.splits.update(generate_dataset(args.system, ranges, args.n_test, args.seed + 1,
                                               grid, args.t, cfg, split="test").splits)
    spec = dims.REGISTRY[args.system]
    cvals = np.concatenate([
        dims.compute_dimensionless(spec, dims.characteristic_scales_from_sample(split))
        for split in dataset.splits.values()
    ])
    audit = {
        name: {"min": float(cvals[:, i].min()), "max": float(cvals[:, i].max())}
        for i, name in enumerate(spec.names)
    }
    dataset.meta["dimensionless_audit"] = audit
    save_dataset(dataset, out, dtype=args.dtype)
    _write_run_record(out, args, {"dataset_hash": dataset_hash(out)})

    n_total = sum(len(s) for s in dataset.splits.values())
    print(f"wrote {n_total} samples ({args.system}, grid {dataset.grid.points}) to {out}")
    for name, rng in audit.items():
        print(f"  {name}: [{rng['min']:.4g}, {rng['max']:.4g}]")
    return 0


def _model_config_from_args(args, dataset, use_dimnorm) -> ModelConfig:
    batch = dataset.split("train")
    return ModelConfig(
        system=dataset.system,
        in_fields=list(batch.fields),
        target_fields=list(batch.targets),
        rank=dataset.grid.rank,
        width=args.width,
        depth=args.depth,
        modes=args.modes,
        gamma=args.gamma,
        use_dimnorm=use_dimnorm,
        precision=args.precision,
        init_seed=args.seed,
    )


def cmd_train(args) -> int:
    out = _out_dir(args)
    dataset = load_dataset(args.data)
    cfg = TrainConfig(
        loss=args.loss,
        epochs=args.epochs,
        batch_size=args.batch_size,
        lr=args.lr,
        seed=args.seed,
        patience=args.patience,
    )
    variants = [("dimino", True)]
    if args.ablate_gate:
        variants.append(("ablated", False))
    tables = {}
    for name, use_dimnorm in variants:
        model = DimINOModel(_model_config_from_args(args, dataset, use_dimnorm))
        model, history = train(model, dataset, cfg)
        ckpt = out / (f"{name}-checkpoint.bin" if args.ablate_gate else "checkpoint.bin")
        out.mkdir(parents=True, exist_ok=True)
        save_model(model, ckpt)
        (out / f"{name}-history.jsonl").write_text(history_json(history))
        split = "test" if "test" in dataset.splits else "train"
        tables[name] = evaluate(model, dataset, split)
        print(f"{name}: best valid rel-L2 {min(h['valid_rel-l2'] for h in history):.4f} "
              f"({len(history)} epochs), {split} rel-L2 {tables[name]['rel-l2']:.4f}")
    if "ablated" in tables:
        tables["dimino"].update(gains(tables["ablated"], tables["dimino"]))
        print(format_metric_table(tables))
    (out / "metrics.json").write_text(json.dumps(tables, indent=2, sort_keys=True) + "\n")
    _write_run_record(out, args, {"dataset_hash": dataset_hash(args.data)})
    return 0


def cmd_eval(args) -> int:
    dataset = load_dataset(args.data)
    model = load_model(args.ckpt)
    rows = {"model": evaluate(model, dataset, args.split)}
    if args.baseline_ckpt:
        rows["baseline"] = evaluate(load_model(args.baseline_ckpt), dataset, args.split)
        rows["model"].update(gains(rows["baseline"], rows["model"]))
    print(format_metric_table(rows))
    if args.out:
        out = _out_dir(args)
        out.mkdir(parents=True, exist_ok=True)
        (out / "metrics.json").write_text(json.dumps(rows, indent=2, sort_keys=True) + "\n")
        _write_run_record(
            out, args,
            {"dataset_hash": dataset_hash(args.data), "ckpt_hash": _file_hash(args.ckpt)},
        )
    return 0


def cmd_sti_check(args) -> int:
    if args.n < 1:
        raise ValueError(f"--n must be >= 1, got {args.n}")
    dataset = load_dataset(args.data)
    model = load_model(args.ckpt)
    baseline = load_model(args.baseline_ckpt) if args.baseline_ckpt else None
    default = "test" if "test" in dataset.splits else "train"
    batch = dataset.split(default if args.split is None else args.split)[: args.n]
    p_list = [float(p) for p in args.p.split(",")]
    cfg = SolverConfig(steps=args.solver_steps)
    report = sti_check(model, batch, p_list, baseline, cfg)
    print(report.format_table())
    if args.oracle:
        res = solver_sti_oracle(batch[:4], max(p_list), cfg)
        print(f"solver oracle residual at p={max(p_list):g}: {res:.2e}")
    if args.out:
        out = _out_dir(args)
        out.mkdir(parents=True, exist_ok=True)
        (out / "sti-report.json").write_text(report.to_json() + "\n")
        _write_run_record(
            out, args,
            {"dataset_hash": dataset_hash(args.data), "ckpt_hash": _file_hash(args.ckpt)},
        )
    # np.max propagates NaN, and a NaN residual fails the gate
    worst_latent = np.max([e.latent_residual for e in report.entries])
    if args.max_latent is not None and not worst_latent <= args.max_latent:
        print(f"error: latent residual {worst_latent:.3e} > {args.max_latent:.3e}",
              file=sys.stderr)
        return 1
    return 0


def cmd_grad_check(args) -> int:
    results = standard_primitive_checks(seed=args.seed)
    worst = 0.0
    for name, err in sorted(results.items()):
        print(f"{name:<24}{err:.3e}")
        worst = max(worst, err)

    dataset = generate_dataset("advection1d", {}, 2, args.seed, Grid((16,), (1.0,)), 1.0)
    cfg = ModelConfig(
        system="advection1d", in_fields=["u"], target_fields=["u"], rank=1,
        width=6, depth=4, modes=4, init_seed=args.seed,
    )
    model = DimINOModel(cfg)
    for row, loss_kind in (("full-model", "l2"), ("full-model-h1", "h1")):
        err = grad_check_model(model, dataset.split("train"), loss_kind, seed=args.seed)
        print(f"{row:<24}{err:.3e}")
        worst = max(worst, err)
    print(f"worst relative error: {worst:.3e}")
    if worst > args.threshold:
        print(f"error: gradient check failed ({worst:.3e} > {args.threshold:.1e})",
              file=sys.stderr)
        return 1
    return 0


def cmd_dump_registry(args) -> int:
    print(dims.registry_table(), end="")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dimino",
        description="dimension-informed neural operator laboratory",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate a PDE dataset")
    p.add_argument("--system", choices=list(DEFAULT_PARAM_RANGES), required=True)
    p.add_argument("--n", type=int, default=_default(generate_dataset, "n_samples"))
    p.add_argument("--n-test", type=int, default=0)
    p.add_argument("--seed", type=int, default=_default(generate_dataset, "seed"))
    p.add_argument("--grid", help="points per axis, comma separated")
    p.add_argument("--t", type=float, help="prediction interval")
    p.add_argument("--param", action="append", metavar="NAME,LO,HI",
                   help="draw parameter NAME log-uniformly from [LO, HI] (0 < LO <= HI); "
                        "repeatable")
    p.add_argument("--solver-steps", type=int)
    p.add_argument("--dtype", choices=WRITABLE_DTYPES,
                   default=_default(save_dataset, "dtype"))
    p.add_argument("--out", help="dataset directory (default: runs/gen-data)")
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("train", help="train a model (optionally with its ablated twin)")
    p.add_argument("--data", required=True)
    p.add_argument("--out", help="run directory (default: runs/train)")
    p.add_argument("--loss", choices=LOSS_KINDS, default=TrainConfig.loss)
    p.add_argument("--epochs", type=int, default=TrainConfig.epochs)
    p.add_argument("--batch-size", type=int, default=TrainConfig.batch_size)
    p.add_argument("--lr", type=float, default=TrainConfig.lr)
    p.add_argument("--seed", type=int, default=TrainConfig.seed)
    p.add_argument("--width", type=int, default=ModelConfig.width)
    p.add_argument("--depth", type=int, default=ModelConfig.depth)
    p.add_argument("--modes", type=int, default=ModelConfig.modes)
    p.add_argument("--gamma", type=float, default=ModelConfig.gamma)
    p.add_argument("--patience", type=int, default=TrainConfig.patience)
    p.add_argument("--precision", choices=PRECISIONS, default=ModelConfig.precision)
    p.add_argument("--ablate-gate", action="store_true",
                   help="also train the raw-input twin (no DimNorm, gate or "
                        "redimensionalization) for paired comparison")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint")
    p.add_argument("--data", required=True)
    p.add_argument("--ckpt", required=True)
    p.add_argument("--split", default="test")
    p.add_argument("--baseline-ckpt")
    p.add_argument("--out", help="write metrics.json and run.json here (default: no files)")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("sti-check", help="similarity-transform invariance report")
    p.add_argument("--data", required=True)
    p.add_argument("--ckpt", required=True)
    p.add_argument("--baseline-ckpt")
    p.add_argument("--p", default="1,2,4,8", help="comma-separated finite positive "
                   "factors; 1 is always added; duplicates are dropped")
    p.add_argument("--n", type=int, default=8, help="check the split's first N >= 1 samples")
    p.add_argument("--split", help="split to check (default: test if present, else train)")
    p.add_argument("--solver-steps", type=int,
                   help="fixed step count of the ground-truth solves (>= 1)")
    p.add_argument("--max-latent", type=float,
                   help="exit 1 if the latent residual exceeds this or is NaN")
    p.add_argument("--oracle", action="store_true",
                   help="also run the solver-only invariance oracle")
    p.add_argument("--out", help="write sti-report.json and run.json here (default: no files)")
    p.set_defaults(func=cmd_sti_check)

    p = sub.add_parser("grad-check", help="finite-difference gradient audit")
    p.add_argument("--seed", type=int, default=_default(standard_primitive_checks, "seed"))
    p.add_argument("--threshold", type=float, default=1e-6)
    p.set_defaults(func=cmd_grad_check)

    p = sub.add_parser("dump-registry", help="print the dimensionless-number registry")
    p.set_defaults(func=cmd_dump_registry)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except KeyboardInterrupt:
        return 130
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
