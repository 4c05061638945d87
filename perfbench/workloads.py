"""The benchmark's three closed-loop workloads.

Each workload has an in-process ``setup`` (data generation, dataset
save/load, model init or checkpoint round trip, warm-up) and a ``round``: one
fixed, seed-determined unit of user-visible work, repeated until the run's
time is up.  Every round yields the same output digest, so repetitions (and
traced against untraced rounds) must agree bit for bit.

Workloads call dimino through module attributes (``training.train``, not a
name imported from it), so the tracer's patches see every call.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from dimino import cli, data, model, solvers, sti, training

# Acceptance-suite tolerances, unchanged.
STI_LATENT_TOL = 1e-12
STI_SCALING_TOL = 1e-10


@dataclass
class Round:
    """One round's timed work, op accounting and output digest."""

    phases: dict = field(default_factory=dict)  # metric name -> (seconds, samples)
    latencies_ms: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    digest: str = ""
    errors: list = field(default_factory=list)
    wall: float = 0.0
    scale: float = 1.0  # set by the runner from the reference kernel

    def add(self, seconds: float, samples: int, *phases: str) -> None:
        """Book timed work to one or more (overlapping) phases."""
        self.wall += seconds
        for phase in phases:
            sec, n = self.phases.get(phase, (0.0, 0))
            self.phases[phase] = (sec + seconds, n + samples)

    def fail(self, n: int, why: str) -> None:
        self.failed += n
        self.errors.append(why)


def _digest(*chunks) -> str:
    h = hashlib.blake2b(digest_size=16)
    for c in chunks:
        h.update(c if isinstance(c, bytes) else str(c).encode())
    return h.hexdigest()


def _params_digest(m) -> str:
    return _digest(*(name.encode() + np.ascontiguousarray(m.params[name]).tobytes()
                     for name in sorted(m.params)))


def _fresh(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


# Self-check predictions.  ``loads``: layers each workload is predicted to
# load, so every metric of theirs must read nonzero in its traced run.
# ``zeros``: (metric, scope) pairs that must read exactly 0, where scope
# "run" is the traced set-up plus every traced round and "rounds" the
# traced rounds alone.
FORWARD_PRIMS = ("linear", "gelu", "layernorm", "rfftn", "irfftn", "mode_mix",
                 "gate_expand", "gate_mul", "add", "const_mul")
LOSS_PRIMS = ("sub", "reduce_sum", "power", "sqrt", "smul")


class TrainAdv1d:
    """Paired advection training: the gated model, then its raw twin."""

    name = "train-adv1d"
    primary = "train.samples_per_s"
    grid = ((256,), (1.0,))
    n_samples = 256
    ranges = {"amp": (0.01, 100.0)}
    epochs = 2
    batch_size = 16
    loads = (
        "dims.characteristic_scales_from_sample", "dims.compute_dimensionless",
        *(f"autodiff.{p}" for p in FORWARD_PRIMS + LOSS_PRIMS),
        "autodiff.Tape.backward", "model.DimINOModel.forward", "model.DimINOModel.predict",
        "training.build_loss", "training.adam_step", "training.evaluate_samples",
        "training.rel_metric", "data.save_dataset", "data.load_dataset",
        "data.dataset_hash", "training.step_ms", "solvers.useful_ratio",
    )
    zeros = (("solvers.solve_sample.calls", "rounds"),)

    def _model_config(self, gated: bool, seed: int):
        return model.ModelConfig("advection1d", ["u"], ["u"], 1, width=16, depth=4,
                                 modes=12, use_dimnorm=gated, init_seed=seed)

    def setup(self, seed: int, work: Path) -> dict:
        grid = data.Grid(*self.grid)
        ds = solvers.generate_dataset("advection1d", self.ranges, self.n_samples,
                                      seed, grid, 1.0)
        path = data.save_dataset(ds, _fresh(work / "adv1d"))
        ds = data.load_dataset(path)
        data.dataset_hash(path)
        cfg = training.TrainConfig(loss="h1", epochs=self.epochs,
                                   batch_size=self.batch_size, seed=seed, patience=0)
        batch = ds.split("train")[: self.batch_size]
        target = np.stack([s.targets["u"] for s in batch])[..., None]
        for gated in (True, False):
            warm = model.DimINOModel(self._model_config(gated, seed))
            result = warm.forward(batch, train=True)
            loss = training.build_loss("h1", result.output, target, 1, grid.extent)
            result.tape.backward(loss)
        n = len(ds.split("train"))
        n_train = n - max(1, int(round(cfg.valid_frac * n)))
        return {"ds": ds, "cfg": cfg, "seed": seed,
                "steps": self.epochs * math.ceil(n_train / self.batch_size),
                "n_train": n_train}

    def round(self, st: dict, untraced) -> Round:
        r = Round()
        digests = []
        for gated, phase in ((True, "train.samples_per_s"),
                             (False, "train.twin_samples_per_s")):
            m = model.DimINOModel(self._model_config(gated, st["seed"]))
            r.attempted += st["steps"]
            t0 = time.perf_counter()
            try:
                m, history = training.train(m, st["ds"], st["cfg"])
            except Exception as exc:  # a failed step is a failed op, not a crash
                r.add(time.perf_counter() - t0, 0, phase)
                r.fail(st["steps"], f"{phase}: {exc!r}")
                digests.append("error")
                continue
            r.add(time.perf_counter() - t0, self.epochs * st["n_train"], phase)
            with untraced():
                finite = len(history) == self.epochs and all(
                    math.isfinite(v) for h in history for v in h.values())
                if not finite:
                    r.fail(st["steps"], f"{phase}: non-finite loss or metric")
                digests.append(_params_digest(m))
        r.digest = _digest(*digests)
        return r


class StiNs2d:
    """Checkpointed NS models: batched inference, then the STI sweep."""

    name = "sti-ns2d"
    primary = "infer.samples_per_s"
    grid = ((32, 32), (1.0, 1.0))
    ranges = {"amp": (0.1, 0.2), "nu": (5e-3, 6e-3), "f_amp": (5.0, 10.0)}
    n_samples = 32
    batch_size = 8
    infer_passes = 6
    n_sti = 8
    p_list = (1.0, 2.0, 4.0, 8.0)
    loads = (
        "dims.characteristic_scales_from_sample", "dims.compute_dimensionless",
        "dims.similar_transform", *(f"autodiff.{p}" for p in FORWARD_PRIMS),
        "model.DimINOModel.forward", "model.DimINOModel.predict", "model.save_model",
        "model.load_model", "training.rel_metric", "solvers.generate_dataset",
        "solvers.solve_sample", "solvers.solve_sample.ns-vorticity2d",
        "solvers.useful_ratio", "data.save_dataset", "data.load_dataset",
        "data.dataset_hash", "sti.sti_check",
    )
    zeros = (("autodiff.Tape.backward.calls", "run"),)

    def _model_config(self, gated: bool, seed: int):
        return model.ModelConfig("ns-vorticity2d", ["omega", "f"], ["omega"], 2,
                                 width=16, depth=4, modes=8, use_dimnorm=gated,
                                 init_seed=seed)

    def setup(self, seed: int, work: Path) -> dict:
        ds = solvers.generate_dataset("ns-vorticity2d", self.ranges, self.n_samples,
                                      seed, data.Grid(*self.grid), 1.0, split="test")
        root = _fresh(work / "ns2d")
        path = data.save_dataset(ds, root / "data")
        ds = data.load_dataset(path)
        data.dataset_hash(path)
        loaded = {}
        for gated, name in ((True, "gated"), (False, "twin")):
            ckpt = root / f"{name}.bin"
            model.save_model(model.DimINOModel(self._model_config(gated, seed)), ckpt)
            loaded[name] = model.load_model(ckpt)
        samples = ds.split("test")
        for m in loaded.values():
            m.predict(samples[: self.batch_size])
        return {"samples": samples, **loaded}

    def round(self, st: dict, untraced) -> Round:
        r = Round()
        samples, gated = st["samples"], st["gated"]
        batches = [samples[i:i + self.batch_size]
                   for i in range(0, len(samples), self.batch_size)]
        preds = []
        for _ in range(self.infer_passes):
            for batch in batches:
                r.attempted += 1
                t0 = time.perf_counter()
                try:
                    pred = gated.predict(batch)
                except Exception as exc:
                    r.add(time.perf_counter() - t0, 0, "infer.samples_per_s")
                    r.fail(1, f"predict: {exc!r}")
                    continue
                dt = time.perf_counter() - t0
                r.add(dt, len(batch), "infer.samples_per_s")
                r.latencies_ms.append(1e3 * dt)
                with untraced():
                    if pred.shape != (len(batch), *self.grid[0], 1) or not np.all(np.isfinite(pred)):
                        r.fail(1, "predict: wrong shape or non-finite output")
                    preds.append(pred.tobytes())
        checked = samples[: self.n_sti]
        n_pairs = len(checked) * len(self.p_list)
        r.attempted += n_pairs
        t0 = time.perf_counter()
        try:
            report = sti.sti_check(gated, checked, list(self.p_list), st["twin"])
        except Exception as exc:
            r.add(time.perf_counter() - t0, 0, "sti.samples_per_s")
            r.fail(n_pairs, f"sti_check: {exc!r}")
            r.digest = "error"
            return r
        r.add(time.perf_counter() - t0, n_pairs, "sti.samples_per_s")
        with untraced():
            seen = [e.p for e in report.entries]
            if seen != list(self.p_list):
                r.fail(n_pairs, f"sti_check: report covers p={seen}")
            for e in report.entries:
                values = (e.model_rel_l2, e.baseline_single_shot, e.baseline_rollout)
                if not (e.latent_residual < STI_LATENT_TOL
                        and e.output_scaling_residual < STI_SCALING_TOL
                        and all(math.isfinite(v) for v in values)):
                    r.fail(len(checked), f"sti_check p={e.p:g}: latent "
                           f"{e.latent_residual:.2e}, scaling {e.output_scaling_residual:.2e}")
            r.digest = _digest(*preds, report.to_json())
        return r


class GenData:
    """``dimino gen-data`` in-process for the three solved systems."""

    name = "gen-data"
    primary = "gen.samples_per_s"
    # (system, samples, extra CLI arguments).  Parameters that change the
    # solver's work are pinned, so every seed asks for the same amount: the
    # initial amplitude sets the CFL step count of burgers1d and
    # ns-vorticity2d, and diffreact2d's time per step grows with its
    # coefficients (about 20 % from D = 1e-3 to 1e-2), so they sit at the
    # geometric centre of the default ranges.
    mix = (
        ("burgers1d", 2, ("--param", "amp,1,1")),
        ("diffreact2d", 1, ("--param", "Du,3.1623e-3,3.1623e-3",
                            "--param", "Dv,3.1623e-3,3.1623e-3",
                            "--param", "k,3.1623e-3,3.1623e-3",
                            "--param", "amp,0.31623,0.31623")),
        ("ns-vorticity2d", 4, ("--param", "amp,1,1")),
    )
    loads = (
        "solvers.generate_dataset", "solvers.solve_sample",
        *(f"solvers.solve_sample.{s}" for s, _, _ in mix),
        "solvers.useful_ratio", "data.save_dataset", "data.dataset_hash", "cli.main",
    )
    zeros = (("autodiff.Tape.backward.calls", "run"), ("model.forward.calls", "run"))

    def _args(self, system, n, extra, seed, out):
        return ["gen-data", "--system", system, "--n", str(n), "--seed", str(seed),
                "--out", str(out), *extra]

    def _gen(self, argv):
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            rc = cli.main(argv)
        return rc, sink.getvalue()

    def setup(self, seed: int, work: Path) -> dict:
        root = _fresh(work / "gen")
        for system, _, _ in self.mix:
            grid = "16" if system == "burgers1d" else "16,16"
            rc, out = self._gen(self._args(system, 1, ("--grid", grid, "--t", "0.01"),
                                           seed, root / f"warm-{system}"))
            if rc != 0:
                raise RuntimeError(f"gen-data warm-up for {system} failed: {out}")
        return {"root": root, "seed": seed}

    def round(self, st: dict, untraced) -> Round:
        r = Round()
        hashes = []
        for system, n, extra in self.mix:
            out = st["root"] / system
            with untraced():
                shutil.rmtree(out, ignore_errors=True)
            r.attempted += n
            t0 = time.perf_counter()
            rc, log = self._gen(self._args(system, n, extra, st["seed"], out))
            dt = time.perf_counter() - t0
            if rc != 0:
                r.add(dt, 0, "gen.samples_per_s")
                r.fail(n, f"gen-data {system}: exit {rc}: {log.strip()}")
                hashes.append("error")
                continue
            r.add(dt, n, "gen.samples_per_s", f"gen.{system}.samples_per_s")
            with untraced():
                digest = data.dataset_hash(out)
                hashes.append(digest)
                problem = self._round_trip(out, n, digest, st["root"] / "roundtrip")
                if problem:
                    r.fail(n, f"gen-data {system}: {problem}")
        r.digest = _digest(*hashes)
        return r

    @staticmethod
    def _round_trip(out: Path, n: int, digest: str, scratch: Path) -> str:
        """'' if load_dataset returns exactly what was written, else why not."""
        ds = data.load_dataset(out)
        samples = [s for split in ds.splits.values() for s in split]
        if len(samples) != n:
            return f"{len(samples)} samples loaded, {n} generated"
        for s in samples:
            if not all(np.all(np.isfinite(a)) for a in (*s.fields.values(), *s.targets.values())):
                return "non-finite field or target"
        dtype = json.loads((out / "manifest.json").read_text())["dtype"]
        again = data.save_dataset(ds, _fresh(scratch), dtype=dtype)
        if data.dataset_hash(again) != digest:
            return "load_dataset/save_dataset round trip changed the bytes"
        return ""


WORKLOADS = {w.name: w for w in (TrainAdv1d(), StiNs2d(), GenData())}
