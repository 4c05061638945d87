"""Losses, metrics, optimizer, and the training/evaluation loop.

``mean_error`` is the one rule that turns prediction and target stacks into a
reported error: every validation value, ``evaluate`` metric and STI error row."""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from . import autodiff as ad
from . import spectral
from .data import Batch, Dataset
from .model import DimINOModel, FieldSetMismatch, Inputs

METRIC_KINDS = ("rel-l2", "rel-h1", "rel-l1")
LOSS_KINDS = ("h1", "l2")
EVAL_BATCH = 32
# Floor on each sample's loss denominator.  A zero target's denominator is
# floored here, so its term is 1e15 times its error norm, against about 1 for
# every other sample: it swamps the batch loss, and nothing warns.
LOSS_FLOOR = 1e-30
ADAM_BETAS = (0.9, 0.999)
ADAM_EPS = 1e-8
GRAD_CHECK_SAMPLES = 4  # coordinates grad_check_model perturbs per parameter


class NaNLoss(Exception):
    def __init__(self, epoch, step):
        super().__init__(f"loss became non-finite at epoch {epoch}, step {step}")
        self.epoch = epoch
        self.step = step


class MissingSplit(Exception):
    pass


def _h1_norm2(f: np.ndarray, axes, extent) -> np.ndarray:
    """Squared H1 norm sum(f**2) + ``spectral.h1_seminorm2``, summed over the
    consecutive spatial ``axes`` and every axis after them."""
    sum_axes = tuple(range(axes[0], f.ndim))
    return np.sum(f**2, axis=sum_axes) + spectral.h1_seminorm2(f, axes, extent)[0]


def _sq_norms(x: np.ndarray) -> np.ndarray:
    """Each row's ``np.linalg.norm(row.ravel()) ** 2``: one dot product of a C-contiguous copy."""
    x = np.ascontiguousarray(x).reshape(len(x), math.prod(x.shape[1:]))
    return (x[:, None, :] @ x[:, :, None])[:, 0, 0]


def rel_metric(kind: str, pred: np.ndarray, target: np.ndarray,
               extent=None) -> np.ndarray:
    """Relative error of each row of a (B, ...) stack over its other axes, as
    float64 (B,); a row whose target vanishes is scored by its absolute norm."""
    if pred.shape != target.shape:
        raise ad.ShapeMismatch(f"{pred.shape} vs {target.shape}")
    e, axes = pred - target, tuple(range(1, pred.ndim))
    if kind == "rel-l2":
        num, den = np.sqrt(_sq_norms(e)), np.sqrt(_sq_norms(target))
    elif kind == "rel-l1":
        num, den = np.abs(e).sum(axis=axes), np.abs(target).sum(axis=axes)
    elif kind == "rel-h1":
        extent = (1.0,) * len(axes) if extent is None else tuple(extent)
        num = np.sqrt(_h1_norm2(e, axes, extent))
        den = np.sqrt(_h1_norm2(target, axes, extent))
    else:
        raise ValueError(f"unknown metric kind {kind!r}")
    return np.divide(num, den, out=num, where=den != 0).astype(np.float64)


def mean_error(kind: str, pred: np.ndarray, target: np.ndarray, extent=None) -> float:
    """Mean ``rel_metric`` of (B, *grid, C) stacks over their (row, field)
    pairs, scored as C-contiguous field-major (B*C, *grid) copies (a strided
    slab would change numpy's summation order), and folded in (row, field)
    order by ``np.cumsum`` (``np.sum`` and ``np.mean`` would sum pairwise)."""
    pred, target = (np.ascontiguousarray(np.moveaxis(x, -1, 1)).reshape(-1, *x.shape[1:-1])
                    for x in (pred, target))
    scores = rel_metric(kind, pred, target, extent)
    return float(np.cumsum(scores)[-1]) / scores.size


def build_loss(kind: str, out: ad.Tensor, target: np.ndarray, rank: int,
               extent=None) -> ad.Tensor:
    """Differentiable batch loss: mean over samples of the relative norm."""
    if kind not in LOSS_KINDS:
        raise ValueError(f"loss must be one of {LOSS_KINDS}, got {kind!r}")
    tape = out.tape
    b = target.shape[0]
    spatial_axes = tuple(range(1, 1 + rank))
    reduce_axes = spatial_axes + (1 + rank,)
    extent = (1.0,) * rank if extent is None else tuple(extent)
    e = ad.sub(out, tape.leaf(target.astype(out.data.dtype)))
    num = ad.reduce_sum(ad.power(e, 2), axes=reduce_axes)
    if kind == "h1":
        num = ad.add(num, ad.h1_seminorm2(e, spatial_axes, extent))
        den = _h1_norm2(target, spatial_axes, extent)
    else:
        den = np.sum(target**2, axis=reduce_axes)
    inv_den = (1.0 / np.maximum(den, LOSS_FLOOR)).astype(out.data.dtype)
    ratio = ad.const_mul(num, inv_den)
    return ad.smul(ad.reduce_sum(ad.sqrt(ratio)), 1.0 / b)


def adam_step(params: List[np.ndarray], grads: List[np.ndarray], state: dict,
              lr: float) -> Tuple[list, dict]:
    """One Adam update with bias correction; arrays are updated in place.

    With (b1, b2) = ``ADAM_BETAS`` and eps = ``ADAM_EPS``, each update is
    m = b1*m + (1-b1)*g, v = b2*v + (1-b2)*|g|**2, then
    p -= lr*mhat / (sqrt(vhat) + eps); every operation writes into the
    moments or into scratch that ``state`` keeps, so a step allocates nothing.
    """
    if not state:
        state["step"] = 0
        state["m"] = [np.zeros_like(p) for p in params]
        state["v"] = [np.zeros_like(p) for p in params]
        state["scratch"] = [(np.empty_like(p), np.empty_like(p), np.empty(p.shape, p.real.dtype))
                            for p in params]
    b1, b2 = ADAM_BETAS
    state["step"] += 1
    t = state["step"]
    for p, g, m, v, (s, u, r) in zip(params, grads, state["m"], state["v"], state["scratch"]):
        m *= b1
        m += np.multiply(1 - b1, g, out=s)
        v *= b2
        np.square(np.abs(g, out=r), out=r)
        v += np.multiply(1 - b2, r, out=r)
        mhat = np.divide(m, 1 - b1**t, out=s)
        vhat = np.divide(v, 1 - b2**t, out=u)
        denom = np.add(np.sqrt(vhat, out=u), ADAM_EPS, out=u)
        p -= np.divide(np.multiply(lr, mhat, out=s), denom, out=s)
    return params, state


class _FlatParams:
    """Parameters packed into one flat array per dtype, in order of first
    appearance, with a flat gradient buffer for each: ``views`` maps every
    name, in the original order, to a view of its slice, and ``gather``
    copies a step's leaf gradients into the gradient buffers.  Adam's
    operations are elementwise, so one update of the flat arrays gives each
    parameter the same bits as an update of that parameter alone."""

    def __init__(self, params: Dict[str, np.ndarray]):
        groups: Dict[np.dtype, List[str]] = {}
        for name, p in params.items():
            groups.setdefault(p.dtype, []).append(name)
        self.groups = list(groups.values())
        self.flat = [np.concatenate([params[n].ravel() for n in names]) for names in self.groups]
        self.grads = [np.empty_like(f) for f in self.flat]
        views = {}
        for names, flat in zip(self.groups, self.flat):
            start = 0
            for n in names:
                views[n] = flat[start:start + params[n].size].reshape(params[n].shape)
                start += params[n].size
        self.views = {n: views[n] for n in params}

    def gather(self, leaves: Dict[str, ad.Tensor]) -> List[np.ndarray]:
        for names, g in zip(self.groups, self.grads):
            np.concatenate([leaves[n].grad.ravel() for n in names], out=g)
        return self.grads


@dataclass
class TrainConfig:
    loss: str = "h1"
    epochs: int = 200
    batch_size: int = 16
    lr: float = 2e-3
    seed: int = 0
    warmup_epochs: int = 5
    patience: int = 30
    valid_frac: float = 0.2

    def __post_init__(self):
        if self.loss not in LOSS_KINDS:
            raise ValueError(f"loss must be one of {LOSS_KINDS}, got {self.loss!r}")
        for name, low in (("epochs", 1), ("batch_size", 1), ("lr", 0), ("patience", 0),
                          ("warmup_epochs", 0)):
            if not getattr(self, name) >= low:  # NaN fails too
                raise ValueError(f"{name} must be >= {low}, got {getattr(self, name)}")
        if not 0.0 < self.valid_frac < 1.0:
            raise ValueError(f"valid_frac must lie in (0, 1), got {self.valid_frac}")


def _lr_at(cfg: TrainConfig, epoch: int) -> float:
    """Linear warm-up, then cosine decay to zero at the last epoch."""
    if cfg.warmup_epochs > 0 and epoch < cfg.warmup_epochs:
        return cfg.lr * (epoch + 1) / cfg.warmup_epochs
    if cfg.epochs <= cfg.warmup_epochs:
        return cfg.lr
    frac = (epoch - cfg.warmup_epochs) / max(cfg.epochs - cfg.warmup_epochs, 1)
    return cfg.lr * 0.5 * (1 + math.cos(math.pi * min(frac, 1.0)))


def train(model: DimINOModel, dataset: Dataset, cfg: TrainConfig
          ) -> Tuple[DimINOModel, List[dict]]:
    """Train with Adam; retains the best-valid checkpoint.

    Fully deterministic for a fixed (cfg.seed, single-thread BLAS).  The
    train and valid splits are prepared, targets included, once; each step
    gathers its rows.  One ``ad.Workspace`` serves every step and every
    validation pass of the call, and Adam updates the parameters packed into
    one flat array per dtype (``model.params`` holds views of them until the
    best checkpoint is restored); both give the bits of the plain loop.
    """
    samples = dataset.split("train")
    rng = np.random.default_rng(cfg.seed)
    perm = rng.permutation(len(samples))
    n_valid = max(1, int(round(cfg.valid_frac * len(samples))))
    if n_valid >= len(samples):
        raise ValueError("dataset too small to split")
    inputs = _scored_inputs(model, samples[perm[n_valid:]])
    valid_inputs = _scored_inputs(model, samples[perm[:n_valid]])

    flat = _FlatParams(model.params)
    model.params = flat.views
    state: dict = {}
    history: List[dict] = []
    best = {"rel-l2": math.inf, "params": None, "epoch": -1}
    rank = model.config.rank
    extent = dataset.grid.extent
    with ad.Workspace():
        for epoch in range(cfg.epochs):
            lr = _lr_at(cfg, epoch)
            order = np.random.default_rng([cfg.seed, epoch]).permutation(len(inputs.x))
            losses = []
            for step, start in enumerate(range(0, len(order), cfg.batch_size)):
                batch = inputs.take(order[start:start + cfg.batch_size])
                result = model.forward(batch, train=True)
                loss = build_loss(cfg.loss, result.output, batch.targets, rank, extent)
                if not np.isfinite(loss.data):
                    raise NaNLoss(epoch, step)
                if lr > 0:
                    result.tape.backward(loss)
                    adam_step(flat.flat, flat.gather(result.leaves), state, lr)
                losses.append(float(loss.data))
            metrics = evaluate_samples(model, valid_inputs, extent)
            record = {
                "epoch": epoch,
                "lr": lr,
                "train_loss": float(np.mean(losses)),
                **{f"valid_{k}": metrics[k] for k in METRIC_KINDS},
            }
            history.append(record)
            if metrics["rel-l2"] < best["rel-l2"]:
                best = {
                    "rel-l2": metrics["rel-l2"],
                    "params": {k: v.copy() for k, v in model.params.items()},
                    "epoch": epoch,
                }
            if cfg.patience and epoch - best["epoch"] >= cfg.patience:
                break
    if best["params"] is not None:
        model.params = best["params"]
    return model, history


def _scored_inputs(model: DimINOModel, batch: Batch) -> Inputs:
    """``model.prepare(batch)``; a batch without targets raises FieldSetMismatch."""
    inputs = model.prepare(batch)
    if inputs.targets is None:
        raise FieldSetMismatch(f"the samples lack every target field {model.config.target_fields}")
    return inputs


def evaluate_samples(model: DimINOModel, inputs: Inputs, extent) -> Dict[str, float]:
    """``mean_error`` of each metric kind: prepared ``inputs``, predicted
    ``EVAL_BATCH`` rows at a time, against their targets."""
    pred = np.concatenate([model.predict(inputs.take(slice(start, start + EVAL_BATCH)))
                           for start in range(0, len(inputs.x), EVAL_BATCH)])
    return {k: mean_error(k, pred, inputs.targets, extent) for k in METRIC_KINDS}


def evaluate(model: DimINOModel, dataset: Dataset, split: str) -> Dict[str, float]:
    """Metric table for a split; ``gains`` adds the gain columns over another."""
    try:
        batch = dataset.split(split)
    except KeyError as exc:
        raise MissingSplit(str(exc)) from exc
    if not len(batch):
        raise MissingSplit(f"split {split!r} has no samples")
    table = evaluate_samples(model, _scored_inputs(model, batch), dataset.grid.extent)
    table["n"] = len(batch)
    return table


def grad_check_model(model: DimINOModel, batch: Batch, loss_kind: str = "l2",
                     seed: int = 0) -> float:
    """Finite-difference check of the full forward/backward pipeline at
    ``GRAD_CHECK_SAMPLES`` coordinates of each parameter."""
    names = list(model.params)
    inputs = _scored_inputs(model, batch)
    rank = model.config.rank

    def f(*leaves):
        ld = dict(zip(names, leaves))
        result = model.forward(inputs, tape=leaves[0].tape, leaves=ld)
        return build_loss(loss_kind, result.output, inputs.targets, rank)

    return ad.grad_check(f, [model.params[n] for n in names], n_sample=GRAD_CHECK_SAMPLES,
                         seed=seed)


def gains(base: Dict[str, float], table: Dict[str, float]) -> Dict[str, float]:
    """Gain columns (base - score) / base of ``table`` over ``base``, omitted
    where the base score is zero or missing."""
    return {f"{k}-gain": (base[k] - table[k]) / base[k] for k in METRIC_KINDS if base.get(k)}


def format_metric_table(rows: Dict[str, Dict[str, float]]) -> str:
    """Rows: model name -> metric dict.  Values reported in units of 1e-2;
    every cell starts with a space, so a wide value never runs into the next."""
    cols = list(METRIC_KINDS) + [f"{k}-gain" for k in METRIC_KINDS]
    header = f"{'model':<24}" + "".join(f" {c:>13}" for c in cols)
    lines = [header]
    for name, table in rows.items():
        cells = []
        for c in cols:
            v = table.get(c)
            if v is None:
                cells.append(f" {'-':>13}")
            elif c.endswith("gain"):
                cells.append(f" {100 * v:>12.1f}%")
            else:
                cells.append(f" {100 * v:>13.3f}")
        lines.append(f"{name:<24}" + "".join(cells))
    return "\n".join(lines)


def history_json(history: List[dict]) -> str:
    """Line-delimited history records."""
    return "\n".join(json.dumps(rec, sort_keys=True) for rec in history) + "\n"
