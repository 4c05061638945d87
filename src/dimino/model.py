"""The dimension-informed operator model.

Pipeline: LayerNorm -> FFW_pre -> DimGate -> spectral block stack -> head,
with redimensionalization multiplying the dimensionless prediction by the
target characteristic scales as the last step.  The gate MLP reads the log
of the registry's dimensionless numbers; the spectral blocks are the FNO
block of Li et al. (arXiv 2010.08895), with its Fourier transforms evaluated
at the kept modes only (``ad.rfftn``/``ad.irfftn`` given ``modes``).  Setting
``use_dimnorm=False`` builds the baseline twin: raw field, constant and
prediction-interval channels in, physical prediction out, no per-sample
scaling anywhere.  The model reads a ``data.Batch`` of (B, ...) columns;
``prepare`` turns it into the network's inputs once.
"""
from __future__ import annotations

from dataclasses import asdict, dataclass, fields
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from . import autodiff as ad
from . import dims
from .autodiff import Tape, Tensor
from .data import Batch, read_sealed, write_sealed

CKPT_MAGIC = b"DINOCKPT"
CKPT_VERSION = 5
PRECISIONS = ("f64", "f32")


class ModelError(Exception):
    pass


class ModeOverflow(ModelError):
    pass


class FieldSetMismatch(ModelError):
    pass


class CorruptCheckpoint(ModelError):
    pass


@dataclass
class ModelConfig:
    system: str
    in_fields: List[str]
    target_fields: List[str]
    rank: int
    width: int = 32
    depth: int = 4
    modes: int = 12
    gamma: float = 0.5
    use_dimnorm: bool = True
    precision: str = "f64"
    init_seed: int = 0

    def __post_init__(self):
        for name in ("width", "depth", "modes"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if not 0.0 <= self.gamma <= 1.0:
            raise ValueError(f"gamma must lie in [0, 1], got {self.gamma}")
        if self.precision not in PRECISIONS:
            raise ValueError(f"bad precision {self.precision!r}")
        if self.system not in dims.SCALE_DIMS:
            raise ValueError(f"unknown system {self.system!r}")
        names = set(dims.SCALE_DIMS[self.system]) - {"x", "t"}
        unknown = sorted({*self.in_fields, *self.target_fields} - names)
        if unknown:
            raise ValueError(f"{self.system} has no field named {unknown}")

    @property
    def m(self) -> int:
        return len(dims.REGISTRY[self.system]) if self.use_dimnorm else 0

    @property
    def constant_names(self) -> List[str]:
        return sorted(
            n
            for n in dims.SCALE_DIMS[self.system]
            if n not in ("x", "t") and n not in self.in_fields
        )

    @property
    def in_channels(self) -> int:
        c = len(self.in_fields)
        if not self.use_dimnorm:
            # constants + prediction-interval broadcast channels
            c += len(self.constant_names) + 1
        return c

    @property
    def out_channels(self) -> int:
        return len(self.target_fields)

    @property
    def dtype(self):
        return np.float64 if self.precision == "f64" else np.float32

    @property
    def cdtype(self):
        return np.complex128 if self.precision == "f64" else np.complex64


def param_table(config: ModelConfig) -> List[Tuple[str, tuple, np.dtype, tuple]]:
    """Every parameter as (name, shape, dtype, init) in declaration
    (checkpoint) order.  ``init`` is ("uniform", fan_in) for U(+-1/sqrt(fan_in)),
    ("normal", scale) for scale * (N(0,1) + i N(0,1)), or ("fill", value)."""
    n, cin, cout, m = config.width, config.in_channels, config.out_channels, config.m
    real, cplx = np.dtype(config.dtype), np.dtype(config.cdtype)

    def weight(name, fan_in, fan_out):
        return name, (fan_in, fan_out), real, ("uniform", fan_in)

    def bias(name, size, value=0.0):
        return name, (size,), real, ("fill", value)

    table = [weight("pre_w1", cin, n), bias("pre_b1", n), weight("pre_w2", n, n), bias("pre_b2", n)]
    if m > 0:
        # the last gate bias starts at one, near an all-pass gate
        table += [weight("cfw_w1", m, m), bias("cfw_b1", m), weight("cfw_w2", m, m),
                  bias("cfw_b2", m, 1.0)]
    kept = ad.kept_shape((config.modes,) * config.rank)
    spec_scale = 1.0 / (n * int(np.prod(kept)))
    for i in range(config.depth):
        table += [(f"block{i}_spec", (n, n) + kept, cplx, ("normal", spec_scale)),
                  weight(f"block{i}_byp_w", n, n), bias(f"block{i}_byp_b", n)]
    return table + [weight("head_w1", n, n), bias("head_b1", n), weight("head_w2", n, cout),
                    bias("head_b2", cout)]


def init_params(config: ModelConfig) -> Dict[str, np.ndarray]:
    """Parameters in declaration (checkpoint) order, drawn as ``param_table``
    says, in its order, from one generator seeded by ``config.init_seed``."""
    rng = np.random.default_rng(config.init_seed)
    p: Dict[str, np.ndarray] = {}
    for name, shape, dtype, (kind, arg) in param_table(config):
        if kind == "uniform":
            bound = 1.0 / np.sqrt(max(arg, 1))
            v = rng.uniform(-bound, bound, size=shape)
        elif kind == "normal":
            v = arg * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
        else:
            v = np.full(shape, arg)
        p[name] = v.astype(dtype)
    return p


@dataclass
class Inputs:
    """A prepared batch: in the model dtype, the network input x (B, *grid, Cin),
    the log gate inputs log_c (B, m) and the output scales (B, *1, Cout), which
    the twin has not (None); and the targets (B, *grid, Cout) in ``target_fields``
    order and their own dtype, None for a batch without targets."""
    x: np.ndarray
    log_c: Optional[np.ndarray] = None
    out_scales: Optional[np.ndarray] = None
    targets: Optional[np.ndarray] = None

    def take(self, idx) -> "Inputs":
        """The rows ``idx`` (an index array or a slice) of every array."""
        return Inputs(*(None if a is None else a[idx]
                        for a in (self.x, self.log_c, self.out_scales, self.targets)))


@dataclass
class ForwardResult:
    tape: Tape
    output: Tensor
    u_star: Tensor
    leaves: Dict[str, Tensor]


class DimINOModel:
    def __init__(self, config: ModelConfig, params: Dict[str, np.ndarray] = None):
        self.config = config
        self.params = params if params is not None else init_params(config)

    def prepare(self, batch: Batch, targets: bool = True) -> Inputs:
        """The model's input stage: network input, gate inputs and output
        scales of a Batch.  It depends on no parameter, so a batch of
        prepared rows is a row gather (``Inputs.take``).

        Both models stack the input field columns to (B, *grid, Cin).  The
        gated model divides that stack, in its own dtype, by a (B, *1, Cin)
        column of the rows' characteristic scales, so every channel is
        dimensionless and exactly invariant under similarity transforms by
        powers of two; its gate reads the log of the registry's
        dimensionless numbers, and the target fields' scales restore the
        output.  The twin's stack ends in constant and prediction-interval
        channels, broadcast over the grid, and the twin gets neither gate
        nor scales.  Both stack a batch's targets, which must hold every
        target field; with ``targets=False`` the targets are not read.
        """
        cfg = self.config
        if batch.system != cfg.system:
            raise FieldSetMismatch(
                f"samples of {batch.system!r} given to a model of {cfg.system!r}")
        if set(cfg.in_fields) - set(batch.fields):
            raise FieldSetMismatch(
                f"sample fields {sorted(batch.fields)} != model fields {cfg.in_fields}")
        stacked = None
        if targets and batch.targets:
            missing = [n for n in cfg.target_fields if n not in batch.targets]
            if missing:
                raise FieldSetMismatch(f"sample targets lack the model's target fields {missing}")
            stacked = np.stack([batch.targets[n] for n in cfg.target_fields], axis=-1)
        chans = [batch.fields[n] for n in cfg.in_fields]
        if not cfg.use_dimnorm:
            columns = [batch.constants[n] for n in cfg.constant_names] + [batch.t_final]
            chans += [np.broadcast_to(c.reshape((-1,) + (1,) * (chans[0].ndim - 1)), chans[0].shape)
                      for c in columns]
            return Inputs(np.stack(chans, axis=-1).astype(cfg.dtype, copy=False), targets=stacked)
        x = np.stack(chans, axis=-1)
        scales = dims.characteristic_scales_from_sample(batch)

        def column(names):
            return np.stack([scales[n] for n in names], axis=-1).reshape(
                len(batch), *[1] * (x.ndim - 2), len(names))
        x /= column(cfg.in_fields).astype(x.dtype)
        log_c = np.log(dims.compute_dimensionless(dims.REGISTRY[cfg.system], scales))
        return Inputs(x.astype(cfg.dtype, copy=False), log_c.astype(cfg.dtype),
                      column(cfg.target_fields).astype(cfg.dtype), stacked)

    # -- forward ----------------------------------------------------------

    def forward(self, batch: Union[Batch, Inputs], train: bool = False,
                tape: Tape = None, leaves: Dict[str, Tensor] = None) -> ForwardResult:
        """Run a Batch, or the Inputs ``prepare`` already made of one.  A
        Batch's targets are not read."""
        cfg = self.config
        if not isinstance(batch, Inputs):
            batch = self.prepare(batch, targets=False)
        spatial = batch.x.shape[1:-1]
        if cfg.modes > spatial[-1] // 2 or (cfg.rank == 2 and 2 * cfg.modes > spatial[0]):
            raise ModeOverflow(
                f"{cfg.modes} retained modes exceed grid {spatial}"
            )
        spatial_axes = tuple(range(1, 1 + cfg.rank))
        if tape is None:
            tape = Tape()
            leaves = {
                name: tape.leaf(arr, requires_grad=train)
                for name, arr in self.params.items()
            }
        x = tape.leaf(batch.x)

        if cfg.use_dimnorm:
            x = ad.layernorm(x, spatial_axes)
        x = ad.linear(x, leaves["pre_w1"], leaves["pre_b1"])
        x = ad.gelu(x)
        x = ad.linear(x, leaves["pre_w2"], leaves["pre_b2"])

        if cfg.m > 0:
            cl = tape.leaf(batch.log_c)
            cl = ad.linear(cl, leaves["cfw_w1"], leaves["cfw_b1"])
            cl = ad.gelu(cl)
            cl = ad.linear(cl, leaves["cfw_w2"], leaves["cfw_b2"])
            gate = ad.gate_expand(cl, cfg.width, cfg.gamma)
            x = ad.gate_mul(x, gate)

        modes = (cfg.modes,) * cfg.rank
        for i in range(cfg.depth):
            xh = ad.rfftn(x, spatial_axes, modes)
            y = ad.mode_mix(xh, leaves[f"block{i}_spec"])
            y = ad.irfftn(y, spatial_axes, spatial, modes)
            y = ad.add(y, ad.linear(x, leaves[f"block{i}_byp_w"], leaves[f"block{i}_byp_b"]))
            x = ad.gelu(y) if i < cfg.depth - 1 else y

        x = ad.linear(x, leaves["head_w1"], leaves["head_b1"])
        x = ad.gelu(x)
        u_star = ad.linear(x, leaves["head_w2"], leaves["head_b2"])

        if cfg.use_dimnorm:
            out = ad.const_mul(u_star, batch.out_scales)
        else:
            out = u_star
        return ForwardResult(tape, out, u_star, leaves)

    def predict(self, batch: Union[Batch, Inputs]) -> np.ndarray:
        """Physical-space prediction, shape (B, *grid, out_channels)."""
        return self.forward(batch).output.data


# -- checkpoint I/O -------------------------------------------------------

def save_model(model: DimINOModel, path) -> None:
    write_sealed(path, CKPT_MAGIC, CKPT_VERSION, {"config": asdict(model.config)},
                 model.params.items())


def load_model(path) -> DimINOModel:
    """A saved model; a checkpoint whose parameter names (in order), shapes
    or dtypes differ from ``param_table`` of its config raises
    ``CorruptCheckpoint``, as does any fault of the container."""
    header, params = read_sealed(path, CKPT_MAGIC, CKPT_VERSION, CorruptCheckpoint)
    config = _parse_header(path, header)
    table = [(n, a.shape, a.dtype) for n, a in params.items()]
    want = [(n, shape, dtype) for n, shape, dtype, _ in param_table(config)]
    if table != want:
        raise CorruptCheckpoint(
            f"{path}: parameter table {table} differs from the config's {want}")
    return DimINOModel(config, params)


def _parse_header(path, header):
    """Model config of a checkpoint header, which holds nothing else.

    Every fault (a header key other than ``config``, a missing or unknown
    config key, a config that ``ModelConfig`` rejects) raises
    ``CorruptCheckpoint``.
    """
    try:
        if set(header) != {"config"}:
            raise CorruptCheckpoint(
                f"{path}: header keys {sorted(header)}, expected ['config']")
        keys = set(header["config"])
        expected = {f.name for f in fields(ModelConfig)}
        if keys != expected:
            raise CorruptCheckpoint(
                f"{path}: config keys differ from ModelConfig: "
                f"unknown {sorted(keys - expected)}, missing {sorted(expected - keys)}"
            )
        return ModelConfig(**header["config"])
    except (ValueError, TypeError, KeyError, AttributeError) as exc:
        raise CorruptCheckpoint(f"{path}: malformed header: {exc}") from exc
