"""The dimension-informed operator model.

Pipeline: LayerNorm -> FFW_pre -> DimGate -> spectral block stack -> head,
with redimensionalization multiplying the dimensionless prediction by the
target characteristic scales as the last step.  The gate MLP reads the log
of the registry's dimensionless numbers; the spectral blocks are the FNO
block of Li et al. (arXiv 2010.08895).  Setting ``use_dimnorm=False`` builds
the baseline twin: raw field, constant and prediction-interval channels in,
physical prediction out, no per-sample scaling anywhere.
"""
from __future__ import annotations

import hashlib
import json
import struct
from dataclasses import asdict, dataclass, fields
from typing import Dict, List, Optional

import numpy as np

from . import autodiff as ad
from . import dims
from .autodiff import Tape, Tensor
from .data import Sample

CKPT_MAGIC = b"DINOCKPT"
CKPT_VERSION = 3


class ModelError(Exception):
    pass


class ModeOverflow(ModelError):
    pass


class FieldSetMismatch(ModelError):
    pass


class CorruptCheckpoint(ModelError):
    pass


class MissingDatasetScales(ModelError):
    """A per-dataset model has no shared scales yet: it was never trained."""


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
    scale_mode: str = "per-sample"  # or "per-dataset"
    precision: str = "f64"
    init_seed: int = 0

    def __post_init__(self):
        if self.depth < 1:
            raise ValueError("depth must be >= 1")
        if not 0.0 <= self.gamma <= 1.0:
            raise ValueError(f"gamma must lie in [0, 1], got {self.gamma}")
        if self.precision not in ("f64", "f32"):
            raise ValueError(f"bad precision {self.precision!r}")

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
    def mode_shape(self) -> tuple:
        if self.rank == 1:
            return (self.modes,)
        return (2 * self.modes, self.modes)

    @property
    def dtype(self):
        return np.float64 if self.precision == "f64" else np.float32

    @property
    def cdtype(self):
        return np.complex128 if self.precision == "f64" else np.complex64


def _fan_in_uniform(rng, shape, fan_in):
    bound = 1.0 / np.sqrt(max(fan_in, 1))
    return rng.uniform(-bound, bound, size=shape)


def init_params(config: ModelConfig) -> Dict[str, np.ndarray]:
    """Parameters in declaration (checkpoint) order."""
    rng = np.random.default_rng(config.init_seed)
    n, cin, cout = config.width, config.in_channels, config.out_channels
    p: Dict[str, np.ndarray] = {}
    p["pre_w1"] = _fan_in_uniform(rng, (cin, n), cin)
    p["pre_b1"] = np.zeros(n)
    p["pre_w2"] = _fan_in_uniform(rng, (n, n), n)
    p["pre_b2"] = np.zeros(n)
    if config.m > 0:
        m = config.m
        p["cfw_w1"] = _fan_in_uniform(rng, (m, m), m)
        p["cfw_b1"] = np.zeros(m)
        p["cfw_w2"] = _fan_in_uniform(rng, (m, m), m)
        p["cfw_b2"] = np.ones(m)  # start near an all-pass gate
    spec_scale = 1.0 / (n * int(np.prod(config.mode_shape)))
    for i in range(config.depth):
        shape = (n, n) + config.mode_shape
        p[f"block{i}_spec"] = spec_scale * (
            rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        )
        p[f"block{i}_byp_w"] = _fan_in_uniform(rng, (n, n), n)
        p[f"block{i}_byp_b"] = np.zeros(n)
    p["head_w1"] = _fan_in_uniform(rng, (n, n), n)
    p["head_b1"] = np.zeros(n)
    p["head_w2"] = _fan_in_uniform(rng, (n, cout), n)
    p["head_b2"] = np.zeros(cout)
    for k, v in p.items():
        p[k] = v.astype(config.cdtype if np.iscomplexobj(v) else config.dtype)
    return p


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
        # shared field scales, populated when scale_mode == "per-dataset"
        self.dataset_field_scales: Optional[dict] = None

    # -- characteristic scales -------------------------------------------

    def sample_scales(self, sample: Sample) -> dims.CharacteristicScales:
        scales = dims.characteristic_scales_from_sample(sample)
        if self.config.scale_mode == "per-dataset":
            if self.dataset_field_scales is None:
                raise MissingDatasetScales(
                    "scale_mode 'per-dataset' needs dataset_field_scales; train the model first")
            scales.update(self.dataset_field_scales)
        return scales

    def _prepare(self, samples):
        """Network input, gate inputs and output scales of one batch.

        The gated model divides each field by its characteristic scale, so
        every channel is dimensionless and exactly invariant under
        similarity transforms by powers of two; its gate reads the
        registry's dimensionless numbers, and the same scales restore the
        output.  The twin sees raw fields plus constant and
        prediction-interval channels, and gets neither gate nor scales.
        """
        cfg = self.config
        for s in samples:
            if set(cfg.in_fields) - set(s.fields):
                raise FieldSetMismatch(
                    f"sample fields {sorted(s.fields)} != model fields {cfg.in_fields}"
                )
        if cfg.use_dimnorm:
            inputs, cvecs, out_scales = [], [], []
            for s in samples:
                scales = self.sample_scales(s)
                nd = dims.nondimensionalize(s, scales)
                inputs.append(np.stack([nd.fields[n] for n in cfg.in_fields], axis=-1))
                cvecs.append([q.value for q in nd.constants.values()])
                out_scales.append([scales[n].value for n in cfg.target_fields])
            return (np.stack(inputs).astype(cfg.dtype), np.array(cvecs),
                    np.array(out_scales))
        chans = [np.stack([s.fields[n] for s in samples]) for n in cfg.in_fields]
        shape = chans[0].shape
        per_sample = [[s.constants[n].value for s in samples] for n in cfg.constant_names]
        per_sample.append([s.t_final for s in samples])
        for vals in per_sample:
            vals = np.array(vals).reshape(-1, *[1] * (len(shape) - 1))
            chans.append(np.broadcast_to(vals, shape))
        return np.stack(chans, axis=-1).astype(cfg.dtype), None, None

    # -- forward ----------------------------------------------------------

    def forward(self, samples: List[Sample], train: bool = False,
                tape: Tape = None, leaves: Dict[str, Tensor] = None) -> ForwardResult:
        cfg = self.config
        points = samples[0].grid.points
        if cfg.modes > points[-1] // 2 or (cfg.rank == 2 and 2 * cfg.modes > points[0]):
            raise ModeOverflow(
                f"{cfg.modes} retained modes exceed grid {points}"
            )
        spatial_axes = tuple(range(1, 1 + cfg.rank))
        spatial = samples[0].grid.points
        if tape is None:
            tape = Tape()
            leaves = {
                name: tape.leaf(arr, requires_grad=train)
                for name, arr in self.params.items()
            }
        x_in, c, out_scales = self._prepare(samples)
        x = tape.leaf(x_in)

        if cfg.use_dimnorm:
            x = ad.layernorm(x, spatial_axes)
        x = ad.linear(x, leaves["pre_w1"], leaves["pre_b1"])
        x = ad.gelu(x)
        x = ad.linear(x, leaves["pre_w2"], leaves["pre_b2"])

        if cfg.m > 0:
            cl = tape.leaf(np.log(c).astype(cfg.dtype))
            cl = ad.linear(cl, leaves["cfw_w1"], leaves["cfw_b1"])
            cl = ad.gelu(cl)
            cl = ad.linear(cl, leaves["cfw_w2"], leaves["cfw_b2"])
            gate = ad.gate_expand(cl, cfg.width, cfg.gamma)
            x = ad.gate_mul(x, gate)

        for i in range(cfg.depth):
            xh = ad.rfftn(x, spatial_axes)
            y = ad.mode_mix(xh, leaves[f"block{i}_spec"], (cfg.modes,) * cfg.rank)
            y = ad.irfftn(y, spatial_axes, spatial)
            y = ad.add(y, ad.linear(x, leaves[f"block{i}_byp_w"], leaves[f"block{i}_byp_b"]))
            x = ad.gelu(y) if i < cfg.depth - 1 else y

        x = ad.linear(x, leaves["head_w1"], leaves["head_b1"])
        x = ad.gelu(x)
        u_star = ad.linear(x, leaves["head_w2"], leaves["head_b2"])

        if cfg.use_dimnorm:
            sc = out_scales.reshape(
                len(samples), *[1] * cfg.rank, cfg.out_channels
            ).astype(cfg.dtype)
            out = ad.const_mul(u_star, sc)
        else:
            out = u_star
        return ForwardResult(tape, out, u_star, leaves)

    def predict(self, samples: List[Sample]) -> np.ndarray:
        """Physical-space prediction, shape (B, *grid, out_channels)."""
        return self.forward(samples).output.data


# -- checkpoint I/O -------------------------------------------------------

_DTYPE_CODES = {"float64": 0, "float32": 1, "complex128": 2, "complex64": 3}
_DTYPE_NAMES = {v: k for k, v in _DTYPE_CODES.items()}


def save_model(model: DimINOModel, path) -> None:
    blob = bytearray()
    blob += CKPT_MAGIC
    blob += struct.pack("<I", CKPT_VERSION)
    # the header carries the shared per-dataset scales as well, since they
    # change predictions just as the parameters do
    shared = model.dataset_field_scales
    header = {
        "config": asdict(model.config),
        "dataset_field_scales": None if shared is None else {
            name: [q.value, list(q.dim.exponents)] for name, q in shared.items()
        },
    }
    header_json = json.dumps(header, sort_keys=True).encode()
    blob += struct.pack("<I", len(header_json)) + header_json
    for name, arr in model.params.items():
        nb = name.encode()
        blob += struct.pack("<H", len(nb)) + nb
        blob += struct.pack("<BB", _DTYPE_CODES[arr.dtype.name], arr.ndim)
        blob += struct.pack(f"<{arr.ndim}I", *arr.shape)
        blob += np.ascontiguousarray(arr).tobytes()
    digest = hashlib.blake2b(bytes(blob), digest_size=8).digest()
    with open(path, "wb") as fh:
        fh.write(bytes(blob) + digest)


def load_model(path) -> DimINOModel:
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < len(CKPT_MAGIC) + 12 or raw[: len(CKPT_MAGIC)] != CKPT_MAGIC:
        raise CorruptCheckpoint(f"{path}: bad or truncated magic")
    body, digest = raw[:-8], raw[-8:]
    if hashlib.blake2b(body, digest_size=8).digest() != digest:
        raise CorruptCheckpoint(f"{path}: content hash mismatch")
    off = len(CKPT_MAGIC)
    (version,) = struct.unpack_from("<I", body, off)
    off += 4
    if version != CKPT_VERSION:
        raise CorruptCheckpoint(
            f"{path}: checkpoint version {version}, expected {CKPT_VERSION}"
        )
    (header_len,) = struct.unpack_from("<I", body, off)
    off += 4
    config, shared = _parse_header(path, body[off:off + header_len])
    off += header_len
    params = {}
    try:
        while off < len(body):
            (nlen,) = struct.unpack_from("<H", body, off)
            off += 2
            name = body[off:off + nlen].decode()
            off += nlen
            code, ndim = struct.unpack_from("<BB", body, off)
            off += 2
            shape = struct.unpack_from(f"<{ndim}I", body, off)
            off += 4 * ndim
            dtype = np.dtype(_DTYPE_NAMES[code])
            nbytes = int(np.prod(shape)) * dtype.itemsize
            params[name] = np.frombuffer(
                body[off:off + nbytes], dtype=dtype
            ).reshape(shape).copy()
            off += nbytes
    except (struct.error, KeyError, ValueError) as exc:
        raise CorruptCheckpoint(f"{path}: malformed parameter table") from exc
    model = DimINOModel(config, params)
    model.dataset_field_scales = shared
    return model


def _parse_header(path, raw: bytes):
    """Model config and shared dataset scales of a checkpoint header.

    Every fault (bad JSON, a missing or unknown config key, a config that
    ``ModelConfig`` rejects, malformed scales) raises ``CorruptCheckpoint``.
    """
    try:
        header = json.loads(raw.decode())
        keys = set(header["config"])
        expected = {f.name for f in fields(ModelConfig)}
        if keys != expected:
            raise CorruptCheckpoint(
                f"{path}: config keys differ from ModelConfig: "
                f"unknown {sorted(keys - expected)}, missing {sorted(expected - keys)}"
            )
        config = ModelConfig(**header["config"])
        shared = header["dataset_field_scales"]
        if shared is not None:
            shared = {
                name: dims.Quantity(value, dims.Dimension(tuple(exps)))
                for name, (value, exps) in shared.items()
            }
    except (ValueError, TypeError, KeyError, AttributeError, dims.DimensionError) as exc:
        raise CorruptCheckpoint(f"{path}: malformed header: {exc}") from exc
    return config, shared
