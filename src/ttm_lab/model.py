"""Toy-scale transformer stack with temperature-guided attention.

A block computes plain attention first, derives the temperature field from
that output, then applies the configured modulated variant; this breaks the
circularity of defining the field in terms of the same attention it modulates.
Final logits are scaled by the scalar mean of the last layer's field, which
never changes per-position argmax.

The forward pass takes one (n,) token sequence or a (B, n) batch of equal
length sequences; every shape then gains a leading B, and each example's
logits are scaled by its own field mean.
"""

import io
import json
import math
import os
import struct
import zlib
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass, fields as dc_fields

import numpy as np

from . import attention as attn_mod
# layer_norm has no caller here, as block_forward fuses each residual add
# into its LayerNorm; it stays imported because perfbench wraps
# model.layer_norm and its tests require every wrap target to exist
from .numerics import (DimensionError, Rng, Tensor, _add_layer_norm, concat,
                       gelu, layer_norm, linear, softmax_rows)
from .temperature import (DEFAULT_EPS_MIN, TemperatureHeadParams,
                          compute_temperature)

VARIANTS = ("baseline", "broadcast", "outer")

MAGIC = b"QSR1"
CHECKPOINT_VERSION = 3


class CheckpointFormatError(ValueError):
    pass


@dataclass
class ModelConfig:
    d_model: int = 32
    heads: int = 2
    layers: int = 2
    d_ff: int = 64
    vocab_size: int = 32
    d_c: int = 8
    eps_min: float = DEFAULT_EPS_MIN
    attention_variant: str = "broadcast"
    temp_init_std: float = 0.01
    seed: int = 0
    max_seq_len: int = 64

    def __post_init__(self):
        if min(self.d_model, self.heads, self.d_ff) < 1:
            raise ValueError("need d_model, heads and d_ff >= 1")
        if self.d_model % self.heads != 0:
            raise ValueError(f"d_model {self.d_model} not divisible by heads {self.heads}")
        if self.layers < 1 or self.vocab_size < 2:
            raise ValueError("need layers >= 1 and vocab_size >= 2")
        if self.attention_variant not in VARIANTS:
            raise ValueError(f"attention_variant must be one of {VARIANTS}")
        if not 0.0 < self.eps_min < 0.5:
            raise ValueError(f"eps_min {self.eps_min} outside (0, 0.5)")

    @property
    def d_k(self):
        return self.d_model // self.heads

    def to_checkpoint_json(self):
        doc = {k: getattr(self, k) for k in CONFIG_KEYS}
        return json.dumps(doc, indent=2) + "\n"

    @classmethod
    def from_checkpoint_json(cls, text, **extra):
        """Config from a checkpoint sidecar's text (str or bytes); a sidecar
        that is not a JSON object of valid config keys and values raises
        CheckpointFormatError."""
        try:
            doc = json.loads(text)
        except ValueError as exc:  # also undecodable bytes
            raise CheckpointFormatError(
                f"config sidecar is not JSON: {exc}") from None
        if not isinstance(doc, dict):
            raise CheckpointFormatError(
                f"config sidecar holds a {type(doc).__name__}, not an object")
        unknown = set(doc) - set(CONFIG_KEYS)
        if unknown:
            raise CheckpointFormatError(f"unknown config keys: {sorted(unknown)}")
        try:
            return cls(**doc, **extra)
        except (TypeError, ValueError) as exc:
            raise CheckpointFormatError(
                f"config sidecar value rejected: {exc}") from None


# the keys a checkpoint sidecar holds, in field order; the sequence length is
# the loader's to choose
CONFIG_KEYS = [f.name for f in dc_fields(ModelConfig)
               if f.name != "max_seq_len"]


@dataclass
class BlockParams:
    attn: attn_mod.AttentionParams
    W_ff1: Tensor
    b_ff1: Tensor
    W_ff2: Tensor
    b_ff2: Tensor
    ln1_gain: Tensor
    ln1_bias: Tensor
    ln2_gain: Tensor
    ln2_bias: Tensor
    temp: TemperatureHeadParams


def _temp_logit_std(cfg):
    # spread of the pre-squash logit that yields a field std of temp_init_std
    slope = 0.25 * (1.0 - 2.0 * cfg.eps_min)
    return cfg.temp_init_std / slope


def param_specs(cfg):
    """Ordered (name, shape, init) of every learnable tensor of a model.

    `init` is the std of a zero-mean normal draw, or "zeros" / "ones" for a
    constant fill. Draws are taken in list order, so the order fixes which
    tensor gets which part of the init stream.
    """
    d, h, dk, dff = cfg.d_model, cfg.heads, cfg.d_k, cfg.d_ff
    proj_std = d ** -0.5
    logit_std = _temp_logit_std(cfg)
    specs = [("embed.tok", (cfg.vocab_size, d), 0.02),
             ("embed.pos", (cfg.max_seq_len, d), 0.02)]
    for l in range(cfg.layers):
        p = f"block{l}."
        specs += [
            (p + "attn.wqkv", (h, 3, d, dk), proj_std),
            (p + "attn.wo", (h * dk, d), proj_std),
            (p + "ffn.w1", (d, dff), proj_std),
            (p + "ffn.b1", (dff,), "zeros"),
            (p + "ffn.w2", (dff, d), dff ** -0.5),
            (p + "ffn.b2", (d,), "zeros"),
            (p + "ln1.gain", (d,), "ones"),
            (p + "ln1.bias", (d,), "zeros"),
            (p + "ln2.gain", (d,), "ones"),
            (p + "ln2.bias", (d,), "zeros"),
            (p + "temp.wt", (h, d), logit_std * proj_std),
            (p + "temp.bt", (h,), logit_std),
        ]
    specs += [("head.w_out", (d, cfg.vocab_size), proj_std),
              ("head.w_reason", (d + h, cfg.vocab_size), (d + h) ** -0.5)]
    return specs


class ModelParams:
    """All learnable tensors, flat-named for checkpointing and updates."""

    def __init__(self, cfg, rng=None, tensors=None):
        self.cfg = cfg
        if tensors is not None:
            self.tensors = tensors
        else:
            rng = rng if rng is not None else Rng(cfg.seed)
            self.tensors = self._init_tensors(cfg, rng)
        self._build_views()

    @staticmethod
    def _init_tensors(cfg, rng):
        t = OrderedDict()
        for name, shape, init in param_specs(cfg):
            if init == "zeros":
                values = np.zeros(shape)
            elif init == "ones":
                values = np.ones(shape)
            else:
                values = rng.normal(shape, 0.0, init)
            t[name] = Tensor(values, requires_grad=True)
        return t

    def _build_views(self):
        cfg, t = self.cfg, self.tensors
        self.blocks = []
        for l in range(cfg.layers):
            p = f"block{l}."
            attn = attn_mod.AttentionParams(W_qkv=t[p + "attn.wqkv"],
                                            W_o=t[p + "attn.wo"])
            temp = TemperatureHeadParams(W_t=t[p + "temp.wt"],
                                         b_t=t[p + "temp.bt"],
                                         eps_min=cfg.eps_min)
            self.blocks.append(BlockParams(
                attn=attn,
                W_ff1=t[p + "ffn.w1"], b_ff1=t[p + "ffn.b1"],
                W_ff2=t[p + "ffn.w2"], b_ff2=t[p + "ffn.b2"],
                ln1_gain=t[p + "ln1.gain"], ln1_bias=t[p + "ln1.bias"],
                ln2_gain=t[p + "ln2.gain"], ln2_bias=t[p + "ln2.bias"],
                temp=temp))
        self.tok_emb = t["embed.tok"]
        self.pos_emb = t["embed.pos"]
        self.W_out = t["head.w_out"]
        self.W_reason = t["head.w_reason"]

    def detached(self):
        """The same arrays behind tensors that require no gradient, so a
        forward through them records no tape; nothing is copied. A view
        whose tensors already require none is returned as it is."""
        if not any(t.requires_grad for t in self.tensors.values()):
            return self
        return ModelParams(self.cfg, tensors=OrderedDict(
            (name, Tensor(t.values, check=False))
            for name, t in self.tensors.items()))

    def zero_grad(self):
        for tensor in self.tensors.values():
            tensor.zero_grad()

    def named_tensors(self):
        return self.tensors.items()


def _scaled_field(field, multiplier, eps_min):
    if multiplier == 1.0:
        return field
    return (field * float(multiplier)).clip(eps_min, 1.0 - eps_min)


def block_forward(x, block, cfg, temp_multiplier=1.0):
    """One transformer block; returns the output and the field it used.

    Pipeline: plain attention -> field from its output -> modulated attention
    per cfg.attention_variant on the plain logits and values -> LN1(x + attn)
    -> LN2(. + FFN(.)), each residual add fused into its LayerNorm's node.
    """
    base = attn_mod.attention_baseline(x, block.attn)
    field = _scaled_field(compute_temperature(base.values, block.temp),
                          temp_multiplier, cfg.eps_min)
    if cfg.attention_variant == "baseline":
        att = base
    elif cfg.attention_variant == "broadcast":
        att = attn_mod.attention_temp_broadcast(base, block.attn, field)
    else:
        att = attn_mod.attention_temp_outer(base, block.attn, field)
    h1 = _add_layer_norm(x, att.values, block.ln1_gain, block.ln1_bias)
    ff = linear(gelu(linear(h1, block.W_ff1, block.b_ff1)), block.W_ff2,
                block.b_ff2)
    out = _add_layer_norm(h1, ff, block.ln2_gain, block.ln2_bias)
    return out, field


_BOOL_TYPES = frozenset((bool, np.bool_))


def check_token_ids(tokens, vocab_size):
    """Raise ValueError unless every id is an integer in [0, vocab_size).

    An ndarray is judged by its dtype. Anything else is checked for booleans
    before numpy casts it, since numpy makes [True, 2, 3] an int64 array."""
    if not isinstance(tokens, np.ndarray):
        if not _BOOL_TYPES.isdisjoint(
                map(type, np.asarray(tokens, dtype=object).flat)):
            raise ValueError("token ids must be integers, got a boolean")
        tokens = np.asarray(tokens)
    if not tokens.size:
        return
    if not np.issubdtype(tokens.dtype, np.integer):
        raise ValueError(f"token ids must be integers, got {tokens.dtype}")
    if tokens.min() < 0 or tokens.max() >= vocab_size:
        raise ValueError(
            f"token id outside [0, {vocab_size}): "
            f"{int(tokens.min())}..{int(tokens.max())}")


def embed_tokens(tokens, params):
    ids = np.asarray(tokens)
    if ids.ndim not in (1, 2):
        raise DimensionError(
            f"tokens must be one (n,) sequence or a (B, n) batch, got "
            f"shape {ids.shape}")
    # the caller's ids are checked before the cast, which would truncate
    # 1.7 to 1 and turn True into 1
    check_token_ids(tokens, params.cfg.vocab_size)
    return params.tok_emb[ids.astype(np.int64, copy=False)]


def _add_positions(x, params):
    n = x.shape[-2]
    if n > params.cfg.max_seq_len:
        raise DimensionError(
            f"sequence length {n} exceeds max_seq_len {params.cfg.max_seq_len}")
    return x + params.pos_emb[:n]


def forward_embedded(x, params, temp_multiplier=1.0):
    """Run the block stack on an embedded (n, d) sequence or (B, n, d) batch
    (positions added here)."""
    x = _add_positions(x, params)
    fields = []
    for block in params.blocks:
        x, field = block_forward(x, block, params.cfg, temp_multiplier)
        fields.append(field)
    logits = x @ params.W_out
    last = fields[-1]
    mean_t = last.sum(axis=(-2, -1), keepdims=True) \
        / float(last.shape[-2] * last.shape[-1])
    return logits * mean_t, fields, x


def final_field(x, params):
    """The last block's field for an embedded input, as forward_embedded
    would give it, without the last block's modulated attention and FFN or
    the output logits.

    Inference only: x and the parameters are read through views that
    require no gradient, so no tape is recorded, the field has no parents
    and no gradient reaches x or params.
    """
    params = params.detached()
    x = _add_positions(Tensor(Tensor._coerce(x).values, check=False), params)
    for block in params.blocks[:-1]:
        x, _ = block_forward(x, block, params.cfg)
    last = params.blocks[-1]
    return compute_temperature(attn_mod._baseline_values(x, last.attn),
                               last.temp)


def model_forward(tokens, params, temp_multiplier=1.0):
    """Logits (n, vocab) scaled by the final field's mean, plus all fields;
    a (B, n) batch gives (B, n, vocab), each example scaled by its own mean."""
    x = embed_tokens(tokens, params)
    logits, fields, _ = forward_embedded(x, params, temp_multiplier)
    return logits, fields


def reasoning_head(attn_out, field, W_reason):
    """softmax(W_r . [attention output ; token temperatures]) per token."""
    width = attn_out.shape[1] + field.shape[-2]
    if W_reason.shape[0] != width:
        raise DimensionError(
            f"reasoning projection expects width {W_reason.shape[0]}, got "
            f"{width}")
    joint = concat([attn_out, field.T], axis=1)
    return softmax_rows(joint @ W_reason)


# -- checkpoint I/O ----------------------------------------------------------


@contextmanager
def _replacing(path, mode):
    """Write through a temporary file beside `path`, moved onto `path` only
    when the block finishes; on any error the temporary file is removed and
    `path` is left as it was."""
    tmp = path + ".tmp"
    try:
        with open(tmp, mode) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def checkpoint_save(params, path):
    """Binary checkpoint plus a JSON config sidecar at `path + ".json"`.

    The binary ends in a little-endian zlib CRC32 of every byte before it.
    Both files are written in full before either replaces its old version,
    so a save that fails leaves the previous checkpoint loadable.
    """
    with _replacing(path + ".json", "w") as side, _replacing(path, "wb") as fh:
        side.write(params.cfg.to_checkpoint_json())
        parts = [MAGIC, struct.pack("<II", CHECKPOINT_VERSION,
                                    len(params.tensors))]
        for name, tensor in params.named_tensors():
            raw = name.encode("utf-8")
            shape = tensor.shape
            parts += [struct.pack("<I", len(raw)), raw,
                      struct.pack(f"<I{len(shape)}Q", len(shape), *shape),
                      tensor.values.astype("<f8").tobytes()]
        body = b"".join(parts)
        fh.write(body + struct.pack("<I", zlib.crc32(body)))


def _read_exact(buf, count, what):
    """`count` bytes of an in-memory checkpoint, checked against the bytes
    left before reading, so a corrupt length field cannot ask for more than
    the file holds."""
    left = buf.getbuffer().nbytes - buf.tell()
    if count > left:
        raise CheckpointFormatError(
            f"truncated checkpoint while reading {what} ({left} bytes left)")
    return buf.read(count)


def checkpoint_load(path, cfg=None):
    """Load a checkpoint; with an explicit cfg, shapes must match it.

    The magic and the version are checked first, then the CRC32 trailer,
    and only then is any tensor read.
    """
    tensors = OrderedDict()
    with open(path, "rb") as fh:
        data = fh.read()
    buf = io.BytesIO(data)
    if _read_exact(buf, 4, "magic") != MAGIC:
        raise CheckpointFormatError("bad magic bytes; not a checkpoint")
    version, = struct.unpack("<I", _read_exact(buf, 4, "version"))
    if version != CHECKPOINT_VERSION:
        raise CheckpointFormatError(
            f"unsupported checkpoint version {version}; this build reads "
            f"version {CHECKPOINT_VERSION}")
    end = len(data) - 4
    if end < buf.tell():
        raise CheckpointFormatError("truncated checkpoint while reading CRC32")
    stored, = struct.unpack_from("<I", data, end)
    computed = zlib.crc32(data[:end])
    if computed != stored:
        raise CheckpointFormatError(
            f"CRC32 mismatch: file holds {stored:#010x}, bytes give "
            f"{computed:#010x}")
    buf.truncate(end)
    count, = struct.unpack("<I", _read_exact(buf, 4, "tensor count"))
    for _ in range(count):
        name_len, = struct.unpack("<I", _read_exact(buf, 4, "name length"))
        raw_name = _read_exact(buf, name_len, "name")
        try:
            name = raw_name.decode("utf-8")
        except UnicodeDecodeError:
            raise CheckpointFormatError(
                f"tensor name {raw_name!r} is not UTF-8") from None
        rank, = struct.unpack("<I", _read_exact(buf, 4, "rank"))
        shape = struct.unpack(f"<{rank}Q",
                              _read_exact(buf, 8 * rank, f"shape of {name}"))
        raw = _read_exact(buf, 8 * math.prod(shape), f"values of {name}")
        try:
            values = np.frombuffer(raw, dtype="<f8").reshape(shape)
        except ValueError:
            raise CheckpointFormatError(
                f"tensor {name} has unusable shape {shape}") from None
        if not np.isfinite(values).all():
            raise CheckpointFormatError(
                f"tensor {name} holds a non-finite value")
        if name in tensors:
            raise CheckpointFormatError(f"duplicate tensor {name}")
        tensors[name] = Tensor(values.copy(), requires_grad=True)
    if buf.read(1):
        raise CheckpointFormatError("trailing bytes after the last tensor")
    if cfg is None:
        if "embed.pos" not in tensors or not tensors["embed.pos"].shape:
            raise CheckpointFormatError("checkpoint missing tensor embed.pos")
        with open(path + ".json", "rb") as fh:
            cfg = ModelConfig.from_checkpoint_json(
                fh.read(), max_seq_len=tensors["embed.pos"].shape[0])
    specs = {name: shape for name, shape, _ in param_specs(cfg)}
    for name, shape in specs.items():
        if name not in tensors:
            raise CheckpointFormatError(f"checkpoint missing tensor {name}")
        if tensors[name].shape != shape:
            raise CheckpointFormatError(
                f"shape mismatch for tensor {name}: checkpoint has "
                f"{tensors[name].shape}, config expects {shape}")
    for name in tensors:
        if name not in specs:
            raise CheckpointFormatError(
                f"checkpoint has tensor {name}, which the config does not define")
    return ModelParams(cfg, tensors=tensors)
