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

import json
import math
import os
import struct
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from . import attention as attn_mod
from .numerics import DimensionError, Rng, Tensor, concat, gelu, layer_norm, softmax_rows
from .temperature import (DEFAULT_EPS_MIN, TemperatureField,
                          TemperatureHeadParams, compute_temperature)

VARIANTS = ("baseline", "broadcast", "outer")

MAGIC = b"QSR1"
CHECKPOINT_VERSION = 2

CONFIG_KEYS = ["d_model", "heads", "layers", "d_ff", "vocab_size", "d_c",
               "eps_min", "blend_alpha", "attention_variant",
               "temp_init_std", "seed"]


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
    blend_alpha: float = 0.0
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
        if not 0.0 <= self.blend_alpha <= 1.0:
            raise ValueError("blend_alpha outside [0, 1]")

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

    def zero_grad(self):
        for tensor in self.tensors.values():
            tensor.zero_grad()

    def named_tensors(self):
        return self.tensors.items()


def _scaled_field(field, multiplier, eps_min):
    if multiplier == 1.0:
        return field
    return TemperatureField(
        (field.values * float(multiplier)).clip(eps_min, 1.0 - eps_min),
        eps_min, validate=False)


def block_forward(x, block, cfg, temp_multiplier=1.0):
    """One transformer block; returns the output and the field it used.

    Pipeline: plain attention -> field from its output -> modulated attention
    per cfg.attention_variant on the plain logits and values (optionally
    blended back toward the plain weights) -> LN1(x + attn) -> LN2(. + FFN(.)).
    """
    base = attn_mod.attention_baseline(x, block.attn)
    field = compute_temperature(base.values, block.temp)
    field = _scaled_field(field, temp_multiplier, cfg.eps_min)
    if cfg.attention_variant == "baseline":
        att_values = base.values
    else:
        if cfg.attention_variant == "broadcast":
            mod = attn_mod.attention_temp_broadcast(base, block.attn, field)
        else:
            mod = attn_mod.attention_temp_outer(base, block.attn, field)
        if cfg.blend_alpha > 0.0:
            w = attn_mod.residual_blend(base.weights, mod.weights, cfg.blend_alpha)
            att_values = attn_mod.merge_heads(w @ base.v, block.attn.W_o)
        else:
            att_values = mod.values
    h1 = layer_norm(x + att_values, block.ln1_gain, block.ln1_bias)
    ff = gelu(h1 @ block.W_ff1 + block.b_ff1) @ block.W_ff2 + block.b_ff2
    out = layer_norm(h1 + ff, block.ln2_gain, block.ln2_bias)
    return out, field


def check_token_ids(tokens, vocab_size):
    """Raise ValueError unless every id is an integer in [0, vocab_size)."""
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
    tokens = np.asarray(tokens, dtype=np.int64)
    if tokens.ndim not in (1, 2):
        raise DimensionError(
            f"tokens must be one (n,) sequence or a (B, n) batch, got "
            f"shape {tokens.shape}")
    check_token_ids(tokens, params.cfg.vocab_size)
    return params.tok_emb[tokens]


def forward_embedded(x, params, temp_multiplier=1.0):
    """Run the block stack on an embedded (n, d) sequence or (B, n, d) batch
    (positions added here)."""
    n = x.shape[-2]
    if n > params.cfg.max_seq_len:
        raise DimensionError(
            f"sequence length {n} exceeds max_seq_len {params.cfg.max_seq_len}")
    x = x + params.pos_emb[np.arange(n)]
    fields = []
    for block in params.blocks:
        x, field = block_forward(x, block, params.cfg, temp_multiplier)
        fields.append(field)
    logits = x @ params.W_out
    last = fields[-1]
    mean_t = last.values.sum(axis=(-2, -1), keepdims=True) \
        / float(last.head_count * last.seq_len)
    return logits * mean_t, fields, x


def model_forward(tokens, params, temp_multiplier=1.0):
    """Logits (n, vocab) scaled by the final field's mean, plus all fields;
    a (B, n) batch gives (B, n, vocab), each example scaled by its own mean."""
    x = embed_tokens(tokens, params)
    logits, fields, _ = forward_embedded(x, params, temp_multiplier)
    return logits, fields


def reasoning_head(attn_out, field, W_reason):
    """softmax(W_r . [attention output ; token temperatures]) per token."""
    if W_reason.shape[0] != attn_out.shape[1] + field.head_count:
        raise DimensionError(
            f"reasoning projection expects width {W_reason.shape[0]}, got "
            f"{attn_out.shape[1] + field.head_count}")
    joint = concat([attn_out, field.values.T], axis=1)
    return softmax_rows(joint @ W_reason)


@dataclass
class ParamCount:
    attention: int
    ffn: int
    temperature: int
    embeddings: int
    total: int


def count_parameters(cfg):
    """Count the parameters a model of this config has, by category."""
    buckets = {"attention": 0, "ffn": 0, "temperature": 0, "embeddings": 0}
    for name, shape, _ in param_specs(cfg):
        size = math.prod(shape)
        if ".attn." in name:
            buckets["attention"] += size
        elif ".ffn." in name or ".ln1." in name or ".ln2." in name:
            buckets["ffn"] += size
        elif ".temp." in name:
            buckets["temperature"] += size
        else:
            buckets["embeddings"] += size
    return ParamCount(total=sum(buckets.values()), **buckets)


PUBLISHED_SCALE_CLAIMS = {"total": 355_000_000, "attention": 221_000_000,
                      "ffn": 113_000_000, "temperature": 21_000_000}


def published_scale_comparison():
    """Our counts for the full-size configuration next to the published
    claims; the two do not reconcile and no equality is asserted."""
    cfg = ModelConfig(d_model=768, heads=12, layers=24, d_ff=3072,
                      vocab_size=50257, d_c=768, max_seq_len=1)
    ours = count_parameters(cfg)
    return {"ours": ours, "published": PUBLISHED_SCALE_CLAIMS}


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

    Both files are written in full before either replaces its old version,
    so a save that fails leaves the previous checkpoint loadable.
    """
    with _replacing(path + ".json", "w") as side, _replacing(path, "wb") as fh:
        side.write(params.cfg.to_checkpoint_json())
        fh.write(MAGIC)
        fh.write(struct.pack("<I", CHECKPOINT_VERSION))
        fh.write(struct.pack("<I", len(params.tensors)))
        for name, tensor in params.named_tensors():
            raw = name.encode("utf-8")
            fh.write(struct.pack("<I", len(raw)))
            fh.write(raw)
            shape = tensor.shape
            fh.write(struct.pack("<I", len(shape)))
            for extent in shape:
                fh.write(struct.pack("<Q", extent))
            fh.write(tensor.values.astype("<f8").tobytes())


def _read_exact(fh, count, what):
    """`count` bytes, checked against the bytes left before reading, so a
    corrupt length field cannot ask for more memory than the file holds."""
    left = os.fstat(fh.fileno()).st_size - fh.tell()
    if count > left:
        raise CheckpointFormatError(
            f"truncated checkpoint while reading {what} ({left} bytes left)")
    return fh.read(count)


def checkpoint_load(path, cfg=None):
    """Load a checkpoint; with an explicit cfg, shapes must match it."""
    tensors = OrderedDict()
    with open(path, "rb") as fh:
        if _read_exact(fh, 4, "magic") != MAGIC:
            raise CheckpointFormatError("bad magic bytes; not a checkpoint")
        version, = struct.unpack("<I", _read_exact(fh, 4, "version"))
        if version != CHECKPOINT_VERSION:
            raise CheckpointFormatError(
                f"unsupported checkpoint version {version}; this build reads "
                f"version {CHECKPOINT_VERSION}")
        count, = struct.unpack("<I", _read_exact(fh, 4, "tensor count"))
        for _ in range(count):
            name_len, = struct.unpack("<I", _read_exact(fh, 4, "name length"))
            raw_name = _read_exact(fh, name_len, "name")
            try:
                name = raw_name.decode("utf-8")
            except UnicodeDecodeError:
                raise CheckpointFormatError(
                    f"tensor name {raw_name!r} is not UTF-8") from None
            rank, = struct.unpack("<I", _read_exact(fh, 4, "rank"))
            shape = struct.unpack(f"<{rank}Q",
                                  _read_exact(fh, 8 * rank, f"shape of {name}"))
            raw = _read_exact(fh, 8 * math.prod(shape), f"values of {name}")
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
        if fh.read(1):
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
