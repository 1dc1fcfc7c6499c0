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
from .numerics import (DimensionError, Rng, Tensor, _add_layer_norm,
                       _linear_rows, check_finite, concat, gelu, layer_norm,
                       linear, softmax_rows)
from .temperature import (DEFAULT_EPS_MIN, TemperatureHeadParams,
                          compute_temperature)

VARIANTS = ("baseline", "broadcast", "outer")

# the std of each temperature field at init, around the neutral 0.5
TEMP_INIT_STD = 0.01

MAGIC = b"QSR1"
CHECKPOINT_VERSION = 3


class CheckpointFormatError(ValueError):
    pass


def check_json_number(name, value, default):
    """Raise ValueError unless `value`, read from JSON for the setting
    `name`, suits the type of its `default`. An int setting takes only
    integers, since a float would be truncated or fail mid-run; a float
    setting takes integers and floats; a setting of any other type is not
    checked here. true and false would pass as 1 or 0, and an integer
    beyond the float range would overflow the first float operation it
    meets, so neither passes."""
    if type(default) is float:
        kinds, what = (int, float), "numbers"
    elif type(default) is int:
        kinds, what = (int,), "integers"
    else:
        return
    if type(value) not in kinds:
        raise ValueError(f"{name} takes {what}, got {value!r}")
    try:
        float(value)
    except OverflowError:
        raise ValueError(f"{name} takes {what} within the float range, "
                         f"got an integer beyond it") from None


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
    seed: int = 0
    max_seq_len: int = 64

    def __post_init__(self):
        if min(self.d_model, self.heads, self.d_ff) < 1:
            raise ValueError("need d_model, heads and d_ff >= 1")
        if self.d_model % self.heads != 0:
            raise ValueError(f"d_model {self.d_model} not divisible by heads {self.heads}")
        if self.layers < 1 or self.vocab_size < 2:
            raise ValueError("need layers >= 1 and vocab_size >= 2")
        if self.max_seq_len < 1 or self.d_c < 0:
            raise ValueError("need max_seq_len >= 1 and d_c >= 0")
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
            raise CheckpointFormatError(
                f"config sidecar has unknown config keys: {sorted(unknown)}")
        defaults = {f.name: f.default for f in dc_fields(cls)}
        try:
            for key, value in doc.items():
                check_json_number(key, value, defaults[key])
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


def _squash_slope(eps_min):
    # the field's slope in its logit at logit 0
    return 0.25 * (1.0 - 2.0 * eps_min)


def _temp_logit_std(cfg):
    # spread of the pre-squash logit that yields a field std of TEMP_INIT_STD
    return TEMP_INIT_STD / _squash_slope(cfg.eps_min)


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


def _is_temp_param(name):
    return ".temp." in name


class ModelParams:
    """All learnable tensors, flat-named for checkpointing and updates.

    Tensors that require gradients are laid out in two flat float64 buffers:
    every tensor's values are a view of one, and the gradient backward gives
    it is written into its view of the other. The layout holds every tensor
    but the temperature head's, then the `.temp.` tensors, each group in the
    model's tensor order (which `named_tensors` keeps), so `update`, the
    descent step, takes each group as one stretch. It writes a fresh value
    buffer and rebinds the views (`_rebind`), so an array handed out earlier
    keeps its values. A model whose tensors require no gradient (a detached
    view) has no buffers.

    The gradient buffer is allocated the first time a training step needs
    it (`_grad_buffer`: at zero_grad, or at an update), so a model that is
    only ever forwarded never holds it. Until then a backward gives each
    tensor a fresh gradient array, which the update copies in.
    """

    _spans = ()     # (tensor, lo, hi) per tensor in buffer order
    _values = _grads = None
    _temp_lo = 0    # index in `_spans` of the first `.temp.` tensor

    def __init__(self, cfg, rng=None, tensors=None):
        self.cfg = cfg
        if tensors is None:
            tensors = self._init_tensors(
                cfg, rng if rng is not None else Rng(cfg.seed))
        self.tensors = tensors
        if any(t.requires_grad for t in tensors.values()):
            self._lay_out()
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

    def _lay_out(self):
        # a stable sort, so each group keeps the model's tensor order
        names = sorted(self.tensors, key=_is_temp_param)
        self._temp_lo = sum(not _is_temp_param(name) for name in names)
        order = [self.tensors[name] for name in names]
        values = np.empty(sum(t.size for t in order))
        spans, hi = [], 0
        for t in order:
            lo, hi = hi, hi + t.size
            values[lo:hi] = t.values.reshape(-1)
            spans.append((t, lo, hi))
        self._spans = tuple(spans)
        self._rebind(values)

    def _grad_buffer(self):
        """The flat gradient buffer, allocated and each tensor's
        `_grad_view` set on the first call; None for a model without
        buffers."""
        if self._grads is None and self._spans:
            self._grads = grads = np.zeros(self._values.size)
            for t, lo, hi in self._spans:
                t._grad_view = grads[lo:hi].reshape(t.shape)
        return self._grads

    def _rebind(self, values):
        """Make `values`, a flat buffer in this model's layout, the one every
        tensor's values are a view of."""
        self._values = values
        for t, lo, hi in self._spans:
            t.values = values[lo:hi].reshape(t.shape)

    def update(self, lr_main, lr_temp, weight_decay):
        """One descent step on the flat buffers.

        Each stretch of adjacent tensors that got a gradient is updated in a
        few numpy calls: a temperature tensor by its gradient clipped to
        [-1/sqrt(d_k), 1/sqrt(d_k)] at lr_temp, any other by its gradient
        plus weight decay at lr_main; the two groups never share a stretch.
        A tensor without a gradient keeps its values. Every entry gets the
        float a per-tensor update gave it: the arithmetic is elementwise and
        in the same order.

        The result goes into a fresh buffer that every tensor is then
        rebound to, so an array handed out before the step (a detached view,
        a universe's embeddings) keeps its values. A step with a non-finite
        entry raises NumericError before the rebinding, so every tensor
        keeps its values. A tensor whose values or gradient are not its
        buffer views (a caller replaced them, or the gradient came before
        the buffer) is copied in first.
        """
        grads, old = self._grad_buffer(), self._values
        runs, rebound = [], []   # runs: [lo, hi, has a gradient, temperature]
        for i, (t, lo, hi) in enumerate(self._spans):
            if t.values.base is not old:
                rebound.append((lo, hi, t.values))
            has = t.grad is not None
            if has and t.grad is not t._grad_view:
                grads[lo:hi] = t.grad.reshape(-1)
            if runs and runs[-1][2] is has and not (has and i == self._temp_lo):
                runs[-1][1] = hi
            else:
                runs.append([lo, hi, has, i >= self._temp_lo])
        if not any(has for _, _, has, _ in runs):
            return
        if rebound:
            old = old.copy()
            for lo, hi, values in rebound:
                old[lo:hi] = values.reshape(-1)
        tau = 1.0 / math.sqrt(self.cfg.d_k)
        new = np.empty_like(old)
        for lo, hi, has, temp in runs:
            v, out = old[lo:hi], new[lo:hi]
            if not has:
                out[:] = v
            elif temp:
                g = np.clip(grads[lo:hi], -tau, tau)
                g *= lr_temp
                np.subtract(v, g, out=out)
            else:
                np.multiply(v, weight_decay, out=out)
                out += grads[lo:hi]
                out *= lr_main
                np.subtract(v, out, out=out)
        self._rebind(check_finite(new, "ModelParams.update"))

    def temp_grad_norm(self):
        """The L2 norm of the temperature tensors' gradients, their squares
        summed per tensor in model order; 0.0 when none has a gradient."""
        return math.sqrt(sum(
            float(np.add.reduce(t.grad ** 2, axis=None))
            for t, _, _ in self._spans[self._temp_lo:] if t.grad is not None))

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
        self._grad_buffer()
        for tensor in self.tensors.values():
            tensor.zero_grad()

    def named_tensors(self):
        return self.tensors.items()


def _scaled_field(field, multiplier, eps_min):
    if multiplier == 1.0:
        return field
    return (field * float(multiplier)).clip(eps_min, 1.0 - eps_min)


def block_forward(x, block, cfg, temp_multiplier=1.0, positions=None):
    """One transformer block; returns the output and the field it used.

    Pipeline: plain attention -> field from its output -> modulated attention
    per cfg.attention_variant on the plain logits and values -> LN1(x + attn)
    -> LN2(. + FFN(.)), each residual add fused into its LayerNorm's node.

    With `positions`, a slice of the sequence axis, attention and the field
    still cover every position, but LN1, the FFN and LN2 run at those
    positions alone, and the output holds only them.
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
    h1 = _add_layer_norm(x, att.values, block.ln1_gain, block.ln1_bias,
                         positions)
    if positions is None:
        ff = linear(gelu(linear(h1, block.W_ff1, block.b_ff1)), block.W_ff2,
                    block.b_ff2)
    else:
        n = x.shape[-2]
        hidden = gelu(_linear_rows(h1, block.W_ff1, block.b_ff1, positions, n))
        ff = _linear_rows(hidden, block.W_ff2, block.b_ff2, positions, n)
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


def _kept_positions(positions, n):
    """`positions` as slice(lo, hi) with 0 <= lo < hi <= n, or None when it
    is None or covers all n positions."""
    if positions is None:
        return None
    if isinstance(positions, slice):
        lo, hi, step = positions.indices(n)
        if step == 1 and lo < hi:
            return None if (lo, hi) == (0, n) else slice(lo, hi)
    raise DimensionError(f"positions must be a non-empty slice of step 1 in "
                         f"{n} positions, got {positions}")


def forward_embedded(x, params, temp_multiplier=1.0, positions=None):
    """Run the block stack on an embedded (n, d) sequence or (B, n, d) batch
    (positions added here).

    With `positions`, a slice of the sequence axis, the logits and the
    returned hidden states hold only those positions, each with the bits of
    the full forward's: only the last block's LayerNorms and FFN and the
    output logits are cut to them.
    """
    x = _add_positions(x, params)
    n = x.shape[-2]
    positions = _kept_positions(positions, n)
    fields = []
    for block in params.blocks[:-1]:
        x, field = block_forward(x, block, params.cfg, temp_multiplier)
        fields.append(field)
    x, field = block_forward(x, params.blocks[-1], params.cfg,
                             temp_multiplier, positions)
    fields.append(field)
    if positions is None:
        logits = x @ params.W_out
    else:
        logits = _linear_rows(x, params.W_out, None, positions, n)
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


def model_forward(tokens, params, temp_multiplier=1.0, positions=None):
    """Logits (n, vocab) scaled by the final field's mean, plus all fields;
    a (B, n) batch gives (B, n, vocab), each example scaled by its own mean.

    With `positions`, a slice of the n positions, the logits are the full
    forward's [..., positions, :], bit for bit, computed at those positions
    alone after the last block's attention."""
    x = embed_tokens(tokens, params)
    logits, fields, _ = forward_embedded(x, params, temp_multiplier,
                                         positions)
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
        # ModelParams copies the values into its buffer
        tensors[name] = Tensor(values, requires_grad=True)
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
