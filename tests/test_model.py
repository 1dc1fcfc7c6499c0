import os
import shutil
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ttm_lab.model import (CheckpointFormatError, ModelConfig, ModelParams,
                           block_forward, checkpoint_load, checkpoint_save,
                           count_parameters, model_forward,
                           published_scale_comparison, reasoning_head)
from ttm_lab.numerics import Rng, Tensor, gelu, grad_check, layer_norm
from ttm_lab.temperature import TemperatureField


def toy_cfg(**kw):
    base = dict(d_model=8, heads=2, layers=2, d_ff=16, vocab_size=11, d_c=4,
                seed=0, max_seq_len=8)
    base.update(kw)
    return ModelConfig(**base)


class TestConfig:
    def test_divisibility(self):
        with pytest.raises(ValueError):
            ModelConfig(d_model=10, heads=3)

    def test_eps_min_range(self):
        with pytest.raises(ValueError):
            ModelConfig(eps_min=0.6)

    def test_variant_names(self):
        with pytest.raises(ValueError):
            ModelConfig(attention_variant="magic")

    def test_checkpoint_json_round_trip(self):
        cfg = toy_cfg(blend_alpha=0.25, attention_variant="outer")
        text = cfg.to_checkpoint_json()
        back = ModelConfig.from_checkpoint_json(text, max_seq_len=8)
        assert back == cfg

    def test_unknown_json_key_rejected(self):
        with pytest.raises(CheckpointFormatError):
            ModelConfig.from_checkpoint_json('{"d_model": 8, "bogus": 1}')


class TestBlockForward:
    def test_zero_temp_head_gives_neutral_field(self):
        cfg = toy_cfg(layers=1)
        params = ModelParams(cfg)
        block = params.blocks[0]
        block.temp.W_t.values[:] = 0.0
        block.temp.b_t.values[:] = 0.0
        _, field = block_forward(Tensor(Rng(1).normal((4, 8))), block, cfg)
        assert np.array_equal(field.array(), np.full((2, 4), 0.5))

    def test_baseline_variant_composition(self):
        cfg = toy_cfg(layers=1, attention_variant="baseline")
        params = ModelParams(cfg)
        block = params.blocks[0]
        for t in (block.W_ff1, block.b_ff1, block.W_ff2, block.b_ff2):
            t.values[:] = 0.0
        x = Tensor(Rng(2).normal((4, 8)))
        out, _ = block_forward(x, block, cfg)
        from ttm_lab.attention import attention_baseline
        attn = attention_baseline(x, block.attn).values
        h1 = layer_norm(x + attn, block.ln1_gain, block.ln1_bias)
        want = layer_norm(h1, block.ln2_gain, block.ln2_bias)
        assert np.abs(out.values - want.values).max() < 1e-12

    def test_single_token(self):
        cfg = toy_cfg(layers=1)
        params = ModelParams(cfg)
        block = params.blocks[0]
        x = Tensor(Rng(3).normal((1, 8)))
        out, _ = block_forward(x, block, cfg)
        # single-token attention mixes only that token's value rows
        from ttm_lab.attention import merge_heads
        attn = merge_heads(x @ block.attn.W_qkv[:, 2], block.attn.W_o)
        h1 = layer_norm(x + attn, block.ln1_gain, block.ln1_bias)
        ff = gelu(h1 @ block.W_ff1 + block.b_ff1) @ block.W_ff2 + block.b_ff2
        want = layer_norm(h1 + ff, block.ln2_gain, block.ln2_bias)
        assert np.abs(out.values - want.values).max() < 1e-10

    @pytest.mark.parametrize("variant, alpha", [("broadcast", 0.0),
                                                ("outer", 0.0), ("outer", 0.3)])
    def test_shared_projection_gradient(self, variant, alpha):
        # W_qkv feeds both passes: the plain one and, through its logits and
        # value rows, the modulated one (and the blend)
        cfg = toy_cfg(layers=1, attention_variant=variant, blend_alpha=alpha)
        block = ModelParams(cfg).blocks[0]
        x = Tensor(Rng(4).normal((5, 8)))
        w = Tensor(Rng(5).normal((5, 8)))

        def loss(wqkv):
            block.attn.W_qkv = wqkv
            out, _ = block_forward(x, block, cfg)
            return (out * w).sum()

        assert grad_check(loss, block.attn.W_qkv) < 1e-4


class TestModelForward:
    def test_out_of_range_token(self):
        params = ModelParams(toy_cfg())
        with pytest.raises(ValueError, match="token id"):
            model_forward([0, 99], params)

    def test_neutral_field_halves_logits(self):
        cfg = toy_cfg()
        params = ModelParams(cfg)
        for block in params.blocks:
            block.temp.W_t.values[:] = 0.0
            block.temp.b_t.values[:] = 0.0
        logits, fields = model_forward([1, 2, 3], params)
        assert np.array_equal(fields[-1].array(), np.full((2, 3), 0.5))
        # rebuild the unscaled projection from the last hidden state
        from ttm_lab.model import embed_tokens, forward_embedded
        _, _, hidden = forward_embedded(embed_tokens([1, 2, 3], params), params)
        unscaled = hidden.values @ params.W_out.values
        assert np.abs(logits.values - 0.5 * unscaled).max() < 1e-12

    def test_argmax_invariance_of_output_scaling(self):
        params = ModelParams(toy_cfg(seed=4))
        tokens = [3, 1, 4, 1, 5]
        logits, fields = model_forward(tokens, params)
        mean_t = fields[-1].array().mean()
        unscaled = logits.values / mean_t
        assert np.array_equal(logits.values.argmax(axis=-1),
                              unscaled.argmax(axis=-1))

    def test_forward_determinism(self):
        a = model_forward([1, 2, 3], ModelParams(toy_cfg(seed=7)))[0].values
        b = model_forward([1, 2, 3], ModelParams(toy_cfg(seed=7)))[0].values
        assert np.array_equal(a, b)

    def test_variant_changes_logits(self):
        tokens = [1, 2, 3, 4]
        base = model_forward(tokens, ModelParams(toy_cfg(attention_variant="baseline")))[0]
        mod = model_forward(tokens, ModelParams(toy_cfg(attention_variant="broadcast")))[0]
        assert np.abs(base.values - mod.values).max() > 1e-8

    def test_single_layer_composition_oracle(self):
        cfg = toy_cfg(layers=1)
        params = ModelParams(cfg)
        tokens = [2, 5, 7]
        from ttm_lab.model import embed_tokens, forward_embedded
        x = embed_tokens(tokens, params) + params.pos_emb[np.arange(3)]
        h, field = block_forward(x, params.blocks[0], cfg)
        want = (h @ params.W_out) * field.values.mean()
        got, fields = model_forward(tokens, params)
        assert np.abs(got.values - want.values).max() < 1e-10

    def test_full_model_gradient(self):
        cfg = toy_cfg()
        params = ModelParams(cfg)
        from ttm_lab.model import forward_embedded

        def loss(emb):
            logits, _, _ = forward_embedded(emb, params)
            return (logits ** 2).mean()

        emb0 = Tensor(Rng(8).normal((5, 8), 0.0, 0.1))
        assert grad_check(loss, emb0) < 1e-4


class TestHeads:
    def test_gelu_asymptotics(self):
        assert float(gelu(Tensor([0.0])).values[0]) == 0.0
        assert abs(float(gelu(Tensor([10.0])).values[0]) - 10.0) < 1e-6

    def test_reasoning_head_rows_sum_to_one(self):
        params = ModelParams(toy_cfg())
        attn_out = Tensor(Rng(12).normal((4, 8)))
        field = TemperatureField(Rng(13).uniform((2, 4), 0.1, 0.9))
        probs = reasoning_head(attn_out, field, params.W_reason)
        assert np.abs(probs.values.sum(axis=-1) - 1.0).max() < 1e-9

    def test_reasoning_head_field_ablation(self):
        params = ModelParams(toy_cfg())
        params.W_reason.values[8:, :] = 0.0  # zero the temperature columns
        attn_out = Tensor(Rng(14).normal((4, 8)))
        a = reasoning_head(attn_out, TemperatureField(np.full((2, 4), 0.2)),
                           params.W_reason).values
        b = reasoning_head(attn_out, TemperatureField(np.full((2, 4), 0.8)),
                           params.W_reason).values
        assert np.array_equal(a, b)

    def test_reasoning_head_width_mismatch(self):
        params = ModelParams(toy_cfg())
        with pytest.raises(Exception, match="width"):
            reasoning_head(Tensor(np.zeros((2, 5))),
                           TemperatureField(np.full((2, 2), 0.5)),
                           params.W_reason)


class TestParameterCount:
    def test_matches_hand_enumeration(self):
        cfg = toy_cfg(layers=1, d_ff=16, vocab_size=11)
        d, h, dk, dff, V, dc = 8, 2, 4, 16, 11, 4
        attention = h * 3 * d * dk + h * dk * d
        ffn = d * dff + dff + dff * d + d + 4 * d  # FFN + two layer norms
        temperature = h * d + h
        embeddings = V * d + cfg.max_seq_len * d + d * V + (d + h) * V
        got = count_parameters(cfg)
        assert got.attention == attention
        assert got.ffn == ffn
        assert got.temperature == temperature
        assert got.embeddings == embeddings
        assert got.total == attention + ffn + temperature + embeddings

    @pytest.mark.parametrize("layers,heads", [(1, 1), (1, 2), (2, 1), (2, 2)])
    def test_matches_allocated_tensors(self, layers, heads):
        cfg = toy_cfg(layers=layers, heads=heads)
        allocated = sum(t.size for _, t in ModelParams(cfg).named_tensors())
        assert count_parameters(cfg).total == allocated

    def test_layer_doubling(self):
        one = count_parameters(toy_cfg(layers=1))
        two = count_parameters(toy_cfg(layers=2))
        assert two.attention == 2 * one.attention
        assert two.ffn == 2 * one.ffn
        assert two.embeddings == one.embeddings

    def test_large_scale_comparison_reports_both(self):
        report = published_scale_comparison()
        assert report["ours"].total > 0
        assert set(report["published"]) == {"total", "attention", "ffn",
                                            "temperature"}


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        params = ModelParams(toy_cfg(seed=21))
        p1 = str(tmp_path / "a.ckpt")
        p2 = str(tmp_path / "b.ckpt")
        checkpoint_save(params, p1)
        loaded = checkpoint_load(p1)
        checkpoint_save(loaded, p2)
        assert open(p1, "rb").read() == open(p2, "rb").read()
        for (n1, t1), (n2, t2) in zip(params.named_tensors(),
                                      loaded.named_tensors()):
            assert n1 == n2 and np.array_equal(t1.values, t2.values)

    def test_corrupted_magic(self, tmp_path):
        path = str(tmp_path / "bad.ckpt")
        params = ModelParams(toy_cfg())
        checkpoint_save(params, path)
        raw = bytearray(open(path, "rb").read())
        raw[:4] = b"XXXX"
        open(path, "wb").write(bytes(raw))
        with pytest.raises(CheckpointFormatError, match="magic"):
            checkpoint_load(path)

    def test_truncated_file(self, tmp_path):
        path = str(tmp_path / "short.ckpt")
        params = ModelParams(toy_cfg())
        checkpoint_save(params, path)
        raw = open(path, "rb").read()
        open(path, "wb").write(raw[: len(raw) // 2])
        with pytest.raises(CheckpointFormatError, match="truncated"):
            checkpoint_load(path)

    def test_mismatched_config_names_tensor(self, tmp_path):
        path = str(tmp_path / "c.ckpt")
        checkpoint_save(ModelParams(toy_cfg()), path)
        with pytest.raises(CheckpointFormatError, match="shape mismatch for tensor"):
            checkpoint_load(path, cfg=toy_cfg(d_ff=32))

    def test_extra_tensor_rejected_by_name(self, tmp_path):
        path = str(tmp_path / "extra.ckpt")
        params = ModelParams(toy_cfg(layers=1))
        params.tensors["block0.temp.wc"] = Tensor(np.zeros((2, 4)))
        checkpoint_save(params, path)
        with pytest.raises(CheckpointFormatError, match=r"block0\.temp\.wc"):
            checkpoint_load(path)
        with pytest.raises(CheckpointFormatError, match=r"block0\.temp\.wc"):
            checkpoint_load(path, cfg=toy_cfg(layers=1))

    def test_missing_tensor_named_without_cfg(self, tmp_path):
        path = str(tmp_path / "nopos.ckpt")
        params = ModelParams(toy_cfg(layers=1))
        del params.tensors["embed.pos"]
        checkpoint_save(params, path)
        with pytest.raises(CheckpointFormatError, match="missing tensor embed.pos"):
            checkpoint_load(path)

    def test_duplicate_tensor_rejected(self, tmp_path):
        path = str(tmp_path / "dup.ckpt")
        params = ModelParams(toy_cfg(layers=1))
        checkpoint_save(params, path)
        records = [(n, t.values) for n, t in params.named_tensors()]
        records.append(records[0])
        body = b""
        for name, values in records:
            raw = name.encode("utf-8")
            body += struct.pack("<I", len(raw)) + raw
            body += struct.pack("<I", values.ndim)
            body += b"".join(struct.pack("<Q", e) for e in values.shape)
            body += values.astype("<f8").tobytes()
        head = open(path, "rb").read()[:8] + struct.pack("<I", len(records))
        open(path, "wb").write(head + body)
        with pytest.raises(CheckpointFormatError, match="duplicate tensor embed.tok"):
            checkpoint_load(path)

    def test_older_version_rejected_by_number(self, tmp_path):
        path = str(tmp_path / "v1.ckpt")
        checkpoint_save(ModelParams(toy_cfg(layers=1)), path)
        raw = bytearray(open(path, "rb").read())
        raw[4:8] = struct.pack("<I", 1)
        open(path, "wb").write(bytes(raw))
        with pytest.raises(CheckpointFormatError, match="version 1"):
            checkpoint_load(path)

    def test_trailing_byte_rejected(self, tmp_path):
        path = str(tmp_path / "tail.ckpt")
        checkpoint_save(ModelParams(toy_cfg(layers=1)), path)
        with open(path, "ab") as fh:
            fh.write(b"\0")
        with pytest.raises(CheckpointFormatError, match="trailing bytes"):
            checkpoint_load(path)


def _saved_checkpoint(tmp_path, layers=1):
    path = str(tmp_path / "c.ckpt")
    params = ModelParams(toy_cfg(layers=layers))
    checkpoint_save(params, path)
    return path, params, open(path, "rb").read()


def _field_offset(raw, tensor_index, field):
    """Byte offset of `field` ("name_len", "rank", "extent" or "values") of
    the tensor at `tensor_index` in a checkpoint body."""
    pos = 12
    for i in range(tensor_index + 1):
        name_len, = struct.unpack_from("<I", raw, pos)
        rank, = struct.unpack_from("<I", raw, pos + 4 + name_len)
        offsets = {"name_len": pos, "rank": pos + 4 + name_len,
                   "extent": pos + 8 + name_len,
                   "values": pos + 8 + name_len + 8 * rank}
        if i == tensor_index:
            return offsets[field]
        extents = struct.unpack_from(f"<{rank}Q", raw, offsets["extent"])
        pos = offsets["values"] + 8 * int(np.prod(extents))


class TestCheckpointCorruption:
    def test_non_finite_value_named(self, tmp_path):
        path, _, raw = _saved_checkpoint(tmp_path)
        at = _field_offset(raw, 1, "values")
        raw = raw[:at] + struct.pack("<d", np.inf) + raw[at + 8:]
        open(path, "wb").write(raw)
        with pytest.raises(CheckpointFormatError, match="embed.pos.*non-finite"):
            checkpoint_load(path)

    def test_undecodable_name(self, tmp_path):
        path, _, raw = _saved_checkpoint(tmp_path)
        at = _field_offset(raw, 0, "name_len") + 4
        open(path, "wb").write(raw[:at] + b"\xff" + raw[at + 1:])
        with pytest.raises(CheckpointFormatError, match="UTF-8"):
            checkpoint_load(path)

    @pytest.mark.parametrize("field,value", [("name_len", 2 ** 32 - 1),
                                             ("rank", 2 ** 32 - 1),
                                             ("extent", 2 ** 61)])
    def test_oversized_length_rejected_before_reading(self, tmp_path, field,
                                                      value):
        path, _, raw = _saved_checkpoint(tmp_path)
        at = _field_offset(raw, 0, field)
        packed = struct.pack("<Q" if field == "extent" else "<I", value)
        open(path, "wb").write(raw[:at] + packed + raw[at + len(packed):])
        with pytest.raises(CheckpointFormatError, match="truncated"):
            checkpoint_load(path)

    def test_empty_tensor_with_huge_extent(self, tmp_path):
        path, _, raw = _saved_checkpoint(tmp_path)
        at = _field_offset(raw, 0, "extent")
        packed = struct.pack("<2Q", 0, 2 ** 63)
        open(path, "wb").write(raw[:at] + packed + raw[at + len(packed):])
        with pytest.raises(CheckpointFormatError, match="unusable shape"):
            checkpoint_load(path)

    def test_scalar_embed_pos_rejected_without_cfg(self, tmp_path):
        # the sequence length is read off embed.pos when no cfg is given
        path = str(tmp_path / "c.ckpt")
        params = ModelParams(toy_cfg(layers=1))
        params.tensors["embed.pos"] = Tensor(np.array(0.5))
        checkpoint_save(params, path)
        with pytest.raises(CheckpointFormatError, match="embed.pos"):
            checkpoint_load(path)

    @given(data=st.data())
    @settings(max_examples=500, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_truncation_or_bit_flip_loads_or_raises_format_error(self, tmp_path,
                                                                 data):
        # tmp_path persists across examples: save the intact file once
        intact, path = str(tmp_path / "intact.ckpt"), str(tmp_path / "c.ckpt")
        if not os.path.exists(intact):
            checkpoint_save(ModelParams(toy_cfg(layers=1)), intact)
            shutil.copy(intact + ".json", path + ".json")
        raw = open(intact, "rb").read()
        if data.draw(st.booleans(), label="truncate"):
            blob = raw[:data.draw(st.integers(0, len(raw) - 1), label="keep")]
        else:
            bit = data.draw(st.integers(0, 8 * len(raw) - 1), label="bit")
            flipped = bytearray(raw)
            flipped[bit // 8] ^= 1 << (bit % 8)
            blob = bytes(flipped)
        open(path, "wb").write(blob)
        for cfg in (None, toy_cfg(layers=1)):
            try:
                checkpoint_load(path, cfg)
            except CheckpointFormatError:
                pass


class TestAtomicSave:
    def test_failed_save_keeps_previous_checkpoint(self, tmp_path):
        path, params, raw = _saved_checkpoint(tmp_path)
        side = open(path + ".json").read()
        other = ModelParams(toy_cfg(layers=1, seed=1))
        # a name that cannot be encoded fails the save after earlier
        # tensors have been written
        other.tensors["\ud800"] = Tensor(np.zeros(1))
        with pytest.raises(UnicodeEncodeError):
            checkpoint_save(other, path)
        assert open(path, "rb").read() == raw
        assert open(path + ".json").read() == side
        assert sorted(os.listdir(tmp_path)) == ["c.ckpt", "c.ckpt.json"]
        loaded = checkpoint_load(path)
        for (n1, t1), (n2, t2) in zip(params.named_tensors(),
                                      loaded.named_tensors()):
            assert n1 == n2 and np.array_equal(t1.values, t2.values)
