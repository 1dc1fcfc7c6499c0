import json
import os
import shutil
import struct
import zlib

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ttm_lab.model import (TEMP_INIT_STD, CheckpointFormatError, ModelConfig,
                           ModelParams, block_forward, checkpoint_load,
                           checkpoint_save, final_field, forward_embedded,
                           model_forward, reasoning_head)
from ttm_lab.numerics import (DimensionError, Rng, Tensor, gelu, grad_check,
                              layer_norm)


def toy_cfg(**kw):
    base = dict(d_model=8, heads=2, layers=2, d_ff=16, vocab_size=11, d_c=4,
                seed=0, max_seq_len=8)
    base.update(kw)
    return ModelConfig(**base)


def wide_cfg(monkeypatch, spread, **kw):
    """toy_cfg, with the temperature head's init std raised by `spread` for
    the rest of the test: at 0.3 each field spreads over most of
    (eps_min, 1 - eps_min) instead of sitting near the neutral 0.5."""
    monkeypatch.setattr("ttm_lab.model.TEMP_INIT_STD", TEMP_INIT_STD + spread)
    return toy_cfg(**kw)


def _sealed(body):
    """A checkpoint body followed by its CRC32 trailer, so that a test's
    corruption reaches the check it is aimed at instead of the CRC check."""
    return body + struct.pack("<I", zlib.crc32(body))


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

    def test_zero_temp_init_std_gives_neutral_fields(self, monkeypatch):
        monkeypatch.setattr("ttm_lab.model.TEMP_INIT_STD", 0.0)
        params = ModelParams(toy_cfg())
        for name in ("block0.temp.wt", "block0.temp.bt"):
            assert not params.tensors[name].values.any()

    def test_checkpoint_json_round_trip(self):
        cfg = toy_cfg(eps_min=0.25, attention_variant="outer")
        text = cfg.to_checkpoint_json()
        back = ModelConfig.from_checkpoint_json(text, max_seq_len=8)
        assert back == cfg

    def test_checkpoint_json_keeps_its_bytes(self):
        # the sidecar lists every field but max_seq_len, in field order
        assert ModelConfig().to_checkpoint_json() == (
            '{\n  "d_model": 32,\n  "heads": 2,\n  "layers": 2,\n'
            '  "d_ff": 64,\n  "vocab_size": 32,\n  "d_c": 8,\n'
            '  "eps_min": 0.01,\n  "attention_variant": "broadcast",\n'
            '  "seed": 0\n}\n')

    def test_unknown_json_key_rejected(self):
        with pytest.raises(CheckpointFormatError):
            ModelConfig.from_checkpoint_json('{"d_model": 8, "bogus": 1}')

    def test_sidecar_naming_blend_alpha_rejected(self, tmp_path):
        # a checkpoint saved while the config still had a blend weight
        path, _, _ = _saved_checkpoint(tmp_path)
        doc = json.loads(open(path + ".json").read())
        doc["blend_alpha"] = 0.0
        open(path + ".json", "w").write(json.dumps(doc))
        with pytest.raises(CheckpointFormatError,
                           match=r"unknown config keys: \['blend_alpha'\]"):
            checkpoint_load(path)


class TestBlockForward:
    def test_zero_temp_head_gives_neutral_field(self):
        cfg = toy_cfg(layers=1)
        params = ModelParams(cfg)
        block = params.blocks[0]
        block.temp.W_t.values[:] = 0.0
        block.temp.b_t.values[:] = 0.0
        _, field = block_forward(Tensor(Rng(1).normal((4, 8))), block, cfg)
        assert np.array_equal(field.values, np.full((2, 4), 0.5))

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

    @pytest.mark.parametrize("variant, spread", [("broadcast", 0.0),
                                                 ("outer", 0.0), ("outer", 0.3)])
    def test_shared_projection_gradient(self, monkeypatch, variant, spread):
        # W_qkv feeds both passes: the plain one and, through its logits and
        # value rows, the modulated one; spread widens the field (wide_cfg)
        cfg = wide_cfg(monkeypatch, spread, layers=1,
                       attention_variant=variant)
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

    @pytest.mark.parametrize("tokens", [[1.7, 2.2, 3.9], [1.0, 2.0, 3.0],
                                        [True, False, True], [True, 2, 3]],
                             ids=["fractional", "whole-floats", "bools",
                                  "bool-among-ints"])
    def test_non_integer_ids_rejected_before_any_cast(self, tokens):
        # cast first, [1.7, 2.2, 3.9] would run as [1, 2, 3]
        params = ModelParams(toy_cfg())
        with pytest.raises(ValueError, match="token ids must be integers"):
            model_forward(tokens, params)

    def test_neutral_field_halves_logits(self):
        cfg = toy_cfg()
        params = ModelParams(cfg)
        for block in params.blocks:
            block.temp.W_t.values[:] = 0.0
            block.temp.b_t.values[:] = 0.0
        logits, fields = model_forward([1, 2, 3], params)
        assert np.array_equal(fields[-1].values, np.full((2, 3), 0.5))
        # rebuild the unscaled projection from the last hidden state
        from ttm_lab.model import embed_tokens, forward_embedded
        _, _, hidden = forward_embedded(embed_tokens([1, 2, 3], params), params)
        unscaled = hidden.values @ params.W_out.values
        assert np.abs(logits.values - 0.5 * unscaled).max() < 1e-12

    def test_argmax_invariance_of_output_scaling(self):
        params = ModelParams(toy_cfg(seed=4))
        tokens = [3, 1, 4, 1, 5]
        logits, fields = model_forward(tokens, params)
        mean_t = fields[-1].values.mean()
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
        want = (h @ params.W_out) * field.mean()
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

    @pytest.mark.parametrize("lead", [(), (2,)], ids=["one", "batch"])
    @pytest.mark.parametrize("positions", [slice(4, 5), slice(1, 4)])
    def test_positions_gradient(self, positions, lead):
        # through the cut last block: the input, a product's weight and a
        # LayerNorm's gain
        params = ModelParams(toy_cfg())
        last = params.blocks[-1]
        emb0 = Tensor(Rng(8).normal((*lead, 5, 8), 0.0, 0.1))

        def loss(emb=emb0):
            logits, _, _ = forward_embedded(emb, params, positions=positions)
            return (logits ** 2).mean()

        def through(name):
            def run(t):
                setattr(last, name, t)
                return loss()
            return run

        assert grad_check(loss, emb0) < 1e-4
        for name in ("W_ff1", "ln1_gain", "ln2_bias"):
            assert grad_check(through(name), getattr(last, name)) < 1e-4

    @pytest.mark.parametrize("positions", [slice(None), slice(0, 5),
                                           slice(-5, 9)])
    def test_positions_covering_all_take_the_full_path(self, monkeypatch,
                                                       positions):
        from ttm_lab import model
        shapes = []

        def recording(x):
            shapes.append(x.shape)
            return gelu(x)

        monkeypatch.setattr(model, "gelu", recording)
        params = ModelParams(toy_cfg())
        got = model_forward([1, 2, 3, 4, 5], params, positions=positions)[0]
        assert shapes == [(5, 16), (5, 16)]
        assert np.array_equal(got.values,
                              model_forward([1, 2, 3, 4, 5], params)[0].values)

    @pytest.mark.parametrize("positions", [slice(3, 3), slice(6, 8),
                                           slice(0, 5, 2), slice(4, 1, -1), 2,
                                           [1, 2]])
    def test_positions_must_be_a_non_empty_unit_slice(self, positions):
        with pytest.raises(DimensionError, match="positions"):
            model_forward([1, 2, 3, 4, 5], ModelParams(toy_cfg()),
                          positions=positions)


class TestFinalField:
    @pytest.mark.parametrize("layers", [1, 2, 3])
    @pytest.mark.parametrize("variant, spread", [("baseline", 0.0),
                                                 ("broadcast", 0.0),
                                                 ("outer", 0.0), ("outer", 0.3),
                                                 ("broadcast", 0.3)])
    def test_matches_full_forward_bitwise(self, monkeypatch, layers, variant,
                                          spread):
        self.assert_matches(monkeypatch, spread, layers=layers,
                            attention_variant=variant, seed=layers)

    # toy_cfg's 2 heads run above
    @pytest.mark.parametrize("heads", [1, 4])
    @pytest.mark.parametrize("layers", [1, 2])
    @pytest.mark.parametrize("variant, spread", [("baseline", 0.0),
                                                 ("broadcast", 0.3),
                                                 ("outer", 0.0)])
    def test_matches_full_forward_bitwise_per_head_count(
            self, monkeypatch, heads, layers, variant, spread):
        self.assert_matches(monkeypatch, spread, heads=heads, layers=layers,
                            attention_variant=variant, seed=heads)

    @staticmethod
    def assert_matches(monkeypatch, spread, **cfg):
        params = ModelParams(wide_cfg(monkeypatch, spread, **cfg))
        x = Tensor(Rng(9).normal((6, 8)))
        want = forward_embedded(x, params)[1][-1].values
        assert np.array_equal(final_field(x, params).values, want)

    @pytest.mark.parametrize("layers", [1, 2])
    def test_runs_off_the_tape(self, layers):
        params = ModelParams(toy_cfg(layers=layers))
        x = Tensor(Rng(9).normal((6, 8)), requires_grad=True)
        field = final_field(x, params)
        assert field._parents == () and not field.requires_grad
        field.sum().backward()
        assert x.grad is None
        assert all(t.grad is None for _, t in params.named_tensors())

    def test_detached_shares_arrays_without_gradients(self):
        params = ModelParams(toy_cfg())
        view = params.detached()
        for (name, t), (view_name, v) in zip(params.named_tensors(),
                                             view.named_tensors()):
            assert name == view_name and v.values is t.values
            assert t.requires_grad and not v.requires_grad
        assert view.blocks[0].attn.W_qkv is view.tensors["block0.attn.wqkv"]
        assert view.detached() is view

    def test_rejects_past_max_seq_len(self):
        params = ModelParams(toy_cfg())
        with pytest.raises(DimensionError, match="max_seq_len"):
            final_field(Tensor(Rng(10).normal((9, 8))), params)

    def test_extraction_skips_last_block_ffn(self, monkeypatch):
        # K - 1 extraction steps each run L - 1 full blocks; the integrated
        # pass runs all L
        from ttm_lab import gsot, model
        K, L = 3, 2
        params = ModelParams(toy_cfg(layers=L, max_seq_len=16))
        universe = gsot.build_universe(params, 4, Rng(11))
        calls = []

        def counting_gelu(x):
            calls.append(1)
            return gelu(x)

        monkeypatch.setattr(model, "gelu", counting_gelu)
        gsot.gsot_pipeline([1, 2, 3, 4, 5, 6], universe, params,
                           gsot.GsotConfig(K=K))
        assert len(calls) == (K - 1) * (L - 1) + L


class TestHeads:
    def test_gelu_asymptotics(self):
        assert float(gelu(Tensor([0.0])).values[0]) == 0.0
        assert abs(float(gelu(Tensor([10.0])).values[0]) - 10.0) < 1e-6

    def test_reasoning_head_rows_sum_to_one(self):
        params = ModelParams(toy_cfg())
        attn_out = Tensor(Rng(12).normal((4, 8)))
        field = Tensor(Rng(13).uniform((2, 4), 0.1, 0.9))
        probs = reasoning_head(attn_out, field, params.W_reason)
        assert np.abs(probs.values.sum(axis=-1) - 1.0).max() < 1e-9

    def test_reasoning_head_field_ablation(self):
        params = ModelParams(toy_cfg())
        params.W_reason.values[8:, :] = 0.0  # zero the temperature columns
        attn_out = Tensor(Rng(14).normal((4, 8)))
        a = reasoning_head(attn_out, Tensor(np.full((2, 4), 0.2)),
                           params.W_reason).values
        b = reasoning_head(attn_out, Tensor(np.full((2, 4), 0.8)),
                           params.W_reason).values
        assert np.array_equal(a, b)

    def test_reasoning_head_width_mismatch(self):
        params = ModelParams(toy_cfg())
        with pytest.raises(Exception, match="width"):
            reasoning_head(Tensor(np.zeros((2, 5))),
                           Tensor(np.full((2, 2), 0.5)),
                           params.W_reason)


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
        open(path, "wb").write(_sealed(raw[: len(raw) // 2]))
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
        open(path, "wb").write(_sealed(head + body))
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
        raw = open(path, "rb").read()
        open(path, "wb").write(_sealed(raw[:-4] + b"\0"))
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
        open(path, "wb").write(_sealed(raw[:-4]))
        with pytest.raises(CheckpointFormatError, match="embed.pos.*non-finite"):
            checkpoint_load(path)

    def test_undecodable_name(self, tmp_path):
        path, _, raw = _saved_checkpoint(tmp_path)
        at = _field_offset(raw, 0, "name_len") + 4
        open(path, "wb").write(_sealed(raw[:at] + b"\xff" + raw[at + 1:-4]))
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
        open(path, "wb").write(_sealed(raw[:at] + packed
                                       + raw[at + len(packed):-4]))
        with pytest.raises(CheckpointFormatError, match="truncated"):
            checkpoint_load(path)

    def test_empty_tensor_with_huge_extent(self, tmp_path):
        path, _, raw = _saved_checkpoint(tmp_path)
        at = _field_offset(raw, 0, "extent")
        packed = struct.pack("<2Q", 0, 2 ** 63)
        open(path, "wb").write(_sealed(raw[:at] + packed
                                       + raw[at + len(packed):-4]))
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

    def test_empty_embed_pos_rejected_without_cfg(self, tmp_path):
        # zero rows read as max_seq_len 0, which the config rejects
        path = str(tmp_path / "c.ckpt")
        params = ModelParams(toy_cfg(layers=1))
        params.tensors["embed.pos"] = Tensor(np.zeros((0, 8)))
        checkpoint_save(params, path)
        with pytest.raises(CheckpointFormatError, match="max_seq_len >= 1"):
            checkpoint_load(path)

    @pytest.mark.parametrize("sidecar", [
        pytest.param(None, id="cut"),
        pytest.param('{"heads": 0}', id="heads-0"),
        pytest.param('{"eps_min": 0.6}', id="eps_min-0.6"),
        pytest.param('{"heads": "2"}', id="heads-str"),
        pytest.param('{"temp_init_std": -0.5}', id="temp_init_std-negative"),
        pytest.param('{"temp_init_std": NaN}', id="temp_init_std-nan"),
        pytest.param('{"temp_init_std": 1e308}', id="temp_init_std-1e308"),
        pytest.param('{"heads": 2.0}', id="heads-2.0"),
        pytest.param('{"vocab_size": 11.0}', id="vocab_size-11.0"),
        pytest.param('{"layers": true}', id="layers-true"),
        pytest.param('{"seed": 1.5}', id="seed-1.5"),
        pytest.param('{"d_model": 8.0}', id="d_model-8.0"),
        pytest.param('{"d_c": 4.0}', id="d_c-4.0"),
        pytest.param("null", id="null"),
    ])
    def test_corrupt_sidecar_raises_format_error(self, tmp_path, sidecar):
        # the temp_init_std cases name a key the config no longer has; the
        # sidecar is held to the JSON type rule of `ttmlab --config`, so a
        # float or a boolean in an integer field fails here, not mid-run
        path, _, _ = _saved_checkpoint(tmp_path)
        text = open(path + ".json").read()
        if sidecar is None:
            sidecar = text[:len(text) // 2]
        else:
            doc = json.loads(text)
            update = json.loads(sidecar)
            sidecar = "null" if update is None else json.dumps({**doc, **update})
        open(path + ".json", "w").write(sidecar)
        with pytest.raises(CheckpointFormatError, match="config sidecar"):
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
        # the CRC32 trailer catches every flip the parser alone would load
        for cfg in (None, toy_cfg(layers=1)):
            with pytest.raises(CheckpointFormatError):
                checkpoint_load(path, cfg)

    def test_flipped_value_bit_fails_crc(self, tmp_path):
        path, _, raw = _saved_checkpoint(tmp_path)
        at = _field_offset(raw, 1, "values")
        flipped = bytearray(raw)
        flipped[at] ^= 1
        open(path, "wb").write(bytes(flipped))
        with pytest.raises(CheckpointFormatError, match="CRC32 mismatch"):
            checkpoint_load(path)

    def test_file_too_short_for_crc(self, tmp_path):
        path, _, raw = _saved_checkpoint(tmp_path)
        open(path, "wb").write(raw[:10])
        with pytest.raises(CheckpointFormatError, match="reading CRC32"):
            checkpoint_load(path)


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
