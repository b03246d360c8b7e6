"""Operator-graph construction: structure and scaling laws."""

from dataclasses import replace

import pytest

from repro.llm.config import (
    GPTJ_6B,
    LLAMA2_7B,
    LLAMA2_13B,
    LLAMA2_70B,
    SBERT_BASE,
)
from repro.llm.datatypes import BFLOAT16, INT8
from repro.llm.graph import (
    BLOCK_OP_NAMES,
    _build_decode_affine,
    decode_step_graph,
    decode_step_ops,
    encode_ops,
    prefill_ops,
)
from repro.llm.ops import (
    AFFINE_FIELDS,
    AffineOp,
    Operator,
    OpCategory,
    Phase,
    merge_totals,
)


class TestStructure:
    def test_decode_has_all_block_ops_per_layer(self):
        ops = decode_step_ops(LLAMA2_7B, BFLOAT16, 1, 128)
        for layer in range(LLAMA2_7B.num_layers):
            names = [op.name for op in ops if op.layer == layer]
            assert names == list(BLOCK_OP_NAMES)

    def test_decode_head_and_embedding(self):
        ops = decode_step_ops(LLAMA2_7B, BFLOAT16, 1, 128)
        top_level = [op.name for op in ops if op.layer is None]
        assert top_level == ["embed_tokens", "final_norm", "lm_head"]

    def test_phases_are_tagged(self):
        assert all(op.phase is Phase.DECODE
                   for op in decode_step_ops(LLAMA2_7B, BFLOAT16, 1, 8))
        assert all(op.phase is Phase.PREFILL
                   for op in prefill_ops(LLAMA2_7B, BFLOAT16, 1, 8))

    def test_encoder_has_no_lm_head(self):
        ops = encode_ops(SBERT_BASE, BFLOAT16, 4, 64)
        assert not any(op.name == "lm_head" for op in ops)

    def test_encode_rejects_decoder_models(self):
        with pytest.raises(ValueError, match="not an encoder"):
            encode_ops(LLAMA2_7B, BFLOAT16, 1, 64)


class TestFlopAccounting:
    def test_decode_flops_approx_2x_params(self):
        """One decode token costs ~2 FLOPs per parameter (plus attention)."""
        ops = decode_step_ops(LLAMA2_7B, BFLOAT16, 1, context_len=1)
        flops = merge_totals(ops)["flops"]
        assert flops == pytest.approx(2 * LLAMA2_7B.num_parameters, rel=0.10)

    def test_prefill_flops_scale_with_tokens(self):
        one = merge_totals(prefill_ops(LLAMA2_7B, BFLOAT16, 1, 64))["flops"]
        four = merge_totals(prefill_ops(LLAMA2_7B, BFLOAT16, 4, 64))["flops"]
        assert four == pytest.approx(4 * one, rel=0.02)

    def test_prefill_attention_quadratic(self):
        def attn_flops(seq):
            ops = prefill_ops(LLAMA2_7B, BFLOAT16, 1, seq)
            return sum(op.flops for op in ops if op.name == "self_attention")
        assert attn_flops(512) == pytest.approx(4 * attn_flops(256), rel=0.05)

    def test_decode_attention_linear_in_context(self):
        def attn_flops(ctx):
            ops = decode_step_ops(LLAMA2_7B, BFLOAT16, 1, ctx)
            return sum(op.flops for op in ops if op.name == "self_attention")
        assert attn_flops(1024) == pytest.approx(2 * attn_flops(512), rel=0.02)

    def test_beam_multiplies_decode_not_prefill(self):
        decode_1 = merge_totals(decode_step_ops(LLAMA2_7B, BFLOAT16, 2, 64,
                                                beam_size=1))["flops"]
        decode_4 = merge_totals(decode_step_ops(LLAMA2_7B, BFLOAT16, 2, 64,
                                                beam_size=4))["flops"]
        assert decode_4 == pytest.approx(4 * decode_1, rel=0.02)
        prefill_1 = merge_totals(prefill_ops(LLAMA2_7B, BFLOAT16, 2, 64,
                                             beam_size=1))["flops"]
        prefill_4 = merge_totals(prefill_ops(LLAMA2_7B, BFLOAT16, 2, 64,
                                             beam_size=4))["flops"]
        assert prefill_4 == prefill_1


class TestByteAccounting:
    def test_weight_bytes_independent_of_batch(self):
        def streamed_weights(batch):
            ops = decode_step_ops(LLAMA2_7B, BFLOAT16, batch, 64)
            # Embedding rows are gathered per token, not streamed.
            return sum(op.weight_bytes for op in ops
                       if op.name != "embed_tokens")
        assert streamed_weights(64) == streamed_weights(1)
        one = merge_totals(decode_step_ops(LLAMA2_7B, BFLOAT16, 1, 64))
        big = merge_totals(decode_step_ops(LLAMA2_7B, BFLOAT16, 64, 64))
        assert big["activation_bytes"] > one["activation_bytes"]

    def test_decode_weight_bytes_cover_all_parameters(self):
        totals = merge_totals(decode_step_ops(LLAMA2_7B, BFLOAT16, 1, 64))
        full = LLAMA2_7B.num_parameters * BFLOAT16.bytes
        # Embedding rows are gathered, not streamed, so slightly less.
        assert 0.9 * full < totals["weight_bytes"] <= full

    def test_kv_read_scales_with_context(self):
        short = merge_totals(decode_step_ops(LLAMA2_7B, BFLOAT16, 1, 128))
        long = merge_totals(decode_step_ops(LLAMA2_7B, BFLOAT16, 1, 1024))
        assert long["kv_read_bytes"] == pytest.approx(
            8 * short["kv_read_bytes"], rel=0.01)

    def test_kv_write_matches_model_accounting(self):
        totals = merge_totals(decode_step_ops(LLAMA2_7B, BFLOAT16, 3, 64))
        assert totals["kv_write_bytes"] == pytest.approx(
            3 * LLAMA2_7B.kv_bytes_per_token(BFLOAT16.bytes))

    def test_int8_halves_weight_traffic(self):
        bf16 = merge_totals(decode_step_ops(LLAMA2_7B, BFLOAT16, 1, 64))
        int8 = merge_totals(decode_step_ops(LLAMA2_7B, INT8, 1, 64))
        assert int8["weight_bytes"] == pytest.approx(
            bf16["weight_bytes"] / 2)

    def test_gqa_reduces_kv_traffic_not_attention_flops(self):
        dense = merge_totals(decode_step_ops(LLAMA2_7B, BFLOAT16, 1, 512))
        gqa = merge_totals(decode_step_ops(LLAMA2_70B, BFLOAT16, 1, 512))
        ratio_kv = gqa["kv_read_bytes"] / dense["kv_read_bytes"]
        # 70B: 80 layers x 1024 kv_dim vs 7B: 32 x 4096 => 0.625.
        assert ratio_kv == pytest.approx(0.625, rel=0.01)

    def test_gelu_mlp_has_two_matrices(self):
        ops = decode_step_ops(GPTJ_6B, BFLOAT16, 1, 64)
        gate_up = [op for op in ops if op.name == "gate_up_proj"]
        expected = GPTJ_6B.hidden_size * GPTJ_6B.intermediate_size * 2
        assert gate_up[0].weight_bytes == expected


class TestValidation:
    @pytest.mark.parametrize("kwargs", [
        {"batch_size": 0}, {"context_len": 0}, {"beam_size": 0},
    ])
    def test_bad_shapes_rejected(self, kwargs):
        args = {"batch_size": 1, "context_len": 16, "beam_size": 1}
        args.update(kwargs)
        with pytest.raises(ValueError):
            decode_step_ops(LLAMA2_7B, BFLOAT16, args["batch_size"],
                            args["context_len"], args["beam_size"])

    def test_gemm_ops_categorized(self):
        ops = decode_step_ops(LLAMA2_7B, BFLOAT16, 1, 16)
        gemm_names = {op.name for op in ops
                      if op.category is OpCategory.GEMM}
        assert {"qkv_proj", "o_proj", "gate_up_proj", "down_proj",
                "lm_head"} <= gemm_names


class TestStepGraph:
    def test_block_differs_across_layers_only_by_label(self):
        graph = decode_step_graph(LLAMA2_70B, BFLOAT16, 4, 1024)
        first, last = graph.block(0), graph.block(graph.num_layers - 1)
        assert [op.name for op in first] == list(BLOCK_OP_NAMES)
        assert {op.layer for op in last} == {graph.num_layers - 1}
        assert [replace(op, layer=0) for op in last] == first


def _merged_affine_from_streams(model, dtype, batch, beams):
    """The decode affine model built the pre-block way: difference three
    full operator streams and merge identical per-layer operators."""
    lo, hi, check = (decode_step_ops(model, dtype, batch, context, beams)
                     for context in (1, 2, 7))
    groups, order = {}, []
    for op_lo, op_hi, op_check in zip(lo, hi, check):
        bases, slopes = {}, {}
        for field in AFFINE_FIELDS:
            v_lo, v_hi = getattr(op_lo, field), getattr(op_hi, field)
            slope = (v_hi - v_lo) / (2 - 1)
            bases[field] = v_lo - slope * 1
            slopes[field] = slope
        key = (op_lo.name, op_lo.category, tuple(bases.values()),
               tuple(slopes.values()))
        if key in groups:
            existing = groups[key]
            groups[key] = AffineOp(base=existing.base, slope=existing.slope,
                                   multiplicity=existing.multiplicity + 1)
        else:
            template = {"name": op_lo.name, "category": op_lo.category,
                        "phase": Phase.DECODE, "layer": op_lo.layer}
            groups[key] = AffineOp(base=Operator(**template, **bases),
                                   slope=Operator(**template, **slopes),
                                   multiplicity=1)
            order.append(key)
    return tuple(groups[key] for key in order)


class TestDecodeAffineFromBlock:
    @pytest.mark.parametrize("model", [LLAMA2_7B, LLAMA2_13B, LLAMA2_70B],
                             ids=lambda m: m.name)
    @pytest.mark.parametrize("batch", [1, 8])
    @pytest.mark.parametrize("beams", [1, 4])
    def test_equals_the_merged_full_stream_model(self, model, batch, beams):
        built = _build_decode_affine(model, BFLOAT16, batch, beams)
        assert built == _merged_affine_from_streams(model, BFLOAT16, batch,
                                                    beams)
        assert [a.multiplicity for a in built] == (
            [1] + [model.num_layers] * len(BLOCK_OP_NAMES) + [1, 1])
