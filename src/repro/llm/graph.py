"""Decoder op-graph construction for prefill and decode steps.

:func:`prefill_graph` and :func:`decode_step_graph` describe one forward
step as a :class:`StepGraph`: prologue (embedding), one decoder block
repeated ``num_layers`` times, and epilogue (final norm, LM head).
:func:`prefill_ops` and :func:`decode_step_ops` expand that description
into the full per-layer operator stream.  The block's operator names
match the per-block layer categories in the paper's Fig. 7 trace study
(input layernorm, QKV projection, self-attention, output projection,
post-attention layernorm, gate/up projection with SiLU multiply, down
projection, residuals).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from ..memo import MemoCache
from .config import ModelConfig
from .datatypes import DType
from .ops import AFFINE_FIELDS, AffineOp, Operator, OpCategory, Phase

#: Operator names emitted per decoder block, in execution order.
BLOCK_OP_NAMES = (
    "input_layernorm",
    "qkv_proj",
    "rotary_embed",
    "self_attention",
    "o_proj",
    "residual_add",
    "post_attention_layernorm",
    "gate_up_proj",
    "silu_mul",
    "down_proj",
    "residual_add_2",
)


def _norm_op(name: str, phase: Phase, layer: int | None, tokens: float,
             hidden: int, ds: float) -> Operator:
    return Operator(
        name=name, category=OpCategory.NORM, phase=phase, layer=layer,
        flops=5.0 * tokens * hidden,
        weight_bytes=hidden * ds,
        activation_bytes=2.0 * tokens * hidden * ds,
    )


def _block_ops(model: ModelConfig, dtype: DType, phase: Phase, layer: int,
               new_tokens: float, context_len: float,
               sequences: float) -> list[Operator]:
    """Operators of one decoder block.

    Args:
        new_tokens: Tokens processed this step across the whole batch
            (``sequences * seq_len`` in prefill, ``sequences`` in decode).
        context_len: Attended context length per sequence.
        sequences: Number of sequences (batch * beams).
    """
    h = model.hidden_size
    kv = model.kv_dim
    i = model.intermediate_size
    ds = dtype.bytes
    ops: list[Operator] = []

    ops.append(_norm_op("input_layernorm", phase, layer, new_tokens, h, ds))

    ops.append(Operator(
        name="qkv_proj", category=OpCategory.GEMM, phase=phase, layer=layer,
        flops=2.0 * new_tokens * h * (h + 2 * kv),
        weight_bytes=(h * h + 2 * h * kv) * ds,
        activation_bytes=new_tokens * (2 * h + 2 * kv) * ds,
    ))

    ops.append(Operator(
        name="rotary_embed", category=OpCategory.ELEMENTWISE, phase=phase,
        layer=layer,
        flops=6.0 * new_tokens * (h + kv),
        activation_bytes=2.0 * new_tokens * (h + kv) * ds,
    ))

    if phase is Phase.PREFILL:
        # Causal attention over the prompt: ~S^2/2 score and context MACs.
        seq_len = new_tokens / sequences
        attn_flops = 2.0 * sequences * h * seq_len * seq_len
        kv_read = 0.0
        softmax_tokens = sequences * seq_len * seq_len / 2.0
    else:
        # One new token per sequence attends to the full cached context.
        attn_flops = 4.0 * sequences * h * context_len
        kv_read = 2.0 * sequences * context_len * kv * ds
        softmax_tokens = sequences * context_len
    ops.append(Operator(
        name="self_attention", category=OpCategory.ATTENTION, phase=phase,
        layer=layer,
        flops=attn_flops + 5.0 * model.num_heads * softmax_tokens,
        activation_bytes=2.0 * new_tokens * h * ds,
        kv_read_bytes=kv_read,
        kv_write_bytes=2.0 * new_tokens * kv * ds,
    ))

    ops.append(Operator(
        name="o_proj", category=OpCategory.GEMM, phase=phase, layer=layer,
        flops=2.0 * new_tokens * h * h,
        weight_bytes=h * h * ds,
        activation_bytes=2.0 * new_tokens * h * ds,
    ))

    ops.append(Operator(
        name="residual_add", category=OpCategory.ELEMENTWISE, phase=phase,
        layer=layer,
        flops=new_tokens * h,
        activation_bytes=3.0 * new_tokens * h * ds,
    ))

    ops.append(_norm_op("post_attention_layernorm", phase, layer, new_tokens, h, ds))

    if model.mlp == "gated_silu":
        ops.append(Operator(
            name="gate_up_proj", category=OpCategory.GEMM, phase=phase,
            layer=layer,
            flops=2.0 * new_tokens * h * 2 * i,
            weight_bytes=2 * h * i * ds,
            activation_bytes=new_tokens * (h + 2 * i) * ds,
        ))
        ops.append(Operator(
            name="silu_mul", category=OpCategory.ELEMENTWISE, phase=phase,
            layer=layer,
            flops=5.0 * new_tokens * i,
            activation_bytes=3.0 * new_tokens * i * ds,
        ))
    else:
        ops.append(Operator(
            name="gate_up_proj", category=OpCategory.GEMM, phase=phase,
            layer=layer,
            flops=2.0 * new_tokens * h * i,
            weight_bytes=h * i * ds,
            activation_bytes=new_tokens * (h + i) * ds,
        ))
        ops.append(Operator(
            name="silu_mul", category=OpCategory.ELEMENTWISE, phase=phase,
            layer=layer,
            flops=8.0 * new_tokens * i,
            activation_bytes=2.0 * new_tokens * i * ds,
        ))

    ops.append(Operator(
        name="down_proj", category=OpCategory.GEMM, phase=phase, layer=layer,
        flops=2.0 * new_tokens * i * h,
        weight_bytes=h * i * ds,
        activation_bytes=new_tokens * (i + h) * ds,
    ))

    ops.append(Operator(
        name="residual_add_2", category=OpCategory.ELEMENTWISE, phase=phase,
        layer=layer,
        flops=new_tokens * h,
        activation_bytes=3.0 * new_tokens * h * ds,
    ))
    return ops


def _head_ops(model: ModelConfig, dtype: DType, phase: Phase,
              logits_tokens: float) -> list[Operator]:
    """Final norm and LM head for the tokens that need logits."""
    h, v, ds = model.hidden_size, model.vocab_size, dtype.bytes
    ops = [_norm_op("final_norm", phase, None, logits_tokens, h, ds)]
    if not model.encoder_only:
        ops.append(Operator(
            name="lm_head", category=OpCategory.GEMM, phase=phase, layer=None,
            flops=2.0 * logits_tokens * h * v,
            weight_bytes=h * v * ds,
            activation_bytes=logits_tokens * (h + v) * ds,
        ))
    return ops


def _embed_op(model: ModelConfig, dtype: DType, phase: Phase,
              tokens: float) -> Operator:
    h, ds = model.hidden_size, dtype.bytes
    return Operator(
        name="embed_tokens", category=OpCategory.EMBEDDING, phase=phase,
        layer=None,
        flops=0.0,
        weight_bytes=tokens * h * ds,
        activation_bytes=tokens * h * ds,
    )


@dataclass(frozen=True)
class StepGraph:
    """One forward step, block-structured.

    A step is its prologue (the token embedding), ``num_layers``
    repeats of one decoder block, and its epilogue (final norm and LM
    head).  Every block of a step has the same operators with the same
    cost fields; only the ``layer`` label differs.  :meth:`ops` expands
    the description into the full per-layer stream, while cost models
    can cost :meth:`block` once and repeat its per-op totals
    (:meth:`~repro.engine.roofline.CpuCostModel.step_total_s`).

    Attributes:
        model: Architecture (supplies ``num_layers``).
        dtype: Datatype of weights and activations.
        phase: Prefill or decode.
        sequences: Sequences in the step; each gets one logits row.
        new_tokens: Tokens processed this step across the whole batch
            (``sequences * seq_len`` in prefill, ``sequences`` in decode).
        context_len: Attended context length per sequence.
    """

    model: ModelConfig
    dtype: DType
    phase: Phase
    sequences: float
    new_tokens: float
    context_len: float

    @property
    def num_layers(self) -> int:
        """How many times :meth:`block` repeats in the stream."""
        return self.model.num_layers

    def prologue(self) -> list[Operator]:
        """Operators before the first decoder block."""
        return [_embed_op(self.model, self.dtype, self.phase,
                          self.new_tokens)]

    def block(self, layer: int = 0) -> list[Operator]:
        """Operators of the decoder block at ``layer``."""
        return _block_ops(self.model, self.dtype, self.phase, layer,
                          new_tokens=self.new_tokens,
                          context_len=self.context_len,
                          sequences=self.sequences)

    def epilogue(self) -> list[Operator]:
        """Operators after the last decoder block."""
        return _head_ops(self.model, self.dtype, self.phase,
                         logits_tokens=self.sequences)

    def ops(self) -> list[Operator]:
        """The full operator stream, one block per layer, in order."""
        ops = self.prologue()
        for layer in range(self.num_layers):
            ops.extend(self.block(layer))
        ops.extend(self.epilogue())
        return ops

    def stream_values(self, value: Callable[[Operator], float]) -> list[float]:
        """``[value(op) for op in self.ops()]``, evaluating one block.

        The block's values are repeated ``num_layers`` times in place
        of per-layer evaluation, which is exact for any ``value`` that
        ignores ``layer`` (the cost models do).  Summing the list left
        to right then reproduces the full stream's float sum bit for
        bit; ``num_layers * sum(block)`` would not.
        """
        return ([value(op) for op in self.prologue()]
                + [value(op) for op in self.block()] * self.num_layers
                + [value(op) for op in self.epilogue()])


def prefill_graph(model: ModelConfig, dtype: DType, batch_size: int,
                  input_len: int, beam_size: int = 1) -> StepGraph:
    """Block-structured description of one prefill over the prompt.

    Beam search shares the prompt forward pass across beams (the KV cache
    is replicated afterwards), so prefill cost scales with ``batch_size``
    only.  Only the last position of each sequence needs logits.
    """
    _check_shape(batch_size, input_len, beam_size)
    sequences = float(batch_size)
    return StepGraph(model, dtype, Phase.PREFILL, sequences=sequences,
                     new_tokens=sequences * input_len,
                     context_len=float(input_len))


def decode_step_graph(model: ModelConfig, dtype: DType, batch_size: int,
                      context_len: int, beam_size: int = 1) -> StepGraph:
    """Block-structured description of one decode step at a context."""
    _check_shape(batch_size, context_len, beam_size)
    sequences = float(batch_size * beam_size)
    return StepGraph(model, dtype, Phase.DECODE, sequences=sequences,
                     new_tokens=sequences, context_len=float(context_len))


def prefill_ops(model: ModelConfig, dtype: DType, batch_size: int,
                input_len: int, beam_size: int = 1) -> list[Operator]:
    """Operator stream of one prefill (:func:`prefill_graph` expanded)."""
    return prefill_graph(model, dtype, batch_size, input_len,
                         beam_size).ops()


def decode_step_ops(model: ModelConfig, dtype: DType, batch_size: int,
                    context_len: int, beam_size: int = 1) -> list[Operator]:
    """Operator stream of one decode step (:func:`decode_step_graph`
    expanded)."""
    return decode_step_graph(model, dtype, batch_size, context_len,
                             beam_size).ops()


def encode_ops(model: ModelConfig, dtype: DType, batch_size: int,
               input_len: int) -> list[Operator]:
    """Operator stream for a BERT-style encoder pass (RAG models)."""
    if not model.encoder_only:
        raise ValueError(f"{model.name} is not an encoder-only model")
    return prefill_ops(model, dtype, batch_size, input_len)


# -- memoized builders -------------------------------------------------------
#
# A sweep recosts the same (model, dtype, batch, length, beams) prefill
# graph for every deployment and every repetition; building one graph
# allocates ~num_layers x 11 Operator records.  The cached builder returns
# shared, immutable tuples — callers must not mutate them.  Decode graphs
# are costed through the affine model below, built once per shape.

_GRAPH_CACHE = MemoCache("op_graph", maxsize=512)
_AFFINE_CACHE = MemoCache("affine_decode_graph", maxsize=256)

#: Contexts used to extract and validate the affine decode model.
_AFFINE_LO, _AFFINE_HI, _AFFINE_CHECK = 1, 2, 7


def cached_prefill_ops(model: ModelConfig, dtype: DType, batch_size: int,
                       input_len: int, beam_size: int = 1) -> tuple[Operator, ...]:
    """Memoized :func:`prefill_ops`; the returned tuple is shared."""
    key = (model, dtype, batch_size, input_len, beam_size)
    return _GRAPH_CACHE.get_or_compute(
        key, lambda: tuple(prefill_ops(model, dtype, batch_size, input_len,
                                       beam_size)))


def decode_step_affine(model: ModelConfig, dtype: DType, batch_size: int,
                       beam_size: int = 1) -> tuple[AffineOp, ...]:
    """Affine-in-context model of one decode step, layers collapsed.

    Builds the step's prologue, one decoder block and epilogue at two
    reference contexts, differences the cost fields into ``base + slope
    * context`` templates, verifies the affine model against a third
    context, and gives the block's templates ``multiplicity =
    num_layers``.  The result is cached per
    ``(model, dtype, batch, beams)`` — it is independent of prompt and
    output lengths, so every input-length sweep shares one entry.

    Raises:
        RuntimeError: If some operator field is not affine in context
            (a graph change the vectorized engine cannot represent).
    """
    key = (model, dtype, batch_size, beam_size)
    return _AFFINE_CACHE.get_or_compute(
        key, lambda: _build_decode_affine(model, dtype, batch_size, beam_size))


def _build_decode_affine(model: ModelConfig, dtype: DType, batch_size: int,
                         beam_size: int) -> tuple[AffineOp, ...]:
    lo, hi, check = (decode_step_graph(model, dtype, batch_size, context,
                                       beam_size)
                     for context in (_AFFINE_LO, _AFFINE_HI, _AFFINE_CHECK))
    parts = ((StepGraph.prologue, 1), (StepGraph.block, model.num_layers),
             (StepGraph.epilogue, 1))
    return tuple(
        _affine_op(op_lo, op_hi, op_check, multiplicity)
        for part, multiplicity in parts
        for op_lo, op_hi, op_check in zip(part(lo), part(hi), part(check)))


def _affine_op(op_lo: Operator, op_hi: Operator, op_check: Operator,
               multiplicity: int) -> AffineOp:
    """Difference one operator at two contexts into an affine template."""
    bases, slopes = {}, {}
    for field in AFFINE_FIELDS:
        v_lo, v_hi = getattr(op_lo, field), getattr(op_hi, field)
        slope = (v_hi - v_lo) / (_AFFINE_HI - _AFFINE_LO)
        base = v_lo - slope * _AFFINE_LO
        predicted = base + slope * _AFFINE_CHECK
        actual = getattr(op_check, field)
        if not math.isclose(predicted, actual, rel_tol=1e-9, abs_tol=1e-6):
            raise RuntimeError(
                f"{op_lo.name}.{field} is not affine in context "
                f"(predicted {predicted}, got {actual}); the vectorized "
                f"decode engine cannot cost this graph")
        bases[field] = base
        slopes[field] = slope
    template = {"name": op_lo.name, "category": op_lo.category,
                "phase": Phase.DECODE, "layer": op_lo.layer}
    return AffineOp(base=Operator(**template, **bases),
                    slope=Operator(**template, **slopes),
                    multiplicity=multiplicity)


def _check_shape(batch_size: int, length: int, beam_size: int) -> None:
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    if length < 1:
        raise ValueError(f"sequence length must be >= 1, got {length}")
    if beam_size < 1:
        raise ValueError(f"beam_size must be >= 1, got {beam_size}")
