"""Transformer substrate: architectures, operator accounting, reference model."""

from .config import (
    BAICHUAN2_7B,
    CROSS_ENCODER,
    FALCON_7B,
    GPTJ_6B,
    LLAMA2_7B,
    LLAMA2_13B,
    LLAMA2_70B,
    LLAMA3_8B,
    QWEN_7B,
    SBERT_BASE,
    VALIDATION_MODELS,
    ModelConfig,
    all_models,
    model_by_name,
    tiny_llama,
)
from .datatypes import BFLOAT16, FLOAT32, INT8, DType, all_dtypes, dtype_by_name
from .graph import (
    BLOCK_OP_NAMES,
    StepGraph,
    decode_step_graph,
    decode_step_ops,
    encode_ops,
    prefill_graph,
    prefill_ops,
)
from .kvcache import KVCacheState, PagedKVCache
from .ops import Operator, OpCategory, Phase, group_by_name, merge_totals
from .quantize import (
    QuantizedTensor,
    int8_matmul,
    quantization_error,
    quantize_per_row,
    to_bfloat16,
)
from .reference import FlopRecorder, ReferenceTransformer
from .sampling import GenerationOutput, beam_decode, greedy_decode
from .sharding import ShardPlan, max_degree, plan_tensor_parallel
from .tokenizer import HashTokenizer

__all__ = [
    "BAICHUAN2_7B", "CROSS_ENCODER", "FALCON_7B", "GPTJ_6B",
    "LLAMA2_7B", "LLAMA2_13B", "LLAMA2_70B", "LLAMA3_8B", "QWEN_7B",
    "SBERT_BASE", "VALIDATION_MODELS", "ModelConfig", "all_models",
    "model_by_name", "tiny_llama",
    "BFLOAT16", "FLOAT32", "INT8", "DType", "all_dtypes", "dtype_by_name",
    "BLOCK_OP_NAMES", "StepGraph", "decode_step_graph", "decode_step_ops",
    "encode_ops", "prefill_graph", "prefill_ops",
    "KVCacheState", "PagedKVCache",
    "Operator", "OpCategory", "Phase", "group_by_name", "merge_totals",
    "QuantizedTensor", "int8_matmul", "quantization_error",
    "quantize_per_row", "to_bfloat16",
    "FlopRecorder", "ReferenceTransformer",
    "GenerationOutput", "beam_decode", "greedy_decode",
    "ShardPlan", "max_degree", "plan_tensor_parallel",
    "HashTokenizer",
]
