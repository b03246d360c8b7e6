"""Execution engine: roofline cost model, generation simulator, traces."""

from .placement import (
    CpuPlacement,
    Deployment,
    GpuPlacement,
    Workload,
    weight_footprint,
)
from .roofline import (
    CpuCostModel,
    GpuCostModel,
    OpCost,
    StepCost,
    WorkingSets,
    WorkingSetsVec,
    cost_model_for,
    gpu_io_bytes,
)
from .simulator import (
    GenerationResult,
    decode_step_cost,
    prefill_step_cost,
    simulate_encode,
    simulate_generation,
)
from .vectorized import DecodeCostEngine, decode_cost_engine
from .trace import (
    LayerStat,
    TraceEvent,
    block_layer_summary,
    decoder_block_share,
    events_from_step,
    layer_overheads,
)

__all__ = [
    "CpuPlacement", "Deployment", "GpuPlacement", "Workload",
    "weight_footprint",
    "CpuCostModel", "GpuCostModel", "OpCost", "StepCost", "WorkingSets",
    "WorkingSetsVec", "cost_model_for", "gpu_io_bytes",
    "GenerationResult", "decode_step_cost", "prefill_step_cost",
    "simulate_encode", "simulate_generation",
    "DecodeCostEngine", "decode_cost_engine",
    "LayerStat", "TraceEvent", "block_layer_summary", "decoder_block_share",
    "events_from_step", "layer_overheads",
]
