"""End-to-end generation simulation.

Runs a workload through a deployment: one prefill step plus one decode
step per output token (context growing as the KV cache fills), with
per-token latency noise and the TEE outlier process the paper filters
with a Z-score (§III-D).  Decode-step costs are recomputed every
``context_stride`` tokens (costs vary smoothly with context length) to
keep sweeps fast; ``context_stride=1`` gives the exact per-step model.

The clean decode trajectory comes from the :mod:`repro.engine.vectorized`
decode-cost engine, which costs every costed step in one numpy pass and
memoizes the per-shape cost curve.  The per-token loop it replaced is
kept as a frozen oracle, :func:`repro.validate.oracle.reference_decode_clean`,
that the differential audit and the engine tests compare against.
Memoized step costs are bit-identical to uncached ones (the caches store
the computed values, they do not approximate them).
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from ..llm.graph import cached_prefill_ops, decode_step_ops
from ..llm.ops import Operator, Phase, merge_totals
from ..memo import MemoCache
from . import calibration as cal
from .placement import CpuPlacement, Deployment, Workload, weight_footprint
from .roofline import (
    CpuCostModel,
    GpuCostModel,
    StepCost,
    WorkingSets,
    cost_model_for,
    gpu_io_bytes,
)
from .trace import TraceEvent, events_from_step
from .vectorized import decode_cost_engine

_PREFILL_COST_CACHE = MemoCache("prefill_step_cost", maxsize=256)


@dataclass(frozen=True)
class GenerationResult:
    """Outcome of one simulated generation run.

    Attributes:
        workload: The workload that ran.
        backend_name: Deployment backend.
        framework_name: Deployment framework.
        prefill_s: Time of the prompt pass (first-token latency).
        decode_clean_s: Noise-free per-step decode times.
        decode_noisy_s: Per-step decode times with jitter and TEE
            outliers (what a measurement harness would observe).
        prefill_step: Costed prefill step (for traces).
        sample_decode_step: Costed mid-generation decode step.
    """

    workload: Workload
    backend_name: str
    framework_name: str
    prefill_s: float
    decode_clean_s: np.ndarray
    decode_noisy_s: np.ndarray
    prefill_step: StepCost | None
    sample_decode_step: StepCost | None

    @property
    def decode_time_s(self) -> float:
        """Total noise-free decode time."""
        return float(self.decode_clean_s.sum())

    @property
    def total_time_s(self) -> float:
        """Prefill + decode (noise-free)."""
        return self.prefill_s + self.decode_time_s

    @property
    def throughput_tok_s(self) -> float:
        """User-visible tokens per second, first token included (Fig. 12)."""
        return self.workload.user_tokens / self.total_time_s

    @property
    def decode_throughput_tok_s(self) -> float:
        """Steady-state generation throughput (Figs. 4, 9, 10)."""
        return self.workload.user_tokens / self.decode_time_s

    @property
    def next_token_latency_s(self) -> float:
        """Mean noise-free time to the next token."""
        return float(self.decode_clean_s.mean())

    @property
    def latency_samples_s(self) -> np.ndarray:
        """Observed per-token latencies (noisy; feed to metrics filters)."""
        return self.decode_noisy_s

    def decode_trace(self) -> list[TraceEvent]:
        """Trace events of the sampled decode step.

        Raises:
            ValueError: If the run was simulated without step recording.
        """
        if self.sample_decode_step is None:
            raise ValueError("run was simulated with record_steps=False")
        return events_from_step(self.sample_decode_step, Phase.DECODE)


def _working_sets(workload: Workload, deployment: Deployment,
                  context_len: int, ops: list[Operator]) -> WorkingSets:
    totals = merge_totals(ops)
    kv_ws = (workload.sequences * context_len
             * workload.model.kv_bytes_per_token(workload.dtype.bytes))
    return WorkingSets(
        weights=weight_footprint(workload, deployment.framework),
        kv=kv_ws,
        activations=totals["activation_bytes"],
    )


def _noise(rng: np.random.Generator, clean: np.ndarray, is_tee: bool) -> np.ndarray:
    sigma = cal.BASE_NOISE_SIGMA + (cal.TEE_NOISE_SIGMA if is_tee else 0.0)
    jitter = np.exp(rng.normal(0.0, sigma, size=clean.shape) - sigma * sigma / 2.0)
    noisy = clean * jitter
    if is_tee:
        outliers = rng.random(clean.shape) < cal.TEE_OUTLIER_PROBABILITY
        scales = 1.0 + rng.exponential(cal.TEE_OUTLIER_SCALE - 1.0,
                                       size=clean.shape)
        noisy = np.where(outliers, noisy * scales, noisy)
    return noisy


def prefill_step_cost(workload: Workload, deployment: Deployment,
                      model: CpuCostModel | GpuCostModel | None = None) -> StepCost:
    """Costed prefill step, memoized per (deployment, workload shape)."""
    key = (deployment, workload.model, workload.dtype, workload.batch_size,
           workload.input_tokens, workload.beam_size)

    def build() -> StepCost:
        cost_model = model or cost_model_for(deployment)
        ops = list(cached_prefill_ops(
            workload.model, workload.dtype, workload.batch_size,
            workload.input_tokens, workload.beam_size))
        sets = _working_sets(workload, deployment, workload.input_tokens, ops)
        if isinstance(deployment.placement, CpuPlacement):
            return cost_model.step_cost(ops, sets, workload.dtype)
        return cost_model.step_cost(
            ops, sets, workload.dtype,
            io_bytes=gpu_io_bytes(workload, Phase.PREFILL))

    return _PREFILL_COST_CACHE.get_or_compute(key, build)


def decode_step_cost(workload: Workload, deployment: Deployment,
                     context: int,
                     model: CpuCostModel | GpuCostModel | None = None) -> StepCost:
    """Costed decode step at one context, operator by operator."""
    cost_model = model or cost_model_for(deployment)
    ops = decode_step_ops(workload.model, workload.dtype, workload.batch_size,
                          context, workload.beam_size)
    sets = _working_sets(workload, deployment, context, ops)
    if isinstance(deployment.placement, CpuPlacement):
        return cost_model.step_cost(ops, sets, workload.dtype)
    return cost_model.step_cost(
        ops, sets, workload.dtype,
        io_bytes=gpu_io_bytes(workload, Phase.DECODE))


def _check_context_stride(context_stride: object) -> None:
    """Reject a decode-cost stride that is not an integer >= 1.

    Raises:
        ValueError: For a ``bool``, a non-integral number or a value
            below 1.
    """
    if (isinstance(context_stride, bool)
            or not isinstance(context_stride, numbers.Integral)
            or context_stride < 1):
        raise ValueError(
            f"context_stride must be an integer >= 1, got {context_stride!r}")


def _decode_clean(workload: Workload, deployment: Deployment,
                  stride: int) -> np.ndarray:
    """Clean per-token decode times via the vectorized cost engine.

    Costs are evaluated at contexts ``input + k*stride`` and held for
    the following ``stride`` tokens.
    """
    engine = decode_cost_engine(workload, deployment)
    costed_contexts = workload.input_tokens + np.arange(
        0, workload.output_tokens, stride)
    step_costs = engine.step_costs(costed_contexts)
    return np.repeat(step_costs, stride)[:workload.output_tokens]


def simulate_generation(workload: Workload, deployment: Deployment,
                        seed: int = 0, context_stride: int | None = None,
                        record_steps: bool = False) -> GenerationResult:
    """Simulate one generation run.

    Args:
        workload: What to run.
        deployment: Where and how to run it.
        seed: Noise RNG seed.
        context_stride: Recompute decode-step cost every this many
            tokens (``None`` picks ``output_tokens // 32``, at least 1).
        record_steps: Keep the costed prefill and a mid-generation decode
            step for trace analysis (Fig. 7).  The sampled step is costed
            exactly at its own context without disturbing the
            stride-cadence clean trajectory, so toggling this flag never
            changes the simulated times.

    Raises:
        ValueError: If ``context_stride`` is not ``None`` or an integer
            >= 1, or if the workload cannot run on the deployment (dtype
            unsupported, model does not fit, ...).
    """
    if context_stride is not None:
        _check_context_stride(context_stride)
    deployment.validate_workload(workload)
    model = cost_model_for(deployment)

    prefill = prefill_step_cost(workload, deployment, model)
    stride = context_stride or max(1, workload.output_tokens // 32)
    clean = _decode_clean(workload, deployment, stride)

    sample_step: StepCost | None = None
    if record_steps:
        sample_index = workload.output_tokens // 2
        sample_step = decode_step_cost(
            workload, deployment, workload.input_tokens + sample_index, model)

    rng = np.random.default_rng(seed)
    noisy = _noise(rng, clean, deployment.backend.is_tee)
    return GenerationResult(
        workload=workload,
        backend_name=deployment.backend.name,
        framework_name=deployment.framework.name,
        prefill_s=prefill.total_s,
        decode_clean_s=clean,
        decode_noisy_s=noisy,
        prefill_step=prefill if record_steps else None,
        sample_decode_step=sample_step,
    )


def simulate_encode(workload: Workload, deployment: Deployment,
                    seed: int = 0) -> float:
    """Time one encoder (BERT-style) forward pass, noise included.

    Used by the RAG substrate for SBERT/cross-encoder scoring cost.
    """
    deployment.validate_workload(workload)
    if not workload.model.encoder_only:
        raise ValueError(f"{workload.model.name} is not an encoder-only model")
    # An encoder pass is a prefill over the prompt (see encode_ops), so
    # it shares the memoized prefill step-cost cache.
    step = prefill_step_cost(workload, deployment)
    rng = np.random.default_rng(seed)
    return float(_noise(rng, np.array([step.total_s]),
                        deployment.backend.is_tee)[0])
