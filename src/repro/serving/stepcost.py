"""Shared, memoized step-duration table for serving schedulers.

The production :class:`~repro.serving.columnar.ColumnarScheduler` and
the frozen reference oracle in :mod:`repro.validate.oracle` must charge
*bit-identical* durations for the same (batch, context) decode step and
the same prompt prefill, or the differential parity checks between
them break.  Extracting the computation (and its memo keys) into one
class makes that equivalence structural instead of accidental: there
is exactly one code path that turns a step shape into seconds.

Decode contexts are bucketed to 64-token multiples (floored at 16) by
:meth:`StepCostTable.context_bucket` before the cost model runs, and
prefill is keyed on the exact prompt length.

Each new step shape is block-costed: the table builds the step's
:class:`~repro.llm.graph.StepGraph` (embedding, one decoder block,
head) and asks the cost model's ``step_total_s`` for the total, which
costs each operator of that description once and repeats the block's
per-op totals ``num_layers`` times in stream order.  The result is
bit-identical to costing the full per-layer stream through
``step_cost`` (pinned by the ``serving.step_cost_block_parity`` audit)
without building ``11 * num_layers`` operators and cost records per
shape.

Serving steps charge no cGPU bounce-buffer staging (``io_bytes=0``):
``step_total_s`` takes no staging bytes, whereas
:func:`~repro.engine.simulator.simulate_generation` stages each step's
host-device bytes through the bounce buffer.  A cGPU replica's prefill
and decode steps are therefore cheaper here than the paper simulator's
at the same shape.
"""

from __future__ import annotations

from ..engine.placement import Deployment
from ..engine.roofline import WorkingSets, cost_model_for
from ..llm.config import ModelConfig
from ..llm.datatypes import DType
from ..llm.graph import decode_step_graph, prefill_graph
from ..memo import MemoCache

#: Shared tables by (deployment, model, dtype): a fleet of identical
#: replicas costs each unique prompt length once, not once per replica.
_SHARED_TABLES = MemoCache("step_cost_table", maxsize=32)


class StepCostTable:
    """Memoized decode-step and prefill durations for one deployment.

    Args:
        deployment: Where the model serves (any backend).
        model: Served architecture.
        dtype: Serving datatype.
    """

    def __init__(self, deployment: Deployment, model: ModelConfig,
                 dtype: DType) -> None:
        self.deployment = deployment
        self.model = model
        self.dtype = dtype
        self._cost_model = cost_model_for(deployment)
        self._step_cache: dict[tuple[int, int], float] = {}
        self._prefill_cache: dict[int, float] = {}

    @classmethod
    def shared(cls, deployment: Deployment, model: ModelConfig,
               dtype: DType) -> "StepCostTable":
        """The process-wide table for this configuration.

        Identical configurations (by value) share one memo, so a fleet
        of same-spec replicas never costs the same step shape twice.
        Falls back to a private table if the configuration is
        unhashable.
        """
        try:
            return _SHARED_TABLES.get_or_compute(
                (deployment, model, dtype),
                lambda: cls(deployment, model, dtype))
        except TypeError:
            return cls(deployment, model, dtype)

    @staticmethod
    def context_bucket(context: int) -> int:
        """Bucket a decode context to the memoized 64-token grid."""
        return max(16, (context // 64) * 64)

    def working_sets(self, batch: int, context: int) -> WorkingSets:
        """Working sets of a step over ``batch`` sequences of ``context``."""
        weights = self.model.weight_bytes(self.dtype.bytes)
        kv = batch * context * self.model.kv_bytes_per_token(self.dtype.bytes)
        return WorkingSets(weights=weights, kv=kv, activations=64e6)

    def decode_step_s(self, batch: int, context: int) -> float:
        """Duration of one decode step at ``batch`` sequences."""
        bucket = self.context_bucket(context)
        key = (batch, bucket)
        cached = self._step_cache.get(key)
        if cached is None:
            graph = decode_step_graph(self.model, self.dtype, batch, bucket)
            cached = self._step_cache[key] = self._cost_model.step_total_s(
                graph, self.working_sets(batch, bucket), self.dtype)
        return cached

    def prefill_s(self, prompt_tokens: int) -> float:
        """Duration of a single-sequence prefill of ``prompt_tokens``."""
        cached = self._prefill_cache.get(prompt_tokens)
        if cached is None:
            graph = prefill_graph(self.model, self.dtype, 1, prompt_tokens)
            cached = self._prefill_cache[prompt_tokens] = \
                self._cost_model.step_total_s(
                    graph, self.working_sets(1, prompt_tokens), self.dtype)
        return cached
