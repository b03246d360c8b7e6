"""Shared, memoized step-duration table for serving schedulers.

The production :class:`~repro.serving.columnar.ColumnarScheduler` and
the frozen reference oracle in :mod:`repro.validate.oracle` must charge
*bit-identical* durations for the same (batch, context) decode step and
the same prompt prefill, or the differential parity checks between
them break.  Extracting the computation (and its memo keys) into one
class makes that equivalence structural instead of accidental: there
is exactly one code path that turns a step shape into seconds.

The numbers themselves are unchanged from the original in-scheduler
helpers: decode contexts are bucketed to 64-token multiples (floored at
16) before the cost model runs, and prefill is keyed on the exact
prompt length.
"""

from __future__ import annotations

from ..engine.placement import Deployment
from ..engine.roofline import WorkingSets, cost_model_for
from ..llm.config import ModelConfig
from ..llm.datatypes import DType
from ..llm.graph import decode_step_ops, prefill_ops
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

    def _sets(self, batch: int, context: int) -> WorkingSets:
        weights = self.model.weight_bytes(self.dtype.bytes)
        kv = batch * context * self.model.kv_bytes_per_token(self.dtype.bytes)
        return WorkingSets(weights=weights, kv=kv, activations=64e6)

    def decode_step_s(self, batch: int, context: int) -> float:
        """Duration of one decode step at ``batch`` sequences."""
        context_bucket = max(16, (context // 64) * 64)
        key = (batch, context_bucket)
        cached = self._step_cache.get(key)
        if cached is None:
            ops = decode_step_ops(self.model, self.dtype, batch,
                                  context_bucket)
            step = self._cost_model.step_cost(
                ops, self._sets(batch, context_bucket), self.dtype)
            cached = self._step_cache[key] = step.total_s
        return cached

    def prefill_s(self, prompt_tokens: int) -> float:
        """Duration of a single-sequence prefill of ``prompt_tokens``."""
        cached = self._prefill_cache.get(prompt_tokens)
        if cached is None:
            ops = prefill_ops(self.model, self.dtype, 1, prompt_tokens)
            step = self._cost_model.step_cost(
                ops, self._sets(1, prompt_tokens), self.dtype)
            cached = self._prefill_cache[prompt_tokens] = step.total_s
        return cached
