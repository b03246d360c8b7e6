"""Serving-layer request, outcome and report types.

The paper's GPU experiments run vLLM, whose scheduler forms decode
batches dynamically from an arriving request stream.  This module holds
the values that flow through that loop — the arriving
:class:`ServeRequest`, the per-request :class:`RequestOutcome`, and the
aggregate :class:`ServingReport` with its TTFT/end-to-end percentiles —
plus a seeded Poisson stream generator.  The scheduler itself is
:class:`~repro.serving.columnar.ColumnarScheduler`.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ServeRequest:
    """One request in the arrival stream.

    ``priority`` orders graceful degradation: when a degraded fleet must
    shed load (:mod:`repro.faults`), lower-priority requests go first.
    It does not affect scheduling order on a healthy fleet.

    ``tenant_id`` attributes the request to a tenant for fair-share
    admission, KV isolation and billing (0 = the anonymous default
    tenant, preserving pre-tenancy behavior).
    """

    request_id: int
    arrival_s: float
    prompt_tokens: int
    output_tokens: int
    priority: int = 0
    tenant_id: int = 0

    def __post_init__(self) -> None:
        # NaN passes a plain `< 0` comparison, so finiteness is explicit.
        if not math.isfinite(self.arrival_s) or self.arrival_s < 0:
            raise ValueError("arrival_s must be finite and >= 0")
        for field_name in ("prompt_tokens", "output_tokens"):
            value = getattr(self, field_name)
            if not math.isfinite(value) or value < 1:
                raise ValueError(f"{field_name} must be finite and >= 1")
        if not math.isfinite(self.priority):
            raise ValueError("priority must be finite")
        if not math.isfinite(self.tenant_id) or self.tenant_id < 0:
            raise ValueError("tenant_id must be finite and >= 0")

    def to_state(self) -> dict:
        """Plain-dict snapshot of this request (JSON-serializable)."""
        return {
            "request_id": self.request_id,
            "arrival_s": self.arrival_s,
            "prompt_tokens": self.prompt_tokens,
            "output_tokens": self.output_tokens,
            "priority": self.priority,
            "tenant_id": self.tenant_id,
        }

    @classmethod
    def from_state(cls, state: dict) -> "ServeRequest":
        """Rebuild a request, mapping guard failures to ``StateValueError``."""
        from ..state.errors import StateError, StateValueError
        from ..state.schema import require
        try:
            return cls(
                request_id=require(state, "request_id", int, "$.request"),
                arrival_s=require(state, "arrival_s", float, "$.request"),
                prompt_tokens=require(state, "prompt_tokens", int,
                                      "$.request"),
                output_tokens=require(state, "output_tokens", int,
                                      "$.request"),
                priority=require(state, "priority", int, "$.request"),
                # Lenient: pre-tenancy snapshots have no tenant column.
                tenant_id=int(state.get("tenant_id", 0)),
            )
        except StateError:
            raise
        except ValueError as error:
            # The __post_init__ finiteness guards fire on NaN/negative
            # payload values; surface them as the structured taxonomy.
            raise StateValueError(
                f"invalid request payload: {error}") from error


@dataclass
class RequestOutcome:
    """Lifecycle record of one served request."""

    request: ServeRequest
    first_token_s: float = 0.0
    finish_s: float = 0.0
    preemptions: int = 0

    @property
    def ttft_s(self) -> float:
        """Time to first token (queueing + prefill)."""
        return self.first_token_s - self.request.arrival_s

    @property
    def e2e_s(self) -> float:
        """End-to-end latency."""
        return self.finish_s - self.request.arrival_s


@dataclass(frozen=True)
class ServingReport:
    """Aggregate serving metrics.

    Attributes:
        outcomes: Per-request lifecycle records, in submission order.
        start_s: When serving work first existed — the earliest arrival.
            The wall-clock timeline of the outcomes is absolute, so the
            serving window is ``[start_s, start_s + makespan_s]``.
        makespan_s: Busy window from the first arrival to the last
            completion.  Measuring from the first *arrival* (not from
            clock 0) keeps throughput honest when the stream starts
            late: idle lead time before any work exists is not
            serving time.
        total_preemptions: Preempt-and-recompute events across the run.
        mean_batch_occupancy: Mean decode-batch size over all steps.
    """

    outcomes: tuple[RequestOutcome, ...]
    makespan_s: float
    total_preemptions: int
    mean_batch_occupancy: float
    start_s: float = 0.0

    @property
    def end_s(self) -> float:
        """Absolute completion time of the last request."""
        return self.start_s + self.makespan_s

    @property
    def throughput_tok_s(self) -> float:
        tokens = sum(o.request.output_tokens for o in self.outcomes)
        return tokens / self.makespan_s if self.makespan_s else 0.0

    def ttft_percentile(self, percentile: float) -> float:
        return _percentile([o.ttft_s for o in self.outcomes], percentile)

    def e2e_percentile(self, percentile: float) -> float:
        return _percentile([o.e2e_s for o in self.outcomes], percentile)


def _percentile(values: Sequence[float] | np.ndarray,
                percentile: float) -> float:
    """Linearly interpolated percentile (numpy's default method).

    Takes any sequence or array of floats; fleet and tenant reports grade
    their columnar latencies with this same helper, so every report
    ranks latencies identically.  Nearest-rank rounding returns an
    endpoint for the median of two values, skewing small-sample
    TTFT/e2e percentiles; interpolation matches ``numpy.percentile``
    exactly.
    """
    ordered = np.sort(np.asarray(values, dtype=float))
    if not ordered.size:
        raise ValueError("no values")
    if not 0.0 <= percentile <= 100.0:
        raise ValueError("percentile must be in [0, 100]")
    rank = percentile / 100.0 * (ordered.size - 1)
    lower = int(math.floor(rank))
    upper = min(lower + 1, ordered.size - 1)
    fraction = rank - lower
    return float(ordered[lower] + (ordered[upper] - ordered[lower])
                 * fraction)


def poisson_stream(count: int, rate_per_s: float, mean_prompt: int = 256,
                   mean_output: int = 96, seed: int = 0) -> list[ServeRequest]:
    """A deterministic Poisson-like arrival stream for serving studies."""
    import random
    if count < 1 or rate_per_s <= 0:
        raise ValueError("count >= 1 and positive rate required")
    rng = random.Random(seed)
    clock = 0.0
    requests = []
    for request_id in range(count):
        clock += rng.expovariate(rate_per_s)
        prompt = max(16, int(rng.lognormvariate(0.0, 0.5) * mean_prompt))
        output = max(8, int(rng.lognormvariate(0.0, 0.4) * mean_output))
        requests.append(ServeRequest(request_id=request_id, arrival_s=clock,
                                     prompt_tokens=prompt,
                                     output_tokens=output))
    return requests
