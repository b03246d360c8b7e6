"""Vectorized decode-cost engine.

Every decode-step operator cost is affine in the attended context length
(attention FLOPs and KV reads grow linearly, everything else is
constant), and the roofline model maps those fields to time through
closed-form algebra.  :class:`DecodeCostEngine` therefore costs *all*
decode steps of a generation in one numpy pass over the context vector
instead of rebuilding ``num_layers x 11`` operators and re-running the
scalar roofline per costed token.

Engines are memoized per ``(deployment, model, dtype, batch, beams)`` —
independent of prompt and output lengths — so input-length sweeps and
repeated experiments share one instance.  The scalar per-token loop,
:func:`repro.validate.oracle.reference_decode_clean`, remains the
reference implementation; parity between the two paths is enforced by
the ``engine.vectorized_loop_parity`` audit and the engine test suite.
"""

from __future__ import annotations

import numpy as np

from ..llm.graph import decode_step_affine
from ..llm.ops import Phase
from ..memo import MemoCache
from .placement import CpuPlacement, Deployment, Workload, weight_footprint
from .roofline import WorkingSetsVec, cost_model_for, gpu_io_bytes

_ENGINE_CACHE = MemoCache("decode_cost_engine", maxsize=256)


class DecodeCostEngine:
    """Precomputed vectorized decode-cost curve for one workload shape.

    The engine depends on the workload only through its *shape* (model,
    dtype, batch, beams) — never on prompt or output lengths — so one
    instance serves every generation of that shape on the deployment.
    """

    def __init__(self, workload: Workload, deployment: Deployment) -> None:
        self.deployment = deployment
        self.dtype = workload.dtype
        self.model = cost_model_for(deployment)
        self.affine_ops = decode_step_affine(
            workload.model, workload.dtype, workload.batch_size,
            workload.beam_size)
        self.kv_bytes_per_context = (
            workload.sequences
            * workload.model.kv_bytes_per_token(workload.dtype.bytes))
        self.weight_set = weight_footprint(workload, deployment.framework)
        self.is_gpu = not isinstance(deployment.placement, CpuPlacement)
        self.io_bytes = (gpu_io_bytes(workload, Phase.DECODE)
                         if self.is_gpu else 0.0)

    def working_sets(self, contexts: np.ndarray) -> WorkingSetsVec:
        """Per-stream working sets at every context (mirrors the scalar
        ``_working_sets``: KV grows with context, activations follow the
        op totals, weights are fixed)."""
        c = np.asarray(contexts, dtype=float)
        activations = np.zeros_like(c)
        for aff in self.affine_ops:
            activations = activations \
                + aff.multiplicity * aff.activation_bytes(c)
        return WorkingSetsVec(weights=self.weight_set,
                              kv=self.kv_bytes_per_context * c,
                              activations=activations)

    def step_costs(self, contexts: np.ndarray) -> np.ndarray:
        """Total decode-step seconds at each context, one numpy pass."""
        c = np.asarray(contexts, dtype=float)
        sets = self.working_sets(c)
        return self.model.step_costs_vec(self.affine_ops, c, sets,
                                         self.dtype, io_bytes=self.io_bytes)


def decode_cost_engine(workload: Workload,
                       deployment: Deployment) -> DecodeCostEngine:
    """Memoized engine lookup (cache ``decode_cost_engine``)."""
    key = (deployment, workload.model, workload.dtype,
           workload.batch_size, workload.beam_size)
    return _ENGINE_CACHE.get_or_compute(
        key, lambda: DecodeCostEngine(workload, deployment))
