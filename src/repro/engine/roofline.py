"""Roofline cost model with TEE mechanism derates.

Per operator the model computes a compute time (engine issue rate x MFU x
Amdahl-scaled cores), a memory time (DRAM-visible traffic over the
effective bandwidth after NUMA mixing, link crypto, and memory-encryption
derates), and two non-overlapped adders: page-walk time (TLB misses x
walk cost, nested-walk multiplier under virtualization) and EPC paging
(SGX).  Step-level costs add enclave exits, fixed launch/CC taxes, and
the virtualization tax.

This is where every mechanism from :mod:`repro.memsim` and
:mod:`repro.tee` meets the operator stream from :mod:`repro.llm`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..hardware.engines import (
    AVX512_RATES,
    Engine,
    best_cpu_engine,
    is_fallback_path,
)
from ..llm.datatypes import DType
from ..llm.graph import StepGraph
from ..llm.ops import AffineOp, Operator, OpCategory, Phase
from ..memsim.cache import CacheModel
from ..memsim.epc import EPC_FAULT_S, paging_fraction_vec, paging_overhead_s
from ..memsim.numa import (
    NumaPolicy,
    effective_bandwidth,
    remote_fraction,
    sub_numa_misplacement,
)
from ..memsim.pages import PAGE_4K, HugepagePolicy
from ..memsim.tlb import (
    WalkModel,
    streaming_miss_rate,
    streaming_miss_rate_vec,
    translation_time,
)
from . import calibration as cal
from .placement import CpuPlacement, Deployment, GpuPlacement, Workload

#: Fraction of THP-managed memory actually backed by 2 MB pages; the
#: rest fragments to 4 KB (why reserved 1 GB pages still win, Fig. 6).
THP_COVERAGE = 0.75

#: Fraction of page-walk latency that cannot be hidden by the hardware
#: walkers overlapping with data streaming.
WALK_SERIAL_FRACTION = 0.03

#: Bandwidth bonus SNC gives a NUMA-aware (non-TEE) workload.
SNC_BANDWIDTH_BONUS = 1.05

#: Scheduling tax when hyperthreads are exposed to the guest (PyTorch
#: pins to first logical threads; siblings only add interference).
HYPERTHREAD_TAX = 0.03


@dataclass(frozen=True)
class WorkingSets:
    """Per-stream working sets of one forward step (bytes)."""

    weights: float
    kv: float
    activations: float


@dataclass(frozen=True)
class WorkingSetsVec:
    """Per-stream working sets across many contexts at once.

    The vectorized decode path evaluates one step cost per entry of a
    context vector; ``kv`` and ``activations`` are arrays aligned with
    that vector while ``weights`` is context-independent.
    """

    weights: float
    kv: np.ndarray
    activations: np.ndarray


def gpu_io_bytes(workload: Workload, phase: Phase) -> float:
    """Host-device bytes staged through the (bounce) buffer per step."""
    if phase is Phase.PREFILL:
        return workload.sequences * workload.input_tokens * 4.0 + 4096.0
    return workload.sequences * 8.0 + 1024.0


@dataclass(frozen=True)
class OpCost:
    """Cost breakdown of one operator."""

    op: Operator
    compute_s: float
    memory_s: float
    translation_s: float
    paging_s: float

    @property
    def total_s(self) -> float:
        """Compute/memory overlap; translation and paging do not overlap."""
        return max(self.compute_s, self.memory_s) + self.translation_s + self.paging_s


def _step_total(op_totals: list[float], exits_s: float,
                tax_multiplier: float, fixed_s: float) -> float:
    """A step's seconds from its per-operator totals in stream order.

    ``sum`` adds left to right, so the result depends on the order and
    count of the terms: a repeated decoder block must appear as its
    per-op totals repeated ``num_layers`` times, never as
    ``num_layers * block_sum``, which rounds differently.
    """
    raw = sum(op_totals) + exits_s
    return raw * tax_multiplier + fixed_s


@dataclass(frozen=True)
class StepCost:
    """Cost of one full forward step."""

    op_costs: tuple[OpCost, ...]
    exits_s: float
    fixed_s: float
    tax_multiplier: float

    @property
    def total_s(self) -> float:
        return _step_total([cost.total_s for cost in self.op_costs],
                           self.exits_s, self.tax_multiplier, self.fixed_s)

    @property
    def compute_s(self) -> float:
        return sum(cost.compute_s for cost in self.op_costs)

    @property
    def memory_s(self) -> float:
        return sum(cost.memory_s for cost in self.op_costs)

    def is_compute_bound(self) -> bool:
        """Whether aggregate compute time exceeds aggregate memory time."""
        return self.compute_s > self.memory_s


class CpuCostModel:
    """Operator cost model for CPU deployments."""

    def __init__(self, deployment: Deployment) -> None:
        if not isinstance(deployment.placement, CpuPlacement):
            raise TypeError("CpuCostModel needs a CpuPlacement")
        self.deployment = deployment
        self.placement = deployment.placement
        self.backend = deployment.backend
        self.framework = deployment.framework
        self.profile = deployment.toggles.apply(self.backend.cost_profile())
        self.cpu = self.placement.cpu
        self.numa_policy = self.backend.resolve_numa_policy(self.placement.numa_policy)
        self.hugepages = self.backend.resolve_hugepages(self.placement.hugepages)
        self.amx_available = (self.placement.amx_enabled
                              and self.framework.amx_capable)
        self.llc = CacheModel(self.cpu.llc_bytes_per_socket
                              * self.placement.sockets_used)
        self.walk = WalkModel(self.cpu.page_walk_s, self.profile.walk_multiplier)

    # -- compute ------------------------------------------------------------

    def _engine_for(self, op: Operator, dtype: DType) -> tuple[Engine, float]:
        if op.category in (OpCategory.GEMM, OpCategory.ATTENTION):
            return best_cpu_engine(dtype, self.amx_available)
        # Vector ops run on AVX-512 regardless of the matrix engine.
        rate = AVX512_RATES.rate_for(dtype)
        if rate == 0.0:
            rate = AVX512_RATES.rates["f32"]
        return Engine.AVX512, rate

    def _compute_time(self, op: Operator, dtype: DType) -> float:
        if op.flops == 0.0:
            return 0.0
        engine, rate = self._engine_for(op, dtype)
        mfu = self.framework.mfu(engine)
        per_core = rate * self.cpu.clock_hz * mfu
        cores = self.placement.cores
        serial = cal.CPU_SERIAL_FRACTION
        single_core_s = op.flops / per_core
        return single_core_s * (serial + (1.0 - serial) / cores)

    # -- memory -------------------------------------------------------------

    def _remote_fraction(self, fallback: bool) -> float:
        if fallback and self.placement.sockets_used > 1:
            return cal.INT8_FALLBACK_REMOTE_FRACTION
        return remote_fraction(self.numa_policy, self.placement.sockets_used)

    def effective_bw(self, fallback: bool = False) -> float:
        """Post-derate DRAM bandwidth visible to the workload."""
        per_socket = self.cpu.mem_bw_per_socket
        saturation = min(1.0, self.placement.cores_per_socket
                         / cal.CORES_TO_SATURATE_BW)
        single_node = (self.numa_policy is NumaPolicy.SINGLE_NODE
                       and self.placement.sockets_used > 1)
        if single_node:
            # SGX exposes one unified node: every byte lives on (at most)
            # one socket's DRAM, so the local side is a single socket and
            # the other socket's cores pull everything over UPI.
            base = per_socket * saturation
        else:
            base = per_socket * self.placement.sockets_used * saturation
        clusters = self.placement.snc_clusters
        if clusters > 1 and not self.backend.is_tee:
            base *= SNC_BANDWIDTH_BONUS
        cluster_penalty = sub_numa_misplacement(clusters, self.backend.is_tee)
        bw = effective_bandwidth(
            base, self.cpu.upi, self._remote_fraction(fallback),
            upi_crypto_derate=(self.profile.upi_crypto_derate
                               if self.placement.sockets_used > 1 else 0.0),
            cluster_penalty=cluster_penalty,
        )
        bw *= (1.0 - self.profile.mem_encryption_derate)
        return bw * self.framework.memory_efficiency()

    def _weight_traffic(self, op: Operator, dtype: DType, fallback: bool) -> float:
        traffic = op.weight_bytes
        if self.framework.weight_bytes_per_param is not None:
            traffic *= self.framework.weight_bytes_per_param / dtype.bytes
        if fallback:
            traffic *= cal.INT8_FALLBACK_TRAFFIC_INFLATION
        return traffic

    def _dram_traffic(self, op: Operator, sets: WorkingSets, dtype: DType,
                      fallback: bool) -> dict[str, float]:
        """DRAM-visible bytes per stream after LLC filtering."""
        allocator = 1.0 if self.placement.tcmalloc \
            else cal.DEFAULT_ALLOCATOR_TRAFFIC_INFLATION
        weights = self._weight_traffic(op, dtype, fallback)
        return {
            "weights": self.llc.dram_bytes(weights, sets.weights),
            "kv": self.llc.dram_bytes(op.kv_read_bytes + op.kv_write_bytes,
                                      sets.kv) * allocator,
            "activations": self.llc.dram_bytes(op.activation_bytes,
                                               sets.activations) * allocator,
        }

    # -- translation & paging -----------------------------------------------

    def _page_mix(self) -> list[tuple[int, float]]:
        """(page size, traffic fraction) pairs under the active policy."""
        if self.hugepages is HugepagePolicy.RESERVED_1G:
            return [(HugepagePolicy.RESERVED_1G.page_bytes, 1.0)]
        if self.hugepages is HugepagePolicy.TRANSPARENT_2M:
            return [
                (HugepagePolicy.TRANSPARENT_2M.page_bytes, THP_COVERAGE),
                (PAGE_4K, 1.0 - THP_COVERAGE),
            ]
        return [(PAGE_4K, 1.0)]

    def _translation_time(self, dram: dict[str, float],
                          sets: WorkingSets) -> float:
        per_core_divisor = max(1, self.placement.cores)
        stream_sets = {"weights": sets.weights, "kv": sets.kv,
                       "activations": sets.activations}
        total = 0.0
        for page_bytes, fraction in self._page_mix():
            entries = self.cpu.tlb.entries_for(page_bytes)
            for stream, traffic in dram.items():
                per_core_ws = stream_sets[stream] * fraction / per_core_divisor
                miss = streaming_miss_rate(per_core_ws, page_bytes, entries)
                total += translation_time(traffic * fraction, page_bytes,
                                          miss, self.walk)
        return total * WALK_SERIAL_FRACTION

    def _paging_time(self, dram: dict[str, float], sets: WorkingSets) -> float:
        if not self.profile.epc_limited:
            return 0.0
        epc = self.cpu.sgx_epc_per_socket * self.placement.sockets_used
        working_set = sets.weights + sets.kv + sets.activations
        return paging_overhead_s(sum(dram.values()), working_set, epc)

    # -- public API ----------------------------------------------------------

    def op_cost(self, op: Operator, sets: WorkingSets, dtype: DType) -> OpCost:
        """Cost one operator under the deployment's mechanisms."""
        fallback = is_fallback_path(dtype, self.amx_available)
        dram = self._dram_traffic(op, sets, dtype, fallback)
        bw = self.effective_bw(fallback)
        return OpCost(
            op=op,
            compute_s=self._compute_time(op, dtype),
            memory_s=sum(dram.values()) / bw,
            translation_s=self._translation_time(dram, sets),
            paging_s=self._paging_time(dram, sets),
        )

    def step_cost(self, ops: list[Operator], sets: WorkingSets,
                  dtype: DType) -> StepCost:
        """Cost a full forward step (all operators + step-level terms).

        Repeated decoder blocks emit operators that differ only in
        ``name``/``layer``; the cost model reads neither, so identical
        (category, flops, bytes) operators are costed once and the
        component times reused — each still wrapped in its own
        :class:`OpCost` so per-layer traces group correctly.
        """
        memo: dict[tuple, OpCost] = {}
        op_costs = []
        for op in ops:
            key = (op.category, op.flops, op.weight_bytes,
                   op.activation_bytes, op.kv_read_bytes, op.kv_write_bytes)
            hit = memo.get(key)
            if hit is None:
                hit = memo[key] = self.op_cost(op, sets, dtype)
            elif hit.op is not op:
                hit = OpCost(op=op, compute_s=hit.compute_s,
                             memory_s=hit.memory_s,
                             translation_s=hit.translation_s,
                             paging_s=hit.paging_s)
            op_costs.append(hit)
        return StepCost(
            op_costs=tuple(op_costs),
            exits_s=self._exits_s(),
            fixed_s=self.profile.step_fixed_s,
            tax_multiplier=self._tax_multiplier(),
        )

    def step_total_s(self, graph: StepGraph, sets: WorkingSets,
                     dtype: DType) -> float:
        """``step_cost(graph.ops(), sets, dtype).total_s``, bit for bit.

        Costs each operator of the prologue, one block and the
        epilogue once (:meth:`StepGraph.stream_values`); no per-layer
        operator or :class:`OpCost` is built.
        """
        totals = graph.stream_values(
            lambda op: self.op_cost(op, sets, dtype).total_s)
        return _step_total(totals, self._exits_s(), self._tax_multiplier(),
                           self.profile.step_fixed_s)

    def _exits_s(self) -> float:
        return self.profile.exit_cost_s * self.profile.exits_per_step

    def _tax_multiplier(self) -> float:
        tax = 1.0 + self.profile.virtualization_tax
        if self.placement.expose_hyperthreads:
            tax += HYPERTHREAD_TAX
        return tax

    def step_costs_vec(self, affine_ops: Sequence[AffineOp],
                       contexts: np.ndarray, sets: WorkingSetsVec,
                       dtype: DType, io_bytes: float = 0.0) -> np.ndarray:
        """Total step seconds at every context in one numpy pass.

        Mirrors :meth:`step_cost` term for term (same traffic filtering,
        translation and paging formulas, same accumulation order per
        stream) over an affine operator set; parity with the scalar path
        is enforced by the engine test suite to <1e-9 relative error.
        """
        del io_bytes  # CPU steps have no host-device staging
        c = np.asarray(contexts, dtype=float)
        fallback = is_fallback_path(dtype, self.amx_available)
        bw = self.effective_bw(fallback)
        allocator = 1.0 if self.placement.tcmalloc \
            else cal.DEFAULT_ALLOCATOR_TRAFFIC_INFLATION
        serial = cal.CPU_SERIAL_FRACTION
        amdahl = serial + (1.0 - serial) / self.placement.cores

        # Per-stream translation coefficients: seconds of page-walk time
        # per DRAM-visible byte of the stream, summed over the page mix.
        per_core_divisor = max(1, self.placement.cores)
        stream_sets = {"weights": sets.weights, "kv": sets.kv,
                       "activations": sets.activations}
        walk_coeff = {stream: 0.0 for stream in stream_sets}
        for page_bytes, fraction in self._page_mix():
            entries = self.cpu.tlb.entries_for(page_bytes)
            for stream, stream_ws in stream_sets.items():
                per_core_ws = np.asarray(stream_ws, dtype=float) \
                    * fraction / per_core_divisor
                miss = streaming_miss_rate_vec(per_core_ws, page_bytes,
                                               entries)
                walk_coeff[stream] = (walk_coeff[stream]
                                      + fraction / page_bytes * miss
                                      * self.walk.walk_s)

        # EPC paging: seconds per DRAM-visible byte (SGX only).
        paging_coeff = 0.0
        if self.profile.epc_limited:
            epc = self.cpu.sgx_epc_per_socket * self.placement.sockets_used
            ws_total = sets.weights + sets.kv + sets.activations
            paging_coeff = (paging_fraction_vec(ws_total, epc)
                            / PAGE_4K * EPC_FAULT_S)

        total = np.zeros_like(c)
        for aff in affine_ops:
            if aff.base.flops == 0.0 and aff.slope.flops == 0.0:
                compute = np.zeros_like(c)
            else:
                engine, rate = self._engine_for(aff.base, dtype)
                per_core = rate * self.cpu.clock_hz * self.framework.mfu(engine)
                compute = aff.flops(c) / per_core * amdahl
            weight_traffic = (self._weight_traffic(aff.base, dtype, fallback)
                              + self._weight_traffic(aff.slope, dtype,
                                                     fallback) * c)
            dram_w = self.llc.dram_bytes_vec(weight_traffic, sets.weights)
            dram_kv = self.llc.dram_bytes_vec(
                aff.kv_read_bytes(c) + aff.kv_write_bytes(c),
                sets.kv) * allocator
            dram_act = self.llc.dram_bytes_vec(aff.activation_bytes(c),
                                               sets.activations) * allocator
            memory = (dram_w + dram_kv + dram_act) / bw
            translation = (dram_w * walk_coeff["weights"]
                           + dram_kv * walk_coeff["kv"]
                           + dram_act * walk_coeff["activations"]) \
                * WALK_SERIAL_FRACTION
            paging = (dram_w + dram_kv + dram_act) * paging_coeff
            total = total + aff.multiplicity * (
                np.maximum(compute, memory) + translation + paging)

        return ((total + self._exits_s()) * self._tax_multiplier()
                + self.profile.step_fixed_s)


class GpuCostModel:
    """Operator cost model for (confidential) GPU deployments."""

    def __init__(self, deployment: Deployment) -> None:
        if not isinstance(deployment.placement, GpuPlacement):
            raise TypeError("GpuCostModel needs a GpuPlacement")
        self.deployment = deployment
        self.gpu = deployment.placement.gpu
        self.backend = deployment.backend
        self.framework = deployment.framework
        self.profile = deployment.toggles.apply(self.backend.cost_profile())

    def op_cost(self, op: Operator, sets: WorkingSets, dtype: DType) -> OpCost:
        """Cost one operator; HBM traffic pays no encryption derate on
        H100 (its HBM is unprotected — a security gap, not a cost)."""
        del sets  # GPU HBM is not LLC-filtered at these working sets
        derate = 1.0 - self.profile.gpu_rate_derate
        rate = (self.gpu.peak_flops(dtype)
                * self.framework.mfu(Engine.CUDA_TENSOR) * derate)
        bw = self.gpu.hbm_bw * self.framework.memory_efficiency() * derate
        # B100-class parts encrypt HBM; the paper projects a CPU-like
        # memory-encryption cost onto that path (§V-D3).
        bw *= 1.0 - self.profile.mem_encryption_derate
        return OpCost(
            op=op,
            compute_s=op.flops / rate,
            memory_s=op.bytes_total / bw,
            translation_s=0.0,
            paging_s=0.0,
        )

    def _bounce_time(self, io_bytes: float) -> float:
        if self.profile.bounce_bw is None or io_bytes <= 0.0:
            return 0.0
        return self.gpu.pcie.latency_s + io_bytes / self.profile.bounce_bw

    def step_cost(self, ops: list[Operator], sets: WorkingSets, dtype: DType,
                  io_bytes: float = 0.0) -> StepCost:
        """Cost a forward step including launch tax and PCIe staging."""
        fixed = self.profile.step_fixed_s + self._bounce_time(io_bytes)
        return StepCost(
            op_costs=tuple(self.op_cost(op, sets, dtype) for op in ops),
            exits_s=0.0,
            fixed_s=fixed,
            tax_multiplier=1.0,
        )

    def step_total_s(self, graph: StepGraph, sets: WorkingSets,
                     dtype: DType) -> float:
        """``step_cost(graph.ops(), sets, dtype).total_s``, bit for bit,
        costing the prologue, one block and the epilogue once.

        No bounce-buffer staging is charged (``io_bytes=0``).
        """
        totals = graph.stream_values(
            lambda op: self.op_cost(op, sets, dtype).total_s)
        return _step_total(totals, 0.0, 1.0, self.profile.step_fixed_s)

    def step_costs_vec(self, affine_ops: Sequence[AffineOp],
                       contexts: np.ndarray, sets: WorkingSetsVec,
                       dtype: DType, io_bytes: float = 0.0) -> np.ndarray:
        """Total step seconds at every context in one numpy pass.

        Mirrors :meth:`step_cost`/:meth:`op_cost` over an affine operator
        set; GPU ops pay no translation or paging terms.
        """
        del sets  # GPU HBM is not LLC-filtered at these working sets
        c = np.asarray(contexts, dtype=float)
        derate = 1.0 - self.profile.gpu_rate_derate
        rate = (self.gpu.peak_flops(dtype)
                * self.framework.mfu(Engine.CUDA_TENSOR) * derate)
        bw = self.gpu.hbm_bw * self.framework.memory_efficiency() * derate
        bw *= 1.0 - self.profile.mem_encryption_derate
        total = np.zeros_like(c)
        for aff in affine_ops:
            total = total + aff.multiplicity * np.maximum(
                aff.flops(c) / rate, aff.bytes_total(c) / bw)
        return total + self.profile.step_fixed_s + self._bounce_time(io_bytes)


def cost_model_for(deployment: Deployment) -> CpuCostModel | GpuCostModel:
    """Instantiate the matching cost model for a deployment."""
    if isinstance(deployment.placement, CpuPlacement):
        return CpuCostModel(deployment)
    return GpuCostModel(deployment)
