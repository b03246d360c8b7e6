"""Differential checks: independent code paths must agree.

Every engine and cache in the repository has a slower, simpler twin:
the vectorized decode engine has the frozen per-token loop
(:func:`repro.validate.oracle.reference_decode_clean`), memo caches have
cold recomputation, the analytical FLOP/byte formulas have the numpy
mini-Llama that actually executes the matmuls, and the closed-form
TLB/EPC models have functional simulators.  These checks pin each pair
together so an optimization can never silently drift from its ground
truth.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from ..engine.roofline import cost_model_for
from ..engine.simulator import _working_sets, simulate_generation
from ..engine.vectorized import decode_cost_engine
from ..fleet.replica import REPLICA_KINDS, replica_spec
from ..llm.config import LLAMA2_7B, LLAMA2_13B, LLAMA2_70B
from ..llm.datatypes import BFLOAT16, INT8
from ..llm.graph import (
    decode_step_graph,
    decode_step_ops,
    prefill_graph,
    prefill_ops,
)
from ..llm.ops import Phase
from ..llm.reference import FlopRecorder, ReferenceTransformer
from ..memo import clear_all_caches
from ..memsim.epc import EpcPager, paging_fraction, paging_fraction_vec
from ..memsim.pages import PAGE_4K
from ..memsim.tlb import (
    SetAssociativeTlb,
    streaming_miss_rate,
    streaming_miss_rate_vec,
)
from ..serving.stepcost import StepCostTable
from .context import AuditContext
from .oracle import reference_decode_clean
from .registry import CheckFailure, check


def _max_rel_err(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.max(np.abs(a - b) / np.abs(b)))


@check("engine.vectorized_loop_parity", family="differential",
       layers=("engine", "llm"))
def vectorized_loop_parity(ctx: AuditContext) -> str:
    """Vectorized decode engine matches the scalar reference loop <1e-9."""
    worst = 0.0
    for backend, gpu in (("baremetal", False), ("tdx", False),
                         ("sgx", False), (None, True)):
        deployment = ctx.gpu(confidential=True) if gpu else ctx.cpu(backend)
        for batch in (1, 8):
            workload = ctx.small_workload(batch_size=batch)
            loop = reference_decode_clean(workload, deployment)
            vec = ctx.simulate(workload, deployment, context_stride=1)
            worst = max(worst, _max_rel_err(vec.decode_clean_s, loop))
    if worst >= ctx.tol.engine_parity_rel:
        raise CheckFailure(
            f"engines diverge: max rel err {worst:.3e} >= "
            f"{ctx.tol.engine_parity_rel:.0e}", deltas={"max_rel_err": worst})
    return f"max rel err {worst:.2e}"


#: Serving step shapes the block-costing parity check covers: prompt
#: lengths 1..N plus one compute-bound prompt, and (batch, context
#: bucket) decode shapes.
_BLOCK_PARITY_PREFILL = (1, 2, 3, 2048)
_BLOCK_PARITY_DECODE = ((1, 16), (7, 1024), (32, 4032))


@check("serving.step_cost_block_parity", family="differential",
       layers=("serving", "engine", "llm"))
def step_cost_block_parity(ctx: AuditContext) -> str:
    """Block-costed serving steps equal full-stream step costs bit for bit."""
    deployments = {kind: replica_spec(kind).deployment
                   for kind in REPLICA_KINDS}
    cost_models = {kind: cost_model_for(deployment)
                   for kind, deployment in deployments.items()}
    shapes = 0
    for model in (LLAMA2_7B, LLAMA2_13B, LLAMA2_70B):
        for dtype in (BFLOAT16, INT8):
            tables = {kind: StepCostTable(deployment, model, dtype)
                      for kind, deployment in deployments.items()}
            # (label, full stream, block description, batch, context)
            cases = [
                (f"prefill {length}", prefill_ops(model, dtype, 1, length),
                 prefill_graph(model, dtype, 1, length), 1, length)
                for length in _BLOCK_PARITY_PREFILL]
            cases += [
                (f"decode {batch}x{context}",
                 decode_step_ops(model, dtype, batch, context),
                 decode_step_graph(model, dtype, batch, context), batch,
                 context)
                for batch, context in _BLOCK_PARITY_DECODE]
            for label, stream, graph, batch, context in cases:
                last_layer = graph.num_layers - 1
                first_block = graph.block(0)
                last_block = graph.block(last_layer)
                if [replace(op, layer=0) for op in last_block] != first_block:
                    raise CheckFailure(
                        f"{model.name} {dtype.name} {label}: block at layer "
                        f"{last_layer} differs from layer 0 beyond its label")
                for kind, table in tables.items():
                    where = f"{kind} {model.name} {dtype.name} {label}"
                    cost_model = cost_models[kind]
                    sets = table.working_sets(batch, context)
                    block_costed = (table.prefill_s(context)
                                    if graph.phase is Phase.PREFILL
                                    else table.decode_step_s(batch, context))
                    full = cost_model.step_cost(stream, sets, dtype).total_s
                    if block_costed != full:
                        raise CheckFailure(
                            f"{where}: block-costed {block_costed!r} != "
                            f"full stream {full!r}",
                            deltas={"block_costed": block_costed,
                                    "full": full})
                    first, last = (
                        cost_model.step_cost(block, sets, dtype).total_s
                        for block in (first_block, last_block))
                    if first != last:
                        raise CheckFailure(
                            f"{where}: block at layer 0 costs {first!r}, "
                            f"at layer {last_layer} {last!r}")
                    shapes += 1
    return f"{shapes} step shapes bit-identical, blocks layer-invariant"


@check("engine.memo_bit_identity", family="differential",
       layers=("engine", "core"))
def memo_bit_identity(ctx: AuditContext) -> str:
    """Memoized step costs are bit-identical to cold-cache recomputation."""
    workload = ctx.small_workload()
    deployment = ctx.cpu("tdx")
    clear_all_caches()
    cold = simulate_generation(workload, deployment, seed=3)
    warm = simulate_generation(workload, deployment, seed=3)
    if not np.array_equal(cold.decode_clean_s, warm.decode_clean_s):
        raise CheckFailure("warm-cache decode trajectory differs from cold")
    if cold.prefill_s != warm.prefill_s:
        raise CheckFailure("warm-cache prefill cost differs from cold")
    if not np.array_equal(cold.decode_noisy_s, warm.decode_noisy_s):
        raise CheckFailure("warm-cache noisy trajectory differs from cold")
    return "cold == warm bitwise"


@check("engine.record_steps_invariance", family="differential",
       layers=("engine",))
def record_steps_invariance(ctx: AuditContext) -> str:
    """Toggling record_steps never perturbs the simulated times."""
    workload = ctx.small_workload()
    deployment = ctx.cpu("sgx")
    plain = ctx.simulate(workload, deployment, record_steps=False)
    traced = ctx.simulate(workload, deployment, record_steps=True)
    if not np.array_equal(plain.decode_clean_s, traced.decode_clean_s):
        raise CheckFailure("record_steps=True changed the decode trajectory")
    if traced.sample_decode_step is None or traced.prefill_step is None:
        raise CheckFailure("record_steps=True did not record steps")
    return "trajectories identical"


@check("engine.stride_subsampling_exact", family="differential",
       layers=("engine",))
def stride_subsampling_exact(ctx: AuditContext) -> str:
    """Strided decode costs equal the exact loop at every costed context."""
    workload = ctx.small_workload(output_tokens=32)
    deployment = ctx.cpu("tdx")
    exact = ctx.simulate(workload, deployment, context_stride=1)
    stride = 8
    coarse = ctx.simulate(workload, deployment, context_stride=stride)
    costed = np.arange(0, workload.output_tokens, stride)
    if not np.array_equal(coarse.decode_clean_s[costed],
                          exact.decode_clean_s[costed]):
        raise CheckFailure(
            f"stride={stride} trajectory differs from exact at its own "
            f"costed contexts")
    return f"stride={stride} exact at {len(costed)} costed contexts"


@check("llm.prefill_flops_vs_reference", family="differential",
       layers=("llm",))
def prefill_flops_vs_reference(ctx: AuditContext) -> str:
    """Analytical prefill GEMM FLOPs match the executed numpy pass."""
    config = ctx.tiny_model()
    reference = ReferenceTransformer(config, seed=0)
    batch, seq = 2, 16
    rng = np.random.default_rng(0)
    ids = rng.integers(0, config.vocab_size, size=(batch, seq))
    recorder = FlopRecorder()
    reference.forward(ids, recorder=recorder)

    analytical: dict[str, float] = {}
    for op in prefill_ops(config, ctx.dtype, batch, seq):
        analytical[op.name] = analytical.get(op.name, 0.0) + op.flops

    for name in ("qkv_proj", "o_proj", "gate_up_proj", "down_proj"):
        rel = abs(analytical[name] - recorder.counts[name]) \
            / recorder.counts[name]
        if rel > ctx.tol.flops_gemm_rel:
            raise CheckFailure(
                f"{name}: analytical {analytical[name]:.3e} vs recorded "
                f"{recorder.counts[name]:.3e} (rel {rel:.2e})",
                deltas={"rel_err": rel})
    # The analytical head costs logits for the last position only; the
    # reference computes logits for every prompt position.
    head_rel = abs(analytical["lm_head"] * seq - recorder.counts["lm_head"]) \
        / recorder.counts["lm_head"]
    if head_rel > ctx.tol.flops_gemm_rel:
        raise CheckFailure(f"lm_head per-token FLOPs differ (rel {head_rel:.2e})")
    # Causal-aware analytical attention ~= half the dense reference matmul.
    ratio = analytical["self_attention"] / recorder.counts["self_attention"]
    lo, hi = ctx.tol.attention_ratio_band
    if not lo <= ratio <= hi:
        raise CheckFailure(
            f"prefill attention ratio {ratio:.3f} outside [{lo}, {hi}]",
            deltas={"ratio": ratio})
    return f"GEMMs exact, attention ratio {ratio:.3f}"


@check("llm.decode_flops_vs_reference", family="differential",
       layers=("llm",))
def decode_flops_vs_reference(ctx: AuditContext) -> str:
    """Analytical decode-step FLOPs match an executed cached decode step."""
    config = ctx.tiny_model()
    reference = ReferenceTransformer(config, seed=0)
    batch, prompt_len = 2, 12
    rng = np.random.default_rng(1)
    cache = reference.new_cache()
    reference.forward(rng.integers(0, config.vocab_size,
                                   size=(batch, prompt_len)), cache)
    recorder = FlopRecorder()
    reference.forward(rng.integers(0, config.vocab_size, size=(batch, 1)),
                      cache, recorder=recorder)

    context = prompt_len + 1
    analytical: dict[str, float] = {}
    for op in decode_step_ops(config, ctx.dtype, batch, context):
        analytical[op.name] = analytical.get(op.name, 0.0) + op.flops

    for name in ("qkv_proj", "o_proj", "gate_up_proj", "down_proj",
                 "lm_head"):
        rel = abs(analytical[name] - recorder.counts[name]) \
            / recorder.counts[name]
        if rel > ctx.tol.flops_gemm_rel:
            raise CheckFailure(
                f"{name}: analytical {analytical[name]:.3e} vs recorded "
                f"{recorder.counts[name]:.3e} (rel {rel:.2e})",
                deltas={"rel_err": rel})
    # Decode attends the full context in both paths; the analytical op
    # additionally carries the (small) softmax FLOP term.
    ratio = analytical["self_attention"] / recorder.counts["self_attention"]
    if not 0.95 <= ratio <= 1.25:
        raise CheckFailure(
            f"decode attention ratio {ratio:.3f} outside [0.95, 1.25]",
            deltas={"ratio": ratio})
    return f"GEMMs exact, attention ratio {ratio:.3f}"


@check("engine.vectorized_working_sets", family="differential",
       layers=("engine", "llm"))
def vectorized_working_sets(ctx: AuditContext) -> str:
    """Vectorized working sets equal the scalar per-step accounting."""
    workload = ctx.small_workload(batch_size=4)
    deployment = ctx.cpu("tdx")
    engine = decode_cost_engine(workload, deployment)
    contexts = np.array([64, 256, 1024])
    vec_sets = engine.working_sets(contexts)
    for position, context in enumerate(contexts):
        ops = decode_step_ops(workload.model, workload.dtype,
                              workload.batch_size, int(context),
                              workload.beam_size)
        scalar = _working_sets(workload, deployment, int(context), ops)
        for name, vec_value in (("kv", vec_sets.kv[position]),
                                ("activations",
                                 vec_sets.activations[position]),
                                ("weights", vec_sets.weights)):
            scalar_value = getattr(scalar, name)
            rel = abs(vec_value - scalar_value) / scalar_value
            if rel > 1e-12:
                raise CheckFailure(
                    f"{name} differs at context {context}: vectorized "
                    f"{vec_value:.6e} vs scalar {scalar_value:.6e}",
                    deltas={"rel_err": rel})
    return f"kv/activations/weights identical at {len(contexts)} contexts"


@check("memsim.tlb_closed_form_lower_bound", family="differential",
       layers=("memsim",))
def tlb_closed_form_lower_bound(ctx: AuditContext) -> str:
    """Functional LRU TLB misses at least the closed-form streaming rate."""
    entries, ways, page = 64, 4, PAGE_4K
    reach = entries * page
    margins = []
    for factor in (2, 4):
        tlb = SetAssociativeTlb(entries=entries, ways=ways, page_bytes=page)
        working_set = factor * reach
        for _ in range(3):
            tlb.access_range(0, working_set, stride=page)
        closed = streaming_miss_rate(working_set, page, entries)
        if tlb.miss_rate + 1e-12 < closed:
            raise CheckFailure(
                f"measured miss rate {tlb.miss_rate:.4f} below closed form "
                f"{closed:.4f} at ws={factor}x reach",
                deltas={"measured": tlb.miss_rate, "closed_form": closed})
        margins.append(tlb.miss_rate - closed)
    return f"LRU >= closed form (margins {', '.join(f'{m:.3f}' for m in margins)})"


@check("memsim.epc_closed_form_lower_bound", family="differential",
       layers=("memsim",))
def epc_closed_form_lower_bound(ctx: AuditContext) -> str:
    """Functional EPC pager faults at least the closed-form fraction."""
    epc_pages = 32
    pager = EpcPager(epc_bytes=epc_pages * PAGE_4K)
    working_set = 2 * epc_pages * PAGE_4K
    for _ in range(3):
        pager.touch_range(0, working_set)
    closed = paging_fraction(working_set, epc_pages * PAGE_4K)
    if pager.fault_rate + 1e-12 < closed:
        raise CheckFailure(
            f"pager fault rate {pager.fault_rate:.4f} below closed form "
            f"{closed:.4f}",
            deltas={"measured": pager.fault_rate, "closed_form": closed})
    return f"fault rate {pager.fault_rate:.3f} >= closed form {closed:.3f}"


@check("memsim.vectorized_twins_bitwise", family="differential",
       layers=("memsim", "engine"))
def vectorized_twins_bitwise(ctx: AuditContext) -> str:
    """Array twins of the TLB/EPC closed forms equal the scalar versions."""
    working_sets = np.array([0.0, 1e6, 64e6, 256e6, 1e9, 64e9])
    entries, page = 1024, PAGE_4K
    vec_tlb = streaming_miss_rate_vec(working_sets, page, entries)
    vec_epc = paging_fraction_vec(working_sets, 128e6)
    for position, ws in enumerate(working_sets):
        scalar_tlb = streaming_miss_rate(float(ws), page, entries)
        scalar_epc = paging_fraction(float(ws), 128e6)
        if vec_tlb[position] != scalar_tlb or vec_epc[position] != scalar_epc:
            raise CheckFailure(
                f"vectorized twin differs from scalar at ws={ws:.0f}")
    return f"bitwise equal over {len(working_sets)} working sets"
