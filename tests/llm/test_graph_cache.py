"""Regression tests for the op-graph memo caches.

Two graph memos remain: ``op_graph`` holds prefill graphs (one per
``(model, dtype, batch, prompt length, beams)``) and
``affine_decode_graph`` holds one affine decode model per
``(model, dtype, batch, beams)``.  A decode graph keyed on context would
miss on every step of a stride-1 run — exactly what a decoding batch
produces — so decode costing must stay context-free: a context sweep
costs from one affine graph per shape.
"""

import pytest

from repro.core.experiment import cpu_deployment
from repro.engine.placement import Workload
from repro.engine.simulator import simulate_generation
from repro.llm.config import GPTJ_6B, LLAMA2_7B
from repro.llm.datatypes import BFLOAT16, INT8
from repro.llm.graph import cached_prefill_ops, prefill_ops
from repro.memo import clear_all_caches, registered_caches


@pytest.fixture()
def graph_cache():
    cache = registered_caches()["op_graph"]
    cache.clear()
    yield cache
    cache.clear()


@pytest.fixture()
def affine_cache():
    clear_all_caches()
    yield registered_caches()["affine_decode_graph"]
    clear_all_caches()


class TestBitIdentity:
    @pytest.mark.parametrize("length", [1, 2, 7, 64, 129, 4096])
    def test_matches_direct_builder(self, graph_cache, length):
        cached = cached_prefill_ops(LLAMA2_7B, BFLOAT16, 4, length)
        direct = tuple(prefill_ops(LLAMA2_7B, BFLOAT16, 4, length))
        assert cached == direct

    def test_matches_with_beams_and_dtype(self, graph_cache):
        cached = cached_prefill_ops(GPTJ_6B, INT8, 2, 333, beam_size=3)
        direct = tuple(prefill_ops(GPTJ_6B, INT8, 2, 333, beam_size=3))
        assert cached == direct

    def test_rejects_bad_shapes(self, graph_cache):
        with pytest.raises(ValueError):
            cached_prefill_ops(LLAMA2_7B, BFLOAT16, 0, 128)
        with pytest.raises(ValueError):
            cached_prefill_ops(LLAMA2_7B, BFLOAT16, 1, 0)
        assert len(graph_cache) == 0


class TestHitRate:
    def test_context_sweep_hits(self, affine_cache):
        """A stride-1 run costs every context from one affine graph."""
        workload = Workload(LLAMA2_7B, BFLOAT16, batch_size=8,
                            input_tokens=1, output_tokens=128)
        simulate_generation(workload, cpu_deployment("tdx"),
                            context_stride=1)
        assert affine_cache.stats().misses == 1
        assert registered_caches()["op_graph"].stats().misses == 1

    def test_bench_shaped_workload_hits(self, affine_cache):
        """Many prompt lengths per batch size share one affine graph."""
        deployment = cpu_deployment("tdx")
        for batch in (1, 4, 8, 16):
            for prompt in range(16, 16 + 64 * 8, 64):
                workload = Workload(LLAMA2_7B, BFLOAT16, batch_size=batch,
                                    input_tokens=prompt, output_tokens=8)
                simulate_generation(workload, deployment)
        assert affine_cache.stats().misses == 4  # one per batch size
        assert registered_caches()["decode_cost_engine"].stats().hits == 28
