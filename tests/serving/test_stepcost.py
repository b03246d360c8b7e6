"""The serving step-cost table: block-costed steps and context buckets.

Bit parity over every replica kind, model and dtype is the
``serving.step_cost_block_parity`` audit; these cover shapes serving
never builds (a batched cGPU prefill, beams, hyperthreads) and the
decode bucketing.
"""

import pytest

from repro.core.experiment import cpu_deployment
from repro.engine.roofline import cost_model_for
from repro.fleet.replica import replica_spec
from repro.llm.config import LLAMA2_7B
from repro.llm.datatypes import BFLOAT16, INT8
from repro.llm.graph import decode_step_graph, prefill_graph
from repro.serving.stepcost import StepCostTable


def test_gpu_step_total_matches_step_cost():
    cost_model = cost_model_for(replica_spec("cgpu").deployment)
    table = StepCostTable(replica_spec("cgpu").deployment, LLAMA2_7B,
                          BFLOAT16)
    graph = prefill_graph(LLAMA2_7B, BFLOAT16, 2, 300)
    sets = table.working_sets(2, 300)
    assert cost_model.step_total_s(graph, sets, BFLOAT16) \
        == cost_model.step_cost(graph.ops(), sets, BFLOAT16).total_s


def test_cpu_step_total_with_beams_and_hyperthreads():
    deployment = cpu_deployment("sgx", sockets_used=2,
                                expose_hyperthreads=True)
    cost_model = cost_model_for(deployment)
    table = StepCostTable(deployment, LLAMA2_7B, INT8)
    graph = decode_step_graph(LLAMA2_7B, INT8, 3, 900, beam_size=4)
    sets = table.working_sets(12, 900)
    assert cost_model.step_total_s(graph, sets, INT8) \
        == cost_model.step_cost(graph.ops(), sets, INT8).total_s


@pytest.mark.parametrize("context, bucket", [
    (1, 16), (63, 16), (64, 64), (127, 64), (128, 128), (4095, 4032)])
def test_decode_contexts_share_their_bucket(context, bucket):
    table = StepCostTable(replica_spec("tdx").deployment, LLAMA2_7B,
                          BFLOAT16)
    assert StepCostTable.context_bucket(context) == bucket
    assert table.decode_step_s(4, context) == table.decode_step_s(4, bucket)
