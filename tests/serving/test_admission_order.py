"""FCFS waiting-queue order: no arrived request ever queues behind an
unarrived one.

The single admission loop of ``ColumnarScheduler`` ends its walk at the
first unarrived entry under FCFS.  That is exact only while every
arrived entry precedes every unarrived one: preempted requests re-enter
at the head (they have arrived), and ``insort`` places each submission
by arrival.  This property drives a FCFS core through submits in the
past and the future, steps, cancels, crash evacuations (with retries)
and clock jumps on a small, preempting KV pool, and checks the order
after every operation.
"""

from dataclasses import replace

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.experiment import cpu_deployment
from repro.llm.config import LLAMA2_7B
from repro.llm.datatypes import BFLOAT16
from repro.serving import ColumnarScheduler, ServeRequest, TenancyConfig

#: A two-layer model keeps the cold step-cost memo cheap; queue order
#: does not depend on depth.
MODEL = replace(LLAMA2_7B, name="llama2-7b-2-blocks", num_layers=2)

TENANCIES = (None,
             TenancyConfig(kv_isolation="shared-prefix",
                           prefix_tokens=((0, 64), (1, 40))))

#: Operation mix, weighted by repetition: mostly submits and steps so
#: the batch fills and preempts; a rare evacuation clears the replica.
OPERATIONS = ("submit",) * 5 + ("step",) * 4 + ("cancel", "retry",
                                                "advance", "evacuate")


def assert_arrived_first(core):
    arrived = [entry[-2] <= core.clock_s for entry in core._waiting]
    assert arrived == sorted(arrived, reverse=True), core._waiting


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(tenancy=st.sampled_from(TENANCIES), lookahead=st.integers(0, 2),
       data=st.data())
def test_fcfs_queue_keeps_arrived_entries_ahead(tenancy, lookahead, data):
    core = ColumnarScheduler(cpu_deployment("tdx", sockets_used=1), MODEL,
                             BFLOAT16, kv_capacity_tokens=1024, max_batch=8,
                             admission_lookahead=lookahead, tenancy=tenancy)
    # Times are in units of one 256-token prefill, so a step spans a
    # few decode iterations and submissions overlap the running batch.
    unit = core.estimated_ttft_s(ServeRequest(0, 0.0, 256, 8), 0.0)
    submitted: list[int] = []
    withdrawn: list[ServeRequest] = []
    for _ in range(data.draw(st.integers(10, 60))):
        op = data.draw(st.sampled_from(OPERATIONS))
        if op == "submit":
            offset = data.draw(st.floats(-6.0, 3.0))
            core.submit(ServeRequest(
                request_id=len(submitted),
                arrival_s=max(0.0, core.clock_s + offset * unit),
                prompt_tokens=data.draw(st.sampled_from(range(16, 500, 23))),
                output_tokens=data.draw(st.integers(8, 200)),
                tenant_id=data.draw(st.integers(0, 2))))
            submitted.append(len(submitted))
        elif op == "step":
            core.step(core.clock_s + data.draw(st.floats(0.0, 8.0)) * unit)
        elif op == "cancel" and submitted:
            cancelled = core.cancel(data.draw(st.sampled_from(submitted)))
            if cancelled is not None:
                withdrawn.append(cancelled[0])
        elif op == "retry" and withdrawn:
            core.submit(withdrawn.pop(0))
        elif op == "advance":
            core.advance_clock_to(
                core.clock_s + data.draw(st.floats(-3.0, 6.0)) * unit)
        elif op == "evacuate":
            withdrawn.extend(request for request, _ in core.evacuate())
        assert_arrived_first(core)
    core.step(None)
    assert core.idle
