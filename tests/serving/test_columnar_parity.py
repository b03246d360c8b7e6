"""Columnar scheduler parity against the frozen object-per-request oracle.

``ColumnarScheduler`` is the production scheduler; the oracle in
``repro.validate.oracle`` is the original object-per-request loop over
a real paged KV cache, kept as the reference.  The contract is
bit-identical timelines — same floats, same preemption counts, same
report — on any stream and any stepping cadence.  These tests pin that
across the backends the fleet runs (TDX, bare metal, confidential
GPU), through preemption storms, and through a snapshot/restore
round-trip.
"""

import json

import pytest

from repro.core.experiment import cpu_deployment, gpu_deployment
from repro.llm.config import LLAMA2_7B
from repro.llm.datatypes import BFLOAT16
from repro.serving.columnar import ColumnarScheduler
from repro.serving.scheduler import ServeRequest, poisson_stream
from repro.state.errors import StateIntegrityError
from repro.validate.oracle import ContinuousBatchingScheduler

# (label, backend, kv_capacity_tokens, max_batch, lookahead, stream kwargs)
CASES = [
    ("tdx/relaxed", "tdx", 65536, 16, 0,
     dict(count=16, rate_per_s=4.0, mean_prompt=128, mean_output=32, seed=2)),
    ("baremetal/preempting", "baremetal", 1024, 8, 0,
     dict(count=20, rate_per_s=2.0, mean_prompt=96, mean_output=48, seed=7)),
    ("cgpu/bursty", "cgpu", 16384, 32, 0,
     dict(count=24, rate_per_s=8.0, mean_prompt=256, mean_output=64,
          seed=17)),
    ("baremetal/lookahead", "baremetal", 1024, 8, 4,
     dict(count=20, rate_per_s=2.0, mean_prompt=96, mean_output=48,
          seed=13)),
]


def make_pair(backend, kv, batch, lookahead):
    """(oracle reference, production scheduler) from identical configs."""
    if backend == "cgpu":
        deployment = gpu_deployment(confidential=True)
    else:
        deployment = cpu_deployment(backend, sockets_used=1)
    kwargs = dict(kv_capacity_tokens=kv, max_batch=batch,
                  admission_lookahead=lookahead)
    return (ContinuousBatchingScheduler(deployment, LLAMA2_7B, BFLOAT16,
                                        **kwargs),
            ColumnarScheduler(deployment, LLAMA2_7B, BFLOAT16, **kwargs))


def assert_reports_identical(a, b):
    assert len(a.outcomes) == len(b.outcomes)
    for x, y in zip(a.outcomes, b.outcomes):
        assert x.request == y.request
        assert x.first_token_s == y.first_token_s  # exact, not approx
        assert x.finish_s == y.finish_s
        assert x.preemptions == y.preemptions
    assert a.makespan_s == b.makespan_s
    assert a.start_s == b.start_s
    assert a.total_preemptions == b.total_preemptions
    assert a.mean_batch_occupancy == b.mean_batch_occupancy


@pytest.mark.parametrize("label,backend,kv,batch,lookahead,stream",
                         CASES, ids=[c[0] for c in CASES])
class TestColumnarParity:
    def test_run_matches_reference(self, label, backend, kv, batch,
                                   lookahead, stream):
        reference, columnar = make_pair(backend, kv, batch, lookahead)
        requests = poisson_stream(**stream)
        assert_reports_identical(reference.run(requests),
                                 columnar.run(list(requests)))

    @pytest.mark.parametrize("horizon", [0.1, 0.7, 5.0])
    def test_step_cadence_matches_reference(self, label, backend, kv, batch,
                                            lookahead, stream, horizon):
        reference, columnar = make_pair(backend, kv, batch, lookahead)
        requests = poisson_stream(**stream)
        expected = reference.run(requests)
        for request in requests:
            columnar.submit(request)
        clock = 0.0
        finished = []
        while not columnar.idle:
            clock += horizon
            finished.extend(columnar.step(clock))
        assert sorted(finished) == [r.request_id for r in requests]
        assert_reports_identical(expected, columnar.report())

    def test_snapshot_restore_mid_run(self, label, backend, kv, batch,
                                      lookahead, stream):
        reference, columnar = make_pair(backend, kv, batch, lookahead)
        requests = poisson_stream(**stream)
        expected = reference.run(requests)
        for request in requests:
            columnar.submit(request)
        clock = 0.0
        while not columnar.idle and clock < 3.0:
            clock += 0.25
            columnar.step(clock)
        payload = json.loads(json.dumps(columnar.to_state()))
        _, fresh = make_pair(backend, kv, batch, lookahead)
        fresh.from_state(payload)
        for scheduler in (columnar, fresh):
            while not scheduler.idle:
                clock += 0.25
                scheduler.step(clock)
        # Restored-and-finished equals carried-on-and-finished equals
        # the oracle reference.
        assert_reports_identical(expected, fresh.report())
        assert_reports_identical(columnar.report(), fresh.report())


class TestColumnarSurface:
    def test_finished_triple_and_release(self):
        _, columnar = make_pair("tdx", 65536, 4, 0)
        columnar.submit(ServeRequest(0, 0.0, 64, 8))
        clock = 0.0
        done = []
        while not columnar.idle:
            clock += 0.25
            done.extend(columnar.step(clock))
        assert done == [0]
        first, finish, preempted = columnar.finished_triple(0)
        assert 0.0 < first <= finish
        assert preempted == 0
        assert columnar.output_tokens(0) == 8
        columnar.release(0)
        with pytest.raises(KeyError):
            columnar.finished_triple(0)

    def test_fingerprint_distinguishes_engines(self):
        _, columnar = make_pair("tdx", 65536, 4, 0)
        assert columnar.config_fingerprint() == {
            "engine": "columnar", "model": LLAMA2_7B.name,
            "dtype": BFLOAT16.name, "max_batch": 4, "block_size": 16,
            "admission_lookahead": 0, "num_blocks": 65536 // 16}

    def test_engine_mismatch_refused_on_restore(self):
        """A scheduler payload without the columnar tag (the retired
        object-per-request snapshot format) is refused."""
        _, columnar = make_pair("tdx", 65536, 4, 0)
        columnar.submit(ServeRequest(0, 0.0, 64, 8))
        columnar.step(0.25)
        payload = columnar.to_state()
        del payload["config"]["engine"]
        _, fresh = make_pair("tdx", 65536, 4, 0)
        with pytest.raises(StateIntegrityError, match="engine"):
            fresh.from_state(payload)
