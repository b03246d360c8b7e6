"""Continuous-batching scheduler: completeness, conservation, SLAs."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.experiment import cpu_deployment, gpu_deployment
from repro.llm.config import LLAMA2_7B
from repro.llm.datatypes import BFLOAT16
from repro.serving.columnar import ColumnarScheduler
from repro.serving.scheduler import ServeRequest, poisson_stream


def make_scheduler(kv_tokens=100_000, max_batch=16, backend="tdx"):
    if backend in ("gpu", "cgpu"):
        deployment = gpu_deployment(confidential=backend == "cgpu")
    else:
        deployment = cpu_deployment(backend, sockets_used=1)
    return ColumnarScheduler(deployment, LLAMA2_7B, BFLOAT16,
                             kv_capacity_tokens=kv_tokens,
                             max_batch=max_batch)


class TestBasicServing:
    @pytest.fixture(scope="class")
    def report(self):
        requests = poisson_stream(20, rate_per_s=4.0, mean_prompt=128,
                                  mean_output=32, seed=2)
        return make_scheduler().run(requests)

    def test_all_requests_complete(self, report):
        assert len(report.outcomes) == 20
        assert all(o.finish_s > 0 for o in report.outcomes)

    def test_timeline_consistent(self, report):
        for outcome in report.outcomes:
            assert (outcome.request.arrival_s <= outcome.first_token_s
                    <= outcome.finish_s)

    def test_throughput_positive(self, report):
        assert report.throughput_tok_s > 0

    def test_percentiles_ordered(self, report):
        assert (report.ttft_percentile(50) <= report.ttft_percentile(95))
        assert (report.e2e_percentile(50) <= report.e2e_percentile(95))

    def test_occupancy_within_cap(self, report):
        assert 0 < report.mean_batch_occupancy <= 16


class TestKvConservation:
    def test_cache_empty_after_run(self):
        scheduler = make_scheduler()
        scheduler.run(poisson_stream(10, rate_per_s=5.0, mean_prompt=64,
                                     mean_output=16, seed=3))
        assert scheduler.kv_free_fraction == 1.0 and scheduler.idle

    def test_preemption_under_memory_pressure(self):
        """A tight KV pool forces preemptions, yet everything finishes."""
        scheduler = make_scheduler(kv_tokens=2048, max_batch=8)
        requests = [ServeRequest(i, 0.0, prompt_tokens=200,
                                 output_tokens=120) for i in range(8)]
        report = scheduler.run(requests)
        assert report.total_preemptions > 0
        assert all(o.finish_s > 0 for o in report.outcomes)
        assert scheduler.kv_free_fraction == 1.0 and scheduler.idle

    def test_impossible_request_rejected(self):
        scheduler = make_scheduler(kv_tokens=256)
        with pytest.raises(ValueError, match="KV tokens"):
            scheduler.run([ServeRequest(0, 0.0, 500, 100)])


class TestRequestValidation:
    def test_negative_arrival_rejected(self):
        with pytest.raises(ValueError):
            ServeRequest(0, -1.0, 16, 16)

    def test_nonfinite_arrival_rejected(self):
        # Regression: nan < 0 is False, so a NaN arrival used to pass
        # validation and poison every downstream timeline metric.
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="finite"):
                ServeRequest(0, bad, 16, 16)

    def test_nonfinite_token_counts_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            ServeRequest(0, 0.0, float("nan"), 16)
        with pytest.raises(ValueError, match="finite"):
            ServeRequest(0, 0.0, 16, float("inf"))


class TestBackendComparison:
    def test_gpu_serves_faster_than_cpu_tee(self):
        requests = poisson_stream(10, rate_per_s=10.0, mean_prompt=128,
                                  mean_output=32, seed=4)
        tdx = make_scheduler(backend="tdx").run(requests)
        cgpu = make_scheduler(backend="cgpu").run(requests)
        assert cgpu.throughput_tok_s > tdx.throughput_tok_s
        assert cgpu.ttft_percentile(95) < tdx.ttft_percentile(95)

    def test_tee_overhead_visible_in_serving(self):
        requests = poisson_stream(8, rate_per_s=10.0, mean_prompt=128,
                                  mean_output=32, seed=5)
        base = make_scheduler(backend="baremetal").run(requests)
        tdx = make_scheduler(backend="tdx").run(requests)
        ratio = tdx.makespan_s / base.makespan_s
        assert 1.0 < ratio < 1.3


class TestStreamGenerator:
    def test_deterministic(self):
        assert poisson_stream(5, 1.0, seed=9) == poisson_stream(5, 1.0, seed=9)

    def test_arrivals_increase(self):
        stream = poisson_stream(50, 2.0, seed=1)
        arrivals = [r.arrival_s for r in stream]
        assert arrivals == sorted(arrivals)

    def test_validation(self):
        with pytest.raises(ValueError):
            poisson_stream(0, 1.0)
        with pytest.raises(ValueError):
            poisson_stream(5, 0.0)

    def test_request_validation(self):
        with pytest.raises(ValueError):
            ServeRequest(0, -1.0, 10, 10)
        with pytest.raises(ValueError):
            ServeRequest(0, 0.0, 0, 10)


class TestSchedulerProperties:
    @settings(max_examples=15, deadline=None)
    @given(st.lists(
        st.tuples(st.integers(16, 300), st.integers(8, 60)),
        min_size=1, max_size=10))
    def test_any_mix_completes_and_conserves(self, shapes):
        """Any feasible request mix completes with blocks conserved."""
        scheduler = make_scheduler(kv_tokens=4096, max_batch=4)
        requests = [ServeRequest(i, 0.1 * i, prompt, output)
                    for i, (prompt, output) in enumerate(shapes)]
        report = scheduler.run(requests)
        assert len(report.outcomes) == len(requests)
        assert all(o.finish_s >= o.first_token_s for o in report.outcomes)
        assert scheduler.kv_free_fraction == 1.0 and scheduler.idle
