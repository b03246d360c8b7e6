"""Serving-layer tenancy: WFQ ordering, KV isolation, config checks."""

import json

import pytest

from repro.core.experiment import cpu_deployment
from repro.llm.config import LLAMA2_7B
from repro.llm.datatypes import BFLOAT16
from repro.serving import ColumnarScheduler, ServeRequest, TenancyConfig
from repro.validate.oracle import ContinuousBatchingScheduler


def make_scheduler(cls=ColumnarScheduler, tenancy=None,
                   kv_tokens=4096, max_batch=4, lookahead=0):
    return cls(cpu_deployment("tdx", sockets_used=1), LLAMA2_7B, BFLOAT16,
               kv_capacity_tokens=kv_tokens, max_batch=max_batch,
               admission_lookahead=lookahead, tenancy=tenancy)


def free_and_total_blocks(scheduler):
    """KV pool occupancy of the scheduler (block counter) or the oracle
    (real paged cache)."""
    if isinstance(scheduler, ColumnarScheduler):
        return scheduler._free_blocks, scheduler.num_blocks
    return scheduler.cache.free_blocks, scheduler.cache.num_blocks


#: ``(prefix_tokens, prompt, output)`` of a tenant-1 request that cannot
#: fit a 1024-token (64-block) pool beside every tenant's pinned prefix.
#: In the first case the pins take all 64 blocks, so even the tenant-0
#: request ahead of it is refused; in the second they take 63 and the
#: request needs 3.  Admitted, either would wait in the queue, or
#: preempt itself, forever.
PREFIX_OVERCOMMIT = [
    (((0, 512), (1, 512)), 600, 8),
    (((0, 512), (1, 496)), 497, 40),
]


def request(rid, arrival, prompt=128, output=32, tenant=0):
    return ServeRequest(request_id=rid, arrival_s=arrival,
                        prompt_tokens=prompt, output_tokens=output,
                        tenant_id=tenant)


class TestConfigValidation:
    def test_defaults_are_fcfs_shared(self):
        config = TenancyConfig()
        assert config.admission == "fcfs"
        assert config.kv_isolation == "shared"
        assert config.weight_of(99) == 1.0

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError, match="admission"):
            TenancyConfig(admission="lottery")
        with pytest.raises(ValueError, match="kv_isolation"):
            TenancyConfig(kv_isolation="banked")
        with pytest.raises(ValueError, match="duplicate"):
            TenancyConfig(weights=((0, 1.0), (0, 2.0)))
        with pytest.raises(ValueError, match="positive"):
            TenancyConfig(weights=((0, 0.0),))
        with pytest.raises(ValueError, match="requires partition_shares"):
            TenancyConfig(kv_isolation="partition")
        with pytest.raises(ValueError, match="sum"):
            TenancyConfig(kv_isolation="partition",
                          partition_shares=((0, 0.7), (1, 0.6)))

    def test_partition_budgets_conserve_blocks(self):
        config = TenancyConfig(kv_isolation="partition",
                               partition_shares=((0, 1 / 3), (1, 1 / 3),
                                                 (2, 1 / 3)))
        budgets = config.partition_budgets(100)
        assert sum(budgets.values()) <= 100
        assert min(budgets.values()) >= 33

    def test_state_round_trip(self):
        config = TenancyConfig(admission="wfq", weights=((0, 2.5),),
                               kv_isolation="shared-prefix",
                               prefix_tokens=((0, 64),))
        payload = json.loads(json.dumps(config.to_state()))
        assert TenancyConfig.from_state(payload) == config


class TestWfqOrdering:
    def test_heavier_weight_admitted_first(self):
        """Two same-size backlogged requests: the heavier tenant's tag
        is smaller, so it is admitted ahead of arrival order."""
        tenancy = TenancyConfig(admission="wfq",
                                weights=((0, 1.0), (1, 10.0)))
        scheduler = make_scheduler(tenancy=tenancy, max_batch=1)
        report = scheduler.run([
            request(0, 0.0, tenant=0),
            request(1, 0.0, tenant=0),   # queued behind request 0
            request(2, 0.01, tenant=1),  # heavier: overtakes request 1
        ])
        first = {o.request.request_id: o.first_token_s
                 for o in report.outcomes}
        assert first[2] < first[1]

    def test_fcfs_when_unarmed(self):
        scheduler = make_scheduler(max_batch=1)
        report = scheduler.run([request(0, 0.0), request(1, 0.0),
                                request(2, 0.01)])
        first = {o.request.request_id: o.first_token_s
                 for o in report.outcomes}
        assert first[1] < first[2]

    @pytest.mark.parametrize("cls", [ContinuousBatchingScheduler,
                                     ColumnarScheduler])
    def test_negative_tenant_rejected(self, cls):
        with pytest.raises(ValueError, match="tenant"):
            request(0, 0.0, tenant=-1)


class TestKvIsolation:
    def test_partition_blocks_unknown_tenant(self):
        tenancy = TenancyConfig(kv_isolation="partition",
                                partition_shares=((0, 1.0),))
        scheduler = make_scheduler(tenancy=tenancy)
        with pytest.raises(ValueError, match="tenant"):
            scheduler.run([request(0, 0.0, tenant=7)])

    def test_partition_caps_tenant(self):
        """A tenant can never exceed its worst-case block budget."""
        tenancy = TenancyConfig(kv_isolation="partition",
                                partition_shares=((0, 0.25), (1, 0.75)))
        scheduler = make_scheduler(tenancy=tenancy, kv_tokens=2048)
        # Tenant 0's budget is 32 blocks = 512 tokens worst case.
        with pytest.raises(ValueError, match="partition holds"):
            scheduler.run([request(0, 0.0, prompt=600, output=64, tenant=0)])

    @pytest.mark.parametrize("cls", [ContinuousBatchingScheduler,
                                     ColumnarScheduler])
    def test_partition_never_preempts(self, cls):
        tenancy = TenancyConfig(kv_isolation="partition",
                                partition_shares=((0, 0.5), (1, 0.5)))
        scheduler = make_scheduler(cls, tenancy=tenancy, kv_tokens=2048,
                                   max_batch=4)
        requests = [request(i, 0.05 * i, prompt=120, output=60, tenant=i % 2)
                    for i in range(12)]
        report = scheduler.run(requests)
        assert len(report.outcomes) == 12
        assert scheduler.preemptions == 0

    @pytest.mark.parametrize("cls", [ContinuousBatchingScheduler,
                                     ColumnarScheduler])
    def test_shared_prefix_hits_and_misses(self, cls):
        tenancy = TenancyConfig(kv_isolation="shared-prefix",
                                prefix_tokens=((0, 64),))
        scheduler = make_scheduler(cls, tenancy=tenancy)
        scheduler.run([request(i, 0.1 * i, tenant=0) for i in range(6)])
        assert scheduler.prefix_misses == 1  # first request pins
        assert scheduler.prefix_hits == 5
        # The pin stays resident after the run (4 blocks for 64 tokens);
        # evacuation returns the pool whole.
        free, total = free_and_total_blocks(scheduler)
        assert free == total - 4
        scheduler.evacuate()
        free, total = free_and_total_blocks(scheduler)
        assert free == total

    @pytest.mark.parametrize("cls", [ContinuousBatchingScheduler,
                                     ColumnarScheduler])
    @pytest.mark.parametrize("prefixes, prompt, output",
                             PREFIX_OVERCOMMIT)
    def test_shared_prefix_rejects_request_beyond_pinned_pool(
            self, deadline, cls, prefixes, prompt, output):
        tenancy = TenancyConfig(kv_isolation="shared-prefix",
                                prefix_tokens=prefixes)
        scheduler = make_scheduler(cls, tenancy=tenancy, kv_tokens=1024)
        with pytest.raises(ValueError, match="pinned prefix blocks"):
            scheduler.submit(request(0, 0.0, prompt=520, output=8,
                                     tenant=0))
            scheduler.step(None)
            scheduler.submit(request(1, scheduler.clock_s, prompt=prompt,
                                     output=output, tenant=1))
            scheduler.step(None)

    @pytest.mark.parametrize("cls", [ContinuousBatchingScheduler,
                                     ColumnarScheduler])
    def test_shared_prefix_serves_request_that_fits_beside_pins(
            self, deadline, cls):
        """63 blocks pinned of 64 leave room for a one-block request."""
        tenancy = TenancyConfig(kv_isolation="shared-prefix",
                                prefix_tokens=((0, 512), (1, 496)))
        scheduler = make_scheduler(cls, tenancy=tenancy, kv_tokens=1024)
        report = scheduler.run([request(0, 0.0, prompt=520, output=8),
                                request(1, 0.1, prompt=500, output=8,
                                        tenant=1)])
        assert len(report.outcomes) == 2
        assert scheduler.prefix_misses == 2

    def test_shared_prefix_unconfigured_tenant_plain(self):
        tenancy = TenancyConfig(kv_isolation="shared-prefix",
                                prefix_tokens=((0, 64),))
        scheduler = make_scheduler(tenancy=tenancy)
        scheduler.run([request(i, 0.1 * i, tenant=1) for i in range(3)])
        assert scheduler.prefix_misses == 0
        assert scheduler.prefix_hits == 0


class TestSnapshotRoundTrip:
    @pytest.mark.parametrize("cls", [ColumnarScheduler])
    def test_wfq_prefix_snapshot_mid_run(self, cls):
        tenancy = TenancyConfig(admission="wfq",
                                weights=((0, 3.0), (1, 1.0)),
                                kv_isolation="shared-prefix",
                                prefix_tokens=((0, 48),))
        requests = [request(i, 0.2 * i, prompt=100 + 7 * i, output=24,
                            tenant=i % 2) for i in range(10)]

        baseline = make_scheduler(cls, tenancy=tenancy, max_batch=2)
        full = baseline.run(list(requests))

        live = make_scheduler(cls, tenancy=tenancy, max_batch=2)
        for item in sorted(requests,
                           key=lambda r: (r.arrival_s, r.request_id)):
            live.submit(item)
        live.step(until_s=1.0)
        payload = json.loads(json.dumps(live.to_state()))
        revived = make_scheduler(cls, tenancy=tenancy, max_batch=2)
        revived.from_state(payload)
        revived.step()
        resumed = revived.report()
        assert len(resumed.outcomes) == len(full.outcomes)
        for mine, theirs in zip(resumed.outcomes, full.outcomes):
            assert (mine.request, mine.first_token_s, mine.finish_s,
                    mine.preemptions) == (theirs.request,
                                          theirs.first_token_s,
                                          theirs.finish_s,
                                          theirs.preemptions)
        assert resumed.makespan_s == full.makespan_s

    def test_unarmed_snapshot_has_no_tenancy_key(self):
        scheduler = make_scheduler()
        scheduler.run([request(0, 0.0)])
        assert "tenancy" not in scheduler.to_state()
        assert "tenancy" not in scheduler.config_fingerprint()
