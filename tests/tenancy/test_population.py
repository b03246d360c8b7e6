"""Tenant populations: merge order, composability, and validation."""

import pytest

from repro.tenancy import TenantPopulation, TenantSpec, whale_mix


def small_population(seed=7):
    return TenantPopulation((
        TenantSpec(tenant_id=0, name="a", requests=12, rate_per_s=2.0,
                   arrival="mmpp", mean_prompt=192, weight=4.0, priority=0,
                   prefix_tokens=48),
        TenantSpec(tenant_id=1, name="b", requests=8, rate_per_s=1.5,
                   weight=2.0, priority=1),
        TenantSpec(tenant_id=2, name="c", requests=4, rate_per_s=0.5,
                   arrival="diurnal", priority=2),
    ), seed=seed)


class TestStreamTableTwins:
    def test_global_ids_in_merge_order(self):
        stream = small_population().table()
        assert [r.request_id for r in stream] == list(range(len(stream)))
        arrivals = [r.arrival_s for r in stream]
        assert arrivals == sorted(arrivals)

    def test_priority_follows_tenant(self):
        population = small_population()
        priorities = {s.tenant_id: s.priority for s in population.tenants}
        for request in population.table():
            assert request.priority == priorities[request.tenant_id]

    def test_deterministic(self):
        assert list(small_population().table()) == \
            list(small_population().table())
        assert list(small_population(seed=8).table()) != \
            list(small_population(seed=7).table())


class TestComposability:
    def test_tenant_stream_independent_of_neighbors(self):
        """Removing a tenant never perturbs the others' draws."""
        full = small_population()
        solo = full.solo(1)
        mine_full = [(r.arrival_s, r.prompt_tokens, r.output_tokens)
                     for r in full.table() if r.tenant_id == 1]
        mine_solo = [(r.arrival_s, r.prompt_tokens, r.output_tokens)
                     for r in solo.table()]
        assert mine_full == mine_solo

    def test_tenancy_config_carries_weights_and_prefixes(self):
        config = small_population().tenancy_config(
            admission="wfq", kv_isolation="shared-prefix")
        assert config.weight_of(0) == 4.0
        assert config.weight_of(2) == 1.0
        assert config.prefix_of(0) == 48
        assert config.prefix_of(1) == 0

    def test_partition_shares_weight_proportional(self):
        config = small_population().tenancy_config(kv_isolation="partition")
        shares = dict(config.partition_shares)
        assert shares[0] == pytest.approx(4.0 / 7.0)
        assert sum(shares.values()) == pytest.approx(1.0)


class TestValidation:
    def test_duplicate_tenant_ids_rejected(self):
        spec = TenantSpec(tenant_id=0, name="a", requests=2, rate_per_s=1.0)
        with pytest.raises(ValueError, match="duplicate tenant"):
            TenantPopulation((spec, spec))

    def test_bad_spec_rejected(self):
        with pytest.raises(ValueError, match="rate_per_s"):
            TenantSpec(tenant_id=0, name="a", requests=2, rate_per_s=0.0)
        with pytest.raises(ValueError, match="arrival"):
            TenantSpec(tenant_id=0, name="a", requests=2, rate_per_s=1.0,
                       arrival="weibull")
        with pytest.raises(ValueError, match="weight"):
            TenantSpec(tenant_id=0, name="a", requests=2, rate_per_s=1.0,
                       weight=-1.0)

    def test_whale_mix_shape(self):
        population = whale_mix(total_requests=100, seed=1)
        assert population.total_requests >= 90
        whale = population.spec_of(0)
        assert whale.name == "whale"
        assert whale.requests >= sum(
            s.requests for s in population.tenants
            if s.tenant_id not in (0, 1))
