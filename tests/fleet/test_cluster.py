"""Fleet event loop: conservation, determinism, scaling, planning."""

import pytest

from repro.fleet import (
    AutoscalerConfig,
    CapacityPlan,
    CostSloRouter,
    FleetSimulator,
    ReactiveAutoscaler,
    fixed_fleet,
    poisson_table,
    replica_spec,
)
from repro.state import SweepRunner, capacity_grid

TDX = replica_spec("tdx", max_batch=16, kv_capacity_tokens=65536)
CGPU = replica_spec("cgpu", max_batch=16, kv_capacity_tokens=65536)

STREAM = poisson_table(40, rate_per_s=4.0, mean_prompt=128,
                       mean_output=32, seed=11)


@pytest.fixture(scope="module")
def two_replica_report():
    return fixed_fleet(TDX, 2).run(STREAM)


class TestConservation:
    def test_every_request_served_exactly_once(self, two_replica_report):
        report = two_replica_report
        assert len(report.outcomes) == len(STREAM)
        assert sorted(o.request.request_id for o in report.outcomes) == \
            [r.request_id for r in STREAM]
        assert all(o.finish_s > 0 for o in report.outcomes)
        assert sum(u.requests_served for u in report.replicas) == len(STREAM)
        assert sum(u.tokens_out for u in report.replicas) == \
            sum(r.output_tokens for r in STREAM)

    def test_timelines_consistent(self, two_replica_report):
        for outcome in two_replica_report.outcomes:
            assert (outcome.request.arrival_s <= outcome.first_token_s
                    <= outcome.finish_s <= two_replica_report.end_s)

    def test_makespan_from_first_arrival(self, two_replica_report):
        report = two_replica_report
        assert report.start_s == min(r.arrival_s for r in STREAM)
        assert report.makespan_s == report.end_s - report.start_s

    def test_cost_joins_pricing(self, two_replica_report):
        report = two_replica_report
        expected = sum(u.billed_hours * u.price_hr for u in report.replicas)
        assert report.cost_usd == pytest.approx(expected)
        assert report.usd_per_mtok == pytest.approx(
            report.cost_usd / report.tokens_out * 1e6)

    def test_slo_attainment_bounds(self, two_replica_report):
        report = two_replica_report
        assert report.slo_attainment(1e9) == 1.0
        curve = report.slo_curve([0.1, 1.0, 10.0, 1e9])
        values = list(curve.values())
        assert values == sorted(values)  # attainment non-decreasing in SLO


class TestDeterminism:
    def test_same_config_same_report(self, two_replica_report):
        rerun = fixed_fleet(TDX, 2).run(STREAM)
        assert rerun.to_dict() == two_replica_report.to_dict()

    def test_autoscaled_run_deterministic(self):
        def run():
            scaler = ReactiveAutoscaler(AutoscalerConfig(
                max_replicas=4, scale_up_load=3.0, scale_down_load=0.5,
                cooldown_s=5.0, boot_latency_s=8.0))
            return FleetSimulator([TDX], autoscaler=scaler).run(STREAM)
        assert run().to_dict() == run().to_dict()


class TestScaling:
    def test_more_replicas_never_hurt_p99_ttft(self, two_replica_report):
        """The fleet-level metamorphic invariant: under fixed load,
        adding a replica never raises p99 TTFT."""
        p99s = [fixed_fleet(TDX, 1).run(STREAM).ttft_percentile(99),
                two_replica_report.ttft_percentile(99),
                fixed_fleet(TDX, 3).run(STREAM).ttft_percentile(99)]
        assert p99s[0] >= p99s[1] >= p99s[2] - 1e-9

    def test_more_replicas_cost_more_per_token_when_underloaded(self):
        light = poisson_table(10, rate_per_s=1.0, mean_prompt=64,
                              mean_output=16, seed=3)
        one = fixed_fleet(TDX, 1).run(light)
        three = fixed_fleet(TDX, 3).run(light)
        assert three.cost_usd > one.cost_usd

    def test_cgpu_fleet_faster_but_pricier_than_tdx(self):
        tdx = fixed_fleet(TDX, 1).run(STREAM)
        cgpu = fixed_fleet(CGPU, 1).run(STREAM)
        assert cgpu.ttft_percentile(99) < tdx.ttft_percentile(99)
        assert cgpu.cost_usd / cgpu.makespan_s > tdx.cost_usd / tdx.makespan_s


class TestAutoscaledFleet:
    def test_burst_provisions_and_drains(self):
        scaler = ReactiveAutoscaler(AutoscalerConfig(
            max_replicas=4, scale_up_load=3.0, scale_down_load=0.5,
            cooldown_s=2.0, boot_latency_s=5.0))
        fleet = FleetSimulator([TDX], autoscaler=scaler)
        report = fleet.run(STREAM)
        assert report.peak_replicas > 1
        assert any(e.action == "up" for e in report.scale_events)
        assert len(report.outcomes) == len(STREAM)
        # Scaled-up instances bill from provisioning, not readiness.
        late = [u for u in report.replicas if u.provisioned_s > 0]
        assert late and all(u.billed_hours > 0 for u in late)

    def test_drained_replicas_retire_and_stop_billing(self):
        scaler = ReactiveAutoscaler(AutoscalerConfig(
            max_replicas=3, scale_up_load=2.0, scale_down_load=0.8,
            cooldown_s=1.0, boot_latency_s=2.0))
        # A burst followed by a long quiet tail forces a scale-down.
        burst = poisson_table(30, rate_per_s=10.0, mean_prompt=96,
                              mean_output=24, seed=5)
        tail = [r.__class__(r.request_id + 100, r.arrival_s + 60.0,
                            r.prompt_tokens, r.output_tokens)
                for r in poisson_table(6, 0.5, mean_prompt=64,
                                       mean_output=16, seed=6)]
        report = FleetSimulator([TDX], autoscaler=scaler).run(
            list(burst) + tail)
        downs = [e for e in report.scale_events if e.action == "down"]
        assert downs
        retired = [u for u in report.replicas if u.retired_s is not None]
        assert retired
        for usage in retired:
            assert usage.billed_hours == pytest.approx(
                (usage.retired_s - usage.provisioned_s) / 3600.0)


class TestHeterogeneousRouting:
    def test_cost_slo_spill_pattern(self):
        """Cheap TDX carries the base load; the cGPU takes the spill."""
        heavy = poisson_table(60, rate_per_s=8.0, mean_prompt=192,
                              mean_output=48, seed=9)
        fleet = FleetSimulator([TDX, CGPU], router=CostSloRouter(2.0))
        report = fleet.run(heavy)
        served = {u.kind: u.requests_served for u in report.replicas}
        assert served["tdx"] > 0 and served["cgpu"] > 0
        assert len(report.outcomes) == len(heavy)


def _plans(slo_ttft_s: float, max_replicas: int,
           kinds: tuple[str, ...] = ("tdx", "cgpu")) -> dict:
    """Capacity plans over the committed capacity trace, run in memory."""
    spec = capacity_grid(kinds=kinds, max_replicas=max_replicas,
                         slo_ttft_s=slo_ttft_s)
    rows = SweepRunner(None, spec).run().values()
    return {kind: CapacityPlan.from_rows(kind, rows, slo_ttft_s)
            for kind in kinds}


@pytest.fixture(scope="module")
def capacity_plans():
    return _plans(slo_ttft_s=2.0, max_replicas=6)


class TestCapacityPlanning:
    def test_plan_finds_minimum_fleet(self, capacity_plans):
        plan = capacity_plans["tdx"]
        assert plan.replicas_needed is not None
        assert plan.points[-1].meets_slo
        assert all(not p.meets_slo for p in plan.points[:-1])
        assert plan.usd_per_mtok_at_slo > 0

    def test_infeasible_slo_returns_none(self):
        plan = _plans(slo_ttft_s=1e-6, max_replicas=2, kinds=("tdx",))["tdx"]
        assert plan.replicas_needed is None
        assert plan.usd_per_mtok_at_slo is None
        assert len(plan.points) == 2

    def test_sweep_covers_kinds(self, capacity_plans):
        assert set(capacity_plans) == {"tdx", "cgpu"}
        # The cGPU is faster per instance: it never needs more replicas.
        assert (capacity_plans["cgpu"].replicas_needed
                <= capacity_plans["tdx"].replicas_needed)

    def test_validation(self):
        with pytest.raises(ValueError):
            capacity_grid(slo_ttft_s=0.0)
        with pytest.raises(ValueError):
            capacity_grid(slo_ttft_s=1.0, max_replicas=0)
        with pytest.raises(ValueError):
            fixed_fleet(TDX, 0)
        with pytest.raises(ValueError):
            FleetSimulator([])
        with pytest.raises(ValueError):
            FleetSimulator([TDX], tick_s=0.0)
        with pytest.raises(ValueError):
            fixed_fleet(TDX, 1).run([])

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_nonfinite_tick_rejected(self, bad):
        # Regression: nan <= 0 is False, so a NaN tick used to pass and
        # run_tick() drove the clock to NaN without ever finishing; an
        # infinite tick never advanced the grid either.
        with pytest.raises(ValueError, match="finite"):
            FleetSimulator([TDX], tick_s=bad)
        with pytest.raises(ValueError, match="finite"):
            fixed_fleet(TDX, 1, tick_s=bad)
