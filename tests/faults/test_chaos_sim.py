"""End-to-end chaos: every fault kind against the fleet simulator."""

import pytest

from repro.faults import (
    DegradationPolicy,
    FaultSchedule,
    RetryPolicy,
    one_shot,
    recurring,
)
from repro.fleet import fixed_fleet, poisson_table, replica_spec

TDX = replica_spec("tdx", max_batch=16, kv_capacity_tokens=65536)
CGPU = replica_spec("cgpu", max_batch=16, kv_capacity_tokens=65536)


def stream(n=14, seed=11, rate=4.0):
    return poisson_table(n, rate, 128, 32, seed=seed)


def ids(outcomes):
    return sorted(o.request.request_id for o in outcomes)


class TestZeroFaultTwin:
    def test_empty_schedule_is_bit_identical(self):
        requests = stream()
        bare = fixed_fleet(TDX, 2).run(requests)
        armed = fixed_fleet(TDX, 2, faults=FaultSchedule.empty()).run(requests)
        assert bare.to_dict() == armed.to_dict()

    def test_retry_policy_alone_is_bit_identical(self):
        requests = stream()
        bare = fixed_fleet(TDX, 2).run(requests)
        armed = fixed_fleet(TDX, 2, retry_policy=RetryPolicy()).run(requests)
        assert bare.to_dict() == armed.to_dict()


class TestCrash:
    def test_crash_requeues_and_completes_everything(self):
        requests = stream()
        report = fixed_fleet(
            TDX, 2, faults=one_shot("crash", 0, 2.0, restart_after_s=5.0),
            retry_policy=RetryPolicy(seed=1)).run(requests)
        assert ids(report.outcomes) == [r.request_id for r in requests]
        assert not report.shed
        assert report.fault_events
        crashed = next(u for u in report.replicas if u.replica_id == 0)
        assert crashed.crashes == 1

    def test_crash_wastes_inflight_tokens(self):
        report = fixed_fleet(
            TDX, 1, faults=one_shot("crash", 0, 3.0, restart_after_s=2.0),
            retry_policy=RetryPolicy(seed=1)).run(stream())
        assert report.wasted_tokens > 0
        assert report.retries > 0
        assert report.wasted_cost_usd > 0

    def test_permanent_crash_stops_the_meter(self):
        report = fixed_fleet(
            TDX, 2, faults=one_shot("crash", 1, 2.0),
            retry_policy=RetryPolicy(seed=1)).run(stream())
        dead = next(u for u in report.replicas if u.replica_id == 1)
        assert dead.retired_s is not None
        assert dead.billed_hours * 3600.0 == pytest.approx(
            dead.retired_s - dead.provisioned_s)

    def test_rebooting_crash_keeps_billing(self):
        report = fixed_fleet(
            TDX, 2, faults=one_shot("crash", 1, 2.0, restart_after_s=4.0),
            retry_policy=RetryPolicy(seed=1)).run(stream())
        rebooted = next(u for u in report.replicas if u.replica_id == 1)
        assert rebooted.retired_s is None
        assert rebooted.billed_hours * 3600.0 == pytest.approx(report.end_s)


class TestOtherFaultKinds:
    def test_hang_delays_but_loses_nothing(self):
        requests = stream()
        nominal = fixed_fleet(TDX, 2).run(requests)
        hung = fixed_fleet(
            TDX, 2, faults=one_shot("hang", 0, 1.0, duration_s=6.0),
            retry_policy=RetryPolicy(timeout_s=60.0, seed=1)).run(requests)
        assert ids(hung.outcomes) == ids(nominal.outcomes)
        assert hung.makespan_s > nominal.makespan_s

    def test_slowdown_stretches_makespan(self):
        requests = stream()
        nominal = fixed_fleet(TDX, 2).run(requests)
        slowed = fixed_fleet(
            TDX, 2,
            faults=(one_shot("slowdown", 0, 0.5, duration_s=20.0, factor=3.0)
                    + one_shot("slowdown", 1, 0.5, duration_s=20.0,
                               factor=3.0))).run(requests)
        assert slowed.makespan_s > nominal.makespan_s
        assert ids(slowed.outcomes) == ids(nominal.outcomes)

    def test_link_degrade_is_milder_than_raw_slowdown(self):
        requests = stream()
        nominal = fixed_fleet(TDX, 2).run(requests)
        degraded = fixed_fleet(
            TDX, 2,
            faults=(one_shot("link_degrade", 0, 0.5, duration_s=20.0,
                             factor=0.25)
                    + one_shot("link_degrade", 1, 0.5, duration_s=20.0,
                               factor=0.25))).run(requests)
        # comm_share=0.15 of a 4x bandwidth cut: a visible but bounded hit.
        assert degraded.makespan_s >= nominal.makespan_s
        assert degraded.makespan_s < nominal.makespan_s * 2.0

    def test_boot_failure_on_running_replica_queues_for_reboot(self):
        schedule = (one_shot("boot_failure", 0, 1.0, duration_s=5.0)
                    + one_shot("crash", 0, 2.0, restart_after_s=1.0))
        report = fixed_fleet(TDX, 2, faults=schedule,
                             retry_policy=RetryPolicy(seed=1)).run(stream())
        assert ids(report.outcomes) == list(range(14))
        effects = [a.effect for a in report.fault_events]
        assert any("queued" in e for e in effects)

    def test_attestation_failure_quarantines_tee_replica(self):
        report = fixed_fleet(
            TDX, 2,
            faults=one_shot("attestation_failure", 0, 1.0, duration_s=5.0),
            retry_policy=RetryPolicy(seed=1)).run(stream())
        assert ids(report.outcomes) == list(range(14))
        (applied,) = report.fault_events
        assert "attestation" in applied.effect

    def test_recurring_faults_all_apply(self):
        schedule = recurring("hang", 0, start_s=1.0, period_s=2.0, count=3,
                             duration_s=0.5)
        report = fixed_fleet(TDX, 2, faults=schedule,
                             retry_policy=RetryPolicy(seed=1)).run(stream())
        assert len(report.fault_events) == 3


class TestDegradation:
    def test_all_dead_without_policy_sheds_unroutable(self):
        schedule = one_shot("crash", 0, 1.0) + one_shot("crash", 1, 1.0)
        report = fixed_fleet(TDX, 2, faults=schedule,
                             retry_policy=RetryPolicy(seed=1)).run(stream())
        assert report.submitted == 14
        completed = len(report.outcomes)
        assert completed + len(report.shed) == 14
        assert all(s.reason == "unroutable" for s in report.shed)

    def test_shed_mode_sheds_lowest_priority_first(self):
        requests = list(stream())
        for i, r in enumerate(requests):
            object.__setattr__(r, "priority", 1 if i < 10 else 5)
        schedule = (one_shot("crash", 0, 0.5, restart_after_s=30.0)
                    + one_shot("crash", 1, 0.5, restart_after_s=30.0))
        report = fixed_fleet(
            TDX, 2, faults=schedule, retry_policy=RetryPolicy(seed=1),
            degradation=DegradationPolicy(mode="shed", max_hold_s=3.0),
        ).run(requests)
        assert report.shed
        shed_priorities = sorted(s.request.priority for s in report.shed)
        # Low priority value = more important; the shed set is dominated
        # by the high-value (less important) class.
        assert shed_priorities[0] >= 1
        assert all(s.reason in ("degraded", "retries-exhausted",
                                "unroutable") for s in report.shed)
        assert len(report.outcomes) + len(report.shed) == 14

    def test_spill_mode_provisions_emergency_capacity(self):
        schedule = (one_shot("crash", 0, 0.5, restart_after_s=60.0)
                    + one_shot("crash", 1, 0.5, restart_after_s=60.0))
        report = fixed_fleet(
            TDX, 2, faults=schedule, retry_policy=RetryPolicy(seed=1),
            degradation=DegradationPolicy(mode="spill", max_hold_s=2.0,
                                          spill_spec=CGPU, max_spill=2),
        ).run(stream())
        assert len(report.outcomes) + len(report.shed) == 14
        kinds = {u.kind for u in report.replicas}
        assert "cgpu" in kinds, "spill replicas should appear in the bill"
        assert len(report.outcomes) > 0


class TestReportEdgeCases:
    def test_all_dead_report_degenerate_metrics(self):
        schedule = one_shot("crash", 0, 0.0) + one_shot("crash", 1, 0.0)
        report = fixed_fleet(TDX, 2, faults=schedule,
                             retry_policy=RetryPolicy(seed=1)).run(stream())
        assert not report.outcomes, "t=0 crashes should kill everything"
        with pytest.raises(ValueError, match="no completed"):
            report.ttft_percentile(99.0)
        d = report.to_dict()
        assert d["usd_per_mtok"] is None
        assert d["ttft_p99_s"] is None
        assert d["e2e_p50_s"] is None
        assert report.slo_attainment(2.0) == 0.0
        assert len(report.shed) == 14

    def test_empty_request_list_rejected(self):
        with pytest.raises(ValueError, match="no requests"):
            fixed_fleet(TDX, 1, faults=FaultSchedule.empty(),
                        retry_policy=RetryPolicy(seed=0)).run([])

    def test_makespan_covers_retried_first_arrival(self):
        # The very first arrival is evacuated by a crash and completes
        # only on retry: makespan must reflect the retried finish.
        requests = stream(4, rate=0.2)
        nominal = fixed_fleet(TDX, 1).run(requests)
        first_arrival = min(r.arrival_s for r in requests)
        crash_s = first_arrival + 0.3
        report = fixed_fleet(
            TDX, 1, faults=one_shot("crash", 0, crash_s, restart_after_s=3.0),
            retry_policy=RetryPolicy(seed=2)).run(requests)
        assert len(report.outcomes) == 4
        assert report.retries >= 1
        first = min(report.outcomes, key=lambda o: o.request.arrival_s)
        # The retried first arrival finishes only after the reboot, and
        # the makespan window still anchors at its original arrival.
        assert first.finish_s > crash_s + 3.0
        assert report.start_s == pytest.approx(first_arrival)
        assert report.end_s >= first.finish_s
        assert report.makespan_s >= nominal.makespan_s
