"""Phased confidential boots layered under the fleet replica lifecycle."""

import math

import pytest

from repro.faults import FaultEvent, FaultSchedule, RetryPolicy
from repro.fleet import (
    AutoscalerConfig,
    FleetSimulator,
    ReactiveAutoscaler,
    fixed_fleet,
    poisson_table,
    replica_spec,
)
from repro.fleet.replica import ATTESTING as REPLICA_ATTESTING
from repro.fleet.replica import BOOTING, LIVE, Replica
from repro.tee.boot import (
    ATTESTING,
    BOOT_PHASES,
    PROVISIONING,
    boot_profile,
    constant_profile,
)

LEGACY = replica_spec("tdx", max_batch=8, kv_capacity_tokens=16384)
PHASED = replica_spec("tdx", max_batch=8, kv_capacity_tokens=16384,
                      boot=boot_profile("tdx"))

STREAM = poisson_table(24, rate_per_s=1.2, mean_prompt=128,
                       mean_output=48, seed=11)


def _serve(fleet, driver):
    """Serve STREAM stepping every tick (``stepped``: the stream as a
    ``ServeRequest`` list through begin_run/run_tick/finish_run) or
    through ``run()`` with quiet ticks jumped (``event``: the table)."""
    if driver == "event":
        return fleet.run(STREAM)
    fleet.begin_run(list(STREAM))
    while fleet.run_active:
        fleet.run_tick()
    return fleet.finish_run()


class TestReplicaBootWiring:
    def test_phased_spec_derives_boot_latency(self):
        replica = Replica(0, PHASED, provisioned_s=0.0, boot_latency_s=123.0)
        sequence = PHASED.boot_sequence()
        # The provisioner's constant is superseded by the phase sum.
        assert replica.boot_latency_s == sequence.total_s
        assert replica.ready_s == sequence.total_s
        assert replica.state == BOOTING

    def test_legacy_spec_keeps_constant(self):
        replica = Replica(0, LEGACY, provisioned_s=0.0, boot_latency_s=7.5)
        assert replica.boot is None
        assert replica.boot_latency_s == 7.5
        assert replica.reattest_s is None

    def test_boot_phase_walkthrough(self):
        replica = Replica(0, PHASED, provisioned_s=0.0, boot_latency_s=0.0)
        sequence = replica.boot
        for phase, begin, end in sequence.schedule(replica.ready_s):
            if end - begin > 1e-5:
                assert replica.boot_phase((begin + end) / 2) == phase
        replica.activate_if_ready(replica.ready_s)
        assert replica.state == LIVE
        assert replica.boot_phase(replica.ready_s) is None

    def test_legacy_replica_has_no_phase(self):
        replica = Replica(0, LEGACY, provisioned_s=0.0, boot_latency_s=7.5)
        assert replica.boot_phase(3.0) is None

    def test_reattest_excludes_provisioning(self):
        replica = Replica(0, PHASED, provisioned_s=0.0, boot_latency_s=0.0)
        sequence = replica.boot
        assert replica.reattest_s == sequence.remaining_from(ATTESTING)
        assert replica.reattest_s < sequence.total_s

    def test_crash_restart_pays_reattest_not_full_boot(self):
        replica = Replica(0, PHASED, provisioned_s=0.0, boot_latency_s=0.0)
        replica.activate_if_ready(replica.ready_s)
        replica.crash(100.0, restart_after_s=5.0)
        assert replica.restart_if_due(105.0)
        assert replica.state == BOOTING
        assert replica.ready_s == pytest.approx(105.0 + replica.reattest_s)
        # The restarted boot re-enters at ATTESTING, not PROVISIONING.
        assert replica.boot_phase(105.0 + 1e-3) == ATTESTING

    def test_legacy_crash_restart_is_instant(self):
        replica = Replica(0, LEGACY, provisioned_s=0.0, boot_latency_s=0.0)
        replica.crash(100.0, restart_after_s=5.0)
        assert replica.restart_if_due(105.0)
        assert replica.ready_s == 105.0

    def test_mid_boot_attestation_restarts_from_attesting(self):
        replica = Replica(0, PHASED, provisioned_s=0.0, boot_latency_s=0.0)
        struck = replica.boot.total_s * 0.5  # mid-boot
        replica.begin_attestation(struck + replica.reattest_s)
        assert replica.state == REPLICA_ATTESTING
        # Immediately after the failure the instance is attesting again
        # (provisioning is never repaid), and every later instant maps
        # into the restarted sequence.
        assert replica.boot_phase(struck + 1e-3) == ATTESTING
        phases = {replica.boot_phase(struck + f * replica.reattest_s)
                  for f in (0.1, 0.4, 0.7, 0.95)}
        assert phases <= set(BOOT_PHASES) - {PROVISIONING}
        replica.complete_attestation()
        assert replica.state == LIVE

    def test_billing_meters_every_phase(self):
        # The rental starts at provisioning: all five phases are paid
        # for, so the bill through readiness is exactly the boot total.
        replica = Replica(0, PHASED, provisioned_s=10.0, boot_latency_s=0.0)
        total = replica.boot.total_s
        assert replica.billed_hours(10.0 + total) == pytest.approx(
            total / 3600.0)
        mid = 10.0 + total * 0.4
        assert replica.billed_hours(mid) == pytest.approx(
            (mid - 10.0) / 3600.0)


class TestReplicaValidation:
    """Regression: NaN slipped through the old `< 0` guard."""

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"),
                                     -float("inf"), -1.0])
    def test_bad_boot_latency_rejected(self, bad):
        with pytest.raises(ValueError, match="boot_latency_s"):
            Replica(0, LEGACY, provisioned_s=0.0, boot_latency_s=bad)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_bad_provisioned_rejected(self, bad):
        with pytest.raises(ValueError, match="provisioned_s"):
            Replica(0, LEGACY, provisioned_s=bad, boot_latency_s=0.0)

    def test_nan_cannot_poison_ready_time(self):
        replica = Replica(0, LEGACY, provisioned_s=2.0, boot_latency_s=3.0)
        assert math.isfinite(replica.ready_s)


class TestFleetLifecycle:
    def test_phased_fleet_serves_after_boot(self):
        report = fixed_fleet(PHASED, 2).run(STREAM)
        total = PHASED.boot_sequence().total_s
        assert len(report.outcomes) == len(STREAM)
        # Nothing finishes before the fleet is live.
        assert min(o.first_token_s for o in report.outcomes) >= total

    def test_constant_profile_matches_legacy_fleet(self):
        armed = replica_spec("tdx", max_batch=8, kv_capacity_tokens=16384,
                             boot=constant_profile("tdx", 0.0))
        a = fixed_fleet(LEGACY, 2).run(STREAM)
        b = fixed_fleet(armed, 2).run(STREAM)
        assert a.to_dict() == b.to_dict()

    @pytest.mark.parametrize("driver", ["stepped", "event"])
    def test_reattestation_outage_is_boot_derived(self, driver):
        faults = FaultSchedule((
            FaultEvent(time_s=27.0, kind="attestation_failure",
                       replica_id=0, duration_s=6.0),
        ))
        retry = RetryPolicy(timeout_s=60.0, max_attempts=4, seed=3)
        fleet = fixed_fleet(PHASED, 2, faults=faults, retry_policy=retry)
        report = _serve(fleet, driver)
        # The phased outage pays the re-attestation remainder, not the
        # drawn duration: the fault log records the revocation.
        assert any(a.event.kind == "attestation_failure"
                   for a in report.fault_events)
        assert len(report.outcomes) + len(report.shed) == len(STREAM)

    def test_engine_parity_with_phased_boots_and_faults(self):
        faults = FaultSchedule((
            FaultEvent(time_s=27.0, kind="attestation_failure",
                       replica_id=0, duration_s=6.0),
            FaultEvent(time_s=12.0, kind="crash", replica_id=1,
                       restart_after_s=4.0),
        ))
        retry = RetryPolicy(timeout_s=60.0, max_attempts=4, seed=3)
        reports = [
            _serve(fixed_fleet(PHASED, 2, faults=faults, retry_policy=retry),
                   driver)
            for driver in ("stepped", "event")
        ]
        assert reports[0].to_dict() == reports[1].to_dict()

    def test_autoscaled_scale_ups_pay_phase_sum(self):
        config = AutoscalerConfig(min_replicas=1, max_replicas=3,
                                  scale_up_load=2.0, scale_down_load=0.5,
                                  cooldown_s=4.0, boot_latency_s=1.0)
        burst = poisson_table(36, rate_per_s=6.0, mean_prompt=128,
                              mean_output=48, seed=3)
        sim = FleetSimulator([PHASED],
                             autoscaler=ReactiveAutoscaler(config))
        report = sim.run(burst)
        assert report.scale_events
        total = PHASED.boot_sequence().total_s
        scaled = [u for u in report.replicas if u.replica_id > 0]
        assert scaled
        # Every scale-up replica pays the derived phase sum, not the
        # autoscaler's 1s constant.
        for usage in scaled:
            assert usage.billed_hours >= total / 3600.0 * 0.99
