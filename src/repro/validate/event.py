"""Fleet-core audit checks: quiet-tick jumping vs ticking every tick.

The fleet core (:class:`~repro.fleet.cluster.FleetSimulator`) runs on
columnar request state and jumps quiet stretches of the tick grid in
:meth:`~repro.fleet.cluster.FleetSimulator.run`.  Its acceptance
criterion is *parity*, not approximation, against two independent
references:

* the every-tick ``begin_run``/``run_tick``/``finish_run`` loop, which
  executes every tick of the grid and so never takes the jump, fed the
  stream as a plain ``ServeRequest`` list, while ``run()`` is fed the
  :class:`~repro.fleet.table.RequestTable` itself; and
* the frozen object-per-request oracle (:mod:`repro.validate.oracle`),
  which the production scheduler must match operation for operation —
  pinned by ``serving.columnar_reference_parity``.

The checks here cover the first reference:

* ``fleet.event_core_parity`` (differential) — across fault-free,
  faulted, autoscaled and spill-router configurations, ``run(table)``
  equals the every-tick loop on ``list(table)`` and equals
  ``run(list)``: report dicts and raw per-request outcome floats,
  float equality, no tolerance.  The check also requires that some
  configuration actually jumped ticks, so the comparison is not
  trivially equal.
* ``fleet.event_core_resume_parity`` (state) — freeze a run mid-flight,
  push the snapshot through strict JSON, revive it in a fresh simulator
  and finish: bit-identical to never having stopped and to the
  every-tick reference.  Snapshots of the retired per-object run format
  (``"engine": "stepped"``, or no engine tag at all) must be refused.
"""

from __future__ import annotations

import json

from ..faults import DegradationPolicy, RetryPolicy, mtbf_schedule
from ..fleet import (
    AutoscalerConfig,
    FleetSimulator,
    ReactiveAutoscaler,
    RequestTable,
    fixed_fleet,
    poisson_table,
    replica_spec,
)
from ..fleet.report import FleetReport
from ..fleet.router import CostSloRouter
from ..state.errors import StateIntegrityError
from .context import AuditContext
from .registry import CheckFailure, check


def ticked_run(fleet: FleetSimulator, requests) -> tuple[FleetReport, int]:
    """The every-tick reference loop; returns (report, ticks executed)."""
    fleet.begin_run(requests)
    ticks = 0
    while fleet.run_active:
        fleet.run_tick()
        ticks += 1
    return fleet.finish_run(), ticks


def jumped_run(fleet: FleetSimulator, requests) -> tuple[FleetReport, int]:
    """``fleet.run`` (quiet ticks jumped); returns (report, ticks executed).

    Counts executed ticks by shadowing ``run_tick`` on this one
    instance, so the production loop runs unmodified.
    """
    ticks = 0
    run_tick = fleet.run_tick

    def counted() -> None:
        nonlocal ticks
        ticks += 1
        run_tick()

    fleet.run_tick = counted
    try:
        return fleet.run(requests), ticks
    finally:
        del fleet.run_tick


def compare_reports(label: str, reference: FleetReport,
                    candidate: FleetReport) -> int:
    """Exact report + per-request timeline equality; returns #requests."""
    a, b = reference.to_dict(), candidate.to_dict()
    if a != b:
        diverged = [key for key in a if a[key] != b.get(key)]
        raise CheckFailure(f"{label}: reports diverged in {diverged[:4]}")
    if len(reference.outcomes) != len(candidate.outcomes):
        raise CheckFailure(f"{label}: outcome counts diverge")
    for x, y in zip(reference.outcomes, candidate.outcomes):
        # Bit-identical means raw float equality, not tolerance.
        if (x.request, x.first_token_s, x.finish_s, x.preemptions) \
                != (y.request, y.first_token_s, y.finish_s, y.preemptions):
            raise CheckFailure(
                f"{label}: request {x.request.request_id} timeline "
                f"diverged")
    return len(reference.outcomes)


def ticked_vs_jumped(label: str, factory, table: RequestTable,
                     ) -> tuple[FleetReport, int]:
    """Run one fleet config three ways and require identical reports.

    The every-tick loop on the stream as a ``ServeRequest`` list is the
    reference; ``run(table)`` and ``run(list)`` must both reproduce it.
    Returns the reference report and how many ticks ``run(table)``
    jumped.
    """
    requests = list(table)
    reference, spanned = ticked_run(factory(), requests)
    jumped, executed = jumped_run(factory(), table)
    compare_reports(f"{label} (run(table) vs every tick)", reference, jumped)
    compare_reports(f"{label} (run(list) vs every tick)", reference,
                    factory().run(requests))
    return reference, spanned - executed


def _tdx_spec():
    return replica_spec("tdx", max_batch=16, kv_capacity_tokens=65536)


def _fleet_stream() -> RequestTable:
    return poisson_table(40, rate_per_s=4.0, mean_prompt=128,
                         mean_output=32, seed=11)


def _configs() -> list[tuple[str, "callable"]]:
    """Factories covering every structurally distinct fleet regime."""
    spec = _tdx_spec()

    def fault_free():
        return fixed_fleet(spec, 2)

    def faulted():
        return fixed_fleet(
            spec, 2,
            faults=mtbf_schedule([0, 1], mtbf_s=6.0, horizon_s=30.0, seed=3),
            retry_policy=RetryPolicy(timeout_s=30.0, max_attempts=4, seed=3))

    def autoscaled():
        scaler = ReactiveAutoscaler(AutoscalerConfig(
            max_replicas=4, scale_up_load=3.0, scale_down_load=0.5,
            cooldown_s=2.0, boot_latency_s=5.0))
        return FleetSimulator([spec], autoscaler=scaler, scale_spec=spec)

    def spill_router():
        return FleetSimulator(
            [spec, spec], router=CostSloRouter(slo_ttft_s=2.0),
            faults=mtbf_schedule([0, 1], mtbf_s=6.0, horizon_s=30.0, seed=3),
            retry_policy=RetryPolicy(timeout_s=30.0, max_attempts=4, seed=3),
            degradation=DegradationPolicy(mode="spill", max_hold_s=4.0,
                                          spill_boot_s=1.0, max_spill=2),
            scale_spec=spec)

    return [("fixed/fault-free", fault_free), ("fixed/faulted", faulted),
            ("autoscaled", autoscaled), ("spill-router/faulted",
                                         spill_router)]


@check("fleet.event_core_parity", family="differential",
       layers=("fleet", "serving"))
def event_core_parity(ctx: AuditContext) -> str:
    """run() with quiet-tick jumps reproduces the every-tick loop
    bit-identically across all fleet regimes, from tables and lists."""
    table = _fleet_stream()
    checked = jumps = 0
    for label, factory in _configs():
        reference, jumped = ticked_vs_jumped(label, factory, table)
        checked += len(reference.outcomes)
        jumps += jumped
    if not jumps:
        raise CheckFailure("no regime jumped a tick; check is vacuous")
    return (f"{checked} request timelines bit-identical across 4 regimes "
            f"({jumps} ticks jumped)")


@check("fleet.event_core_resume_parity", family="state",
       layers=("fleet", "state", "serving"))
def event_core_resume_parity(ctx: AuditContext) -> str:
    """Snapshot/restore round-trips the columnar run state exactly."""
    table = _fleet_stream()
    resumed_reports = 0
    for label, factory in _configs():
        baseline = factory().run(table)
        running = factory()
        running.begin_run(table)
        for _ in range(23):
            if not running.run_active:
                break
            running.run_tick()
        payload = json.loads(json.dumps(running.to_state()))
        fresh = factory()
        fresh.from_state(payload)
        while fresh.run_active:
            fresh.run_tick()
        compare_reports(f"{label} (resumed)", baseline, fresh.finish_run())
        # Taking the snapshot must not perturb the running simulator.
        while running.run_active:
            running.run_tick()
        compare_reports(f"{label} (observed)", baseline,
                        running.finish_run())
        # And the jumped baseline still matches the every-tick loop.
        compare_reports(f"{label} (vs every tick)",
                        ticked_run(factory(), list(table))[0], baseline)
        resumed_reports += 1
    # Payloads of the retired per-object run format must be refused.
    factory = _configs()[0][1]
    snapshot = factory()
    snapshot.begin_run(table)
    snapshot.run_tick()
    for engine in ("stepped", None):
        tampered = json.loads(json.dumps(snapshot.to_state()))
        if engine is None:
            del tampered["engine"]
        else:
            tampered["engine"] = engine
        try:
            factory().from_state(tampered)
        except StateIntegrityError:
            continue
        raise CheckFailure(
            f"simulator accepted a snapshot with engine tag {engine!r}")
    return f"{resumed_reports} regimes resume bit-identically"
