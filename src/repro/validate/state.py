"""State audit checks: checkpoint/restore parity (family ``state``).

A checkpoint is only trustworthy if restoring it is indistinguishable
from never having stopped.  These checks pin that end to end:

* ``state.resume_parity`` — freeze a fleet mid-run, push the snapshot
  through strict JSON, revive it in a *fresh* simulator, and finish
  both: report, raw outcome floats, fault timeline, shed ledger and
  scale events must be **bit-identical** — fault-free, faulted and
  autoscaled configurations alike.  Taking the snapshot must not
  perturb the running simulator either.
* ``state.snapshot_roundtrip`` — ``restore(snapshot(sim))`` then
  re-snapshot yields the identical payload (idempotence), and the
  steppable run loop composes to exactly ``run()``.
* ``state.schema_negotiation`` — newer/unreachable ``state_version``
  payloads are refused with the right error; the same-version v2→v2
  hook runs on every restore; non-finite values are rejected with a
  JSON path.
* ``state.wal_resume`` — an interrupted journaled sweep, reopened and
  finished, merges into a journal byte-identical to an uninterrupted
  run's; journaled and resumed rows equal an unjournaled run of the
  same spec, column order included; a torn final line is tolerated,
  mid-file corruption is not.
* ``state.quarantine_isolation`` — a pathological grid point is
  retried with the seeded deterministic backoff, quarantined after
  ``max_attempts``, and *degrades* the sweep instead of killing it;
  resume skips both completed and quarantined points.
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

from ..faults import FaultSchedule, RetryPolicy, mtbf_schedule
from ..fleet import (
    AutoscalerConfig,
    FleetSimulator,
    ReactiveAutoscaler,
    fixed_fleet,
    poisson_table,
    replica_spec,
)
from ..state import (
    StateValueError,
    StateVersionError,
    negotiate,
    validate_payload,
)
from ..state.checkpoint import restore, snapshot
from ..state.points import point_runner
from .context import AuditContext
from .registry import CheckFailure, check


def _spec(kind: str = "tdx"):
    return replica_spec(kind, max_batch=16, kv_capacity_tokens=65536)


def _stream(n: int = 10, seed: int = 11):
    return poisson_table(n, rate_per_s=4.0, mean_prompt=128,
                         mean_output=32, seed=seed)


def _fleets() -> list[tuple[str, "callable"]]:
    """Fresh-simulator factories for the parity configurations.

    Factories (not instances) because restore-into-fresh needs a second
    simulator built from identical constructor arguments.
    """

    def fault_free():
        return fixed_fleet(_spec(), 2)

    def faulted():
        return fixed_fleet(
            _spec(), 2,
            faults=mtbf_schedule([0, 1], mtbf_s=6.0, horizon_s=20.0, seed=3),
            retry_policy=RetryPolicy(timeout_s=30.0, max_attempts=3, seed=3))

    def autoscaled():
        scaler = ReactiveAutoscaler(AutoscalerConfig(
            max_replicas=4, scale_up_load=3.0, scale_down_load=0.5,
            cooldown_s=2.0, boot_latency_s=5.0))
        return FleetSimulator([_spec()], autoscaler=scaler,
                              faults=FaultSchedule.empty(),
                              retry_policy=RetryPolicy(seed=3))

    return [("fixed/fault-free", fault_free), ("fixed/faulted", faulted),
            ("autoscaled/faulted-armed", autoscaled)]


def _finish(sim) -> object:
    while sim.run_active:
        sim.run_tick()
    return sim.finish_run()


def _compare(label: str, resumed, baseline) -> None:
    if resumed.to_dict() != baseline.to_dict():
        base, res = baseline.to_dict(), resumed.to_dict()
        diverged = [key for key in base if base[key] != res.get(key)]
        raise CheckFailure(
            f"{label}: resumed report diverged from the uninterrupted "
            f"baseline in {diverged[:4]}")
    for a, b in zip(baseline.outcomes, resumed.outcomes):
        if (a.first_token_s, a.finish_s, a.preemptions) != (
                b.first_token_s, b.finish_s, b.preemptions):
            raise CheckFailure(
                f"{label}: request {a.request.request_id} timeline "
                f"diverged after restore (raw float comparison)")
    for series in ("fault_events", "shed", "scale_events"):
        base = [e.to_dict() for e in getattr(baseline, series)]
        res = [e.to_dict() for e in getattr(resumed, series)]
        if base != res:
            raise CheckFailure(f"{label}: {series} ledger diverged "
                               f"after restore")


@check("state.resume_parity", family="state",
       layers=("state", "fleet", "faults", "serving"))
def state_resume_parity(ctx: AuditContext) -> str:
    """Mid-run snapshot -> JSON -> restore into a fresh simulator ->
    completion is bit-identical to never having stopped."""
    stream = _stream()
    checked = 0
    for label, factory in _fleets():
        baseline = factory().run(stream)
        running = factory()
        running.begin_run(stream)
        for _ in range(6):
            if not running.run_active:
                break
            running.run_tick()
        payload = json.loads(json.dumps(snapshot(running)))
        fresh = factory()
        restore(fresh, payload)
        _compare(label, _finish(fresh), baseline)
        # The snapshot must be an observation, not an intervention:
        # the simulator it was taken from finishes identically too.
        _compare(f"{label} (donor)", _finish(running), baseline)
        checked += 1
    return f"{checked} configs resume bit-identically from mid-run JSON"


@check("state.snapshot_roundtrip", family="state",
       layers=("state", "fleet"))
def state_snapshot_roundtrip(ctx: AuditContext) -> str:
    """restore(snapshot(sim)) re-snapshots to the identical payload,
    and the steppable loop composes to exactly run()."""
    stream = _stream(10, seed=5)

    def factory():
        return fixed_fleet(
            _spec("cgpu"), 2,
            faults=mtbf_schedule([0], mtbf_s=8.0, horizon_s=20.0, seed=5),
            retry_policy=RetryPolicy(seed=5))

    running = factory()
    running.begin_run(stream)
    for _ in range(4):
        running.run_tick()
    payload = snapshot(running)
    validate_payload(payload)
    fresh = factory()
    restore(fresh, json.loads(json.dumps(payload)))
    again = snapshot(fresh)
    if json.dumps(payload, sort_keys=True) != json.dumps(again,
                                                         sort_keys=True):
        first = payload["state"]
        second = again["state"]
        diverged = [key for key in first if first[key] != second.get(key)]
        raise CheckFailure(
            f"snapshot(restore(snapshot(sim))) not idempotent; state "
            f"keys diverged: {diverged[:4]}")
    stepped = _finish(fresh)
    monolithic = factory().run(stream)
    if stepped.to_dict() != monolithic.to_dict():
        raise CheckFailure(
            "steppable begin_run/run_tick/finish_run loop diverged "
            "from the monolithic run()")
    return "snapshot idempotent; steppable loop equals run()"


@check("state.schema_negotiation", family="state", layers=("state",))
def state_schema_negotiation(ctx: AuditContext) -> str:
    """Version negotiation refuses what it cannot restore and always
    exercises the same-version migration hook."""
    from ..state.schema import CURRENT_STATE_VERSION

    sim = fixed_fleet(_spec(), 1)
    payload = snapshot(sim)
    if payload["state_version"] != CURRENT_STATE_VERSION:
        raise CheckFailure("snapshot does not stamp the current version")

    newer = dict(payload, state_version=CURRENT_STATE_VERSION + 1)
    try:
        negotiate(newer)
        raise CheckFailure("a newer state_version was accepted")
    except StateVersionError:
        pass
    ancient = dict(payload, state_version=0)
    try:
        negotiate(ancient)
        raise CheckFailure("an unmigratable older version was accepted")
    except StateVersionError:
        pass
    if negotiate(dict(payload)) != payload:
        raise CheckFailure("the same-version migration altered the payload")

    poisoned = dict(payload, state=dict(payload["state"],
                                        tick_s=float("inf")))
    try:
        validate_payload(poisoned)
        raise CheckFailure("a non-finite snapshot value passed validation")
    except StateValueError as error:
        if "tick_s" not in str(error):
            raise CheckFailure(
                "non-finite rejection does not name the offending path")
    return "newer/stale versions refused; same-version hook is a no-op"


@check("state.wal_resume", family="state",
       layers=("state", "faults", "fleet"))
def state_wal_resume(ctx: AuditContext) -> str:
    """An interrupted journaled sweep resumes into a journal
    byte-identical to an uninterrupted run's, and its rows match an
    unjournaled run of the same spec."""
    from ..state.points import chaos_grid
    from ..state.runner import SweepRunner, read_journal

    grid = chaos_grid(kinds=("tdx",), mtbf_grid_s=(None, 6.0),
                      num_requests=8)

    def columns(rows: dict[int, dict]) -> list[list]:
        """Rows as ordered (column, value) pairs: order counts too."""
        return [list(row.items()) for row in rows.values()]

    expect = columns(SweepRunner(None, grid).run())
    with tempfile.TemporaryDirectory() as tmp:
        straight = SweepRunner.create(Path(tmp) / "straight", grid)
        if columns(straight.run()) != expect:
            raise CheckFailure("journaled sweep rows diverge from an "
                               "unjournaled run")
        interrupted = SweepRunner.create(Path(tmp) / "resumed", grid)
        interrupted.run(max_points=1)
        resumed = SweepRunner.open(Path(tmp) / "resumed")
        if columns(resumed.run()) != expect:
            raise CheckFailure("resumed sweep rows (or their column "
                               "order) diverge from an unjournaled run")
        straight_bytes = straight.results_path.read_bytes()
        resumed_bytes = resumed.results_path.read_bytes()
        if straight_bytes != resumed_bytes:
            raise CheckFailure(
                "resumed journal is not byte-identical to the "
                f"uninterrupted one ({len(resumed_bytes)} vs "
                f"{len(straight_bytes)} bytes)")
        # A SIGKILL mid-append tears at most the final line; that must
        # be recoverable, and recovery must not drop completed rows.
        with open(resumed.results_path, "a", encoding="utf-8") as handle:
            handle.write('{"index": 99, "key": "to')
        records = read_journal(resumed.results_path)
        if len(records) != len(expect):
            raise CheckFailure("torn-tail recovery lost completed rows")
    return f"{len(expect)}-point journal resumes byte-identically"


#: Invocation log of the deliberately pathological point runner below.
_POISON_CALLS: list[int] = []


@point_runner("audit_poison")
def _audit_poison_point(params: dict, context) -> dict:
    """A grid point that always crashes — chaos for the sweep runner."""
    _POISON_CALLS.append(1)
    raise RuntimeError("deliberately pathological grid point")


@check("state.quarantine_isolation", family="state",
       layers=("state", "faults"))
def state_quarantine_isolation(ctx: AuditContext) -> str:
    """A pathological point is retried with the seeded deterministic
    backoff, quarantined, and degrades the sweep instead of killing
    it; resume skips completed and quarantined points alike."""
    from ..state.runner import GridPoint, SweepRunner, SweepSpec

    healthy = {"kind": "tdx", "mtbf_s": None, "num_requests": 6,
               "rate_rps": 2.0, "mean_prompt": 64, "mean_output": 16,
               "replicas": 1, "seed": 7, "slo_ttft_s": 2.0,
               "timeout_s": 20.0, "horizon_s": 40.0}
    spec = SweepSpec(points=(
        GridPoint(0, "ok_before", "chaos_mtbf", dict(healthy)),
        GridPoint(1, "poison", "audit_poison", {}),
        GridPoint(2, "ok_after", "chaos_mtbf", dict(healthy, seed=8)),
    ), max_attempts=2, retry_seed=5)

    del _POISON_CALLS[:]
    sleeps: list[float] = []
    with tempfile.TemporaryDirectory() as tmp:
        runner = SweepRunner.create(Path(tmp) / "run", spec)
        rows = runner.run(sleep=sleeps.append)
        if sorted(rows) != [0, 2]:
            raise CheckFailure(
                f"healthy points did not complete around the poison one "
                f"(rows: {sorted(rows)})")
        bad = runner.quarantined()
        if list(bad) != [1] or bad[1]["attempts"] != 2 \
                or "RuntimeError" not in bad[1]["error"]:
            raise CheckFailure(f"poison point not quarantined: {bad}")
        if len(_POISON_CALLS) != 2:
            raise CheckFailure(
                f"expected exactly max_attempts=2 poison attempts, saw "
                f"{len(_POISON_CALLS)}")
        expected = RetryPolicy(timeout_s=1.0, max_attempts=2,
                               seed=5).backoff_s(1, 1)
        if sleeps != [expected]:
            raise CheckFailure(
                f"retry backoff not the seeded RetryPolicy delay "
                f"(slept {sleeps}, expected [{expected!r}])",
                deltas={"backoff_s": sleeps[0] if sleeps else -1.0})
        # Resume must skip the quarantined point, not retry it forever.
        del _POISON_CALLS[:]
        reopened = SweepRunner.open(Path(tmp) / "run")
        if reopened.pending():
            raise CheckFailure("resume re-queued completed or "
                               "quarantined points")
        reopened.run(sleep=sleeps.append)
        if _POISON_CALLS:
            raise CheckFailure("resume re-ran a quarantined point")
    return "poison point quarantined after 2 seeded-backoff attempts"
