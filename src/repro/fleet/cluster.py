"""Shared-clock fleet simulator: N replicas, one request stream.

The event loop advances a global clock in fixed ticks.  At every tick
it (1) lets the autoscaler provision or drain instances, (2) activates
replicas whose boot latency elapsed, (3) routes arrivals due by the
tick to live replicas, and (4) steps every replica's scheduler to the
tick horizon.  Replica-local clocks may overshoot a tick (prefill and
decode steps are not preemptible) but are resynchronized by the
horizon of the next ``step`` call — the same quantized-time contract
real cluster managers have with their nodes.

The core is columnar: request streams live in numpy columns
(:class:`~repro.fleet.table.RequestTable`), replicas run the
:class:`~repro.serving.columnar.ColumnarScheduler`, and finishes land
in an append-only :class:`~repro.fleet.table.OutcomeLog`.
:meth:`FleetSimulator.run` jumps quiet stretches of the tick grid in
one composed scheduler step instead of ticking through them.  The jump
is taken only when no tick in the stretch could act (no arrival, retry,
fault, boot/attest/restart/hang edge, or flight timeout is due, no
autoscaler, no draining or slowed replica, nothing held) and always
lands *before* the next such edge, so the ticks that do act execute at
exactly the clock values of the every-tick
``begin_run``/``run_tick``/``finish_run`` loop — reports are
bit-identical to it, pinned by the ``fleet.event_core_parity`` audit
checks.

Fault injection (:mod:`repro.faults`) lives in the same tick path:
each tick applies due faults, reboots repaired instances, re-attests
TEE replicas before readmission, retries timed-out or evacuated
requests with seeded backoff, and sheds or spills work the degraded
fleet cannot hold.  Every fleet runs that path; without a schedule,
retry policy or degradation policy it simply finds nothing to do, so
an empty schedule or a bare retry policy changes no result — the
``chaos.zero_fault_twin`` audit check pins this bit-for-bit.

Determinism: replicas are stepped and inspected in id order, arrivals
are routed in (arrival, id) order, retries in (due, id) order, faults
in schedule order, and all randomness lives in the seeded arrival
generators and retry-jitter draws — so one config + one stream produce
one bit-identical :class:`~repro.fleet.report.FleetReport`.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

from ..faults.attest import FleetAttestation, needs_attestation
from ..faults.injector import FaultInjector
from ..faults.resilience import DegradationPolicy, RetryPolicy, ShedRequest
from ..faults.schedule import DEFAULT_DURATION_S, FaultEvent, FaultSchedule
from ..scaleout.links import link_slowdown_factor
from ..serving.scheduler import ServeRequest
from .autoscaler import ReactiveAutoscaler
from .replica import (
    ATTESTING,
    BOOTING,
    DRAINING,
    FAILED,
    LIVE,
    RETIRED,
    Replica,
    ReplicaSpec,
)
from .report import FleetReport, ReplicaUsage
from .retryq import RetryQueue
from .router import LeastOutstandingRouter, Router
from .table import OutcomeLog, RequestTable

#: Default tick width.  Small enough that routing sees fresh replica
#: state every few decode steps; large enough that a fleet run is a few
#: thousand ticks, not millions.
DEFAULT_TICK_S = 0.25


class _RunState:
    """Per-run loop state: pending arrivals, held work, outcomes, and
    the resilience ledgers that make the final report failure-aware.

    Hoisting the ``run`` loop's locals into an object is what makes a
    run *snapshotable*: everything the next tick depends on lives here
    or on the replicas/router/autoscaler, never in a stack frame.

    The per-request ledgers hold only requests something reads them
    for: ``flights`` (routing times) only under a retry policy, whose
    timeout check reads them, and ``attempts`` only for requests that
    have failed at least once (a missing id has been routed at most
    once).  Both drop an id when its request finishes.
    """

    def __init__(self, table: RequestTable, tick_s: float, peak: int,
                 injector: FaultInjector) -> None:
        order = table.arrival_order()
        arrivals = table.arrival_s[order]
        self.table = table
        # Arrival-ordered drain cursor: flat lists plus a head pointer
        # instead of pop(0) surgery.
        self.pending_arrivals: list[float] = arrivals.tolist()
        self.pending_rows: list[int] = order.tolist()
        self.pending_head = 0
        self.held: list[ServeRequest] = []  # arrived but unroutable
        self.finished = OutcomeLog()
        self.start = float(arrivals[0])
        self.now = (self.start // tick_s) * tick_s
        self.peak = peak
        self.injector = injector
        self.flights: dict[int, tuple[Replica, float]] = {}
        self.attempts: dict[int, int] = {}
        self.retry_queue = RetryQueue()
        self.held_since: dict[int, float] = {}
        self.shed: list[ShedRequest] = []
        self.wasted_tokens = 0
        self.retries = 0
        self.spilled = 0


class FleetSimulator:
    """Discrete-event simulation of a replicated serving fleet.

    Args:
        specs: Initial fleet composition — one replica per entry,
            provisioned ready at time zero (heterogeneous fleets are
            expressed by mixing specs).
        router: Routing policy (default: least-outstanding).
        autoscaler: Optional reactive autoscaler; scale-ups clone
            ``scale_spec`` (default: the first spec).
        scale_spec: Spec the autoscaler provisions.
        tick_s: Shared-clock quantum.
        faults: Fault timeline to inject — a
            :class:`~repro.faults.schedule.FaultSchedule` (replayed
            through a fresh injector every ``run``) or a single-shot
            :class:`~repro.faults.injector.FaultInjector`.
        retry_policy: Per-request timeout + seeded backoff; without it
            crash-evacuated requests still requeue (immediately, with
            unbounded attempts) so nothing is lost.
        degradation: What to do with work the fleet cannot route within
            ``max_hold_s`` — shed by priority, or spill onto emergency
            replicas of another backend.

    Every fleet runs the same tick path whichever of the three it was
    given: with none of them it applies no faults, retries nothing and
    sheds nothing, and an empty schedule or a bare retry policy leaves
    every result unchanged.
    """

    def __init__(self, specs: list[ReplicaSpec], router: Router | None = None,
                 autoscaler: ReactiveAutoscaler | None = None,
                 scale_spec: ReplicaSpec | None = None,
                 tick_s: float = DEFAULT_TICK_S,
                 faults: FaultSchedule | FaultInjector | None = None,
                 retry_policy: RetryPolicy | None = None,
                 degradation: DegradationPolicy | None = None) -> None:
        if not specs:
            raise ValueError("at least one initial replica spec required")
        # NaN passes a plain `<= 0` comparison and an infinite tick
        # never advances the grid, so finiteness is explicit.
        if not math.isfinite(tick_s) or tick_s <= 0:
            raise ValueError("tick_s must be finite and positive")
        self.router = router or LeastOutstandingRouter()
        self.autoscaler = autoscaler
        self.scale_spec = scale_spec or specs[0]
        self.tick_s = tick_s
        self.faults = faults
        self.retry_policy = retry_policy
        self.degradation = degradation
        self.attestation = FleetAttestation()
        #: In-progress incremental run (``begin_run``/``run_tick``).
        self._run: _RunState | None = None
        self._initial_specs = list(specs)
        self.replicas: list[Replica] = []
        for spec in specs:
            self._provision(spec, provisioned_s=0.0, boot_latency_s=0.0)

    @property
    def _chaos_armed(self) -> bool:
        """Whether any resilience argument was supplied — a snapshot
        fingerprint, so restore refuses a differently built fleet."""
        return (self.faults is not None or self.retry_policy is not None
                or self.degradation is not None)

    def _provision(self, spec: ReplicaSpec, provisioned_s: float,
                   boot_latency_s: float, origin: str = "initial") -> Replica:
        replica = Replica(replica_id=len(self.replicas), spec=spec,
                          provisioned_s=provisioned_s,
                          boot_latency_s=boot_latency_s, origin=origin)
        self.replicas.append(replica)
        if needs_attestation(spec.kind):
            self.attestation.enroll(replica.replica_id)
        return replica

    # -- views ----------------------------------------------------------------

    @property
    def live(self) -> list[Replica]:
        return [r for r in self.replicas if r.state == LIVE]

    @property
    def active(self) -> list[Replica]:
        return [r for r in self.replicas if r.active]

    def _outstanding(self) -> int:
        return sum(r.outstanding for r in self.replicas)

    # -- autoscaling ----------------------------------------------------------

    def _autoscale(self, now: float, run: _RunState) -> None:
        if self.autoscaler is None:
            return
        # Held and retry-queued work is load the fleet has not placed
        # yet; on a fleet still booting it is the only load there is.
        queued = len(run.held) + len(run.retry_queue)
        delta = self.autoscaler.decide(
            now, outstanding=self._outstanding() + queued,
            live_replicas=len(self.live),
            active_replicas=len(self.active))
        if delta > 0:
            self._provision(self.scale_spec, provisioned_s=now,
                            boot_latency_s=self.autoscaler.config.boot_latency_s,
                            origin="scale")
        elif delta < 0 and self.live:
            # Drain the least-loaded live replica (highest id on ties:
            # prefer retiring the newest instance).
            victim = min(self.live,
                         key=lambda r: (r.outstanding, -r.replica_id))
            victim.drain()

    # -- fault application -----------------------------------------------------

    def _requeue_or_shed(self, run: _RunState, request: ServeRequest,
                         now: float, generated: int) -> None:
        """Route a failed attempt back through retry policy or shed it."""
        run.flights.pop(request.request_id, None)
        run.wasted_tokens += generated
        # A failed request was routed at least once; the ledger keeps
        # its count from here on.
        made = run.attempts.setdefault(request.request_id, 1)
        retry = self.retry_policy
        if retry is None:
            # No policy: crash evacuations still requeue immediately so
            # no request is ever silently lost.
            run.retry_queue.push(now, request)
            return
        if made >= retry.max_attempts:
            run.shed.append(ShedRequest(request=request, time_s=now,
                                        reason="retries-exhausted",
                                        attempts=made))
            return
        delay = retry.backoff_s(request.request_id, made)
        run.retry_queue.push(now + delay, request)

    def _shed_request(self, run: _RunState, request: ServeRequest,
                      now: float, reason: str) -> None:
        run.held_since.pop(request.request_id, None)
        run.shed.append(ShedRequest(
            request=request, time_s=now, reason=reason,
            attempts=run.attempts.get(request.request_id, 0)))

    def _apply_fault(self, event: FaultEvent, now: float,
                     run: _RunState) -> str:
        """Land one due fault on its target; returns the effect log."""
        if event.replica_id >= len(self.replicas):
            return "no-op: no such replica"
        replica = self.replicas[event.replica_id]
        if event.kind == "crash":
            if replica.state in (FAILED, RETIRED):
                return f"no-op: replica already {replica.state}"
            evacuated = replica.crash(now, event.restart_after_s)
            for request, generated in evacuated:
                self._requeue_or_shed(run, request, now, generated)
            return f"crash: evacuated {len(evacuated)} requests"
        if event.kind == "hang":
            if replica.state not in (LIVE, DRAINING):
                return f"no-op: replica {replica.state}"
            replica.hang(now + event.duration_s)
            return f"hang until {now + event.duration_s:g}s"
        if event.kind in ("slowdown", "link_degrade"):
            if replica.state not in (LIVE, DRAINING):
                return f"no-op: replica {replica.state}"
            if event.kind == "slowdown":
                factor = event.factor
            else:
                factor = link_slowdown_factor(event.factor, event.comm_share)
            replica.slow(now + event.duration_s, factor)
            return f"{event.kind}: x{factor:.3f} until {now + event.duration_s:g}s"
        if event.kind == "boot_failure":
            penalty = event.duration_s or DEFAULT_DURATION_S
            return f"boot_failure: {replica.boot_failure(penalty)}"
        # attestation_failure
        if not needs_attestation(replica.spec.kind):
            return f"no-op: {replica.spec.kind} replica does not attest"
        if replica.state in (FAILED, RETIRED):
            return f"no-op: replica already {replica.state}"
        self.attestation.revoke(replica.replica_id)
        # Phased-boot replicas restart the boot sequence from the
        # ATTESTING phase (quote, key release, decrypt, load — the
        # already-provisioned instance is kept); legacy replicas pay
        # the event's flat outage window.  Mid-boot and live failures
        # alike: the enclave's contents are no longer trusted.
        reattest_s = replica.reattest_s
        outage_s = event.duration_s if reattest_s is None else reattest_s
        evacuated = replica.begin_attestation(now + outage_s)
        for request, generated in evacuated:
            self._requeue_or_shed(run, request, now, generated)
        return (f"attestation revoked: evacuated {len(evacuated)} requests, "
                f"re-attest at {now + outage_s:g}s")

    def _chaos_tick(self, now: float, run: _RunState) -> None:
        """Pre-routing chaos phase: expiries, reboots, due faults."""
        for replica in self.replicas:
            replica.expire_faults(now)
            replica.restart_if_due(now)
        injector = run.injector
        for event in injector.due(now):
            injector.record(event, now, self._apply_fault(event, now, run))

    def _chaos_activate(self, replica: Replica, now: float) -> None:
        """Attestation gate: TEE replicas re-attest before readmission."""
        if replica.state == ATTESTING and now >= replica.ready_s:
            if self.attestation.readmit(replica.replica_id):
                replica.complete_attestation()
        elif (replica.state == BOOTING and now >= replica.ready_s
                and needs_attestation(replica.spec.kind)):
            # Reboot completing: run the full quote/verify flow (it is
            # deterministic and instant in simulated time) before
            # activate_if_ready flips the replica live.
            self.attestation.readmit(replica.replica_id)

    def _check_timeouts(self, now: float, run: _RunState) -> None:
        """Cancel and retry in-flight requests older than the timeout."""
        retry = self.retry_policy
        if retry is None:
            return
        for request_id in sorted(run.flights):
            replica, routed_s = run.flights[request_id]
            if now - routed_s <= retry.timeout_s:
                continue
            cancelled = replica.cancel(request_id)
            if cancelled is None:
                continue  # completed within this very tick
            request, generated = cancelled
            self._requeue_or_shed(run, request, now, generated)

    def _degrade(self, now: float, run: _RunState) -> None:
        """Apply the degradation policy to overdue unroutable work."""
        policy = self.degradation
        if policy is None:
            return
        overdue = [r for r in run.held
                   if now - run.held_since.get(r.request_id, now)
                   > policy.max_hold_s]
        if not overdue:
            return
        if policy.mode == "spill":
            # Provision one emergency instance per tick until capped;
            # the overdue work keeps waiting for it to boot.
            if run.spilled < policy.max_spill:
                spec = policy.spill_spec or self.scale_spec
                self._provision(spec, provisioned_s=now,
                                boot_latency_s=policy.spill_boot_s,
                                origin="spill")
                run.spilled += 1
            return
        # Shed mode: lowest priority goes first.
        victims = sorted(overdue,
                         key=lambda r: (r.priority, r.arrival_s,
                                        r.request_id))
        victim_ids = {r.request_id for r in victims}
        for request in victims:
            self._shed_request(run, request, now, "degraded")
        run.held = [r for r in run.held if r.request_id not in victim_ids]

    def _shed_unroutable(self, now: float, run: _RunState) -> None:
        """Liveness guard: when no replica can ever serve again (all
        dead with no reboot pending, no autoscaler, spill exhausted),
        shed all queued work instead of ticking forever."""
        if not (run.held or run.retry_queue):
            return
        if self.autoscaler is not None:
            return
        if any(r.state not in (RETIRED, FAILED) or r.restart_pending
               for r in self.replicas):
            return
        policy = self.degradation
        if (policy is not None and policy.mode == "spill"
                and run.spilled < policy.max_spill):
            return
        for request in run.held + run.retry_queue.drain():
            self._shed_request(run, request, now, "unroutable")
        run.held = []

    # -- event loop -----------------------------------------------------------

    def _make_injector(self) -> FaultInjector:
        if isinstance(self.faults, FaultInjector):
            return self.faults
        return FaultInjector(self.faults if self.faults is not None
                             else FaultSchedule.empty())

    def begin_run(self, requests: Sequence[ServeRequest] | RequestTable,
                  ) -> None:
        """Install a request stream and arm the event loop.

        Splits :meth:`run` into an incremental form — ``begin_run``,
        then :meth:`run_tick` while :attr:`run_active`, then
        :meth:`finish_run` — so a checkpoint can capture the loop
        between any two ticks.  :meth:`run` composes exactly these
        calls; the instruction sequence is unchanged.

        Accepts a :class:`~repro.fleet.table.RequestTable` or any
        sequence of :class:`~repro.serving.scheduler.ServeRequest`
        (columnarized via ``RequestTable.from_requests``); for
        million-request streams, build the table directly
        (``poisson_table`` et al.) so no object list ever exists.

        Raises:
            ValueError: On an empty stream or if a run is in progress.
        """
        if not len(requests):
            raise ValueError("no requests")
        if self._run is not None:
            raise ValueError("a run is already in progress; finish_run() "
                             "or restore into a fresh simulator")
        # TEE replicas attest before serving their first request.
        for replica in self.replicas:
            if needs_attestation(replica.spec.kind):
                self.attestation.readmit(replica.replica_id)
        table = (requests if isinstance(requests, RequestTable)
                 else RequestTable.from_requests(requests))
        self._run = _RunState(table, self.tick_s, len(self.active),
                              self._make_injector())

    @property
    def run_active(self) -> bool:
        """Whether the armed run still has work for another tick."""
        run = self._run
        if run is None:
            return False
        has_pending = run.pending_head < len(run.pending_arrivals)
        return bool(has_pending or run.held or run.retry_queue
                    or any(r.outstanding for r in self.replicas))

    @property
    def run_clock_s(self) -> float:
        """Shared clock of the armed run (last completed tick)."""
        if self._run is None:
            raise ValueError("no run in progress")
        return self._run.now

    def run_tick(self) -> None:
        """Advance the armed run by one shared-clock tick."""
        run = self._run
        if run is None:
            raise ValueError("no run in progress; call begin_run() first")
        run.now += self.tick_s
        now = run.now
        self._chaos_tick(now, run)
        self._autoscale(now, run)
        for replica in self.replicas:
            self._chaos_activate(replica, now)
            replica.activate_if_ready(now)

        due = run.held
        run.held = []
        arrivals = run.pending_arrivals
        rows = run.pending_rows
        head, end = run.pending_head, len(arrivals)
        while head < end and arrivals[head] <= now:
            due.append(run.table.request(rows[head]))
            head += 1
        run.pending_head = head
        due.extend(run.retry_queue.pop_due(now))
        track_flights = self.retry_policy is not None
        for request in due:
            request_id = request.request_id
            try:
                replica = self.router.choose(request, self.replicas, now)
            except ValueError:
                run.held.append(request)  # nothing live yet; retry next tick
                run.held_since.setdefault(request_id, now)
                continue
            replica.submit(request)
            run.held_since.pop(request_id, None)
            made = run.attempts.get(request_id, 0) + 1
            if made > 1:
                run.attempts[request_id] = made
                run.retries += 1
            if track_flights:
                run.flights[request_id] = (replica, now)

        for replica in self.replicas:
            if replica.active:
                self._log_finished(replica, replica.step(now), run)
                replica.retire_if_drained(now)
        run.peak = max(run.peak, len(self.active))

        self._check_timeouts(now, run)
        self._degrade(now, run)
        self._shed_unroutable(now, run)

    def _log_finished(self, replica: Replica, finished: list[int],
                      run: _RunState) -> None:
        """Record finished request ids in the columnar ledger.

        Copies each finished request's timeline triple out of the
        scheduler and releases the id (and its resilience ledger
        entries), so every live dict stays O(in-flight) over a
        million-request run.
        """
        scheduler = replica.scheduler
        for request_id in finished:
            first, finish, preempted = scheduler.finished_triple(request_id)
            run.finished.record(request_id, first, finish, preempted)
            scheduler.release(request_id)
            run.flights.pop(request_id, None)
            run.attempts.pop(request_id, None)

    # -- quiet-tick jumping ---------------------------------------------------

    def _next_wake_s(self, run: _RunState) -> float | None:
        """Earliest future instant at which a tick could *act*.

        A tick acts when it routes work, applies a fault, crosses a
        lifecycle edge, or fires a timeout.  Everything that can cause
        one is time-anchored and peekable: the next pending arrival,
        the earliest retry due, the injector's next event, each
        replica's boot/attest readiness, scheduled restart, hang
        expiry, and the earliest in-flight timeout.  Returns ``None``
        when no such instant exists (a pure drain: only scheduler-
        internal work remains).
        """
        candidates: list[float] = []
        if run.pending_head < len(run.pending_arrivals):
            candidates.append(run.pending_arrivals[run.pending_head])
        retry_due = run.retry_queue.next_due_s
        if retry_due is not None:
            candidates.append(retry_due)
        injector_due = run.injector.next_due_s
        if injector_due is not None:
            candidates.append(injector_due)
        retry = self.retry_policy
        if retry is not None and run.flights:
            oldest = min(routed_s for _, routed_s in run.flights.values())
            candidates.append(oldest + retry.timeout_s)
        for replica in self.replicas:
            if replica.state in (BOOTING, ATTESTING):
                candidates.append(replica.ready_s)
            elif replica.restart_pending:
                candidates.append(replica._restart_at_s)
            if replica._hang_until_s is not None:
                candidates.append(replica._hang_until_s)
        return min(candidates) if candidates else None

    #: Ticks jumped per chunk when nothing external is ever due again
    #: and only in-flight decode work remains (pure drain).
    _DRAIN_CHUNK_TICKS = 4096

    def _skip_quiet_ticks(self) -> None:
        """Jump the clock over ticks that provably cannot act.

        Replays the skipped ticks' only observable work — stepping the
        replicas — as one composed ``step`` call per replica (the
        scheduler's step/run parity contract makes the composition
        exact), then lets :meth:`run_tick` execute the next tick
        normally.  The jump always stops *short* of the next wake
        instant, so the tick that handles it runs at exactly the clock
        value the every-tick loop would have used, and ``run.now`` is
        advanced by repeated ``+= tick_s`` so float accumulation stays
        bit-identical too.

        Conservative no-jump conditions (any of these makes ticks
        potentially act in ways that are not time-peekable): an armed
        autoscaler (decides on queue depth every tick), held work
        (rerouted every tick), a draining replica (retires the tick its
        queue empties), a slowed replica (expiry interacts with in-step
        work), or a non-FCFS admission policy (WFQ admission order
        depends on exactly which requests have arrived at each step, so
        composed steps are not time-peekable).
        """
        run = self._run
        if run is None:
            return
        if self.autoscaler is not None or run.held:
            return
        for replica in self.replicas:
            if replica.state == DRAINING:
                return
            if replica.active and replica._slow_until_s is not None:
                return
            if replica.scheduler.admission != "fcfs":
                return
        wake = self._next_wake_s(run)
        tick = self.tick_s
        now = run.now
        if wake is None:
            steps = self._DRAIN_CHUNK_TICKS
        else:
            gap = wake - now
            if gap <= tick:
                return
            # Stop two ticks short of the wake instant; int() truncation
            # plus the margin guarantees we never cross it.
            steps = int(gap / tick) - 2
            if steps <= 0:
                return
        for _ in range(steps):
            now += tick
        if wake is not None and now >= wake:
            return  # float-accumulation safety net: tick normally instead
        run.now = now
        for replica in self.replicas:
            if replica.active:
                finished = replica.step(now)
                if finished:
                    self._log_finished(replica, finished, run)

    def finish_run(self) -> FleetReport:
        """Close out a completed run and build its report.

        Raises:
            ValueError: If no run is armed or work remains.
        """
        run = self._run
        if run is None:
            raise ValueError("no run in progress")
        if self.run_active:
            raise ValueError("run still has outstanding work; keep ticking")
        # Replica clocks may overshoot the final tick; the fleet ends
        # when the last request completes.
        last_finish = run.finished.max_finish_s()
        end = run.now if last_finish is None else last_finish
        usages = tuple(
            ReplicaUsage(
                replica_id=r.replica_id, kind=r.spec.kind,
                price_hr=r.spec.price_hr, provisioned_s=r.provisioned_s,
                retired_s=r.retired_s,
                billed_hours=r.billed_hours(end), cost_usd=r.cost_usd(end),
                requests_served=r.requests_routed, tokens_out=r.tokens_out,
                crashes=r.crashes,
                prefix_hits=r.scheduler.prefix_hits,
                prefix_misses=r.scheduler.prefix_misses)
            for r in self.replicas)
        report = FleetReport(
            outcomes=run.finished.to_outcomes(run.table), start_s=run.start,
            end_s=end, replicas=usages,
            scale_events=tuple(self.autoscaler.events)
            if self.autoscaler else (),
            total_preemptions=sum(r.scheduler.preemptions
                                  for r in self.replicas),
            peak_replicas=run.peak,
            retries=run.retries,
            wasted_tokens=run.wasted_tokens,
            shed=tuple(run.shed),
            fault_events=tuple(run.injector.applied))
        self._run = None
        return report

    def run(self, requests: Sequence[ServeRequest] | RequestTable,
            ) -> FleetReport:
        """Serve a request stream to completion across the fleet.

        Quiet stretches of the tick grid are jumped (see
        :meth:`_skip_quiet_ticks`); the report is bit-identical to
        ticking through them with :meth:`run_tick`.

        Raises:
            ValueError: On an empty stream, or when a request can never
                fit any replica's KV pool.
        """
        self.begin_run(requests)
        while self.run_active:
            self._skip_quiet_ticks()
            self.run_tick()
        return self.finish_run()

    # -- checkpoint/restore ---------------------------------------------------

    def to_state(self) -> dict:
        """Plain-dict snapshot of the whole fleet, mid-run or idle.

        The request stream is serialized once, as columns; the pending
        arrivals are a head index into its arrival order, and the held
        list, retry heap and flight table reference requests by id.
        ``"engine": "event"`` tags the columnar run format (restore
        refuses any other).  Replicas carry their
        spec fingerprints; restore rebuilds each instance from the
        *host* simulator's specs (selected by the replica's ``origin``)
        and refuses a mismatch, so deployments and price catalogs never
        need to be serialized.
        """
        run = self._run
        run_state = None
        if run is not None:
            chaos_state = {
                "injector": run.injector.to_state(),
                "flights": {str(request_id): [replica.replica_id, routed_s]
                            for request_id, (replica, routed_s)
                            in run.flights.items()},
                "attempts": {str(request_id): count for request_id, count
                             in run.attempts.items()},
                "retry_heap": run.retry_queue.to_state(),
                "held_since": {str(request_id): since for request_id, since
                               in run.held_since.items()},
                "shed": [{"request": shed.request.to_state(),
                          "time_s": shed.time_s,
                          "reason": shed.reason,
                          "attempts": shed.attempts}
                         for shed in run.shed],
                "wasted_tokens": run.wasted_tokens,
                "retries": run.retries,
                "spilled": run.spilled,
            }
            run_state = {
                "start_s": run.start,
                "now_s": run.now,
                "peak": run.peak,
                "chaos": chaos_state,
                # The arrival order is recomputed on restore.
                "requests_table": run.table.to_state(),
                "pending_head": run.pending_head,
                "held": [request.request_id for request in run.held],
                "finished": run.finished.to_state(),
            }
        return {
            "engine": "event",
            "tick_s": self.tick_s,
            "chaos_armed": self._chaos_armed,
            "initial_replicas": len(self._initial_specs),
            "replicas": [replica.to_state() for replica in self.replicas],
            "router": self.router.to_state(),
            "autoscaler": (self.autoscaler.to_state()
                           if self.autoscaler is not None else None),
            "attestation": self.attestation.to_state(),
            "run": run_state,
        }

    def _spec_for_origin(self, origin: str, replica_id: int) -> ReplicaSpec:
        """The spec pool a replica of ``origin`` was provisioned from."""
        from ..state.errors import StateIntegrityError
        if origin == "initial":
            if replica_id >= len(self._initial_specs):
                raise StateIntegrityError(
                    f"replica {replica_id} claims origin 'initial' but the "
                    f"fleet was built with {len(self._initial_specs)} specs")
            return self._initial_specs[replica_id]
        if origin == "scale":
            return self.scale_spec
        if self.degradation is not None \
                and self.degradation.spill_spec is not None:
            return self.degradation.spill_spec
        return self.scale_spec

    def from_state(self, state: dict) -> None:
        """Install a :meth:`to_state` snapshot into this simulator.

        The simulator must be freshly built with the same constructor
        arguments (specs, router policy, autoscaler config, tick, fault
        schedule, retry/degradation policies) the snapshot was taken
        under; fingerprints on every layer enforce this.

        Raises:
            repro.state.errors.StateIntegrityError: On any mismatch
                between the snapshot and this simulator's configuration,
                or when the simulator has already run.
        """
        from ..state.errors import StateIntegrityError
        from ..state.schema import require, require_finite

        if self._run is not None or len(self.replicas) \
                != len(self._initial_specs):
            raise StateIntegrityError(
                "restore target must be a freshly built simulator")
        tick_s = require_finite(state, "tick_s", "$.fleet", minimum=0.0)
        if tick_s != self.tick_s:
            raise StateIntegrityError(
                f"snapshot tick {tick_s:g}s != simulator tick "
                f"{self.tick_s:g}s")
        engine = state.get("engine")
        if engine != "event":
            raise StateIntegrityError(
                f"snapshot engine {engine!r} is not 'event'; only "
                f"columnar event-run snapshots restore")
        if require(state, "chaos_armed", bool, "$.fleet") \
                != self._chaos_armed:
            raise StateIntegrityError(
                "snapshot and simulator disagree on whether the chaos "
                "machinery is armed")
        if require(state, "initial_replicas", int, "$.fleet") \
                != len(self._initial_specs):
            raise StateIntegrityError(
                "snapshot was taken on a fleet with a different initial "
                "replica count")

        replicas: list[Replica] = []
        for index, payload in enumerate(require(state, "replicas", list,
                                                "$.fleet")):
            origin = require(payload, "origin", str, "$.fleet.replicas")
            replica_id = require(payload, "replica_id", int,
                                 "$.fleet.replicas")
            if replica_id != index:
                raise StateIntegrityError(
                    f"replica ids not contiguous: slot {index} holds "
                    f"replica {replica_id}")
            spec = self._spec_for_origin(origin, replica_id)
            replicas.append(Replica.from_state(payload, spec))
        self.replicas = replicas

        self.router.from_state(require(state, "router", dict, "$.fleet"))
        scaler = state.get("autoscaler")
        if (scaler is None) != (self.autoscaler is None):
            raise StateIntegrityError(
                "snapshot and simulator disagree on autoscaling")
        if self.autoscaler is not None:
            self.autoscaler.from_state(scaler)
        self.attestation.from_state(
            require(state, "attestation", dict, "$.fleet"))

        run = state.get("run")
        self._run = None if run is None else self._run_from_state(run)

    def _chaos_from_state(self, payload: dict, run: _RunState,
                          resolve) -> None:
        """Install a snapshot's resilience ledgers into ``run``.

        ``resolve(request_id, where)`` maps a serialized request id
        back to a request from the run's stream.  Every ledger entry is
        checked here, so a malformed one is refused at restore instead
        of crashing the resumed run.
        """
        from ..state.errors import StateIntegrityError, StateSchemaError
        from ..state.schema import require, require_finite

        where = "$.fleet.chaos"

        def ledger(key: str) -> tuple[dict, dict[int, str]]:
            """A ledger and its serialized keys by integer request id."""
            entries = require(payload, key, dict, where)
            try:
                return entries, {int(request_id): request_id
                                 for request_id in entries}
            except ValueError as error:
                raise StateSchemaError(
                    f"{where}.{key} is keyed by request id") from error

        run.injector.from_state(require(payload, "injector", dict, where))
        flights, keys = ledger("flights")
        for request_id, key in keys.items():
            path = f"{where}.flights.{key}"
            entry = flights[key]
            if not isinstance(entry, list) or len(entry) != 2:
                raise StateSchemaError(
                    f"{path} must be [replica id, routed_s], got {entry!r}")
            flight = dict(zip(("replica_id", "routed_s"), entry))
            replica_id = require(flight, "replica_id", int, path)
            if not 0 <= replica_id < len(self.replicas):
                raise StateIntegrityError(
                    f"flight for request {request_id} references unknown "
                    f"replica {replica_id}")
            run.flights[request_id] = (
                self.replicas[replica_id],
                require_finite(flight, "routed_s", path))
        attempts, keys = ledger("attempts")
        for request_id, key in keys.items():
            count = require(attempts, key, int, f"{where}.attempts")
            if count < 1:
                raise StateSchemaError(
                    f"{where}.attempts.{key} must be an attempt count "
                    f">= 1, got {count!r}")
            run.attempts[request_id] = count
        run.retry_queue.from_state(
            require(payload, "retry_heap", list, where),
            lambda request_id: resolve(request_id, "retry heap"))
        held_since, keys = ledger("held_since")
        run.held_since = {
            request_id: require_finite(held_since, key,
                                       f"{where}.held_since")
            for request_id, key in keys.items()}
        run.shed = [
            ShedRequest(
                request=ServeRequest.from_state(
                    require(entry, "request", dict, f"{where}.shed")),
                time_s=require_finite(entry, "time_s", f"{where}.shed"),
                reason=require(entry, "reason", str, f"{where}.shed"),
                attempts=require(entry, "attempts", int, f"{where}.shed"))
            for entry in require(payload, "shed", list, where)]
        run.wasted_tokens = require(payload, "wasted_tokens", int, where)
        run.retries = require(payload, "retries", int, where)
        run.spilled = require(payload, "spilled", int, where)

    def _run_from_state(self, run_state: dict) -> _RunState:
        """Rebuild an armed run from its columnar snapshot."""
        from ..state.errors import StateIntegrityError
        from ..state.schema import require, require_finite

        table = RequestTable.from_state(
            require(run_state, "requests_table", dict, "$.fleet.run"))
        if not len(table):
            raise StateIntegrityError("armed run carries an empty "
                                      "request table")

        def resolve(request_id: object, where: str) -> ServeRequest:
            try:
                row = table.index_of(request_id)
            except (KeyError, TypeError) as error:
                raise StateIntegrityError(
                    f"{where} references unknown request "
                    f"{request_id!r}") from error
            return table.request(row)

        run = _RunState(table, self.tick_s, 0, self._make_injector())
        self._chaos_from_state(
            require(run_state, "chaos", dict, "$.fleet.run"), run, resolve)
        head = require(run_state, "pending_head", int, "$.fleet.run")
        if not 0 <= head <= len(table):
            raise StateIntegrityError(
                f"pending head {head} out of range for {len(table)} "
                f"requests")
        run.pending_head = head
        run.finished = OutcomeLog.from_state(
            require(run_state, "finished", dict, "$.fleet.run"))
        run.start = require_finite(run_state, "start_s", "$.fleet.run")
        run.now = require_finite(run_state, "now_s", "$.fleet.run")
        run.peak = require(run_state, "peak", int, "$.fleet.run")
        run.held = [resolve(request_id, "held list") for request_id
                    in require(run_state, "held", list, "$.fleet.run")]
        return run


def fixed_fleet(spec: ReplicaSpec, count: int,
                router: Router | None = None,
                tick_s: float = DEFAULT_TICK_S,
                faults: FaultSchedule | FaultInjector | None = None,
                retry_policy: RetryPolicy | None = None,
                degradation: DegradationPolicy | None = None,
                ) -> FleetSimulator:
    """A homogeneous fixed-size fleet (the capacity-planning unit)."""
    if count < 1:
        raise ValueError("count must be >= 1")
    return FleetSimulator([spec] * count, router=router, tick_s=tick_s,
                          faults=faults, retry_policy=retry_policy,
                          degradation=degradation)
