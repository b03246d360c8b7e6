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

Fault injection (:mod:`repro.faults`) plugs into the same loop: when a
schedule, retry policy, or degradation policy is supplied, each tick
additionally applies due faults, reboots repaired instances, re-attests
TEE replicas before readmission, retries timed-out or evacuated
requests with seeded backoff, and sheds or spills work the degraded
fleet cannot hold.  Every chaos hook is gated so a run without fault
machinery executes the exact fault-free instruction sequence — the
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


class _ChaosState:
    """Per-run resilience bookkeeping (only allocated under chaos).

    Tracks in-flight attempts, the retry queue, the shed ledger, and
    the waste counters that make the final report failure-aware.
    """

    def __init__(self, injector: FaultInjector,
                 retry: RetryPolicy | None,
                 degradation: DegradationPolicy | None) -> None:
        self.injector = injector
        self.retry = retry
        self.degradation = degradation
        self.flights: dict[int, tuple[Replica, float]] = {}
        self.attempts: dict[int, int] = {}
        self.retry_queue = RetryQueue()
        self.held_since: dict[int, float] = {}
        self.shed: list[ShedRequest] = []
        self.wasted_tokens = 0
        self.retries = 0
        self.spilled = 0

    def requeue_or_shed(self, request: ServeRequest, now: float,
                        generated: int) -> None:
        """Route a failed attempt back through retry policy or shed it."""
        self.wasted_tokens += generated
        made = self.attempts.get(request.request_id, 0)
        if self.retry is None:
            # No policy: crash evacuations still requeue immediately so
            # no request is ever silently lost.
            self.retry_queue.push(now, request)
            return
        if made >= self.retry.max_attempts:
            self.shed.append(ShedRequest(request=request, time_s=now,
                                         reason="retries-exhausted",
                                         attempts=made))
            return
        delay = self.retry.backoff_s(request.request_id, made)
        self.retry_queue.push(now + delay, request)

    def shed_request(self, request: ServeRequest, now: float,
                     reason: str) -> None:
        self.held_since.pop(request.request_id, None)
        self.shed.append(ShedRequest(
            request=request, time_s=now, reason=reason,
            attempts=self.attempts.get(request.request_id, 0)))


class _RunState:
    """Mid-run loop state (pending arrivals, held work, outcomes).

    Hoisting the ``run`` loop's locals into an object is what makes a
    run *snapshotable*: everything the next tick depends on lives here
    or on the replicas/router/autoscaler, never in a stack frame.
    """

    def __init__(self, table: RequestTable, tick_s: float, peak: int,
                 chaos: _ChaosState | None) -> None:
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
        self.chaos = chaos


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

    Supplying any of the three arms the chaos path; leaving all three
    ``None`` runs the exact fault-free instruction sequence.
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
        self._chaos = (faults is not None or retry_policy is not None
                       or degradation is not None)
        self.attestation = FleetAttestation() if self._chaos else None
        #: In-progress incremental run (``begin_run``/``run_tick``).
        self._run: _RunState | None = None
        self._initial_specs = list(specs)
        self.replicas: list[Replica] = []
        for spec in specs:
            self._provision(spec, provisioned_s=0.0, boot_latency_s=0.0)

    def _provision(self, spec: ReplicaSpec, provisioned_s: float,
                   boot_latency_s: float, origin: str = "initial") -> Replica:
        replica = Replica(replica_id=len(self.replicas), spec=spec,
                          provisioned_s=provisioned_s,
                          boot_latency_s=boot_latency_s, origin=origin)
        self.replicas.append(replica)
        if self.attestation is not None and needs_attestation(spec.kind):
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

    def _autoscale(self, now: float, queued: int = 0) -> None:
        if self.autoscaler is None:
            return
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

    def _apply_fault(self, event: FaultEvent, now: float,
                     state: _ChaosState) -> str:
        """Land one due fault on its target; returns the effect log."""
        if event.replica_id >= len(self.replicas):
            return "no-op: no such replica"
        replica = self.replicas[event.replica_id]
        if event.kind == "crash":
            if replica.state in (FAILED, RETIRED):
                return f"no-op: replica already {replica.state}"
            evacuated = replica.crash(now, event.restart_after_s)
            for request, generated in evacuated:
                state.flights.pop(request.request_id, None)
                state.requeue_or_shed(request, now, generated)
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
        assert self.attestation is not None
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
            state.flights.pop(request.request_id, None)
            state.requeue_or_shed(request, now, generated)
        return (f"attestation revoked: evacuated {len(evacuated)} requests, "
                f"re-attest at {now + outage_s:g}s")

    def _chaos_tick(self, now: float, state: _ChaosState) -> None:
        """Pre-routing chaos phase: expiries, reboots, due faults."""
        for replica in self.replicas:
            replica.expire_faults(now)
            replica.restart_if_due(now)
        for event in state.injector.due(now):
            state.injector.record(event, now, self._apply_fault(event, now,
                                                                state))

    def _chaos_activate(self, replica: Replica, now: float) -> None:
        """Attestation gate: TEE replicas re-attest before readmission."""
        assert self.attestation is not None
        if replica.state == ATTESTING and now >= replica.ready_s:
            if self.attestation.readmit(replica.replica_id):
                replica.complete_attestation()
        elif (replica.state == BOOTING and now >= replica.ready_s
                and needs_attestation(replica.spec.kind)):
            # Reboot completing: run the full quote/verify flow (it is
            # deterministic and instant in simulated time) before
            # activate_if_ready flips the replica live.
            self.attestation.readmit(replica.replica_id)

    def _check_timeouts(self, now: float, state: _ChaosState) -> None:
        """Cancel and retry in-flight requests older than the timeout."""
        if state.retry is None:
            return
        for request_id in sorted(state.flights):
            replica, routed_s = state.flights[request_id]
            if now - routed_s <= state.retry.timeout_s:
                continue
            cancelled = replica.cancel(request_id)
            if cancelled is None:
                continue  # completed within this very tick
            del state.flights[request_id]
            request, generated = cancelled
            state.requeue_or_shed(request, now, generated)

    def _degrade(self, now: float, held: list[ServeRequest],
                 state: _ChaosState) -> list[ServeRequest]:
        """Apply the degradation policy to overdue unroutable work."""
        policy = state.degradation
        if policy is None:
            return held
        overdue = [r for r in held
                   if now - state.held_since.get(r.request_id, now)
                   > policy.max_hold_s]
        if not overdue:
            return held
        if policy.mode == "spill":
            # Provision one emergency instance per tick until capped;
            # the overdue work keeps waiting for it to boot.
            if state.spilled < policy.max_spill:
                spec = policy.spill_spec or self.scale_spec
                self._provision(spec, provisioned_s=now,
                                boot_latency_s=policy.spill_boot_s,
                                origin="spill")
                state.spilled += 1
            return held
        # Shed mode: lowest priority goes first.
        victims = sorted(overdue,
                         key=lambda r: (r.priority, r.arrival_s,
                                        r.request_id))
        victim_ids = {r.request_id for r in victims}
        for request in victims:
            state.shed_request(request, now, "degraded")
        return [r for r in held if r.request_id not in victim_ids]

    def _shed_unroutable(self, now: float, held: list[ServeRequest],
                         state: _ChaosState) -> list[ServeRequest]:
        """Liveness guard: when no replica can ever serve again (all
        dead with no reboot pending, no autoscaler, spill exhausted),
        shed all queued work instead of ticking forever."""
        if not (held or state.retry_queue):
            return held
        if self.autoscaler is not None:
            return held
        if any(r.state not in (RETIRED, FAILED) or r.restart_pending
               for r in self.replicas):
            return held
        policy = state.degradation
        if (policy is not None and policy.mode == "spill"
                and state.spilled < policy.max_spill):
            return held
        for request in held:
            state.shed_request(request, now, "unroutable")
        for request in state.retry_queue.drain():
            state.shed_request(request, now, "unroutable")
        return []

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
        state: _ChaosState | None = None
        if self._chaos:
            state = _ChaosState(self._make_injector(), self.retry_policy,
                                self.degradation)
            # TEE replicas attest before serving their first request.
            for replica in self.replicas:
                if needs_attestation(replica.spec.kind):
                    assert self.attestation is not None
                    self.attestation.readmit(replica.replica_id)
        table = (requests if isinstance(requests, RequestTable)
                 else RequestTable.from_requests(requests))
        self._run = _RunState(table, self.tick_s, len(self.active), state)

    @property
    def run_active(self) -> bool:
        """Whether the armed run still has work for another tick."""
        run = self._run
        if run is None:
            return False
        state = run.chaos
        has_pending = run.pending_head < len(run.pending_arrivals)
        return bool(has_pending or run.held
                    or (state is not None and state.retry_queue)
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
        state = run.chaos
        run.now += self.tick_s
        now = run.now
        if state is not None:
            self._chaos_tick(now, state)
            self._autoscale(now, queued=len(run.held) + len(state.retry_queue))
        else:
            self._autoscale(now)
        for replica in self.replicas:
            if state is not None:
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
        if state is not None:
            due.extend(state.retry_queue.pop_due(now))
        for request in due:
            try:
                replica = self.router.choose(request, self.replicas, now)
            except ValueError:
                run.held.append(request)  # nothing live yet; retry next tick
                if state is not None:
                    state.held_since.setdefault(request.request_id, now)
                continue
            replica.submit(request)
            if state is not None:
                state.held_since.pop(request.request_id, None)
                made = state.attempts.get(request.request_id, 0) + 1
                state.attempts[request.request_id] = made
                if made > 1:
                    state.retries += 1
                state.flights[request.request_id] = (replica, now)

        for replica in self.replicas:
            if replica.active:
                self._log_finished(replica, replica.step(now), run, state)
                replica.retire_if_drained(now)
        run.peak = max(run.peak, len(self.active))

        if state is not None:
            self._check_timeouts(now, state)
            run.held = self._degrade(now, run.held, state)
            run.held = self._shed_unroutable(now, run.held, state)

    def _log_finished(self, replica: Replica, finished: list[int],
                      run: _RunState, state: _ChaosState | None) -> None:
        """Record finished request ids in the columnar ledger.

        Copies each finished request's timeline triple out of the
        scheduler and releases the id, so every scheduler's live dict
        stays O(in-flight) over a million-request run.
        """
        scheduler = replica.scheduler
        for request_id in finished:
            first, finish, preempted = scheduler.finished_triple(request_id)
            run.finished.record(request_id, first, finish, preempted)
            scheduler.release(request_id)
            if state is not None:
                state.flights.pop(request_id, None)

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
        state = run.chaos
        candidates: list[float] = []
        if run.pending_head < len(run.pending_arrivals):
            candidates.append(run.pending_arrivals[run.pending_head])
        if state is not None:
            retry_due = state.retry_queue.next_due_s
            if retry_due is not None:
                candidates.append(retry_due)
            injector_due = state.injector.next_due_s
            if injector_due is not None:
                candidates.append(injector_due)
            if state.retry is not None and state.flights:
                oldest = min(routed_s for _, routed_s
                             in state.flights.values())
                candidates.append(oldest + state.retry.timeout_s)
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
        state = run.chaos
        for replica in self.replicas:
            if replica.active:
                finished = replica.step(now)
                if finished:
                    self._log_finished(replica, finished, run, state)

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
        state = run.chaos
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
            retries=state.retries if state else 0,
            wasted_tokens=state.wasted_tokens if state else 0,
            shed=tuple(state.shed) if state else (),
            fault_events=tuple(state.injector.applied) if state else ())
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
            chaos_state = None
            state = run.chaos
            if state is not None:
                chaos_state = {
                    "injector": state.injector.to_state(),
                    "flights": {str(request_id): [replica.replica_id,
                                                  routed_s]
                                for request_id, (replica, routed_s)
                                in state.flights.items()},
                    "attempts": {str(request_id): count for request_id, count
                                 in state.attempts.items()},
                    "retry_heap": state.retry_queue.to_state(),
                    "held_since": {str(request_id): since
                                   for request_id, since
                                   in state.held_since.items()},
                    "shed": [{"request": shed.request.to_state(),
                              "time_s": shed.time_s,
                              "reason": shed.reason,
                              "attempts": shed.attempts}
                             for shed in state.shed],
                    "wasted_tokens": state.wasted_tokens,
                    "retries": state.retries,
                    "spilled": state.spilled,
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
            "chaos_armed": self._chaos,
            "initial_replicas": len(self._initial_specs),
            "replicas": [replica.to_state() for replica in self.replicas],
            "router": self.router.to_state(),
            "autoscaler": (self.autoscaler.to_state()
                           if self.autoscaler is not None else None),
            "attestation": (self.attestation.to_state()
                            if self.attestation is not None else None),
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
        if require(state, "chaos_armed", bool, "$.fleet") != self._chaos:
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
        autoscaler_state = state.get("autoscaler")
        if (autoscaler_state is None) != (self.autoscaler is None):
            raise StateIntegrityError(
                "snapshot and simulator disagree on autoscaling")
        if self.autoscaler is not None:
            self.autoscaler.from_state(autoscaler_state)
        attestation_state = state.get("attestation")
        if (attestation_state is None) != (self.attestation is None):
            raise StateIntegrityError(
                "snapshot and simulator disagree on attestation")
        if self.attestation is not None:
            self.attestation.from_state(attestation_state)

        run_state = state.get("run")
        self._run = (None if run_state is None
                     else self._run_from_state(run_state))

    def _chaos_from_state(self, chaos_payload: dict | None,
                          resolve) -> _ChaosState | None:
        """Rebuild chaos bookkeeping from a snapshot.

        ``resolve(request_id, where)`` maps a serialized request id
        back to a request from the run's stream.
        """
        from ..state.errors import StateIntegrityError
        from ..state.schema import require, require_finite

        if chaos_payload is None:
            if self._chaos:
                raise StateIntegrityError(
                    "simulator has fault machinery armed but the snapshot's "
                    "run carries no chaos state")
            return None
        if not self._chaos:
            raise StateIntegrityError(
                "snapshot carries chaos state but this simulator has "
                "no fault machinery armed")
        chaos = _ChaosState(self._make_injector(), self.retry_policy,
                            self.degradation)
        chaos.injector.from_state(
            require(chaos_payload, "injector", dict, "$.fleet.chaos"))
        for key, entry in require(chaos_payload, "flights", dict,
                                  "$.fleet.chaos").items():
            replica_id, routed_s = entry
            if not 0 <= replica_id < len(self.replicas):
                raise StateIntegrityError(
                    f"flight for request {key} references unknown "
                    f"replica {replica_id}")
            chaos.flights[int(key)] = (self.replicas[replica_id],
                                       float(routed_s))
        chaos.attempts = {int(key): count for key, count
                          in require(chaos_payload, "attempts", dict,
                                     "$.fleet.chaos").items()}
        chaos.retry_queue.from_state(
            require(chaos_payload, "retry_heap", list, "$.fleet.chaos"),
            lambda request_id: resolve(request_id, "retry heap"))
        chaos.held_since = {int(key): float(since) for key, since
                            in require(chaos_payload, "held_since", dict,
                                       "$.fleet.chaos").items()}
        chaos.shed = [
            ShedRequest(
                request=ServeRequest.from_state(
                    require(entry, "request", dict, "$.fleet.chaos.shed")),
                time_s=require_finite(entry, "time_s",
                                      "$.fleet.chaos.shed"),
                reason=require(entry, "reason", str, "$.fleet.chaos.shed"),
                attempts=require(entry, "attempts", int,
                                 "$.fleet.chaos.shed"))
            for entry in require(chaos_payload, "shed", list,
                                 "$.fleet.chaos")]
        chaos.wasted_tokens = require(chaos_payload, "wasted_tokens",
                                      int, "$.fleet.chaos")
        chaos.retries = require(chaos_payload, "retries", int,
                                "$.fleet.chaos")
        chaos.spilled = require(chaos_payload, "spilled", int,
                                "$.fleet.chaos")
        return chaos

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

        chaos = self._chaos_from_state(run_state.get("chaos"), resolve)
        run = _RunState(table, self.tick_s, 0, chaos)
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
