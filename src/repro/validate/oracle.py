"""Frozen reference oracles the differential audits compare against.

Two production paths keep a slower, simpler twin here.  Both twins are
frozen: change the production code, never these.

* :func:`reference_decode_clean` is the per-token decode loop: it costs
  the full per-layer operator stream at every costed context.  The
  simulator computes the same trajectory with the vectorized affine
  engine (:mod:`repro.engine.vectorized`); ``engine.vectorized_loop_parity``
  and the engine tests hold the two within 1e-9.
* :class:`ContinuousBatchingScheduler` is the object-per-request serving
  loop, described below.

:class:`ContinuousBatchingScheduler` is the original vLLM-style
continuous-batching loop over the functional
:class:`~repro.llm.kvcache.PagedKVCache`: one ``ServeRequest`` and one
``RequestOutcome`` object per request, admission and preemption driven
by real block allocation.  Production code serves through
:class:`~repro.serving.columnar.ColumnarScheduler`, which stores the
same state in columns and counts blocks instead of allocating them.
This class stays as the independent reference the differential audit
checks compare that core against (``serving.columnar_reference_parity``,
``serving.legacy_loop_parity``, ``serving.step_run_parity``).

Admission policy (head-of-line).  By default admission is strict FCFS:
the admission loop ``break``s on the first queued request whose KV
allocation fails, even if a *smaller* request queued behind it would
fit — exactly vLLM's default behavior, which trades utilization for
no-starvation.  Passing ``admission_lookahead=k`` relaxes this: after a
head-of-line allocation failure the scheduler scans up to ``k`` further
already-arrived requests and admits the first that fits (bounded
out-of-order admission; the head request keeps its queue position).

Multi-tenancy.  Passing a :class:`~repro.serving.admission.TenancyConfig`
arms per-tenant policy: weighted-fair-queueing admission (SCFQ virtual
finish tags; see :mod:`repro.serving.admission`) and per-tenant KV
isolation (hard partition via admission-time worst-case reservation, or
cross-request shared-prefix pinning with hit/miss accounting).  With no
config the scheduler executes the exact pre-tenancy instruction
sequence.
"""

from __future__ import annotations

import math
from bisect import insort
from dataclasses import dataclass

import numpy as np

from ..engine.placement import Deployment, Workload
from ..engine.roofline import cost_model_for
from ..engine.simulator import _check_context_stride, decode_step_cost
from ..llm.config import ModelConfig
from ..llm.datatypes import DType
from ..llm.kvcache import PagedKVCache
from ..serving.admission import TenancyConfig, prefix_seq_id
from ..serving.scheduler import RequestOutcome, ServeRequest, ServingReport
from ..serving.stepcost import StepCostTable


def reference_decode_clean(workload: Workload, deployment: Deployment,
                           context_stride: int = 1) -> np.ndarray:
    """Clean per-token decode times from the scalar per-token loop.

    Costs each context ``input + k*context_stride`` with
    :func:`~repro.engine.simulator.decode_step_cost` and holds that cost
    for the following ``context_stride`` tokens, the cadence
    :func:`~repro.engine.simulator.simulate_generation` reproduces.

    Raises:
        ValueError: If ``context_stride`` is not an integer >= 1, or if
            the workload cannot run on the deployment.
    """
    _check_context_stride(context_stride)
    deployment.validate_workload(workload)
    model = cost_model_for(deployment)
    clean = np.empty(workload.output_tokens)
    step_s = 0.0
    for step_index in range(workload.output_tokens):
        if step_index % context_stride == 0:
            context = workload.input_tokens + step_index
            step_s = decode_step_cost(workload, deployment, context,
                                      model).total_s
        clean[step_index] = step_s
    return clean


@dataclass
class _Running:
    request: ServeRequest
    outcome: RequestOutcome
    generated: int = 0


class ContinuousBatchingScheduler:
    """vLLM-style continuous batching over a paged KV cache.

    The scheduler is a state machine over (waiting, running, clock):
    :meth:`submit` enqueues requests, :meth:`step` advances the
    admission/decode/preemption loop up to a time horizon (the fleet
    simulator's shared-clock contract), and :meth:`run` serves a whole
    stream to completion in one call.

    Args:
        deployment: Where the model serves (any backend).
        model: Served architecture.
        dtype: Serving datatype.
        kv_capacity_tokens: Total KV pool size in tokens.
        block_size: Paged-KV block granularity in tokens.
        max_batch: Scheduler cap on concurrent sequences.
        admission_lookahead: How many queued, already-arrived requests
            to scan past a head-of-line KV-allocation failure (0 =
            strict FCFS, the vLLM default; see module docstring).
        tenancy: Optional multi-tenant policy (WFQ admission and/or KV
            isolation); ``None`` keeps the pre-tenancy behavior exactly.
    """

    def __init__(self, deployment: Deployment, model: ModelConfig,
                 dtype: DType, kv_capacity_tokens: int = 65536,
                 block_size: int = 16, max_batch: int = 64,
                 admission_lookahead: int = 0,
                 tenancy: TenancyConfig | None = None) -> None:
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if admission_lookahead < 0:
            raise ValueError("admission_lookahead must be >= 0")
        self.deployment = deployment
        self.model = model
        self.dtype = dtype
        self.max_batch = max_batch
        self.block_size = block_size
        self.admission_lookahead = admission_lookahead
        self.tenancy = tenancy
        self.admission = tenancy.admission if tenancy else "fcfs"
        self.kv_isolation = tenancy.kv_isolation if tenancy else "shared"
        self._wfq = self.admission == "wfq"
        self.cache = PagedKVCache(
            num_blocks=max(1, kv_capacity_tokens // block_size),
            block_size=block_size)
        self._costs = StepCostTable.shared(deployment, model, dtype)
        self._time_scale = 1.0
        self._reset()

    def _reset(self) -> None:
        # Unpin any shared prefixes left from a previous run() so the
        # block pool starts whole (guarded: __init__ calls _reset before
        # the tenancy attributes exist).
        for tenant_id in getattr(self, "_prefix_resident", ()):
            self.cache.free(prefix_seq_id(tenant_id))
        self._waiting: list[ServeRequest] = []
        self._running: list[_Running] = []
        self._outcomes: dict[int, RequestOutcome] = {}
        self._order: list[int] = []
        self._clock = 0.0
        self._preemptions = 0
        self._occupancy: list[int] = []
        self._first_arrival: float | None = None
        # Tenancy runtime state (inert when unarmed).
        self._wfq_v = 0.0
        self._wfq_fin: dict[int, float] = {}
        self._wfq_tag: dict[int, float] = {}
        self._prefix_resident: dict[int, int] = {}
        self._prefix_hits = 0
        self._prefix_misses = 0
        self._kv_reserved: dict[int, tuple[int, int]] = {}
        if self.tenancy is not None and self.kv_isolation == "partition":
            self._tenant_budget_cap = self.tenancy.partition_budgets(
                self.cache.num_blocks)
            self._tenant_budget = dict(self._tenant_budget_cap)
        else:
            self._tenant_budget_cap = {}
            self._tenant_budget = {}

    # -- cost helpers ---------------------------------------------------------
    # Both delegate to the shared StepCostTable so the columnar twin
    # charges bit-identical durations (see repro.serving.stepcost).

    def _decode_step_s(self, batch: int, context: int) -> float:
        return self._costs.decode_step_s(batch, context)

    def _prefill_s(self, prompt_tokens: int) -> float:
        return self._costs.prefill_s(prompt_tokens)

    # -- steppable state machine ----------------------------------------------

    @property
    def clock_s(self) -> float:
        """The replica's local wall clock."""
        return self._clock

    @property
    def outstanding(self) -> int:
        """Requests admitted or queued but not yet finished."""
        return len(self._waiting) + len(self._running)

    @property
    def queue_depth(self) -> int:
        """Requests waiting for admission."""
        return len(self._waiting)

    @property
    def kv_free_fraction(self) -> float:
        """Fraction of the KV block pool currently free."""
        return self.cache.free_blocks / self.cache.num_blocks

    @property
    def idle(self) -> bool:
        """No admitted or queued work."""
        return not self._waiting and not self._running

    @property
    def preemptions(self) -> int:
        """Preempt-and-recompute events so far."""
        return self._preemptions

    def advance_clock_to(self, now_s: float) -> None:
        """Move the local clock forward to ``now_s`` (never backward).

        The fleet uses this to floor a freshly booted replica's clock at
        its readiness time so held-back requests cannot be served in
        the past (and to skip a hung replica's stall window); it never
        rewinds time.
        """
        if math.isfinite(now_s):
            self._clock = max(self._clock, now_s)

    @property
    def time_scale(self) -> float:
        """Wall-time multiplier on every step (1.0 = nominal speed)."""
        return self._time_scale

    @time_scale.setter
    def time_scale(self, scale: float) -> None:
        """Set the step-duration multiplier (fault-injection hook).

        A degraded replica (``repro.faults`` slowdown or interconnect
        cut) runs every prefill/decode step ``scale`` times slower.  The
        nominal value 1.0 is applied via an exact no-op so fault-free
        runs stay bit-identical.
        """
        if not math.isfinite(scale) or scale <= 0:
            raise ValueError("time_scale must be finite and positive")
        self._time_scale = scale

    def _scaled(self, step_s: float) -> float:
        # Guarded so the nominal path performs no float op at all.
        if self._time_scale != 1.0:
            return step_s * self._time_scale
        return step_s

    def _check_fits(self, request: ServeRequest) -> None:
        needed = request.prompt_tokens + request.output_tokens
        if needed > self.cache.num_blocks * self.block_size:
            raise ValueError(
                f"request {request.request_id} needs {needed} KV tokens, "
                f"pool holds {self.cache.num_blocks * self.block_size}")
        if self.kv_isolation == "partition":
            cap = self._tenant_budget_cap.get(request.tenant_id)
            if cap is None:
                raise ValueError(
                    f"tenant {request.tenant_id} has no KV partition on "
                    f"this replica")
            worst_case = -(-needed // self.block_size)
            if worst_case > cap:
                raise ValueError(
                    f"request {request.request_id} needs {worst_case} "
                    f"blocks, tenant {request.tenant_id} partition holds "
                    f"{cap}")
        elif self.kv_isolation == "shared-prefix":
            # Every tenant's pinned prefix can stay resident while this
            # request runs alone; it must still fit beside all of them,
            # or admission waits (and decode preempts) forever.
            usable = max(0, min(self.tenancy.prefix_of(request.tenant_id),
                                request.prompt_tokens - 1))
            own = -(-(needed - usable) // self.block_size)
            pinned = sum(-(-prefix // self.block_size)
                         for _, prefix in self.tenancy.prefix_tokens)
            if own + pinned > self.cache.num_blocks:
                raise ValueError(
                    f"request {request.request_id} needs {own} blocks "
                    f"beside {pinned} pinned prefix blocks, pool holds "
                    f"{self.cache.num_blocks}")

    def _wfq_key(self, request: ServeRequest) -> tuple[float, float, int]:
        """Waiting-queue sort key under WFQ: (finish tag, arrival, id)."""
        return (self._wfq_tag[request.request_id], request.arrival_s,
                request.request_id)

    def submit(self, request: ServeRequest) -> None:
        """Enqueue one request for service (fleet/step entry point).

        Raises:
            ValueError: If the request cannot ever fit the KV pool or
                reuses an id still in flight.
        """
        self._check_fits(request)
        if request.request_id in self._outcomes:
            raise ValueError(f"request id {request.request_id} already "
                             "submitted to this replica")
        self._outcomes[request.request_id] = RequestOutcome(request=request)
        self._order.append(request.request_id)
        if self._wfq:
            # SCFQ tag: chain on the tenant's previous virtual finish,
            # floored at the global virtual clock.
            start = max(self._wfq_fin.get(request.tenant_id, 0.0),
                        self._wfq_v)
            tag = start + ((request.prompt_tokens + request.output_tokens)
                           / self.tenancy.weight_of(request.tenant_id))
            self._wfq_fin[request.tenant_id] = tag
            self._wfq_tag[request.request_id] = tag
            insort(self._waiting, request, key=self._wfq_key)
        else:
            insort(self._waiting, request,
                   key=lambda r: (r.arrival_s, r.request_id))
        if self._first_arrival is None or request.arrival_s < self._first_arrival:
            self._first_arrival = request.arrival_s

    def _forget(self, request_id: int) -> None:
        """Drop all bookkeeping for an unfinished request."""
        self._outcomes.pop(request_id, None)
        self._wfq_tag.pop(request_id, None)
        if request_id in self._order:
            self._order.remove(request_id)

    def cancel(self, request_id: int) -> tuple[ServeRequest, int] | None:
        """Withdraw an unfinished request (fleet timeout/retry hook).

        Removes the request from the waiting queue or the running batch,
        frees its KV blocks, and erases its outcome record so the fleet
        may resubmit it here or elsewhere.  Finished or unknown requests
        are left untouched.

        Returns:
            ``(request, tokens_generated)`` for the cancelled request —
            the generated count is the work wasted by the cancellation —
            or ``None`` if the request is not in flight here.
        """
        for index, request in enumerate(self._waiting):
            if request.request_id == request_id:
                self._waiting.pop(index)
                self._forget(request_id)
                return request, 0
        for entry in self._running:
            if entry.request.request_id == request_id:
                self._release_kv(request_id)
                self._running.remove(entry)
                self._forget(request_id)
                return entry.request, entry.generated
        return None

    def evacuate(self) -> list[tuple[ServeRequest, int]]:
        """Abort all in-flight work (replica crash hook).

        Empties the waiting queue and the running batch, freeing every
        KV allocation, and erases the outcome records of the evacuated
        requests (completed outcomes are kept).  The fleet requeues the
        evacuated requests elsewhere; tokens already generated by the
        running batch are lost and reported as wasted work.

        Returns:
            ``(request, tokens_generated)`` pairs in deterministic
            order: waiting queue first, then the running batch.
        """
        evacuated = [(request, 0) for request in self._waiting]
        for entry in self._running:
            self._release_kv(entry.request.request_id)
            evacuated.append((entry.request, entry.generated))
        self._waiting.clear()
        self._running.clear()
        for request, _ in evacuated:
            self._forget(request.request_id)
        # A crashed replica loses its pinned shared prefixes too.
        for tenant_id in self._prefix_resident:
            self.cache.free(prefix_seq_id(tenant_id))
        self._prefix_resident.clear()
        return evacuated

    def estimated_ttft_s(self, request: ServeRequest, now: float) -> float:
        """Deterministic TTFT estimate if ``request`` were routed here now.

        Counts the replica's clock lead over ``now``, the prefill work
        queued ahead of the request, and the request's own prefill —
        the quantity the cost/SLO-aware router compares against the
        TTFT SLO.  An underestimate under decode contention, but
        monotone in queue depth, which is what routing needs.
        """
        backlog = max(0.0, self._clock - now)
        backlog += self._scaled(sum(self._prefill_s(r.prompt_tokens)
                                    for r in self._waiting))
        return backlog + self._scaled(self._prefill_s(request.prompt_tokens))

    # -- KV isolation ---------------------------------------------------------

    def _kv_allocate(self, request: ServeRequest) -> None:
        """Allocate KV memory for an admitted request per isolation mode.

        Raises:
            MemoryError: If the request does not fit *right now* (the
                admission loop's signal to stop or look ahead).
        """
        if self.kv_isolation == "shared":
            self.cache.allocate(request.request_id, request.prompt_tokens)
            return
        tenant_id = request.tenant_id
        if self.kv_isolation == "partition":
            # Reserve the worst case up front: decode growth can then
            # never fail, so a partitioned replica never preempts and
            # tenants cannot evict each other.
            reserve = -(-(request.prompt_tokens + request.output_tokens)
                        // self.block_size)
            budget = self._tenant_budget[tenant_id]
            if reserve > budget:
                raise MemoryError(
                    f"tenant {tenant_id} partition has {budget} free "
                    f"blocks, request needs {reserve}")
            self.cache.allocate(request.request_id, request.prompt_tokens)
            self._tenant_budget[tenant_id] = budget - reserve
            self._kv_reserved[request.request_id] = (tenant_id, reserve)
            return
        # shared-prefix: the tenant's common prefix is pinned once under
        # a pseudo sequence id; requests allocate only their suffix.
        prefix = self.tenancy.prefix_of(tenant_id)
        usable = min(prefix, request.prompt_tokens - 1)
        if usable <= 0:
            self.cache.allocate(request.request_id, request.prompt_tokens)
            return
        suffix = request.prompt_tokens - usable
        suffix_blocks = -(-suffix // self.block_size)
        if tenant_id in self._prefix_resident:
            if suffix_blocks > self.cache.free_blocks:
                raise MemoryError(
                    f"need {suffix_blocks} blocks for request "
                    f"{request.request_id} suffix, only "
                    f"{self.cache.free_blocks} free")
            self.cache.allocate(request.request_id, suffix)
            self._prefix_hits += 1
            return
        prefix_blocks = -(-prefix // self.block_size)
        if prefix_blocks + suffix_blocks > self.cache.free_blocks:
            raise MemoryError(
                f"need {prefix_blocks + suffix_blocks} blocks to pin "
                f"tenant {tenant_id}'s prefix and admit request "
                f"{request.request_id}, only {self.cache.free_blocks} free")
        self.cache.allocate(prefix_seq_id(tenant_id), prefix)
        self.cache.allocate(request.request_id, suffix)
        self._prefix_resident[tenant_id] = prefix_blocks
        self._prefix_misses += 1

    def _release_kv(self, request_id: int) -> None:
        """Free a request's KV blocks and return any partition reserve."""
        self.cache.free(request_id)
        reserved = self._kv_reserved.pop(request_id, None)
        if reserved is not None:
            tenant_id, blocks = reserved
            self._tenant_budget[tenant_id] += blocks

    @property
    def prefix_hits(self) -> int:
        """Admissions that reused a resident shared prefix."""
        return self._prefix_hits

    @property
    def prefix_misses(self) -> int:
        """Admissions that had to pin a tenant's shared prefix."""
        return self._prefix_misses

    # -- admission ------------------------------------------------------------

    def _admit(self) -> None:
        """Admit arrived requests per policy while memory/slots allow."""
        if self._wfq:
            self._admit_wfq()
        else:
            self._admit_fcfs()

    def _admit_fcfs(self) -> None:
        """Admit arrived requests while memory and batch slots allow."""
        while (self._waiting and len(self._running) < self.max_batch
               and self._waiting[0].arrival_s <= self._clock):
            request = self._waiting[0]
            admitted_index = 0
            try:
                self._kv_allocate(request)
            except MemoryError:
                # Head-of-line blocking: strict FCFS stops here.  With
                # lookahead, scan a bounded window of arrived requests
                # for one that fits right now.
                admitted_index = -1
                for index in range(1, 1 + min(self.admission_lookahead,
                                              len(self._waiting) - 1)):
                    candidate = self._waiting[index]
                    if candidate.arrival_s > self._clock:
                        break
                    try:
                        self._kv_allocate(candidate)
                    except MemoryError:
                        continue
                    request = candidate
                    admitted_index = index
                    break
                if admitted_index < 0:
                    break
            self._waiting.pop(admitted_index)
            self._clock += self._scaled(self._prefill_s(request.prompt_tokens))
            outcome = self._outcomes[request.request_id]
            outcome.first_token_s = self._clock
            self._running.append(_Running(request=request, outcome=outcome))

    def _admit_wfq(self) -> None:
        """WFQ admission: serve arrived requests in virtual-finish order.

        The queue is tag-ordered, not arrival-ordered, so the head may
        not have arrived yet while a later entry has; the scan skips
        unarrived entries (they cost no lookahead budget) and treats the
        first arrived entry as the head of line.  On its allocation
        failure, ``admission_lookahead`` further *arrived* candidates
        are tried, exactly mirroring the FCFS window.
        """
        while self._waiting and len(self._running) < self.max_batch:
            head_index = -1
            for index, candidate in enumerate(self._waiting):
                if candidate.arrival_s <= self._clock:
                    head_index = index
                    break
            if head_index < 0:
                break  # nothing has arrived yet
            request = self._waiting[head_index]
            admitted_index = head_index
            try:
                self._kv_allocate(request)
            except MemoryError:
                admitted_index = -1
                scanned = 0
                for index in range(head_index + 1, len(self._waiting)):
                    if scanned >= self.admission_lookahead:
                        break
                    candidate = self._waiting[index]
                    if candidate.arrival_s > self._clock:
                        continue
                    scanned += 1
                    try:
                        self._kv_allocate(candidate)
                    except MemoryError:
                        continue
                    request = candidate
                    admitted_index = index
                    break
                if admitted_index < 0:
                    break
            self._waiting.pop(admitted_index)
            self._clock += self._scaled(self._prefill_s(request.prompt_tokens))
            # Advance the virtual clock to the admitted tag so freshly
            # tagged tenants start no earlier than the service frontier.
            tag = self._wfq_tag[request.request_id]
            if tag > self._wfq_v:
                self._wfq_v = tag
            outcome = self._outcomes[request.request_id]
            outcome.first_token_s = self._clock
            self._running.append(_Running(request=request, outcome=outcome))

    def _decode_once(self) -> list[RequestOutcome]:
        """One decode step for the whole batch; returns new finishes."""
        running = self._running
        contexts = [r.request.prompt_tokens + r.generated for r in running]
        mean_context = int(sum(contexts) / len(contexts))
        self._occupancy.append(len(running))
        self._clock += self._scaled(
            self._decode_step_s(len(running), max(1, mean_context)))

        finished: list[_Running] = []
        preempted_ids: set[int] = set()

        def preempt_youngest() -> _Running:
            victim = running[-1]
            self._release_kv(victim.request.request_id)
            victim.outcome.preemptions += 1
            victim.generated = 0
            running.remove(victim)
            if self._wfq:
                # The victim keeps its tag: it re-queues at its original
                # virtual position, not at the head.
                insort(self._waiting, victim.request, key=self._wfq_key)
            else:
                self._waiting.insert(0, victim.request)
            preempted_ids.add(victim.request.request_id)
            return victim

        for entry in list(running):
            if entry.request.request_id in preempted_ids:
                continue
            appended = False
            while not appended:
                try:
                    self.cache.append_token(entry.request.request_id)
                    appended = True
                except MemoryError:
                    # Preempt the youngest sequence; vLLM recomputes
                    # it from scratch on re-admission.
                    victim = preempt_youngest()
                    self._preemptions += 1
                    if victim is entry:
                        break
            if not appended:
                continue
            entry.generated += 1
            if entry.generated >= entry.request.output_tokens:
                finished.append(entry)
        results = []
        for entry in finished:
            entry.outcome.finish_s = self._clock
            self._release_kv(entry.request.request_id)
            running.remove(entry)
            results.append(entry.outcome)
        return results

    def step(self, until_s: float | None = None) -> list[RequestOutcome]:
        """Advance the serving loop up to a time horizon.

        Repeats admission/decode iterations while work exists and the
        local clock is below ``until_s`` (``None`` = run to completion).
        A decode or prefill step in flight at the horizon completes —
        steps are not preemptible — so the clock may end slightly past
        ``until_s``.  When the replica is idle, the clock jumps to the
        next arrival but never past the horizon (an idle replica's
        clock stays put so later submissions are not delayed).

        Returns:
            Outcomes of requests that finished during this call.
        """
        finished: list[RequestOutcome] = []
        while self._waiting or self._running:
            if until_s is not None and self._clock >= until_s:
                break
            if (not self._running and until_s is not None
                    and self._next_arrival_s() > until_s):
                break  # only future work remains in this horizon
            self._admit()
            if not self._running:
                # Idle until the next arrival.
                self._clock = max(self._clock, self._next_arrival_s())
                continue
            finished.extend(self._decode_once())
        return finished

    def _next_arrival_s(self) -> float:
        """Earliest arrival among waiting requests.

        Under FCFS the queue is arrival-ordered so the head suffices;
        under WFQ the queue is tag-ordered and must be scanned.
        """
        if self._wfq:
            return min(r.arrival_s for r in self._waiting)
        return self._waiting[0].arrival_s

    def report(self) -> ServingReport:
        """Aggregate metrics of everything served so far.

        Raises:
            ValueError: If nothing was ever submitted.
        """
        if not self._order:
            raise ValueError("no requests")
        ordered = tuple(self._outcomes[request_id]
                        for request_id in self._order)
        mean_occupancy = (sum(self._occupancy) / len(self._occupancy)
                          if self._occupancy else 0.0)
        start = self._first_arrival or 0.0
        return ServingReport(outcomes=ordered,
                             makespan_s=self._clock - start,
                             total_preemptions=self._preemptions,
                             mean_batch_occupancy=mean_occupancy,
                             start_s=start)

    # -- serving loop -----------------------------------------------------------

    def run(self, requests: list[ServeRequest]) -> ServingReport:
        """Serve a request stream to completion.

        A thin wrapper over :meth:`step`: validates the whole stream,
        installs it as the waiting queue, and steps to completion.
        Per-request timelines are bit-identical to the pre-steppable
        run-to-completion loop (pinned by ``repro.validate``).

        Raises:
            ValueError: If any single request cannot ever fit the KV pool.
        """
        if not requests:
            raise ValueError("no requests")
        for request in requests:
            self._check_fits(request)

        self._reset()
        if self._wfq:
            # WFQ tags chain per tenant in submission order, so the
            # stream is submitted individually in arrival order (the
            # order the fleet would deliver it).
            for request in sorted(requests,
                                  key=lambda r: (r.arrival_s, r.request_id)):
                self.submit(request)
        else:
            self._waiting = sorted(requests,
                                   key=lambda r: (r.arrival_s, r.request_id))
            self._outcomes = {r.request_id: RequestOutcome(request=r)
                              for r in requests}
            self._order = [r.request_id for r in requests]
            self._first_arrival = min(r.arrival_s for r in requests)
        self.step(None)
        return self.report()
