"""Continuous-batching serving simulation over columnar request state.

The paper's GPU experiments run vLLM, whose scheduler forms decode
batches dynamically from an arriving request stream and manages KV
memory in pages, preempting (and recomputing) requests when blocks run
out.  :class:`ColumnarScheduler` implements that serving loop; step
durations come from the same TEE-aware cost model as every other
experiment (via the shared :class:`~repro.serving.stepcost.StepCostTable`),
so serving SLAs (TTFT, end-to-end latency) can be compared across bare
metal, TDX, and (c)GPU deployments.  Request state lives in parallel
columns keyed by submission slot instead of per-request objects:

* arrival / prompt / output / priority / first-token / finish /
  preemption-count live in append-only ``array`` columns,
* the running batch is a set of parallel Python lists (ids, prompts,
  generated counts, held KV blocks),
* the paged KV cache collapses to block *counts* (a free counter plus
  per-sequence held counts) — block identities never influence
  scheduling, only availability does.

The scheduler is *incrementally steppable*: the fleet simulator
(:mod:`repro.fleet`) drives many replicas against a shared clock via
:meth:`~ColumnarScheduler.submit` and :meth:`~ColumnarScheduler.step`,
while :meth:`~ColumnarScheduler.run` is the single-replica
run-to-completion entry point.  :meth:`step` returns finished request
*ids*; the fleet reads their timelines via :meth:`finished_triple` and
materializes outcome objects only on demand.

Every result (admission decisions, prefill/decode charges, clock
values, preemption cascade order) matches the frozen
object-per-request oracle in :mod:`repro.validate.oracle`, which
allocates real KV blocks and keeps its own per-policy admission loops;
per-request timelines are **bit-identical** to it, pinned by the
``serving.columnar_reference_parity`` audit check.

Admission policy (head-of-line).  By default admission is strict FCFS:
the admission loop stops on the first queued request whose KV
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
cross-request shared-prefix pinning with hit/miss accounting).  One
admission loop serves every policy pair; with no config it gives the
same outcomes as the pre-tenancy scheduler.

Snapshots (:meth:`to_state`) use a columnar schema whose config
fingerprint carries ``"engine": "columnar"``.
"""

from __future__ import annotations

import math
from array import array
from bisect import insort

from ..engine.placement import Deployment
from ..llm.config import ModelConfig
from ..llm.datatypes import DType
from .admission import TenancyConfig
from .scheduler import RequestOutcome, ServeRequest, ServingReport
from .stepcost import StepCostTable


class ColumnarScheduler:
    """vLLM-style continuous batching over columnar request state.

    A state machine over (waiting, running, clock): :meth:`submit`
    enqueues requests, :meth:`step` advances the admission/decode/
    preemption loop up to a time horizon (the fleet simulator's
    shared-clock contract), and :meth:`run` serves a whole stream to
    completion in one call.

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
            isolation); ``None`` means FCFS admission over one shared
            pool, the pre-tenancy outcomes.
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
        self.num_blocks = max(1, kv_capacity_tokens // block_size)
        self._costs = StepCostTable.shared(deployment, model, dtype)
        self._time_scale = 1.0
        self._reset()

    def _reset(self) -> None:
        # Append-only per-request columns, indexed by submission slot.
        self._col_id = array("q")
        self._col_arrival = array("d")
        self._col_prompt = array("l")
        self._col_output = array("l")
        self._col_priority = array("l")
        self._col_tenant = array("l")
        self._col_first = array("d")
        self._col_finish = array("d")
        self._col_preempt = array("l")
        self._slot: dict[int, int] = {}   # live request id -> slot
        self._dead: set[int] = set()      # forgotten/released slots
        # Waiting queue: (arrival_s, request_id) tuples under FCFS,
        # (wfq_tag, arrival_s, request_id) under WFQ — either way the
        # request id is entry[-1] and the arrival entry[-2].  Sorted,
        # except that FCFS preemptions re-enter at the head.
        self._waiting: list[tuple] = []
        # Running batch as parallel lists.  ``_run_kvlen`` is the KV
        # length the sequence was admitted with — the prompt, or just
        # the suffix under shared-prefix isolation — the basis of the
        # block-boundary test during decode.
        self._run_ids: list[int] = []
        self._run_prompt: list[int] = []
        self._run_output: list[int] = []
        self._run_gen: list[int] = []
        self._run_blocks: list[int] = []
        self._run_slot: list[int] = []
        self._run_kvlen: list[int] = []
        self._free_blocks = self.num_blocks
        self._ctx_total = 0               # sum(prompt + generated) over batch
        self._clock = 0.0
        self._preemptions = 0
        self._occ_sum = 0
        self._occ_count = 0
        self._first_arrival: float | None = None
        # Tenancy runtime state (inert when unarmed); mirrors the
        # reference oracle field-for-field.
        self._wfq_v = 0.0
        self._wfq_fin: dict[int, float] = {}
        self._wfq_tag: dict[int, float] = {}
        self._prefix_resident: dict[int, int] = {}
        self._prefix_hits = 0
        self._prefix_misses = 0
        self._kv_reserved: dict[int, tuple[int, int]] = {}
        if self.tenancy is not None and self.kv_isolation == "partition":
            self._tenant_budget_cap = self.tenancy.partition_budgets(
                self.num_blocks)
            self._tenant_budget = dict(self._tenant_budget_cap)
        else:
            self._tenant_budget_cap = {}
            self._tenant_budget = {}

    # -- introspection --------------------------------------------------------

    @property
    def clock_s(self) -> float:
        """The replica's local wall clock."""
        return self._clock

    @property
    def outstanding(self) -> int:
        """Requests admitted or queued but not yet finished."""
        return len(self._waiting) + len(self._run_ids)

    @property
    def queue_depth(self) -> int:
        """Requests waiting for admission."""
        return len(self._waiting)

    @property
    def kv_free_fraction(self) -> float:
        """Fraction of the KV block pool currently free."""
        return self._free_blocks / self.num_blocks

    @property
    def idle(self) -> bool:
        """No admitted or queued work."""
        return not self._waiting and not self._run_ids

    @property
    def preemptions(self) -> int:
        """Preempt-and-recompute events so far."""
        return self._preemptions

    def advance_clock_to(self, now_s: float) -> None:
        """Move the local clock forward to ``now_s`` (never backward).

        The fleet uses this to floor a freshly booted replica's clock at
        its readiness time so held-back requests cannot be served in
        the past (and to skip a hung replica's stall window).
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
        cut) runs every prefill/decode step ``scale`` times slower.
        """
        if not math.isfinite(scale) or scale <= 0:
            raise ValueError("time_scale must be finite and positive")
        self._time_scale = scale

    def _scaled(self, step_s: float) -> float:
        # Guarded so the nominal path performs no float op at all.
        if self._time_scale != 1.0:
            return step_s * self._time_scale
        return step_s

    # -- request materialization ----------------------------------------------

    def _request_at(self, slot: int) -> ServeRequest:
        return ServeRequest(request_id=self._col_id[slot],
                            arrival_s=self._col_arrival[slot],
                            prompt_tokens=self._col_prompt[slot],
                            output_tokens=self._col_output[slot],
                            priority=self._col_priority[slot],
                            tenant_id=self._col_tenant[slot])

    def request(self, request_id: int) -> ServeRequest:
        """Materialize the live request with this id (value-equal copy)."""
        return self._request_at(self._slot[request_id])

    def output_tokens(self, request_id: int) -> int:
        """Output-token target of a live request (fleet accounting hook)."""
        return self._col_output[self._slot[request_id]]

    def finished_triple(self, request_id: int) -> tuple[float, float, int]:
        """``(first_token_s, finish_s, preemptions)`` of a live record."""
        slot = self._slot[request_id]
        return (self._col_first[slot], self._col_finish[slot],
                self._col_preempt[slot])

    def release(self, request_id: int) -> None:
        """Drop the live record of a *finished* request.

        The fleet simulator copies the timeline triple into its own
        columns as finishes surface, then releases the id here so the
        scheduler's live dict stays O(in-flight) over a 1M-request run.
        The append-only columns retain the slot (cheap: a few plain
        scalars), it just no longer appears in :meth:`report`.
        """
        self._forget(request_id)

    # -- admission ------------------------------------------------------------

    def _check_fits(self, request: ServeRequest) -> None:
        needed = request.prompt_tokens + request.output_tokens
        if needed > self.num_blocks * self.block_size:
            raise ValueError(
                f"request {request.request_id} needs {needed} KV tokens, "
                f"pool holds {self.num_blocks * self.block_size}")
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
            if own + pinned > self.num_blocks:
                raise ValueError(
                    f"request {request.request_id} needs {own} blocks "
                    f"beside {pinned} pinned prefix blocks, pool holds "
                    f"{self.num_blocks}")

    def submit(self, request: ServeRequest) -> None:
        """Enqueue one request for service (fleet/step entry point).

        Raises:
            ValueError: If the request cannot ever fit the KV pool or
                reuses an id still in flight.
        """
        self._check_fits(request)
        if request.request_id in self._slot:
            raise ValueError(f"request id {request.request_id} already "
                             "submitted to this replica")
        slot = len(self._col_id)
        self._col_id.append(request.request_id)
        self._col_arrival.append(request.arrival_s)
        self._col_prompt.append(request.prompt_tokens)
        self._col_output.append(request.output_tokens)
        self._col_priority.append(request.priority)
        self._col_tenant.append(request.tenant_id)
        self._col_first.append(0.0)
        self._col_finish.append(0.0)
        self._col_preempt.append(0)
        self._slot[request.request_id] = slot
        if self._wfq:
            # SCFQ tag: chain on the tenant's previous virtual finish,
            # floored at the global virtual clock.
            start = max(self._wfq_fin.get(request.tenant_id, 0.0),
                        self._wfq_v)
            tag = start + ((request.prompt_tokens + request.output_tokens)
                           / self.tenancy.weight_of(request.tenant_id))
            self._wfq_fin[request.tenant_id] = tag
            self._wfq_tag[request.request_id] = tag
            insort(self._waiting,
                   (tag, request.arrival_s, request.request_id))
        else:
            insort(self._waiting, (request.arrival_s, request.request_id))
        if (self._first_arrival is None
                or request.arrival_s < self._first_arrival):
            self._first_arrival = request.arrival_s

    def _forget(self, request_id: int) -> None:
        """Drop all live bookkeeping for a request."""
        self._wfq_tag.pop(request_id, None)
        slot = self._slot.pop(request_id, None)
        if slot is not None:
            self._dead.add(slot)

    def _release_reserve(self, request_id: int) -> None:
        """Return a partition-mode worst-case reservation, if any."""
        reserved = self._kv_reserved.pop(request_id, None)
        if reserved is not None:
            tenant_id, blocks = reserved
            self._tenant_budget[tenant_id] += blocks

    def cancel(self, request_id: int) -> tuple[ServeRequest, int] | None:
        """Withdraw an unfinished request (fleet timeout/retry hook)."""
        for index, entry in enumerate(self._waiting):
            if entry[-1] == request_id:
                request = self.request(request_id)
                self._waiting.pop(index)
                self._forget(request_id)
                return request, 0
        for index, rid in enumerate(self._run_ids):
            if rid == request_id:
                request = self.request(request_id)
                generated = self._run_gen[index]
                self._free_blocks += self._run_blocks[index]
                self._release_reserve(request_id)
                self._ctx_total -= self._run_prompt[index] + generated
                self._remove_running(index)
                self._forget(request_id)
                return request, generated
        return None

    def evacuate(self) -> list[tuple[ServeRequest, int]]:
        """Abort all in-flight work (replica crash hook)."""
        evacuated = [(self.request(entry[-1]), 0)
                     for entry in self._waiting]
        for index, rid in enumerate(self._run_ids):
            self._free_blocks += self._run_blocks[index]
            self._release_reserve(rid)
            evacuated.append((self.request(rid), self._run_gen[index]))
        self._waiting.clear()
        del self._run_ids[:]
        del self._run_prompt[:]
        del self._run_output[:]
        del self._run_gen[:]
        del self._run_blocks[:]
        del self._run_slot[:]
        del self._run_kvlen[:]
        self._ctx_total = 0
        for request, _ in evacuated:
            self._forget(request.request_id)
        # A crashed replica loses its pinned shared prefixes too.
        for blocks in self._prefix_resident.values():
            self._free_blocks += blocks
        self._prefix_resident.clear()
        return evacuated

    def _remove_running(self, index: int) -> None:
        del self._run_ids[index]
        del self._run_prompt[index]
        del self._run_output[index]
        del self._run_gen[index]
        del self._run_blocks[index]
        del self._run_slot[index]
        del self._run_kvlen[index]

    def estimated_ttft_s(self, request: ServeRequest, now: float) -> float:
        """Deterministic TTFT estimate if ``request`` were routed here now."""
        prefill_s = self._costs.prefill_s
        prompts = self._col_prompt
        slots = self._slot
        backlog = max(0.0, self._clock - now)
        backlog += self._scaled(sum(prefill_s(prompts[slots[entry[-1]]])
                                    for entry in self._waiting))
        return backlog + self._scaled(prefill_s(request.prompt_tokens))

    @property
    def prefix_hits(self) -> int:
        """Admissions that reused a resident shared prefix."""
        return self._prefix_hits

    @property
    def prefix_misses(self) -> int:
        """Admissions that had to pin a tenant's shared prefix."""
        return self._prefix_misses

    def _start_running(self, rid: int, slot: int, prompt: int,
                       blocks: int, kvlen: int) -> None:
        """Charge prefill and move an admitted request into the batch."""
        self._clock += self._scaled(self._costs.prefill_s(prompt))
        self._col_first[slot] = self._clock
        self._run_ids.append(rid)
        self._run_prompt.append(prompt)
        self._run_output.append(self._col_output[slot])
        self._run_gen.append(0)
        self._run_blocks.append(blocks)
        self._run_slot.append(slot)
        self._run_kvlen.append(kvlen)
        self._ctx_total += prompt

    def _kv_admit(self, rid: int, slot: int) -> tuple[int, int] | None:
        """Allocate KV blocks for an admitted request per isolation mode.

        Returns ``(blocks_taken, kvlen)`` on success (the free counter
        already debited), or ``None`` if the request does not fit right
        now — the same decisions, in the same order, as the oracle's
        cache-backed ``_kv_allocate``.
        """
        block_size = self.block_size
        prompt = self._col_prompt[slot]
        if self.kv_isolation == "shared":
            needed = -(-prompt // block_size)
            if needed > self._free_blocks:
                return None
            self._free_blocks -= needed
            return needed, prompt
        tenant_id = self._col_tenant[slot]
        if self.kv_isolation == "partition":
            reserve = -(-(prompt + self._col_output[slot]) // block_size)
            budget = self._tenant_budget[tenant_id]
            if reserve > budget:
                return None
            needed = -(-prompt // block_size)
            self._free_blocks -= needed
            self._tenant_budget[tenant_id] = budget - reserve
            self._kv_reserved[rid] = (tenant_id, reserve)
            return needed, prompt
        # shared-prefix
        prefix = self.tenancy.prefix_of(tenant_id)
        usable = min(prefix, prompt - 1)
        if usable <= 0:
            needed = -(-prompt // block_size)
            if needed > self._free_blocks:
                return None
            self._free_blocks -= needed
            return needed, prompt
        suffix = prompt - usable
        suffix_blocks = -(-suffix // block_size)
        if tenant_id in self._prefix_resident:
            if suffix_blocks > self._free_blocks:
                return None
            self._free_blocks -= suffix_blocks
            self._prefix_hits += 1
            return suffix_blocks, suffix
        prefix_blocks = -(-prefix // block_size)
        if prefix_blocks + suffix_blocks > self._free_blocks:
            return None
        self._free_blocks -= prefix_blocks + suffix_blocks
        self._prefix_resident[tenant_id] = prefix_blocks
        self._prefix_misses += 1
        return suffix_blocks, suffix

    def _admit(self) -> None:
        """Admit arrived requests per policy while memory/slots allow.

        Each pass walks the waiting queue in order.  An unarrived entry
        ends the walk under FCFS (the queue is arrival-ordered, so
        nothing behind it has arrived either) and is skipped under WFQ
        (the queue is tag-ordered, so a later entry may have arrived).
        The first arrived entry is the head of line; on its KV
        allocation failure ``admission_lookahead`` further *arrived*
        entries are tried, and the first that fits is admitted (the
        head keeps its queue position).  The pass stops after one
        admission, or with none once the window is exhausted.
        """
        waiting = self._waiting
        wfq = self._wfq
        window = self.admission_lookahead + 1
        while waiting and len(self._run_ids) < self.max_batch:
            clock = self._clock
            tries = window
            taken = None
            for index, entry in enumerate(waiting):
                if entry[-2] > clock:
                    if wfq:
                        continue
                    break
                rid = entry[-1]
                slot = self._slot[rid]
                taken = self._kv_admit(rid, slot)
                if taken is not None:
                    break
                tries -= 1
                if not tries:
                    break
            if taken is None:
                return
            waiting.pop(index)
            blocks, kvlen = taken
            self._start_running(rid, slot, self._col_prompt[slot],
                                blocks, kvlen)
            if wfq:
                tag = self._wfq_tag[rid]
                if tag > self._wfq_v:
                    self._wfq_v = tag

    # -- decode ----------------------------------------------------------------

    def _decode_once(self) -> list[int]:
        """One decode step for the whole batch; returns finished ids."""
        run_ids = self._run_ids
        run_gen = self._run_gen
        run_prompt = self._run_prompt
        run_blocks = self._run_blocks
        run_kvlen = self._run_kvlen
        batch = len(run_ids)
        mean_context = int(self._ctx_total / batch)
        self._occ_sum += batch
        self._occ_count += 1
        self._clock += self._scaled(
            self._costs.decode_step_s(batch, max(1, mean_context)))

        block_size = self.block_size
        preempted: set[int] = set()
        finished: list[tuple[int, int]] = []  # (index, request_id)

        def preempt_youngest() -> int:
            victim_id = run_ids.pop()
            victim_prompt = run_prompt.pop()
            self._run_output.pop()
            victim_gen = run_gen.pop()
            self._free_blocks += run_blocks.pop()
            victim_slot = self._run_slot.pop()
            run_kvlen.pop()
            self._release_reserve(victim_id)
            self._col_preempt[victim_slot] += 1
            self._ctx_total -= victim_prompt + victim_gen
            if self._wfq:
                # The victim keeps its tag: it re-queues at its
                # original virtual position, not at the head.
                insort(self._waiting,
                       (self._wfq_tag[victim_id],
                        self._col_arrival[victim_slot], victim_id))
            else:
                self._waiting.insert(0, (self._col_arrival[victim_slot],
                                         victim_id))
            preempted.add(victim_id)
            return victim_id

        # In-loop removals only pop from the tail, so an entry that
        # survives keeps its index — the snapshot index stays valid.
        for index, rid in enumerate(list(run_ids)):
            if rid in preempted:
                continue
            generated = run_gen[index]
            kvlen = run_kvlen[index]
            appended = False
            while not appended:
                if (kvlen + generated) % block_size == 0:
                    # The next token crosses a block boundary.
                    if self._free_blocks == 0:
                        # Preempt the youngest sequence; vLLM recomputes
                        # it from scratch on re-admission.
                        victim_id = preempt_youngest()
                        self._preemptions += 1
                        if victim_id == rid:
                            break
                        continue
                    self._free_blocks -= 1
                    run_blocks[index] += 1
                generated += 1
                run_gen[index] = generated
                self._ctx_total += 1
                appended = True
            if not appended:
                continue
            if generated >= self._run_output[index]:
                finished.append((index, rid))

        if not finished:
            return []
        results: list[int] = []
        for index, rid in finished:
            if index >= len(run_ids) or run_ids[index] != rid:
                # Cannot arise: a finished entry holds its blocks until
                # this cleanup, so no later preemption can pick it.
                raise RuntimeError("finished entry vanished mid-step")
            slot = self._run_slot[index]
            self._col_finish[slot] = self._clock
            self._free_blocks += run_blocks[index]
            self._release_reserve(rid)
            self._ctx_total -= run_prompt[index] + run_gen[index]
            results.append(rid)
        for index, _ in reversed(finished):
            self._remove_running(index)
        return results

    def step(self, until_s: float | None = None) -> list[int]:
        """Advance the serving loop up to a time horizon.

        Repeats admission/decode iterations while work exists and the
        local clock is below ``until_s`` (``None`` = run to completion).
        A decode or prefill step in flight at the horizon completes —
        steps are not preemptible — so the clock may end slightly past
        ``until_s``.  When the replica is idle, the clock jumps to the
        next arrival but never past the horizon.

        Returns:
            Ids of requests that finished during this call (read their
            timelines via :meth:`finished_triple`).
        """
        finished: list[int] = []
        while self._waiting or self._run_ids:
            if until_s is not None and self._clock >= until_s:
                break
            if (not self._run_ids and until_s is not None
                    and self._next_arrival_s() > until_s):
                break  # only future work remains in this horizon
            self._admit()
            if not self._run_ids:
                # Idle until the next arrival.
                arrival = self._next_arrival_s()
                if arrival > self._clock:
                    self._clock = arrival
                continue
            finished.extend(self._decode_once())
        return finished

    def _next_arrival_s(self) -> float:
        """Earliest arrival among waiting requests.

        Under FCFS the queue is arrival-ordered so the head suffices;
        under WFQ the queue is tag-ordered and must be scanned.
        """
        if self._wfq:
            return min(entry[-2] for entry in self._waiting)
        return self._waiting[0][0]

    def report(self) -> ServingReport:
        """Aggregate metrics of everything served so far.

        Materializes transient :class:`RequestOutcome` objects from the
        columns, in submission order.

        Raises:
            ValueError: If nothing was ever submitted.
        """
        outcomes = tuple(
            RequestOutcome(request=self._request_at(slot),
                           first_token_s=self._col_first[slot],
                           finish_s=self._col_finish[slot],
                           preemptions=self._col_preempt[slot])
            for slot in range(len(self._col_id))
            if slot not in self._dead)
        if not outcomes:
            raise ValueError("no requests")
        mean_occupancy = (self._occ_sum / self._occ_count
                          if self._occ_count else 0.0)
        start = self._first_arrival or 0.0
        return ServingReport(outcomes=outcomes,
                             makespan_s=self._clock - start,
                             total_preemptions=self._preemptions,
                             mean_batch_occupancy=mean_occupancy,
                             start_s=start)

    def run(self, requests: list[ServeRequest]) -> ServingReport:
        """Serve a request stream to completion (single-replica mode).

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
            # stream is submitted in arrival order (the order the fleet
            # would deliver it).
            ordered = sorted(requests,
                             key=lambda r: (r.arrival_s, r.request_id))
        else:
            ordered = requests
        for request in ordered:
            if request.request_id in self._slot:
                raise ValueError(f"request id {request.request_id} already "
                                 "submitted to this replica")
            self.submit(request)
        self.step(None)
        return self.report()

    # -- checkpoint/restore ---------------------------------------------------

    def config_fingerprint(self) -> dict:
        """Configuration identity, for restore checks.

        Carries ``"engine": "columnar"`` so a scheduler payload written
        by the retired object-per-request schema (no such key) refuses
        to restore here.
        """
        fingerprint = {
            "engine": "columnar",
            "model": self.model.name,
            "dtype": self.dtype.name,
            "max_batch": self.max_batch,
            "block_size": self.block_size,
            "admission_lookahead": self.admission_lookahead,
            "num_blocks": self.num_blocks,
        }
        # Key added only when armed: unarmed fingerprints (and thus
        # pre-tenancy snapshots) stay byte-compatible.
        if self.tenancy is not None:
            fingerprint["tenancy"] = self.tenancy.fingerprint()
        return fingerprint

    def to_state(self) -> dict:
        """Plain-dict snapshot of the columnar state machine."""
        state = {
            "config": self.config_fingerprint(),
            "clock_s": self._clock,
            "preemptions": self._preemptions,
            "occ_sum": self._occ_sum,
            "occ_count": self._occ_count,
            "first_arrival_s": self._first_arrival,
            "time_scale": self._time_scale,
            "free_blocks": self._free_blocks,
            "columns": {
                "id": list(self._col_id),
                "arrival": list(self._col_arrival),
                "prompt": list(self._col_prompt),
                "output": list(self._col_output),
                "priority": list(self._col_priority),
                "tenant": list(self._col_tenant),
                "first": list(self._col_first),
                "finish": list(self._col_finish),
                "preempt": list(self._col_preempt),
            },
            "dead": sorted(self._dead),
            "waiting": [list(entry) for entry in self._waiting],
            "running": [{"request_id": self._run_ids[i],
                         "generated": self._run_gen[i],
                         "blocks": self._run_blocks[i],
                         "slot": self._run_slot[i],
                         "kv_tokens": self._run_kvlen[i]}
                        for i in range(len(self._run_ids))],
        }
        if self.tenancy is not None:
            state["tenancy"] = {
                "wfq_v": self._wfq_v,
                "wfq_fin": {str(tenant_id): fin
                            for tenant_id, fin in self._wfq_fin.items()},
                "wfq_tags": {str(request_id): tag
                             for request_id, tag in self._wfq_tag.items()},
                "tenant_budget": {str(tenant_id): budget
                                  for tenant_id, budget
                                  in self._tenant_budget.items()},
                "reserved": {str(request_id): [tenant_id, blocks]
                             for request_id, (tenant_id, blocks)
                             in self._kv_reserved.items()},
                "prefix_resident": {str(tenant_id): blocks
                                    for tenant_id, blocks
                                    in self._prefix_resident.items()},
                "prefix_hits": self._prefix_hits,
                "prefix_misses": self._prefix_misses,
            }
        return state

    def from_state(self, state: dict) -> None:
        """Install a :meth:`to_state` snapshot into this scheduler.

        Raises:
            repro.state.errors.StateIntegrityError: If the snapshot's
                config fingerprint does not match this scheduler or its
                internal invariants do not hold.
        """
        from ..state.errors import StateIntegrityError
        from ..state.schema import require

        config = require(state, "config", dict, "$.scheduler")
        mine = self.config_fingerprint()
        if config != mine:
            diverged = sorted(key for key in set(config) | set(mine)
                              if config.get(key) != mine.get(key))
            raise StateIntegrityError(
                f"scheduler snapshot was taken on a different "
                f"configuration (mismatched: {diverged})")

        columns = require(state, "columns", dict, "$.scheduler")
        cols = {name: require(columns, name, list, "$.scheduler.columns")
                for name in ("id", "arrival", "prompt", "output", "priority",
                             "first", "finish", "preempt")}
        length = len(cols["id"])
        # Lenient: pre-tenancy snapshots have no tenant column.
        cols["tenant"] = (require(columns, "tenant", list,
                                  "$.scheduler.columns")
                          if "tenant" in columns else [0] * length)
        if any(len(values) != length for values in cols.values()):
            raise StateIntegrityError("ragged columnar snapshot")
        dead = {int(slot) for slot in require(state, "dead", list,
                                              "$.scheduler")}
        if any(slot < 0 or slot >= length for slot in dead):
            raise StateIntegrityError("dead slot out of range")
        slot_map: dict[int, int] = {}
        for slot in range(length):
            if slot in dead:
                continue
            rid = int(cols["id"][slot])
            if rid in slot_map:
                raise StateIntegrityError(
                    f"request {rid} is live in two slots")
            slot_map[rid] = slot

        expected_width = 3 if self._wfq else 2
        waiting: list[tuple] = []
        for pair in require(state, "waiting", list, "$.scheduler"):
            if len(pair) != expected_width:
                raise StateIntegrityError(
                    f"waiting entry width {len(pair)} does not match the "
                    f"{self.admission!r} admission policy")
            rid = int(pair[-1])
            if rid not in slot_map:
                raise StateIntegrityError(
                    f"waiting request {rid} has no live column slot")
            if self._wfq:
                waiting.append((float(pair[0]), float(pair[1]), rid))
            else:
                waiting.append((float(pair[0]), rid))
        run_ids: list[int] = []
        run_gen: list[int] = []
        run_blocks: list[int] = []
        run_slot: list[int] = []
        run_kvlen: list[int] = []
        for entry in require(state, "running", list, "$.scheduler"):
            rid = require(entry, "request_id", int, "$.scheduler.running")
            if rid not in slot_map:
                raise StateIntegrityError(
                    f"running request {rid} has no live column slot")
            run_ids.append(rid)
            run_gen.append(require(entry, "generated", int,
                                   "$.scheduler.running"))
            run_blocks.append(require(entry, "blocks", int,
                                      "$.scheduler.running"))
            slot = require(entry, "slot", int, "$.scheduler.running")
            run_slot.append(slot)
            # Lenient: pre-tenancy snapshots carry no kv_tokens (the
            # KV length always equalled the prompt).
            run_kvlen.append(int(entry.get("kv_tokens",
                                           cols["prompt"][slot])))
        tenancy_payload = None
        pinned_blocks = 0
        if self.tenancy is not None:
            tenancy_payload = require(state, "tenancy", dict, "$.scheduler")
            pinned_blocks = sum(
                int(blocks) for blocks in
                require(tenancy_payload, "prefix_resident", dict,
                        "$.scheduler.tenancy").values())
        free_blocks = require(state, "free_blocks", int, "$.scheduler")
        if free_blocks + sum(run_blocks) + pinned_blocks != self.num_blocks:
            raise StateIntegrityError(
                "KV block conservation violated in snapshot")

        self._col_id = array("q", (int(v) for v in cols["id"]))
        self._col_arrival = array("d", (float(v) for v in cols["arrival"]))
        self._col_prompt = array("l", (int(v) for v in cols["prompt"]))
        self._col_output = array("l", (int(v) for v in cols["output"]))
        self._col_priority = array("l", (int(v) for v in cols["priority"]))
        self._col_tenant = array("l", (int(v) for v in cols["tenant"]))
        self._col_first = array("d", (float(v) for v in cols["first"]))
        self._col_finish = array("d", (float(v) for v in cols["finish"]))
        self._col_preempt = array("l", (int(v) for v in cols["preempt"]))
        self._slot = slot_map
        self._dead = dead
        self._waiting = waiting
        self._run_ids = run_ids
        self._run_prompt = [self._col_prompt[s] for s in run_slot]
        self._run_output = [self._col_output[s] for s in run_slot]
        self._run_gen = run_gen
        self._run_blocks = run_blocks
        self._run_slot = run_slot
        self._run_kvlen = run_kvlen
        self._free_blocks = free_blocks
        self._ctx_total = sum(self._run_prompt) + sum(run_gen)
        self._clock = require(state, "clock_s", float, "$.scheduler")
        self._preemptions = require(state, "preemptions", int, "$.scheduler")
        self._occ_sum = require(state, "occ_sum", int, "$.scheduler")
        self._occ_count = require(state, "occ_count", int, "$.scheduler")
        first = state.get("first_arrival_s")
        self._first_arrival = None if first is None else float(first)
        self._time_scale = require(state, "time_scale", float, "$.scheduler")
        if tenancy_payload is not None:
            self._restore_tenancy(tenancy_payload)

    def _restore_tenancy(self, payload: dict) -> None:
        """Install a tenancy runtime payload (post-restore)."""
        from ..state.errors import StateIntegrityError
        from ..state.schema import require, require_finite

        self._wfq_v = require_finite(payload, "wfq_v", "$.scheduler.tenancy")
        self._wfq_fin = {int(k): float(v) for k, v in
                         require(payload, "wfq_fin", dict,
                                 "$.scheduler.tenancy").items()}
        self._wfq_tag = {int(k): float(v) for k, v in
                         require(payload, "wfq_tags", dict,
                                 "$.scheduler.tenancy").items()}
        self._tenant_budget = {int(k): int(v) for k, v in
                               require(payload, "tenant_budget", dict,
                                       "$.scheduler.tenancy").items()}
        self._kv_reserved = {int(k): (int(v[0]), int(v[1])) for k, v in
                             require(payload, "reserved", dict,
                                     "$.scheduler.tenancy").items()}
        self._prefix_resident = {int(k): int(v) for k, v in
                                 require(payload, "prefix_resident", dict,
                                         "$.scheduler.tenancy").items()}
        self._prefix_hits = require(payload, "prefix_hits", int,
                                    "$.scheduler.tenancy")
        self._prefix_misses = require(payload, "prefix_misses", int,
                                      "$.scheduler.tenancy")
        if self._wfq:
            for entry in self._waiting:
                if entry[-1] not in self._wfq_tag:
                    raise StateIntegrityError(
                        f"waiting request {entry[-1]} has no WFQ tag in "
                        f"the snapshot")
