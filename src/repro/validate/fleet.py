"""Fleet and steppable-scheduler audit checks (all three families).

The production :class:`~repro.serving.columnar.ColumnarScheduler` and
the fleet layer on top of it get the same treatment as every other fast
path in the repository: a slower, simpler twin to diff against, a set
of directional invariants, and a golden snapshot of the headline
capacity-planning numbers.

* ``serving.columnar_reference_parity`` (differential) drives the
  production scheduler and the frozen object-per-request oracle
  (:mod:`repro.validate.oracle`) through one seeded script of
  submits (including requests too big for their partition), steps,
  cancels, evacuations, slowdowns, clock advances and TTFT estimates,
  and requires every observable to agree exactly after every
  operation.
* ``serving.legacy_loop_parity`` (differential) re-implements the
  pre-steppable run-to-completion loop verbatim and requires the
  oracle's ``run()`` to reproduce it **bit-identically**.
* ``serving.step_run_parity`` (differential) drives the same stream
  through the oracle's ``submit``/``step`` at several horizon cadences
  and requires exact equality with its ``run()``.
* ``fleet.*`` metamorphic checks encode cluster-level physics: adding
  a replica never raises p99 TTFT under fixed load, requests are
  conserved through routing/autoscaling, fleet runs are deterministic.
* ``golden.fleet_capacity`` snapshots the capacity-planning sweep (the
  capacity grid run in memory) — replicas needed and $/Mtok at the p99
  TTFT SLO for TDX and cGPU fleets on a fixed trace.
"""

from __future__ import annotations

import random
from dataclasses import replace

from ..fleet import (
    CapacityPlan,
    fixed_fleet,
    poisson_table,
    replica_spec,
)
from ..llm.kvcache import PagedKVCache
from ..serving.admission import TenancyConfig
from ..serving.columnar import ColumnarScheduler
from ..serving.scheduler import ServeRequest, poisson_stream
from .context import AuditContext
from .golden import _golden
from .oracle import ContinuousBatchingScheduler
from .registry import CheckFailure, check


def _legacy_run(scheduler: ContinuousBatchingScheduler, requests):
    """The pre-steppable run-to-completion loop, verbatim.

    A frozen transcription of the original
    ``ContinuousBatchingScheduler.run`` body (run state lived in
    locals, one monolithic while loop).  Returns per-request
    ``(first_token_s, finish_s, preemptions)`` plus the final clock —
    the ground truth the refactored ``run`` must match bit-for-bit.
    """
    cache = PagedKVCache(num_blocks=scheduler.cache.num_blocks,
                         block_size=scheduler.block_size)
    waiting = sorted(requests, key=lambda r: (r.arrival_s, r.request_id))
    timeline = {r.request_id: [0.0, 0.0, 0] for r in requests}
    running: list = []  # (request, generated) mutable pairs
    clock = 0.0
    preemptions = 0
    occupancy: list[int] = []

    while waiting or running:
        while (waiting and len(running) < scheduler.max_batch
               and waiting[0].arrival_s <= clock):
            request = waiting[0]
            try:
                cache.allocate(request.request_id, request.prompt_tokens)
            except MemoryError:
                break
            waiting.pop(0)
            clock += scheduler._prefill_s(request.prompt_tokens)
            timeline[request.request_id][0] = clock
            running.append([request, 0])
        if not running:
            clock = max(clock, waiting[0].arrival_s)
            continue
        contexts = [entry[0].prompt_tokens + entry[1] for entry in running]
        mean_context = int(sum(contexts) / len(contexts))
        occupancy.append(len(running))
        clock += scheduler._decode_step_s(len(running), max(1, mean_context))

        finished = []
        preempted_ids: set[int] = set()

        def preempt_youngest():
            victim = running[-1]
            cache.free(victim[0].request_id)
            timeline[victim[0].request_id][2] += 1
            victim[1] = 0
            running.remove(victim)
            waiting.insert(0, victim[0])
            preempted_ids.add(victim[0].request_id)
            return victim

        for entry in list(running):
            if entry[0].request_id in preempted_ids:
                continue
            appended = False
            while not appended:
                try:
                    cache.append_token(entry[0].request_id)
                    appended = True
                except MemoryError:
                    victim = preempt_youngest()
                    preemptions += 1
                    if victim is entry:
                        break
            if not appended:
                continue
            entry[1] += 1
            if entry[1] >= entry[0].output_tokens:
                finished.append(entry)
        for entry in finished:
            timeline[entry[0].request_id][1] = clock
            cache.free(entry[0].request_id)
            running.remove(entry)

    mean_occupancy = sum(occupancy) / len(occupancy) if occupancy else 0.0
    return timeline, clock, preemptions, mean_occupancy


def _serving_cases(ctx: AuditContext):
    """(label, scheduler-factory, stream) cases shared by the parity checks."""
    def scheduler(backend: str, kv: int, batch: int):
        deployment = (ctx.gpu(confidential=True) if backend == "cgpu"
                      else ctx.cpu(backend))
        return ContinuousBatchingScheduler(deployment, ctx.model, ctx.dtype,
                                           kv_capacity_tokens=kv,
                                           max_batch=batch)
    return (
        ("tdx/relaxed", lambda: scheduler("tdx", 65536, 16),
         poisson_stream(16, 4.0, mean_prompt=128, mean_output=32, seed=2)),
        ("baremetal/preempting", lambda: scheduler("baremetal", 1024, 8),
         poisson_stream(20, 2.0, mean_prompt=96, mean_output=48, seed=7)),
        ("cgpu/bursty", lambda: scheduler("cgpu", 16384, 32),
         poisson_stream(24, 8.0, mean_prompt=256, mean_output=64, seed=17)),
    )


@check("serving.legacy_loop_parity", family="differential",
       layers=("serving", "fleet"))
def legacy_loop_parity(ctx: AuditContext) -> str:
    """run() reproduces the pre-steppable monolithic loop bit-identically."""
    checked = 0
    for label, make, stream in _serving_cases(ctx):
        report = make().run(stream)
        timeline, clock, preemptions, occupancy = _legacy_run(make(), stream)
        if report.total_preemptions != preemptions:
            raise CheckFailure(f"{label}: preemption counts diverge")
        if report.mean_batch_occupancy != occupancy:
            raise CheckFailure(f"{label}: occupancy diverged")
        if report.start_s + report.makespan_s != clock:
            raise CheckFailure(
                f"{label}: end clock {report.start_s + report.makespan_s!r} "
                f"!= legacy {clock!r}")
        for outcome in report.outcomes:
            first, finish, preempts = timeline[outcome.request.request_id]
            # Bit-identical means float equality, not tolerance.
            if (outcome.first_token_s != first
                    or outcome.finish_s != finish
                    or outcome.preemptions != preempts):
                raise CheckFailure(
                    f"{label}: request {outcome.request.request_id} timeline "
                    f"diverged from the legacy loop")
            checked += 1
    return f"{checked} request timelines bit-identical across 3 streams"


@check("serving.step_run_parity", family="differential",
       layers=("serving", "fleet"))
def step_run_parity(ctx: AuditContext) -> str:
    """submit()+step() at any cadence equals run() exactly."""
    horizons = (0.1, 5.0)  # fine- and coarse-grained stepping cadences
    checked = 0
    for label, make, stream in _serving_cases(ctx):
        expected = make().run(stream)
        for horizon in horizons:
            scheduler = make()
            for request in stream:
                scheduler.submit(request)
            clock = 0.0
            while not scheduler.idle:
                clock += horizon
                scheduler.step(clock)
            got = scheduler.report()
            pairs = zip(expected.outcomes, got.outcomes)
            if any((a.first_token_s, a.finish_s, a.preemptions)
                   != (b.first_token_s, b.finish_s, b.preemptions)
                   for a, b in pairs):
                raise CheckFailure(
                    f"{label}: stepped horizon {horizon} diverged from run()")
            if (expected.makespan_s != got.makespan_s
                    or expected.mean_batch_occupancy
                    != got.mean_batch_occupancy):
                raise CheckFailure(
                    f"{label}: aggregate metrics diverged at horizon "
                    f"{horizon}")
            checked += 1
    return f"{checked} (stream, horizon) pairs exact"


# -- production scheduler vs the frozen oracle --------------------------------

#: Tenancy setups the reference script runs under: every admission
#: policy (FCFS, WFQ) crossed with every KV isolation mode (shared,
#: partition, shared-prefix), since one admission loop serves all six.
#: Tenant 3 is deliberately unconfigured (weight 1, no prefix, and no
#: partition — a partitioned replica must refuse it).
_REFERENCE_WEIGHTS = ((0, 4.0), (1, 2.0), (2, 1.0))
_REFERENCE_SHARES = ((0, 0.5), (1, 0.3), (2, 0.2))
_REFERENCE_PREFIXES = ((0, 64), (1, 40))
_REFERENCE_TENANCY = (
    ("none", None),
    ("wfq", TenancyConfig(admission="wfq", weights=_REFERENCE_WEIGHTS)),
    ("partition", TenancyConfig(
        kv_isolation="partition", partition_shares=_REFERENCE_SHARES)),
    ("partition+wfq", TenancyConfig(
        admission="wfq", weights=_REFERENCE_WEIGHTS,
        kv_isolation="partition", partition_shares=_REFERENCE_SHARES)),
    ("shared-prefix", TenancyConfig(
        kv_isolation="shared-prefix", prefix_tokens=_REFERENCE_PREFIXES)),
    ("shared-prefix+wfq", TenancyConfig(
        admission="wfq", weights=_REFERENCE_WEIGHTS,
        kv_isolation="shared-prefix", prefix_tokens=_REFERENCE_PREFIXES)),
)

#: Operation mix of the reference script (relative weights).
_REFERENCE_OPS = (("submit", 35), ("step", 30), ("estimate", 12),
                  ("cancel", 8), ("time_scale", 5), ("advance", 5),
                  ("evacuate", 2), ("duplicate", 3))


def _attempt(call):
    """``("ok", result)`` or ``("error", message)`` of one operation."""
    try:
        return "ok", call()
    except ValueError as error:
        return "error", str(error)


def _reference_script(oracle, core, seed: int, operations: int) -> int:
    """Drive both schedulers through one seeded script; returns #ops.

    Raises :class:`CheckFailure` at the first operation whose result,
    or whose scheduler state afterwards, differs between the two.
    """
    rng = random.Random(seed)
    names = [name for name, _ in _REFERENCE_OPS]
    weights = [weight for _, weight in _REFERENCE_OPS]
    # Time unit: one 256-token prefill on this backend (the idle
    # scheduler's TTFT estimate), so every backend sees similar load.
    unit = core.estimated_ttft_s(
        ServeRequest(request_id=0, arrival_s=0.0, prompt_tokens=256,
                     output_tokens=8), 0.0)
    now = 0.0
    next_id = 0
    submitted: list[int] = []
    withdrawn: list[ServeRequest] = []

    def fresh_request() -> ServeRequest:
        nonlocal next_id
        if rng.random() < 0.05:
            # Too big for a tenant partition, for the pool beside the
            # pinned shared prefixes, or for the whole pool.
            prompt, output = rng.choice(((400, 120), (1000, 16),
                                         (900, 200)))
        else:
            # A coarse prompt grid (step 23 visits every residue mod the
            # 16-token block) keeps the cold prefill-cost memo small.
            prompt, output = rng.randrange(16, 330, 23), rng.randint(8, 120)
        arrival = max(0.0, now + rng.uniform(-6.0, 3.0) * unit)
        request = ServeRequest(request_id=next_id, arrival_s=arrival,
                               prompt_tokens=prompt, output_tokens=output,
                               tenant_id=rng.randrange(4))
        next_id += 1
        return request

    for index in range(operations):
        op = rng.choices(names, weights)[0]
        if op == "submit":
            if withdrawn and rng.random() < 0.5:
                # Resubmit a cancelled/evacuated request, as a retry.
                request = withdrawn.pop(rng.randrange(len(withdrawn)))
            else:
                request = fresh_request()
            submitted.append(request.request_id)
            got = (_attempt(lambda: oracle.submit(request)),
                   _attempt(lambda: core.submit(request)))
        elif op == "duplicate":
            if not submitted:
                continue
            rid = rng.choice(submitted)
            twin = ServeRequest(request_id=rid, arrival_s=now,
                                prompt_tokens=32, output_tokens=8)
            got = (_attempt(lambda: oracle.submit(twin)),
                   _attempt(lambda: core.submit(twin)))
        elif op == "step":
            now += rng.expovariate(0.25) * unit
            outcomes = oracle.step(now)
            finished = core.step(now)
            got = ([(o.request.request_id, o.first_token_s, o.finish_s,
                     o.preemptions) for o in outcomes],
                   [(rid, *core.finished_triple(rid)) for rid in finished])
        elif op == "estimate":
            probe = fresh_request()
            got = (oracle.estimated_ttft_s(probe, now),
                   core.estimated_ttft_s(probe, now))
        elif op == "cancel":
            pool = submitted + [next_id + 7]
            rid = rng.choice(pool)
            got = (oracle.cancel(rid), core.cancel(rid))
            if got[0] is not None:
                withdrawn.append(got[0][0])
        elif op == "evacuate":
            got = (oracle.evacuate(), core.evacuate())
            withdrawn.extend(request for request, _ in got[0])
        elif op == "time_scale":
            scale = rng.choice((1.0, 1.0, 1.5, 3.0))
            oracle.time_scale = core.time_scale = scale
            got = (oracle.time_scale, core.time_scale)
        else:  # advance
            target = now + rng.uniform(-3.0, 6.0) * unit
            oracle.advance_clock_to(target)
            core.advance_clock_to(target)
            got = (None, None)
        state = [(s.clock_s, s.outstanding, s.queue_depth,
                  s.kv_free_fraction, s.preemptions, s.prefix_hits,
                  s.prefix_misses, s.idle) for s in (oracle, core)]
        if got[0] != got[1] or state[0] != state[1]:
            raise CheckFailure(
                f"seed {seed}, operation {index} ({op}): oracle "
                f"{got[0]!r:.200} / {state[0]} vs core {got[1]!r:.200} / "
                f"{state[1]}")
    oracle.step(None)
    core.step(None)
    expected, actual = oracle.report(), core.report()
    if ([(o.request, o.first_token_s, o.finish_s, o.preemptions)
         for o in expected.outcomes]
            != [(o.request, o.first_token_s, o.finish_s, o.preemptions)
                for o in actual.outcomes]
            or (expected.makespan_s, expected.total_preemptions,
                expected.mean_batch_occupancy)
            != (actual.makespan_s, actual.total_preemptions,
                actual.mean_batch_occupancy)):
        raise CheckFailure(f"seed {seed}: final reports diverged")
    return operations


@check("serving.columnar_reference_parity", family="differential",
       layers=("serving",))
def columnar_reference_parity(ctx: AuditContext) -> str:
    """The production ColumnarScheduler matches the frozen oracle
    exactly through a seeded script of every scheduler operation."""
    backends = (("tdx", ctx.cpu("tdx")), ("baremetal", ctx.cpu()),
                ("cgpu", ctx.gpu(confidential=True)))
    # Two decoder blocks keep the cold step-cost memo cheap; scheduling
    # parity does not depend on model depth.
    model = replace(ctx.model, name=f"{ctx.model.name}-2-blocks",
                    num_layers=2)
    operations = 0
    for backend, deployment in backends:
        for label, tenancy in _REFERENCE_TENANCY:
            for seed in range(2):
                kwargs = dict(kv_capacity_tokens=1024, max_batch=4,
                              admission_lookahead=2 * seed,
                              tenancy=tenancy)
                oracle = ContinuousBatchingScheduler(
                    deployment, model, ctx.dtype, **kwargs)
                core = ColumnarScheduler(deployment, model, ctx.dtype,
                                         **kwargs)
                try:
                    operations += _reference_script(oracle, core, seed,
                                                    operations=250)
                except CheckFailure as failure:
                    raise CheckFailure(
                        f"{backend}/{label}: {failure}") from failure
    return (f"{operations} scripted operations identical across "
            f"{len(backends)} backends x {len(_REFERENCE_TENANCY)} "
            f"tenancy setups")


# -- fleet metamorphic checks -------------------------------------------------

def _fleet_stream():
    return poisson_table(40, rate_per_s=4.0, mean_prompt=128,
                         mean_output=32, seed=11)


def _tdx_spec():
    return replica_spec("tdx", max_batch=16, kv_capacity_tokens=65536)


@check("fleet.replica_scaling_monotonic_tail", family="metamorphic",
       layers=("fleet", "serving"))
def replica_scaling_monotonic_tail(ctx: AuditContext) -> str:
    """Adding a replica never raises p99 TTFT under fixed load."""
    stream = _fleet_stream()
    spec = _tdx_spec()
    p99s = [fixed_fleet(spec, count).run(stream).ttft_percentile(99)
            for count in (1, 2, 3)]
    for earlier, later in zip(p99s, p99s[1:]):
        if later > earlier * (1.0 + ctx.tol.monotonic_slack_rel):
            raise CheckFailure(
                f"p99 TTFT rose when adding a replica: {earlier:.3f}s -> "
                f"{later:.3f}s", deltas={"earlier": earlier, "later": later})
    return " -> ".join(f"{p:.2f}s" for p in p99s)


@check("fleet.request_conservation", family="metamorphic",
       layers=("fleet", "serving"))
def fleet_request_conservation(ctx: AuditContext) -> str:
    """Routing and autoscaling never lose or duplicate a request."""
    from ..fleet import AutoscalerConfig, FleetSimulator, ReactiveAutoscaler
    stream = _fleet_stream()
    scaler = ReactiveAutoscaler(AutoscalerConfig(
        max_replicas=4, scale_up_load=3.0, scale_down_load=0.5,
        cooldown_s=2.0, boot_latency_s=5.0))
    report = FleetSimulator([_tdx_spec()], autoscaler=scaler).run(stream)
    served = sorted(o.request.request_id for o in report.outcomes)
    if served != [r.request_id for r in stream]:
        raise CheckFailure("request ids lost or duplicated across the fleet")
    if sum(u.requests_served for u in report.replicas) != len(stream):
        raise CheckFailure("per-replica routing counts do not sum to stream")
    if any(o.finish_s <= 0 or o.ttft_s < 0 for o in report.outcomes):
        raise CheckFailure("unserved or acausal outcome in fleet report")
    return (f"{len(stream)} requests over {len(report.replicas)} replicas, "
            f"peak {report.peak_replicas}")


@check("fleet.deterministic_replay", family="metamorphic",
       layers=("fleet",))
def fleet_deterministic_replay(ctx: AuditContext) -> str:
    """Same seed + config produce an identical fleet report."""
    stream = _fleet_stream()
    spec = _tdx_spec()
    first = fixed_fleet(spec, 2).run(stream).to_dict()
    second = fixed_fleet(spec, 2).run(stream).to_dict()
    if first != second:
        raise CheckFailure("fleet report not reproducible across runs")
    return f"{first['requests']} requests, report dicts identical"


# -- fleet golden snapshot ----------------------------------------------------

#: The committed capacity-planning trace: 60 requests at 4 req/s with
#: deterministic size variation (no RNG — the trace IS the config).
CAPACITY_TRACE = tuple((0.25 * i, 192 + (37 * i) % 160, 48 + (13 * i) % 48)
                       for i in range(60))

#: The p99 TTFT objective the capacity golden plans against.
CAPACITY_SLO_TTFT_S = 2.0


@_golden("fleet_capacity", "Fleet capacity plan: replicas and $/Mtok at SLO",
         layers=("fleet", "serving", "cost"))
def fleet_capacity(ctx: AuditContext) -> dict[str, float]:
    from ..state.points import capacity_grid
    from ..state.runner import SweepRunner

    spec = capacity_grid(kinds=("tdx", "cgpu"), max_replicas=6,
                         slo_ttft_s=CAPACITY_SLO_TTFT_S)
    rows = SweepRunner(None, spec).run().values()
    series: dict[str, float] = {}
    for kind in ("tdx", "cgpu"):
        plan = CapacityPlan.from_rows(kind, rows, CAPACITY_SLO_TTFT_S)
        if plan.replicas_needed is None:
            raise CheckFailure(
                f"{kind}: SLO unattainable within the swept fleet sizes")
        series[f"{kind}/replicas_needed"] = float(plan.replicas_needed)
        series[f"{kind}/usd_per_mtok_at_slo"] = plan.usd_per_mtok_at_slo
        series[f"{kind}/p99_ttft_at_slo_s"] = plan.plan_point.p99_ttft_s
        series[f"{kind}/attainment_at_slo"] = plan.plan_point.attainment
    return series
