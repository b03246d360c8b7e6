"""Registered point runners and grid builders for resumable sweeps.

A *point runner* is a function ``(params, context) -> row`` executing
one grid point of a sweep: it rebuilds its workload deterministically
from JSON ``params``, optionally resumes a mid-point simulator
checkpoint via the :class:`~repro.state.runner.PointContext`, and
returns the same JSON row the monolithic sweep function would have
produced — so a resumed, interrupted, or watchdog-supervised run
merges into output byte-identical to an uninterrupted one.

Runners are looked up by name (the name is what ``spec.json``
persists), so a resumed process needs no pickled callables — just this
registry.
"""

from __future__ import annotations

from typing import Callable

from .errors import StateSchemaError
from .runner import GridPoint, PointContext, SweepSpec
from .schema import require, require_finite

#: name -> runner registry, populated by :func:`point_runner`.
_POINT_RUNNERS: dict[str, Callable[[dict, PointContext], dict]] = {}


def point_runner(name: str):
    """Register a point runner under a stable, persistable name."""
    def decorate(func: Callable[[dict, PointContext], dict]):
        if name in _POINT_RUNNERS:
            raise StateSchemaError(f"point runner {name!r} already registered")
        _POINT_RUNNERS[name] = func
        return func
    return decorate


def resolve_point_runner(name: str) -> Callable[[dict, PointContext], dict]:
    """Look up a registered runner; unknown names fail with the roster."""
    try:
        return _POINT_RUNNERS[name]
    except KeyError:
        known = ", ".join(sorted(_POINT_RUNNERS)) or "<none>"
        raise StateSchemaError(
            f"unknown point runner {name!r} (registered: {known})") from None


def _run_checkpointed(fleet, requests, context: PointContext):
    """Drive a fleet to completion with periodic durable checkpoints.

    Resumes from the point's snapshot when one survives a crash,
    otherwise starts fresh; either way the tick sequence — and hence
    the report — is bit-identical to ``fleet.run(requests)``.
    Checkpoint cadence is measured on the *simulated* clock so the
    snapshot points (and thus the on-disk artifacts) are deterministic
    too.
    """
    from .checkpoint import restore, snapshot

    payload = context.resume_payload()
    if payload is not None:
        restore(fleet, payload)
    else:
        fleet.begin_run(requests)
    last_checkpoint_s = fleet.run_clock_s
    while fleet.run_active:
        fleet.run_tick()
        if (context.checkpoint_every_s > 0 and fleet.run_active
                and fleet.run_clock_s - last_checkpoint_s
                >= context.checkpoint_every_s):
            context.checkpoint(snapshot(fleet))
            last_checkpoint_s = fleet.run_clock_s
    return fleet.finish_run()


@point_runner("chaos_mtbf")
def run_chaos_mtbf_point(params: dict, context: PointContext) -> dict:
    """One ``(kind, mtbf)`` cell of :func:`repro.faults.sweep.mtbf_sweep`.

    Params mirror the sweep's arguments for a single cell; ``mtbf_s``
    is ``None`` for the fault-free anchor.  The row matches
    :func:`repro.faults.sweep.iter_mtbf_rows` exactly.
    """
    from ..faults.sweep import chaos_fleet, sweep_row
    from ..fleet.arrivals import poisson_table

    kind = require(params, "kind", str, "$.params")
    mtbf_s = require_finite(params, "mtbf_s", "$.params", optional=True)
    requests = poisson_table(
        require(params, "num_requests", int, "$.params"),
        require_finite(params, "rate_rps", "$.params", minimum=1e-12),
        require(params, "mean_prompt", int, "$.params"),
        require(params, "mean_output", int, "$.params"),
        seed=require(params, "seed", int, "$.params"))
    fleet = chaos_fleet(
        kind,
        replicas=require(params, "replicas", int, "$.params"),
        mtbf_s=mtbf_s,
        horizon_s=require_finite(params, "horizon_s", "$.params"),
        seed=require(params, "seed", int, "$.params"),
        timeout_s=require_finite(params, "timeout_s", "$.params"))
    report = _run_checkpointed(fleet, requests, context)
    return sweep_row(kind, mtbf_s, report,
                     require_finite(params, "slo_ttft_s", "$.params"))


@point_runner("fleet_capacity")
def run_fleet_capacity_point(params: dict, context: PointContext) -> dict:
    """One fleet size of a capacity curve (:mod:`repro.fleet.planner`).

    ``params["trace"] == "capacity"`` replays the pinned golden
    capacity trace; otherwise the trace is generated from the params
    via :func:`repro.fleet.arrivals.make_arrival_table`.  The row is
    :meth:`~repro.fleet.planner.CapacityPoint.to_dict`.
    """
    from ..fleet.planner import evaluate_fleet
    from ..fleet.replica import replica_spec

    kind = require(params, "kind", str, "$.params")
    count = require(params, "replicas", int, "$.params")
    slo_ttft_s = require_finite(params, "slo_ttft_s", "$.params",
                                minimum=1e-12)
    spec = replica_spec(kind, max_batch=16, kv_capacity_tokens=65536)
    trace = params.get("trace")
    if trace == "capacity":
        from ..fleet.arrivals import trace_replay
        from ..validate.fleet import CAPACITY_TRACE
        requests = trace_replay(CAPACITY_TRACE)
    elif trace is None:
        from ..fleet.arrivals import make_arrival_table
        requests = make_arrival_table(
            require(params, "arrivals", str, "$.params"),
            require(params, "num_requests", int, "$.params"),
            require_finite(params, "rate_rps", "$.params", minimum=1e-12),
            require(params, "mean_prompt", int, "$.params"),
            require(params, "mean_output", int, "$.params"),
            seed=require(params, "seed", int, "$.params"))
    else:
        raise StateSchemaError(
            f"$.params.trace must be 'capacity' or absent, got {trace!r}")
    point, _ = evaluate_fleet(spec, count, requests, slo_ttft_s)
    del context  # capacity cells finish in one tick loop; no mid-point saves
    return point.to_dict()


@point_runner("attest_tax")
def run_attest_tax_point(params: dict, context: PointContext) -> dict:
    """One ``(kind, scenario)`` cell of the attestation-tax table.

    The row matches :func:`repro.tee.boot.attest_tax_row` exactly —
    legacy instant-boot vs phased confidential-boot twins of the same
    headline fleet, same stream, with the $/Mtok and p99-TTFT deltas.
    """
    from ..tee.boot import attest_tax_row

    del context  # each cell pairs two short runs; no mid-point saves
    return attest_tax_row(
        require(params, "kind", str, "$.params"),
        require(params, "scenario", str, "$.params"),
        require_finite(params, "slo_ttft_s", "$.params", minimum=1e-12))


def chaos_grid(kinds: tuple[str, ...] | None = None,
               mtbf_grid_s: tuple[float | None, ...] | None = None,
               num_requests: int = 36, rate_rps: float = 1.5,
               mean_prompt: int = 128, mean_output: int = 64,
               replicas: int = 1, seed: int = 7, slo_ttft_s: float = 2.0,
               timeout_s: float = 20.0, horizon_s: float = 40.0,
               checkpoint_every_s: float = 0.0,
               point_timeout_s: float | None = None) -> SweepSpec:
    """The :func:`~repro.faults.sweep.mtbf_sweep` grid as a SweepSpec.

    Defaults match the sweep's defaults, so running this spec to
    completion journals exactly the rows of ``mtbf_sweep()`` — the
    property the kill-and-resume audit pins against the
    ``golden.chaos_mtbf`` snapshot.
    """
    from ..faults.sweep import DEFAULT_KINDS, DEFAULT_MTBF_GRID_S

    kinds = DEFAULT_KINDS if kinds is None else kinds
    mtbf_grid_s = DEFAULT_MTBF_GRID_S if mtbf_grid_s is None else mtbf_grid_s
    points = []
    for kind in kinds:
        for mtbf_s in mtbf_grid_s:
            label = "none" if mtbf_s is None else f"{mtbf_s:g}"
            points.append(GridPoint(
                index=len(points), key=f"{kind}/mtbf_{label}",
                runner="chaos_mtbf",
                params={"kind": kind, "mtbf_s": mtbf_s,
                        "num_requests": num_requests, "rate_rps": rate_rps,
                        "mean_prompt": mean_prompt,
                        "mean_output": mean_output, "replicas": replicas,
                        "seed": seed, "slo_ttft_s": slo_ttft_s,
                        "timeout_s": timeout_s, "horizon_s": horizon_s},
                group=kind))
    return SweepSpec(points=tuple(points),
                     checkpoint_every_s=checkpoint_every_s,
                     point_timeout_s=point_timeout_s)


def capacity_grid(kinds: tuple[str, ...] = ("tdx", "cgpu"),
                  max_replicas: int = 8, slo_ttft_s: float = 2.0,
                  trace: str = "capacity",
                  point_timeout_s: float | None = None) -> SweepSpec:
    """A per-kind capacity curve grid with SLO-met pruning.

    ``prune_field="meets_slo"`` with ``group=kind`` reproduces
    :func:`~repro.fleet.planner.capacity_plan`'s early stop: once a
    fleet size meets the SLO, the kind's larger sizes are skipped —
    including across a crash/resume boundary.
    """
    if trace != "capacity":
        raise StateSchemaError("capacity_grid currently pins the golden "
                               "capacity trace; pass trace='capacity'")
    points = []
    for kind in kinds:
        for count in range(1, max_replicas + 1):
            points.append(GridPoint(
                index=len(points), key=f"{kind}/replicas_{count}",
                runner="fleet_capacity",
                params={"kind": kind, "replicas": count,
                        "slo_ttft_s": slo_ttft_s, "trace": trace},
                group=kind))
    return SweepSpec(points=tuple(points), prune_field="meets_slo",
                     point_timeout_s=point_timeout_s)


def attest_grid(kinds: tuple[str, ...] | None = None,
                scenarios: tuple[str, ...] = ("capacity", "chaos"),
                slo_ttft_s: float = 2.0,
                point_timeout_s: float | None = None) -> SweepSpec:
    """The attestation-tax table as a resumable SweepSpec.

    Defaults mirror :func:`repro.tee.boot.attest_tax_sweep`, so running
    this spec to completion journals exactly the rows the
    ``golden.attest_tax`` audit snapshot pins.
    """
    from ..tee.boot import TAX_FLEET_KINDS

    kinds = TAX_FLEET_KINDS if kinds is None else kinds
    points = []
    for scenario in scenarios:
        for kind in kinds:
            points.append(GridPoint(
                index=len(points), key=f"{kind}/{scenario}",
                runner="attest_tax",
                params={"kind": kind, "scenario": scenario,
                        "slo_ttft_s": slo_ttft_s},
                group=kind))
    return SweepSpec(points=tuple(points),
                     point_timeout_s=point_timeout_s)
