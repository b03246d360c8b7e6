"""Registered point runners and the grids every fleet sweep runs.

A *point runner* is a function ``(params, context) -> row`` executing
one grid point of a sweep: it rebuilds its workload deterministically
from JSON ``params``, optionally resumes a mid-point simulator
checkpoint via the :class:`~repro.state.runner.PointContext`, and
returns one JSON row.  Each fleet sweep is a grid builder here, run
by :class:`~repro.state.runner.SweepRunner` in memory or against a run
directory; a resumed, interrupted or watchdog-supervised run merges
into output byte-identical to an uninterrupted one.

Runners are looked up by name (the name is what ``spec.json``
persists), so a resumed process needs no pickled callables — just this
registry.  A param newer than a run directory reads as the value its
absence implied.
"""

from __future__ import annotations

from dataclasses import fields
from typing import Callable

from ..faults.sweep import (
    DEFAULT_KINDS,
    DEFAULT_MTBF_GRID_S,
    ROW_FIELDS,
    chaos_fleet,
    sweep_row,
)
from ..fleet.arrivals import make_arrival_table, poisson_table, trace_replay
from ..fleet.planner import CapacityPoint, evaluate_fleet
from ..fleet.replica import replica_spec
from ..fleet.router import make_router
from ..tee.boot import (
    TAX_FLEET_KINDS,
    TAX_ROW_FIELDS,
    attest_tax_row,
    boot_profile,
)
from .errors import StateSchemaError
from .runner import GridPoint, PointContext, SweepSpec
from .schema import require, require_finite

#: name -> runner registry, populated by :func:`point_runner`.
_POINT_RUNNERS: dict[str, Callable[[dict, PointContext], dict]] = {}

#: Column order of each registered runner's row.  The journal stores
#: rows with sorted keys; :func:`ordered_row` restores this order, so
#: fresh and resumed rows print alike.
_ROW_FIELDS: dict[str, tuple[str, ...]] = {
    "chaos_mtbf": ROW_FIELDS,
    "fleet_capacity": tuple(field.name for field in fields(CapacityPoint)),
    "attest_tax": TAX_ROW_FIELDS,
}


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


def ordered_row(runner: str, row: dict) -> dict:
    """``row`` in ``runner``'s registered column order (if it has one).

    Raises:
        StateSchemaError: If the row's columns are not the registered ones.
    """
    order = _ROW_FIELDS.get(runner)
    if order is None:
        return row
    if set(row) != set(order):
        raise StateSchemaError(
            f"{runner} row has columns {sorted(row)}, expected {order}")
    return {name: row[name] for name in order}


def _param(params: dict, key: str, types: type, default: object) -> object:
    """A param that older run directories lack: absent reads ``default``."""
    if key not in params:
        return default
    return require(params, key, types, "$.params")


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
    """One ``(kind, mtbf)`` cell of the MTBF sweep (:func:`chaos_grid`).

    ``mtbf_s`` is ``None`` for the fault-free anchor; the row is
    :func:`repro.faults.sweep.sweep_row`.
    """
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
        timeout_s=require_finite(params, "timeout_s", "$.params"),
        max_attempts=_param(params, "max_attempts", int, 4))
    report = _run_checkpointed(fleet, requests, context)
    return sweep_row(kind, mtbf_s, report,
                     require_finite(params, "slo_ttft_s", "$.params"))


@point_runner("fleet_capacity")
def run_fleet_capacity_point(params: dict, context: PointContext) -> dict:
    """One fleet size of a capacity curve (:func:`capacity_grid`).

    ``params["trace"] == "capacity"`` replays the pinned golden
    capacity trace; otherwise the trace is generated from the params
    via :func:`repro.fleet.arrivals.make_arrival_table`.  The row is
    :meth:`~repro.fleet.planner.CapacityPoint.to_dict`.
    """
    kind = require(params, "kind", str, "$.params")
    count = require(params, "replicas", int, "$.params")
    slo_ttft_s = require_finite(params, "slo_ttft_s", "$.params",
                                minimum=1e-12)
    phased_boot = _param(params, "phased_boot", bool, False)
    spec = replica_spec(
        kind, max_batch=16, kv_capacity_tokens=65536,
        admission_lookahead=_param(params, "admission_lookahead", int, 0),
        boot=boot_profile(kind) if phased_boot else None)
    router = make_router(_param(params, "router", str, "least-outstanding"),
                         slo_ttft_s=slo_ttft_s)
    trace = params.get("trace")
    if trace == "capacity":
        from ..validate.fleet import CAPACITY_TRACE
        requests = trace_replay(CAPACITY_TRACE)
    elif trace is None:
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
    point, _ = evaluate_fleet(spec, count, requests, slo_ttft_s,
                              _param(params, "percentile", float, 99.0),
                              router=router)
    del context  # capacity cells finish in one tick loop; no mid-point saves
    return point.to_dict()


@point_runner("attest_tax")
def run_attest_tax_point(params: dict, context: PointContext) -> dict:
    """One ``(kind, scenario)`` cell of the attestation-tax table.

    The row is :func:`repro.tee.boot.attest_tax_row` — legacy
    instant-boot vs phased confidential-boot twins of the same
    headline fleet, same stream, with the $/Mtok and p99-TTFT deltas.
    """
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
               max_attempts: int = 4,
               checkpoint_every_s: float = 0.0,
               point_timeout_s: float | None = None) -> SweepSpec:
    """The MTBF sweep: SLO attainment and $/Mtok vs replica MTBF.

    One point per ``(kind, mtbf)`` on the same seeded Poisson stream,
    ``mtbf=None`` first as the fault-free anchor.  The default single
    replica per backend makes every crash stall the stream until
    repair.  The defaults are the grid ``golden.chaos_mtbf`` pins.
    """
    kinds = DEFAULT_KINDS if kinds is None else kinds
    mtbf_grid_s = DEFAULT_MTBF_GRID_S if mtbf_grid_s is None else mtbf_grid_s
    points = []
    # A repeated kind or MTBF names the same point: run it once.
    for kind in dict.fromkeys(kinds):
        for mtbf_s in dict.fromkeys(mtbf_grid_s):
            label = "none" if mtbf_s is None else f"{mtbf_s:g}"
            points.append(GridPoint(
                index=len(points), key=f"{kind}/mtbf_{label}",
                runner="chaos_mtbf",
                params={"kind": kind, "mtbf_s": mtbf_s,
                        "num_requests": num_requests, "rate_rps": rate_rps,
                        "mean_prompt": mean_prompt,
                        "mean_output": mean_output, "replicas": replicas,
                        "seed": seed, "slo_ttft_s": slo_ttft_s,
                        "timeout_s": timeout_s, "horizon_s": horizon_s,
                        "max_attempts": max_attempts},
                group=kind))
    return SweepSpec(points=tuple(points),
                     checkpoint_every_s=checkpoint_every_s,
                     point_timeout_s=point_timeout_s)


def capacity_grid(kinds: tuple[str, ...] = ("tdx", "cgpu"),
                  max_replicas: int = 8, slo_ttft_s: float = 2.0,
                  percentile: float = 99.0, arrivals: str | None = None,
                  num_requests: int = 80, rate_rps: float = 4.0,
                  mean_prompt: int = 256, mean_output: int = 64,
                  seed: int = 11, phased_boot: bool = False,
                  admission_lookahead: int = 0,
                  router: str = "least-outstanding",
                  point_timeout_s: float | None = None) -> SweepSpec:
    """The capacity plan: grow each kind's fixed fleet until the SLO holds.

    One point per ``(kind, fleet size)``, graded on the ``percentile``
    TTFT.  ``arrivals=None`` replays the pinned golden capacity trace;
    an arrival kind generates the stream from the stream params.
    ``prune_field="meets_slo"`` per kind is the early stop, across a
    crash/resume boundary too (growing the fleet never hurts the tail,
    so the first hit is the minimum).
    :meth:`~repro.fleet.planner.CapacityPlan.from_rows` reads the plan.

    Raises:
        ValueError: On a non-positive SLO or ``max_replicas < 1``.
    """
    if slo_ttft_s <= 0:
        raise ValueError("slo_ttft_s must be positive")
    if max_replicas < 1:
        raise ValueError("max_replicas must be >= 1")
    if arrivals is None:
        stream: dict = {"trace": "capacity"}
    else:
        stream = {"arrivals": arrivals, "num_requests": num_requests,
                  "rate_rps": rate_rps, "mean_prompt": mean_prompt,
                  "mean_output": mean_output, "seed": seed}
    points = []
    for kind in dict.fromkeys(kinds):  # a repeated kind: one curve
        for count in range(1, max_replicas + 1):
            points.append(GridPoint(
                index=len(points), key=f"{kind}/replicas_{count}",
                runner="fleet_capacity",
                params={"kind": kind, "replicas": count,
                        "slo_ttft_s": slo_ttft_s, "percentile": percentile,
                        "phased_boot": phased_boot,
                        "admission_lookahead": admission_lookahead,
                        "router": router, **stream},
                group=kind))
    return SweepSpec(points=tuple(points), prune_field="meets_slo",
                     point_timeout_s=point_timeout_s)


def attest_grid(kinds: tuple[str, ...] | None = None,
                scenarios: tuple[str, ...] = ("capacity", "chaos"),
                slo_ttft_s: float = 2.0,
                point_timeout_s: float | None = None) -> SweepSpec:
    """The attestation-tax table: every ``(kind, scenario)`` cell.

    Deterministic and seeded end to end; the defaults are the table
    the ``golden.attest_tax`` audit snapshot pins.
    """
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
