"""Chaos sweeps: serving economics as a function of failure rate.

The paper's §V-D cost comparison (TDX vs confidential GPU $/Mtok at a
TTFT SLO) assumes immortal replicas; this module quantifies how the
conclusion erodes when replicas fail.  The MTBF sweep
(:func:`repro.state.points.chaos_grid`) runs the same fleet and request
stream under hazard-rate fault schedules at decreasing MTBF; this
module builds its fleets (:func:`chaos_fleet`) and rows
(:func:`sweep_row`): per backend, the SLO attainment and the dollars
per million *good* tokens — the cost of goodput including the
instance-hours burned on retried and wasted work.

Everything is seeded; the sweep is bit-reproducible and snapshotted by
the ``golden.chaos_mtbf`` audit check.
"""

from __future__ import annotations

from ..fleet.cluster import FleetSimulator, fixed_fleet
from ..fleet.replica import replica_spec
from ..fleet.report import FleetReport
from ..tee.boot import BootProfile
from .resilience import RetryPolicy
from .schedule import FaultSchedule, mtbf_schedule

#: Backends the headline chaos comparison covers (the paper's CPU-TEE
#: vs confidential-GPU cost rivals).
DEFAULT_KINDS = ("tdx", "cgpu")

#: MTBF grid: no faults, then roughly two and five failures over the
#: default ~25 s serving window.
DEFAULT_MTBF_GRID_S: tuple[float | None, ...] = (None, 12.0, 6.0)


def chaos_fleet(kind: str, replicas: int = 2,
                mtbf_s: float | None = None,
                horizon_s: float = 40.0, seed: int = 0,
                timeout_s: float = 20.0,
                max_attempts: int = 4,
                boot: BootProfile | None = None) -> FleetSimulator:
    """A fixed fleet armed with an MTBF fault schedule and retries.

    ``mtbf_s=None`` supplies an empty schedule: the fleet then runs
    the same tick path with nothing to inject, which the zero-fault
    differential twin pins against a fleet built without one.
    ``boot`` arms a phased confidential boot profile
    (:mod:`repro.tee.boot`): crash recoveries and attestation failures
    then pay the re-attestation remainder instead of rebooting free.
    """
    spec = replica_spec(kind, max_batch=16, kv_capacity_tokens=65536,
                        boot=boot)
    if mtbf_s is None:
        schedule = FaultSchedule.empty()
    else:
        schedule = mtbf_schedule(list(range(replicas)), mtbf_s=mtbf_s,
                                 horizon_s=horizon_s, seed=seed)
    retry = RetryPolicy(timeout_s=timeout_s, max_attempts=max_attempts,
                        seed=seed)
    return fixed_fleet(spec, replicas, faults=schedule, retry_policy=retry)


#: Column order of :func:`sweep_row` (registered with the sweep runner,
#: which restores it on rows read back from a journal).
ROW_FIELDS = ("kind", "mtbf_s", "slo_attainment", "usd_per_mtok",
              "cost_usd", "goodput_cost_usd", "wasted_cost_usd",
              "completed", "shed", "retries", "wasted_tokens",
              "fault_events", "makespan_s")


def sweep_row(kind: str, mtbf_s: float | None, report: FleetReport,
              slo_ttft_s: float) -> dict:
    """Flatten one chaos run into a JSON-friendly sweep row."""
    return {
        "kind": kind,
        "mtbf_s": mtbf_s,
        "slo_attainment": report.slo_attainment(slo_ttft_s),
        "usd_per_mtok": (report.usd_per_mtok if report.tokens_out
                         else None),
        "cost_usd": report.cost_usd,
        "goodput_cost_usd": report.goodput_cost_usd,
        "wasted_cost_usd": report.wasted_cost_usd,
        "completed": len(report.outcomes),
        "shed": len(report.shed),
        "retries": report.retries,
        "wasted_tokens": report.wasted_tokens,
        "fault_events": len(report.fault_events),
        "makespan_s": report.makespan_s,
    }
