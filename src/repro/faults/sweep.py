"""Chaos sweeps: serving economics as a function of failure rate.

The paper's §V-D cost comparison (TDX vs confidential GPU $/Mtok at a
TTFT SLO) assumes immortal replicas; this module quantifies how the
conclusion erodes when replicas fail.  :func:`mtbf_sweep` runs the
same fleet and request stream under hazard-rate fault schedules at
decreasing MTBF and reports, per backend, the SLO attainment and the
dollars per million *good* tokens — the cost of goodput including the
instance-hours burned on retried and wasted work.

Everything is seeded; the sweep is bit-reproducible and snapshotted by
the ``golden.chaos_mtbf`` audit check.
"""

from __future__ import annotations

from ..fleet.arrivals import poisson_table
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

    ``mtbf_s=None`` arms the chaos machinery with an empty schedule —
    the configuration the zero-fault differential twin pins against a
    fault-free run.  ``boot`` arms a phased confidential boot profile
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


#: Canonical column order of :func:`sweep_row` — JSON round-trips (the
#: resumable runner's WAL) sort keys, so tables rebuilt from restored
#: rows reorder through this.
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


def iter_mtbf_rows(kinds: tuple[str, ...] = DEFAULT_KINDS,
                   mtbf_grid_s: tuple[float | None, ...]
                   = DEFAULT_MTBF_GRID_S,
                   num_requests: int = 36, rate_rps: float = 1.5,
                   mean_prompt: int = 128, mean_output: int = 64,
                   replicas: int = 1, seed: int = 7,
                   slo_ttft_s: float = 2.0, timeout_s: float = 20.0,
                   horizon_s: float = 40.0):
    """Yield :func:`mtbf_sweep` rows one completed point at a time.

    The streaming form exists so CLIs can emit partial results (JSONL)
    as each grid point lands instead of buffering the whole sweep — an
    interrupted sweep then keeps everything already computed.
    """
    for kind in kinds:
        for mtbf_s in mtbf_grid_s:
            requests = poisson_table(num_requests, rate_rps, mean_prompt,
                                     mean_output, seed=seed)
            fleet = chaos_fleet(kind, replicas=replicas, mtbf_s=mtbf_s,
                                horizon_s=horizon_s, seed=seed,
                                timeout_s=timeout_s)
            report = fleet.run(requests)
            yield sweep_row(kind, mtbf_s, report, slo_ttft_s)


def mtbf_sweep(kinds: tuple[str, ...] = DEFAULT_KINDS,
               mtbf_grid_s: tuple[float | None, ...] = DEFAULT_MTBF_GRID_S,
               num_requests: int = 36, rate_rps: float = 1.5,
               mean_prompt: int = 128, mean_output: int = 64,
               replicas: int = 1, seed: int = 7,
               slo_ttft_s: float = 2.0, timeout_s: float = 20.0,
               horizon_s: float = 40.0) -> list[dict]:
    """SLO attainment and $/Mtok vs replica MTBF, per backend.

    One row per ``(kind, mtbf)`` point, same seeded Poisson stream
    everywhere, ``mtbf=None`` first as the fault-free anchor.  The
    default is a single replica per backend, so every crash stalls the
    stream until repair — the configuration where the slower CPU TEE's
    longer exposure per request shows up most clearly against the
    faster confidential GPU.
    """
    return list(iter_mtbf_rows(kinds, mtbf_grid_s, num_requests, rate_rps,
                               mean_prompt, mean_output, replicas, seed,
                               slo_ttft_s, timeout_s, horizon_s))
