"""The benchmark's three seeded fleet workloads.

Each workload is an open-loop arrival schedule in simulated time,
generated in full before the run and served as one offline batch by
the columnar fleet core in a single process.  One ``--seed`` derives
every seed a workload uses (stream, fault schedule, retry jitter).  A
repetition builds all of a workload's streams, each with its own fleet,
then serves them one after another in one fresh interpreter.
"""

from __future__ import annotations

import inspect
import random
from dataclasses import dataclass
from time import perf_counter

import numpy as np

from repro.faults.resilience import RetryPolicy
from repro.faults.schedule import mtbf_schedule
from repro.fleet import (
    AutoscalerConfig,
    CostSloRouter,
    FleetReport,
    FleetSimulator,
    LeastOutstandingRouter,
    ReactiveAutoscaler,
    RequestTable,
    poisson_table,
    replica_spec,
)
from repro.tee.boot import boot_profile
from repro.tenancy import TenantPopulation, tenant_breakdown, whale_mix


def derive_seed(seed: int, workload: str, stream: int, part: str) -> int:
    """A 32-bit seed for one part of one stream of a workload run."""
    return random.Random(f"{workload}:{seed}:{stream}:{part}").getrandbits(32)


def _fleet(specs, **kwargs) -> FleetSimulator:
    """A fleet on the columnar core.

    ``engine="event"`` is passed only while the simulator still accepts
    the argument; once the columnar core is the only engine, the
    default is that core.
    """
    if "engine" in inspect.signature(FleetSimulator).parameters:
        kwargs["engine"] = "event"
    return FleetSimulator(specs, **kwargs)


@dataclass
class Case:
    """One stream of one workload, ready to serve."""

    table: RequestTable
    fleet: FleetSimulator
    stream_gen_s: float
    slo_ttft_s: float | None = None
    population: TenantPopulation | None = None

    def summarize(self, report: FleetReport) -> dict:
        """The report figures the benchmark reads (part of the timed run)."""
        ttft = report.outcomes.ttft_values()
        summary = {
            "completed": len(report.outcomes),
            "submitted": report.submitted,
            "ttft_p50_s": report.ttft_percentile(50),
            "ttft_p99_s": report.ttft_percentile(99),
            "cost_usd": report.cost_usd,
            "tokens_out": report.tokens_out,
            "tenancy": None,
        }
        if self.population is None:
            met = int(np.count_nonzero(ttft <= self.slo_ttft_s))
        else:
            # Each tenant is judged against its own SLO.
            slo = {spec.tenant_id: spec.slo_ttft_s
                   for spec in self.population.tenants}
            limits = np.array([slo[int(t)]
                               for t in report.outcomes.tenant_id])
            met = int(np.count_nonzero(ttft <= limits))
            summary["tenancy"] = tenant_breakdown(report, self.population)
        summary["slo_met"] = met
        return summary


def sized_jsq(seed: int, stream: int) -> Case:
    """200 TDX replicas sized to 400 req/s, least-outstanding routing."""
    start = perf_counter()
    table = poisson_table(30000, 400.0, mean_prompt=128, mean_output=32,
                          seed=derive_seed(seed, "sized_jsq", stream,
                                           "stream"))
    stream_gen_s = perf_counter() - start
    spec = replica_spec("tdx", max_batch=16, kv_capacity_tokens=65536)
    fleet = _fleet([spec] * 200, router=LeastOutstandingRouter())
    return Case(table, fleet, stream_gen_s, slo_ttft_s=2.0)


def hetero_slo_long(seed: int, stream: int) -> Case:
    """12 TDX + 4 cGPU replicas, long prompts, cost/SLO routing."""
    start = perf_counter()
    table = poisson_table(3000, 2.0, mean_prompt=2048, mean_output=256,
                          seed=derive_seed(seed, "hetero_slo_long", stream,
                                           "stream"))
    stream_gen_s = perf_counter() - start
    tdx = replica_spec("tdx", max_batch=32, kv_capacity_tokens=65536)
    cgpu = replica_spec("cgpu", max_batch=32, kv_capacity_tokens=65536)
    fleet = _fleet([tdx] * 12 + [cgpu] * 4,
                   router=CostSloRouter(slo_ttft_s=6.0))
    return Case(table, fleet, stream_gen_s, slo_ttft_s=6.0)


def chaos_tenants(seed: int, stream: int) -> Case:
    """Whale-mix tenants under WFQ, autoscaling, faults and phased boot."""
    start = perf_counter()
    population = whale_mix(
        total_requests=3000, rate_per_s=3.0, prefix_tokens=256,
        seed=derive_seed(seed, "chaos_tenants", stream, "stream"))
    table = population.table()
    stream_gen_s = perf_counter() - start
    spec = replica_spec(
        "tdx", boot=boot_profile("tdx"),
        tenancy=population.tenancy_config(admission="wfq",
                                          kv_isolation="shared-prefix"))
    faults = mtbf_schedule(
        list(range(16)), mtbf_s=300.0,
        horizon_s=float(table.arrival_s.max()),
        seed=derive_seed(seed, "chaos_tenants", stream, "faults"))
    retry = RetryPolicy(
        timeout_s=60.0, max_attempts=3,
        seed=derive_seed(seed, "chaos_tenants", stream, "retry"))
    fleet = _fleet(
        [spec] * 4, router=LeastOutstandingRouter(),
        autoscaler=ReactiveAutoscaler(AutoscalerConfig(min_replicas=4,
                                                       max_replicas=16)),
        faults=faults, retry_policy=retry)
    return Case(table, fleet, stream_gen_s, population=population)


#: Workload builders and the number of streams one repetition serves.
#: ``chaos_tenants`` serves many short streams: its p99 TTFT comes from
#: the start-up ramp and early faults, which differ a lot between
#: streams, and the median over 16 streams is steady where one is not.
WORKLOADS = {
    "sized_jsq": (sized_jsq, 1),
    "hetero_slo_long": (hetero_slo_long, 1),
    "chaos_tenants": (chaos_tenants, 16),
}
