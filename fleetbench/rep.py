"""One repetition of one workload, in a fresh interpreter.

Started by ``run.py`` with ``src`` on ``PYTHONPATH``; every memo cache
is therefore empty when the workload is built, as it is for a user of
``scripts/fleet.py``.  Builds every stream of the workload, serves them
one after another, and prints one JSON line: the host timings with the
host-speed calibration around them (``calibrate.py``), each stream's
simulated record and digest, the check failures, and with ``--trace``
the per-layer split.
"""

from __future__ import annotations

import argparse
import json
import resource
import time
from pathlib import Path

from repro.memo import registered_caches

from calibrate import round_s
from checks import digest, invariants, sim_record
from workloads import WORKLOADS

# Layers as (module, span names whose self time the layer owns).
LAYERS = (
    ("fleet.router", ("router.choose",)),
    ("fleet.replica (estimate)", ("replica.estimate",)),
    ("serving.stepcost", ("stepcost.decode", "stepcost.prefill")),
    ("engine.roofline", ("costmodel.cpu", "costmodel.gpu")),
    ("llm.graph", ("graph.decode", "graph.prefill")),
    ("fleet.replica (serve)", ("replica.submit", "replica.step",
                               "replica.cancel",
                               "replica.begin_attestation")),
    ("fleet.cluster", ("cluster.run", "cluster.tick")),
    ("fleet.autoscaler", ("autoscaler.decide",)),
    ("faults", ("faults.due",)),
    ("fleet.report+tenancy.report", ("report.finish", "report.tenant")),
)


def layer_metrics(tracer, reports, cases) -> dict:
    """Per-layer metrics of one traced repetition (all its streams)."""
    from tracer import COSTMODEL_SPANS, GRAPH_SPANS, STEPCOST_SPANS

    spans = tracer.totals()

    def get(name: str, field: str) -> float:
        return spans.get(name, {}).get(field, 0)

    def over(names: tuple[str, ...], field: str) -> float:
        return sum(get(name, field) for name in names)

    def summed(field: str) -> int:
        return sum(getattr(usage, field)
                   for report in reports for usage in report.replicas)

    router_calls = get("router.choose", "calls")
    scanned = tracer.counts["router.replicas_scanned"]
    lookups = over(STEPCOST_SPANS, "calls")
    misses = tracer.calls_under(COSTMODEL_SPANS, STEPCOST_SPANS)
    ticks_run = get("cluster.tick", "calls")
    ticks_spanned = tracer.counts["cluster.ticks_spanned"]
    step_self = get("replica.step", "self_s")
    tokens = summed("tokens_out")
    metrics = {
        "router.calls": router_calls,
        "router.replicas_scanned": scanned,
        "router.mean_scanned": scanned / router_calls,
        "router.self_s": get("router.choose", "self_s"),
        "router.us_per_call": get("router.choose", "self_s")
        / router_calls * 1e6,
        "router.ttft_estimates": get("replica.estimate", "calls"),
        "router.estimate_s": get("replica.estimate", "total_s"),
        "stepcost.decode_lookups": get("stepcost.decode", "calls"),
        "stepcost.prefill_lookups": get("stepcost.prefill", "calls"),
        "stepcost.hit_ratio": (lookups - misses) / lookups,
        "costmodel.calls": over(COSTMODEL_SPANS, "calls"),
        "costmodel.self_s": over(COSTMODEL_SPANS, "self_s"),
        "graph.builds": over(GRAPH_SPANS, "calls"),
        "graph.s": over(GRAPH_SPANS, "total_s"),
        "replica.submits": get("replica.submit", "calls"),
        "replica.submit_s": get("replica.submit", "self_s"),
        "replica.steps": get("replica.step", "calls"),
        "replica.step_self_s": step_self,
        "serving.tokens": tokens,
        "serving.us_per_token": step_self / tokens * 1e6,
        "serving.preemptions": sum(r.total_preemptions for r in reports),
        "serving.prefix_hits": summed("prefix_hits"),
        "serving.prefix_misses": summed("prefix_misses"),
        "cluster.ticks_run": ticks_run,
        "cluster.ticks_spanned": ticks_spanned,
        "cluster.tick_exec_ratio": ticks_run / ticks_spanned,
        "cluster.tick_self_s": get("cluster.tick", "self_s"),
        "cluster.run_self_s": get("cluster.run", "self_s"),
        "autoscaler.decisions": get("autoscaler.decide", "calls"),
        "autoscaler.s": get("autoscaler.decide", "total_s"),
        "autoscaler.scale_events": sum(len(r.scale_events) for r in reports),
        "faults.due_s": get("faults.due", "total_s"),
        "faults.applied": sum(len(r.fault_events) for r in reports),
        "faults.cancels": tracer.counts["faults.cancels"],
        "faults.retries": sum(r.retries for r in reports),
        "faults.wasted_tokens": sum(r.wasted_tokens for r in reports),
        "faults.shed": sum(len(r.shed) for r in reports),
        "boot.reattests": get("replica.begin_attestation", "calls"),
        "report.finish_s": get("report.finish", "total_s"),
        "report.tenant_s": get("report.tenant", "total_s"),
        "stream.gen_s": sum(case.stream_gen_s for case in cases),
    }
    split = {layer: over(names, "self_s") for layer, names in LAYERS}
    return {"metrics": metrics, "split": split}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=Path, default=None,
                        help="trace the run and write its spans here")
    parser.add_argument("--setup-only", action="store_true",
                        help="stop once the workload is built")
    args = parser.parse_args()

    memo_entries = sum(len(cache) for cache in registered_caches().values())
    build, streams = WORKLOADS[args.workload]
    cases = [build(args.seed, stream) for stream in range(streams)]
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready, "round_s": round_s()}))
        return
    round_before_s = round_s()

    tracer = restore = None
    if args.trace is not None:
        from tracer import Tracer, instrument
        tracer = Tracer()
        restore = instrument(tracer)
    reports, summaries = [], []
    start = time.perf_counter()
    for case in cases:
        reports.append(case.fleet.run(case.table))
        summaries.append(case.summarize(reports[-1]))
    wall_s = time.perf_counter() - start
    if restore is not None:
        restore()
    round_after_s = round_s()

    records, problems = [], []
    for stream, (case, report, summary) in enumerate(
            zip(cases, reports, summaries)):
        records.append(sim_record(report, summary))
        problems += [f"stream {stream}: {problem}" for problem
                     in invariants(report, summary, len(case.table))]
    distinct = sum(len(set(case.table.prompt_tokens.tolist()))
                   for case in cases)
    result = {
        "ready": ready,
        "wall_s": wall_s,
        "round_s": (round_before_s + round_after_s) / 2,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "problems": problems,
        "sims": records,
        "digests": [digest(record) for record in records],
        "distinct_prompt_share": distinct / sum(len(c.table) for c in cases),
        "memo_entries_at_start": memo_entries,
    }
    if tracer is not None:
        result["trace"] = layer_metrics(tracer, reports, cases)
        tracer.write(args.trace)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
