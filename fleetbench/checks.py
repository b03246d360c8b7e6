"""Output checks run after every repetition.

:func:`invariants` holds on any seed.  :func:`sim_record` collects the
simulated figures of one stream — they depend only on the seed, never
on the host — and :func:`digest` hashes them, so recorded seeds can be
compared bit for bit against ``recorded.json``.
"""

from __future__ import annotations

import hashlib
import json

from repro.fleet import FleetReport


def invariants(report: FleetReport, summary: dict, stream_size: int,
               ) -> list[str]:
    """Conservation checks on one finished run; returns the failures."""
    problems = []
    completed, shed = len(report.outcomes), len(report.shed)
    if completed + shed != stream_size:
        problems.append(f"completed {completed} + shed {shed} != "
                        f"submitted {stream_size}")
    replica_tokens = sum(usage.tokens_out for usage in report.replicas)
    if replica_tokens != report.tokens_out:
        problems.append(f"replica tokens {replica_tokens} != report tokens "
                        f"{report.tokens_out}")
    tenancy = summary["tenancy"]
    if tenancy is not None:
        fleet_cents = round(report.cost_usd * 100)
        if tenancy.total_bill_cents != fleet_cents:
            problems.append(f"tenant bills {tenancy.total_bill_cents} "
                            f"cents != fleet bill {fleet_cents} cents")
    if not summary["ttft_p99_s"] >= summary["ttft_p50_s"]:
        problems.append(f"p99 TTFT {summary['ttft_p99_s']} < p50 "
                        f"{summary['ttft_p50_s']}")
    return problems


def sim_record(report: FleetReport, summary: dict) -> dict:
    """Simulated metrics and counts of one stream (seed-determined)."""
    return {
        "completed": summary["completed"],
        "submitted": summary["submitted"],
        "slo_met": summary["slo_met"],
        "ttft_p50_s": summary["ttft_p50_s"],
        "ttft_p99_s": summary["ttft_p99_s"],
        "cost_usd": summary["cost_usd"],
        "tokens_out": summary["tokens_out"],
        "end_s": report.end_s,
        "preemptions": report.total_preemptions,
        "prefix_hits": sum(u.prefix_hits for u in report.replicas),
        "prefix_misses": sum(u.prefix_misses for u in report.replicas),
        "peak_replicas": report.peak_replicas,
        "scale_events": len(report.scale_events),
        "fault_events": len(report.fault_events),
        "retries": report.retries,
        "wasted_tokens": report.wasted_tokens,
        "shed": len(report.shed),
    }


def digest(record: dict) -> str:
    """Exact hash of a :func:`sim_record` (floats by ``repr``)."""
    text = json.dumps({key: repr(value) for key, value in record.items()},
                      sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]
