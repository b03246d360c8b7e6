"""Regenerate ``recorded.json``: digests and properties of two seeds.

Usage (from the repository root)::

    python3 fleetbench/record.py

For the default seed and the held-out seed, runs every workload once
untraced and once traced.  The untraced digests become the exact
reference that ``run.py`` checks those seeds against; the traced run
gives the workload's properties: prompt-length reuse, replicas scanned
per route, share of ticks executed, and p99 TTFT against the SLO.
Re-record only when the simulated model is meant to change.
"""

from __future__ import annotations

import json
import statistics
import sys
import time

from run import DEADLINE_S, RECORDED, WORKLOADS, Repetitions

DEFAULT_SEED = 1
HELD_OUT_SEED = 1009

#: Each workload's TTFT SLO; chaos_tenants judges each tenant against
#: its own.
SLO_TTFT_S = {"sized_jsq": 2.0, "hetero_slo_long": 6.0,
              "chaos_tenants": "per tenant: whale 4.0, mid 2.0, minnows 1.5"}


def record_seed(workload: str, seed: int) -> dict:
    reps = Repetitions(workload, seed, time.monotonic() + DEADLINE_S)
    reps.recorded = None  # producing the reference, not checking it
    reps.run(traced=False)
    reps.run(traced=True)
    if reps.failed:
        sys.exit(f"{workload} seed {seed} failed its checks")
    traced = reps.traced[0]
    layers = traced["trace"]["metrics"]
    sims = traced["sims"]
    return {
        "digests": reps.digests,
        "properties": {
            "stream.distinct_prompt_share": traced["distinct_prompt_share"],
            "router.mean_scanned": layers["router.mean_scanned"],
            "cluster.tick_exec_ratio": layers["cluster.tick_exec_ratio"],
            "ttft_p99_s": statistics.median(s["ttft_p99_s"] for s in sims),
            "slo_ttft_s": SLO_TTFT_S[workload],
            "slo_attainment": sum(s["slo_met"] for s in sims)
            / sum(s["submitted"] for s in sims),
        },
    }


def main() -> None:
    recorded = {"seeds": {"default": DEFAULT_SEED,
                          "held_out": HELD_OUT_SEED}}
    for workload in WORKLOADS:
        recorded[workload] = {
            str(seed): record_seed(workload, seed)
            for seed in (DEFAULT_SEED, HELD_OUT_SEED)}
        print(f"recorded {workload}", file=sys.stderr)
    RECORDED.write_text(json.dumps(recorded, indent=1) + "\n")


if __name__ == "__main__":
    main()
