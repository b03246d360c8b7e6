"""Simulator performance benchmark: hot paths, caches, suite wall-clock.

Times the simulator's hot paths (cold vs. warm, the vectorized decode
engine vs. the frozen per-token loop oracle in ``repro.validate.oracle``,
a representative sweep, cold serving step costs, fleet smokes),
collects the memo-cache counters from ``repro.memo``, and optionally
times the tier-1 test suite against a wall-clock budget.  Results are
written as JSON so the numbers can be committed (``BENCH_sim.json``)
and compared across PRs.

Usage::

    PYTHONPATH=src python scripts/bench.py                 # micro benches
    PYTHONPATH=src python scripts/bench.py --quick         # skip the 1M run
    PYTHONPATH=src python scripts/bench.py --suite         # + pytest timing
    PYTHONPATH=src python scripts/bench.py --suite --budget-s 40
    PYTHONPATH=src python scripts/bench.py --out BENCH_sim.json
    PYTHONPATH=src python scripts/bench.py --compare BENCH_sim.json

With ``--budget-s`` the script exits non-zero when the suite exceeds the
budget — CI uses this to fail if the suite regresses past 2x the
post-optimization baseline.  ``--compare`` gates the fleet-core
headline (``fleet_1M_req``): the run fails if its wall time regresses
more than 25% past the committed baseline.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from repro.core.experiment import cpu_deployment, gpu_deployment
from repro.core.sweep import sweep_workload
from repro.engine.placement import Workload
from repro.engine.simulator import simulate_generation
from repro.llm.config import LLAMA2_7B
from repro.llm.datatypes import BFLOAT16
from repro.memo import all_cache_stats, clear_all_caches
from repro.validate.oracle import reference_decode_clean

REPO_ROOT = Path(__file__).resolve().parent.parent

WORKLOAD = Workload(LLAMA2_7B, BFLOAT16, batch_size=4, input_tokens=128,
                    output_tokens=128)
DEPLOYMENTS = {
    "baremetal": cpu_deployment("baremetal", sockets_used=1),
    "tdx": cpu_deployment("tdx", sockets_used=1),
    "sgx": cpu_deployment("sgx", sockets_used=1),
    "cgpu": gpu_deployment(confidential=True),
}


def _time(func, repeats: int = 5) -> dict:
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        func()
        samples.append(time.perf_counter() - start)
    return {
        "best_s": min(samples),
        "mean_s": statistics.fmean(samples),
        "repeats": repeats,
    }


def micro_benchmarks() -> dict:
    tdx = DEPLOYMENTS["tdx"]
    results = {}

    # Cold: every graph, engine and step cost built from scratch.
    clear_all_caches()
    start = time.perf_counter()
    simulate_generation(WORKLOAD, tdx)
    results["simulate_7b_cold"] = {"best_s": time.perf_counter() - start,
                                   "repeats": 1}

    # Warm: everything but the noise draw comes out of the caches.
    results["simulate_7b_warm"] = _time(
        lambda: simulate_generation(WORKLOAD, tdx))

    # The vectorized engine vs. the per-token loop oracle at exact
    # stride-1 resolution (parity-tested).
    results["decode_vectorized_stride1"] = _time(
        lambda: simulate_generation(WORKLOAD, tdx, context_stride=1))
    results["decode_loop_stride1"] = _time(
        lambda: reference_decode_clean(WORKLOAD, tdx), repeats=3)

    # A representative sweep (warm caches; what figures actually run).
    results["sweep_batch_4pts"] = _time(
        lambda: sweep_workload("bench", WORKLOAD, DEPLOYMENTS, "batch_size",
                               [1, 4, 16, 64]), repeats=3)

    # Serving step costing: cold prefill lookups over 200 prompt
    # lengths on a CPU TEE and a cGPU, each a new block-costed step
    # shape (what a long-prompt fleet pays per new prompt length).
    # Informational; not gated by --compare.
    from repro.fleet import replica_spec
    from repro.serving.stepcost import StepCostTable

    def cold_prefill() -> None:
        for kind in ("tdx", "cgpu"):
            table = StepCostTable(replica_spec(kind).deployment, LLAMA2_7B,
                                  BFLOAT16)
            for prompt_tokens in range(1900, 2100):
                table.prefill_s(prompt_tokens)

    results["stepcost_cold_prefill"] = _time(cold_prefill, repeats=3)

    # Fleet smoke: a 2-replica TDX fleet serving a 40-request stream
    # through the shared-clock event loop (routing + stepped replicas).
    from repro.fleet import fixed_fleet, poisson_table
    fleet_stream = poisson_table(40, rate_per_s=4.0, mean_prompt=128,
                                 mean_output=32, seed=11)
    fleet_spec = replica_spec("tdx", max_batch=16, kv_capacity_tokens=65536)
    results["fleet_2x_tdx_40req"] = _time(
        lambda: fixed_fleet(fleet_spec, 2).run(fleet_stream), repeats=3)

    # Chaos smoke: the same fleet under a hazard-rate fault schedule
    # with timeout/retry recovery — the injector + resilience overhead
    # on top of the plain event loop.
    from repro.faults import RetryPolicy, mtbf_schedule
    chaos_schedule = mtbf_schedule([0, 1], mtbf_s=8.0, horizon_s=20.0,
                                   seed=5)
    results["fleet_2x_tdx_40req_chaos"] = _time(
        lambda: fixed_fleet(
            fleet_spec, 2, faults=chaos_schedule,
            retry_policy=RetryPolicy(timeout_s=15.0, max_attempts=3,
                                     seed=5)).run(fleet_stream), repeats=3)

    # Tenancy smoke: the whale-dominated tenant mix under WFQ with
    # prefix sharing — the multi-tenant plane's overhead (tagged
    # admission + per-tenant breakdown) on top of the plain fleet.
    from repro.tenancy import run_tenant_fleet, whale_mix
    tenant_population = whale_mix(total_requests=40, rate_per_s=6.0, seed=3,
                                  prefix_tokens=64)
    results["fleet_tenant_mix"] = _time(
        lambda: run_tenant_fleet(tenant_population, kind="tdx", count=2,
                                 admission="wfq",
                                 kv_isolation="shared-prefix", max_batch=16,
                                 kv_capacity_tokens=65536), repeats=3)

    # Boot smoke: the same fleet with the phased confidential cold
    # start armed — every replica walks provision → attest → key
    # release → decrypt → load before serving, and crash recoveries
    # re-enter at attestation.  Measures the boot-lifecycle overhead
    # (phase arithmetic + longer simulated horizon) on the chaos fleet.
    from repro.tee.boot import boot_profile
    boot_spec = replica_spec("tdx", max_batch=16, kv_capacity_tokens=65536,
                             boot=boot_profile("tdx"))
    results["fleet_2x_tdx_40req_phased_boot"] = _time(
        lambda: fixed_fleet(
            boot_spec, 2, faults=chaos_schedule,
            retry_policy=RetryPolicy(timeout_s=15.0, max_attempts=3,
                                     seed=5)).run(fleet_stream), repeats=3)
    return results


def fleet_million_benchmark() -> dict:
    """The fleet-core headline: one million requests in one run.

    Stream generation happens outside the timed region (it is numpy
    columnar construction, not simulation); the measurement is the
    columnar fleet core serving the full table.  Run once —
    at this scale a single run is statistically stable.
    """
    from repro.fleet import fixed_fleet, poisson_table, replica_spec
    spec = replica_spec("tdx", max_batch=16, kv_capacity_tokens=65536)
    table = poisson_table(1_000_000, rate_per_s=400.0, mean_prompt=128,
                          mean_output=32, seed=11)
    start = time.perf_counter()
    report = fixed_fleet(spec, 8).run(table)
    wall_s = time.perf_counter() - start
    requests = len(report.outcomes)
    if requests < 1_000_000:
        raise AssertionError(
            f"fleet_1M_req completed only {requests} requests")
    return {"requests": requests, "wall_s": wall_s,
            "req_per_wall_s": requests / wall_s, "repeats": 1}


#: Regression tolerance for the --compare gate: a benchmark may be at
#: most this much slower than the committed baseline before CI fails.
COMPARE_SLACK = 1.25

#: Benchmarks the --compare gate enforces (others are informational).
COMPARE_GATED = ("fleet_1M_req",)


def compare_against(report: dict, baseline_path: Path) -> list[str]:
    """Diff ``report`` against a committed baseline; return failures."""
    baseline = json.loads(baseline_path.read_text())
    failures = []
    for name in COMPARE_GATED:
        ours = report["micro"].get(name)
        theirs = baseline.get("micro", {}).get(name)
        if ours is None or theirs is None:
            failures.append(f"{name}: missing from "
                            f"{'report' if ours is None else 'baseline'}")
            continue
        wall, committed = ours["wall_s"], theirs["wall_s"]
        verdict = "OK" if wall <= committed * COMPARE_SLACK else "FAIL"
        print(f"compare {name}: {wall:.1f}s vs committed {committed:.1f}s "
              f"(x{wall / committed:.2f}, slack x{COMPARE_SLACK}) {verdict}",
              file=sys.stderr)
        if verdict == "FAIL":
            failures.append(
                f"{name}: {wall:.1f}s exceeds committed {committed:.1f}s "
                f"by more than {(COMPARE_SLACK - 1) * 100:.0f}%")
    return failures


def suite_benchmark() -> dict:
    """Wall-clock of the tier-1 suite in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    cmd = [sys.executable, "-m", "pytest", "-x", "-q",
           "-p", "no:cacheprovider"]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=REPO_ROOT, capture_output=True, text=True,
                          env=env)
    wall_s = time.perf_counter() - start
    tail = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
    return {"wall_s": wall_s, "returncode": proc.returncode, "summary": tail}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--suite", action="store_true",
                        help="also time the tier-1 pytest suite")
    parser.add_argument("--budget-s", type=float, default=None,
                        help="fail (exit 1) if the suite exceeds this budget")
    parser.add_argument("--baseline-s", type=float, default=None,
                        help="pre-optimization suite wall-clock to record "
                             "alongside the measurement")
    parser.add_argument("--out", type=Path, default=None,
                        help="write the JSON report to this path")
    parser.add_argument("--quick", action="store_true",
                        help="skip the 1M-request fleet benchmark")
    parser.add_argument("--compare", type=Path, default=None,
                        help="fail (exit 1) if a gated benchmark regresses "
                             f"more than {(COMPARE_SLACK - 1) * 100:.0f}%% "
                             "past this committed baseline JSON")
    args = parser.parse_args(argv)

    report = {
        "schema": "repro-bench/1",
        "python": platform.python_version(),
        "machine": platform.machine(),
        "micro": micro_benchmarks(),
        "caches": {name: {"hits": s.hits, "misses": s.misses,
                          "hit_rate": round(s.hit_rate, 4),
                          "size": s.size, "evictions": s.evictions}
                   for name, s in sorted(all_cache_stats().items())},
    }
    micro = report["micro"]
    speedup = (micro["decode_loop_stride1"]["best_s"]
               / micro["decode_vectorized_stride1"]["best_s"])
    report["vectorized_speedup_x"] = round(speedup, 1)

    if not args.quick:
        micro["fleet_1M_req"] = fleet_million_benchmark()

    if args.suite or args.budget_s is not None:
        report["suite"] = suite_benchmark()
        if args.baseline_s is not None:
            report["suite"]["baseline_wall_s"] = args.baseline_s
            report["suite"]["speedup_vs_baseline_x"] = round(
                args.baseline_s / report["suite"]["wall_s"], 1)

    out = json.dumps(report, indent=2, sort_keys=False)
    print(out)
    if args.out:
        args.out.write_text(out + "\n")

    if args.compare is not None:
        failures = compare_against(report, args.compare)
        if failures:
            for failure in failures:
                print(f"FAIL: {failure}", file=sys.stderr)
            return 1

    suite = report.get("suite")
    if suite and suite["returncode"] != 0:
        print("FAIL: test suite failed", file=sys.stderr)
        return suite["returncode"]
    if suite and args.budget_s is not None and suite["wall_s"] > args.budget_s:
        print(f"FAIL: suite took {suite['wall_s']:.1f}s "
              f"> budget {args.budget_s:.1f}s", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
