"""Fleet-simulator benchmark: end-to-end metrics and a per-layer split.

Usage (from the repository root)::

    python3 fleetbench/run.py --workload sized_jsq --seed 1 --seconds 20 --trace 0

``--trace 0`` repeats the workload in fresh interpreters (``rep.py``)
for ``--seconds`` seconds, at least twice, and prints the end-to-end
metrics: host metrics are medians over the repetitions, simulated
metrics come from the workload's streams.  ``--trace 1`` alternates
untraced and traced repetitions and prints the per-layer metrics.
``--workload all`` runs every workload in turn.  Every repetition is
checked (see ``checks.py``); a repetition that fails a check counts as
failed and adds no numbers.  The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from calibrate import REFERENCE_ROUND_S

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RECORDED = HERE / "recorded.json"
TRACE_DIR = HERE / "out"

WORKLOADS = ("sized_jsq", "hetero_slo_long", "chaos_tenants")

#: A run must end well inside this many seconds.
DEADLINE_S = 170.0
#: Extra set-up-only repetitions per untraced run: ``setup_s`` is a
#: short interval, so it takes the median of more samples.
SETUP_SAMPLES = 3

END_TO_END = (
    ("sim_req_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ttft_p50_s", "s"),
    ("ttft_p99_s", "s"),
    ("slo_attainment", "share"),
    ("usd_per_mtok", "USD/Mtok"),
    ("served_share", "share"),
)

#: Per-layer metrics; host timings are medians over traced repetitions,
#: everything else is an exact count that must repeat.
PER_LAYER = (
    ("router.calls", "count"),
    ("router.replicas_scanned", "count"),
    ("router.mean_scanned", "count"),
    ("router.self_s", "s"),
    ("router.us_per_call", "us"),
    ("router.ttft_estimates", "count"),
    ("router.estimate_s", "s"),
    ("stepcost.decode_lookups", "count"),
    ("stepcost.prefill_lookups", "count"),
    ("stepcost.hit_ratio", "share"),
    ("costmodel.calls", "count"),
    ("costmodel.self_s", "s"),
    ("graph.builds", "count"),
    ("graph.s", "s"),
    ("replica.submits", "count"),
    ("replica.submit_s", "s"),
    ("replica.steps", "count"),
    ("replica.step_self_s", "s"),
    ("serving.tokens", "count"),
    ("serving.us_per_token", "us"),
    ("serving.preemptions", "count"),
    ("serving.prefix_hits", "count"),
    ("serving.prefix_misses", "count"),
    ("cluster.ticks_run", "count"),
    ("cluster.ticks_spanned", "count"),
    ("cluster.tick_exec_ratio", "share"),
    ("cluster.tick_self_s", "s"),
    ("cluster.run_self_s", "s"),
    ("autoscaler.decisions", "count"),
    ("autoscaler.s", "s"),
    ("autoscaler.scale_events", "count"),
    ("faults.due_s", "s"),
    ("faults.applied", "count"),
    ("faults.cancels", "count"),
    ("faults.retries", "count"),
    ("faults.wasted_tokens", "count"),
    ("faults.shed", "count"),
    ("boot.reattests", "count"),
    ("report.finish_s", "s"),
    ("report.tenant_s", "s"),
    ("stream.gen_s", "s"),
    ("stream.distinct_prompt_share", "share"),
    ("memo.entries_at_start", "count"),
    ("trace.overhead_ratio", "ratio"),
    ("host.raw_req_per_s", "1/s"),
    ("host.calib_round_us", "us"),
)
HOST_UNITS = ("s", "us", "ratio", "1/s")


def reference_s(seconds: float, result: dict) -> float:
    """Host seconds of a repetition, converted to reference-host seconds
    by the repetition's calibration (see ``calibrate.py``)."""
    return seconds * REFERENCE_ROUND_S / result["round_s"]


class Repetitions:
    """Spawns repetitions and applies the cross-repetition checks."""

    def __init__(self, workload: str, seed: int, deadline: float) -> None:
        self.workload = workload
        self.seed = seed
        self.deadline = deadline
        recorded = (json.loads(RECORDED.read_text())
                    if RECORDED.exists() else {})
        self.recorded = (recorded.get(workload, {}).get(str(seed), {})
                         .get("digests"))
        self.digests: list[str] | None = None
        self.trace_counts: dict | None = None
        self.attempted = 0
        self.failed = 0
        self.untraced: list[dict] = []
        self.traced: list[dict] = []
        self.setups: list[float] = []

    def run(self, traced: bool) -> None:
        """Run one repetition and keep its result if it passes."""
        self.attempted += 1
        trace = TRACE_DIR / f"trace-{self.workload}-seed{self.seed}.npz"
        result, problems = self._spawn(["--trace", str(trace)]
                                       if traced else [])
        if result is not None:
            problems = result["problems"] + self._cross_check(result)
        if problems:
            self.failed += 1
            kind = "traced" if traced else "untraced"
            print(f"FAILED {self.workload} seed {self.seed} ({kind}): "
                  f"{'; '.join(problems)}", file=sys.stderr)
            return
        (self.traced if traced else self.untraced).append(result)
        self.setups.append(reference_s(result["setup_s"], result))

    def setup_only(self) -> None:
        """Time one more set-up.  One that fails adds no sample; the full
        repetitions run and check the same set-up code."""
        result, _ = self._spawn(["--setup-only"])
        if result is not None:
            self.setups.append(reference_s(result["setup_s"], result))

    def _spawn(self, extra: list[str]):
        command = [sys.executable, str(HERE / "rep.py"),
                   "--workload", self.workload, "--seed", str(self.seed),
                   *extra]
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        spawned = time.monotonic()
        proc = subprocess.Popen(command, cwd=ROOT, env=env, text=True,
                                stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE)
        try:
            out, err = proc.communicate(
                timeout=max(1.0, self.deadline - spawned))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            return None, ["repetition ran past the run's deadline"]
        if proc.returncode != 0:
            tail = err.strip().splitlines()[-1:] or ["no output"]
            return None, [f"repetition exited {proc.returncode}: {tail[0]}"]
        result = json.loads(out.strip().splitlines()[-1])
        result["setup_s"] = result["ready"] - spawned
        return result, []

    def _cross_check(self, result: dict) -> list[str]:
        problems = []
        digests = result["digests"]
        if self.digests is None:
            self.digests = digests
        elif digests != self.digests:
            problems.append(f"digests {digests} differ from an earlier "
                            f"repetition's {self.digests}")
        if self.recorded is not None and digests != self.recorded:
            problems.append(f"digests {digests} != recorded {self.recorded}")
        if "trace" in result:
            units = dict(PER_LAYER)
            counts = {name: value for name, value
                      in result["trace"]["metrics"].items()
                      if units[name] not in HOST_UNITS}
            if self.trace_counts is None:
                self.trace_counts = counts
            elif counts != self.trace_counts:
                changed = sorted(name for name in counts
                                 if counts[name] != self.trace_counts[name])
                problems.append(f"traced counts did not repeat: {changed}")
        return problems


def repeat(workload: str, seed: int, seconds: float, deadline: float,
           trace: bool) -> Repetitions:
    """Repeat the workload until ``seconds`` have passed (at least twice).

    With ``trace``, untraced and traced repetitions alternate.
    """
    reps = Repetitions(workload, seed, deadline)
    start = time.monotonic()
    index = 0
    while time.monotonic() < deadline:
        if index >= 2 and time.monotonic() - start >= seconds:
            break
        reps.run(traced=trace and index % 2 == 1)
        index += 1
    if not trace:
        for _ in range(SETUP_SAMPLES):
            if time.monotonic() >= deadline:
                break
            reps.setup_only()
    return reps


def end_to_end(reps: Repetitions) -> tuple[dict, dict] | None:
    ran = reps.untraced
    if not ran:
        return None
    sims = ran[0]["sims"]  # identical in every passing repetition
    total = {key: sum(sim[key] for sim in sims)
             for key in ("completed", "submitted", "slo_met", "cost_usd",
                         "tokens_out")}
    metrics = {
        "sim_req_per_s": statistics.median(
            total["completed"] / reference_s(r["wall_s"], r) for r in ran),
        "setup_s": statistics.median(reps.setups),
        "peak_rss_mb": statistics.median(r["rss_mb"] for r in ran),
        # The median over streams of each stream's percentile: one
        # stream's fault cascade does not move the figure.
        "ttft_p50_s": statistics.median(sim["ttft_p50_s"] for sim in sims),
        "ttft_p99_s": statistics.median(sim["ttft_p99_s"] for sim in sims),
        "slo_attainment": total["slo_met"] / total["submitted"],
        "usd_per_mtok": total["cost_usd"] / total["tokens_out"] * 1e6,
        "served_share": total["completed"] / total["submitted"],
    }
    info = {"repetitions": len(ran), "set-ups": len(reps.setups),
            "raw wall s": [round(r["wall_s"], 3) for r in ran],
            "calibration round us": [round(r["round_s"] * 1e6, 1)
                                     for r in ran],
            "streams": len(sims),
            "completed": total["completed"],
            "submitted": total["submitted"]}
    return metrics, info


def per_layer(reps: Repetitions) -> tuple[dict, dict] | None:
    traced, untraced = reps.traced, reps.untraced
    if not traced or not untraced:
        return None
    units = dict(PER_LAYER)
    metrics = {}
    for name, value in traced[0]["trace"]["metrics"].items():
        if units[name] in HOST_UNITS:
            value = statistics.median(r["trace"]["metrics"][name]
                                      for r in traced)
        metrics[name] = value
    traced_wall = statistics.median(reference_s(r["wall_s"], r)
                                    for r in traced)
    untraced_wall = statistics.median(reference_s(r["wall_s"], r)
                                      for r in untraced)
    completed = sum(sim["completed"] for sim in untraced[0]["sims"])
    metrics["stream.distinct_prompt_share"] = traced[0][
        "distinct_prompt_share"]
    metrics["memo.entries_at_start"] = traced[0]["memo_entries_at_start"]
    metrics["trace.overhead_ratio"] = traced_wall / untraced_wall
    metrics["host.raw_req_per_s"] = statistics.median(
        completed / r["wall_s"] for r in untraced)
    metrics["host.calib_round_us"] = statistics.median(
        r["round_s"] * 1e6 for r in untraced)
    split = {layer: statistics.median(r["trace"]["split"][layer]
                                      for r in traced)
             for layer in traced[0]["trace"]["split"]}
    info = {"traced repetitions": len(traced),
            "untraced repetitions": len(untraced),
            "traced reference s": round(traced_wall, 3),
            "untraced reference s": round(untraced_wall, 3),
            "split": split}
    return metrics, info


def _print_summary(workload: str, metrics: dict, units: dict,
                   info: dict) -> None:
    split = info.pop("split", None)
    print(f"== {workload}: "
          + ", ".join(f"{key} {value}" for key, value in info.items()))
    for name, value in metrics.items():
        print(f"  {name:32s} {value:>16.6g} {units[name]}")
    if split:
        wall = sum(split.values())
        print("  self time by layer (traced, seconds and share):")
        for layer, seconds in sorted(split.items(), key=lambda kv: -kv[1]):
            print(f"    {layer:30s} {seconds:10.4f} {seconds / wall:7.1%}")


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"],
                        required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "repro").is_dir():
        print(f"fleetbench: no simulator sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    workloads = list(WORKLOADS) if args.workload == "all" else [args.workload]
    units = dict(PER_LAYER if args.trace else END_TO_END)
    summarize = per_layer if args.trace else end_to_end
    combined = {}
    attempted = failed = 0
    for workload in workloads:
        reps = repeat(workload, args.seed, args.seconds,
                      time.monotonic() + DEADLINE_S, bool(args.trace))
        attempted += reps.attempted
        failed += reps.failed
        summary = summarize(reps)
        if summary is None:
            print(f"fleetbench: no repetition of {workload} passed its "
                  f"checks", file=sys.stderr)
            return 1
        metrics, info = summary
        _print_summary(workload, metrics, units, info)
        for name, value in metrics.items():
            key = name if len(workloads) == 1 else f"{workload}/{name}"
            combined[key] = {"value": value, "unit": units[name]}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": combined}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
