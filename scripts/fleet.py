"""Fleet serving CLI: simulate, autoscale, and capacity-plan TEE fleets.

Drives :mod:`repro.fleet` end to end — the cluster-scale counterpart of
the per-instance figure benchmarks: how many confidential replicas does
a traffic level need, at what $/Mtok, and how do routing and reactive
autoscaling change the answer.

Usage::

    PYTHONPATH=src python scripts/fleet.py run --kind tdx --replicas 3 \\
        --arrivals poisson --rate 4 --count 80
    PYTHONPATH=src python scripts/fleet.py run --kind tdx --kind cgpu \\
        --router cost-slo --slo-ttft 2.0 --arrivals mmpp --rate 3 --count 120
    PYTHONPATH=src python scripts/fleet.py autoscale --kind tdx \\
        --max-replicas 6 --arrivals diurnal --rate 4 --count 150
    PYTHONPATH=src python scripts/fleet.py sweep --slo-ttft 2.0 \\
        --kinds tdx,cgpu --max-replicas 6 [--json plan.json]
    PYTHONPATH=src python scripts/fleet.py sweep --resume runs/plan \\
        --arrivals poisson --phased-boot [--point-timeout 60]
    PYTHONPATH=src python scripts/fleet.py tenants --kind tdx --replicas 2 \\
        --admission wfq --kv-isolation shared-prefix --count 120 --inflation
    PYTHONPATH=src python scripts/fleet.py boot --tax [--resume RUN_DIR]

``sweep`` runs the committed capacity-planning trace (the same one the
``golden.fleet_capacity`` audit check snapshots) unless ``--arrivals``
overrides it.  ``--phased-boot`` arms the per-kind phased confidential
boot profiles (:mod:`repro.tee.boot`) instead of instant boots; ``boot``
prints the per-phase breakdown and (with ``--tax``) the attestation-tax
table the ``golden.attest_tax`` audit snapshot pins.

Both sweeps run their registered grid (:mod:`repro.state.points`)
through one point loop.  ``--resume RUN_DIR`` takes every other flag
and only adds a run directory: rows are write-ahead journaled there,
and rerunning the same command (or ``scripts/resume.py RUN_DIR``)
continues after a crash or SIGKILL with output identical to a plain
run's, apart from the run-dir status line.  ``--point-timeout`` needs
``--resume``, and ``boot --resume`` needs ``--tax``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.fleet import (  # noqa: E402
    ARRIVAL_KINDS,
    AutoscalerConfig,
    CapacityPlan,
    FleetReport,
    FleetSimulator,
    ROUTER_KINDS,
    ReactiveAutoscaler,
    make_arrival_table,
    make_router,
    replica_spec,
)
from repro.serving import ADMISSION_POLICIES, KV_ISOLATION_MODES  # noqa: E402
from repro.state import SweepRunner, attest_grid, capacity_grid  # noqa: E402
from repro.tee.boot import (  # noqa: E402
    TAX_TEE_KINDS,
    boot_breakdown,
    boot_profile,
)
from repro.tenancy import (  # noqa: E402
    noisy_neighbor_inflation,
    run_tenant_fleet,
    whale_mix,
)
from repro.validate.fleet import CAPACITY_SLO_TTFT_S, CAPACITY_TRACE  # noqa: E402


def _print_rows(title: str, rows: list[dict]) -> None:
    if not rows:
        print(f"=== {title} === (empty)")
        return
    columns = list(rows[0])
    widths = {c: max(len(c), *(len(_fmt(r[c])) for r in rows))
              for c in columns}
    print(f"\n=== {title} ===")
    print("  ".join(c.ljust(widths[c]) for c in columns))
    for row in rows:
        print("  ".join(_fmt(row[c]).ljust(widths[c]) for c in columns))


def _fmt(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.3f}" if abs(value) < 100 else f"{value:.0f}"
    return str(value)


def _print_report(report: FleetReport, slo_ttft_s: float) -> None:
    print(f"requests           {len(report.outcomes)}")
    print(f"makespan           {report.makespan_s:.1f} s "
          f"(from t={report.start_s:.1f})")
    print(f"throughput         {report.throughput_tok_s:.0f} tok/s")
    print(f"ttft p50/p99       {report.ttft_percentile(50):.2f} / "
          f"{report.ttft_percentile(99):.2f} s")
    print(f"e2e  p50/p99       {report.e2e_percentile(50):.2f} / "
          f"{report.e2e_percentile(99):.2f} s")
    print(f"SLO attainment     {100 * report.slo_attainment(slo_ttft_s):.1f}% "
          f"(TTFT <= {slo_ttft_s:.1f} s)")
    print(f"fleet cost         ${report.cost_usd:.4f} "
          f"(${report.usd_per_mtok:.2f}/Mtok)")
    print(f"peak replicas      {report.peak_replicas}  "
          f"preemptions {report.total_preemptions}  "
          f"scale events {len(report.scale_events)}")
    _print_rows("replicas", report.summary_rows())


def _arrivals(args: argparse.Namespace):
    return make_arrival_table(args.arrivals, args.count, args.rate,
                              mean_prompt=args.mean_prompt,
                              mean_output=args.mean_output, seed=args.seed)


def _boot(args: argparse.Namespace, kind: str):
    """Phased confidential boot profile, when ``--phased-boot`` is set."""
    return boot_profile(kind) if args.phased_boot else None


def cmd_run(args: argparse.Namespace) -> int:
    specs = [replica_spec(kind,
                          admission_lookahead=args.admission_lookahead,
                          boot=_boot(args, kind))
             for kind in args.kind for _ in range(args.replicas)]
    router = make_router(args.router, slo_ttft_s=args.slo_ttft)
    report = FleetSimulator(specs, router=router).run(_arrivals(args))
    _print_report(report, args.slo_ttft)
    if args.json:
        args.json.write_text(json.dumps(report.to_dict(), indent=2) + "\n")
    return 0


def cmd_autoscale(args: argparse.Namespace) -> int:
    scaler = ReactiveAutoscaler(AutoscalerConfig(
        min_replicas=args.replicas, max_replicas=args.max_replicas,
        scale_up_load=args.scale_up_load,
        scale_down_load=args.scale_down_load,
        cooldown_s=args.cooldown, boot_latency_s=args.boot_latency))
    specs = [replica_spec(args.kind[0],
                          admission_lookahead=args.admission_lookahead,
                          boot=_boot(args, args.kind[0]))
             ] * args.replicas
    router = make_router(args.router, slo_ttft_s=args.slo_ttft)
    fleet = FleetSimulator(specs, router=router, autoscaler=scaler)
    report = fleet.run(_arrivals(args))
    _print_report(report, args.slo_ttft)
    _print_rows("scale events", [
        {"t_s": e.time_s, "action": e.action,
         "load_per_replica": e.load_per_replica,
         "active": e.active_replicas}
        for e in report.scale_events])
    if args.json:
        args.json.write_text(json.dumps(report.to_dict(), indent=2) + "\n")
    return 0


def _sweep_runner(args: argparse.Namespace, spec, note: str = ""):
    """Run ``spec`` in memory, or journaled into ``--resume RUN_DIR``."""
    if args.resume is None:
        return SweepRunner(None, spec)
    runner = SweepRunner.create(args.resume, spec)
    print(f"run dir {args.resume}: {len(runner.completed())}/"
          f"{len(spec.points)} points journaled, "
          f"{len(runner.pending())} to go{note}")
    return runner


def _print_quarantined(runner) -> None:
    quarantined = runner.quarantined()
    if quarantined:
        _print_rows("quarantined points", [
            {"index": q["index"], "key": q["key"],
             "attempts": q["attempts"], "error": q["error"]}
            for q in quarantined.values()])


def cmd_sweep(args: argparse.Namespace) -> int:
    kinds = args.kinds.split(",")
    spec = capacity_grid(
        kinds=tuple(kinds), max_replicas=args.max_replicas,
        slo_ttft_s=args.slo_ttft, percentile=args.percentile,
        arrivals=args.arrivals, num_requests=args.count, rate_rps=args.rate,
        mean_prompt=args.mean_prompt, mean_output=args.mean_output,
        seed=args.seed, phased_boot=args.phased_boot,
        admission_lookahead=args.admission_lookahead, router=args.router,
        point_timeout_s=args.point_timeout)
    runner = _sweep_runner(args, spec, " (SLO-met sizes prune the rest of "
                                       "their kind)")
    # Partial results stream as each fleet size lands (append when
    # resuming: the run directory's WAL already holds earlier rows).
    stream = (open(args.jsonl, "a" if args.resume else "w",
                   encoding="utf-8") if args.jsonl else None)

    def emit(point, row: dict) -> None:
        if stream is not None:
            stream.write(json.dumps(row, sort_keys=True) + "\n")
            stream.flush()

    try:
        by_index = runner.run(on_row=emit)
    finally:
        if stream is not None:
            stream.close()
    plans = {kind: CapacityPlan.from_rows(kind, by_index.values(),
                                          args.slo_ttft, args.percentile)
             for kind in kinds}
    rows = []
    for kind, plan in plans.items():
        for point in plan.points:
            rows.append({"kind": kind, "replicas": point.replicas,
                         f"p{args.percentile:.0f}_ttft_s": point.p99_ttft_s,
                         "attainment": point.attainment,
                         "usd_per_mtok": point.usd_per_mtok,
                         "meets_slo": point.meets_slo})
    num_requests = args.count if args.arrivals else len(CAPACITY_TRACE)
    _print_rows(f"capacity sweep (p{args.percentile:.0f} TTFT <= "
                f"{args.slo_ttft:.1f}s, {num_requests} requests)", rows)
    print()
    for kind, plan in plans.items():
        if plan.replicas_needed is None:
            print(f"{kind:>10}: SLO unattainable within "
                  f"{args.max_replicas} replicas")
        else:
            print(f"{kind:>10}: {plan.replicas_needed} replica(s), "
                  f"${plan.usd_per_mtok_at_slo:.2f}/Mtok at SLO")
    _print_quarantined(runner)
    if args.json:
        payload = {kind: plan.to_dict() for kind, plan in plans.items()}
        args.json.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"\nplan written to {args.json}")
    return 0


def cmd_tenants(args: argparse.Namespace) -> int:
    population = whale_mix(total_requests=args.count, rate_per_s=args.rate,
                           seed=args.seed, prefix_tokens=args.prefix_tokens)
    report = run_tenant_fleet(
        population, kind=args.kind[0], count=args.replicas,
        admission=args.admission, kv_isolation=args.kv_isolation,
        max_batch=args.max_batch, kv_capacity_tokens=args.kv_capacity,
        admission_lookahead=args.admission_lookahead)
    fleet = report.fleet
    print(f"tenants            {len(report.tenants)} "
          f"({args.admission}, {args.kv_isolation})")
    print(f"requests           {len(fleet.outcomes)} completed, "
          f"{len(fleet.shed)} shed")
    print(f"fleet cost         ${fleet.cost_usd:.4f} "
          f"({report.total_bill_cents} tenant-invoice cents)")
    spread = report.ttft_p99_spread()
    print(f"p99-TTFT spread    "
          f"{'n/a' if spread is None else f'{spread:.2f}x'}  "
          f"prefix hits/misses {report.prefix_hits}/{report.prefix_misses}")
    _print_rows("tenants", [u.to_dict() for u in report.tenants])
    if args.inflation:
        inflation = noisy_neighbor_inflation(
            population, kind=args.kind[0], count=args.replicas,
            admission=args.admission,
            kv_isolation=args.kv_isolation, max_batch=args.max_batch,
            kv_capacity_tokens=args.kv_capacity,
            admission_lookahead=args.admission_lookahead)
        _print_rows("noisy-neighbor p99-TTFT inflation vs solo", [
            {"tenant_id": tenant_id,
             "inflation": "n/a" if value is None else f"{value:.2f}x"}
            for tenant_id, value in sorted(inflation.items())])
    if args.json:
        args.json.write_text(json.dumps(report.to_dict(), indent=2) + "\n")
    return 0


def cmd_boot(args: argparse.Namespace) -> int:
    kinds = tuple(args.kinds.split(","))
    rows = boot_breakdown(kinds)
    _print_rows("phased boot breakdown (seconds per phase)", rows)
    if not args.tax:
        return 0
    runner = _sweep_runner(args, attest_grid(
        slo_ttft_s=args.slo_ttft, point_timeout_s=args.point_timeout))
    tax_rows = list(runner.run().values())
    _print_rows("attestation tax (phased vs legacy instant boots)",
                tax_rows)
    _print_quarantined(runner)
    if args.json:
        args.json.write_text(json.dumps(
            {"breakdown": rows, "tax": tax_rows}, indent=2) + "\n")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, default_arrivals: str | None):
        p.add_argument("--arrivals", choices=ARRIVAL_KINDS,
                       default=default_arrivals,
                       help="arrival process (sweep default: committed trace)")
        p.add_argument("--rate", type=float, default=4.0,
                       help="arrival rate (req/s; MMPP calm rate)")
        p.add_argument("--count", type=int, default=80,
                       help="number of requests")
        p.add_argument("--mean-prompt", type=int, default=256)
        p.add_argument("--mean-output", type=int, default=64)
        p.add_argument("--seed", type=int, default=11)
        p.add_argument("--router", choices=ROUTER_KINDS,
                       default="least-outstanding")
        p.add_argument("--slo-ttft", type=float,
                       default=CAPACITY_SLO_TTFT_S,
                       help="TTFT SLO in seconds")
        p.add_argument("--json", type=Path, default=None,
                       help="also write the report/plan as JSON")
        p.add_argument("--admission-lookahead", type=int, default=0,
                       help="scheduler head-of-line lookahead window "
                            "(0 = strict head-of-line blocking)")
        p.add_argument("--phased-boot", action="store_true",
                       help="arm the per-kind phased confidential boot "
                            "profile (provision/attest/key-release/"
                            "decrypt/load) instead of instant boots")

    run_p = sub.add_parser("run", help="simulate a fixed fleet")
    run_p.add_argument("--kind", action="append", default=None,
                       help="replica kind (repeatable for mixed fleets)")
    run_p.add_argument("--replicas", type=int, default=2,
                       help="replicas per kind")
    add_common(run_p, "poisson")
    run_p.set_defaults(func=cmd_run)

    auto_p = sub.add_parser("autoscale", help="simulate a reactive fleet")
    auto_p.add_argument("--kind", action="append", default=None)
    auto_p.add_argument("--replicas", type=int, default=1,
                        help="initial (and minimum) replicas")
    auto_p.add_argument("--max-replicas", type=int, default=6)
    auto_p.add_argument("--scale-up-load", type=float, default=4.0)
    auto_p.add_argument("--scale-down-load", type=float, default=0.5)
    auto_p.add_argument("--cooldown", type=float, default=10.0)
    auto_p.add_argument("--boot-latency", type=float, default=15.0)
    add_common(auto_p, "mmpp")
    auto_p.set_defaults(func=cmd_autoscale)

    sweep_p = sub.add_parser("sweep", help="capacity-planning sweep")
    sweep_p.add_argument("--kinds", default="tdx,cgpu",
                         help="comma-separated replica kinds")
    sweep_p.add_argument("--max-replicas", type=int, default=6)
    sweep_p.add_argument("--percentile", type=float, default=99.0)
    sweep_p.add_argument("--jsonl", type=Path, default=None,
                         help="stream one JSON row per completed fleet size")
    sweep_p.add_argument("--resume", type=Path, default=None,
                         metavar="RUN_DIR",
                         help="write-ahead journal the sweep into RUN_DIR; "
                              "rerun to continue after a crash/SIGKILL")
    sweep_p.add_argument("--point-timeout", type=float, default=None,
                         metavar="WALL_S",
                         help="with --resume: watchdog wall-clock budget "
                              "per point attempt")
    add_common(sweep_p, None)
    sweep_p.set_defaults(func=cmd_sweep)

    ten_p = sub.add_parser(
        "tenants", help="simulate a multi-tenant fleet (whale mix)")
    ten_p.add_argument("--kind", action="append", default=None,
                       help="replica kind")
    ten_p.add_argument("--replicas", type=int, default=2)
    ten_p.add_argument("--count", type=int, default=120,
                       help="total requests across the tenant mix")
    ten_p.add_argument("--rate", type=float, default=6.0,
                       help="aggregate arrival rate (req/s)")
    ten_p.add_argument("--seed", type=int, default=0)
    ten_p.add_argument("--admission", choices=ADMISSION_POLICIES,
                       default="wfq")
    ten_p.add_argument("--kv-isolation", choices=KV_ISOLATION_MODES,
                       default="shared")
    ten_p.add_argument("--prefix-tokens", type=int, default=64,
                       help="shared prompt prefix for the whale and mid "
                            "tenants (shared-prefix isolation)")
    ten_p.add_argument("--max-batch", type=int, default=8)
    ten_p.add_argument("--kv-capacity", type=int, default=16384,
                       help="KV pool per replica (tokens)")
    ten_p.add_argument("--admission-lookahead", type=int, default=0)
    ten_p.add_argument("--inflation", action="store_true",
                       help="also run each tenant solo and report "
                            "noisy-neighbor p99-TTFT inflation")
    ten_p.add_argument("--json", type=Path, default=None)
    ten_p.set_defaults(func=cmd_tenants)

    boot_p = sub.add_parser(
        "boot", help="phased confidential boot breakdown / attestation tax")
    boot_p.add_argument("--kinds", default=",".join(TAX_TEE_KINDS),
                        help="comma-separated TEE kinds for the breakdown")
    boot_p.add_argument("--tax", action="store_true",
                        help="also re-run the capacity and chaos headlines "
                             "with phased vs instant boots")
    boot_p.add_argument("--slo-ttft", type=float, default=CAPACITY_SLO_TTFT_S)
    boot_p.add_argument("--resume", type=Path, default=None,
                        metavar="RUN_DIR",
                        help="with --tax: write-ahead journal the table "
                             "into RUN_DIR; rerun to continue after a "
                             "crash/SIGKILL")
    boot_p.add_argument("--point-timeout", type=float, default=None,
                        metavar="WALL_S",
                        help="with --resume: watchdog wall-clock budget "
                             "per point attempt")
    boot_p.add_argument("--json", type=Path, default=None)
    boot_p.set_defaults(func=cmd_boot)

    args = parser.parse_args(argv)
    if getattr(args, "point_timeout", None) is not None \
            and args.resume is None:
        parser.error("--point-timeout needs --resume RUN_DIR")
    if args.command == "boot" and args.resume is not None and not args.tax:
        parser.error("--resume needs --tax (only the tax table is a sweep)")
    if getattr(args, "kind", None) is None and hasattr(args, "kind"):
        args.kind = ["tdx"]
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
