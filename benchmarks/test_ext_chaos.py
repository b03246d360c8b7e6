"""Chaos extension — serving economics as replicas start failing.

The paper's cost comparison (§V-D) assumes immortal replicas.  This
bench replays the committed MTBF sweep (:func:`repro.state.chaos_grid`,
run in memory; the series the ``golden.chaos_mtbf`` audit check snapshots): the same
seeded request stream against single-replica TDX and cGPU fleets under
hazard-rate fault schedules at decreasing mean-time-between-failures,
with seeded timeout/retry recovery.

The resilience finding extends the performance one: the same hazard
rate hurts the CPU TEE far more than the confidential GPU — TDX holds a
request in harm's way ~5x longer per token, so crashes waste more work
and its SLO attainment collapses faster.  But the cost ranking again
survives: even at MTBF 6 s, faulted TDX stays cheaper per million
tokens than the *fault-free* cGPU fleet.
"""

from helpers import print_rows, run_once

from repro.faults.sweep import DEFAULT_MTBF_GRID_S
from repro.state import SweepRunner, chaos_grid

KINDS = ("tdx", "cgpu")


def regenerate() -> dict:
    rows = list(SweepRunner(None, chaos_grid()).run().values())
    by_point = {(r["kind"], r["mtbf_s"]): r for r in rows}
    return {"rows": rows, "by_point": by_point}


def test_ext_chaos(benchmark):
    data = run_once(benchmark, regenerate)
    print_rows("Chaos MTBF sweep (TTFT SLO 2 s, single replica per kind)",
               data["rows"])
    point = data["by_point"]
    grid = [p for p in DEFAULT_MTBF_GRID_S if p is not None]

    for kind in KINDS:
        anchor = point[(kind, None)]
        # Fault-free anchor: clean run, full SLO attainment, no waste.
        assert anchor["slo_attainment"] == 1.0
        assert anchor["retries"] == 0 and anchor["wasted_tokens"] == 0
        assert anchor["cost_usd"] == anchor["goodput_cost_usd"]

        # Conservation even under faults: nothing lost.
        for mtbf in grid:
            row = point[(kind, mtbf)]
            assert row["completed"] + row["shed"] == 36
            assert row["fault_events"] > 0

        # SLO attainment degrades monotonically with failure rate...
        attainment = [point[(kind, m)]["slo_attainment"]
                      for m in [None] + grid]
        assert all(b < a for a, b in zip(attainment, attainment[1:])), kind

        # ...and every faulted point costs more per good token.
        for mtbf in grid:
            assert (point[(kind, mtbf)]["usd_per_mtok"]
                    > anchor["usd_per_mtok"] * 1.5), (kind, mtbf)

    # The slower CPU TEE is hit harder by the same hazard: its SLO
    # collapse at the densest point is deeper than the cGPU's, and it
    # burns retries/wasted tokens where the cGPU mostly just stalls.
    worst = grid[-1]
    assert (point[("tdx", worst)]["slo_attainment"]
            < point[("cgpu", worst)]["slo_attainment"])
    assert (point[("tdx", worst)]["wasted_tokens"]
            > point[("cgpu", worst)]["wasted_tokens"])

    # The paper's cost ranking survives chaos: faulted TDX still beats
    # even the fault-free cGPU per million tokens.
    assert (point[("tdx", worst)]["usd_per_mtok"]
            < point[("cgpu", None)]["usd_per_mtok"])
