"""Fleet extension — capacity planning and $/Mtok at a TTFT SLO.

The paper prices single instances; operators buy fleets.  This bench
runs the capacity-planning sweep (:func:`repro.state.capacity_grid`,
run in memory) over the same fixed arrival trace the ``golden.fleet_capacity`` audit check pins:
grow TDX and cGPU fleets one replica at a time until p99 TTFT meets a
2 s SLO, then compare what the SLO actually costs per million tokens.

The cluster-scale finding mirrors the per-instance one: the cGPU meets
the SLO with fewer replicas (often one), but the CPU-TEE fleet that
matches it is still ~2x cheaper per token — TEE cost rankings survive
horizontal scaling.
"""

from helpers import print_rows, run_once

from repro.fleet import CapacityPlan
from repro.state import SweepRunner, capacity_grid
from repro.validate.fleet import CAPACITY_SLO_TTFT_S, CAPACITY_TRACE

KINDS = ("tdx", "cgpu")


def regenerate() -> dict:
    spec = capacity_grid(kinds=KINDS, max_replicas=6,
                         slo_ttft_s=CAPACITY_SLO_TTFT_S)
    rows = list(SweepRunner(None, spec).run().values())
    plans = {kind: CapacityPlan.from_rows(kind, rows, CAPACITY_SLO_TTFT_S)
             for kind in KINDS}
    return {"rows": rows, "plans": plans}


def test_ext_fleet(benchmark):
    data = run_once(benchmark, regenerate)
    print_rows(f"Fleet capacity sweep (p99 TTFT <= {CAPACITY_SLO_TTFT_S}s, "
               f"{len(CAPACITY_TRACE)} requests)", data["rows"])
    plans = data["plans"]

    # Both fleets can meet the SLO within the sweep.
    assert all(plans[kind].replicas_needed is not None for kind in KINDS)

    # The cGPU is faster per instance: it never needs more replicas,
    # and here a single one suffices while TDX needs several.
    assert plans["cgpu"].replicas_needed == 1
    assert plans["tdx"].replicas_needed > 1

    # ...yet the SLO-sized TDX fleet is still ~2x cheaper per token —
    # the paper's per-instance cost ranking survives horizontal scaling.
    tdx_cost = plans["tdx"].usd_per_mtok_at_slo
    cgpu_cost = plans["cgpu"].usd_per_mtok_at_slo
    assert 1.5 < cgpu_cost / tdx_cost < 4.0

    # Under-provisioned points miss the SLO; the plan point meets it.
    for kind in KINDS:
        assert all(not p.meets_slo for p in plans[kind].points[:-1])
        assert plans[kind].plan_point.meets_slo
        assert plans[kind].plan_point.p99_ttft_s <= CAPACITY_SLO_TTFT_S

    # The cGPU's tail advantage persists even against the SLO-sized
    # (multi-replica) TDX fleet.
    assert (plans["cgpu"].plan_point.p99_ttft_s
            < plans["tdx"].plan_point.p99_ttft_s)
