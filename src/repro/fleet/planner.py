"""Capacity planning: replicas and dollars needed to hit an SLO.

The paper's cost analysis (Figs. 12-13) prices a single instance at a
fixed workload; a provider's real question is sizing: *how many* TDX or
cGPU replicas does a given traffic level need before p99 TTFT clears
the SLO, and what does a million tokens cost at that fleet size?  The
capacity grid (:func:`repro.state.points.capacity_grid`) answers it by
grading the same arrival trace against growing fixed fleets of each
kind (:func:`evaluate_fleet`); :meth:`CapacityPlan.from_rows` picks
the smallest that attains the objective.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import asdict, dataclass

from ..serving.scheduler import ServeRequest
from .cluster import fixed_fleet
from .replica import ReplicaSpec
from .report import FleetReport
from .router import LeastOutstandingRouter, Router


@dataclass(frozen=True)
class CapacityPoint:
    """One fleet size evaluated against the trace."""

    kind: str
    replicas: int
    p99_ttft_s: float
    attainment: float
    usd_per_mtok: float
    meets_slo: bool

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class CapacityPlan:
    """Sweep result for one replica kind.

    Attributes:
        kind: Replica kind swept.
        slo_ttft_s: The p-percentile TTFT objective.
        percentile: Which TTFT percentile the SLO binds (paper: p99).
        points: One entry per fleet size tried, ascending.
        replicas_needed: Smallest fleet meeting the SLO (``None`` when
            even the largest swept fleet misses it).
    """

    kind: str
    slo_ttft_s: float
    percentile: float
    points: tuple[CapacityPoint, ...]
    replicas_needed: int | None

    @property
    def plan_point(self) -> CapacityPoint | None:
        """The chosen fleet size's evaluation, if the SLO is attainable."""
        for point in self.points:
            if point.replicas == self.replicas_needed:
                return point
        return None

    @property
    def usd_per_mtok_at_slo(self) -> float | None:
        point = self.plan_point
        return point.usd_per_mtok if point else None

    @classmethod
    def from_rows(cls, kind: str, rows: Iterable[dict], slo_ttft_s: float,
                  percentile: float = 99.0) -> "CapacityPlan":
        """The plan for ``kind`` from capacity-grid rows, in grid order.

        Rows of other kinds are skipped; the first fleet size meeting
        the SLO is the one needed.
        """
        points = tuple(CapacityPoint(**row) for row in rows
                       if row["kind"] == kind)
        needed = next((p.replicas for p in points if p.meets_slo), None)
        return cls(kind=kind, slo_ttft_s=slo_ttft_s, percentile=percentile,
                   points=points, replicas_needed=needed)

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "slo_ttft_s": self.slo_ttft_s,
            "percentile": self.percentile,
            "replicas_needed": self.replicas_needed,
            "usd_per_mtok_at_slo": self.usd_per_mtok_at_slo,
            "points": [point.to_dict() for point in self.points],
        }


def evaluate_fleet(spec: ReplicaSpec, count: int,
                   requests: Sequence[ServeRequest], slo_ttft_s: float,
                   percentile: float = 99.0,
                   router: Router | None = None,
                   ) -> tuple[CapacityPoint, FleetReport]:
    """Run one fixed fleet against the trace and grade it vs the SLO."""
    fleet = fixed_fleet(spec, count, router=router
                        or LeastOutstandingRouter())
    report = fleet.run(requests)
    p_ttft = report.ttft_percentile(percentile)
    point = CapacityPoint(
        kind=spec.kind, replicas=count, p99_ttft_s=p_ttft,
        attainment=report.slo_attainment(slo_ttft_s),
        usd_per_mtok=report.usd_per_mtok,
        meets_slo=p_ttft <= slo_ttft_s)
    return point, report
