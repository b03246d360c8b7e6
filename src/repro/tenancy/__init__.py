"""Multi-tenant confidential serving plane.

Who shares a confidential fleet, how fairly it is scheduled, and what
each tenant pays: tenant populations with heavy-tailed mixes
(:mod:`repro.tenancy.population`), exact-partition billing
(:mod:`repro.tenancy.billing`), per-tenant SLO/fairness reports
(:mod:`repro.tenancy.report`), and one-call fleet runs plus the
noisy-neighbor interference metric (:mod:`repro.tenancy.simulate`).
The underlying admission and KV-isolation policies live in
:mod:`repro.serving.admission` so the scheduler (and its reference
oracle) can consume them without importing this package.
"""

from .billing import partition_bill_cents
from .population import TenantPopulation, TenantSpec, whale_mix
from .report import TenancyReport, TenantUsage, tenant_breakdown
from .simulate import (
    noisy_neighbor_inflation,
    run_on_spec,
    run_tenant_fleet,
)

__all__ = [
    "TenancyReport", "TenantPopulation", "TenantSpec", "TenantUsage",
    "noisy_neighbor_inflation", "partition_bill_cents", "run_on_spec",
    "run_tenant_fleet", "tenant_breakdown", "whale_mix",
]
