"""Serving substrate: continuous batching over a paged KV cache."""

from .admission import (
    ADMISSION_POLICIES,
    KV_ISOLATION_MODES,
    TenancyConfig,
)
from .columnar import ColumnarScheduler
from .scheduler import (
    RequestOutcome,
    ServeRequest,
    ServingReport,
    poisson_stream,
)
from .stepcost import StepCostTable

__all__ = [
    "ADMISSION_POLICIES", "ColumnarScheduler", "KV_ISOLATION_MODES",
    "RequestOutcome",
    "ServeRequest", "ServingReport", "StepCostTable", "TenancyConfig",
    "poisson_stream",
]
