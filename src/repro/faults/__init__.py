"""Fault injection and resilience for the fleet simulator.

Deterministic, seedable chaos for :mod:`repro.fleet`: fault schedules
(one-shot, recurring, MTBF hazard processes) injecting replica crashes,
hangs, slowdowns, boot failures, attestation failures (TEE replicas
re-attest before readmission), and interconnect degradation; plus the
recovery side — per-request timeout/retry with seeded exponential
backoff, requeue-on-death with duplicate suppression, and graceful
degradation (shed by priority, or spill to another backend).

Every draw is keyed by an explicit seed, so a fault schedule, its retry
jitter, and the resulting failure-aware
:class:`~repro.fleet.report.FleetReport` are bit-reproducible — the
property the ``chaos`` audit family and the hypothesis chaos tests
exercise.
"""

from .attest import TEE_KINDS, FleetAttestation, needs_attestation
from .injector import AppliedFault, FaultInjector
from .resilience import (
    DEGRADATION_MODES,
    SHED_REASONS,
    DegradationPolicy,
    RetryPolicy,
    ShedRequest,
)
from .schedule import (
    DEFAULT_COMM_SHARE,
    FAULT_KINDS,
    FaultEvent,
    FaultSchedule,
    mtbf_schedule,
    one_shot,
    recurring,
)

#: Lazily resolved from :mod:`repro.faults.sweep`, which imports
#: :mod:`repro.fleet` (itself an importer of this package).
_SWEEP_EXPORTS = ("DEFAULT_KINDS", "DEFAULT_MTBF_GRID_S", "chaos_fleet",
                  "sweep_row")

__all__ = [
    "AppliedFault",
    "DEFAULT_COMM_SHARE",
    "DEGRADATION_MODES",
    "DegradationPolicy",
    "FAULT_KINDS",
    "FaultEvent",
    "FaultInjector",
    "FaultSchedule",
    "FleetAttestation",
    "RetryPolicy",
    "SHED_REASONS",
    "ShedRequest",
    "TEE_KINDS",
    "mtbf_schedule",
    "needs_attestation",
    "one_shot",
    "recurring",
    *_SWEEP_EXPORTS,
]


def __getattr__(name: str):
    if name in _SWEEP_EXPORTS:
        from . import sweep
        return getattr(sweep, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
