"""Cross-layer invariant audit subsystem.

A registry of named checks (``@check``) spanning four families:

* **differential** — fast paths against reference twins (vectorized vs
  loop engine, memoized vs cold caches, parallel vs serial sweeps,
  analytical FLOPs vs the numpy reference transformer, closed forms vs
  the functional TLB/EPC simulators, the columnar serving scheduler vs
  the frozen object-per-request oracle in :mod:`.oracle`),
* **metamorphic** — monotonicity and ordering invariants the cost model
  must satisfy everywhere (TEE never faster, cost non-decreasing in
  context/batch, scheduler/KV-block conservation),
* **golden** — committed snapshots of every figure benchmark's headline
  series with explicit tolerances and a ``--regen`` path,
* **chaos** — fault-injection invariants over :mod:`repro.faults`:
  request conservation, billing bounds, deterministic replay, and the
  zero-fault differential twin (armed-but-empty chaos machinery is
  bit-identical to the fault-free simulator),
* **state** — checkpoint/restore parity over :mod:`repro.state`:
  mid-run snapshot → restore → completion bit-identical to an
  uninterrupted run, snapshot idempotence, schema-version negotiation,
  and byte-identical write-ahead-journal resume,
* **tenancy** — the multi-tenant serving plane over
  :mod:`repro.tenancy`: WFQ/FCFS jumped-vs-ticked parity across every
  KV isolation mode, exact per-tenant billing partition, per-tenant
  request conservation under faults, weighted-fairness ordering,
  shed-priority parity, and WFQ-armed snapshot resume,
* **attest** — the phased confidential boot lifecycle over
  :mod:`repro.tee.boot`: boot-phase conservation, legacy-constant
  parity, jumped-vs-ticked parity with phased boots and
  re-attestation faults, mid-boot snapshot-resume parity, and the
  golden attestation-tax table.

Run via ``scripts/audit.py`` or through the pytest adapter in
``tests/validate/``, which makes every check a tier-1 test.
"""

from .context import GOLDEN_DIR, AuditContext, Tolerances, default_context
from .registry import (
    FAMILIES,
    SEVERITIES,
    CheckFailure,
    CheckSkip,
    CheckSpec,
    all_checks,
    check,
    checks_matching,
    unregister,
)
from .runner import AuditReport, CheckResult, run_audit, run_check

# Importing the check modules registers every built-in check.
from . import differential as _differential  # noqa: E402,F401
from . import metamorphic as _metamorphic  # noqa: E402,F401
from . import golden as _golden  # noqa: E402,F401
from . import fleet as _fleet  # noqa: E402,F401
from . import chaos as _chaos  # noqa: E402,F401
from . import state as _state  # noqa: E402,F401
from . import event as _event  # noqa: E402,F401
from . import tenancy as _tenancy  # noqa: E402,F401
from . import attest as _attest  # noqa: E402,F401

__all__ = [
    "AuditContext",
    "AuditReport",
    "CheckFailure",
    "CheckResult",
    "CheckSkip",
    "CheckSpec",
    "FAMILIES",
    "GOLDEN_DIR",
    "SEVERITIES",
    "Tolerances",
    "all_checks",
    "check",
    "checks_matching",
    "default_context",
    "run_audit",
    "run_check",
    "unregister",
]
