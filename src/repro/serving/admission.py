"""Multi-tenant admission and KV-isolation policy configuration.

:class:`TenancyConfig` is the single value object that arms tenancy in
the scheduler (:mod:`repro.serving.columnar`) and its reference oracle
(:mod:`repro.validate.oracle`).  It lives in the serving layer — not in
:mod:`repro.tenancy` — because the schedulers must consume it without
importing the higher tenancy plane (tenancy -> fleet -> serving is the
only allowed direction).

Admission policies
------------------

``fcfs``
    Strict arrival-order admission — the pre-tenancy behavior, kept
    byte-identical when tenancy is unarmed.

``wfq``
    Start-time-clocked weighted fair queueing (SCFQ).  Each request is
    tagged at submission with a *virtual finish time*::

        start  = max(fin[tenant], V)
        finish = start + (prompt_tokens + output_tokens) / weight[tenant]

    where ``fin[tenant]`` chains the tenant's previous tag and ``V`` is
    the scheduler's global virtual clock, advanced to the tag of every
    admitted request.  The waiting queue is ordered by
    ``(finish_tag, arrival_s, request_id)``; admission scans that order
    for the first *already-arrived* request.  Tags are assigned once at
    submission and survive preemption, so a preempted request re-queues
    at its original virtual position.

KV isolation modes
------------------

``shared``
    One pool, first-come-first-allocated — the pre-tenancy behavior.

``partition``
    Hard per-tenant block budgets.  A tenant's budget is reserved
    worst-case at admission (``ceil((prompt + output) / block_size)``
    blocks), which makes decode-time growth infallible: a partitioned
    scheduler can never preempt, so the noisy-neighbor channel through
    the KV pool is closed entirely.

``shared-prefix``
    Cross-request prefix sharing: each tenant may pin a common prompt
    prefix (RAG system prompt, few-shot header) once; subsequent
    requests allocate only their suffix and count as prefix *hits*.
    The first request of a tenant pays the pin and counts as a *miss*.
    Pins stay resident, so a request whose own blocks cannot fit beside
    every configured tenant's pin is refused at submission.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

ADMISSION_POLICIES = ("fcfs", "wfq")
KV_ISOLATION_MODES = ("shared", "partition", "shared-prefix")


@dataclass(frozen=True)
class TenancyConfig:
    """Per-replica tenancy policy (admission + KV isolation).

    Attributes:
        admission: One of :data:`ADMISSION_POLICIES`.
        weights: ``(tenant_id, weight)`` pairs for WFQ; tenants absent
            from the table get weight 1.0.
        kv_isolation: One of :data:`KV_ISOLATION_MODES`.
        prefix_tokens: ``(tenant_id, tokens)`` pairs: the shared prompt
            prefix each tenant pins under ``shared-prefix`` isolation.
        partition_shares: ``(tenant_id, share)`` pairs: each tenant's
            fraction of the KV block pool under ``partition`` isolation.
            Shares must sum to at most 1.  Unknown tenants cannot be
            served by a partitioned replica.
    """

    admission: str = "fcfs"
    weights: tuple[tuple[int, float], ...] = ()
    kv_isolation: str = "shared"
    prefix_tokens: tuple[tuple[int, int], ...] = ()
    partition_shares: tuple[tuple[int, float], ...] = ()

    def __post_init__(self) -> None:
        if self.admission not in ADMISSION_POLICIES:
            raise ValueError(f"admission must be one of {ADMISSION_POLICIES},"
                             f" got {self.admission!r}")
        if self.kv_isolation not in KV_ISOLATION_MODES:
            raise ValueError(f"kv_isolation must be one of "
                             f"{KV_ISOLATION_MODES}, got "
                             f"{self.kv_isolation!r}")
        for label, pairs in (("weights", self.weights),
                             ("prefix_tokens", self.prefix_tokens),
                             ("partition_shares", self.partition_shares)):
            seen: set[int] = set()
            for tenant_id, value in pairs:
                if tenant_id < 0:
                    raise ValueError(f"{label}: tenant ids must be >= 0")
                if tenant_id in seen:
                    raise ValueError(f"{label}: duplicate tenant "
                                     f"{tenant_id}")
                seen.add(tenant_id)
                if not math.isfinite(value) or value <= 0:
                    raise ValueError(
                        f"{label}: value for tenant {tenant_id} must be "
                        f"finite and positive, got {value!r}")
        if self.kv_isolation == "partition":
            if not self.partition_shares:
                raise ValueError(
                    "partition isolation requires partition_shares")
            total = sum(share for _, share in self.partition_shares)
            if total > 1.0 + 1e-9:
                raise ValueError(
                    f"partition_shares sum to {total}, must be <= 1")
        # Frozen dataclass: stash lookup maps via object.__setattr__.
        # They are derived, so eq/hash over the declared fields stays
        # the identity of the policy.
        object.__setattr__(self, "_weight_map", dict(self.weights))
        object.__setattr__(self, "_prefix_map", dict(self.prefix_tokens))

    def weight_of(self, tenant_id: int) -> float:
        """WFQ weight for a tenant (1.0 when not configured)."""
        return self._weight_map.get(tenant_id, 1.0)

    def prefix_of(self, tenant_id: int) -> int:
        """Pinned shared-prefix length for a tenant (0 = no sharing)."""
        return self._prefix_map.get(tenant_id, 0)

    def partition_budgets(self, num_blocks: int) -> dict[int, int]:
        """Integral per-tenant block budgets under ``partition`` mode.

        Budgets are carved with a cumulative-floor scheme — tenant *i*
        gets ``floor(cum_i * N) - floor(cum_{i-1} * N)`` blocks over
        shares sorted by tenant id — so the budgets are deterministic
        and always sum to at most ``num_blocks`` regardless of float
        rounding in the shares.
        """
        if num_blocks < 1:
            raise ValueError("num_blocks must be >= 1")
        budgets: dict[int, int] = {}
        cumulative = 0.0
        previous_floor = 0
        for tenant_id, share in sorted(self.partition_shares):
            cumulative += share
            current_floor = min(num_blocks, math.floor(cumulative * num_blocks))
            budgets[tenant_id] = current_floor - previous_floor
            previous_floor = current_floor
        return budgets

    def fingerprint(self) -> dict:
        """JSON-stable identity of this policy (for config fingerprints).

        Emits lists (not tuples) so the value survives a JSON round
        trip unchanged — snapshot restore compares fingerprints with
        plain ``==``.
        """
        return {
            "admission": self.admission,
            "weights": [[int(t), float(w)] for t, w in self.weights],
            "kv_isolation": self.kv_isolation,
            "prefix_tokens": [[int(t), int(p)]
                              for t, p in self.prefix_tokens],
            "partition_shares": [[int(t), float(s)]
                                 for t, s in self.partition_shares],
        }

    def to_state(self) -> dict:
        """Snapshot payload (same shape as :meth:`fingerprint`)."""
        return self.fingerprint()

    @classmethod
    def from_state(cls, state: dict) -> "TenancyConfig":
        """Rebuild a policy from :meth:`to_state`."""
        from ..state.errors import StateError, StateValueError
        from ..state.schema import require
        try:
            return cls(
                admission=require(state, "admission", str, "$.tenancy"),
                weights=tuple((int(t), float(w)) for t, w in
                              require(state, "weights", list, "$.tenancy")),
                kv_isolation=require(state, "kv_isolation", str, "$.tenancy"),
                prefix_tokens=tuple(
                    (int(t), int(p)) for t, p in
                    require(state, "prefix_tokens", list, "$.tenancy")),
                partition_shares=tuple(
                    (int(t), float(s)) for t, s in
                    require(state, "partition_shares", list, "$.tenancy")),
            )
        except StateError:
            raise
        except (TypeError, ValueError) as error:
            raise StateValueError(
                f"invalid tenancy payload: {error}") from error


def prefix_seq_id(tenant_id: int) -> int:
    """Pseudo sequence id pinning a tenant's shared prefix in the cache.

    Real request ids are non-negative, so negative ids can never
    collide; ``-(tenant_id + 1)`` keeps tenant 0 distinct from any
    request.
    """
    return -(tenant_id + 1)
