"""Fleet replicas: a priced, bootable serving instance.

A :class:`ReplicaSpec` names a rentable configuration — deployment
(bare metal, TDX, SGX, GPU, cGPU), serving limits, and the hourly
price from :mod:`repro.cost.pricing`.  A :class:`Replica` is one
provisioned instance of a spec: it owns a steppable
:class:`~repro.serving.columnar.ColumnarScheduler`, tracks
its lifecycle (booting -> live -> draining -> retired), and accrues
billed uptime from provisioning to retirement — booting and draining
time is paid for, exactly like a real cloud instance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..core.experiment import cpu_deployment, gpu_deployment
from ..cost.pricing import GCP_SPOT_US_EAST1, PAPER_MEMORY_GB, PriceCatalog
from ..engine.placement import CpuPlacement, Deployment
from ..llm.config import LLAMA2_7B, ModelConfig
from ..llm.datatypes import BFLOAT16, DType
from ..serving.admission import TenancyConfig
from ..serving.columnar import ColumnarScheduler
from ..serving.scheduler import ServeRequest
from ..tee.boot import ATTESTING as BOOT_REATTEST_PHASE
from ..tee.boot import BootProfile, BootSequence

#: Replica lifecycle states.
BOOTING, LIVE, DRAINING, RETIRED = "booting", "live", "draining", "retired"

#: Fault lifecycle states (:mod:`repro.faults`): a crashed instance and
#: a TEE instance waiting to re-attest before readmission.
FAILED, ATTESTING = "failed", "attesting"

#: Replica kinds the factory knows how to price.
REPLICA_KINDS = ("baremetal", "vm", "tdx", "sgx", "gpu", "cgpu")


@dataclass(frozen=True)
class ReplicaSpec:
    """One rentable serving configuration.

    Attributes:
        kind: Backend label (``tdx``, ``cgpu``, ...).
        deployment: Execution environment of every instance.
        price_hr: Hourly price of one instance.
        model: Served architecture.
        dtype: Serving datatype.
        kv_capacity_tokens: KV pool per instance.
        block_size: Paged-KV block granularity.
        max_batch: Concurrent-sequence cap per instance.
        admission_lookahead: Scheduler head-of-line lookahead window.
        tenancy: Optional multi-tenant policy (admission + KV
            isolation) armed on every scheduler this spec builds.
        boot: Optional phased cold-start profile
            (:class:`~repro.tee.boot.BootProfile`).  When set, every
            instance of this spec boots through the confidential
            lifecycle (provision -> attest -> key release -> decrypt
            -> load) and its boot latency is the *derived* sum of the
            phases — any constant the provisioner passes is superseded.
            ``None`` keeps the legacy single-constant boot path,
            bit-identically.
    """

    kind: str
    deployment: Deployment
    price_hr: float
    model: ModelConfig = LLAMA2_7B
    dtype: DType = BFLOAT16
    kv_capacity_tokens: int = 131072
    block_size: int = 16
    max_batch: int = 32
    admission_lookahead: int = 0
    tenancy: TenancyConfig | None = None
    boot: BootProfile | None = None

    def __post_init__(self) -> None:
        if self.price_hr <= 0:
            raise ValueError("price_hr must be positive")

    def boot_sequence(self) -> BootSequence | None:
        """The phased boot frozen against the served model, if armed."""
        if self.boot is None:
            return None
        return self.boot.sequence(self.model, self.dtype)

    def build_scheduler(self) -> ColumnarScheduler:
        """A fresh scheduler configured for one instance of this spec."""
        return ColumnarScheduler(
            self.deployment, self.model, self.dtype,
            kv_capacity_tokens=self.kv_capacity_tokens,
            block_size=self.block_size, max_batch=self.max_batch,
            admission_lookahead=self.admission_lookahead,
            tenancy=self.tenancy)


def replica_spec(kind: str, catalog: PriceCatalog = GCP_SPOT_US_EAST1,
                 cores: int | None = None,
                 **overrides: object) -> ReplicaSpec:
    """Build a priced spec for a named backend kind.

    CPU kinds are priced as custom instances (one billed vCPU per
    physical core, §IV-A; memory fixed at the paper's 128 GB); GPU
    kinds use the (confidential) H100 instance price.

    Args:
        kind: One of :data:`REPLICA_KINDS`.
        catalog: Price catalog to bill against.
        cores: CPU cores per instance (default: a full socket).
        **overrides: Forwarded to :class:`ReplicaSpec` (e.g.
            ``max_batch``, ``kv_capacity_tokens``).
    """
    if kind not in REPLICA_KINDS:
        raise ValueError(f"unknown replica kind {kind!r}; "
                         f"expected one of {REPLICA_KINDS}")
    if kind in ("gpu", "cgpu"):
        deployment = gpu_deployment(confidential=kind == "cgpu")
        price = (catalog.cgpu_instance_hr if kind == "cgpu"
                 else catalog.gpu_instance_hr)
    else:
        placement_kwargs = {"sockets_used": 1}
        if cores is not None:
            placement_kwargs["cores_per_socket_used"] = cores
        deployment = cpu_deployment(kind, **placement_kwargs)
        placement = deployment.placement
        assert isinstance(placement, CpuPlacement)
        price = catalog.cpu_instance_hr(placement.cores, PAPER_MEMORY_GB)
    return ReplicaSpec(kind=kind, deployment=deployment, price_hr=price,
                       **overrides)  # type: ignore[arg-type]


class Replica:
    """One provisioned instance of a spec inside a fleet.

    Args:
        replica_id: Fleet-unique id (provisioning order).
        spec: Configuration this instance runs.
        provisioned_s: When the instance was requested.
        boot_latency_s: Time from provisioning to serving readiness.
            When the spec carries a phased boot profile this constant
            is superseded by the derived sum of the boot phases.
        origin: Which spec pool provisioned this instance —
            ``"initial"`` (fleet construction), ``"scale"`` (autoscaler
            scale-up), or ``"spill"`` (degradation spill pool).  Purely
            descriptive at run time; checkpoint restore uses it to find
            the right spec when rebuilding the instance.
    """

    def __init__(self, replica_id: int, spec: ReplicaSpec,
                 provisioned_s: float, boot_latency_s: float,
                 origin: str = "initial") -> None:
        # NaN passes a plain `< 0` comparison, so finiteness is explicit
        # (same guard the ServeRequest/Workload validators grew).
        if not math.isfinite(boot_latency_s) or boot_latency_s < 0:
            raise ValueError("boot_latency_s must be finite and >= 0")
        if not math.isfinite(provisioned_s):
            raise ValueError("provisioned_s must be finite")
        if origin not in ("initial", "scale", "spill"):
            raise ValueError(f"unknown replica origin {origin!r}")
        self.replica_id = replica_id
        self.spec = spec
        self.origin = origin
        self.provisioned_s = provisioned_s
        #: Phased confidential boot (None on legacy constant-boot specs).
        self.boot = spec.boot_sequence()
        if self.boot is not None:
            # The constant becomes the derived sum of the boot phases.
            boot_latency_s = self.boot.total_s
        self.boot_latency_s = boot_latency_s
        self.ready_s = provisioned_s + boot_latency_s
        self.retired_s: float | None = None
        self.state = BOOTING if boot_latency_s > 0 else LIVE
        self.scheduler = spec.build_scheduler()
        # An instance cannot serve before it exists.
        self.scheduler.advance_clock_to(self.ready_s if self.state == LIVE
                                        else self.provisioned_s)
        self.requests_routed = 0
        self.tokens_out = 0
        # Fault machinery (repro.faults); all inert on a healthy fleet.
        self.crashes = 0
        self._hang_until_s: float | None = None
        self._slow_until_s: float | None = None
        self._restart_at_s: float | None = None
        self._boot_penalty_s = 0.0
        # Billing windows: uptime billed so far across closed rental
        # windows (a crash closes one; a restart opens the next) plus
        # the start of the currently open window, if any.
        self._closed_billed_s = 0.0
        self._window_start_s: float | None = provisioned_s

    # -- lifecycle ------------------------------------------------------------

    def activate_if_ready(self, now: float) -> None:
        """Transition booting -> live once boot latency has elapsed."""
        if self.state == BOOTING and now >= self.ready_s:
            self.state = LIVE
            # A replica starts serving at readiness, not at clock 0: it
            # cannot have served anything while booting.
            self.scheduler.advance_clock_to(self.ready_s)

    def boot_phase(self, now: float) -> str | None:
        """Which confidential boot phase is underway at ``now``.

        Only meaningful on phased-boot replicas: returns ``None`` on
        legacy constant-boot instances and whenever the instance is not
        booting or re-attesting.  The phase is derived backwards from
        ``ready_s`` (see :meth:`repro.tee.boot.BootSequence.phase_at`),
        so a boot stretched by a ``boot_failure`` penalty or restarted
        from ``ATTESTING`` still maps every instant to exactly one
        phase — and the answer survives snapshot/restore for free,
        because ``ready_s`` does.
        """
        if self.boot is None or self.state not in (BOOTING, ATTESTING):
            return None
        return self.boot.phase_at(now, self.ready_s)

    @property
    def reattest_s(self) -> float | None:
        """Boot time a restart from the ATTESTING phase pays, if phased.

        The provisioning phase is never repaid: an attestation failure
        (mid-boot or live) re-enters the sequence at ``ATTESTING`` and
        pays attestation, key release, model decrypt and weight load
        again — the enclave's contents are no longer trusted.
        """
        if self.boot is None:
            return None
        return self.boot.remaining_from(BOOT_REATTEST_PHASE)

    def drain(self) -> None:
        """Stop accepting new work; finish what is queued, then retire."""
        if self.state in (BOOTING, LIVE):
            self.state = DRAINING

    def retire_if_drained(self, now: float) -> None:
        """Transition draining -> retired once all queued work is done."""
        if self.state == DRAINING and self.scheduler.idle:
            self.state = RETIRED
            self.retired_s = now

    @property
    def routable(self) -> bool:
        """Whether the router may send new requests here."""
        return self.state == LIVE and self._hang_until_s is None

    @property
    def active(self) -> bool:
        """Whether the instance still accrues cost and needs stepping."""
        return self.state not in (RETIRED, FAILED)

    # -- fault lifecycle (repro.faults) ---------------------------------------

    def crash(self, now: float,
              restart_after_s: float | None = None,
              ) -> list[tuple[ServeRequest, int]]:
        """Kill the instance; in-flight work is lost.

        With a scheduled reboot (``restart_after_s``) the rental
        continues — the operator keeps paying while the instance
        repairs, exactly as a cloud bills a rebooting VM.  Without one
        the instance is released and the billing window closes.  Any
        hang/slowdown effects are cleared; the fleet requeues the
        evacuated requests.

        Returns:
            ``(request, tokens_generated)`` pairs evacuated from the
            scheduler; the generated counts are wasted work.
        """
        evacuated = self.scheduler.evacuate()
        self.state = FAILED
        self.crashes += 1
        self._hang_until_s = None
        self._slow_until_s = None
        self.scheduler.time_scale = 1.0
        if restart_after_s is None:
            # Unrecoverable: the instance is released and the meter
            # stops.  ``retired_s`` records release time only.
            self.retired_s = now
            if self._window_start_s is not None:
                self._closed_billed_s += max(0.0,
                                             now - self._window_start_s)
                self._window_start_s = None
            self._restart_at_s = None
        else:
            self._restart_at_s = now + restart_after_s
        return evacuated

    @property
    def restart_pending(self) -> bool:
        """Whether a crashed instance has a reboot scheduled."""
        return self.state == FAILED and self._restart_at_s is not None

    def restart_if_due(self, now: float) -> bool:
        """Reboot a crashed instance once its repair window elapsed.

        The billing window stayed open through the repair (the rental
        never ended); the instance re-enters the boot path (plus any
        queued boot-failure penalty) and, for TEE replicas, must
        re-attest before going live.  A phased-boot instance re-enters
        the sequence at ``ATTESTING`` — the VM/TD is already
        provisioned, but attestation, key release, model decrypt and
        weight load all run again.
        """
        if self.state != FAILED or self._restart_at_s is None \
                or now < self._restart_at_s:
            return False
        restart_at = self._restart_at_s
        self._restart_at_s = None
        self.retired_s = None
        reboot_s = self.reattest_s
        self.ready_s = restart_at + (reboot_s or 0.0) + self._boot_penalty_s
        self._boot_penalty_s = 0.0
        self.state = BOOTING
        return True

    def hang(self, until_s: float) -> None:
        """Stall the instance: no progress until ``until_s``."""
        if self.state in (LIVE, DRAINING):
            current = self._hang_until_s
            self._hang_until_s = (until_s if current is None
                                  else max(current, until_s))

    def slow(self, until_s: float, factor: float) -> None:
        """Degrade the instance: steps run ``factor`` slower until
        ``until_s`` (later faults overwrite earlier ones)."""
        if self.state in (LIVE, DRAINING):
            self.scheduler.time_scale = factor
            self._slow_until_s = until_s

    def expire_faults(self, now: float) -> None:
        """Lift timed effects whose window has passed."""
        if self._slow_until_s is not None and now >= self._slow_until_s:
            self.scheduler.time_scale = 1.0
            self._slow_until_s = None

    def boot_failure(self, penalty_s: float) -> str:
        """Fail the current boot (delays readiness) or queue the
        penalty for the next reboot of an already-running instance."""
        if self.state == BOOTING:
            self.ready_s += penalty_s
            return f"boot delayed by {penalty_s:g}s"
        self._boot_penalty_s += penalty_s
        return f"{penalty_s:g}s penalty queued for next boot"

    def begin_attestation(self, ready_at_s: float,
                          ) -> list[tuple[ServeRequest, int]]:
        """Quarantine the instance until it re-attests at ``ready_at_s``.

        In-flight work is evacuated (the enclave's state is no longer
        trusted); billing continues — the instance is still rented.
        On phased-boot replicas the fleet passes a ``ready_at_s`` of
        ``now + reattest_s``: the boot sequence restarts from the
        ``ATTESTING`` phase whether the failure struck mid-boot or
        mid-serving (:attr:`reattest_s`).
        """
        evacuated = self.scheduler.evacuate()
        self.state = ATTESTING
        self._hang_until_s = None
        self._slow_until_s = None
        self.scheduler.time_scale = 1.0
        self.ready_s = ready_at_s
        return evacuated

    def complete_attestation(self) -> None:
        """Readmit a successfully re-attested instance."""
        if self.state == ATTESTING:
            self.state = LIVE
            self.scheduler.advance_clock_to(self.ready_s)

    def cancel(self, request_id: int) -> tuple[ServeRequest, int] | None:
        """Withdraw one in-flight request (fleet timeout/retry hook)."""
        return self.scheduler.cancel(request_id)

    # -- serving --------------------------------------------------------------

    def submit(self, request: ServeRequest) -> None:
        if not self.routable:
            raise ValueError(
                f"replica {self.replica_id} is {self.state}, not routable")
        # An idle replica whose clock lags the arrival would otherwise
        # admit in the past; the scheduler's idle-jump handles it, but
        # never let a booting clock precede readiness.
        self.scheduler.submit(request)
        self.requests_routed += 1

    def step(self, until_s: float) -> list[int]:
        """Advance the replica's scheduler to the shared-clock horizon.

        Returns the ids of requests that finished (read their timelines
        from the scheduler via ``finished_triple``).
        """
        if self._hang_until_s is not None:
            if until_s < self._hang_until_s:
                return []  # stalled: no progress until the hang lifts
            # The stall window produced no work; resume from its end.
            self.scheduler.advance_clock_to(self._hang_until_s)
            self._hang_until_s = None
        finished = self.scheduler.step(until_s)
        for request_id in finished:
            self.tokens_out += self.scheduler.output_tokens(request_id)
        return finished

    # -- accounting -----------------------------------------------------------

    @property
    def outstanding(self) -> int:
        return self.scheduler.outstanding

    @property
    def kv_free_fraction(self) -> float:
        return self.scheduler.kv_free_fraction

    def estimated_ttft_s(self, request: ServeRequest, now: float) -> float:
        estimate = self.scheduler.estimated_ttft_s(request, now)
        if self.state == BOOTING:
            estimate += max(0.0, self.ready_s - now)
        return estimate

    def billed_hours(self, end_s: float) -> float:
        """Billed uptime (provisioning to release, or to ``end_s``).

        The rental window closes only when the instance is *released*:
        retirement after a drain, or an unrecoverable crash.  A crash
        with a scheduled reboot keeps the meter running through the
        repair, exactly as a cloud bills a rebooting VM.  On a healthy
        fleet there is exactly one window from provisioning, and the
        sum below adds ``0.0`` — exact under IEEE-754, keeping
        fault-free bills bit-identical.
        """
        if self._window_start_s is None:
            return self._closed_billed_s / 3600.0
        end = self.retired_s if self.retired_s is not None else end_s
        open_window = max(0.0, end - self._window_start_s)
        return (self._closed_billed_s + open_window) / 3600.0

    def cost_usd(self, end_s: float) -> float:
        return self.billed_hours(end_s) * self.spec.price_hr

    # -- checkpoint/restore ---------------------------------------------------

    def spec_fingerprint(self) -> dict:
        """Identity of the spec this instance runs, for restore checks."""
        spec = self.spec
        fingerprint = {
            "kind": spec.kind,
            "price_hr": spec.price_hr,
            "model": spec.model.name,
            "dtype": spec.dtype.name,
            "kv_capacity_tokens": spec.kv_capacity_tokens,
            "block_size": spec.block_size,
            "max_batch": spec.max_batch,
            "admission_lookahead": spec.admission_lookahead,
        }
        if spec.tenancy is not None:
            fingerprint["tenancy"] = spec.tenancy.fingerprint()
        # Only-when-armed, like tenancy: pre-boot snapshots stay
        # byte-compatible and legacy fleets never see the key.
        if spec.boot is not None:
            fingerprint["boot"] = spec.boot.fingerprint()
        return fingerprint

    def to_state(self) -> dict:
        """Plain-dict snapshot of lifecycle, billing, and serving state."""
        return {
            "replica_id": self.replica_id,
            "origin": self.origin,
            "spec": self.spec_fingerprint(),
            "provisioned_s": self.provisioned_s,
            "boot_latency_s": self.boot_latency_s,
            "ready_s": self.ready_s,
            "retired_s": self.retired_s,
            "state": self.state,
            "requests_routed": self.requests_routed,
            "tokens_out": self.tokens_out,
            "crashes": self.crashes,
            "hang_until_s": self._hang_until_s,
            "slow_until_s": self._slow_until_s,
            "restart_at_s": self._restart_at_s,
            "boot_penalty_s": self._boot_penalty_s,
            "closed_billed_s": self._closed_billed_s,
            "window_start_s": self._window_start_s,
            "scheduler": self.scheduler.to_state(),
        }

    @classmethod
    def from_state(cls, state: dict, spec: ReplicaSpec) -> "Replica":
        """Rebuild an instance of ``spec`` from a :meth:`to_state` dict.

        Raises:
            repro.state.errors.StateIntegrityError: If the snapshot was
                taken on a different spec or carries an unknown
                lifecycle state.
        """
        from ..state.errors import StateIntegrityError
        from ..state.schema import require, require_finite

        replica = cls(
            replica_id=require(state, "replica_id", int, "$.replica"),
            spec=spec,
            provisioned_s=require_finite(state, "provisioned_s", "$.replica"),
            boot_latency_s=require_finite(state, "boot_latency_s",
                                          "$.replica", minimum=0.0),
            origin=require(state, "origin", str, "$.replica"),
        )
        recorded = require(state, "spec", dict, "$.replica")
        mine = replica.spec_fingerprint()
        if recorded != mine:
            diverged = sorted(key for key in set(recorded) | set(mine)
                              if recorded.get(key) != mine.get(key))
            raise StateIntegrityError(
                f"replica {replica.replica_id} snapshot was taken on a "
                f"different spec (mismatched: {diverged})")
        lifecycle = require(state, "state", str, "$.replica")
        if lifecycle not in (BOOTING, LIVE, DRAINING, RETIRED,
                             FAILED, ATTESTING):
            raise StateIntegrityError(
                f"replica {replica.replica_id} has unknown lifecycle "
                f"state {lifecycle!r}")
        replica.state = lifecycle
        replica.ready_s = require_finite(state, "ready_s", "$.replica")
        replica.retired_s = require_finite(state, "retired_s", "$.replica",
                                           optional=True)
        replica.requests_routed = require(state, "requests_routed", int,
                                          "$.replica")
        replica.tokens_out = require(state, "tokens_out", int, "$.replica")
        replica.crashes = require(state, "crashes", int, "$.replica")
        replica._hang_until_s = require_finite(state, "hang_until_s",
                                               "$.replica", optional=True)
        replica._slow_until_s = require_finite(state, "slow_until_s",
                                               "$.replica", optional=True)
        replica._restart_at_s = require_finite(state, "restart_at_s",
                                               "$.replica", optional=True)
        replica._boot_penalty_s = require_finite(state, "boot_penalty_s",
                                                 "$.replica", minimum=0.0)
        replica._closed_billed_s = require_finite(state, "closed_billed_s",
                                                  "$.replica", minimum=0.0)
        replica._window_start_s = require_finite(state, "window_start_s",
                                                 "$.replica", optional=True)
        replica.scheduler.from_state(
            require(state, "scheduler", dict, "$.replica"))
        return replica
