"""Shared execution context for audit checks.

Checks receive one :class:`AuditContext` per audit run.  It centralises

* the tolerances every family compares against (documented here, in one
  place, instead of scattered magic numbers),
* memoized simulation/serving helpers so checks that exercise the same
  ``Deployment x ModelConfig x workload`` tuples share work within a run
  (the same pattern the benchmark suite uses),
* golden-snapshot configuration (directory and ``--regen`` mode).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from ..core.experiment import cpu_deployment, gpu_deployment
from ..engine.placement import Deployment, Workload
from ..engine.simulator import GenerationResult, simulate_generation
from ..llm.config import LLAMA2_7B, tiny_llama
from ..llm.datatypes import BFLOAT16
from ..serving.columnar import ColumnarScheduler
from ..serving.scheduler import ServingReport, poisson_stream

#: Default location of the committed golden snapshots.
GOLDEN_DIR = Path(__file__).parent / "golden_data"


@dataclass(frozen=True)
class Tolerances:
    """Comparison tolerances used across the check families.

    Attributes:
        engine_parity_rel: Max relative error between the vectorized and
            reference-loop decode engines (they share the same algebra,
            so only float reassociation noise is allowed).
        flops_gemm_rel: Analytical GEMM FLOPs vs the numpy reference
            pass's recorded matmul shapes (exact formulas; float noise).
        attention_ratio_band: Allowed analytical/recorded attention FLOP
            ratio in prefill — the analytical model costs causal-aware
            kernels (~half the dense matmul) while the reference executes
            the full score matrix, so the ratio sits near 0.5.
        golden_rel: Default relative drift allowed against a golden
            snapshot (simulations are deterministic; this only absorbs
            platform/numpy float differences).
        monotonic_slack_rel: Relative counter-movement tolerated by the
            monotonicity checks (pure float noise).
    """

    engine_parity_rel: float = 1e-9
    flops_gemm_rel: float = 1e-6
    attention_ratio_band: tuple[float, float] = (0.40, 0.65)
    golden_rel: float = 1e-4
    monotonic_slack_rel: float = 1e-9


class AuditContext:
    """Execution context handed to every check.

    Args:
        golden_dir: Snapshot directory (defaults to the committed
            ``repro/validate/golden_data``).
        regen: Golden checks rewrite their snapshot instead of comparing
            (the ``scripts/audit.py --regen`` path).
        tolerances: Override comparison tolerances.
    """

    def __init__(self, golden_dir: Path | None = None, regen: bool = False,
                 tolerances: Tolerances | None = None) -> None:
        self.golden_dir = Path(golden_dir) if golden_dir else GOLDEN_DIR
        self.regen = regen
        self.tol = tolerances or Tolerances()
        self._sim_cache: dict = {}
        self._serve_cache: dict = {}

    # -- canonical subjects ---------------------------------------------------

    #: Default model/dtype the checks audit (the paper's workhorse).
    model = LLAMA2_7B
    dtype = BFLOAT16

    @staticmethod
    def tiny_model():
        """A 2-layer toy architecture for numpy-reference checks."""
        return tiny_llama()

    @staticmethod
    def cpu(backend: str = "baremetal", **kwargs) -> Deployment:
        """Standard single-socket CPU deployment (EMR2 default)."""
        kwargs.setdefault("sockets_used", 1)
        return cpu_deployment(backend, **kwargs)

    @staticmethod
    def gpu(confidential: bool = False) -> Deployment:
        return gpu_deployment(confidential=confidential)

    def small_workload(self, **overrides) -> Workload:
        """The default audit workload: cheap but non-degenerate."""
        params = dict(model=self.model, dtype=self.dtype, batch_size=2,
                      input_tokens=128, output_tokens=24)
        params.update(overrides)
        return Workload(**params)

    # -- memoized execution ---------------------------------------------------

    def simulate(self, workload: Workload, deployment: Deployment,
                 **kwargs) -> GenerationResult:
        """Memoized :func:`simulate_generation` (shared across checks).

        Results are shared — treat them as read-only.
        """
        key = (workload, deployment, tuple(sorted(kwargs.items())))
        if key not in self._sim_cache:
            self._sim_cache[key] = simulate_generation(workload, deployment,
                                                       **kwargs)
        return self._sim_cache[key]

    def serve(self, backend: str = "baremetal", num_requests: int = 24,
              rate_per_s: float = 2.0, kv_capacity_tokens: int = 1024,
              max_batch: int = 8, seed: int = 7) -> ServingReport:
        """Memoized continuous-batching run on a constrained KV pool.

        The pool is sized to force preemptions so scheduler checks see
        the full admit/preempt/recompute lifecycle.
        """
        key = (backend, num_requests, rate_per_s, kv_capacity_tokens,
               max_batch, seed)
        if key not in self._serve_cache:
            requests = poisson_stream(num_requests, rate_per_s,
                                      mean_prompt=96, mean_output=48,
                                      seed=seed)
            scheduler = ColumnarScheduler(
                self.cpu(backend), self.model, self.dtype,
                kv_capacity_tokens=kv_capacity_tokens, max_batch=max_batch)
            report = scheduler.run(requests)
            self._serve_cache[key] = (requests, scheduler, report)
        return self._serve_cache[key][2]

    def serve_state(self, **kwargs):
        """(requests, scheduler, report) of the memoized serving run."""
        self.serve(**kwargs)
        key = (kwargs.get("backend", "baremetal"),
               kwargs.get("num_requests", 24), kwargs.get("rate_per_s", 2.0),
               kwargs.get("kv_capacity_tokens", 1024),
               kwargs.get("max_batch", 8), kwargs.get("seed", 7))
        return self._serve_cache[key]


@dataclass
class _DefaultContext:
    """Lazily constructed process-wide default context."""

    instance: AuditContext | None = field(default=None)


_DEFAULT = _DefaultContext()


def default_context() -> AuditContext:
    """A process-shared context (pytest adapter and ad-hoc use)."""
    if _DEFAULT.instance is None:
        _DEFAULT.instance = AuditContext()
    return _DEFAULT.instance
