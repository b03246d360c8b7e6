"""Experiment configuration and execution.

An experiment runs one workload across a set of labelled deployments
(backend + placement + framework) and reports per-label results plus
overheads against a designated baseline — the structure shared by every
figure in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..engine.placement import CpuPlacement, Deployment, GpuPlacement, Workload
from ..engine.simulator import GenerationResult, simulate_generation
from ..frameworks.base import Framework, framework_by_name
from ..hardware.cpu import CpuSpec
from ..hardware.gpu import GpuSpec, H100_NVL
from ..tee.base import backend_by_name
from .overhead import OverheadReport, compare


def cpu_deployment(backend: str = "baremetal", cpu: CpuSpec | None = None,
                   framework: str | Framework = "ipex",
                   **placement_kwargs: object) -> Deployment:
    """Build a CPU deployment from names and placement options.

    Args:
        backend: Registered backend name (``baremetal``, ``vm``,
            ``vm-unbound``, ``tdx``, ``sgx``).
        cpu: CPU system; defaults to EMR2.
        framework: Framework name or instance.
        **placement_kwargs: Forwarded to :class:`CpuPlacement`.
    """
    from ..hardware.cpu import EMR2
    fw = framework if isinstance(framework, Framework) \
        else framework_by_name(framework)
    placement = CpuPlacement(cpu=cpu or EMR2, **placement_kwargs)  # type: ignore[arg-type]
    return Deployment(placement=placement, backend=backend_by_name(backend),
                      framework=fw)


def gpu_deployment(confidential: bool = True,
                   gpu: GpuSpec = H100_NVL,
                   framework: str | Framework = "vllm-gpu",
                   backend: str | None = None) -> Deployment:
    """Build a GPU deployment.

    Args:
        confidential: Pick ``cgpu`` vs ``gpu`` when ``backend`` is None.
        backend: Explicit backend name (e.g. ``"cgpu-b100"`` for the
            projected B100 confidential mode).
    """
    fw = framework if isinstance(framework, Framework) \
        else framework_by_name(framework)
    name = backend or ("cgpu" if confidential else "gpu")
    return Deployment(placement=GpuPlacement(gpu=gpu),
                      backend=backend_by_name(name), framework=fw)


@dataclass
class ExperimentResult:
    """Results of one workload over several labelled deployments."""

    name: str
    workload: Workload
    results: dict[str, GenerationResult]
    baseline_label: str

    @property
    def baseline(self) -> GenerationResult:
        return self.results[self.baseline_label]

    def overhead(self, label: str, include_prefill: bool = False) -> OverheadReport:
        """Overhead of one deployment vs the experiment baseline.

        Raises:
            KeyError: For unknown labels.
        """
        return compare(self.results[label], self.baseline, include_prefill)

    def rows(self) -> list[dict[str, float | str]]:
        """Flat result table (one row per label) for harness printing."""
        rows: list[dict[str, float | str]] = []
        for label, result in self.results.items():
            report = self.overhead(label)
            rows.append({
                "label": label,
                "throughput_tok_s": result.decode_throughput_tok_s,
                "next_token_latency_ms": result.next_token_latency_s * 1e3,
                "first_token_latency_s": result.prefill_s,
                "throughput_overhead_pct": 100 * report.throughput_overhead,
                "latency_overhead_pct": 100 * report.latency_overhead,
            })
        return rows


@dataclass(frozen=True)
class Experiment:
    """A named, reusable experiment definition.

    Attributes:
        name: Experiment id (e.g. ``"fig4"``).
        workload: What runs.
        deployments: Labelled execution environments.
        baseline_label: Which label the overheads are computed against.
        seed: Noise seed (per-label offset added for independence).
        context_stride: Decode-cost recomputation stride.
    """

    name: str
    workload: Workload
    deployments: dict[str, Deployment] = field(default_factory=dict)
    baseline_label: str = "baremetal"
    seed: int = 0
    context_stride: int | None = None

    def run(self) -> ExperimentResult:
        """Simulate every deployment.

        Raises:
            ValueError: If the baseline label is missing.
        """
        if self.baseline_label not in self.deployments:
            raise ValueError(
                f"baseline {self.baseline_label!r} not among deployments "
                f"{sorted(self.deployments)}")
        results = {}
        for offset, (label, deployment) in enumerate(self.deployments.items()):
            results[label] = simulate_generation(
                self.workload, deployment, seed=self.seed + offset,
                context_stride=self.context_stride)
        return ExperimentResult(
            name=self.name, workload=self.workload, results=results,
            baseline_label=self.baseline_label)
