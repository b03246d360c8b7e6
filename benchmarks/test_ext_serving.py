"""Serving extension — continuous batching SLAs under TEEs.

The paper measures static batches; production deployments serve arrival
streams with vLLM-style continuous batching.  This bench serves the
same stream on bare metal, TDX, and the (c)GPU, reporting TTFT/e2e
percentiles and checking that the TEE's serving-level overhead stays in
the same single-digit band as the static-batch experiments.
"""

from helpers import print_rows, run_once

from repro.core.experiment import cpu_deployment, gpu_deployment
from repro.llm.config import LLAMA2_7B
from repro.llm.datatypes import BFLOAT16
from repro.serving.columnar import ColumnarScheduler
from repro.serving.scheduler import poisson_stream

CONFIGS = ("baremetal", "tdx", "gpu", "cgpu")


def regenerate() -> dict:
    # A near-saturating arrival rate: an unsaturated server absorbs TEE
    # overheads into idle gaps, hiding the capacity cost.
    requests = poisson_stream(40, rate_per_s=8.0, mean_prompt=256,
                              mean_output=64, seed=17)
    rows = []
    reports = {}
    for config in CONFIGS:
        if config in ("gpu", "cgpu"):
            deployment = gpu_deployment(confidential=config == "cgpu")
        else:
            deployment = cpu_deployment(config, sockets_used=1)
        scheduler = ColumnarScheduler(
            deployment, LLAMA2_7B, BFLOAT16, kv_capacity_tokens=200_000,
            max_batch=32)
        report = scheduler.run(requests)
        reports[config] = report
        rows.append({
            "backend": config,
            "throughput_tok_s": report.throughput_tok_s,
            "ttft_p50_s": report.ttft_percentile(50),
            "ttft_p95_s": report.ttft_percentile(95),
            "e2e_p95_s": report.e2e_percentile(95),
            "mean_batch": report.mean_batch_occupancy,
            "preemptions": report.total_preemptions,
        })
    return {"rows": rows, "reports": reports}


def test_ext_serving(benchmark):
    data = run_once(benchmark, regenerate)
    print_rows("Continuous-batching serving (Llama2-7B, 40 requests)",
               data["rows"])
    reports = data["reports"]

    # TDX's serving-level cost stays in the static-batch band.
    cpu_ratio = (reports["tdx"].makespan_s
                 / reports["baremetal"].makespan_s)
    assert 1.02 < cpu_ratio < 1.15

    # cGPU pays its CC tax but remains far faster than CPU TEEs.
    gpu_ratio = reports["cgpu"].makespan_s / reports["gpu"].makespan_s
    assert 1.0 < gpu_ratio < 1.15
    assert (reports["cgpu"].throughput_tok_s
            > 2 * reports["tdx"].throughput_tok_s)

    # Tail latencies ordered the same way.
    assert (reports["cgpu"].e2e_percentile(95)
            < reports["tdx"].e2e_percentile(95))
