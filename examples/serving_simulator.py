"""Serving simulator: continuous batching under TEEs.

Serves the same request stream on bare metal, TDX, and the confidential
H100 with a vLLM-style continuous-batching scheduler (paged KV cache,
admission control, preemption), comparing serving SLAs — time to first
token and end-to-end latency percentiles — across security postures.

Run:  python examples/serving_simulator.py
"""

from repro import cpu_deployment, gpu_deployment
from repro.llm import BFLOAT16, LLAMA2_7B
from repro.serving import ColumnarScheduler, poisson_stream


def main() -> None:
    requests = poisson_stream(60, rate_per_s=4.0, mean_prompt=256,
                              mean_output=64, seed=5)
    span = requests[-1].arrival_s
    tokens = sum(r.output_tokens for r in requests)
    print(f"Stream: {len(requests)} requests over {span:.1f} s "
          f"({tokens} output tokens total)\n")

    print(f"{'backend':>10s} {'tok/s':>7s} {'ttft p50':>9s} {'ttft p95':>9s} "
          f"{'e2e p95':>8s} {'batch':>6s} {'preempt':>8s}")
    for backend in ("baremetal", "tdx", "gpu", "cgpu"):
        if backend in ("gpu", "cgpu"):
            deployment = gpu_deployment(confidential=backend == "cgpu")
        else:
            deployment = cpu_deployment(backend, sockets_used=1)
        scheduler = ColumnarScheduler(
            deployment, LLAMA2_7B, BFLOAT16, kv_capacity_tokens=200_000,
            max_batch=32)
        report = scheduler.run(requests)
        print(f"{backend:>10s} {report.throughput_tok_s:7.1f} "
              f"{report.ttft_percentile(50):8.2f}s "
              f"{report.ttft_percentile(95):8.2f}s "
              f"{report.e2e_percentile(95):7.1f}s "
              f"{report.mean_batch_occupancy:6.1f} "
              f"{report.total_preemptions:8d}")

    print("\nTight KV pool (preemption demo):")
    scheduler = ColumnarScheduler(
        cpu_deployment("tdx", sockets_used=1), LLAMA2_7B, BFLOAT16,
        kv_capacity_tokens=4096, max_batch=16)
    tight = poisson_stream(12, rate_per_s=50.0, mean_prompt=300,
                           mean_output=150, seed=6)
    report = scheduler.run(tight)
    print(f"  {report.total_preemptions} preemptions; every request still "
          f"completed (e2e p95 {report.e2e_percentile(95):.1f} s)")


if __name__ == "__main__":
    main()
