"""Shared helpers for the figure-reproduction benchmarks.

Every benchmark regenerates one table or figure from the paper: it runs
the experiment through the simulator (timed via pytest-benchmark),
prints the same rows/series the paper reports, and asserts the shape —
who wins, by roughly what factor, where crossovers fall.
"""

from __future__ import annotations

from typing import Callable

from repro.engine.placement import Deployment, Workload
from repro.engine.simulator import GenerationResult, simulate_generation
from repro.memo import MemoCache

# The figure benchmarks overlap heavily in the (workload, deployment)
# pairs they simulate — e.g. Fig. 8 and Fig. 9 both sweep Llama2-7B at
# 128/128 tokens over the same batch sizes on the same TDX deployments.
# One process-wide result cache lets every file reuse the simulations
# (and, underneath, the memoized cost engines) of the files before it.
_RESULT_CACHE = MemoCache("bench_generation", maxsize=4096)


def simulate_cached(workload: Workload, deployment: Deployment,
                    **kwargs) -> GenerationResult:
    """Memoized :func:`simulate_generation` for the benchmark suite.

    Keyed on the full (workload, deployment, kwargs) triple, so seeds,
    ``record_steps`` and engine choices are all part of the identity.
    Treat the returned result as read-only: it is shared across files.
    """
    key = (workload, deployment, tuple(sorted(kwargs.items())))
    return _RESULT_CACHE.get_or_compute(
        key, lambda: simulate_generation(workload, deployment, **kwargs))


def print_rows(title: str, rows: list[dict]) -> None:
    """Print a list of dict rows as an aligned table."""
    if not rows:
        raise ValueError("no rows to print")
    columns = list(rows[0])
    widths = {col: max(len(col), *(len(_fmt(row[col])) for row in rows))
              for col in columns}
    print(f"\n=== {title} ===")
    print("  ".join(col.ljust(widths[col]) for col in columns))
    for row in rows:
        print("  ".join(_fmt(row[col]).ljust(widths[col]) for col in columns))


def _fmt(value: object) -> str:
    if isinstance(value, float):
        if abs(value) >= 100:
            return f"{value:.0f}"
        if 0 < abs(value) < 0.01:
            return f"{value:.6f}"
        return f"{value:.3f}"
    return str(value)


def run_once(benchmark, func: Callable):
    """Execute a figure-regeneration function once under the benchmark
    timer (figure regeneration is deterministic; repeated rounds would
    only re-measure the same simulation)."""
    return benchmark.pedantic(func, rounds=1, iterations=1)
