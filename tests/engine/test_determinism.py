"""Seed-determinism matrix.

The simulator must be a pure function of ``(workload, deployment,
seed)``: repeated runs and cold vs memoized caches have to produce
bit-identical results.  The frozen per-token loop oracle
(:func:`repro.validate.oracle.reference_decode_clean`) is allowed only
float-reassociation noise against the vectorized engine.
"""

import math

import pytest

from repro.core.experiment import cpu_deployment, gpu_deployment
from repro.engine.placement import Workload
from repro.engine.simulator import simulate_generation
from repro.llm.config import LLAMA2_7B
from repro.llm.datatypes import BFLOAT16
from repro.memo import clear_all_caches
from repro.validate.oracle import reference_decode_clean

WORKLOAD = Workload(LLAMA2_7B, BFLOAT16, batch_size=2, input_tokens=128,
                    output_tokens=24)

DEPLOYMENTS = {
    "baremetal": cpu_deployment("baremetal", sockets_used=1),
    "tdx": cpu_deployment("tdx", sockets_used=1),
    "cgpu": gpu_deployment(confidential=True),
}


def _fingerprint(result):
    """Every float the simulation exposes, bitwise."""
    import numpy as np
    return (result.prefill_s,
            np.asarray(result.decode_clean_s).tobytes(),
            np.asarray(result.decode_noisy_s).tobytes())


@pytest.mark.parametrize("label", sorted(DEPLOYMENTS))
@pytest.mark.parametrize("seed", [0, 7])
def test_same_seed_bit_identical_across_runs(label, seed):
    deployment = DEPLOYMENTS[label]
    first = simulate_generation(WORKLOAD, deployment, seed=seed)
    second = simulate_generation(WORKLOAD, deployment, seed=seed)
    assert _fingerprint(first) == _fingerprint(second)


@pytest.mark.parametrize("label", sorted(DEPLOYMENTS))
def test_cold_and_warm_caches_bit_identical(label):
    deployment = DEPLOYMENTS[label]
    clear_all_caches()
    cold = simulate_generation(WORKLOAD, deployment, seed=5)
    warm = simulate_generation(WORKLOAD, deployment, seed=5)
    assert _fingerprint(cold) == _fingerprint(warm)


def test_different_seeds_differ():
    """The noise process actually consumes the seed (no fake determinism)."""
    a = simulate_generation(WORKLOAD, DEPLOYMENTS["tdx"], seed=0)
    b = simulate_generation(WORKLOAD, DEPLOYMENTS["tdx"], seed=1)
    assert _fingerprint(a) != _fingerprint(b)
    # The deterministic (noise-free) components still agree.
    assert _fingerprint(a)[:2] == _fingerprint(b)[:2]


def test_loop_engine_matches_vectorized_within_reassociation():
    for label, deployment in DEPLOYMENTS.items():
        vec = simulate_generation(WORKLOAD, deployment, seed=2,
                                  context_stride=1)
        loop = reference_decode_clean(WORKLOAD, deployment)
        assert math.isclose(vec.decode_time_s, float(loop.sum()),
                            rel_tol=1e-9), label


class TestChaosDeterminism:
    """The fault-injection layer is part of the purity contract: for a
    fixed (stream, schedule, seeds) the fault timeline, the retry
    jitter, and the failure-aware FleetReport are bit-identical across
    runs — and unaffected by which decode engine ran beforehand."""

    @staticmethod
    def _chaos_run():
        from repro.faults import RetryPolicy, mtbf_schedule
        from repro.fleet import fixed_fleet, poisson_table, replica_spec
        spec = replica_spec("tdx", max_batch=16, kv_capacity_tokens=65536)
        requests = poisson_table(12, 4.0, 128, 24, seed=11)
        schedule = mtbf_schedule([0, 1], mtbf_s=8.0, horizon_s=20.0, seed=5)
        fleet = fixed_fleet(spec, 2, faults=schedule,
                            retry_policy=RetryPolicy(timeout_s=15.0,
                                                     max_attempts=3, seed=5))
        report = fleet.run(requests)
        return (report.to_dict(),
                [a.to_dict() for a in report.fault_events],
                [s.to_dict() for s in report.shed])

    def test_same_seed_identical_fault_timeline_and_report(self):
        first = self._chaos_run()
        second = self._chaos_run()
        assert first == second

    @pytest.mark.parametrize("engine", ["auto", "vectorized", "loop"])
    def test_chaos_run_invariant_to_engine_mode(self, engine):
        """Interleaving decode-cost runs (the default stride, the exact
        stride-1 vectorized path, or the per-token loop oracle) must not
        perturb the chaos layer — no hidden global RNG or cache
        coupling."""
        baseline = self._chaos_run()
        tdx = DEPLOYMENTS["tdx"]
        if engine == "loop":
            reference_decode_clean(WORKLOAD, tdx)
        else:
            simulate_generation(WORKLOAD, tdx, seed=3, context_stride=(
                None if engine == "auto" else 1))
        assert self._chaos_run() == baseline

    def test_retry_jitter_reproducible(self):
        from repro.faults import RetryPolicy
        policy = RetryPolicy(jitter_frac=0.3, seed=9)
        series = [(rid, k, policy.backoff_s(rid, k))
                  for rid in range(5) for k in range(1, 4)]
        twin = RetryPolicy(jitter_frac=0.3, seed=9)
        assert series == [(rid, k, twin.backoff_s(rid, k))
                          for rid in range(5) for k in range(1, 4)]
