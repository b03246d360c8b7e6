"""Arrival-process generators: determinism, shape, and regime behavior."""

import hashlib
import math
import statistics

import numpy as np
import pytest

from repro.fleet.arrivals import (
    diurnal_table,
    make_arrival_table,
    mmpp_table,
    poisson_table,
    trace_replay,
)
from repro.tenancy import TenantPopulation, TenantSpec, whale_mix
from repro.validate.fleet import CAPACITY_TRACE


def gaps(requests):
    arrivals = [r.arrival_s for r in requests]
    return [b - a for a, b in zip(arrivals, arrivals[1:])]


class TestCommonContract:
    @pytest.mark.parametrize("kind", ["poisson", "mmpp", "diurnal"])
    def test_deterministic_and_sorted(self, kind):
        a = make_arrival_table(kind, 50, 4.0, seed=3)
        b = make_arrival_table(kind, 50, 4.0, seed=3)
        assert list(a) == list(b)
        arrivals = [r.arrival_s for r in a]
        assert arrivals == sorted(arrivals)
        assert [r.request_id for r in a] == list(range(50))

    @pytest.mark.parametrize("kind", ["poisson", "mmpp", "diurnal"])
    def test_seed_changes_stream(self, kind):
        assert list(make_arrival_table(kind, 30, 4.0, seed=1)) != \
            list(make_arrival_table(kind, 30, 4.0, seed=2))

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown arrival kind"):
            make_arrival_table("weibull", 10, 1.0)

    @pytest.mark.parametrize("build", [
        lambda: poisson_table(10, math.inf),
        lambda: poisson_table(10, math.nan),
        lambda: mmpp_table(10, 1.0, math.inf),
        lambda: mmpp_table(10, 1.0, 3.0, mean_calm_s=math.inf),
        lambda: mmpp_table(10, 1.0, 3.0, mean_calm_s=math.nan),
        lambda: mmpp_table(10, 1.0, 3.0, mean_burst_s=math.inf),
        lambda: diurnal_table(10, math.inf),
        lambda: diurnal_table(10, math.nan),
        lambda: diurnal_table(10, 4.0, period_s=math.nan),
        lambda: diurnal_table(10, 4.0, period_s=math.inf),
        lambda: diurnal_table(10, 4.0, peak_to_trough=math.inf),
        lambda: diurnal_table(10, 4.0, peak_to_trough=math.nan),
        lambda: make_arrival_table("mmpp", 10, math.inf),
        lambda: TenantSpec(tenant_id=0, name="a", requests=2,
                           rate_per_s=math.inf),
        lambda: TenantSpec(tenant_id=0, name="a", requests=2,
                           rate_per_s=math.nan, arrival="diurnal"),
    ], ids=["poisson-rate-inf", "poisson-rate-nan", "mmpp-burst-inf",
            "mmpp-calm-dwell-inf", "mmpp-calm-dwell-nan",
            "mmpp-burst-dwell-inf", "diurnal-rate-inf", "diurnal-rate-nan",
            "diurnal-period-nan", "diurnal-period-inf",
            "diurnal-peak-inf", "diurnal-peak-nan", "kind-mmpp-rate-inf",
            "tenant-rate-inf", "tenant-rate-nan"])
    def test_nonfinite_parameters_rejected(self, build):
        """NaN/inf rates, dwells, periods and ratios used to hang the
        thinning loop, zero every arrival or divide by zero."""
        with pytest.raises(ValueError, match="finite"):
            build()


def _digest(table):
    digest = hashlib.sha256()
    for name in ("request_id", "arrival_s", "prompt_tokens",
                 "output_tokens", "priority", "tenant_id"):
        column = getattr(table, name)
        digest.update(name.encode())
        digest.update(column.dtype.str.encode())
        digest.update(np.ascontiguousarray(column).tobytes())
    return digest.hexdigest()


def _three_kind_population():
    return TenantPopulation((
        TenantSpec(tenant_id=0, name="a", requests=12, rate_per_s=2.0,
                   arrival="mmpp", mean_prompt=192, weight=4.0, priority=0),
        TenantSpec(tenant_id=1, name="b", requests=8, rate_per_s=1.5,
                   weight=2.0, priority=1),
        TenantSpec(tenant_id=2, name="c", requests=4, rate_per_s=0.5,
                   arrival="diurnal", priority=2),
    ), seed=7)


class TestStreamDigests:
    """SHA-256 over all six columns pins every seeded draw order.

    Any change to a generator's RNG consumption, size sampler, merge
    order or column dtype changes a digest; the fleet goldens and the
    benchmark stream digests all sit downstream of these streams.
    """

    STREAMS = {
        "poisson": lambda: make_arrival_table("poisson", 64, 4.0, seed=3),
        "mmpp": lambda: make_arrival_table("mmpp", 64, 4.0, seed=3),
        "diurnal": lambda: make_arrival_table("diurnal", 64, 4.0, seed=3),
        "trace": lambda: trace_replay(CAPACITY_TRACE),
        "whale_mix": lambda: whale_mix(200, seed=1).table(),
        "population": lambda: _three_kind_population().table(),
    }
    DIGESTS = {
        "poisson":
            "6ef86e6f378b7ede17ef74b45ca1bba03b15575933e4d4bc52a1cb18664eaa88",
        "mmpp":
            "4162ec92d5d839ffa474099e110acc180a3e489a777805d9131cfc21f1fd2c8b",
        "diurnal":
            "8966a9e589f3ea1cfa3955a67c034e39415409f749923f893b64cc9b5505f0f4",
        "trace":
            "3224e74b27b44a1f0dc64fb66de263c5b0ff3a35ad1fc3ec25ed427210805b57",
        "whale_mix":
            "19758cf4469ab9e274f6866f191d594c73d1345315800cecdd60651e4897dd66",
        "population":
            "41fa718b0c57bdfe4e87288ede24d51b56ca17254fa84b19c9f5bb1e580e7619",
    }

    @pytest.mark.parametrize("stream", sorted(STREAMS))
    def test_digest_pinned(self, stream):
        assert _digest(self.STREAMS[stream]()) == self.DIGESTS[stream]


class TestPoisson:
    def test_mean_rate_approximate(self):
        requests = poisson_table(400, rate_per_s=5.0, seed=0)
        mean_gap = statistics.fmean(gaps(requests))
        assert 0.15 < mean_gap < 0.27  # 1/5 s +- sampling noise

    def test_validation(self):
        with pytest.raises(ValueError):
            poisson_table(0, 1.0)
        with pytest.raises(ValueError):
            poisson_table(5, 0.0)


class TestMmpp:
    def test_burstier_than_poisson(self):
        """MMPP inter-arrival gaps are overdispersed vs exponential.

        The squared coefficient of variation of a Poisson process's
        gaps is 1; a 2-state MMPP with distinct rates exceeds it.
        """
        poisson = poisson_table(600, rate_per_s=4.0, seed=1)
        mmpp = mmpp_table(600, calm_rate_per_s=1.0, burst_rate_per_s=16.0,
                          mean_calm_s=10.0, mean_burst_s=5.0, seed=1)

        def cv2(requests):
            g = gaps(requests)
            return statistics.variance(g) / statistics.fmean(g) ** 2

        assert cv2(mmpp) > 1.5 * cv2(poisson)

    def test_validation(self):
        with pytest.raises(ValueError):
            mmpp_table(10, 4.0, 2.0)  # burst < calm
        with pytest.raises(ValueError):
            mmpp_table(10, 4.0, 8.0, mean_calm_s=0.0)
        with pytest.raises(ValueError):
            mmpp_table(0, 1.0, 2.0)


class TestDiurnal:
    def test_peak_denser_than_trough(self):
        """More arrivals land in the peak half-period than the trough."""
        period = 100.0
        requests = diurnal_table(800, mean_rate_per_s=6.0,
                                 period_s=period, peak_to_trough=6.0,
                                 seed=2)
        peak = sum(1 for r in requests if (r.arrival_s % period) < period / 2)
        trough = len(requests) - peak
        assert peak > 1.4 * trough

    def test_flat_curve_allowed(self):
        requests = diurnal_table(50, 4.0, peak_to_trough=1.0, seed=0)
        assert len(requests) == 50

    def test_validation(self):
        with pytest.raises(ValueError):
            diurnal_table(10, 4.0, peak_to_trough=0.5)
        with pytest.raises(ValueError):
            diurnal_table(10, 0.0)


class TestTraceReplay:
    def test_exact_replay(self):
        trace = [(0.0, 128, 32), (1.5, 64, 8), (1.5, 256, 16)]
        requests = trace_replay(trace)
        assert [(r.arrival_s, r.prompt_tokens, r.output_tokens)
                for r in requests] == trace
        assert [r.request_id for r in requests] == [0, 1, 2]

    def test_empty_trace_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            trace_replay([])
