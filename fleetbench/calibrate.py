"""Host-speed calibration for the benchmark's host timings.

The shared 2-vCPU host this benchmark was tuned on changes speed by tens
of percent from one minute to the next: identical simulator runs took
3.9 s to 6.9 s back to back.  Each repetition therefore also times a
fixed loop of interpreter work that uses nothing from ``src/``, just
before and just after its measured region.  ``run.py`` converts host
seconds into seconds of a reference host, on which one round of the
loop takes :data:`REFERENCE_ROUND_S`.  A change to the simulator moves
the converted time exactly as it moves the raw time; a change in host
speed moves the loop too, and most of it cancels.
"""

from __future__ import annotations

from time import perf_counter

#: One calibration round on the reference host (a quiet period of the
#: host the benchmark was tuned on).
REFERENCE_ROUND_S = 80e-6


class _Item:
    __slots__ = ("key", "value")

    def __init__(self, key: int, value: float) -> None:
        self.key = key
        self.value = value

    def weight(self) -> float:
        return self.value * 0.5 + self.key


def _round(items: list[_Item], table: dict[int, float]) -> float:
    total = 0.0
    for item in items:
        slot = item.key & 255
        table[slot] = table.get(slot, 0.0) + item.weight()
        total += min(table[slot], 1e6)
    best = min(items, key=lambda it: (it.value, it.key))
    return total + best.value


def round_s(seconds: float = 0.4) -> float:
    """Mean wall time of one calibration round, over about ``seconds``."""
    items = [_Item(i, float(i % 97)) for i in range(200)]
    table: dict[int, float] = {}
    rounds = 0
    start = perf_counter()
    while True:
        for _ in range(50):
            _round(items, table)
        rounds += 50
        elapsed = perf_counter() - start
        if elapsed >= seconds:
            return elapsed / rounds
