"""Process-wide memoization caches with hit/miss accounting.

The simulator's hot paths (op-graph construction, step costing, the
vectorized decode-cost engine) recompute identical values across sweeps,
figures and tests.  :class:`MemoCache` gives those paths a small, bounded
LRU memo with hit/miss counters; every cache registers itself in a global
registry so :func:`all_cache_stats`, :func:`cache_report` and
:func:`clear_all_caches` can report and reset the whole set at once.

This module is deliberately dependency-free (no imports from elsewhere
in :mod:`repro`) so any layer — ``llm``, ``engine``, ``core`` — can use
it without import cycles.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Hashable


@dataclass(frozen=True)
class CacheStats:
    """Point-in-time statistics of one :class:`MemoCache`."""

    name: str
    hits: int
    misses: int
    size: int
    maxsize: int
    evictions: int

    @property
    def lookups(self) -> int:
        """Total lookups served."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Hits per lookup (0.0 before any lookup)."""
        total = self.lookups
        return self.hits / total if total else 0.0


#: Global registry of live caches, keyed by cache name.
_REGISTRY: dict[str, "MemoCache"] = {}


class MemoCache:
    """A bounded LRU memo cache with hit/miss counters.

    Values are computed once per key via :meth:`get_or_compute` and must
    be treated as immutable by callers — entries are shared across every
    consumer for the life of the process.

    Args:
        name: Registry name (must be unique per process).
        maxsize: Entry bound; least-recently-used entries are evicted.
    """

    def __init__(self, name: str, maxsize: int = 1024) -> None:
        if not name:
            raise ValueError("cache name must be non-empty")
        if name in _REGISTRY:
            raise ValueError(f"duplicate cache name {name!r}")
        if maxsize < 1:
            raise ValueError("maxsize must be >= 1")
        self.name = name
        self.maxsize = maxsize
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._entries: OrderedDict[Hashable, Any] = OrderedDict()
        _REGISTRY[name] = self

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._entries

    def get_or_compute(self, key: Hashable, factory: Callable[[], Any]) -> Any:
        """Return the cached value for ``key``, computing it on miss."""
        entries = self._entries
        if key in entries:
            entries.move_to_end(key)
            self.hits += 1
            return entries[key]
        self.misses += 1
        value = factory()
        entries[key] = value
        if len(entries) > self.maxsize:
            entries.popitem(last=False)
            self.evictions += 1
        return value

    def clear(self, reset_counters: bool = True) -> None:
        """Drop every entry (and, by default, the counters)."""
        self._entries.clear()
        if reset_counters:
            self.hits = 0
            self.misses = 0
            self.evictions = 0

    def stats(self) -> CacheStats:
        """Snapshot the current counters."""
        return CacheStats(name=self.name, hits=self.hits, misses=self.misses,
                          size=len(self._entries), maxsize=self.maxsize,
                          evictions=self.evictions)


def registered_caches() -> dict[str, MemoCache]:
    """All caches created in this process, by name."""
    return dict(_REGISTRY)


def all_cache_stats() -> dict[str, CacheStats]:
    """Statistics for every registered cache."""
    return {name: cache.stats() for name, cache in _REGISTRY.items()}


def clear_all_caches(reset_counters: bool = True) -> None:
    """Clear every registered cache (tests, benchmarks, workers)."""
    for cache in _REGISTRY.values():
        cache.clear(reset_counters=reset_counters)


def cache_report() -> str:
    """Human-readable one-line-per-cache summary."""
    lines = []
    for name in sorted(_REGISTRY):
        stats = _REGISTRY[name].stats()
        lines.append(
            f"{name:24s} hits={stats.hits:<8d} misses={stats.misses:<6d} "
            f"hit_rate={stats.hit_rate:6.1%} size={stats.size}/{stats.maxsize}"
            f" evictions={stats.evictions}")
    return "\n".join(lines)
