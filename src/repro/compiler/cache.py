"""Prepare-phase caching: skip generate + compile for a known specification.

Figure 5.1's lesson cuts both ways: compiling a specification buys a ~20x
faster simulation phase at the price of a much longer preparation phase.  In
a serving setting — the same machine specification simulated over and over
for millions of requests — that preparation cost should be paid **once**.
This module keys the shared lowered program — the backend-neutral
:class:`~repro.lowering.program.CycleProgram` IR, never a backend-private
artifact — on a stable content hash of the specification, so a repeated
``prepare()`` of the same specification skips lowering entirely.
Backend-private derivations (closure plans, generated modules) are
memoized *on* the cached program (``CycleProgram.artifact``), so they are
shared too.

:class:`PrepareCache` is an in-process bounded LRU, safe to share between
threads.  Process-pool workers do not consult it: each receives the
pool's warm prepared simulation (see :mod:`repro.serving.executor`).
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable

from repro.rtl.spec import Specification
from repro.rtl.writer import spec_to_text


def spec_fingerprint(spec: Specification) -> str:
    """Stable content hash of a specification.

    The canonical serialised text covers everything that affects generated
    code: components and their expressions, declarations (trace marks),
    initial memory contents and the default cycle count.  ``source_name`` is
    deliberately excluded so identical machines loaded from different paths
    share one cache entry.
    """
    return hashlib.sha256(spec_to_text(spec).encode()).hexdigest()


@dataclass
class CacheStats:
    """Hit/miss counters for one cache (exposed on prepare reports)."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0

    @property
    def requests(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.requests if self.requests else 0.0

    def snapshot(self) -> dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
        }


class PrepareCache:
    """Bounded LRU mapping (kind, specification fingerprint) -> artifact."""

    def __init__(self, max_entries: int = 256) -> None:
        if max_entries <= 0:
            raise ValueError("max_entries must be positive")
        self.max_entries = max_entries
        self.stats = CacheStats()
        self._entries: OrderedDict[tuple, object] = OrderedDict()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._entries)

    def key_for(self, kind: str, spec: Specification) -> tuple:
        """Build the cache key of *spec*'s artifact of *kind*."""
        return (kind, spec_fingerprint(spec))

    def get_or_create(
        self, key: tuple, factory: Callable[[], object]
    ) -> tuple[object, bool]:
        """Return ``(artifact, hit)``; on a miss, build and store it.

        The factory runs outside the lock (code generation can be slow); if
        two threads race on the same key the first stored value wins so both
        callers see one artifact.
        """
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
                self.stats.hits += 1
                return self._entries[key], True
        artifact = factory()
        with self._lock:
            if key in self._entries:  # lost a race: keep the first artifact
                self.stats.hits += 1
                return self._entries[key], True
            self.stats.misses += 1
            self._entries[key] = artifact
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                self.stats.evictions += 1
        return artifact, False

    def clear(self) -> None:
        """Drop every entry and reset the counters."""
        with self._lock:
            self._entries.clear()
            self.stats = CacheStats()


#: Process-wide cache shared by the compiled and threaded backends.
GLOBAL_PREPARE_CACHE = PrepareCache()


def prepare_cache_stats() -> CacheStats:
    """Counters of the process-wide prepare cache."""
    return GLOBAL_PREPARE_CACHE.stats


def clear_prepare_cache() -> None:
    """Empty the process-wide prepare cache (tests, benchmarks)."""
    GLOBAL_PREPARE_CACHE.clear()


def resolve_cache(cache: "PrepareCache | bool | None") -> PrepareCache | None:
    """Normalise the ``cache`` argument backends accept.

    ``True``/``None`` select the process-wide cache, ``False`` disables
    caching, a :class:`PrepareCache` instance is used as-is.
    """
    if cache is False:
        return None
    if cache is True or cache is None:
        return GLOBAL_PREPARE_CACHE
    return cache
