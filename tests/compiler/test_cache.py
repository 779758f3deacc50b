"""Unit tests for the prepare cache: the in-process LRU layer
(hash-keyed generate/compile skipping)."""

import threading

import pytest

from repro.compiler.cache import (
    PrepareCache,
    clear_prepare_cache,
    prepare_cache_stats,
    spec_fingerprint,
)
from repro.compiler.compiled import CompiledBackend
from repro.compiler.optimizer import CodegenOptions
from repro.compiler.threaded import ThreadedBackend
from repro.rtl.parser import parse_spec


@pytest.fixture
def private_cache():
    return PrepareCache(max_entries=4)


class TestFingerprint:
    def test_stable_across_reparses(self, counter_spec_text):
        first = spec_fingerprint(parse_spec(counter_spec_text))
        second = spec_fingerprint(parse_spec(counter_spec_text))
        assert first == second

    def test_source_name_does_not_matter(self, counter_spec_text):
        a = parse_spec(counter_spec_text, source_name="a.asim")
        b = parse_spec(counter_spec_text, source_name="b.asim")
        assert spec_fingerprint(a) == spec_fingerprint(b)

    def test_component_changes_matter(self, counter_spec_text):
        original = parse_spec(counter_spec_text)
        changed = parse_spec(counter_spec_text.replace("next 7", "next 3"))
        assert spec_fingerprint(original) != spec_fingerprint(changed)

    def test_trace_marks_matter(self, counter_spec_text):
        plain = parse_spec(counter_spec_text.replace("count*", "count"))
        traced = parse_spec(counter_spec_text)
        assert spec_fingerprint(plain) != spec_fingerprint(traced)


class TestPrepareCacheUnit:
    def test_get_or_create_counts_hits_and_misses(self, private_cache):
        calls = []

        def factory():
            calls.append(1)
            return "artifact"

        first, hit1 = private_cache.get_or_create(("k",), factory)
        second, hit2 = private_cache.get_or_create(("k",), factory)
        assert (first, hit1) == ("artifact", False)
        assert (second, hit2) == ("artifact", True)
        assert len(calls) == 1
        assert private_cache.stats.hits == 1
        assert private_cache.stats.misses == 1
        assert private_cache.stats.hit_rate == 0.5

    def test_lru_eviction(self, private_cache):
        for index in range(6):
            private_cache.get_or_create((index,), lambda: index)
        assert len(private_cache) == 4
        assert private_cache.stats.evictions == 2

    def test_clear_resets_everything(self, private_cache):
        private_cache.get_or_create(("k",), lambda: 1)
        private_cache.clear()
        assert len(private_cache) == 0
        assert private_cache.stats.requests == 0


class TestCompiledBackendCaching:
    def test_second_prepare_skips_generation(self, counter_spec, private_cache):
        backend = CompiledBackend(cache=private_cache)
        first = backend.prepare(counter_spec)
        second = backend.prepare(counter_spec)
        assert not first.cache_hit
        assert second.cache_hit
        assert private_cache.stats.hits == 1
        # generation phases were skipped entirely on the hit
        assert second.generate_seconds == 0.0
        assert second.compile_seconds == 0.0
        assert second.source == first.source

    def test_hit_produces_identical_results(self, counter_spec, private_cache):
        backend = CompiledBackend(cache=private_cache)
        first = backend.prepare(counter_spec).run(cycles=10)
        second = backend.prepare(counter_spec).run(cycles=10)
        assert first.final_values == second.final_values
        assert first.output_integers() == second.output_integers()

    def test_identical_spec_from_different_objects_hits(
        self, counter_spec_text, private_cache
    ):
        backend = CompiledBackend(cache=private_cache)
        backend.prepare(parse_spec(counter_spec_text))
        again = backend.prepare(parse_spec(counter_spec_text))
        assert again.cache_hit

    def test_different_options_do_not_collide(self, counter_spec, private_cache):
        CompiledBackend(cache=private_cache).prepare(counter_spec)
        other = CompiledBackend(
            CodegenOptions.unoptimized(), cache=private_cache
        ).prepare(counter_spec)
        assert not other.cache_hit

    def test_cache_disabled(self, counter_spec):
        backend = CompiledBackend(cache=False)
        assert not backend.prepare(counter_spec).cache_hit
        assert not backend.prepare(counter_spec).cache_hit


class TestThreadedBackendCaching:
    def test_second_prepare_reuses_program(self, counter_spec, private_cache):
        backend = ThreadedBackend(cache=private_cache)
        first = backend.prepare(counter_spec)
        second = backend.prepare(counter_spec)
        assert not first.cache_hit
        assert second.cache_hit
        assert second.program is first.program


class TestConcurrentAccess:
    """The cache invariants hold when hammered from the serving pool.

    The bookkeeping invariant used throughout: every ``get_or_create``
    counts exactly one hit or one miss, every miss stores one entry, and
    every eviction removes one — so ``misses - evictions == len(cache)``
    and ``hits + misses`` equals the number of calls, no matter how the
    threads interleave.
    """

    def _assert_invariants(self, cache, calls):
        stats = cache.stats
        assert stats.hits + stats.misses == calls
        assert stats.misses - stats.evictions == len(cache)
        assert len(cache) <= cache.max_entries

    def test_counters_consistent_under_thread_hammer(self):
        import threading

        cache = PrepareCache(max_entries=4)
        threads, per_thread, keys = 8, 50, 10
        barrier = threading.Barrier(threads)

        def hammer(seed):
            barrier.wait()
            for i in range(per_thread):
                key = ((seed * 7 + i) % keys,)
                value, _ = cache.get_or_create(key, lambda k=key: k)
                assert value == key  # a racing store never crosses keys

        workers = [
            threading.Thread(target=hammer, args=(seed,))
            for seed in range(threads)
        ]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()
        self._assert_invariants(cache, threads * per_thread)
        assert cache.stats.evictions > 0  # 10 keys churned through 4 slots

    def test_racing_threads_share_one_artifact_per_key(self):
        import threading

        cache = PrepareCache(max_entries=8)
        barrier = threading.Barrier(6)
        seen = []

        def build():
            return object()

        def racer():
            barrier.wait()
            artifact, _ = cache.get_or_create(("k",), build)
            seen.append(artifact)

        workers = [threading.Thread(target=racer) for _ in range(6)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()
        # whoever won the race, every caller got the same stored artifact
        assert len({id(artifact) for artifact in seen}) == 1
        self._assert_invariants(cache, 6)

    def test_pool_hammer_keeps_cache_consistent(self, counter_spec_text):
        """Concurrent prepares of many machines through the threaded
        backend: LRU eviction churns, counters stay consistent, and every
        prepared simulation still runs correctly."""
        from concurrent.futures import ThreadPoolExecutor

        specs = [
            parse_spec(counter_spec_text.replace("next 7", f"next {mask}"))
            for mask in range(3, 8)
        ]
        expected = [
            ThreadedBackend(cache=False).prepare(spec).run(cycles=4).value("count")
            for spec in specs
        ]
        cache = PrepareCache(max_entries=3)
        backend = ThreadedBackend(cache=cache)

        def prepare_and_run(index):
            spec = specs[index % len(specs)]
            result = backend.prepare(spec).run(cycles=4)
            return result.value("count") == expected[index % len(specs)]

        with ThreadPoolExecutor(max_workers=6) as executor:
            correct = list(executor.map(prepare_and_run, range(30)))
        assert all(correct)
        self._assert_invariants(cache, 30)
        assert cache.stats.evictions > 0

    def test_simulation_pool_workers_hit_not_miss(self, counter_spec):
        """Hammering one machine from the serving pool produces exactly one
        miss; the worker prepares are all hits on the shared artifact."""
        from repro.serving import RunRequest, SimulationPool

        cache = PrepareCache(max_entries=4)
        backend = ThreadedBackend(cache=cache)
        with SimulationPool(counter_spec, backend=backend,
                            max_workers=6) as pool:
            batch = pool.run_batch([RunRequest(cycles=5)] * 24)
        assert batch.ok
        assert cache.stats.misses == 1
        assert cache.stats.evictions == 0
        self._assert_invariants(cache, cache.stats.requests)


class TestGlobalCache:
    def test_global_counters_accumulate(self, counter_spec):
        clear_prepare_cache()
        backend = CompiledBackend()  # defaults to the process-wide cache
        backend.prepare(counter_spec)
        backend.prepare(counter_spec)
        stats = prepare_cache_stats()
        assert stats.misses >= 1
        assert stats.hits >= 1
        clear_prepare_cache()
        assert prepare_cache_stats().requests == 0
