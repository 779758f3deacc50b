"""Tests for SimulationPool: dispatch, cache sharing, error capture."""

import sys
import threading

import pytest

from repro.compiler.cache import PrepareCache
from repro.compiler.compiled import CompiledBackend
from repro.compiler.threaded import ThreadedBackend
from repro.core.simulator import BACKEND_NAMES, make_backend
from repro.errors import ServingError, SimulationError
from repro.rtl.parser import parse_spec
from repro.serving import BatchRequest, RunRequest, SimulationPool, run_batch


class TestPoolBasics:
    def test_single_run(self, counter_spec):
        with SimulationPool(counter_spec, max_workers=2) as pool:
            result = pool.run(RunRequest(cycles=10))
        assert result.value("count") == 2

    def test_submit_returns_future_of_result(self, counter_spec):
        with SimulationPool(counter_spec, max_workers=2) as pool:
            future = pool.submit(RunRequest(cycles=10))
            assert future.result().cycles_run == 10

    def test_batch_results_in_request_order(self, counter_spec):
        runs = [RunRequest(cycles=c) for c in range(1, 9)]
        with SimulationPool(counter_spec, max_workers=4) as pool:
            batch = pool.run_batch(runs)
        assert batch.ok
        assert [item.result.cycles_run for item in batch.items] == list(range(1, 9))

    def test_accepts_batch_request_for_same_spec(self, counter_spec):
        request = BatchRequest.repeat(counter_spec, 3, cycles=5)
        with SimulationPool(counter_spec, max_workers=2) as pool:
            batch = pool.run_batch(request)
        assert len(batch) == 3 and batch.ok

    def test_rejects_batch_for_a_different_machine(self, counter_spec,
                                                   counter_spec_text):
        other = parse_spec(counter_spec_text.replace("next 7", "next 3"))
        with SimulationPool(counter_spec, max_workers=2) as pool:
            with pytest.raises(ServingError):
                pool.run_batch(BatchRequest.repeat(other, 2, cycles=1))

    def test_rejects_batch_for_a_different_backend(self, counter_spec):
        with SimulationPool(counter_spec, backend="interpreter",
                            max_workers=1) as pool:
            with pytest.raises(ServingError, match="backend"):
                pool.run_batch(
                    BatchRequest.repeat(counter_spec, 2, cycles=1,
                                        backend="compiled")
                )

    def test_backend_instance_in_request_matched_by_name(self, counter_spec):
        with SimulationPool(counter_spec, backend="threaded",
                            max_workers=1) as pool:
            request = BatchRequest(
                counter_spec, [RunRequest(cycles=2)],
                backend=ThreadedBackend(cache=False),
            )
            assert pool.run_batch(request).ok

    def test_plain_run_list_bypasses_backend_check(self, counter_spec):
        with SimulationPool(counter_spec, backend="interpreter",
                            max_workers=1) as pool:
            batch = pool.run_batch([RunRequest(cycles=2)])
        assert batch.ok and batch.backend == "interpreter"

    def test_equal_spec_text_is_accepted(self, counter_spec_text, counter_spec):
        reparsed = parse_spec(counter_spec_text, source_name="other.asim")
        with SimulationPool(counter_spec, max_workers=2) as pool:
            batch = pool.run_batch(BatchRequest.repeat(reparsed, 2, cycles=3))
        assert batch.ok

    def test_rejects_nonpositive_workers(self, counter_spec):
        with pytest.raises(ServingError):
            SimulationPool(counter_spec, max_workers=0)

    def test_closed_pool_rejects_submissions(self, counter_spec):
        pool = SimulationPool(counter_spec, max_workers=1)
        pool.close()
        assert pool.closed
        with pytest.raises(ServingError):
            pool.run(RunRequest(cycles=1))


class TestBackendDispatch:
    def test_threaded_workers_share_one_cached_artifact(self, counter_spec):
        cache = PrepareCache()
        backend = ThreadedBackend(cache=cache)
        with SimulationPool(counter_spec, backend=backend, max_workers=4) as pool:
            batch = pool.run_batch([RunRequest(cycles=5)] * 16)
        assert batch.ok
        # one miss (the pool's warm prepare), and no prepare after it:
        # every run executes on the warm prepared simulation
        assert cache.stats.misses == 1
        assert cache.stats.hits == 0
        assert len(cache) == 1

    def test_compiled_workers_share_one_cached_artifact(self, counter_spec):
        cache = PrepareCache()
        backend = CompiledBackend(cache=cache)
        with SimulationPool(counter_spec, backend=backend, max_workers=4) as pool:
            batch = pool.run_batch([RunRequest(cycles=5)] * 16)
        assert batch.ok
        # the warm prepare is the only prepare
        assert cache.stats.misses == 1
        assert cache.stats.hits == 0
        assert len(cache) == 1

    def test_uncached_backend_prepares_once_and_shares(self, counter_spec):
        prepares = []
        backend = ThreadedBackend(cache=False)
        original = backend.prepare

        def counting_prepare(spec):
            prepares.append(threading.get_ident())
            return original(spec)

        backend.prepare = counting_prepare
        with SimulationPool(counter_spec, backend=backend, max_workers=2) as pool:
            batch = pool.run_batch([RunRequest(cycles=3)] * 6)
        assert batch.ok
        # prepared simulations are re-entrant: the warm prepare is the only
        # one, shared by every run
        assert len(prepares) == 1

    def test_workers_bind_to_the_shared_lowered_program(self, counter_spec):
        cache = PrepareCache()
        backend = ThreadedBackend(cache=cache)
        with SimulationPool(counter_spec, backend=backend, max_workers=3) as pool:
            program = pool.shared_program
            assert program is not None
            futures = [pool.submit(RunRequest(cycles=3)) for _ in range(9)]
            for future in futures:
                future.result()
            # the runs' warm simulation wraps the cached CycleProgram, the
            # same one any later prepare of the spec gets
            assert backend.prepare(counter_spec).program is program

    @pytest.mark.parametrize("backend_name", BACKEND_NAMES)
    def test_concurrent_callers_share_the_warm_simulation(self, counter_spec,
                                                         backend_name):
        """A serial pool runs every caller on its one warm prepared
        simulation: threads outnumbering the cores, preempted often, must
        each get exactly the sequential result of their own run."""

        def observed(result):
            return (result.final_values, result.memory_contents,
                    [(e.address, e.value) for e in result.outputs],
                    result.stats)

        reference = make_backend(backend_name).prepare(counter_spec)
        cycle_counts = (3, 5, 8, 13, 21, 34)
        expected = {cycles: observed(reference.run(cycles=cycles))
                    for cycles in cycle_counts}
        seen = []

        with SimulationPool(counter_spec, backend=backend_name) as pool:
            def client(cycles):
                for _ in range(20):
                    seen.append(
                        (cycles, observed(pool.run(RunRequest(cycles=cycles))))
                    )

            threads = [threading.Thread(target=client, args=(cycles,))
                       for cycles in cycle_counts]
            old = sys.getswitchinterval()
            sys.setswitchinterval(1e-5)  # preempt inside the runs
            try:
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
            finally:
                sys.setswitchinterval(old)
        assert not any(thread.is_alive() for thread in threads)
        assert len(seen) == 20 * len(cycle_counts)
        for cycles, observation in seen:
            assert observation == expected[cycles], cycles

    def test_interpreter_pool_shares_the_warm_program(self, counter_spec):
        from repro.interp.interpreter import InterpreterBackend

        prepares = []
        backend = InterpreterBackend()
        original = backend.prepare

        def counting_prepare(spec):
            prepares.append(1)
            return original(spec)

        backend.prepare = counting_prepare
        with SimulationPool(counter_spec, backend=backend,
                            max_workers=3) as pool:
            batch = pool.run_batch([RunRequest(cycles=10)] * 6)
            # the warm prepared interpreter program is shared by the pool
            assert pool.shared_program is not None
        assert batch.ok
        assert len(prepares) == 1  # prepared once, reused by every run
        assert all(item.result.backend == "interpreter" for item in batch.items)


class TestErrorCapture:
    def test_poisoned_run_does_not_kill_the_batch(self, counter_spec):
        runs = [RunRequest(cycles=5), RunRequest(cycles=-1), RunRequest(cycles=7)]
        with SimulationPool(counter_spec, max_workers=2) as pool:
            batch = pool.run_batch(runs)
        assert not batch.ok
        assert [item.ok for item in batch.items] == [True, False, True]
        assert isinstance(batch.failures[0].error, SimulationError)
        assert batch.items[2].result.cycles_run == 7

    def test_override_runs_on_compiled_pool(self, counter_spec):
        def stuck(name, value, cycle):
            return 0 if name == "wrapped" else value

        runs = [RunRequest(cycles=5, override=stuck), RunRequest(cycles=5)]
        with SimulationPool(counter_spec, backend="compiled",
                            max_workers=2) as pool:
            batch = pool.run_batch(runs)
        assert batch.ok
        assert batch.items[0].result.value("count") == 0
        assert batch.items[1].result.value("count") == 5

    def test_unsupporting_backend_override_is_captured(self, counter_spec):
        backend = CompiledBackend(cache=False)
        prepared_cls = type(backend.prepare(counter_spec))

        class NoOverride(prepared_cls):
            supports_override = False

        original = backend.prepare

        def prepare(spec):
            prepared = original(spec)
            prepared.__class__ = NoOverride
            return prepared

        backend.prepare = prepare
        runs = [RunRequest(cycles=2, override=lambda n, v, c: v)]
        with SimulationPool(counter_spec, backend=backend,
                            max_workers=1) as pool:
            batch = pool.run_batch(runs)
        assert not batch.ok
        assert "supports_override" in str(batch.failures[0].error)


class TestModuleLevelRunBatch:
    def test_run_batch_builds_and_closes_a_pool(self, counter_spec):
        request = BatchRequest.repeat(counter_spec, 4, cycles=10,
                                      backend="compiled")
        batch = run_batch(request, max_workers=2)
        assert batch.ok
        assert batch.backend == "compiled"
        # the default serial strategy runs inline: one worker, whatever
        # max_workers asks for
        assert (batch.executor, batch.pool_size) == ("serial", 1)
        assert batch.prepare_seconds >= 0.0

    def test_per_item_seconds_recorded(self, counter_spec):
        batch = run_batch(BatchRequest.repeat(counter_spec, 2, cycles=50))
        assert all(item.seconds > 0 for item in batch.items)
