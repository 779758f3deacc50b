"""Tests for the execution strategies (serial / process) and the aliases.

The process strategy is the interesting one: the pool's warm prepared
simulation reaches worker processes once at pool startup (inherited on
``fork``, unpickled on ``spawn``), requests travel in chunks, and
per-item error capture must survive the process boundary — including
requests that cannot cross it at all (an unpicklable override).  The
input names ``thread`` and ``lane`` resolve onto the serial strategy.
"""

import threading

import pytest

from repro.compiler.compiled import CompiledBackend
from repro.core.comparison import compare_results
from repro.core.simulator import BACKEND_NAMES, make_backend
from repro.errors import ServingError, SimulationError
from repro.serving import (
    EXECUTOR_NAMES,
    BatchRequest,
    RunRequest,
    SimulationPool,
    run_batch,
)
from repro.serving.executor import DEFAULT_LANE_WIDTH, resolve_executor
from repro.serving.protocol import ConstantOverride


def _observables(result):
    return (
        result.final_values,
        result.memory_contents,
        [(event.address, event.value) for event in result.outputs],
    )


def stuck_wrapped(name, value, cycle):
    """Module-level override (picklable by reference for process workers)."""
    return 0 if name == "wrapped" else value


class CustomCompiledBackend(CompiledBackend):
    """A third-party-style backend (its instances never leave the parent)."""


class UnpicklableSimulationBackend(CompiledBackend):
    """A third-party-style backend whose prepared simulation holds a
    lambda, so it cannot reach a process worker."""

    def prepare(self, spec):
        prepared = super().prepare(spec)
        prepared.callback = lambda: None
        return prepared


class TestStrategyEquivalence:
    @pytest.mark.parametrize("executor", EXECUTOR_NAMES)
    @pytest.mark.parametrize("backend_name", BACKEND_NAMES)
    def test_every_strategy_matches_sequential(self, counter_spec,
                                               backend_name, executor):
        runs = [RunRequest(cycles=cycles) for cycles in (1, 4, 9, 16)]
        prepared = make_backend(backend_name).prepare(counter_spec)
        sequential = [
            _observables(prepared.run(cycles=run.cycles, io=run.make_io()))
            for run in runs
        ]
        with SimulationPool(counter_spec, backend=backend_name,
                            executor=executor, max_workers=2) as pool:
            batch = pool.run_batch(runs)
        assert batch.ok, [str(item.error) for item in batch.failures]
        assert [_observables(item.result) for item in batch.items] == sequential
        assert batch.executor == executor

    def test_unknown_executor_rejected(self, counter_spec):
        with pytest.raises(ServingError, match="unknown executor"):
            SimulationPool(counter_spec, executor="fiber")
        with pytest.raises(ServingError, match="unknown executor"):
            resolve_executor("fiber")

    def test_nonpositive_chunk_size_rejected(self, counter_spec):
        with pytest.raises(ServingError, match="chunk_size"):
            SimulationPool(counter_spec, chunk_size=0)


class TestExecutorAliases:
    @pytest.mark.parametrize("name, width, resolved", [
        ("serial", None, ("serial", None)),
        ("serial", 1, ("serial", None)),
        ("serial", 4, ("serial", 4)),
        ("process", 4, ("process", 4)),
        ("thread", None, ("serial", None)),
        ("thread", 4, ("serial", 4)),
        ("lane", None, ("serial", DEFAULT_LANE_WIDTH)),
        ("lane", 4, ("serial", 4)),
        ("lane", 1, ("serial", None)),
    ])
    def test_resolver_maps_names_onto_strategy_and_width(self, name, width,
                                                         resolved):
        assert resolve_executor(name, width) == resolved

    @pytest.mark.parametrize("alias", ["thread", "lane"])
    def test_alias_pool_runs_and_reports_serial(self, counter_spec, alias):
        with SimulationPool(counter_spec, executor=alias,
                            max_workers=4) as pool:
            batch = pool.run_batch([RunRequest(cycles=4, trace=False)] * 3)
        assert batch.ok
        assert pool.executor_name == batch.executor == "serial"
        assert batch.runs_by_worker == {"serial-0": 3}


class TestSerialStrategy:
    def test_single_worker_in_submission_order(self, counter_spec):
        with SimulationPool(counter_spec, executor="serial",
                            max_workers=5) as pool:
            batch = pool.run_batch([RunRequest(cycles=c) for c in (2, 5, 7)])
        assert batch.ok
        assert pool.max_workers == 1  # serial always runs one worker
        assert batch.runs_by_worker == {"serial-0": 3}
        assert [item.result.cycles_run for item in batch.items] == [2, 5, 7]

    def test_hook_may_submit_reentrantly(self, counter_spec):
        """Serial execution happens outside the submit lock, so a run
        hook that itself submits to the pool must not deadlock."""
        with SimulationPool(counter_spec, executor="serial") as pool:
            nested_cycles = []

            def nested(name, value, cycle):
                if cycle == 0 and name == "next" and not nested_cycles:
                    nested_cycles.append(
                        pool.run(RunRequest(cycles=1)).cycles_run
                    )
                return value

            result = pool.run(RunRequest(cycles=2, override=nested))
        assert result.cycles_run == 2
        assert nested_cycles == [1]

    def test_runs_on_the_calling_thread(self, counter_spec):
        seen = []

        def spy(name, value, cycle):
            seen.append(threading.get_ident())
            return value

        with SimulationPool(counter_spec, executor="serial") as pool:
            pool.run_batch([RunRequest(cycles=1, override=spy)])
        assert set(seen) == {threading.get_ident()}


class TestProcessStrategy:
    def test_workers_are_separate_processes(self, counter_spec):
        import os

        with SimulationPool(counter_spec, backend="compiled",
                            executor="process", max_workers=2,
                            chunk_size=1) as pool:
            batch = pool.run_batch([RunRequest(cycles=5)] * 8)
        assert batch.ok
        workers = set(batch.runs_by_worker)
        assert all(worker.startswith("pid-") for worker in workers)
        assert f"pid-{os.getpid()}" not in workers

    def test_chunk_size_bounds_scheduling(self, counter_spec):
        # one chunk spanning the whole batch: a single worker runs it all
        with SimulationPool(counter_spec, executor="process", max_workers=2,
                            chunk_size=8) as pool:
            batch = pool.run_batch([RunRequest(cycles=3)] * 8)
        assert batch.ok
        assert len(batch.runs_by_worker) == 1

    def test_per_item_error_capture_crosses_processes(self, counter_spec):
        runs = [RunRequest(cycles=5), RunRequest(cycles=-1),
                RunRequest(cycles=7)]
        with SimulationPool(counter_spec, executor="process", max_workers=2,
                            chunk_size=1) as pool:
            batch = pool.run_batch(runs)
        assert [item.ok for item in batch.items] == [True, False, True]
        assert isinstance(batch.failures[0].error, SimulationError)
        assert batch.items[2].result.cycles_run == 7

    def test_picklable_override_runs_in_workers(self, counter_spec):
        runs = [RunRequest(cycles=5, override=stuck_wrapped),
                RunRequest(cycles=5)]
        with SimulationPool(counter_spec, backend="compiled",
                            executor="process", max_workers=2) as pool:
            batch = pool.run_batch(runs)
        assert batch.ok, [str(item.error) for item in batch.failures]
        assert batch.items[0].result.value("count") == 0
        assert batch.items[1].result.value("count") == 5

    def test_unpicklable_request_poisons_only_its_chunk(self, counter_spec):
        runs = [RunRequest(cycles=5, override=lambda n, v, c: v),
                RunRequest(cycles=5)]
        with SimulationPool(counter_spec, executor="process", max_workers=2,
                            chunk_size=1) as pool:
            batch = pool.run_batch(runs)
        assert [item.ok for item in batch.items] == [False, True]
        assert batch.failures[0].worker is None  # never reached a worker

    def test_unpicklable_simulation_rejected_eagerly(self, counter_spec):
        # workers receive the prepared simulation, so that is what must
        # pickle; a lambda on it defeats that, and the pool must say so
        # at construction, before any worker exists
        backend = UnpicklableSimulationBackend(cache=False)
        with pytest.raises(ServingError, match="picklable"):
            SimulationPool(counter_spec, backend=backend, executor="process")

    def test_unpicklable_backend_with_picklable_simulation_serves(
            self, counter_spec):
        # the backend instance itself never crosses the process boundary
        backend = CustomCompiledBackend(cache=False)
        backend.unpicklable = lambda: None
        with SimulationPool(counter_spec, backend=backend,
                            executor="process", max_workers=1) as pool:
            batch = pool.run_batch([RunRequest(cycles=10)])
        assert batch.ok, [str(item.error) for item in batch.failures]
        assert batch.items[0].result.value("count") == 2

    def test_batch_request_form_and_module_level_run_batch(self, counter_spec):
        request = BatchRequest.repeat(counter_spec, 4, cycles=10,
                                      backend="compiled")
        batch = run_batch(request, max_workers=2, executor="process")
        assert batch.ok
        assert batch.executor == "process"
        assert batch.pool_size == 2

    def test_closed_process_pool_rejects_submissions(self, counter_spec):
        pool = SimulationPool(counter_spec, executor="process", max_workers=1)
        pool.close()
        with pytest.raises(ServingError):
            pool.run(RunRequest(cycles=1))

    @pytest.mark.parametrize("backend_name", BACKEND_NAMES)
    def test_spawned_workers_are_bit_identical(self, counter_spec,
                                               backend_name):
        """``spawn`` is the start method that pickles the initializer
        argument: every worker unpickles the pool's warm simulation."""
        pinned = ConstantOverride((("wrapped", 0),))
        runs = [RunRequest(cycles=9), RunRequest(cycles=16, trace=False),
                RunRequest(cycles=12, collect_stats=False),
                RunRequest(cycles=5, override=pinned)]
        prepared = make_backend(backend_name).prepare(counter_spec)
        sequential = [
            prepared.run(cycles=run.cycles, io=run.make_io(),
                         trace=run.trace, collect_stats=run.collect_stats,
                         override=run.override)
            for run in runs
        ]
        with SimulationPool(counter_spec, backend=backend_name,
                            executor="process", max_workers=2,
                            chunk_size=1, mp_context="spawn") as pool:
            batch = pool.run_batch(runs)
        assert batch.ok, [str(item.error) for item in batch.failures]
        for reference, item in zip(sequential, batch.items):
            assert compare_results(reference, item.result, compare_trace=True,
                                   compare_stats=True) == []


class TestPerWorkerAggregates:
    def test_items_carry_worker_and_queue_wait(self, counter_spec):
        with SimulationPool(counter_spec, max_workers=2) as pool:
            batch = pool.run_batch([RunRequest(cycles=5)] * 6)
        assert batch.ok
        assert all(item.worker is not None for item in batch.items)
        assert all(item.queue_seconds >= 0.0 for item in batch.items)

    def test_per_worker_rates_cover_every_labelled_item(self, counter_spec):
        with SimulationPool(counter_spec, max_workers=3) as pool:
            batch = pool.run_batch([RunRequest(cycles=50)] * 9)
        rates = batch.per_worker_runs_per_second
        counts = batch.runs_by_worker
        assert set(rates) == set(counts)
        assert sum(counts.values()) == 9
        assert all(rate > 0.0 for rate in rates.values())

    def test_queue_stats_present_and_ordered(self, counter_spec):
        with SimulationPool(counter_spec, max_workers=1) as pool:
            batch = pool.run_batch([RunRequest(cycles=20)] * 4)
        assert batch.queue_seconds_max >= batch.queue_seconds_mean >= 0.0

    def test_empty_batch_degenerate_aggregates(self):
        from repro.serving import BatchResult

        empty = BatchResult(backend="threaded", pool_size=1)
        assert empty.per_worker_runs_per_second == {}
        assert empty.runs_by_worker == {}
        assert empty.queue_seconds_mean == 0.0
        assert empty.queue_seconds_max == 0.0


class TestAsyncOverStrategies:
    @pytest.mark.parametrize("executor", EXECUTOR_NAMES)
    def test_async_run_batch_on_every_strategy(self, counter_spec, executor):
        import asyncio

        from repro.serving import async_run_batch

        request = BatchRequest.repeat(counter_spec, 4, cycles=10)
        batch = asyncio.run(
            async_run_batch(request, max_workers=2, executor=executor)
        )
        assert batch.ok
        assert batch.executor == executor
