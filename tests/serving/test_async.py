"""Tests for the asyncio front-end (async_run / async_run_batch)."""

import asyncio
import threading

import pytest

from repro.errors import ServingError
from repro.rtl.parser import parse_spec
from repro.serving import (
    BatchRequest,
    RunRequest,
    SimulationPool,
    async_run,
    async_run_batch,
)


class TestAsyncRunBatch:
    def test_owns_its_pool_by_default(self, counter_spec):
        request = BatchRequest.repeat(counter_spec, 6, cycles=10)
        batch = asyncio.run(async_run_batch(request, max_workers=3))
        assert batch.ok
        assert (batch.executor, batch.pool_size) == ("serial", 1)
        assert [r.value("count") for r in batch.results] == [2] * 6

    def test_reuses_a_provided_pool(self, counter_spec):
        async def scenario():
            with SimulationPool(counter_spec, max_workers=2) as pool:
                first = await async_run_batch(
                    BatchRequest.repeat(counter_spec, 2, cycles=4), pool=pool
                )
                second = await async_run_batch(
                    BatchRequest.repeat(counter_spec, 2, cycles=4), pool=pool
                )
                assert not pool.closed  # a borrowed pool is not closed
                return first, second

        first, second = asyncio.run(scenario())
        assert first.ok and second.ok

    def test_spec_mismatch_raises(self, counter_spec, counter_spec_text):
        other = parse_spec(counter_spec_text.replace("next 7", "next 3"))

        async def scenario():
            with SimulationPool(counter_spec, max_workers=1) as pool:
                await async_run_batch(
                    BatchRequest.repeat(other, 1, cycles=1), pool=pool
                )

        with pytest.raises(ServingError):
            asyncio.run(scenario())

    def test_per_item_errors_are_captured_not_raised(self, counter_spec):
        request = BatchRequest(
            counter_spec, [RunRequest(cycles=3), RunRequest(cycles=-1)]
        )
        batch = asyncio.run(async_run_batch(request, max_workers=2))
        assert not batch.ok
        assert [item.ok for item in batch.items] == [True, False]

    def test_event_loop_stays_responsive(self, counter_spec):
        """The loop keeps scheduling coroutines while the batch simulates,
        on the default serial strategy too (it runs inline on whichever
        thread calls it): the first run waits for a coroutine that only a
        free event loop can run."""
        loop_ran = threading.Event()
        waits = []

        def wait_for_the_loop(name, value, cycle):
            if not waits:
                waits.append(loop_ran.wait(timeout=10))
            return value

        async def mark_loop_free():
            loop_ran.set()

        async def scenario():
            request = BatchRequest(
                counter_spec,
                [RunRequest(cycles=20, override=wait_for_the_loop)] * 2,
            )
            batch, _ = await asyncio.gather(
                async_run_batch(request, max_workers=2), mark_loop_free()
            )
            return batch

        batch = asyncio.run(scenario())
        assert batch.ok
        assert batch.executor == "serial"
        assert waits == [True]


class TestAsyncRun:
    def test_single_request(self, counter_spec):
        async def scenario():
            with SimulationPool(counter_spec, max_workers=1) as pool:
                return await async_run(pool, RunRequest(cycles=10))

        result = asyncio.run(scenario())
        assert result.value("count") == 2
