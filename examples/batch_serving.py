"""Batch/parallel serving: one prepared machine, many concurrent runs.

This example demonstrates the serving layer (:mod:`repro.serving`) on the
bundled counter machine: a :class:`~repro.serving.pool.SimulationPool`
pays the prepare phase once and runs a batch of variants on that one
prepared machine, and the asyncio front-end drives a pool from async
code without blocking the event loop.
It also shows the serving wins the ``BENCH_batch.json`` benchmark
measures — the pooled batch against the naive prepare-per-request loop,
and the process executor (``executor="process"``) that ships the lowered
program to worker processes once and scales with CPU cores.

Run with:  python examples/batch_serving.py
"""

import asyncio
import time

from repro import BatchRequest, RunRequest, SimulationPool, run_batch
from repro.compiler.threaded import ThreadedBackend
from repro.machines import (
    build_counter_spec,
    build_stack_machine_spec,
    prepare_sieve_workload,
)


def batch_demo() -> None:
    spec = build_counter_spec(width_bits=4)

    # --- a heterogeneous batch: five different cycle counts ----------------------
    runs = [RunRequest(cycles=cycles, tag=f"{cycles} cycles")
            for cycles in (5, 10, 20, 40, 80)]
    with SimulationPool(spec, backend="threaded") as pool:
        batch = pool.run_batch(runs)
    print(batch.summary())
    for item in batch.items:
        print(f"  {item.tag:>10s}: count={item.result.value('count'):2d} "
              f"({item.seconds * 1e3:.2f} ms on its worker)")
    print()


def throughput_demo() -> None:
    # the sieve stack machine has a real preparation phase (~50 components),
    # so many small requests show the serving win clearly
    workload = prepare_sieve_workload(6)
    spec = build_stack_machine_spec(workload.program)
    request = BatchRequest.repeat(spec, 20, cycles=256, backend="threaded",
                                  collect_stats=False)

    # naive serve loop: fresh (uncached) prepare for every request
    start = time.perf_counter()
    for _ in range(len(request)):
        ThreadedBackend(cache=False).run(spec, cycles=256, collect_stats=False)
    naive = len(request) / (time.perf_counter() - start)

    # the serving layer: one warm prepare, every run on it
    batch = run_batch(request)
    print(f"naive prepare-per-request loop: {naive:8.1f} runs/sec")
    print(f"pooled batch (shared artifact): {batch.runs_per_second:8.1f} "
          f"runs/sec")
    print()


def process_pool_demo() -> None:
    # true multi-core serving: the lowered program ships to worker
    # processes once at pool startup; on a multi-core host the CPU-bound
    # batch scales with cores instead of interleaving on the GIL
    workload = prepare_sieve_workload(6)
    spec = build_stack_machine_spec(workload.program)
    runs = [RunRequest(cycles=2048, collect_stats=False) for _ in range(16)]
    with SimulationPool(spec, backend="compiled", executor="process",
                        max_workers=2) as pool:
        batch = pool.run_batch(runs)
    print(f"process pool: {batch.summary()}")
    for worker, rate in sorted(batch.per_worker_runs_per_second.items()):
        print(f"  {worker}: {rate:.1f} runs/sec while busy")
    print()


async def async_demo() -> None:
    from repro import async_run_batch

    spec = build_counter_spec(width_bits=4)
    request = BatchRequest.repeat(spec, 8, cycles=32)
    batch = await async_run_batch(request)
    print(f"async front-end: {batch.summary()}")


if __name__ == "__main__":
    batch_demo()
    throughput_demo()
    process_pool_demo()
    asyncio.run(async_demo())
