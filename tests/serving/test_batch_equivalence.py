"""Batched execution is bit-identical to sequential on every backend.

This is the serving layer's central correctness claim, mirroring the
paper's interpreter-vs-compiler equivalence argument: fanning runs out
over a worker pool must not change a single observable bit — final
component values, full memory contents, and the memory-mapped output
stream all match a sequential run of the same prepared backend.  The
sweep covers every configuration that reorganises execution: worker
processes binding to the lowered program pickled to them at pool
startup, and lane groups running N variants through one walk of the
dependency schedule (inline on the serial strategy, and inside process
workers).
"""

import pytest

from repro.core.simulator import BACKEND_NAMES, make_backend
from repro.machines.library import all_machines, get_machine
from repro.serving import RunRequest, SimulationPool

#: Every (strategy, lane width) that reorganises execution must preserve
#: bit-identity (scalar serial runs share the sequential code path and
#: are covered by the executor tests).
CONFIGS = {"process": ("process", None), "lanes": ("serial", 16)}

#: Bundled machines exercised by the sweep; cycles capped to keep the
#: interpreter rows fast while still covering memories, selectors and I/O.
MACHINE_CYCLES = {
    "counter": 40,
    "fibonacci": 20,
    "gcd": 16,
    "traffic-light": 30,
    "stack-machine-sieve": 1200,
    "tiny-computer": 400,
    "fuzz-rom": 41,
    "fuzz-datapath": 9,
}


def observables(result):
    return (
        result.final_values,
        result.memory_contents,
        [(event.address, event.value) for event in result.outputs],
    )


def test_every_bundled_machine_is_covered():
    assert set(MACHINE_CYCLES) == {entry.name for entry in all_machines()}


@pytest.mark.parametrize("config", sorted(CONFIGS))
@pytest.mark.parametrize("backend_name", BACKEND_NAMES)
@pytest.mark.parametrize("machine_name", sorted(MACHINE_CYCLES))
def test_batched_equals_sequential(machine_name, backend_name, config):
    entry = get_machine(machine_name)
    spec = entry.build()
    cycles = MACHINE_CYCLES[machine_name]
    runs = [RunRequest(cycles=cycles) for _ in range(6)]

    prepared = make_backend(backend_name).prepare(spec)
    sequential = [
        observables(prepared.run(cycles=run.cycles, io=run.make_io()))
        for run in runs
    ]

    executor, lane_width = CONFIGS[config]
    with SimulationPool(spec, backend=backend_name, executor=executor,
                        max_workers=2, lane_width=lane_width) as pool:
        batch = pool.run_batch(runs)

    assert batch.ok, [str(item.error) for item in batch.failures]
    batched = [observables(item.result) for item in batch.items]
    assert batched == sequential


@pytest.mark.parametrize("backend_name", BACKEND_NAMES)
@pytest.mark.parametrize("machine_name", sorted(MACHINE_CYCLES))
def test_lane_groups_equal_sequential(machine_name, backend_name):
    """Lane groups are bit-identical per lane, on every bundled machine.

    ``trace=False`` is explicit so every request is lane-eligible even on
    machines whose ``*`` trace declarations would resolve ``trace=None``
    to tracing on (those would silently fall back to the scalar path and
    this test would prove nothing about lanes).  ``lane_width=4`` with 6
    runs also exercises group splitting: one full-width group plus a
    two-lane remainder.
    """
    entry = get_machine(machine_name)
    spec = entry.build()
    cycles = MACHINE_CYCLES[machine_name]
    runs = [RunRequest(cycles=cycles, trace=False) for _ in range(6)]

    prepared = make_backend(backend_name).prepare(spec)
    sequential = [
        observables(prepared.run(cycles=run.cycles, io=run.make_io()))
        for run in runs
    ]

    with SimulationPool(spec, backend=backend_name, executor="serial",
                        lane_width=4) as pool:
        batch = pool.run_batch(runs)

    assert batch.ok, [str(item.error) for item in batch.failures]
    assert [observables(item.result) for item in batch.items] == sequential


@pytest.mark.parametrize("backend_name", BACKEND_NAMES)
def test_lane_heterogeneous_cycles_group_by_profile(backend_name):
    """Mixed cycle counts form one lane group per profile, results in
    submission order and bit-identical to one-by-one runs."""
    spec = get_machine("counter").build()
    # interleaved profiles: 3 runs at 8 cycles, 3 at 17, 2 at 1
    cycle_counts = (8, 17, 1, 8, 17, 1, 8, 17)
    runs = [RunRequest(cycles=c, trace=False) for c in cycle_counts]

    prepared = make_backend(backend_name).prepare(spec)
    sequential = [
        observables(prepared.run(cycles=run.cycles, io=run.make_io()))
        for run in runs
    ]
    with SimulationPool(spec, backend=backend_name, executor="serial",
                        lane_width=16) as pool:
        batch = pool.run_batch(runs)
    assert batch.ok, [str(item.error) for item in batch.failures]
    assert [observables(item.result) for item in batch.items] == sequential


@pytest.mark.parametrize("backend_name", BACKEND_NAMES)
def test_lane_inside_process_workers_stays_identical(backend_name):
    """``--executor process --lane-width K`` composes: each worker process
    runs its chunk as lane groups, still bit-identical."""
    spec = get_machine("gcd").build()
    runs = [
        RunRequest(cycles=16, inputs=(i, i + 1), trace=False)
        for i in range(8)
    ]

    prepared = make_backend(backend_name).prepare(spec)
    sequential = [
        observables(prepared.run(cycles=run.cycles, io=run.make_io()))
        for run in runs
    ]
    with SimulationPool(spec, backend=backend_name, executor="process",
                        max_workers=2, lane_width=4) as pool:
        batch = pool.run_batch(runs)
    assert batch.ok, [str(item.error) for item in batch.failures]
    assert [observables(item.result) for item in batch.items] == sequential


@pytest.mark.parametrize("backend_name", BACKEND_NAMES)
def test_varied_cycle_counts_stay_identical(backend_name):
    """Heterogeneous batches (different cycles per run) match one-by-one."""
    spec = get_machine("counter").build()
    runs = [RunRequest(cycles=cycles) for cycles in (1, 3, 8, 17, 40)]

    prepared = make_backend(backend_name).prepare(spec)
    sequential = [
        observables(prepared.run(cycles=run.cycles, io=run.make_io()))
        for run in runs
    ]
    with SimulationPool(spec, backend=backend_name, max_workers=3) as pool:
        batched = [observables(item.result) for item in pool.run_batch(runs)]
    assert batched == sequential


@pytest.mark.parametrize("backend_name", BACKEND_NAMES)
def test_input_driven_runs_stay_identical(backend_name):
    """Runs consuming memory-mapped inputs get isolated I/O per run."""
    spec = get_machine("gcd").build()
    runs = [RunRequest(cycles=16, inputs=(i, i + 1)) for i in range(4)]

    prepared = make_backend(backend_name).prepare(spec)
    sequential = [
        observables(prepared.run(cycles=run.cycles, io=run.make_io()))
        for run in runs
    ]
    with SimulationPool(spec, backend=backend_name, max_workers=4) as pool:
        batched = [observables(item.result) for item in pool.run_batch(runs)]
    assert batched == sequential
