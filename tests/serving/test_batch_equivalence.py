"""Batched execution is bit-identical to sequential on every backend.

This is the serving layer's central correctness claim, mirroring the
paper's interpreter-vs-compiler equivalence argument: fanning runs out
over a worker pool must not change a single observable bit — final
component values, full memory contents, the memory-mapped output stream
and the statistics all match a sequential run of the same prepared
backend.  The
sweep covers every configuration that reorganises execution: worker
processes running the pool's warm prepared simulation shipped to them at
pool startup, and lane groups (inline on the serial strategy, and inside
process workers): on compiled, stats-off groups run N variants through
one walk of the dependency schedule; every other group runs each lane as
its scalar run.  A lane whose run raises, an I/O error included, fails
that item alone.
"""

from functools import partial

import pytest

from repro.core.comparison import compare_results
from repro.core.iosystem import QueueIO
from repro.core.simulator import BACKEND_NAMES, make_backend
from repro.errors import InputExhaustedError, SimulationError
from repro.machines.library import all_machines, get_machine
from repro.rtl.parser import parse_spec
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
        result.stats,
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


def test_compiled_stats_lanes_run_the_compiled_kernel():
    """The generated lane kernel counts no statistics, so stats-on lane
    groups on the compiled backend run each lane on the generated
    ``simulate_instrumented`` kernel: every lane — statistics included —
    is its scalar run."""
    spec = get_machine("gcd").build()
    runs = [
        RunRequest(cycles=16, inputs=(i, i + 1), trace=False)
        for i in range(8)
    ]
    prepared = make_backend("compiled").prepare(spec)
    sequential = [
        prepared.run(cycles=run.cycles, io=run.make_io(), trace=False)
        for run in runs
    ]
    with SimulationPool(spec, backend="compiled", executor="serial",
                        lane_width=4) as pool:
        batch = pool.run_batch(runs)
    assert batch.ok, [str(item.error) for item in batch.failures]
    assert all("lane_group" in {span.name for span in item.spans}
               for item in batch.items)
    for reference, item in zip(sequential, batch.items):
        assert compare_results(reference, item.result,
                               compare_stats=True) == []


#: Reads one input per cycle, so a strict queue of one value runs dry in
#: the second cycle.
IO_SPEC = "# io\ninport .\nM inport 1 0 2 2\n.\n"

#: Three lanes with picklable strict I/O; only the middle one runs dry.
IO_FACTORIES = tuple(
    partial(QueueIO, inputs) for inputs in ([1, 2, 3], [1], [4, 5, 6])
)


def _lane_observables(result, error):
    if error is not None:
        return (type(error), error.cycle, str(error))
    return observables(result)


def _scalar_io_runs(prepared, collect_stats):
    expected = []
    for factory in IO_FACTORIES:
        try:
            result = prepared.run(cycles=3, io=factory(), trace=False,
                                  collect_stats=collect_stats)
        except SimulationError as exc:
            expected.append(_lane_observables(None, exc))
        else:
            expected.append(_lane_observables(result, None))
    # the middle lane's queue runs dry; its neighbours' never do
    assert [entry[0] is InputExhaustedError for entry in expected] == [
        False, True, False,
    ]
    return expected


@pytest.mark.parametrize("collect_stats", [False, True])
@pytest.mark.parametrize("backend_name", BACKEND_NAMES)
def test_lane_io_error_fails_only_its_lane(backend_name, collect_stats):
    """An I/O error in one lane is that lane's scalar error; its
    neighbours complete as their scalar runs."""
    prepared = make_backend(backend_name).prepare(parse_spec(IO_SPEC))
    expected = _scalar_io_runs(prepared, collect_stats)
    outcomes = prepared.run_lanes(
        cycles=3, ios=[factory() for factory in IO_FACTORIES],
        collect_stats=collect_stats,
    )
    assert [_lane_observables(outcome.result, outcome.error)
            for outcome in outcomes] == expected


@pytest.mark.parametrize("executor", ["serial", "process"])
@pytest.mark.parametrize("collect_stats", [False, True])
@pytest.mark.parametrize("backend_name", BACKEND_NAMES)
def test_pooled_lane_io_error_fails_only_its_item(backend_name,
                                                  collect_stats, executor):
    """The same through a pool: ``chunk_size=3`` puts the three requests
    in one chunk, so they form one lane group on either strategy."""
    spec = parse_spec(IO_SPEC)
    expected = _scalar_io_runs(make_backend(backend_name).prepare(spec),
                               collect_stats)
    runs = [
        RunRequest(cycles=3, trace=False, collect_stats=collect_stats,
                   io_factory=factory)
        for factory in IO_FACTORIES
    ]
    with SimulationPool(spec, backend=backend_name, executor=executor,
                        max_workers=1, lane_width=4, chunk_size=3) as pool:
        batch = pool.run_batch(runs)
    assert all("lane_group" in {span.name for span in item.spans}
               for item in batch.items)
    assert [_lane_observables(item.result, item.error)
            for item in batch.items] == expected


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
