"""The one transport to process workers: the pool's warm prepared simulation.

A process pool hands its warm prepared simulation to every worker as the
pool initializer's one argument: a ``fork``ed worker inherits it, a
``spawn`` or ``forkserver`` worker unpickles it.  These tests pin what
that transport guarantees.  Every bundled machine's simulation survives a
pickle round trip on every backend, bit-identical with statistics and
traces, and receiving it neither lowers the specification nor generates
code.  The worker initializer binds exactly what it receives.  A pool
ships its warm simulation and writes no files.  Spawned pools stay
bit-identical for lane groups, for ``override`` runs and for a
third-party simulation class.
"""

import os
import pickle
import tempfile
import time

import pytest

from repro.compiler import compiled
from repro.compiler.compiled import CompiledBackend
from repro.compiler.threaded import ThreadedBackend
from repro.core.backend import Backend, PreparedSimulation
from repro.core.comparison import compare_results
from repro.core.iosystem import QueueIO
from repro.core.simulator import BACKEND_NAMES, make_backend
from repro.core.trace import TraceOptions
from repro.lowering.program import CycleProgram
from repro.machines.library import all_machines, get_machine
from repro.rtl.parser import parse_spec
from repro.serving import RunRequest, SimulationPool, executor
from repro.serving.protocol import ConstantOverride

#: a bundled machine runs its demo length, capped so the interpreter's
#: fully traced runs stay quick
CYCLE_CAP = 600

#: ``sel`` is a constant select over constant cases, so only an
#: ``override`` that pins it can change ``acc``: the spawned worker must
#: honour the hook on a component whose value is otherwise fixed
FOLDED_TABLE_SPEC = (
    "# folded table\nacc k sel .\nS sel 1 3 5 7\n"
    "A k 4 acc sel\nM acc 0 k 1 1\n.\n"
)


def _refuse(*args, **kwargs):
    raise AssertionError("receiving a simulation must not lower or "
                         "generate code")


def _forbid_preparation(monkeypatch) -> None:
    """From here on, lowering a specification or generating code raises."""
    monkeypatch.setattr(CycleProgram, "__init__", _refuse)
    monkeypatch.setattr(compiled, "generate_program_python", _refuse)


def _sequential(prepared, runs):
    return [
        prepared.run(cycles=run.cycles, io=run.make_io(), trace=run.trace,
                     collect_stats=run.collect_stats, override=run.override)
        for run in runs
    ]


def _assert_identical(references, results) -> None:
    assert len(references) == len(results)
    for reference, result in zip(references, results):
        assert compare_results(reference, result, compare_trace=True,
                               compare_stats=True) == []


def _ran_in_workers(batch) -> bool:
    return all(item.worker.startswith("pid-")
               and item.worker != f"pid-{os.getpid()}"
               for item in batch.items)


class WrappedSimulation(PreparedSimulation):
    """A third-party prepared simulation: it wraps a built-in one and has
    no ``program``, so lane groups fall back to one scalar run per lane."""

    def __init__(self, inner: PreparedSimulation) -> None:
        super().__init__(inner.spec, backend_name=inner.backend_name,
                         prepare_seconds=inner.prepare_seconds)
        self.inner = inner

    def run(self, cycles=None, io=None, trace=None, collect_stats=True,
            override=None):
        return self.inner.run(cycles=cycles, io=io, trace=trace,
                              collect_stats=collect_stats, override=override)


class WrappingBackend(Backend):
    name = "wrapping"

    def prepare(self, spec):
        return WrappedSimulation(CompiledBackend(cache=False).prepare(spec))


class TestRoundTrip:
    """Every bundled machine's warm simulation, on every backend, comes
    out of a pickle round trip bit-identical on every entry point."""

    @pytest.mark.parametrize("backend_name", BACKEND_NAMES)
    @pytest.mark.parametrize(
        "machine_name", [entry.name for entry in all_machines()]
    )
    def test_bundled_machine_round_trips(self, machine_name, backend_name,
                                         monkeypatch):
        entry = get_machine(machine_name)
        cycles = min(entry.demo_cycles, CYCLE_CAP)
        warm = make_backend(backend_name).prepare(entry.build())
        payload = pickle.dumps(warm)

        _forbid_preparation(monkeypatch)
        shipped = pickle.loads(payload)
        assert type(shipped) is type(warm)
        assert shipped.backend_name == warm.backend_name
        assert shipped.prepare_seconds == warm.prepare_seconds
        for options in ({"trace": TraceOptions.full()},
                        {"trace": False, "collect_stats": False}):
            assert compare_results(
                warm.run(cycles=cycles, **options),
                shipped.run(cycles=cycles, **options),
                compare_trace=True, compare_stats=True,
            ) == [], options
        lanes = [
            simulation.run_lanes(cycles=cycles, collect_stats=False,
                                 ios=[QueueIO(strict=False) for _ in range(3)])
            for simulation in (warm, shipped)
        ]
        for reference, candidate in zip(*lanes, strict=True):
            assert (reference.error is None) == (candidate.error is None)
            if reference.error is None:
                assert compare_results(reference.result,
                                       candidate.result) == []

    def test_program_travels_without_its_artifact_memo(self):
        # the generated module and closure plans memoized on the program
        # are rebuilt from what travels, never pickled themselves
        warm = ThreadedBackend(cache=False).prepare(
            get_machine("gcd").build()
        )
        warm.run(cycles=4)
        assert warm.program._artifacts
        shipped = pickle.loads(pickle.dumps(warm))
        assert shipped.program._artifacts == {}
        assert compare_results(warm.run(cycles=16), shipped.run(cycles=16),
                               compare_stats=True) == []
        assert shipped.program._artifacts


class TestWorkerBootstrap:
    """The pool initializer, exercised in-process for observability: it
    binds the simulation it receives and runs chunks on it unchanged."""

    RUNS = [
        RunRequest(cycles=9),
        RunRequest(cycles=16, trace=False, collect_stats=False),
        RunRequest(cycles=5, override=ConstantOverride((("wrapped", 0),))),
    ]

    @pytest.fixture(autouse=True)
    def _fresh_worker_slot(self, monkeypatch):
        monkeypatch.setattr(executor, "_WORKER_PREPARED", None)

    @pytest.mark.parametrize("backend_name", BACKEND_NAMES)
    def test_initializer_binds_what_it_receives(self, counter_spec,
                                                backend_name, monkeypatch):
        warm = make_backend(backend_name).prepare(counter_spec)
        references = _sequential(warm, self.RUNS)
        payload = pickle.dumps(warm)

        _forbid_preparation(monkeypatch)
        shipped = pickle.loads(payload)
        executor._initialize_worker(shipped)
        assert executor._WORKER_PREPARED is shipped
        outcomes = executor._run_chunk_in_worker(self.RUNS, time.monotonic())
        assert [outcome.error for outcome in outcomes] == [None] * 3
        assert {outcome.worker for outcome in outcomes} == {
            f"pid-{os.getpid()}"
        }
        _assert_identical(references, [outcome.result for outcome in outcomes])
        assert {outcome.result.prepare_seconds for outcome in outcomes} == {
            warm.prepare_seconds
        }

    @pytest.mark.parametrize("backend_name", BACKEND_NAMES)
    def test_initializer_runs_lane_groups(self, counter_spec, backend_name,
                                          monkeypatch):
        runs = [RunRequest(cycles=11, trace=False, collect_stats=stats)
                for stats in (False, False, True, True)]
        warm = make_backend(backend_name).prepare(counter_spec)
        references = _sequential(warm, runs)
        payload = pickle.dumps(warm)

        _forbid_preparation(monkeypatch)
        executor._initialize_worker(pickle.loads(payload))
        outcomes = executor._run_chunk_in_worker(runs, time.monotonic(),
                                                 lane_width=2)
        assert [outcome.error for outcome in outcomes] == [None] * 4
        assert all("lane_group" in {span.name for span in outcome.spans}
                   for outcome in outcomes)
        _assert_identical(references, [outcome.result for outcome in outcomes])


class TestPoolShipsItsWarmSimulation:
    @pytest.mark.parametrize("backend_name", BACKEND_NAMES)
    def test_results_report_the_warm_prepare_seconds(self, counter_spec,
                                                     backend_name):
        # workers run the pool's warm simulation itself, so every result
        # reports its prepare time, exactly as a serial pool's results do
        with SimulationPool(counter_spec, backend=backend_name,
                            executor="process", max_workers=2) as pool:
            warm = pool._warm
            batch = pool.run_batch([RunRequest(cycles=10)] * 4)
        assert batch.ok, [str(item.error) for item in batch.failures]
        assert _ran_in_workers(batch)
        assert {item.result.prepare_seconds for item in batch.items} == {
            warm.prepare_seconds
        }

    @pytest.mark.parametrize("backend_name", BACKEND_NAMES)
    def test_building_a_process_pool_writes_no_files(self, counter_spec,
                                                     backend_name, tmp_path,
                                                     monkeypatch):
        scratch = tmp_path / "tmp"
        scratch.mkdir()
        monkeypatch.setattr(tempfile, "tempdir", str(scratch))
        monkeypatch.setenv("TMPDIR", str(scratch))
        # the variable that used to name a persistent cache is inert
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        with SimulationPool(counter_spec, backend=backend_name,
                            executor="process", max_workers=2) as pool:
            batch = pool.run_batch([RunRequest(cycles=10)] * 4)
        assert batch.ok, [str(item.error) for item in batch.failures]
        assert list(scratch.iterdir()) == []
        assert not (tmp_path / "cache").exists()


class TestSpawnedPools:
    """``spawn`` is the start method that really pickles the initializer
    argument, so each of these pools runs unpickled simulations."""

    @pytest.mark.parametrize("backend_name", BACKEND_NAMES)
    def test_lane_groups_are_bit_identical(self, backend_name):
        spec = get_machine("gcd").build()
        runs = [
            RunRequest(cycles=16, inputs=(i, i + 1), trace=False,
                       collect_stats=i < 4)
            for i in range(8)
        ]
        references = _sequential(make_backend(backend_name).prepare(spec),
                                 runs)
        with SimulationPool(spec, backend=backend_name, executor="process",
                            max_workers=2, chunk_size=4, lane_width=4,
                            mp_context="spawn") as pool:
            batch = pool.run_batch(runs)
        assert batch.ok, [str(item.error) for item in batch.failures]
        assert all("lane_group" in {span.name for span in item.spans}
                   for item in batch.items)
        _assert_identical(references, [item.result for item in batch.items])

    @pytest.mark.parametrize("backend_class",
                             [CompiledBackend, ThreadedBackend])
    def test_override_runs_are_bit_identical(self, backend_class):
        spec = parse_spec(FOLDED_TABLE_SPEC)
        backend = backend_class(cache=False)
        warm = backend.prepare(spec)
        runs = [
            RunRequest(cycles=5, override=ConstantOverride((("sel", 3),))),
            RunRequest(cycles=5),
            RunRequest(cycles=5, trace=False, collect_stats=False),
        ]
        references = _sequential(warm, runs)
        with SimulationPool(spec, backend=backend, executor="process",
                            max_workers=1, mp_context="spawn") as pool:
            batch = pool.run_batch(runs)
        assert batch.ok, [str(item.error) for item in batch.failures]
        _assert_identical(references, [item.result for item in batch.items])
        # the pinned selector really steered the run
        assert references[0].value("acc") != references[1].value("acc")

    def test_third_party_simulation_class_ships(self, counter_spec):
        runs = [RunRequest(cycles=cycles, trace=False)
                for cycles in (3, 3, 8, 8)]
        references = _sequential(WrappingBackend().prepare(counter_spec),
                                 runs)
        with SimulationPool(counter_spec, backend=WrappingBackend(),
                            executor="process", max_workers=1, lane_width=2,
                            mp_context="spawn") as pool:
            batch = pool.run_batch(runs)
        assert batch.ok, [str(item.error) for item in batch.failures]
        assert _ran_in_workers(batch)
        assert all("lane_group" in {span.name for span in item.spans}
                   for item in batch.items)
        _assert_identical(references, [item.result for item in batch.items])
