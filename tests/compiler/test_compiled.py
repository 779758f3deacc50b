"""Unit tests for the compiled backend (prepare / run / timing split)."""

import pickle
import sys
import threading
import time
from types import SimpleNamespace

import pytest

from repro.compiler import compiled
from repro.compiler.cache import PrepareCache
from repro.compiler.compiled import (
    ENTRY_POINTS,
    CompiledBackend,
    GeneratedModule,
    compile_spec,
)
from repro.compiler.optimizer import CodegenOptions
from repro.core.iosystem import QueueIO
from repro.core.trace import TraceOptions
from repro.errors import MemoryRangeError, SelectorRangeError
from repro.rtl.parser import parse_spec


@pytest.fixture
def backend():
    return CompiledBackend()


class TestPrepare:
    def test_prepare_exposes_source_and_timings(self, backend, counter_spec):
        prepared = backend.prepare(counter_spec)
        assert "def simulate" in prepared.source
        assert prepared.generate_seconds >= 0
        assert prepared.compile_seconds >= 0
        assert prepared.prepare_seconds == pytest.approx(
            prepared.generate_seconds + prepared.compile_seconds
        )

    def test_write_source(self, backend, counter_spec, tmp_path):
        prepared = backend.prepare(counter_spec)
        path = prepared.write_source(tmp_path / "simulator.py")
        assert path.read_text() == prepared.source

    def test_compile_spec_helper(self, counter_spec):
        assert compile_spec(counter_spec).spec is counter_spec

    @pytest.mark.parametrize("shipped", [False, True])
    def test_sections_keep_the_module_text_and_its_line_numbers(
        self, backend, counter_spec, shipped
    ):
        # the module byte-compiles one section at a time: the source is
        # still the generator's one module, and a traceback through any
        # entry point names that module's own lines
        import pickle
        import traceback

        from repro.compiler.codegen_python import generate_program_python

        prepared = CompiledBackend(cache=False).prepare(counter_spec)
        assert prepared.source == generate_program_python(
            prepared.program, backend.options)
        if shipped:
            prepared = pickle.loads(pickle.dumps(prepared))
        called = []

        def broken(name, value, cycle):
            called.append(name)
            raise ValueError(name)

        with pytest.raises(ValueError) as excinfo:
            prepared.run(cycles=1, override=broken)
        [frame] = [
            frame for frame in traceback.extract_tb(excinfo.tb)
            if frame.filename.startswith("<asim2 generated")
        ]
        assert frame.name == "simulate_instrumented"
        line = prepared.source.splitlines()[frame.lineno - 1]
        assert f"ov({called[0]!r}" in line, line


class TestRun:
    def test_counter_behaviour(self, backend, counter_spec):
        result = backend.run(counter_spec, cycles=10)
        assert result.backend == "compiled"
        assert result.value("count") == 2
        assert result.output_integers() == [0, 1, 2, 3, 4, 5, 6, 7, 0, 1]
        assert result.memory("count") == [2]

    def test_run_reuses_prepared_simulation(self, backend, counter_spec):
        prepared = backend.prepare(counter_spec)
        first = prepared.run(cycles=6)
        second = prepared.run(cycles=6)
        assert first.final_values == second.final_values

    def test_trace_collection(self, backend, counter_spec):
        result = backend.run(counter_spec, cycles=5, trace=True)
        assert result.trace.values_of("count") == [0, 1, 2, 3, 4]

    def test_trace_disabled(self, backend, counter_spec):
        result = backend.run(counter_spec, cycles=5, trace=False)
        assert len(result.trace) == 0

    def test_stats(self, backend, counter_spec):
        result = backend.run(counter_spec, cycles=9)
        assert result.stats.cycles == 9
        assert result.stats.component_evaluations == 9 * 4

    def test_inputs(self, backend):
        spec = parse_spec("# io\nacc inport .\nA acc 4 inport 0\nM inport 1 0 2 2\n.")
        result = backend.run(spec, cycles=3, io=QueueIO([10, 20, 30]))
        assert result.value("inport") == 30

    def test_override_hook_runs_per_component(self, backend, counter_spec):
        seen = set()

        def override(name, value, cycle):
            seen.add(name)
            return value

        backend.run(counter_spec, cycles=2, override=override)
        assert seen == {"next", "wrapped", "count", "outport"}

    def test_override_matches_interpreter_exactly(self, counter_spec):
        from repro.interp.interpreter import InterpreterBackend

        def stuck_bit(name, value, cycle):
            return value | 4 if name == "next" else value

        reference = InterpreterBackend().run(
            counter_spec, cycles=12, override=stuck_bit
        )
        candidate = CompiledBackend(cache=False).run(
            counter_spec, cycles=12, override=stuck_bit
        )
        assert candidate.final_values == reference.final_values
        assert candidate.memory_contents == reference.memory_contents
        assert candidate.output_integers() == reference.output_integers()
        assert candidate.stats == reference.stats

    def test_override_run_reads_the_constant_case_table(self):
        # 'sel' (constant select, constant cases) is a module-level table
        # in the generated code; an override run reads it like the fast
        # path and still sees — and may fault — 'sel' every cycle
        from repro.compiler.threaded import ThreadedBackend
        from repro.core.comparison import compare_results

        spec = parse_spec(
            "# folded table\nacc k sel .\nS sel 1 3 5 7\n"
            "A k 4 acc sel\nM acc 0 k 1 1\n.\n"
        )

        def identity(name, value, cycle):
            return value

        reference = ThreadedBackend(cache=False).run(
            spec, cycles=5, override=identity)
        prepared = CompiledBackend(cache=False).prepare(spec)
        candidate = prepared.run(cycles=5, override=identity)
        assert "_SEL_sel = (3, 5, 7)" in prepared.source
        assert compare_results(reference, candidate, compare_trace=True,
                               compare_stats=True) == []
        assert candidate.value("acc") == 25
        assert candidate.stats.selector_case_usage["sel"] == {1: 5}

    def test_override_hook_exceptions_propagate_unwrapped(
        self, backend, counter_spec
    ):
        # parity with the interpreter/threaded backends: a bug in the
        # user's hook surfaces as-is, not as a CompilationError
        def broken(name, value, cycle):
            return {}[name]

        with pytest.raises(KeyError):
            backend.run(counter_spec, cycles=1, override=broken)

    def test_capability_flags(self, backend, counter_spec):
        assert backend.supports_override
        assert backend.supports_full_stats
        prepared = backend.prepare(counter_spec)
        assert prepared.supports_override
        assert prepared.supports_full_stats

    def test_full_stats_breakdown(self, backend, counter_spec):
        result = backend.run(counter_spec, cycles=4)
        assert result.stats.alu_function_usage[4] == 4   # add
        assert result.stats.alu_function_usage[8] == 4   # and
        assert result.stats.memory("count").writes == 4
        assert result.stats.memory("outport").outputs == 4

    def test_trace_options_passed(self, backend, counter_spec):
        result = backend.run(
            counter_spec,
            cycles=4,
            trace=TraceOptions(trace_cycles=True, trace_memory_accesses=False),
        )
        assert len(result.trace.cycles) == 4


class TestRuntimeErrors:
    def test_selector_out_of_range(self, backend):
        spec = parse_spec(
            "# bad\ns r .\nS s r 1 2\nM r 0 5 1 1\n.",
        )
        with pytest.raises(SelectorRangeError):
            backend.run(spec, cycles=3)

    def test_memory_address_out_of_range(self, backend):
        spec = parse_spec(
            "# bad\nm r .\nM m r 0 0 4\nM r 0 9 1 1\n.",
        )
        with pytest.raises(MemoryRangeError):
            backend.run(spec, cycles=3)


class TestOptimizationEquivalence:
    @pytest.mark.parametrize(
        "options",
        [
            CodegenOptions(),
            CodegenOptions.unoptimized(),
            CodegenOptions(fold_constant_selectors=False),
            CodegenOptions(emit_bounds_checks=False),
        ],
    )
    def test_all_option_sets_agree_on_sieve(self, options):
        from repro.machines import build_stack_machine_spec, prepare_sieve_workload

        workload = prepare_sieve_workload(5)
        spec = build_stack_machine_spec(workload.program)
        backend = CompiledBackend(options)
        result = backend.run(spec, cycles=workload.cycles_needed)
        assert result.output_integers() == workload.outputs


def pin_wrapped(name, value, cycle):
    return 0 if name == "wrapped" else value


class TestPickling:
    """A prepared simulation pickles: its generated source travels, and
    unpickling only byte-compiles its prologue — how a process-pool worker
    started with ``spawn`` receives the pool's warm simulation."""

    def test_round_trip_only_byte_compiles(self, counter_spec, monkeypatch):
        from repro.core.comparison import compare_results

        warm = CompiledBackend(cache=False).prepare(counter_spec)
        payload = pickle.dumps(warm)

        def refuse(*args, **kwargs):
            raise AssertionError("unpickling must not lower or generate code")

        monkeypatch.setattr(compiled, "generate_program_python", refuse)
        monkeypatch.setattr(compiled, "lower_cached", refuse)
        shipped = pickle.loads(payload)
        assert shipped.source == warm.source
        for options in ({}, {"collect_stats": False, "trace": False},
                        {"override": pin_wrapped}):
            assert compare_results(
                warm.run(cycles=12, **options),
                shipped.run(cycles=12, **options),
                compare_trace=True, compare_stats=True,
            ) == []
        lanes = [
            (warm_lane.result, shipped_lane.result)
            for warm_lane, shipped_lane in zip(
                warm.run_lanes(cycles=12, ios=[QueueIO(), QueueIO()],
                               collect_stats=False),
                shipped.run_lanes(cycles=12, ios=[QueueIO(), QueueIO()],
                                  collect_stats=False),
            )
        ]
        assert len(lanes) == 2
        for reference, candidate in lanes:
            assert compare_results(reference, candidate) == []


@pytest.fixture
def loads(monkeypatch):
    """The entry points byte-compiled from here on, in order."""
    loaded = []
    real = GeneratedModule.load

    def spy(self, entry):
        loaded.append(entry)
        return real(self, entry)

    monkeypatch.setattr(GeneratedModule, "load", spy)
    return loaded


def bound(prepared) -> set[str]:
    """The entry points *prepared* has bound as plain attributes."""
    return {entry for entry in ENTRY_POINTS if "_" + entry in vars(prepared)}


class TestFirstUse:
    """``prepare`` byte-compiles the module's prologue only; each entry
    point compiles on the first call that needs it, once per program."""

    def test_fresh_prepare_loads_no_entry_point(self, counter_spec, loads):
        prepared = CompiledBackend(cache=False).prepare(counter_spec)
        assert loads == []
        assert bound(prepared) == set()

    @pytest.mark.parametrize("options, entry", [
        ({}, "simulate_instrumented"),
        ({"collect_stats": False, "trace": False}, "simulate"),
        ({"override": lambda name, value, cycle: value},
         "simulate_instrumented"),
    ], ids=["default", "fast", "override"])
    def test_a_run_loads_exactly_its_entry_point(self, counter_spec, loads,
                                                 options, entry):
        prepared = CompiledBackend(cache=False).prepare(counter_spec)
        prepared.run(cycles=6, **options)
        prepared.run(cycles=6, **options)
        assert loads == [entry]
        assert bound(prepared) == {entry}

    def test_a_stats_off_lane_group_loads_exactly_the_lane_kernel(
        self, counter_spec, loads
    ):
        prepared = CompiledBackend(cache=False).prepare(counter_spec)
        for _ in range(2):
            prepared.run_lanes(cycles=6, ios=[QueueIO(), QueueIO()],
                               collect_stats=False)
        assert loads == ["simulate_lanes"]
        assert bound(prepared) == {"simulate_lanes"}

    def test_a_cache_hit_reuses_loaded_entries_and_reports_no_time(
        self, counter_spec, loads
    ):
        cache = PrepareCache()
        first = CompiledBackend(cache=cache).prepare(counter_spec)
        first.run(cycles=6)
        second = CompiledBackend(cache=cache).prepare(counter_spec)
        result = second.run(cycles=6)
        assert second.cache_hit
        assert loads == ["simulate_instrumented"]
        assert (second._simulate_instrumented
                is first._simulate_instrumented)
        assert second.generate_seconds == 0.0
        assert second.compile_seconds == 0.0
        assert second.prepare_seconds == 0.0
        assert result.prepare_seconds == 0.0

    def test_a_pickle_round_trip_loads_none_until_its_first_run(
        self, counter_spec, loads
    ):
        warm = CompiledBackend(cache=False).prepare(counter_spec)
        warm.run(cycles=6)
        del loads[:]
        shipped = pickle.loads(pickle.dumps(warm))
        assert loads == []
        assert bound(shipped) == set()
        shipped.run(cycles=6, collect_stats=False, trace=False)
        assert loads == ["simulate"]

    @pytest.mark.parametrize("path", ["stats", "fast", "lanes"])
    def test_a_first_use_compile_is_preparation_not_run_time(
        self, counter_spec, monkeypatch, path
    ):
        # a clock that stands still except while an entry point loads,
        # which takes 100 s of it: run_seconds must read none of that
        prepared = CompiledBackend(cache=False).prepare(counter_spec)
        compile_seconds = prepared.compile_seconds
        prepare_seconds = prepared.prepare_seconds
        clock = [0.0]
        real = GeneratedModule.load

        def slow_load(self, entry):
            function, _ = real(self, entry)
            clock[0] += 100.0
            return function, 100.0

        monkeypatch.setattr(compiled, "time",
                            SimpleNamespace(perf_counter=lambda: clock[0]))
        monkeypatch.setattr(GeneratedModule, "load", slow_load)
        if path == "lanes":
            [outcome] = prepared.run_lanes(cycles=6, ios=[QueueIO()],
                                           collect_stats=False)
            result = outcome.result
        else:
            result = prepared.run(cycles=6, trace=False,
                                  collect_stats=path == "stats")
        assert result.run_seconds == 0.0
        assert prepared.compile_seconds == compile_seconds + 100.0
        assert prepared.prepare_seconds == prepare_seconds + 100.0
        assert result.prepare_seconds == prepared.prepare_seconds
        assert prepared.generate_seconds + prepared.compile_seconds == (
            pytest.approx(prepared.prepare_seconds))


class TestFirstUseUnderConcurrency:
    """Eight threads make the first calls of one fresh simulation at once,
    across all three entry points: every result is the warm one, and each
    entry point is bound — and accounted — once."""

    PATHS = ("stats", "fast", "lanes")

    @staticmethod
    def _run(prepared, path):
        if path == "lanes":
            return [outcome.result for outcome in prepared.run_lanes(
                cycles=12, ios=[QueueIO(), QueueIO()], collect_stats=False)]
        if path == "stats":
            return [prepared.run(cycles=12, trace=True)]
        return [prepared.run(cycles=12, trace=False, collect_stats=False)]

    def test_eight_threads_first_call_at_once(self, counter_spec,
                                              monkeypatch):
        from repro.core.comparison import compare_results

        warm = CompiledBackend(cache=False).prepare(counter_spec)
        expected = {path: self._run(warm, path) for path in self.PATHS}

        fresh = CompiledBackend(cache=False).prepare(counter_spec)
        compile_seconds = fresh.compile_seconds
        real = GeneratedModule.load

        def slow_load(self, entry):
            function, _ = real(self, entry)
            time.sleep(0.01)  # let the other first callers pile up
            return function, 1.0

        monkeypatch.setattr(GeneratedModule, "load", slow_load)
        start = threading.Barrier(8)
        results: dict[int, tuple[str, list]] = {}
        failures: list[Exception] = []

        def call(index):
            path = self.PATHS[index % len(self.PATHS)]
            try:
                start.wait(timeout=30)
                results[index] = (path, self._run(fresh, path))
            except Exception as exc:  # surfaced by the main thread
                failures.append(exc)

        threads = [threading.Thread(target=call, args=(index,))
                   for index in range(8)]
        # switch threads often, so a lost update of the accounting shows
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)

        assert not any(thread.is_alive() for thread in threads)
        assert failures == []
        assert len(results) == 8
        for path, got in results.values():
            assert len(got) == len(expected[path])
            for reference, candidate in zip(expected[path], got):
                assert compare_results(reference, candidate,
                                       compare_trace=True,
                                       compare_stats=True) == [], path
        # one function per entry point: the one memoized on the program,
        # and one compile's worth of seconds each
        assert bound(fresh) == set(ENTRY_POINTS)
        for entry in ENTRY_POINTS:
            memoized, hit = fresh.program.artifact(
                ("compiled", fresh.options, entry), pytest.fail)
            assert hit
            assert getattr(fresh, "_" + entry) is memoized[0]
        assert fresh.compile_seconds == compile_seconds + 3.0
