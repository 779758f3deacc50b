"""Unit tests for the compiled backend (prepare / run / timing split)."""

import pytest

from repro.compiler.compiled import CompiledBackend, compile_spec
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
        for specopt in (False, True):
            candidate = CompiledBackend(specopt=specopt, cache=False).run(
                counter_spec, cycles=12, override=stuck_bit
            )
            assert candidate.final_values == reference.final_values
            assert candidate.memory_contents == reference.memory_contents
            assert candidate.output_integers() == reference.output_integers()
            assert candidate.stats == reference.stats

    def test_full_kernel_has_tables_of_selectors_specopt_removed(self):
        # specopt folds 'sel' (constant select, constant cases) away, but
        # an override run executes simulate_full over the original
        # schedule, whose 'sel' reads its constant-case table
        from repro.compiler.threaded import ThreadedBackend
        from repro.core.comparison import compare_results

        spec = parse_spec(
            "# folded table\nacc k sel .\nS sel 1 3 5 7\n"
            "A k 4 acc sel\nM acc 0 k 1 1\n.\n"
        )

        def identity(name, value, cycle):
            return value

        reference = ThreadedBackend(specopt=True, cache=False).run(
            spec, cycles=5, override=identity)
        candidate = CompiledBackend(specopt=True, cache=False).run(
            spec, cycles=5, override=identity)
        assert compare_results(reference, candidate, compare_trace=True,
                               compare_stats=True) == []
        assert candidate.value("acc") == 25

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
    unpickling only byte-compiles it — how a process-pool worker started
    with ``spawn`` receives the pool's warm simulation."""

    @pytest.mark.parametrize("specopt", [False, True])
    def test_round_trip_only_byte_compiles(self, counter_spec, monkeypatch,
                                           specopt):
        import pickle

        from repro.compiler import compiled
        from repro.core.comparison import compare_results

        warm = CompiledBackend(specopt=specopt, cache=False).prepare(
            counter_spec
        )
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
