"""Unit tests for the threaded-code backend (closures over pre-bound locals)."""

import pytest

from repro.compiler.threaded import ThreadedBackend, thread_spec
from repro.core.iosystem import QueueIO
from repro.core.trace import TraceOptions
from repro.errors import (
    BackendError,
    InvalidAluFunctionError,
    MemoryRangeError,
    SelectorRangeError,
)
from repro.interp.interpreter import InterpreterBackend
from repro.rtl.parser import parse_spec


@pytest.fixture
def backend():
    return ThreadedBackend(cache=False)


class TestPrepare:
    def test_prepare_builds_program(self, backend, counter_spec):
        prepared = backend.prepare(counter_spec)
        assert prepared.backend_name == "threaded"
        assert prepared.prepare_seconds >= 0
        assert prepared.program.value_count >= len(counter_spec.components)

    def test_thread_spec_helper(self, counter_spec):
        assert thread_spec(counter_spec).spec is counter_spec

    def test_prepared_simulation_is_reusable(self, backend, counter_spec):
        prepared = backend.prepare(counter_spec)
        first = prepared.run(cycles=6)
        second = prepared.run(cycles=6)
        assert first.final_values == second.final_values
        assert first.memory_contents == second.memory_contents


class TestRun:
    def test_counter_behaviour(self, backend, counter_spec):
        result = backend.run(counter_spec, cycles=10)
        assert result.backend == "threaded"
        assert result.value("count") == 2
        assert result.output_integers() == [0, 1, 2, 3, 4, 5, 6, 7, 0, 1]
        assert result.memory("count") == [2]

    def test_zero_cycles(self, backend, counter_spec):
        result = backend.run(counter_spec, cycles=0)
        assert result.cycles_run == 0
        assert all(value == 0 for value in result.final_values.values())

    def test_inputs(self, backend):
        spec = parse_spec("# io\nacc inport .\nA acc 4 inport 0\nM inport 1 0 2 2\n.")
        result = backend.run(spec, cycles=3, io=QueueIO([10, 20, 30]))
        assert result.value("inport") == 30

    def test_trace_collection(self, backend, counter_spec):
        result = backend.run(counter_spec, cycles=5, trace=True)
        assert result.trace.values_of("count") == [0, 1, 2, 3, 4]

    def test_trace_limit_respected(self, backend, counter_spec):
        result = backend.run(
            counter_spec,
            cycles=9,
            trace=TraceOptions(trace_cycles=True, limit=3),
        )
        assert len(result.trace.cycles) == 3

    def test_stats(self, backend, counter_spec):
        result = backend.run(counter_spec, cycles=9)
        assert result.stats.cycles == 9
        assert result.stats.component_evaluations == 9 * 4
        assert result.stats.memory("count").writes == 9

    def test_stats_disabled(self, backend, counter_spec):
        result = backend.run(counter_spec, cycles=4, collect_stats=False)
        assert result.stats.cycles == 0


class TestInterpreterOnlyFeatures:
    """The features the compiled backend rejects must work on threaded code."""

    def test_override_hook_runs_per_component(self, backend, counter_spec):
        seen = set()

        def override(name, value, cycle):
            seen.add(name)
            return value

        backend.run(counter_spec, cycles=2, override=override)
        assert seen == {"next", "wrapped", "count", "outport"}

    def test_override_matches_interpreter_exactly(self, counter_spec):
        def stuck_bit(name, value, cycle):
            return value | 4 if name == "next" else value

        reference = InterpreterBackend().run(
            counter_spec, cycles=12, override=stuck_bit
        )
        candidate = ThreadedBackend(cache=False).run(
            counter_spec, cycles=12, override=stuck_bit
        )
        assert candidate.final_values == reference.final_values
        assert candidate.memory_contents == reference.memory_contents
        assert candidate.output_integers() == reference.output_integers()
        assert candidate.stats == reference.stats

    def test_trace_records_raw_override_values(self, counter_spec):
        # state.lookup returns the raw stored value, so an out-of-word
        # override value must appear unmasked in both backends' traces
        def huge(name, value, cycle):
            return 2 ** 40 if name == "count" else value

        reference = InterpreterBackend().run(
            counter_spec, cycles=3, trace=True, override=huge
        )
        candidate = ThreadedBackend(cache=False).run(
            counter_spec, cycles=3, trace=True, override=huge
        )
        assert [t.values for t in candidate.trace.cycles] == [
            t.values for t in reference.trace.cycles
        ]
        assert candidate.trace.values_of("count")[-1] == 2 ** 40

    def test_memory_access_trace_matches_interpreter(self):
        spec = parse_spec(
            "# traced ram\nr addr .\nM r addr 7 13 4\nM addr 0 1 1 1\n."
        )
        reference = InterpreterBackend().run(spec, cycles=4, trace=True)
        candidate = ThreadedBackend(cache=False).run(spec, cycles=4, trace=True)
        key = lambda a: (a.cycle, a.memory, a.kind, a.address, a.value)
        assert list(map(key, candidate.trace.accesses)) == list(
            map(key, reference.trace.accesses)
        )
        assert len(candidate.trace.accesses) > 0


class TestRuntimeErrors:
    def test_selector_out_of_range(self, backend):
        spec = parse_spec("# bad\ns r .\nS s r 1 2\nM r 0 5 1 1\n.")
        with pytest.raises(SelectorRangeError):
            backend.run(spec, cycles=3)

    def test_memory_address_out_of_range(self, backend):
        spec = parse_spec("# bad\nm r .\nM m r 0 0 4\nM r 0 9 1 1\n.")
        with pytest.raises(MemoryRangeError):
            backend.run(spec, cycles=3)

    def test_invalid_alu_function_code(self, backend):
        # the function expression reads a register that reaches 14 (> max 13)
        spec = parse_spec(
            "# bad funct\na inc r .\nA a r 1 1\nA inc 4 r 1\nM r 0 inc 1 1\n.",
            validate=False,
        )
        with pytest.raises(InvalidAluFunctionError):
            backend.run(spec, cycles=20)

    def test_error_carries_cycle_number(self, backend):
        spec = parse_spec("# bad\nm r .\nM m r 0 0 4\nM r 0 9 1 1\n.")
        with pytest.raises(MemoryRangeError) as excinfo:
            backend.run(spec, cycles=5)
        assert excinfo.value.cycle is not None


class TestConstantHeavyMachine:
    CONSTANT_HEAVY = """\
# constants everywhere
base scaled twin result r .
A base 4 10 20
A scaled 7 base 2
A twin 4 r 1
A result 4 r 1
M r 0 result 1 1
.
"""

    def test_specopt_keyword_accepts_only_false(self):
        # the keyword survives for callers that spell out specopt=False;
        # the whole-specification pass pipeline is gone
        spec = parse_spec(self.CONSTANT_HEAVY)
        plain = ThreadedBackend(specopt=False, cache=False).prepare(spec)
        assert len(plain.program.ordered) == 4
        with pytest.raises(BackendError, match="specopt"):
            ThreadedBackend(specopt=True)

    def test_every_component_is_evaluated_like_the_interpreter(self):
        spec = parse_spec(self.CONSTANT_HEAVY)
        reference = InterpreterBackend().run(spec, cycles=8)
        candidate = ThreadedBackend(cache=False).run(spec, cycles=8)
        assert candidate.final_values == reference.final_values
        assert candidate.memory_contents == reference.memory_contents
        assert candidate.stats == reference.stats
        assert candidate.stats.component_evaluations == 8 * 5

    def test_tracing_a_constant_component_matches_interpreter(self):
        spec = parse_spec(self.CONSTANT_HEAVY)
        options = TraceOptions(trace_cycles=True, names=("base", "twin"))
        reference = InterpreterBackend().run(spec, cycles=4, trace=options)
        candidate = ThreadedBackend(cache=False).run(
            spec, cycles=4, trace=options
        )
        assert [t.values for t in candidate.trace.cycles] == [
            t.values for t in reference.trace.cycles
        ]
        assert candidate.trace.values_of("base") == [30, 30, 30, 30]

    def test_tracing_an_unknown_component_fails_like_interpreter(self):
        from repro.errors import UnknownComponentError

        spec = parse_spec(self.CONSTANT_HEAVY)
        options = TraceOptions(trace_cycles=True, names=("nosuch",))
        with pytest.raises(UnknownComponentError):
            InterpreterBackend().run(spec, cycles=2, trace=options)
        with pytest.raises(UnknownComponentError):
            ThreadedBackend(cache=False).run(spec, cycles=2, trace=options)
