"""Unit tests for the shared lowering pipeline (CycleProgram IR)."""

import pickle

import pytest

from repro.compiler.cache import PrepareCache
from repro.core.iosystem import QueueIO
from repro.interp.closures import RunContext, ThreadedProgram
from repro.interp.interpreter import InterpreterBackend
from repro.lowering import lower, lower_cached
from repro.lowering.program import AluStep, MemoryStep, SelectorStep
from repro.rtl.parser import parse_spec

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


class TestLowerPlain:
    def test_slots_cover_every_component(self, counter_spec):
        program = lower(counter_spec)
        assert set(program.slots) == {"next", "wrapped", "count", "outport"}
        assert program.value_count == 4 + 3 * 2  # components + latch scratch

    def test_schedule_keeps_every_component(self):
        # one schedule per specification: constant and duplicate
        # components are evaluated (and counted) like any other
        program = lower(parse_spec(CONSTANT_HEAVY))
        assert sorted(c.name for c in program.ordered) == [
            "base", "result", "scaled", "twin",
        ]
        assert program.evaluations_per_cycle == 5

    def test_steps_mirror_schedule(self, counter_spec):
        program = lower(counter_spec)
        assert len(program.steps) == len(program.ordered)
        assert all(
            isinstance(step, (AluStep, SelectorStep))
            for step in program.steps
        )
        assert all(
            isinstance(step, MemoryStep)
            for step in program.memory_steps
        )
        assert program.evaluations_per_cycle == 4

    def test_artifact_memo_returns_hit_flag(self, counter_spec):
        program = lower(counter_spec)
        first, hit1 = program.artifact(("k",), lambda: object())
        second, hit2 = program.artifact(("k",), lambda: object())
        assert first is second
        assert (hit1, hit2) == (False, True)


class TestPicklability:
    """The ISSUE's headline property: one picklable lowered program."""

    def test_round_trip_runs_identically(self):
        spec = parse_spec(CONSTANT_HEAVY)
        program = lower(spec)
        program.artifact(("threaded",), lambda: ThreadedProgram(program))
        clone = pickle.loads(pickle.dumps(program))
        # the artifact memo (closures, unpicklable) is dropped, the IR kept
        assert clone.slots == program.slots
        _, hit = clone.artifact(("threaded",),
                                lambda: ThreadedProgram(clone))
        assert not hit  # re-derived, not smuggled through the pickle

        plans = ThreadedProgram(clone)
        ctx = RunContext(
            values=clone.initial_values(),
            memory_arrays=clone.initial_memory_arrays(),
            cycle_box=[0],
            io=QueueIO(),
        )
        ops = plans.bind(ctx)
        for cycle in range(8):
            ctx.cycle_box[0] = cycle
            for op in ops:
                op()
        final = clone.visible_values(ctx.values)
        reference = InterpreterBackend().run(spec, cycles=8)
        assert final == reference.final_values

    def test_round_trip_preserves_every_ir_field(self):
        """The process-pool guarantee: a pickled program is the program.

        Every field a backend consumes — slot layout, schedule and step
        lists — survives the trip bit-for-bit (steps are frozen
        dataclasses, compared by value).
        """
        spec = parse_spec(CONSTANT_HEAVY)
        program = lower(spec)
        clone = pickle.loads(pickle.dumps(program))
        assert clone.slots == program.slots
        assert clone.latch_base == program.latch_base
        assert clone.value_count == program.value_count
        assert clone.steps == program.steps
        assert clone.memory_steps == program.memory_steps
        assert [c.name for c in clone.ordered] == [
            c.name for c in program.ordered
        ]

    def test_round_trip_is_bit_identical_on_every_backend(self, counter_spec):
        """A shipped program must drive all three backends to the same
        observables as the original — the process executor's core claim."""
        from repro.compiler.compiled import CompiledBackend
        from repro.compiler.threaded import ThreadedBackend
        from repro.interp.interpreter import InterpreterSimulation

        cache = PrepareCache()
        warm = ThreadedBackend(cache=cache).prepare(counter_spec)
        shipped = pickle.loads(pickle.dumps(warm.program))

        # interpreter: bind the shipped program directly
        direct = InterpreterSimulation(counter_spec, shipped, 0.0)
        reference = InterpreterBackend().run(counter_spec, cycles=12)
        assert direct.run(cycles=12).final_values == reference.final_values

        # threaded/compiled: seed a fresh cache with the shipped program
        worker_cache = PrepareCache()
        key = worker_cache.key_for("lowered", counter_spec)
        worker_cache.get_or_create(key, lambda: shipped)
        threaded = ThreadedBackend(cache=worker_cache).prepare(counter_spec)
        assert threaded.program is shipped
        compiled = CompiledBackend(cache=worker_cache).prepare(counter_spec)
        assert compiled.program is shipped
        expected = warm.run(cycles=12).final_values
        assert threaded.run(cycles=12).final_values == expected
        assert compiled.run(cycles=12).final_values == expected


class TestLowerCached:
    def test_cache_stores_the_program_itself(self, counter_spec):
        cache = PrepareCache(max_entries=4)
        first, hit1 = lower_cached(counter_spec, cache)
        second, hit2 = lower_cached(counter_spec, cache)
        assert (hit1, hit2) == (False, True)
        assert second is first

    def test_backends_share_one_cached_program(self, counter_spec):
        from repro.compiler.compiled import CompiledBackend
        from repro.compiler.threaded import ThreadedBackend

        cache = PrepareCache(max_entries=4)
        threaded = ThreadedBackend(cache=cache).prepare(counter_spec)
        compiled = CompiledBackend(cache=cache).prepare(counter_spec)
        assert compiled.program is threaded.program
        assert len(cache) == 1


class TestForwardingSelector:
    #: 'fwd' has a constant select whose case is a bare reference: it
    #: forwards 'src' every cycle, and is evaluated like any selector
    COPY_SPEC = """\
# forwarding selector
src fwd user r .
A src 4 r 1
S fwd 1 33 src 44
A user 4 fwd 2
M r 0 user 1 1
.
"""

    def test_trace_of_forwarding_selector_matches_interpreter(self):
        from repro.compiler.threaded import ThreadedBackend
        from repro.core.trace import TraceOptions

        spec = parse_spec(self.COPY_SPEC)
        options = TraceOptions(trace_cycles=True, names=("fwd", "user"))
        reference = InterpreterBackend().run(spec, cycles=6, trace=options)
        candidate = ThreadedBackend(cache=False).run(
            spec, cycles=6, trace=options
        )
        assert [t.values for t in candidate.trace.cycles] == [
            t.values for t in reference.trace.cycles
        ]
        assert candidate.stats == reference.stats
