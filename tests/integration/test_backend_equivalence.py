"""Property-based integration tests: all backends always agree.

This is the library-wide invariant behind the paper's claim that ASIM II
"significantly reduces the simulation time over an interpreter while
maintaining the same functionality": for randomly generated specifications
and for every bundled machine, the interpreter, threaded and compiled
backends must produce identical outputs, traces, final values, memory
contents and statistics.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compiler.optimizer import CodegenOptions
from repro.core.comparison import compare_all_backends, compare_backends
from repro.core.trace import TraceOptions
from repro.machines.library import all_machines, get_machine
from repro.rtl import alu_ops
from repro.rtl.builder import SpecBuilder

_FUNCTIONS = [
    alu_ops.FN_ADD,
    alu_ops.FN_SUB,
    alu_ops.FN_AND,
    alu_ops.FN_OR,
    alu_ops.FN_XOR,
    alu_ops.FN_MUL,
    alu_ops.FN_EQ,
    alu_ops.FN_LT,
    alu_ops.FN_NOT,
    alu_ops.FN_SHIFT_LEFT,
]


@st.composite
def random_datapaths(draw):
    """A random acyclic datapath: registers, ALUs, selectors and a RAM."""
    builder = SpecBuilder("random datapath")
    register_count = draw(st.integers(min_value=1, max_value=3))
    alu_count = draw(st.integers(min_value=1, max_value=5))
    registers = [f"r{i}" for i in range(register_count)]
    producers = list(registers)

    alu_names = []
    for index in range(alu_count):
        name = f"a{index}"
        funct = draw(st.sampled_from(_FUNCTIONS))
        left = draw(st.sampled_from(producers))
        right_is_const = draw(st.booleans())
        right = (
            draw(st.integers(min_value=0, max_value=255))
            if right_is_const
            else draw(st.sampled_from(producers))
        )
        builder.alu(name, funct, left, right)
        producers.append(name)
        alu_names.append(name)

    use_selector = draw(st.booleans())
    if use_selector:
        select_source = draw(st.sampled_from(alu_names + registers))
        cases = [draw(st.sampled_from(producers)) for _ in range(4)]
        builder.selector("steer", f"{select_source}.0.1", cases)
        producers.append("steer")

    for index, register in enumerate(registers):
        data = draw(st.sampled_from(producers))
        initial = draw(st.integers(min_value=0, max_value=100))
        builder.register(register, data=data, initial_value=initial, traced=True)

    # a small RAM cycling through addresses, plus a memory-mapped output port
    address_source = draw(st.sampled_from(registers))
    data_source = draw(st.sampled_from(producers))
    builder.memory(
        "ram",
        address=f"{address_source}.0.2",
        data=data_source,
        operation=draw(st.sampled_from([0, 1, 1, 5])),
        size=8,
    )
    builder.memory("outport", address=1, data=data_source, operation=3, size=2)
    return builder.build()


class TestRandomDatapaths:
    @given(random_datapaths(), st.integers(min_value=1, max_value=40))
    @settings(max_examples=60, deadline=None)
    def test_backends_agree(self, spec, cycles):
        comparison = compare_backends(spec, cycles=cycles)
        assert comparison.equivalent, "\n".join(comparison.mismatches)

    @given(random_datapaths(), st.integers(min_value=1, max_value=40))
    @settings(max_examples=40, deadline=None)
    def test_threaded_backend_agrees(self, spec, cycles):
        from repro.compiler.threaded import ThreadedBackend

        # random datapaths routinely draw duplicate and constant ALUs;
        # every backend evaluates (and counts) each one
        comparison = compare_backends(
            spec, cycles=cycles,
            candidate=ThreadedBackend(cache=False), compare_stats=True,
        )
        assert comparison.equivalent, "\n".join(comparison.mismatches)

    @given(random_datapaths())
    @settings(max_examples=20, deadline=None)
    def test_unoptimized_codegen_agrees_with_optimized(self, spec):
        from repro.compiler.compiled import CompiledBackend
        from repro.compiler.optimizer import CodegenOptions

        comparison = compare_backends(
            spec,
            cycles=25,
            reference=CompiledBackend(CodegenOptions.unoptimized()),
            candidate=CompiledBackend(CodegenOptions()),
        )
        assert comparison.equivalent, "\n".join(comparison.mismatches)


class TestBundledMachines:
    """Every machine that ships with the library, on every backend.

    The interpreter is the reference; the threaded and compiled backends,
    at their defaults, must match it bit for bit on final values, memory
    contents, memory-mapped outputs, traces and statistics.
    """

    #: cycle budget per machine: enough to exercise real behaviour while
    #: keeping the matrix (machines x 2 candidates) fast
    CYCLE_BUDGET = 600

    @pytest.mark.parametrize(
        "machine_name", [entry.name for entry in all_machines()]
    )
    def test_all_backends_bit_identical(self, machine_name):
        entry = get_machine(machine_name)
        spec = entry.build()
        cycles = min(entry.demo_cycles, self.CYCLE_BUDGET)
        results = compare_all_backends(spec, cycles=cycles,
                                       compare_stats=True)
        assert set(results) == {"threaded", "compiled"}
        for backend_name, comparison in results.items():
            assert comparison.equivalent, (
                f"{machine_name} [{backend_name}]:\n  "
                + "\n  ".join(comparison.mismatches)
            )
            reference = comparison.reference
            candidate = comparison.candidate
            # spell the bit-identity out explicitly (not just "no mismatch")
            assert candidate.final_values == reference.final_values
            assert candidate.memory_contents == reference.memory_contents
            assert candidate.output_integers() == reference.output_integers()


class TestInstrumentationParity:
    """Override + stats + trace parity across all three backends.

    The instrumentation layer (:mod:`repro.core.instrument`) is implemented
    once and called from every backend at the same points of the cycle, so
    the same injected fault must produce the same result, the same traces
    *and the same statistics* everywhere — no per-backend skips for
    compiled stats or compiled/threaded override.
    """

    CYCLE_BUDGET = 200

    @staticmethod
    def _transient_fault(spec):
        """Flip the low bit of the first combinational component at a few
        fixed cycles — a deterministic single-event upset."""
        victim = spec.combinational()[0].name

        def fault(name, value, cycle):
            if name == victim and cycle in (3, 11, 42):
                return value ^ 1
            return value

        return fault

    @pytest.mark.parametrize(
        "machine_name", [entry.name for entry in all_machines()]
    )
    def test_same_fault_same_result_same_stats(self, machine_name):
        from repro.compiler.compiled import CompiledBackend
        from repro.compiler.threaded import ThreadedBackend
        from repro.core.iosystem import QueueIO
        from repro.errors import SimulationError
        from repro.interp.interpreter import InterpreterBackend

        entry = get_machine(machine_name)
        spec = entry.build()
        cycles = min(entry.demo_cycles, self.CYCLE_BUDGET)
        fault = self._transient_fault(spec)
        backends = [
            InterpreterBackend(),
            ThreadedBackend(cache=False),
            CompiledBackend(cache=False),
        ]
        outcomes = []
        for backend in backends:
            try:
                outcomes.append(backend.run(
                    spec, cycles=cycles, io=QueueIO((), strict=False),
                    trace=True, override=fault,
                ))
            except SimulationError as exc:
                outcomes.append(type(exc))
        reference, candidates = outcomes[0], outcomes[1:]
        if isinstance(reference, type):
            # the fault broke the machine: every backend must break the
            # same way
            assert candidates == [reference, reference]
            return
        for candidate in candidates:
            label = f"{machine_name} [{candidate.backend}]"
            assert candidate.final_values == reference.final_values, label
            assert candidate.memory_contents == reference.memory_contents, label
            assert candidate.output_integers() == reference.output_integers(), label
            assert [t.values for t in candidate.trace.cycles] == [
                t.values for t in reference.trace.cycles
            ], label
            key = lambda a: (a.cycle, a.memory, a.kind, a.address, a.value)
            assert list(map(key, candidate.trace.accesses)) == list(
                map(key, reference.trace.accesses)
            ), label
            # full statistics parity: every backend executes the one
            # schedule, so even per-component breakdowns are identical
            assert candidate.stats == reference.stats, label

    @pytest.mark.parametrize(
        "machine_name", [entry.name for entry in all_machines()]
    )
    def test_stats_parity_without_faults(self, machine_name):
        """Plain stats runs agree bit for bit on all three backends at
        their defaults (the compiled backend's full breakdown included)."""
        from repro.core.comparison import assert_all_backends_equivalent

        entry = get_machine(machine_name)
        spec = entry.build()
        cycles = min(entry.demo_cycles, self.CYCLE_BUDGET)
        assert_all_backends_equivalent(spec, cycles=cycles,
                                       compare_stats=True)

    #: every seed in ``generate_machine(0..599)`` whose machine has
    #: constant, duplicate or forwarding components: a whole-specification
    #: optimizer once rewrote these 43, and the threaded backend, which
    #: ran it by default, then counted fewer component evaluations than
    #: the interpreter and compiled backends on 34 of them (the machines
    #: as built without run-time faults, which some seeds now carry)
    REWRITABLE_SEEDS = (
        6, 11, 36, 58, 77, 80, 94, 104, 120, 154, 159, 161, 190, 210, 215,
        220, 241, 258, 288, 291, 307, 313, 320, 332, 352, 376, 379, 384, 400,
        414, 440, 456, 463, 480, 492, 516, 528, 529, 537, 565, 568, 571, 583,
    )

    @pytest.mark.parametrize("seed", REWRITABLE_SEEDS)
    def test_default_backends_agree_on_stats_of_generated_machines(
            self, seed, monkeypatch):
        from repro.core.comparison import (
            assert_all_backends_equivalent,
            compare_results,
        )
        from repro.core.iosystem import QueueIO
        from repro.core.simulator import BACKEND_NAMES, Simulator
        from repro.fuzz import generator

        monkeypatch.setattr(generator, "_FAULT_SHARE", 0.0)
        machine = generator.generate_machine(seed)
        assert_all_backends_equivalent(
            machine.spec, cycles=machine.cycles, inputs=machine.inputs,
            compare_stats=True,
        )
        # each backend as a user gets it: by name, every option defaulted
        results = {
            name: Simulator(machine.spec, backend=name).run(
                cycles=machine.cycles,
                io=QueueIO(machine.inputs, strict=False),
            )
            for name in BACKEND_NAMES
        }
        assert {result.stats.component_evaluations
                for result in results.values()} == {
            machine.cycles * len(machine.spec.components)
        }
        for name in ("threaded", "compiled"):
            assert compare_results(results["interpreter"], results[name],
                                   compare_trace=True,
                                   compare_stats=True) == [], name

    def test_out_of_word_inputs_and_overrides_enter_as_words(self):
        # an input or an override past the 31-bit word is masked where it
        # enters, so a comparison of it reads the same on every backend
        from repro.core.comparison import assert_all_backends_equivalent
        from repro.core.iosystem import QueueIO
        from repro.interp.interpreter import InterpreterBackend
        from repro.rtl.parser import parse_spec

        spec = parse_spec("# words\ninp* lt* out .\nM inp 0 0 2 1\n"
                          "A lt 13 inp 5\nM out 1 lt 3 2\n.")

        def override(name, value, cycle):
            if cycle == 3:
                return {"lt": -2, "inp": 2 ** 40 + 7}.get(name, value)
            return value

        inputs = (-1, 2 ** 40 + 6, 3, 9, 10)
        assert_all_backends_equivalent(spec, cycles=5, inputs=inputs,
                                       override=override, compare_stats=True)
        result = InterpreterBackend().run(
            spec, cycles=5, io=QueueIO(inputs), trace=True, override=override)
        assert result.trace.values_of("inp") == [0, 2 ** 31 - 1, 6, 3, 7]
        assert result.output_integers() == [1, 0, 0, 2 ** 31 - 2, 0]


def _upset_everything(name, value, cycle):
    """Flip the low bit of every component, memories included, on a few
    fixed cycles."""
    return value ^ 1 if cycle in (3, 11, 42) else value


_FULL_TRACE = TraceOptions.full()


class TestCompiledKernelParity:
    """The compiled stats kernel against the interpreter, per run shape.

    The generated ``simulate_instrumented`` counts statistics inline and
    branches on per-run flags (override, deadline, cycle trace, access
    trace), so each configuration it distinguishes is compared on every
    bundled machine with the exact comparison: a zero-count key is a
    mismatch, and a zero-cycle run must leave the statistics empty.
    """

    #: long enough for the sieve to cross deadline checks (every
    #: DEADLINE_CHECK_CYCLES cycles) under the non-expiring deadline
    CYCLE_BUDGET = 600

    #: run shape -> (CompiledBackend arguments, run arguments)
    CONFIGS = {
        "zero-cycles": ({}, dict(cycles=0)),
        "stats": ({}, {}),
        "trace-only": ({}, dict(collect_stats=False, trace=True)),
        "access-trace-only": ({}, dict(collect_stats=False, trace=TraceOptions(
            trace_cycles=False, trace_memory_accesses=True))),
        "stats-and-trace": ({}, dict(trace=_FULL_TRACE)),
        "unoptimized": (dict(options=CodegenOptions.unoptimized()),
                        dict(trace=_FULL_TRACE)),
        "deadline": ({}, {}),
        "override": ({}, dict(trace=_FULL_TRACE, override=_upset_everything)),
    }

    @pytest.mark.parametrize("config", list(CONFIGS))
    @pytest.mark.parametrize(
        "machine_name", [entry.name for entry in all_machines()]
    )
    def test_kernel_matches_reference(self, machine_name, config):
        import time

        from repro.compiler.compiled import CompiledBackend
        from repro.core.comparison import compare_results
        from repro.core.instrument import run_deadline
        from repro.core.iosystem import QueueIO
        from repro.core.stats import SimulationStats
        from repro.errors import SimulationError
        from repro.interp.interpreter import InterpreterBackend

        compiled_args, run_args = self.CONFIGS[config]
        entry = get_machine(machine_name)
        spec = entry.build()
        run_args = {"cycles": min(entry.demo_cycles, self.CYCLE_BUDGET),
                    **run_args}
        reference = InterpreterBackend()
        candidate = CompiledBackend(cache=False, **compiled_args)
        results = []
        for backend in (reference, candidate):
            deadline = time.monotonic() + 600 if config == "deadline" else None
            try:
                with run_deadline(deadline):
                    results.append(backend.prepare(spec).run(
                        io=QueueIO((), strict=False), **run_args
                    ))
            except SimulationError as exc:
                # an upset that breaks the machine must break it the same
                # way, on the same cycle
                results.append((type(exc), exc.cycle))
        if isinstance(results[0], tuple):
            assert results[1] == results[0], machine_name
            return
        mismatches = compare_results(*results, compare_trace=True,
                                     compare_stats=True)
        assert mismatches == [], f"{machine_name} [{config}]: {mismatches}"
        if config == "zero-cycles":
            assert results[1].stats == SimulationStats()


class TestRandomStackPrograms:
    """Random straight-line stack programs: RTL machine vs ISP golden model."""

    @given(
        st.lists(st.integers(min_value=0, max_value=200), min_size=2, max_size=6),
        st.lists(st.sampled_from(["ADD", "SUB", "MUL", "AND", "OR", "XOR", "LT", "EQ"]),
                 min_size=1, max_size=5),
    )
    @settings(max_examples=30, deadline=None)
    def test_rtl_matches_isp(self, pushes, operators):
        from repro.core.simulator import Simulator
        from repro.isa.assembler import assemble_stack_program
        from repro.isa.isp import StackIspSimulator
        from repro.machines.stack_machine import build_stack_machine

        # keep the program balanced: enough operands for every operator
        operators = operators[: max(0, len(pushes) - 1)]
        if not operators:
            operators = ["ADD"]
            pushes = (pushes + [1, 2])[:2]
        lines = [f"PUSH {value}" for value in pushes]
        lines += operators
        lines += ["OUT", "HALT"]
        source = "\n".join(lines) + "\n"

        program = assemble_stack_program(source)
        golden = StackIspSimulator(program).run()
        machine = build_stack_machine(program)
        result = Simulator(machine.spec, backend="compiled").run(
            cycles=machine.cycles_for(golden.instructions_executed)
        )
        assert result.output_integers() == golden.outputs


class TestRunTimeErrorParity:
    """A machine that breaks raises the same error everywhere: the same
    type, cycle and message on every backend, whether the run counts
    statistics, takes the fast path or runs in a lane group."""

    #: (specification, error message) — the function code comes from a
    #: register (first case) or from an ALU computed earlier in the same
    #: cycle, behind a dynamic ALU whose code stays valid (second case)
    CASES = {
        "register": (
            "# bad funct\na inc r .\nA a r 1 1\nA inc 4 r 1\n"
            "M r 0 inc 1 1\n.",
            "cycle 14: ALU 'a' computed function code 14",
        ),
        "same-cycle": (
            "# bad funct\nok f bad r .\nA ok r.0.2 1 1\nA f 4 r 1\n"
            "A bad f 1 1\nM r 0 f 1 1\n.",
            "cycle 13: ALU 'bad' computed function code 14",
        ),
    }

    @staticmethod
    def _errors(prepared, path: str) -> list:
        from repro.core.iosystem import QueueIO
        from repro.errors import SimulationError

        if path.startswith("lanes"):
            outcomes = prepared.run_lanes(
                cycles=20, ios=[QueueIO(()) for _ in range(3)],
                collect_stats=path == "lanes+stats",
            )
            errors = [outcome.error for outcome in outcomes]
        else:
            with pytest.raises(SimulationError) as excinfo:
                prepared.run(cycles=20, collect_stats=path == "stats")
            errors = [excinfo.value]
        return [(type(e).__name__, e.cycle, str(e)) for e in errors]

    @pytest.mark.parametrize("path", ["stats", "fast", "lanes", "lanes+stats"])
    @pytest.mark.parametrize("backend", ["interpreter", "threaded", "compiled"])
    @pytest.mark.parametrize("case", list(CASES))
    def test_invalid_alu_function_code(self, case, backend, path):
        from repro.core.simulator import make_backend
        from repro.rtl.parser import parse_spec

        text, message = self.CASES[case]
        prepared = make_backend(backend).prepare(parse_spec(text))
        errors = self._errors(prepared, path)
        cycle = int(message.split(":")[0].split()[1])
        assert errors == [("InvalidAluFunctionError", cycle, message)] * len(
            errors)

    @pytest.mark.parametrize("path", ["stats", "fast", "lanes", "lanes+stats"])
    @pytest.mark.parametrize("case", list(CASES))
    def test_first_call_of_a_fresh_compiled_simulation(self, case, path):
        # the call that raises is the one that byte-compiles its entry
        # point: it must name the error as the interpreter does, and so
        # must the next call, on the entry point now bound
        from repro.compiler.compiled import CompiledBackend
        from repro.interp.interpreter import InterpreterBackend
        from repro.rtl.parser import parse_spec

        spec = parse_spec(self.CASES[case][0])
        reference = self._errors(InterpreterBackend().prepare(spec), path)
        fresh = CompiledBackend(cache=False).prepare(spec)
        assert self._errors(fresh, path) == reference
        assert self._errors(fresh, path) == reference

    #: (specification, faulting inputs, clean inputs, error message): an
    #: input drives a selector index past its case list (through the arm
    #: dispatch, and through a constant case table; a negative input
    #: enters as the word 2^31 - 1), or turns on the cell access of a
    #: memory whose constant address lies past its cells
    RANGE_CASES = {
        "selector-arms": (
            "# index past the cases\ninp s out .\nM inp 0 0 2 1\n"
            "S s inp out 20 out\nM out 0 s 1 1\n.",
            (1, 2, 3), (1, 2, 0),
            "cycle 3: selector 's' index 3 exceeds its 3 cases",
        ),
        "selector-arms-negative-input": (
            "# index past the cases\ninp s out .\nM inp 0 0 2 1\n"
            "S s inp out 20 out\nM out 0 s 1 1\n.",
            (1, 2, -1), (1, 2, 0),
            "cycle 3: selector 's' index 2147483647 exceeds its 3 cases",
        ),
        "selector-table": (
            "# index past the cases\ninp s out .\nM inp 0 0 2 1\n"
            "S s inp 10 20 30\nM out 0 s 1 1\n.",
            (1, 2, 3), (1, 2, 0),
            "cycle 3: selector 's' index 3 exceeds its 3 cases",
        ),
        "selector-table-negative-input": (
            "# index past the cases\ninp s out .\nM inp 0 0 2 1\n"
            "S s inp 10 20 30\nM out 0 s 1 1\n.",
            (1, 2, -1), (1, 2, 0),
            "cycle 3: selector 's' index 2147483647 exceeds its 3 cases",
        ),
        "constant-address": (
            "# constant address past the cells\ninp op bad .\n"
            "M inp 0 0 2 1\nA op 10 inp 3\nM bad 5 inp op 4\n.",
            (0, 0, 3), (0, 0, 0),
            "cycle 3: memory 'bad' address 5 outside its declared range 0..3",
        ),
    }

    @pytest.mark.parametrize("case", list(RANGE_CASES))
    def test_range_errors_on_every_compiled_entry_point(self, case):
        # simulate, simulate_instrumented and simulate_lanes each raise
        # the interpreter's error; in a lane group only the faulting lane
        # fails, and its neighbour matches the interpreter's clean run
        from repro.compiler.compiled import ENTRY_POINTS, CompiledBackend
        from repro.core.comparison import compare_results
        from repro.core.iosystem import QueueIO
        from repro.errors import SimulationError
        from repro.interp.interpreter import InterpreterBackend
        from repro.rtl.parser import parse_spec

        text, faulting, clean, message = self.RANGE_CASES[case]
        spec = parse_spec(text, validate=False)

        def io(inputs):
            return QueueIO(inputs, strict=False)

        def signature(error):
            return type(error).__name__, error.cycle, str(error)

        reference = InterpreterBackend().prepare(spec)
        with pytest.raises(SimulationError) as excinfo:
            reference.run(cycles=8, io=io(faulting))
        expected = signature(excinfo.value)
        assert expected[1:] == (3, message)
        clean_run = reference.run(cycles=8, io=io(clean), trace=False,
                                  collect_stats=False)

        prepared = CompiledBackend(cache=False).prepare(spec)
        for collect_stats in (False, True):
            with pytest.raises(SimulationError) as excinfo:
                prepared.run(cycles=8, io=io(faulting), trace=False,
                             collect_stats=collect_stats)
            assert signature(excinfo.value) == expected
        faulty, healthy = prepared.run_lanes(
            cycles=8, ios=[io(faulting), io(clean)], collect_stats=False)
        assert faulty.result is None
        assert signature(faulty.error) == expected
        assert healthy.error is None
        assert compare_results(clean_run, healthy.result) == []
        assert {e for e in ENTRY_POINTS if "_" + e in vars(prepared)} == set(
            ENTRY_POINTS)
