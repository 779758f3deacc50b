"""Property-based integration tests: all backends always agree.

This is the library-wide invariant behind the paper's claim that ASIM II
"significantly reduces the simulation time over an interpreter while
maintaining the same functionality": for randomly generated specifications
and for every bundled machine, the interpreter, threaded and compiled
backends must produce identical outputs, traces, final values and memory
contents — with and without the spec-level optimization pipeline.
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

        # specopt on: random datapaths routinely draw duplicate ALUs, which
        # exercises the merge pass against the interpreter reference
        comparison = compare_backends(
            spec, cycles=cycles,
            candidate=ThreadedBackend(specopt=True, cache=False),
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

    The interpreter is the reference; the threaded and compiled backends
    must match it bit for bit on final values, memory contents and
    memory-mapped outputs — with the spec-level optimization pipeline both
    off and on.
    """

    #: cycle budget per machine: enough to exercise real behaviour while
    #: keeping the matrix (6 machines x 2 specopt modes x 2 candidates) fast
    CYCLE_BUDGET = 600

    @pytest.mark.parametrize(
        "machine_name", [entry.name for entry in all_machines()]
    )
    @pytest.mark.parametrize("specopt", [False, True],
                             ids=["plain", "specopt"])
    def test_all_backends_bit_identical(self, machine_name, specopt):
        entry = get_machine(machine_name)
        spec = entry.build()
        cycles = min(entry.demo_cycles, self.CYCLE_BUDGET)
        results = compare_all_backends(spec, cycles=cycles, specopt=specopt)
        assert set(results) == {"threaded", "compiled"}
        for backend_name, comparison in results.items():
            assert comparison.equivalent, (
                f"{machine_name} [{backend_name}, specopt={specopt}]:\n  "
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
    @pytest.mark.parametrize("specopt", [False, True],
                             ids=["plain", "specopt"])
    def test_same_fault_same_result_same_stats(self, machine_name, specopt):
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
            ThreadedBackend(specopt=specopt, cache=False),
            CompiledBackend(specopt=specopt, cache=False),
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
            label = f"{machine_name} [{candidate.backend}, specopt={specopt}]"
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
            # full statistics parity: an override run executes the full
            # (pre-specopt) schedule everywhere, so even per-component
            # breakdowns are identical
            assert candidate.stats == reference.stats, label

    @pytest.mark.parametrize(
        "machine_name", [entry.name for entry in all_machines()]
    )
    def test_stats_parity_without_faults(self, machine_name):
        """With one specopt configuration, plain stats runs agree bit for
        bit on all three backends (the compiled backend's new full
        breakdown included)."""
        from repro.core.comparison import assert_all_backends_equivalent

        entry = get_machine(machine_name)
        spec = entry.build()
        cycles = min(entry.demo_cycles, self.CYCLE_BUDGET)
        assert_all_backends_equivalent(
            spec, cycles=cycles, specopt=False, compare_stats=True
        )

    def test_optimized_backends_agree_on_stats(self):
        """threaded and compiled with the same specopt passes execute the
        same optimized schedule, so their statistics match each other."""
        from repro.compiler.compiled import CompiledBackend
        from repro.compiler.threaded import ThreadedBackend
        from repro.core.comparison import compare_backends

        entry = get_machine("counter")
        spec = entry.build()
        comparison = compare_backends(
            spec,
            cycles=min(entry.demo_cycles, self.CYCLE_BUDGET),
            reference=ThreadedBackend(specopt=True, cache=False),
            candidate=CompiledBackend(specopt=True, cache=False),
            compare_stats=True,
        )
        assert comparison.equivalent, "\n".join(comparison.mismatches)


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
        "specopt": (dict(specopt=True), dict(trace=_FULL_TRACE)),
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
        from repro.compiler.threaded import ThreadedBackend
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
        # specopt changes the schedule the statistics count; the threaded
        # backend runs the same optimized schedule
        reference = (ThreadedBackend(specopt=True, cache=False)
                     if "specopt" in compiled_args else InterpreterBackend())
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
