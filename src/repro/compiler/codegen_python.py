"""Python code generation: the heart of the ASIM II reproduction.

The original ASIM II reads a specification and writes a Pascal program that
simulates it; compiling that program yields a simulator roughly an order of
magnitude faster than interpreting the specification tables.  Here the
generated program is a Python module exposing the fast-path function::

    simulate(cycles, io, trace_log=None, stats=None) -> dict

plus — when generated from a lowered program via
:func:`generate_program_python` — ``simulate_instrumented(cycles, io,
inst)`` (the same statements plus inline statistics counters, trace flags
and ``override`` sites, see :mod:`repro.core.instrument`) and the lane
fast path ``simulate_lanes``.  The fast path has the same structure as
the paper's generated main program:

* local variables ``v_<name>`` for every ALU/selector (the paper's
  ``ljb<name>``),
* latched outputs ``t_<name>`` and cell lists ``m_<name>`` for memories
  (the paper's ``temp<name>`` / ``ljb<name>[...]``),
* one straight-line block per cycle evaluating the combinational components
  in dependency order, then tracing, then latching every memory.

The optimizations of Section 4.4 are applied according to
:class:`~repro.compiler.optimizer.CodegenOptions`: constant ALU functions
are inlined (Figure 4.1) and constant memory operations drop the operation
dispatch (Figure 4.3).  Whatever the options, a selector dispatches once
per distinct arm (Figure 4.2's ``case`` statement), and a memory whose
constant address lies inside its cells goes without an address latch
and a bounds check.
"""

from __future__ import annotations

from collections import Counter
from contextlib import contextmanager

from repro.compiler.emitter import CodeWriter
from repro.compiler.optimizer import (
    CodegenOptions,
    constant_alu_function,
    constant_memory_operation,
    memory_may_trace_reads,
    memory_may_trace_writes,
    selector_constant_cases,
    static_memory_address,
)
from repro.core.instrument import DEADLINE_CHECK_CYCLES
from repro.errors import CompilationError
from repro.rtl.alu_ops import FUNCTION_COUNT, function_info
from repro.rtl.bits import WORD_MASK
from repro.rtl.components import Alu, Memory, Selector
from repro.rtl.dependency import sort_combinational
from repro.rtl.memory_ops import should_trace_read, should_trace_write
from repro.rtl.spec import Specification

#: Module docstring placed at the top of every generated simulator.
_GENERATED_HEADER = '"""Simulator generated by the ASIM II reproduction compiler."""'


class PythonCodeGenerator:
    """Generates the Python simulator module for one specification."""

    def __init__(
        self, spec: Specification, options: CodegenOptions | None = None
    ) -> None:
        for name in spec.component_names():
            # names are spliced into the generated code as variables
            if not (name.isascii() and f"v_{name}".isidentifier()):
                raise CompilationError(
                    f"component name {name!r} cannot name a variable of "
                    "the generated simulator"
                )
        self.spec = spec
        self.options = options or CodegenOptions()
        self._combinational = sort_combinational(spec)
        #: ALUs whose function code is not a valid constant, in schedule
        #: order: the ones whose ``dologic`` call can reject their code
        self._dynamic_alus = [
            component for component in self._combinational
            if isinstance(component, Alu)
            and constant_alu_function(component) is None
        ]
        self._memories = spec.memories()
        self._combinational_names = {c.name for c in self._combinational}

    # -- name resolution ---------------------------------------------------------

    def resolve(self, name: str) -> str:
        """Map a component name to its local variable in the generated code."""
        if name in self._combinational_names:
            return f"v_{name}"
        return f"t_{name}"

    def _expr(self, expression) -> str:
        return expression.to_python(self.resolve)

    # -- top level -----------------------------------------------------------------

    def generate(self) -> str:
        """Produce the complete generated module source (fast path only)."""
        writer = CodeWriter()
        self._emit_prologue(writer)
        self._emit_constant_tables(writer)
        writer.blank()
        self.emit_simulate(writer)
        return writer.render()

    def emit_simulate(self, writer: CodeWriter) -> None:
        """Emit the fast-path ``simulate`` function (no hook call sites)."""
        with writer.block("def simulate(cycles, io, trace_log=None, stats=None):"):
            self._emit_initialisation(writer)
            writer.line("do_trace = trace_log is not None")
            writer.line("cyclecount = 0")
            with self._naming_alu_errors(writer), \
                    writer.block("while cyclecount < cycles:"):
                self._emit_combinational(writer)
                self._emit_cycle_trace(writer)
                self._emit_memory_requests(writer)
                self._emit_memory_updates(writer)
                writer.line("cyclecount += 1")
            self._emit_stats_epilogue(writer)
            self._emit_return(writer)

    # -- sections ---------------------------------------------------------------------

    def _emit_prologue(self, writer: CodeWriter) -> None:
        writer.line(_GENERATED_HEADER)
        writer.comment(f"source: {self.spec.source_name}")
        writer.comment(self.spec.header_comment)
        writer.line(
            "from repro.compiler.runtime import ("
            "dologic, land, shift_left as _shift_left, "
            "selector_case_error, memory_range_error, "
            "InvalidAluFunctionError, alu_function_error)"
        )
        writer.blank()
        writer.line(f"COMPONENT_COUNT = {len(self.spec.components)}")

    def _emit_constant_tables(self, writer: CodeWriter) -> None:
        """Module-level tuples for selectors whose cases are all constant."""
        if not self.options.fold_constant_selectors:
            return
        for selector in self.spec.selectors():
            cases = selector_constant_cases(selector)
            if cases is None:
                continue
            values = ", ".join(str(v) for v in cases)
            if len(cases) == 1:
                values += ","
            writer.line(f"_SEL_{selector.name} = ({values})")

    def _emit_initialisation(self, writer: CodeWriter) -> None:
        writer.comment("component values (paper: ljb<name> / temp<name>)")
        for component in self._combinational:
            writer.line(f"v_{component.name} = 0")
        for memory in self._memories:
            writer.line(f"t_{memory.name} = {memory.initial_output}")
        writer.comment("memory cell arrays")
        for memory in self._memories:
            writer.line(f"m_{memory.name} = [0] * {memory.size}")
            for index, value in enumerate(memory.initial_values):
                if value:
                    writer.line(f"m_{memory.name}[{index}] = {value}")

    # -- combinational components -----------------------------------------------------

    def _emit_alu(self, writer: CodeWriter, alu: Alu) -> None:
        left = self._expr(alu.left)
        right = self._expr(alu.right)
        constant = constant_alu_function(alu)
        if constant is not None and self.options.inline_constant_functions:
            template = function_info(constant).python_template
            writer.line(f"v_{alu.name} = {template.format(l=left, r=right)}")
            return
        funct = self._expr(alu.funct)
        writer.line(f"v_{alu.name} = dologic({funct}, {left}, {right})")

    def _emit_selector(self, writer: CodeWriter, selector: Selector) -> str:
        """Emit one selector as a dispatch on its index (Figure 4.2).

        Each distinct arm expression gets one test: ``==`` for an arm
        one index selects, a constant set for an arm several select.  The
        arm the most indices select goes last, behind ``index < count``,
        so an index past the case list still reaches
        ``selector_case_error``.  A select expression that is a plain
        local is tested directly; any other is computed once into ``_i``.
        Returns the variable holding the index.
        """
        name = selector.name
        count = selector.case_count
        index = self._expr(selector.select)
        if not index.isidentifier():
            writer.line(f"_i = {index}")
            index = "_i"
        error = f"selector_case_error({name!r}, {index}, {count}, cyclecount)"
        constant_cases = (
            selector_constant_cases(selector)
            if self.options.fold_constant_selectors
            else None
        )
        if constant_cases is not None:
            if self.options.emit_bounds_checks:
                with writer.block(f"if {index} >= {count}:"):
                    writer.line(error)
            writer.line(f"v_{name} = _SEL_{name}[{index}]")
            return index
        arms: dict[str, list[int]] = {}
        for case_index, case in enumerate(selector.cases):
            arms.setdefault(self._expr(case), []).append(case_index)
        # of equally wide arms the later goes last, so distinct arms keep
        # the case order of the paper's case statement
        widest = max(reversed(arms), key=lambda arm: len(arms[arm]))
        keyword = "if"
        for arm, indices in arms.items():
            if arm == widest:
                continue
            test = (f"== {indices[0]}" if len(indices) == 1
                    else f"in {{{', '.join(map(str, indices))}}}")
            with writer.block(f"{keyword} {index} {test}:"):
                writer.line(f"v_{name} = {arm}")
            keyword = "elif"
        with writer.block(f"{keyword} {index} < {count}:"):
            writer.line(f"v_{name} = {widest}")
        with writer.block("else:"):
            writer.line(error)
        return index

    def _emit_alu_error_search(self, writer: CodeWriter) -> None:
        """Rebind ``_exc`` to the other backends' error for the ALU whose
        function code ``dologic`` rejected this cycle.

        ``dologic`` knows neither the ALU nor the cycle.  The ALUs before
        the failing one in schedule order accepted their codes, and every
        function expression reads only values already computed this cycle,
        so the first dynamic ALU whose code is out of range is the one.
        """
        writer.comment("name the ALU whose function code dologic rejected")
        for index, alu in enumerate(self._dynamic_alus):
            keyword = "elif" if index else "if"
            code = f"(_f := {self._expr(alu.funct)})"
            with writer.block(
                f"{keyword} not 0 <= {code} < {FUNCTION_COUNT}:"
            ):
                writer.line(
                    f"_exc = alu_function_error({alu.name!r}, _f, cyclecount)"
                )

    @contextmanager
    def _naming_alu_errors(self, writer: CodeWriter):
        """Wrap the cycle loop in a ``try`` whose handler raises a rejected
        function code as the other backends do: ``cycle N: ALU 'a'
        computed function code C``.  The ``try`` costs the loop nothing
        until it raises; a machine without dynamic ALUs gets none."""
        if not self._dynamic_alus:
            yield
            return
        with writer.block("try:"):
            yield
        with writer.block("except InvalidAluFunctionError as _exc:"):
            self._emit_alu_error_search(writer)
            writer.line("raise _exc from None")

    def _emit_combinational(self, writer: CodeWriter) -> None:
        writer.comment("combinational components in dependency order")
        for component in self._combinational:
            if isinstance(component, Alu):
                self._emit_alu(writer, component)
            else:
                assert isinstance(component, Selector)
                self._emit_selector(writer, component)

    # -- tracing -----------------------------------------------------------------------

    def _emit_cycle_trace(self, writer: CodeWriter) -> None:
        traced = self.spec.traced_names
        if not traced or not self.options.emit_cycle_trace:
            return
        entries = ", ".join(f"{name!r}: {self.resolve(name)}" for name in traced)
        with writer.block("if do_trace:"):
            writer.line(f"trace_log.record_cycle(cyclecount, {{{entries}}})")

    # -- memories ------------------------------------------------------------------------

    def _emit_memory_requests(self, writer: CodeWriter) -> None:
        writer.comment("latch memory address/data/operation before any update")
        for memory in self._memories:
            constant = self._constant_operation(memory)
            if static_memory_address(memory) is None:
                writer.line(f"a_{memory.name} = {self._expr(memory.address)}")
            if constant is None or (constant & 3) in (1, 3):
                writer.line(f"d_{memory.name} = {self._expr(memory.data)}")
            if constant is None:
                writer.line(f"o_{memory.name} = {self._expr(memory.operation)}")

    @staticmethod
    def _address(memory: Memory) -> str:
        """The address a memory's port uses this cycle: its constant when
        that lies inside the memory, else the latched ``a_<name>``."""
        static = static_memory_address(memory)
        return f"a_{memory.name}" if static is None else str(static)

    def _bounds_check(self, writer: CodeWriter, memory: Memory) -> None:
        if (not self.options.emit_bounds_checks
                or static_memory_address(memory) is not None):
            return
        with writer.block(f"if a_{memory.name} >= {memory.size}:"):
            writer.line(
                f"memory_range_error({memory.name!r}, a_{memory.name}, "
                f"{memory.size}, cyclecount)"
            )

    def _emit_memory_operation(
        self, writer: CodeWriter, memory: Memory, operation: int
    ) -> None:
        """Emit the body for one specific memory operation code."""
        name = memory.name
        address = self._address(memory)
        op = operation & 3
        if op == 0:
            self._bounds_check(writer, memory)
            writer.line(f"t_{name} = m_{name}[{address}]")
        elif op == 1:
            self._bounds_check(writer, memory)
            writer.line(f"t_{name} = d_{name}")
            writer.line(f"m_{name}[{address}] = d_{name}")
        elif op == 2:
            writer.line(
                f"t_{name} = io.read({address}, cycle=cyclecount) & {WORD_MASK}")
        else:
            writer.line(f"t_{name} = d_{name}")
            writer.line(f"io.write({address}, d_{name}, cycle=cyclecount)")

    def _emit_access_trace(
        self, writer: CodeWriter, memory: Memory, constant: int | None,
        flag: str,
    ) -> None:
        """Emit the "Read from"/"Write to" records, behind run flag *flag*."""
        name = memory.name
        address = self._address(memory)
        if constant is not None:
            if should_trace_write(constant):
                with writer.block(f"if {flag}:"):
                    writer.line(
                        f"trace_log.record_access(cyclecount, {name!r}, 'write', "
                        f"{address}, t_{name})"
                    )
            if should_trace_read(constant):
                with writer.block(f"if {flag}:"):
                    writer.line(
                        f"trace_log.record_access(cyclecount, {name!r}, 'read', "
                        f"{address}, t_{name})"
                    )
            return
        if memory_may_trace_writes(memory):
            with writer.block(f"if {flag} and (o_{name} & 5) == 5:"):
                writer.line(
                    f"trace_log.record_access(cyclecount, {name!r}, 'write', "
                    f"{address}, t_{name})"
                )
        if memory_may_trace_reads(memory):
            with writer.block(f"if {flag} and (o_{name} & 9) == 8:"):
                writer.line(
                    f"trace_log.record_access(cyclecount, {name!r}, 'read', "
                    f"{address}, t_{name})"
                )

    def _constant_operation(self, memory: Memory) -> int | None:
        if not self.options.specialize_constant_memory_ops:
            return None
        return constant_memory_operation(memory)

    def _emit_memory_update(
        self, writer: CodeWriter, memory: Memory, trace_flag: str | None
    ) -> None:
        """Apply one memory's operation; a dynamic one leaves ``_op``."""
        constant = self._constant_operation(memory)
        if constant is not None:
            self._emit_memory_operation(writer, memory, constant)
        else:
            writer.line(f"_op = o_{memory.name} & 3")
            for op, keyword in enumerate(("if", "elif", "elif", "else")):
                condition = f" _op == {op}" if op < 3 else ""
                with writer.block(f"{keyword}{condition}:"):
                    self._emit_memory_operation(writer, memory, op)
        if trace_flag is not None:
            self._emit_access_trace(writer, memory, constant, trace_flag)

    def _emit_memory_updates(self, writer: CodeWriter) -> None:
        writer.comment("apply memory operations and latch new outputs")
        trace_flag = "do_trace" if self.options.emit_access_trace else None
        for memory in self._memories:
            self._emit_memory_update(writer, memory, trace_flag)

    # -- lane variant --------------------------------------------------------------------

    def emit_lanes_function(self, writer: CodeWriter, name: str) -> None:
        """Emit the lane fast path: N uninstrumented runs per schedule walk.

        The generated function takes ``(cycles, ios)`` — one I/O system per
        lane — and runs the scalar fast-path cycle body with the lane loop
        *inside* the hot cycle loop: per-lane state widens to N-element
        lane lists, and each lane's state is staged into the scalar locals
        so the exact fast-path statements (and therefore the exact
        semantics, bounds checks included) are reused verbatim.  Only the
        state that actually crosses a cycle boundary is staged — memory
        latches and cell-array bindings; combinational values are
        recomputed from scratch every cycle (the step list is
        write-before-read by dependency order), so each lane's visible
        values are snapshotted into a fresh dict once, on the lane's
        final cycle, directly from the scalar locals.  A lane that
        raises a ``SimulationError`` records its error and leaves the
        active set at the cycle boundary; the other lanes are untouched.
        The caller must emit this from a generator whose options disable
        the trace call sites (``emit_cycle_trace=False``,
        ``emit_access_trace=False``) — lane groups never trace.
        """
        value_entries = ", ".join(
            f"{component.name!r}: {self.resolve(component.name)}"
            for component in self.spec.components
        )
        with writer.block(f"def {name}(cycles, ios):"):
            writer.line("from repro.errors import SimulationError")
            writer.line("n = len(ios)")
            self._emit_initialisation(writer)
            writer.comment("lane state: one column per cross-cycle slot")
            for memory in self._memories:
                writer.line(f"L_t_{memory.name} = [t_{memory.name}] * n")
                writer.line(
                    f"L_m_{memory.name} = "
                    f"[list(m_{memory.name}) for _ in range(n)]"
                )
            writer.line("_errors = [None] * n")
            writer.comment(
                "zero-cycle groups report the initial values for every lane"
            )
            with writer.block("if cycles <= 0:"):
                writer.line(f"_values = [{{{value_entries}}} "
                            "for _ in range(n)]")
            with writer.block("else:"):
                writer.line("_values = [None] * n")
            writer.line("_active = list(range(n))")
            writer.line("cyclecount = 0")
            with writer.block("while cyclecount < cycles and _active:"):
                writer.line("_faulted = False")
                writer.line("_last = cyclecount + 1 == cycles")
                with writer.block("for _lane in _active:"):
                    writer.comment(
                        "stage the lane's cross-cycle state into the "
                        "scalar locals"
                    )
                    writer.line("io = ios[_lane]")
                    for memory in self._memories:
                        writer.line(
                            f"t_{memory.name} = L_t_{memory.name}[_lane]"
                        )
                        writer.line(
                            f"m_{memory.name} = L_m_{memory.name}[_lane]"
                        )
                    with writer.block("try:"):
                        if not self.spec.components:
                            writer.line("pass")
                        self._emit_combinational(writer)
                        self._emit_memory_requests(writer)
                        self._emit_memory_updates(writer)
                    with writer.block("except SimulationError as _exc:"):
                        if self._dynamic_alus:
                            with writer.block(
                                "if type(_exc) is InvalidAluFunctionError:"
                            ):
                                self._emit_alu_error_search(writer)
                        writer.line("_errors[_lane] = _exc")
                        writer.line("_faulted = True")
                    with writer.block("else:"):
                        writer.comment("latch the lane column back")
                        for memory in self._memories:
                            writer.line(
                                f"L_t_{memory.name}[_lane] = t_{memory.name}"
                            )
                        with writer.block("if _last:"):
                            writer.comment(
                                "final cycle: snapshot this lane's values"
                            )
                            writer.line(
                                f"_values[_lane] = {{{value_entries}}}"
                            )
                with writer.block("if _faulted:"):
                    writer.line(
                        "_active = [_l for _l in _active "
                        "if _errors[_l] is None]"
                    )
                writer.line("cyclecount += 1")
            writer.comment("per-lane visible values, memory contents, errors")
            memory_entries = ", ".join(
                f"{memory.name!r}: L_m_{memory.name}[_l]"
                for memory in self._memories
            )
            with writer.block("return {"):
                writer.line("'values': _values,")
                writer.line(
                    f"'memories': [{{{memory_entries}}} for _l in range(n)],"
                )
                writer.line("'errors': _errors,")
            writer.line("}")

    # -- instrumented variant ------------------------------------------------------------

    def emit_instrumented_function(self, writer: CodeWriter, name: str) -> None:
        """Emit the fast path's statements plus inline statistics counters.

        The generated ``(cycles, io, inst)`` function counts what the
        hooks of :mod:`repro.core.instrument` would record in per-run
        locals and folds them into ``inst.stats`` once, after the loop.
        Constant ALU functions, operations and addresses cost nothing per
        cycle (they fold as ``cycles``).  Selectors share one case-count
        list per distinct select expression, bumped by its first reader:
        the expression reads values fixed for the cycle (``override``
        rewrites a value before anything reads it), so every reader takes
        the same case.  Traces sit behind per-run flags whatever the trace
        options (those shape only the standalone fast path), and the one
        per-component call into Python left is the user's ``override``.
        """
        expressions: dict[str, int] = {}
        slots = {
            selector.name: expressions.setdefault(
                self._expr(selector.select), len(expressions))
            for selector in self.spec.selectors()
        }
        # an index counted by a select expression's first reader is below
        # every reader's case count, or a reader raises and ends the run
        width = max((s.case_count for s in self.spec.selectors()), default=0)
        bumped: set[int] = set()
        with writer.block(f"def {name}(cycles, io, inst):"):
            self._emit_initialisation(writer)
            writer.comment("per-run flags, and counters folded into the stats")
            writer.line("ov, dl, tc = inst.override, inst.deadline, inst.traced")
            writer.line("ta, trace_log = inst.trace_accesses, inst.trace_log")
            writer.line(f"_fc = [0] * {FUNCTION_COUNT}")
            for slot in range(len(expressions)):
                writer.line(f"_sc{slot} = [0] * {width}")
            for memory in self._memories:
                if self._constant_operation(memory) is None:
                    writer.line(f"_mo_{memory.name} = [0, 0, 0, 0]")
                if not memory.address.is_constant:
                    writer.line(f"_ma_{memory.name} = set()")
            writer.line("cyclecount = 0")
            with self._naming_alu_errors(writer), \
                    writer.block("while cyclecount < cycles:"):
                writer.comment("combinational components in dependency order")
                for component in self._combinational:
                    if isinstance(component, Alu):
                        self._emit_alu(writer, component)
                        if constant_alu_function(component) is None:
                            funct = self._expr(component.funct)
                            writer.line(f"_fc[{funct}] += 1")
                    else:
                        index = self._emit_selector(writer, component)
                        slot = slots[component.name]
                        if slot not in bumped:
                            bumped.add(slot)
                            writer.line(f"_sc{slot}[{index}] += 1")
                    self._emit_override(writer, "v_", component.name)
                self._emit_instrumented_cycle_trace(writer)
                self._emit_memory_requests(writer)
                writer.comment("apply memory operations and latch new outputs")
                for memory in self._memories:
                    self._emit_memory_update(writer, memory, "ta")
                    if self._constant_operation(memory) is None:
                        writer.line(f"_mo_{memory.name}[_op] += 1")
                    if not memory.address.is_constant:
                        writer.line(f"_ma_{memory.name}.add(a_{memory.name})")
                    self._emit_override(writer, "t_", memory.name)
                writer.line("cyclecount += 1")
                with writer.block("if dl is not None and not cyclecount % "
                                  f"{DEADLINE_CHECK_CYCLES}:"):
                    writer.line("inst.check_deadline()")
            self._emit_fold(writer, slots)
            self._emit_return(writer)

    @staticmethod
    def _emit_override(writer: CodeWriter, prefix: str, name: str) -> None:
        variable = prefix + name
        with writer.block("if ov is not None:"):
            writer.line(
                f"{variable} = ov({name!r}, {variable}, cyclecount) & {WORD_MASK}")

    def _emit_instrumented_cycle_trace(self, writer: CodeWriter) -> None:
        """Hand every component value to the instrumentation layer, which
        picks the run-time traced names out of it."""
        entries = ", ".join(
            f"{component.name!r}: {self.resolve(component.name)}"
            for component in self.spec.components
        )
        with writer.block("if tc and inst.wants_cycle_trace():"):
            writer.line(f"inst.record_cycle_values(cyclecount, {{{entries}}})")

    def _emit_fold(self, writer: CodeWriter, slots: dict[str, int]) -> None:
        """Hand the counters to ``inst.fold_counts``, constants included."""
        constants = Counter(map(constant_alu_function, self.spec.alus()))
        constants.pop(None, None)
        functions = tuple(constants.items())
        memories = ""
        for memory in self._memories:
            constant = self._constant_operation(memory)
            if constant is None:
                ops = f"_mo_{memory.name}"
            else:
                counts = ["0"] * 4
                counts[constant & 3] = "cyclecount"
                ops = f"({', '.join(counts)})"
            addresses = f"_ma_{memory.name}"
            if memory.address.is_constant:
                addresses = f"({memory.address.constant_value()},)"
            memories += f"({memory.name!r}, {ops}, {addresses}), "
        selectors = "".join(f"({n!r}, _sc{i}), " for n, i in slots.items())
        writer.comment("fold the counters into the statistics, once")
        with writer.block("if inst.stats is not None and cyclecount:"):
            writer.line(f"inst.fold_counts(cyclecount, {functions!r}, _fc,")
            writer.line(f"                 ({selectors}),")
            writer.line(f"                 ({memories}))")

    # -- result -------------------------------------------------------------------------

    def _emit_stats_epilogue(self, writer: CodeWriter) -> None:
        with writer.block("if stats is not None:"):
            writer.line("stats.cycles += cycles")
            writer.line(
                f"stats.component_evaluations += cycles * COMPONENT_COUNT"
            )

    def _emit_return(self, writer: CodeWriter) -> None:
        writer.comment("final visible values and memory contents")
        value_entries = ", ".join(
            f"{component.name!r}: {self.resolve(component.name)}"
            for component in self.spec.components
        )
        memory_entries = ", ".join(
            f"{memory.name!r}: m_{memory.name}" for memory in self._memories
        )
        with writer.block("return {"):
            writer.line(f"'values': {{{value_entries}}},")
            writer.line(f"'memories': {{{memory_entries}}},")
        writer.line("}")


def generate_python(
    spec: Specification, options: CodegenOptions | None = None
) -> str:
    """Generate the Python simulator module source for *spec*."""
    return PythonCodeGenerator(spec, options).generate()


def generate_program_python(
    program, options: CodegenOptions | None = None
) -> str:
    """Generate the full simulator module for a lowered *program*.

    The module contains the fast-path ``simulate`` plus
    ``simulate_instrumented`` (the fast path's statements with inline
    statistics counters, see
    :meth:`PythonCodeGenerator.emit_instrumented_function`) and
    ``simulate_lanes`` (the lane fast path: N uninstrumented run variants
    per walk of the cycle loop, see
    :meth:`PythonCodeGenerator.emit_lanes_function`).
    """
    import dataclasses

    fast = PythonCodeGenerator(program.spec, options)
    writer = CodeWriter()
    fast._emit_prologue(writer)
    fast._emit_constant_tables(writer)
    writer.blank()
    fast.emit_simulate(writer)
    writer.blank()
    fast.emit_instrumented_function(writer, "simulate_instrumented")
    writer.blank()
    # lane groups never trace, so the lane body drops the trace call sites;
    # every semantic option (bounds checks, constant specialisation) must
    # match the scalar fast path exactly for per-lane bit-identity
    lane_options = dataclasses.replace(
        fast.options, emit_cycle_trace=False, emit_access_trace=False
    )
    lanes = PythonCodeGenerator(program.spec, lane_options)
    lanes.emit_lanes_function(writer, "simulate_lanes")
    return writer.render()
