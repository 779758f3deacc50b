"""The ASIM-style table interpreter.

This backend reproduces the *predecessor* system that the paper benchmarks
against: "ASIM reads the specification into tables, and produces a
simulation run by interpreting the symbols in the table" (Section 3.1).

``prepare`` obtains the shared lowered program (:mod:`repro.lowering`) —
whose dependency-sorted schedule *is* the paper's table — and each ``run``
walks that schedule once per cycle, evaluating every expression tree
interpretively.  It is deliberately the straightforward implementation: the
point of the paper — and of the Figure 5.1 benchmark — is that compiling the
specification (see :mod:`repro.compiler`) beats this by a large factor.

Statistics, tracing and the per-cycle ``override`` hook route through the
shared instrumentation layer (:mod:`repro.core.instrument`), the same hook
implementations every other backend calls.
"""

from __future__ import annotations

import time
from typing import Iterable

from repro.core.backend import Backend, PreparedSimulation, ValueOverride
from repro.core.instrument import plan_run
from repro.core.iosystem import IOSystem
from repro.core.results import SimulationResult
from repro.core.stats import SimulationStats
from repro.core.trace import TraceOptions
from repro.interp.evaluator import (
    apply_memory_request,
    evaluate_alu,
    evaluate_selector,
    latch_memory_request,
)
from repro.interp.state import MachineState
from repro.lowering.program import CycleProgram, lower
from repro.rtl.components import Alu
from repro.rtl.spec import Specification


class InterpreterSimulation(PreparedSimulation):
    """A lowered program whose schedule is interpreted table-style."""

    def __init__(
        self,
        spec: Specification,
        program: CycleProgram,
        prepare_seconds: float,
    ) -> None:
        super().__init__(spec, backend_name="interpreter",
                         prepare_seconds=prepare_seconds)
        #: the shared lowered program (its schedule is the paper's table)
        self.program = program

    def _typed(self):
        """(is_alu, component) pairs: the run loop dispatches on a boolean
        instead of isinstance() per component per cycle."""
        typed, _ = self.program.artifact(
            ("interp-typed",),
            lambda: tuple(
                (isinstance(component, Alu), component)
                for component in self.program.ordered
            ),
        )
        return typed

    # -- full run --------------------------------------------------------------------

    def run(
        self,
        cycles: int | None = None,
        io: IOSystem | Iterable[int | str] | None = None,
        trace: TraceOptions | bool | None = None,
        collect_stats: bool = True,
        override: ValueOverride | None = None,
    ) -> SimulationResult:
        plan = plan_run(self.program, cycles, io, trace, collect_stats,
                        override)
        inst = plan.inst
        io_system = plan.io_system
        state = MachineState.initial(self.program.spec)

        # Hoist every method/attribute lookup of the cycle loop into
        # prebound locals.
        typed = self._typed()
        memories = self.program.memories
        eval_alu = evaluate_alu
        eval_selector = evaluate_selector
        latch = latch_memory_request
        apply_request = apply_memory_request
        values = state.values
        memory_outputs = state.memory_outputs
        lookup = state.lookup
        hook_alu = inst.alu if inst is not None else None
        hook_selector = inst.selector if inst is not None else None
        hook_memory = inst.memory if inst is not None else None
        trace_entries = inst.traced if inst is not None else ()
        record_cycle = inst.record_cycle if inst is not None else None
        wants_trace = inst.wants_cycle_trace if inst is not None else None

        start = time.perf_counter()
        for _ in range(plan.cycle_count):
            cycle = state.cycle
            # 1. combinational components, producers before consumers
            if hook_alu is None:
                for is_alu, component in typed:
                    if is_alu:
                        _funct, value = eval_alu(component, state)
                    else:
                        _index, value = eval_selector(component, state)
                    values[component.name] = value
            else:
                for is_alu, component in typed:
                    if is_alu:
                        funct, value = eval_alu(component, state)
                        value = hook_alu(component.name, funct, value, cycle)
                    else:
                        index, value = eval_selector(component, state)
                        value = hook_selector(
                            component.name, index, value, cycle
                        )
                    values[component.name] = value

            # 2. cycle trace: traced values as used during this cycle
            if trace_entries and wants_trace():
                record_cycle(
                    cycle, {name: lookup(name) for name in trace_entries}
                )

            # 3. latch every memory's request against the pre-update state,
            #    then apply them all
            requests = [latch(memory, state) for memory in memories]
            for request in requests:
                apply_request(request, state, io_system)
                if hook_memory is not None:
                    name = request.memory.name
                    memory_outputs[name] = hook_memory(
                        name,
                        request.operation,
                        request.address,
                        memory_outputs[name],
                        cycle,
                    )
            state.cycle += 1
        run_seconds = time.perf_counter() - start

        plan.finish()
        return SimulationResult(
            backend=self.backend_name,
            cycles_run=plan.cycle_count,
            final_values=state.visible_values(),
            memory_contents=state.memory_snapshot(),
            outputs=list(io_system.outputs),
            trace=plan.trace_log,
            stats=plan.stats if plan.stats is not None else SimulationStats(),
            prepare_seconds=self.prepare_seconds,
            run_seconds=run_seconds,
        )


class InterpreterBackend(Backend):
    """Backend factory for the ASIM-style interpreter."""

    name = "interpreter"

    def prepare(self, spec: Specification) -> InterpreterSimulation:
        start = time.perf_counter()
        program = lower(spec)
        return InterpreterSimulation(
            spec, program, prepare_seconds=time.perf_counter() - start
        )
