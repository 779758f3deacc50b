"""Lane-vectorized execution of a lowered :class:`CycleProgram`.

A batch of N run variants of the same machine normally costs N full walks
of the per-cycle schedule, plus N times the per-run serving overhead
(plan construction, I/O coercion, future plumbing, result assembly).
This module executes the whole group in **one walk per cycle**: every
value slot widens from a scalar to an N-element *lane array*, and each
ALU/selector/memory kernel loops over the active lanes inside the cycle
loop — the same shape as continuous batching in inference serving, where
many requests ride one pass over the model.

The evaluator is generic over the IR, so the interpreter and threaded
backends share it unchanged (see
:meth:`repro.core.backend.PreparedSimulation.run_lanes`); the compiled
backend additionally generates a ``simulate_lanes`` entry point with the
lane loop inlined into its module (:mod:`repro.compiler.codegen_python`)
and only falls back here for instrumented (stats-collecting) groups.

Semantics are the scalar semantics, per lane:

* every lane owns its values column, its memory cell arrays and its I/O
  system — nothing is shared between lanes but the schedule walk;
* a lane that raises a :class:`~repro.errors.SimulationError` records the
  error (first error wins, exactly where a scalar run would have raised)
  and leaves the active set at the end of the cycle, so one lane's
  runtime fault never poisons its neighbours;
* statistics-collecting groups give each lane its own
  :class:`~repro.core.instrument.Instrumentation`, calling the same hooks
  in the same order as every scalar backend — lane statistics are
  bit-identical to sequential statistics.

Lane groups are formed from *compatible* requests only (same cycle count,
same instrumentation profile, no trace/override/deadline — see
:func:`repro.serving.executor.lane_compatible`), which is what keeps this
module free of per-lane control flow beyond the error mask.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Sequence

from repro.core.backend import resolve_cycles
from repro.core.instrument import Instrumentation
from repro.core.results import SimulationResult
from repro.core.stats import SimulationStats
from repro.core.trace import TraceLog
from repro.errors import (
    InvalidAluFunctionError,
    MemoryRangeError,
    SelectorRangeError,
)
from repro.lowering.program import (
    AluStep,
    CycleProgram,
    MemoryStep,
    SelectorStep,
)
from repro.rtl.alu_ops import FUNCTION_COUNT, dologic
from repro.rtl.bits import WORD_MASK

#: Default number of lanes per group when the caller does not choose one.
#: Wide enough to amortise the per-group overhead (one plan, one result
#: pass), narrow enough that heterogeneous batches still fill groups.
DEFAULT_LANE_WIDTH = 16

#: A bound per-lane value producer: ``pull(lane) -> masked machine word``.
LanePull = Callable[[int], int]
#: A bound per-cycle kernel: advances every lane in the given active list.
LaneKernel = Callable[[list], None]


def bind_lane_pull(desc: tuple, values: "list[list[int]]") -> LanePull:
    """Bind a descriptor to the lane-array *values*, per-lane producer.

    The lane twin of :func:`repro.interp.closures.bind_pull`: identical
    masking semantics, with every slot read indexed by lane.
    """
    kind = desc[0]
    if kind == "const":
        constant = desc[1]
        return lambda lane: constant
    if kind == "ref":
        row = values[desc[1]]
        return lambda lane: row[lane] & WORD_MASK
    if kind == "bits":
        _, slot, low, mask = desc
        row = values[slot]
        if low == 0:
            return lambda lane: row[lane] & mask
        return lambda lane: (row[lane] >> low) & mask
    parts = tuple(
        (bind_lane_pull(part, values), offset) for part, offset in desc[1]
    )
    if len(parts) == 2:
        (pull_a, off_a), (pull_b, off_b) = parts
        return lambda lane: (
            (pull_a(lane) << off_a) | (pull_b(lane) << off_b)
        ) & WORD_MASK

    def pull(lane: int) -> int:
        result = 0
        for part_pull, offset in parts:
            result |= part_pull(lane) << offset
        return result & WORD_MASK

    return pull


@dataclass
class LaneContext:
    """Mutable per-group state the bound lane kernels operate on."""

    #: lane arrays, one row per value slot: ``values[slot][lane]``
    values: "list[list[int]]"
    #: per memory name, one cell list per lane
    memory_arrays: "dict[str, list[list[int]]]"
    #: single-element list holding the current cycle (shared by all kernels)
    cycle_box: list
    #: one I/O system per lane
    ios: list
    #: one instrumentation per lane for stats groups, or ``None`` (fast path)
    insts: "list[Instrumentation] | None"
    #: records a lane's first error and flags it for end-of-cycle removal
    fault: Callable


# ---------------------------------------------------------------------------
# Step plans: IR step -> bind function -> bound lane kernel
# ---------------------------------------------------------------------------


def _plan_alu(step: AluStep):
    """Build the lane-kernel bind function for one ALU step."""
    name = step.component.name
    slot = step.slot
    left_desc, right_desc = step.left, step.right
    constant_funct, funct_desc = step.constant_funct, step.funct

    def bind(ctx: LaneContext) -> LaneKernel:
        values = ctx.values
        row = values[slot]
        left = bind_lane_pull(left_desc, values)
        right = bind_lane_pull(right_desc, values)
        insts = ctx.insts
        cycle_box = ctx.cycle_box
        fault = ctx.fault
        if constant_funct is not None:
            code = constant_funct
            if insts is None:
                def kernel(lanes: list) -> None:
                    for lane in lanes:
                        row[lane] = dologic(code, left(lane), right(lane))
                return kernel

            def kernel(lanes: list) -> None:
                cycle = cycle_box[0]
                for lane in lanes:
                    row[lane] = insts[lane].alu(
                        name, code, dologic(code, left(lane), right(lane)),
                        cycle,
                    )
            return kernel

        funct = bind_lane_pull(funct_desc, values)
        if insts is None:
            def kernel(lanes: list) -> None:
                cycle = cycle_box[0]
                for lane in lanes:
                    code = funct(lane)
                    if not 0 <= code < FUNCTION_COUNT:
                        fault(lane, InvalidAluFunctionError(
                            f"ALU '{name}' computed function code {code}",
                            cycle,
                        ))
                        continue
                    row[lane] = dologic(code, left(lane), right(lane))
            return kernel

        def kernel(lanes: list) -> None:
            cycle = cycle_box[0]
            for lane in lanes:
                code = funct(lane)
                if not 0 <= code < FUNCTION_COUNT:
                    fault(lane, InvalidAluFunctionError(
                        f"ALU '{name}' computed function code {code}", cycle
                    ))
                    continue
                row[lane] = insts[lane].alu(
                    name, code, dologic(code, left(lane), right(lane)), cycle
                )
        return kernel

    return bind


def _plan_selector(step: SelectorStep):
    """Build the lane-kernel bind function for one selector step."""
    name = step.component.name
    slot = step.slot
    count = step.component.case_count
    select_desc, case_descs = step.select, step.cases
    constant_cases = step.constant_cases

    def bind(ctx: LaneContext) -> LaneKernel:
        values = ctx.values
        row = values[slot]
        select = bind_lane_pull(select_desc, values)
        insts = ctx.insts
        cycle_box = ctx.cycle_box
        fault = ctx.fault
        if constant_cases is not None and insts is None:
            table = constant_cases

            def kernel(lanes: list) -> None:
                cycle = cycle_box[0]
                for lane in lanes:
                    index = select(lane)
                    if index >= count:
                        fault(lane, SelectorRangeError(
                            f"selector '{name}' index {index} exceeds its "
                            f"{count} cases", cycle,
                        ))
                        continue
                    row[lane] = table[index]
            return kernel

        cases = tuple(bind_lane_pull(desc, values) for desc in case_descs)
        if insts is None:
            def kernel(lanes: list) -> None:
                cycle = cycle_box[0]
                for lane in lanes:
                    index = select(lane)
                    if index >= count:
                        fault(lane, SelectorRangeError(
                            f"selector '{name}' index {index} exceeds its "
                            f"{count} cases", cycle,
                        ))
                        continue
                    row[lane] = cases[index](lane)
            return kernel

        def kernel(lanes: list) -> None:
            cycle = cycle_box[0]
            for lane in lanes:
                index = select(lane)
                if index >= count:
                    fault(lane, SelectorRangeError(
                        f"selector '{name}' index {index} exceeds its "
                        f"{count} cases", cycle,
                    ))
                    continue
                row[lane] = insts[lane].selector(
                    name, index, cases[index](lane), cycle
                )
        return kernel

    return bind


def _plan_memory(step: MemoryStep):
    """Build the (latch, apply) lane-kernel bind functions for one memory."""
    memory = step.component
    name = memory.name
    out_slot = step.out_slot
    size = memory.size
    address_desc, data_desc, operation_desc = (
        step.address, step.data, step.operation,
    )
    addr_slot = step.latch_base
    data_slot = step.latch_base + 1
    op_slot = step.latch_base + 2

    def bind_latch(ctx: LaneContext) -> LaneKernel:
        values = ctx.values
        address = bind_lane_pull(address_desc, values)
        data = bind_lane_pull(data_desc, values)
        operation = bind_lane_pull(operation_desc, values)
        addr_row = values[addr_slot]
        data_row = values[data_slot]
        op_row = values[op_slot]

        def kernel(lanes: list) -> None:
            for lane in lanes:
                addr_row[lane] = address(lane)
                data_row[lane] = data(lane)
                op_row[lane] = operation(lane)
        return kernel

    def bind_apply(ctx: LaneContext) -> LaneKernel:
        values = ctx.values
        addr_row = values[addr_slot]
        data_row = values[data_slot]
        op_row = values[op_slot]
        out_row = values[out_slot]
        cell_rows = ctx.memory_arrays[name]
        ios = ctx.ios
        cycle_box = ctx.cycle_box
        insts = ctx.insts
        fault = ctx.fault

        if insts is None:
            def kernel(lanes: list) -> None:
                cycle = cycle_box[0]
                for lane in lanes:
                    op_word = op_row[lane] & 3
                    address = addr_row[lane]
                    if op_word == 0:
                        if address >= size:
                            fault(lane, MemoryRangeError(
                                f"memory '{name}' address {address} outside "
                                f"its declared range 0..{size - 1}", cycle,
                            ))
                            continue
                        out_row[lane] = cell_rows[lane][address]
                    elif op_word == 1:
                        if address >= size:
                            fault(lane, MemoryRangeError(
                                f"memory '{name}' address {address} outside "
                                f"its declared range 0..{size - 1}", cycle,
                            ))
                            continue
                        out_row[lane] = cell_rows[lane][address] = \
                            data_row[lane]
                    elif op_word == 2:
                        out_row[lane] = ios[lane].read(address, cycle=cycle)
                    else:
                        data = data_row[lane]
                        ios[lane].write(address, data, cycle=cycle)
                        out_row[lane] = data
            return kernel

        def kernel(lanes: list) -> None:
            cycle = cycle_box[0]
            for lane in lanes:
                op_word = op_row[lane]
                operation = op_word & 3
                address = addr_row[lane]
                if operation == 0:
                    if address >= size:
                        fault(lane, MemoryRangeError(
                            f"memory '{name}' address {address} outside its "
                            f"declared range 0..{size - 1}", cycle,
                        ))
                        continue
                    output = cell_rows[lane][address]
                elif operation == 1:
                    if address >= size:
                        fault(lane, MemoryRangeError(
                            f"memory '{name}' address {address} outside its "
                            f"declared range 0..{size - 1}", cycle,
                        ))
                        continue
                    output = cell_rows[lane][address] = data_row[lane]
                elif operation == 2:
                    output = ios[lane].read(address, cycle=cycle)
                else:
                    output = data_row[lane]
                    ios[lane].write(address, output, cycle=cycle)
                # the hook receives the unmasked operation word, exactly
                # like every scalar backend
                out_row[lane] = insts[lane].memory(
                    name, op_word, address, output, cycle
                )
        return kernel

    return bind_latch, bind_apply


# ---------------------------------------------------------------------------
# The whole program, lane-planned
# ---------------------------------------------------------------------------


class LaneProgram:
    """A lowered program, planned for lane execution.

    Built once per :class:`CycleProgram` (via its ``artifact`` memo, see
    :func:`lane_program`); :meth:`bind` closes the plans over one lane
    group's mutable state.
    """

    def __init__(self, program: CycleProgram) -> None:
        self.program = program
        self._combinational_binds = [
            _plan_alu(step) if isinstance(step, AluStep)
            else _plan_selector(step)
            for step in program.steps
        ]
        self._memory_binds = [
            _plan_memory(step) for step in program.memory_steps
        ]

    def bind(self, ctx: LaneContext) -> "list[LaneKernel]":
        """Bind every plan to *ctx*: combinational kernels in dependency
        order, then every memory latch, then every memory apply — the
        scalar cycle structure, per lane."""
        kernels: list[LaneKernel] = [
            bind(ctx) for bind in self._combinational_binds
        ]
        latch_kernels = []
        apply_kernels = []
        for bind_latch, bind_apply in self._memory_binds:
            latch_kernels.append(bind_latch(ctx))
            apply_kernels.append(bind_apply(ctx))
        kernels.extend(latch_kernels)
        kernels.extend(apply_kernels)
        return kernels


def lane_program(program: CycleProgram) -> LaneProgram:
    """The memoized lane plan of *program* (shared like closure plans)."""
    plan, _hit = program.artifact(("lanes",), lambda: LaneProgram(program))
    return plan


@dataclass
class LaneOutcome:
    """What one lane produced: exactly one of ``result``/``error`` is set."""

    result: SimulationResult | None
    error: Exception | None


def run_lanes(
    program: CycleProgram,
    cycles: int | None = None,
    ios: Sequence = (),
    collect_stats: bool = True,
    backend_name: str = "lane",
    prepare_seconds: float = 0.0,
) -> "list[LaneOutcome]":
    """Execute one lane group over *program*: one I/O system per lane.

    Every lane runs the same cycle count with the fast-path (untraced)
    semantics; per-lane statistics are collected when *collect_stats*.
    Returns one :class:`LaneOutcome` per lane, in lane order — a lane
    whose run raised carries the exact error a scalar run would have
    raised, and its neighbours complete normally.
    """
    ios = list(ios)
    lane_count = len(ios)
    if lane_count == 0:
        return []
    cycle_count = resolve_cycles(program.spec, cycles)
    start = time.perf_counter()

    values = [[value] * lane_count for value in program.initial_values()]
    memory_arrays = {
        name: [list(cells) for _ in range(lane_count)]
        for name, cells in program.initial_memory_arrays().items()
    }
    errors: "list[Exception | None]" = [None] * lane_count
    fault_flag = [False]

    def fault(lane: int, exc: Exception) -> None:
        if errors[lane] is None:
            errors[lane] = exc
        fault_flag[0] = True

    insts = None
    if collect_stats:
        insts = [
            Instrumentation(stats=SimulationStats())
            for _ in range(lane_count)
        ]
    cycle_box = [0]
    ctx = LaneContext(
        values=values,
        memory_arrays=memory_arrays,
        cycle_box=cycle_box,
        ios=ios,
        insts=insts,
        fault=fault,
    )
    kernels = lane_program(program).bind(ctx)

    active = list(range(lane_count))
    cycle = 0
    while cycle < cycle_count and active:
        cycle_box[0] = cycle
        for kernel in kernels:
            kernel(active)
        if fault_flag[0]:
            # faulted lanes leave the group at the cycle boundary; their
            # recorded error is the first one raised, like a scalar run
            active = [lane for lane in active if errors[lane] is None]
            fault_flag[0] = False
        cycle += 1
    run_seconds = (time.perf_counter() - start) / lane_count

    outcomes: list[LaneOutcome] = []
    for lane in range(lane_count):
        error = errors[lane]
        if error is not None:
            outcomes.append(LaneOutcome(result=None, error=error))
            continue
        lane_values = [row[lane] for row in values]
        final_values = program.visible_values(lane_values)
        stats = SimulationStats()
        if insts is not None:
            inst = insts[lane]
            inst.finish(cycle_count, program.evaluations_per_cycle)
            stats = inst.stats
        outcomes.append(LaneOutcome(
            result=SimulationResult(
                backend=backend_name,
                cycles_run=cycle_count,
                final_values=final_values,
                memory_contents={
                    name: list(rows[lane])
                    for name, rows in memory_arrays.items()
                },
                outputs=list(ios[lane].outputs),
                trace=TraceLog(enabled=False),
                stats=stats,
                prepare_seconds=prepare_seconds,
                run_seconds=run_seconds,
            ),
            error=None,
        ))
    return outcomes
