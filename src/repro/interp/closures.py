"""Closure binding of lowered programs (threaded code).

The interpreter backend re-walks every expression tree through
``state.lookup`` dict lookups on every cycle; the compiled backend goes to
the other extreme and generates a whole Python module.  This module is the
classic middle point of that design space: **threaded code**.  The shared
lowering pipeline (:mod:`repro.lowering`) has already turned the
specification into flat step descriptors — slot indices into a flat
``values`` list, pre-computed masks and shifts; here each step is bound
into a Python closure over this run's mutable state, and the closures are
chained into one flat per-cycle op list.  Running a cycle is then just

    for op in ops:
        op()

with no tree walk, no name lookup and no per-cycle dataclass allocation.

Binding happens at the start of every ``run``: the plans close the step
descriptors over the run's :class:`RunContext` (the ``values`` list, the
memory cell arrays, the I/O system, and the optional shared
:class:`~repro.core.instrument.Instrumentation`).  The fast path — no
instrumentation at all — binds ops that do nothing but compute and store;
an instrumented run binds ops that route every evaluation through the same
hook methods the interpreter and the compiled backend call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.errors import (
    InvalidAluFunctionError,
    MemoryRangeError,
    SelectorRangeError,
)
from repro.lowering.descriptors import lower_expression  # noqa: F401  (re-export)
from repro.lowering.program import (
    AluStep,
    CycleProgram,
    MemoryStep,
    SelectorStep,
)
from repro.rtl.alu_ops import FUNCTION_COUNT, dologic, shift_left
from repro.rtl.bits import WORD_MASK

#: A bound per-cycle operation: computes and stores, returns nothing.
Op = Callable[[], None]
#: A bound value producer: returns one masked machine word.
Pull = Callable[[], int]


def bind_pull(desc: tuple, values: list[int]) -> Pull:
    """Bind a descriptor to *values*, returning a zero-argument producer.

    Whole-component references mask on read, like the interpreter's
    ``ComponentRef.evaluate`` (every stored value is already a word:
    inputs and overrides are masked where they enter, and initial values
    past the word are refused).
    """
    kind = desc[0]
    if kind == "const":
        constant = desc[1]
        return lambda: constant
    if kind == "ref":
        slot = desc[1]
        return lambda: values[slot] & WORD_MASK
    if kind == "bits":
        _, slot, low, mask = desc
        if low == 0:
            return lambda: values[slot] & mask
        return lambda: (values[slot] >> low) & mask
    parts = tuple(
        (bind_pull(part, values), offset) for part, offset in desc[1]
    )
    if len(parts) == 2:
        (pull_a, off_a), (pull_b, off_b) = parts
        return lambda: ((pull_a() << off_a) | (pull_b() << off_b)) & WORD_MASK

    def pull() -> int:
        result = 0
        for part_pull, offset in parts:
            result |= part_pull() << offset
        return result & WORD_MASK

    return pull


# ---------------------------------------------------------------------------
# ALU compute closures, specialised per constant function code
# ---------------------------------------------------------------------------

_M = WORD_MASK


def _alu_zero(l: Pull, r: Pull) -> Pull:
    return lambda: 0


def _alu_right(l: Pull, r: Pull) -> Pull:
    return r


def _alu_left(l: Pull, r: Pull) -> Pull:
    return l


def _alu_not(l: Pull, r: Pull) -> Pull:
    return lambda: _M - l()


def _alu_add(l: Pull, r: Pull) -> Pull:
    return lambda: (l() + r()) & _M


def _alu_sub(l: Pull, r: Pull) -> Pull:
    return lambda: (l() - r()) & _M


def _alu_shift_left(l: Pull, r: Pull) -> Pull:
    return lambda: shift_left(l(), r())


def _alu_mul(l: Pull, r: Pull) -> Pull:
    return lambda: (l() * r()) & _M


def _alu_and(l: Pull, r: Pull) -> Pull:
    return lambda: l() & r()


def _alu_or(l: Pull, r: Pull) -> Pull:
    return lambda: l() | r()


def _alu_xor(l: Pull, r: Pull) -> Pull:
    return lambda: l() ^ r()


def _alu_eq(l: Pull, r: Pull) -> Pull:
    return lambda: 1 if l() == r() else 0


def _alu_lt(l: Pull, r: Pull) -> Pull:
    return lambda: 1 if l() < r() else 0


#: Closure builders indexed by ALU function code (mirrors ``dologic``).
ALU_CLOSURE_BUILDERS: tuple[Callable[[Pull, Pull], Pull], ...] = (
    _alu_zero,       # 0 zero
    _alu_right,      # 1 right
    _alu_left,       # 2 left
    _alu_not,        # 3 not-left
    _alu_add,        # 4 add
    _alu_sub,        # 5 subtract
    _alu_shift_left, # 6 shift-left
    _alu_mul,        # 7 multiply
    _alu_and,        # 8 and
    _alu_or,         # 9 or
    _alu_xor,        # 10 xor
    _alu_zero,       # 11 unused
    _alu_eq,         # 12 equal
    _alu_lt,         # 13 less-than
)


# ---------------------------------------------------------------------------
# Runtime context: everything a bind function may close over
# ---------------------------------------------------------------------------


@dataclass
class RunContext:
    """Mutable per-run state the bound closures operate on."""

    #: flat value array: combinational slots, memory-output slots, latch slots
    values: list[int]
    #: one mutable cell list per memory, keyed by name
    memory_arrays: dict[str, list[int]]
    #: single-element list holding the current cycle (shared by all closures)
    cycle_box: list[int]
    io: object = None
    #: the shared instrumentation layer, or ``None`` for the fast path
    inst: object = None


# ---------------------------------------------------------------------------
# Step plans: IR step -> bind function -> bound closure
# ---------------------------------------------------------------------------


def _plan_alu(step: AluStep):
    """Build the bind function for one ALU step."""
    name = step.component.name
    slot = step.slot
    left_desc, right_desc = step.left, step.right
    constant_funct, funct_desc = step.constant_funct, step.funct

    def bind(ctx: RunContext) -> Op:
        values = ctx.values
        left = bind_pull(left_desc, values)
        right = bind_pull(right_desc, values)
        inst = ctx.inst
        cycle_box = ctx.cycle_box
        if constant_funct is not None:
            compute = ALU_CLOSURE_BUILDERS[constant_funct](left, right)
            if inst is None:
                def op() -> None:
                    values[slot] = compute()
                return op
            hook = inst.alu
            code = constant_funct

            def op() -> None:
                values[slot] = hook(name, code, compute(), cycle_box[0])
            return op

        funct = bind_pull(funct_desc, values)
        if inst is None:
            def op() -> None:
                code = funct()
                if not 0 <= code < FUNCTION_COUNT:
                    raise InvalidAluFunctionError(
                        f"ALU '{name}' computed function code {code}",
                        cycle_box[0],
                    )
                values[slot] = dologic(code, left(), right())
            return op

        hook = inst.alu

        def op() -> None:
            code = funct()
            if not 0 <= code < FUNCTION_COUNT:
                raise InvalidAluFunctionError(
                    f"ALU '{name}' computed function code {code}", cycle_box[0]
                )
            values[slot] = hook(
                name, code, dologic(code, left(), right()), cycle_box[0]
            )
        return op

    return bind


def _plan_selector(step: SelectorStep):
    """Build the bind function for one selector step."""
    name = step.component.name
    slot = step.slot
    count = step.component.case_count
    select_desc, case_descs = step.select, step.cases
    constant_cases = step.constant_cases

    def bind(ctx: RunContext) -> Op:
        values = ctx.values
        select = bind_pull(select_desc, values)
        inst = ctx.inst
        cycle_box = ctx.cycle_box
        if constant_cases is not None and inst is None:
            table = constant_cases

            def op() -> None:
                index = select()
                if index >= count:
                    raise SelectorRangeError(
                        f"selector '{name}' index {index} exceeds its "
                        f"{count} cases", cycle_box[0],
                    )
                values[slot] = table[index]
            return op
        cases = tuple(bind_pull(desc, values) for desc in case_descs)
        if inst is None:
            def op() -> None:
                index = select()
                if index >= count:
                    raise SelectorRangeError(
                        f"selector '{name}' index {index} exceeds its "
                        f"{count} cases", cycle_box[0],
                    )
                values[slot] = cases[index]()
            return op

        hook = inst.selector

        def op() -> None:
            index = select()
            if index >= count:
                raise SelectorRangeError(
                    f"selector '{name}' index {index} exceeds its "
                    f"{count} cases", cycle_box[0],
                )
            values[slot] = hook(name, index, cases[index](), cycle_box[0])
        return op

    return bind


def _plan_memory(step: MemoryStep):
    """Build the (latch, apply) bind functions for one memory step."""
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

    def bind_latch(ctx: RunContext) -> Op:
        values = ctx.values
        address = bind_pull(address_desc, values)
        data = bind_pull(data_desc, values)
        operation = bind_pull(operation_desc, values)

        def op() -> None:
            values[addr_slot] = address()
            values[data_slot] = data()
            values[op_slot] = operation()
        return op

    def bind_apply(ctx: RunContext) -> Op:
        values = ctx.values
        cells = ctx.memory_arrays[name]
        io = ctx.io
        cycle_box = ctx.cycle_box
        inst = ctx.inst
        io_read = io.read
        io_write = io.write

        if inst is None:
            def op() -> None:
                op_word = values[op_slot] & 3
                address = values[addr_slot]
                if op_word == 0:
                    if address >= size:
                        raise MemoryRangeError(
                            f"memory '{name}' address {address} outside its "
                            f"declared range 0..{size - 1}", cycle_box[0],
                        )
                    values[out_slot] = cells[address]
                elif op_word == 1:
                    if address >= size:
                        raise MemoryRangeError(
                            f"memory '{name}' address {address} outside its "
                            f"declared range 0..{size - 1}", cycle_box[0],
                        )
                    values[out_slot] = cells[address] = values[data_slot]
                elif op_word == 2:
                    values[out_slot] = (
                        io_read(address, cycle=cycle_box[0]) & WORD_MASK)
                else:
                    data = values[data_slot]
                    io_write(address, data, cycle=cycle_box[0])
                    values[out_slot] = data
            return op

        hook = inst.memory

        def op() -> None:
            op_word = values[op_slot]
            operation = op_word & 3
            address = values[addr_slot]
            if operation == 0:
                if address >= size:
                    raise MemoryRangeError(
                        f"memory '{name}' address {address} outside its "
                        f"declared range 0..{size - 1}", cycle_box[0],
                    )
                output = cells[address]
            elif operation == 1:
                if address >= size:
                    raise MemoryRangeError(
                        f"memory '{name}' address {address} outside its "
                        f"declared range 0..{size - 1}", cycle_box[0],
                    )
                output = cells[address] = values[data_slot]
            elif operation == 2:
                output = io_read(address, cycle=cycle_box[0]) & WORD_MASK
            else:
                output = values[data_slot]
                io_write(address, output, cycle=cycle_box[0])
            values[out_slot] = hook(
                name, op_word, address, output, cycle_box[0]
            )
        return op

    return bind_latch, bind_apply


# ---------------------------------------------------------------------------
# The whole program
# ---------------------------------------------------------------------------


class ThreadedProgram:
    """A lowered program, ready to bind into closures.

    Built from a :class:`~repro.lowering.program.CycleProgram` (usually via
    its ``artifact`` memo, so every prepared simulation of the same cached
    program shares one plan set); :meth:`bind` is called at the start of
    every ``run`` to close the plans over that run's mutable state.
    """

    def __init__(self, program: CycleProgram) -> None:
        self.program = program
        self.slots = program.slots
        self._combinational_binds = [
            _plan_alu(step) if isinstance(step, AluStep) else _plan_selector(step)
            for step in program.steps
        ]
        self._memory_binds = [
            _plan_memory(step) for step in program.memory_steps
        ]

    def bind(self, ctx: RunContext) -> list[Op]:
        """Bind every plan to *ctx* and return the flat per-cycle op list."""
        ops: list[Op] = [bind(ctx) for bind in self._combinational_binds]
        inst = ctx.inst
        if inst is not None and inst.traced:
            ops.append(self._bind_cycle_trace(ctx))
        latch_ops = []
        apply_ops = []
        for bind_latch, bind_apply in self._memory_binds:
            latch_ops.append(bind_latch(ctx))
            apply_ops.append(bind_apply(ctx))
        ops.extend(latch_ops)
        ops.extend(apply_ops)
        return ops

    def _bind_cycle_trace(self, ctx: RunContext) -> Op:
        values = ctx.values
        cycle_box = ctx.cycle_box
        inst = ctx.inst
        slots = self.slots
        # resolve the traced names down to slots once per run
        entries = tuple((name, slots[name]) for name in inst.traced)
        record = inst.record_cycle
        wants = inst.wants_cycle_trace

        def op() -> None:
            if not wants():
                return
            # stored values, exactly like the interpreter's state.lookup
            record(
                cycle_box[0], {name: values[slot] for name, slot in entries}
            )
        return op
