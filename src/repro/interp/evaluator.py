"""Per-component evaluation rules used by the interpreter.

These functions implement the semantics of Chapter 4: how one ALU, selector
or memory behaves during a single simulation cycle.  They are kept separate
from the interpreter's driving loop so that analysis passes (fault
injection, coverage) can reuse them.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import (
    InvalidAluFunctionError,
    MemoryRangeError,
    SelectorRangeError,
)
from repro.interp.state import MachineState
from repro.rtl.alu_ops import dologic, is_valid_function
from repro.rtl.bits import WORD_MASK
from repro.rtl.components import Alu, Memory, Selector
from repro.rtl.memory_ops import MemoryOperation, decode_operation


def evaluate_alu(alu: Alu, state: MachineState) -> tuple[int, int]:
    """Return ``(function_code, value)`` for *alu* this cycle."""
    funct = alu.funct.evaluate(state.lookup)
    if not is_valid_function(funct):
        raise InvalidAluFunctionError(
            f"ALU '{alu.name}' computed function code {funct}", state.cycle
        )
    left = alu.left.evaluate(state.lookup)
    right = alu.right.evaluate(state.lookup)
    return funct, dologic(funct, left, right)


def evaluate_selector(selector: Selector, state: MachineState) -> tuple[int, int]:
    """Return ``(case_index, value)`` for *selector* this cycle."""
    index = selector.select.evaluate(state.lookup)
    if index >= selector.case_count:
        raise SelectorRangeError(
            f"selector '{selector.name}' index {index} exceeds its "
            f"{selector.case_count} cases",
            state.cycle,
        )
    return index, selector.cases[index].evaluate(state.lookup)


@dataclass(frozen=True)
class MemoryRequest:
    """The latched address/data/operation of one memory for one cycle.

    All three expressions are evaluated while the cycle's combinational
    values are still current; the update itself is applied afterwards so
    that every memory sees a consistent pre-update view (all registers clock
    together).
    """

    memory: Memory
    address: int
    data: int
    operation: int


def latch_memory_request(memory: Memory, state: MachineState) -> MemoryRequest:
    """Evaluate a memory's address, data and operation expressions."""
    return MemoryRequest(
        memory=memory,
        address=memory.address.evaluate(state.lookup),
        data=memory.data.evaluate(state.lookup),
        operation=memory.operation.evaluate(state.lookup),
    )


@dataclass(frozen=True)
class MemoryEffect:
    """What applying a :class:`MemoryRequest` did."""

    memory: str
    operation: int
    address: int
    new_output: int
    wrote_cell: bool
    trace_write: bool
    trace_read: bool


def apply_memory_request(
    request: MemoryRequest, state: MachineState, io
) -> MemoryEffect:
    """Perform the memory operation and latch the new output value."""
    memory = request.memory
    decoded = decode_operation(request.operation)
    address = request.address
    wrote_cell = False
    if decoded.operation in (MemoryOperation.READ, MemoryOperation.WRITE):
        if address >= memory.size:
            raise MemoryRangeError(
                f"memory '{memory.name}' address {address} outside its "
                f"declared range 0..{memory.size - 1}",
                state.cycle,
            )
    if decoded.operation is MemoryOperation.READ:
        new_output = state.read_cell(memory.name, address)
    elif decoded.operation is MemoryOperation.WRITE:
        new_output = request.data
        state.write_cell(memory.name, address, request.data)
        wrote_cell = True
    elif decoded.operation is MemoryOperation.INPUT:
        new_output = io.read(address, cycle=state.cycle) & WORD_MASK
    else:  # OUTPUT
        new_output = request.data
        io.write(address, request.data, cycle=state.cycle)
    state.set_memory_output(memory.name, new_output)
    return MemoryEffect(
        memory=memory.name,
        operation=request.operation,
        address=address,
        new_output=new_output,
        wrote_cell=wrote_cell,
        trace_write=decoded.trace_write,
        trace_read=decoded.trace_read,
    )
