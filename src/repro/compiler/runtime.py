"""Runtime support imported by generated Python simulators.

The paper's generated Pascal programs carry a small runtime with them
(``land``, ``dologic``, ``sinput``, ``soutput``).  Generated Python modules
instead import these helpers; they are thin wrappers around the shared
semantics in :mod:`repro.rtl` plus the error constructors the generated
bounds checks call.
"""

from __future__ import annotations

from repro.errors import (
    InvalidAluFunctionError,
    MemoryRangeError,
    SelectorRangeError,
)
from repro.rtl.alu_ops import dologic, shift_left
from repro.rtl.bits import WORD_MASK, land

__all__ = [
    "WORD_MASK",
    "dologic",
    "shift_left",
    "land",
    "selector_case_error",
    "memory_range_error",
    "InvalidAluFunctionError",
    "alu_function_error",
]


def selector_case_error(name: str, index: int, cases: int, cycle: int) -> None:
    """Raise the runtime error for a selector index past its case list."""
    raise SelectorRangeError(
        f"selector '{name}' index {index} exceeds its {cases} cases", cycle
    )


def memory_range_error(name: str, address: int, size: int, cycle: int) -> None:
    """Raise the runtime error for a memory address outside 0..size-1."""
    raise MemoryRangeError(
        f"memory '{name}' address {address} outside its declared range "
        f"0..{size - 1}",
        cycle,
    )


def alu_function_error(name: str, code: int, cycle: int) -> InvalidAluFunctionError:
    """The runtime error for an ALU whose function code is outside
    0..13, returned for the generated handler to raise or record."""
    return InvalidAluFunctionError(
        f"ALU '{name}' computed function code {code}", cycle
    )
