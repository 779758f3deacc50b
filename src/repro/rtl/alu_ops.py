"""ALU function semantics (the paper's ``dologic`` routine).

Appendix A lists the fourteen ALU function codes; the generated Pascal code
in Appendix E shows how each is computed on the 31-bit machine word.  The
implementation below is the single source of truth used by the interpreter,
by the Python code generator's runtime and by the optimizer when it folds a
constant-function ALU into an inline operation.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import InvalidAluFunctionError
from repro.rtl.bits import WORD_BITS, WORD_MASK, mask_word

# Symbolic names for the fourteen function codes.
FN_ZERO = 0
FN_RIGHT = 1
FN_LEFT = 2
FN_NOT = 3
FN_ADD = 4
FN_SUB = 5
FN_SHIFT_LEFT = 6
FN_MUL = 7
FN_AND = 8
FN_OR = 9
FN_XOR = 10
FN_UNUSED = 11
FN_EQ = 12
FN_LT = 13

#: Human-readable names, indexed by function code.
FUNCTION_NAMES = (
    "zero",
    "right",
    "left",
    "not-left",
    "add",
    "subtract",
    "shift-left",
    "multiply",
    "and",
    "or",
    "xor",
    "unused",
    "equal",
    "less-than",
)

#: Number of defined ALU functions.
FUNCTION_COUNT = len(FUNCTION_NAMES)


@dataclass(frozen=True)
class AluFunctionInfo:
    """Static description of one ALU function code.

    ``python_template`` is the expression the code generator inlines when the
    function input of an ALU is a constant (Section 4.4 of the paper);
    ``{l}`` and ``{r}`` are replaced with the left/right operand expressions.
    ``pascal_template`` is the equivalent used by the Pascal backend.
    """

    code: int
    name: str
    uses_left: bool
    uses_right: bool
    python_template: str
    pascal_template: str


_MASK = str(WORD_MASK)

FUNCTION_TABLE: tuple[AluFunctionInfo, ...] = (
    AluFunctionInfo(FN_ZERO, "zero", False, False, "0", "0"),
    AluFunctionInfo(FN_RIGHT, "right", False, True, "({r})", "{r}"),
    AluFunctionInfo(FN_LEFT, "left", True, False, "({l})", "{l}"),
    AluFunctionInfo(
        FN_NOT, "not-left", True, False,
        f"({_MASK} - ({{l}}))", f"{_MASK} - {{l}}",
    ),
    AluFunctionInfo(
        FN_ADD, "add", True, True,
        f"((({{l}}) + ({{r}})) & {_MASK})", "{l} + {r}",
    ),
    AluFunctionInfo(
        FN_SUB, "subtract", True, True,
        f"((({{l}}) - ({{r}})) & {_MASK})", "{l} - {r}",
    ),
    AluFunctionInfo(
        FN_SHIFT_LEFT, "shift-left", True, True,
        "_shift_left({l}, {r})", "dologic(6, {l}, {r})",
    ),
    AluFunctionInfo(
        FN_MUL, "multiply", True, True,
        f"((({{l}}) * ({{r}})) & {_MASK})", "{l} * {r}",
    ),
    AluFunctionInfo(
        FN_AND, "and", True, True,
        "(({l}) & ({r}))", "land({l}, {r})",
    ),
    AluFunctionInfo(
        FN_OR, "or", True, True,
        "(({l}) | ({r}))", "{l} + {r} - land({l}, {r})",
    ),
    AluFunctionInfo(
        FN_XOR, "xor", True, True,
        "(({l}) ^ ({r}))", "{l} + {r} - land({l}, {r}) * 2",
    ),
    AluFunctionInfo(FN_UNUSED, "unused", False, False, "0", "0"),
    AluFunctionInfo(
        FN_EQ, "equal", True, True,
        "(1 if ({l}) == ({r}) else 0)", "if {l} = {r} then 1 else 0",
    ),
    AluFunctionInfo(
        FN_LT, "less-than", True, True,
        "(1 if ({l}) < ({r}) else 0)", "if {l} < {r} then 1 else 0",
    ),
)


def shift_left(left: int, right: int) -> int:
    """``left * 2**right`` wrapped into the machine word (function 6)."""
    if right <= 0:
        return mask_word(left)
    if right >= WORD_BITS:
        return 0
    return mask_word(left << right)


def dologic(funct: int, left: int, right: int) -> int:
    """Evaluate ALU function *funct* on *left*/*right* (paper's ``dologic``).

    All operands and results are 31-bit unsigned words; arithmetic wraps.
    An unknown function code raises :class:`InvalidAluFunctionError`, which
    corresponds to the runtime case-statement failure in the generated
    Pascal code.  The word masks are inline: every ALU evaluation of every
    backend comes through here, and ``mask_word`` would be two more calls.
    """
    left &= WORD_MASK
    right &= WORD_MASK
    if funct == FN_ZERO or funct == FN_UNUSED:
        return 0
    if funct == FN_RIGHT:
        return right
    if funct == FN_LEFT:
        return left
    if funct == FN_NOT:
        return WORD_MASK - left
    if funct == FN_ADD:
        return (left + right) & WORD_MASK
    if funct == FN_SUB:
        return (left - right) & WORD_MASK
    if funct == FN_SHIFT_LEFT:
        return shift_left(left, right)
    if funct == FN_MUL:
        return (left * right) & WORD_MASK
    if funct == FN_AND:
        return left & right
    if funct == FN_OR:
        return left | right
    if funct == FN_XOR:
        return left ^ right
    if funct == FN_EQ:
        return 1 if left == right else 0
    if funct == FN_LT:
        return 1 if left < right else 0
    raise InvalidAluFunctionError(f"unknown ALU function code {funct}")


def function_info(funct: int) -> AluFunctionInfo:
    """Return the static description for ALU function code *funct*."""
    if 0 <= funct < FUNCTION_COUNT:
        return FUNCTION_TABLE[funct]
    raise InvalidAluFunctionError(f"unknown ALU function code {funct}")


def is_valid_function(funct: int) -> bool:
    """Return True if *funct* is one of the fourteen defined codes."""
    return 0 <= funct < FUNCTION_COUNT
