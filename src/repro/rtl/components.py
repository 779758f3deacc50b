"""Component model: the three ASIM II primitives.

Chapter 3 of the paper defines exactly three component kinds:

* ``A name function left right`` — an ALU,
* ``S name selector value0 ... valuen`` — a selector (multiplexor),
* ``M name address data operation number [initial values]`` — a memory.

Every field except a memory's cell count is an expression.  Components are
plain frozen dataclasses; all behaviour (evaluation, code generation) lives
in the interpreter and compiler packages so that a parsed specification is a
purely declarative artifact.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Iterator

from repro.errors import SpecificationError
from repro.rtl.bits import WORD_MASK
from repro.rtl.expressions import Expression


class ComponentKind(Enum):
    """The three primitive kinds, with their specification letters."""

    ALU = "A"
    SELECTOR = "S"
    MEMORY = "M"


@dataclass(frozen=True)
class Component:
    """Base class for the three primitives."""

    name: str

    @property
    def kind(self) -> ComponentKind:
        raise NotImplementedError

    @property
    def is_combinational(self) -> bool:
        """ALUs and selectors are combinational; memories are stateful."""
        return self.kind is not ComponentKind.MEMORY

    def source_expressions(self) -> Iterator[Expression]:
        """Yield every expression appearing in this component's definition."""
        raise NotImplementedError

    def referenced_names(self) -> set[str]:
        """Names of all components read by this component's expressions."""
        names: set[str] = set()
        for expression in self.source_expressions():
            names |= expression.referenced_names()
        return names


@dataclass(frozen=True)
class Alu(Component):
    """``A name function left right``.

    The function expression selects one of the fourteen ALU operations; when
    it is constant the compiler inlines the operation (Figure 4.1).
    """

    funct: Expression = field(default=None)  # type: ignore[assignment]
    left: Expression = field(default=None)  # type: ignore[assignment]
    right: Expression = field(default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        for label, expr in (("function", self.funct), ("left", self.left),
                            ("right", self.right)):
            if expr is None:
                raise SpecificationError(
                    f"ALU '{self.name}' is missing its {label} expression"
                )

    @property
    def kind(self) -> ComponentKind:
        return ComponentKind.ALU

    @property
    def has_constant_function(self) -> bool:
        return self.funct.is_constant

    def source_expressions(self) -> Iterator[Expression]:
        yield self.funct
        yield self.left
        yield self.right


@dataclass(frozen=True)
class Selector(Component):
    """``S name selector value0 value1 ... valuen``.

    The selector expression indexes into the case list; an index past the
    end of the list is a runtime error (Section 4.3).
    """

    select: Expression = field(default=None)  # type: ignore[assignment]
    cases: tuple[Expression, ...] = ()

    def __post_init__(self) -> None:
        if self.select is None:
            raise SpecificationError(
                f"selector '{self.name}' is missing its select expression"
            )
        if not self.cases:
            raise SpecificationError(
                f"selector '{self.name}' has no case values"
            )

    @property
    def kind(self) -> ComponentKind:
        return ComponentKind.SELECTOR

    @property
    def case_count(self) -> int:
        return len(self.cases)

    def source_expressions(self) -> Iterator[Expression]:
        yield self.select
        yield from self.cases


@dataclass(frozen=True)
class Memory(Component):
    """``M name address data operation number [initial values]``.

    ``size`` is the number of cells.  ``initial_values`` is non-empty exactly
    when the specification declared the count negative (Appendix A); it then
    holds one value per cell.  A single-cell memory models a register or
    flip-flop, larger memories model RAM/ROM.  Memories have a one-cycle
    output delay: the value visible to other components during cycle *t* is
    the result of the operation performed during cycle *t - 1*.
    """

    address: Expression = field(default=None)  # type: ignore[assignment]
    data: Expression = field(default=None)  # type: ignore[assignment]
    operation: Expression = field(default=None)  # type: ignore[assignment]
    size: int = 0
    initial_values: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        for label, expr in (("address", self.address), ("data", self.data),
                            ("operation", self.operation)):
            if expr is None:
                raise SpecificationError(
                    f"memory '{self.name}' is missing its {label} expression"
                )
        if self.size <= 0:
            raise SpecificationError(
                f"memory '{self.name}' must have at least one cell"
            )
        if self.initial_values and len(self.initial_values) != self.size:
            raise SpecificationError(
                f"memory '{self.name}' declares {self.size} cells but "
                f"{len(self.initial_values)} initial values"
            )
        if any(value < 0 for value in self.initial_values):
            raise SpecificationError(
                f"memory '{self.name}' has a negative initial value"
            )
        if any(value > WORD_MASK for value in self.initial_values):
            raise SpecificationError(
                f"memory '{self.name}' has an initial value past the "
                "31-bit word"
            )

    @property
    def kind(self) -> ComponentKind:
        return ComponentKind.MEMORY

    @property
    def is_register(self) -> bool:
        """Single-cell memories correspond to registers / flip-flops."""
        return self.size == 1

    @property
    def has_initial_values(self) -> bool:
        return bool(self.initial_values)

    @property
    def has_constant_operation(self) -> bool:
        return self.operation.is_constant

    def initial_cell_values(self) -> list[int]:
        """Cell contents at cycle 0 (zeros unless an init list was given)."""
        if self.initial_values:
            return list(self.initial_values)
        return [0] * self.size

    @property
    def initial_output(self) -> int:
        """The latched output visible during cycle 0.

        The paper initialises every latched output to zero; this reproduction
        makes one hardware-natural clarification: a *register* (single-cell
        memory) declared with an initial value exposes that value from cycle
        0, exactly as an initialised flip-flop would.  Multi-cell memories
        still start with a zero output.
        """
        if self.is_register and self.initial_values:
            return self.initial_values[0]
        return 0

    def source_expressions(self) -> Iterator[Expression]:
        yield self.address
        yield self.data
        yield self.operation


#: Mapping from specification letter to component class, used by the parser.
COMPONENT_LETTERS = {
    "A": Alu,
    "S": Selector,
    "M": Memory,
}
