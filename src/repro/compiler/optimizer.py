"""Code-generation options and constant analysis (Section 4.4 of the paper).

"In implementing ASIM II, an emphasis was placed on optimization of the code
produced by the compiler ...  If the function is a constant, code is
generated which performs the function inline, rather than call the
procedure.  Similarly, if the memory operation is a constant, the case
structure is eliminated and only the appropriate action is performed."

This module holds the knobs controlling those optimizations (so the
ablation benchmark can switch them off) and the small analyses deciding
when each applies.

Two more specialisations need no knob, because they only drop work that
cannot matter.  A selector dispatches on its index the way the paper's
Figure 4.2 ``case`` statement does, one test per *distinct* arm rather
than one per case index, with the widest arm last behind the case-count
check (:mod:`repro.compiler.codegen_python`).  And a memory whose
address is a constant inside its cells (:func:`static_memory_address`:
every one-cell register at address 0) uses that address directly, with
no address latch and no bounds check; a constant address outside the
cells keeps both, so the run fails where the interpreter's does.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.rtl.alu_ops import is_valid_function
from repro.rtl.components import Alu, Memory, Selector
from repro.rtl.memory_ops import should_trace_read, should_trace_write
from repro.rtl.spec import Specification


@dataclass(frozen=True)
class CodegenOptions:
    """Switches controlling what the code generators emit."""

    #: Inline ALUs whose function expression is constant (Figure 4.1).
    inline_constant_functions: bool = True
    #: Emit only the selected branch for memories with a constant operation
    #: (Figure 4.3 / Section 4.4).
    specialize_constant_memory_ops: bool = True
    #: Turn selectors whose cases are all constants into a tuple lookup
    #: (an extension of the paper's constant-folding idea).
    fold_constant_selectors: bool = True
    #: Emit per-cycle trace statements for components marked with ``*``.
    emit_cycle_trace: bool = True
    #: Emit "Read from"/"Write to" trace statements where the memory
    #: operation can carry trace bits.
    emit_access_trace: bool = True
    #: Emit bounds checks for selector indices and memory addresses.
    emit_bounds_checks: bool = True

    @classmethod
    def unoptimized(cls) -> "CodegenOptions":
        """Everything generic: the ablation baseline."""
        return cls(
            inline_constant_functions=False,
            specialize_constant_memory_ops=False,
            fold_constant_selectors=False,
        )

    @classmethod
    def fastest(cls) -> "CodegenOptions":
        """All optimizations on, no tracing (benchmark configuration)."""
        return cls(emit_cycle_trace=False, emit_access_trace=False)


# ---------------------------------------------------------------------------
# Constant analyses
# ---------------------------------------------------------------------------


def constant_alu_function(alu: Alu) -> int | None:
    """The ALU's function code if its function expression is constant."""
    if not alu.funct.is_constant:
        return None
    code = alu.funct.constant_value()
    if not is_valid_function(code):
        return None
    return code


def constant_memory_operation(memory: Memory) -> int | None:
    """The memory's operation word if its operation expression is constant."""
    if not memory.operation.is_constant:
        return None
    return memory.operation.constant_value()


def static_memory_address(memory: Memory) -> int | None:
    """The memory's address if it is a constant inside its cell range.

    Such a port needs neither an address latch nor a bounds check; a
    constant address outside the range keeps both, so the run still fails
    at the cycle the memory is first read or written.
    """
    if not memory.address.is_constant:
        return None
    address = memory.address.constant_value()
    return address if address < memory.size else None


def selector_constant_cases(selector: Selector) -> list[int] | None:
    """The selector's case values if every case expression is constant."""
    if all(case.is_constant for case in selector.cases):
        return [case.constant_value() for case in selector.cases]
    return None


def memory_may_trace_writes(memory: Memory) -> bool:
    """Could this memory ever emit a "Write to" trace line?

    Mirrors the paper's ``numberofbits`` heuristic: a non-constant operation
    expression at least 3 bits wide may carry the trace-writes bit; a
    constant operation traces writes exactly when bits 0 and 2 are set.
    """
    constant = constant_memory_operation(memory)
    if constant is not None:
        return should_trace_write(constant)
    return memory.operation.total_width >= 3


def memory_may_trace_reads(memory: Memory) -> bool:
    """Could this memory ever emit a "Read from" trace line?"""
    constant = constant_memory_operation(memory)
    if constant is not None:
        return should_trace_read(constant)
    return memory.operation.total_width >= 4


@dataclass(frozen=True)
class OptimizationReport:
    """Summary of which optimizations applied to a specification."""

    inlined_alus: tuple[str, ...]
    generic_alus: tuple[str, ...]
    specialized_memories: tuple[str, ...]
    generic_memories: tuple[str, ...]
    folded_selectors: tuple[str, ...]
    generic_selectors: tuple[str, ...]

    @property
    def inlined_alu_count(self) -> int:
        return len(self.inlined_alus)

    @property
    def specialized_memory_count(self) -> int:
        return len(self.specialized_memories)


def analyze_specification(
    spec: Specification, options: CodegenOptions | None = None
) -> OptimizationReport:
    """Report which components the generators will specialise under *options*."""
    options = options or CodegenOptions()
    inlined, generic_alus = [], []
    for alu in spec.alus():
        if options.inline_constant_functions and constant_alu_function(alu) is not None:
            inlined.append(alu.name)
        else:
            generic_alus.append(alu.name)
    specialized, generic_memories = [], []
    for memory in spec.memories():
        if (options.specialize_constant_memory_ops
                and constant_memory_operation(memory) is not None):
            specialized.append(memory.name)
        else:
            generic_memories.append(memory.name)
    folded, generic_selectors = [], []
    for selector in spec.selectors():
        if (options.fold_constant_selectors
                and selector_constant_cases(selector) is not None):
            folded.append(selector.name)
        else:
            generic_selectors.append(selector.name)
    return OptimizationReport(
        inlined_alus=tuple(inlined),
        generic_alus=tuple(generic_alus),
        specialized_memories=tuple(specialized),
        generic_memories=tuple(generic_memories),
        folded_selectors=tuple(folded),
        generic_selectors=tuple(generic_selectors),
    )
