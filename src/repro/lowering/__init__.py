"""Shared lowering pipeline: specification -> CycleProgram IR.

One lowering, three consumers.  ``lower`` (and its cache-aware sibling
``lower_cached``) turns a :class:`~repro.rtl.spec.Specification` into a
:class:`CycleProgram` — a flat, picklable, dependency-scheduled step list
with precomputed masks and slot layouts.
The interpreter walks the program's schedule, the threaded backend binds
its descriptors into closures, and the compiled backend generates code from
it; the prepare cache stores the program itself rather than any
backend-private artifact.
"""

from repro.lowering.descriptors import lower_expression
from repro.lowering.program import (
    AluStep,
    CycleProgram,
    MemoryStep,
    SelectorStep,
    lower,
    lower_cached,
)

__all__ = [
    "AluStep",
    "CycleProgram",
    "MemoryStep",
    "SelectorStep",
    "lower",
    "lower_cached",
    "lower_expression",
]
