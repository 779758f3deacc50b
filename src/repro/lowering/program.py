"""The shared lowering pipeline: ``Specification`` -> ``CycleProgram`` IR.

The paper frames ASIM and ASIM II as two ends of one design space — tables
interpreted per cycle versus a compiled program.  Historically each backend
in this package re-derived its own view of a specification (schedule, slot
layout, masks, observation hooks).  This module centralises that work into
one intermediate representation every backend consumes:

``lower(spec)`` dependency-schedules the specification
(:mod:`repro.rtl.dependency`), assigns every component a value slot, and
lowers every expression to flat descriptors
(:mod:`repro.lowering.descriptors`).  The product is a
:class:`CycleProgram`: a picklable, backend-neutral program holding one
flat step list per specification — the schedule every run executes,
instrumented or not, so every backend evaluates (and counts) the same
components.

``lower_cached`` keys the whole IR on the prepare cache
(:mod:`repro.compiler.cache`), so the cache stores one backend-neutral
artifact per specification; backend-private derivations (closure plans,
generated modules) are memoized *on* the program via
:meth:`CycleProgram.artifact` and therefore shared by every prepared
simulation that came out of the same cache entry.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Callable

from repro.compiler.cache import PrepareCache
from repro.lowering.descriptors import lower_expression
from repro.rtl.alu_ops import FUNCTION_COUNT
from repro.rtl.components import Alu, Component, Memory, Selector
from repro.rtl.dependency import sort_combinational
from repro.rtl.spec import Specification


@dataclass(frozen=True)
class AluStep:
    """One ALU evaluation: descriptors plus the component it came from."""

    component: Alu
    slot: int
    left: tuple
    right: tuple
    #: descriptor of a dynamic function expression, or ``None`` when constant
    funct: tuple | None
    #: the constant, *valid* function code (``None`` when dynamic or invalid)
    constant_funct: int | None


@dataclass(frozen=True)
class SelectorStep:
    """One selector evaluation: select/case descriptors plus metadata."""

    component: Selector
    slot: int
    select: tuple
    cases: tuple[tuple, ...]
    #: folded case table when every case is constant, else ``None``
    constant_cases: tuple[int, ...] | None


@dataclass(frozen=True)
class MemoryStep:
    """One memory latch + update: descriptors and scratch-slot layout.

    ``latch_base`` indexes three scratch slots in the values array holding
    this memory's latched address / data / operation for the current cycle,
    so every memory sees a consistent pre-update view (all registers clock
    together) without allocating a request object per cycle.
    """

    component: Memory
    out_slot: int
    latch_base: int
    address: tuple
    data: tuple
    operation: tuple


def _combinational_step(component: Component, slots: dict[str, int]):
    if isinstance(component, Alu):
        constant_funct: int | None = None
        funct: tuple | None = None
        if component.funct.is_constant:
            code = component.funct.constant_value()
            if 0 <= code < FUNCTION_COUNT:
                constant_funct = code
            else:
                funct = ("const", code)
        else:
            funct = lower_expression(component.funct, slots)
        return AluStep(
            component=component,
            slot=slots[component.name],
            left=lower_expression(component.left, slots),
            right=lower_expression(component.right, slots),
            funct=funct,
            constant_funct=constant_funct,
        )
    assert isinstance(component, Selector)
    cases = tuple(lower_expression(case, slots) for case in component.cases)
    constant_cases: tuple[int, ...] | None = None
    if all(desc[0] == "const" for desc in cases):
        constant_cases = tuple(desc[1] for desc in cases)
    return SelectorStep(
        component=component,
        slot=slots[component.name],
        select=lower_expression(component.select, slots),
        cases=cases,
        constant_cases=constant_cases,
    )


class CycleProgram:
    """A specification lowered to the backend-neutral per-cycle IR.

    Instances are immutable after construction and picklable (the
    backend-private artifact memo is dropped on pickling), so one lowered
    program can be cached, shipped to worker processes, and shared by every
    backend and every prepared simulation of the same machine.
    """

    def __init__(self, spec: Specification) -> None:
        self.spec = spec

        # Slot layout: combinational components in definition order, then
        # memory outputs, then three latch scratch slots per memory.
        slots: dict[str, int] = {}
        for component in spec.combinational():
            slots[component.name] = len(slots)
        for memory in spec.memories():
            slots[memory.name] = len(slots)
        self.slots = slots
        self.latch_base = len(slots)
        self.value_count = self.latch_base + 3 * len(spec.memories())

        #: dependency-sorted combinational components
        self.ordered: tuple[Component, ...] = tuple(sort_combinational(spec))
        #: memories in definition order
        self.memories: tuple[Memory, ...] = tuple(spec.memories())
        #: combinational steps, one per entry of ``ordered``
        self.steps: tuple[AluStep | SelectorStep, ...] = tuple(
            _combinational_step(c, slots) for c in self.ordered
        )
        #: memory steps, one per entry of ``memories``
        self.memory_steps: tuple[MemoryStep, ...] = tuple(
            MemoryStep(
                component=memory,
                out_slot=slots[memory.name],
                latch_base=self.latch_base + 3 * index,
                address=lower_expression(memory.address, slots),
                data=lower_expression(memory.data, slots),
                operation=lower_expression(memory.operation, slots),
            )
            for index, memory in enumerate(self.memories)
        )

        # Backend-private artifact memo (closure plans, generated modules);
        # excluded from pickling — artifacts are re-derived on demand.
        self._artifacts: dict = {}
        self._artifact_lock = threading.Lock()

    # -- derived artifacts ---------------------------------------------------

    def artifact(self, key: tuple, factory: Callable[[], object]):
        """Return ``(artifact, hit)``, memoizing *factory*'s result on *key*.

        Because the prepare cache stores the :class:`CycleProgram` itself,
        memoizing backend-private derivations here gives every prepared
        simulation of a cached program the same closure plans / compiled
        module without the cache ever holding unpicklable objects.
        """
        with self._artifact_lock:
            if key in self._artifacts:
                return self._artifacts[key], True
        value = factory()
        with self._artifact_lock:
            if key in self._artifacts:  # lost a race: keep the first
                return self._artifacts[key], True
            self._artifacts[key] = value
        return value, False

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        del state["_artifacts"]
        del state["_artifact_lock"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._artifacts = {}
        self._artifact_lock = threading.Lock()

    # -- introspection -------------------------------------------------------

    @property
    def evaluations_per_cycle(self) -> int:
        """Component evaluations one cycle performs (statistics basis)."""
        return len(self.ordered) + len(self.memories)

    # -- per-run state -------------------------------------------------------

    def initial_values(self) -> list[int]:
        """Fresh values array: zeros plus each memory's initial output."""
        values = [0] * self.value_count
        for memory in self.memories:
            values[self.slots[memory.name]] = memory.initial_output
        return values

    def initial_memory_arrays(self) -> dict[str, list[int]]:
        return {
            memory.name: memory.initial_cell_values()
            for memory in self.memories
        }

    # -- results -------------------------------------------------------------

    def visible_values(self, values: list[int]) -> dict[str, int]:
        """Final values dict in definition order."""
        slots = self.slots
        return {
            component.name: values[slots[component.name]]
            for component in self.spec.components
        }


def lower(spec: Specification) -> CycleProgram:
    """Lower *spec* into a :class:`CycleProgram`."""
    return CycleProgram(spec)


def lower_cached(
    spec: Specification, cache: PrepareCache | None
) -> tuple[CycleProgram, bool]:
    """Lower via the prepare cache; returns ``(program, cache_hit)``.

    The cache stores the backend-neutral IR keyed on the specification
    fingerprint — never backend-private artifacts (those live on the
    program, see :meth:`CycleProgram.artifact`).
    """
    if cache is None:
        return lower(spec), False
    key = cache.key_for("lowered", spec)
    return cache.get_or_create(key, lambda: CycleProgram(spec))
