"""The shared lowering pipeline: ``Specification`` -> ``CycleProgram`` IR.

The paper frames ASIM and ASIM II as two ends of one design space — tables
interpreted per cycle versus a compiled program.  Historically each backend
in this package re-derived its own view of a specification (schedule, slot
layout, masks, observation hooks).  This module centralises that work into
one intermediate representation every backend consumes:

``lower(spec, specopt)`` runs the spec-level optimization pipeline
(:mod:`repro.compiler.specopt`), dependency-schedules the result
(:mod:`repro.rtl.dependency`), assigns every original component a value
slot, and lowers every expression to flat descriptors
(:mod:`repro.lowering.descriptors`).  The product is a
:class:`CycleProgram`: a picklable, backend-neutral program holding

* a **fast variant** — the flat step list of the optimized specification,
  what the hot path executes;
* a **full variant** — the step list of the *original* specification,
  sharing the same slot layout, used whenever interpreter-exact visibility
  of every pre-specopt component is required (a per-cycle ``override``
  hook must see and be able to fault every original component);
* an **observables map** from every pre-specopt component name to how its
  value is recovered from an optimized run (live slot, constant, or alias
  of the surviving duplicate), which resolves run-time trace requests and
  restores eliminated components into ``final_values``.

``lower_cached`` keys the whole IR on the prepare cache
(:mod:`repro.compiler.cache`), so the cache stores one backend-neutral
artifact per (specification, passes) pair; backend-private derivations
(closure plans, generated modules) are memoized *on* the program via
:meth:`CycleProgram.artifact` and therefore shared by every prepared
simulation that came out of the same cache entry.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Callable

from repro.compiler.cache import PrepareCache
from repro.compiler.specopt import (
    SpecOptPasses,
    SpecOptReport,
    optimize_spec,
    resolve_passes,
)
from repro.lowering.descriptors import lower_expression
from repro.rtl.alu_ops import FUNCTION_COUNT
from repro.rtl.components import Alu, Component, Memory, Selector
from repro.rtl.dependency import sort_combinational
from repro.rtl.spec import Specification

# Observable resolutions: how a pre-specopt component name is recovered
# from an optimized run.
#   ("live", name)     the component survived; read it directly
#   ("const", value)   eliminated constant; holds `value` from cycle 1 on
#   ("alias", name)    merged duplicate / forwarded copy of `name`
Resolution = tuple


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


@dataclass(frozen=True)
class ProgramVariant:
    """One executable view of a specification: schedule plus step lists."""

    #: the specification this variant executes (optimized or original)
    spec: Specification
    #: dependency-sorted combinational components
    ordered: tuple[Component, ...]
    #: memories in definition order (identical across variants)
    memories: tuple[Memory, ...]
    #: combinational steps, one per entry of ``ordered``
    steps: tuple[AluStep | SelectorStep, ...]
    #: memory steps, one per entry of ``memories``
    memory_steps: tuple[MemoryStep, ...]

    @property
    def evaluations_per_cycle(self) -> int:
        """Component evaluations one cycle performs (statistics basis)."""
        return len(self.ordered) + len(self.memories)


def _build_variant(
    spec: Specification, slots: dict[str, int], latch_base: int
) -> ProgramVariant:
    ordered = tuple(sort_combinational(spec))
    memories = tuple(spec.memories())
    return ProgramVariant(
        spec=spec,
        ordered=ordered,
        memories=memories,
        steps=tuple(_combinational_step(c, slots) for c in ordered),
        memory_steps=tuple(
            MemoryStep(
                component=memory,
                out_slot=slots[memory.name],
                latch_base=latch_base + 3 * index,
                address=lower_expression(memory.address, slots),
                data=lower_expression(memory.data, slots),
                operation=lower_expression(memory.operation, slots),
            )
            for index, memory in enumerate(memories)
        ),
    )


class CycleProgram:
    """A specification lowered to the backend-neutral per-cycle IR.

    Instances are immutable after construction and picklable (the
    backend-private artifact memo is dropped on pickling), so one lowered
    program can be cached, shipped to worker processes, and shared by every
    backend and every prepared simulation of the same machine.
    """

    def __init__(
        self,
        spec: Specification,
        passes: SpecOptPasses | None = None,
    ) -> None:
        passes = passes or SpecOptPasses.none()
        self.spec = spec
        self.passes = passes
        if passes.any_enabled:
            opt_spec, report = optimize_spec(spec, passes)
        else:
            opt_spec, report = spec, None
        #: the optimized specification the fast variant executes
        self.opt_spec = opt_spec
        #: what the spec-level pipeline did, or ``None`` if it was disabled
        self.optimization: SpecOptReport | None = report

        # Slot layout over the ORIGINAL specification, shared by both
        # variants: combinational components in definition order, then
        # memory outputs, then three latch scratch slots per memory.
        slots: dict[str, int] = {}
        for component in spec.combinational():
            slots[component.name] = len(slots)
        for memory in spec.memories():
            slots[memory.name] = len(slots)
        self.slots = slots
        self.latch_base = len(slots)
        self.value_count = self.latch_base + 3 * len(spec.memories())

        #: the optimized (hot path) variant
        self.fast = _build_variant(opt_spec, slots, self.latch_base)
        #: the original-specification variant (``is fast`` when unchanged)
        self.full = (
            self.fast
            if report is None or not report.changed
            else _build_variant(spec, slots, self.latch_base)
        )

        # Observables: every pre-specopt component name -> resolution.
        observables: dict[str, Resolution] = {}
        eliminated = dict(report.eliminated) if report else {}
        aliases = dict(report.merged) if report else {}
        if report:
            aliases.update(report.forwarded)
        surviving = set(opt_spec.component_names())
        for component in spec.components:
            name = component.name
            if name in surviving:
                observables[name] = ("live", name)
            elif name in eliminated:
                observables[name] = ("const", eliminated[name])
            elif name in aliases:
                observables[name] = ("alias", aliases[name])
            else:  # pragma: no cover - specopt removes via the maps above
                observables[name] = ("const", 0)
        self.observables = observables
        #: the non-``live`` subset, precomputed so restoring final values
        #: costs nothing when specopt eliminated or aliased no components
        #: (the lane path restores once per lane and leans on that)
        self.restore_items = tuple(
            item for item in observables.items() if item[1][0] != "live"
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
    def changed(self) -> bool:
        """True when spec-level optimization altered the specification."""
        return self.full is not self.fast

    @property
    def ordered(self) -> tuple[Component, ...]:
        """The fast variant's combinational schedule."""
        return self.fast.ordered

    @property
    def memories(self) -> tuple[Memory, ...]:
        return self.fast.memories

    def variant(self, needs_original: bool) -> ProgramVariant:
        """Pick the step list for a run: full when the run must see every
        pre-specopt component, fast otherwise."""
        return self.full if needs_original else self.fast

    # -- per-run state -------------------------------------------------------

    def initial_values(self) -> list[int]:
        """Fresh values array: zeros plus each memory's initial output."""
        values = [0] * self.value_count
        for memory in self.fast.memories:
            values[self.slots[memory.name]] = memory.initial_output
        return values

    def initial_memory_arrays(self) -> dict[str, list[int]]:
        return {
            memory.name: memory.initial_cell_values()
            for memory in self.fast.memories
        }

    # -- results -------------------------------------------------------------

    def visible_values(
        self, values: list[int], variant: ProgramVariant | None = None
    ) -> dict[str, int]:
        """Final values dict of *variant* in definition order."""
        variant = variant or self.fast
        slots = self.slots
        return {
            component.name: values[slots[component.name]]
            for component in variant.spec.components
        }

    def restore_final_values(
        self, final_values: dict[str, int], cycles_run: int
    ) -> None:
        """Recover eliminated/aliased components via the observables map.

        A constant component holds its value from the first evaluated cycle
        on; with zero cycles run every combinational value is still the
        initial zero (matching the interpreter exactly).  Only the
        precomputed non-live observables are walked, so the common
        no-specopt case returns immediately.
        """
        for name, resolution in self.restore_items:
            if resolution[0] == "const":
                final_values[name] = resolution[1] if cycles_run > 0 else 0
            else:  # alias
                final_values[name] = final_values.get(resolution[1], 0)


def lower(
    spec: Specification,
    specopt: bool | SpecOptPasses | None = False,
) -> CycleProgram:
    """Lower *spec* through (optional) specopt into a :class:`CycleProgram`."""
    return CycleProgram(spec, resolve_passes(specopt))


def lower_cached(
    spec: Specification,
    specopt: bool | SpecOptPasses | None,
    cache: PrepareCache | None,
) -> tuple[CycleProgram, bool]:
    """Lower via the prepare cache; returns ``(program, cache_hit)``.

    The cache stores the backend-neutral IR keyed on the specification
    fingerprint plus the exact pass configuration — never backend-private
    artifacts (those live on the program, see :meth:`CycleProgram.artifact`).
    """
    passes = resolve_passes(specopt)
    if cache is None:
        return lower(spec, passes), False
    key = cache.key_for("lowered", spec, passes)
    return cache.get_or_create(key, lambda: CycleProgram(spec, passes))
