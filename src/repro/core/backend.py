"""Simulation backend interface.

Three backends implement this interface — the two systems of the paper
plus the classic middle point of the design space they frame:

* :class:`repro.interp.interpreter.InterpreterBackend` — ASIM: the
  specification is read into tables and interpreted every cycle;
* :class:`repro.compiler.threaded.ThreadedBackend` — threaded code: every
  component is compiled into a Python closure over pre-bound locals and the
  closures are chained into a flat per-cycle op list;
* :class:`repro.compiler.compiled.CompiledBackend` — ASIM II: the
  specification is compiled into a program which is then executed.

``prepare`` corresponds to the paper's preparation phase ("generate tables"
for ASIM, "generate code" + "compile" for ASIM II) and ``run`` to the
simulation phase; both report their elapsed time so that Figure 5.1 can be
regenerated.

``run_lanes`` runs one lane group (the serving layer's batching of
compatible requests, :mod:`repro.serving.executor`).  The compiled
backend generates a lane kernel for statistics-free groups; every other
backend, and compiled groups that collect statistics, run each lane as
its scalar ``run``.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Callable, Iterable

from repro.core.iosystem import IOSystem
from repro.core.results import SimulationResult
from repro.core.trace import TraceOptions
from repro.errors import SimulationError
from repro.rtl.spec import Specification

#: Optional per-component value override hook (fault injection):
#: called as ``override(name, value, cycle)`` and returns the value to use.
ValueOverride = Callable[[str, int, int], int]


def resolve_cycles(spec: Specification, cycles: int | None) -> int:
    """Determine how many cycles to run: explicit argument or the spec's."""
    if cycles is not None:
        if cycles < 0:
            raise SimulationError(f"cycle count must be non-negative, got {cycles}")
        return cycles
    if spec.cycles is not None:
        return spec.cycles
    raise SimulationError(
        "no cycle count: pass cycles= or declare '= N' in the specification"
    )


def resolve_trace(spec: Specification, trace: TraceOptions | bool | None) -> TraceOptions:
    """Normalise the ``trace`` argument accepted by ``run``."""
    if isinstance(trace, TraceOptions):
        return trace
    if trace:
        return TraceOptions(trace_cycles=True, trace_memory_accesses=True)
    if trace is None and spec.traced_names:
        # The specification asked for tracing via '*' declarations.
        return TraceOptions(trace_cycles=True, trace_memory_accesses=True)
    return TraceOptions.disabled()


@dataclass
class LaneOutcome:
    """What one lane produced: exactly one of ``result``/``error`` is set."""

    result: SimulationResult | None
    error: Exception | None


class PreparedSimulation(ABC):
    """A specification made ready to run by a backend.

    A prepared simulation is reusable and re-entrant: every ``run`` builds
    fresh mutable state (values, memory arrays, I/O), so one prepared
    instance may be run many times — with different cycle counts, inputs
    and options — and runs are deterministic given the same arguments.
    The serving layer (:mod:`repro.serving`) relies on this to fan one
    prepared machine out over a worker pool.

    Run options are uniform across the three built-in backends — every
    backend consumes the same lowered program (:mod:`repro.lowering`) and
    honors the same instrumentation layer (:mod:`repro.core.instrument`):

    * ``override`` — per-cycle value override (fault injection), supported
      everywhere; the hook sees — and can fault — every component.
    * ``collect_stats`` — the full breakdown (per-ALU function,
      per-selector case, per-memory operation) on every backend.  The
      interpreter and threaded backends record it through a hook call per
      component per cycle; the compiled backend counts inside its
      generated ``simulate_instrumented`` kernel and folds the counts in
      once per run, at ~1.4x its fast path's time on the Figure 5.1 sieve.
      On a hot path pass ``collect_stats=False`` (and ``trace=False``) to
      run each backend's uninstrumented fast path, which counts nothing
      (that is the configuration the Figure 5.1 speedups are measured
      in).
    * ``trace`` — per-cycle value traces and memory access traces are
      bit-identical across backends; tracing an unknown name raises
      ``UnknownComponentError`` everywhere.

    The ``supports_override`` / ``supports_full_stats`` class flags let
    callers query capabilities programmatically instead of catching
    ``BackendError`` at run time; third-party backends that cannot honor a
    hook should set them to ``False``.
    """

    #: whether ``run(override=...)`` honors the per-cycle value hook
    supports_override: bool = True
    #: whether ``collect_stats`` records the full per-component breakdown
    supports_full_stats: bool = True

    def __init__(self, spec: Specification, backend_name: str,
                 prepare_seconds: float) -> None:
        self.spec = spec
        self.backend_name = backend_name
        self.prepare_seconds = prepare_seconds

    @abstractmethod
    def run(
        self,
        cycles: int | None = None,
        io: IOSystem | Iterable[int | str] | None = None,
        trace: TraceOptions | bool | None = None,
        collect_stats: bool = True,
        override: ValueOverride | None = None,
    ) -> SimulationResult:
        """Simulate for *cycles* cycles and return a :class:`SimulationResult`."""

    def run_lanes(
        self,
        cycles: int | None = None,
        ios: Iterable[IOSystem] = (),
        collect_stats: bool = True,
    ) -> list[LaneOutcome]:
        """Run one lane group: the same cycle count once per I/O system.

        Every lane executes with fast-path (untraced, override-free)
        semantics.  Returns one :class:`LaneOutcome` per lane, in order.
        Here each lane is its own scalar ``run``, so a lane's result or
        :class:`~repro.errors.SimulationError` is exactly its scalar
        run's, and a lane that raises leaves its neighbours untouched.
        The compiled backend overrides this with its generated lane
        kernel for statistics-free groups.
        """
        outcomes = []
        for io in ios:
            try:
                result = self.run(
                    cycles=cycles, io=io, trace=False,
                    collect_stats=collect_stats,
                )
            except SimulationError as exc:
                outcomes.append(LaneOutcome(result=None, error=exc))
            else:
                outcomes.append(LaneOutcome(result=result, error=None))
        return outcomes


class Backend(ABC):
    """Factory turning specifications into :class:`PreparedSimulation`."""

    #: short name used in results and benchmark reports
    name: str = "backend"
    #: capability flags mirrored from :class:`PreparedSimulation` so callers
    #: can query a backend before preparing anything
    supports_override: bool = True
    supports_full_stats: bool = True

    @abstractmethod
    def prepare(self, spec: Specification) -> PreparedSimulation:
        """Build whatever the backend needs to simulate *spec*.

        This is the paper's preparation phase, and its cost ranks exactly
        as Figure 5.1 does: trivial for the interpreter (sort the tables,
        ~0.5 ms on the Fig 5.1 sieve), cheap for the threaded backend
        (closure compilation, ~2 ms), expensive for the compiled backend
        (generate + byte-compile a module, ~8 ms).  The threaded and
        compiled backends consult the prepare cache
        (:mod:`repro.compiler.cache`, on by default), which stores the
        shared lowered program (:mod:`repro.lowering`) keyed on a stable
        content hash of the specification; backend-private
        artifacts (closure plans, generated modules) are memoized on that
        program, so a repeated ``prepare`` of the same machine reuses
        everything and sets ``cache_hit``.  Preparation depends only on
        the specification — never on run options — which is what lets
        one prepared artifact serve many concurrent runs
        (:mod:`repro.serving`).
        """

    def run(
        self,
        spec: Specification,
        cycles: int | None = None,
        io: IOSystem | Iterable[int | str] | None = None,
        trace: TraceOptions | bool | None = None,
        collect_stats: bool = True,
        override: ValueOverride | None = None,
    ) -> SimulationResult:
        """Convenience: prepare and run in one call."""
        prepared = self.prepare(spec)
        return prepared.run(
            cycles=cycles,
            io=io,
            trace=trace,
            collect_stats=collect_stats,
            override=override,
        )
