"""The threaded-code backend: the middle point of the paper's design space.

Figure 5.1 frames two extremes — ASIM interprets the specification tables
every cycle, ASIM II generates and compiles a whole program.  Threaded code
sits between them: ``prepare`` obtains the shared lowered program
(:mod:`repro.lowering`) and binds its step descriptors into Python closures
(:mod:`repro.interp.closures`) chained into one flat per-cycle op list;
``run`` just walks that list.  Preparation is almost as cheap as building
the interpreter's tables, while simulation runs several times faster than
interpreting.

Per-cycle ``override`` hooks, full statistics and tracing all work exactly
as they do on the interpreter, implemented by the shared instrumentation
layer (:mod:`repro.core.instrument`) over the same step list.

The prepare cache (:mod:`repro.compiler.cache`) stores the lowered program
keyed on the specification fingerprint; the closure plans are memoized on
the program, so repeated ``prepare`` calls are free.
"""

from __future__ import annotations

import time
from typing import Iterable

from repro.compiler.cache import PrepareCache, resolve_cache
from repro.core.backend import Backend, PreparedSimulation, ValueOverride
from repro.core.instrument import plan_run
from repro.core.iosystem import IOSystem
from repro.core.results import SimulationResult
from repro.core.stats import SimulationStats
from repro.core.trace import TraceOptions
from repro.errors import BackendError
from repro.interp.closures import RunContext, ThreadedProgram
from repro.lowering.program import CycleProgram, lower_cached
from repro.rtl.spec import Specification


class ThreadedSimulation(PreparedSimulation):
    """A lowered program bound to the threaded-code execution engine."""

    def __init__(
        self,
        spec: Specification,
        program: CycleProgram,
        prepare_seconds: float,
        cache_hit: bool = False,
    ) -> None:
        super().__init__(spec, backend_name="threaded",
                         prepare_seconds=prepare_seconds)
        #: the shared lowered program (cache-backed, backend-neutral)
        self.program = program
        #: whether program and closure plans came out of the prepare cache
        self.cache_hit = cache_hit

    def _plans(self) -> ThreadedProgram:
        """The closure plans (memoized on the IR)."""
        plans, _ = self.program.artifact(
            ("threaded",), lambda: ThreadedProgram(self.program)
        )
        return plans

    # -- running -------------------------------------------------------------

    def run(
        self,
        cycles: int | None = None,
        io: IOSystem | Iterable[int | str] | None = None,
        trace: TraceOptions | bool | None = None,
        collect_stats: bool = True,
        override: ValueOverride | None = None,
    ) -> SimulationResult:
        plan = plan_run(self.program, cycles, io, trace, collect_stats,
                        override)
        plans = self._plans()
        ctx = RunContext(
            values=self.program.initial_values(),
            memory_arrays=self.program.initial_memory_arrays(),
            cycle_box=[0],
            io=plan.io_system,
            inst=plan.inst,
        )
        ops = plans.bind(ctx)

        cycle_box = ctx.cycle_box
        start = time.perf_counter()
        for cycle in range(plan.cycle_count):
            cycle_box[0] = cycle
            for op in ops:
                op()
        run_seconds = time.perf_counter() - start

        plan.finish()
        return SimulationResult(
            backend=self.backend_name,
            cycles_run=plan.cycle_count,
            final_values=self.program.visible_values(ctx.values),
            memory_contents={
                name: list(cells) for name, cells in ctx.memory_arrays.items()
            },
            outputs=list(plan.io_system.outputs),
            trace=plan.trace_log,
            stats=plan.stats if plan.stats is not None else SimulationStats(),
            prepare_seconds=self.prepare_seconds,
            run_seconds=run_seconds,
        )


class ThreadedBackend(Backend):
    """Backend factory compiling specifications into threaded code."""

    name = "threaded"

    def __init__(
        self,
        specopt: bool = False,
        cache: PrepareCache | bool | None = True,
    ) -> None:
        if specopt:
            # the keyword stays so callers that spell out its absence
            # (specopt=False) keep working; there is nothing to turn on
            raise BackendError(
                "spec-level optimization was removed: every backend runs "
                "one program per specification (specopt must be false)"
            )
        self.cache = resolve_cache(cache)

    def prepare(self, spec: Specification) -> ThreadedSimulation:
        start = time.perf_counter()
        program, program_hit = lower_cached(spec, self.cache)
        _plans, plans_hit = program.artifact(
            ("threaded",), lambda: ThreadedProgram(program)
        )
        return ThreadedSimulation(
            spec=spec,
            program=program,
            prepare_seconds=time.perf_counter() - start,
            cache_hit=program_hit and plans_hit,
        )


def thread_spec(spec: Specification) -> ThreadedSimulation:
    """Convenience: compile *spec* into a ready-to-run threaded simulation."""
    return ThreadedBackend().prepare(spec)
