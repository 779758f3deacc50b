"""The ASIM II-style compiled backend.

``prepare`` corresponds to the paper's "generate code" plus "Pascal compile"
phases: the shared lowered program (:mod:`repro.lowering`) is translated to
a Python module (:mod:`repro.compiler.codegen_python`) which is then
byte-compiled with :func:`compile`/``exec``.  ``run`` executes a generated
``simulate`` function — the phase the paper reports as roughly 20x faster
than the ASIM interpreter (Figure 5.1).

The generated module carries these entry points, all built from the same
statement emitters (the paper's Section 4.4 specialisations included):

* ``simulate`` — the paper's straight-line program; used when a run
  collects nothing (no stats, no traces, no ``override``, no deadline);
* ``simulate_instrumented`` — the same statements plus inline statistics
  counters folded in once per run, traces behind per-run flags, a deadline
  check every :data:`~repro.core.instrument.DEADLINE_CHECK_CYCLES` cycles
  and the user's ``override`` as the one per-component call into Python;
  it records exactly what the other backends' hooks record, at ~1.5x the
  fast path's time on the Figure 5.1 sieve (a hook per component per
  cycle cost ~17x);
* ``simulate_lanes`` — the lane fast path (N uninstrumented runs per walk
  of the schedule).  It serves statistics-free lane groups; groups that
  collect statistics run each lane as its scalar run on
  ``simulate_instrumented``, as every other backend runs every lane.

Every entry point raises a rejected ALU function code as the other
backends do — ``cycle N: ALU 'a' computed function code C`` — from a
handler around its cycle loop (per lane in ``simulate_lanes``), so the
hot loop pays nothing for it.

A run calls one entry point, so only that one is byte-compiled, on first
use.  ``prepare`` generates the whole module text but byte-compiles just
its prologue (the imports and constant tables) and executes it into the
module's one namespace.  The first call of an entry point compiles that
entry's ``def`` at its own line offset in ``source`` and executes it
against the same namespace; the function is then a plain attribute of the
prepared simulation, so later runs pay no lookup.  ``source`` stays the
one module text, and tracebacks carry its line numbers.

Both the module and each loaded entry point are memoized on the lowered
program (``CycleProgram.artifact``), keyed by the code-generation options
(and the entry point's name), so every prepared simulation of a cached
program shares them, and concurrent first calls keep the first result
stored (nothing compiles under a lock).  The prepare cache
(:mod:`repro.compiler.cache`, on by default) stores that program, so a
repeated ``prepare`` of the same machine skips lowering, generation and
every compile already done — ``generate_seconds`` and ``compile_seconds``
then report 0.0 and ``cache_hit`` is set.

Accounting follows the paper's phases: a first-use compile is
preparation, never simulation.  A prepared simulation's
``compile_seconds`` and ``prepare_seconds`` grow by each entry-point
compile its own runs trigger, and ``SimulationResult.run_seconds`` starts
after the entry point is bound.  ``generate_seconds`` is paid in
``prepare`` alone.

A :class:`CompiledSimulation` pickles: it keeps its generated ``source``,
and unpickling byte-compiles that source's prologue only — no lowering,
no code generation, no entry point until the first call.  That is how a
process-pool worker started with ``spawn`` or ``forkserver`` receives the
pool's warm simulation (:mod:`repro.serving.executor`); a ``fork``ed
worker inherits the entry points already loaded and compiles only the
others it runs.
"""

from __future__ import annotations

import re
import threading
import time
from pathlib import Path
from typing import Callable, Iterable

from repro.compiler.cache import PrepareCache, resolve_cache
from repro.compiler.codegen_python import generate_program_python
from repro.compiler.optimizer import CodegenOptions
from repro.core.backend import (
    Backend,
    LaneOutcome,
    PreparedSimulation,
    ValueOverride,
    resolve_cycles,
)
from repro.core.instrument import plan_run
from repro.core.iosystem import IOSystem
from repro.core.results import SimulationResult
from repro.core.stats import SimulationStats
from repro.core.trace import TraceLog, TraceOptions
from repro.errors import CompilationError
from repro.lowering.program import CycleProgram, lower_cached
from repro.rtl.spec import Specification

#: The generated module's entry points; ``CompiledSimulation`` binds each
#: as the attribute of the same name with a leading underscore.
ENTRY_POINTS = ("simulate", "simulate_instrumented", "simulate_lanes")

#: Guards the ``+=`` of first-use compile seconds: two threads may each
#: load a different entry point of one prepared simulation at once.
_ACCOUNTING_LOCK = threading.Lock()


class GeneratedModule:
    """One generated simulator module, byte-compiled a section at a time.

    Building it byte-compiles the prologue (imports and constant tables)
    and executes it into the module's one namespace; :meth:`load`
    compiles one entry point's ``def`` and executes it against that
    namespace.  Each section is compiled behind as many blank lines as
    precede it in ``source``, so tracebacks carry the module's own line
    numbers, and the compiler's working memory follows one section, not
    the whole module.
    """

    def __init__(self, source: str, spec: Specification,
                 generate_seconds: float = 0.0) -> None:
        start = time.perf_counter()
        #: the whole generated module text (the analogue of the .p file)
        self.source = source
        #: seconds the generator took to write ``source`` (0.0 when it was
        #: shipped rather than generated here)
        self.generate_seconds = generate_seconds
        self._spec_name = spec.source_name
        self._filename = f"<asim2 generated: {spec.source_name}>"
        # entry point -> (first line, start, end) of its top-level ``def``:
        # offsets into ``source``, so no second copy of the text is kept
        self._sections: dict[str, tuple[int, int, int]] = {}
        starts = [match.start() + 1 for match in re.finditer("\ndef ", source)]
        for begin, end in zip(starts, starts[1:] + [len(source)]):
            name = source[begin + len("def "):source.index("(", begin)]
            self._sections[name] = (source.count("\n", 0, begin), begin, end)
        #: the module's one namespace: the prologue's names, the globals of
        #: every entry point
        self.namespace: dict = {"__name__": "repro_generated_simulator"}
        prologue_end = starts[0] if starts else len(source)
        self._define((0, 0, prologue_end), self.namespace)
        #: seconds spent byte-compiling and executing the prologue
        self.compile_seconds = time.perf_counter() - start

    def load(self, entry: str) -> tuple[Callable, float]:
        """Byte-compile *entry* and define it against the module's
        namespace; returns ``(function, seconds)``."""
        start = time.perf_counter()
        defined: dict = {}
        self._define(self._sections[entry], defined)
        return defined[entry], time.perf_counter() - start

    def _define(self, section: tuple[int, int, int], names: dict) -> None:
        """Compile *section* at its line offset and execute it with the
        module namespace as globals and *names* as locals: a ``def`` binds
        its function in *names*, and the function's globals stay the
        module's."""
        line, begin, end = section
        try:
            code = compile("\n" * line + self.source[begin:end],
                           self._filename, "exec")
        except SyntaxError as exc:  # pragma: no cover - generator bug guard
            raise CompilationError(
                f"generated code for {self._spec_name} failed to compile: "
                f"{exc}"
            ) from exc
        try:
            exec(code, self.namespace, names)  # noqa: S102 - our own code
        except Exception as exc:  # pragma: no cover - generator bug guard
            raise CompilationError(
                f"generated code for {self._spec_name} failed to load: {exc}"
            ) from exc


class _EntryPoint:
    """A generated entry point as an attribute of a compiled simulation.

    The first read byte-compiles the entry point (``_load``) and stores
    the function in the instance, where it shadows this non-data
    descriptor: every later read is a plain attribute read.
    """

    def __set_name__(self, owner: type, attribute: str) -> None:
        self.attribute = attribute

    def __get__(self, prepared, owner: type | None = None):
        if prepared is None:
            return self
        function = prepared._load(self.attribute[1:])
        prepared.__dict__[self.attribute] = function
        return function


class CompiledSimulation(PreparedSimulation):
    """A lowered program compiled into executable ``simulate`` functions."""

    # the generated module's entry points, each byte-compiled on first use
    _simulate = _EntryPoint()
    _simulate_instrumented = _EntryPoint()
    _simulate_lanes = _EntryPoint()

    def __init__(
        self,
        spec: Specification,
        program: CycleProgram,
        options: CodegenOptions,
        module: GeneratedModule,
        generate_seconds: float,
        compile_seconds: float,
        cache_hit: bool = False,
    ) -> None:
        super().__init__(
            spec,
            backend_name="compiled",
            prepare_seconds=generate_seconds + compile_seconds,
        )
        #: the shared lowered program (cache-backed, backend-neutral)
        self.program = program
        #: the code-generation options the module was generated with
        self.options = options
        #: generated Python module source (the analogue of the .p file)
        self.source = module.source
        #: seconds spent generating source (paper: "Generate code");
        #: 0.0 when the prepare cache supplied the artifact
        self.generate_seconds = generate_seconds
        #: seconds spent byte-compiling it (paper: "Pascal Compile"): the
        #: prologue, plus each entry point this simulation's runs compiled
        #: on first use; 0.0 when the prepare cache supplied all of it
        self.compile_seconds = compile_seconds
        #: whether program + generated module came out of the prepare cache
        self.cache_hit = cache_hit
        self._module = module

    def _load(self, entry: str) -> Callable:
        """The generated *entry* point, memoized on the program, so the
        first prepared simulation to call it compiles it and every other
        one reuses it; a compile paid here counts as this simulation's
        preparation."""
        module = self._module
        (function, seconds), hit = self.program.artifact(
            ("compiled", self.options, entry), lambda: module.load(entry))
        if not hit:
            with _ACCOUNTING_LOCK:
                self.compile_seconds += seconds
                self.prepare_seconds += seconds
        return function

    def __getstate__(self) -> dict:
        # the module namespace and its functions do not pickle; the source
        # rebuilds the module on the other side
        state = dict(self.__dict__)
        del state["_module"]
        for entry in ENTRY_POINTS:
            state.pop("_" + entry, None)
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._module, _ = self.program.artifact(
            ("compiled", self.options),
            lambda: GeneratedModule(self.source, self.spec))

    def write_source(self, path: str | Path) -> Path:
        """Write the generated module to disk (like the paper's ``simulator.p``)."""
        path = Path(path)
        path.write_text(self.source)
        return path

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
        # bound before the clock starts: a first use's compile is
        # preparation, never run time
        if plan.inst is None:
            simulate = self._simulate
            start = time.perf_counter()
            try:
                raw = simulate(plan.cycle_count, plan.io_system, None, None)
            except (ZeroDivisionError, IndexError, KeyError) as exc:
                raise CompilationError(
                    f"generated simulator for {self.spec.source_name} "
                    f"failed: {exc!r}"
                ) from exc
        else:
            simulate = self._simulate_instrumented
            start = time.perf_counter()
            # instrumented paths run user hooks (override), whose exceptions
            # must propagate unwrapped, exactly as on the other backends
            raw = simulate(plan.cycle_count, plan.io_system, plan.inst)
        run_seconds = time.perf_counter() - start

        plan.finish()
        return SimulationResult(
            backend=self.backend_name,
            cycles_run=plan.cycle_count,
            final_values=raw["values"],
            memory_contents={
                name: list(cells) for name, cells in raw["memories"].items()
            },
            outputs=list(plan.io_system.outputs),
            trace=plan.trace_log,
            stats=plan.stats if plan.stats is not None else SimulationStats(),
            prepare_seconds=self.prepare_seconds,
            run_seconds=run_seconds,
        )

    def run_lanes(
        self,
        cycles: int | None = None,
        ios: Iterable[IOSystem] = (),
        collect_stats: bool = True,
    ) -> list[LaneOutcome]:
        """Lane groups run the generated ``simulate_lanes`` entry point.

        The generated lane loop counts no statistics, so
        statistics-collecting groups run each lane as its scalar run, on
        the generated ``simulate_instrumented`` kernel.
        """
        if collect_stats:
            return super().run_lanes(cycles, ios, collect_stats)
        ios = list(ios)
        if not ios:
            return []
        cycle_count = resolve_cycles(self.spec, cycles)
        simulate_lanes = self._simulate_lanes
        start = time.perf_counter()
        try:
            raw = simulate_lanes(cycle_count, ios)
        except (ZeroDivisionError, IndexError, KeyError) as exc:
            raise CompilationError(
                f"generated lane simulator for {self.spec.source_name} "
                f"failed: {exc!r}"
            ) from exc
        run_seconds = (time.perf_counter() - start) / len(ios)

        values, memories, errors = raw["values"], raw["memories"], raw["errors"]
        # the lane fast path collects neither traces nor statistics, so
        # every result in the group shares one disabled trace log and one
        # empty statistics object — placeholders, not per-run accumulators
        shared_trace = TraceLog(enabled=False)
        shared_stats = SimulationStats()
        outcomes: list[LaneOutcome] = []
        for lane, io in enumerate(ios):
            error = errors[lane]
            if error is not None:
                outcomes.append(LaneOutcome(result=None, error=error))
                continue
            # the generated module builds fresh per-lane dicts and owns
            # its per-lane cell lists, so both are adopted without copies
            outcomes.append(LaneOutcome(
                result=SimulationResult(
                    backend=self.backend_name,
                    cycles_run=cycle_count,
                    final_values=values[lane],
                    memory_contents=memories[lane],
                    outputs=list(io.outputs),
                    trace=shared_trace,
                    stats=shared_stats,
                    prepare_seconds=self.prepare_seconds,
                    run_seconds=run_seconds,
                ),
                error=None,
            ))
        return outcomes


def _generate(program: CycleProgram,
              options: CodegenOptions) -> GeneratedModule:
    """The paper's two timed preparation phases over a lowered program:
    generate the whole module, then byte-compile its prologue."""
    start = time.perf_counter()
    source = generate_program_python(program, options)
    return GeneratedModule(source, program.spec,
                           generate_seconds=time.perf_counter() - start)


class CompiledBackend(Backend):
    """Backend factory for the ASIM II-style compiler."""

    name = "compiled"

    def __init__(
        self,
        options: CodegenOptions | None = None,
        cache: PrepareCache | bool | None = True,
    ) -> None:
        self.options = options or CodegenOptions()
        self.cache = resolve_cache(cache)

    def prepare(self, spec: Specification) -> CompiledSimulation:
        program, program_hit = lower_cached(spec, self.cache)
        module, module_hit = program.artifact(
            ("compiled", self.options),
            lambda: _generate(program, self.options),
        )
        hit = program_hit and module_hit
        return CompiledSimulation(
            spec=spec,
            program=program,
            options=self.options,
            module=module,
            generate_seconds=0.0 if hit else module.generate_seconds,
            compile_seconds=0.0 if hit else module.compile_seconds,
            cache_hit=hit,
        )


def compile_spec(
    spec: Specification, options: CodegenOptions | None = None
) -> CompiledSimulation:
    """Convenience: compile *spec* with the given code-generation options."""
    return CompiledBackend(options).prepare(spec)
