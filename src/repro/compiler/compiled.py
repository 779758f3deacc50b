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
  it records exactly what the other backends' hooks record, at ~1.4x the
  fast path's time on the Figure 5.1 sieve (a hook per component per
  cycle cost ~17x);
* ``simulate_full`` — the same kernel over the *original* (pre-specopt)
  schedule, generated only when spec-level optimization changed the
  specification; ``override`` runs execute it so the hook sees every
  original component;
* ``simulate_lanes`` — the lane fast path (N uninstrumented runs per walk
  of the schedule).

Every entry point raises a rejected ALU function code as the other
backends do — ``cycle N: ALU 'a' computed function code C`` — from a
handler around its cycle loop (per lane in ``simulate_lanes``), so the
hot loop pays nothing for it.

The module is byte-compiled one section at a time (the prologue with the
constant tables, then each entry point) and the sections execute in
order into one namespace: the compiler's working memory follows the
largest section, which keeps a warm server's resident memory down.
``source`` stays the one module text, and tracebacks carry its line
numbers.

Two optional performance layers wrap the paper's pipeline:

* the prepare cache (:mod:`repro.compiler.cache`, on by default) stores the
  lowered program; the generated source and byte-compiled code object are
  memoized on that program, so a repeated ``prepare`` of the same machine
  skips lowering and both generation phases — ``generate_seconds`` and
  ``compile_seconds`` then report 0.0 and ``cache_hit`` is set;
* spec-level optimization (:mod:`repro.compiler.specopt`, opt-in via
  ``specopt=True``) shrinks the specification inside the lowering pipeline
  before code generation.

A :class:`CompiledSimulation` pickles: it keeps its generated ``source``,
and unpickling byte-compiles that source and loads the entry points with
the same loader ``prepare`` uses — no lowering, no code generation.  That
is how a process-pool worker started with ``spawn`` or ``forkserver``
receives the pool's warm simulation (:mod:`repro.serving.executor`).
"""

from __future__ import annotations

import time
from pathlib import Path
from types import CodeType
from typing import Iterable

from repro.compiler.cache import PrepareCache, resolve_cache
from repro.compiler.codegen_python import generate_program_python
from repro.compiler.optimizer import CodegenOptions
from repro.compiler.specopt import SpecOptPasses, SpecOptReport, resolve_passes
from repro.core.backend import (
    Backend,
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


class CompiledSimulation(PreparedSimulation):
    """A lowered program compiled into executable ``simulate`` functions."""

    def __init__(
        self,
        spec: Specification,
        program: CycleProgram,
        source: str,
        code: tuple[CodeType, ...],
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
        #: generated Python module source (the analogue of the .p file)
        self.source = source
        #: seconds spent generating source (paper: "Generate code");
        #: 0.0 when the prepare cache supplied the artifact
        self.generate_seconds = generate_seconds
        #: seconds spent byte-compiling it (paper: "Pascal Compile");
        #: 0.0 when the prepare cache supplied the artifact
        self.compile_seconds = compile_seconds
        #: what the spec-level pipeline did, or ``None`` if it was disabled
        self.optimization: SpecOptReport | None = program.optimization
        #: whether program + generated module came out of the prepare cache
        self.cache_hit = cache_hit
        self._load(code)

    def _load(self, code: tuple[CodeType, ...]) -> None:
        """Execute the generated module's sections, in order, into one
        namespace and bind its entry points."""
        namespace: dict = {"__name__": "repro_generated_simulator"}
        try:
            for section in code:
                exec(section, namespace)  # noqa: S102 - our own generated code
            self._simulate = namespace["simulate"]
            self._simulate_instrumented = namespace["simulate_instrumented"]
            self._simulate_full = namespace.get("simulate_full")
            self._simulate_lanes = namespace["simulate_lanes"]
        except Exception as exc:  # pragma: no cover - generator bug guard
            raise CompilationError(
                f"generated code for {self.spec.source_name} failed to "
                f"load: {exc}"
            ) from exc

    def __getstate__(self) -> dict:
        # the entry points are functions of an exec'd module: they do not
        # pickle, and the source rebuilds them on the other side
        state = dict(self.__dict__)
        for name in ("_simulate", "_simulate_instrumented", "_simulate_full",
                     "_simulate_lanes"):
            del state[name]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._load(_byte_compile(self.source, self.spec))

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
        start = time.perf_counter()
        if plan.inst is None:
            try:
                raw = self._simulate(plan.cycle_count, plan.io_system,
                                     None, None)
            except (ZeroDivisionError, IndexError, KeyError) as exc:
                raise CompilationError(
                    f"generated simulator for {self.spec.source_name} "
                    f"failed: {exc!r}"
                ) from exc
        else:
            # instrumented paths run user hooks (override), whose exceptions
            # must propagate unwrapped, exactly as on the other backends
            kernel = (self._simulate_full if plan.uses_full
                      else self._simulate_instrumented)
            raw = kernel(plan.cycle_count, plan.io_system, plan.inst)
        run_seconds = time.perf_counter() - start

        plan.finish()
        final_values = dict(raw["values"])
        if not plan.uses_full:
            self.program.restore_final_values(final_values, plan.cycle_count)
        return SimulationResult(
            backend=self.backend_name,
            cycles_run=plan.cycle_count,
            final_values=final_values,
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
    ) -> list:
        """Lane groups run the generated ``simulate_lanes`` entry point.

        The generated lane loop counts no statistics, so
        statistics-collecting groups run each lane on the generated
        ``simulate_instrumented`` kernel instead (a lane's result and
        error are then exactly its scalar run's).
        """
        if collect_stats:
            return self._run_each_lane(cycles, ios, collect_stats)
        from repro.lowering.lanes import LaneOutcome

        ios = list(ios)
        if not ios:
            return []
        cycle_count = resolve_cycles(self.spec, cycles)
        start = time.perf_counter()
        try:
            raw = self._simulate_lanes(cycle_count, ios)
        except (ZeroDivisionError, IndexError, KeyError) as exc:
            raise CompilationError(
                f"generated lane simulator for {self.spec.source_name} "
                f"failed: {exc!r}"
            ) from exc
        run_seconds = (time.perf_counter() - start) / len(ios)

        values, memories, errors = raw["values"], raw["memories"], raw["errors"]
        restore = (
            self.program.restore_final_values
            if self.program.restore_items else None
        )
        # the lane fast path collects neither traces nor statistics, so
        # every result in the group shares one disabled trace log and one
        # empty statistics object — placeholders, not per-run accumulators
        shared_trace = TraceLog(enabled=False)
        shared_stats = SimulationStats()
        outcomes: list = []
        for lane, io in enumerate(ios):
            error = errors[lane]
            if error is not None:
                outcomes.append(LaneOutcome(result=None, error=error))
                continue
            # the generated module builds fresh per-lane dicts and owns
            # its per-lane cell lists, so both are adopted without copies
            final_values = values[lane]
            if restore is not None:
                restore(final_values, cycle_count)
            outcomes.append(LaneOutcome(
                result=SimulationResult(
                    backend=self.backend_name,
                    cycles_run=cycle_count,
                    final_values=final_values,
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


def _byte_compile(source: str, spec: Specification) -> tuple[CodeType, ...]:
    """The paper's "Pascal compile" phase: generated source -> code.

    The module compiles one section at a time — the prologue with the
    constant tables, then each top-level ``def`` (one per entry point) —
    so the compiler's working memory follows the largest section rather
    than the whole module, and a warm process keeps less of it.  Each
    section is compiled behind as many blank lines as precede it in
    *source*, so tracebacks carry the module's own line numbers.
    """
    module_name = f"<asim2 generated: {spec.source_name}>"
    lines = source.splitlines(keepends=True)
    starts = [0] + [
        number for number, line in enumerate(lines)
        if number and line.startswith("def ")
    ]
    try:
        return tuple(
            compile("\n" * start + "".join(lines[start:end]), module_name,
                    "exec")
            for start, end in zip(starts, starts[1:] + [len(lines)])
        )
    except SyntaxError as exc:  # pragma: no cover - generator bug guard
        raise CompilationError(
            f"generated code for {spec.source_name} failed to compile: {exc}"
        ) from exc


def _generate_and_compile(
    program: CycleProgram, options: CodegenOptions
) -> tuple[str, tuple[CodeType, ...], float, float]:
    """The paper's two timed preparation phases over a lowered program."""
    generate_start = time.perf_counter()
    source = generate_program_python(program, options)
    generate_seconds = time.perf_counter() - generate_start

    compile_start = time.perf_counter()
    code = _byte_compile(source, program.spec)
    compile_seconds = time.perf_counter() - compile_start
    return source, code, generate_seconds, compile_seconds


class CompiledBackend(Backend):
    """Backend factory for the ASIM II-style compiler."""

    name = "compiled"

    def __init__(
        self,
        options: CodegenOptions | None = None,
        specopt: bool | SpecOptPasses = False,
        cache: PrepareCache | bool | None = True,
    ) -> None:
        self.options = options or CodegenOptions()
        self.passes = resolve_passes(specopt)
        self.cache = resolve_cache(cache)

    def prepare(self, spec: Specification) -> CompiledSimulation:
        program, program_hit = lower_cached(spec, self.passes, self.cache)
        artifact, artifact_hit = program.artifact(
            ("compiled", self.options),
            lambda: _generate_and_compile(program, self.options),
        )
        source, code, generate_seconds, compile_seconds = artifact
        hit = program_hit and artifact_hit
        if hit:
            generate_seconds = compile_seconds = 0.0
        return CompiledSimulation(
            spec=spec,
            program=program,
            source=source,
            code=code,
            generate_seconds=generate_seconds,
            compile_seconds=compile_seconds,
            cache_hit=hit,
        )


def compile_spec(
    spec: Specification, options: CodegenOptions | None = None
) -> CompiledSimulation:
    """Convenience: compile *spec* with the given code-generation options."""
    return CompiledBackend(options).prepare(spec)
