"""The single instrumentation layer every backend honors.

Statistics recording, per-cycle value tracing, memory access tracing and
the per-cycle ``override`` hook (fault injection) are implemented once, in
an :class:`Instrumentation` object, with the same semantics on every
backend.  The interpreter and threaded backends call its hook methods at
the same points of the cycle:

* after each ALU / selector evaluates (:meth:`Instrumentation.alu`,
  :meth:`Instrumentation.selector`) — records the function code / case
  index and applies the override to the value about to be stored;
* after the combinational phase (:meth:`Instrumentation.wants_cycle_trace`
  plus a ``record_cycle*`` call) — captures the traced values exactly as
  they were used during the cycle;
* after each memory update (:meth:`Instrumentation.memory`) — records the
  access, emits "Read from"/"Write to" trace records from the operation's
  trace bits, and applies the override to the latched output.

The compiled backend's generated kernel calls no hook: it counts in
per-run locals and hands the counts to :meth:`Instrumentation.fold_counts`
once, after the cycle loop, so a stats-on compiled run costs ~1.4x its
fast path on the Figure 5.1 sieve (a hook per component per cycle cost
~17x).  Every backend records the same counts, traces and overrides, so
the three produce bit-identical traces and identical statistics for the
same effective program — the parity the equivalence matrix asserts.

:func:`plan_run` is the shared front half of every backend's ``run``: it
normalises the run arguments, checks run-time traced names against the
lowered program, and builds the :class:`Instrumentation` — or ``None`` for
the fast path, so an uninstrumented run pays for none of this.
"""

from __future__ import annotations

import threading
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable

from repro.core.backend import resolve_cycles, resolve_trace
from repro.core.iosystem import IOSystem, coerce_io
from repro.core.stats import SimulationStats
from repro.core.trace import TraceLog, TraceOptions
from repro.errors import DeadlineExceededError, UnknownComponentError

# ---------------------------------------------------------------------------
# Cooperative run deadlines
# ---------------------------------------------------------------------------

#: Hook calls between deadline checks (interpreter and threaded backends):
#: frequent enough that a cycle of any bundled machine spans at most a few
#: intervals, rare enough that ``time.monotonic`` stays off the hot path.
DEADLINE_CHECK_INTERVAL = 64
#: Cycles between deadline checks in the compiled kernel, which makes no
#: hook call to count: under a millisecond of the Figure 5.1 sieve.
DEADLINE_CHECK_CYCLES = 256

_AMBIENT_DEADLINE = threading.local()


def current_run_deadline() -> float | None:
    """The calling thread's run deadline (monotonic timestamp), if any."""
    return getattr(_AMBIENT_DEADLINE, "value", None)


@contextmanager
def run_deadline(deadline: float | None):
    """Scope a cooperative deadline over a ``PreparedSimulation.run`` call.

    The serving executors wrap run execution in this context manager;
    :func:`plan_run` picks the deadline up when building the run's
    :class:`Instrumentation`, whose hooks then check the monotonic clock
    every :data:`DEADLINE_CHECK_INTERVAL` calls (the compiled kernel:
    every :data:`DEADLINE_CHECK_CYCLES` cycles) and raise
    :class:`~repro.errors.DeadlineExceededError` once it has passed.  The
    deadline is carried in a thread-local, so the ``run`` signature —
    uniform across backends, including generated compiled code — never
    changes, and concurrent runs on other worker threads are unaffected.
    """
    if deadline is None:
        yield
        return
    previous = current_run_deadline()
    _AMBIENT_DEADLINE.value = deadline
    try:
        yield
    finally:
        _AMBIENT_DEADLINE.value = previous


class Instrumentation:
    """Per-run bundle of stats + trace + override hooks (one per run)."""

    __slots__ = (
        "stats",
        "override",
        "trace_log",
        "trace_accesses",
        "trace_limit",
        "traced",
        "deadline",
        "_ticks",
    )

    def __init__(
        self,
        stats: SimulationStats | None = None,
        override: Callable[[str, int, int], int] | None = None,
        trace_log: TraceLog | None = None,
        trace_accesses: bool = False,
        trace_limit: int | None = None,
        traced: tuple[str, ...] = (),
        deadline: float | None = None,
    ) -> None:
        self.stats = stats
        self.override = override
        self.trace_log = trace_log if trace_log is not None else TraceLog(False)
        self.trace_accesses = trace_accesses
        self.trace_limit = trace_limit
        self.traced = traced
        #: monotonic timestamp past which hooks raise DeadlineExceededError
        self.deadline = deadline
        self._ticks = 0

    # -- cooperative deadline ------------------------------------------------

    def tick(self) -> None:
        """Count one hook call; periodically check the run deadline.

        The interpreter and threaded backends call the hooks per component
        per cycle, so the check fires within a bounded number of component
        evaluations of the deadline passing without putting a clock read
        on every evaluation.  The compiled kernel calls no hook; it calls
        :meth:`check_deadline` every :data:`DEADLINE_CHECK_CYCLES` cycles.
        """
        self._ticks += 1
        if self._ticks >= DEADLINE_CHECK_INTERVAL:
            self._ticks = 0
            self.check_deadline()

    def check_deadline(self) -> None:
        """Raise :class:`DeadlineExceededError` once the deadline passed."""
        if time.monotonic() > self.deadline:
            raise DeadlineExceededError(
                "run exceeded its deadline (cooperative timeout check)"
            )

    # -- combinational hooks -------------------------------------------------

    def alu(self, name: str, funct: int, value: int, cycle: int) -> int:
        """Record one ALU evaluation; returns the value to store."""
        if self.deadline is not None:
            self.tick()
        if self.stats is not None:
            self.stats.record_alu_function(funct)
        if self.override is not None:
            return self.override(name, value, cycle)
        return value

    def selector(self, name: str, index: int, value: int, cycle: int) -> int:
        """Record one selector evaluation; returns the value to store."""
        if self.deadline is not None:
            self.tick()
        if self.stats is not None:
            self.stats.record_selector_case(name, index)
        if self.override is not None:
            return self.override(name, value, cycle)
        return value

    # -- memory hook ---------------------------------------------------------

    def memory(
        self, name: str, operation: int, address: int, output: int, cycle: int
    ) -> int:
        """Record one memory update; returns the output value to latch.

        The access count and the "Read from"/"Write to" trace record use
        the *pre-override* output, exactly as the interpreter always has;
        only the latched value is overridden.
        """
        if self.deadline is not None:
            self.tick()
        if self.stats is not None:
            self.stats.record_memory_access(name, operation, address)
        if self.trace_accesses:
            if (operation & 5) == 5:
                self.trace_log.record_access(
                    cycle, name, "write", address, output
                )
            elif (operation & 9) == 8:
                self.trace_log.record_access(
                    cycle, name, "read", address, output
                )
        if self.override is not None:
            return self.override(name, output, cycle)
        return output

    # -- cycle tracing -------------------------------------------------------

    def wants_cycle_trace(self) -> bool:
        """True when this cycle's traced values should be recorded."""
        if not self.traced:
            return False
        limit = self.trace_limit
        return limit is None or len(self.trace_log.cycles) < limit

    def record_cycle(self, cycle: int, values: dict[str, int]) -> None:
        """Record an already-resolved ``{traced name: value}`` row."""
        self.trace_log.record_cycle(cycle, values)

    def record_cycle_values(
        self, cycle: int, values: dict[str, int]
    ) -> None:
        """Pick the traced names out of a full value mapping and record.

        *values* maps every component name to its current value (the
        compiled backend's generated code passes its whole local state).
        """
        self.trace_log.record_cycle(
            cycle, {name: values[name] for name in self.traced}
        )

    # -- end of run ----------------------------------------------------------

    def fold_counts(self, cycles: int, constant_functions, function_counts,
                    selectors, memories) -> None:
        """Fold the compiled kernel's per-run counters into the statistics.

        Called once after *cycles* (> 0) cycles with what the hooks would
        have recorded: ``(function code, ALUs)`` pairs of the constant
        ALUs, the dynamic ALUs' counts by function code, ``(selector, case
        counts)`` pairs and ``(memory, (reads, writes, inputs, outputs),
        addresses)`` triples.  Only non-zero counts become keys.
        """
        stats = self.stats
        usage = stats.alu_function_usage
        for funct, alus in constant_functions:
            usage[funct] += cycles * alus
        for funct, count in enumerate(function_counts):
            if count:
                usage[funct] += count
        for name, cases in selectors:
            stats.selector_case_usage.setdefault(name, Counter()).update(
                {index: count for index, count in enumerate(cases) if count}
            )
        for name, (reads, writes, inputs, outputs), addresses in memories:
            memory = stats.memory(name)
            memory.reads += reads
            memory.writes += writes
            memory.inputs += inputs
            memory.outputs += outputs
            memory.addresses_touched.update(addresses)

    def finish(self, cycles_run: int, evaluations_per_cycle: int) -> None:
        """Fold the whole-run counters into the statistics object."""
        if self.stats is not None:
            self.stats.cycles += cycles_run
            self.stats.component_evaluations += (
                cycles_run * evaluations_per_cycle
            )


@dataclass
class RunPlan:
    """Everything a backend needs to execute one normalised run."""

    cycle_count: int
    io_system: IOSystem
    options: TraceOptions
    trace_log: TraceLog
    stats: SimulationStats | None
    #: the shared instrumentation, or ``None`` for the uninstrumented fast path
    inst: Instrumentation | None
    #: component evaluations per cycle of the program run (statistics basis)
    evaluations_per_cycle: int

    def finish(self) -> None:
        """Record the whole-run statistics counters."""
        if self.inst is not None:
            self.inst.finish(self.cycle_count, self.evaluations_per_cycle)


def resolve_traced_names(program, names, strict: bool) -> tuple[str, ...]:
    """The run-time traced *names* that name a component of *program*.

    An unknown name raises :class:`UnknownComponentError` exactly as a
    state lookup would — only when *strict*, i.e. when the run would
    really record a trace row; otherwise it is dropped.
    """
    known = program.slots
    for name in names:
        if strict and name not in known:
            raise UnknownComponentError(f"component <{name}> not found")
    return tuple(name for name in names if name in known)


def plan_run(
    program,
    cycles: int | None,
    io,
    trace,
    collect_stats: bool,
    override,
) -> RunPlan:
    """Normalise one run's arguments against a lowered *program*.

    This is the shared front half of every backend's ``run``: cycle count
    and trace-option resolution, I/O coercion, traced-name resolution, and
    instrumentation construction.
    """
    spec = program.spec
    cycle_count = resolve_cycles(spec, cycles)
    options = resolve_trace(spec, trace)
    io_system = coerce_io(io)
    trace_log = TraceLog(
        enabled=options.trace_cycles or options.trace_memory_accesses
    )
    stats = SimulationStats() if collect_stats else None

    traced: tuple[str, ...] = ()
    if options.trace_cycles:
        names = (
            list(options.names)
            if options.names is not None
            else spec.traced_names
        )
        if names:
            will_record = cycle_count > 0 and (
                options.limit is None or options.limit > 0
            )
            traced = resolve_traced_names(program, names,
                                          strict=will_record)

    deadline = current_run_deadline()
    inst: Instrumentation | None = None
    if (
        stats is not None
        or override is not None
        or traced
        or options.trace_memory_accesses
        or deadline is not None
    ):
        # a deadline alone forces the instrumented path, the only one that
        # checks the clock: through the hooks on the interpreter and
        # threaded backends, every DEADLINE_CHECK_CYCLES cycles in the
        # compiled kernel
        inst = Instrumentation(
            stats=stats,
            override=override,
            trace_log=trace_log,
            trace_accesses=options.trace_memory_accesses,
            trace_limit=options.limit,
            traced=traced,
            deadline=deadline,
        )
    return RunPlan(
        cycle_count=cycle_count,
        io_system=io_system,
        options=options,
        trace_log=trace_log,
        stats=stats,
        inst=inst,
        evaluations_per_cycle=program.evaluations_per_cycle,
    )
