"""Execution strategies for the serving pool: serial and process.

:class:`~repro.serving.pool.SimulationPool` delegates the scheduling
decision to an :class:`ExecutorStrategy`; there are two:

* **serial** — every run executes inline on the caller's thread, in
  submission order: no worker threads, no queueing, deterministic
  scheduling.  Concurrency comes from the callers themselves — the HTTP
  server runs each connection on its own thread, bounded by its
  admission gate — and every caller shares the pool's one warm prepared
  simulation (prepared simulations are re-entrant).
* **process** — true multi-core serving.  Worker processes are started
  once per pool; each receives the pool's warm prepared simulation — the
  one the serial strategy runs on — as the pool initializer's one
  argument.  A ``fork``ed worker inherits it as it is; a ``spawn`` or
  ``forkserver`` worker unpickles it once at startup (the compiled
  backend's simulation byte-compiles its shipped source, see
  :mod:`repro.compiler.compiled`), so no worker lowers the specification
  or generates code.  Requests travel to workers in chunks
  (``chunk_size``) to amortise IPC; results come back as picklable
  :class:`RunOutcome` values with per-item error capture.

``lane_width`` means the same on both: ``None`` (or 1) runs every request
scalar, and N >= 2 groups compatible requests — same cycle count, same
instrumentation profile, no trace/override/deadline — into lane groups
of up to N, each one
:meth:`~repro.core.backend.PreparedSimulation.run_lanes` call.  The
compiled backend runs a statistics-free group in **one walk** of the
per-cycle schedule (its generated ``simulate_lanes``), amortising every
per-run cost; other groups run each lane as its scalar run.
Incompatible requests run scalar inside the same chunk, and a lane whose
run raises yields a per-item error without touching its neighbours.  One
chunk runner (:func:`run_chunk`) does this for both strategies: inline
for serial, inside each worker for process (chunks across workers, lanes
within).

The input names ``thread`` and ``lane`` are still accepted (on the
wire, in the CLI and by the pool) and mapped onto a strategy and width by
:func:`resolve_executor`; nothing after it sees them.

Every strategy resolves one submitted request to one future of a
:class:`RunOutcome` — result or error, worker label, busy seconds and
queue wait — so the pool, the batch aggregates and the asyncio front-end
are strategy-agnostic.
"""

from __future__ import annotations

import math
import os
import pickle
import threading
import time
from abc import ABC, abstractmethod
from concurrent.futures import Future, InvalidStateError, ProcessPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeoutError
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from functools import partial
from typing import Sequence

from repro.core.backend import PreparedSimulation, resolve_trace
from repro.core.instrument import run_deadline
from repro.core.results import SimulationResult
from repro.errors import DeadlineExceededError, ServingError, WorkerCrashError
from repro.rtl.spec import Specification
from repro.serving.batch import RunRequest
from repro.serving.tracing import Span

#: Registered execution strategies, in cost order.
EXECUTOR_NAMES = ("serial", "process")

#: Default number of lanes per group when the caller does not choose one.
#: Wide enough to amortise the per-group overhead (one plan, one result
#: pass), narrow enough that heterogeneous batches still fill groups.
DEFAULT_LANE_WIDTH = 16

#: Input names kept for compatibility: each runs the serial strategy, at
#: this lane width when the caller gave none (``None`` keeps the width).
EXECUTOR_ALIASES = {"thread": None, "lane": DEFAULT_LANE_WIDTH}

#: Every name :func:`resolve_executor` accepts.
EXECUTOR_CHOICES = EXECUTOR_NAMES + tuple(EXECUTOR_ALIASES)


def resolve_executor(
    name: str, lane_width: int | None = None
) -> tuple[str, int | None]:
    """Map an accepted executor name onto ``(strategy, lane width)``.

    The returned width is ``None`` for scalar execution (a width of 1
    groups nothing) and N >= 2 for lane groups of up to N.  Raises
    :class:`~repro.errors.ServingError` for a name that is neither a
    strategy nor an alias.
    """
    if name in EXECUTOR_ALIASES:
        if lane_width is None:
            lane_width = EXECUTOR_ALIASES[name]
        name = "serial"
    elif name not in EXECUTOR_NAMES:
        raise ServingError(
            f"unknown executor '{name}'; expected one of {EXECUTOR_CHOICES}"
        )
    return name, (lane_width if lane_width is not None and lane_width > 1
                  else None)


#: Worker crashes a single request may cause before it is quarantined.
MAX_CRASHES_PER_REQUEST = 2

#: Capped exponential backoff between pool respawn and chunk retry.
RETRY_BACKOFF_SECONDS = 0.05
RETRY_BACKOFF_CAP_SECONDS = 1.0

#: The process executor's wall-clock backstop fires at this multiple of a
#: chunk's largest per-item deadline — the bound on how long a hard-hung
#: worker (one the cooperative check cannot interrupt) can hold a request.
WALL_CLOCK_DEADLINE_FACTOR = 2.0

#: Cumulative resilience counters every strategy reports (all zero except
#: on the process executor, the only strategy whose workers can die).
ZERO_COUNTERS = {"worker_crashes": 0, "worker_retries": 0, "quarantined": 0}


def _try_resolve(future: Future, outcomes=None, error=None) -> bool:
    """Resolve *future* if still pending (wall-clock backstop vs. the real
    chunk result is a benign race: first writer wins, the loser is
    discarded)."""
    try:
        if error is not None:
            future.set_exception(error)
        else:
            future.set_result(outcomes)
        return True
    except InvalidStateError:
        return False


@dataclass
class RunOutcome:
    """What one scheduled run produced, wherever it executed.

    Exactly one of ``result``/``error`` is set.  ``worker`` labels the
    thread or process that ran the request; ``queue_seconds`` is the time
    the request (or its chunk) waited between submission and execution
    start, measured on the system-wide monotonic clock so it is meaningful
    across process boundaries.

    ``spans`` carries the execution-side trace records
    (:class:`~repro.serving.tracing.Span` tuples — ``worker_run``,
    ``lane_group`` or a terminal ``error``) stamped where the run actually
    executed; they are plain tuples on the monotonic clock, so they
    survive the pickle back from a worker process and line up with the
    parent's spans without translation.  ``parent`` indices are relative
    to this outcome's own tuple (``None`` = attach to the dispatch span
    when the request trace is assembled).
    """

    result: SimulationResult | None
    error: Exception | None
    seconds: float
    worker: str
    queue_seconds: float
    spans: tuple = ()


def _error_span(start: float, duration: float, worker: str,
                error: Exception) -> Span:
    """The terminal ``error`` span for a failed run (never vanishes)."""
    detail = f"{type(error).__name__}: {error}"[:200]
    return Span("error", start, duration, None, worker, None, detail)


def _run_scalar(
    prepared: PreparedSimulation, request: RunRequest
) -> tuple[SimulationResult, float]:
    """Run one request on *prepared*: (result, busy seconds)."""
    start = time.perf_counter()
    request.check_supported(prepared)
    result = prepared.run(
        cycles=request.cycles,
        io=request.make_io(),
        trace=request.trace,
        collect_stats=request.collect_stats,
        override=request.override,
    )
    return result, time.perf_counter() - start


def execute_outcome(
    prepared: PreparedSimulation, request: RunRequest, submitted: float,
    worker: str,
) -> RunOutcome:
    """Run one request, capturing any ``Exception`` into the outcome.

    Enforces the request's ``timeout_seconds`` deadline, measured from
    *submitted*: a request whose queue wait already spent the budget is
    shed without executing, and an executing run is scoped under
    :func:`~repro.core.instrument.run_deadline` so the instrumentation
    hooks interrupt it cooperatively.  This one code path covers the
    serial executor in-process and the process executor inside its
    workers (``submitted`` is system-wide monotonic time, so the budget
    survives the process boundary).

    ``BaseException`` (KeyboardInterrupt and friends) propagates — the
    batch machinery re-raises it rather than recording it per item.
    """
    entered = time.monotonic()
    queue_seconds = max(0.0, entered - submitted)
    deadline = None
    if request.timeout_seconds is not None:
        remaining = request.timeout_seconds - queue_seconds
        if remaining <= 0.0:
            shed = DeadlineExceededError(
                f"request shed before execution: waited "
                f"{queue_seconds:.3f}s in queue against a "
                f"{request.timeout_seconds:.3f}s deadline"
            )
            return RunOutcome(
                result=None, error=shed,
                seconds=0.0, worker=worker, queue_seconds=queue_seconds,
                spans=(_error_span(entered, 0.0, worker, shed),),
            )
        deadline = entered + remaining
    try:
        if deadline is None:
            result, seconds = _run_scalar(prepared, request)
        else:
            with run_deadline(deadline):
                result, seconds = _run_scalar(prepared, request)
    except Exception as exc:  # noqa: BLE001 - rerouted per item
        return RunOutcome(
            result=None, error=exc, seconds=0.0,
            worker=worker, queue_seconds=queue_seconds,
            spans=(_error_span(
                entered, time.monotonic() - entered, worker, exc),),
        )
    return RunOutcome(
        result=result, error=None, seconds=seconds,
        worker=worker, queue_seconds=queue_seconds,
        spans=(Span("worker_run", entered, time.monotonic() - entered,
                    None, worker, None, None),),
    )


def _spread_chunk(
    slots: "list[Future[RunOutcome]]", chunk_future: Future
) -> None:
    """Resolve per-item futures from one finished chunk future."""
    try:
        outcomes = chunk_future.result()
    except BaseException as exc:  # noqa: BLE001 - mirrored into every item
        for slot in slots:
            slot.set_exception(exc)
        return
    for slot, outcome in zip(slots, outcomes):
        slot.set_result(outcome)


class ExecutorStrategy(ABC):
    """One way of scheduling run requests onto compute."""

    #: strategy name as accepted by ``SimulationPool(executor=...)``
    name: str = "strategy"

    def __init__(self, workers: int, lane_width: int | None = None) -> None:
        self.workers = workers
        #: lane group size (``None`` = scalar; see :func:`run_chunk`)
        self.lane_width = lane_width

    @abstractmethod
    def submit_chunk(
        self, requests: Sequence[RunRequest]
    ) -> "Future[list[RunOutcome]]":
        """Schedule one chunk; the future resolves to per-item outcomes."""

    def default_chunk_size(self, count: int) -> int:
        """Requests per chunk when the caller did not choose one."""
        return 1

    def counters(self) -> dict[str, int]:
        """Cumulative resilience counters (see :data:`ZERO_COUNTERS`)."""
        return dict(ZERO_COUNTERS)

    def submit_many(
        self, requests: Sequence[RunRequest], chunk_size: int | None = None
    ) -> "list[Future[RunOutcome]]":
        """Schedule every request, returning one outcome future per item.

        Requests are grouped into chunks of *chunk_size* (default: the
        strategy's own heuristic) and each chunk travels as one scheduling
        unit; per-item futures are resolved when their chunk completes.
        """
        requests = list(requests)
        if not requests:
            return []
        if chunk_size is None:
            chunk_size = self.default_chunk_size(len(requests))
        item_futures: list[Future] = [Future() for _ in requests]
        for start in range(0, len(requests), chunk_size):
            chunk = requests[start:start + chunk_size]
            slots = item_futures[start:start + len(chunk)]
            self.submit_chunk(chunk).add_done_callback(
                partial(_spread_chunk, slots)
            )
        return item_futures

    @abstractmethod
    def close(self, wait: bool = True) -> None:
        """Release the strategy's workers."""


class SerialExecutor(ExecutorStrategy):
    """Inline execution on the caller's thread, in submission order.

    Every caller runs on the one *prepared* simulation.
    """

    name = "serial"

    def __init__(self, prepared: PreparedSimulation,
                 lane_width: int | None = None) -> None:
        super().__init__(workers=1, lane_width=lane_width)
        self._prepared = prepared

    def _run(self, requests) -> "list[RunOutcome]":
        return run_chunk(self._prepared, list(requests), time.monotonic(),
                         "serial-0", self.lane_width)

    def submit_chunk(self, requests):
        future: Future = Future()
        future.set_result(self._run(requests))
        return future

    def execute_many(
        self, requests: Sequence[RunRequest], chunk_size: int | None = None
    ) -> "list[RunOutcome]":
        """Outcomes for every request, produced inline without the
        per-item ``Future`` plumbing of :meth:`submit_many` — per-run
        scheduling overhead is precisely what lanes amortise.  The whole
        batch is one chunk by default, so grouping sees all of it."""
        requests = list(requests)
        size = chunk_size or max(1, len(requests))
        outcomes: "list[RunOutcome]" = []
        for start in range(0, len(requests), size):
            outcomes.extend(self._run(requests[start:start + size]))
        return outcomes

    def close(self, wait: bool = True) -> None:
        pass


# ---------------------------------------------------------------------------
# Chunk execution: lane grouping of compatible requests, scalar otherwise
# ---------------------------------------------------------------------------


def lane_compatible(request: RunRequest, spec: Specification) -> bool:
    """Whether *request* may ride in a lane group.

    Lane groups carry only the fast-path run shape: no per-cycle
    ``override``, no deadline, and no tracing.  Note the trace decision
    must be resolved against the specification — ``trace=None`` on a
    machine with ``*`` trace declarations means tracing is *on* — so an
    eligible request is one whose resolved options disable both trace
    kinds.  Everything else executes scalar inside the same chunk.
    """
    if request.override is not None or request.timeout_seconds is not None:
        return False
    options = resolve_trace(spec, request.trace)
    return not (options.trace_cycles or options.trace_memory_accesses)


def execute_lane_chunk(
    prepared: PreparedSimulation,
    requests: "list[RunRequest]",
    submitted: float,
    worker: str,
    lane_width: int,
) -> "list[RunOutcome]":
    """Execute one chunk with lane grouping; outcomes in request order.

    Compatible requests are grouped by execution profile (cycle count and
    statistics collection) and sliced into lane groups of up to
    *lane_width*; a group-level failure is mirrored into every member.
    Lone lanes gain nothing from vectorization and run scalar along with
    the incompatible (override / trace / deadline) requests.
    """
    outcomes: "list[RunOutcome | None]" = [None] * len(requests)
    groups: "dict[tuple, list[int]]" = {}
    # batches routinely repeat one request object N times, so the
    # compatibility decision is memoized per distinct object
    decisions: "dict[int, tuple | None]" = {}
    for index, request in enumerate(requests):
        ident = id(request)
        key = decisions.get(ident, False)
        if key is False:
            key = (
                (request.cycles, request.collect_stats)
                if lane_compatible(request, prepared.spec) else None
            )
            decisions[ident] = key
        if key is not None:
            groups.setdefault(key, []).append(index)
    for indices in groups.values():
        for start in range(0, len(indices), lane_width):
            lane_indices = indices[start:start + lane_width]
            if len(lane_indices) < 2:
                continue  # a lone lane runs scalar below
            queue_seconds = max(0.0, time.monotonic() - submitted)
            lane_requests = [requests[i] for i in lane_indices]
            begin = time.perf_counter()
            begin_mono = time.monotonic()
            lane_count = len(lane_indices)

            def lane_span(group_seconds: float) -> Span:
                return Span("lane_group", begin_mono, group_seconds, None,
                            worker, None, f"lanes={lane_count}")

            try:
                for request in lane_requests:
                    request.check_supported(prepared)
                lane_outcomes = prepared.run_lanes(
                    cycles=lane_requests[0].cycles,
                    ios=[request.make_io() for request in lane_requests],
                    collect_stats=lane_requests[0].collect_stats,
                )
            except Exception as exc:  # noqa: BLE001 - mirrored per item
                group_seconds = time.monotonic() - begin_mono
                for i in lane_indices:
                    outcomes[i] = RunOutcome(
                        result=None, error=exc, seconds=0.0,
                        worker=worker, queue_seconds=queue_seconds,
                        spans=(lane_span(group_seconds),
                               _error_span(begin_mono, group_seconds,
                                           worker, exc)._replace(parent=0)),
                    )
                continue
            group_seconds = time.monotonic() - begin_mono
            seconds = (time.perf_counter() - begin) / lane_count
            # each lane's run span is a synthetic 1/N slice of the group:
            # a generated lane kernel runs the whole group in one schedule
            # walk, so per-lane time is attributed, not measured
            share = group_seconds / lane_count
            for slot, (i, outcome) in enumerate(
                    zip(lane_indices, lane_outcomes)):
                slice_start = begin_mono + slot * share
                if outcome.error is None:
                    run_span = Span("worker_run", slice_start, share, 0,
                                    worker, None, "lane-slice")
                else:
                    run_span = _error_span(
                        slice_start, share, worker, outcome.error,
                    )._replace(parent=0)
                outcomes[i] = RunOutcome(
                    result=outcome.result,
                    error=outcome.error,
                    seconds=seconds if outcome.error is None else 0.0,
                    worker=worker,
                    queue_seconds=queue_seconds,
                    spans=(lane_span(group_seconds), run_span),
                )
    for index, request in enumerate(requests):
        if outcomes[index] is None:
            outcomes[index] = execute_outcome(
                prepared, request, submitted, worker
            )
    return outcomes  # type: ignore[return-value]


def run_chunk(
    prepared: PreparedSimulation,
    requests: "list[RunRequest]",
    submitted: float,
    worker: str,
    lane_width: int | None,
) -> "list[RunOutcome]":
    """Execute one chunk on *prepared*: lane groups when *lane_width* is
    >= 2, scalar runs otherwise.  The serial strategy calls this on the
    caller's thread; a process worker calls it on its copy of the pool's
    warm simulation."""
    if lane_width is not None and lane_width > 1 and len(requests) > 1:
        return execute_lane_chunk(prepared, requests, submitted, worker,
                                  lane_width)
    return [
        execute_outcome(prepared, request, submitted, worker)
        for request in requests
    ]


# ---------------------------------------------------------------------------
# The process strategy: worker bootstrap and chunk execution
# ---------------------------------------------------------------------------


#: This worker's prepared simulation (set by the pool initializer).
_WORKER_PREPARED: PreparedSimulation | None = None


def _initialize_worker(prepared: PreparedSimulation) -> None:
    global _WORKER_PREPARED
    _WORKER_PREPARED = prepared


def _run_chunk_in_worker(
    requests: list, submitted: float, lane_width: int | None = None
):
    prepared = _WORKER_PREPARED
    if prepared is None:  # pragma: no cover - initializer always ran
        raise ServingError("worker process was never initialized")
    return run_chunk(prepared, list(requests), submitted,
                     f"pid-{os.getpid()}", lane_width)


def _lost_outcome(error: Exception) -> RunOutcome:
    """A per-item outcome for a request whose worker never answered.

    Carries a terminal ``error`` span (zero-length, stamped parent-side at
    the moment the loss was established) so the request does not vanish
    from its trace.
    """
    return RunOutcome(
        result=None, error=error,
        seconds=0.0, worker="lost", queue_seconds=0.0,
        spans=(_error_span(time.monotonic(), 0.0, "lost", error),),
    )


def _crash_outcome(message: str) -> RunOutcome:
    """A per-item outcome for a request lost to repeated worker deaths."""
    return _lost_outcome(WorkerCrashError(message))


class ProcessExecutor(ExecutorStrategy):
    """True multi-core serving over a pool of worker processes.

    Every worker runs the pool's warm *prepared* simulation, handed over
    once as the pool initializer's argument (inherited on ``fork``,
    unpickled once on ``spawn``/``forkserver``).  It must therefore
    pickle, which construction checks eagerly, so a third-party backend
    whose simulation cannot cross a process boundary fails here and not
    in a dying worker.  Requests travel in chunks to amortise IPC — the
    default chunk size targets about two chunks per worker, balancing
    transfer overhead against scheduling granularity for heterogeneous
    batches.

    **Crash recovery.**  A dying worker breaks the whole
    ``ProcessPoolExecutor`` (every pending future gets
    ``BrokenProcessPool``).  Rather than failing the batch, every chunk
    is fronted by a *mirror* future: on a broken pool the executor
    respawns its process pool (once per crash, guarded by a generation
    counter so concurrent chunk callbacks do not race), waits a capped
    exponential backoff, and retries the lost requests.  A multi-item
    chunk is retried as singletons so one poisoned request cannot take
    innocents down a second time; a singleton that kills a worker again —
    :data:`MAX_CRASHES_PER_REQUEST` crashes on its account — is
    quarantined as a :class:`~repro.errors.WorkerCrashError` item.
    Recovery runs on its own daemon thread (never on the pool's executor
    management thread, which must stay free to drive the respawned pool).

    **Wall-clock backstop.**  The cooperative deadline check runs inside
    the worker and cannot interrupt a run that is stuck in a single
    blocking call; chunks with deadlines therefore arm a timer at
    :data:`WALL_CLOCK_DEADLINE_FACTOR` × the chunk's largest deadline that
    resolves the mirror future with per-item
    :class:`~repro.errors.DeadlineExceededError` outcomes, so a
    hard-hung worker bounds the caller's wait at twice the deadline.
    """

    name = "process"

    def __init__(
        self,
        prepared: PreparedSimulation,
        workers: int,
        mp_context=None,
        lane_width: int | None = None,
    ) -> None:
        super().__init__(workers=workers, lane_width=lane_width)
        try:
            pickle.dumps(prepared)
        except Exception as exc:
            raise ServingError(
                "the process executor ships the prepared simulation to its "
                f"workers, so it must be picklable; {type(prepared).__name__} "
                f"failed to pickle ({exc})"
            ) from exc
        if isinstance(mp_context, str):
            import multiprocessing

            mp_context = multiprocessing.get_context(mp_context)
        self._prepared = prepared
        self._mp_context = mp_context
        self._pool_lock = threading.Lock()
        # serialises post-crash retries: a retried request executes alone,
        # so a repeat crash is attributable to it and innocents that
        # merely shared the broken pool are never charged
        self._retry_lock = threading.Lock()
        self._generation = 0
        self._closed = False
        self._counter_lock = threading.Lock()
        self._counts = dict(ZERO_COUNTERS)
        self._processes = self._spawn()

    def _spawn(self) -> ProcessPoolExecutor:
        return ProcessPoolExecutor(
            max_workers=self.workers,
            mp_context=self._mp_context,
            initializer=_initialize_worker,
            initargs=(self._prepared,),
        )

    def default_chunk_size(self, count: int) -> int:
        # about two chunks per worker: four per worker doubled the IPC
        # dispatches on small batches for no load-balance gain, which is
        # what made small-cycle process batches lose to serial
        return max(1, math.ceil(count / (self.workers * 2)))

    def counters(self) -> dict[str, int]:
        with self._counter_lock:
            return dict(self._counts)

    def _count(self, counter: str) -> None:
        with self._counter_lock:
            self._counts[counter] += 1

    def submit_chunk(self, requests):
        requests = list(requests)
        mirror: Future = Future()
        self._dispatch(requests, mirror, charged_crashes=0)
        self._arm_wall_clock(requests, mirror)
        return mirror

    # -- dispatch and crash detection ---------------------------------------

    def _dispatch(self, requests, mirror: Future, charged_crashes: int) -> None:
        """Submit one chunk against the current pool generation.

        A chunk that fails to pickle (e.g. a lambda override) resolves
        the mirror with the pickling error; _spread_chunk routes it to
        the chunk's items and the rest of the batch is unaffected.
        """
        with self._pool_lock:
            processes = self._processes
            generation = self._generation
        try:
            chunk_future = processes.submit(
                _run_chunk_in_worker, list(requests), time.monotonic(),
                self.lane_width,
            )
        except BrokenProcessPool:
            # the pool was already broken before this chunk entered it:
            # someone else's crash, so recover without charging these
            # requests
            self._recover_async(requests, mirror, charged_crashes,
                                generation, charge=False)
            return
        except BaseException as exc:  # noqa: BLE001 - e.g. shutdown race
            _try_resolve(mirror, error=exc)
            return
        chunk_future.add_done_callback(
            partial(self._chunk_done, requests, mirror, charged_crashes,
                    generation)
        )

    def _chunk_done(
        self, requests, mirror: Future, charged_crashes: int,
        generation: int, chunk_future: Future,
    ) -> None:
        try:
            outcomes = chunk_future.result()
        except BrokenProcessPool:
            # a worker died while this chunk was (or may have been) running
            self._recover_async(requests, mirror, charged_crashes,
                                generation, charge=True)
            return
        except BaseException as exc:  # noqa: BLE001 - mirrored to the chunk
            _try_resolve(mirror, error=exc)
            return
        _try_resolve(mirror, outcomes=outcomes)

    # -- recovery ------------------------------------------------------------

    def _recover_async(
        self, requests, mirror: Future, charged_crashes: int,
        generation: int, charge: bool,
    ) -> None:
        """Hand the lost chunk to a recovery thread.

        Never recover on the calling thread: a chunk future's done
        callback runs on the pool's executor management thread, which
        must stay free to drive the respawned pool.
        """
        thread = threading.Thread(
            target=self._recover,
            args=(requests, mirror, charged_crashes, generation, charge),
            name="repro-pool-recovery",
            daemon=True,
        )
        thread.start()

    def _recover(
        self, requests, mirror: Future, charged_crashes: int,
        generation: int, charge: bool,
    ) -> None:
        if not self._respawn(generation):
            # executor closed mid-recovery: report the loss, do not retry
            _try_resolve(mirror, outcomes=[
                _crash_outcome(
                    "worker process died and the executor was closed "
                    "before the request could be retried"
                )
                for _ in requests
            ])
            return
        if charge:
            charged_crashes += 1
        time.sleep(min(
            RETRY_BACKOFF_CAP_SECONDS,
            RETRY_BACKOFF_SECONDS * (2 ** charged_crashes),
        ))
        # retry one request at a time (even for a multi-item chunk):
        # isolation turns "some request in this chunk kills workers" into
        # "exactly this request kills workers", so quarantine lands on
        # the poisoned request and the innocents complete normally
        outcomes: list[RunOutcome] = []
        for request in requests:
            outcomes.extend(self._retry_alone(request, charged_crashes))
        _try_resolve(mirror, outcomes=outcomes)

    def _retry_alone(
        self, request: RunRequest, charged_crashes: int
    ) -> "list[RunOutcome]":
        """Retry one crashed request under the serialised retry lock.

        Holding the lock across the blocking wait means retried requests
        execute one at a time; a pool breakage during the wait is
        therefore *this* request's doing and is charged to it, while a
        pool found already-broken at submit (someone else crashed it
        between retries) costs nothing and is simply re-dispatched.
        """
        while True:
            if charged_crashes >= MAX_CRASHES_PER_REQUEST:
                self._count("quarantined")
                return [_crash_outcome(
                    f"request quarantined after killing {charged_crashes} "
                    "worker processes (poisoned-request detection)"
                )]
            crashed_alone = False
            with self._retry_lock:
                with self._pool_lock:
                    closed = self._closed
                    processes = self._processes
                    generation = self._generation
                if closed:
                    return [_crash_outcome(
                        "worker process died and the executor was closed "
                        "before the request could be retried"
                    )]
                try:
                    chunk_future = processes.submit(
                        _run_chunk_in_worker, [request], time.monotonic()
                    )
                except BrokenProcessPool:
                    # broken before we ran: not ours, respawn and re-enter
                    self._respawn(generation)
                    continue
                except Exception as exc:  # noqa: BLE001 - e.g. shutdown race
                    return [_lost_outcome(exc)]
                self._count("worker_retries")
                wait = None
                if request.timeout_seconds is not None:
                    wait = (
                        request.timeout_seconds * WALL_CLOCK_DEADLINE_FACTOR
                    )
                try:
                    return chunk_future.result(timeout=wait)
                except BrokenProcessPool:
                    crashed_alone = True
                except FuturesTimeoutError:
                    chunk_future.cancel()
                    return [_lost_outcome(DeadlineExceededError(
                        "retried request did not answer within "
                        f"{WALL_CLOCK_DEADLINE_FACTOR:g}x its deadline "
                        "(wall-clock backstop)"
                    ))]
                except Exception as exc:  # noqa: BLE001 - mirrored per item
                    return [_lost_outcome(exc)]
            if crashed_alone:
                charged_crashes += 1
                self._respawn(generation)
                time.sleep(min(
                    RETRY_BACKOFF_CAP_SECONDS,
                    RETRY_BACKOFF_SECONDS * (2 ** charged_crashes),
                ))

    def _respawn(self, generation: int) -> bool:
        """Replace the broken pool; False when the executor is closed.

        Counts one crash per pool actually replaced.  The generation
        guard makes respawn idempotent under a crash storm: a dying
        worker breaks every in-flight chunk at once, each of which lands
        here, but only the first replaces the pool — the rest see a newer
        generation and simply retry against the fresh pool.
        """
        with self._pool_lock:
            if self._closed:
                return False
            if self._generation == generation:
                dead = self._processes
                self._processes = self._spawn()
                self._generation += 1
                self._count("worker_crashes")
                dead.shutdown(wait=False)
        return True

    # -- wall-clock backstop -------------------------------------------------

    def _arm_wall_clock(self, requests, mirror: Future) -> None:
        timeouts = [
            request.timeout_seconds
            for request in requests
            if request.timeout_seconds is not None
        ]
        if not timeouts:
            return

        def expire() -> None:
            _try_resolve(mirror, outcomes=[
                _lost_outcome(DeadlineExceededError(
                    "worker did not answer within "
                    f"{WALL_CLOCK_DEADLINE_FACTOR:g}x the deadline "
                    "(wall-clock backstop; the worker may be hung)"
                ))
                for _ in requests
            ])

        timer = threading.Timer(
            max(timeouts) * WALL_CLOCK_DEADLINE_FACTOR, expire
        )
        timer.daemon = True
        timer.start()
        mirror.add_done_callback(lambda _future: timer.cancel())

    def close(self, wait: bool = True) -> None:
        with self._pool_lock:
            self._closed = True
            processes = self._processes
        processes.shutdown(wait=wait)
