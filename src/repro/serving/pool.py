"""Fan-out of one prepared machine over many runs, on a pluggable engine.

The pool is the serving layer's engine room.  Construction resolves the
backend and performs one warm ``prepare`` on the caller's thread; for the
cache-backed backends (threaded, compiled) this pays code generation once
and seeds the prepare cache, and it surfaces compilation errors before
any run is scheduled.

Scheduling is delegated to an execution strategy
(:mod:`repro.serving.executor`): ``serial`` runs inline on the caller's
thread, and ``process`` ships the warm prepared simulation to worker
processes once and scales with CPU cores.  ``lane_width`` turns on lane
groups on either: the compiled backend generates a lane kernel for
statistics-free groups, and other backends and compiled statistics
groups run each lane as its scalar run.  ``chunk_size`` groups requests
per scheduling unit to amortise IPC on the process strategy.

Every run executes on the pool's single warm
:class:`~repro.core.backend.PreparedSimulation`, whatever the backend
and strategy: in-process on serial, as each worker's copy of it on
process (inherited on ``fork``, unpickled once on ``spawn``).  Prepared
simulations are re-entrant by contract (each ``run`` builds fresh
mutable state), so concurrent callers — the HTTP server's connection
threads — share one prepared program instead of binding one each; on the
cache-backed backends that program is the shared lowered
:class:`~repro.lowering.program.CycleProgram` (see ``shared_program``).

Throughput model: simulations are pure Python, so in-process runs share
one core through the GIL; ``process`` workers each own a core and win by
actually simulating in parallel — the dimension ``BENCH_batch.json``
measures.
"""

from __future__ import annotations

import os
import threading
import time
from concurrent.futures import Future
from typing import Sequence

from repro.compiler.cache import spec_fingerprint
from repro.compiler.optimizer import CodegenOptions
from repro.core.backend import PreparedSimulation
from repro.core.results import SimulationResult
from repro.core.simulator import DEFAULT_BACKEND, BackendLike, make_backend
from repro.errors import ServingError
from repro.serving.batch import BatchItem, BatchRequest, BatchResult, RunRequest
from repro.serving.executor import (
    ExecutorStrategy,
    ProcessExecutor,
    RunOutcome,
    SerialExecutor,
    resolve_executor,
)
from repro.serving.tracing import Span, outcome_spans


def _available_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux fallback
        return os.cpu_count() or 1


def batch_items(
    requests: Sequence[RunRequest],
    outcomes: "Sequence[RunOutcome | BaseException]",
    collected: "Sequence[float] | None" = None,
    executor: str | None = None,
) -> list[BatchItem]:
    """Pair requests with their outcomes (RunOutcome, or the exception
    that killed the whole scheduling unit, e.g. an unpicklable chunk).

    *collected*, when given, holds the parent-side monotonic timestamp at
    which each outcome was gathered; together with *executor* it lets the
    per-item trace spans include the IPC return leg on the process
    strategy (see :func:`~repro.serving.tracing.outcome_spans`).  Every
    failed item carries a terminal ``error`` span — errors never vanish
    from a trace.
    """
    items: list[BatchItem] = []
    for index, (request, outcome) in enumerate(zip(requests, outcomes)):
        gathered = collected[index] if collected is not None else None
        if isinstance(outcome, BaseException):
            if not isinstance(outcome, Exception):  # let KeyboardInterrupt &c out
                raise outcome
            at = gathered if gathered is not None else time.monotonic()
            detail = f"{type(outcome).__name__}: {outcome}"[:200]
            spans = (Span("error", at, 0.0, None, None, index, detail),)
            items.append(BatchItem(index=index, request=request,
                                   error=outcome, spans=spans))
        else:
            spans = tuple(
                span._replace(item=index)
                for span in outcome_spans(outcome, gathered, executor)
            )
            items.append(
                BatchItem(
                    index=index,
                    request=request,
                    result=outcome.result,
                    error=outcome.error,
                    seconds=outcome.seconds,
                    worker=outcome.worker,
                    queue_seconds=outcome.queue_seconds,
                    spans=spans,
                )
            )
    return items


class SimulationPool:
    """A worker pool serving many runs of one prepared specification.

    ``executor`` picks the execution strategy (``"serial"`` or
    ``"process"``; the aliases ``thread`` and ``lane`` resolve to
    serial, see :func:`~repro.serving.executor.resolve_executor`).
    ``lane_width`` bounds how many compatible requests ride one lane
    group (see :mod:`repro.serving.executor`): ``None`` or 1 runs scalar,
    N >= 2 groups inline on serial and *inside* each worker on process,
    composing compiled lane kernels with multi-core fan-out.  ``chunk_size``
    fixes how many requests travel per scheduling unit (default: one for
    scalar serial, the whole batch for serial lanes, about two chunks per
    worker for process).  ``mp_context`` picks the process strategy's
    start method (a name such as ``"spawn"`` or a multiprocessing
    context; default: the platform's).

    The pool is a context manager; ``close()`` (or leaving the ``with``
    block) waits for in-flight runs and rejects new submissions.
    """

    def __init__(
        self,
        spec,
        backend: BackendLike = DEFAULT_BACKEND,
        max_workers: int | None = None,
        codegen_options: CodegenOptions | None = None,
        executor: str = "serial",
        chunk_size: int | None = None,
        mp_context=None,
        lane_width: int | None = None,
    ) -> None:
        if lane_width is not None and lane_width <= 0:
            raise ServingError(
                f"lane_width must be positive, got {lane_width}"
            )
        executor, lane_width = resolve_executor(executor, lane_width)
        if max_workers is not None and max_workers <= 0:
            raise ServingError(
                f"max_workers must be positive, got {max_workers}"
            )
        if executor == "serial":
            max_workers = 1  # inline on the caller's thread
        elif max_workers is None:
            # one worker per available core: the whole point is parallelism
            max_workers = max(2, min(8, _available_cpus()))
        if chunk_size is not None and chunk_size <= 0:
            raise ServingError(
                f"chunk_size must be positive, got {chunk_size}"
            )
        self.spec = spec
        self.max_workers = max_workers
        self.chunk_size = chunk_size
        self.lane_width = lane_width
        self._backend = make_backend(backend, codegen_options)
        # warm prepare on the caller's thread: seeds the shared cache (when
        # the backend has one) and surfaces compilation errors eagerly,
        # before any worker exists
        start = time.perf_counter()
        self._warm: PreparedSimulation = self._backend.prepare(spec)
        self.prepare_seconds = time.perf_counter() - start
        self._strategy: ExecutorStrategy = (
            SerialExecutor(self._warm, lane_width) if executor == "serial"
            else ProcessExecutor(self._warm, workers=max_workers,
                                 mp_context=mp_context,
                                 lane_width=lane_width)
        )
        self._closed = False
        # makes the closed check and the executor submit atomic against a
        # concurrent close(), so racing submitters always see ServingError
        # rather than the executor's RuntimeError
        self._submit_lock = threading.Lock()

    # -- introspection -------------------------------------------------------

    @property
    def backend_name(self) -> str:
        return self._backend.name

    @property
    def executor_name(self) -> str:
        return self._strategy.name

    @property
    def shared_program(self):
        """The lowered program every in-process run executes, or ``None``.

        It is the warm prepared simulation's program (shared with the
        prepare cache on the cache-backed backends); process workers run
        their copy of the warm simulation, shipped once at pool startup.
        """
        return getattr(self._warm, "program", None)

    @property
    def supports_override(self) -> bool:
        """Whether runs on this pool may carry a per-cycle ``override``
        (the warm prepared simulation's capability flag; consulted by the
        HTTP server before scheduling, and per run by ``check_supported``)."""
        return getattr(self._warm, "supports_override", True)

    @property
    def supports_full_stats(self) -> bool:
        """Whether this pool's backend reports the full statistics
        breakdown (see :class:`~repro.core.backend.PreparedSimulation`)."""
        return getattr(self._warm, "supports_full_stats", True)

    @property
    def closed(self) -> bool:
        return self._closed

    def resilience_counters(self) -> dict[str, int]:
        """Cumulative crash/retry/quarantine counters for this pool's
        strategy (all zero except on the process executor)."""
        return self._strategy.counters()

    # -- submission ----------------------------------------------------------

    def _check_open(self) -> None:
        if self._closed:
            raise ServingError("simulation pool is closed")

    def _submit_many(
        self, requests: Sequence[RunRequest]
    ) -> "list[Future[RunOutcome]]":
        with self._submit_lock:
            self._check_open()
            if not isinstance(self._strategy, SerialExecutor):
                return self._strategy.submit_many(requests, self.chunk_size)
        # the serial strategy executes inline at submission: run it outside
        # the lock so close(wait=False) never blocks on a batch and a run
        # hook that submits re-entrantly cannot deadlock (there is no
        # underlying executor for close() to race with)
        return self._strategy.submit_many(requests, self.chunk_size)

    def submit(self, request: RunRequest) -> "Future[SimulationResult]":
        """Schedule one run; the future resolves to its SimulationResult."""
        outcome_future = self._submit_many([request])[0]
        result_future: Future = Future()

        def relay(done: Future) -> None:
            try:
                outcome = done.result()
            except BaseException as exc:  # noqa: BLE001 - mirrored over
                result_future.set_exception(exc)
                return
            if outcome.error is not None:
                result_future.set_exception(outcome.error)
            else:
                result_future.set_result(outcome.result)

        outcome_future.add_done_callback(relay)
        return result_future

    def run(self, request: RunRequest) -> SimulationResult:
        """Run one request on the pool and wait for its result."""
        return self.submit(request).result()

    def run_batch(
        self, runs: BatchRequest | Sequence[RunRequest]
    ) -> BatchResult:
        """Run every request, collecting per-run outcomes in order.

        A run that raises becomes a :class:`BatchItem` with ``error`` set;
        the other runs are unaffected.
        """
        requests = self._coerce_runs(runs)
        start = time.perf_counter()
        before = self._strategy.counters()
        outcomes: "list[RunOutcome | BaseException]"
        collected: "list[float]"
        if isinstance(self._strategy, SerialExecutor) and self.lane_width:
            # serial lanes produce outcomes directly on this thread — no
            # per-item Future plumbing (same no-deadlock reasoning as in
            # _submit_many: execution happens outside the submit lock)
            with self._submit_lock:
                self._check_open()
            outcomes = self._strategy.execute_many(requests, self.chunk_size)
            collected = [time.monotonic()] * len(outcomes)
        else:
            outcomes = []
            collected = []
            for future in self._submit_many(requests):
                try:
                    outcomes.append(future.result())
                except BaseException as exc:  # noqa: BLE001 - per item
                    outcomes.append(exc)
                collected.append(time.monotonic())
        wall_seconds = time.perf_counter() - start
        after = self._strategy.counters()
        return BatchResult(
            backend=self.backend_name,
            pool_size=self.max_workers,
            items=batch_items(requests, outcomes, collected,
                              self.executor_name),
            wall_seconds=wall_seconds,
            prepare_seconds=self.prepare_seconds,
            executor=self.executor_name,
            worker_crashes=after["worker_crashes"] - before["worker_crashes"],
            worker_retries=after["worker_retries"] - before["worker_retries"],
            quarantined=after["quarantined"] - before["quarantined"],
        )

    def _coerce_runs(
        self, runs: BatchRequest | Sequence[RunRequest]
    ) -> list[RunRequest]:
        if isinstance(runs, BatchRequest):
            if runs.spec is not self.spec and (
                spec_fingerprint(runs.spec) != spec_fingerprint(self.spec)
            ):
                raise ServingError(
                    "batch request specification does not match the pool's; "
                    "build a pool per machine (the prepare artifact is "
                    "per-specification)"
                )
            requested = (
                runs.backend
                if isinstance(runs.backend, str)
                else runs.backend.name
            )
            if requested != self.backend_name:
                raise ServingError(
                    f"batch request asks for the '{requested}' backend but "
                    f"the pool runs '{self.backend_name}'; submit the plain "
                    "run list to override, or build a matching pool"
                )
            return list(runs.runs)
        return list(runs)

    # -- lifecycle -----------------------------------------------------------

    def close(self, wait: bool = True) -> None:
        """Stop accepting runs; optionally wait for in-flight ones."""
        with self._submit_lock:
            self._closed = True
        self._strategy.close(wait=wait)

    def __enter__(self) -> "SimulationPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def run_batch(
    request: BatchRequest,
    max_workers: int | None = None,
    codegen_options: CodegenOptions | None = None,
    executor: str = "serial",
    chunk_size: int | None = None,
    lane_width: int | None = None,
) -> BatchResult:
    """One-shot: build a pool for *request* and run it to completion."""
    with SimulationPool(
        request.spec,
        backend=request.backend,
        max_workers=max_workers,
        codegen_options=codegen_options,
        executor=executor,
        chunk_size=chunk_size,
        lane_width=lane_width,
    ) as pool:
        return pool.run_batch(request.runs)
