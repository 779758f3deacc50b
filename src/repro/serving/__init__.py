"""Batch/parallel simulation serving: one prepared machine, many runs.

The paper's framing stops at single simulation runs; this package is the
serving story on top of it.  The observation driving the design is the
prepare/run split every backend already honours: preparation (table
building, closure compilation, code generation) depends only on the
specification, while a run varies cycles, inputs, tracing and fault hooks.
In a serving setting — the same machine simulated for many concurrent
requests — preparation should therefore be paid **once** and the runs
fanned out.

Four pieces implement that:

* :class:`~repro.serving.batch.BatchRequest` / :class:`~repro.serving.batch.BatchResult`
  (:mod:`repro.serving.batch`) — N run variants against one specification,
  with per-run outcomes, per-item error capture, and throughput aggregates
  down to per-worker runs/sec and queue-wait statistics;
* :class:`~repro.serving.executor.ExecutorStrategy`
  (:mod:`repro.serving.executor`) — the two execution strategies:
  ``serial`` (inline on the caller's thread) and ``process`` (true
  multi-core: the lowered program is pickled to worker processes once at
  pool startup, requests travel in chunks, and the persistent artifact
  cache makes worker cold starts nearly free).  ``lane_width`` N >= 2
  turns on lane groups on either (:mod:`repro.lowering.lanes`: N
  compatible run variants advanced together through one walk of the
  dependency-scheduled step list, amortising per-run dispatch overhead —
  lanes within each worker, chunks across workers); the input names
  ``thread`` and ``lane`` remain accepted as aliases of ``serial``;
* :class:`~repro.serving.pool.SimulationPool` (:mod:`repro.serving.pool`)
  — the pool over a chosen strategy; every in-process run shares the
  pool's single warm prepared simulation (prepared simulations are
  re-entrant);
* :func:`~repro.serving.aio.async_run_batch` (:mod:`repro.serving.aio`)
  — the asyncio front-end wrapping the pool for async callers;
* :class:`~repro.serving.server.SimulationServer`
  (:mod:`repro.serving.server` + :mod:`repro.serving.protocol`) — the
  long-lived HTTP front-end: pools created lazily per (machine, backend,
  executor, lane width) and kept warm across client requests, a JSON
  wire protocol
  any ``curl`` can speak, and startup garbage collection of the
  persistent artifact cache (``DiskCache.prune``).

The layer is fault-tolerant by construction: per-run deadlines
(``RunRequest.timeout_seconds``, enforced cooperatively through the
instrumentation layer plus a wall-clock backstop on the process
executor), worker-crash recovery with poisoned-request quarantine
(:class:`~repro.serving.executor.ProcessExecutor`), bounded admission
with structured 429s (:class:`~repro.serving.server.AdmissionGate`) and
graceful degradation (backend fallback chain, memory-only disk-cache
mode).  The chaos harness (``tests/serving/test_chaos.py``, shims in
:mod:`repro.serving.chaos`) injects each failure and proves the system
answers structurally instead of hanging.

Above the single server sits the fleet layer
(:mod:`repro.serving.fleet` + :mod:`repro.serving.router`): a
supervisor that spawns and babysits N child ``repro serve`` processes
(ephemeral ports, readiness probing, crash restart with capped backoff,
flap-benching, rolling SIGTERM drain) behind a front-door router that
shards ``/v1/run``/``/v1/batch`` by (spec fingerprint, backend,
executor) with rendezvous hashing — warm pools stay sticky — and fails
a request over to a sibling exactly once when its home node dies
mid-request.  ``repro fleet --nodes N`` is the CLI front door.  Server
and router run on one HTTP edge (:mod:`repro.serving.edge`): socket,
routing, body limits, error envelope, lifecycle and request counters.

Observability is built in (:mod:`repro.serving.tracing`): every request
is assembled into a :class:`~repro.serving.tracing.RequestTrace` of
typed :class:`~repro.serving.tracing.Span` records — HTTP parse,
admission wait, pool resolution, executor dispatch, per-item queue wait
and worker run (the worker-side spans cross the process boundary on the
``RunOutcome``) — identified by an ``X-Repro-Trace`` id that rides the
wire protocol end-to-end through the fleet router.  Finished traces land
in a bounded in-memory ring behind ``GET /v1/trace/<id>`` and,
optionally, in a durable :class:`~repro.serving.tracing.JsonlExporter`
or :class:`~repro.serving.tracing.SqliteExporter` sink
(``repro serve --trace-sink``); ``GET /metrics`` exposes counters and
per-span-kind latency histograms in Prometheus text format, aggregated
with per-node labels at the router.

The CLI exposes the layer as ``repro serve-batch --executor {serial,
process} --lane-width N`` (one-shot) and ``repro serve`` (the long-lived
server); the throughput benchmark
(``benchmarks/test_batch_throughput.py``) writes ``BENCH_batch.json``
(schema v4, with the executor and lane-width dimensions) from it, and
the equivalence tests prove batched results bit-identical to sequential
ones on every backend and every strategy — including over HTTP
(``tests/serving/test_server.py``).
"""

from repro.serving.aio import async_run, async_run_batch
from repro.serving.batch import BatchItem, BatchRequest, BatchResult, RunRequest
from repro.serving.executor import (
    EXECUTOR_NAMES,
    ExecutorStrategy,
    ProcessExecutor,
    RunOutcome,
    SerialExecutor,
    WorkerContext,
    lane_compatible,
    resolve_executor,
)
from repro.serving.fleet import Backoff, FlapGuard, FleetSupervisor
from repro.serving.pool import SimulationPool, run_batch
from repro.serving.protocol import PROTOCOL_VERSION, ProtocolError, error_kind
from repro.serving.router import FleetRouter, ServingFleet, rank_nodes
from repro.serving.server import AdmissionGate, SimulationServer
from repro.serving.tracing import (
    JsonlExporter,
    RequestTrace,
    Span,
    SqliteExporter,
    TraceRecorder,
    coverage_fraction,
)

__all__ = [
    "AdmissionGate",
    "Backoff",
    "BatchItem",
    "BatchRequest",
    "BatchResult",
    "EXECUTOR_NAMES",
    "ExecutorStrategy",
    "FlapGuard",
    "FleetRouter",
    "FleetSupervisor",
    "JsonlExporter",
    "PROTOCOL_VERSION",
    "ProcessExecutor",
    "ProtocolError",
    "RequestTrace",
    "RunOutcome",
    "RunRequest",
    "SerialExecutor",
    "ServingFleet",
    "SimulationPool",
    "SimulationServer",
    "Span",
    "SqliteExporter",
    "TraceRecorder",
    "WorkerContext",
    "async_run",
    "async_run_batch",
    "coverage_fraction",
    "error_kind",
    "lane_compatible",
    "rank_nodes",
    "resolve_executor",
    "run_batch",
]
