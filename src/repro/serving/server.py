"""Long-lived simulation server: an HTTP front-end over SimulationPool.

This is the serving layer's persistent form.  ``repro serve-batch`` pays
a pool's warm-up on every invocation; the server pays it **once per
(machine, backend, executor, lane width)** and then keeps the pool —
its warm prepared simulation, and on the process strategy the workers
holding copies of it — alive across any number of client requests, so
a repeat client's request costs only the run itself.  It is standard
library only (the ``ThreadingHTTPServer`` edge
of :mod:`repro.serving.edge`, shared with the fleet router, speaking the
JSON wire protocol of :mod:`repro.serving.protocol`), so any HTTP
client — ``curl`` included — is a client.

Endpoints (documented with schemas and examples in
``docs/api-reference.md``, kept in sync by a test):

* ``POST /v1/batch`` — a batch of N run variants of one machine, fanned
  out on the pool; answers the full per-item/aggregate batch document.
* ``POST /v1/run`` — one run, fields flattened for ``curl`` ergonomics.
* ``GET /v1/machines`` — the bundled machine registry.
* ``GET /v1/backends`` — backend names with capability flags.
* ``GET /v1/stats`` — uptime, request counters, live pools, resilience
  counters (crashes, retries, quarantines, fallbacks).
* ``GET /v1/trace/<id>`` — the assembled per-request trace for a recent
  request (spans from HTTP parse to worker run; see
  :mod:`repro.serving.tracing`), served from the recorder's bounded
  in-memory ring.
* ``GET /metrics`` — Prometheus text exposition: per-route counters, the
  admission/resilience counters, and per-span-kind latency histograms.
* ``GET /healthz`` — liveness probe (is the process up at all).
* ``GET /readyz`` — readiness probe: 503 while draining or while the
  admission gate is saturated, so a load balancer routes around this
  instance without killing it.

Pools are created lazily on first use and kept in a registry keyed on
(machine, backend, executor, lane width).  The executor is resolved once,
at parsing: the aliases ``thread`` and ``lane`` arrive as ``serial`` with
their lane width, so registry keys, responses, ``/v1/stats`` and traces
carry strategy names only.  On a serial pool each request runs inline on
its connection's thread, so ``max_inflight`` is what bounds concurrent
runs.

Under load the server applies **backpressure** instead of queueing
without bound: the :class:`AdmissionGate` caps concurrently executing
simulation requests (``max_inflight``) and the briefly-queued overflow
(``max_queue``); beyond that, requests are rejected with a structured
``429`` carrying ``Retry-After``.  When the pool registry cannot prepare
a requested backend it **degrades** down a fallback chain
(compiled → threaded → interpreter) and reports the substitution in the
response and in ``/v1/stats`` rather than failing the request.

Shutdown is graceful and bounded: the HTTP accept loop stops, in-flight
request threads get ``drain_timeout`` seconds to finish, then every
pool drains its in-flight chunks; a drain that misses the timeout is
*reported* (``close`` returns ``False``, ``drain_failed`` is set)
instead of hanging forever or silently abandoning threads.

The CLI front door is ``repro serve``; ``examples/http_client.py`` is a
minimal client.  Deployment guidance (executor choice, worker sizing,
pool limits) lives in ``docs/serving.md``.
"""

from __future__ import annotations

import threading
import time
from email.message import Message
from pathlib import Path
from typing import Callable

from repro.core.simulator import BACKEND_NAMES, DEFAULT_BACKEND, make_backend
from repro.errors import ServingError
from repro.machines.library import all_machines
from repro.serving.batch import BatchResult
from repro.serving.edge import HttpEdge, Request, package_version
from repro.serving.executor import (
    EXECUTOR_NAMES,
    ZERO_COUNTERS,
    resolve_executor,
)
from repro.serving.pool import SimulationPool
from repro.serving.protocol import (
    PROTOCOL_VERSION,
    TRACE_HEADER,
    ParsedBatch,
    ProtocolError,
    batch_result_to_json,
    parse_batch_request,
    parse_run_request,
    with_default_timeout,
)
from repro.serving.tracing import (
    TraceRecorder,
    make_exporter,
    render_families,
)

#: Largest request body the server will read by default (a batch of
#: thousands of run objects fits comfortably; anything bigger is a client
#: bug).  Tunable per server via ``max_body_bytes`` / ``--max-body-bytes``.
MAX_BODY_BYTES = 8 * 1024 * 1024

#: Graceful-degradation chain the pool registry walks when a backend's
#: warm prepare fails: each step trades speed for simplicity, ending at
#: the interpreter, which has no compile step left to fail.
BACKEND_FALLBACKS = {"compiled": "threaded", "threaded": "interpreter"}

#: GET routes -> handler method name on :class:`SimulationServer`.
GET_ROUTES: dict[str, str] = {
    "/healthz": "handle_healthz",
    "/readyz": "handle_readyz",
    "/v1/machines": "handle_machines",
    "/v1/backends": "handle_backends",
    "/v1/stats": "handle_stats",
    "/v1/trace": "handle_trace",
    "/metrics": "handle_metrics",
}

#: Routes whose requests are traced (one :class:`RequestTrace` each).
TRACED_ROUTES = frozenset({"/v1/run", "/v1/batch"})


class AdmissionGate:
    """Bounded admission for the simulation endpoints (backpressure).

    ``ThreadingHTTPServer`` gives every connection its own thread, so
    without a gate a traffic spike means an unbounded number of
    concurrent simulations grinding each other down.  The gate admits at
    most ``max_inflight`` requests into the pools at once; up to
    ``max_queue`` more block briefly waiting for a slot, and everything
    beyond that is rejected immediately with a structured ``429`` whose
    ``Retry-After`` tells the client when to come back — shedding load
    at the door instead of collapsing under it.  ``max_inflight=None``
    disables the gate (the historical behavior).
    """

    def __init__(self, max_inflight: int | None = None, max_queue: int = 16,
                 retry_after: float = 1.0) -> None:
        if max_inflight is not None and max_inflight <= 0:
            raise ValueError(
                f"max_inflight must be positive, got {max_inflight}"
            )
        if max_queue < 0:
            raise ValueError(f"max_queue must be >= 0, got {max_queue}")
        self.max_inflight = max_inflight
        self.max_queue = max_queue
        self.retry_after = retry_after
        self._inflight = 0
        self._queued = 0
        self._rejected = 0
        self._slot_freed = threading.Condition(threading.Lock())

    @property
    def saturated(self) -> bool:
        """True while every in-flight slot is taken (readiness input)."""
        if self.max_inflight is None:
            return False
        with self._slot_freed:
            return self._inflight >= self.max_inflight

    def snapshot(self) -> dict:
        with self._slot_freed:
            return {
                "max_inflight": self.max_inflight,
                "max_queue": self.max_queue,
                "inflight": self._inflight,
                "queued": self._queued,
                "rejected": self._rejected,
            }

    def acquire(self) -> None:
        """Take an in-flight slot, waiting in the bounded queue if needed.

        Raises the structured ``429`` when both the slots and the queue
        are full.
        """
        if self.max_inflight is None:
            return
        with self._slot_freed:
            if self._inflight < self.max_inflight:
                self._inflight += 1
                return
            if self._queued >= self.max_queue:
                self._rejected += 1
                raise ProtocolError(
                    f"server is at capacity ({self.max_inflight} requests "
                    f"in flight, {self._queued} queued); retry later",
                    status=429, kind="overloaded",
                    retry_after=self.retry_after,
                )
            self._queued += 1
            try:
                while self._inflight >= self.max_inflight:
                    self._slot_freed.wait()
                self._inflight += 1
            finally:
                self._queued -= 1

    def release(self) -> None:
        if self.max_inflight is None:
            return
        with self._slot_freed:
            self._inflight -= 1
            self._slot_freed.notify()

#: POST routes -> handler method name on :class:`SimulationServer`.
POST_ROUTES: dict[str, str] = {
    "/v1/run": "handle_run",
    "/v1/batch": "handle_batch",
}


#: The resilience totals ``GET /v1/stats`` reports and the fleet router
#: sums over its nodes: the pools' executor counters plus the registry's.
RESILIENCE_KEYS = (*ZERO_COUNTERS, "backend_fallbacks", "pool_evictions")

#: Registry key: one pool per distinct combination a request can ask for.
PoolKey = "tuple[str, str, str, int | None]"


class PoolRegistry:
    """Lazily created, kept-warm pools keyed on
    (machine, backend, executor, lane width).

    The registry is the server's whole point: the first request for a
    combination pays the pool construction (warm prepare, worker spawn),
    every later request reuses it.  Construction is
    guarded by a *per-key* lock: two racing first-requests for the same
    combination build one pool, not two, while requests for other
    combinations — in particular warm ones — never wait behind someone
    else's compile (an inline spec on the compiled backend can hold its
    creation lock for real milliseconds).

    ``max_pools`` caps how many pools stay warm: a server fed unbounded
    distinct inline specs would otherwise grow a pool (a warm prepared
    program, plus live worker processes on the process strategy) per
    fingerprint forever.  Past the cap the
    least-recently-used pool is drained gracefully and evicted — the
    next request for that combination pays prepare again, which is the
    honest cost of exceeding the working set.  ``None`` means unbounded.
    """

    def __init__(
        self,
        max_workers: int | None = None,
        chunk_size: int | None = None,
        lane_width: int | None = None,
        max_pools: int | None = None,
    ) -> None:
        if max_pools is not None and max_pools < 1:
            raise ValueError(
                f"max_pools must be a positive integer or None, got {max_pools!r}"
            )
        self.max_workers = max_workers
        self.chunk_size = chunk_size
        #: server-wide default lane group size; a request's ``lane_width``
        #: field overrides it (resolved into ``ParsedBatch.lane_width``)
        self.lane_width = lane_width
        #: backend substitutions made by :data:`BACKEND_FALLBACKS`
        self.fallback_count = 0
        self.max_pools = max_pools
        self.eviction_count = 0
        #: insertion order doubles as the LRU order — hits re-insert
        self._pools: dict[PoolKey, SimulationPool] = {}
        self._labels: dict[PoolKey, str] = {}
        #: per-key degradation record (requested vs served backend), kept
        #: alongside the pool so later requests see the same substitution
        self._fallbacks: dict[PoolKey, dict] = {}
        self._creation_locks: dict[PoolKey, threading.Lock] = {}
        self._lock = threading.Lock()
        self._closed = False

    def __len__(self) -> int:
        with self._lock:
            return len(self._pools)

    def _check_open_and_get(self, key) -> SimulationPool | None:
        with self._lock:
            if self._closed:
                raise ProtocolError(
                    "server is shutting down", status=503,
                    kind="shutting_down",
                )
            pool = self._pools.get(key)
            if pool is not None:
                # touch: move to most-recently-used position
                self._pools[key] = self._pools.pop(key)
            return pool

    def pool_for(
        self, batch: ParsedBatch
    ) -> tuple[SimulationPool, dict | None]:
        """The warm pool serving *batch*'s combination, created on first
        use.  Returns ``(pool, degraded)``: *degraded* is ``None``
        normally, or the fallback record when the requested backend could
        not prepare and the chain substituted another (the pool stays
        keyed under the *requested* combination, so the substitution is
        sticky and later identical requests reuse it without re-failing
        the broken backend)."""
        key = (batch.pool_key, batch.backend, batch.executor,
               batch.lane_width)
        pool = self._check_open_and_get(key)
        if pool is not None:
            with self._lock:
                return pool, self._fallbacks.get(key)
        with self._lock:
            creator = self._creation_locks.setdefault(key, threading.Lock())
        with creator:
            # double-checked: whoever held the creation lock first built it
            pool = self._check_open_and_get(key)
            if pool is not None:
                with self._lock:
                    return pool, self._fallbacks.get(key)
            pool, degraded = self._create_pool(batch)
            evicted: list[SimulationPool] = []
            with self._lock:
                if self._closed:  # lost a race with shutdown: don't leak it
                    pool.close(wait=False)
                    raise ProtocolError(
                        "server is shutting down", status=503,
                        kind="shutting_down",
                    )
                self._pools[key] = pool
                self._labels[key] = batch.label
                if degraded is not None:
                    self._fallbacks[key] = degraded
                    self.fallback_count += 1
                while (
                    self.max_pools is not None
                    and len(self._pools) > self.max_pools
                ):
                    victim_key = next(iter(self._pools))
                    evicted.append(self._pools.pop(victim_key))
                    self._labels.pop(victim_key, None)
                    self._fallbacks.pop(victim_key, None)
                    self.eviction_count += 1
            # Graceful drain outside the lock: in-flight runs on the
            # evicted pool finish; a request that raced us and still
            # holds the stale pool gets a closed-pool error and is
            # retried once by the server against a fresh pool.
            for stale in evicted:
                stale.close(wait=True)
            return pool, degraded

    def _create_pool(
        self, batch: ParsedBatch
    ) -> tuple[SimulationPool, dict | None]:
        """Build the pool, walking the fallback chain on prepare failure.

        A ``ProtocolError`` (e.g. shutting down) propagates untouched; any
        other failure to prepare the requested backend tries the next
        backend down :data:`BACKEND_FALLBACKS` — serving degraded beats
        serving a 500.  When the whole chain fails, the *first* error (the
        requested backend's) is raised: that is the one the client asked
        about.
        """
        backend = batch.backend
        first_error: Exception | None = None
        while True:
            try:
                pool = SimulationPool(
                    batch.spec,
                    backend=backend,
                    executor=batch.executor,
                    max_workers=self.max_workers,
                    chunk_size=self.chunk_size,
                    lane_width=batch.lane_width,
                )
            except ProtocolError:
                raise
            except Exception as exc:  # noqa: BLE001 - degrade, not die
                next_backend = BACKEND_FALLBACKS.get(backend)
                if next_backend is None:
                    raise (first_error if first_error is not None else exc)
                if first_error is None:
                    first_error = exc
                backend = next_backend
                continue
            degraded = None
            if backend != batch.backend:
                degraded = {
                    "requested_backend": batch.backend,
                    "served_backend": backend,
                    "reason": (
                        f"{type(first_error).__name__}: {first_error}"
                    ),
                }
            return pool, degraded

    def describe(self) -> list[dict]:
        """One JSON-safe row per live pool (for ``GET /v1/stats``)."""
        with self._lock:
            return [
                {
                    "machine": self._labels[key],
                    "backend": pool.backend_name,
                    "executor": pool.executor_name,
                    "workers": pool.max_workers,
                    "prepare_seconds": pool.prepare_seconds,
                    "degraded": self._fallbacks.get(key),
                    "resilience": pool.resilience_counters(),
                }
                for key, pool in self._pools.items()
            ]

    def resilience_totals(self) -> dict[str, int]:
        """Crash/retry/quarantine counters summed over live pools, plus
        the backend fallbacks taken and pools evicted (keyed as
        :data:`RESILIENCE_KEYS`, for ``GET /v1/stats``)."""
        totals = dict.fromkeys(RESILIENCE_KEYS, 0)
        with self._lock:
            pools = list(self._pools.values())
            totals["backend_fallbacks"] = self.fallback_count
            totals["pool_evictions"] = self.eviction_count
        for pool in pools:
            for name, value in pool.resilience_counters().items():
                totals[name] += value
        return totals

    def close_all(self, wait: bool = True) -> None:
        """Stop accepting new pools and drain every existing one."""
        with self._lock:
            self._closed = True
            pools = list(self._pools.values())
            self._pools.clear()
            self._labels.clear()
            self._fallbacks.clear()
        for pool in pools:
            pool.close(wait=wait)


class SimulationServer(HttpEdge):
    """The long-lived serving process: pools kept warm behind HTTP.

    ``port=0`` binds an ephemeral port (the end-to-end tests use this);
    the bound address is available as :attr:`host`/:attr:`port`/
    :attr:`url` after construction.  ``backend``/``executor`` (a strategy
    or an alias, resolved per request) and ``lane_width`` are the
    defaults a request may override per call; ``max_workers`` and
    ``chunk_size`` configure every pool the registry creates.

    Resilience knobs: ``max_inflight``/``max_queue``/``retry_after``
    configure the :class:`AdmissionGate`; ``default_timeout`` applies a
    deadline to every run that does not choose its own;
    ``max_body_bytes`` caps request bodies; ``drain_timeout`` bounds the
    graceful-shutdown wait.

    Observability: every simulation request is traced into the recorder's
    bounded in-memory ring (``trace_ring`` entries, always on) and —
    when ``trace_sink`` is ``"jsonl"`` or ``"sqlite"`` — exported to a
    file under ``trace_dir``.  ``tracing=False`` disables the recorder
    entirely (the benchmark's tracing-off baseline).

    Use as a context manager, or call :meth:`start` (background thread,
    returns once the socket accepts) / :meth:`serve_forever` (blocking,
    the CLI path) and then :meth:`close` — which stops accepting,
    finishes in-flight HTTP requests, and drains every pool.
    """

    get_routes = GET_ROUTES
    post_routes = POST_ROUTES
    traced_routes = TRACED_ROUTES
    server_name = "repro-sim-server"

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        backend: str = DEFAULT_BACKEND,
        executor: str = "serial",
        max_workers: int | None = None,
        chunk_size: int | None = None,
        lane_width: int | None = None,
        max_inflight: int | None = None,
        max_queue: int = 16,
        retry_after: float = 1.0,
        default_timeout: float | None = None,
        max_body_bytes: int = MAX_BODY_BYTES,
        drain_timeout: float = 10.0,
        max_pools: int | None = None,
        trace_sink: str | None = None,
        trace_dir: "str | Path | None" = None,
        trace_ring: int = 256,
        tracing: bool = True,
    ) -> None:
        if max_body_bytes <= 0:
            raise ValueError(
                f"max_body_bytes must be positive, got {max_body_bytes}"
            )
        if drain_timeout < 0:
            raise ValueError(
                f"drain_timeout must be >= 0, got {drain_timeout}"
            )
        if default_timeout is not None and default_timeout <= 0:
            raise ValueError(
                f"default_timeout must be positive, got {default_timeout}"
            )
        resolve_executor(executor)  # an unknown default fails here, once
        self.default_backend = backend
        self.default_executor = executor
        self.default_timeout = default_timeout
        self.gate = AdmissionGate(
            max_inflight=max_inflight, max_queue=max_queue,
            retry_after=retry_after,
        )
        self.registry = PoolRegistry(
            max_workers=max_workers,
            chunk_size=chunk_size,
            lane_width=lane_width,
            max_pools=max_pools,
        )
        self.trace_sink = trace_sink if trace_sink not in ("", "none") else None
        self.recorder: TraceRecorder | None = None
        if tracing:
            exporter = make_exporter(self.trace_sink, trace_dir)
            self.recorder = TraceRecorder(
                ring_size=trace_ring,
                exporters=(exporter,) if exporter is not None else (),
            )
        super().__init__(host, port, max_body_bytes, drain_timeout)

    def close(self, wait: bool = True) -> bool:
        """Graceful shutdown: stop accepting, drain requests, drain pools.

        The HTTP drain is bounded by ``drain_timeout`` seconds and
        *reported* (see :meth:`HttpEdge.close`).  ``/readyz`` reports
        not-ready from the moment this is called, so a load balancer
        stops sending work before the listener goes away.
        """
        drained = super().close()
        # a failed drain means something is hung inside a pool: do not
        # wait on its chunks either, or close() would hang exactly where
        # the bounded join just refused to
        self.registry.close_all(wait=wait and drained)
        if self.recorder is not None:
            self.recorder.close()
        return drained

    def _counters(self) -> dict:
        """The counter snapshot ``/v1/stats`` and ``/metrics`` render."""
        return {
            "uptime_seconds": time.time() - self.started_at,
            "requests": self.request_counts(),
            "admission": self.gate.snapshot(),
            "resilience": self.registry.resilience_totals(),
        }

    # -- GET handlers --------------------------------------------------------

    def handle_healthz(self, request: Request) -> tuple[int, dict]:
        return 200, {
            "protocol": PROTOCOL_VERSION,
            "status": "ok",
            "version": package_version(),
            "uptime_seconds": time.time() - self.started_at,
        }

    def handle_readyz(self, request: Request) -> tuple[int, dict]:
        """Readiness, as distinct from liveness: a 503 here means "route
        new work elsewhere", not "restart me" — the server is draining
        toward shutdown or every admission slot is taken."""
        admission = self.gate.snapshot()
        if self._closed:
            reason = "draining"
        elif (
            admission["max_inflight"] is not None
            and admission["inflight"] >= admission["max_inflight"]
        ):
            reason = "saturated"
        else:
            return 200, {
                "protocol": PROTOCOL_VERSION,
                "ready": True,
                "admission": admission,
            }
        return 503, {
            "protocol": PROTOCOL_VERSION,
            "ready": False,
            "reason": reason,
            "admission": admission,
        }

    def handle_machines(self, request: Request) -> tuple[int, dict]:
        return 200, {
            "protocol": PROTOCOL_VERSION,
            "machines": [
                {
                    "name": entry.name,
                    "description": entry.description,
                    "demo_cycles": entry.demo_cycles,
                }
                for entry in all_machines()
            ],
        }

    def handle_backends(self, request: Request) -> tuple[int, dict]:
        backends = []
        for name in BACKEND_NAMES:
            backend = make_backend(name)
            backends.append({
                "name": name,
                "supports_override": backend.supports_override,
                "supports_full_stats": backend.supports_full_stats,
                "prepare_cache": getattr(backend, "cache", None) is not None,
                # every built-in backend serves every executor strategy,
                # lanes included: compiled generates its lane kernel for
                # stats-off groups, and every other group runs each lane
                # as its scalar run
                "executors": list(EXECUTOR_NAMES),
            })
        return 200, {"protocol": PROTOCOL_VERSION, "backends": backends}

    def handle_stats(self, request: Request) -> tuple[int, dict]:
        counters = self._counters()
        # what a request naming neither field runs on
        executor, lane_width = resolve_executor(self.default_executor,
                                                self.registry.lane_width)
        document = {
            "protocol": PROTOCOL_VERSION,
            "server": {
                "version": package_version(),
                "uptime_seconds": counters["uptime_seconds"],
                "host": self.host,
                "port": self.port,
            },
            "config": {
                "backend": self.default_backend,
                "executor": executor,
                "max_workers": self.registry.max_workers,
                "chunk_size": self.registry.chunk_size,
                "lane_width": lane_width,
                "default_timeout": self.default_timeout,
                "max_body_bytes": self.max_body_bytes,
                "drain_timeout": self.drain_timeout,
                "max_pools": self.registry.max_pools,
                "trace_sink": self.trace_sink,
            },
            "requests": counters["requests"],
            "resilience": {
                "admission": counters["admission"],
                **counters["resilience"],
            },
            "pools": self.registry.describe(),
            "tracing": (
                self.recorder.snapshot() if self.recorder is not None
                else None
            ),
        }
        return 200, document

    def handle_trace(self, request: Request) -> tuple[int, dict]:
        """``GET /v1/trace/<id>``: one assembled trace from the ring."""
        trace_id = request.arg
        trace = (
            self.recorder.get(trace_id)
            if self.recorder is not None and trace_id else None
        )
        if trace is None:
            raise ProtocolError(
                f"no trace {trace_id!r} in the ring buffer (traces are "
                "kept for the most recent requests only; the id rides the "
                f"{TRACE_HEADER} response header)",
                status=404, kind="unknown_trace",
            )
        document = trace.to_json()
        document["protocol"] = PROTOCOL_VERSION
        return 200, document

    def handle_metrics(self, request: Request) -> tuple[int, str]:
        """``GET /metrics``: Prometheus text exposition format."""
        counters = self._counters()
        admission = counters["admission"]
        lines = render_families({
            "repro_http_requests_total":
                ("route", counters["requests"]["by_route"]),
            "repro_http_errors_total": counters["requests"]["errors"],
            "repro_admission_inflight": admission["inflight"],
            "repro_admission_queued": admission["queued"],
            "repro_admission_rejected_total": admission["rejected"],
            "repro_resilience_events_total":
                ("kind", counters["resilience"]),
            "repro_pools_live": len(self.registry),
            "repro_uptime_seconds": counters["uptime_seconds"],
        })
        if self.recorder is not None:
            lines.extend(self.recorder.render_metrics())
        return 200, "\n".join(lines) + "\n"

    # -- POST handlers -------------------------------------------------------

    def _check_capabilities(self, batch: ParsedBatch,
                            pool: SimulationPool) -> None:
        """Reject a request the pool's backend cannot honor — before it
        is scheduled, with a structured 4xx instead of a per-item error."""
        for run in batch.runs:
            if run.override is not None and not pool.supports_override:
                raise ProtocolError(
                    f"backend '{batch.backend}' does not support per-cycle "
                    "overrides (supports_override is off)",
                    status=422, kind="unsupported_capability",
                )

    def _run_request(
        self, request: Request,
        parse: Callable[[object, str, str, "int | None"], ParsedBatch],
    ) -> tuple[BatchResult, dict | None]:
        """Parse *request* with *parse*, admit, resolve the pool
        (fallback chain included), and run.

        The admission gate covers everything expensive — pool creation
        (a compile, potentially) and the simulations themselves — while
        parsing stays outside it: rejecting a malformed request must
        work even on a saturated server.

        With a trace builder on the request the stages become spans: the
        wait in the admission gate (``admission_wait``), pool resolution
        including any warm prepare/compile (``pool_resolve``), and the
        whole scheduling-to-collection envelope (``executor_dispatch``),
        plus the finished items' worker-side spans.
        """
        default_timeout = self._request_timeout(request.headers)
        batch = with_default_timeout(
            parse(request.doc, self.default_backend, self.default_executor,
                  self.registry.lane_width),
            default_timeout,
        )
        tb = request.trace
        self.gate.acquire()
        if tb is not None:
            tb.mark("admission_wait")
            tb.annotate(label=batch.label, backend=batch.backend,
                        executor=batch.executor)
        try:
            # Two attempts: a request can lose an LRU-eviction race — it
            # resolved a pool that another request's insert then drained.
            # The closed-pool error is deterministic and the second
            # resolve builds (or finds) a fresh pool, so one retry is
            # exactly enough; any other failure propagates untouched.
            for attempt in (0, 1):
                pool, degraded = self.registry.pool_for(batch)
                if tb is not None:
                    tb.mark("pool_resolve")
                    tb.annotate(backend=pool.backend_name)
                self._check_capabilities(batch, pool)
                try:
                    result = pool.run_batch(list(batch.runs))
                except ServingError:
                    if attempt or not pool.closed:
                        raise
                    continue
                if tb is not None:
                    tb.mark("executor_dispatch")
                    tb.add_items(result.items)
                return result, degraded
            raise AssertionError("unreachable")
        finally:
            self.gate.release()

    def _request_timeout(self, headers: Message) -> float | None:
        """The per-run default deadline for this request: the
        ``X-Request-Timeout`` header (seconds), else the server-wide
        default.  Per-run ``timeout_seconds`` fields always win."""
        header = headers.get("X-Request-Timeout")
        if header is None:
            return self.default_timeout
        try:
            value = float(header)
        except ValueError:
            value = -1.0
        if value <= 0 or value != value:  # reject garbage and NaN
            raise ProtocolError(
                "X-Request-Timeout must be a positive number of seconds, "
                f"got {header!r}", kind="invalid_timeout",
            )
        return value

    def handle_batch(self, request: Request) -> tuple[int, dict]:
        result, degraded = self._run_request(request, parse_batch_request)
        document = batch_result_to_json(result)
        if degraded is not None:
            document["degraded"] = degraded
        return 200, document

    def handle_run(self, request: Request) -> tuple[int, dict]:
        result, degraded = self._run_request(request, parse_run_request)
        item = result.items[0]
        if not item.ok:
            raise item.error
        document = batch_result_to_json(result)
        single = document["items"][0]["result"]
        response = {
            "protocol": PROTOCOL_VERSION,
            "backend": result.backend,
            "executor": result.executor,
            "result": single,
        }
        if degraded is not None:
            response["degraded"] = degraded
        return 200, response
