"""JSON wire protocol for the long-lived simulation server.

The HTTP front-end (:mod:`repro.serving.server`) speaks plain JSON over
plain HTTP — no third-party dependency, any ``curl`` is a client.  This
module is the translation layer between that wire format and the serving
layer's native objects, in both directions:

* **requests**: :func:`run_request_from_json` builds a
  :class:`~repro.serving.batch.RunRequest` from a JSON object (cycles,
  inputs, tracing, stats, tag, and a constant-override map for fault
  injection over the wire); :func:`resolve_spec` turns the ``machine`` /
  ``spec`` request fields into a parsed
  :class:`~repro.rtl.spec.Specification` — ``spec`` accepts either
  source text in the paper's language or an interchange-format JSON
  object (``docs/spec-format.md``; rejected documents answer 400
  ``invalid_spec``); :func:`parse_batch_request` validates a whole
  ``POST /v1/batch`` body.
* **responses**: :func:`result_to_json` /
  :func:`batch_result_to_json` flatten a
  :class:`~repro.core.results.SimulationResult` /
  :class:`~repro.serving.batch.BatchResult` into JSON-safe dicts, and
  :func:`result_from_json` rebuilds a comparable ``SimulationResult`` on
  the client side — which is how the end-to-end tests assert HTTP results
  bit-identical to in-process pool runs.

Validation is strict and structured: any malformed body raises
:class:`ProtocolError` carrying an HTTP status code and a stable machine-
readable ``kind`` (``bad_request``, ``unknown_machine``,
``unsupported_capability``, ...), which the server serialises as
``{"error": {"type": ..., "message": ...}}`` — a client never has to
parse prose.  Unknown request fields are rejected rather than ignored, so
a typo (``"cylces"``) fails loudly instead of silently simulating the
wrong thing.

The documented wire format lives in ``docs/api-reference.md``; a test
keeps the two in sync.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Mapping

from repro.compiler.cache import spec_fingerprint
from repro.core.iosystem import OutputEvent
from repro.core.results import SimulationResult
from repro.core.simulator import BACKEND_NAMES
from repro.errors import (
    AsimError,
    DeadlineExceededError,
    ServingError,
    SpecFormatError,
    SpecificationError,
    WorkerCrashError,
)
from repro.machines.library import get_machine, machine_names
from repro.rtl.interchange import check_spec_limits, spec_from_json
from repro.rtl.parser import parse_spec
from repro.rtl.spec import Specification
from repro.serving.batch import BatchResult, RunRequest
from repro.serving.executor import resolve_executor as executor_strategy

#: Wire protocol version, echoed in every response envelope.  Bump on any
#: incompatible change to the request or response shapes.
PROTOCOL_VERSION = 1

#: Response header the fleet router stamps on every forwarded response:
#: the id of the node that actually answered.
NODE_HEADER = "X-Repro-Node"

#: Response header present only when the router failed over: an
#: attribution trail of the node(s) that failed first and why.
RETRY_HEADER = "X-Repro-Retry"

#: Trace-correlation header, both directions: a client may send one to
#: choose the request's trace id, and every response carries the id the
#: trace was recorded under (``GET /v1/trace/<id>`` returns it).  The
#: fleet router generates the id when the client did not, and forwards it
#: so one id follows the request end-to-end: router -> node -> pool ->
#: worker.
TRACE_HEADER = "X-Repro-Trace"


class ProtocolError(AsimError):
    """A request the wire protocol rejects, with its HTTP status.

    ``kind`` is the stable machine-readable error type serialised into the
    response body; ``status`` the HTTP status code the server answers
    with.  ``retry_after`` (seconds) adds a ``Retry-After`` header, so an
    overloaded-server rejection tells the client when to come back.
    Everything the protocol layer raises is a 4xx — a 5xx means the
    *server* broke, and those are not ``ProtocolError`` (the one
    exception: ``503 not_ready``, which is the readiness probe's answer,
    not a breakage).
    """

    def __init__(self, message: str, status: int = 400,
                 kind: str = "bad_request",
                 retry_after: float | None = None) -> None:
        super().__init__(message)
        self.status = status
        self.kind = kind
        self.retry_after = retry_after


def error_kind(exc: BaseException) -> str:
    """The stable wire ``type`` for a per-item run failure.

    Resilience-layer errors get fixed kinds a client can dispatch on
    (``deadline_exceeded``, ``worker_crash``); anything else reports its
    exception class name, as the batch endpoint always has.
    """
    if isinstance(exc, DeadlineExceededError):
        return "deadline_exceeded"
    if isinstance(exc, WorkerCrashError):
        return "worker_crash"
    return type(exc).__name__


def error_to_json(kind: str, message: str) -> dict:
    """The structured error body every non-2xx response carries."""
    return {
        "protocol": PROTOCOL_VERSION,
        "error": {"type": kind, "message": message},
    }


# ---------------------------------------------------------------------------
# Request side: JSON -> serving objects
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConstantOverride:
    """A picklable per-cycle override pinning components to constants.

    The wire format cannot carry a Python callable, but the most common
    override — the fault-injection shape from
    :mod:`repro.analysis.faults` — pins a component to a constant value
    on every cycle.  ``{"override": {"name": value}}`` builds one of
    these; being a plain dataclass it survives the pickle trip to process
    executor workers, which a lambda would not.
    """

    values: tuple[tuple[str, int], ...]

    def __call__(self, name: str, value: int, cycle: int) -> int:
        for pinned_name, pinned_value in self.values:
            if pinned_name == name:
                return pinned_value
        return value


def _require_type(doc: Any, expected: type, what: str) -> Any:
    if not isinstance(doc, expected) or isinstance(doc, bool) != (
        expected is bool
    ):
        raise ProtocolError(
            f"{what} must be a {expected.__name__}, "
            f"got {type(doc).__name__}"
        )
    return doc


def _optional_int(doc: Mapping, key: str) -> int | None:
    value = doc.get(key)
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, int):
        raise ProtocolError(f"'{key}' must be an integer")
    return value


#: Fields a run object may carry; anything else is rejected.
RUN_FIELDS = frozenset(
    {"cycles", "inputs", "trace", "collect_stats", "override", "tag",
     "timeout_seconds"}
)


def _optional_timeout(doc: Mapping) -> float | None:
    value = doc.get("timeout_seconds")
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ProtocolError("'timeout_seconds' must be a number of seconds")
    if value <= 0:
        raise ProtocolError(
            f"'timeout_seconds' must be positive, got {value}"
        )
    return float(value)


def run_request_from_json(doc: Any) -> RunRequest:
    """Build one :class:`RunRequest` from its wire representation."""
    _require_type(doc, dict, "run request")
    unknown = set(doc) - RUN_FIELDS
    if unknown:
        raise ProtocolError(
            f"unknown run field(s) {sorted(unknown)}; "
            f"allowed: {sorted(RUN_FIELDS)}"
        )
    cycles = _optional_int(doc, "cycles")
    inputs = doc.get("inputs", [])
    _require_type(inputs, list, "'inputs'")
    for value in inputs:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ProtocolError("'inputs' must be a list of integers")
    trace = doc.get("trace", None)
    if trace is not None:
        _require_type(trace, bool, "'trace'")
    collect_stats = doc.get("collect_stats", True)
    _require_type(collect_stats, bool, "'collect_stats'")
    tag = doc.get("tag")
    if tag is not None:
        _require_type(tag, str, "'tag'")
    override_doc = doc.get("override")
    override = None
    if override_doc is not None:
        _require_type(override_doc, dict, "'override'")
        pinned: list[tuple[str, int]] = []
        for name, value in override_doc.items():
            if isinstance(value, bool) or not isinstance(value, int):
                raise ProtocolError(
                    "'override' must map component names to integer values"
                )
            pinned.append((str(name), value))
        if not pinned:
            raise ProtocolError("'override' must pin at least one component")
        override = ConstantOverride(values=tuple(pinned))
    return RunRequest(
        cycles=cycles,
        inputs=tuple(inputs),
        trace=trace,
        collect_stats=collect_stats,
        override=override,
        tag=tag,
        timeout_seconds=_optional_timeout(doc),
    )


def with_default_timeout(
    batch: "ParsedBatch", timeout: float | None
) -> "ParsedBatch":
    """Apply a default deadline to every run that did not choose its own
    (the ``X-Request-Timeout`` header / server-wide ``--timeout``)."""
    if timeout is None or all(
        run.timeout_seconds is not None for run in batch.runs
    ):
        return batch
    return replace(batch, runs=tuple(
        run if run.timeout_seconds is not None
        else replace(run, timeout_seconds=timeout)
        for run in batch.runs
    ))


#: Built specifications of the bundled machines, memoized per process:
#: the registry is immutable, specifications are never mutated by a run
#: (pools already share one instance across worker threads), and a warm
#: server should not rebuild the machine on every request.
_BUNDLED_SPECS: dict[str, Specification] = {}


def resolve_spec(doc: Mapping) -> tuple[Specification, str, str]:
    """Resolve the ``machine``/``spec`` fields to a parsed specification.

    Exactly one of the two must be present: ``machine`` names a bundled
    machine from the registry; ``spec`` carries the machine itself —
    either specification source text in the paper's language (a JSON
    string) or an interchange-format document (a JSON object; see
    ``docs/spec-format.md``); either passes the one spec gate,
    :func:`~repro.rtl.interchange.check_spec_limits`.  Returns
    ``(spec, label, pool_key)``: *label* is the display name, *pool_key*
    the stable identity the server keys its pool registry on — the
    machine name for bundled machines (no hashing on the warm path), a
    content fingerprint for inline text or JSON (the two forms of the
    same machine share a pool).
    """
    machine = doc.get("machine")
    source = doc.get("spec")
    if (machine is None) == (source is None):
        raise ProtocolError(
            "exactly one of 'machine' (a bundled machine name) or 'spec' "
            "(specification source text, or an interchange JSON object) "
            "is required"
        )
    if machine is not None:
        _require_type(machine, str, "'machine'")
        spec = _BUNDLED_SPECS.get(machine)
        if spec is None:
            try:
                spec = get_machine(machine).build()
            except KeyError:
                raise ProtocolError(
                    f"unknown machine '{machine}'; "
                    f"available: {', '.join(machine_names())}",
                    status=404,
                    kind="unknown_machine",
                ) from None
            _BUNDLED_SPECS[machine] = spec
        return spec, machine, f"machine:{machine}"
    if isinstance(source, dict):
        try:
            spec = spec_from_json(source)
        except SpecFormatError as exc:
            raise ProtocolError(
                f"specification document rejected: {exc}",
                kind="invalid_spec",
            ) from exc
        return spec, "<json spec>", f"spec:{spec_fingerprint(spec)}"
    _require_type(source, str, "'spec'")
    try:
        spec = parse_spec(source, source_name="<http>")
        check_spec_limits(spec)
    except SpecificationError as exc:
        raise ProtocolError(
            f"specification rejected: {exc}",
            kind="invalid_specification",
        ) from exc
    return spec, "<inline spec>", f"spec:{spec_fingerprint(spec)}"


def shard_identity(doc: Any, default_backend: str,
                   default_executor: str) -> tuple[str, str, str]:
    """The ``(pool_key, backend, executor)`` triple fleet routing shards on.

    This is exactly the identity (minus lane width) the server keys its
    warm ``PoolRegistry`` on — the executor resolved to its strategy name,
    so an alias lands where its strategy does — and a router that shards
    by it keeps every repeat of a combination on the node whose pool is
    already warm.
    Validation happens here, at the front door: an unknown machine or a
    spec that does not parse is rejected with the same structured 4xx a
    node would answer, without ever reaching one.
    """
    _require_type(doc, dict, "request body")
    _spec, _label, pool_key = resolve_spec(doc)
    backend = resolve_backend(doc, default_backend)
    executor, _width = resolve_executor(doc, default_executor)
    return pool_key, backend, executor


def resolve_backend(doc: Mapping, default: str) -> str:
    """The validated backend name a request asks for."""
    backend = doc.get("backend", default)
    _require_type(backend, str, "'backend'")
    if backend not in BACKEND_NAMES:
        raise ProtocolError(
            f"unknown backend '{backend}'; expected one of {BACKEND_NAMES}",
            kind="unknown_backend",
        )
    return backend


def resolve_executor(
    doc: Mapping, default: str, default_lane_width: int | None = None
) -> tuple[str, int | None]:
    """The validated ``(strategy, lane width)`` a request asks for.

    The request's ``executor`` (an alias included) and ``lane_width``
    fields, falling back to the server's defaults, resolved by
    :func:`~repro.serving.executor.resolve_executor`.
    """
    executor = doc.get("executor", default)
    _require_type(executor, str, "'executor'")
    lane_width = resolve_lane_width(doc)
    try:
        return executor_strategy(
            executor,
            lane_width if lane_width is not None else default_lane_width,
        )
    except ServingError as exc:
        raise ProtocolError(str(exc), kind="unknown_executor") from None


def resolve_lane_width(doc: Mapping) -> int | None:
    """The validated ``lane_width`` a request asks for, if any."""
    value = doc.get("lane_width")
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, int):
        raise ProtocolError("'lane_width' must be an integer")
    if value <= 0:
        raise ProtocolError(
            f"'lane_width' must be positive, got {value}"
        )
    return value


#: Fields a batch body may carry beyond the per-run objects.
BATCH_FIELDS = frozenset(
    {"machine", "spec", "backend", "executor", "lane_width", "runs"}
)


@dataclass(frozen=True)
class ParsedBatch:
    """A validated ``POST /v1/batch`` body, ready for the pool registry."""

    spec: Specification
    label: str
    #: stable spec identity (machine name or content fingerprint) the
    #: pool registry keys on
    pool_key: str
    backend: str
    #: the resolved strategy name (``serial`` or ``process``)
    executor: str
    runs: tuple[RunRequest, ...]
    #: the resolved lane group size (``None`` = scalar runs)
    lane_width: int | None = None


def parse_batch_request(
    doc: Any, default_backend: str, default_executor: str,
    default_lane_width: int | None = None,
) -> ParsedBatch:
    """Validate a whole batch body (see ``docs/api-reference.md``)."""
    _require_type(doc, dict, "batch request")
    unknown = set(doc) - BATCH_FIELDS
    if unknown:
        raise ProtocolError(
            f"unknown batch field(s) {sorted(unknown)}; "
            f"allowed: {sorted(BATCH_FIELDS)}"
        )
    spec, label, pool_key = resolve_spec(doc)
    backend = resolve_backend(doc, default_backend)
    executor, lane_width = resolve_executor(doc, default_executor,
                                            default_lane_width)
    runs_doc = doc.get("runs")
    if runs_doc is None:
        raise ProtocolError("'runs' is required (a list of run objects)")
    _require_type(runs_doc, list, "'runs'")
    if not runs_doc:
        raise ProtocolError("'runs' must contain at least one run")
    runs = tuple(run_request_from_json(run) for run in runs_doc)
    return ParsedBatch(
        spec=spec, label=label, pool_key=pool_key, backend=backend,
        executor=executor, runs=runs, lane_width=lane_width,
    )


def parse_run_request(
    doc: Any, default_backend: str, default_executor: str,
    default_lane_width: int | None = None,
) -> ParsedBatch:
    """Validate a ``POST /v1/run`` body: one run, fields flattened.

    The single-run endpoint accepts the run fields (``cycles`` etc.) at
    the top level next to ``machine``/``spec``/``backend``/``executor``
    — the ergonomic ``curl`` shape — and normalises to a one-run
    :class:`ParsedBatch`.
    """
    _require_type(doc, dict, "run request")
    unknown = set(doc) - (BATCH_FIELDS - {"runs"}) - RUN_FIELDS
    if unknown:
        raise ProtocolError(
            f"unknown field(s) {sorted(unknown)}; allowed: "
            f"{sorted((BATCH_FIELDS - {'runs'}) | RUN_FIELDS)}"
        )
    spec, label, pool_key = resolve_spec(doc)
    backend = resolve_backend(doc, default_backend)
    executor, lane_width = resolve_executor(doc, default_executor,
                                            default_lane_width)
    run = run_request_from_json(
        {key: doc[key] for key in RUN_FIELDS if key in doc}
    )
    return ParsedBatch(
        spec=spec, label=label, pool_key=pool_key, backend=backend,
        executor=executor, runs=(run,), lane_width=lane_width,
    )


# ---------------------------------------------------------------------------
# Response side: serving objects -> JSON
# ---------------------------------------------------------------------------


def _stats_to_json(result: SimulationResult) -> dict:
    stats = result.stats
    return {
        "cycles": stats.cycles,
        "component_evaluations": stats.component_evaluations,
        "total_memory_accesses": stats.total_memory_accesses,
        "memories": {
            name: {
                "reads": memory.reads,
                "writes": memory.writes,
                "inputs": memory.inputs,
                "outputs": memory.outputs,
            }
            for name, memory in sorted(stats.memories.items())
        },
    }


def result_to_json(result: SimulationResult,
                   include_stats: bool = True) -> dict:
    """Flatten one simulation result into its wire representation."""
    document = {
        "backend": result.backend,
        "cycles_run": result.cycles_run,
        "final_values": dict(result.final_values),
        "memory_contents": {
            name: list(cells)
            for name, cells in result.memory_contents.items()
        },
        "outputs": [
            {"address": event.address, "value": event.value,
             "cycle": event.cycle}
            for event in result.outputs
        ],
        "prepare_seconds": result.prepare_seconds,
        "run_seconds": result.run_seconds,
    }
    if include_stats:
        document["stats"] = _stats_to_json(result)
    if result.trace.enabled and len(result.trace):
        document["trace_text"] = result.trace.render()
    return document


def result_from_json(doc: Mapping) -> SimulationResult:
    """Rebuild a comparable result from its wire representation.

    The rebuilt object carries every *observable* —
    ``final_values``, ``memory_contents`` and the output events — so
    :func:`repro.core.comparison.compare_results` can assert an
    HTTP-served run bit-identical to an in-process one.  Statistics and
    traces come back as plain wire data (``stats`` / ``trace_text``
    fields), not as rebuilt objects.
    """
    return SimulationResult(
        backend=doc["backend"],
        cycles_run=doc["cycles_run"],
        final_values=dict(doc["final_values"]),
        memory_contents={
            name: list(cells)
            for name, cells in doc["memory_contents"].items()
        },
        outputs=[
            OutputEvent(
                address=event["address"], value=event["value"],
                cycle=event.get("cycle"),
            )
            for event in doc["outputs"]
        ],
        prepare_seconds=doc.get("prepare_seconds", 0.0),
        run_seconds=doc.get("run_seconds", 0.0),
    )


def batch_result_to_json(batch: BatchResult) -> dict:
    """Flatten a whole batch result, per-item errors included."""
    items = []
    for item in batch.items:
        entry: dict = {
            "index": item.index,
            "ok": item.ok,
            "tag": item.tag,
            "worker": item.worker,
            "seconds": item.seconds,
            "queue_seconds": item.queue_seconds,
        }
        if item.ok:
            entry["result"] = result_to_json(
                item.result, include_stats=item.request.collect_stats
            )
        else:
            entry["error"] = {
                "type": error_kind(item.error),
                "message": str(item.error),
            }
        items.append(entry)
    return {
        "protocol": PROTOCOL_VERSION,
        "backend": batch.backend,
        "executor": batch.executor,
        "pool_size": batch.pool_size,
        "ok": batch.ok,
        "wall_seconds": batch.wall_seconds,
        "prepare_seconds": batch.prepare_seconds,
        "runs_per_second": batch.runs_per_second,
        "runs_by_worker": batch.runs_by_worker,
        "per_worker_runs_per_second": batch.per_worker_runs_per_second,
        "queue_seconds_mean": batch.queue_seconds_mean,
        "queue_seconds_max": batch.queue_seconds_max,
        "worker_crashes": batch.worker_crashes,
        "worker_retries": batch.worker_retries,
        "quarantined": batch.quarantined,
        "items": items,
    }
