"""One HTTP edge for the node server and the fleet router.

:class:`~repro.serving.server.SimulationServer` (``repro serve``) and
:class:`~repro.serving.router.FleetRouter` (``repro fleet``) both
subclass :class:`HttpEdge` — one ``ThreadingHTTPServer``, one request
handler, one lifecycle, one per-route request/error counter set — and
supply only their route tables (``get_routes``/``post_routes``: route ->
handler method name), their ``server_name`` (the ``Server:`` header),
their handlers and, on the node, the trace hook (``recorder`` +
``traced_routes``).  A handler takes one :class:`Request` and returns
``(status, payload)`` or ``(status, payload, headers)``; *payload* is a
JSON document (``dict``), Prometheus text (``str``), or bytes sent as
they are — the router passes upstream bodies through byte-for-byte,
since re-serialising JSON would be a place for bit-identity to quietly
break (``Content-Type`` then comes from *headers*, JSON by default).

The edge owns route lookup (including ``/v1/trace/<id>``), 404/405 for
every HTTP method (a method other than GET and POST is a 405 on a known
route and a 404 elsewhere; a HEAD answer carries no body), the
body — read under the 411/413 limits on POST routes, discarded on every
other route so a kept-alive connection stays in sync, or ``Connection:
close`` when it cannot be — one JSON decode, one exception-to-error-
envelope map (with ``Retry-After``), and error counting: every answer
with status >= 400 is an error, whichever route produced it.  What
``http.server`` rejects itself (a malformed request line, oversized
headers) gets the same JSON envelope, kind ``malformed_http``, and a
closed connection.

Every answer leaves in one socket write: status line, headers and body
together.  Written as a header block and then a body, a kept-alive
response would hold its body behind Nagle's algorithm (RFC 896) until
the client's delayed ACK (RFC 1122 §4.2.3.2), ~40 ms per request.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass
from email.message import Message
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Mapping

from repro.errors import AsimError, DeadlineExceededError, WorkerCrashError
from repro.serving.protocol import (
    TRACE_HEADER,
    ProtocolError,
    error_kind,
    error_to_json,
)
from repro.serving.tracing import (
    TraceBuilder,
    TraceRecorder,
    sanitize_trace_id,
)

__all__ = ["HttpEdge", "Request"]


def package_version() -> str:
    """The package version, imported lazily: this module loads during
    the package's own initialisation."""
    from repro import __version__

    return __version__


#: The one parameterised route: ``/v1/trace/<id>`` dispatches to the
#: handler registered for ``/v1/trace``, with the id as ``Request.arg``.
TRACE_ROUTE = "/v1/trace"

#: Content type of ``str`` payloads (``GET /metrics``).
METRICS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


@dataclass
class Request:
    """One routed request, as a handler sees it.

    ``path`` has its query string and trailing slash stripped; ``arg`` is
    the ``<id>`` of ``/v1/trace/<id>`` (``None`` elsewhere).  On POST
    routes ``body`` holds the raw bytes and ``doc`` their decoded JSON.
    ``trace`` is the request's trace builder on traced routes.
    """

    path: str
    arg: str | None
    headers: Message
    body: bytes = b""
    doc: object = None
    trace: TraceBuilder | None = None


def _error_response(exc: Exception) -> tuple[int, str, str]:
    """The ``(status, error kind, message)`` an exception answers with."""
    if isinstance(exc, ProtocolError):
        return exc.status, exc.kind, str(exc)
    if isinstance(exc, DeadlineExceededError):
        # a single-run request that missed its deadline: the gateway-
        # timeout status, same stable kind as a per-item batch error
        return 504, error_kind(exc), str(exc)
    if isinstance(exc, WorkerCrashError):
        # the server's worker died on this request's account — a
        # server-side failure, structured rather than a bare 500
        return 500, error_kind(exc), str(exc)
    if isinstance(exc, AsimError):
        # the simulation itself rejected the request (bad spec
        # semantics, a run-time machine error, a closed pool): the
        # client's fault, structurally reported
        return 400, type(exc).__name__, str(exc)
    return 500, "internal_error", f"{type(exc).__name__}: {exc}"


def _decode_json(body: bytes) -> object:
    """Decode a request body, or raise the structured 400."""
    try:
        return json.loads(body)
    except (ValueError, RecursionError) as exc:
        # ValueError covers malformed JSON, bytes that are not UTF-8 and
        # integers past the int-conversion digit limit; RecursionError,
        # nesting deeper than the interpreter's recursion limit
        raise ProtocolError(
            f"request body is not valid JSON: {exc}", kind="malformed_json",
        ) from exc


class _EdgeSocket(ThreadingHTTPServer):
    """ThreadingHTTPServer wired back to the owning :class:`HttpEdge`.

    ``block_on_close`` (the default) makes ``server_close`` join
    in-flight request threads — the first half of the graceful-shutdown
    path; :meth:`HttpEdge.close` bounds that join with its
    ``drain_timeout``.  The threads stay daemonic so a request that
    outlives the drain budget is abandoned without holding interpreter
    exit hostage.
    """

    daemon_threads = True
    app: "HttpEdge"


class _EdgeHandler(BaseHTTPRequestHandler):
    """Routes HTTP requests into the owning app's handlers."""

    protocol_version = "HTTP/1.1"

    def version_string(self) -> str:
        return f"{self.server.app.server_name}/{package_version()}"

    # the default handler logs every request to stderr; the edge keeps
    # counters instead (GET /v1/stats, GET /metrics)
    def log_message(self, format: str, *args) -> None:  # noqa: A002
        pass

    def _dispatch(self) -> None:
        app: HttpEdge = self.server.app
        tables = {"GET": app.get_routes, "POST": app.post_routes}
        path = self.path.split("?", 1)[0].rstrip("/") or "/"
        route, arg = path, None
        if path.startswith(TRACE_ROUTE + "/"):
            route, arg = TRACE_ROUTE, path[len(TRACE_ROUTE) + 1:]
        handler_name = tables.get(self.command, {}).get(route)
        headers: dict[str, str] = {}
        tb: TraceBuilder | None = None
        if "Transfer-Encoding" in self.headers:
            # the edge reads only Content-Length bodies: whatever an
            # encoded (e.g. chunked) body leaves in the socket would be
            # parsed as the next request, so this connection ends here
            self.close_connection = True
        try:
            if handler_name is None or self.command != "POST":
                self._discard_body(app.max_body_bytes)
            if handler_name is None:
                allowed = [m for m, table in tables.items() if route in table]
                if allowed:
                    headers["Allow"] = ", ".join(allowed)
                    raise ProtocolError(
                        f"{path} does not accept {self.command}",
                        status=405, kind="method_not_allowed",
                    )
                raise ProtocolError(
                    f"no such route: {path} (see docs/api-reference.md)",
                    status=404, kind="unknown_route",
                )
            app.count_request(route)
            if app.recorder is not None and route in app.traced_routes:
                tb = app.recorder.begin(
                    route, sanitize_trace_id(self.headers.get(TRACE_HEADER))
                )
                headers[TRACE_HEADER] = tb.trace_id
            request = Request(path, arg, self.headers, trace=tb)
            if self.command == "POST":
                request.body = self._read_body(app.max_body_bytes)
                request.doc = _decode_json(request.body)
                if tb is not None:
                    tb.mark("http_parse")
            status, payload, *extra = getattr(app, handler_name)(request)
            if extra:
                headers.update(extra[0])
        except Exception as exc:  # noqa: BLE001 - every failure answers
            status, kind, message = _error_response(exc)
            payload = error_to_json(kind, message)
            if isinstance(exc, ProtocolError) and exc.retry_after is not None:
                headers["Retry-After"] = str(max(1, round(exc.retry_after)))
            if tb is not None:
                tb.error(kind, message)
        if status >= 400:
            app.count_error()
        self._respond(status, payload, headers)
        if tb is not None:
            # the serialize phase closes after the response bytes are on
            # the socket, so the trace covers the full server-side wall
            # time; finishing after _respond keeps export cost (JSONL /
            # SQLite writes) off the client's measured latency.  A failed
            # request keeps its ``error`` span terminal — the error-body
            # write is folded into it rather than marked separately.
            if tb.errored:
                tb.extend_last()
            else:
                tb.mark("serialize")
            app.recorder.finish(tb, status)

    def __getattr__(self, name: str):
        # http.server calls do_<METHOD>; every method, an unknown one
        # included, goes through the one router (which answers 405/404)
        # instead of http.server's HTML 501 page
        if name.startswith("do_"):
            return self._dispatch
        raise AttributeError(name)

    def send_error(self, code: int, message: str | None = None,
                   explain: str | None = None) -> None:
        """http.server's own rejections (a malformed request line, an
        oversized request line or header block): the JSON error envelope
        instead of its HTML page.  The request could not be parsed, so
        the connection closes."""
        self.close_connection = True
        self.server.app.count_error()
        phrase = self.responses.get(code, ("error",))[0]
        self._respond(code, error_to_json("malformed_http",
                                          message or phrase), {})

    def _respond(self, status: int, payload: "dict | str | bytes",
                 headers: dict[str, str]) -> None:
        content_type = headers.pop("Content-Type", "application/json")
        if isinstance(payload, dict):
            payload = json.dumps(payload).encode()
        elif isinstance(payload, str):
            payload, content_type = payload.encode(), METRICS_CONTENT_TYPE
        phrase = self.responses.get(status, ("",))[0]
        head = [
            f"{self.protocol_version} {status} {phrase}",
            f"Server: {self.version_string()}",
            f"Date: {self.date_time_string()}",
            f"Content-Type: {content_type}",
            f"Content-Length: {len(payload)}",
            *(f"{name}: {value}" for name, value in headers.items()),
        ]
        if self.close_connection:
            # a request body was left unread: tell the keep-alive client
            # this connection is done rather than let the leftovers
            # corrupt its next request
            head.append("Connection: close")
        if self.command == "HEAD":
            # the headers describe the body a HEAD answer leaves out
            payload = b""
        # one send: a header block written ahead of its body would be a
        # small unacknowledged segment, behind which Nagle's algorithm
        # holds the body until the client's delayed ACK (~40 ms) fires
        self.wfile.write(
            "\r\n".join(head).encode("latin-1") + b"\r\n\r\n" + payload
        )

    def _content_length(self, missing: str) -> int:
        """The Content-Length header (*missing* when absent), -1 when
        malformed."""
        try:
            return int(self.headers.get("Content-Length") or missing)
        except ValueError:
            return -1

    def _discard_body(self, limit: int) -> None:
        """Consume a body the route does not read, so a keep-alive
        connection stays in sync; when that is impossible (malformed,
        negative or oversized Content-Length) mark the connection for
        closing instead."""
        length = self._content_length("0")
        if not 0 <= length <= limit:
            self.close_connection = True
            return
        while length > 0:
            chunk = self.rfile.read(min(length, 65536))
            if not chunk:
                break
            length -= len(chunk)

    def _read_body(self, limit: int) -> bytes:
        length = self._content_length("")
        if length < 0:
            # absent or malformed (including negative): nothing sane to
            # read, so the connection cannot be kept in sync either
            self.close_connection = True
            raise ProtocolError(
                "a JSON body with a valid non-negative Content-Length "
                "header is required",
                status=411, kind="length_required",
            )
        if length > limit:
            self.close_connection = True
            raise ProtocolError(
                f"request body of {length} bytes exceeds the "
                f"{limit}-byte limit",
                status=413, kind="body_too_large",
            )
        return self.rfile.read(length)


class HttpEdge:
    """The socket, lifecycle and request counters an app's routes run on.

    The socket binds in the constructor (``port=0`` binds an ephemeral
    port), so :attr:`host`/:attr:`port`/:attr:`url` are final from then
    on.  Use as a context manager, or call :meth:`start` (background
    thread, returns once the socket accepts) / :meth:`serve_forever`
    (blocking, the CLI path) and then :meth:`close`.
    """

    #: route -> handler method name, per HTTP method
    get_routes: Mapping[str, str]
    post_routes: Mapping[str, str]
    #: ``Server:`` header product and thread-name prefix
    server_name: str
    #: routes whose requests are traced into :attr:`recorder`
    traced_routes: frozenset[str] = frozenset()
    recorder: TraceRecorder | None = None

    def __init__(self, host: str, port: int, max_body_bytes: int,
                 drain_timeout: float) -> None:
        self.max_body_bytes = max_body_bytes
        self.drain_timeout = drain_timeout
        self.drain_failed = False
        self.started_at = time.time()
        self._requests: dict[str, int] = {}
        self._errors = 0
        self._counter_lock = threading.Lock()
        self._thread: threading.Thread | None = None
        self._closed = False
        self._serve_started = False
        self._http = _EdgeSocket((host, port), _EdgeHandler)
        self._http.app = self

    # -- lifecycle -----------------------------------------------------------

    @property
    def host(self) -> str:
        return self._http.server_address[0]

    @property
    def port(self) -> int:
        return self._http.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> "HttpEdge":
        """Serve from a background thread; the socket is already bound."""
        self._serve_started = True
        self._thread = threading.Thread(
            target=self._http.serve_forever,
            name=self.server_name,
            daemon=True,
        )
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Serve on the calling thread until :meth:`close` (the CLI path)."""
        self._serve_started = True
        self._http.serve_forever()

    def close(self) -> bool:
        """Stop accepting and let in-flight requests finish.

        The wait is bounded by ``drain_timeout`` seconds and *reported*:
        returns ``True`` when every request thread finished in time,
        ``False`` — with :attr:`drain_failed` set — when some outlived
        the budget and were abandoned (they are daemonic, so the process
        can still exit).
        """
        if self._closed:
            return not self.drain_failed
        self._closed = True
        if self._serve_started:
            # BaseServer.shutdown blocks until the serve loop acknowledges,
            # so it must only run when a loop was (or is) running
            self._http.shutdown()
        deadline = time.monotonic() + self.drain_timeout
        # server_close joins in-flight request threads with no timeout of
        # its own, so run it on a sacrificial thread and bound the wait
        # here — a hung request must not turn graceful shutdown into an
        # unbounded hang
        closer = threading.Thread(
            target=self._http.server_close,
            name=f"{self.server_name}-close",
            daemon=True,
        )
        closer.start()
        closer.join(timeout=max(0.0, deadline - time.monotonic()))
        if closer.is_alive():
            self.drain_failed = True
        if self._thread is not None and self._thread.is_alive():
            self._thread.join(timeout=max(0.0, deadline - time.monotonic()))
            if self._thread.is_alive():
                self.drain_failed = True
        return not self.drain_failed

    def __enter__(self) -> "HttpEdge":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- request accounting --------------------------------------------------

    def count_request(self, route: str) -> None:
        with self._counter_lock:
            self._requests[route] = self._requests.get(route, 0) + 1

    def count_error(self) -> None:
        with self._counter_lock:
            self._errors += 1

    def request_counts(self) -> dict:
        """``{"total", "by_route", "errors"}``: requests per known route,
        and answers with status >= 400 on any route."""
        with self._counter_lock:
            by_route = dict(self._requests)
            errors = self._errors
        return {
            "total": sum(by_route.values()),
            "by_route": by_route,
            "errors": errors,
        }
