"""Front-door HTTP router for a supervised serving fleet.

The router is the piece that turns N independent ``repro serve``
processes (spawned by :class:`repro.serving.fleet.FleetSupervisor`)
into one service:

* **Consistent sharding.**  ``POST /v1/run`` and ``POST /v1/batch`` are
  routed by the ``(pool key, backend, executor)`` triple — the same
  identity the per-node ``PoolRegistry`` keys its warm pools on, executor
  aliases resolved to their strategy — using rendezvous
  (highest-random-weight) hashing.  Repeats of a combination
  land on the node whose pool is already warm, and the assignment of
  every *other* combination is untouched when a node leaves or returns.
* **Spillover and bounded failover.**  A request whose home node is
  benched, restarting or suspect spills to the next healthy node in
  rendezvous order.  A connection-refused/reset or 5xx from a node
  mid-request is retried exactly once on a sibling; the response then
  carries an ``X-Repro-Retry`` header attributing the failure.  4xx
  responses and per-item simulation errors pass through untouched —
  they would fail identically anywhere.
* **Fleet-wide views.**  ``GET /v1/fleet`` reports topology and health,
  ``GET /v1/stats`` aggregates per-node stats plus router counters, and
  ``GET /readyz`` answers 200 only while a quorum of nodes is ready.
* **End-to-end tracing.**  Every forwarded run carries an
  ``X-Repro-Trace`` id (client-supplied or minted at the front door), so
  the node-side trace is retrievable through ``GET /v1/trace/<id>`` —
  the router fans the lookup out to the node that holds it.
  ``GET /metrics`` merges every node's Prometheus exposition under
  per-node ``node=<id>`` labels alongside the router's own counters.

Every proxied response is stamped with ``X-Repro-Node`` (the node that
actually answered).  The CLI front door is ``repro fleet``; semantics
are documented in ``docs/serving.md`` ("Running a fleet") and
``docs/api-reference.md``.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import time
import urllib.parse
from typing import Mapping, Sequence

from repro.serving.edge import HttpEdge, Request, package_version
from repro.serving.fleet import FleetSupervisor
from repro.serving.protocol import (
    NODE_HEADER,
    PROTOCOL_VERSION,
    RETRY_HEADER,
    TRACE_HEADER,
    ProtocolError,
    shard_identity,
)
from repro.serving.server import MAX_BODY_BYTES, RESILIENCE_KEYS
from repro.serving.tracing import (
    merge_node_metrics,
    render_families,
    sanitize_trace_id,
)

__all__ = ["FleetRouter", "ServingFleet", "rank_nodes"]

def rank_nodes(shard_key: str, node_ids: Sequence[str]) -> list[str]:
    """Rendezvous (highest-random-weight) ranking of nodes for one shard.

    Each (shard key, node) pair hashes to a weight; the ranking is the
    nodes sorted by descending weight.  The property that matters: a
    node leaving or returning never changes the *relative* order of the
    other nodes, so only the shards whose home was the lost node move —
    warm pools everywhere else stay warm.
    """
    def weight(node_id: str) -> str:
        return hashlib.sha256(f"{shard_key}|{node_id}".encode()).hexdigest()

    return sorted(node_ids, key=weight, reverse=True)


#: Routes the router answers itself or proxies; same shape as the
#: server's tables so the docs gate can check both the same way.
GET_ROUTES = {
    "/healthz": "handle_healthz",
    "/readyz": "handle_readyz",
    "/v1/fleet": "handle_fleet",
    "/v1/stats": "handle_stats",
    "/v1/machines": "handle_proxy_get",
    "/v1/backends": "handle_proxy_get",
    "/v1/trace": "handle_trace",
    "/metrics": "handle_metrics",
}
POST_ROUTES = {
    "/v1/run": "handle_forward",
    "/v1/batch": "handle_forward",
}


class FleetRouter(HttpEdge):
    """Stdlib front door over a :class:`FleetSupervisor`'s nodes.

    It runs on the same :class:`~repro.serving.edge.HttpEdge` as
    :class:`~repro.serving.server.SimulationServer`, so the lifecycle is
    the server's: the socket binds in the constructor (``port=0`` for
    ephemeral), then :meth:`start` (background thread) or
    :meth:`serve_forever` (blocking) and :meth:`close`, which finishes
    in-flight proxied requests within ``drain_timeout``.  ``quorum`` is
    the number of ready nodes ``/readyz`` requires; the default is a
    majority (``N // 2 + 1``).
    """

    get_routes = GET_ROUTES
    post_routes = POST_ROUTES
    server_name = "repro-fleet-router"

    def __init__(
        self,
        supervisor: FleetSupervisor,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        default_backend: str = "threaded",
        default_executor: str = "serial",
        quorum: int | None = None,
        max_body_bytes: int = MAX_BODY_BYTES,
        forward_timeout: float = 600.0,
        proxy_timeout: float = 10.0,
        drain_timeout: float = 10.0,
    ) -> None:
        total = len(supervisor.nodes)
        if quorum is None:
            quorum = total // 2 + 1
        if not 1 <= quorum <= total:
            raise ValueError(
                f"quorum must be between 1 and {total}, got {quorum!r}"
            )
        self.supervisor = supervisor
        self.default_backend = default_backend
        self.default_executor = default_executor
        self.quorum = quorum
        self.forward_timeout = forward_timeout
        self.proxy_timeout = proxy_timeout
        self.failovers = 0
        super().__init__(host, port, max_body_bytes, drain_timeout)

    def count_failover(self) -> None:
        with self._counter_lock:
            self.failovers += 1

    # -- upstream plumbing ---------------------------------------------------

    def _ready_nodes(self) -> list[tuple[str, str]]:
        """The routable ``(node_id, url)`` pairs; the structured 503 when
        there are none."""
        ready = self.supervisor.ready_nodes()
        if not ready:
            raise ProtocolError(
                "no healthy fleet node is available for this request",
                status=503, kind="no_healthy_node", retry_after=1.0,
            )
        return ready

    def _forward(self, url: str, method: str, path: str,
                 body: bytes | None, headers: Mapping[str, str],
                 timeout: float):
        """One HTTP attempt against one node.  Raises ``OSError`` /
        ``http.client.HTTPException`` on transport failure; HTTP error
        statuses come back as ordinary responses."""
        parsed = urllib.parse.urlsplit(url)
        connection = http.client.HTTPConnection(
            parsed.hostname, parsed.port, timeout=timeout
        )
        try:
            connection.request(method, path, body=body, headers=dict(headers))
            response = connection.getresponse()
            payload = response.read()
            return response.status, response.headers, payload
        finally:
            connection.close()

    def _passthrough_headers(self, node_id: str, upstream) -> dict[str, str]:
        headers = {NODE_HEADER: node_id}
        content_type = upstream.get("Content-Type")
        if content_type:
            headers["Content-Type"] = content_type
        retry_after = upstream.get("Retry-After")
        if retry_after:
            headers["Retry-After"] = retry_after
        trace_id = upstream.get(TRACE_HEADER)
        if trace_id:
            headers[TRACE_HEADER] = trace_id
        return headers

    def _attempt_nodes(self, candidates: list[tuple[str, str]], method: str,
                       path: str, body: bytes | None,
                       headers: Mapping[str, str],
                       timeout: float) -> tuple[int, bytes, dict[str, str]]:
        """Try up to two nodes in order; the bounded-failover core.

        Transport failures and 5xx responses move on to the sibling (and
        mark the node suspect on transport failures, so routing reacts
        before the supervisor's next probe); anything else — including
        every 4xx — passes through untouched.  A 5xx from the *last*
        candidate passes through too, with the attribution header: the
        client learns both that the fleet retried and what it got.
        """
        failures: list[str] = []
        for position, (node_id, node_url) in enumerate(candidates):
            last = position == len(candidates) - 1
            try:
                status, upstream, payload = self._forward(
                    node_url, method, path, body, headers, timeout
                )
            except (OSError, http.client.HTTPException) as exc:
                reason = f"{node_id}: {type(exc).__name__}: {exc}".strip(": ")
                failures.append(reason)
                self.supervisor.mark_suspect(
                    node_id, f"forward failed: {type(exc).__name__}"
                )
                self.count_failover()
                continue
            if status >= 500 and not last:
                failures.append(f"{node_id}: HTTP {status}")
                self.count_failover()
                continue
            out = self._passthrough_headers(node_id, upstream)
            if failures:
                out[RETRY_HEADER] = "; ".join(failures)
            return status, payload, out
        raise ProtocolError(
            "every candidate node failed: " + "; ".join(failures),
            status=502, kind="upstream_failed",
        )

    # -- POST handlers -------------------------------------------------------

    def handle_forward(self, request: Request):
        pool_key, backend, executor = shard_identity(
            request.doc, self.default_backend, self.default_executor
        )
        shard_key = f"{pool_key}|{backend}|{executor}"
        ready = dict(self._ready_nodes())
        # Rank over *all* node ids, then keep the healthy ones: a node's
        # temporary absence must not reshuffle anyone else's home.
        order = [
            node_id
            for node_id in rank_nodes(shard_key, self.supervisor.node_ids())
            if node_id in ready
        ]
        forward_headers = {"Content-Type": "application/json"}
        request_timeout = request.headers.get("X-Request-Timeout")
        if request_timeout is not None:
            forward_headers["X-Request-Timeout"] = request_timeout
        # Pin the trace id at the front door (minting one if the client
        # did not send a safe one) so the node's trace is retrievable by
        # the id the client saw — even across a mid-request failover.
        forward_headers[TRACE_HEADER] = sanitize_trace_id(
            request.headers.get(TRACE_HEADER)
        )
        candidates = [(node_id, ready[node_id]) for node_id in order[:2]]
        return self._attempt_nodes(
            candidates, "POST", request.path, request.body, forward_headers,
            self.forward_timeout,
        )

    # -- GET handlers --------------------------------------------------------

    def handle_proxy_get(self, request: Request):
        """Static discovery routes (machines, backends): any ready node
        answers identically, so forward to the first one that works."""
        return self._attempt_nodes(
            self._ready_nodes()[:2], "GET", request.path, None, {},
            self.proxy_timeout,
        )

    def handle_trace(self, request: Request):
        """``GET /v1/trace/<id>``: find the node that served the traced
        request.  Only the node that ran a request holds its trace (each
        keeps its own ring buffer), so the router fans the lookup out to
        every ready node and passes the first hit through — a miss
        everywhere is an honest 404."""
        trace_id = request.arg or ""
        for node_id, node_url in self._ready_nodes():
            try:
                status, upstream, payload = self._forward(
                    node_url, "GET", request.path, None, {},
                    self.proxy_timeout,
                )
            except (OSError, http.client.HTTPException):
                continue
            if status == 200:
                return status, payload, self._passthrough_headers(
                    node_id, upstream
                )
        raise ProtocolError(
            f"no fleet node holds a trace with id {trace_id!r} (traces "
            "live in a bounded per-node ring buffer; old ones are "
            "evicted)",
            status=404, kind="unknown_trace",
        )

    def handle_metrics(self, request: Request):
        """``GET /metrics``: router counters plus every ready node's own
        ``/metrics`` payload merged under per-node ``node=<id>`` labels."""
        counts = self.request_counts()
        states: dict[str, int] = {}
        node_texts: dict[str, str] = {}
        for snap in self.supervisor.describe():
            states[snap["state"]] = states.get(snap["state"], 0) + 1
            if snap["state"] != "ready" or snap["url"] is None:
                continue
            try:
                status, _headers, payload = self._forward(
                    snap["url"], "GET", "/metrics", None, {},
                    self.proxy_timeout,
                )
                if status != 200:
                    continue
                node_texts[snap["id"]] = payload.decode("utf-8", "replace")
            except (OSError, http.client.HTTPException):
                continue
        lines = render_families({
            "repro_router_requests_total": ("route", counts["by_route"]),
            "repro_router_errors_total": counts["errors"],
            "repro_router_failovers_total": self.failovers,
            "repro_router_nodes": ("state", states),
        })
        lines.extend(merge_node_metrics(node_texts))
        return 200, "\n".join(lines) + "\n"

    def handle_healthz(self, request: Request):
        return 200, {
            "protocol": PROTOCOL_VERSION,
            "status": "ok",
            "role": "router",
            "version": package_version(),
            "uptime_seconds": time.time() - self.started_at,
        }

    def handle_readyz(self, request: Request):
        ready = len(self.supervisor.ready_nodes())
        document = {
            "protocol": PROTOCOL_VERSION,
            "quorum": self.quorum,
            "ready_nodes": ready,
            "nodes": len(self.supervisor.nodes),
        }
        if self._closed or self.supervisor.draining:
            document.update(ready=False, reason="draining")
            return 503, document
        if ready < self.quorum:
            document.update(ready=False, reason="no_quorum")
            return 503, document
        document["ready"] = True
        return 200, document

    def handle_fleet(self, request: Request):
        counts = self.request_counts()
        return 200, {
            "protocol": PROTOCOL_VERSION,
            "role": "router",
            "quorum": self.quorum,
            "ready_nodes": len(self.supervisor.ready_nodes()),
            "draining": self.supervisor.draining,
            "router": {
                "requests": counts["total"],
                "errors": counts["errors"],
                "failovers": self.failovers,
            },
            "nodes": self.supervisor.describe(),
        }

    def handle_stats(self, request: Request):
        """Fleet-wide stats: router counters, per-node stats documents,
        and summed totals over the nodes that answered."""
        counts = self.request_counts()
        totals = {
            "requests": 0, "errors": 0, **dict.fromkeys(RESILIENCE_KEYS, 0),
        }
        nodes: dict[str, dict] = {}
        for snap in self.supervisor.describe():
            node_id, node_url = snap["id"], snap["url"]
            if node_url is None:
                nodes[node_id] = {"error": f"node is {snap['state']}"}
                continue
            try:
                status, _headers, payload = self._forward(
                    node_url, "GET", "/v1/stats", None, {}, self.proxy_timeout
                )
                if status != 200:
                    raise ValueError(f"HTTP {status}")
                stats = json.loads(payload)
            except Exception as exc:  # noqa: BLE001 - report, don't fail
                nodes[node_id] = {"error": f"{type(exc).__name__}: {exc}"}
                continue
            nodes[node_id] = stats
            requests = stats.get("requests", {})
            totals["requests"] += requests.get("total", 0)
            totals["errors"] += requests.get("errors", 0)
            resilience = stats.get("resilience", {})
            for key in RESILIENCE_KEYS:
                totals[key] += resilience.get(key, 0)
        return 200, {
            "protocol": PROTOCOL_VERSION,
            "router": {
                "version": package_version(),
                "uptime_seconds": time.time() - self.started_at,
                "requests": counts,
                "failovers": self.failovers,
            },
            "totals": totals,
            "nodes": nodes,
        }


class ServingFleet:
    """One-call fleet: a supervisor plus a router, as a context manager.

    The shape every consumer wants — the CLI, the chaos tests, the
    benchmark, the check.sh smoke: spawn ``nodes`` children, wait until
    all are ready, open the front door; ``close()`` stops routing and
    performs the rolling drain.
    """

    def __init__(
        self,
        nodes: int = 2,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        child_args: Sequence[str] = (),
        backend: str = "threaded",
        executor: str = "serial",
        quorum: int | None = None,
        drain_timeout: float = 10.0,
        health_interval: float = 0.25,
        bench_after: int = 3,
        bench_window: float = 30.0,
        log_dir: str | None = None,
        trace_sink: str | None = None,
        trace_dir: str | None = None,
        start_timeout: float = 60.0,
        forward_timeout: float = 600.0,
    ) -> None:
        self.start_timeout = start_timeout
        self.supervisor = FleetSupervisor(
            nodes=nodes,
            child_args=["--backend", backend, "--executor", executor,
                        *child_args],
            drain_timeout=drain_timeout,
            health_interval=health_interval,
            bench_after=bench_after,
            bench_window=bench_window,
            log_dir=log_dir,
            trace_sink=trace_sink,
            trace_dir=trace_dir,
        )
        self.router = FleetRouter(
            self.supervisor,
            host=host,
            port=port,
            default_backend=backend,
            default_executor=executor,
            quorum=quorum,
            forward_timeout=forward_timeout,
            drain_timeout=drain_timeout,
        )

    @property
    def url(self) -> str:
        return self.router.url

    def start(self) -> "ServingFleet":
        self.supervisor.start(wait=True, timeout=self.start_timeout)
        self.router.start()
        return self

    def close(self) -> list[dict]:
        self.router.close()
        return self.supervisor.stop()

    def __enter__(self) -> "ServingFleet":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()
