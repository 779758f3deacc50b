"""One socket write per response, on the node and on the fleet router.

A response written as a header block and then a body leaves the body
behind a small unacknowledged segment, where Nagle's algorithm holds it
until the client's delayed ACK fires (~40 ms on every kept-alive
request).  The edge therefore hands each response to the socket in one
write; these tests count the writes instead of bounding latency, so a
slow host cannot make them pass or fail.

The router runs over a never-spawned one-node supervisor whose node is
stood in for by an in-process :class:`SimulationServer`, so its
passthrough answers are real upstream bodies without a child process.
"""

from __future__ import annotations

import http.client
import json

import pytest

from repro.serving import SimulationServer
from repro.serving.edge import _EdgeHandler
from repro.serving.fleet import FleetSupervisor
from repro.serving.router import FleetRouter


class CountingWriter:
    """The handler's socket writer, logging every write it passes on
    with the app that wrote it (the router's node writes too)."""

    def __init__(self, inner, app, log: list) -> None:
        self._inner = inner
        self._app = app
        self._log = log

    def write(self, data) -> int:
        self._log.append((self._app, bytes(data)))
        return self._inner.write(data)

    def __getattr__(self, name):
        return getattr(self._inner, name)


@pytest.fixture
def writes(monkeypatch) -> list:
    """``(app, bytes)`` for every socket write of connections opened
    during the test."""
    log: list = []
    setup = _EdgeHandler.setup

    def counting_setup(handler) -> None:
        setup(handler)
        handler.wfile = CountingWriter(handler.wfile, handler.server.app,
                                       log)

    monkeypatch.setattr(_EdgeHandler, "setup", counting_setup)
    return log


@pytest.fixture(scope="module")
def node():
    # one admission slot and no queue, so a test can make it answer 429
    with SimulationServer(port=0, max_inflight=1, max_queue=0) as running:
        yield running


@pytest.fixture(scope="module")
def router(node):
    supervisor = FleetSupervisor(nodes=1)
    stand_in = supervisor.nodes[0]
    stand_in.url, stand_in.state = node.url, "ready"
    with FleetRouter(supervisor, port=0, max_body_bytes=4096) as running:
        yield running


@pytest.fixture(params=["node", "router"])
def app(request, node, router):
    return node if request.param == "node" else router


def sent_by(app, writes) -> list[bytes]:
    return [data for owner, data in writes if owner is app]


def exchange(app, connection, writes, method, path, body=None):
    """One request on a kept-alive *connection* to *app*; returns the
    response and its body after asserting *app* wrote the answer in
    exactly one write whose bytes are the whole response."""
    writes.clear()
    payload = None if body is None else json.dumps(body).encode()
    connection.request(method, path, body=payload)
    response = connection.getresponse()
    data = response.read()
    sent = sent_by(app, writes)
    assert len(sent) == 1, [len(chunk) for chunk in sent]
    head, sent_body = sent[0].split(b"\r\n\r\n", 1)
    assert head.startswith(b"HTTP/1.1 %d " % response.status), head
    assert sent_body == data
    return response, data


def connect(app) -> http.client.HTTPConnection:
    return http.client.HTTPConnection(app.host, app.port, timeout=60)


@pytest.fixture
def connection(app):
    connection = connect(app)
    yield connection
    connection.close()


class TestOneWritePerResponse:
    def test_json_200(self, app, connection, writes):
        response, data = exchange(app, connection, writes, "GET", "/healthz")
        assert response.status == 200
        assert json.loads(data)["status"] == "ok"

    def test_4xx_envelope_with_retry_after(self, app, connection, node,
                                           writes):
        # the node's one slot is taken: the node answers 429 itself, and
        # the router passes that answer through with its Retry-After
        node.gate.acquire()
        try:
            response, data = exchange(app, connection, writes, "POST",
                                      "/v1/run",
                                      {"machine": "counter", "cycles": 4})
        finally:
            node.gate.release()
        assert response.status == 429
        assert response.getheader("Retry-After") == "1"
        assert json.loads(data)["error"]["type"] == "overloaded"

    @pytest.mark.parametrize("method", ["PUT", "HEAD"])
    def test_method_not_allowed(self, app, connection, writes, method):
        # a HEAD answer is its status line and headers alone
        response, data = exchange(app, connection, writes, method, "/v1/run")
        assert response.status == 405
        assert response.getheader("Allow") == "POST"
        assert (data == b"") == (method == "HEAD")

    def test_metrics_text(self, app, connection, writes):
        response, data = exchange(app, connection, writes, "GET", "/metrics")
        assert response.status == 200
        assert response.getheader("Content-Type").startswith("text/plain")
        assert b"# TYPE" in data

    def test_connection_close_answer(self, app, connection, writes):
        # a declared body past the app's limit, on a GET route that
        # would have to discard it, cannot be skipped: the answer ends
        # the connection
        writes.clear()
        connection.putrequest("GET", "/healthz")
        connection.putheader("Content-Length", str(64 * 1024 * 1024))
        connection.endheaders()
        response = connection.getresponse()
        data = response.read()
        assert response.status == 200
        assert response.getheader("Connection") == "close"
        sent = sent_by(app, writes)
        assert len(sent) == 1
        assert sent[0].endswith(b"\r\n\r\n" + data)

    def test_router_passthrough_body(self, router, writes):
        connection = connect(router)
        try:
            response, data = exchange(router, connection, writes, "POST",
                                      "/v1/run",
                                      {"machine": "counter", "cycles": 12})
        finally:
            connection.close()
        assert response.status == 200
        assert response.getheader("X-Repro-Node") == "node-0"
        assert json.loads(data)["result"]["cycles_run"] == 12


def test_one_kept_alive_connection_stays_in_sync(app, connection, writes):
    """Run, 404, /metrics scrape and batch in turn on one connection."""
    response, data = exchange(app, connection, writes, "POST", "/v1/run",
                              {"machine": "counter", "cycles": 24})
    assert response.status == 200
    run = json.loads(data)["result"]
    assert run["cycles_run"] == 24 and run["backend"] == "compiled"

    response, data = exchange(app, connection, writes, "GET", "/v1/nope")
    assert response.status == 404
    assert json.loads(data)["error"]["type"] == "unknown_route"

    response, data = exchange(app, connection, writes, "GET", "/metrics")
    assert response.status == 200 and b"# TYPE" in data

    response, data = exchange(app, connection, writes, "POST", "/v1/batch", {
        "machine": "counter", "runs": [{"cycles": 24}, {"cycles": 12}],
    })
    assert response.status == 200
    batch = json.loads(data)
    assert batch["ok"]
    assert [item["result"]["cycles_run"] for item in batch["items"]] == [
        24, 12]
    first = batch["items"][0]["result"]
    for field in ("final_values", "memory_contents", "outputs", "stats"):
        assert first[field] == run[field], field
