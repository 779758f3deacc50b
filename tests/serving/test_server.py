"""End-to-end tests for the long-lived HTTP simulation server.

A real ``SimulationServer`` is started on an ephemeral port and driven
with ``urllib`` — the same stack any external client uses.  The load-
bearing assertions: batches served over HTTP are bit-identical to
in-process ``SimulationPool`` runs on every backend; malformed and
unsupported requests come back as structured 4xx errors, never stack
traces; pools are created lazily and kept warm across requests;
shutdown is graceful.

The HTTP edge cases (``TestEdge``) run against both apps on the shared
edge: the node and a fleet router.
"""

from __future__ import annotations

import http.client
import json
import socket
import urllib.error
import urllib.request

import pytest

from repro.core.comparison import compare_results
from repro.core.simulator import BACKEND_NAMES
from repro.serving import RunRequest, SimulationPool, SimulationServer
from repro.serving.fleet import FleetSupervisor
from repro.serving.protocol import result_from_json
from repro.serving.router import FleetRouter


@pytest.fixture(scope="module")
def server():
    with SimulationServer(port=0) as running:
        yield running


def make_app(kind: str, **options):
    """A node, or a router over a never-started one-node supervisor: the
    router answers every edge case before forwarding, so no child
    process is ever spawned."""
    if kind == "node":
        return SimulationServer(port=0, **options)
    return FleetRouter(FleetSupervisor(nodes=1), port=0, **options)


@pytest.fixture(scope="module", params=["node", "router"])
def app(request):
    # a single admission slot, so a test can saturate the node's gate
    options = ({"max_inflight": 1, "max_queue": 0}
               if request.param == "node" else {})
    with make_app(request.param, **options) as running:
        yield running
    if isinstance(running, FleetRouter):
        assert all(snap["pid"] is None
                   for snap in running.supervisor.describe())


def get(server, path):
    try:
        with urllib.request.urlopen(server.url + path, timeout=30) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


def post(server, path, body, raw: bytes | None = None):
    payload = raw if raw is not None else json.dumps(body).encode()
    request = urllib.request.Request(
        server.url + path, data=payload,
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request, timeout=60) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


class TestPlumbing:
    def test_healthz(self, server):
        status, document = get(server, "/healthz")
        assert status == 200
        assert document["status"] == "ok"
        assert document["uptime_seconds"] >= 0.0

    def test_machines_lists_the_registry(self, server):
        from repro.machines.library import machine_names

        status, document = get(server, "/v1/machines")
        assert status == 200
        names = [entry["name"] for entry in document["machines"]]
        assert names == machine_names()

    def test_backends_report_capability_flags(self, server):
        status, document = get(server, "/v1/backends")
        assert status == 200
        rows = {row["name"]: row for row in document["backends"]}
        assert set(rows) == set(BACKEND_NAMES)
        for row in rows.values():
            assert isinstance(row["supports_override"], bool)
            assert isinstance(row["supports_full_stats"], bool)
        assert rows["threaded"]["prepare_cache"] is True
        assert rows["interpreter"]["prepare_cache"] is False

    def test_backends_advertise_supported_executors(self, server):
        from repro.serving import EXECUTOR_NAMES

        status, document = get(server, "/v1/backends")
        assert status == 200
        for row in document["backends"]:
            # every backend serves both strategies (lanes included —
            # backends without a generated lane entry point use the
            # generic lane evaluator); aliases are input names only
            assert row["executors"] == list(EXECUTOR_NAMES)
            assert row["executors"] == ["serial", "process"]



class TestErrors:
    def test_unknown_field_is_rejected(self, server):
        status, document = post(server, "/v1/run",
                                {"machine": "counter", "cylces": 5})
        assert status == 400
        assert "cylces" in document["error"]["message"]

    def test_unknown_machine_is_404(self, server):
        status, document = post(server, "/v1/run", {"machine": "warp-core"})
        assert status == 404
        assert document["error"]["type"] == "unknown_machine"

    def test_unknown_backend_is_structured(self, server):
        status, document = post(
            server, "/v1/batch",
            {"machine": "counter", "backend": "quantum", "runs": [{}]},
        )
        assert status == 400
        assert document["error"]["type"] == "unknown_backend"

    def test_invalid_spec_text_is_structured(self, server):
        status, document = post(
            server, "/v1/run", {"spec": "# x\ngarbage line\n.\n"}
        )
        assert status == 400
        assert document["error"]["type"] == "invalid_specification"

    def test_malformed_json_spec_document_is_structured(self, server):
        status, document = post(
            server, "/v1/run", {"spec": {"format": "not-a-spec"}}
        )
        assert status == 400
        assert document["error"]["type"] == "invalid_spec"
        assert "$.format" in document["error"]["message"]

    def test_invalid_json_spec_document_is_structured(self, server):
        # well-formed wrapper, semantically broken machine (dangling ref)
        status, document = post(server, "/v1/run", {"spec": {
            "format": "repro-spec", "version": 1,
            "components": [{"type": "memory", "name": "r", "address": 0,
                            "data": "ghost", "operation": 1, "size": 1}],
        }})
        assert status == 400
        assert document["error"]["type"] == "invalid_spec"
        assert "ghost" in document["error"]["message"]

    def test_oversized_json_spec_document_is_structured(self, server):
        from repro.rtl.interchange import MAX_COMPONENTS

        status, document = post(server, "/v1/run", {"spec": {
            "format": "repro-spec", "version": 1,
            "components": [
                {"type": "alu", "name": f"a{i}", "function": 0,
                 "left": 0, "right": 0}
                for i in range(MAX_COMPONENTS + 1)
            ],
        }})
        assert status == 400
        assert document["error"]["type"] == "invalid_spec"

    def test_unsupported_capability_is_422(self, server, monkeypatch):
        # a backend whose prepared simulations cannot honor `override`:
        # flip the capability flag and ask for an override over the wire
        from repro.interp.interpreter import InterpreterBackend, \
            InterpreterSimulation

        monkeypatch.setattr(InterpreterBackend, "supports_override", False)
        monkeypatch.setattr(InterpreterSimulation, "supports_override", False)
        status, document = post(server, "/v1/run", {
            "machine": "fibonacci", "backend": "interpreter",
            "executor": "serial", "cycles": 4, "override": {"a": 1},
        })
        assert status == 422
        assert document["error"]["type"] == "unsupported_capability"

    def test_simulation_error_is_structured_400(self, server):
        # cycles < 0 blows up inside the run; the server reports the
        # exception class, not a stack trace
        status, document = post(server, "/v1/run",
                                {"machine": "counter", "cycles": -3})
        assert status == 400
        assert "error" in document


class TestEdge:
    """Routing, body handling and error accounting, on node and router."""

    @pytest.mark.parametrize("route", ["/v1/run", "/v1/batch"])
    @pytest.mark.parametrize("field", ["comment", "name", "component"])
    def test_json_spec_strings_cannot_run_code(self, app, counter_spec,
                                               tmp_path, field, route):
        # on the default (compiled) backend the comment and display name
        # become comments of the generated module and component names
        # its variables: a payload that reached that module would run in
        # the node process.  The router refuses it at the front door
        from repro.rtl.interchange import spec_to_json

        marker = tmp_path / "injected"
        payload = f"open({str(marker)!r}, 'w').close()"
        doc = spec_to_json(counter_spec)
        if field == "component":
            doc["components"].append({
                "type": "alu", "name": f"next[{payload}]", "function": 4,
                "left": 0, "right": 0,
            })
        else:
            doc[field] = f"x\n{payload}"
        body = ({"spec": doc, "cycles": 4} if route == "/v1/run"
                else {"spec": doc, "runs": [{"cycles": 4}]})
        status, document = post(app, route, body)
        assert not marker.exists()
        assert status == 400
        assert document["error"]["type"] == "invalid_spec"

    @pytest.mark.parametrize("control", ["\r", "\x00"])
    def test_spec_text_header_must_be_one_line(self, app, tmp_path,
                                               counter_spec_text, control):
        # a lone carriage return ends a Python comment line, though not
        # the header line of the source language; the compiler refuses a
        # NUL byte, which would leave the run degraded to threaded
        marker = tmp_path / "injected"
        first, rest = counter_spec_text.split("\n", 1)
        text = f"{first}{control}open({str(marker)!r}, 'w').close()\n{rest}"
        status, document = post(app, "/v1/run",
                                {"spec": text, "cycles": 12})
        assert not marker.exists()
        assert status == 400
        assert document["error"]["type"] == "invalid_specification"
        assert "header comment" in document["error"]["message"]

    def test_unknown_route_is_structured_404(self, app):
        status, document = get(app, "/v1/nope")
        assert status == 404
        assert document["error"]["type"] == "unknown_route"

    def test_wrong_method_is_405(self, app):
        status, document = get(app, "/v1/run")
        assert status == 405
        assert document["error"]["type"] == "method_not_allowed"

    def test_trailing_slash_is_tolerated(self, app):
        status, _ = get(app, "/healthz/")
        assert status == 200

    @pytest.mark.parametrize("raw", [
        b"{not json at all",
        b'{"machine": "\x80\x81counter"}',  # not UTF-8
        b"[" * 100_000,  # nested past the recursion limit
    ], ids=["syntax", "non-utf8", "deep"])
    def test_malformed_json_is_structured_400(self, app, raw):
        status, document = post(app, "/v1/run", None, raw=raw)
        assert status == 400
        assert document["error"]["type"] == "malformed_json"
        assert "JSON" in document["error"]["message"]

    def test_negative_content_length_is_structured_4xx(self, app):
        connection = http.client.HTTPConnection(app.host, app.port,
                                                timeout=30)
        try:
            connection.putrequest("POST", "/v1/run")
            connection.putheader("Content-Length", "-5")
            connection.endheaders()
            response = connection.getresponse()
            document = json.loads(response.read())
            assert response.status == 411
            assert document["error"]["type"] == "length_required"
        finally:
            connection.close()

    @pytest.mark.parametrize("method, route, status", [
        # a POST to a GET-only route answers 405 without reading the body
        ("POST", "/healthz", 405),
        # a GET route never reads a body either
        ("GET", "/healthz", 200),
    ], ids=["unread-405", "get-body"])
    def test_keep_alive_survives_an_unread_body(self, app, method, route,
                                                status):
        # the connection must stay usable (or be closed cleanly), never
        # serve the leftover body bytes as the next request
        connection = http.client.HTTPConnection(app.host, app.port,
                                                timeout=30)
        try:
            body = json.dumps({"x": 1}).encode()
            connection.request(method, route, body=body)
            response = connection.getresponse()
            assert response.status == status
            response.read()
            connection.request("GET", "/healthz")
            follow_up = connection.getresponse()
            assert follow_up.status == 200
            assert follow_up.getheader("Content-Type") == "application/json"
            assert json.loads(follow_up.read())["status"] == "ok"
        finally:
            connection.close()

    def test_encoded_body_closes_the_connection(self, app):
        # the edge reads Content-Length bodies only: a chunked body on a
        # route that reads none must end the connection, never be parsed
        # as the next request on it
        received = b""
        with socket.create_connection((app.host, app.port),
                                      timeout=30) as raw:
            raw.sendall(b"GET /healthz HTTP/1.1\r\nHost: test\r\n"
                        b"Transfer-Encoding: chunked\r\n\r\n"
                        b"5\r\nhello\r\n0\r\n\r\n")
            try:
                while chunk := raw.recv(65536):  # b"" once the server closes
                    received += chunk
            except ConnectionResetError:
                pass  # closed with the body unread: the answer came first
        head = received.split(b"\r\n\r\n", 1)[0].decode().split("\r\n")
        assert head[0].startswith("HTTP/1.1 200")
        assert "Connection: close" in head
        # a fresh connection is served as usual
        status, document = get(app, "/healthz")
        assert status == 200 and document["status"] == "ok"

    @pytest.mark.parametrize("kind", ["node", "router"])
    def test_configurable_body_limit_answers_413(self, kind):
        with make_app(kind, max_body_bytes=512) as small:
            status, document = post(small, "/v1/run", {
                "machine": "counter", "cycles": 4, "tag": "x" * 2048,
            })
            assert status == 413
            assert document["error"]["type"] == "body_too_large"
            assert "512" in document["error"]["message"]
            # an in-budget request on the same app gets past the limit:
            # the node serves it, the router has no node to forward to
            status, _ = post(small, "/v1/run",
                             {"machine": "counter", "cycles": 4})
            assert status == (200 if kind == "node" else 503)

    def test_not_ready_counts_as_an_error(self, app):
        # every answer >= 400 is an error: the node is not ready while its
        # one admission slot is taken, the router (nodes never started)
        # has no quorum
        def errors() -> tuple[int, int]:
            stats = get(app, "/v1/stats")[1]
            with urllib.request.urlopen(app.url + "/metrics",
                                        timeout=30) as response:
                text = response.read().decode()
            family = ("repro_router_errors_total"
                      if isinstance(app, FleetRouter)
                      else "repro_http_errors_total")
            metric = next(int(line.split()[1]) for line in text.splitlines()
                          if line.startswith(family + " "))
            return stats.get("router", stats)["requests"]["errors"], metric

        gate = getattr(app, "gate", None)
        before = errors()
        if gate is not None:
            gate.acquire()
        try:
            status, document = get(app, "/readyz")
        finally:
            if gate is not None:
                gate.release()
        assert status == 503
        assert document["ready"] is False
        assert errors() == (before[0] + 1, before[1] + 1)


class TestServing:
    def test_run_time_error_is_one_400_on_every_backend(self, server):
        # the register reaches 14, past the last ALU function code: the
        # default (compiled) backend names the ALU and cycle exactly as
        # the threaded one does
        spec = ("# bad funct\na inc r .\nA a r 1 1\nA inc 4 r 1\n"
                "M r 0 inc 1 1\n.")
        answers = [
            post(server, "/v1/run", {"spec": spec, "cycles": 20, **chosen})
            for chosen in ({}, {"backend": "threaded"})
        ]
        assert answers[0] == answers[1]
        status, document = answers[0]
        assert status == 400
        assert document["error"] == {
            "type": "InvalidAluFunctionError",
            "message": "cycle 14: ALU 'a' computed function code 14",
        }

    def test_single_run_over_http(self, server):
        status, document = post(server, "/v1/run", {
            "machine": "counter", "cycles": 24, "backend": "interpreter",
        })
        assert status == 200
        result = document["result"]
        assert result["cycles_run"] == 24
        assert result["backend"] == "interpreter"
        assert result["stats"]["cycles"] == 24

    @pytest.mark.parametrize("backend", BACKEND_NAMES)
    def test_http_batch_bit_identical_to_in_process_pool(self, server,
                                                         backend):
        from repro.machines.library import get_machine

        runs = [{"cycles": cycles, "tag": f"c{cycles}"}
                for cycles in (8, 16, 24)]
        status, document = post(server, "/v1/batch", {
            "machine": "gcd", "backend": backend, "runs": runs,
        })
        assert status == 200
        assert document["ok"] is True
        assert document["backend"] == backend

        spec = get_machine("gcd").build()
        with SimulationPool(spec, backend=backend) as pool:
            reference = pool.run_batch(
                [RunRequest(cycles=cycles, tag=f"c{cycles}")
                 for cycles in (8, 16, 24)]
            )
        for item, wire_item in zip(reference.items, document["items"]):
            assert wire_item["tag"] == item.tag
            rebuilt = result_from_json(wire_item["result"])
            assert compare_results(item.result, rebuilt) == []

    def test_inline_spec_over_http(self, server, counter_spec_text,
                                   counter_spec):
        status, document = post(server, "/v1/run", {
            "spec": counter_spec_text, "cycles": 12, "backend": "threaded",
        })
        assert status == 200
        from repro.core.simulator import Simulator

        reference = Simulator(counter_spec, backend="threaded").run(cycles=12)
        rebuilt = result_from_json(document["result"])
        assert compare_results(reference, rebuilt) == []

    def test_json_spec_over_http_bit_identical_to_in_process(
            self, server, counter_spec):
        from repro.rtl.interchange import spec_to_json

        status, document = post(server, "/v1/run", {
            "spec": spec_to_json(counter_spec), "cycles": 12,
            "backend": "threaded",
        })
        assert status == 200
        with SimulationPool(counter_spec, backend="threaded") as pool:
            [reference] = pool.run_batch([RunRequest(cycles=12)])
        rebuilt = result_from_json(document["result"])
        assert compare_results(reference.result, rebuilt) == []

    def test_override_over_the_wire_matches_in_process(self, server):
        from repro.machines.library import get_machine
        from repro.serving.protocol import ConstantOverride

        status, document = post(server, "/v1/run", {
            "machine": "counter", "cycles": 10, "backend": "interpreter",
            "override": {"count": 2},
        })
        assert status == 200
        spec = get_machine("counter").build()
        with SimulationPool(spec, backend="interpreter") as pool:
            reference = pool.run(RunRequest(
                cycles=10,
                override=ConstantOverride(values=(("count", 2),)),
            ))
        rebuilt = result_from_json(document["result"])
        assert compare_results(reference, rebuilt) == []

    def test_process_executor_over_http(self, server):
        # the deepest path: JSON -> ParsedBatch -> process pool (the run
        # requests, ConstantOverride included, pickle to worker
        # processes) -> RunOutcome -> JSON
        from repro.machines.library import get_machine
        from repro.serving.protocol import ConstantOverride

        status, document = post(server, "/v1/batch", {
            "machine": "counter", "backend": "threaded",
            "executor": "process",
            "runs": [{"cycles": 12}, {"cycles": 12, "override": {"count": 1}}],
        })
        assert status == 200
        assert document["ok"] is True
        assert document["executor"] == "process"
        assert all(item["worker"].startswith("pid-")
                   for item in document["items"])
        spec = get_machine("counter").build()
        with SimulationPool(spec, backend="threaded",
                            executor="serial") as pool:
            plain = pool.run(RunRequest(cycles=12))
            pinned = pool.run(RunRequest(
                cycles=12, override=ConstantOverride(values=(("count", 1),))
            ))
        for reference, wire_item in zip((plain, pinned), document["items"]):
            rebuilt = result_from_json(wire_item["result"])
            assert compare_results(reference, rebuilt) == []

    @pytest.mark.parametrize("backend", BACKEND_NAMES)
    def test_lane_executor_over_http_bit_identical(self, server, backend):
        # wire -> ParsedBatch(lane_width) -> lane-grouped pool, checked
        # against a serial in-process pool on the same requests
        from repro.machines.library import get_machine

        runs = [{"cycles": 24, "trace": False} for _ in range(5)]
        status, document = post(server, "/v1/batch", {
            "machine": "counter", "backend": backend, "executor": "lane",
            "lane_width": 4, "runs": runs,
        })
        assert status == 200
        assert document["ok"] is True
        assert document["executor"] == "serial"  # the alias's strategy

        spec = get_machine("counter").build()
        with SimulationPool(spec, backend=backend,
                            executor="serial") as pool:
            reference = pool.run_batch(
                [RunRequest(cycles=24, trace=False) for _ in range(5)]
            )
        for item, wire_item in zip(reference.items, document["items"]):
            rebuilt = result_from_json(wire_item["result"])
            assert compare_results(item.result, rebuilt) == []

    @pytest.mark.parametrize("alias", ["thread", "lane"])
    def test_alias_is_answered_as_serial_bit_identical(self, server, alias):
        from repro.machines.library import get_machine

        status, document = post(server, "/v1/batch", {
            "machine": "gcd", "backend": "compiled", "executor": alias,
            "runs": [{"cycles": 16, "inputs": [i, i + 1], "trace": False}
                     for i in range(3)],
        })
        assert status == 200 and document["ok"] is True
        assert document["executor"] == "serial"
        status, single = post(server, "/v1/run", {
            "machine": "gcd", "backend": "compiled", "executor": alias,
            "cycles": 16, "inputs": [0, 1], "trace": False,
        })
        assert status == 200 and single["executor"] == "serial"

        spec = get_machine("gcd").build()
        with SimulationPool(spec, backend="compiled",
                            executor="serial") as pool:
            reference = pool.run_batch([
                RunRequest(cycles=16, inputs=(i, i + 1), trace=False)
                for i in range(3)
            ])
        wire = [item["result"] for item in document["items"]]
        for item, result in zip(reference.items, wire, strict=True):
            assert compare_results(item.result,
                                   result_from_json(result)) == []
        assert compare_results(reference.items[0].result,
                               result_from_json(single["result"])) == []

    def test_thread_and_serial_requests_share_one_pool(self):
        with SimulationServer(port=0) as fresh:
            for executor in ("thread", "serial"):
                status, _ = post(fresh, "/v1/run", {
                    "machine": "counter", "cycles": 4, "executor": executor,
                })
                assert status == 200
            pools = get(fresh, "/v1/stats")[1]["pools"]
        assert [(row["machine"], row["executor"]) for row in pools] == [
            ("counter", "serial")
        ]

    def test_unknown_executor_is_structured_400(self, server):
        status, document = post(server, "/v1/run", {
            "machine": "counter", "executor": "fiber",
        })
        assert status == 400
        assert document["error"]["type"] == "unknown_executor"

    @pytest.mark.parametrize("bad_width", [0, -3, True, "wide"])
    def test_invalid_lane_width_is_structured_400(self, server, bad_width):
        status, document = post(server, "/v1/batch", {
            "machine": "counter", "executor": "lane",
            "lane_width": bad_width, "runs": [{"cycles": 4}],
        })
        assert status == 400
        assert "lane_width" in document["error"]["message"]

    def test_stats_report_the_lane_width_default(self, server):
        status, document = get(server, "/v1/stats")
        assert status == 200
        assert "lane_width" in document["config"]

    def test_stats_blocks_are_the_documented_ones(self, server):
        # the node keeps no artifact store of its own, so there is no
        # cache block beside the documented ones
        status, document = get(server, "/v1/stats")
        assert status == 200
        assert set(document) == {"protocol", "server", "config", "requests",
                                 "resilience", "pools", "tracing"}

    def test_per_item_errors_do_not_kill_the_batch(self, server):
        status, document = post(server, "/v1/batch", {
            "machine": "counter", "backend": "interpreter",
            "runs": [{"cycles": 4}, {"cycles": -1}, {"cycles": 4}],
        })
        assert status == 200
        assert document["ok"] is False
        oks = [item["ok"] for item in document["items"]]
        assert oks == [True, False, True]
        assert document["items"][1]["error"]["message"]

    def test_pools_are_lazy_and_kept_warm(self, server):
        before = {(row["machine"], row["backend"])
                  for row in get(server, "/v1/stats")[1]["pools"]}
        assert ("traffic-light", "threaded") not in before
        for _ in range(2):
            status, _ = post(server, "/v1/run", {
                "machine": "traffic-light", "cycles": 6,
                "backend": "threaded",
            })
            assert status == 200
        pools = get(server, "/v1/stats")[1]["pools"]
        matching = [row for row in pools
                    if (row["machine"], row["backend"])
                    == ("traffic-light", "threaded")]
        assert len(matching) == 1  # one pool, reused — not one per request

    def test_stats_counts_requests(self, server):
        first = get(server, "/v1/stats")[1]["requests"]["total"]
        get(server, "/healthz")
        second = get(server, "/v1/stats")[1]["requests"]["total"]
        assert second >= first + 2  # healthz + the stats call itself


class TestRobustness:
    def test_body_limit_must_be_positive(self):
        with pytest.raises(ValueError, match="max_body_bytes"):
            SimulationServer(port=0, max_body_bytes=0)

    def test_close_reports_a_clean_drain(self):
        server = SimulationServer(port=0, drain_timeout=5.0).start()
        assert get(server, "/healthz")[0] == 200
        assert server.close() is True
        assert server.drain_failed is False

    def test_drain_timeout_must_be_non_negative(self):
        with pytest.raises(ValueError, match="drain_timeout"):
            SimulationServer(port=0, drain_timeout=-1.0)

    def test_unpicklable_override_is_per_item_error_not_500(self, server,
                                                            monkeypatch):
        # the full wire -> pool -> process-executor path with a request
        # that cannot cross the process boundary: the pickling failure
        # must come back as that item's structured error, the innocent
        # item must run, and the server must stay up
        from repro.serving import protocol

        monkeypatch.setattr(
            protocol, "ConstantOverride",
            lambda values: (lambda name, value, cycle: value),
        )
        status, document = post(server, "/v1/batch", {
            "machine": "counter", "backend": "threaded",
            "executor": "process",
            "runs": [{"cycles": 8, "override": {"count": 1},
                      "tag": "poisoned"},
                     {"cycles": 8, "tag": "fine"}],
        })
        assert status == 200
        assert document["ok"] is False
        poisoned, fine = document["items"]
        assert poisoned["ok"] is False
        assert poisoned["error"]["message"]
        assert fine["ok"] is True
        assert get(server, "/healthz")[0] == 200


class TestLifecycle:
    def test_close_is_idempotent_and_graceful(self):
        server = SimulationServer(port=0).start()
        status, _ = get(server, "/healthz")
        assert status == 200
        server.close()
        server.close()  # second close is a no-op
        with pytest.raises(urllib.error.URLError):
            get(server, "/healthz")

    def test_close_without_start_does_not_hang(self):
        server = SimulationServer(port=0)
        server.close()  # never served: must not deadlock on shutdown()


class TestPoolEviction:
    """The ``max_pools`` LRU cap: a server fed unbounded distinct
    combinations drains and evicts its least-recently-used pool instead
    of growing without bound."""

    def test_registry_evicts_lru_beyond_the_cap(self):
        from repro.serving.protocol import parse_batch_request
        from repro.serving.server import PoolRegistry

        registry = PoolRegistry(max_pools=2)

        def batch_for(machine):
            return parse_batch_request(
                {"machine": machine, "runs": [{"cycles": 4}]},
                "interpreter", "serial",
            )

        counter_pool, _ = registry.pool_for(batch_for("counter"))
        gcd_pool, _ = registry.pool_for(batch_for("gcd"))
        assert len(registry) == 2
        # touch counter: gcd becomes least-recently-used
        touched, _ = registry.pool_for(batch_for("counter"))
        assert touched is counter_pool
        third_pool, _ = registry.pool_for(batch_for("traffic-light"))
        assert len(registry) == 2
        assert registry.eviction_count == 1
        assert gcd_pool.closed is True      # drained, not abandoned
        assert counter_pool.closed is False  # the touch saved it
        # the evicted combination is rebuilt on demand (a fresh pool)
        rebuilt, _ = registry.pool_for(batch_for("gcd"))
        assert rebuilt is not gcd_pool
        assert registry.eviction_count == 2
        registry.close_all()
        assert third_pool.closed

    def test_eviction_counter_in_resilience_totals(self):
        from repro.serving.server import PoolRegistry

        registry = PoolRegistry(max_pools=1)
        assert registry.resilience_totals()["pool_evictions"] == 0
        registry.close_all()

    def test_max_pools_must_be_positive(self):
        from repro.serving.server import PoolRegistry

        with pytest.raises(ValueError):
            PoolRegistry(max_pools=0)

    def test_eviction_over_http_stays_correct(self):
        with SimulationServer(port=0, backend="interpreter",
                              max_pools=1) as server:
            for machine in ("counter", "gcd", "counter"):
                status, document = post(
                    server, "/v1/run", {"machine": machine, "cycles": 8}
                )
                assert status == 200, document
                assert document["result"]["cycles_run"] == 8
            status, stats = get(server, "/v1/stats")
            assert status == 200
            assert stats["config"]["max_pools"] == 1
            assert stats["resilience"]["pool_evictions"] == 2
            assert len(stats["pools"]) == 1


class TestSignalDrain:
    """SIGTERM must run the same graceful drain as Ctrl-C — the fleet's
    rolling restarts depend on it.  Driven through a real subprocess,
    exactly as a supervisor would."""

    def test_sigterm_drains_and_exits_zero(self, tmp_path):
        import os
        import signal
        import subprocess
        import sys
        from pathlib import Path

        import repro
        from repro.serving.chaos import await_condition

        port_file = tmp_path / "port"
        env = dict(os.environ)
        src_root = str(Path(repro.__file__).resolve().parent.parent)
        env["PYTHONPATH"] = src_root + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--port-file", str(port_file)],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True, env=env,
        )
        try:
            await_condition(
                lambda: port_file.exists() and port_file.read_text().strip(),
                timeout=30, message="port file",
            )
            port = int(port_file.read_text().strip())
            with urllib.request.urlopen(
                f"http://127.0.0.1:{port}/healthz", timeout=10
            ) as response:
                assert response.status == 200
            process.send_signal(signal.SIGTERM)
            output, _ = process.communicate(timeout=30)
        finally:
            if process.poll() is None:
                process.kill()
                process.communicate()
        assert process.returncode == 0, output
        assert "shutting down (draining in-flight runs)" in output
        assert "abandoned" not in output  # the drain finished in budget
