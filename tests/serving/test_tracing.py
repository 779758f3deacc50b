"""Tests for the per-request tracing pipeline and the /metrics endpoint.

Four stories, each load-bearing for a different guarantee:

* **Span completeness** — every bundled machine × backend × executor
  configuration (serial, serial with lanes, process), driven over real
  HTTP: every completed request yields a retrievable trace whose spans
  nest inside their parents, whose union covers at least 95% of the
  request wall time, and which always includes a ``worker_run`` span.  Error items, deadline sheds and quarantined
  requests produce traces with a terminal ``error`` span — failed
  requests never vanish from observability.
* **Exporter integrity** — JSONL lines parse back into equal
  :class:`~repro.serving.tracing.Span` tuples and rotate by size; the
  SQLite sink survives a mid-write ``SIGKILL`` with no corrupt rows; the
  ring buffer evicts oldest-first without touching in-flight traces.
* **Metrics honesty** — ``GET /metrics`` emits exactly the declared
  metric families, in parseable Prometheus text exposition format, and
  the fleet router merges child payloads under per-node labels.
* **Counter atomicity** — the regression tests for the lost-update race
  on ``/v1/stats``-surfaced counters (server route counters and the
  :class:`~repro.compiler.cache.DiskCache` hit/miss/write-error
  counters), hammered from many threads with a tiny switch interval.
"""

from __future__ import annotations

import json
import os
import sqlite3
import subprocess
import sys
import textwrap
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.core.simulator import BACKEND_NAMES
from repro.machines.library import get_machine, machine_names
from repro.serving import RunRequest, SimulationPool, SimulationServer
from repro.serving.chaos import KillWorker, await_condition, hard_kill
from repro.serving.executor import EXECUTOR_NAMES
from repro.serving.protocol import TRACE_HEADER
from repro.serving.tracing import (
    LATENCY_BUCKETS,
    METRIC_NAMES,
    ROUTER_METRIC_NAMES,
    SPAN_KINDS,
    JsonlExporter,
    RequestTrace,
    Span,
    SqliteExporter,
    TraceBuilder,
    TraceRecorder,
    coverage_fraction,
    make_trace_id,
    merge_node_metrics,
    metric_base_name,
    metric_line,
    sanitize_trace_id,
)

#: Parent/child containment tolerance: spans are stamped with separate
#: ``time.monotonic()`` reads, so edges can disagree by scheduler noise.
EPSILON = 5e-3


def spec_for(name: str):
    machine = get_machine(name).build()
    return getattr(machine, "spec", machine)


@pytest.fixture(scope="module")
def server():
    with SimulationServer(
        port=0, artifact_cache=False, max_workers=2, max_pools=4,
        trace_ring=512,
    ) as running:
        yield running


def get(server, path, headers=None):
    request = urllib.request.Request(server.url + path,
                                     headers=dict(headers or {}))
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, response.read(), dict(response.headers)
    except urllib.error.HTTPError as exc:
        return exc.code, exc.read(), dict(exc.headers)


def post(server, path, body, headers=None):
    payload = json.dumps(body).encode()
    request = urllib.request.Request(
        server.url + path, data=payload,
        headers={"Content-Type": "application/json", **(headers or {})},
    )
    try:
        with urllib.request.urlopen(request, timeout=120) as response:
            return response.status, json.loads(response.read()), dict(response.headers)
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read()), dict(exc.headers)


def fetch_trace(server, trace_id) -> RequestTrace:
    # the trace enters the ring just *after* the response bytes hit the
    # socket (export cost stays off client latency), so an immediate
    # fetch can race the server thread by one scheduling quantum
    deadline = time.monotonic() + 10.0
    while True:
        status, payload, _headers = get(server, f"/v1/trace/{trace_id}")
        if status == 200 or time.monotonic() >= deadline:
            break
        time.sleep(0.01)
    assert status == 200, payload
    document = json.loads(payload)
    document.pop("protocol", None)
    return RequestTrace.from_json(document)


def assert_well_formed(trace: RequestTrace, require_worker_run=True) -> None:
    """The span-completeness invariants every finished trace must hold."""
    spans = trace.spans
    assert spans, "a finished trace must carry spans"
    root = spans[0]
    assert root.name == "request" and root.parent is None
    for span in spans:
        assert span.name in SPAN_KINDS, span.name
        assert span.duration >= 0.0, span
        if span.parent is not None:
            assert 0 <= span.parent < len(spans), span
            parent = spans[span.parent]
            assert parent.start - EPSILON <= span.start, (parent, span)
            assert span.end <= parent.end + EPSILON, (parent, span)
    # same-parent spans of the same batch item are sequential stages
    # (queue -> run -> ipc) and must not overlap each other
    by_slot: dict[tuple, list[Span]] = {}
    for span in spans[1:]:
        if span.item is not None:
            by_slot.setdefault((span.parent, span.item), []).append(span)
    for siblings in by_slot.values():
        ordered = sorted(siblings, key=lambda s: s.start)
        for before, after in zip(ordered, ordered[1:]):
            assert before.end <= after.start + EPSILON, (before, after)
    assert coverage_fraction(trace) >= 0.95, trace
    if require_worker_run:
        assert any(span.name == "worker_run" for span in spans), spans


#: The executor configurations the span matrix covers: (strategy, lane
#: width) as a request spells them.
EXECUTOR_CONFIGS = {
    "serial": ("serial", None),
    "serial-lanes": ("serial", 16),
    "process": ("process", None),
}


class TestSpanCompletenessMatrix:
    """Every bundled machine × backend × executor configuration, over
    real HTTP."""

    @pytest.mark.parametrize("machine", machine_names())
    @pytest.mark.parametrize("backend", BACKEND_NAMES)
    @pytest.mark.parametrize("config", sorted(EXECUTOR_CONFIGS))
    def test_every_completed_request_yields_a_complete_trace(
        self, server, machine, backend, config
    ):
        executor, lane_width = EXECUTOR_CONFIGS[config]
        status, document, headers = post(server, "/v1/batch", {
            "machine": machine,
            "backend": backend,
            "executor": executor,
            "lane_width": lane_width,
            "runs": [{"cycles": 8}, {"cycles": 8}],
        })
        assert status == 200, document
        assert all(item["ok"] for item in document["items"]), document
        trace_id = headers[TRACE_HEADER]
        trace = fetch_trace(server, trace_id)
        assert trace.trace_id == trace_id
        assert trace.route == "/v1/batch"
        assert trace.status == 200
        assert trace.backend and trace.executor == executor
        assert_well_formed(trace)
        names = {span.name for span in trace.spans}
        assert {"http_parse", "admission_wait", "pool_resolve",
                "executor_dispatch", "serialize", "pool_queue"} <= names
        # both batch items contributed worker-side spans
        items_seen = {span.item for span in trace.spans
                      if span.name == "worker_run"}
        assert items_seen == {0, 1}

    def test_single_run_route_is_traced_too(self, server):
        status, _document, headers = post(server, "/v1/run", {
            "machine": "counter", "cycles": 16,
        })
        assert status == 200
        trace = fetch_trace(server, headers[TRACE_HEADER])
        assert trace.route == "/v1/run"
        assert_well_formed(trace)

    def test_lane_groups_appear_for_lane_compatible_machines(self, server):
        status, document, headers = post(server, "/v1/batch", {
            "machine": "stack-machine-sieve",
            "backend": "compiled",
            "executor": "lane",
            "runs": [{"cycles": 8}] * 3,
        })
        assert status == 200 and all(i["ok"] for i in document["items"])
        trace = fetch_trace(server, headers[TRACE_HEADER])
        assert_well_formed(trace)
        assert trace.executor == "serial"  # the alias's strategy
        lanes = [span for span in trace.spans if span.name == "lane_group"]
        assert lanes, trace.spans
        # every lane slice nests inside its group span
        for span in trace.spans:
            if span.name == "worker_run" and span.item is not None:
                parent = trace.spans[span.parent]
                assert parent.name in ("lane_group", "executor_dispatch")

    @pytest.mark.parametrize("executor, lane_width", [
        ("lane", None), ("serial", 4),
    ])
    def test_lane_configurations_emit_lane_group_spans(
        self, counter_spec, executor, lane_width
    ):
        # the lane alias and a serial pool with a width are one
        # configuration: both group compatible runs into lane groups
        with SimulationPool(counter_spec, executor=executor,
                            lane_width=lane_width) as pool:
            result = pool.run_batch([RunRequest(cycles=8, trace=False)] * 3)
        assert result.ok and result.executor == "serial"
        for item in result.items:
            names = [span.name for span in item.spans]
            assert names == ["pool_queue", "lane_group", "worker_run"], names

    def test_server_lane_width_groups_default_requests(self):
        # --lane-width applies to the default (serial) pools, not only to
        # process pools and lane requests
        with SimulationServer(port=0, artifact_cache=False,
                              lane_width=4) as lanes:
            status, document, headers = post(lanes, "/v1/batch", {
                "machine": "counter",
                "runs": [{"cycles": 8, "trace": False}] * 3,
            })
            assert status == 200 and document["executor"] == "serial"
            trace = fetch_trace(lanes, headers[TRACE_HEADER])
        assert_well_formed(trace)
        groups = [span for span in trace.spans if span.name == "lane_group"]
        assert groups and all(span.detail == "lanes=3" for span in groups)

    def test_client_supplied_trace_id_is_echoed(self, server):
        chosen = make_trace_id()
        status, _doc, headers = post(
            server, "/v1/run", {"machine": "counter", "cycles": 4},
            headers={TRACE_HEADER: chosen},
        )
        assert status == 200
        assert headers[TRACE_HEADER] == chosen
        assert fetch_trace(server, chosen).trace_id == chosen

    def test_unsafe_trace_id_is_replaced_not_echoed(self, server):
        status, _doc, headers = post(
            server, "/v1/run", {"machine": "counter", "cycles": 4},
            headers={TRACE_HEADER: "x" * 300},
        )
        assert status == 200
        assert headers[TRACE_HEADER] != "x" * 300
        assert len(headers[TRACE_HEADER]) <= 128


class TestErrorTraces:
    """Failed work must never vanish from the trace pipeline."""

    def test_protocol_error_leaves_a_terminal_error_span(self, server):
        status, document, headers = post(server, "/v1/run",
                                         {"machine": "warp-core"})
        assert status == 404, document
        trace = fetch_trace(server, headers[TRACE_HEADER])
        assert trace.status == 404
        assert trace.spans[-1].name == "error"
        assert "unknown_machine" in (trace.spans[-1].detail or "")
        assert_well_formed(trace, require_worker_run=False)

    def test_deadline_shed_items_carry_error_spans(self, server):
        # a sub-millisecond deadline on a long run: the item is shed or
        # interrupted, and either way its trace records a terminal error
        status, document, headers = post(server, "/v1/batch", {
            "machine": "counter",
            "executor": "serial",
            "runs": [
                {"cycles": 2_000_000, "timeout_seconds": 0.001},
                {"cycles": 4},
            ],
        })
        assert status == 200
        assert not document["items"][0]["ok"]
        assert document["items"][1]["ok"]
        trace = fetch_trace(server, headers[TRACE_HEADER])
        assert_well_formed(trace)  # the healthy item still ran
        errors = [span for span in trace.spans if span.name == "error"]
        assert any(span.item == 0 for span in errors), trace.spans

    def test_malformed_json_is_traced(self, server):
        request = urllib.request.Request(
            server.url + "/v1/run", data=b"{nope",
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=30)
        trace_id = excinfo.value.headers[TRACE_HEADER]
        excinfo.value.read()
        trace = fetch_trace(server, trace_id)
        assert trace.status == 400
        assert trace.spans[-1].name == "error"

    def test_quarantined_request_keeps_a_terminal_error_span(self, counter_spec):
        # pool-level: a poisoned request kills its worker twice and is
        # quarantined; its BatchItem still carries the error span chain
        with SimulationPool(counter_spec, max_workers=2,
                            executor="process") as pool:
            result = pool.run_batch([
                RunRequest(cycles=50,
                           override=KillWorker(spare_pid=os.getpid())),
                RunRequest(cycles=8),
            ])
        assert result.quarantined >= 1
        poisoned = result.items[0]
        assert not poisoned.ok
        assert any(span.name == "error" for span in poisoned.spans), \
            poisoned.spans
        healthy = result.items[1]
        assert any(span.name == "worker_run" for span in healthy.spans)

    def test_pool_level_spans_cover_queue_and_run(self, counter_spec):
        for executor in EXECUTOR_NAMES:
            with SimulationPool(counter_spec, max_workers=2,
                                executor=executor) as pool:
                result = pool.run_batch([RunRequest(cycles=8)] * 2)
            for item in result.items:
                names = [span.name for span in item.spans]
                assert "pool_queue" in names, (executor, names)
                assert "worker_run" in names, (executor, names)
                if executor == "process":
                    assert "chunk_ipc" in names, names


@pytest.fixture()
def counter_spec():
    return spec_for("counter")


def make_trace(trace_id="t-1", spans=None) -> RequestTrace:
    spans = spans if spans is not None else (
        Span("request", 100.0, 1.0),
        Span("http_parse", 100.0, 0.2, 0),
        Span("worker_run", 100.2, 0.8, 0, "w-0", 0, None),
    )
    return RequestTrace(
        trace_id=trace_id, route="/v1/run", status=200,
        started=1700000000.0, duration=1.0, spans=tuple(spans),
        label="counter", backend="threaded", executor="serial",
    )


class TestJsonlExporter:
    def test_round_trip_preserves_span_tuples(self, tmp_path):
        exporter = JsonlExporter(tmp_path / "traces.jsonl")
        traces = [make_trace(f"t-{i}") for i in range(5)]
        for trace in traces:
            exporter.export(trace)
        exporter.close()
        loaded = JsonlExporter.read(tmp_path / "traces.jsonl")
        assert [t.trace_id for t in loaded] == [t.trace_id for t in traces]
        for original, copy in zip(traces, loaded):
            assert copy.spans == original.spans
            assert copy == original

    def test_rotation_by_size_keeps_one_predecessor(self, tmp_path):
        path = tmp_path / "traces.jsonl"
        exporter = JsonlExporter(path, max_bytes=2048)
        for i in range(64):
            exporter.export(make_trace(f"t-{i:03d}"))
        exporter.close()
        rotated = path.with_name(path.name + ".1")
        assert rotated.exists()
        assert path.stat().st_size <= 2048 + 1024
        # both generations parse cleanly and ids never repeat
        ids = [t.trace_id for t in
               JsonlExporter.read(rotated) + JsonlExporter.read(path)]
        assert len(ids) == len(set(ids))
        assert "t-063" in ids

    def test_read_skips_torn_tail_line(self, tmp_path):
        path = tmp_path / "traces.jsonl"
        exporter = JsonlExporter(path)
        exporter.export(make_trace("t-whole"))
        exporter.close()
        with open(path, "ab") as handle:
            handle.write(b'{"trace_id": "t-torn", "rou')  # crash mid-write
        loaded = JsonlExporter.read(path)
        assert [t.trace_id for t in loaded] == ["t-whole"]


class TestSqliteExporter:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "traces.sqlite"
        exporter = SqliteExporter(path)
        traces = [make_trace(f"t-{i}") for i in range(4)]
        for trace in traces:
            exporter.export(trace)
        exporter.close()
        loaded = SqliteExporter.read(path)
        assert sorted(t.trace_id for t in loaded) == \
            sorted(t.trace_id for t in traces)
        by_id = {t.trace_id: t for t in loaded}
        for original in traces:
            assert by_id[original.trace_id].spans == original.spans

    def test_survives_hard_kill_mid_write(self, tmp_path):
        """SIGKILL a process that is writing traces in a tight loop; the
        database must come back with zero corrupt rows and only whole
        traces visible through ``read(complete_only=True)``."""
        path = tmp_path / "traces.sqlite"
        script = textwrap.dedent(f"""
            import sys
            sys.path.insert(0, {str(os.path.join(os.path.dirname(__file__), os.pardir, os.pardir, "src"))!r})
            from repro.serving.tracing import RequestTrace, Span, SqliteExporter
            exporter = SqliteExporter({str(path)!r})
            i = 0
            print("ready", flush=True)
            while True:
                spans = tuple(
                    Span("worker_run", 100.0 + j, 0.5, None, "w", j, None)
                    for j in range(40)
                )
                exporter.export(RequestTrace(
                    trace_id=f"t-{{i}}", route="/v1/run", status=200,
                    started=1.0, duration=1.0, spans=spans,
                ))
                i += 1
        """)
        process = subprocess.Popen(
            [sys.executable, "-c", script],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        try:
            assert process.stdout.readline().strip() == b"ready"
            await_condition(
                lambda: path.exists() and path.stat().st_size > 0,
                message="first committed trace",
            )
            time.sleep(0.2)  # let a few hundred transactions through
        finally:
            hard_kill(process.pid)
            process.wait(timeout=10)
            process.stdout.close()
            process.stderr.close()
        loaded = SqliteExporter.read(path, complete_only=True)
        assert loaded, "at least one committed trace survives the kill"
        for trace in loaded:
            assert len(trace.spans) == 40  # whole traces only
        with sqlite3.connect(path) as connection:
            (verdict,) = connection.execute(
                "PRAGMA integrity_check").fetchone()
        assert verdict == "ok"


class TestRingBuffer:
    def test_evicts_oldest_without_dropping_in_flight(self):
        recorder = TraceRecorder(ring_size=4)
        in_flight = recorder.begin("/v1/run", "t-inflight")
        finished = []
        for i in range(10):
            builder = recorder.begin("/v1/run", f"t-{i}")
            builder.mark("http_parse")
            recorder.finish(builder, 200)
            finished.append(builder.trace_id)
        # the four newest survive, the rest were evicted oldest-first
        assert [recorder.get(tid) is not None for tid in finished] == \
            [False] * 6 + [True] * 4
        snapshot = recorder.snapshot()
        assert snapshot["ring_evictions"] == 6
        assert snapshot["recorded"] == 10
        # the in-flight builder was untouched; finishing it now works
        in_flight.mark("http_parse")
        recorder.finish(in_flight, 200)
        assert recorder.get("t-inflight") is not None

    def test_export_errors_are_counted_not_raised(self, tmp_path):
        class Exploding:
            def export(self, trace):
                raise RuntimeError("disk on fire")

            def close(self):
                pass

        recorder = TraceRecorder(ring_size=4, exporters=(Exploding(),))
        builder = recorder.begin("/v1/run", "t-x")
        builder.mark("http_parse")
        recorder.finish(builder, 200)  # must not raise
        assert recorder.snapshot()["export_errors"] == 1
        assert recorder.get("t-x") is not None


class TestMetricsEndpoint:
    def parse_names(self, text: str) -> set:
        names = set()
        declared = set()
        for line in text.splitlines():
            if line.startswith("# TYPE "):
                declared.add(line.split()[2])
        for line in text.splitlines():
            if not line or line.startswith("#"):
                continue
            sample = line.split("{", 1)[0].split(" ", 1)[0]
            names.add(metric_base_name(sample, declared))
        return names

    def test_scrape_is_exactly_the_declared_families(self, server):
        # run one traced request first so histograms have observations
        post(server, "/v1/run", {"machine": "counter", "cycles": 4})
        status, payload, headers = get(server, "/metrics")
        assert status == 200
        assert headers["Content-Type"].startswith("text/plain; version=0.0.4")
        text = payload.decode()
        assert self.parse_names(text) == set(METRIC_NAMES)
        # histogram buckets are cumulative and end at +Inf
        buckets = [line for line in text.splitlines()
                   if line.startswith("repro_span_duration_seconds_bucket")
                   and 'kind="worker_run"' in line]
        assert buckets and 'le="+Inf"' in buckets[-1]
        counts = [float(line.rsplit(" ", 1)[1]) for line in buckets]
        assert counts == sorted(counts)
        assert len(buckets) == len(LATENCY_BUCKETS) + 1

    def test_stats_surface_tracing_counters(self, server):
        status, payload, _headers = get(server, "/v1/stats")
        document = json.loads(payload)
        assert status == 200
        assert document["tracing"]["recorded"] >= 1
        assert "trace_sink" in document["config"]

    def test_merge_node_metrics_adds_node_labels(self):
        node_texts = {
            "node-0": ("# HELP repro_pools_live Warm pools.\n"
                       "# TYPE repro_pools_live gauge\n"
                       "repro_pools_live 2\n"),
            "node-1": ("# HELP repro_pools_live Warm pools.\n"
                       "# TYPE repro_pools_live gauge\n"
                       "repro_pools_live 3\n"
                       "repro_http_requests_total{route=\"/v1/run\"} 7\n"),
        }
        lines = merge_node_metrics(node_texts)
        assert 'repro_pools_live{node="node-0"} 2' in lines
        assert 'repro_pools_live{node="node-1"} 3' in lines
        assert ('repro_http_requests_total{node="node-1",route="/v1/run"} 7'
                in lines)
        # exactly one header pair per family, before its samples
        assert lines.count("# TYPE repro_pools_live gauge") == 1

    def test_metric_line_escaping(self):
        line = metric_line("m", 1, {"label": 'a"b\\c\nd'})
        assert line == 'm{label="a\\"b\\\\c\\nd"} 1'


class TestTraceIds:
    def test_sanitize_accepts_safe_ids(self):
        assert sanitize_trace_id("abc-DEF_1.2") == "abc-DEF_1.2"

    @pytest.mark.parametrize("bad", [
        None, "", "x" * 129, "sp ace", "new\nline", "héllo", "a/b",
    ])
    def test_sanitize_replaces_unsafe_ids(self, bad):
        fresh = sanitize_trace_id(bad)
        assert fresh != bad
        assert len(fresh) == 32


class TestCounterAtomicity:
    """Regression: counters surfaced by ``/v1/stats`` must not lose
    updates under thread contention (they are bare ``+=`` on ints, which
    is a read-modify-write the GIL does not make atomic)."""

    THREADS = 8
    PER_THREAD = 2_000

    def hammer(self, target) -> None:
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # force preemption inside the +=
        try:
            workers = [threading.Thread(target=target)
                       for _ in range(self.THREADS)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join()
        finally:
            sys.setswitchinterval(old)

    def test_server_route_counters_are_exact(self, server):
        before = server.request_counts()["by_route"].get("/hammer", 0)

        def spin():
            for _ in range(self.PER_THREAD):
                server.count_request("/hammer")

        self.hammer(spin)
        expected = before + self.THREADS * self.PER_THREAD
        assert server.request_counts()["by_route"]["/hammer"] == expected

    def test_disk_cache_write_errors_are_exact(self, tmp_path):
        from repro.compiler.cache import DiskCache

        cache = DiskCache(tmp_path / "cache")

        def spin():
            for _ in range(self.PER_THREAD):
                cache._note_write_failure(OSError("synthetic"))

        import warnings
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            self.hammer(spin)
        assert cache.write_errors == self.THREADS * self.PER_THREAD
        assert cache.degraded

    def test_disk_cache_miss_counters_are_exact(self, tmp_path):
        from repro.compiler.cache import DiskCache

        cache = DiskCache(tmp_path / "cache")

        def spin():
            for _ in range(self.PER_THREAD):
                cache.load_program("0" * 64, "missing")

        self.hammer(spin)
        assert cache.stats.misses == self.THREADS * self.PER_THREAD

    def test_disk_cache_survives_pickling(self, tmp_path):
        import pickle

        from repro.compiler.cache import DiskCache

        cache = DiskCache(tmp_path / "cache")
        clone = pickle.loads(pickle.dumps(cache))
        clone._count_hit()  # the lock was rebuilt on the other side
        assert clone.stats.hits == 1


class TestFleetTracing:
    """The router end of the pipeline: forwarded ids, fan-out lookup,
    merged per-node metrics.  One small real fleet keeps this honest."""

    def test_trace_rides_through_the_router(self, tmp_path):
        from repro.serving.router import ServingFleet

        with ServingFleet(nodes=1, trace_sink="jsonl",
                          trace_dir=str(tmp_path)) as fleet:
            body = json.dumps({"machine": "counter", "cycles": 8}).encode()
            request = urllib.request.Request(
                fleet.url + "/v1/run", data=body,
                headers={"Content-Type": "application/json",
                         TRACE_HEADER: "fleet-trace-1"},
            )
            with urllib.request.urlopen(request, timeout=60) as response:
                assert response.headers[TRACE_HEADER] == "fleet-trace-1"
            with urllib.request.urlopen(
                fleet.url + "/v1/trace/fleet-trace-1", timeout=30
            ) as response:
                document = json.loads(response.read())
                assert response.headers["X-Repro-Node"] == "node-0"
            names = [span["name"] for span in document["spans"]]
            assert "worker_run" in names
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(fleet.url + "/v1/trace/absent",
                                       timeout=30)
            assert excinfo.value.code == 404
            error = json.loads(excinfo.value.read())
            assert error["error"]["type"] == "unknown_trace"
            with urllib.request.urlopen(fleet.url + "/metrics",
                                        timeout=30) as response:
                text = response.read().decode()
            for family in ROUTER_METRIC_NAMES:
                assert family in text
            assert 'node="node-0"' in text
            assert "repro_span_duration_seconds_bucket" in text
        # after the drain the node's durable export holds the trace
        exported = []
        for path in tmp_path.rglob("traces.jsonl"):
            exported += JsonlExporter.read(path)
        assert any(t.trace_id == "fleet-trace-1" for t in exported)


class TestBuilderAssembly:
    def test_phases_tile_the_request_interval(self):
        builder = TraceBuilder("/v1/run", trace_id="t")
        time.sleep(0.002)
        builder.mark("http_parse")
        time.sleep(0.002)
        builder.mark("admission_wait")
        time.sleep(0.002)
        builder.mark("serialize")
        trace = builder.build(200)
        phases = [span for span in trace.spans[1:] if span.item is None]
        assert [span.name for span in phases] == \
            ["http_parse", "admission_wait", "serialize"]
        for before, after in zip(phases, phases[1:]):
            assert after.start == pytest.approx(before.end, abs=1e-9)
        assert coverage_fraction(trace) >= 0.99

    def test_item_spans_are_rebased_onto_dispatch(self):
        builder = TraceBuilder("/v1/batch", trace_id="t")
        builder.mark("http_parse")
        base = time.monotonic()

        class FakeItem:
            spans = (
                Span("pool_queue", base, 0.0, None, None, 0, None),
                Span("lane_group", base, 0.0, None, "w", 0, None),
                Span("worker_run", base, 0.0, 1, "w", 0, None),
            )

        builder.mark("executor_dispatch")
        builder.add_items([FakeItem()])
        builder.mark("serialize")
        trace = builder.build(200)
        by_name = {span.name: span for span in trace.spans}
        dispatch_index = trace.spans.index(by_name["executor_dispatch"])
        assert by_name["pool_queue"].parent == dispatch_index
        assert by_name["lane_group"].parent == dispatch_index
        # the relative parent (1 -> lane_group) was rebased, not dropped
        assert trace.spans[by_name["worker_run"].parent].name == "lane_group"
