"""Serving-layer benchmark: the HTTP round-trip tax over in-process pools.

The long-lived server (`repro serve`) wraps :class:`SimulationPool` in
HTTP + JSON.  That wrapper costs something — socket round-trips, JSON
encode/decode of every result — and this module measures exactly how
much, per backend, into ``BENCH_server.json``:

* **in-process**: a warm ``SimulationPool.run_batch`` (the PR-4 path);
* **HTTP**: the same batch POSTed to a live ``SimulationServer`` on an
  ephemeral port, timed around the whole round trip, results checked
  bit-identical to the in-process run.

The number that matters operationally is ``http_overhead_ratio``
(in-process runs/sec over HTTP runs/sec): it tells a deployer how large
a request has to be before the wire tax disappears into the noise —
tiny runs pay it, sieve-sized runs do not.  The warm-pool win is also
asserted: the *second* HTTP batch must not pay the pool construction
the first one did.

Schema v2 adds tail latency: each backend row carries p50/p99 of single
``/v1/run`` round trips against one warm server (``latency_ms.single_*``)
and against a routed two-node fleet (``latency_ms.fleet_*``) — the
trajectory now tracks what the front-door router costs per request, not
just bulk throughput.

Schema v3 adds the tracing tax: ``http_runs_per_second`` is measured
against a server with tracing disabled, ``http_traced_runs_per_second``
against one recording full request traces *and* exporting them through
the JSONL sink, and ``tracing_overhead_ratio`` is their quotient —
gated below 1.05 (<5% overhead), best-of-N minimum times on both sides
so scheduler noise cannot fake a regression.

Smoke mode (``REPRO_BENCH_SMOKE=1``) shrinks the workload and writes to
a temp path, schema-check only.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
import urllib.request
from pathlib import Path

import pytest

from repro.core.comparison import compare_results
from repro.machines.library import get_machine
from repro.serving import RunRequest, SimulationPool, SimulationServer
from repro.serving.protocol import result_from_json
from repro.serving.router import ServingFleet

#: Quick mode for CI gates: tiny workload, schema check only.
SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"

#: Machine-readable server-overhead trajectory (sibling of BENCH_batch.json).
SERVER_TRAJECTORY_PATH = (
    Path(tempfile.gettempdir()) / f"BENCH_server_smoke-{os.getpid()}.json"
    if SMOKE
    else Path(__file__).resolve().parent.parent / "BENCH_server.json"
)

#: Schema version of the server trajectory file (bump when keys change).
#: v2: ``latency_ms`` per backend — single-node and routed-fleet p50/p99.
#: v3: ``http_traced_runs_per_second`` + ``tracing_overhead_ratio`` —
#: throughput with full tracing + JSONL export vs tracing disabled.
SERVER_TRAJECTORY_SCHEMA = 3

#: The workload: small counter batches — the regime where per-request
#: overhead (the thing measured here) is largest relative to the work.
MACHINE = "counter"
RUNS = 4 if SMOKE else 16
CYCLES = 16 if SMOKE else 64

#: Single-run round trips sampled for the latency percentiles.
LATENCY_SAMPLES = 6 if SMOKE else 40

#: Warm batches per throughput figure; the minimum time wins (noise
#: only ever adds time, so best-of-N converges on the true cost).
BEST_OF = 1 if SMOKE else 5

#: The tracing-overhead gate: traced+exporting throughput must stay
#: within 5% of the untraced server's.
TRACING_OVERHEAD_LIMIT = 1.05

#: Nodes in the routed fleet the latency tax is measured against.
FLEET_NODES = 2

#: Backends measured over the wire.
BACKENDS = ("threaded", "compiled")

#: The trajectory document written by the measurement test *this session*
#: (None until it runs), so the schema test never validates a stale file.
_TRAJECTORY_WRITTEN: dict | None = None


def _http_batch(server: SimulationServer, backend: str) -> tuple[float, dict]:
    """POST one batch; returns (round-trip seconds, response document)."""
    body = json.dumps({
        "machine": MACHINE,
        "backend": backend,
        "runs": [{"cycles": CYCLES, "collect_stats": False,
                  "trace": False}] * RUNS,
    }).encode()
    request = urllib.request.Request(
        server.url + "/v1/batch", data=body,
        headers={"Content-Type": "application/json"},
    )
    start = time.perf_counter()
    with urllib.request.urlopen(request, timeout=120) as response:
        document = json.loads(response.read())
    elapsed = time.perf_counter() - start
    assert document["ok"], document
    return elapsed, document


def _percentile(samples: list[float], fraction: float) -> float:
    """Nearest-rank percentile — no interpolation, honest at small N."""
    ordered = sorted(samples)
    index = min(len(ordered) - 1, max(0, round(fraction * (len(ordered) - 1))))
    return ordered[index]


def _run_latencies_ms(url: str, backend: str, samples: int) -> list[float]:
    """Round-trip times of warm single ``/v1/run`` requests, in ms."""
    body = json.dumps({
        "machine": MACHINE, "backend": backend, "cycles": CYCLES,
        "collect_stats": False, "trace": False,
    }).encode()
    latencies = []
    for _ in range(samples):
        request = urllib.request.Request(
            url + "/v1/run", data=body,
            headers={"Content-Type": "application/json"},
        )
        start = time.perf_counter()
        with urllib.request.urlopen(request, timeout=120) as response:
            document = json.loads(response.read())
        latencies.append((time.perf_counter() - start) * 1000.0)
        assert document["result"]["cycles_run"] == CYCLES
    return latencies


def write_server_trajectory(backends: dict[str, dict],
                            path=SERVER_TRAJECTORY_PATH) -> dict:
    document = {
        "schema": SERVER_TRAJECTORY_SCHEMA,
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "workload": {
            "machine": MACHINE, "runs": RUNS, "cycles": CYCLES,
            "latency_samples": LATENCY_SAMPLES, "fleet_nodes": FLEET_NODES,
            "best_of": BEST_OF,
        },
        "smoke": SMOKE,
        "backends": backends,
    }
    path.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
    return document


def test_server_overhead_table(benchmark):
    """Measure in-process vs HTTP-served throughput per backend, the
    tracing-pipeline tax (traced + JSONL export vs tracing disabled),
    plus single-run tail latency on one node vs through the fleet
    router."""
    spec = get_machine(MACHINE).build()

    def measure() -> dict[str, dict]:
        rows: dict[str, dict] = {}
        trace_dir = tempfile.mkdtemp(prefix="repro-bench-traces-")
        with SimulationServer(port=0, artifact_cache=False,
                              tracing=False) as server, \
             SimulationServer(port=0, artifact_cache=False,
                              trace_sink="jsonl",
                              trace_dir=trace_dir) as traced_server:
            for backend in BACKENDS:
                requests = [RunRequest(cycles=CYCLES, collect_stats=False,
                                       trace=False)] * RUNS
                with SimulationPool(spec, backend=backend) as pool:
                    pool.run_batch(requests)  # warm-up batch
                    start = time.perf_counter()
                    reference = pool.run_batch(requests)
                    inproc_seconds = time.perf_counter() - start
                assert reference.ok
                # first HTTP batch pays lazy pool construction; the second
                # must ride the warm pool — the server's whole point
                cold_seconds, _ = _http_batch(server, backend)
                warm_seconds, document = _http_batch(server, backend)
                for item, wire_item in zip(reference.items,
                                           document["items"]):
                    rebuilt = result_from_json(wire_item["result"])
                    assert compare_results(item.result, rebuilt) == []
                # best-of-N on both sides of the tracing comparison:
                # noise only ever adds time, so the minimum is the cost
                _http_batch(traced_server, backend)  # warm traced pool
                for _ in range(BEST_OF):
                    seconds, _ = _http_batch(server, backend)
                    warm_seconds = min(warm_seconds, seconds)
                traced_seconds, _ = _http_batch(traced_server, backend)
                for _ in range(BEST_OF):
                    seconds, _ = _http_batch(traced_server, backend)
                    traced_seconds = min(traced_seconds, seconds)
                single = _run_latencies_ms(server.url, backend,
                                           LATENCY_SAMPLES)
                rows[backend] = {
                    "inprocess_runs_per_second": round(
                        RUNS / inproc_seconds, 3),
                    "http_cold_runs_per_second": round(
                        RUNS / cold_seconds, 3),
                    "http_runs_per_second": round(RUNS / warm_seconds, 3),
                    "http_traced_runs_per_second": round(
                        RUNS / traced_seconds, 3),
                    "http_overhead_ratio": round(
                        (RUNS / inproc_seconds) / (RUNS / warm_seconds), 3),
                    "tracing_overhead_ratio": round(
                        traced_seconds / warm_seconds, 3),
                    "latency_ms": {
                        "single_p50": round(_percentile(single, 0.50), 3),
                        "single_p99": round(_percentile(single, 0.99), 3),
                    },
                }
        # the same single-run workload through a routed fleet: what the
        # extra hop (router parse + shard + forward) adds to the tail
        with ServingFleet(nodes=FLEET_NODES, quorum=1, health_interval=0.2,
                          child_args=["--no-disk-cache"]) as fleet:
            for backend in BACKENDS:
                _run_latencies_ms(fleet.url, backend, 2)  # warm the home pool
                routed = _run_latencies_ms(fleet.url, backend,
                                           LATENCY_SAMPLES)
                rows[backend]["latency_ms"]["fleet_p50"] = round(
                    _percentile(routed, 0.50), 3)
                rows[backend]["latency_ms"]["fleet_p99"] = round(
                    _percentile(routed, 0.99), 3)
        return rows

    rows = benchmark.pedantic(measure, rounds=1, iterations=1)

    print(f"\nHTTP serving overhead ({RUNS} runs x {CYCLES} cycles, "
          f"{MACHINE})")
    for backend, row in rows.items():
        latency = row["latency_ms"]
        print(f"  {backend:<10s} in-process={row['inprocess_runs_per_second']:9.1f}"
              f"  http={row['http_runs_per_second']:9.1f}"
              f"  traced={row['http_traced_runs_per_second']:9.1f}"
              f"  overhead={row['http_overhead_ratio']:6.1f}x"
              f"  tracing={row['tracing_overhead_ratio']:5.3f}x"
              f"  p50={latency['single_p50']:6.2f}ms"
              f"  fleet-p50={latency['fleet_p50']:6.2f}ms")

    if not SMOKE:  # smoke runs hold shape only: no gates
        for backend, row in rows.items():
            assert row["http_runs_per_second"] > 1.0, (
                f"{backend}: HTTP serving pathologically slow "
                f"({row['http_runs_per_second']:.2f} runs/sec)"
            )
            assert row["tracing_overhead_ratio"] < TRACING_OVERHEAD_LIMIT, (
                f"{backend}: tracing pipeline costs "
                f"{(row['tracing_overhead_ratio'] - 1) * 100:.1f}% of warm "
                f"throughput (limit {(TRACING_OVERHEAD_LIMIT - 1) * 100:.0f}%)"
            )
            benchmark.extra_info[f"{backend}_http_overhead"] = (
                row["http_overhead_ratio"]
            )
            benchmark.extra_info[f"{backend}_tracing_overhead"] = (
                row["tracing_overhead_ratio"]
            )
            benchmark.extra_info[f"{backend}_fleet_p99_ms"] = (
                row["latency_ms"]["fleet_p99"]
            )

    # every gate passed (a failing one raised above): record the run
    global _TRAJECTORY_WRITTEN
    _TRAJECTORY_WRITTEN = write_server_trajectory(rows)


def test_bench_server_schema():
    """The trajectory file (written by the measurement test above) is
    well-formed: every backend row carries positive throughput, the
    overhead ratios are consistent with their inputs, the v2 latency
    columns are present and ordered (p99 >= p50 > 0), and the v3
    tracing columns exist and agree with the throughput they divide."""
    if _TRAJECTORY_WRITTEN is None:
        pytest.skip("server overhead test did not run this session")
    document = json.loads(SERVER_TRAJECTORY_PATH.read_text())
    assert document == _TRAJECTORY_WRITTEN
    assert document["schema"] == SERVER_TRAJECTORY_SCHEMA
    assert document["workload"]["machine"] == MACHINE
    assert document["workload"]["fleet_nodes"] == FLEET_NODES
    assert set(document["backends"]) == set(BACKENDS)
    for backend, row in document["backends"].items():
        assert row["inprocess_runs_per_second"] > 0, backend
        assert row["http_runs_per_second"] > 0, backend
        assert row["http_cold_runs_per_second"] > 0, backend
        expected = (
            row["inprocess_runs_per_second"] / row["http_runs_per_second"]
        )
        assert row["http_overhead_ratio"] == pytest.approx(expected,
                                                           rel=0.05), backend
        assert row["http_traced_runs_per_second"] > 0, backend
        traced_expected = (
            row["http_runs_per_second"] / row["http_traced_runs_per_second"]
        )
        assert row["tracing_overhead_ratio"] == pytest.approx(
            traced_expected, rel=0.05), backend
        latency = row["latency_ms"]
        for scope in ("single", "fleet"):
            p50, p99 = latency[f"{scope}_p50"], latency[f"{scope}_p99"]
            assert p50 > 0, (backend, scope)
            assert p99 >= p50, (backend, scope)
