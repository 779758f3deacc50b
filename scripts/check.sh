#!/usr/bin/env bash
# One-stop verification gate: byte-compile the package, enforce the docs
# gate, then run the tier-1 test suite.  CI and pre-push hooks call this;
# see README.md ("Development").
set -euo pipefail
cd "$(dirname "$0")/.."

export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

echo "== compileall (and the package metadata pip install -e . reads) =="
python -m compileall -q src
name="$(python setup.py --name)"
test "$name" = repro || { echo "setup.py names '$name', not repro"; exit 1; }

echo "== docs gate =="
python scripts/check_docs.py

echo "== server smoke (boot, /healthz, two kept-alive /v1/run, hostile bodies and methods, graceful shutdown) =="
# the long-lived HTTP server must come up on an ephemeral port, answer a
# liveness probe and serve two real simulations on the default backend
# over one kept-alive connection, answer a body that is not UTF-8 with a
# structured 400, keep a kept-alive connection in sync past a GET body
# and past a PUT (a JSON 405, not http.server's HTML 501), then drain
# cleanly — so the serving front door cannot rot between full test runs
python - <<'SMOKE'
import http.client, json, sys, urllib.request
from repro.serving import SimulationServer

with SimulationServer(port=0) as server:
    with urllib.request.urlopen(server.url + "/healthz", timeout=30) as r:
        health = json.loads(r.read())
    assert health["status"] == "ok", health
    connection = http.client.HTTPConnection(server.host, server.port,
                                            timeout=60)
    runs = []
    for cycles in (24, 12):
        connection.request("POST", "/v1/run", body=json.dumps(
            {"machine": "counter", "cycles": cycles}).encode())
        r = connection.getresponse()
        run = json.loads(r.read())
        assert r.status == 200, (r.status, run)
        assert run["result"]["cycles_run"] == cycles, run
        assert run["result"]["outputs"], run
        runs.append(run)
    assert runs[0]["backend"] == "compiled", runs[0]
    connection.close()
    connection = http.client.HTTPConnection(server.host, server.port,
                                            timeout=30)
    connection.request("POST", "/v1/run",
                       body=b'{"machine": "\x80\x81counter"}')
    r = connection.getresponse()
    error = json.loads(r.read())
    assert r.status == 400, (r.status, error)
    assert error["error"]["type"] == "malformed_json", error
    connection.close()
    connection = http.client.HTTPConnection(server.host, server.port,
                                            timeout=30)
    connection.request("GET", "/healthz", body=b'{"x": 1}')
    r = connection.getresponse()
    r.read()
    assert r.status == 200, r.status
    connection.request("GET", "/healthz")
    r = connection.getresponse()
    assert r.status == 200, r.status
    assert json.loads(r.read())["status"] == "ok"
    connection.request("PUT", "/v1/run", body=b'{"machine": "counter"}')
    r = connection.getresponse()
    error = json.loads(r.read())
    assert r.status == 405, (r.status, error)
    assert r.getheader("Content-Type") == "application/json"
    assert error["error"]["type"] == "method_not_allowed", error
    connection.request("GET", "/healthz")
    r = connection.getresponse()
    assert r.status == 200, r.status
    assert json.loads(r.read())["status"] == "ok"
    connection.close()
print("server smoke: healthz ok, two kept-alive runs served on compiled, "
      "non-UTF-8 body 400, GET body and a PUT (JSON 405) kept the "
      "connection in sync, shut down cleanly")
SMOKE

echo "== fleet smoke (boot 2 nodes, route a run, SIGKILL failover, rolling drain) =="
# the supervised fleet must boot two child servers on ephemeral ports,
# route one real run through the front door, survive a SIGKILL of the
# node that answered (the sibling serves the retry, attributed in the
# X-Repro-Retry header), then drain node by node — so the failover
# story cannot rot between full chaos-test runs
python - <<'FLEETSMOKE'
import json, urllib.request
from repro.serving.chaos import await_condition, hard_kill
from repro.serving.protocol import NODE_HEADER, RETRY_HEADER
from repro.serving.router import ServingFleet

def run(url):
    body = json.dumps({"machine": "counter", "cycles": 24,
                       "backend": "threaded"}).encode()
    with urllib.request.urlopen(urllib.request.Request(
            url + "/v1/run", data=body), timeout=60) as r:
        return json.loads(r.read()), dict(r.headers)

fleet = ServingFleet(nodes=2, quorum=1, health_interval=0.1).start()
try:
    first, headers = run(fleet.url)
    assert first["result"]["cycles_run"] == 24, first
    home = headers[NODE_HEADER]
    hard_kill(fleet.supervisor.node(home).pid)
    second, headers = run(fleet.url)
    assert second["result"]["cycles_run"] == 24, second
    assert headers[NODE_HEADER] != home, headers
    assert headers[RETRY_HEADER].startswith(home), headers
    await_condition(
        lambda: fleet.supervisor.node(home).state in ("ready", "benched"),
        timeout=30, message="crashed node recovery")
finally:
    report = fleet.close()
assert all(node["clean"] or node["forced"] is False for node in report), report
print(f"fleet smoke: routed, failed over from {home} "
      f"(attributed), drained {len(report)} nodes")
FLEETSMOKE

echo "== tracing smoke (traced batch, JSONL export, /metrics scrape) =="
# one traced batch must leave behind a complete request trace — phases
# tiling the request interval, worker_run spans present — in the JSONL
# export, and /metrics must answer Prometheus text — so the
# observability pipeline cannot silently rot between full test runs
TRACE_DIR="$(mktemp -d)" python - <<'TRACESMOKE'
import json, os, urllib.request
from repro.serving import SimulationServer
from repro.serving.tracing import JsonlExporter, coverage_fraction

trace_dir = os.environ["TRACE_DIR"]
with SimulationServer(port=0, trace_sink="jsonl",
                      trace_dir=trace_dir) as server:
    body = json.dumps({"machine": "counter", "backend": "threaded",
                       "runs": [{"cycles": 24}] * 2}).encode()
    with urllib.request.urlopen(urllib.request.Request(
            server.url + "/v1/batch", data=body), timeout=60) as r:
        document = json.loads(r.read())
        trace_id = r.headers["X-Repro-Trace"]
    assert document["ok"], document
    with urllib.request.urlopen(server.url + "/metrics", timeout=30) as r:
        assert r.headers["Content-Type"].startswith("text/plain"), r.headers
        scrape = r.read().decode()
    assert "repro_http_requests_total" in scrape, scrape[:400]
    assert "repro_span_duration_seconds_bucket" in scrape, scrape[:400]
traces = {t.trace_id: t for t in
          JsonlExporter.read(os.path.join(trace_dir, "traces.jsonl"))}
trace = traces[trace_id]
assert coverage_fraction(trace) >= 0.95, trace.to_json()
assert any(s.name == "worker_run" for s in trace.spans), trace.to_json()
print(f"tracing smoke: trace {trace_id[:8]}… exported "
      f"({len(trace.spans)} spans), /metrics scraped")
TRACESMOKE

echo "== chaos smoke (crash recovery, deadlines, backpressure, degradation) =="
# the fast end-to-end slice of the chaos-injection harness: a worker
# kill is quarantined without hurting innocents, a hung worker is
# bounded by the deadline backstop, a saturated server answers 429
# while /readyz goes not-ready, and a broken backend degrades to the
# fallback chain — so the fault-tolerance story cannot silently rot
REPRO_CHAOS_SMOKE=1 python -m pytest tests/serving/test_chaos.py \
    -x -q -k smoke

echo "== batch benchmark smoke (executor matrix + server overhead, schema only) =="
# tiny sieve batch through both executor strategies and a lane width,
# plus the HTTP-vs-in-process overhead rows; both write schema-checked
# trajectories to temp paths, so the serving matrices cannot silently
# rot between full runs
REPRO_BENCH_SMOKE=1 python -m pytest benchmarks/test_batch_throughput.py \
    benchmarks/test_server_overhead.py -x -q

echo "== lane smoke (serve-batch --lane-width N --check on the sieve) =="
# lane groups must serve a real batch end-to-end through the CLI and
# verify themselves bit-identical against the sequential loop (--check),
# inline on the serial strategy and inside process workers.  Only the
# compiled backend vectorizes (its generated simulate_lanes serves
# stats-off groups); every other group runs each lane as its scalar
# run, so one threaded batch keeps that path served too.  The 'lane'
# and 'thread' executor aliases each serve one batch, so the accepted
# input names cannot rot either
LANE_SPEC="$(mktemp --suffix=.spec)"
python - "$LANE_SPEC" <<'LANESPEC'
import sys
from repro.machines.library import get_machine
from repro.rtl.writer import spec_to_text

machine = get_machine("stack-machine-sieve").build()
spec = getattr(machine, "spec", machine)
with open(sys.argv[1], "w") as handle:
    handle.write(spec_to_text(spec))
LANESPEC
python -m repro serve-batch "$LANE_SPEC" --executor serial --lane-width 16 \
    --check -c 1200 -n 8 -b compiled > /dev/null
python -m repro serve-batch "$LANE_SPEC" --executor process --lane-width 4 \
    --check -c 1200 -n 8 -w 2 -b compiled > /dev/null
python -m repro serve-batch "$LANE_SPEC" --executor serial --lane-width 16 \
    --check -c 1200 -n 8 -b threaded > /dev/null
python -m repro serve-batch "$LANE_SPEC" --executor lane --check \
    -c 1200 -n 8 -b compiled > /dev/null
python -m repro serve-batch "$LANE_SPEC" --executor thread --check \
    -c 1200 -n 8 -b compiled > /dev/null
rm -f "$LANE_SPEC"
echo "lane smoke: batches served and verified bit-identical"

echo "== spawn smoke (compiled sieve process pool, spawn start method) =="
# spawn is the start method that pickles the pool's warm prepared
# simulation into every worker (fork inherits it): a compiled sieve batch
# on spawned workers must match a sequential run bit for bit, statistics
# included — so the one transport to process workers cannot rot.  A
# spawned worker byte-compiles each generated entry point on its first
# call of it, so the smoke also runs a stats-off lane group, whose
# worker compiles simulate_lanes.  The script is a file with a __main__
# guard: a spawned worker re-imports the main module, which it cannot do
# from stdin
SPAWN_SMOKE="$(mktemp --suffix=.py)"
cat > "$SPAWN_SMOKE" <<'SPAWNSMOKE'
from repro.core.comparison import compare_results
from repro.core.simulator import make_backend
from repro.machines.library import get_machine
from repro.serving import RunRequest, SimulationPool


def spawned_batch(spec, runs, **pool_options):
    with SimulationPool(spec, backend="compiled", executor="process",
                        max_workers=2, mp_context="spawn",
                        **pool_options) as pool:
        batch = pool.run_batch(runs)
    assert batch.ok, [str(item.error) for item in batch.failures]
    return batch


def main():
    machine = get_machine("stack-machine-sieve").build()
    spec = getattr(machine, "spec", machine)
    runs = [RunRequest(cycles=1200), RunRequest(cycles=600),
            RunRequest(cycles=1200, collect_stats=False)]
    lane_runs = [RunRequest(cycles=600, collect_stats=False, trace=False)
                 for _ in range(2)]
    prepared = make_backend("compiled").prepare(spec)
    sequential = [prepared.run(cycles=run.cycles, io=run.make_io(),
                               trace=run.trace,
                               collect_stats=run.collect_stats)
                  for run in runs + lane_runs]
    items = spawned_batch(spec, runs, chunk_size=1).items
    lanes = spawned_batch(spec, lane_runs, chunk_size=2, lane_width=2).items
    assert all(item.worker.startswith("pid-")
               and "lane_group" in [span.name for span in item.spans]
               for item in lanes)
    for reference, item in zip(sequential, items + lanes):
        assert compare_results(reference, item.result, compare_trace=True,
                               compare_stats=True) == [], item.index
    print(f"spawn smoke: {len(runs)} compiled sieve runs and a 2-lane "
          "stats-off group on spawned workers bit-identical to sequential")


if __name__ == "__main__":
    main()
SPAWNSMOKE
python "$SPAWN_SMOKE"
rm -f "$SPAWN_SMOKE"

echo "== lane fuzz smoke (fixed seed, lane executor only) =="
# a seeded slice of the differential fuzzer pinned to the lane alias
# (serial with lane groups): random machines (memories, selectors,
# constant and duplicate components) through lane groups on every
# backend, demanding bit-identity with the sequential reference
python -m repro fuzz --seed 11 --count 8 --executors lane

echo "== differential fuzz smoke (fixed seed, full backend x executor matrix) =="
# twenty seeded random machines, each JSON-round-tripped and run through
# every backend x executor configuration (serial, serial with lanes,
# process) demanding bit-identical results — so neither the
# interchange format nor backend equivalence on machines nobody wrote
# can silently rot between full fuzz sessions.  A seeded share of the
# machines is built to fault at run time, and at least one of the twenty
# must raise in the reference, so the comparison of how a machine breaks
# (type, cycle and message, on every configuration) is reached too
fuzz_report="$(python -m repro fuzz --seed 7 --count 20)" \
    || { echo "$fuzz_report"; exit 1; }
echo "$fuzz_report"
python - "$fuzz_report" <<'FUZZSMOKE'
import re, sys

raised = re.search(r"(\d+) raised in the reference", sys.argv[1])
assert raised and int(raised.group(1)) > 0, sys.argv[1]
FUZZSMOKE

echo "== perfbench correctness smoke (all four workloads) =="
# every benchmark workload checks every op: fig51-fast, sieve-stats and
# cold-specs digest each op's observables (the stats-on two, full
# statistics included) against a reference run, and serve-keepalive
# compares every served result with an in-process interpreter run, now
# through the server's default (compiled) backend; a one-second run of
# each must report "correct": true on its last line, so a kernel that
# miscounts or a server that misroutes cannot pass on green unit tests
# alone
for workload in fig51-fast sieve-stats cold-specs serve-keepalive; do
    result="$(python3 perfbench/run.py --ref-nominal-ms 3.0 \
        --workload "$workload" --seed 1 --seconds 1 --trace 0 | tail -n 1)"
    python - "$workload" "$result" <<'PERFSMOKE'
import json, sys

workload, result = sys.argv[1], json.loads(sys.argv[2])
assert result["correct"] is True, (workload, result)
print(f"perfbench smoke: {workload} correct "
      f"({result['attempted']} ops, {result['failed']} failed)")
PERFSMOKE
done

echo "== tier-1 tests =="
python -m pytest -x -q
