"""Chaos-injection harness for the fault-tolerant serving layer.

Each test injects one failure mode — a dying worker process, a run that
overshoots its deadline, a hard-hung worker, a backend whose prepare
explodes, a saturated admission gate —
and asserts the same contract everywhere: the system answers with a
structured error or a degraded-but-correct result, it never hangs
(bounded by the deadline backstop) and never crashes, and requests that
succeed under chaos stay bit-identical to clean runs.

The ``test_smoke_*`` subset is the fast end-to-end slice wired into
``scripts/check.sh`` (``REPRO_CHAOS_SMOKE=1``); fault shims live in
:mod:`repro.serving.chaos` so they pickle into worker processes.
"""

from __future__ import annotations

import json
import os
import time
import urllib.error
import urllib.request

import pytest

from repro.core.comparison import compare_results
from repro.core.simulator import BACKEND_NAMES
from repro.errors import DeadlineExceededError, WorkerCrashError
from repro.serving import RunRequest, SimulationPool, SimulationServer
from repro.serving.chaos import HangOverride, KillWorker, SleepyOverride
from repro.serving.protocol import result_from_json

CYCLES = 8


def _close_killing_workers(pool: SimulationPool) -> None:
    """Close a process pool without waiting on possibly-hung workers.

    ``close(wait=False)`` abandons in-flight work but the interpreter
    still joins executor machinery at exit; a worker stuck in a long
    blocking call would stall the test session, so terminate what's left.
    """
    strategy = pool._strategy
    # snapshot before close: shutdown(wait=False) nulls the worker dict
    workers = getattr(getattr(strategy, "_processes", None), "_processes", None)
    workers = list((workers or {}).values())
    pool.close(wait=False)
    for process in workers:
        process.terminate()


def get(server, path):
    try:
        with urllib.request.urlopen(server.url + path, timeout=30) as response:
            return response.status, json.loads(response.read()), response.headers
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read()), exc.headers


def post(server, path, body, headers=None):
    request = urllib.request.Request(
        server.url + path, data=json.dumps(body).encode(),
        headers={"Content-Type": "application/json", **(headers or {})},
    )
    try:
        with urllib.request.urlopen(request, timeout=60) as response:
            return response.status, json.loads(response.read()), response.headers
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read()), exc.headers


class TestWorkerCrashRecovery:
    def test_smoke_poison_quarantined_innocents_bit_identical(
        self, counter_spec
    ):
        pool = SimulationPool(counter_spec, backend="interpreter",
                              executor="process", max_workers=2,
                              chunk_size=1)
        try:
            clean = pool.run_batch(
                [RunRequest(cycles=CYCLES, tag=f"clean-{i}")
                 for i in range(4)]
            )
            assert clean.ok, [str(item.error) for item in clean.failures]
            baseline = clean.items[0].result

            poison = RunRequest(
                cycles=CYCLES, tag="poison",
                override=KillWorker(spare_pid=os.getpid()),
            )
            runs = [RunRequest(cycles=CYCLES, tag="ok-0"), poison,
                    RunRequest(cycles=CYCLES, tag="ok-1"),
                    RunRequest(cycles=CYCLES, tag="ok-2"),
                    RunRequest(cycles=CYCLES, tag="ok-3")]
            batch = pool.run_batch(runs)

            # the poisoned request is quarantined as a structured error...
            poisoned = next(i for i in batch.items if i.tag == "poison")
            assert isinstance(poisoned.error, WorkerCrashError)
            assert "quarantined" in str(poisoned.error)
            assert batch.quarantined == 1
            assert batch.worker_crashes >= 1
            # ...and every innocent bystander survives, bit-identical
            for item in batch.items:
                if item.tag == "poison":
                    continue
                assert item.ok, f"{item.tag}: {item.error}"
                assert compare_results(baseline, item.result) == []

            # the respawned pool keeps serving
            again = pool.run_batch([RunRequest(cycles=CYCLES)])
            assert again.ok
            assert compare_results(baseline, again.items[0].result) == []
        finally:
            _close_killing_workers(pool)

    def test_crash_counters_reach_the_batch_result(self, counter_spec):
        pool = SimulationPool(counter_spec, backend="interpreter",
                              executor="process", max_workers=1,
                              chunk_size=1)
        try:
            batch = pool.run_batch([RunRequest(
                cycles=CYCLES,
                override=KillWorker(spare_pid=os.getpid()),
            )])
            assert not batch.ok
            assert batch.worker_crashes >= 1
            assert batch.worker_retries >= 1
            assert batch.quarantined == 1
            totals = pool.resilience_counters()
            assert totals["worker_crashes"] >= batch.worker_crashes
        finally:
            _close_killing_workers(pool)

    def test_kill_refuses_outside_process_executor(self, counter_spec):
        # the same shim on an in-process executor raises instead of
        # killing the test process; per-item capture keeps the batch alive
        with SimulationPool(counter_spec, backend="interpreter",
                            executor="serial") as pool:
            batch = pool.run_batch([
                RunRequest(cycles=CYCLES,
                           override=KillWorker(spare_pid=os.getpid())),
                RunRequest(cycles=CYCLES, tag="ok"),
            ])
        assert not batch.items[0].ok
        assert isinstance(batch.items[0].error, RuntimeError)
        assert batch.items[1].ok


class TestDeadlines:
    def test_smoke_cooperative_deadline_interrupts_in_process(
        self, counter_spec
    ):
        with SimulationPool(counter_spec, backend="interpreter",
                            executor="serial") as pool:
            start = time.monotonic()
            batch = pool.run_batch([RunRequest(
                cycles=10_000, timeout_seconds=0.2,
                override=SleepyOverride(seconds_per_call=0.005),
            )])
            elapsed = time.monotonic() - start
        item = batch.items[0]
        assert isinstance(item.error, DeadlineExceededError)
        assert isinstance(item.error, TimeoutError)  # satellite contract
        assert elapsed < 2.0, f"deadline not cooperative: {elapsed:.2f}s"
        assert batch.timeouts == [item]

    @pytest.mark.parametrize("collect_stats", [True, False],
                             ids=["stats", "no-stats"])
    @pytest.mark.parametrize("backend", BACKEND_NAMES)
    def test_deadline_interrupts_every_backend_without_override(
        self, counter_spec, backend, collect_stats
    ):
        # no override ticks the check here: the interpreter and threaded
        # backends count their own hook calls, the compiled kernel checks
        # the clock every DEADLINE_CHECK_CYCLES cycles
        with SimulationPool(counter_spec, backend=backend,
                            executor="serial") as pool:
            start = time.monotonic()
            batch = pool.run_batch([RunRequest(
                cycles=2_000_000, timeout_seconds=0.2,
                collect_stats=collect_stats,
            )])
            elapsed = time.monotonic() - start
        assert isinstance(batch.items[0].error, DeadlineExceededError)
        assert elapsed < 2.0, f"deadline not cooperative: {elapsed:.2f}s"

    def test_deadline_alone_does_not_perturb_results(self, counter_spec):
        # a generous deadline forces the instrumented path; observables
        # must stay bit-identical to the undeadlined run
        with SimulationPool(counter_spec, backend="interpreter",
                            executor="serial") as pool:
            plain = pool.run(RunRequest(cycles=CYCLES))
            deadlined = pool.run(
                RunRequest(cycles=CYCLES, timeout_seconds=60.0)
            )
        assert compare_results(plain, deadlined) == []

    def test_expired_in_queue_is_shed_without_running(self, counter_spec):
        # serial executor, one chunk: the slow first request eats the
        # second one's whole budget while it waits
        with SimulationPool(counter_spec, backend="interpreter",
                            executor="serial", chunk_size=2) as pool:
            batch = pool.run_batch([
                RunRequest(cycles=100, tag="slow",
                           override=SleepyOverride(seconds_per_call=0.002)),
                RunRequest(cycles=CYCLES, tag="starved",
                           timeout_seconds=0.01),
            ])
        starved = batch.items[1]
        assert isinstance(starved.error, DeadlineExceededError)
        assert "shed" in str(starved.error)
        assert starved.seconds == 0.0  # never executed
        assert batch.items[0].ok

    def test_smoke_wall_clock_backstop_bounds_a_hung_worker(
        self, counter_spec
    ):
        # a worker stuck in one blocking call is invisible to the
        # cooperative check; the caller's wait must still be bounded at
        # WALL_CLOCK_DEADLINE_FACTOR x the deadline
        pool = SimulationPool(counter_spec, backend="interpreter",
                              executor="process", max_workers=1)
        try:
            start = time.monotonic()
            batch = pool.run_batch([RunRequest(
                cycles=CYCLES, timeout_seconds=0.5,
                override=HangOverride(sleep_seconds=30.0),
            )])
            elapsed = time.monotonic() - start
            item = batch.items[0]
            assert isinstance(item.error, DeadlineExceededError)
            assert "backstop" in str(item.error)
            assert elapsed < 2.5, f"hang leaked past backstop: {elapsed:.2f}s"
        finally:
            _close_killing_workers(pool)


class TestLaneFaultIsolation:
    """One bad lane must not poison its lane-group neighbours.

    The machine reads an address stream through ``inp``: any input >= 4
    is outside ``mem``'s declared range and raises ``MemoryRangeError``
    on cycle 1, so one request in the middle of a lane group faults while
    its siblings are healthy.
    """

    LANE_FAULT_SPEC = "# lane-fault\ninp mem .\nM inp 0 0 2 1\nM mem inp 0 0 4\n.\n"

    def _runs(self):
        return [
            RunRequest(cycles=4, inputs=(1,), trace=False, tag="ok-0"),
            RunRequest(cycles=4, inputs=(9,), trace=False, tag="boom"),
            RunRequest(cycles=4, inputs=(2,), trace=False, tag="ok-1"),
        ]

    @pytest.mark.parametrize("backend_name", BACKEND_NAMES)
    def test_smoke_lane_fault_is_per_item_siblings_bit_identical(
        self, backend_name
    ):
        from repro.errors import MemoryRangeError
        from repro.rtl.parser import parse_spec

        spec = parse_spec(self.LANE_FAULT_SPEC)
        with SimulationPool(spec, backend=backend_name,
                            executor="serial") as pool:
            reference = {
                item.tag: item
                for item in pool.run_batch(self._runs()).items
            }
        with SimulationPool(spec, backend=backend_name, executor="serial",
                            lane_width=16) as pool:
            batch = pool.run_batch(self._runs())

        assert not batch.ok
        by_tag = {item.tag: item for item in batch.items}
        # the faulting lane is a structured per-item error, identical to
        # what the scalar path reports for the same run...
        assert isinstance(by_tag["boom"].error, MemoryRangeError)
        assert str(by_tag["boom"].error) == str(reference["boom"].error)
        # ...and the neighbouring lanes are bit-identical to scalar runs
        for tag in ("ok-0", "ok-1"):
            assert by_tag[tag].ok, f"{tag}: {by_tag[tag].error}"
            assert compare_results(
                reference[tag].result, by_tag[tag].result
            ) == []

    def test_deadline_in_a_lane_batch_falls_back_to_scalar(
        self, counter_spec
    ):
        # a deadlined request is not lane-eligible: it runs scalar inside
        # the same chunk with its deadline enforced, while the compatible
        # requests around it still ride a lane group and succeed
        with SimulationPool(counter_spec, backend="interpreter",
                            executor="serial", lane_width=16) as pool:
            baseline = pool.run(RunRequest(cycles=CYCLES, trace=False))
            batch = pool.run_batch([
                RunRequest(cycles=CYCLES, trace=False, tag="lane-0"),
                RunRequest(cycles=10_000, timeout_seconds=0.2, tag="late",
                           override=SleepyOverride(seconds_per_call=0.005)),
                RunRequest(cycles=CYCLES, trace=False, tag="lane-1"),
            ])
        by_tag = {item.tag: item for item in batch.items}
        assert isinstance(by_tag["late"].error, DeadlineExceededError)
        assert batch.timeouts == [by_tag["late"]]
        for tag in ("lane-0", "lane-1"):
            assert by_tag[tag].ok, f"{tag}: {by_tag[tag].error}"
            assert compare_results(baseline, by_tag[tag].result) == []


class TestGracefulDegradation:
    def test_smoke_backend_fallback_over_http(self, monkeypatch):
        from repro.compiler.compiled import CompiledBackend
        from repro.machines.library import get_machine

        def broken_prepare(self, spec):
            raise RuntimeError("chaos: code generator is down")

        monkeypatch.setattr(CompiledBackend, "prepare", broken_prepare)
        with SimulationServer(port=0) as server:
            status, document, _ = post(server, "/v1/batch", {
                "machine": "counter", "backend": "compiled",
                "runs": [{"cycles": CYCLES}],
            })
            assert status == 200, document
            assert document["ok"] is True
            degraded = document["degraded"]
            assert degraded["requested_backend"] == "compiled"
            assert degraded["served_backend"] == "threaded"
            assert "code generator is down" in degraded["reason"]

            # degraded-but-correct: bit-identical to a clean healthy run
            spec = get_machine("counter").build()
            with SimulationPool(spec, backend="threaded",
                                executor="serial") as pool:
                reference = pool.run(RunRequest(cycles=CYCLES))
            rebuilt = result_from_json(document["items"][0]["result"])
            assert compare_results(reference, rebuilt) == []

            # the substitution is sticky and visible in stats
            _, stats, _ = get(server, "/v1/stats")
            assert stats["resilience"]["backend_fallbacks"] == 1
            rows = [row for row in stats["pools"] if row["degraded"]]
            assert rows and rows[0]["degraded"]["served_backend"] == "threaded"

    def test_fallback_chain_exhausted_reports_first_error(self, monkeypatch,
                                                          counter_spec):
        from repro.interp.interpreter import InterpreterBackend
        from repro.serving.server import PoolRegistry
        from repro.serving.protocol import parse_batch_request

        def broken_prepare(self, spec):
            raise RuntimeError(f"chaos: {type(self).__name__} down")

        monkeypatch.setattr(InterpreterBackend, "prepare", broken_prepare)
        registry = PoolRegistry()
        try:
            batch = parse_batch_request(
                {"machine": "counter", "backend": "interpreter",
                 "runs": [{"cycles": CYCLES}]},
                "interpreter", "serial",
            )
            with pytest.raises(RuntimeError, match="InterpreterBackend down"):
                registry.pool_for(batch)
        finally:
            registry.close_all()


class TestBackpressure:
    def test_smoke_saturated_server_answers_429_and_readyz_not_ready(self):
        with SimulationServer(port=0, max_inflight=1,
                              max_queue=0, retry_after=2.0) as server:
            # take the only slot, exactly as an in-flight request would
            server.gate.acquire()
            try:
                status, document, headers = post(server, "/v1/run", {
                    "machine": "counter", "cycles": CYCLES,
                })
                assert status == 429
                assert document["error"]["type"] == "overloaded"
                assert headers["Retry-After"] == "2"

                status, ready, _ = get(server, "/readyz")
                assert status == 503
                assert ready["ready"] is False
                assert ready["reason"] == "saturated"
                assert ready["admission"]["rejected"] >= 1

                # liveness is a different question: the process is fine
                status, _, _ = get(server, "/healthz")
                assert status == 200
            finally:
                server.gate.release()

            # slot freed: admission and readiness recover
            status, ready, _ = get(server, "/readyz")
            assert status == 200 and ready["ready"] is True
            status, document, _ = post(server, "/v1/run", {
                "machine": "counter", "cycles": CYCLES,
            })
            assert status == 200

    def test_queued_request_waits_for_a_slot_instead_of_429(self):
        with SimulationServer(port=0, max_inflight=1,
                              max_queue=4) as server:
            server.gate.acquire()
            release = __import__("threading").Timer(
                0.2, server.gate.release
            )
            release.start()
            try:
                status, document, _ = post(server, "/v1/run", {
                    "machine": "counter", "cycles": CYCLES,
                })
            finally:
                release.join()
            assert status == 200
            assert document["result"]["cycles_run"] == CYCLES

    def test_readyz_reports_draining_after_close(self):
        server = SimulationServer(port=0).start()
        # flip the draining flag the way close() does, while the
        # listener is still up (close() itself takes the listener down)
        server._closed = True
        try:
            status, ready, _ = get(server, "/readyz")
            assert status == 503
            assert ready["reason"] == "draining"
        finally:
            server._closed = False
            server.close()


class TestDeadlinesOverHttp:
    def test_smoke_deadline_is_a_structured_504(self):
        with SimulationServer(port=0) as server:
            status, document, _ = post(
                server, "/v1/run",
                {"machine": "counter", "cycles": 50_000,
                 "timeout_seconds": 0.0005},
            )
            assert status == 504
            assert document["error"]["type"] == "deadline_exceeded"

    def test_header_default_applies_to_runs_without_their_own(self):
        with SimulationServer(port=0) as server:
            status, document, _ = post(
                server, "/v1/batch",
                {"machine": "counter",
                 "runs": [{"cycles": 50_000},
                          {"cycles": CYCLES, "timeout_seconds": 60.0}]},
                headers={"X-Request-Timeout": "0.0005"},
            )
            assert status == 200
            assert document["ok"] is False
            first, second = document["items"]
            assert first["error"]["type"] == "deadline_exceeded"
            assert second["ok"] is True
            assert document["worker_crashes"] == 0

    def test_garbage_timeout_header_is_structured_400(self):
        with SimulationServer(port=0) as server:
            for bad in ("soon", "-1", "0", "nan"):
                status, document, _ = post(
                    server, "/v1/run",
                    {"machine": "counter", "cycles": CYCLES},
                    headers={"X-Request-Timeout": bad},
                )
                assert status == 400, bad
                assert document["error"]["type"] == "invalid_timeout"


class TestFleetChaos:
    """Process-level chaos: with the fleet layer the harness can finally
    kill whole servers, not just pool workers, and the service must keep
    answering — bit-identically."""

    def test_kill_nine_mid_batch_fails_over_bit_identical(self, tmp_path):
        import threading

        from repro.machines.library import get_machine
        from repro.serving.chaos import await_condition, hard_kill
        from repro.serving.protocol import NODE_HEADER, RETRY_HEADER
        from repro.serving.router import ServingFleet

        heavy_cycles = 40_000
        runs = [
            {"cycles": heavy_cycles, "collect_stats": False, "tag": f"r{i}"}
            for i in range(3)
        ]
        with ServingFleet(nodes=2, quorum=1, health_interval=0.1,
                          start_timeout=90.0) as fleet:
            # a cheap run with the same shard triple finds the home node
            status, _doc, headers = post(
                fleet, "/v1/run",
                {"machine": "counter", "cycles": 2, "backend": "interpreter",
                 "collect_stats": False},
            )
            assert status == 200
            home_id = headers[NODE_HEADER]
            home = fleet.supervisor.node(home_id)
            home_url, home_pid = home.url, home.pid
            (sibling_id,) = [
                node_id for node_id in fleet.supervisor.node_ids()
                if node_id != home_id
            ]

            outcome = {}

            def send_batch():
                outcome["response"] = post(fleet, "/v1/batch", {
                    "machine": "counter", "backend": "interpreter",
                    "runs": runs,
                })

            def batch_arrived() -> bool:
                try:
                    with urllib.request.urlopen(
                        home_url + "/v1/stats", timeout=5
                    ) as response:
                        stats = json.loads(response.read())
                except (OSError, ValueError):
                    return False
                return stats["requests"]["by_route"].get("/v1/batch", 0) >= 1

            client = threading.Thread(target=send_batch)
            client.start()
            # kill -9 the home node only once the batch is executing on it
            await_condition(batch_arrived, timeout=30,
                            message="batch arrival at the home node")
            hard_kill(home_pid)
            client.join(timeout=120)
            assert not client.is_alive()

            status, document, headers = outcome["response"]
            # the batch completed despite its server dying mid-run ...
            assert status == 200
            assert document["ok"] is True
            # ... on the sibling, with the crash attributed
            assert headers[NODE_HEADER] == sibling_id
            attribution = headers[RETRY_HEADER]
            assert attribution.startswith(home_id)

            # bit-identical to an in-process single-server run
            spec = get_machine("counter").build()
            with SimulationPool(spec, backend="interpreter",
                                executor="serial") as pool:
                reference = pool.run_batch([
                    RunRequest(cycles=heavy_cycles, collect_stats=False,
                               tag=f"r{i}")
                    for i in range(3)
                ])
            assert reference.ok
            for ref_item, wire in zip(reference.items, document["items"]):
                rebuilt = result_from_json(wire["result"])
                assert compare_results(ref_item.result, rebuilt) == []

            # and the supervisor restarted (or benched) the dead node
            def crash_handled() -> bool:
                snap = {
                    s["id"]: s for s in fleet.supervisor.describe()
                }[home_id]
                if snap["state"] == "benched":
                    return True
                return snap["state"] == "ready" and snap["restarts"] >= 1

            await_condition(crash_handled, timeout=30,
                            message="supervisor crash handling")
