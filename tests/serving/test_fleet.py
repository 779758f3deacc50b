"""Fleet layer tests: sharding, supervision, routing, and bit-identity.

Three tiers, cheapest first:

* pure unit tests — rendezvous shard stability under node loss/return,
  the flap guard's benching arithmetic, backoff shape, and the
  supervisor's crash bookkeeping driven directly (no processes);
* one shared live fleet (module-scoped: two real ``repro serve``
  children behind a router) for the HTTP surface: sticky sharding,
  ``/v1/fleet``, quorum ``/readyz``, aggregated ``/v1/stats``, proxied
  discovery routes, and the routed-vs-in-process bit-identity proof on
  all three backends;
* per-test fleets for the destructive scenarios: crash restart, flap
  benching, and rolling-drain ordering.

The mid-batch ``kill -9`` failover scenario lives with the rest of the
chaos harness in ``test_chaos.py``.
"""

from __future__ import annotations

import json
import urllib.error
import urllib.request

import pytest

from repro.core.comparison import compare_results
from repro.core.simulator import BACKEND_NAMES
from repro.machines.library import get_machine, machine_names
from repro.serving import RunRequest, SimulationPool
from repro.serving.chaos import await_condition, hard_kill
from repro.serving.fleet import Backoff, FlapGuard, FleetError, FleetSupervisor
from repro.serving.protocol import NODE_HEADER, RETRY_HEADER, result_from_json
from repro.serving.router import ServingFleet, rank_nodes

CYCLES = 12


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


def snapshot_of(fleet, node_id):
    return {snap["id"]: snap for snap in fleet.supervisor.describe()}[node_id]


# ---------------------------------------------------------------------------
# Unit tier: sharding
# ---------------------------------------------------------------------------


class TestShardStability:
    NODES = [f"node-{i}" for i in range(5)]
    KEYS = [f"machine:m{i}|threaded|thread" for i in range(200)]

    def test_ranking_is_deterministic(self):
        for key in self.KEYS[:20]:
            assert rank_nodes(key, self.NODES) == rank_nodes(key, self.NODES)

    def test_keys_spread_over_all_nodes(self):
        homes = {rank_nodes(key, self.NODES)[0] for key in self.KEYS}
        assert homes == set(self.NODES)

    def test_node_loss_only_remaps_its_own_shards(self):
        lost = "node-2"
        survivors = [n for n in self.NODES if n != lost]
        for key in self.KEYS:
            before = rank_nodes(key, self.NODES)[0]
            after = rank_nodes(key, survivors)[0]
            if before != lost:
                # a shard whose home survived must not move
                assert after == before
            else:
                # a lost home's shards move to their second choice
                assert after == rank_nodes(key, self.NODES)[1]

    def test_node_return_restores_original_assignment(self):
        survivors = [n for n in self.NODES if n != "node-2"]
        for key in self.KEYS[:50]:
            original = rank_nodes(key, self.NODES)[0]
            assert rank_nodes(key, survivors + ["node-2"])[0] == original

    def test_distinct_shard_keys_rank_independently(self):
        rankings = {tuple(rank_nodes(key, self.NODES)) for key in self.KEYS}
        assert len(rankings) > 10  # not one global ordering


# ---------------------------------------------------------------------------
# Unit tier: supervision arithmetic
# ---------------------------------------------------------------------------


class TestFlapGuard:
    def test_benches_after_k_crashes_in_window(self):
        clock = iter([0.0, 1.0, 2.0]).__next__
        guard = FlapGuard(max_crashes=3, window=30.0, clock=clock)
        guard.record()
        assert not guard.flapping()
        guard.record()
        assert not guard.flapping()
        guard.record()
        assert guard.flapping()

    def test_crashes_outside_the_window_do_not_count(self):
        stamps = iter([0.0, 100.0, 200.0])
        guard = FlapGuard(max_crashes=2, window=30.0, clock=stamps.__next__)
        guard.record()
        guard.record()  # 100s later: the first crash has aged out
        assert not guard.flapping()
        guard.record()  # 200s: still only one crash in any 30s window
        assert not guard.flapping()

    def test_rejects_nonsense(self):
        with pytest.raises(ValueError):
            FlapGuard(max_crashes=0)
        with pytest.raises(ValueError):
            FlapGuard(window=0)


class TestBackoff:
    def test_capped_exponential(self):
        backoff = Backoff(base=0.25, factor=2.0, cap=8.0)
        delays = [backoff.delay(n) for n in range(8)]
        assert delays[:5] == [0.25, 0.5, 1.0, 2.0, 4.0]
        assert delays[-1] == 8.0  # capped
        assert delays == sorted(delays)

    def test_rejects_nonsense(self):
        with pytest.raises(ValueError):
            Backoff(base=0)
        with pytest.raises(ValueError):
            Backoff(factor=0.5)
        with pytest.raises(ValueError):
            Backoff(base=1.0, cap=0.5)


class TestCrashBookkeeping:
    """Drive the supervisor's crash handler directly — no processes."""

    def make(self, **kwargs):
        return FleetSupervisor(nodes=1, **kwargs)

    def test_crash_schedules_backoff_restart(self):
        supervisor = self.make(bench_after=3)
        node = supervisor.nodes[0]
        with supervisor._lock:
            supervisor._on_crash(node, exit_code=-9)
        assert node.state == "restarting"
        assert node.restarts == 1
        assert node.crashes == 1
        assert node.last_exit_code == -9
        assert node.restart_at is not None

    def test_backoff_grows_between_consecutive_crashes(self):
        supervisor = self.make(bench_after=10, bench_window=1e-6)
        node = supervisor.nodes[0]
        delays = []
        for _ in range(4):
            with supervisor._lock:
                before = supervisor._clock()
                supervisor._on_crash(node, exit_code=1)
            delays.append(node.restart_at - before)
        assert delays == sorted(delays)
        assert delays[-1] > delays[0]

    def test_flapping_node_is_benched_not_restarted(self):
        supervisor = self.make(bench_after=2, bench_window=60.0)
        node = supervisor.nodes[0]
        with supervisor._lock:
            supervisor._on_crash(node, exit_code=1)
            assert node.state == "restarting"
            supervisor._on_crash(node, exit_code=1)
        assert node.state == "benched"
        assert node.snapshot()["benched"] is True
        assert "benched" in node.last_error

    def test_fleet_needs_at_least_one_node(self):
        with pytest.raises(ValueError):
            FleetSupervisor(nodes=0)


# ---------------------------------------------------------------------------
# Live tier: one shared 2-node fleet
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def fleet():
    with ServingFleet(nodes=2, health_interval=0.1,
                      start_timeout=90.0) as running:
        yield running


class TestFleetHttp:
    def test_fleet_endpoint_reports_topology(self, fleet):
        status, doc, _headers = get(fleet, "/v1/fleet")
        assert status == 200
        assert doc["quorum"] == 2  # majority of 2
        nodes = {snap["id"]: snap for snap in doc["nodes"]}
        assert set(nodes) == {"node-0", "node-1"}
        for snap in nodes.values():
            assert snap["state"] == "ready"
            assert snap["url"].startswith("http://127.0.0.1:")
            assert isinstance(snap["pid"], int)
            assert snap["benched"] is False

    def test_readyz_reflects_quorum(self, fleet):
        status, doc, _headers = get(fleet, "/readyz")
        assert status == 200
        assert doc["ready"] is True
        assert doc["ready_nodes"] == 2
        assert doc["quorum"] == 2

    def test_healthz_is_the_router_itself(self, fleet):
        status, doc, _headers = get(fleet, "/healthz")
        assert status == 200
        assert doc["role"] == "router"

    def test_routing_is_sticky_per_combination(self, fleet):
        body = {"machine": "counter", "cycles": CYCLES}
        nodes = set()
        for _ in range(3):
            status, doc, headers = post(fleet, "/v1/run", body)
            assert status == 200
            assert doc["result"]["cycles_run"] == CYCLES
            nodes.add(headers[NODE_HEADER])
        assert len(nodes) == 1  # same shard -> same home, every time
        ids = set(fleet.supervisor.node_ids())
        assert nodes <= ids

    def test_no_failover_header_on_the_happy_path(self, fleet):
        status, _doc, headers = post(
            fleet, "/v1/run", {"machine": "counter", "cycles": CYCLES}
        )
        assert status == 200
        assert headers.get(RETRY_HEADER) is None

    @pytest.mark.parametrize("backend", BACKEND_NAMES)
    def test_routed_results_bit_identical_to_in_process(
        self, fleet, backend
    ):
        requests = [
            {"cycles": CYCLES, "tag": f"r{i}", "collect_stats": True}
            for i in range(4)
        ]
        status, doc, headers = post(fleet, "/v1/batch", {
            "machine": "counter", "backend": backend, "runs": requests,
        })
        assert status == 200, doc
        assert doc["ok"] is True
        assert headers[NODE_HEADER] in fleet.supervisor.node_ids()
        spec = get_machine("counter").build()
        with SimulationPool(spec, backend=backend,
                            executor="serial") as pool:
            reference = pool.run_batch([
                RunRequest(cycles=CYCLES, tag=f"r{i}") for i in range(4)
            ])
        for ref_item, wire in zip(reference.items, doc["items"]):
            rebuilt = result_from_json(wire["result"])
            assert compare_results(ref_item.result, rebuilt) == []

    def test_discovery_routes_proxied(self, fleet):
        status, doc, headers = get(fleet, "/v1/machines")
        assert status == 200
        assert {entry["name"] for entry in doc["machines"]} == set(machine_names())
        assert headers[NODE_HEADER] in fleet.supervisor.node_ids()
        status, doc, _headers = get(fleet, "/v1/backends")
        assert status == 200
        assert {entry["name"] for entry in doc["backends"]} == set(BACKEND_NAMES)

    def test_structured_errors_from_the_front_door(self, fleet):
        status, doc, _headers = post(fleet, "/v1/run", {"machine": "no-such"})
        assert status == 404
        assert doc["error"]["type"] == "unknown_machine"
        request = urllib.request.Request(
            fleet.url + "/v1/run", data=b"{not json",
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=30)
        assert excinfo.value.code == 400
        assert json.loads(excinfo.value.read())["error"]["type"] == "malformed_json"

    def test_per_item_simulation_errors_pass_through(self, fleet):
        # a run that fails on the node fails item-wise; the router must
        # not mistake that for a node failure and retry it
        status, doc, headers = post(fleet, "/v1/batch", {
            "machine": "counter",
            "runs": [{"cycles": CYCLES}, {"cycles": -1}],
        })
        assert status == 200
        assert doc["ok"] is False
        assert doc["items"][0]["ok"] is True
        assert doc["items"][1]["ok"] is False
        assert headers.get(RETRY_HEADER) is None

    def test_unknown_route_and_method(self, fleet):
        status, doc, _headers = get(fleet, "/v1/nonsense")
        assert status == 404
        assert doc["error"]["type"] == "unknown_route"
        status, doc, _headers = post(fleet, "/v1/fleet", {})
        assert status == 405
        assert doc["error"]["type"] == "method_not_allowed"

    def test_aggregated_stats(self, fleet):
        post(fleet, "/v1/run", {"machine": "counter", "cycles": CYCLES})
        status, doc, _headers = get(fleet, "/v1/stats")
        assert status == 200
        assert set(doc["nodes"]) == set(fleet.supervisor.node_ids())
        for stats in doc["nodes"].values():
            assert "requests" in stats
        assert doc["totals"]["requests"] >= 1
        assert "pool_evictions" in doc["totals"]
        assert doc["router"]["requests"]["by_route"].get("/v1/run", 0) >= 1


# ---------------------------------------------------------------------------
# Destructive tier: per-test fleets
# ---------------------------------------------------------------------------


def make_fleet(**kwargs):
    kwargs.setdefault("nodes", 2)
    kwargs.setdefault("health_interval", 0.05)
    kwargs.setdefault("start_timeout", 90.0)
    return ServingFleet(**kwargs)


class TestFailover:
    def test_killed_node_is_restarted_and_serving_continues(self):
        with make_fleet(quorum=1) as fleet:
            status, _doc, headers = post(
                fleet, "/v1/run", {"machine": "counter", "cycles": CYCLES}
            )
            assert status == 200
            home = headers[NODE_HEADER]
            hard_kill(fleet.supervisor.node(home).pid)
            # the very next request survives via failover or rerouting
            status, doc, _headers = post(
                fleet, "/v1/run", {"machine": "counter", "cycles": CYCLES}
            )
            assert status == 200
            assert doc["result"]["cycles_run"] == CYCLES
            await_condition(
                lambda: snapshot_of(fleet, home)["state"] == "ready"
                and snapshot_of(fleet, home)["restarts"] >= 1,
                timeout=30, message="supervisor restart of the killed node",
            )
            # and the restarted node is routable again
            status, _doc, _headers = post(
                fleet, "/v1/run", {"machine": "counter", "cycles": CYCLES}
            )
            assert status == 200

    def test_repeatedly_crashing_node_is_benched(self):
        from repro.serving.fleet import Backoff as FleetBackoff

        fleet = make_fleet(quorum=1, bench_after=2, bench_window=60.0)
        fleet.supervisor.backoff = FleetBackoff(base=0.05, cap=0.1)
        with fleet:
            victim = fleet.supervisor.node_ids()[0]
            first_pid = fleet.supervisor.node(victim).pid
            hard_kill(first_pid)
            # wait for the *detected* crash and respawn, not just the
            # stale ready state — the monitor needs a tick to notice
            await_condition(
                lambda: snapshot_of(fleet, victim)["state"] == "ready"
                and snapshot_of(fleet, victim)["restarts"] >= 1,
                timeout=30, message="first restart",
            )
            second_pid = fleet.supervisor.node(victim).pid
            assert second_pid != first_pid
            hard_kill(second_pid)
            await_condition(
                lambda: snapshot_of(fleet, victim)["state"] == "benched",
                timeout=30, message="flap bench",
            )
            snap = snapshot_of(fleet, victim)
            assert snap["benched"] is True
            assert snap["crashes"] == 2
            # the fleet still serves from the survivor
            status, _doc, headers = post(
                fleet, "/v1/run", {"machine": "counter", "cycles": CYCLES}
            )
            assert status == 200
            assert headers[NODE_HEADER] != victim

    def test_readyz_loses_quorum_when_a_node_dies(self):
        with make_fleet() as fleet:  # default quorum: 2 of 2
            victim = fleet.supervisor.node_ids()[0]
            hard_kill(fleet.supervisor.node(victim).pid)
            await_condition(
                lambda: get(fleet, "/readyz")[0] == 503,
                timeout=30, message="quorum loss",
            )
            status, doc, _headers = get(fleet, "/readyz")
            assert status == 503
            assert doc["reason"] in ("no_quorum", "draining")


class TestDrain:
    def test_rolling_drain_is_ordered_and_clean(self):
        fleet = make_fleet()
        fleet.start()
        post(fleet, "/v1/run", {"machine": "counter", "cycles": CYCLES})
        report = fleet.close()
        assert [entry["node"] for entry in report] == ["node-0", "node-1"]
        for entry in report:
            # SIGTERM ran the graceful close() path: clean exit code 0
            assert entry["clean"] is True, report
            assert entry["forced"] is False
        # draining is terminal and visible
        assert fleet.supervisor.draining is True
        assert all(
            snap["state"] == "stopped" for snap in fleet.supervisor.describe()
        )

    def test_start_timeout_reports_states(self):
        supervisor = FleetSupervisor(
            nodes=1, child_args=("--this-flag-does-not-exist",),
            health_interval=0.05,
        )
        with pytest.raises(FleetError):
            supervisor.start(wait=True, timeout=3.0)
