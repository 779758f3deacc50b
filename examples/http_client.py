"""Minimal HTTP client for the long-lived simulation server.

The server (``repro serve``, :mod:`repro.serving.server`) speaks plain
JSON over plain HTTP, so the whole client fits in the standard library's
``urllib``.  This example starts no server itself — run one first — then
discovers the bundled machines, runs a single simulation, and fans out a
small batch, printing the aggregate throughput numbers the server
reports.  The full wire format is documented in ``docs/api-reference.md``.

Run with:  python -m repro serve                        # terminal 1
           python examples/http_client.py               # terminal 2
           python examples/http_client.py --url http://127.0.0.1:8437 \
               --machine gcd --runs 16 --cycles 16      # explicit form
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
import urllib.error
import urllib.request

#: How many times an overloaded-server rejection (429) is retried before
#: giving up; other errors never retry.
MAX_RETRIES = 5


def call(url: str, path: str, body: dict | None = None) -> dict:
    """One request against the server; structured errors become SystemExit.

    A 429 (the admission gate shedding load) is retried with capped
    exponential backoff plus jitter, honoring the server's ``Retry-After``
    hint as the floor — the polite client the backpressure design
    assumes.  Everything else fails fast: a 4xx will not get better by
    asking again.
    """
    request = urllib.request.Request(
        url.rstrip("/") + path,
        data=None if body is None else json.dumps(body).encode(),
        headers={"Content-Type": "application/json"},
    )
    for attempt in range(MAX_RETRIES + 1):
        try:
            with urllib.request.urlopen(request, timeout=60) as response:
                return json.loads(response.read())
        except urllib.error.HTTPError as exc:
            error = json.loads(exc.read()).get("error", {})
            if exc.code == 429 and attempt < MAX_RETRIES:
                retry_after = float(exc.headers.get("Retry-After") or 1.0)
                backoff = min(30.0, 0.5 * (2 ** attempt))
                pause = max(retry_after, backoff) * random.uniform(1.0, 1.5)
                print(f"server overloaded, retrying {path} in "
                      f"{pause:.1f}s ({attempt + 1}/{MAX_RETRIES})",
                      file=sys.stderr)
                time.sleep(pause)
                continue
            sys.exit(f"{path} failed ({exc.code}): "
                     f"{error.get('type')}: {error.get('message')}")
        except urllib.error.URLError as exc:
            sys.exit(f"cannot reach {url}: {exc.reason} "
                     "(is 'repro serve' running?)")
    raise AssertionError("unreachable")  # loop always returns or exits


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--url", default="http://127.0.0.1:8437",
                        help="server base URL (default: %(default)s)")
    parser.add_argument("--machine", default="counter",
                        help="bundled machine to simulate (default: counter)")
    parser.add_argument("--backend", default=None,
                        help="simulation backend (default: the server's "
                        "--backend, compiled unless set)")
    parser.add_argument("--runs", type=int, default=8,
                        help="runs in the batch (default: 8)")
    parser.add_argument("--cycles", type=int, default=None,
                        help="cycles per run (default: the machine's)")
    args = parser.parse_args()

    health = call(args.url, "/healthz")
    print(f"server ok: version {health['version']}, "
          f"up {health['uptime_seconds']:.1f}s")

    machines = call(args.url, "/v1/machines")["machines"]
    print(f"{len(machines)} machines served: "
          + ", ".join(entry["name"] for entry in machines))

    # a request without a backend field runs on the server's default
    chosen = {} if args.backend is None else {"backend": args.backend}
    single = call(args.url, "/v1/run", {
        "machine": args.machine, "cycles": args.cycles, **chosen,
    })
    result = single["result"]
    outputs = [event["value"] for event in result["outputs"]]
    print(f"single run: {result['cycles_run']} cycles on "
          f"{result['backend']}, outputs {outputs[:8]}"
          + (" ..." if len(outputs) > 8 else ""))

    batch = call(args.url, "/v1/batch", {
        "machine": args.machine, **chosen,
        "runs": [{"cycles": args.cycles, "tag": f"run-{index}"}
                 for index in range(args.runs)],
    })
    print(f"batch: {len(batch['items'])} runs ok={batch['ok']} on "
          f"{batch['pool_size']} {batch['executor']} workers, "
          f"{batch['runs_per_second']:.1f} runs/sec "
          f"(mean queue wait {batch['queue_seconds_mean'] * 1e3:.1f} ms)")
    for worker, count in sorted(batch["runs_by_worker"].items()):
        print(f"  {worker}: {count} runs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
