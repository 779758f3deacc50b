"""Command line interface.

Appendix A of the paper: "To invoke ASIM II, type ``sim [file]`` ... After
successful compilation, type ``pc simulator.p`` in order to generate
executable code".  This module provides the modern equivalent as
``python -m repro``:

* ``compile``  — read a specification and write the generated simulator
  program (Python by default, Pascal with ``--pascal``), like ``sim file``;
* ``run``      — simulate a specification for N cycles and print the trace,
  outputs and statistics;
* ``machines`` — list the bundled example machines;
* ``demo``     — build a bundled machine and run it;
* ``netlist``  — print the wiring list and bill of materials (Section 5.3);
* ``serve-batch`` — fan N runs of one specification out over a worker pool
  (the serving layer, :mod:`repro.serving`) on a chosen execution strategy
  (``--executor serial|process``, lane groups with ``--lane-width N``),
  optionally checking the batched results bit-identical against a
  sequential run;
* ``serve``    — the long-lived simulation server: pools kept warm behind
  an HTTP JSON API (:mod:`repro.serving.server`; endpoints documented in
  ``docs/api-reference.md``);
* ``spec``     — convert specifications between the paper's text form and
  the versioned JSON interchange format (``spec export``;
  :mod:`repro.rtl.interchange`, documented in ``docs/spec-format.md``) or
  check one without running it (``spec validate``); both accept either
  form and auto-detect which they were given;
* ``fuzz``     — differential fuzzing (:mod:`repro.fuzz`): generate seeded
  random machines, round-trip each through the JSON format, run every
  backend × executor configuration and demand bit-identical
  results; mismatches are shrunk to minimal reproducers and optionally
  persisted into a crasher corpus (``--corpus-dir``).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Sequence

from repro.compiler import CodegenOptions, generate_pascal, generate_python
from repro.core.iosystem import QueueIO
from repro.core.simulator import BACKEND_NAMES, DEFAULT_BACKEND, Simulator
from repro.errors import AsimError
from repro.machines.library import all_machines, get_machine
from repro.rtl.parser import parse_spec_file
from repro.serving.executor import EXECUTOR_CHOICES
from repro.serving.tracing import TRACE_SINKS
from repro.synth.report import hardware_report


def _add_spec_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "spec", type=Path,
        help="specification file to read (text or interchange JSON, "
        "auto-detected)",
    )


#: Multipliers for the human-readable size suffixes ``repro serve``
#: accepts (``64k``, ``256m``, ``2g``; bare numbers are bytes).
_SIZE_SUFFIXES = {"k": 1024, "m": 1024 ** 2, "g": 1024 ** 3}


def parse_size(text: str) -> int:
    """``"256m"`` -> bytes; raises ``argparse.ArgumentTypeError`` on junk."""
    text = text.strip().lower()
    multiplier = 1
    if text and text[-1] in _SIZE_SUFFIXES:
        multiplier = _SIZE_SUFFIXES[text[-1]]
        text = text[:-1]
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a byte size like '1048576' or '256m', got '{text}'"
        ) from None
    if value < 0:
        raise argparse.ArgumentTypeError("byte size must be >= 0")
    return value * multiplier


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="ASIM II reproduction: simulate register-transfer-level "
        "hardware specifications",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    compile_parser = subparsers.add_parser(
        "compile", help="generate simulator code from a specification"
    )
    _add_spec_argument(compile_parser)
    compile_parser.add_argument(
        "-o", "--output", type=Path, default=None,
        help="output file (default: stdout)",
    )
    compile_parser.add_argument(
        "--pascal", action="store_true",
        help="emit Pascal in the original Appendix E style instead of Python",
    )
    compile_parser.add_argument(
        "--no-optimize", action="store_true",
        help="disable the Section 4.4 constant-folding optimizations",
    )

    run_parser = subparsers.add_parser("run", help="simulate a specification")
    _add_spec_argument(run_parser)
    run_parser.add_argument(
        "-c", "--cycles", type=int, default=None,
        help="number of cycles (default: the spec's '= N' declaration)",
    )
    run_parser.add_argument(
        "-b", "--backend", choices=BACKEND_NAMES, default=DEFAULT_BACKEND,
        help=f"simulation backend (default: {DEFAULT_BACKEND})",
    )
    run_parser.add_argument(
        "-i", "--input", type=int, action="append", default=[],
        help="value for memory-mapped input (repeatable)",
    )
    run_parser.add_argument(
        "--trace", action="store_true", help="print the per-cycle trace"
    )
    run_parser.add_argument(
        "--stats", action="store_true", help="print simulation statistics"
    )

    subparsers.add_parser("machines", help="list the bundled example machines")

    demo_parser = subparsers.add_parser("demo", help="run a bundled machine")
    demo_parser.add_argument("name", help="machine name (see 'machines')")
    demo_parser.add_argument("-c", "--cycles", type=int, default=None)
    demo_parser.add_argument(
        "-b", "--backend", choices=BACKEND_NAMES, default=DEFAULT_BACKEND,
        help=f"simulation backend (default: {DEFAULT_BACKEND})",
    )

    netlist_parser = subparsers.add_parser(
        "netlist", help="print the wiring list and bill of materials"
    )
    _add_spec_argument(netlist_parser)

    serve_parser = subparsers.add_parser(
        "serve-batch",
        help="run a batch of simulations of one specification on a worker pool",
    )
    _add_spec_argument(serve_parser)
    serve_parser.add_argument(
        "-n", "--runs", type=int, default=8,
        help="number of runs in the batch (default: 8)",
    )
    serve_parser.add_argument(
        "-w", "--workers", type=int, default=4,
        help="worker processes for --executor process (default: 4)",
    )
    serve_parser.add_argument(
        "--executor", choices=EXECUTOR_CHOICES,
        default="serial",
        help="execution strategy: serial (inline) or process (true "
        "multi-core; ships the pool's warm prepared simulation to worker "
        "processes once); thread and lane are aliases of serial, lane at "
        "--lane-width or 16 (default: serial)",
    )
    serve_parser.add_argument(
        "--chunk-size", type=int, default=None,
        help="requests per scheduling unit (default: strategy-chosen; "
        "the process executor batches IPC in chunks)",
    )
    serve_parser.add_argument(
        "--lane-width", type=int, default=None, metavar="N",
        help="runs per lane group (N >= 2 groups compatible runs, inline "
        "or inside each process worker; compiled runs a stats-off group "
        "in one schedule walk, every other group each lane as its scalar "
        "run; default: scalar, 16 for --executor lane)",
    )
    serve_parser.add_argument(
        "-c", "--cycles", type=int, default=None,
        help="cycles per run (default: the spec's '= N' declaration)",
    )
    serve_parser.add_argument(
        "-b", "--backend", choices=BACKEND_NAMES, default=DEFAULT_BACKEND,
        help=f"simulation backend (default: {DEFAULT_BACKEND})",
    )
    serve_parser.add_argument(
        "-i", "--input", type=int, action="append", default=[],
        help="memory-mapped input value given to every run (repeatable)",
    )
    serve_parser.add_argument(
        "--check", action="store_true",
        help="also run once sequentially and verify the batched results "
        "are bit-identical",
    )

    server_parser = subparsers.add_parser(
        "serve",
        help="run the long-lived simulation server (HTTP JSON API over "
        "warm SimulationPools; see docs/api-reference.md)",
    )
    server_parser.add_argument(
        "--host", default="127.0.0.1",
        help="interface to bind (default: 127.0.0.1)",
    )
    server_parser.add_argument(
        "--port", type=int, default=8437,
        help="TCP port to bind; 0 picks an ephemeral port (default: 8437)",
    )
    server_parser.add_argument(
        "-b", "--backend", choices=BACKEND_NAMES, default=DEFAULT_BACKEND,
        help="default backend for requests that do not name one "
        f"(default: {DEFAULT_BACKEND})",
    )
    server_parser.add_argument(
        "--executor", choices=EXECUTOR_CHOICES,
        default="serial",
        help="default execution strategy for requests that do not name one "
        "(default: serial)",
    )
    server_parser.add_argument(
        "-w", "--workers", type=int, default=None,
        help="worker processes per process pool (default: one per core, "
        "2-8; serial pools run inline)",
    )
    server_parser.add_argument(
        "--chunk-size", type=int, default=None,
        help="requests per scheduling unit (default: strategy-chosen)",
    )
    server_parser.add_argument(
        "--lane-width", type=int, default=None, metavar="N",
        help="default lane group size for every pool (N >= 2 lane-groups "
        "compatible runs); requests may override per call with "
        "'lane_width' (default: scalar, 16 for 'lane' requests)",
    )
    server_parser.add_argument(
        "--max-inflight", type=int, default=None, metavar="N",
        help="admission gate: simulation requests executing concurrently "
        "(on serial pools, each inline on its connection's thread) before "
        "new ones queue (default: unbounded)",
    )
    server_parser.add_argument(
        "--max-queue", type=int, default=16, metavar="N",
        help="admission gate: requests allowed to wait for a slot before "
        "the server answers 429 with Retry-After (default: 16)",
    )
    server_parser.add_argument(
        "--retry-after", type=float, default=1.0, metavar="SECONDS",
        help="Retry-After hint sent with 429 rejections (default: 1)",
    )
    server_parser.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS",
        help="default per-run deadline applied to requests that do not "
        "set timeout_seconds or X-Request-Timeout (default: none)",
    )
    server_parser.add_argument(
        "--max-body-bytes", type=parse_size, default=None, metavar="SIZE",
        help="largest request body accepted before a 413 "
        "(accepts k/m/g suffixes; default: 8m)",
    )
    server_parser.add_argument(
        "--drain-timeout", type=float, default=10.0, metavar="SECONDS",
        help="graceful-shutdown budget for in-flight requests; a drain "
        "that misses it is reported, not waited out (default: 10)",
    )
    server_parser.add_argument(
        "--max-pools", type=int, default=64, metavar="N",
        help="warm pools kept per server; past the cap the least-recently-"
        "used pool is drained and evicted (0 = unbounded; default: 64)",
    )
    server_parser.add_argument(
        "--port-file", type=Path, default=None, metavar="PATH",
        help="write the bound port to PATH once the socket is up; with "
        "--port 0 this is how a supervisor discovers the ephemeral port",
    )
    server_parser.add_argument(
        "--trace-sink", choices=TRACE_SINKS, default="none",
        help="durable per-request trace exporter: append-only JSONL or a "
        "single-table SQLite database; the in-memory ring buffer behind "
        "GET /v1/trace/<id> is always on (default: none)",
    )
    server_parser.add_argument(
        "--trace-dir", type=Path, default=None, metavar="DIR",
        help="directory the trace exporter writes into (required with "
        "--trace-sink jsonl/sqlite; one directory per server process)",
    )
    server_parser.add_argument(
        "--trace-ring", type=int, default=256, metavar="N",
        help="finished traces kept in the in-memory ring buffer serving "
        "GET /v1/trace/<id> (default: 256)",
    )

    fleet_parser = subparsers.add_parser(
        "fleet",
        help="run a supervised fleet: N child serve processes behind a "
        "sharding front-door router (see docs/serving.md)",
    )
    fleet_parser.add_argument(
        "--nodes", type=int, default=2, metavar="N",
        help="child serve processes to spawn and babysit (default: 2)",
    )
    fleet_parser.add_argument(
        "--host", default="127.0.0.1",
        help="interface the router binds (children always bind 127.0.0.1 "
        "on ephemeral ports; default: 127.0.0.1)",
    )
    fleet_parser.add_argument(
        "--port", type=int, default=8437,
        help="router TCP port; 0 picks an ephemeral port (default: 8437)",
    )
    fleet_parser.add_argument(
        "-b", "--backend", choices=BACKEND_NAMES, default=DEFAULT_BACKEND,
        help="default backend forwarded to every child "
        f"(default: {DEFAULT_BACKEND})",
    )
    fleet_parser.add_argument(
        "--executor", choices=EXECUTOR_CHOICES, default="serial",
        help="default execution strategy forwarded to every child "
        "(default: serial)",
    )
    fleet_parser.add_argument(
        "-w", "--workers", type=int, default=None,
        help="worker processes per process pool, per child (default: one "
        "per core, 2-8)",
    )
    fleet_parser.add_argument(
        "--chunk-size", type=int, default=None,
        help="requests per scheduling unit, per child "
        "(default: strategy-chosen)",
    )
    fleet_parser.add_argument(
        "--lane-width", type=int, default=None, metavar="N",
        help="default lane group size forwarded to every child",
    )
    fleet_parser.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS",
        help="default per-run deadline forwarded to every child",
    )
    fleet_parser.add_argument(
        "--max-inflight", type=int, default=None, metavar="N",
        help="per-child admission gate (default: unbounded)",
    )
    fleet_parser.add_argument(
        "--max-pools", type=int, default=64, metavar="N",
        help="warm-pool cap forwarded to every child (0 = unbounded; "
        "default: 64)",
    )
    fleet_parser.add_argument(
        "--quorum", type=int, default=None, metavar="N",
        help="ready nodes /readyz requires (default: a majority, N//2+1)",
    )
    fleet_parser.add_argument(
        "--drain-timeout", type=float, default=10.0, metavar="SECONDS",
        help="per-node budget of the rolling SIGTERM drain (default: 10)",
    )
    fleet_parser.add_argument(
        "--health-interval", type=float, default=0.25, metavar="SECONDS",
        help="supervisor probe period for child /readyz (default: 0.25)",
    )
    fleet_parser.add_argument(
        "--bench-after", type=int, default=3, metavar="K",
        help="crashes within --bench-window that bench a node instead of "
        "restarting it (default: 3)",
    )
    fleet_parser.add_argument(
        "--bench-window", type=float, default=30.0, metavar="SECONDS",
        help="sliding window for the flap guard (default: 30)",
    )
    fleet_parser.add_argument(
        "--log-dir", type=Path, default=None, metavar="DIR",
        help="write per-child stdout/stderr logs here "
        "(default: discarded)",
    )
    fleet_parser.add_argument(
        "--trace-sink", choices=TRACE_SINKS, default="none",
        help="durable trace exporter forwarded to every child "
        "(default: none)",
    )
    fleet_parser.add_argument(
        "--trace-dir", type=Path, default=None, metavar="DIR",
        help="trace export root; each child writes into its own "
        "DIR/<node-id>/ subdirectory (required with --trace-sink)",
    )

    spec_parser = subparsers.add_parser(
        "spec",
        help="convert or check specifications in text or JSON interchange "
        "form (docs/spec-format.md)",
    )
    spec_sub = spec_parser.add_subparsers(dest="spec_command", required=True)
    spec_export = spec_sub.add_parser(
        "export",
        help="convert a specification between the text form and the JSON "
        "interchange format (input format is auto-detected)",
    )
    _add_spec_argument(spec_export)
    spec_export.add_argument(
        "-o", "--output", type=Path, default=None,
        help="output file (default: stdout)",
    )
    spec_export.add_argument(
        "--text", action="store_true",
        help="emit the paper's text form instead of interchange JSON",
    )
    spec_validate = spec_sub.add_parser(
        "validate",
        help="parse and validate a specification (text or JSON) without "
        "running it; exit 1 if invalid",
    )
    _add_spec_argument(spec_validate)
    spec_validate.add_argument(
        "--strict", action="store_true",
        help="treat warnings (selector coverage, missing declarations) "
        "as errors",
    )

    fuzz_parser = subparsers.add_parser(
        "fuzz",
        help="differential fuzzing: random machines through every "
        "backend x executor, demanding bit-identity",
    )
    fuzz_parser.add_argument(
        "--seed", type=int, default=0,
        help="session seed; machine i uses a seed derived from it "
        "(default: 0)",
    )
    fuzz_parser.add_argument(
        "-n", "--count", type=int, default=50,
        help="number of machines to generate and check (default: 50)",
    )
    fuzz_parser.add_argument(
        "--max-components", type=int, default=16,
        help="ceiling on components per generated machine (default: 16)",
    )
    fuzz_parser.add_argument(
        "--shrink", action=argparse.BooleanOptionalAction, default=True,
        help="greedily minimise mismatching machines before reporting "
        "(default: on)",
    )
    fuzz_parser.add_argument(
        "--corpus-dir", type=Path, default=None, metavar="DIR",
        help="persist shrunk reproducers into DIR as regression cases "
        "(the committed corpus lives in tests/fuzz/corpus)",
    )
    fuzz_parser.add_argument(
        "--executors", default=None, metavar="LIST",
        help="comma-separated executor names for the pooled phase, "
        "empty for sequential-only (default: serial,lane,process — "
        "serial, serial with lanes, and process)",
    )

    return parser


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def _command_compile(args: argparse.Namespace) -> int:
    spec = _load_spec_any_format(args.spec)
    options = CodegenOptions.unoptimized() if args.no_optimize else CodegenOptions()
    source = (
        generate_pascal(spec, options) if args.pascal else generate_python(spec, options)
    )
    if args.output is None:
        print(source, end="")
    else:
        args.output.write_text(source)
        print(f"wrote {len(source.splitlines())} lines to {args.output}")
    return 0


def _print_result(result, show_trace: bool, show_stats: bool) -> None:
    if show_trace and len(result.trace):
        print(result.trace.render())
    if result.outputs:
        print("outputs:", " ".join(str(event.value) for event in result.outputs))
    print(
        f"{result.backend}: {result.cycles_run} cycles in "
        f"{result.run_seconds:.4f}s (prepare {result.prepare_seconds:.4f}s)"
    )
    if show_stats:
        print(result.stats.summary())


def _command_run(args: argparse.Namespace) -> int:
    spec = _load_spec_any_format(args.spec)
    simulator = Simulator(spec, backend=args.backend)
    result = simulator.run(
        cycles=args.cycles,
        io=QueueIO(args.input, strict=False),
        trace=True if args.trace else None,
    )
    _print_result(result, args.trace, args.stats)
    return 0


def _command_machines(_args: argparse.Namespace) -> int:
    for entry in all_machines():
        print(f"{entry.name:<22s} {entry.description}")
    return 0


def _command_demo(args: argparse.Namespace) -> int:
    entry = get_machine(args.name)
    spec = entry.build()
    cycles = args.cycles if args.cycles is not None else entry.demo_cycles
    print(f"{entry.name}: {entry.description}")
    print(spec.summary())
    result = Simulator(spec, backend=args.backend).run(cycles=cycles)
    _print_result(result, show_trace=False, show_stats=True)
    return 0


def _command_netlist(args: argparse.Namespace) -> int:
    spec = _load_spec_any_format(args.spec)
    print(hardware_report(spec).render())
    return 0


def _command_serve_batch(args: argparse.Namespace) -> int:
    from repro.serving import BatchRequest, run_batch

    spec = _load_spec_any_format(args.spec)
    request = BatchRequest.repeat(
        spec, args.runs, cycles=args.cycles, inputs=args.input,
        backend=args.backend,
    )
    batch = run_batch(request, max_workers=args.workers,
                      executor=args.executor, chunk_size=args.chunk_size,
                      lane_width=args.lane_width)
    print(f"{args.spec.name}: {args.runs} runs on {args.backend} "
          f"({batch.pool_size} workers, {batch.executor} executor)")
    print(batch.summary())
    for worker, rate in sorted(batch.per_worker_runs_per_second.items()):
        print(f"  {worker}: {batch.runs_by_worker[worker]} runs, "
              f"{rate:.1f} runs/sec busy")
    for item in batch.failures:
        print(f"run {item.index} failed: {item.error}", file=sys.stderr)
    if not batch.ok:
        return 1
    if args.check:
        from repro.core.comparison import compare_results

        reference = Simulator(spec, backend=args.backend).run(
            cycles=args.cycles, io=QueueIO(args.input, strict=False)
        )
        for item in batch.items:
            mismatches = compare_results(reference, item.result)
            if mismatches:
                print(f"check FAILED: run {item.index} differs from the "
                      "sequential reference:", file=sys.stderr)
                for mismatch in mismatches:
                    print(f"  {mismatch}", file=sys.stderr)
                return 1
        print(f"check: all {len(batch.items)} batched results bit-identical "
              "to sequential")
    return 0


def _install_signal_drain() -> None:
    """Route SIGTERM onto the KeyboardInterrupt path, so a supervisor's
    (or systemd's) TERM drains the server exactly like Ctrl-C instead of
    killing it mid-chunk.  Raising from the handler is safe because the
    serve loop runs on the main thread; calling ``close()`` directly
    from a handler would deadlock on the loop's shutdown handshake."""
    import signal

    def _drain(signum, frame):
        raise KeyboardInterrupt

    try:
        signal.signal(signal.SIGTERM, _drain)
    except ValueError:
        # not the main thread (embedded use): the caller owns signals
        pass


def _command_serve(args: argparse.Namespace) -> int:
    from repro.serving.server import MAX_BODY_BYTES, SimulationServer

    if args.trace_sink != "none" and args.trace_dir is None:
        print(f"error: --trace-sink {args.trace_sink} requires --trace-dir",
              file=sys.stderr)
        return 2
    _install_signal_drain()
    server = SimulationServer(
        host=args.host,
        port=args.port,
        backend=args.backend,
        executor=args.executor,
        max_workers=args.workers,
        chunk_size=args.chunk_size,
        lane_width=args.lane_width,
        max_inflight=args.max_inflight,
        max_queue=args.max_queue,
        retry_after=args.retry_after,
        default_timeout=args.timeout,
        max_body_bytes=(
            args.max_body_bytes if args.max_body_bytes is not None
            else MAX_BODY_BYTES
        ),
        drain_timeout=args.drain_timeout,
        max_pools=args.max_pools if args.max_pools > 0 else None,
        trace_sink=args.trace_sink,
        trace_dir=args.trace_dir,
        trace_ring=args.trace_ring,
    )
    print(f"serving on {server.url} (backend={args.backend}, "
          f"executor={args.executor}); Ctrl-C to stop")
    if args.port_file is not None:
        # the socket is bound, so the port is final; publish it for the
        # supervisor that started us with --port 0
        args.port_file.write_text(f"{server.port}\n")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("\nshutting down (draining in-flight runs) ...")
    finally:
        if not server.close():
            print(
                "warning: in-flight requests outlived the "
                f"{server.drain_timeout:g}s drain budget and were abandoned"
            )
    return 0


def _command_fleet(args: argparse.Namespace) -> int:
    from repro.serving.router import ServingFleet

    if args.trace_sink != "none" and args.trace_dir is None:
        print(f"error: --trace-sink {args.trace_sink} requires --trace-dir",
              file=sys.stderr)
        return 2
    _install_signal_drain()
    child_args: list[str] = []
    if args.workers is not None:
        child_args += ["--workers", str(args.workers)]
    if args.chunk_size is not None:
        child_args += ["--chunk-size", str(args.chunk_size)]
    if args.lane_width is not None:
        child_args += ["--lane-width", str(args.lane_width)]
    if args.timeout is not None:
        child_args += ["--timeout", str(args.timeout)]
    if args.max_inflight is not None:
        child_args += ["--max-inflight", str(args.max_inflight)]
    child_args += ["--max-pools", str(args.max_pools)]
    fleet = ServingFleet(
        nodes=args.nodes,
        host=args.host,
        port=args.port,
        child_args=child_args,
        backend=args.backend,
        executor=args.executor,
        quorum=args.quorum,
        drain_timeout=args.drain_timeout,
        health_interval=args.health_interval,
        bench_after=args.bench_after,
        bench_window=args.bench_window,
        log_dir=args.log_dir,
        trace_sink=args.trace_sink,
        trace_dir=(
            str(args.trace_dir) if args.trace_dir is not None else None
        ),
    )
    print(f"starting {args.nodes} serve node(s) ...")
    fleet.supervisor.start(wait=True)
    for snap in fleet.supervisor.describe():
        print(f"  {snap['id']}: {snap['url']} (pid {snap['pid']})")
    print(f"routing on {fleet.router.url} "
          f"(quorum {fleet.router.quorum}/{args.nodes}); Ctrl-C to stop")
    try:
        fleet.router.serve_forever()
    except KeyboardInterrupt:
        print("\nshutting down (rolling drain) ...")
    finally:
        fleet.router.close()
        for entry in fleet.supervisor.stop():
            label = (
                "drained" if entry["clean"]
                else "killed after the drain budget"
                if entry["forced"] else "already down"
            )
            print(f"  {entry['node']}: {label} ({entry['seconds']:.1f}s)")
    return 0


def _load_spec_any_format(path: Path, validate: bool = True):
    """Read *path* as interchange JSON or the paper's text form."""
    from dataclasses import replace

    from repro.rtl.interchange import looks_like_json, spec_from_json_text

    text = path.read_text(encoding="utf-8")
    if looks_like_json(text):
        spec = spec_from_json_text(text, validate=validate)
        if spec.source_name == "<specification>":
            spec = replace(spec, source_name=path.name)
        return spec
    return parse_spec_file(path)


def _command_spec(args: argparse.Namespace) -> int:
    from repro.rtl.interchange import spec_to_json_text
    from repro.rtl.writer import spec_to_text

    if args.spec_command == "export":
        spec = _load_spec_any_format(args.spec)
        rendered = (
            spec_to_text(spec) if args.text
            else spec_to_json_text(spec) + "\n"
        )
        if args.output is None:
            print(rendered, end="")
        else:
            args.output.write_text(rendered, encoding="utf-8")
            print(f"wrote {args.output}")
        return 0

    # validate: parse leniently, then report every problem at once
    from repro.rtl.validate import validate as validate_spec

    spec = _load_spec_any_format(args.spec, validate=False)
    report = validate_spec(spec, strict=args.strict)
    for problem in report.errors:
        print(f"error: {problem}", file=sys.stderr)
    for warning in report.warnings:
        print(f"warning: {warning}")
    if not report.ok:
        return 1
    print(f"{args.spec}: ok ({len(spec)} components)")
    return 0


def _command_fuzz(args: argparse.Namespace) -> int:
    from repro.fuzz import FUZZ_EXECUTORS, GeneratorConfig, run_fuzz_session

    executors = FUZZ_EXECUTORS if args.executors is None else tuple(
        name for name in args.executors.split(",") if name
    )
    unknown = [name for name in executors if name not in EXECUTOR_CHOICES]
    if unknown:
        print(f"error: unknown executor(s) {', '.join(unknown)} "
              f"(choose from {', '.join(EXECUTOR_CHOICES)})", file=sys.stderr)
        return 2
    report = run_fuzz_session(
        args.seed, args.count,
        config=GeneratorConfig(max_components=args.max_components),
        executors=executors,
        shrink=args.shrink,
        corpus_dir=args.corpus_dir,
        log=print,
    )
    print(report.describe())
    return 0 if report.ok else 1


_COMMANDS = {
    "compile": _command_compile,
    "run": _command_run,
    "machines": _command_machines,
    "demo": _command_demo,
    "netlist": _command_netlist,
    "serve-batch": _command_serve_batch,
    "serve": _command_serve,
    "fleet": _command_fleet,
    "spec": _command_spec,
    "fuzz": _command_fuzz,
}


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except AsimError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
