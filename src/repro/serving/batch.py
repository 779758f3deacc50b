"""Batch requests and results for the serving layer.

A batch is *N variants of one machine*: the specification (and therefore
the prepare-time artifact) is fixed, while each :class:`RunRequest` varies
the things a run may vary — cycle count, memory-mapped inputs, tracing,
statistics collection and the per-cycle ``override`` hook.  This split is
what lets the pool pay preparation once and fan the runs out.

:class:`BatchResult` collects one :class:`BatchItem` per request, in
request order, each holding either a
:class:`~repro.core.results.SimulationResult` or the exception that run
raised — a poisoned variant never takes the rest of the batch down.  The
aggregate exposes the serving numbers that the ``BENCH_batch.json``
benchmark reports: pool-wide wall-clock seconds and runs per second, plus
the per-worker breakdown (which worker ran what, its busy-time
throughput) and queue-wait statistics that tell a capacity planner
whether a batch was limited by compute or by scheduling.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence, TYPE_CHECKING

from repro.core.backend import ValueOverride
from repro.core.iosystem import IOSystem, QueueIO
from repro.core.results import SimulationResult
from repro.core.simulator import DEFAULT_BACKEND, BackendLike
from repro.core.trace import TraceOptions

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for annotations only
    from repro.rtl.spec import Specification


@dataclass(frozen=True)
class RunRequest:
    """One simulation run inside a batch.

    ``inputs`` feeds a fresh non-strict :class:`~repro.core.iosystem.QueueIO`
    per run (an :class:`~repro.core.iosystem.IOSystem` is stateful, so it can
    never be shared between runs); pass ``io_factory`` to supply any other
    I/O system.  ``override`` works on every built-in backend; the pool
    consults the prepared simulation's ``supports_override`` capability
    flag (:meth:`check_supported`) so a third-party backend that cannot
    honor the hook fails with a clear :class:`~repro.errors.ServingError`
    instead of a mid-run surprise.

    ``timeout_seconds`` is the run's deadline, measured from submission:
    queue wait counts against it, a run still queued past its deadline is
    shed without executing, and a running simulation is interrupted
    cooperatively by the instrumentation layer
    (:func:`repro.core.instrument.run_deadline`) — in-process for the
    serial executor, inside the worker for the process executor,
    which additionally arms a wall-clock backstop at twice the deadline
    for workers that stop responding entirely.  A timed-out run becomes a
    :class:`~repro.errors.DeadlineExceededError` item, never a hang.
    """

    cycles: int | None = None
    inputs: tuple[int | str, ...] = ()
    trace: TraceOptions | bool | None = None
    collect_stats: bool = True
    override: ValueOverride | None = None
    #: caller-chosen label carried through to the matching :class:`BatchItem`
    tag: str | None = None
    #: builds this run's I/O system; defaults to ``QueueIO(inputs, strict=False)``
    io_factory: Callable[[], IOSystem] | None = None
    #: deadline for this run in seconds from submission, or ``None``
    timeout_seconds: float | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "inputs", tuple(self.inputs))
        if self.timeout_seconds is not None and self.timeout_seconds <= 0:
            raise ValueError(
                f"timeout_seconds must be positive, got {self.timeout_seconds}"
            )

    def make_io(self) -> IOSystem:
        """Build the fresh per-run I/O system this request describes."""
        if self.io_factory is not None:
            return self.io_factory()
        return QueueIO(self.inputs, strict=False)

    def check_supported(self, prepared) -> None:
        """Raise ``ServingError`` if *prepared* cannot honor this request.

        Consults the :class:`~repro.core.backend.PreparedSimulation`
        capability flags instead of letting the run fail mid-flight.
        """
        if self.override is not None and not getattr(
            prepared, "supports_override", True
        ):
            from repro.errors import ServingError

            raise ServingError(
                f"backend '{prepared.backend_name}' does not support "
                "per-cycle value overrides (supports_override is False)"
            )


@dataclass
class BatchRequest:
    """N run variants against one machine specification."""

    spec: "Specification"
    runs: Sequence[RunRequest]
    backend: "BackendLike" = DEFAULT_BACKEND

    def __len__(self) -> int:
        return len(self.runs)

    @classmethod
    def repeat(
        cls,
        spec: "Specification",
        count: int,
        cycles: int | None = None,
        inputs: Sequence[int | str] = (),
        backend: "BackendLike" = DEFAULT_BACKEND,
        collect_stats: bool = True,
    ) -> "BatchRequest":
        """*count* identical runs (the load-test / throughput shape)."""
        if count < 0:
            raise ValueError(f"run count must be non-negative, got {count}")
        run = RunRequest(
            cycles=cycles, inputs=tuple(inputs), collect_stats=collect_stats
        )
        return cls(spec=spec, runs=[run] * count, backend=backend)

    @classmethod
    def sweep(
        cls,
        spec: "Specification",
        input_sets: Iterable[Sequence[int | str]],
        cycles: int | None = None,
        backend: "BackendLike" = DEFAULT_BACKEND,
    ) -> "BatchRequest":
        """One run per input sequence (the parameter-sweep shape)."""
        runs = [
            RunRequest(cycles=cycles, inputs=tuple(inputs))
            for inputs in input_sets
        ]
        return cls(spec=spec, runs=runs, backend=backend)


@dataclass
class BatchItem:
    """Outcome of one request: a result or the exception the run raised."""

    index: int
    request: RunRequest
    result: SimulationResult | None = None
    error: Exception | None = None
    #: wall-clock seconds this run occupied its worker (prepare + run)
    seconds: float = 0.0
    #: label of the worker that ran this request (``pid-N`` for a worker
    #: process, ``serial-0`` inline), or ``None`` when the
    #: run never reached a worker (e.g. its chunk failed to pickle)
    worker: str | None = None
    #: seconds this request (or its chunk) waited between submission and
    #: execution start
    queue_seconds: float = 0.0
    #: per-item trace spans (:class:`~repro.serving.tracing.Span` tuples):
    #: ``pool_queue`` plus the worker-stamped ``worker_run`` /
    #: ``lane_group`` / ``chunk_ipc`` / terminal ``error`` records, with
    #: ``parent`` indices relative to this tuple (``None`` = attach to the
    #: request's dispatch span at trace assembly)
    spans: tuple = ()

    @property
    def ok(self) -> bool:
        return self.error is None

    @property
    def tag(self) -> str | None:
        return self.request.tag


@dataclass
class BatchResult:
    """Everything a batch produced, in request order."""

    backend: str
    pool_size: int
    items: list[BatchItem] = field(default_factory=list)
    #: wall-clock seconds from first submit to last result
    wall_seconds: float = 0.0
    #: seconds the pool spent on its warm-up ``prepare`` of the spec
    prepare_seconds: float = 0.0
    #: execution strategy that ran the batch (serial / process)
    executor: str = "serial"
    #: worker processes that died while this batch ran (process executor)
    worker_crashes: int = 0
    #: chunks/requests resubmitted after a worker crash
    worker_retries: int = 0
    #: requests quarantined as poisoned (killed workers twice)
    quarantined: int = 0

    def __len__(self) -> int:
        return len(self.items)

    def __iter__(self):
        return iter(self.items)

    @property
    def ok(self) -> bool:
        """True when every run in the batch succeeded."""
        return all(item.ok for item in self.items)

    @property
    def results(self) -> list[SimulationResult]:
        """Successful results, in request order."""
        return [item.result for item in self.items if item.ok]

    @property
    def failures(self) -> list[BatchItem]:
        """Items whose run raised, in request order."""
        return [item for item in self.items if not item.ok]

    @property
    def timeouts(self) -> list[BatchItem]:
        """Items that missed their deadline, in request order."""
        return [
            item for item in self.items
            if isinstance(item.error, TimeoutError)
        ]

    @property
    def runs_per_second(self) -> float:
        """Batch throughput against wall-clock time."""
        if self.wall_seconds <= 0.0:
            return float("inf") if self.items else 0.0
        return len(self.items) / self.wall_seconds

    @property
    def runs_by_worker(self) -> dict[str, int]:
        """How many runs each worker executed (labelled items only)."""
        counts: dict[str, int] = {}
        for item in self.items:
            if item.worker is not None:
                counts[item.worker] = counts.get(item.worker, 0) + 1
        return counts

    @property
    def per_worker_runs_per_second(self) -> dict[str, float]:
        """Each worker's busy-time throughput: runs / seconds spent running.

        Unlike the pool-wide :attr:`runs_per_second` (which divides by
        wall-clock and therefore folds in queueing and idle workers), this
        is the rate each worker achieved while actually executing — the
        number that should scale with per-core simulation speed.
        """
        busy: dict[str, float] = {}
        counts: dict[str, int] = {}
        for item in self.items:
            if item.worker is None:
                continue
            counts[item.worker] = counts.get(item.worker, 0) + 1
            busy[item.worker] = busy.get(item.worker, 0.0) + item.seconds
        return {
            worker: (counts[worker] / seconds if seconds > 0.0 else 0.0)
            for worker, seconds in busy.items()
        }

    @property
    def queue_seconds_mean(self) -> float:
        """Mean seconds a request waited between submission and execution."""
        if not self.items:
            return 0.0
        return sum(item.queue_seconds for item in self.items) / len(self.items)

    @property
    def queue_seconds_max(self) -> float:
        """Worst queue wait across the batch."""
        if not self.items:
            return 0.0
        return max(item.queue_seconds for item in self.items)

    def raise_for_errors(self) -> None:
        """Re-raise the first failure (chained), if any run failed."""
        for item in self.items:
            if item.error is not None:
                raise item.error

    def summary(self) -> str:
        succeeded = sum(1 for item in self.items if item.ok)
        return (
            f"{self.backend}: {succeeded}/{len(self.items)} runs ok on "
            f"{self.pool_size} {self.executor} workers in "
            f"{self.wall_seconds:.4f}s wall "
            f"({self.runs_per_second:.1f} runs/sec, mean queue wait "
            f"{self.queue_seconds_mean * 1e3:.1f} ms)"
        )
