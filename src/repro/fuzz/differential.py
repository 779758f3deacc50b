"""Differential execution: one spec, every backend × executor.

The equivalence matrix that guards the lowering pipeline
(``tests/integration/test_backend_equivalence.py``) asserts bit-identity
over the bundled machines; this module is the same assertion as a
*function over arbitrary specifications*, so the fuzzer can apply it to
thousands of generated machines:

* **sequential phase** — the interpreter is the reference; every backend
  runs with identical inputs and full instrumentation.  Results, traces
  and statistics must match the reference bit for bit.
* **executor phase** — every backend again, but through a
  :class:`~repro.serving.SimulationPool` on each executor configuration
  (by default :data:`FUZZ_EXECUTORS`: serial, serial with lanes,
  process).  Each pooled run must be bit-identical — results, traces
  *and statistics* — to the sequential run of the same backend.  Lane
  groups run untraced by design (tracing falls back to the scalar path),
  so a configuration whose executor name resolves to a lane width drops
  tracing from the request and skips trace comparison; statistics are
  trace-independent, which keeps the traced sequential run a valid
  reference.  A stats-off pair rides along to exercise the compiled
  backend's generated ``simulate_lanes`` entry point.

A failure is a :class:`DifferentialFailure` naming the configuration and
the mismatches; :class:`DifferentialReport` aggregates them per spec.  A
run that *raises* is also differential material: if the reference raises,
every configuration — sequential and pooled, lanes included — must raise
the same error type, cycle and message (a machine that breaks must break
identically everywhere).

:func:`ir_fingerprint` hashes the pickled lowered
:class:`~repro.lowering.program.CycleProgram`, giving the fuzzer a strict
"same IR" check for JSON round-trips on top of the textual
:func:`~repro.compiler.cache.spec_fingerprint`.
"""

from __future__ import annotations

import hashlib
import pickle
from dataclasses import dataclass, field, replace
from typing import Sequence

from repro.compiler.cache import spec_fingerprint
from repro.compiler.compiled import CompiledBackend
from repro.compiler.threaded import ThreadedBackend
from repro.core.backend import Backend
from repro.core.comparison import compare_results
from repro.core.iosystem import QueueIO
from repro.core.results import SimulationResult
from repro.core.trace import TraceOptions
from repro.errors import SimulationError
from repro.interp.interpreter import InterpreterBackend
from repro.lowering import lower
from repro.rtl.parser import parse_spec
from repro.rtl.spec import Specification
from repro.rtl.writer import spec_to_text
from repro.serving.batch import RunRequest
from repro.serving.executor import resolve_executor
from repro.serving.pool import SimulationPool

#: Reference configuration label.
REFERENCE_CONFIG = "interpreter"

#: Default executor configurations of the pooled phase: serial, serial
#: with lane groups (the ``lane`` alias) and process.
FUZZ_EXECUTORS = ("serial", "lane", "process")


def backend_matrix() -> list[tuple[str, "type[Backend]"]]:
    """The (label, backend factory) configurations under test."""
    return [
        ("interpreter", InterpreterBackend),
        ("threaded", ThreadedBackend),
        ("compiled", CompiledBackend),
    ]


def ir_fingerprint(spec: Specification) -> str:
    """Hash of the pickled lowered IR (the artifact every backend consumes).

    Two specifications with equal IR fingerprints lower to byte-identical
    :class:`~repro.lowering.program.CycleProgram` payloads — the strict
    form of "the PrepareCache / PoolRegistry key survives a round trip".  The
    specification is canonicalised through its text form first (exactly the
    normalisation :func:`~repro.compiler.cache.spec_fingerprint` hashes),
    so presentation metadata — expression source strings, the spec's
    ``source_name`` — cannot leak into the hash while any semantic
    difference, or any nondeterminism in lowering itself, still shows.
    """
    canonical = parse_spec(spec_to_text(spec))
    return hashlib.sha256(pickle.dumps(lower(canonical))).hexdigest()


@dataclass(frozen=True)
class DifferentialFailure:
    """One configuration that disagreed with its reference."""

    config: str
    mismatches: tuple[str, ...]

    def describe(self) -> str:
        return f"[{self.config}] " + "; ".join(self.mismatches)


@dataclass
class DifferentialReport:
    """Everything the differential runner learned about one specification."""

    fingerprint: str
    cycles: int
    inputs: tuple[int, ...]
    #: configurations executed (sequential + pooled)
    configs_run: int = 0
    failures: list[DifferentialFailure] = field(default_factory=list)
    #: the error type the reference raised, or ``None`` for a clean run
    reference_error: str | None = None

    @property
    def ok(self) -> bool:
        return not self.failures

    def describe(self) -> str:
        if self.ok:
            return (
                f"ok: {self.configs_run} configurations bit-identical "
                f"({self.cycles} cycles)"
            )
        lines = [failure.describe() for failure in self.failures]
        return f"{len(self.failures)} mismatching configuration(s): " + \
            " | ".join(lines)


_TRACE = TraceOptions(trace_cycles=True, trace_memory_accesses=True)


def _sequential_run(
    backend: Backend, spec: Specification, cycles: int,
    inputs: Sequence[int],
) -> "SimulationResult | SimulationError":
    try:
        return backend.run(
            spec, cycles=cycles, io=QueueIO(inputs, strict=False),
            trace=_TRACE,
        )
    except SimulationError as exc:
        return exc


def _error_signature(error: SimulationError) -> str:
    """What a raised run must reproduce: its type, cycle and message."""
    return f"{type(error).__name__} at cycle {error.cycle}: {error}"


def _mismatches(
    expected: "SimulationResult | SimulationError",
    outcome: "SimulationResult | Exception",
    compare_trace: bool,
    compare_stats: bool,
) -> list[str]:
    """How *outcome* (a result or the error a run raised) differs from
    *expected*; empty when they agree."""
    if isinstance(expected, SimulationError):
        if not isinstance(outcome, SimulationError):
            got = (type(outcome).__name__ if isinstance(outcome, Exception)
                   else "a clean run")
            return [f"reference raised {type(expected).__name__} but this "
                    f"configuration produced {got}"]
        if _error_signature(outcome) != _error_signature(expected):
            return [f"raised {_error_signature(outcome)!r} but the "
                    f"reference raised {_error_signature(expected)!r}"]
        return []
    if isinstance(outcome, Exception):
        return [f"raised {type(outcome).__name__}: {outcome} but the "
                "reference ran cleanly"]
    return compare_results(expected, outcome, compare_trace=compare_trace,
                           compare_stats=compare_stats)


def run_differential(
    spec: Specification,
    cycles: int,
    inputs: Sequence[int] = (),
    executors: Sequence[str] = FUZZ_EXECUTORS,
    pool_workers: int = 2,
    runs_per_pool: int = 2,
    matrix: "Sequence[tuple[str, type[Backend]]] | None" = None,
) -> DifferentialReport:
    """Run *spec* through the full backend × executor matrix.

    Returns a report; never raises on a mismatch (raising is the caller's
    policy decision — the fuzz session shrinks and persists instead).
    *matrix* overrides :func:`backend_matrix`; the sabotage tests inject a
    deliberately corrupted backend this way to prove mismatches are caught,
    shrunk and persisted.
    """
    if matrix is None:
        matrix = backend_matrix()
    report = DifferentialReport(
        fingerprint=spec_fingerprint(spec),
        cycles=cycles,
        inputs=tuple(inputs),
    )

    # -- sequential phase ---------------------------------------------------
    sequential: dict[str, SimulationResult | SimulationError] = {}
    for label, factory in matrix:
        sequential[label] = _sequential_run(factory(), spec, cycles, inputs)
        report.configs_run += 1

    reference = sequential[REFERENCE_CONFIG]
    if isinstance(reference, SimulationError):
        report.reference_error = type(reference).__name__
    for label, outcome in sequential.items():
        if label == REFERENCE_CONFIG:
            continue
        mismatches = _mismatches(reference, outcome, compare_trace=True,
                                 compare_stats=True)
        if mismatches:
            report.failures.append(DifferentialFailure(
                config=label, mismatches=tuple(mismatches)
            ))

    # -- executor phase -----------------------------------------------------
    request = RunRequest(
        cycles=cycles, inputs=tuple(inputs), trace=_TRACE,
        collect_stats=True,
    )
    for executor in executors:
        lanes = resolve_executor(executor)[1] is not None
        if lanes:
            # untraced lane-eligible requests; the stats-off pair drives
            # the compiled backend's generated lane entry point
            requests = (
                [replace(request, trace=False)] * runs_per_pool
                + [replace(request, trace=False, collect_stats=False)] * 2
            )
        else:
            requests = [request] * runs_per_pool
        for label, factory in matrix:
            config = f"{label}@{executor}"
            expected = sequential[label]
            if isinstance(reference, SimulationError):
                # every pooled run must raise the reference's error
                expected = reference
            elif isinstance(expected, SimulationError):  # pragma: no cover
                continue  # already a sequential-phase failure
            try:
                with SimulationPool(
                    spec,
                    backend=factory(),
                    executor=executor,
                    max_workers=pool_workers,
                ) as pool:
                    batch = pool.run_batch(requests)
            except Exception as exc:  # noqa: BLE001 - reported, not raised
                report.failures.append(DifferentialFailure(
                    config=config,
                    mismatches=(f"pool failed: {type(exc).__name__}: {exc}",),
                ))
                continue
            report.configs_run += 1
            for item in batch.items:
                mismatches = _mismatches(
                    expected, item.result if item.ok else item.error,
                    compare_trace=not lanes,
                    compare_stats=item.request.collect_stats,
                )
                if mismatches:
                    report.failures.append(DifferentialFailure(
                        config=f"{config}#{item.index}",
                        mismatches=tuple(mismatches),
                    ))
    return report
