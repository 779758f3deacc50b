"""Differential fuzzing for the simulator stack.

The equivalence matrix proves the three backends agree on the bundled
machines; this package proves they agree on machines nobody wrote.  A fuzz
session (:func:`run_fuzz_session`) draws seeded random specifications from
:mod:`repro.fuzz.generator` and, for each one:

1. **round-trips** it through the interchange JSON format, asserting that
   both the textual fingerprint (:func:`~repro.compiler.cache.spec_fingerprint`)
   and the lowered-IR fingerprint (:func:`~repro.fuzz.differential.ir_fingerprint`)
   survive unchanged;
2. **runs the differential matrix** (:mod:`repro.fuzz.differential`):
   every backend × executor: each backend sequentially and through
   :class:`~repro.serving.SimulationPool` on serial, serial with lanes
   and process, asserting bit-identical results, traces and statistics;
3. on a mismatch, **shrinks** the machine (:mod:`repro.fuzz.shrink`) to a
   1-minimal reproducer and **persists** it (:mod:`repro.fuzz.corpus`) so
   it becomes a regression test.

``repro fuzz --seed N --count K`` is the CLI face of this module; the
committed corpus under ``tests/fuzz/corpus/`` is replayed by the test
suite on every run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

from repro.compiler.cache import spec_fingerprint
from repro.fuzz.corpus import (
    FuzzCase,
    case_from_document,
    case_to_document,
    load_case,
    load_corpus,
    save_case,
)
from repro.fuzz.differential import (
    FUZZ_EXECUTORS,
    DifferentialFailure,
    DifferentialReport,
    ir_fingerprint,
    run_differential,
)
from repro.fuzz.generator import (
    GeneratedMachine,
    GeneratorConfig,
    generate_corpus,
    generate_machine,
)
from repro.fuzz.shrink import ShrinkResult, shrink_case
from repro.rtl.interchange import spec_from_json, spec_to_json

__all__ = [
    "DifferentialFailure",
    "DifferentialReport",
    "FUZZ_EXECUTORS",
    "FuzzCase",
    "FuzzCaseResult",
    "FuzzSessionReport",
    "GeneratedMachine",
    "GeneratorConfig",
    "ShrinkResult",
    "case_from_document",
    "case_to_document",
    "generate_corpus",
    "generate_machine",
    "ir_fingerprint",
    "load_case",
    "load_corpus",
    "run_differential",
    "run_fuzz_session",
    "save_case",
    "shrink_case",
]


@dataclass(frozen=True)
class FuzzCaseResult:
    """The outcome of fuzzing one generated machine."""

    seed: int
    fingerprint: str
    #: ``ok`` | ``roundtrip`` (JSON round trip broke) | ``differential``
    status: str
    detail: str = ""
    report: DifferentialReport | None = None
    shrink: ShrinkResult | None = None
    crasher_path: Path | None = None

    @property
    def ok(self) -> bool:
        return self.status == "ok"


@dataclass
class FuzzSessionReport:
    """Aggregate outcome of one fuzz session."""

    seed: int
    count: int
    results: list[FuzzCaseResult] = field(default_factory=list)

    @property
    def failures(self) -> list[FuzzCaseResult]:
        return [result for result in self.results if not result.ok]

    @property
    def ok(self) -> bool:
        return not self.failures

    def describe(self) -> str:
        configs = sum(
            result.report.configs_run
            for result in self.results if result.report is not None
        )
        if self.ok:
            return (
                f"fuzz: {len(self.results)} machines ok "
                f"({configs} configurations, seed {self.seed})"
            )
        lines = [
            f"fuzz: {len(self.failures)}/{len(self.results)} machines "
            f"failed (seed {self.seed})"
        ]
        for result in self.failures:
            lines.append(f"  seed {result.seed} [{result.status}] "
                         f"{result.detail}")
            if result.crasher_path is not None:
                lines.append(f"    reproducer: {result.crasher_path}")
        return "\n".join(lines)


def _failing_executors(report: DifferentialReport) -> tuple[str, ...]:
    """The executor strategies involved in a report's failures.

    Failures in the sequential phase need no executors at all to
    reproduce, which keeps shrink predicates cheap."""
    executors = set()
    for failure in report.failures:
        config = failure.config.split("#", 1)[0]
        if "@" in config:
            executors.add(config.split("@", 1)[1])
    return tuple(sorted(executors))


def run_fuzz_session(
    seed: int,
    count: int,
    config: GeneratorConfig | None = None,
    executors: Sequence[str] = FUZZ_EXECUTORS,
    shrink: bool = True,
    corpus_dir: Path | str | None = None,
    differential: Callable[..., DifferentialReport] = run_differential,
    log: Callable[[str], None] | None = None,
) -> FuzzSessionReport:
    """Fuzz *count* machines derived from *seed*; see the module docstring.

    ``differential`` is injectable so tests can run a sabotaged matrix
    through the full session machinery (mismatch → shrink → corpus).
    """
    session = FuzzSessionReport(seed=seed, count=count)
    for machine in generate_corpus(seed, count, config):
        fingerprint = spec_fingerprint(machine.spec)

        # 1. JSON round trip must preserve both fingerprints exactly
        restored = spec_from_json(spec_to_json(machine.spec))
        if (
            spec_fingerprint(restored) != fingerprint
            or ir_fingerprint(restored) != ir_fingerprint(machine.spec)
        ):
            session.results.append(FuzzCaseResult(
                seed=machine.seed, fingerprint=fingerprint,
                status="roundtrip",
                detail="JSON round trip changed the specification",
            ))
            if log:
                log(f"seed {machine.seed}: ROUND-TRIP MISMATCH")
            continue

        # 2. the differential matrix
        report = differential(
            machine.spec, machine.cycles, machine.inputs,
            executors=executors,
        )
        if report.ok:
            session.results.append(FuzzCaseResult(
                seed=machine.seed, fingerprint=fingerprint, status="ok",
                report=report,
            ))
            continue
        if log:
            log(f"seed {machine.seed}: MISMATCH — {report.describe()}")

        # 3. shrink to a 1-minimal reproducer, then persist it
        case = (machine.spec, machine.cycles, machine.inputs)
        shrink_result = None
        if shrink:
            predicate_executors = _failing_executors(report)

            def still_failing(spec, cycles, inputs):
                return not differential(
                    spec, cycles, inputs, executors=predicate_executors
                ).ok

            shrink_result = shrink_case(
                machine.spec, machine.cycles, machine.inputs, still_failing
            )
            case = (shrink_result.spec, shrink_result.cycles,
                    shrink_result.inputs)
            if log:
                log(f"seed {machine.seed}: {shrink_result.describe()}")

        crasher_path = None
        if corpus_dir is not None:
            crasher_path = save_case(
                corpus_dir, *case,
                meta={
                    "seed": machine.seed,
                    "session_seed": seed,
                    "original_fingerprint": fingerprint,
                    "failure": report.describe(),
                },
            )
            if log:
                log(f"seed {machine.seed}: reproducer saved to "
                    f"{crasher_path}")

        session.results.append(FuzzCaseResult(
            seed=machine.seed, fingerprint=fingerprint,
            status="differential", detail=report.describe(),
            report=report, shrink=shrink_result, crasher_path=crasher_path,
        ))
    return session
