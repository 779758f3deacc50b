"""Cross-backend equivalence checking.

The central claim of the paper is that the compiled simulator produces "the
same final output" as the interpreted one, only faster.  This module runs a
specification on both backends with identical inputs and compares every
observable: final component values, memory contents, memory-mapped outputs
and (optionally) the per-cycle trace.  The equivalence tests and several
benchmarks are built on it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.compiler.compiled import CompiledBackend
from repro.compiler.optimizer import CodegenOptions
from repro.core.backend import Backend, ValueOverride
from repro.core.iosystem import QueueIO
from repro.core.results import SimulationResult
from repro.core.trace import TraceOptions
from repro.errors import BackendError
from repro.interp.interpreter import InterpreterBackend
from repro.rtl.spec import Specification


@dataclass
class ComparisonResult:
    """The outcome of running one specification on two backends."""

    reference: SimulationResult
    candidate: SimulationResult
    mismatches: list[str] = field(default_factory=list)

    @property
    def equivalent(self) -> bool:
        return not self.mismatches

    @property
    def speedup(self) -> float:
        """Reference run time divided by candidate run time (>1 = faster)."""
        if self.candidate.run_seconds == 0:
            return float("inf")
        return self.reference.run_seconds / self.candidate.run_seconds

    def summary(self) -> str:
        status = "EQUIVALENT" if self.equivalent else "MISMATCH"
        return (
            f"{status}: {self.reference.backend} {self.reference.run_seconds:.4f}s "
            f"vs {self.candidate.backend} {self.candidate.run_seconds:.4f}s "
            f"(speedup {self.speedup:.1f}x)"
        )


def compare_results(
    reference: SimulationResult,
    candidate: SimulationResult,
    compare_trace: bool = False,
    compare_stats: bool = False,
) -> list[str]:
    """Mismatch descriptions between two results (empty = bit-identical).

    The canonical observable comparison — final values, memory contents,
    output events, and optionally the traces and statistics — used by the
    equivalence sweeps and the CLI's ``serve-batch --check``.
    ``compare_stats`` asserts the instrumentation-layer parity: identical
    cycle/evaluation counts and identical per-ALU/selector/memory
    breakdowns, compared exactly (a zero-count key differs from an absent
    one; see :meth:`SimulationStats.breakdown`).  Every backend runs one
    program per specification, so statistics agree across backends for
    the same specification, inputs and ``override``.
    """
    return _compare_results(reference, candidate, compare_trace,
                            compare_stats)


def _compare_results(
    reference: SimulationResult,
    candidate: SimulationResult,
    compare_trace: bool,
    compare_stats: bool = False,
) -> list[str]:
    mismatches: list[str] = []
    for name, value in reference.final_values.items():
        other = candidate.final_values.get(name)
        if other != value:
            mismatches.append(
                f"final value of '{name}': {value} (reference) != {other} (candidate)"
            )
    for name, cells in reference.memory_contents.items():
        other_cells = candidate.memory_contents.get(name)
        if other_cells != cells:
            mismatches.append(f"memory contents of '{name}' differ")
    ref_outputs = [(e.address, e.value) for e in reference.outputs]
    cand_outputs = [(e.address, e.value) for e in candidate.outputs]
    if ref_outputs != cand_outputs:
        mismatches.append(
            f"outputs differ: {len(ref_outputs)} reference events vs "
            f"{len(cand_outputs)} candidate events"
        )
    if compare_trace:
        ref_cycles = [(t.cycle, t.values) for t in reference.trace.cycles]
        cand_cycles = [(t.cycle, t.values) for t in candidate.trace.cycles]
        if ref_cycles != cand_cycles:
            mismatches.append("per-cycle traces differ")
        ref_accesses = [
            (a.cycle, a.memory, a.kind, a.address, a.value)
            for a in reference.trace.accesses
        ]
        cand_accesses = [
            (a.cycle, a.memory, a.kind, a.address, a.value)
            for a in candidate.trace.accesses
        ]
        if ref_accesses != cand_accesses:
            mismatches.append("memory access traces differ")
    if compare_stats and reference.stats != candidate.stats:
        ref_fields = reference.stats.breakdown()
        cand_fields = candidate.stats.breakdown()
        differing = [
            name for name in ref_fields if ref_fields[name] != cand_fields[name]
        ]
        mismatches.append("statistics differ: " + ", ".join(differing))
    return mismatches


def compare_backends(
    spec: Specification,
    cycles: int | None = None,
    inputs: Sequence[int | str] = (),
    reference: Backend | None = None,
    candidate: Backend | None = None,
    trace: bool = True,
    codegen_options: CodegenOptions | None = None,
    override: ValueOverride | None = None,
    compare_stats: bool = False,
) -> ComparisonResult:
    """Run *spec* on two backends with identical inputs and compare.

    By default the reference is the ASIM-style interpreter and the candidate
    the ASIM II-style compiled simulator — the comparison made throughout
    Chapter 5 of the paper.  ``override`` injects the same per-cycle fault
    hook into both runs; the backends' capability flags are consulted first
    so an unsupporting backend fails with a clear error before anything
    runs.
    """
    reference_backend = reference or InterpreterBackend()
    candidate_backend = candidate or CompiledBackend(codegen_options)
    if override is not None:
        for backend in (reference_backend, candidate_backend):
            if not getattr(backend, "supports_override", True):
                raise BackendError(
                    f"backend '{backend.name}' does not support per-cycle "
                    "value overrides (supports_override is False)"
                )
    trace_options = (
        TraceOptions(trace_cycles=True, trace_memory_accesses=True)
        if trace
        else TraceOptions.disabled()
    )
    reference_result = reference_backend.run(
        spec, cycles=cycles, io=QueueIO(inputs, strict=False),
        trace=trace_options, override=override,
    )
    candidate_result = candidate_backend.run(
        spec, cycles=cycles, io=QueueIO(inputs, strict=False),
        trace=trace_options, override=override,
    )
    mismatches = _compare_results(reference_result, candidate_result, trace,
                                  compare_stats)
    return ComparisonResult(
        reference=reference_result,
        candidate=candidate_result,
        mismatches=mismatches,
    )


def compare_all_backends(
    spec: Specification,
    cycles: int | None = None,
    inputs: Sequence[int | str] = (),
    trace: bool = True,
    override: ValueOverride | None = None,
    compare_stats: bool = False,
) -> dict[str, ComparisonResult]:
    """Run *spec* on every registered backend against the interpreter.

    The ASIM-style interpreter is the reference; every other registered
    backend, at its defaults, is compared to it with identical inputs.
    ``override`` injects the same fault hook everywhere and
    ``compare_stats`` additionally requires identical statistics — the
    instrumentation-layer parity check.
    """
    from repro.core.simulator import BACKEND_NAMES, make_backend

    # derive the candidate list from the registry so a newly registered
    # backend cannot silently fall out of the equivalence sweep
    candidates: dict[str, Backend] = {
        name: make_backend(name)
        for name in BACKEND_NAMES
        if name != "interpreter"
    }
    return {
        name: compare_backends(
            spec, cycles=cycles, inputs=inputs, candidate=candidate,
            trace=trace, override=override, compare_stats=compare_stats,
        )
        for name, candidate in candidates.items()
    }


def assert_equivalent(
    spec: Specification,
    cycles: int | None = None,
    inputs: Iterable[int | str] = (),
) -> ComparisonResult:
    """Raise ``AssertionError`` if the two backends disagree on *spec*."""
    result = compare_backends(spec, cycles=cycles, inputs=tuple(inputs))
    if not result.equivalent:
        raise AssertionError(
            "backends disagree:\n  " + "\n  ".join(result.mismatches)
        )
    return result


def assert_all_backends_equivalent(
    spec: Specification,
    cycles: int | None = None,
    inputs: Iterable[int | str] = (),
    override: ValueOverride | None = None,
    compare_stats: bool = False,
) -> dict[str, ComparisonResult]:
    """Raise ``AssertionError`` unless every backend agrees on *spec*."""
    results = compare_all_backends(
        spec, cycles=cycles, inputs=tuple(inputs),
        override=override, compare_stats=compare_stats,
    )
    problems = [
        f"{name}: {mismatch}"
        for name, result in results.items()
        for mismatch in result.mismatches
    ]
    if problems:
        raise AssertionError("backends disagree:\n  " + "\n  ".join(problems))
    return results
