"""Design-verification helpers built on cross-backend comparison.

Chapter 5 of the paper claims the compiled simulator "maintain[s] the same
functionality" as the interpreter.  :func:`verify_library` sweeps every
bundled machine through :func:`repro.core.comparison.compare_backends` and
reports the outcome, and :func:`fault_detection_experiment` demonstrates the
fault-injection methodology of Section 2.3.2: a stuck-at fault is considered
*detected* when the faulty design's outputs differ from the good design's.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.analysis.faults import inject_stuck_at
from repro.core.comparison import ComparisonResult, compare_backends
from repro.core.simulator import DEFAULT_BACKEND, Simulator
from repro.machines.library import all_machines
from repro.rtl.spec import Specification


@dataclass
class LibraryVerification:
    """Equivalence results for every bundled machine."""

    results: dict[str, ComparisonResult] = field(default_factory=dict)

    @property
    def all_equivalent(self) -> bool:
        return all(result.equivalent for result in self.results.values())

    def render(self) -> str:
        lines = ["backend equivalence across the machine library:"]
        for name, result in self.results.items():
            lines.append(f"  {name:<22s} {result.summary()}")
        return "\n".join(lines)


def verify_library(max_cycles: int = 400) -> LibraryVerification:
    """Run every bundled machine on both backends and compare."""
    verification = LibraryVerification()
    for entry in all_machines():
        spec = entry.build()
        cycles = min(entry.demo_cycles, max_cycles)
        verification.results[entry.name] = compare_backends(spec, cycles=cycles)
    return verification


@dataclass(frozen=True)
class FaultDetection:
    """Outcome of simulating one injected fault."""

    component: str
    stuck_value: int
    detected: bool
    good_outputs: tuple[int, ...]
    faulty_outputs: tuple[int, ...]


def fault_detection_experiment(
    spec: Specification,
    components: Sequence[str],
    cycles: int,
    stuck_value: int = 0,
    backend: str = DEFAULT_BACKEND,
) -> list[FaultDetection]:
    """Inject a stuck-at fault on each component and check the outputs change.

    Returns one :class:`FaultDetection` per component; ``detected`` is True
    when the memory-mapped output stream differs from the fault-free run —
    the observable criterion an engineer would use on a prototype.
    """
    good = Simulator(spec, backend=backend).run(cycles=cycles)
    good_outputs = tuple(good.output_values())
    detections = []
    for name in components:
        faulty_spec = inject_stuck_at(spec, name, stuck_value)
        faulty = Simulator(faulty_spec, backend=backend).run(cycles=cycles)
        faulty_outputs = tuple(faulty.output_values())
        detections.append(
            FaultDetection(
                component=name,
                stuck_value=stuck_value,
                detected=faulty_outputs != good_outputs,
                good_outputs=good_outputs,
                faulty_outputs=faulty_outputs,
            )
        )
    return detections
