"""Simulation statistics.

Section 1.4 of the paper: "the register transfer execution will typically
produce statistics about the actual simulation, such as execution cycles
required, memory accesses, and other related information."  The
:class:`SimulationStats` object collects exactly that: cycle counts,
per-memory access counts broken down by operation, component evaluation
counts and selector/ALU activity.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field


@dataclass
class MemoryStats:
    """Access counts for one memory component."""

    reads: int = 0
    writes: int = 0
    inputs: int = 0
    outputs: int = 0
    #: distinct addresses touched (for coverage-style reporting)
    addresses_touched: set[int] = field(default_factory=set)

    @property
    def total_accesses(self) -> int:
        return self.reads + self.writes + self.inputs + self.outputs

    def record(self, operation: int, address: int) -> None:
        op = operation & 3
        if op == 0:
            self.reads += 1
        elif op == 1:
            self.writes += 1
        elif op == 2:
            self.inputs += 1
        else:
            self.outputs += 1
        self.addresses_touched.add(address)


@dataclass
class SimulationStats:
    """Aggregated statistics for one simulation run."""

    cycles: int = 0
    component_evaluations: int = 0
    memories: dict[str, MemoryStats] = field(default_factory=dict)
    #: how many times each ALU function code was evaluated
    alu_function_usage: Counter = field(default_factory=Counter)
    #: (selector name -> Counter of case indices taken)
    selector_case_usage: dict[str, Counter] = field(default_factory=dict)

    # -- recording -------------------------------------------------------------

    def record_cycle(self) -> None:
        self.cycles += 1

    def record_evaluation(self, count: int = 1) -> None:
        self.component_evaluations += count

    # the recorders run once per component per cycle on the hook paths, so
    # they build a fresh MemoryStats/Counter only when the key is missing

    def record_memory_access(self, memory: str, operation: int, address: int) -> None:
        self.memory(memory).record(operation, address)

    def record_alu_function(self, funct: int) -> None:
        self.alu_function_usage[funct] += 1

    def record_selector_case(self, selector: str, index: int) -> None:
        cases = self.selector_case_usage.get(selector)
        if cases is None:
            cases = self.selector_case_usage[selector] = Counter()
        cases[index] += 1

    # -- comparison --------------------------------------------------------------

    def breakdown(self) -> dict[str, object]:
        """Every field as plain data, for exact comparison.

        The usage ``Counter`` objects become plain dicts: ``Counter``
        equality treats a missing key as zero, but a zero-count key is
        visible (profiling reports list it), so it must count as a
        difference.
        """
        return {
            "cycles": self.cycles,
            "component_evaluations": self.component_evaluations,
            "memories": self.memories,
            "alu_function_usage": dict(self.alu_function_usage),
            "selector_case_usage": {
                name: dict(cases)
                for name, cases in self.selector_case_usage.items()
            },
        }

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SimulationStats):
            return NotImplemented
        return self.breakdown() == other.breakdown()

    # -- queries -----------------------------------------------------------------

    def memory(self, name: str) -> MemoryStats:
        stats = self.memories.get(name)
        if stats is None:
            stats = self.memories[name] = MemoryStats()
        return stats

    @property
    def total_memory_accesses(self) -> int:
        return sum(stats.total_accesses for stats in self.memories.values())

    @property
    def total_memory_writes(self) -> int:
        return sum(stats.writes for stats in self.memories.values())

    @property
    def total_memory_reads(self) -> int:
        return sum(stats.reads for stats in self.memories.values())

    def summary(self) -> str:
        """Multi-line human readable report (used by examples)."""
        lines = [
            f"cycles executed          : {self.cycles}",
            f"component evaluations    : {self.component_evaluations}",
            f"total memory accesses    : {self.total_memory_accesses}",
        ]
        for name in sorted(self.memories):
            stats = self.memories[name]
            lines.append(
                f"  {name:<12s} reads={stats.reads} writes={stats.writes} "
                f"inputs={stats.inputs} outputs={stats.outputs} "
                f"cells touched={len(stats.addresses_touched)}"
            )
        return "\n".join(lines)
