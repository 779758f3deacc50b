"""Work sentinels: bytecodes and Python calls per simulated cycle.

A wall-clock bound is decided by the host that runs it; a count of the
interpreter's work is not.  ``sys.settrace`` with ``f_trace_opcodes``
counts every bytecode and every Python-level call of one run of the
bundled ``stack-machine-sieve`` on the compiled backend (the paper's
Figure 5.1 kernel), so a change that adds Python work per simulated cycle
fails here on any host.  The count sees neither work done in C nor
waiting, so it complements the timing gates and replaces none of them.

Bytecode differs between CPython minor versions, so the ceilings hold for
the version that recorded them only, and the test skips on any other.
"""

from __future__ import annotations

import platform
import sys

import pytest

from repro.compiler.compiled import CompiledBackend
from repro.machines.library import get_machine

#: The interpreter whose bytecode the ceilings below were recorded on.
RECORDED_ON = ("CPython", (3, 11))

#: The sieve's demonstration run.
CYCLES = 4000

#: run options -> ceilings on (bytecodes, Python calls) per simulated
#: cycle, a few percent above the generated kernel's counts (recorded on
#: CPython 3.11.7: 431.72 / 1.012 stats off, 609.14 / 1.044 default).
CEILINGS = {
    "stats-off": ({"collect_stats": False}, 445.0, 1.05),
    "default": ({}, 628.0, 1.08),
}


def count_work(call) -> tuple[int, int]:
    """(bytecodes, Python calls) executed by ``call()`` on this thread."""
    opcodes = calls = 0

    def local(frame, event, arg):
        nonlocal opcodes
        if event == "opcode":
            opcodes += 1
        return local

    def start(frame, event, arg):
        nonlocal calls
        calls += 1
        frame.f_trace_opcodes = True
        return local

    previous = sys.gettrace()
    sys.settrace(start)
    try:
        call()
    finally:
        sys.settrace(previous)
    return opcodes, calls


@pytest.mark.skipif(
    (platform.python_implementation(), sys.version_info[:2]) != RECORDED_ON,
    reason="bytecode counts were recorded on CPython "
    f"{'.'.join(map(str, RECORDED_ON[1]))}",
)
@pytest.mark.parametrize("run", list(CEILINGS))
def test_sieve_work_per_cycle(run):
    options, max_bytecodes, max_calls = CEILINGS[run]
    prepared = CompiledBackend(cache=False).prepare(
        get_machine("stack-machine-sieve").build())
    # the first run byte-compiles its entry point: preparation, not work
    prepared.run(cycles=CYCLES, **options)
    opcodes, calls = count_work(
        lambda: prepared.run(cycles=CYCLES, **options))
    assert opcodes / CYCLES <= max_bytecodes, (
        f"{opcodes / CYCLES:.2f} bytecodes per cycle")
    assert calls / CYCLES <= max_calls, f"{calls / CYCLES:.3f} calls per cycle"
