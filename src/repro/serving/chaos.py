"""Fault-injection shims for exercising the serving resilience layer.

The paper's methodology is to inject faults into a simulated machine and
observe that behavior stays well-defined; this module applies the same
idea to the serving stack itself.  Each shim is a picklable, module-level
callable usable as a :class:`RunRequest` ``override`` hook — the one
per-cycle call site every backend shares — so the same fault travels
unchanged through the serial and process executors (including a
fork/spawn pickle round-trip into pool workers, which classes defined in
a test module would not survive).

* :class:`KillWorker` — terminates the executing process abruptly
  (``os._exit``), simulating an OOM-killed or segfaulted pool worker.
  Drives the process executor's ``BrokenProcessPool`` recovery path:
  respawn, retry, poisoned-request quarantine.
* :class:`SleepyOverride` — sleeps a little on every hook call, so a run
  overshoots its deadline while still executing cooperatively.  Drives
  the instrumentation layer's cooperative deadline check.
* :class:`HangOverride` — one long blocking sleep, simulating a worker
  stuck in a single call the cooperative check can never interrupt.
  Drives the process executor's wall-clock backstop.

With the fleet layer the chaos surface grew from pool workers to whole
server processes: :func:`hard_kill` is the ``kill -9`` a supervisor must
survive, and :func:`await_condition` is the polling primitive the fleet
scenarios use to time their kills (e.g. "once the batch has *arrived* at
the home node, kill it") instead of sleeping and hoping.

These shims live in the package (rather than the chaos test suite) so
they import cleanly inside worker processes; they are test/ops tooling,
not part of the serving API surface.
"""

from __future__ import annotations

import os
import signal
import time
from dataclasses import dataclass, field
from typing import Callable


def await_condition(
    predicate: Callable[[], bool],
    timeout: float = 10.0,
    interval: float = 0.02,
    message: str = "condition",
) -> None:
    """Poll *predicate* until it holds or *timeout* elapses.

    The chaos scenarios are races by construction (kill a node while a
    batch is in flight); this keeps them deterministic by synchronising
    on observable state transitions rather than wall-clock sleeps.
    """
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(interval)
    raise TimeoutError(f"{message}: not reached within {timeout:g}s")


def hard_kill(pid: int) -> None:
    """``SIGKILL`` a process — the un-catchable death (OOM killer,
    ``kill -9``) that exercises crash *detection*, never graceful paths."""
    os.kill(pid, signal.SIGKILL)


@dataclass(frozen=True)
class KillWorker:
    """An override hook that kills the executing process.

    ``spare_pid`` guards the caller: the shim refuses to kill the process
    it was constructed in (construct it in the test/parent process), so
    the serial executor running the same request raises a normal,
    per-item-capturable error instead of taking the suite down.
    ``after_cycle`` delays the kill so a few cycles complete first,
    placing the death mid-run rather than at cycle zero.
    """

    spare_pid: int
    exit_code: int = 13
    after_cycle: int = 0

    def __call__(self, name: str, value: int, cycle: int) -> int:
        if cycle >= self.after_cycle:
            if os.getpid() == self.spare_pid:
                raise RuntimeError(
                    "KillWorker refused to kill the spared process "
                    f"(pid {self.spare_pid}); run this request on the "
                    "process executor to observe a worker crash"
                )
            os._exit(self.exit_code)
        return value


@dataclass(frozen=True)
class SleepyOverride:
    """An override hook that dawdles: ``seconds_per_call`` of sleep on
    every component evaluation, guaranteeing a deadline overrun that the
    cooperative check interrupts between evaluations."""

    seconds_per_call: float = 0.005

    def __call__(self, name: str, value: int, cycle: int) -> int:
        time.sleep(self.seconds_per_call)
        return value


@dataclass
class HangOverride:
    """An override hook that blocks hard: one uninterruptible
    ``sleep_seconds`` sleep on its first call, simulating a run stuck
    inside a single blocking operation.  Only the process executor's
    wall-clock backstop can bound this — never run it on the serial
    executor without a plan for the stuck thread.

    The sleep fires once per process (the flag resets with the pickle
    round-trip into a worker): after it returns, the run proceeds at
    normal speed, so a cooperative deadline set alongside can still
    abort it and the abandoned worker does not stay wedged forever.
    """

    sleep_seconds: float = 60.0
    _slept: bool = field(default=False, repr=False, compare=False)

    def __call__(self, name: str, value: int, cycle: int) -> int:
        if not self._slept:
            self._slept = True
            time.sleep(self.sleep_seconds)
        return value
