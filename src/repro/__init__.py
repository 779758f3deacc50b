"""Reproduction of ASIM II — architecture simulation with a register transfer language.

The package is organised around the paper's two systems and their substrate:

* :mod:`repro.rtl` — the specification language (ALU / selector / memory
  primitives, expressions, parser, dependency analysis);
* :mod:`repro.interp` — the ASIM-style table interpreter (baseline);
* :mod:`repro.compiler` — the ASIM II-style compiler generating Python (and
  Pascal, for fidelity) simulators;
* :mod:`repro.core` — the public ``Simulator`` facade, I/O, tracing,
  statistics and cross-backend comparison;
* :mod:`repro.isa` — ISAs, assemblers and instruction-set-level simulators;
* :mod:`repro.machines` — bundled example machines (counter, stack machine
  running the Sieve of Eratosthenes, the Appendix-F tiny computer, ...);
* :mod:`repro.synth` — hardware construction (netlist and parts list);
* :mod:`repro.analysis` — fault injection, profiling and equivalence checks;
* :mod:`repro.serving` — batch/parallel serving: one cached prepare
  artifact fanned out over many concurrent runs on one of two execution
  strategies — serial (inline), or a true multi-core process pool (the
  lowered program ships to workers once; the persistent artifact cache
  makes their cold start nearly free), each with optional lane groups —
  plus an asyncio front-end and the long-lived HTTP server (``repro
  serve``): warm pools kept across client requests behind a JSON API,
  with startup garbage collection of the artifact cache (see
  ``docs/api-reference.md`` / ``docs/serving.md``).
"""

# repro.core must initialise before repro.compiler: the comparison module
# (loaded by repro.core) pulls the backends in, and they in turn import the
# already-loaded repro.core submodules.
from repro.core.comparison import compare_all_backends, compare_backends
from repro.core.iosystem import QueueIO, StreamIO
from repro.core.results import SimulationResult
from repro.core.simulator import BACKEND_NAMES, Simulator, simulate
from repro.core.trace import TraceOptions
from repro.compiler.cache import clear_prepare_cache, prepare_cache_stats
from repro.compiler.specopt import SpecOptPasses, SpecOptReport, optimize_spec
from repro.compiler.threaded import ThreadedBackend
from repro.rtl.builder import SpecBuilder
from repro.rtl.parser import parse_spec, parse_spec_file
from repro.rtl.spec import Specification
from repro.serving import (
    EXECUTOR_NAMES,
    BatchRequest,
    BatchResult,
    RunRequest,
    SimulationPool,
    SimulationServer,
    async_run_batch,
    run_batch,
)

__version__ = "1.10.0"

__all__ = [
    "BACKEND_NAMES",
    "EXECUTOR_NAMES",
    "BatchRequest",
    "BatchResult",
    "RunRequest",
    "SimulationPool",
    "SimulationServer",
    "async_run_batch",
    "run_batch",
    "compare_all_backends",
    "compare_backends",
    "QueueIO",
    "StreamIO",
    "SimulationResult",
    "Simulator",
    "simulate",
    "ThreadedBackend",
    "TraceOptions",
    "SpecBuilder",
    "SpecOptPasses",
    "SpecOptReport",
    "optimize_spec",
    "parse_spec",
    "parse_spec_file",
    "prepare_cache_stats",
    "clear_prepare_cache",
    "Specification",
    "__version__",
]
