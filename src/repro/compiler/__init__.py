"""ASIM II-style compilation: specification -> simulator program.

Three layers live here: the paper's code generators (Python and Pascal),
the threaded-code backend (closures over pre-bound locals — the middle
point between interpreting and compiling), and the prepare cache shared
by the backends.
"""

from repro.compiler.cache import (
    CacheStats,
    GLOBAL_PREPARE_CACHE,
    PrepareCache,
    clear_prepare_cache,
    prepare_cache_stats,
    spec_fingerprint,
)
from repro.compiler.codegen_pascal import PascalCodeGenerator, generate_pascal
from repro.compiler.codegen_python import (
    PythonCodeGenerator,
    generate_program_python,
    generate_python,
)
from repro.compiler.compiled import CompiledBackend, CompiledSimulation, compile_spec
from repro.compiler.optimizer import (
    CodegenOptions,
    OptimizationReport,
    analyze_specification,
)
from repro.compiler.threaded import ThreadedBackend, ThreadedSimulation, thread_spec

__all__ = [
    "PascalCodeGenerator",
    "generate_pascal",
    "PythonCodeGenerator",
    "generate_program_python",
    "generate_python",
    "CompiledBackend",
    "CompiledSimulation",
    "compile_spec",
    "ThreadedBackend",
    "ThreadedSimulation",
    "thread_spec",
    "CodegenOptions",
    "OptimizationReport",
    "analyze_specification",
    "CacheStats",
    "GLOBAL_PREPARE_CACHE",
    "PrepareCache",
    "clear_prepare_cache",
    "prepare_cache_stats",
    "spec_fingerprint",
]
