"""The public ``Simulator`` facade.

This is the front door of the library: load a specification (from text, a
file or a :class:`~repro.rtl.builder.SpecBuilder`), pick a backend (the
ASIM-style interpreter or the ASIM II-style compiler) and run it.

>>> from repro import Simulator
>>> SPEC = '''# three bit counter
... count* next wrapped .
... A next 4 count 1
... A wrapped 8 next 7
... M count 0 wrapped 1 1
... .'''
>>> simulator = Simulator.from_text(SPEC, backend="compiled")
>>> result = simulator.run(cycles=10)
>>> result.value("count")
2
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, Union

from repro.compiler.compiled import CompiledBackend
from repro.compiler.optimizer import CodegenOptions
from repro.compiler.threaded import ThreadedBackend
from repro.core.backend import Backend, PreparedSimulation, ValueOverride
from repro.core.iosystem import IOSystem
from repro.core.results import SimulationResult
from repro.core.trace import TraceOptions
from repro.errors import BackendError
from repro.interp.interpreter import InterpreterBackend
from repro.rtl.builder import SpecBuilder
from repro.rtl.parser import parse_spec, parse_spec_file
from repro.rtl.spec import Specification
from repro.rtl.validate import ValidationReport, validate

#: What the ``backend`` argument accepts.
BackendLike = Union[str, Backend]

#: Registered backend names: the paper's two systems plus the threaded-code
#: middle point (closures over pre-bound locals, see repro.compiler.threaded).
BACKEND_NAMES = ("interpreter", "threaded", "compiled")

#: The backend every entry point uses when none is named: the paper's
#: compiled simulator, whose prepare is paid once per warm simulation.
DEFAULT_BACKEND = "compiled"


def make_backend(
    backend: BackendLike = DEFAULT_BACKEND,
    codegen_options: CodegenOptions | None = None,
) -> Backend:
    """Resolve a backend name or instance into a :class:`Backend`."""
    if isinstance(backend, Backend):
        return backend
    if backend == "interpreter":
        return InterpreterBackend()
    if backend == "threaded":
        return ThreadedBackend()
    if backend == "compiled":
        return CompiledBackend(codegen_options)
    raise BackendError(
        f"unknown backend '{backend}'; expected one of {BACKEND_NAMES} "
        "or a Backend instance"
    )


class Simulator:
    """A specification bound to a prepared simulation backend."""

    def __init__(
        self,
        spec: Specification,
        backend: BackendLike = DEFAULT_BACKEND,
        codegen_options: CodegenOptions | None = None,
    ) -> None:
        self._spec = spec
        self._backend = make_backend(backend, codegen_options)
        self._prepared: PreparedSimulation = self._backend.prepare(spec)

    # -- constructors -----------------------------------------------------------

    @classmethod
    def from_text(
        cls,
        source: str,
        backend: BackendLike = DEFAULT_BACKEND,
        codegen_options: CodegenOptions | None = None,
        source_name: str = "<specification>",
    ) -> "Simulator":
        """Parse specification *source* text and prepare it."""
        spec = parse_spec(source, source_name=source_name)
        return cls(spec, backend=backend, codegen_options=codegen_options)

    @classmethod
    def from_file(
        cls,
        path: str | Path,
        backend: BackendLike = DEFAULT_BACKEND,
        codegen_options: CodegenOptions | None = None,
    ) -> "Simulator":
        """Parse a specification file and prepare it."""
        spec = parse_spec_file(path)
        return cls(spec, backend=backend, codegen_options=codegen_options)

    @classmethod
    def from_builder(
        cls,
        builder: SpecBuilder,
        backend: BackendLike = DEFAULT_BACKEND,
        codegen_options: CodegenOptions | None = None,
    ) -> "Simulator":
        """Build the specification from a :class:`SpecBuilder` and prepare it."""
        return cls(builder.build(), backend=backend, codegen_options=codegen_options)

    # -- introspection -------------------------------------------------------------

    @property
    def spec(self) -> Specification:
        return self._spec

    @property
    def backend_name(self) -> str:
        return self._backend.name

    @property
    def prepared(self) -> PreparedSimulation:
        return self._prepared

    @property
    def prepare_seconds(self) -> float:
        return self._prepared.prepare_seconds

    @property
    def generated_source(self) -> str | None:
        """Generated simulator source when using the compiled backend."""
        return getattr(self._prepared, "source", None)

    def validation_report(self, strict: bool = False) -> ValidationReport:
        """Re-run validation (e.g. to inspect warnings)."""
        return validate(self._spec, strict=strict)

    # -- running ----------------------------------------------------------------------

    def run(
        self,
        cycles: int | None = None,
        io: IOSystem | Iterable[int | str] | None = None,
        trace: TraceOptions | bool | None = None,
        collect_stats: bool = True,
        override: ValueOverride | None = None,
    ) -> SimulationResult:
        """Simulate for *cycles* cycles (default: the spec's ``= N`` count)."""
        return self._prepared.run(
            cycles=cycles,
            io=io,
            trace=trace,
            collect_stats=collect_stats,
            override=override,
        )


def simulate(
    source: str,
    cycles: int | None = None,
    backend: BackendLike = DEFAULT_BACKEND,
    io: IOSystem | Iterable[int | str] | None = None,
    trace: TraceOptions | bool | None = None,
) -> SimulationResult:
    """One-shot helper: parse, prepare and run a specification text."""
    return Simulator.from_text(source, backend=backend).run(
        cycles=cycles, io=io, trace=trace
    )
