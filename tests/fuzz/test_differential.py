"""Tests for the differential runner, the shrinker and the fuzz session.

The centrepiece is the sabotage test: a deliberately corrupted backend is
injected into the differential matrix and the whole pipeline must catch
the mismatch, shrink the machine to a minimal reproducer, and persist it
as a corpus case that still reproduces on replay — proving the fuzzer
would catch a real equivalence bug, not just that it stays green.
"""

from __future__ import annotations

import functools

import pytest

from repro.compiler.threaded import ThreadedBackend
from repro.errors import (
    InvalidAluFunctionError,
    SelectorRangeError,
    SimulationError,
)
from repro.fuzz import (
    load_corpus,
    run_differential,
    run_fuzz_session,
)
from repro.fuzz.differential import backend_matrix
from repro.fuzz.generator import generate_machine
from repro.fuzz.shrink import shrink_case
from repro.interp.interpreter import InterpreterBackend
from repro.rtl import alu_ops
from repro.rtl.builder import SpecBuilder
from repro.rtl.parser import parse_spec
from repro.rtl.validate import ensure_valid


class TestCleanDifferential:
    def test_full_matrix_is_bit_identical_on_generated_machines(self):
        for seed in (1, 2):
            machine = generate_machine(seed)
            report = run_differential(
                machine.spec, machine.cycles, machine.inputs
            )
            assert report.ok, report.describe()
            # 3 sequential configs + 3 per executor configuration
            # (serial / serial with lanes / process)
            assert report.configs_run == 12
            assert "bit-identical" in report.describe()

    def test_sequential_only_when_no_executors(self):
        machine = generate_machine(3)
        report = run_differential(
            machine.spec, machine.cycles, machine.inputs, executors=()
        )
        assert report.ok
        assert report.configs_run == 3

    def test_runtime_errors_must_agree_everywhere(self):
        """A machine that breaks must break identically on every backend.

        A two-bit selector index over a two-case selector passes
        validation (coverage is only a warning) but raises
        SelectorRangeError once the counter reaches 2 — on every
        backend alike, so the report is clean with the error recorded.
        """
        builder = SpecBuilder("runtime error machine")
        builder.alu("next", alu_ops.FN_ADD, "count", 1)
        builder.selector("pick", "count.0.1", ["count", "next"])
        builder.register("count", data="next", initial_value=0)
        builder.memory("outport", address=0, data="pick", operation=3,
                       size=1)
        spec = builder.build(validate=True)

        report = run_differential(spec, cycles=8)
        assert report.ok, report.describe()
        assert report.reference_error == "SelectorRangeError"
        with pytest.raises(SelectorRangeError):
            InterpreterBackend().run(spec, cycles=8)


class TestErrorDifferential:
    """A raising machine is compared by error type, cycle and message."""

    #: an ALU whose function code comes from a register that reaches 14
    BAD_FUNCT = ("# bad funct\na inc r .\nA a r 1 1\nA inc 4 r 1\n"
                 "M r 0 inc 1 1\n.")

    def test_invalid_alu_function_code_agrees_everywhere(self):
        report = run_differential(parse_spec(self.BAD_FUNCT), cycles=20)
        assert report.ok, report.describe()
        assert report.reference_error == "InvalidAluFunctionError"

    def test_a_misplaced_cycle_is_caught(self):
        class LateBackend(ThreadedBackend):
            """Sabotage: raises the right error type a cycle late."""

            def run(self, spec, **kwargs):
                try:
                    return super().run(spec, **kwargs)
                except SimulationError as exc:
                    raise InvalidAluFunctionError(
                        "ALU 'a' computed function code 14", exc.cycle + 1
                    ) from None

        report = run_differential(
            parse_spec(self.BAD_FUNCT), cycles=20,
            matrix=(("interpreter", InterpreterBackend),
                    ("late", LateBackend)),
        )
        assert not report.ok
        [failure] = report.failures
        assert failure.config == "late"
        assert "at cycle 15" in failure.describe()
        assert "at cycle 14" in failure.describe()


class CorruptingBackend(ThreadedBackend):
    """Sabotage: flips the low bit of r0's final value after a run."""

    def run(self, spec, **kwargs):
        result = super().run(spec, **kwargs)
        if "r0" in result.final_values:
            result.final_values["r0"] ^= 1
        return result


#: interpreter reference + the corrupted candidate, sequential phase only
#: (pooled runs bypass Backend.run, so the corruption would not show there)
SABOTAGED_MATRIX = (
    ("interpreter", InterpreterBackend),
    ("corrupted", CorruptingBackend),
)

sabotaged_differential = functools.partial(
    run_differential, matrix=SABOTAGED_MATRIX
)


class TestSabotage:
    def test_corruption_is_caught_shrunk_and_persisted(self, tmp_path):
        corpus_dir = tmp_path / "corpus"
        session = run_fuzz_session(
            7, 3, executors=(), shrink=True, corpus_dir=corpus_dir,
            differential=sabotaged_differential,
        )
        assert not session.ok
        assert len(session.failures) == 3
        for failure in session.failures:
            assert failure.status == "differential"
            assert "corrupted" in failure.detail
            # the shrinker must reduce every case to the minimal machine
            # that still carries an r0 for the sabotage to corrupt
            assert failure.shrink is not None
            assert len(failure.shrink.spec) <= 2
            assert failure.shrink.cycles == 1
            assert failure.crasher_path is not None
            assert failure.crasher_path.is_file()

    def test_persisted_reproducer_replays(self, tmp_path):
        corpus_dir = tmp_path / "corpus"
        run_fuzz_session(
            7, 1, executors=(), shrink=True, corpus_dir=corpus_dir,
            differential=sabotaged_differential,
        )
        cases = load_corpus(corpus_dir)
        assert len(cases) == 1
        case = cases[0]
        # still fails under the sabotaged matrix ...
        assert not sabotaged_differential(
            case.spec, case.cycles, case.inputs, executors=()
        ).ok
        # ... and passes under the real one: the bug is in the backend,
        # not the machine
        assert run_differential(
            case.spec, case.cycles, case.inputs, executors=()
        ).ok
        assert case.meta["session_seed"] == 7

    def test_shrink_can_be_disabled(self, tmp_path):
        session = run_fuzz_session(
            7, 1, executors=(), shrink=False,
            corpus_dir=tmp_path / "corpus",
            differential=sabotaged_differential,
        )
        failure = session.failures[0]
        assert failure.shrink is None
        # the unshrunk machine is persisted as-is
        case = load_corpus(tmp_path / "corpus")[0]
        assert len(case.spec) == len(generate_machine(7000021).spec)


class TestShrinker:
    def test_greedy_shrink_reaches_a_minimal_machine(self):
        machine = generate_machine(12345)
        assert len(machine.spec) > 3

        def contains_ram(spec, cycles, inputs):
            return "ram" in spec.component_map

        if "ram" not in machine.spec.component_map:
            pytest.skip("seed lost its ram; pick another seed")
        result = shrink_case(
            machine.spec, machine.cycles, machine.inputs, contains_ram
        )
        assert [c.name for c in result.spec.components] == ["ram"]
        assert result.cycles == 1
        assert result.inputs == ()
        assert result.steps > 0
        ensure_valid(result.spec)

    def test_shrunk_spec_embeds_its_cycle_count(self):
        machine = generate_machine(12345)
        result = shrink_case(
            machine.spec, machine.cycles, machine.inputs,
            lambda spec, cycles, inputs: True,
        )
        assert result.spec.cycles == result.cycles

    def test_already_minimal_case_is_untouched(self):
        machine = generate_machine(12345)

        def never_fails(spec, cycles, inputs):
            return False

        result = shrink_case(
            machine.spec, machine.cycles, machine.inputs, never_fails
        )
        assert result.steps == 0
        assert result.spec is machine.spec

    def test_raising_predicate_counts_as_not_failing(self):
        machine = generate_machine(12345)

        def explodes(spec, cycles, inputs):
            if len(spec) < len(machine.spec):
                raise RuntimeError("different bug")
            return True

        result = shrink_case(
            machine.spec, machine.cycles, machine.inputs, explodes,
        )
        # no candidate survives, except cycle/input reductions that keep
        # the component count — those must still have been explored
        assert len(result.spec) == len(machine.spec)


class TestSessionReporting:
    def test_clean_session_describes_itself(self):
        session = run_fuzz_session(21, 2, executors=("serial",))
        assert session.ok
        assert "2 machines ok" in session.describe()
        assert all(result.report.configs_run == 6
                   for result in session.results)

    def test_matrix_has_three_configurations(self):
        labels = [label for label, _ in backend_matrix()]
        assert labels == ["interpreter", "threaded", "compiled"]
