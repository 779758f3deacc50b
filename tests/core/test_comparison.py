"""Unit tests for cross-backend comparison."""

import pytest

from repro.analysis.faults import inject_stuck_at
from repro.core.comparison import assert_equivalent, compare_backends
from repro.interp.interpreter import InterpreterBackend
from repro.rtl.parser import parse_spec


class TestEquivalence:
    def test_counter_backends_agree(self, counter_spec):
        result = compare_backends(counter_spec, cycles=30)
        assert result.equivalent
        assert result.mismatches == []
        assert result.speedup > 0

    def test_assert_equivalent_passes(self, counter_spec):
        assert assert_equivalent(counter_spec, cycles=10).equivalent

    def test_summary_format(self, counter_spec):
        summary = compare_backends(counter_spec, cycles=5).summary()
        assert summary.startswith("EQUIVALENT")
        assert "speedup" in summary

    def test_inputs_fed_identically(self):
        spec = parse_spec(
            "# io\nacc inport .\nA acc 4 inport 1\nM inport 1 0 2 2\n."
        )
        result = compare_backends(spec, cycles=3, inputs=[7, 8, 9])
        assert result.equivalent

    def test_custom_backends(self, counter_spec):
        result = compare_backends(
            counter_spec,
            cycles=10,
            reference=InterpreterBackend(),
            candidate=InterpreterBackend(),
        )
        assert result.equivalent
        assert result.reference.backend == result.candidate.backend == "interpreter"


class TestMismatchDetection:
    def test_different_designs_detected(self, counter_spec):
        # run the good counter and a stuck-at-faulty copy, then diff the results
        from repro.compiler.compiled import CompiledBackend
        from repro.core.comparison import _compare_results
        from repro.core.trace import TraceOptions

        faulty = inject_stuck_at(counter_spec, "wrapped", 0)
        good = InterpreterBackend().run(counter_spec, cycles=10,
                                        trace=TraceOptions.full())
        bad = CompiledBackend().run(faulty, cycles=10, trace=TraceOptions.full())
        mismatches = _compare_results(good, bad, compare_trace=True)
        assert mismatches
        assert any("count" in m or "outputs differ" in m for m in mismatches)

    def test_assert_equivalent_raises_on_mismatch(self, counter_spec, monkeypatch):
        from repro.core import comparison

        original_compare = comparison.compare_backends

        def broken_compare(spec, cycles=None, inputs=(), **kwargs):
            result = original_compare(spec, cycles=cycles)
            result.mismatches.append("synthetic mismatch")
            return result

        monkeypatch.setattr(comparison, "compare_backends", broken_compare)
        with pytest.raises(AssertionError):
            comparison.assert_equivalent(counter_spec, cycles=5)


class TestTraceComparison:
    def test_trace_disabled_comparison_still_checks_outputs(self, counter_spec):
        result = compare_backends(counter_spec, cycles=10, trace=False)
        assert result.equivalent
        assert len(result.reference.trace) == 0


class TestExactStatsComparison:
    """``Counter`` equality treats a missing key as zero; the statistics
    comparison must not, since a zero-count key is visible output."""

    @staticmethod
    def _result(stats):
        from repro.core.results import SimulationResult
        from repro.core.trace import TraceLog

        return SimulationResult(
            backend="interpreter", cycles_run=0, final_values={},
            memory_contents={}, outputs=[], trace=TraceLog(False),
            stats=stats, prepare_seconds=0.0, run_seconds=0.0,
        )

    def test_zero_count_key_is_a_mismatch(self):
        from repro.core.comparison import compare_results
        from repro.core.stats import SimulationStats

        plain = SimulationStats()
        padded = SimulationStats()
        padded.alu_function_usage[7] = 0
        assert plain != padded
        mismatches = compare_results(self._result(plain),
                                     self._result(padded), compare_stats=True)
        assert mismatches == ["statistics differ: alu_function_usage"]

    def test_zero_count_selector_case_is_a_mismatch(self):
        from repro.core.comparison import compare_results
        from repro.core.stats import SimulationStats

        taken = SimulationStats()
        taken.record_selector_case("decode", 1)
        padded = SimulationStats()
        padded.record_selector_case("decode", 1)
        padded.selector_case_usage["decode"][2] = 0
        assert compare_results(self._result(taken), self._result(padded),
                               compare_stats=True)

    def test_equal_breakdowns_compare_equal(self):
        from repro.core.stats import SimulationStats

        left, right = SimulationStats(), SimulationStats()
        for stats in (left, right):
            stats.record_alu_function(4)
            stats.record_selector_case("decode", 0)
            stats.record_memory_access("ram", 1, 3)
        assert left == right
