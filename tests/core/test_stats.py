"""Unit tests for simulation statistics."""

from repro.core.stats import MemoryStats, SimulationStats


class TestMemoryStats:
    def test_operation_classification(self):
        stats = MemoryStats()
        stats.record(0, 1)
        stats.record(1, 2)
        stats.record(2, 3)
        stats.record(3, 4)
        stats.record(5, 2)   # write with trace bit: still a write
        assert stats.reads == 1
        assert stats.writes == 2
        assert stats.inputs == 1
        assert stats.outputs == 1
        assert stats.total_accesses == 5

    def test_addresses_touched(self):
        stats = MemoryStats()
        stats.record(0, 7)
        stats.record(1, 7)
        stats.record(0, 9)
        assert stats.addresses_touched == {7, 9}


class TestSimulationStats:
    def test_cycle_and_evaluation_counters(self):
        stats = SimulationStats()
        stats.record_cycle()
        stats.record_cycle()
        stats.record_evaluation(3)
        assert stats.cycles == 2
        assert stats.component_evaluations == 3

    def test_memory_access_aggregation(self):
        stats = SimulationStats()
        stats.record_memory_access("ram", 1, 0)
        stats.record_memory_access("ram", 0, 1)
        stats.record_memory_access("rom", 0, 2)
        assert stats.memory("ram").writes == 1
        assert stats.total_memory_accesses == 3
        assert stats.total_memory_reads == 2
        assert stats.total_memory_writes == 1

    def test_alu_and_selector_usage(self):
        stats = SimulationStats()
        stats.record_alu_function(4)
        stats.record_alu_function(4)
        stats.record_selector_case("decode", 3)
        assert stats.alu_function_usage[4] == 2
        assert stats.selector_case_usage["decode"][3] == 1

    def test_summary_mentions_memories(self):
        stats = SimulationStats()
        stats.record_cycle()
        stats.record_memory_access("ram", 1, 5)
        summary = stats.summary()
        assert "cycles executed" in summary
        assert "ram" in summary

    def test_memory_accessor_creates_entry(self):
        stats = SimulationStats()
        assert stats.memory("fresh").total_accesses == 0
        assert "fresh" in stats.memories

    def test_recorders_build_entries_only_for_new_keys(self, monkeypatch):
        # the hook paths call the recorders per component per cycle, so a
        # repeated key must not construct (and discard) a fresh object
        from repro.core import stats as stats_module

        built = []

        class CountingMemoryStats(MemoryStats):
            def __init__(self):
                built.append("memory")
                super().__init__()

        class CountingCounter(stats_module.Counter):
            def __init__(self):
                built.append("cases")
                super().__init__()

        monkeypatch.setattr(stats_module, "MemoryStats", CountingMemoryStats)
        monkeypatch.setattr(stats_module, "Counter", CountingCounter)
        stats = SimulationStats()
        for address in range(5):
            stats.record_memory_access("ram", 0, address)
            stats.record_selector_case("decode", address % 2)
            stats.memory("ram")
        assert sorted(built) == ["cases", "memory"]
        assert stats.memory("ram").reads == 5
        assert stats.selector_case_usage["decode"] == {0: 3, 1: 2}
