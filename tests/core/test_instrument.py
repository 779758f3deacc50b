"""Unit tests for the shared instrumentation layer."""

import pytest

from repro.core.instrument import Instrumentation, plan_run
from repro.core.stats import SimulationStats
from repro.core.trace import TraceLog, TraceOptions
from repro.errors import UnknownComponentError
from repro.lowering import lower
from repro.rtl.parser import parse_spec


class TestHooks:
    def test_alu_hook_records_then_overrides(self):
        stats = SimulationStats()
        inst = Instrumentation(
            stats=stats, override=lambda n, v, c: v + 100
        )
        assert inst.alu("a", 4, 7, 0) == 107
        assert stats.alu_function_usage[4] == 1

    def test_selector_hook_records_case_usage(self):
        stats = SimulationStats()
        inst = Instrumentation(stats=stats)
        assert inst.selector("s", 2, 9, 1) == 9
        assert stats.selector_case_usage["s"][2] == 1

    def test_memory_hook_traces_pre_override_output(self):
        # the access trace shows the pre-override value; only the latched
        # output is overridden — the interpreter's historic behaviour
        log = TraceLog()
        inst = Instrumentation(
            stats=SimulationStats(),
            override=lambda n, v, c: 999,
            trace_log=log,
            trace_accesses=True,
        )
        latched = inst.memory("m", 5, 3, 42, 7)  # operation 5 = write + trace
        assert latched == 999
        assert len(log.accesses) == 1
        assert log.accesses[0].kind == "write"
        assert log.accesses[0].value == 42
        assert inst.stats.memory("m").writes == 1

    def test_read_trace_bit(self):
        log = TraceLog()
        inst = Instrumentation(trace_log=log, trace_accesses=True)
        inst.memory("m", 8, 1, 5, 0)  # operation 8 = read + trace
        assert log.accesses[0].kind == "read"

    def test_finish_folds_whole_run_counters(self):
        stats = SimulationStats()
        inst = Instrumentation(stats=stats)
        inst.finish(10, 4)
        assert stats.cycles == 10
        assert stats.component_evaluations == 40

    def test_fold_counts_matches_the_hooks(self):
        # the compiled kernel's one-shot fold must leave exactly what the
        # per-cycle hooks record: zero counts never become keys
        hooked, folded = SimulationStats(), SimulationStats()
        inst = Instrumentation(stats=hooked)
        for cycle, (funct, case, op) in enumerate([(4, 1, 0), (5, 1, 1)]):
            inst.alu("c", 2, 0, cycle)   # constant function 2
            inst.alu("d", funct, 0, cycle)
            inst.selector("s", case, 0, cycle)
            inst.selector("t", case, 0, cycle)
            inst.memory("m", op, cycle, 0, cycle)
        Instrumentation(stats=folded).fold_counts(
            2, ((2, 1),), [0, 0, 0, 0, 1, 1, 0],
            (("s", [0, 2, 0]), ("t", [0, 2, 0])),
            (("m", [1, 1, 0, 0], {0, 1}),),
        )
        assert folded == hooked

    def test_cycle_trace_limit(self):
        log = TraceLog()
        inst = Instrumentation(trace_log=log, trace_limit=1, traced=("x",))
        assert inst.wants_cycle_trace()
        inst.record_cycle_values(0, {"x": 5})
        assert not inst.wants_cycle_trace()
        assert log.cycles[0].values == {"x": 5}

    def test_record_cycle_values_picks_the_traced_names(self):
        log = TraceLog()
        inst = Instrumentation(trace_log=log, traced=("y", "x"))
        inst.record_cycle_values(2, {"x": 8, "y": 30, "z": 1})
        assert log.cycles[0].values == {"y": 30, "x": 8}


class TestPlanRun:
    SPEC = """\
# plan-run probe
x* r .
A x 4 r 1
M r 0 x 1 1
.
"""

    def _program(self):
        return lower(parse_spec(self.SPEC))

    def test_fast_path_builds_no_instrumentation(self):
        plan = plan_run(self._program(), cycles=5, io=None, trace=False,
                        collect_stats=False, override=None)
        assert plan.inst is None

    def test_stats_request_builds_instrumentation(self):
        plan = plan_run(self._program(), cycles=5, io=None, trace=False,
                        collect_stats=True, override=None)
        assert plan.inst is not None
        assert plan.inst.stats is plan.stats

    def test_override_counts_every_component(self):
        hook = lambda n, v, c: v
        plan = plan_run(
            lower(parse_spec(
                "# consts\nk user r .\nA k 4 1 2\nA user 4 r k\n"
                "M r 0 user 1 1\n."
            )),
            cycles=1, io=None, trace=False, collect_stats=True,
            override=hook,
        )
        assert plan.inst.override is hook
        assert plan.evaluations_per_cycle == 3

    def test_unknown_trace_name_raises_when_it_would_record(self):
        options = TraceOptions(trace_cycles=True, names=("nosuch",))
        with pytest.raises(UnknownComponentError):
            plan_run(self._program(), cycles=2, io=None, trace=options,
                     collect_stats=False, override=None)

    def test_unknown_trace_name_tolerated_at_zero_cycles(self):
        options = TraceOptions(trace_cycles=True, names=("nosuch",))
        plan = plan_run(self._program(), cycles=0, io=None, trace=options,
                        collect_stats=False, override=None)
        assert plan.cycle_count == 0

    def test_spec_star_names_used_by_default(self):
        plan = plan_run(self._program(), cycles=3, io=None, trace=True,
                        collect_stats=False, override=None)
        assert plan.inst.traced == ("x",)
