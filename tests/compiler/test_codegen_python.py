"""Unit tests for the Python code generator (the ASIM II contribution)."""

import pytest

from repro.compiler.codegen_python import PythonCodeGenerator, generate_python
from repro.compiler.optimizer import CodegenOptions
from repro.rtl.parser import parse_spec


def compile_module(source):
    namespace = {}
    exec(compile(source, "<generated>", "exec"), namespace)
    return namespace


class TestGeneratedStructure:
    def test_module_compiles(self, counter_spec):
        namespace = compile_module(generate_python(counter_spec))
        assert callable(namespace["simulate"])
        assert namespace["COMPONENT_COUNT"] == 4

    def test_header_mentions_source(self, counter_spec):
        source = generate_python(counter_spec)
        assert "three bit counter" in source

    def test_variables_follow_paper_naming(self, counter_spec):
        source = generate_python(counter_spec)
        assert "v_next" in source        # paper: ljbnext
        assert "t_count" in source       # paper: tempcount
        assert "m_count" in source       # paper: ljbcount[...]

    def test_initial_values_emitted(self, figure_4_3_spec):
        source = generate_python(figure_4_3_spec)
        assert "m_memory = [0] * 4" in source
        assert "m_memory[0] = 12" in source
        assert "m_memory[3] = 78" in source


class TestSpecTextStaysInert:
    """Spec strings reach the module as comments and variable names; no
    line break in the former, nor an odd character in the latter, may
    turn them into code."""

    def test_every_line_of_a_comment_is_commented(self):
        from repro.compiler.emitter import CodeWriter

        writer = CodeWriter().comment("a\rb\nc\r\nd").comment("")
        assert writer.render().splitlines() == ["# a", "# b", "# c", "# d", "# "]

    def test_a_line_break_in_the_header_comment_is_not_code(
            self, counter_spec):
        # the spec readers refuse such a header; a spec built in Python
        # reaches the generator unchecked
        from dataclasses import replace

        from repro.core.comparison import compare_results
        from repro.core.simulator import Simulator

        spec = replace(counter_spec, header_comment=(
            counter_spec.header_comment + "\rraise RuntimeError('injected')"))
        source = generate_python(spec)
        assert "\n# raise RuntimeError('injected')\n" in source
        result = Simulator(spec, backend="compiled").run(cycles=12)
        reference = Simulator(counter_spec, backend="interpreter").run(cycles=12)
        assert compare_results(reference, result) == []

    @pytest.mark.parametrize("name", ["r[0]", "r;r", "r\nr", "r r", "r\u00e9"])
    def test_a_name_that_is_no_variable_is_refused(self, name):
        from repro.errors import CompilationError
        from repro.rtl.components import Memory
        from repro.rtl.expressions import constant_expression
        from repro.rtl.spec import Specification

        spec = Specification(header_comment="# x", components=(Memory(
            name=name, address=constant_expression(0),
            data=constant_expression(1), operation=constant_expression(1),
            size=1),))
        with pytest.raises(CompilationError, match="cannot name a variable"):
            PythonCodeGenerator(spec)


class TestFigure41AluGeneration:
    """Figure 4.1: generic dologic call vs inlined constant function."""

    def test_generic_alu_calls_dologic(self, figure_4_1_spec):
        source = generate_python(figure_4_1_spec)
        assert "v_alu = dologic(t_compute, t_left, 3048)" in source

    def test_constant_function_inlined(self, figure_4_1_spec):
        source = generate_python(figure_4_1_spec)
        assert "v_add = (((t_left) + (3048)) & 2147483647)" in source

    def test_inlining_disabled_by_option(self, figure_4_1_spec):
        source = generate_python(
            figure_4_1_spec, CodegenOptions(inline_constant_functions=False)
        )
        assert "v_add = dologic(4, t_left, 3048)" in source


class TestFigure42SelectorGeneration:
    """Figure 4.2: the selector becomes a case dispatch on the index."""

    def test_case_dispatch(self, figure_4_2_spec):
        source = generate_python(figure_4_2_spec)
        # the select expression is a plain local: tested directly, no copy
        assert "_i = " not in source
        assert "if t_index == 0:" in source
        assert "elif t_index == 2:" in source
        assert "v_selector = t_value0" in source
        # the last arm sits behind the case count
        assert "elif t_index < 4:\n" in source
        assert "v_selector = t_value3" in source

    def test_out_of_range_raises(self, figure_4_2_spec):
        body = [line.strip()
                for line in generate_python(figure_4_2_spec).splitlines()]
        error = body.index(
            "selector_case_error('selector', t_index, 4, cyclecount)")
        assert body[error - 1] == "else:"

    def test_one_test_per_distinct_arm(self):
        # eight cases, three distinct arms: v_a (five indices) goes last
        spec = parse_spec(
            "# t\ns a b r .\nS s r.0.2 a b a a b r a a\nA a 4 r 1\n"
            "A b 5 r 1\nM r 0 s 1 1\n.")
        source = generate_python(spec)
        body = [line.strip() for line in source.splitlines()]
        start = body.index("_i = (t_r & 7)")
        assert body[start:start + 9] == [
            "_i = (t_r & 7)",
            "if _i in {1, 4}:",
            "v_s = v_b",
            "elif _i == 5:",
            "v_s = t_r",
            "elif _i < 8:",
            "v_s = v_a",
            "else:",
            "selector_case_error('s', _i, 8, cyclecount)",
        ]
        assert sum(line.startswith(("if _i", "elif _i"))
                   for line in body) == 3

    def test_constant_selector_folded_to_table(self):
        spec = parse_spec("# t\ns r .\nS s r.0.1 10 20 30 40\nM r 0 0 1 1\n.")
        source = generate_python(spec)
        assert "_SEL_s = (10, 20, 30, 40)" in source
        assert "v_s = _SEL_s[_i]" in source

    def test_constant_folding_disabled_by_option(self):
        spec = parse_spec("# t\ns r .\nS s r.0.1 10 20 30 40\nM r 0 0 1 1\n.")
        source = generate_python(spec, CodegenOptions(fold_constant_selectors=False))
        assert "_SEL_s" not in source
        assert "if _i == 0:" in source


class TestFigure43MemoryGeneration:
    """Figure 4.3: operation dispatch, initialisation and trace statements."""

    def test_dynamic_operation_dispatch(self, figure_4_3_spec):
        source = generate_python(figure_4_3_spec)
        assert "_op = o_memory & 3" in source
        assert "t_memory = m_memory[a_memory]" in source
        assert "m_memory[a_memory] = d_memory" in source
        assert "io.read(a_memory, cycle=cyclecount)" in source
        assert "io.write(a_memory, d_memory, cycle=cyclecount)" in source

    def test_trace_conditions_match_paper(self, figure_4_3_spec):
        source = generate_python(figure_4_3_spec)
        assert "(o_memory & 5) == 5" in source    # paper: land(operation,5)=5
        assert "(o_memory & 9) == 8" in source    # paper: land(operation,9)=8

    def test_constant_operation_specialised(self, counter_spec):
        source = generate_python(counter_spec)
        # the counter register always writes: no dispatch emitted for it
        assert "_op = o_count" not in source
        assert "m_count[0] = d_count" in source

    def test_constant_address_in_range_is_static(self, counter_spec):
        # address 0 of a one-cell register: no latch and no bounds check
        source = generate_python(counter_spec)
        assert "a_count" not in source
        assert "memory_range_error('count'" not in source

    def test_constant_address_out_of_range_keeps_latch_and_check(self):
        spec = parse_spec("# t\nm r .\nM m 5 r 0 4\nM r 0 1 1 1\n.",
                          validate=False)
        source = generate_python(spec)
        assert "a_m = 5" in source
        assert "memory_range_error('m', a_m, 4, cyclecount)" in source
        assert "t_m = m_m[a_m]" in source

    def test_constant_specialisation_disabled_by_option(self, counter_spec):
        source = generate_python(
            counter_spec, CodegenOptions(specialize_constant_memory_ops=False)
        )
        assert "_op = o_count & 3" in source

    def test_bounds_check_emitted(self, figure_4_3_spec):
        source = generate_python(figure_4_3_spec)
        assert "memory_range_error('memory', a_memory, 4, cyclecount)" in source

    def test_bounds_check_can_be_disabled(self, figure_4_3_spec):
        source = generate_python(
            figure_4_3_spec, CodegenOptions(emit_bounds_checks=False)
        )
        assert "memory_range_error('" not in source


class TestTraceGeneration:
    def test_traced_components_recorded(self, counter_spec):
        source = generate_python(counter_spec)
        assert "trace_log.record_cycle(cyclecount, {'count': t_count})" in source

    def test_trace_suppressed_by_option(self, counter_spec):
        source = generate_python(counter_spec, CodegenOptions.fastest())
        assert "record_cycle" not in source

    def test_no_trace_code_without_star_declarations(self):
        spec = parse_spec("# t\nx r .\nA x 4 r 1\nM r 0 x 1 1\n.")
        assert "record_cycle" not in generate_python(spec)


class TestResolver:
    def test_resolve_distinguishes_memories(self, counter_spec):
        generator = PythonCodeGenerator(counter_spec)
        assert generator.resolve("next") == "v_next"
        assert generator.resolve("count") == "t_count"


class TestGeneratedSemantics:
    @pytest.mark.parametrize("options", [CodegenOptions(), CodegenOptions.unoptimized()])
    def test_counter_behaviour(self, counter_spec, options):
        from repro.core.iosystem import QueueIO

        namespace = compile_module(generate_python(counter_spec, options))
        io = QueueIO()
        raw = namespace["simulate"](10, io, None, None)
        assert raw["values"]["count"] == 2
        assert io.output_values() == [0, 1, 2, 3, 4, 5, 6, 7, 0, 1]

    def test_stats_object_updated(self, counter_spec):
        from repro.core.iosystem import QueueIO
        from repro.core.stats import SimulationStats

        namespace = compile_module(generate_python(counter_spec))
        stats = SimulationStats()
        namespace["simulate"](7, QueueIO(), None, stats)
        assert stats.cycles == 7
        assert stats.component_evaluations == 7 * 4
