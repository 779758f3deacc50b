"""Experiment E3 — Figure 4.2: selector specification and generated code.

The figure shows a four-way selector compiling to a case statement over the
index expression.  The benchmark regenerates the code for both backends,
asserts the dispatch structure, and measures a simulation in which the
selector is exercised across all of its cases every cycle.
"""

import pytest

from repro.compiler import generate_pascal, generate_python
from repro.core.simulator import Simulator
from repro.rtl.parser import parse_spec

FIGURE_4_2_SPEC = """\
# figure 4.2 selector example
selector index value0 value1 value2 value3 out .
S selector index.0.1 value0 value1 value2 value3
A index 4 out 1
M value0 0 0 0 -1 10
M value1 0 0 0 -1 11
M value2 0 0 0 -1 12
M value3 0 0 0 -1 13
M out 0 selector 1 1
.
"""


@pytest.fixture(scope="module")
def spec():
    return parse_spec(FIGURE_4_2_SPEC)


def test_fig_4_2_python_code_generation(benchmark, spec):
    source = benchmark(generate_python, spec)
    assert "if _i == 0:" in source
    assert "v_selector = t_value0" in source
    # one test per distinct arm, the last behind the case count
    assert "elif _i < 4:" in source
    assert "selector_case_error('selector', _i, 4, cyclecount)" in source


def test_fig_4_2_pascal_code_generation(benchmark, spec):
    source = benchmark(generate_pascal, spec)
    assert "0 : ljbselector := tempvalue0;" in source
    assert "3 : ljbselector := tempvalue3;" in source


def test_fig_4_2_selector_simulation(benchmark, spec):
    """Simulate the figure's selector sweeping its whole case list."""
    simulator = Simulator(spec, backend="compiled")

    def run():
        return simulator.run(cycles=200, trace=False, collect_stats=False)

    result = benchmark(run)
    # after the pipeline fills, the selector endlessly cycles 10, 11, 12, 13
    assert result.value("selector") in (10, 11, 12, 13)
