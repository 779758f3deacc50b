"""Unit tests for the component model (the three primitives)."""

import pytest

from repro.errors import SpecificationError
from repro.rtl.components import (
    COMPONENT_LETTERS,
    Alu,
    ComponentKind,
    Memory,
    Selector,
)
from repro.rtl.expressions import constant_expression, parse_expression


def const(value):
    return constant_expression(value)


class TestAlu:
    def test_kind_and_combinational(self):
        alu = Alu("add", const(4), parse_expression("a"), const(1))
        assert alu.kind is ComponentKind.ALU
        assert alu.is_combinational

    def test_constant_function_detection(self):
        assert Alu("a", const(4), const(0), const(0)).has_constant_function
        assert not Alu(
            "a", parse_expression("f"), const(0), const(0)
        ).has_constant_function

    def test_referenced_names(self):
        alu = Alu("x", parse_expression("f"), parse_expression("l.0.3"), const(9))
        assert alu.referenced_names() == {"f", "l"}

    def test_missing_expression_rejected(self):
        with pytest.raises(SpecificationError):
            Alu("bad", None, const(0), const(0))


class TestSelector:
    def test_kind_and_case_count(self):
        sel = Selector("s", parse_expression("i"), (const(1), const(2)))
        assert sel.kind is ComponentKind.SELECTOR
        assert sel.case_count == 2
        assert sel.is_combinational

    def test_referenced_names_include_cases(self):
        sel = Selector(
            "s", parse_expression("i"), (parse_expression("a"), parse_expression("b"))
        )
        assert sel.referenced_names() == {"i", "a", "b"}

    def test_empty_case_list_rejected(self):
        with pytest.raises(SpecificationError):
            Selector("s", parse_expression("i"), ())

    def test_missing_select_rejected(self):
        with pytest.raises(SpecificationError):
            Selector("s", None, (const(1),))


class TestMemory:
    def make(self, size=4, initial=()):
        return Memory(
            "m", const(0), parse_expression("d"), const(1), size, tuple(initial)
        )

    def test_kind_and_statefulness(self):
        memory = self.make()
        assert memory.kind is ComponentKind.MEMORY
        assert not memory.is_combinational

    def test_register_detection(self):
        assert self.make(size=1).is_register
        assert not self.make(size=2).is_register

    def test_initial_cell_values_default_zero(self):
        assert self.make(size=3).initial_cell_values() == [0, 0, 0]

    def test_initial_cell_values_from_list(self):
        memory = self.make(size=2, initial=(7, 9))
        assert memory.initial_cell_values() == [7, 9]
        assert memory.has_initial_values

    def test_initial_output_for_register(self):
        register = self.make(size=1, initial=(42,))
        assert register.initial_output == 42

    def test_initial_output_for_ram_is_zero(self):
        assert self.make(size=2, initial=(7, 9)).initial_output == 0

    def test_initial_output_without_values_is_zero(self):
        assert self.make(size=1).initial_output == 0

    def test_wrong_initial_value_count_rejected(self):
        with pytest.raises(SpecificationError):
            self.make(size=3, initial=(1, 2))

    def test_negative_initial_value_rejected(self):
        with pytest.raises(SpecificationError):
            self.make(size=1, initial=(-1,))

    def test_initial_value_past_the_word_rejected(self):
        # every value a memory holds is a 31-bit word, so the compiled
        # kernel may read its cells unmasked
        assert self.make(size=1, initial=(2 ** 31 - 1,)).initial_output == (
            2 ** 31 - 1)
        with pytest.raises(SpecificationError, match="31-bit word"):
            self.make(size=1, initial=(2 ** 31,))

    def test_zero_size_rejected(self):
        with pytest.raises(SpecificationError):
            self.make(size=0)

    def test_constant_operation_detection(self):
        assert self.make().has_constant_operation
        dyn = Memory("m", const(0), const(0), parse_expression("op"), 1, ())
        assert not dyn.has_constant_operation

    def test_referenced_names(self):
        memory = Memory(
            "m",
            parse_expression("addr.0.3"),
            parse_expression("d"),
            parse_expression("op"),
            16,
            (),
        )
        assert memory.referenced_names() == {"addr", "d", "op"}


class TestComponentLetters:
    def test_letter_mapping(self):
        assert COMPONENT_LETTERS["A"] is Alu
        assert COMPONENT_LETTERS["S"] is Selector
        assert COMPONENT_LETTERS["M"] is Memory

    def test_kind_values_match_letters(self):
        assert ComponentKind.ALU.value == "A"
        assert ComponentKind.SELECTOR.value == "S"
        assert ComponentKind.MEMORY.value == "M"
