"""Tests for the JSON spec interchange format (:mod:`repro.rtl.interchange`).

The load-bearing property: a round trip through the JSON document is
*identity-preserving* — for every bundled machine and for arbitrary
generated machines, ``spec_from_json(spec_to_json(spec))`` has the same
textual fingerprint (:func:`~repro.compiler.cache.spec_fingerprint`, the
PrepareCache / PoolRegistry key) and the same lowered-IR fingerprint
(:func:`~repro.fuzz.differential.ir_fingerprint`, the artifact every
backend consumes) as the original.  The rest is the format's contract:
three accepted expression shapes, strict unknown-key rejection, size
limits, and structured :class:`~repro.errors.SpecFormatError` rejections
carrying JSON paths.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compiler.cache import spec_fingerprint
from repro.errors import SpecFormatError
from repro.fuzz.differential import ir_fingerprint
from repro.fuzz.generator import generate_machine
from repro.machines.library import all_machines
from repro.rtl.interchange import (
    FORMAT_NAME,
    FORMAT_VERSION,
    MAX_COMPONENTS,
    MAX_SELECTOR_CASES,
    MAX_TOTAL_MEMORY_CELLS,
    expression_from_json,
    expression_to_json,
    looks_like_json,
    spec_from_json,
    spec_from_json_text,
    spec_to_json,
    spec_to_json_text,
)
from repro.rtl.parser import parse_expression, parse_spec
from repro.rtl.writer import spec_to_text


def minimal_doc(**overrides):
    """A smallest valid document, with fields overridable per test."""
    doc = {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "comment": "minimal",
        "components": [
            {"type": "memory", "name": "r", "address": 0, "data": "r",
             "operation": 1, "size": 1},
        ],
    }
    doc.update(overrides)
    return doc


class TestRoundTrip:
    @pytest.mark.parametrize(
        "machine_name", [entry.name for entry in all_machines()]
    )
    def test_bundled_machines_round_trip_identically(self, machine_name):
        spec = next(
            e for e in all_machines() if e.name == machine_name
        ).build()
        restored = spec_from_json(spec_to_json(spec))
        assert spec_fingerprint(restored) == spec_fingerprint(spec)
        assert ir_fingerprint(restored) == ir_fingerprint(spec)
        assert spec_to_text(restored) == spec_to_text(spec)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10**9))
    def test_generated_machines_round_trip_identically(self, seed):
        spec = generate_machine(seed).spec
        restored = spec_from_json(spec_to_json(spec))
        assert spec_fingerprint(restored) == spec_fingerprint(spec)
        assert ir_fingerprint(restored) == ir_fingerprint(spec)

    def test_json_text_round_trip(self, counter_spec):
        restored = spec_from_json_text(spec_to_json_text(counter_spec))
        assert spec_fingerprint(restored) == spec_fingerprint(counter_spec)

    def test_double_round_trip_is_stable(self, counter_spec):
        once = spec_to_json(counter_spec)
        twice = spec_to_json(spec_from_json(once))
        assert once["components"] == twice["components"]
        assert once.get("declarations") == twice.get("declarations")

    def test_source_name_travels(self, counter_spec):
        doc = spec_to_json(counter_spec)
        doc["name"] = "my-machine"
        assert spec_from_json(doc).source_name == "my-machine"

    def test_cycles_and_trace_marks_travel(self, counter_spec):
        restored = spec_from_json(spec_to_json(counter_spec))
        assert restored.cycles == counter_spec.cycles
        assert [d.to_spec() for d in restored.declarations] == [
            d.to_spec() for d in counter_spec.declarations
        ]


class TestExpressionShapes:
    """The three accepted forms: paper text, bare int, typed node list."""

    @pytest.mark.parametrize("shape", [
        "count.0.2",
        [{"type": "ref", "name": "count", "low": 0, "high": 2}],
        {"type": "ref", "name": "count", "low": 0, "high": 2},
    ])
    def test_equivalent_shapes_build_the_same_expression(self, shape):
        expression = expression_from_json(shape, "$")
        assert expression.to_spec() == "count.0.2"

    def test_bare_int_is_a_constant(self):
        assert expression_from_json(7, "$").constant_value() == 7

    def test_node_list_concatenation_order_is_leftmost_first(self):
        expression = expression_from_json(
            [{"type": "ref", "name": "a"}, {"type": "const", "value": 1,
                                            "width": 3}],
            "$",
        )
        assert expression.to_spec() == "a,1.3"

    def test_bits_node(self):
        expression = expression_from_json(
            [{"type": "bits", "bits": "0101"}], "$"
        )
        assert expression.to_spec() == "#0101"

    def test_export_emits_canonical_nodes(self):
        nodes = expression_to_json(parse_expression("pc.0.6,1.3"))
        assert nodes == [
            {"type": "ref", "name": "pc", "low": 0, "high": 6},
            {"type": "const", "value": 1, "width": 3},
        ]


class TestStructuredErrors:
    """Every rejection is a SpecFormatError with a JSON path."""

    def test_non_dict_document(self):
        with pytest.raises(SpecFormatError, match=r"\$"):
            spec_from_json([1, 2, 3])

    def test_wrong_format_marker(self):
        with pytest.raises(SpecFormatError, match=r"\$\.format"):
            spec_from_json(minimal_doc(format="not-a-spec"))

    def test_unsupported_version(self):
        with pytest.raises(SpecFormatError, match=r"\$\.version"):
            spec_from_json(minimal_doc(version=FORMAT_VERSION + 1))

    def test_unknown_top_level_key(self):
        with pytest.raises(SpecFormatError, match="unknown key"):
            spec_from_json(minimal_doc(cylces=40))

    def test_unknown_component_key_carries_component_path(self):
        doc = minimal_doc()
        doc["components"][0]["extra"] = 1
        with pytest.raises(SpecFormatError,
                           match=r"\$\.components\[0\]") as excinfo:
            spec_from_json(doc)
        assert excinfo.value.path == "$.components[0]"

    def test_bad_expression_node_carries_field_path(self):
        doc = minimal_doc()
        doc["components"][0]["data"] = [{"type": "wat"}]
        with pytest.raises(SpecFormatError,
                           match=r"\$\.components\[0\]\.data\[0\]"):
            spec_from_json(doc)

    def test_unparsable_expression_text(self):
        doc = minimal_doc()
        doc["components"][0]["address"] = "1..2..3..4"
        with pytest.raises(SpecFormatError, match="did not parse"):
            spec_from_json(doc)

    def test_empty_expression_rejected(self):
        doc = minimal_doc()
        doc["components"][0]["data"] = []
        with pytest.raises(SpecFormatError, match="at least one field"):
            spec_from_json(doc)

    def test_unknown_component_type(self):
        doc = minimal_doc(components=[{"type": "fpga", "name": "x"}])
        with pytest.raises(SpecFormatError, match="'alu', 'selector'"):
            spec_from_json(doc)

    def test_empty_component_list(self):
        with pytest.raises(SpecFormatError, match="at least one component"):
            spec_from_json(minimal_doc(components=[]))

    def test_duplicate_component_names(self):
        doc = minimal_doc()
        doc["components"] = doc["components"] * 2
        with pytest.raises(SpecFormatError, match="more than once"):
            spec_from_json(doc)

    def test_dangling_reference_rejected_by_validation(self):
        doc = minimal_doc()
        doc["components"][0]["data"] = "ghost"
        with pytest.raises(SpecFormatError, match="ghost"):
            spec_from_json(doc)

    def test_validation_can_be_deferred(self):
        doc = minimal_doc()
        doc["components"][0]["data"] = "ghost"
        spec = spec_from_json(doc, validate=False)
        assert len(spec) == 1

    def test_booleans_are_not_integers(self):
        doc = minimal_doc()
        doc["components"][0]["size"] = True
        with pytest.raises(SpecFormatError, match="size"):
            spec_from_json(doc)

    def test_bad_json_text(self):
        with pytest.raises(SpecFormatError, match="not valid JSON"):
            spec_from_json_text("{nope")

    def test_declaration_object_form(self):
        doc = minimal_doc(declarations=[{"name": "r", "traced": True}])
        spec = spec_from_json(doc)
        assert spec.declarations[0].traced is True

    def test_declaration_bad_key(self):
        doc = minimal_doc(declarations=[{"name": "r", "trace": True}])
        with pytest.raises(SpecFormatError, match=r"declarations\[0\]"):
            spec_from_json(doc)


class TestAbuseGuards:
    def test_component_count_limit(self):
        components = [
            {"type": "alu", "name": f"a{i}", "function": 0, "left": 0,
             "right": 0}
            for i in range(MAX_COMPONENTS + 1)
        ]
        with pytest.raises(SpecFormatError, match="at most"):
            spec_from_json(minimal_doc(components=components))

    def test_memory_cell_limit(self):
        doc = minimal_doc()
        doc["components"][0]["size"] = MAX_TOTAL_MEMORY_CELLS + 1
        with pytest.raises(SpecFormatError, match="cells"):
            spec_from_json(doc)

    def test_selector_case_limit(self):
        doc = minimal_doc()
        doc["components"].insert(0, {
            "type": "selector", "name": "s", "select": "r",
            "cases": [0] * (MAX_SELECTOR_CASES + 1),
        })
        with pytest.raises(SpecFormatError, match="cases"):
            spec_from_json(doc)


class TestFormatDetection:
    def test_json_documents_detected(self, counter_spec):
        assert looks_like_json(spec_to_json_text(counter_spec))

    def test_paper_text_not_detected(self, counter_spec_text):
        assert not looks_like_json(counter_spec_text)


def test_fingerprint_ignores_presentation_but_not_semantics():
    """ir_fingerprint: source-text metadata out, semantic changes in."""
    base = parse_spec(
        "# fp\nr .\nA a 4 r 1\nM r 0 a 1 1\n.\n"
    )
    same = spec_from_json(spec_to_json(base))
    assert ir_fingerprint(same) == ir_fingerprint(base)
    different = parse_spec(
        "# fp\nr .\nA a 5 r 1\nM r 0 a 1 1\n.\n"
    )
    assert ir_fingerprint(different) != ir_fingerprint(base)
