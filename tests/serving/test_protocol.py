"""Unit tests for the JSON wire protocol (serving/protocol.py):
request validation, structured rejection, and result round-trips."""

from __future__ import annotations

import pickle

import pytest

from repro.core.comparison import compare_results
from repro.core.simulator import Simulator
from repro.serving.protocol import (
    BATCH_FIELDS,
    RUN_FIELDS,
    ConstantOverride,
    ProtocolError,
    batch_result_to_json,
    error_to_json,
    parse_batch_request,
    parse_run_request,
    resolve_spec,
    result_from_json,
    result_to_json,
    run_request_from_json,
)


class TestRunRequestFromJson:
    def test_minimal(self):
        run = run_request_from_json({})
        assert run.cycles is None
        assert run.inputs == ()
        assert run.collect_stats is True
        assert run.override is None

    def test_full(self):
        run = run_request_from_json({
            "cycles": 12, "inputs": [1, 2], "trace": True,
            "collect_stats": False, "tag": "t",
            "override": {"count": 3},
        })
        assert run.cycles == 12
        assert run.inputs == (1, 2)
        assert run.trace is True
        assert run.collect_stats is False
        assert run.tag == "t"
        assert run.override("count", 9, 0) == 3
        assert run.override("other", 9, 0) == 9

    @pytest.mark.parametrize("doc", [
        {"cylces": 5},                       # typo'd field
        {"cycles": "ten"},                   # wrong type
        {"cycles": True},                    # bool is not an int here
        {"inputs": "12"},                    # not a list
        {"inputs": [1, "x"]},                # non-integer element
        {"trace": "yes"},                    # non-bool trace
        {"collect_stats": 1},                # non-bool
        {"tag": 7},                          # non-string tag
        {"override": []},                    # not an object
        {"override": {}},                    # pins nothing
        {"override": {"count": "x"}},        # non-integer pin
        [],                                  # not an object at all
    ])
    def test_malformed_is_rejected_structurally(self, doc):
        with pytest.raises(ProtocolError) as excinfo:
            run_request_from_json(doc)
        assert excinfo.value.status == 400

    def test_constant_override_is_picklable(self):
        override = ConstantOverride(values=(("count", 1),))
        clone = pickle.loads(pickle.dumps(override))
        assert clone("count", 5, 0) == 1


class TestResolveSpec:
    def test_bundled_machine(self):
        spec, label, pool_key = resolve_spec({"machine": "counter"})
        assert label == "counter"
        assert pool_key == "machine:counter"
        assert spec.components

    def test_bundled_machine_spec_is_memoized(self):
        first, _, _ = resolve_spec({"machine": "counter"})
        second, _, _ = resolve_spec({"machine": "counter"})
        assert first is second  # warm path: no rebuild per request

    def test_inline_spec_text(self, counter_spec_text):
        spec, label, pool_key = resolve_spec({"spec": counter_spec_text})
        assert label == "<inline spec>"
        assert pool_key.startswith("spec:")
        assert spec.components
        # content-addressed: identical text, identical pool identity
        _, _, again = resolve_spec({"spec": counter_spec_text})
        assert again == pool_key

    def test_unknown_machine_is_404(self):
        with pytest.raises(ProtocolError) as excinfo:
            resolve_spec({"machine": "warp-core"})
        assert excinfo.value.status == 404
        assert excinfo.value.kind == "unknown_machine"

    def test_machine_and_spec_together_rejected(self, counter_spec_text):
        with pytest.raises(ProtocolError):
            resolve_spec({"machine": "counter", "spec": counter_spec_text})

    def test_neither_rejected(self):
        with pytest.raises(ProtocolError):
            resolve_spec({})

    def test_unparsable_spec_text(self):
        with pytest.raises(ProtocolError) as excinfo:
            resolve_spec({"spec": "# header\nnot a component line\n.\n"})
        assert excinfo.value.kind == "invalid_specification"

    def test_inline_json_spec_document(self, counter_spec,
                                       counter_spec_text):
        from repro.rtl.interchange import spec_to_json

        spec, label, pool_key = resolve_spec(
            {"spec": spec_to_json(counter_spec)}
        )
        assert label == "<json spec>"
        assert spec.components
        # the JSON form is content-addressed by the same fingerprint as
        # the text form: both submissions share one warm pool
        _, _, text_key = resolve_spec({"spec": counter_spec_text})
        assert pool_key == text_key

    def test_invalid_json_spec_document_is_400(self):
        with pytest.raises(ProtocolError) as excinfo:
            resolve_spec({"spec": {"format": "not-a-spec"}})
        assert excinfo.value.status == 400
        assert excinfo.value.kind == "invalid_spec"
        # the SpecFormatError path survives into the message
        assert "$.format" in str(excinfo.value)

    def test_oversized_json_spec_document_is_400(self):
        from repro.rtl.interchange import MAX_COMPONENTS

        document = {
            "format": "repro-spec", "version": 1,
            "components": [
                {"type": "alu", "name": f"a{i}", "function": 0,
                 "left": 0, "right": 0}
                for i in range(MAX_COMPONENTS + 1)
            ],
        }
        with pytest.raises(ProtocolError) as excinfo:
            resolve_spec({"spec": document})
        assert excinfo.value.status == 400
        assert excinfo.value.kind == "invalid_spec"


#: parts past the cap in each over-cap body below
_TAIL = 20_000


def _over_cap_bodies():
    """cap -> (body past it, most tokens and expressions the parser may
    build before it refuses the body)"""
    from repro.rtl.interchange import (
        MAX_COMPONENTS,
        MAX_SELECTOR_CASES,
        MAX_TOTAL_MEMORY_CELLS,
    )

    over = MAX_COMPONENTS + _TAIL
    return {
        "declarations": (
            "# many\n" + " ".join(f"a{i}" for i in range(over)) + " .\n.\n",
            MAX_COMPONENTS + 1, 0),
        # an ALU definition is five tokens and three expressions
        "components": (
            "# many\n.\n" + "".join(f"A a{i} 0 0 0\n" for i in range(over))
            + ".\n",
            5 * MAX_COMPONENTS + 2, 3 * MAX_COMPONENTS),
        "memory cells": (
            f"# big\nm n .\nM m 0 0 0 {MAX_TOTAL_MEMORY_CELLS - 8}\n"
            f"M n 0 0 0 -{_TAIL}" + " 7" * _TAIL + "\n.\n",
            15, 6),
        "selector cases": (
            "# wide\ns .\nS s 0" + " 0" * (MAX_SELECTOR_CASES + _TAIL)
            + "\n.\n",
            MAX_SELECTOR_CASES + 6, MAX_SELECTOR_CASES + 1),
    }


class TestTextSpecCaps:
    """An inline text spec over a wire cap is refused while it is read:
    the parser builds no more than the cap allows, however long the rest
    of the body.  Counted in tokens and expressions, not timed."""

    @pytest.fixture
    def built(self, monkeypatch):
        """Counts of the tokens and expressions the parser builds."""
        from collections import Counter

        from repro.rtl import parser, scanner

        counts = Counter()
        token, expression = scanner.Token, parser.parse_expression

        def counting_token(*args):
            counts["tokens"] += 1
            return token(*args)

        def counting_expression(text):
            counts["expressions"] += 1
            return expression(text)

        monkeypatch.setattr(scanner, "Token", counting_token)
        monkeypatch.setattr(parser, "parse_expression", counting_expression)
        return counts

    @pytest.mark.parametrize("cap", list(_over_cap_bodies()))
    def test_reading_stops_at_the_cap(self, built, cap):
        body, most_tokens, most_expressions = _over_cap_bodies()[cap]
        with pytest.raises(ProtocolError) as excinfo:
            resolve_spec({"spec": body})
        assert excinfo.value.status == 400
        assert excinfo.value.kind == "invalid_specification"
        assert "at most" in str(excinfo.value)
        assert built["tokens"] <= most_tokens, built
        assert built["expressions"] <= most_expressions, built

    @pytest.mark.parametrize("body", [
        # each definition doubles the one before, up to 2^24 characters
        "# chain\n~m0 x\n"
        + "".join(f"~m{i} ~m{i - 1}~m{i - 1}\n" for i in range(1, 25))
        + "a .\nA a 0 0 0\n.\n",
        # one token repeats a 1000-character macro 2000 times
        "# repeats\n~m " + "x" * 1000 + "\na .\nA a " + "~m" * 2000
        + " 0 0\n.\n",
    ], ids=["doubling definitions", "repeated references"])
    def test_macro_expansion_stops_at_the_cap(self, monkeypatch, body):
        from repro.rtl import macros
        from repro.rtl.interchange import WIRE_LIMITS

        expand, expanded = macros.MacroTable.expand, []

        def counting_expand(table, text):
            result = expand(table, text)
            if macros.MACRO_SIGIL in text:
                expanded.append(len(result))
            return result

        monkeypatch.setattr(macros.MacroTable, "expand", counting_expand)
        with pytest.raises(ProtocolError) as excinfo:
            resolve_spec({"spec": body})
        assert excinfo.value.status == 400
        assert excinfo.value.kind == "invalid_specification"
        assert "macro expansion" in str(excinfo.value)
        assert sum(expanded) <= WIRE_LIMITS.macro_chars

    def test_a_local_file_has_no_cap(self):
        from repro.rtl.interchange import MAX_SELECTOR_CASES, WIRE_LIMITS
        from repro.rtl.parser import parse_spec

        spec = parse_spec("# wide\ns .\nS s 0"
                          + " 0" * (MAX_SELECTOR_CASES + 1) + "\n.\n")
        assert spec.selectors()[0].case_count == MAX_SELECTOR_CASES + 1
        spec = parse_spec("# long macro\n~m " + "x" * 1000 + "\n~n "
                          + "~m" * 2000 + "\ns .\nS s 0 0\n.\n")
        assert len(spec.macros["n"]) > WIRE_LIMITS.macro_chars


class TestParseBatchRequest:
    def test_happy_path(self):
        batch = parse_batch_request(
            {"machine": "gcd", "runs": [{"cycles": 16}, {"tag": "b"}]},
            default_backend="threaded", default_executor="serial",
        )
        assert batch.backend == "threaded"
        assert (batch.executor, batch.lane_width) == ("serial", None)
        assert len(batch.runs) == 2
        assert batch.label == "gcd"

    @pytest.mark.parametrize("fields, server_width, resolved", [
        ({"executor": "thread"}, None, ("serial", None)),
        ({"executor": "thread"}, 8, ("serial", 8)),
        ({"executor": "lane"}, None, ("serial", 16)),
        ({"executor": "lane"}, 8, ("serial", 8)),
        ({"executor": "lane", "lane_width": 4}, 8, ("serial", 4)),
        ({"executor": "lane", "lane_width": 1}, None, ("serial", None)),
        ({"executor": "process", "lane_width": 4}, None, ("process", 4)),
        ({}, 8, ("serial", 8)),
    ])
    def test_executor_aliases_resolve_to_a_strategy(self, fields,
                                                    server_width, resolved):
        # the request's lane_width wins, then the server's, then the
        # alias's own default (16 for lane)
        batch = parse_batch_request(
            {"machine": "gcd", "runs": [{}], **fields},
            "threaded", "serial", server_width,
        )
        assert (batch.executor, batch.lane_width) == resolved

    def test_defaults_are_overridable(self):
        batch = parse_batch_request(
            {"machine": "gcd", "backend": "compiled", "executor": "serial",
             "runs": [{}]},
            default_backend="threaded", default_executor="thread",
        )
        assert batch.backend == "compiled"
        assert batch.executor == "serial"

    @pytest.mark.parametrize("doc,kind", [
        ({"machine": "gcd"}, "bad_request"),                  # no runs
        ({"machine": "gcd", "runs": []}, "bad_request"),      # empty runs
        ({"machine": "gcd", "runs": [{}], "backend": "x"}, "unknown_backend"),
        ({"machine": "gcd", "runs": [{}], "executor": "x"}, "unknown_executor"),
        ({"machine": "gcd", "runs": [{}], "bogus": 1}, "bad_request"),
    ])
    def test_rejections_carry_a_kind(self, doc, kind):
        with pytest.raises(ProtocolError) as excinfo:
            parse_batch_request(doc, "threaded", "thread")
        assert excinfo.value.kind == kind

    def test_single_run_form_flattens_fields(self):
        batch = parse_run_request(
            {"machine": "counter", "cycles": 8, "tag": "one"},
            default_backend="interpreter", default_executor="serial",
        )
        assert len(batch.runs) == 1
        assert batch.runs[0].cycles == 8
        assert batch.runs[0].tag == "one"
        assert batch.backend == "interpreter"

    def test_single_run_form_rejects_runs_field(self):
        with pytest.raises(ProtocolError):
            parse_run_request({"machine": "counter", "runs": [{}]},
                              "threaded", "thread")


class TestResultRoundTrip:
    def test_http_wire_round_trip_is_bit_identical(self, counter_spec):
        reference = Simulator(counter_spec, backend="interpreter").run(cycles=24)
        document = result_to_json(reference)
        rebuilt = result_from_json(document)
        assert compare_results(reference, rebuilt) == []

    def test_stats_and_timing_travel(self, counter_spec):
        result = Simulator(counter_spec, backend="threaded").run(
            cycles=8, trace=False
        )
        document = result_to_json(result)
        assert document["stats"]["cycles"] == 8
        assert document["prepare_seconds"] >= 0.0
        assert "trace_text" not in document  # tracing explicitly off

    def test_trace_text_included_when_traced(self, counter_spec):
        result = Simulator(counter_spec, backend="interpreter").run(
            cycles=4, trace=True
        )
        document = result_to_json(result)
        assert "trace_text" in document
        assert document["trace_text"]

    def test_stats_omitted_when_not_collected(self, counter_spec):
        result = Simulator(counter_spec, backend="interpreter").run(cycles=4)
        document = result_to_json(result, include_stats=False)
        assert "stats" not in document


class TestBatchResultToJson:
    def test_items_and_aggregates(self, counter_spec):
        from repro.serving import RunRequest, SimulationPool

        with SimulationPool(counter_spec, backend="interpreter",
                            executor="serial") as pool:
            batch = pool.run_batch([RunRequest(cycles=4, tag="a"),
                                    RunRequest(cycles=-1, tag="boom")])
        document = batch_result_to_json(batch)
        assert document["ok"] is False
        assert document["items"][0]["ok"] is True
        assert document["items"][0]["tag"] == "a"
        assert "result" in document["items"][0]
        assert document["items"][1]["ok"] is False
        assert document["items"][1]["error"]["type"]
        assert document["runs_per_second"] >= 0.0

    def test_error_envelope_shape(self):
        document = error_to_json("bad_request", "nope")
        assert document["error"] == {"type": "bad_request", "message": "nope"}

    def test_field_constants_cover_wire_format(self):
        # the doc test (test_server_docs) relies on these being the
        # protocol's complete field surface
        assert "cycles" in RUN_FIELDS
        assert "machine" in BATCH_FIELDS


class TestShardIdentity:
    def test_bundled_machine_triple(self):
        from repro.serving.protocol import shard_identity

        identity = shard_identity(
            {"machine": "counter"}, "threaded", "serial"
        )
        assert identity == ("machine:counter", "threaded", "serial")

    @pytest.mark.parametrize("alias", ["thread", "lane"])
    def test_aliases_shard_with_their_strategy(self, alias):
        from repro.serving.protocol import shard_identity

        assert shard_identity(
            {"machine": "counter", "executor": alias}, "threaded", "serial"
        ) == ("machine:counter", "threaded", "serial")

    def test_request_fields_override_defaults(self):
        from repro.serving.protocol import shard_identity

        identity = shard_identity(
            {"machine": "counter", "backend": "compiled",
             "executor": "process"},
            "threaded", "thread",
        )
        assert identity == ("machine:counter", "compiled", "process")

    def test_inline_spec_shares_identity_with_its_text(
        self, counter_spec_text
    ):
        from repro.serving.protocol import shard_identity

        by_text = shard_identity(
            {"spec": counter_spec_text}, "threaded", "thread"
        )
        again = shard_identity(
            {"spec": counter_spec_text}, "threaded", "thread"
        )
        assert by_text == again
        assert by_text[0].startswith("spec:")

    def test_validates_at_the_front_door(self):
        from repro.serving.protocol import ProtocolError, shard_identity

        with pytest.raises(ProtocolError) as excinfo:
            shard_identity({"machine": "no-such"}, "threaded", "thread")
        assert excinfo.value.status == 404
        with pytest.raises(ProtocolError):
            shard_identity({"machine": "counter", "backend": "no-such"},
                           "threaded", "thread")
        with pytest.raises(ProtocolError):
            shard_identity([], "threaded", "thread")
