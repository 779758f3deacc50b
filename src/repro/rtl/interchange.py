"""JSON spec interchange: a versioned, documented wire format for machines.

A :class:`~repro.rtl.spec.Specification` has always had two faces: the
paper's source language (``rtl/parser.py`` / ``rtl/writer.py``) and the
in-memory dataclasses.  This module adds the third — a canonical JSON
document — so machines can be authored, versioned, diffed, uploaded over
HTTP and generated by tools that never import Python.  The format is the
substrate of the differential fuzzer (:mod:`repro.fuzz`): generated
machines are persisted, shrunk and replayed as JSON.

The schema (documented in full in ``docs/spec-format.md``) is::

    {
      "format": "repro-spec",
      "version": 1,
      "name": "counter",              # optional display name
      "comment": "three bit counter", # the header comment
      "cycles": 40,                   # optional default cycle count
      "declarations": ["count*", "next"],   # optional; "*" marks tracing
      "components": [
        {"type": "alu", "name": "next", "function": 4,
         "left": "count", "right": 1},
        {"type": "memory", "name": "count", "address": 0,
         "data": [{"type": "ref", "name": "next", "low": 0, "high": 2}],
         "operation": 1, "size": 1}
      ]
    }

Expressions appear in one of three interchangeable shapes: a **string** in
the paper's expression syntax (``"ir.0.6"``), a **number** (a constant
field), or the canonical **list of typed field nodes** — leftmost field
first, exactly as the concatenation syntax reads:

* ``{"type": "const", "value": 5}`` / ``{... "width": 3}``
* ``{"type": "bits", "bits": "0101"}``
* ``{"type": "ref", "name": "pc"}`` / ``{... "low": 0, "high": 6}``

:func:`spec_to_json` always emits the canonical node form;
:func:`spec_from_json` accepts all three.  Round-tripping preserves the
:func:`~repro.compiler.cache.spec_fingerprint` — the identity the
``PrepareCache`` and the server's ``PoolRegistry`` key on — which the
interchange test suite asserts for every bundled machine.

Errors are structured: every rejection raises
:class:`~repro.errors.SpecFormatError` carrying a JSON path
(``components[3].left``), which the HTTP layer surfaces as a 400 with the
stable kind ``invalid_spec``.
"""

from __future__ import annotations

import json
from typing import Any, Mapping

from repro.errors import (
    InvalidNameError,
    SpecFormatError,
    SpecificationError,
    ValidationError,
)
from repro.rtl.components import Alu, Component, Memory, Selector
from repro.rtl.expressions import (
    BitStringField,
    ComponentRef,
    ConstantField,
    Expression,
    Field,
    parse_expression,
)
from repro.rtl.parser import ReadLimits, check_component_name
from repro.rtl.scanner import check_one_line
from repro.rtl.spec import Declaration, Specification
from repro.rtl.validate import ensure_valid

#: The ``format`` discriminator every document must carry.
FORMAT_NAME = "repro-spec"

#: Current schema version.  Bump on any incompatible change; the importer
#: rejects versions it does not know rather than guessing.
FORMAT_VERSION = 1

#: Abuse guards for machines arriving over the wire, held by
#: :func:`check_spec_limits`; a JSON document over the component or case
#: cap is rejected before any object is built, and specification text
#: read with :data:`WIRE_LIMITS` stops at the first part past a cap.
MAX_COMPONENTS = 4096
MAX_TOTAL_MEMORY_CELLS = 1 << 20
MAX_SELECTOR_CASES = 1 << 12

#: The same caps for the text parser (``parse_spec(..., limits=...)``),
#: which also holds macro expansion to 1 MiB of text in total.
WIRE_LIMITS = ReadLimits(
    components=MAX_COMPONENTS,
    memory_cells=MAX_TOTAL_MEMORY_CELLS,
    selector_cases=MAX_SELECTOR_CASES,
    macro_chars=1 << 20,
)

#: Top-level keys a document may carry.
_DOCUMENT_KEYS = frozenset(
    {"format", "version", "name", "comment", "cycles", "declarations",
     "components"}
)

_ALU_KEYS = frozenset({"type", "name", "function", "left", "right"})
_SELECTOR_KEYS = frozenset({"type", "name", "select", "cases"})
_MEMORY_KEYS = frozenset(
    {"type", "name", "address", "data", "operation", "size", "initial"}
)


# ---------------------------------------------------------------------------
# Export: Specification -> JSON document
# ---------------------------------------------------------------------------


def _field_to_node(field: Field) -> dict:
    if isinstance(field, ConstantField):
        node: dict = {"type": "const", "value": field.value}
        if field.explicit_width is not None:
            node["width"] = field.explicit_width
        return node
    if isinstance(field, BitStringField):
        return {"type": "bits", "bits": field.bits}
    if isinstance(field, ComponentRef):
        node = {"type": "ref", "name": field.name}
        if field.low is not None:
            node["low"] = field.low
        if field.high is not None:
            node["high"] = field.high
        return node
    raise TypeError(f"unknown expression field type {type(field)!r}")


def expression_to_json(expression: Expression) -> list[dict]:
    """Canonical JSON form of an expression: typed nodes, leftmost first."""
    return [_field_to_node(field) for field in expression.fields]


def _component_to_json(component: Component) -> dict:
    if isinstance(component, Alu):
        return {
            "type": "alu",
            "name": component.name,
            "function": expression_to_json(component.funct),
            "left": expression_to_json(component.left),
            "right": expression_to_json(component.right),
        }
    if isinstance(component, Selector):
        return {
            "type": "selector",
            "name": component.name,
            "select": expression_to_json(component.select),
            "cases": [expression_to_json(case) for case in component.cases],
        }
    if isinstance(component, Memory):
        document = {
            "type": "memory",
            "name": component.name,
            "address": expression_to_json(component.address),
            "data": expression_to_json(component.data),
            "operation": expression_to_json(component.operation),
            "size": component.size,
        }
        if component.initial_values:
            document["initial"] = list(component.initial_values)
        return document
    raise TypeError(f"unknown component type {type(component)!r}")


def spec_to_json(spec: Specification) -> dict:
    """Serialise *spec* into its canonical interchange document."""
    document: dict = {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "comment": spec.header_comment,
    }
    if spec.source_name != "<specification>":
        document["name"] = spec.source_name
    if spec.cycles is not None:
        document["cycles"] = spec.cycles
    if spec.declarations:
        document["declarations"] = [d.to_spec() for d in spec.declarations]
    document["components"] = [
        _component_to_json(component) for component in spec.components
    ]
    return document


def spec_to_json_text(spec: Specification, indent: int | None = 2) -> str:
    """Serialise *spec* to JSON text (stable key order, trailing newline)."""
    return json.dumps(spec_to_json(spec), indent=indent) + "\n"


# ---------------------------------------------------------------------------
# Import: JSON document -> Specification
# ---------------------------------------------------------------------------


def _fail(message: str, path: str) -> "SpecFormatError":
    raise SpecFormatError(message, path=path)


def _require(doc: Any, expected: type, path: str, what: str) -> Any:
    if not isinstance(doc, expected) or (
        isinstance(doc, bool) and expected is not bool
    ):
        _fail(
            f"{what} must be a {expected.__name__}, "
            f"got {type(doc).__name__}",
            path,
        )
    return doc


def _one_line(doc: Any, path: str, what: str) -> str:
    """A free-text field (the comment, the display name), by the source
    reader's rule for the header comment: one line of text."""
    text = _require(doc, str, path, what)
    try:
        return check_one_line(text, what)
    except SpecificationError as exc:
        raise SpecFormatError(str(exc), path=path) from exc


def _component_name(doc: Any, path: str, what: str) -> str:
    """A component name, by the source language's rule: a letter followed
    by letters and digits (names become variables in generated code)."""
    name = _require(doc, str, path, what)
    try:
        return check_component_name(name)
    except InvalidNameError as exc:
        raise SpecFormatError(str(exc), path=path) from exc


def _optional_nonneg_int(doc: Mapping, key: str, path: str) -> int | None:
    value = doc.get(key)
    if value is None:
        return None
    _require(value, int, f"{path}.{key}", f"'{key}'")
    if value < 0:
        _fail(f"'{key}' must be >= 0, got {value}", f"{path}.{key}")
    return value


def _node_to_field(node: Any, path: str) -> Field:
    """Build one expression field from a typed node (or a bare int)."""
    if isinstance(node, int) and not isinstance(node, bool):
        node = {"type": "const", "value": node}
    _require(node, dict, path, "expression field")
    kind = node.get("type")
    try:
        if kind == "const":
            extra = set(node) - {"type", "value", "width"}
            if extra:
                _fail(f"unknown key(s) {sorted(extra)}", path)
            value = _require(node.get("value"), int, f"{path}.value",
                             "'value'")
            width = node.get("width")
            if width is not None:
                _require(width, int, f"{path}.width", "'width'")
            return ConstantField(value, width)
        if kind == "bits":
            extra = set(node) - {"type", "bits"}
            if extra:
                _fail(f"unknown key(s) {sorted(extra)}", path)
            bits = _require(node.get("bits"), str, f"{path}.bits", "'bits'")
            return BitStringField(bits)
        if kind == "ref":
            extra = set(node) - {"type", "name", "low", "high"}
            if extra:
                _fail(f"unknown key(s) {sorted(extra)}", path)
            name = _component_name(node.get("name"), f"{path}.name", "'name'")
            low = node.get("low")
            if low is not None:
                _require(low, int, f"{path}.low", "'low'")
            high = node.get("high")
            if high is not None:
                _require(high, int, f"{path}.high", "'high'")
            return ComponentRef(name, low, high)
    except SpecificationError as exc:
        if isinstance(exc, SpecFormatError):
            raise
        raise SpecFormatError(str(exc), path=path) from exc
    _fail(
        f"expression field 'type' must be 'const', 'bits' or 'ref', "
        f"got {kind!r}",
        path,
    )
    raise AssertionError("unreachable")


def expression_from_json(doc: Any, path: str) -> Expression:
    """Build an expression from any accepted shape (string/int/node list)."""
    if isinstance(doc, str):
        try:
            return parse_expression(doc)
        except SpecificationError as exc:
            raise SpecFormatError(
                f"expression text {doc!r} did not parse: {exc}", path=path
            ) from exc
    if isinstance(doc, int) and not isinstance(doc, bool):
        return Expression((_node_to_field(doc, path),), source=str(doc))
    if isinstance(doc, dict):
        doc = [doc]
    _require(doc, list, path, "expression")
    if not doc:
        _fail("expression must have at least one field", path)
    fields = tuple(
        _node_to_field(node, f"{path}[{index}]")
        for index, node in enumerate(doc)
    )
    try:
        return Expression(fields)
    except SpecificationError as exc:
        raise SpecFormatError(str(exc), path=path) from exc


def _component_from_json(doc: Any, path: str) -> Component:
    _require(doc, dict, path, "component")
    kind = doc.get("type")
    name = _component_name(doc.get("name"), f"{path}.name", "component 'name'")
    try:
        if kind == "alu":
            extra = set(doc) - _ALU_KEYS
            if extra:
                _fail(f"unknown key(s) {sorted(extra)}", path)
            return Alu(
                name=name,
                funct=expression_from_json(
                    doc.get("function"), f"{path}.function"
                ),
                left=expression_from_json(doc.get("left"), f"{path}.left"),
                right=expression_from_json(doc.get("right"), f"{path}.right"),
            )
        if kind == "selector":
            extra = set(doc) - _SELECTOR_KEYS
            if extra:
                _fail(f"unknown key(s) {sorted(extra)}", path)
            cases_doc = _require(
                doc.get("cases"), list, f"{path}.cases", "'cases'"
            )
            if len(cases_doc) > MAX_SELECTOR_CASES:
                _fail(
                    f"selector has {len(cases_doc)} cases; the format allows "
                    f"at most {MAX_SELECTOR_CASES}",
                    f"{path}.cases",
                )
            return Selector(
                name=name,
                select=expression_from_json(
                    doc.get("select"), f"{path}.select"
                ),
                cases=tuple(
                    expression_from_json(case, f"{path}.cases[{index}]")
                    for index, case in enumerate(cases_doc)
                ),
            )
        if kind == "memory":
            extra = set(doc) - _MEMORY_KEYS
            if extra:
                _fail(f"unknown key(s) {sorted(extra)}", path)
            size = _require(doc.get("size"), int, f"{path}.size", "'size'")
            initial_doc = doc.get("initial", [])
            _require(initial_doc, list, f"{path}.initial", "'initial'")
            initial: list[int] = []
            for index, value in enumerate(initial_doc):
                _require(value, int, f"{path}.initial[{index}]",
                         "initial value")
                initial.append(value)
            return Memory(
                name=name,
                address=expression_from_json(
                    doc.get("address"), f"{path}.address"
                ),
                data=expression_from_json(doc.get("data"), f"{path}.data"),
                operation=expression_from_json(
                    doc.get("operation"), f"{path}.operation"
                ),
                size=size,
                initial_values=tuple(initial),
            )
    except SpecificationError as exc:
        if isinstance(exc, SpecFormatError):
            raise
        raise SpecFormatError(str(exc), path=path) from exc
    _fail(
        f"component 'type' must be 'alu', 'selector' or 'memory', "
        f"got {kind!r}",
        path,
    )
    raise AssertionError("unreachable")


def _declaration_from_json(doc: Any, path: str) -> Declaration:
    if isinstance(doc, str):
        traced = doc.endswith("*")
        name = _component_name(doc[:-1] if traced else doc, path,
                               "declaration")
        return Declaration(name=name, traced=traced)
    _require(doc, dict, path, "declaration")
    extra = set(doc) - {"name", "traced"}
    if extra:
        _fail(f"unknown key(s) {sorted(extra)}", path)
    name = _component_name(doc.get("name"), f"{path}.name",
                           "declaration 'name'")
    traced = doc.get("traced", False)
    _require(traced, bool, f"{path}.traced", "'traced'")
    return Declaration(name=name, traced=traced)


def spec_from_json(doc: Any, validate: bool = True) -> Specification:
    """Build a :class:`Specification` from an interchange document.

    With ``validate=True`` (the default) the semantic validator
    (:mod:`repro.rtl.validate`) runs too, so a structurally well-formed
    document with dangling references or combinational cycles is rejected
    here rather than at prepare time; its errors are re-raised as
    :class:`SpecFormatError` (path ``$``).
    """
    _require(doc, dict, "$", "specification document")
    extra = set(doc) - _DOCUMENT_KEYS
    if extra:
        _fail(f"unknown key(s) {sorted(extra)}", "$")
    fmt = doc.get("format")
    if fmt != FORMAT_NAME:
        _fail(
            f"'format' must be {FORMAT_NAME!r}, got {fmt!r}", "$.format"
        )
    version = doc.get("version")
    if version != FORMAT_VERSION:
        _fail(
            f"unsupported version {version!r}; this reader understands "
            f"version {FORMAT_VERSION}",
            "$.version",
        )
    comment = _one_line(doc.get("comment", ""), "$.comment", "'comment'")
    if not comment.startswith("#"):
        comment = f"# {comment}" if comment else "#"
    name = _one_line(doc.get("name", "<json spec>"), "$.name", "'name'")
    cycles = _optional_nonneg_int(doc, "cycles", "$")

    components_doc = doc.get("components")
    _require(components_doc, list, "$.components", "'components'")
    if not components_doc:
        _fail("'components' must define at least one component",
              "$.components")
    if len(components_doc) > MAX_COMPONENTS:
        _fail(
            f"document defines {len(components_doc)} components; the format "
            f"allows at most {MAX_COMPONENTS}",
            "$.components",
        )
    components = tuple(
        _component_from_json(component, f"$.components[{index}]")
        for index, component in enumerate(components_doc)
    )

    declarations_doc = doc.get("declarations", [])
    _require(declarations_doc, list, "$.declarations", "'declarations'")
    declarations = tuple(
        _declaration_from_json(declaration, f"$.declarations[{index}]")
        for index, declaration in enumerate(declarations_doc)
    )

    try:
        spec = Specification(
            header_comment=comment,
            components=components,
            declarations=declarations,
            cycles=cycles,
            source_name=name,
        )
        check_spec_limits(spec)
    except SpecificationError as exc:
        raise SpecFormatError(str(exc), path="$.components") from exc
    if validate:
        try:
            ensure_valid(spec)
        except ValidationError as exc:
            raise SpecFormatError(
                "specification is invalid: " + "; ".join(exc.problems),
                path="$",
            ) from exc
    return spec


def check_spec_limits(spec: Specification) -> None:
    """Refuse a built machine over any wire cap.

    :func:`spec_from_json` applies it to every document; inline text is
    held to the same caps while it is read (:data:`WIRE_LIMITS`).  Raises
    :class:`~repro.errors.ValidationError` for the first cap exceeded.
    """
    sizes = (
        (len(spec.components), MAX_COMPONENTS, "components"),
        (sum(memory.size for memory in spec.memories()),
         MAX_TOTAL_MEMORY_CELLS, "memory cells in total"),
        (max((selector.case_count for selector in spec.selectors()),
             default=0), MAX_SELECTOR_CASES, "cases in one selector"),
    )
    for size, cap, what in sizes:
        if size > cap:
            raise ValidationError(
                [f"specification has {size} {what}; at most {cap} are "
                 f"accepted"]
            )


def spec_from_json_text(text: str | bytes, validate: bool = True) -> Specification:
    """Parse JSON text and build the specification it describes."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SpecFormatError(f"document is not valid JSON: {exc}") from exc
    return spec_from_json(doc, validate=validate)


def looks_like_json(text: str) -> bool:
    """Heuristic used by the CLI to auto-detect the input format."""
    stripped = text.lstrip()
    return stripped.startswith("{")
