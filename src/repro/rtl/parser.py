"""Parser for ASIM II specification source text.

The file format (Appendix A):

1. a mandatory ``#`` comment on the first line;
2. optional macro definitions (``~name body`` pairs);
3. an optional cycle count ``= N``;
4. the declaration list — component names, ``*`` marks a traced component,
   terminated by ``.``;
5. the component definitions (``A``, ``S``, ``M``), in any order, terminated
   by ``.``.

``{ ... }`` comments may appear anywhere whitespace may.  All tokens after
the macro section are macro-expanded before interpretation.

A parser given :class:`ReadLimits` stops at the first declaration or
component past the component cap, the first memory past the total cell
cap, the first selector case past the case cap and the first macro
expansion past the expansion cap, so text from an untrusted source costs
at most what the caps allow to build.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from repro.errors import (
    InvalidNameError,
    MacroRedefinitionError,
    MalformedNumberError,
    SpecificationError,
    UndefinedMacroError,
    ValidationError,
)
from repro.rtl import numbers
from repro.rtl.components import Alu, Component, Memory, Selector
from repro.rtl.expressions import parse_expression
from repro.rtl.macros import MacroTable, is_macro_definition_token
from repro.rtl.scanner import Token, TokenStream, tokenize
from repro.rtl.spec import Declaration, Specification
from repro.rtl.validate import ensure_valid

_LETTERS = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ")
_NAME_CHARS = _LETTERS | set("0123456789")

#: Tokens that introduce a component definition.
COMPONENT_LETTERS = ("A", "S", "M")


def check_component_name(name: str, line: int | None = None) -> str:
    """Validate a component name: a letter followed by letters/digits."""
    if not name or name[0] not in _LETTERS or any(
        ch not in _NAME_CHARS for ch in name
    ):
        raise InvalidNameError(
            f"component name '{name}' invalid, use letters and numbers only",
            line,
        )
    return name


@dataclass(frozen=True)
class ReadLimits:
    """Caps a parser holds a specification to while it reads it."""

    #: declarations, and component definitions
    components: int
    #: memory cells summed over every memory
    memory_cells: int
    #: cases of any one selector
    selector_cases: int
    #: characters macro expansion produces, summed over the whole text
    macro_chars: int


def _over_cap(what: str, cap: int, line: int) -> ValidationError:
    return ValidationError(
        [f"specification has more than {cap} {what} (line {line}); at most "
         f"{cap} are accepted"]
    )


class SpecificationParser:
    """Single-use parser turning source text into a :class:`Specification`."""

    def __init__(
        self,
        source: str,
        source_name: str = "<specification>",
        limits: ReadLimits | None = None,
    ) -> None:
        self._source_name = source_name
        self._stream: TokenStream = tokenize(source)
        self._limits = limits
        self._macros = MacroTable(
            budget=None if limits is None else limits.macro_chars)
        self._cycles: int | None = None
        self._declarations: list[Declaration] = []
        self._components: list[Component] = []
        self._memory_cells = 0
        self._last_component: str | None = None

    # -- token helpers -------------------------------------------------------

    def _next(self, context: str) -> Token:
        token = self._stream.peek()
        if token is None:
            raise SpecificationError(
                f"unexpected end of specification while reading {context}"
                + self._last_component_hint()
            )
        return self._stream.next()

    def _expanded(self, context: str) -> Token:
        token = self._next(context)
        return Token(self._macros.expand(token.text), token.line)

    def _last_component_hint(self) -> str:
        if self._last_component is None:
            return ""
        return f" (last component read is <{self._last_component}>)"

    # -- sections -------------------------------------------------------------

    def _parse_macros(self) -> None:
        while True:
            token = self._stream.peek()
            if token is None or not is_macro_definition_token(token.text):
                return
            self._stream.next()
            name = token.text[1:]
            body = self._next(f"macro <{name}> body")
            try:
                self._macros.define(name, body.text)
            except (InvalidNameError, MacroRedefinitionError,
                    UndefinedMacroError) as exc:
                raise type(exc)(str(exc), token.line) from None

    def _parse_cycles(self) -> None:
        token = self._stream.peek()
        if token is None or not token.text.startswith("="):
            return
        self._stream.next()
        if token.text == "=":
            count_token = self._expanded("cycle count")
            count_text = count_token.text
            line = count_token.line
        else:
            count_text = self._macros.expand(token.text[1:])
            line = token.line
        try:
            self._cycles = numbers.parse_number(count_text)
        except MalformedNumberError as exc:
            raise MalformedNumberError(
                f"invalid cycle count '{count_text}': {exc}", line
            ) from None

    def _parse_declarations(self) -> None:
        while True:
            token = self._next("the declaration list")
            if token.text == ".":
                return
            name = token.text
            traced = name.endswith("*")
            if traced:
                name = name[:-1]
            check_component_name(name, token.line)
            if (self._limits is not None and len(self._declarations)
                    == self._limits.components):
                raise _over_cap("declared components",
                                self._limits.components, token.line)
            self._declarations.append(Declaration(name=name, traced=traced))

    # -- components -----------------------------------------------------------

    def _parse_component_name(self, kind: str) -> str:
        token = self._expanded(f"the name of a {kind}")
        name = check_component_name(token.text, token.line)
        self._last_component = name
        return name

    def _parse_expression_token(self, context: str):
        token = self._expanded(context)
        try:
            return parse_expression(token.text)
        except SpecificationError as exc:
            raise type(exc)(
                f"{exc}{self._last_component_hint()}", token.line
            ) from None

    def _parse_alu(self) -> Alu:
        name = self._parse_component_name("ALU")
        funct = self._parse_expression_token(f"ALU '{name}' function")
        left = self._parse_expression_token(f"ALU '{name}' left operand")
        right = self._parse_expression_token(f"ALU '{name}' right operand")
        return Alu(name=name, funct=funct, left=left, right=right)

    def _parse_selector(self) -> Selector:
        name = self._parse_component_name("selector")
        select = self._parse_expression_token(f"selector '{name}' index")
        cases = []
        while True:
            token = self._stream.peek()
            if token is None:
                raise SpecificationError(
                    f"unexpected end of specification in selector '{name}' cases"
                )
            if token.text == "." or (
                len(token.text) == 1 and token.text in COMPONENT_LETTERS
            ):
                break
            if (self._limits is not None
                    and len(cases) == self._limits.selector_cases):
                raise _over_cap(f"cases in selector '{name}'",
                                self._limits.selector_cases, token.line)
            cases.append(self._parse_expression_token(f"selector '{name}' case"))
        return Selector(name=name, select=select, cases=tuple(cases))

    def _parse_memory(self) -> Memory:
        name = self._parse_component_name("memory")
        address = self._parse_expression_token(f"memory '{name}' address")
        data = self._parse_expression_token(f"memory '{name}' data")
        operation = self._parse_expression_token(f"memory '{name}' operation")
        count_token = self._expanded(f"memory '{name}' cell count")
        try:
            count = numbers.parse_signed_count(count_token.text)
        except MalformedNumberError as exc:
            raise MalformedNumberError(
                f"memory '{name}' cell count: {exc}", count_token.line
            ) from None
        if count == 0:
            raise SpecificationError(
                f"memory '{name}' must have at least one cell", count_token.line
            )
        initial_values: tuple[int, ...] = ()
        size = abs(count)
        self._memory_cells += size
        if (self._limits is not None
                and self._memory_cells > self._limits.memory_cells):
            raise _over_cap("memory cells in total",
                            self._limits.memory_cells, count_token.line)
        if count < 0:
            values = []
            for index in range(size):
                value_token = self._expanded(
                    f"initial value {index} of memory '{name}'"
                )
                try:
                    values.append(numbers.parse_number(value_token.text))
                except MalformedNumberError as exc:
                    raise MalformedNumberError(
                        f"memory '{name}' initial value {index}: {exc}",
                        value_token.line,
                    ) from None
            initial_values = tuple(values)
        return Memory(
            name=name,
            address=address,
            data=data,
            operation=operation,
            size=size,
            initial_values=initial_values,
        )

    def _parse_components(self) -> None:
        while True:
            token = self._next("a component definition")
            if token.text == ".":
                return
            if len(token.text) == 1 and token.text in COMPONENT_LETTERS:
                if (self._limits is not None and len(self._components)
                        == self._limits.components):
                    raise _over_cap("components", self._limits.components,
                                    token.line)
                if token.text == "A":
                    self._components.append(self._parse_alu())
                elif token.text == "S":
                    self._components.append(self._parse_selector())
                else:
                    self._components.append(self._parse_memory())
                continue
            raise SpecificationError(
                f"component expected, got <{token.text}> instead"
                + self._last_component_hint(),
                token.line,
            )

    # -- entry point -----------------------------------------------------------

    def parse(self) -> Specification:
        self._parse_macros()
        self._parse_cycles()
        self._parse_declarations()
        self._parse_components()
        return Specification(
            header_comment=self._stream.header_comment,
            components=tuple(self._components),
            declarations=tuple(self._declarations),
            cycles=self._cycles,
            macros=self._macros.as_dict(),
            source_name=self._source_name,
        )


def parse_spec(
    source: str,
    source_name: str = "<specification>",
    validate: bool = True,
    strict: bool = False,
    limits: ReadLimits | None = None,
) -> Specification:
    """Parse specification *source* text into a :class:`Specification`.

    With ``validate=True`` (the default) hard semantic errors (unknown
    references, combinational cycles, ...) raise immediately; warnings are
    available through :func:`repro.rtl.validate.validate`.  With *limits*
    the parser stops at the first part past a cap, raising
    :class:`~repro.errors.ValidationError`; without (the default, as for
    local files) nothing is capped.
    """
    spec = SpecificationParser(source, source_name, limits).parse()
    if validate:
        ensure_valid(spec, strict=strict)
    return spec


def parse_spec_file(
    path: str | Path, validate: bool = True, strict: bool = False
) -> Specification:
    """Parse a specification from a file on disk."""
    path = Path(path)
    return parse_spec(
        path.read_text(), source_name=path.name, validate=validate, strict=strict
    )
