"""Macro definition and expansion.

Appendix A: a macro definition is a ``~name`` token followed by a text token
that will be substituted for ``~name`` wherever it appears later in the
specification.  Macro bodies may reference previously defined macros (no
recursion/circularity), and a macro reference is delimited by any character
that is not a letter or digit.

The OCR of the thesis renders the sigil inconsistently as ``-`` or ``~``;
Appendix D uses ``~`` throughout, so ``~`` is the canonical sigil here and
``-`` definitions are accepted for tolerance (see DESIGN.md).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import (
    InvalidNameError,
    MacroRedefinitionError,
    UndefinedMacroError,
    ValidationError,
)

#: Characters allowed in a macro name (same rule as component names).
_LETTERS = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ")
_NAME_CHARS = _LETTERS | set("0123456789")

#: Canonical macro sigil.
MACRO_SIGIL = "~"
#: Sigils accepted when *defining* a macro (OCR tolerance).
DEFINITION_SIGILS = ("~", "-")


def is_macro_definition_token(token: str) -> bool:
    """True if *token* looks like the start of a macro definition."""
    return (
        len(token) >= 2
        and token[0] in DEFINITION_SIGILS
        and token[1] in _LETTERS
    )


def validate_macro_name(name: str) -> None:
    """Macro names follow the component-name rule: letters then letters/digits."""
    if not name or name[0] not in _LETTERS or any(
        ch not in _NAME_CHARS for ch in name
    ):
        raise InvalidNameError(
            f"macro name '{name}' invalid, use letters and numbers only"
        )


@dataclass
class MacroTable:
    """Ordered collection of macro definitions with expansion.

    With a ``budget``, the characters every expansion produces, summed
    over definitions and references, are held to it: an expansion past
    it raises :class:`~repro.errors.ValidationError` before its text is
    joined, so a chain of doubling definitions costs at most the budget.
    """

    _macros: dict[str, str] = field(default_factory=dict)
    #: the most characters expansions may produce (``None``: no cap)
    budget: int | None = None
    _spent: int = field(default=0, init=False)

    def __len__(self) -> int:
        return len(self._macros)

    def __contains__(self, name: str) -> bool:
        return name in self._macros

    def names(self) -> list[str]:
        return list(self._macros)

    def body(self, name: str) -> str:
        try:
            return self._macros[name]
        except KeyError:
            raise UndefinedMacroError(f"macro <{name}> not defined") from None

    def define(self, name: str, body: str) -> None:
        """Define a macro.  The body is expanded against earlier macros now,
        so later references need only a single expansion pass."""
        validate_macro_name(name)
        if name in self._macros:
            raise MacroRedefinitionError(f"macro <{name}> defined twice")
        self._macros[name] = self.expand(body)

    def expand(self, text: str) -> str:
        """Replace every ``~name`` reference in *text* with its body."""
        if MACRO_SIGIL not in text:
            return text
        out: list[str] = []
        i = 0
        while i < len(text):
            ch = text[i]
            if ch != MACRO_SIGIL:
                out.append(ch)
                i += 1
                continue
            j = i + 1
            while j < len(text) and text[j] in _NAME_CHARS:
                j += 1
            name = text[i + 1 : j]
            if not name:
                raise UndefinedMacroError(
                    f"macro sigil with no name in '{text}'"
                )
            out.append(self.body(name))
            i = j
        if self.budget is not None:
            self._spent += sum(map(len, out))
            if self._spent > self.budget:
                raise ValidationError(
                    [f"specification has more than {self.budget} characters "
                     f"of macro expansion; at most {self.budget} are "
                     "accepted"]
                )
        return "".join(out)

    def as_dict(self) -> dict[str, str]:
        """Snapshot of the table (already-expanded bodies)."""
        return dict(self._macros)
