"""Token scanner for specification source text.

The scanner performs the purely lexical part of reading a specification:

* the first line must be a ``#`` comment (it is captured, not tokenised),
  one line of text without control characters;
* ``{ ... }`` comments are treated as whitespace anywhere (not nested);
* remaining text is split into whitespace-delimited tokens;
* a trailing ``.`` attached to a longer token is split off into its own
  token (the original ``gettoken`` did the same), because ``.`` terminates
  both the declaration list and the component section while also appearing
  inside expressions.

Comments are checked for the whole text up front, but tokens are split
off as the parser reads them, so a parser that stops early (see
``ReadLimits`` in :mod:`repro.rtl.parser`) pays only for what it read.

Macro expansion is *not* done here; the parser drives it so that macro
definitions themselves are never expanded.
"""

from __future__ import annotations

import re
import unicodedata
from dataclasses import dataclass
from typing import Iterable, Iterator

from repro.errors import MissingCommentError, SpecificationError


def check_one_line(text: str, what: str, line: int | None = None) -> str:
    """Validate free text (a header comment, a display name): one line
    with no control character but tab.  Generated simulators carry it
    as a ``#`` comment, which a line break would end."""
    for ch in text:
        if ch != "\t" and unicodedata.category(ch) in ("Cc", "Zl", "Zp"):
            raise SpecificationError(
                f"{what} must be one line without control characters, "
                f"found {ch!r}",
                line,
            )
    return text


@dataclass(frozen=True)
class Token:
    """A lexical token with the 1-based source line it started on."""

    text: str
    line: int

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        return self.text


class TokenStream:
    """A peekable stream of tokens produced by :func:`tokenize`."""

    def __init__(self, tokens: Iterable[Token], header_comment: str) -> None:
        self._tokens = iter(tokens)
        #: the token peeked at but not yet consumed
        self._ahead: Token | None = None
        self.header_comment = header_comment

    @property
    def exhausted(self) -> bool:
        return self.peek() is None

    def peek(self) -> Token | None:
        if self._ahead is None:
            self._ahead = next(self._tokens, None)
        return self._ahead

    def next(self) -> Token:
        token = self.peek()
        if token is None:
            raise SpecificationError("unexpected end of specification")
        self._ahead = None
        return token


def strip_comments(text: str, start_line: int = 1) -> str:
    """Replace ``{ ... }`` comments with spaces, preserving line breaks."""
    pieces: list[str] = []
    position = 0
    while True:
        opening = text.find("{", position)
        closing = text.find("}", position, None if opening < 0 else opening)
        if closing >= 0:
            raise SpecificationError(
                "unmatched '}' comment terminator",
                start_line + text.count("\n", 0, closing),
            )
        if opening < 0:
            pieces.append(text[position:])
            return "".join(pieces)
        end = text.find("}", opening)
        if end < 0:
            raise SpecificationError(
                "unterminated '{' comment",
                start_line + text.count("\n", 0, opening),
            )
        pieces.append(text[position:opening])
        pieces.append(_NOT_A_LINE_BREAK.sub(" ", text[opening:end + 1]))
        position = end + 1


_NOT_A_LINE_BREAK = re.compile(r"[^\n]")
_WORD = re.compile(r"\S+")


def _scan(text: str, line: int) -> Iterator[Token]:
    """The tokens of comment-free *text* starting on *line*, one at a time."""
    position = 0
    for word in _WORD.finditer(text):
        start = word.start()
        line += text.count("\n", position, start)
        position = start
        raw = word.group()
        if len(raw) > 1 and raw.endswith("."):
            yield Token(raw[:-1], line)
            yield Token(".", line)
        else:
            yield Token(raw, line)


def tokenize(source: str) -> TokenStream:
    """Tokenise specification *source* into a :class:`TokenStream`.

    The first line must start with ``#`` (paper: "Comment required."); it is
    stored on the stream as ``header_comment`` and not tokenised.
    """
    if not source.strip():
        raise MissingCommentError("empty specification", 1)
    first_newline = source.find("\n")
    if first_newline == -1:
        header, rest = source, ""
        rest_start_line = 2
    else:
        header, rest = source[:first_newline], source[first_newline + 1 :]
        rest_start_line = 2
    header = header.strip()
    if not header.startswith("#"):
        raise MissingCommentError(
            "the first line of a specification must be a '#' comment", 1
        )
    check_one_line(header, "the header comment", 1)
    cleaned = strip_comments(rest, rest_start_line)
    return TokenStream(_scan(cleaned, rest_start_line),
                       header_comment=header)
