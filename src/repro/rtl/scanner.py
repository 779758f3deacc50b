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

Macro expansion is *not* done here; the parser drives it so that macro
definitions themselves are never expanded.
"""

from __future__ import annotations

import unicodedata
from dataclasses import dataclass

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

    def __init__(self, tokens: list[Token], header_comment: str) -> None:
        self._tokens = tokens
        self._index = 0
        self.header_comment = header_comment

    def __len__(self) -> int:
        return len(self._tokens) - self._index

    @property
    def exhausted(self) -> bool:
        return self._index >= len(self._tokens)

    def peek(self) -> Token | None:
        if self.exhausted:
            return None
        return self._tokens[self._index]

    def next(self) -> Token:
        token = self.peek()
        if token is None:
            raise SpecificationError("unexpected end of specification")
        self._index += 1
        return token

    def push_back(self) -> None:
        """Un-read the most recently consumed token."""
        if self._index == 0:
            raise SpecificationError("cannot push back before the first token")
        self._index -= 1


def strip_comments(text: str, start_line: int = 1) -> str:
    """Replace ``{ ... }`` comments with spaces, preserving line breaks."""
    out: list[str] = []
    i = 0
    line = start_line
    depth_open_line = 0
    in_comment = False
    while i < len(text):
        ch = text[i]
        if ch == "\n":
            line += 1
            out.append("\n")
            i += 1
            continue
        if in_comment:
            if ch == "}":
                in_comment = False
            out.append(" ")
            i += 1
            continue
        if ch == "{":
            in_comment = True
            depth_open_line = line
            out.append(" ")
            i += 1
            continue
        if ch == "}":
            raise SpecificationError("unmatched '}' comment terminator", line)
        out.append(ch)
        i += 1
    if in_comment:
        raise SpecificationError("unterminated '{' comment", depth_open_line)
    return "".join(out)


def _split_trailing_period(raw: str) -> list[str]:
    """Split a trailing ``.`` off a token longer than one character."""
    if len(raw) > 1 and raw.endswith("."):
        return [raw[:-1], "."]
    return [raw]


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
    tokens: list[Token] = []
    for offset, line_text in enumerate(cleaned.split("\n")):
        line_number = rest_start_line + offset
        for raw in line_text.split():
            for piece in _split_trailing_period(raw):
                tokens.append(Token(piece, line_number))
    return TokenStream(tokens, header_comment=header)
