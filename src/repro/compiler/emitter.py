"""Small indentation-aware source emitter used by both code generators."""

from __future__ import annotations


class CodeWriter:
    """Accumulates lines of generated source with managed indentation."""

    def __init__(self, indent_unit: str = "    ") -> None:
        self._lines: list[str] = []
        self._indent = 0
        self._indent_unit = indent_unit

    # -- writing ---------------------------------------------------------------

    def line(self, text: str = "") -> "CodeWriter":
        """Append one line at the current indentation (empty lines unindented)."""
        if text:
            self._lines.append(self._indent_unit * self._indent + text)
        else:
            self._lines.append("")
        return self

    def lines(self, texts: list[str]) -> "CodeWriter":
        for text in texts:
            self.line(text)
        return self

    def blank(self) -> "CodeWriter":
        return self.line("")

    def comment(self, text: str) -> "CodeWriter":
        """Append *text* as ``#`` comment lines, one per line of *text*, so
        no line break in it (``\\r`` included) can end the comment."""
        for part in text.splitlines() or [""]:
            self.line(f"# {part}")
        return self

    # -- indentation --------------------------------------------------------------

    def indent(self) -> "CodeWriter":
        self._indent += 1
        return self

    def dedent(self) -> "CodeWriter":
        if self._indent == 0:
            raise ValueError("cannot dedent below zero")
        self._indent -= 1
        return self

    class _Block:
        def __init__(self, writer: "CodeWriter") -> None:
            self._writer = writer

        def __enter__(self) -> "CodeWriter":
            return self._writer.indent()

        def __exit__(self, *exc_info: object) -> None:
            self._writer.dedent()

    def block(self, header: str) -> "_Block":
        """Write *header* and return a context manager indenting its body."""
        self.line(header)
        return CodeWriter._Block(self)

    # -- output ----------------------------------------------------------------------

    @property
    def indentation(self) -> int:
        return self._indent

    def render(self) -> str:
        return "\n".join(self._lines) + "\n"

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        return self.render()
