"""Unit tests for the token scanner (comments, whitespace, '.' handling)."""

import pytest

from repro.errors import MissingCommentError, SpecificationError
from repro.rtl.scanner import strip_comments, tokenize


def token_texts(source):
    stream = tokenize(source)
    texts = []
    while not stream.exhausted:
        texts.append(stream.next().text)
    return texts


class TestHeaderComment:
    def test_header_captured(self):
        stream = tokenize("# my machine\nname .\n.")
        assert stream.header_comment == "# my machine"

    def test_missing_header_rejected(self):
        with pytest.raises(MissingCommentError):
            tokenize("name .\n.")

    def test_empty_source_rejected(self):
        with pytest.raises(MissingCommentError):
            tokenize("   \n  ")

    @pytest.mark.parametrize("control", ["\r", "\x00", "\x0b", "\x85", "\u2028"])
    def test_header_must_be_one_line(self, control):
        # generated simulators carry the header as a comment, which a
        # carriage return (to Python, a line end) would close
        with pytest.raises(SpecificationError, match="line 1: the header"):
            tokenize(f"# a{control}b\nA x 1 2 3\n")

    def test_header_keeps_tabs(self):
        assert tokenize("# a\tb\nx .\n").header_comment == "# a\tb"

    def test_header_only(self):
        stream = tokenize("# nothing else")
        assert stream.exhausted


class TestBraceComments:
    def test_comment_removed(self):
        assert token_texts("# t\na {ignore me} b") == ["a", "b"]

    def test_comment_spanning_lines(self):
        assert token_texts("# t\na {spans\nlines} b") == ["a", "b"]

    def test_unterminated_comment_rejected(self):
        with pytest.raises(SpecificationError):
            tokenize("# t\na {never closed")

    def test_unmatched_close_rejected(self):
        with pytest.raises(SpecificationError):
            tokenize("# t\na } b")

    def test_strip_comments_preserves_line_structure(self):
        cleaned = strip_comments("a {x\ny} b\nc")
        assert cleaned.count("\n") == 2


class TestTokens:
    def test_whitespace_split(self):
        assert token_texts("# t\n A alu  4\tleft\n3048") == [
            "A", "alu", "4", "left", "3048",
        ]

    def test_trailing_period_split(self):
        assert token_texts("# t\nstate pc ir.") == ["state", "pc", "ir", "."]

    def test_lone_period_kept(self):
        assert token_texts("# t\n.") == ["."]

    def test_period_inside_token_not_split(self):
        assert token_texts("# t\nmem.3.4 x") == ["mem.3.4", "x"]

    def test_line_numbers(self):
        stream = tokenize("# t\nfirst\nsecond third")
        assert stream.next().line == 2
        assert stream.next().line == 3
        assert stream.next().line == 3


class TestTokenStream:
    def test_peek_does_not_consume(self):
        stream = tokenize("# t\na b")
        assert stream.peek().text == "a"
        assert stream.next().text == "a"

    def test_next_past_end_rejected(self):
        stream = tokenize("# t\na")
        stream.next()
        with pytest.raises(SpecificationError):
            stream.next()

