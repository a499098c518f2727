"""Unit tests for the XQuery! tokenizer."""

import pytest

from repro.errors import LexerError
from repro.lang.lexer import Lexer
from repro.lang.tokens import TokenKind


def toks(text: str):
    lexer = Lexer(text)
    out = []
    while True:
        token = lexer.next()
        if token.kind is TokenKind.EOF:
            return out
        out.append(token)


def kinds(text: str):
    return [t.kind for t in toks(text)]


def values(text: str):
    return [t.value for t in toks(text)]


class TestNames:
    def test_simple_name(self):
        [t] = toks("abc")
        assert t.kind is TokenKind.NAME and t.value == "abc"

    def test_qualified_name_merged(self):
        [t] = toks("fn:count")
        assert t.value == "fn:count"

    def test_axis_not_merged(self):
        assert values("child::a") == ["child", "::", "a"]

    def test_hyphenated_name(self):
        [t] = toks("conflict-detection")
        assert t.value == "conflict-detection"

    def test_trailing_hyphen_not_consumed(self):
        assert values("a -b") == ["a", "-", "b"]
        assert values("a-b") == ["a-b"]

    def test_name_then_dotdot(self):
        assert values("a/..") == ["a", "/", ".."]

    def test_dot_inside_name(self):
        assert values("a.b") == ["a.b"]


class TestVariables:
    def test_variable(self):
        [t] = toks("$x")
        assert t.kind is TokenKind.VARNAME and t.value == "x"

    def test_prefixed_variable(self):
        [t] = toks("$local:item")
        assert t.value == "local:item"

    def test_dollar_alone_rejected(self):
        with pytest.raises(LexerError):
            toks("$ x")


class TestNumbers:
    def test_integer(self):
        [t] = toks("42")
        assert t.kind is TokenKind.INTEGER

    def test_decimal(self):
        [t] = toks("3.14")
        assert t.kind is TokenKind.DECIMAL

    def test_leading_dot_decimal(self):
        [t] = toks(".5")
        assert t.kind is TokenKind.DECIMAL and t.value == ".5"

    def test_double(self):
        [t] = toks("1.5e3")
        assert t.kind is TokenKind.DOUBLE

    def test_double_negative_exponent(self):
        [t] = toks("2E-7")
        assert t.kind is TokenKind.DOUBLE

    def test_integer_then_range(self):
        assert values("1 to 2") == ["1", "to", "2"]

    def test_number_then_dotdot(self):
        # '1..' lexes as decimal '1.' then '.'? No: '..' wins lookahead.
        assert values("(1)..") == ["(", "1", ")", ".."]


class TestStrings:
    def test_double_quoted(self):
        [t] = toks('"hello"')
        assert t.kind is TokenKind.STRING and t.value == "hello"

    def test_single_quoted(self):
        [t] = toks("'hi'")
        assert t.value == "hi"

    def test_doubled_quote_escape(self):
        [t] = toks('"say ""hi"""')
        assert t.value == 'say "hi"'

    def test_entity_in_string(self):
        [t] = toks('"&amp;&#65;"')
        assert t.value == "&A"

    def test_unterminated(self):
        with pytest.raises(LexerError):
            toks('"abc')


class TestComments:
    def test_simple_comment_skipped(self):
        assert values("1 (: note :) 2") == ["1", "2"]

    def test_nested_comment(self):
        assert values("1 (: a (: b :) c :) 2") == ["1", "2"]

    def test_paper_style_comment(self):
        assert values("(::: Logging code :::) $x") == ["x"]

    def test_unterminated_comment(self):
        with pytest.raises(LexerError):
            toks("1 (: oops")


class TestOperators:
    def test_two_char_tokens(self):
        assert kinds("!= <= >= << >> := ::") == [
            TokenKind.NE,
            TokenKind.LE,
            TokenKind.GE,
            TokenKind.LTLT,
            TokenKind.GTGT,
            TokenKind.ASSIGN,
            TokenKind.COLONCOLON,
        ]

    def test_slashes(self):
        assert kinds("/ //") == [TokenKind.SLASH, TokenKind.SLASHSLASH]

    def test_unexpected_char(self):
        with pytest.raises(LexerError):
            toks("#")

    def test_location_tracking(self):
        lexer = Lexer("a\n  b")
        lexer.next()
        token = lexer.next()
        assert (token.line, token.column) == (2, 3)


class TestPushbackAndSeek:
    def test_peek_does_not_consume(self):
        lexer = Lexer("a b")
        assert lexer.peek().value == "a"
        assert lexer.next().value == "a"

    def test_seek_resets(self):
        lexer = Lexer("a b c")
        lexer.next()
        pos = lexer.char_position()
        lexer.next()
        lexer.seek(pos)
        assert lexer.next().value == "b"


class TestLocations:
    def test_located_like_a_count_from_the_start(self):
        text = "ab\ncd\n\nefg h\n" * 5
        lexer = Lexer(text)

        def naive(offset):
            return (
                text.count("\n", 0, offset) + 1,
                offset - text.rfind("\n", 0, offset),
            )

        # Forward, backward across newlines, and back again: the cursor
        # answers wherever the parser's seeks take it.
        offsets = list(range(len(text))) + [40, 3, 0, 55, 12, 12, 2, 60]
        assert [lexer.location_at(o) for o in offsets] == [
            naive(o) for o in offsets
        ]

    def test_lexing_is_linear_in_the_query_length(self):
        import time

        def best_lex_time(terms: int) -> float:
            text = "1 +\n" * terms + "1"
            best = float("inf")
            for _ in range(3):
                started = time.perf_counter()
                toks(text)
                best = min(best, time.perf_counter() - started)
            return best

        small, large = best_lex_time(5000), best_lex_time(20000)
        # Linear would be 4x; counting newlines from the start for
        # every token made it ~16x.
        assert large < 8 * small
