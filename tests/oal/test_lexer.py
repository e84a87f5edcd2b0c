"""Unit tests for the OAL lexer."""

import pytest

from repro.oal import OALSyntaxError, tokenize
from repro.oal.tokens import TokenKind


def kinds(text):
    return [t.kind for t in tokenize(text)]


def texts(text):
    return [t.text for t in tokenize(text)[:-1]]


class TestBasics:
    def test_empty_input_yields_eof_only(self):
        tokens = tokenize("")
        assert len(tokens) == 1
        assert tokens[0].kind is TokenKind.EOF

    def test_names_and_keywords_distinguished(self):
        tokens = tokenize("select foo")
        assert tokens[0].kind is TokenKind.KEYWORD
        assert tokens[1].kind is TokenKind.NAME

    def test_integer_literal(self):
        token = tokenize("42")[0]
        assert token.kind is TokenKind.INTEGER
        assert token.text == "42"

    def test_real_literal(self):
        token = tokenize("3.25")[0]
        assert token.kind is TokenKind.REAL
        assert token.text == "3.25"

    def test_integer_dot_name_is_attribute_access(self):
        assert texts("x.y") == ["x", ".", "y"]
        # "2.next" must not lex 2. as a real
        tokens = tokenize("2 .next")
        assert tokens[0].kind is TokenKind.INTEGER

    def test_multi_char_operators_greedy(self):
        assert texts("a -> b :: c == d != e <= f >= g") == [
            "a", "->", "b", "::", "c", "==", "d", "!=", "e", "<=",
            "f", ">=", "g",
        ]

    def test_comments_run_to_end_of_line(self):
        assert texts("x // the rest is ignored\ny") == ["x", "y"]

    def test_comment_at_end_of_input(self):
        assert texts("x // trailing") == ["x"]


class TestStrings:
    def test_simple_string(self):
        token = tokenize('"hello"')[0]
        assert token.kind is TokenKind.STRING
        assert token.text == "hello"

    def test_escapes(self):
        token = tokenize(r'"a\nb\tc\"d\\e"')[0]
        assert token.text == 'a\nb\tc"d\\e'

    def test_unterminated_string_raises(self):
        with pytest.raises(OALSyntaxError):
            tokenize('"oops')

    def test_newline_in_string_raises(self):
        with pytest.raises(OALSyntaxError):
            tokenize('"line\nbreak"')

    def test_unknown_escape_raises(self):
        with pytest.raises(OALSyntaxError):
            tokenize(r'"\q"')


class TestErrorsAndPositions:
    def test_unexpected_character_reports_position(self):
        with pytest.raises(OALSyntaxError) as excinfo:
            tokenize("x = @;")
        assert excinfo.value.line == 1
        assert excinfo.value.column == 5

    def test_non_decimal_digit_reports_position(self):
        # '²' is a digit to str.isdigit but not a number to int()
        with pytest.raises(OALSyntaxError) as excinfo:
            tokenize("x = 2\u00b2;")
        assert str(excinfo.value) == \
            "unexpected character '\u00b2' (line 1, column 6)"
        assert texts("x\u00b2") == ["x\u00b2"]

    def test_bare_bang_rejected(self):
        with pytest.raises(OALSyntaxError):
            tokenize("a ! b")

    def test_line_and_column_tracking(self):
        tokens = tokenize("a\n  b")
        assert (tokens[0].line, tokens[0].column) == (1, 1)
        assert (tokens[1].line, tokens[1].column) == (2, 3)
