"""Hand-written lexer for OAL activity text."""

from __future__ import annotations

from .errors import OALSyntaxError
from .tokens import KEYWORDS, MULTI_OPS, SINGLE_OPS, Token, TokenKind


def tokenize(text: str) -> list[Token]:
    """Turn activity text into a token list ending with one EOF token.

    Comments run from ``//`` to end of line.  Strings use double quotes
    with ``\\"`` and ``\\\\`` escapes.  Malformed input raises
    :class:`~repro.oal.errors.OALSyntaxError` with line/column.
    """
    tokens: list[Token] = []
    line = 1
    column = 1
    index = 0
    length = len(text)

    def error(message: str) -> OALSyntaxError:
        return OALSyntaxError(message, line, column)

    while index < length:
        char = text[index]

        if char == "\n":
            index += 1
            line += 1
            column = 1
            continue
        if char in " \t\r":
            index += 1
            column += 1
            continue
        if text.startswith("//", index):
            newline = text.find("\n", index)
            if newline == -1:
                break
            column += newline - index
            index = newline
            continue

        start_line, start_column = line, column

        if char.isdecimal():
            end = index
            seen_dot = False
            while end < length and (text[end].isdecimal() or (text[end] == "." and not seen_dot)):
                if text[end] == ".":
                    # a trailing '.' followed by non-digit is attribute access
                    if end + 1 >= length or not text[end + 1].isdecimal():
                        break
                    seen_dot = True
                end += 1
            seen_exponent = False
            if end < length and text[end] in "eE":
                probe = end + 1
                if probe < length and text[probe] in "+-":
                    probe += 1
                if probe < length and text[probe].isdecimal():
                    seen_exponent = True
                    end = probe
                    while end < length and text[end].isdecimal():
                        end += 1
            lexeme = text[index:end]
            kind = (TokenKind.REAL if seen_dot or seen_exponent
                    else TokenKind.INTEGER)
            tokens.append(Token(kind, lexeme, start_line, start_column))
            column += end - index
            index = end
            continue

        if char.isalpha() or char == "_":
            end = index
            while end < length and (text[end].isalnum() or text[end] == "_"):
                end += 1
            lexeme = text[index:end]
            kind = TokenKind.KEYWORD if lexeme in KEYWORDS else TokenKind.NAME
            tokens.append(Token(kind, lexeme, start_line, start_column))
            column += end - index
            index = end
            continue

        if char in ('"', "'"):
            quote = char
            end = index + 1
            chunks: list[str] = []
            while True:
                if end >= length or text[end] == "\n":
                    raise error("unterminated string literal")
                if text[end] == "\\":
                    if end + 1 >= length:
                        raise error("unterminated escape in string literal")
                    escape = text[end + 1]
                    if escape == "n":
                        chunks.append("\n")
                    elif escape == "t":
                        chunks.append("\t")
                    elif escape in ('"', "'", "\\"):
                        chunks.append(escape)
                    else:
                        raise error(f"unknown string escape \\{escape}")
                    end += 2
                    continue
                if text[end] == quote:
                    break
                chunks.append(text[end])
                end += 1
            tokens.append(Token(TokenKind.STRING, "".join(chunks), start_line, start_column))
            column += end + 1 - index
            index = end + 1
            continue

        matched_multi = False
        for op in MULTI_OPS:
            if text.startswith(op, index):
                tokens.append(Token(TokenKind.OP, op, start_line, start_column))
                index += len(op)
                column += len(op)
                matched_multi = True
                break
        if matched_multi:
            continue

        if char == "!":
            raise error("'!' is only valid as part of '!='")
        if char in SINGLE_OPS:
            tokens.append(Token(TokenKind.OP, char, start_line, start_column))
            index += 1
            column += 1
            continue

        raise error(f"unexpected character {char!r}")

    tokens.append(Token(TokenKind.EOF, "", line, column))
    return tokens
