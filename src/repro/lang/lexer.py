"""The XQuery! tokenizer.

A pull lexer over a character source.  Two properties matter for XQuery:

* **No reserved words** — keywords come out as plain ``NAME`` tokens and the
  parser decides contextually (``snap`` can still name an element).
* **Lexical states** — direct element constructors embed arbitrary XML text
  inside expressions, so the parser occasionally abandons token mode and
  reads characters itself.  The lexer supports this hand-off via
  :meth:`Lexer.char_position` / :meth:`Lexer.seek`: peeked tokens are
  discarded and scanning resumes at an explicit offset.

Comments ``(: ... :)`` nest, per the XQuery spec.
"""

from __future__ import annotations

from repro.errors import LexerError
from repro.lang.tokens import Token, TokenKind

_NAME_START = set("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_")
_NAME_CHARS = _NAME_START | set("0123456789.-")

_PREDEFINED = {"lt": "<", "gt": ">", "amp": "&", "apos": "'", "quot": '"'}

_TWO_CHAR = {
    "..": TokenKind.DOTDOT,
    "//": TokenKind.SLASHSLASH,
    "!=": TokenKind.NE,
    "<=": TokenKind.LE,
    ">=": TokenKind.GE,
    "<<": TokenKind.LTLT,
    ">>": TokenKind.GTGT,
    ":=": TokenKind.ASSIGN,
    "::": TokenKind.COLONCOLON,
}

_ONE_CHAR = {
    "(": TokenKind.LPAREN,
    ")": TokenKind.RPAREN,
    "{": TokenKind.LBRACE,
    "}": TokenKind.RBRACE,
    "[": TokenKind.LBRACKET,
    "]": TokenKind.RBRACKET,
    ",": TokenKind.COMMA,
    ";": TokenKind.SEMICOLON,
    "/": TokenKind.SLASH,
    "@": TokenKind.AT,
    "+": TokenKind.PLUS,
    "-": TokenKind.MINUS,
    "*": TokenKind.STAR,
    "|": TokenKind.PIPE,
    "=": TokenKind.EQ,
    "<": TokenKind.LT,
    ">": TokenKind.GT,
    ".": TokenKind.DOT,
    "?": TokenKind.QUESTION,
}


def decode_string_entities(text: str, line: int, column: int) -> str:
    """Resolve predefined entities / char references in a string literal."""
    if "&" not in text:
        return text
    out: list[str] = []
    i = 0
    while i < len(text):
        c = text[i]
        if c != "&":
            out.append(c)
            i += 1
            continue
        end = text.find(";", i + 1)
        if end < 0:
            raise LexerError("unterminated entity reference", line, column)
        name = text[i + 1 : end]
        try:
            if name.startswith("#x") or name.startswith("#X"):
                out.append(chr(int(name[2:], 16)))
            elif name.startswith("#"):
                out.append(chr(int(name[1:])))
            else:
                out.append(_PREDEFINED[name])
        except (KeyError, ValueError):
            raise LexerError(f"unknown entity &{name};", line, column) from None
        i = end + 1
    return "".join(out)


class Lexer:
    """Tokenizer with one-token pushback and char-level hand-off."""

    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.n = len(text)
        self._pushback: list[Token] = []
        # location_at's cursor: an offset, its line, and the offset of
        # the last newline before it (-1 on the first line).  Tokens are
        # located in source order, so each call counts only the newlines
        # between the previous offset and this one.
        self._loc = (0, 1, -1)

    # ------------------------------------------------------------------
    # Char-level interface used by the direct-constructor parser
    # ------------------------------------------------------------------

    def char_position(self) -> int:
        """Offset where scanning will resume (discarding peeked tokens)."""
        if self._pushback:
            return self._pushback[0].start
        return self.pos

    def seek(self, offset: int) -> None:
        """Resume token scanning at *offset*; drops any pushed-back token."""
        self._pushback.clear()
        self.pos = offset

    def location_at(self, offset: int) -> tuple[int, int]:
        """(line, column) of an absolute source offset.

        Incremental: moving from the previous offset costs the distance
        between the two (plus, when a backward move crosses a newline,
        the length of the line it lands on), so lexing a query is linear
        in its length."""
        text = self.text
        at, line, last_nl = self._loc
        if offset >= at:
            crossed = text.count("\n", at, offset)
            if crossed:
                line += crossed
                last_nl = text.rfind("\n", at, offset)
        else:
            crossed = text.count("\n", offset, at)
            if crossed:
                line -= crossed
                last_nl = text.rfind("\n", 0, offset)
        self._loc = (offset, line, last_nl)
        return line, offset - last_nl

    # ------------------------------------------------------------------
    # Token interface
    # ------------------------------------------------------------------

    def push_back(self, token: Token) -> None:
        """Return *token* to the stream (LIFO)."""
        self._pushback.append(token)

    def peek(self) -> Token:
        """Look at the next token without consuming it."""
        token = self.next()
        self.push_back(token)
        return token

    def next(self) -> Token:
        """Consume and return the next token."""
        if self._pushback:
            return self._pushback.pop()
        self._skip_trivia()
        start = self.pos
        line, column = self.location_at(start)
        if start >= self.n:
            return Token(TokenKind.EOF, "", line, column, start, start)
        c = self.text[start]
        if c in _NAME_START:
            return self._lex_name(start, line, column)
        if c.isdigit() or (c == "." and self._peek_char(1).isdigit()):
            return self._lex_number(start, line, column)
        if c in ("'", '"'):
            return self._lex_string(start, line, column, c)
        if c == "$":
            return self._lex_variable(start, line, column)
        two = self.text[start : start + 2]
        if two in _TWO_CHAR:
            self.pos = start + 2
            return Token(_TWO_CHAR[two], two, line, column, start, self.pos)
        if c in _ONE_CHAR:
            self.pos = start + 1
            return Token(_ONE_CHAR[c], c, line, column, start, self.pos)
        raise LexerError(f"unexpected character {c!r}", line, column)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _peek_char(self, offset: int = 0) -> str:
        idx = self.pos + offset
        return self.text[idx] if idx < self.n else ""

    def _skip_trivia(self) -> None:
        while self.pos < self.n:
            c = self.text[self.pos]
            if c in " \t\r\n":
                self.pos += 1
            elif self.text.startswith("(:", self.pos):
                self._skip_comment()
            else:
                return

    def _skip_comment(self) -> None:
        line, column = self.location_at(self.pos)
        depth = 0
        while self.pos < self.n:
            if self.text.startswith("(:", self.pos):
                depth += 1
                self.pos += 2
            elif self.text.startswith(":)", self.pos):
                depth -= 1
                self.pos += 2
                if depth == 0:
                    return
            else:
                self.pos += 1
        raise LexerError("unterminated comment", line, column)

    def _lex_name(self, start: int, line: int, column: int) -> Token:
        self.pos = start
        self._consume_ncname()
        # Qualified name: NAME ':' NAME with no whitespace and not '::'.
        if (
            self._peek_char() == ":"
            and self._peek_char(1) in _NAME_START
            and not self.text.startswith("::", self.pos)
        ):
            self.pos += 1
            self._consume_ncname()
        value = self.text[start : self.pos]
        return Token(TokenKind.NAME, value, line, column, start, self.pos)

    def _consume_ncname(self) -> None:
        self.pos += 1
        while self.pos < self.n and self.text[self.pos] in _NAME_CHARS:
            # A trailing '.' or '-' not followed by a name char would eat
            # the '.' of a path or a minus operator; NCName allows '.'/'-'
            # in the middle, so look ahead.
            c = self.text[self.pos]
            if c in ".-" and (
                self.pos + 1 >= self.n or self.text[self.pos + 1] not in _NAME_CHARS
            ):
                return
            if c == "." and self.text.startswith("..", self.pos):
                return
            self.pos += 1

    def _lex_number(self, start: int, line: int, column: int) -> Token:
        self.pos = start
        kind = TokenKind.INTEGER
        while self._peek_char().isdigit():
            self.pos += 1
        if self._peek_char() == "." and not self.text.startswith("..", self.pos):
            kind = TokenKind.DECIMAL
            self.pos += 1
            while self._peek_char().isdigit():
                self.pos += 1
        if self._peek_char() in ("e", "E"):
            save = self.pos
            self.pos += 1
            if self._peek_char() in ("+", "-"):
                self.pos += 1
            if self._peek_char().isdigit():
                kind = TokenKind.DOUBLE
                while self._peek_char().isdigit():
                    self.pos += 1
            else:
                self.pos = save
        value = self.text[start : self.pos]
        return Token(kind, value, line, column, start, self.pos)

    def _lex_string(self, start: int, line: int, column: int, quote: str) -> Token:
        self.pos = start + 1
        parts: list[str] = []
        while True:
            if self.pos >= self.n:
                raise LexerError("unterminated string literal", line, column)
            c = self.text[self.pos]
            if c == quote:
                if self._peek_char(1) == quote:  # doubled-quote escape
                    parts.append(quote)
                    self.pos += 2
                    continue
                self.pos += 1
                break
            parts.append(c)
            self.pos += 1
        value = decode_string_entities("".join(parts), line, column)
        return Token(TokenKind.STRING, value, line, column, start, self.pos)

    def _lex_variable(self, start: int, line: int, column: int) -> Token:
        self.pos = start + 1
        if self._peek_char() not in _NAME_START:
            raise LexerError("expected a variable name after '$'", line, column)
        name_start = self.pos
        self._consume_ncname()
        if (
            self._peek_char() == ":"
            and self._peek_char(1) in _NAME_START
            and not self.text.startswith("::", self.pos)
        ):
            self.pos += 1
            self._consume_ncname()
        value = self.text[name_start : self.pos]
        return Token(TokenKind.VARNAME, value, line, column, start, self.pos)
