"""Regex tokenizer shared by every unit grammar, plus the
``package``/``require`` header that manifests, constraint units and behavior
units all open with, and the ``{ member* }`` block every class body is.

All keywords are contextual: the lexer only distinguishes identifiers,
integer literals, string literals and punctuation, so feature names such as
``source`` or ``node`` never collide with grammar keywords.
"""

from __future__ import annotations

import re
from typing import Callable, NamedTuple

from .diagnostics import Pos, syntax_error

# Longest-match first.
_PUNCT = [
    ":=", "==", "!=", "<=", ">=", "..",
    "{", "}", "(", ")", "[", "]", "<", ">",
    ",", ";", ":", ".", "|", "+", "-", "*", "/", "=",
]

_ESCAPES = {"n": "\n", "t": "\t", '"': '"', "\\": "\\"}

# An opening quote and the longest run of plain characters and escapes after
# it.  Where a string does not close, the run stops at a bad escape's
# backslash or at the end of the line or input.
_STRING_BODY = r'"(?:[^"\\\n]|\\[nt"\\])*'

# One group per token kind; a match always exists, so the tokens tile the text.
_TOKEN = re.compile("|".join([
    r"(?P<skip>[ \t\r]+|//[^\n]*)",
    r"(?P<newline>\n)",
    r"(?P<ident>[^\W\d]\w*)",
    r"(?P<int>[0-9]+)",
    rf'(?P<string>{_STRING_BODY}")',
    "(?P<punct>" + "|".join(map(re.escape, _PUNCT)) + ")",
    rf'(?P<error>{_STRING_BODY}(?P<bad_escape>\\)?|.)',
]))

_ESCAPE = re.compile(r"\\(.)")


class Token(NamedTuple):
    kind: str  # 'ident' | 'int' | 'string' | 'punct' | 'eof'
    value: str
    pos: Pos


class Lexer:
    def __init__(self, text: str, unit: str = "<input>"):
        self.text = text
        self.unit = unit
        self.tokens = self._scan()
        self.index = 0

    # -- scanning ----------------------------------------------------------

    def _scan(self) -> list[Token]:
        toks: list[Token] = []
        line, line_start = 1, 0
        for m in _TOKEN.finditer(self.text):
            kind = m.lastgroup
            if kind == "skip":
                continue
            if kind == "newline":
                line, line_start = line + 1, m.end()
                continue
            pos = Pos(line, m.start() - line_start + 1)
            value = m.group()
            if kind == "error":
                if m.group("bad_escape") is not None:
                    message = "bad escape in string literal"
                elif value[0] == '"':
                    message = "unterminated string literal"
                else:
                    message = f"unexpected character {value!r}"
                raise syntax_error(message, self.unit, pos)
            if kind == "string":
                value = _ESCAPE.sub(lambda e: _ESCAPES[e.group(1)], value[1:-1])
            toks.append(Token(kind, value, pos))
        toks.append(Token("eof", "", Pos(line, len(self.text) - line_start + 1)))
        return toks

    # -- cursor ------------------------------------------------------------

    def peek(self) -> Token:
        return self.tokens[self.index]  # next() never moves past the eof token

    def next(self) -> Token:
        tok = self.peek()
        if tok.kind != "eof":
            self.index += 1
        return tok

    def at(self, value: str) -> bool:
        tok = self.peek()
        return tok.value == value and tok.kind in ("punct", "ident")

    def accept(self, value: str) -> bool:
        if self.at(value):
            self.next()
            return True
        return False

    def expect(self, value: str) -> Token:
        tok = self.peek()
        if not self.at(value):
            raise self.error(f"expected {value!r}, found {self._describe(tok)}")
        return self.next()

    def expect_ident(self, what: str = "identifier") -> Token:
        tok = self.peek()
        if tok.kind != "ident":
            raise self.error(f"expected {what}, found {self._describe(tok)}")
        return self.next()

    def expect_string(self, what: str = "string literal") -> Token:
        tok = self.peek()
        if tok.kind != "string":
            raise self.error(f"expected {what}, found {self._describe(tok)}")
        return self.next()

    def at_eof(self) -> bool:
        return self.peek().kind == "eof"

    def error(self, message: str, pos: Pos | None = None):
        return syntax_error(message, self.unit, pos or self.peek().pos)

    @staticmethod
    def _describe(tok: Token) -> str:
        return "end of input" if tok.kind == "eof" else repr(tok.value)


def parse_header(lx: Lexer, what: str) -> tuple[str, tuple[str, ...]]:
    """Parse ``package p; require "u"; ...`` and return (package, requires).

    ``what`` names the unit kind in the error for a header without requires.
    """
    lx.expect("package")
    package = lx.expect_ident("package name").value
    lx.expect(";")
    requires: list[str] = []
    while lx.accept("require"):
        requires.append(lx.expect_string("unit path").value)
        lx.expect(";")
    if not requires:
        raise lx.error(f"{what} needs at least one require")
    return package, tuple(requires)


# A block's grammar: each member keyword, the record field its members go to
# and the parser of one member, called once the keyword is read.
Members = dict[str, tuple[str, Callable[[Lexer], object]]]


def parse_block(lx: Lexer, members: Members) -> dict[str, tuple]:
    """Parse ``{ member* }`` and return each field of ``members`` with the
    members parsed into it, in source order."""
    lx.expect("{")
    found: dict[str, list] = {field: [] for field, _ in members.values()}
    while not lx.accept("}"):
        tok = lx.peek()
        if tok.kind != "ident" or tok.value not in members:
            raise lx.error(f"expected {', '.join(members)} or '}}'")
        lx.next()
        field, parse = members[tok.value]
        found[field].append(parse(lx))
    return {field: tuple(items) for field, items in found.items()}
