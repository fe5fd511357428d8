"""Hand-rolled tokenizer shared by every unit grammar, plus the
``package``/``require`` header that manifests, constraint units and behavior
units all open with.

All keywords are contextual: the lexer only distinguishes identifiers,
integer literals, string literals and punctuation, so feature names such as
``source`` or ``node`` never collide with grammar keywords.
"""

from __future__ import annotations

from dataclasses import dataclass

from .diagnostics import Pos, syntax_error

# Longest-match first.
_PUNCT = [
    ":=", "==", "!=", "<=", ">=", "..",
    "{", "}", "(", ")", "[", "]", "<", ">",
    ",", ";", ":", ".", "|", "+", "-", "*", "/", "=",
]

_ESCAPES = {"n": "\n", "t": "\t", '"': '"', "\\": "\\"}


@dataclass(frozen=True)
class Token:
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
        text = self.text
        i, line, col = 0, 1, 1
        n = len(text)
        while i < n:
            c = text[i]
            if c == "\n":
                i += 1
                line += 1
                col = 1
                continue
            if c in " \t\r":
                i += 1
                col += 1
                continue
            if c == "/" and text.startswith("//", i):
                while i < n and text[i] != "\n":
                    i += 1
                continue
            pos = Pos(line, col)
            if c.isalpha() or c == "_":
                j = i
                while j < n and (text[j].isalnum() or text[j] == "_"):
                    j += 1
                toks.append(Token("ident", text[i:j], pos))
                col += j - i
                i = j
                continue
            if c.isdigit():
                j = i
                while j < n and text[j].isdigit():
                    j += 1
                toks.append(Token("int", text[i:j], pos))
                col += j - i
                i = j
                continue
            if c == '"':
                j = i + 1
                out: list[str] = []
                while True:
                    if j >= n or text[j] == "\n":
                        raise syntax_error("unterminated string literal", self.unit, pos)
                    if text[j] == "\\":
                        if j + 1 >= n or text[j + 1] not in _ESCAPES:
                            raise syntax_error("bad escape in string literal", self.unit, pos)
                        out.append(_ESCAPES[text[j + 1]])
                        j += 2
                        continue
                    if text[j] == '"':
                        break
                    out.append(text[j])
                    j += 1
                toks.append(Token("string", "".join(out), pos))
                col += j + 1 - i
                i = j + 1
                continue
            for p in _PUNCT:
                if text.startswith(p, i):
                    toks.append(Token("punct", p, pos))
                    i += len(p)
                    col += len(p)
                    break
            else:
                raise syntax_error(f"unexpected character {c!r}", self.unit, pos)
        toks.append(Token("eof", "", Pos(line, col)))
        return toks

    # -- cursor ------------------------------------------------------------

    def peek(self, ahead: int = 0) -> Token:
        i = min(self.index + ahead, len(self.tokens) - 1)
        return self.tokens[i]

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
