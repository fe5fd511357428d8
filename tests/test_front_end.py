"""Pinned tokens and diagnostics of the unit front end.

Every malformed unit below must be rejected with exactly this rendered
diagnostic, whichever parser shares the header, member or supertype code.
The lexer table pins the token stream (kind, value, line, column) that
every parser reads, and the lexer's own errors.
"""

from __future__ import annotations

import re

import pytest

from mashup.behavior import parse_behavior
from mashup.composer import parse_manifest
from mashup.contracts import parse_contracts
from mashup.diagnostics import UnitParseError
from mashup.lexer import Lexer
from mashup.metamodel import parse_metamodel

_PARSERS = {
    "mm": parse_metamodel, "inv": parse_contracts, "act": parse_behavior,
    "mashup": parse_manifest,
}

H = 'package p;\nrequire "p.mm";\n'

CASES = [
    # headers
    ("no-package-inv", "u.inv", 'require "p.mm";\n',
     "u.inv:1:1: SyntaxError expected 'package', found 'require'"),
    ("no-package-act", "u.act", '\nrequire "p.mm";\n',
     "u.act:2:1: SyntaxError expected 'package', found 'require'"),
    ("no-package-mashup", "u.mashup", 'require "p.mm";',
     "u.mashup:1:1: SyntaxError expected 'package', found 'require'"),
    ("no-package-name", "u.act", "package ;\n",
     "u.act:1:9: SyntaxError expected package name, found ';'"),
    ("require-not-string", "u.inv", "package p;\nrequire p;\n",
     "u.inv:2:9: SyntaxError expected unit path, found 'p'"),
    ("no-require-mashup", "u.mashup", "package p;\nmain A.run;\n",
     "u.mashup:2:1: SyntaxError manifest needs at least one require"),
    ("no-require-inv", "u.inv", "package p;\naspect class A { }\n",
     "u.inv:2:1: SyntaxError a constraint unit needs at least one require"),
    ("no-require-act", "u.act", "package p;\n\naspect class A { }\n",
     "u.act:3:1: SyntaxError a behavior unit needs at least one require"),
    ("trailing-mashup", "u.mashup", H + 'main A.run;\nrequire "q.act";\n',
     "u.mashup:4:1: SyntaxError trailing input after manifest"),
    ("duplicate-require", "u.mashup", H + 'require "p.mm";\n',
     "u.mashup:0:0: DuplicateRequire manifest lists the same unit twice"),
    # members
    ("attr-type-mm", "u.mm", "metamodel m {\n  class A { attr n: Node; }\n}\n",
     "u.mm:2:21: SyntaxError attribute type must be one of Int, Bool, String"),
    ("attr-type-act", "u.act", H + "aspect class A {\n  attr n : Real;\n}\n",
     "u.act:4:12: SyntaxError attribute type must be one of Int, Bool, String"),
    ("ref-no-semicolon-mm", "u.mm", "metamodel m {\n  class A { ref b: B[*] }\n  class B { }\n}\n",
     "u.mm:2:25: SyntaxError expected ';', found '}'"),
    ("ref-no-semicolon-act", "u.act", H + "aspect class A { ref b : B opposite a }\n",
     "u.act:3:39: SyntaxError expected ';', found '}'"),
    ("bad-bounds", "u.mm", "metamodel m {\n  class A { attr n: Int[x]; }\n}\n",
     "u.mm:2:25: SyntaxError expected lower bound or '*'"),
    ("member-mm", "u.mm", "metamodel m {\n  class A { inv x; }\n}\n",
     "u.mm:2:13: SyntaxError expected attr, ref, op or '}'"),
    ("member-act", "u.act", H + "aspect class A {\n  op f();\n}\n",
     "u.act:4:3: SyntaxError expected attr, ref, method, operation, rename or '}'"),
    ("member-inv", "u.inv", H + "aspect class A {\n  attr n : Int;\n}\n",
     "u.inv:4:3: SyntaxError expected inv, pre, post or '}'"),
    # end of input inside a block
    ("eof-in-class-mm", "u.mm", "metamodel m {\n  class A {\n",
     "u.mm:3:1: SyntaxError expected attr, ref, op or '}'"),
    ("eof-in-aspect-act", "u.act", H + "aspect class A {\n",
     "u.act:4:1: SyntaxError expected attr, ref, method, operation, rename or '}'"),
    ("eof-in-aspect-inv", "u.inv", H + "aspect class A {\n",
     "u.inv:4:1: SyntaxError expected inv, pre, post or '}'"),
    # conditions
    ("pre-no-on", "u.inv", H + "aspect class A {\n  pre x run : true;\n}\n",
     "u.inv:4:9: SyntaxError expected 'on', found 'run'"),
    ("post-no-on", "u.inv", H + "aspect class A { post y run : true; }\n",
     "u.inv:3:25: SyntaxError expected 'on', found 'run'"),
    ("pre-no-name", "u.inv", H + "aspect class A { pre 1 on run : true; }\n",
     "u.inv:3:22: SyntaxError expected precondition name, found '1'"),
    ("post-no-name", "u.inv", H + "aspect class A { post : true; }\n",
     "u.inv:3:23: SyntaxError expected postcondition name, found ':'"),
    # supertype lists
    ("extends-trailing-comma", "u.mm", "metamodel m {\n  class A extends B, { }\n}\n",
     "u.mm:2:22: SyntaxError expected superclass name, found '{'"),
    ("inherits-trailing-comma", "u.act", H + "aspect class A inherits B, {\n}\n",
     "u.act:3:28: SyntaxError expected superclass name, found '{'"),
    # both unit kinds parse to one record, but each grammar admits only its
    # own members
    ("inv-in-act", "u.act", H + "aspect class A {\n  inv ok : true;\n}\n",
     "u.act:4:3: SyntaxError expected attr, ref, method, operation, rename or '}'"),
    ("pre-in-act", "u.act", H + "aspect class A { pre ok on run : true; }\n",
     "u.act:3:18: SyntaxError expected attr, ref, method, operation, rename or '}'"),
    ("method-in-inv", "u.inv", H + "aspect class A {\n  method run() : Void is do end\n}\n",
     "u.inv:4:3: SyntaxError expected inv, pre, post or '}'"),
    ("operation-in-inv", "u.inv", H + "aspect class A { operation run() : Void is do end }\n",
     "u.inv:3:18: SyntaxError expected inv, pre, post or '}'"),
    ("rename-in-inv", "u.inv", H + "aspect class A {\n  rename run from B as go;\n}\n",
     "u.inv:4:3: SyntaxError expected inv, pre, post or '}'"),
    ("inherits-inv", "u.inv", H + "aspect class A inherits B { }\n",
     "u.inv:3:16: SyntaxError expected '{', found 'inherits'"),
    # expressions
    ("new-with-arguments", "u.inv", H + "aspect class A { inv i : B.new(1) == void; }\n",
     "u.inv:3:28: SyntaxError new takes no arguments and applies to a class name"),
    ("size-with-arguments", "u.inv", H + "aspect class A { inv i : self.ks.size(1) == 0; }\n",
     "u.inv:3:34: SyntaxError size takes no arguments"),
    ("add-without-argument", "u.inv", H + "aspect class A { inv i : self.ks.add() == void; }\n",
     "u.inv:3:34: SyntaxError add takes exactly one argument"),
    ("super-in-expression", "u.act",
     H + "aspect class A {\n  operation f() : Int is do\n    return super()\n  end\n}\n",
     "u.act:5:12: SyntaxError super is only valid as its own statement"),
    # a word that closes or continues a construct is no variable
    ("end-as-value", "u.act", H + "aspect class A {\n  operation f() : Void is do\n"
     "    self.n := end\n  end\n}\n",
     "u.act:5:15: SyntaxError expected expression, found 'end'"),
    ("loop-as-value", "u.act", H + "aspect class A {\n  operation f() : Int is do\n"
     "    return loop\n  end\n}\n",
     "u.act:5:12: SyntaxError expected expression, found 'loop'"),
    ("else-as-value", "u.act", H + "aspect class A {\n  operation f() : Void is do\n"
     "    var x : Int init else\n  end\n}\n",
     "u.act:5:22: SyntaxError expected expression, found 'else'"),
    ("then-as-value", "u.act", H + "aspect class A {\n  operation f() : Void is do\n"
     "    if then self.n := 1 end\n  end\n}\n",
     "u.act:5:8: SyntaxError expected expression, found 'then'"),
    ("do-as-value", "u.inv", H + "aspect class A { inv i : do; }\n",
     "u.inv:3:26: SyntaxError expected expression, found 'do'"),
    ("each-block-continued", "u.act",
     H + "aspect class A {\n  operation f() : Void is do\n"
     "    self.ks.each { k | self.n := 1 }.size()\n  end\n}\n",
     "u.act:5:37: SyntaxError an each block with statements cannot be continued"),
]


@pytest.mark.parametrize("unit,text,expected", [c[1:] for c in CASES],
                         ids=[c[0] for c in CASES])
def test_front_end_diagnostics_are_pinned(unit, text, expected):
    with pytest.raises(UnitParseError) as exc:
        _PARSERS[unit.rsplit(".", 1)[1]](text, unit)
    assert [d.render() for d in exc.value.diagnostics] == [expected]


PUNCT = ":= == != <= >= .. { } ( ) [ ] < > , ; : . | + - * / ="

LEXER_CASES = [
    ("empty", "", [("eof", "", 1, 1)]),
    ("kinds", 'name _x9 42 "s"',
     [("ident", "name", 1, 1), ("ident", "_x9", 1, 6), ("int", "42", 1, 10),
      ("string", "s", 1, 13), ("eof", "", 1, 16)]),
    ("punct", PUNCT,
     [("punct", m.group(), 1, m.start() + 1) for m in re.finditer(r"\S+", PUNCT)]
     + [("eof", "", 1, len(PUNCT) + 1)]),
    ("longest-first", "a:=b..c<=d",
     [("ident", "a", 1, 1), ("punct", ":=", 1, 2), ("ident", "b", 1, 4),
      ("punct", "..", 1, 5), ("ident", "c", 1, 7), ("punct", "<=", 1, 8),
      ("ident", "d", 1, 10), ("eof", "", 1, 11)]),
    ("int-then-ident", "12ab", [("int", "12", 1, 1), ("ident", "ab", 1, 3), ("eof", "", 1, 5)]),
    ("tabs", "\tx\t\ty", [("ident", "x", 1, 2), ("ident", "y", 1, 5), ("eof", "", 1, 6)]),
    ("crlf", "a\r\n  b\r\n",
     [("ident", "a", 1, 1), ("ident", "b", 2, 3), ("eof", "", 3, 1)]),
    ("escapes", 'x = "\\n\\t\\"\\\\";',
     [("ident", "x", 1, 1), ("punct", "=", 1, 3), ("string", '\n\t"\\', 1, 5),
      ("punct", ";", 1, 15), ("eof", "", 1, 16)]),
    ("string-keeps-slashes-and-cr", '"a//b\r"', [("string", "a//b\r", 1, 1), ("eof", "", 1, 8)]),
    ("unicode-ident", "é _é2 xé", [("ident", "é", 1, 1), ("ident", "_é2", 1, 3),
                                   ("ident", "xé", 1, 7), ("eof", "", 1, 9)]),
    ("comment-line", "x // note\ny",
     [("ident", "x", 1, 1), ("ident", "y", 2, 1), ("eof", "", 2, 2)]),
    # the eof column counts the comment's characters (the hand-rolled
    # scanner before the token regex reported 1:3 here)
    ("trailing-comment", "x // note", [("ident", "x", 1, 1), ("eof", "", 1, 10)]),
    # integers are ASCII; a superscript digit is a word character, so it
    # lexes as an identifier and never reaches int()
    ("superscript-two", "x ²", [("ident", "x", 1, 1), ("ident", "²", 1, 3), ("eof", "", 1, 4)]),
    ("arabic-indic-three", "x = ٣;", "u.mm:1:5: SyntaxError unexpected character '٣'"),
    ("unexpected-character", "a # b", "u.mm:1:3: SyntaxError unexpected character '#'"),
    ("unterminated-at-eof", 'x = "abc', "u.mm:1:5: SyntaxError unterminated string literal"),
    ("unterminated-at-newline", 'a\n "abc\n"',
     "u.mm:2:2: SyntaxError unterminated string literal"),
    ("unterminated-after-escape", '"\\n', "u.mm:1:1: SyntaxError unterminated string literal"),
    ("unterminated-after-backslash-escape", '"\\\\q',
     "u.mm:1:1: SyntaxError unterminated string literal"),
    ("unterminated-after-quote-escape", '"\\"', "u.mm:1:1: SyntaxError unterminated string literal"),
    ("bad-escape", 'x "ok\\q"', "u.mm:1:3: SyntaxError bad escape in string literal"),
    ("bad-escape-at-eof", '"\\', "u.mm:1:1: SyntaxError bad escape in string literal"),
    ("bad-escape-before-newline", '"\\\n"', "u.mm:1:1: SyntaxError bad escape in string literal"),
]


@pytest.mark.parametrize("text,expected", [c[1:] for c in LEXER_CASES],
                         ids=[c[0] for c in LEXER_CASES])
def test_lexer_tokens_are_pinned(text, expected):
    if isinstance(expected, str):
        with pytest.raises(UnitParseError) as exc:
            Lexer(text, "u.mm")
        assert [d.render() for d in exc.value.diagnostics] == [expected]
    else:
        tokens = Lexer(text, "u.mm").tokens
        assert [(t.kind, t.value, t.pos.line, t.pos.col) for t in tokens] == expected
