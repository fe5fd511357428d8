"""Pinned diagnostics of the unit front end.

Every malformed unit below must be rejected with exactly this rendered
diagnostic, whichever parser shares the header, member or supertype code.
"""

from __future__ import annotations

import pytest

from mashup.behavior import parse_behavior
from mashup.composer import parse_manifest
from mashup.contracts import parse_contracts
from mashup.diagnostics import UnitParseError
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
]


@pytest.mark.parametrize("unit,text,expected", [c[1:] for c in CASES],
                         ids=[c[0] for c in CASES])
def test_front_end_diagnostics_are_pinned(unit, text, expected):
    with pytest.raises(UnitParseError) as exc:
        _PARSERS[unit.rsplit(".", 1)[1]](text, unit)
    assert [d.render() for d in exc.value.diagnostics] == [expected]
