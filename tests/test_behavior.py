from __future__ import annotations

import random

import pytest

from helpers import parse_units
from mashup.behavior import (
    EachLoop, If, Loop, Return, SuperCall, VarDecl, parse_behavior,
)
from mashup.composer import compose
from mashup.diagnostics import UnitParseError
from mashup.exprs import StringLit
from mashup.typecheck import typecheck_units

EXECUTE_UNIT = """
package fuml;
require "fuml.mm";

aspect class Activity inherits Executable {
  method execute(runnable : Runnable) : Void is do
    var group : ActivityNodeActivationGroup init ActivityNodeActivationGroup.new()
    group.execution := runnable
    runnable.group := group
    runnable.group.activate(self.node, self.edge)
    var outputNodeActivations : OrderedSet<ActivityParameterNode>
      init runnable.group.fumlGetOutputParameterNodeActivations()
    outputNodeActivations.each { outputNodeActivation |
      var parameterValue : ParameterValue init ParameterValue.new()
      parameterValue.parameter := outputNodeActivation.asType(ActivityParameterNode).parameter
      var tokens : Set<Token> init outputNodeActivation.fumlGetTokens()
      tokens.each { token |
        var val : Value init token.asType(ObjectToken).val
        if val != void then
          parameterValue.values.add(val)
        end
      }
      runnable.fumlSetParameterValue(parameterValue)
    }
  end
}
"""


def test_parse_execute_shaped_unit():
    bm = parse_behavior(EXECUTE_UNIT, "fuml.act")
    (aspect,) = bm.aspects
    assert aspect.class_name == "Activity"
    assert aspect.added_supertypes == ("Executable",)
    (mdef,) = aspect.methods
    assert mdef.sig.name == "execute" and mdef.overrides
    assert mdef.sig.params[0].name == "runnable"
    assert isinstance(mdef.body[0], VarDecl)
    assert mdef.body[0].name == "group"
    # the trailing each holds a statement block
    assert isinstance(mdef.body[-1], EachLoop)
    inner = mdef.body[-1].body
    assert isinstance(inner[-2], EachLoop)


def test_parse_empty_aspect():
    bm = parse_behavior('package p;\nrequire "p.mm";\naspect class A { }')
    (aspect,) = bm.aspects
    assert aspect.methods == () and aspect.added_attributes == ()


def test_parse_two_added_supertypes():
    bm = parse_behavior(
        'package p;\nrequire "p.mm";\n'
        "aspect class Pin inherits ObjectNode, MultiplicityElement { }"
    )
    assert bm.aspects[0].added_supertypes == ("ObjectNode", "MultiplicityElement")


def test_parse_rename_clause():
    bm = parse_behavior(
        'package p;\nrequire "p.mm";\n'
        "aspect class D { rename run from C as runC; }"
    )
    (ren,) = bm.aspects[0].renamings
    assert (ren.op_name, ren.from_class, ren.new_name) == ("run", "C", "runC")


def test_parse_loop_forms_and_super():
    bm = parse_behavior(
        'package p;\nrequire "p.mm";\n'
        """
aspect class A {
  operation go(n : Int) : Int is do
    var total : Int init 0
    from var i : Int init 0 until i >= n loop
      total := total + i
      i := i + 1
    end
    while total > 100 loop
      total := total - 100
    end
    if total == 0 then
      return 0
    else
      super[B](n)
    end
    return total
  end
}
"""
    )
    body = bm.aspects[0].methods[0].body
    kinds = [type(s).__name__ for s in body]
    assert kinds == ["VarDecl", "Loop", "Loop", "If", "Return"]
    loop = body[1]
    assert isinstance(loop.init, VarDecl) and not loop.while_style
    assert body[2].while_style
    sup = body[3].orelse[0]
    assert isinstance(sup, SuperCall) and sup.qualifier == "B"


def test_parsing_is_total_on_random_noise():
    rng = random.Random(13)
    vocab = ["aspect", "class", "{", "}", "(", ")", "method", "is", "do", "end",
             ":=", ";", "self", "1", '"s"', "+", ".", "var", ":", "Int", "x"]
    for _ in range(300):
        text = " ".join(rng.choice(vocab) for _ in range(rng.randint(0, 40)))
        try:
            parse_behavior(f'package p;\nrequire "p.mm";\n{text}')
        except UnitParseError as err:
            assert err.diagnostics  # positioned diagnostic, never a crash


# ---------------------------------------------------------------------------
# type checking against a woven model
# ---------------------------------------------------------------------------


def _diag_codes(mm, act):
    units = parse_units(mm=mm, act=act)
    woven = compose(units)
    return {d.code for d in typecheck_units(units[1:], woven)}


PINS_MM = """
metamodel pins {
  class Pin { }
  class MultiplicityElement { attr lower: Int; }
  class Host { ref node: Pin[0..1]; attr count: Int; }
}
"""


def test_added_supertype_feature_is_visible():
    codes = _diag_codes(
        PINS_MM,
        'package pins;\nrequire "pins.mm";\n'
        """
aspect class Pin inherits MultiplicityElement { }
aspect class Host {
  operation isReady() : Bool is do
    var minimum : Int init self.node.lower
    return minimum >= 0
  end
}
""",
    )
    assert codes == set()


def test_super_with_non_supertype_qualifier_diagnosed():
    codes = _diag_codes(
        PINS_MM,
        'package pins;\nrequire "pins.mm";\n'
        """
aspect class Host {
  operation go() : Void is do
    super[Pin]()
  end
}
""",
    )
    assert "BadSuper" in codes


SCOPES_MM = "metamodel s { class K { attr n: Int; ref ks: K[*]; } }"


@pytest.mark.parametrize("body,expected", [
    # an if branch and an each body check in a scope of their own
    ("if true then var x : Int init 1 end\nvar x : Int init 2", []),
    ("if true then var x : Int init 1 else var x : Int init 2 end", []),
    ("if true then var x : Int init 1 end\nself.n := x",
     [("UnknownVariable", "unbound variable x")]),
    ("self.ks.each { k | var y : Int init 1 }\nvar y : Int init 2", []),
    ("self.ks.each { k | var k : K }", [("DuplicateVariable", "variable k already declared here")]),
    # a loop body shares the loop's scope with its from clause
    ("from var i : Int init 0 until i > 3 loop var i : Int init 1 end",
     [("DuplicateVariable", "variable i already declared here")]),
    ("from var i : Int init 0 until i > 3 loop i := i + 1 end\nvar i : Int init 1", []),
    ("while self.n > 0 loop var j : Int init 1 end\nself.n := j",
     [("UnknownVariable", "unbound variable j")]),
    # parameters share the body's scope, and returns follow the signature
    ("var v : Int init 1", [("DuplicateVariable", "variable v already declared here")]),
    ("if true then return 1 end", [("TypeMismatch", "operation returns Void; drop the return value")]),
], ids=["then-scope", "else-scope", "then-leak", "each-scope", "each-param", "loop-shared",
        "loop-ends", "while-leak", "param-scope", "void-return"])
def test_block_scopes_are_pinned(body, expected):
    units = parse_units(mm=SCOPES_MM, act='package s;\nrequire "s.mm";\naspect class K {\n'
                        f"  operation go(v : Int) : Void is do\n{body}\n  end\n}}\n")
    diagnostics = typecheck_units(units[1:], compose(units))
    assert [(d.code, d.message) for d in diagnostics] == expected


@pytest.mark.parametrize("word", ["end", "else", ";", "}"])
@pytest.mark.parametrize("returns,expected", [
    ("String", []),
    ("Void", [("TypeMismatch", "operation returns Void; drop the return value")]),
])
def test_a_returned_string_may_spell_a_closer(word, returns, expected):
    units = parse_units(mm=SCOPES_MM, act='package s;\nrequire "s.mm";\naspect class K {\n'
                        f'  operation go() : {returns} is do\n    return "{word}"\n  end\n}}\n')
    assert units[1].aspects[0].methods[0].body == (Return(StringLit(word)),)
    diagnostics = typecheck_units(units[1:], compose(units))
    assert [(d.code, d.message) for d in diagnostics] == expected


def test_string_into_int_assignment_diagnosed():
    codes = _diag_codes(
        PINS_MM,
        'package pins;\nrequire "pins.mm";\n'
        """
aspect class Host {
  operation go() : Void is do
    self.count := "nope"
  end
}
""",
    )
    assert "TypeMismatch" in codes


def test_method_requires_existing_signature():
    codes = _diag_codes(
        PINS_MM,
        'package pins;\nrequire "pins.mm";\n'
        "aspect class Host { method fresh() : Void is do end }",
    )
    assert "BadOverride" in codes


def test_operation_must_be_fresh():
    codes = _diag_codes(
        "metamodel m { class A { op tick(); } }",
        'package m;\nrequire "m.mm";\n'
        "aspect class A { operation tick() : Void is do end }",
    )
    assert "DuplicateOperation" in codes


def test_method_may_implement_base_signature():
    codes = _diag_codes(
        "metamodel m { class A { op tick(); } }",
        'package m;\nrequire "m.mm";\n'
        "aspect class A { method tick() : Void is do end }",
    )
    assert codes == set()


def test_override_signature_must_match():
    codes = _diag_codes(
        "metamodel m { class A { } class B extends A { } }",
        'package m;\nrequire "m.mm";\n'
        """
aspect class A {
  operation f(x : Int) : Int is do
    return x
  end
}
aspect class B {
  method f(x : String) : Int is do
    return 0
  end
}
""",
    )
    assert "OverrideMismatch" in codes


def test_return_type_checked():
    codes = _diag_codes(
        "metamodel m { class A { } }",
        'package m;\nrequire "m.mm";\n'
        """
aspect class A {
  operation f() : Int is do
    return "text"
  end
}
""",
    )
    assert "TypeMismatch" in codes


def test_open_class_method_visible_on_subclasses(fuml_woven):
    # run is contributed to ActivityNode; fork nodes inherit a dispatchable body
    fork = fuml_woven.classes["ForkNode"]
    assert fork.method_table["run"][0][0] == "ActivityNode"
    assert fork.method_table["consume"][0][0] == "ActivityNode"
    initial = fuml_woven.classes["InitialNode"]
    assert initial.method_table["consume"][0][0] == "InitialNode"
