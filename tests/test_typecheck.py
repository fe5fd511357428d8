"""Pinned diagnostics of the type checker.

Every unit below is woven with the metamodel ``MM`` and type checked; it
must yield exactly these rendered diagnostics, in this order.  With the
other suites, the rows reach every diagnostic ``typecheck`` can report.
An aspect of a class no metamodel declares already fails to compose.
"""

from __future__ import annotations

import pytest

from helpers import parse_units
from mashup.composer import compose
from mashup.diagnostics import CompositionError
from mashup.typecheck import typecheck_units

MM = """metamodel t {
  abstract class Shape { attr n: Int; ref ks: K[*]; op area(): Int; }
  class K extends Shape { attr s: String; }
  class L extends K { }
}
"""

H = 'package t;\nrequire "t.mm";\n'


def act(members: str, cls: str = "K") -> str:
    """A behavior unit: ``members`` in an aspect of ``cls``, beside a helper
    operation ``take``."""
    return (H + f"aspect class {cls} {{\n"
            + "  operation take(v : Int) : Int is do return v end\n" + members + "\n}\n")


def run(body: str, returns: str = "Void") -> str:
    """A behavior unit whose operation ``K.run`` has ``body``; its lines
    start on line 6."""
    return act(f"  operation run() : {returns} is do\n{body}\n  end")


def inv(members: str, cls: str = "K") -> str:
    return H + f"aspect class {cls} {{\n{members}\n}}\n"


CASES = [
    # expressions
    ("bad-navigation", "inv", inv("  inv i : 1.n == 0;"),
     ["u0.inv:4:13: BadNavigation cannot navigate feature n on a value of type Int"]),
    ("bad-call", "act", run("    1.take(2)"),
     ["u0.act:6:7: BadCall cannot call take on a value of type Int"]),
    ("unknown-operation", "act", run("    self.ghost()"),
     ["u0.act:6:10: UnknownOperation K has no operation ghost"]),
    ("bad-each", "act", run("    var x : Int init self.ks.each { k | var y : Int init 1 }"),
     ["u0.act:6:30: BadEach an each block with statements must stand alone as a statement",
      "u0.act:6:5: TypeMismatch cannot initialize x: Int with Void"]),
    ("bad-type-test", "inv", inv("  inv i : 1.oclIsKindOf(K);"),
     ["u0.inv:4:13: BadTypeTest oclIsKindOf applies to objects, not Int"]),
    ("type-test-unknown-class", "inv", inv("  inv i : self.oclIsKindOf(Ghost);"),
     ["u0.inv:4:16: UnknownClass unknown class Ghost"]),
    ("new-unknown-class", "act", run("    var g : K init Ghost.new()"),
     ["u0.act:6:26: UnknownClass unknown class Ghost"]),
    ("new-abstract", "act", run("    var g : Shape init Shape.new()"),
     ["u0.act:6:30: AbstractInstantiation cannot instantiate abstract class Shape"]),
    ("aspect-target-act", "act", act("", cls="Ghost"),
     ["u0.act:3:14: UnknownAspectTarget aspect targets unknown class Ghost"]),
    ("aspect-target-inv", "inv", inv("  inv i : true;", cls="Shap"),
     ["u0.inv:3:14: UnknownAspectTarget aspect targets unknown class Shap; "
      "did you mean Shape?"]),
    # type mismatches
    ("not-bool", "inv", inv("  inv i : not 1;"),
     ["u0.inv:4:11: TypeMismatch not expects Bool, found Int"]),
    ("if-expr-condition", "inv", inv("  inv i : if 1 then true else false end;"),
     ["u0.inv:4:11: TypeMismatch if condition must be Bool, found Int"]),
    ("if-branches", "inv", inv('  inv i : if true then 1 else "a" end == 1;'),
     ["u0.inv:4:11: TypeMismatch if branches disagree: Int vs String"]),
    ("argument-type", "act", run("    self.take(true)"),
     ["u0.act:6:10: TypeMismatch argument v of take expects Int, found Bool"]),
    ("non-collection", "inv", inv("  inv i : self.n.size() == 0;"),
     ["u0.inv:4:18: TypeMismatch size expects a collection receiver, found Int"]),
    ("lambda-not-bool", "inv", inv("  inv i : self.ks.forAll { k | k.n };"),
     ["u0.inv:4:19: TypeMismatch forAll lambda must yield Bool, found Int"]),
    ("cannot-add", "inv", inv("  inv i : self.ks.add(1).isEmpty();"),
     ["u0.inv:4:19: TypeMismatch cannot add Int to a collection of K"]),
    ("cannot-intersect", "inv", inv("  inv i : self.ks.intersection(self.n).isEmpty();"),
     ["u0.inv:4:19: TypeMismatch cannot intersect OrderedSet<K> with Int"]),
    ("cannot-compare", "inv", inv('  inv i : self.n == "a";'),
     ["u0.inv:4:18: TypeMismatch cannot compare Int with String"]),
    ("int-operands", "inv", inv('  inv i : self.s < 1 and self.n - true == 0;'),
     ["u0.inv:4:18: TypeMismatch < expects Int operands, found String",
      "u0.inv:4:33: TypeMismatch - expects Int operands, found Bool"]),
    # rules
    ("non-boolean-condition", "inv", inv("  pre p on area : self.n + 1;"),
     ["u0.inv:4:7: NonBooleanRule condition p must be Bool, found Int"]),
    # statements
    ("cannot-initialize", "act", run("    var x : Int init true"),
     ["u0.act:6:5: TypeMismatch cannot initialize x: Int with Bool"]),
    ("assign-unbound", "act", run("    z := 1"),
     ["u0.act:6:5: UnknownVariable unbound variable z"]),
    ("assign-ill-typed", "act", run("    var x : Int\n    x := true"),
     ["u0.act:7:5: TypeMismatch cannot assign Bool to x: Int"]),
    ("if-condition", "act", run("    if 1 then end"),
     ["u0.act:6:5: TypeMismatch if condition must be Bool, found Int"]),
    ("loop-condition", "act", run("    from var i : Int init 0 until i loop end"),
     ["u0.act:6:5: TypeMismatch loop condition must be Bool, found Int"]),
    ("each-non-collection", "act", run("    self.n.each { i | self.take(i) }"),
     ["u0.act:6:12: TypeMismatch each expects a collection, found Int"]),
    ("return-needs-value", "act", run("    return", "Int"),
     ["u0.act:6:5: TypeMismatch return needs a value of type Int"]),
    ("super-unrelated", "act", act("  operation go() : Void is do super[K]() end", cls="L"),
     ["u0.act:5:31: BadSuper super[K]: K provides no go"]),
    ("super-top", "act", act("  operation go() : Void is do super() end"),
     ["u0.act:5:31: BadSuper K.go has no inherited definition to call"]),
    # a call of a root builtin type checks, but it takes no contracts
    ("condition-on-builtin", "inv", inv('  pre p on trace : message == "";'),
     ["u0.inv:4:7: BuiltinCondition p is on root builtin trace, which takes no pre or post "
      "conditions"]),
]

@pytest.mark.parametrize("case", CASES, ids=[c[0] for c in CASES])
def test_type_checker_diagnostics_are_pinned(case):
    _name, kind, text, expected = case
    units = parse_units(mm=MM, **{kind: text})
    try:
        problems = typecheck_units(units[1:], compose(units))
    except CompositionError as exc:
        problems = exc.diagnostics
    assert [d.render() for d in problems] == expected


def test_constraint_and_behavior_units_are_checked_in_unit_order():
    """One build's constraint and behavior units each report their own
    problems, in unit order and, within a unit, aspect by aspect."""
    constraints = (H + "aspect class K {\n"
                   "  inv a : self.n + 1;\n"
                   "  pre b on ghost : true;\n"
                   '  post c on area : result == "x";\n'
                   "}\n"
                   "aspect class Shape {\n"
                   '  inv d : self.s == "";\n'
                   "}\n")
    behavior = (H + "aspect class L {\n"
                "  operation run() : Void is do\n"
                '    self.n := "x"\n'
                "  end\n"
                "}\n"
                "aspect class K {\n"
                "  operation go() : Int is do\n"
                "    return self.ghost\n"
                "  end\n"
                "}\n")
    units = parse_units(mm=MM, inv=constraints, act=behavior)
    assert [d.render() for d in typecheck_units(units, compose(units))] == [
        "u0.inv:4:7: NonBooleanRule invariant a must be Bool, found Int",
        "u0.inv:5:7: UnknownOperation b refers to unknown operation K.ghost",
        "u0.inv:6:27: TypeMismatch cannot compare Int with String",
        "u0.inv:9:16: UnknownFeature Shape has no feature s",
        "u0.act:5:5: TypeMismatch cannot assign String into a Int feature",
        "u0.act:10:17: UnknownFeature K has no feature ghost",
    ]


SUPER_MM = """metamodel s {
  class A { } class B { } class C extends A { } class X extends A, B { }
  class D extends X, C { } class E extends B, C { }
}
"""

SUPER_CASES = [
    # lin(D) = D C X B A: C's super() reaches B's who(x : Int) on a D
    ("plain", 'aspect class A { operation who() : Void is do end }\n'
              'aspect class B { operation who(x : Int) : Void is do end }\n'
              'aspect class C { method who() : Void is do super() end }\n'
              'aspect class X { rename who from B as bwho; }',
     ["u0.act:5:44: BadSuper super in C.who reaches B.who in D, whose parameters differ"]),
    # lin(E) = E C A B: super[B] calls B's who(x : Int), not E's who()
    ("qualified", 'aspect class A { operation who() : Void is do end }\n'
                  'aspect class B { operation who(x : Int) : Void is do end }\n'
                  'aspect class E { rename who from B as bwho;\n'
                  '  method who() : Void is do super[B]() end }',
     ["u0.act:6:29: ArityMismatch super who expects 1 argument(s), found 0"]),
]


@pytest.mark.parametrize("case", SUPER_CASES, ids=[c[0] for c in SUPER_CASES])
def test_super_reaches_a_definition_of_its_signature(case):
    """``super`` runs the definition after the caller's class in the
    object's linearization, or the named supertype's first one: the checker
    holds its arguments to that definition's parameters, in every class."""
    _name, members, expected = case
    units = parse_units(mm=SUPER_MM, act='package s;\nrequire "s.mm";\n' + members + "\n")
    assert [d.render() for d in typecheck_units(units[1:], compose(units))] == expected
