"""The interpreter's observable behaviour, pinned row by row.

Each row runs one method body or one expression and records the exact
``interp.trace`` renderings plus either the rendered result or the exact
``(kind, message)`` of the fault it ends in.  Bodies are built with
``build_units`` and expressions go through ``eval_expr``, so every row's
code is type checked first, as all code that runs is.  The rows pin the
interpreter's dynamic checks: checked code reaches them through a void
value (``self.one`` is unset), a zero divisor, a failed ``asType`` or a
contract.  A row whose code the checker refuses pins the exact diagnostics
instead, with the kind ``TypecheckError``: the interpreter no longer checks
at run time what the checker rules out.  Any other evaluator for the same
ASTs must give the same rows.
"""

from __future__ import annotations

import pytest

from helpers import TABLE_MM, table_act, table_inv, table_model, weave
from mashup.diagnostics import EvalFault, TypecheckError
from mashup.exprs import Coll, EachBlock, IntV, VarRef, parse_expr, render_value
from mashup.runtime import (
    Interpreter, ModelInstance, check_model, create_instance, eval_expr, invoke,
)


def _shown(value) -> str:
    text = render_value(value)
    return f"{value.kind}{text}" if isinstance(value, Coll) else text


def _refused(exc: TypecheckError):
    return "TypecheckError", [d.render() for d in exc.diagnostics]


def _outcome(thunk, interp):
    try:
        result = ("value", _shown(thunk()))
    except EvalFault as fault:
        result = (fault.kind, fault.message)
    except TypecheckError as exc:
        result = _refused(exc)
    return [event.render() for event in interp.trace], result


def _act(body: str, returns: str = "Void", inv: str = "", policy: str = "prepost"):
    """Build ``body`` as ``A.run`` and invoke it on o1."""
    def run():
        try:
            woven = weave(mm=TABLE_MM, act=table_act(body, returns),
                          inv=[table_inv(inv)] if inv else ())
        except TypecheckError as exc:
            return [], _refused(exc)
        model = table_model(woven)
        interp = Interpreter(model, policy)
        return _outcome(lambda: interp.invoke("o1", "run", []), interp)
    return run


def _seq(*ints: int) -> Coll:
    return Coll("Sequence", [IntV(i) for i in ints])


def _expr(text, scope=None, pure: bool = True):
    """Evaluate ``text`` (source, or an AST) with self = o1."""
    def run():
        model = table_model(weave(mm=TABLE_MM, act=table_act("")))
        interp = Interpreter(model)
        e = parse_expr(text) if isinstance(text, str) else text
        return _outcome(lambda: eval_expr(e, interp, "o1", scope, pure=pure), interp)
    return run


def _checked(inv: str):
    """``check_model`` results for an invariant unit on the fixture model."""
    def run():
        try:
            woven = weave(mm=TABLE_MM, inv=table_inv(inv))
        except TypecheckError as exc:
            return [], _refused(exc)
        results = check_model(table_model(woven))
        return [], [(r.status, r.invariant, r.obj_id, r.detail) for r in results]
    return run


_TF, _TC = "TypeFault", "TypecheckError"
_IN, _OUT = "OpEnter\to1.run", "OpExit\to1.run\t"


def _show(v: int) -> list[str]:
    return ["OpEnter\to1.show", f"OpExit\to1.show\t{v}"]


CASES = {
    # -- the TypeFault sites -------------------------------------------------
    "if condition not Bool": (
        _act('if self.one.ok then self.trace("then") end'),
        [_IN], (_TF, "if condition did not yield a Bool")),
    "if expression condition not Bool": (
        _expr("if self.one.ok then 2 else 3 end"), [], (_TF, "if condition did not yield a Bool")),
    "until condition not Bool": (
        _act('until self.one.ok loop self.trace("body") end'),
        [_IN], (_TF, "loop condition did not yield a Bool")),
    "while condition not Bool": (
        _act("while self.one.ok loop end"), [_IN], (_TF, "loop condition did not yield a Bool")),
    "from condition not Bool after its init": (
        _act("from var i : Int init self.show(4) until self.one.ok loop end"),
        [_IN] + _show(4), (_TF, "loop condition did not yield a Bool")),
    "each statement over a non-collection": (
        _act('self.n.each { x | self.trace("body") }'),
        [], (_TC, ["u0.act:9:8: TypeMismatch each expects a collection, found Int"])),
    "each block in expression position over a non-collection": (
        _act('return self.n.each { x | self.trace("body") }'),
        [], (_TC, [
            "u0.act:9:15: BadEach an each block with statements must "
            "stand alone as a statement"])),
    "each lambda over a non-collection": (
        _expr("x.each { i | i }", {"x": IntV(1)}),
        [], (_TC, ["<expr>:1:3: TypeMismatch each expects a collection receiver, found Int"])),
    "collect over a non-collection": (
        _expr("x.collect { i | i }", {"x": IntV(1)}),
        [], (_TC, ["<expr>:1:3: TypeMismatch collect expects a collection receiver, found Int"])),
    "size of a non-collection": (
        _expr("self.n.size()"),
        [], (_TC, ["<expr>:1:8: TypeMismatch size expects a collection receiver, found Int"])),
    "select lambda not Bool": (
        _expr("self.kids.select { b | self.one.ok }"), [],
        (_TF, "select lambda did not yield a Bool")),
    "reject lambda not Bool": (
        _expr("self.kids.reject { b | self.one.ok }"), [],
        (_TF, "reject lambda did not yield a Bool")),
    "forAll lambda not Bool": (
        _expr("self.kids.forAll { b | self.one.ok }"), [],
        (_TF, "forAll lambda did not yield a Bool")),
    "exists lambda not Bool": (
        _expr("self.kids.exists { b | self.one.ok }"), [],
        (_TF, "exists lambda did not yield a Bool")),
    "select lambda not Bool on a later element": (
        _expr("self.kids.select { b | if b.w > 1 then self.one.ok else true end }"), [],
        (_TF, "select lambda did not yield a Bool")),
    "intersection with a non-collection": (
        _expr("self.kids.intersection(self.one.kids)"), [],
        (_TF, "intersection expects a collection argument")),
    "not of a non-Bool": (
        _expr("not self.one.ok"), [], (_TF, "not expects a Bool")),
    "and with a non-Bool left operand": (
        _expr("self.one.ok and true"), [], (_TF, "and expects Bool operands")),
    "and with a non-Bool right operand": (
        _expr("true and self.one.ok"), [], (_TF, "and expects Bool operands")),
    "or with a non-Bool left operand": (
        _expr("self.one.ok or false"), [], (_TF, "or expects Bool operands")),
    "or with a non-Bool right operand": (
        _expr("false or self.one.ok"), [], (_TF, "or expects Bool operands")),
    "and short-circuits": (_expr("false and self.one.ok"), [], ("value", "false")),
    "or short-circuits": (_expr("true or self.one.ok"), [], ("value", "true")),
    "plus on a Bool": (
        _expr("1 + true"),
        [], (_TC, ["<expr>:1:3: TypeMismatch + expects Int operands, found Bool"])),
    "minus on Strings": (
        _expr('"a" - "b"'),
        [], (_TC, [
            "<expr>:1:5: TypeMismatch - expects Int operands, found String",
            "<expr>:1:5: TypeMismatch - expects Int operands, found String",
        ])),
    "plus on a String and an Int": (
        _expr('"a" + 1'),
        [], (_TC, ["<expr>:1:5: TypeMismatch + expects Int operands, found String"])),
    "times on void": (
        _expr("self.one.w * 2"), [], (_TF, "* expects Int operands, got void and 2")),
    "less-than on a String": (
        _expr('1 < "a"'),
        [], (_TC, ["<expr>:1:3: TypeMismatch < expects Int operands, found String"])),
    "plus on Strings concatenates": (_expr('"a" + "b"'), [], ("value", '"ab"')),
    "division truncates toward zero": (_expr("-7 / 2"), [], ("value", "-3")),
    "division by zero": (_expr("1 / 0"), [], ("DivisionByZero", "division by zero")),
    "navigation on a non-object": (
        _expr("x.w", {"x": IntV(3)}),
        [], (_TC, ["<expr>:1:3: BadNavigation cannot navigate feature w on a value of type Int"])),
    "navigation to an unknown feature": (
        _expr("self.zz"),
        [], (_TC, ["<expr>:1:6: UnknownFeature A has no feature zz"])),
    "navigation on void": (_expr("self.one.w"), [], ("value", "void")),
    "failed asType": (
        _expr("self.asType(B)"), [], (_TF, "cannot cast A object o1 to B")),
    "asType on a non-object": (
        _expr("x.asType(A)", {"x": IntV(3)}),
        [], (_TC, ["<expr>:1:3: BadTypeTest asType applies to objects, not Int"])),
    "oclIsKindOf on a non-object": (
        _expr("x.oclIsKindOf(A)", {"x": IntV(3)}),
        [], (_TC, ["<expr>:1:3: BadTypeTest oclIsKindOf applies to objects, not Int"])),
    "asType and oclIsKindOf on void": (
        _expr("self.one.asType(B) == void and not self.one.oclIsKindOf(B)"), [],
        ("value", "true")),
    "operation call on void": (
        _expr("(if false then self else void end).show(1)", pure=False), [],
        (_TF, "operation call show on void")),
    "operation call on a non-object": (
        _expr("x.show(1)", {"x": IntV(3)}, pure=False),
        [], (_TC, ["<expr>:1:3: BadCall cannot call show on a value of type Int"])),
    "feature assignment on void": (
        _act("self.one.w := 1"), [_IN], (_TF, "cannot assign feature w on void")),
    "element add on void": (
        _act("self.one.kids.add(self.one)"), [_IN], (_TF, "cannot add to feature kids on void")),
    "unbound variable": (
        _expr("nope + 1"),
        [], (_TC, ["<expr>:1:1: UnknownVariable unbound variable nope"])),
    "assignment to an unbound variable": (
        _act("nope := 1"),
        [], (_TC, ["u0.act:9:1: UnknownVariable unbound variable nope"])),
    # -- forAll / exists short-circuit -------------------------------------
    "forAll stops at the first false element": (
        _act("var c : Sequence<Int>\nc := c.add(5)\nc := c.add(20)\nc := c.add(0)\n"
             "return c.forAll { i | 10 / self.show(i) > 1 }", "Bool"),
        [_IN] + _show(5) + _show(20) + [_OUT + "false"], ("value", "false")),
    "exists stops at the first true element": (
        _act("var c : Sequence<Int>\nc := c.add(20)\nc := c.add(5)\nc := c.add(0)\n"
             "return c.exists { i | 10 / self.show(i) > 1 }", "Bool"),
        [_IN] + _show(20) + _show(5) + [_OUT + "true"], ("value", "true")),
    "forAll never evaluates a faulting later element": (
        _expr("c.forAll { i | 10 / i > 1 }", {"c": _seq(5, 20, 0)}), [], ("value", "false")),
    "exists never evaluates a faulting later element": (
        _expr("c.exists { i | 10 / i > 1 }", {"c": _seq(20, 5, 0)}), [], ("value", "true")),
    "forAll and exists over every element": (
        _expr("c.forAll { i | i > 0 } and not c.exists { i | i > 2 }", {"c": _seq(1, 2)}),
        [], ("value", "true")),
    "forAll and exists over nothing": (
        _expr("c.forAll { i | false } and not c.exists { i | true }", {"c": _seq()}),
        [], ("value", "true")),
    "lambda results keep the receiver's kind": (
        _expr("self.kids.select { b | b.w > 1 }"), [], ("value", "OrderedSet[@o3]")),
    "reject keeps the false elements": (
        _expr("c.reject { i | i > 1 }", {"c": _seq(1, 2, 0)}), [], ("value", "Sequence[1, 0]")),
    "collect over a set de-duplicates": (
        _expr("self.kids.collect { b | b.w * 0 }"), [], ("value", "OrderedSet[0]")),
    # -- each --------------------------------------------------------------
    "each statement over void": (
        _act('self.one.kids.each { b | self.trace("body") }\nself.trace("after")'),
        [_IN, "NodeExecuted\tafter", _OUT + "void"], ("value", "void")),
    "each lambda over void": (
        _expr("self.one.kids.each { b | b }"), [], ("value", "void")),
    "select over void": (
        _expr("self.one.kids.select { b | true }"), [], ("value", "void")),
    "each statement visits every element": (
        _act("self.kids.each { b | self.show(b.w) }"),
        [_IN] + _show(1) + _show(2) + [_OUT + "void"], ("value", "void")),
    "each block in expression position runs its body": (
        _act("return self.kids.each { b | self.show(b.w) }"),
        [], (_TC, [
            "u0.act:9:18: BadEach an each block with statements must "
            "stand alone as a statement"])),
    "each lambda discards its values": (
        _expr("self.kids.each { b | self.show(b.w) }", pure=False),
        _show(1) + _show(2), ("value", "void")),
    "each block is refused in a pure context": (
        _expr(EachBlock(VarRef("c"), "i", ()), {"c": _seq(1)}),
        [], (_TC, [
            "<expr>:0:0: BadEach an each block with statements must "
            "stand alone as a statement"])),
    "each block runs outside a pure context": (
        _expr(EachBlock(VarRef("c"), "i", ()), {"c": _seq(1)}, pure=False),
        [], (_TC, [
            "<expr>:0:0: BadEach an each block with statements must "
            "stand alone as a statement"])),
    # -- loops -------------------------------------------------------------
    "until, while and from loops": (
        _act("var i : Int init 0\n"
             "until i >= 2 loop\n  self.show(i)\n  i := i + 1\nend\n"
             "while i > 0 loop\n  i := i - 1\n  self.show(i)\nend\n"
             "from var j : Int init 3 until j == 5 loop\n  self.show(j)\n  j := j + 1\nend\n"
             "return i", "Int"),
        [_IN] + _show(0) + _show(1) + _show(1) + _show(0) + _show(3) + _show(4)
        + [_OUT + "0"], ("value", "0")),
    "until that holds at once never runs its body": (
        _act('until true loop self.trace("body") end'), [_IN, _OUT + "void"], ("value", "void")),
    "from variable is scoped to its loop": (
        _act("from var j : Int init 0 until true loop end\nreturn j", "Int"),
        [], (_TC, ["u0.act:10:8: UnknownVariable unbound variable j"])),
    "loop body variables are fresh on each pass": (
        _act("var i : Int init 0\n"
             "until i == 2 loop\n  var k : Int\n  k := k + 1\n  self.show(k)\n  i := i + 1\nend"),
        [_IN] + _show(1) + _show(1) + [_OUT + "void"], ("value", "void")),
    "loop body variables are not seen by the condition": (
        _act("from var i : Int init 0 until i > 0 and k > 0 loop\n"
             "  var k : Int init 1\n  i := i + 1\nend"),
        [], (_TC, ["u0.act:9:41: UnknownVariable unbound variable k"])),
    "return from inside a loop": (
        _act("while true loop\n  return 7\nend", "Int"), [_IN, _OUT + "7"], ("value", "7")),
    # -- scopes ------------------------------------------------------------
    "shadowing in nested blocks": (
        _act("var x : Int init 1\n"
             "if true then\n  var x : Int init 2\n  self.show(x)\n  x := 3\n  self.show(x)\nend\n"
             "self.show(x)\n"
             "if x == 1 then\n  x := 4\nelse\n  x := 5\nend\n"
             "return x", "Int"),
        [_IN] + _show(2) + _show(3) + _show(1) + [_OUT + "4"], ("value", "4")),
    "if block variables do not leak": (
        _act("if true then\n  var z : Int init 1\nend\nreturn z", "Int"),
        [], (_TC, ["u0.act:12:8: UnknownVariable unbound variable z"])),
    "shadowing in lambdas": (
        _act("var x : Int init 5\nvar c : Sequence<Int>\nc := c.add(7)\n"
             "c.each { x | self.show(x)\n  var y : Int init x + 1\n  self.show(y) }\n"
             "self.show(x)\n"
             "var d : Sequence<Int> init c.collect { x | x + x }\n"
             "self.show(x)\n"
             "return d", "Sequence<Int>"),
        [_IN] + _show(7) + _show(8) + _show(5) + _show(5) + [_OUT + "[14]"],
        ("value", "Sequence[14]")),
    "lambda inside a lambda sees the outer parameter": (
        _expr("c.collect { a | c.select { b | b > a }.size() }", {"c": _seq(1, 2, 3)}), [],
        ("value", "Sequence[2, 1, 0]")),
    "each block variables do not leak": (
        _act("self.kids.each { b | var z : Int init 1 }\nreturn z", "Int"),
        [], (_TC, ["u0.act:10:8: UnknownVariable unbound variable z"])),
    "lambda parameters do not leak": (
        _act("var d : OrderedSet<B> init self.kids.select { q | q.w > 1 }\nreturn q", "B"),
        [], (_TC, ["u0.act:10:8: UnknownVariable unbound variable q"])),
    "each block assigns an outer variable": (
        _act("var total : Int init 0\nself.kids.each { b | total := total + b.w }\n"
             "return total", "Int"),
        [_IN, _OUT + "3"], ("value", "3")),
    "a parameter redeclared in the body is overwritten": (
        _act("self.kids.each { b | var b : Int init 1 }"),
        [], (_TC, ["u0.act:9:22: DuplicateVariable variable b already declared here"])),
    # -- side effects --------------------------------------------------------
    "pure refusal of an operation call": (
        _expr("self.show(1)"),
        [], (_TC, [
            "<expr>:1:6: ImpureExpression operation call show is not "
            "allowed in a side-effect-free rule"])),
    "pure refusal of new": (
        _expr("B.new()"),
        [], (_TC, ["<expr>:1:3: ImpureExpression new is not allowed in a side-effect-free rule"])),
    "impure expression calls an operation": (
        _expr("self.show(4)", pure=False), _show(4), ("value", "4")),
    "impure expression creates an object": (
        _expr("B.new()", pure=False), [], ("value", "@o4")),
    "precondition calling an operation is refused": (
        _act("self.show(1)", inv="pre probe on run : self.show(1) > 0;"),
        [], (_TC, [
            "u0.inv:4:25: ImpureExpression operation call show is not "
            "allowed in a side-effect-free rule"])),
    "postcondition calling new is refused": (
        _act("self.show(1)", inv="post mk on run : B.new() == void;"),
        [], (_TC, [
            "u0.inv:4:20: ImpureExpression new is not allowed in a "
            "side-effect-free rule"])),
    "purity ends with the rule": (
        _act("self.show(1)\nself.n := 2", inv="pre ok on run : true;\npost ok2 on run : self.n == 2;"),
        [_IN] + _show(1) + [_OUT + "void"], ("value", "void")),
    "invariant calling an operation is an error result": (
        _checked("inv probe : self.show(1) > 0;"),
        [], (_TC, [
            "u0.inv:4:18: ImpureExpression operation call show is not "
            "allowed in a side-effect-free rule"])),
    "invariant results": (
        _checked("inv zero : self.n == 0;\ninv many : self.kids.size() > 2;\n"
                 "inv odd : self.one.ok;"), [],
        [("holds", "zero", "o1", ""), ("violated", "many", "o1", ""),
         ("error", "odd", "o1", "invariant did not yield a Bool")]),
    # -- contract violations -----------------------------------------------
    "precondition violation": (
        _act("self.show(1)", inv="pre positive on run : self.n > 0;"),
        [_IN, "ContractViolation\tpre positive @ o1"],
        ("PreconditionViolation", "positive @ o1")),
    "postcondition violation": (
        _act("return self.show(1)", "Int", inv="post small on run : result < 1;"),
        [_IN] + _show(1) + ["ContractViolation\tpost small @ o1"],
        ("PostconditionViolation", "small @ o1")),
    "postcondition sees parameters and result": (
        _act("return self.twice(4)", "Int",
             inv="post echo on twice : result == v + v;\npost wrong on need : result == v + 1;"),
        [_IN, "OpEnter\to1.twice", "OpExit\to1.twice\t8", _OUT + "8"], ("value", "8")),
    "invariant violation under the full policy": (
        _act("self.n := 0 - 1", inv="inv nonneg : self.n >= 0;", policy="full"),
        [_IN, "ContractViolation\tinv nonneg @ o1"],
        ("InvariantViolation", "nonneg @ o1")),
    "invariants are not checked under prepost": (
        _act("self.n := 0 - 1", inv="inv nonneg : self.n >= 0;"),
        [_IN, _OUT + "void"], ("value", "void")),
    "contracts are not checked under off": (
        _act("self.show(1)", inv="pre never on run : false;", policy="off"),
        [_IN] + _show(1) + [_OUT + "void"], ("value", "void")),
    "nested precondition violation": (
        _act("self.show(1)\nself.need(0)", inv="pre need_pos on need : v > 0;"),
        [_IN] + _show(1) + ["OpEnter\to1.need", "ContractViolation\tpre need_pos @ o1"],
        ("PreconditionViolation", "need_pos @ o1")),
    "contract rule that is not Bool": (
        _act("self.show(1)", inv="pre odd on run : self.one.ok;"),
        [_IN], (_TF, "contract rule did not yield a Bool")),
}


@pytest.mark.parametrize("case", CASES)
def test_interpreter_behaviour_is_pinned(case):
    run, trace, outcome = CASES[case]
    assert run() == (trace, outcome)


DIAMOND_MM = """
metamodel s {
  class A { }
  class B extends A { }
  class C extends A { }
  class D extends B, C { }
}
"""

DIAMOND_ACT = """package s;
require "s.mm";
aspect class A { operation who() : Void is do self.trace("A") end }
aspect class B { method who() : Void is do self.trace("B") super() end }
aspect class C { method who() : Void is do self.trace("C") super() end }
aspect class D {
  method who() : Void is do
    self.trace("D")
    super[B]()
    super[C]()
    super()
  end
}
"""


def test_qualified_super_starts_at_the_named_supertype():
    """D's linearization is D C B A: ``super[B]`` runs B then A, ``super[C]``
    runs C, B and A, and a plain ``super`` from D does the same as
    ``super[C]``.  The build also type checks every ``super``."""
    model = ModelInstance(weave(mm=DIAMOND_MM, act=DIAMOND_ACT))
    d = create_instance(model, "D")
    _result, env = invoke(model, d, "who")
    assert [event.render() for event in env.trace] == (
        ["OpEnter\to1.who"] + [f"NodeExecuted\t{c}" for c in "DBACBACBA"]
        + ["OpExit\to1.who\tvoid"])
