from __future__ import annotations

import copy
import importlib
import pkgutil
import random
import re
import subprocess
import sys

import pytest
from hypothesis import example, given, settings, strategies as st

import mashup
from helpers import MODELS, REPO, TABLE_MM, table_act, table_model, weave
from mashup.behavior import MethodDef, Return, VarDecl, parse_behavior
from mashup.composer import MashupManifest, WovenClass, WovenModel
from mashup.contracts import InvariantDecl
from mashup.diagnostics import (
    NOPOS, Diagnostic, DiagnosticSink, EvalFault, Pos, Record, TypecheckError, UnitParseError,
)
from mashup.exprs import (
    VOID_VALUE, BinOp, BoolLit, BoolV, Coll, CollectionOp, FeatureNav, IntLit, IntV, ObjRef,
    Not, SelfRef, StringLit, StringV, TypeTest, VarRef, VoidV, make_coll, parse_expr, render_value,
)
from mashup.metamodel import Attribute, Bounds, OperationSig, Param
from mashup.runtime import (
    CheckResult, Interpreter, ModelInstance, OpEnter, create_instance, eval_expr, load_model,
)
from mashup.semtypes import BOOL, COLLECTION_KINDS, INT, STRING, SemType
from mashup.typecheck import TypeContext, typecheck_expr

# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------


def test_parse_kind_test_navigation():
    e = parse_expr("self.classifier.oclIsKindOf(Class)")
    assert e == TypeTest(FeatureNav(SelfRef(), "classifier"), "oclIsKindOf", "Class")


def test_parse_addition():
    assert parse_expr("1 + 2") == BinOp(IntLit(1), "+", IntLit(2))


def test_collection_op_without_a_lambda_is_a_syntax_error():
    with pytest.raises(UnitParseError) as exc:
        parse_expr("self.ks.select()")
    assert [d.render() for d in exc.value.diagnostics] == [
        "<expr>:1:9: SyntaxError select requires a lambda: .select { x | ... }"]


def test_parse_select_lambda():
    e = parse_expr('nodes.select { n | n.name == "Work" }')
    assert isinstance(e, CollectionOp)
    assert e.op_kind == "select" and e.lam.param == "n"
    assert isinstance(e.lam.body, BinOp) and e.lam.body.op == "=="


def test_parse_error_has_position():
    with pytest.raises(UnitParseError) as exc:
        parse_expr("1 + ")
    assert exc.value.diagnostics[0].code == "SyntaxError"


def test_precedence_and_if_expression():
    e = parse_expr("1 + 2 * 3 == 7 and not false")
    assert e.op == "and"
    e = parse_expr("if 1 < 2 then 3 else 4 end")
    assert e.cond == BinOp(IntLit(1), "<", IntLit(2))


A, B, C = VarRef("a"), VarRef("b"), VarRef("c")


@pytest.mark.parametrize("text,tree", [
    ("a or b and c", BinOp(A, "or", BinOp(B, "and", C))),
    ("not a == b", Not(BinOp(A, "==", B))),
    ("a and not b or c", BinOp(BinOp(A, "and", Not(B)), "or", C)),
    ("1 - 2 - 3", BinOp(BinOp(IntLit(1), "-", IntLit(2)), "-", IntLit(3))),
    ("-1 * 2", BinOp(BinOp(IntLit(0), "-", IntLit(1)), "*", IntLit(2))),
    ("-x.y", BinOp(IntLit(0), "-", FeatureNav(VarRef("x"), "y"))),
])
def test_precedence_and_associativity_are_pinned(text, tree):
    assert parse_expr(text) == tree


def test_comparisons_do_not_chain():
    with pytest.raises(UnitParseError) as exc:
        parse_expr("1 < 2 < 3")
    assert [d.render() for d in exc.value.diagnostics] == [
        "<expr>:1:7: SyntaxError trailing input after expression"]


# The oracle's own precedence levels, loosest first: a prefix ``not`` binds
# between ``and`` and the comparisons, which do not chain.
_LEVEL = {"or": 0, "and": 1, "==": 3, "!=": 3, "<": 3, "<=": 3, ">": 3, ">=": 3,
          "+": 4, "-": 4, "*": 5, "/": 5}
_NOT_LEVEL, _COMPARISON_LEVEL, _ATOM_LEVEL = 2, 3, 6

_OPERATOR_TREES = st.recursive(
    st.sampled_from([A, B, C]) | st.builds(IntLit, st.integers(0, 9)),
    lambda inner: st.builds(BinOp, inner, st.sampled_from(sorted(_LEVEL)), inner)
    | st.builds(Not, inner),
    max_leaves=8,
)


def _level(e) -> int:
    if isinstance(e, BinOp):
        return _LEVEL[e.op]
    return _NOT_LEVEL if isinstance(e, Not) else _ATOM_LEVEL


def _show(e, parenthesize_all: bool) -> str:
    """Print ``e`` with every operator parenthesized, or with only the
    parentheses its precedence needs."""
    def operand(x, needs_parens: bool) -> str:
        text = _show(x, parenthesize_all)
        return f"({text})" if needs_parens and not parenthesize_all else text

    if isinstance(e, BinOp):
        level = _LEVEL[e.op]
        lhs = operand(e.lhs, _level(e.lhs) < level
                      or (level == _COMPARISON_LEVEL and _level(e.lhs) == level))
        text = f"{lhs} {e.op} {operand(e.rhs, _level(e.rhs) <= level)}"
    elif isinstance(e, Not):
        text = f"not {operand(e.operand, _level(e.operand) < _NOT_LEVEL)}"
    else:
        return e.name if isinstance(e, VarRef) else str(e.value)
    return f"({text})" if parenthesize_all else text


@settings(derandomize=True, max_examples=200, deadline=None)
@given(_OPERATOR_TREES)
def test_operator_trees_parse_back_with_or_without_spare_parentheses(tree):
    assert parse_expr(_show(tree, parenthesize_all=True)) == tree
    assert parse_expr(_show(tree, parenthesize_all=False)) == tree


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def session(fuml_woven):
    model = load_model((MODELS / "worksession.model").read_text(), fuml_woven)
    return model, Interpreter(model)


def test_eval_name_navigation(session):
    model, env = session
    value = eval_expr(parse_expr("self.name"), env, model.obj("o1"))
    assert value == StringV("WorkSessionActivity")


def test_kind_of_is_reflexive(session):
    model, env = session
    value = eval_expr(parse_expr("self.oclIsKindOf(CreateObjectAction)"), env, model.obj("o4"))
    assert value.b is True


def test_select_filters_by_hand_enumerated_oracle(session):
    model, env = session
    coll = Coll("Sequence", [IntV(1), IntV(2), IntV(3)])
    value = eval_expr(parse_expr("coll.select { i | i > 1 }"), env, model.obj("o1"),
                      scope={"coll": coll})
    assert value == Coll("Sequence", [IntV(2), IntV(3)])


def test_eval_does_not_mutate_model(session):
    model, env = session
    before = model.fingerprint()
    eval_expr(parse_expr("self.node.select { n | n.oclIsKindOf(Action) }.size()"),
              env, model.obj("o1"))
    assert model.fingerprint() == before


def test_select_reject_partition_property(session):
    model, env = session
    rng = random.Random(7)
    for _ in range(50):
        items = [IntV(rng.randint(-5, 5)) for _ in range(rng.randint(0, 12))]
        coll = Coll("Sequence", list(items))
        scope = {"coll": coll}
        sel = eval_expr(parse_expr("coll.select { i | i > 0 }"), env, model.obj("o1"), scope=scope)
        rej = eval_expr(parse_expr("coll.reject { i | i > 0 }"), env, model.obj("o1"), scope=scope)
        assert len(sel.items) + len(rej.items) == len(items)
        assert sorted(x.i for x in sel.items + rej.items) == sorted(x.i for x in items)


def test_collect_preserves_sequence_size(session):
    model, env = session
    rng = random.Random(11)
    for _ in range(30):
        items = [IntV(rng.randint(0, 9)) for _ in range(rng.randint(0, 10))]
        out = eval_expr(parse_expr("coll.collect { i | i * i }"), env, model.obj("o1"),
                        scope={"coll": Coll("Sequence", list(items))})
        assert len(out.items) == len(items)


def test_empty_collection_elements_check_anything(session):
    """An empty scope collection binds no element, so its lambdas check
    whatever they do; an element added to it, or another branch's
    collection, gives the element type back."""
    model, env = session
    scope = {"coll": Coll("Sequence", []), "ns": Coll("Sequence", [IntV(1)])}

    def run(text):
        return eval_expr(parse_expr(text), env, model.obj("o1"), scope=scope)

    assert run("coll.collect { i | i * i }") == Coll("Sequence", [])
    assert run("coll.select { i | i.name == 3 }.size()") == IntV(0)
    for text, col in (("coll.add(3).first().w", 21),
                      ("(if true then coll else ns end).first().w", 41)):
        with pytest.raises(TypecheckError) as exc:
            run(text)
        assert [d.render() for d in exc.value.diagnostics] == [
            f"<expr>:1:{col}: BadNavigation cannot navigate feature w on a value of type Int"]


def test_scope_collection_elements_have_the_join_of_their_types():
    model = table_model(weave(mm=TABLE_MM, act=table_act("")))
    env = Interpreter(model)

    def run(text, *items):
        return eval_expr(parse_expr(text), env, "o1", {"c": Coll("Sequence", list(items))})

    bs = (ObjRef("o2"), VOID_VALUE, ObjRef("o3"))
    assert run("c.collect { x | x.w }", *bs) == Coll("Sequence", [IntV(1), VOID_VALUE, IntV(2)])
    with pytest.raises(TypecheckError) as exc:
        run("c.collect { x | x.w }", ObjRef("o2"), ObjRef("o1"))
    assert [d.render() for d in exc.value.diagnostics] == [
        "<expr>:1:19: UnknownFeature Root has no feature w"]
    with pytest.raises(EvalFault) as fault:
        run("c.size()", IntV(1), StringV("a"))
    assert (fault.value.kind, fault.value.message) == (
        "TypeFault", "a collection mixes Int and String")


def test_kind_of_matches_linearization(session, fuml_woven):
    model, env = session
    expr_cache = {}
    for oid, obj in model.objects.items():
        lin = fuml_woven.classes[obj.class_name].linearization
        for target in fuml_woven.classes:
            e = expr_cache.setdefault(target, parse_expr(f"self.oclIsKindOf({target})"))
            got = eval_expr(e, env, obj).b
            assert got == (target in lin)


def test_void_propagation_and_void_call_fault(fuml_woven):
    model = ModelInstance(fuml_woven)
    ref = create_instance(model, "CreateObjectAction")
    env = Interpreter(model)
    obj = model.obj(ref.id)
    # classifier is unset: navigation flows void, kind-of is false
    assert eval_expr(parse_expr("self.classifier.oclIsKindOf(Class)"), env, obj).b is False
    assert isinstance(eval_expr(parse_expr("self.classifier.name"), env, obj), VoidV)
    with pytest.raises(EvalFault) as exc:
        eval_expr(parse_expr('self.classifier.trace("x")'), env, obj, pure=False)
    assert (exc.value.kind, exc.value.message) == ("TypeFault", "operation call trace on void")


def test_division_by_zero_and_unbound_variable(session):
    model, env = session
    with pytest.raises(EvalFault) as exc:
        eval_expr(parse_expr("1 / 0"), env, model.obj("o1"))
    assert exc.value.kind == "DivisionByZero"
    with pytest.raises(TypecheckError) as exc:
        eval_expr(parse_expr("nope + 1"), env, model.obj("o1"))
    assert [d.render() for d in exc.value.diagnostics] == [
        "<expr>:1:1: UnknownVariable unbound variable nope"]


def test_short_circuit_evaluation(session):
    model, env = session
    assert eval_expr(parse_expr("true or 1 / 0 == 0"), env, model.obj("o1")).b is True
    assert eval_expr(parse_expr("false and 1 / 0 == 0"), env, model.obj("o1")).b is False


def test_as_type_checks_conformance(session):
    model, env = session
    ok = eval_expr(parse_expr("self.asType(ActivityNode)"), env, model.obj("o4"))
    assert ok == ObjRef("o4")
    with pytest.raises(EvalFault):
        eval_expr(parse_expr("self.asType(Activity)"), env, model.obj("o4"))


def test_collection_value_helpers():
    deduped = make_coll("Set", [IntV(1), IntV(1), IntV(2)])
    assert deduped.items == [IntV(1), IntV(2)]
    seq = make_coll("Sequence", [IntV(1), IntV(1)])
    assert len(seq.items) == 2
    assert render_value(deduped) == "[1, 2]"


_SCALARS = st.one_of(
    st.integers(-1, 2).map(IntV),
    st.booleans().map(BoolV),
    st.sampled_from(["", "a"]).map(StringV),
    st.just(VOID_VALUE),
    st.sampled_from(["o1", "o2", "o3"]).map(ObjRef),
)
# Collections hash by kind and elements, so nested ones de-duplicate by hash too.
_VALUES = st.recursive(
    _SCALARS,
    lambda inner: st.builds(Coll, st.sampled_from(COLLECTION_KINDS), st.lists(inner, max_size=3)),
    max_leaves=8,
)


def _scan_unique(items):
    out = []
    for x in items:
        if x not in out:
            out.append(x)
    return out


@given(st.text("ab1", max_size=2), st.text("ab1", max_size=2))
def test_a_reference_equals_exactly_the_references_with_its_id(x, y):
    assert (ObjRef(x) == ObjRef(y)) is (x == y)
    assert (ObjRef(x) != ObjRef(y)) is (x != y)
    assert hash(ObjRef(x)) == hash(ObjRef(x))
    assert ObjRef(x).id == x and repr(ObjRef(x)) == f"ObjRef(id={x!r})"
    assert copy.copy(ObjRef(x)) == ObjRef(x)
    # never a scalar of the same text
    assert ObjRef(x) != StringV(x) and StringV(x) != ObjRef(x)
    assert ObjRef("1") != IntV(1) and IntV(1) != ObjRef("1")


@given(st.lists(_VALUES, max_size=12))
@example([IntV(1), BoolV(True), IntV(1), BoolV(True), IntV(0), BoolV(False)])
@example([ObjRef("a"), StringV("a"), ObjRef("1"), IntV(1), ObjRef("a"), StringV("a")])
@example([IntV(1), BoolV(True), Coll("Set", [IntV(1)]), Coll("Set", [IntV(1)]), BoolV(True)])
def test_make_coll_matches_list_scan(items):
    for kind in COLLECTION_KINDS:
        expected = _scan_unique(items) if kind in ("Set", "OrderedSet") else items
        got = make_coll(kind, iter(items))
        assert got.kind == kind
        # identity, not just equality: the first occurrence is the one kept
        assert len(got.items) == len(expected)
        assert all(a is b for a, b in zip(got.items, expected))


def test_first_intersection_add(session):
    model, env = session
    scope = {
        "a": Coll("Sequence", [IntV(3), IntV(1), IntV(2)]),
        "b": Coll("Sequence", [IntV(2), IntV(3)]),
        "empty": Coll("Sequence", []),
    }
    obj = model.obj("o1")
    assert eval_expr(parse_expr("a.first()"), env, obj, scope=scope) == IntV(3)
    assert isinstance(eval_expr(parse_expr("empty.first()"), env, obj, scope=scope), VoidV)
    inter = eval_expr(parse_expr("a.intersection(b)"), env, obj, scope=scope)
    assert inter.items == [IntV(3), IntV(2)]
    grown = eval_expr(parse_expr("a.add(9)"), env, obj, scope=scope)
    assert grown.items[-1] == IntV(9) and len(scope["a"].items) == 3  # pure append


# ---------------------------------------------------------------------------
# type checking
# ---------------------------------------------------------------------------


def _ctx(woven, self_class, pure=False):
    return TypeContext(woven, self_class, DiagnosticSink("<test>"), pure=pure)


@pytest.fixture(scope="module")
def pin_woven():
    # a Pin that reaches a multiplicity bound through an aspect-added supertype
    return weave(
        mm="""
metamodel pins {
  abstract class ActivityNode { }
  class ObjectNode extends ActivityNode { }
  class Pin extends ObjectNode { }
  class MultiplicityElement { attr lower: Int; }
  class InputPinActivation { ref node: Pin[0..1]; }
}
""",
        act="""
package pins;
require "pins.mm";

aspect class Pin inherits MultiplicityElement {
}

aspect class InputPinActivation {
  operation isReady() : Bool is do
    var minimum : Int init self.node.lower
    return minimum >= 0
  end
}
""",
    )


def test_inherited_feature_types_through_added_supertype(pin_woven):
    ctx = _ctx(pin_woven, "Pin")
    assert typecheck_expr(parse_expr("self.lower"), ctx) == INT
    assert not ctx.sink.items
    ctx = _ctx(pin_woven, "InputPinActivation")
    assert typecheck_expr(parse_expr("self.node.lower"), ctx) == INT
    assert not ctx.sink.items


def test_bool_int_mismatch_diagnosed(fuml_woven):
    ctx = _ctx(fuml_woven, "Activity")
    typecheck_expr(parse_expr("true and 3"), ctx)
    assert any(d.code == "TypeMismatch" for d in ctx.sink.items)


def test_unknown_feature_diagnosed(fuml_woven):
    ctx = _ctx(fuml_woven, "Activity")
    typecheck_expr(parse_expr("self.unknown"), ctx)
    assert any(d.code == "UnknownFeature" for d in ctx.sink.items)


def test_pure_context_rejects_calls_and_new(fuml_woven):
    ctx = _ctx(fuml_woven, "Activity", pure=True)
    typecheck_expr(parse_expr("self.execute()"), ctx)
    typecheck_expr(parse_expr("Activity.new()"), ctx)
    assert sum(d.code == "ImpureExpression" for d in ctx.sink.items) == 2


def test_expression_types(fuml_woven):
    ctx = _ctx(fuml_woven, "Activity")
    assert typecheck_expr(parse_expr('self.name + "!"'), ctx) == STRING
    assert typecheck_expr(parse_expr("self.node.isEmpty()"), ctx) == BOOL
    assert typecheck_expr(parse_expr("self.node.size()"), ctx) == INT
    t = typecheck_expr(parse_expr("self.node.select { n | n.name == \"x\" }"), ctx)
    assert t.kind == "coll" and t.elem.name == "ActivityNode"
    assert not ctx.sink.items


def test_arity_mismatch_diagnosed(fuml_woven):
    ctx = _ctx(fuml_woven, "Activity")
    typecheck_expr(parse_expr("self.launch()"), ctx)
    assert any(d.code == "ArityMismatch" for d in ctx.sink.items)


def test_string_escapes_round_through_lexer():
    e = parse_expr('"line\\nbreak\\t\\"q\\""')
    assert e.value == 'line\nbreak\t"q"'


def test_expression_each_discards_purely(session):
    model, env = session
    before = model.fingerprint()
    out = eval_expr(parse_expr("coll.each { i | i + 1 }"), env, model.obj("o1"),
                    scope={"coll": Coll("Sequence", [IntV(1), IntV(2)])})
    assert isinstance(out, VoidV)
    assert model.fingerprint() == before


# ---------------------------------------------------------------------------
# record semantics: equality, hashing, freezing and repr of nodes and values
# ---------------------------------------------------------------------------

P = Pos(3, 7)
_P0 = "pos=Pos(line=0, col=0)"

# pairs of one text or number in two classes: never equal, either way round
_DISTINCT = [
    (IntV(1), BoolV(True)),
    (StringV("a"), ObjRef("a")),
    (IntLit(1), BoolLit(True)),
    (VarRef("x"), StringLit("x")),
    # a record is never a plain tuple of its fields
    (VarRef("x"), ("x", NOPOS)),
    (OpEnter("o1", "f"), ("o1", "f")),
    (INT, ("prim", "Int", None)),
]


@pytest.mark.parametrize("a, b", _DISTINCT, ids=lambda x: type(x).__name__)
def test_records_of_different_classes_differ(a, b):
    assert a != b and b != a
    assert not a == b and not b == a


# the same record built at a position and without one, from every module
# whose records carry a position
_POSITIONED = [
    (BinOp(IntLit(1, P), "+", VarRef("x", P), P), BinOp(IntLit(1), "+", VarRef("x"))),
    (SelfRef(P), SelfRef()),
    (VarDecl("v", INT, IntLit(0, P), P), VarDecl("v", INT, IntLit(0))),
    (MethodDef(OperationSig("f", (), INT, P), (Return(None, P),), False, P),
     MethodDef(OperationSig("f", (), INT), (Return(),))),
    (InvariantDecl("i", BoolLit(True, P), P), InvariantDecl("i", BoolLit(True))),
    (Attribute("n", "Int", pos=P), Attribute("n", "Int")),
]


@pytest.mark.parametrize("a, b", _POSITIONED, ids=lambda x: type(x).__name__)
def test_records_ignore_their_position(a, b):
    assert a == b and hash(a) == hash(b)
    assert a.pos != b.pos
    assert copy.copy(a) == a and copy.deepcopy(a) == a


def test_a_diagnostic_compares_its_position():
    assert Diagnostic("C", "m", "u", P) != Diagnostic("C", "m", "u")
    assert Diagnostic("C", "m", "u", P) == Diagnostic("C", "m", "u", Pos(3, 7))


@pytest.mark.parametrize("record, field", [
    (BinOp(IntLit(1), "+", IntLit(2)), "op"),
    (IntLit(1), "pos"),
    (IntV(1), "i"),
    (StringV("a"), "s"),
    (INT, "name"),
    (Diagnostic("C", "m"), "code"),
], ids=lambda x: x if isinstance(x, str) else type(x).__name__)
def test_records_are_frozen(record, field):
    before = repr(record)
    with pytest.raises(AttributeError):
        setattr(record, field, None)
    with pytest.raises(AttributeError):
        delattr(record, field)
    assert repr(record) == before


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_every_record_is_frozen():
    """A record that forgets its ``__slots__ = ()`` gets a ``__dict__``, and
    then silently takes any attribute."""
    for module in pkgutil.iter_modules(mashup.__path__):
        if module.name != "__main__":
            importlib.import_module(f"mashup.{module.name}")
    records = list(_subclasses(Record))
    assert len(records) >= 40
    for cls in records:
        assert cls.__dictoffset__ == 0, cls
        record = cls._make([None] * len(cls._fields))
        for name in (cls._fields[0], "extra"):
            with pytest.raises(AttributeError):
                setattr(record, name, 1)


def test_mutable_records_share_no_container():
    a, b = WovenModel("p", {}), WovenModel("p", {})
    for name in ("aspect_units", "method_units", "sig_units"):
        assert getattr(a, name) == {} and getattr(a, name) is not getattr(b, name)
    c, d = (WovenClass("C", False, (), ("C", "Root")) for _ in range(2))
    for name in ("op_sigs", "method_table", "raw_definers", "flat_pre", "flat_post", "slots"):
        assert getattr(c, name) == {} and getattr(c, name) is not getattr(d, name)
    s, t = DiagnosticSink(), DiagnosticSink()
    s.add("C", "m")
    assert t.items == [] and not t and s
    u, v = (TypeContext(a, "C", s) for _ in range(2))
    u.scopes[-1]["x"] = INT
    assert v.scopes == [{}]


@pytest.mark.parametrize("record, text", [
    (BinOp(IntLit(1), "+", VarRef("x")),
     f"BinOp(lhs=IntLit(value=1, {_P0}), op='+', rhs=VarRef(name='x', {_P0}), {_P0})"),
    (IntV(1), "IntV(i=1)"),
    (StringV("a"), "StringV(s='a')"),
    (Return(IntLit(1)), f"Return(value=IntLit(value=1, {_P0}), {_P0})"),
    (Param("x", INT), "Param(name='x', type=SemType(kind='prim', name='Int', elem=None))"),
    (Bounds(0, None), "Bounds(lower=0, upper=None)"),
    (InvariantDecl("i", BoolLit(True)),
     f"InvariantDecl(name='i', body=BoolLit(value=True, {_P0}), {_P0})"),
    (MashupManifest("p", ("a.mm",)),
     "MashupManifest(package='p', requires=('a.mm',), main=None, source_unit='<mashup>', "
     "source_dir='.')"),
    (Diagnostic("C", "m"), f"Diagnostic(code='C', message='m', unit='<input>', {_P0})"),
    (CheckResult("holds", "i", "o1"),
     "CheckResult(status='holds', invariant='i', obj_id='o1', owner='', detail='')"),
    (SemType("coll", "Set", INT),
     "SemType(kind='coll', name='Set', elem=SemType(kind='prim', name='Int', elem=None))"),
], ids=lambda x: x if isinstance(x, str) else type(x).__name__)
def test_record_repr_is_pinned(record, text):
    assert repr(record) == text


def test_import_loads_no_dataclasses():
    """Records are named tuples and the scalars plain slots classes:
    importing the workbench loads neither ``dataclasses`` nor the
    ``inspect`` it would bring."""
    probe = (f"import sys; sys.path.insert(0, {str(REPO / 'src')!r}); import mashup; "
             "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    result = subprocess.run([sys.executable, "-I", "-B", "-c", probe],
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\n"


_SHIFTED_ACT = """package p;
require "p.mm";
aspect class A inherits B {
  attr n : Int;
  ref kids : B[*] containment;
  rename f from B as g;
  operation f(x : Int) : Int is do
    var t : Int init x + 1 * 2
    if t > 3 and not false then self.n := t else self.n := 0 end
    from var i : Int init 0 until i >= x loop i := i + 1 end
    while self.n < 10 loop self.n := self.n + 1 end
    self.kids.each { k | k.w := k.w - 1 }
    super[B](x)
    return self.kids.select { k | k.oclIsKindOf(B) }.size() + t
  end
  method h() : OrderedSet<B> is do
    return if self.n == 0 then void else self.kids.reject { k | k.ok } end
  end
}
"""
_WHITESPACE = re.compile(r"\s+")
_POS = re.compile(r"Pos\(line=\d+, col=\d+\)")


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.lists(st.sampled_from([" ", "  ", "\t", "\n", "\n    ", " \n\n "]), min_size=1))
def test_shifted_whitespace_parses_to_an_equal_tree(gaps):
    """Each run of whitespace is replaced by a drawn one (cycling through
    ``gaps``) after one more leading line: the trees are equal, hash
    equal, and every position the parser gave moved."""
    runs = iter(gaps * len(_SHIFTED_ACT))
    shifted = "\n" + _WHITESPACE.sub(lambda _m: next(runs), _SHIFTED_ACT)
    a, b = parse_behavior(_SHIFTED_ACT, "a.act"), parse_behavior(shifted, "a.act")
    assert a == b and hash(a) == hash(b)
    pa, pb = _POS.findall(repr(a)), _POS.findall(repr(b))
    assert len(pa) == len(pb) > 40
    assert all(x != y for x, y in zip(pa, pb) if x != "Pos(line=0, col=0)")
