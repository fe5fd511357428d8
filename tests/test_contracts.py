from __future__ import annotations

import pytest

from helpers import MODELS, parse_units, weave
from mashup.contracts import parse_contracts
from mashup.diagnostics import TypecheckError, UnitParseError
from mashup.exprs import TypeTest, parse_expr
from mashup.runtime import (
    POLICY_OFF, Interpreter, ModelInstance, check_invariant, check_model, create_instance,
    load_model, set_feature,
)
from mashup.exprs import IntV
from mashup.typecheck import typecheck_units

LISTING = """
package fuml;
require "fuml.mm";

aspect class CreateObjectAction {
  // The given classifier must be a class.
  inv fUML_is_class : self.classifier.oclIsKindOf(Class);
}
"""


def test_parse_invariant_module():
    cm = parse_contracts(LISTING, "fuml.inv")
    assert cm.package == "fuml" and cm.requires == ("fuml.mm",)
    (contrib,) = cm.aspects
    assert contrib.class_name == "CreateObjectAction"
    (inv,) = contrib.invariants
    assert inv.name == "fUML_is_class"
    assert inv.body == parse_expr("self.classifier.oclIsKindOf(Class)")
    assert isinstance(inv.body, TypeTest)


def test_parse_empty_contract_module():
    cm = parse_contracts('package p;\nrequire "p.mm";\n')
    assert cm.aspects == ()


def test_pre_and_post_clauses_parse():
    cm = parse_contracts(
        'package p;\nrequire "p.mm";\n'
        "aspect class A { pre small on run : x < 10; post grew on run : result >= x; }"
    )
    (contrib,) = cm.aspects
    assert contrib.pre_conditions[0].op_name == "run"
    assert contrib.post_conditions[0].name == "grew"


def test_require_is_mandatory():
    with pytest.raises(UnitParseError):
        parse_contracts("package p;\naspect class A { }")


def test_non_boolean_invariant_rejected_by_typecheck():
    units = parse_units(
        mm="metamodel m { class A { } }",
        inv='package m;\nrequire "m.mm";\naspect class A { inv bad : 1 + 2; }',
    )
    from mashup.composer import compose

    woven = compose(units)
    diags = typecheck_units(units[1:], woven)
    assert any(d.code == "NonBooleanRule" for d in diags)


def test_condition_on_unknown_operation_diagnosed():
    units = parse_units(
        mm="metamodel m { class A { } }",
        inv='package m;\nrequire "m.mm";\naspect class A { pre p on ghost : true; }',
    )
    from mashup.composer import compose

    woven = compose(units)
    diags = typecheck_units(units[1:], woven)
    assert any(d.code == "UnknownOperation" for d in diags)


# ---------------------------------------------------------------------------
# invariant checking
# ---------------------------------------------------------------------------


def test_check_invariant_holds_and_violates(fuml_woven):
    model = load_model((MODELS / "worksession.model").read_text(), fuml_woven)
    wc = fuml_woven.classes["CreateObjectAction"]
    (owner, inv) = wc.flat_invariants[0]
    assert check_invariant(inv, model.obj("o4"), model, owner).status == "holds"
    bad = load_model((MODELS / "worksession_badclassifier.model").read_text(), fuml_woven)
    result = check_invariant(inv, bad.obj("o7"), bad, owner)
    assert result.status == "violated"
    assert result.invariant == "fUML_is_class" and result.obj_id == "o7"


def test_trivially_true_invariant_holds(fuml_woven):
    model = load_model((MODELS / "worksession.model").read_text(), fuml_woven)
    from mashup.contracts import InvariantDecl

    inv = InvariantDecl("always", parse_expr("true"))
    for oid in model.objects:
        assert check_invariant(inv, model.obj(oid), model).status == "holds"


@pytest.mark.parametrize("body, code", [
    ("self.nope", "UnknownFeature"),
    ("y", "UnknownVariable"),
    ('self.trace("x")', "ImpureExpression"),
])
def test_foreign_invariant_is_type_checked_before_it_runs(fuml_woven, body, code):
    """An invariant the woven model does not own runs only once the checker
    has passed it as pure; an ill-typed one raises the checker's diagnostic
    and runs nothing."""
    from mashup.contracts import InvariantDecl

    model = load_model((MODELS / "worksession.model").read_text(), fuml_woven)
    interp = Interpreter(model, POLICY_OFF)
    with pytest.raises(TypecheckError) as exc:
        check_invariant(InvariantDecl("bad", parse_expr(body)), model.obj("o1"), model,
                        interp=interp)
    assert [d.code for d in exc.value.diagnostics] == [code]
    assert interp.trace == []


def test_evaluation_fault_becomes_error_result():
    woven = weave(
        mm="metamodel m { class A { attr x: Int; } }",
        inv='package m;\nrequire "m.mm";\naspect class A { inv odd : 10 / self.x > 0; }',
    )
    model = ModelInstance(woven)
    ref = create_instance(model, "A")  # x defaults to 0
    (owner, inv) = woven.classes["A"].flat_invariants[0]
    result = check_invariant(inv, ref, model, owner)
    assert result.status == "error" and "DivisionByZero" in result.detail


def test_check_invariant_is_deterministic(fuml_woven):
    model = load_model((MODELS / "worksession_badclassifier.model").read_text(), fuml_woven)
    wc = fuml_woven.classes["CreateObjectAction"]
    (owner, inv) = wc.flat_invariants[0]
    first = [check_invariant(inv, model.obj(o), model, owner) for o in sorted(model.objects)
             if model.objects[o].class_name == "CreateObjectAction"]
    second = [check_invariant(inv, model.obj(o), model, owner) for o in sorted(model.objects)
              if model.objects[o].class_name == "CreateObjectAction"]
    assert first == second


def test_supertype_invariant_checked_on_subclass_instances():
    woven = weave(
        mm="metamodel m { class Base { attr x: Int; } class Leaf extends Base { } }",
        inv='package m;\nrequire "m.mm";\naspect class Base { inv pos : self.x >= 0; }',
    )
    model = ModelInstance(woven)
    leaf = create_instance(model, "Leaf")
    set_feature(model, leaf, "x", IntV(-1))
    results = check_model(model)
    assert [(r.status, r.invariant, r.owner) for r in results] == [
        ("violated", "pos", "Base")
    ]


def test_check_model_empty_model(fuml_woven):
    assert check_model(ModelInstance(fuml_woven)) == []
