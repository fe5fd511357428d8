from __future__ import annotations

import json

import pytest
from hypothesis import given, settings, strategies as st

from helpers import (
    FUML, MODELS, TABLE_HEADER, TABLE_MM, parse_units, run_cli, table_model, weave,
)
from mashup.composer import SlotPlan, compose
from mashup.diagnostics import ContractViolation, EvalFault, TypecheckError
from mashup.exprs import (
    VOID_VALUE, BoolV, Coll, IntV, ObjRef, StringV, VoidV, parse_expr, render_value,
)
from mashup.modelgen import build_recursive_model
from mashup.runtime import (
    _SCAN_LIMIT, Interpreter, ModelInstance, NodeExecuted, Obj, add_to_feature, check_model,
    conformance_check, create_instance, default_value, eval_expr, invoke,
    load_model, remove_from_feature, save_model, set_feature,
)

LIB_MM = """
metamodel lib {
  class Library {
    attr name: String;
    ref book: Book[*] containment opposite home;
    ref featured: Book[0..1];
  }
  class Book {
    attr title: String;
    ref home: Library[0..1] opposite book;
    ref author: Writer[0..1] opposite works;
  }
  class Writer {
    attr name: String;
    ref works: Book[*] opposite author;
    ref muse: Writer[0..1] opposite fan;
    ref fan: Writer[0..1] opposite muse;
  }
}
"""


@pytest.fixture(scope="module")
def lib_woven():
    return weave(mm=LIB_MM)


@pytest.fixture()
def lib(lib_woven):
    return ModelInstance(lib_woven)


# ---------------------------------------------------------------------------
# factory
# ---------------------------------------------------------------------------


def test_create_instance_initializes_defaults(fuml_woven):
    model = ModelInstance(fuml_woven)
    ref = create_instance(model, "Activity")
    obj = model.obj(ref.id)
    assert obj.slots["name"] == StringV("")
    assert obj.slots["node"] == Coll("OrderedSet", [])
    assert obj.slots["edge"] == Coll("OrderedSet", [])
    assert obj.slots["halted"] == BoolV(False)


def test_create_instance_rejects_abstract(fuml_woven):
    model = ModelInstance(fuml_woven)
    with pytest.raises(EvalFault) as exc:
        create_instance(model, "ActivityNode")
    assert exc.value.kind == "AbstractInstantiation"
    with pytest.raises(EvalFault) as exc:
        create_instance(model, "Ghost")
    assert exc.value.kind == "UnknownClass"


def test_created_ids_are_fresh(fuml_woven):
    model = ModelInstance(fuml_woven)
    a = create_instance(model, "Activity")
    b = create_instance(model, "Activity")
    assert a != b and a.id != b.id


# ---------------------------------------------------------------------------
# assignment semantics
# ---------------------------------------------------------------------------


def test_bidirectional_set_links_opposite(fuml_woven):
    model = ModelInstance(fuml_woven)
    n = create_instance(model, "ForkNode")
    e = create_instance(model, "ControlFlow")
    set_feature(model, e, "source", n)
    assert model.obj(n.id).slots["outgoing"].items == [e]
    # re-targeting unlinks the old end
    m = create_instance(model, "JoinNode")
    set_feature(model, e, "source", m)
    assert model.obj(n.id).slots["outgoing"].items == []
    assert model.obj(m.id).slots["outgoing"].items == [e]


def test_containment_add_reparents(lib):
    a = create_instance(lib, "Library")
    b = create_instance(lib, "Library")
    x = create_instance(lib, "Book")
    add_to_feature(lib, a, "book", x)
    assert lib.obj(x.id).container == (a.id, "book")
    assert lib.obj(x.id).slots["home"] == a
    add_to_feature(lib, b, "book", x)
    assert lib.obj(a.id).slots["book"].items == []
    assert lib.obj(x.id).container == (b.id, "book")
    assert lib.obj(x.id).slots["home"] == b
    assert lib.roots == [a.id, b.id]


def test_attribute_write_read(lib):
    w = create_instance(lib, "Writer")
    set_feature(lib, w, "name", StringV("Work"))
    assert lib.obj(w.id).slots["name"] == StringV("Work")


def test_single_single_opposite_displacement(lib):
    x = create_instance(lib, "Writer")
    y = create_instance(lib, "Writer")
    z = create_instance(lib, "Writer")
    set_feature(lib, z, "muse", y)
    assert lib.obj(y.id).slots["fan"] == z
    set_feature(lib, x, "muse", y)  # displaces z
    assert lib.obj(y.id).slots["fan"] == x
    assert isinstance(lib.obj(z.id).slots["muse"], VoidV)
    assert conformance_check(lib) == []


def test_set_void_unlinks(lib):
    w = create_instance(lib, "Writer")
    b = create_instance(lib, "Book")
    set_feature(lib, b, "author", w)
    assert lib.obj(w.id).slots["works"].items == [b]
    set_feature(lib, b, "author", VoidV())
    assert lib.obj(w.id).slots["works"].items == []


def test_add_on_full_single_feature_is_upper_bound_error(lib):
    b = create_instance(lib, "Book")
    w1 = create_instance(lib, "Writer")
    w2 = create_instance(lib, "Writer")
    add_to_feature(lib, b, "author", w1)
    with pytest.raises(EvalFault) as exc:
        add_to_feature(lib, b, "author", w2)
    assert exc.value.kind == "UpperBoundExceeded"


def test_remove_from_feature_unlinks_both_sides(lib):
    lib_obj = create_instance(lib, "Library")
    b = create_instance(lib, "Book")
    add_to_feature(lib, lib_obj, "book", b)
    remove_from_feature(lib, lib_obj, "book", b)
    assert lib.obj(b.id).container is None
    assert isinstance(lib.obj(b.id).slots["home"], VoidV)
    assert b.id in lib.roots


def test_remove_absent_element_is_noop(lib):
    first, other = create_instance(lib, "Library"), create_instance(lib, "Library")
    b1, b2 = create_instance(lib, "Book"), create_instance(lib, "Book")
    add_to_feature(lib, first, "book", b1)
    add_to_feature(lib, other, "book", b2)
    before = lib.fingerprint()
    remove_from_feature(lib, first, "book", b2)
    remove_from_feature(lib, first, "book", ObjRef("no-such-object"))
    assert lib.fingerprint() == before


def test_save_omits_exactly_the_default_slots():
    """Each slot is written unless it holds its type default; an empty
    collection of another kind than the slot's is written as []."""
    woven = weave(mm="""
metamodel d {
  class K {
    attr i: Int; attr b: Bool; attr s: String; attr tags: String[*];
    ref one: K[0..1]; ref many: K[*];
  }
}
""")
    values = [IntV(0), IntV(1), BoolV(False), BoolV(True), StringV(""), StringV("x"),
              VoidV(), ObjRef("o1"), Coll("OrderedSet"), Coll("OrderedSet", [ObjRef("o1")]),
              Coll("Sequence"), Coll("Set")]
    written = []
    for sp in woven.classes["K"].slots.values():
        default = default_value(sp.feat)
        for value in values:
            model = ModelInstance(woven)
            create_instance(model, "K")
            model.obj("o1").slots[sp.name] = value  # behind the API: any kind of collection
            try:
                saved = json.loads(save_model(model))["objects"][0]["slots"]
            except TypecheckError:  # a value the slot cannot hold
                continue
            assert (sp.name in saved) == (value != default), (sp.name, value)
            written.append((sp.name, value == default))
    assert {omitted for _name, omitted in written} == {True, False}
    assert ("tags", False) in written and ("many", False) in written


def test_load_compares_references_linearly(fuml_woven, monkeypatch):
    """De-duplicating an OrderedSet must not compare each element with all
    earlier ones; counting comparisons keeps the guard independent of speed."""
    text, stats = build_recursive_model(400)
    calls = 0
    plain_eq = ObjRef.__eq__

    def counting_eq(self, other):
        nonlocal calls
        calls += 1
        return plain_eq(self, other)

    monkeypatch.setattr(ObjRef, "__eq__", counting_eq)
    load_model(text, fuml_woven)
    monkeypatch.undo()
    assert calls <= 10 * stats["elements"], calls


_AGENDA_WOVEN = weave(mm="metamodel g { class Hub { ref agenda: Edge[*]; "
                         "ref incoming: Edge[*] opposite target; } "
                         "class Edge { ref target: Hub[0..1] opposite incoming; } }")


@pytest.mark.parametrize("feature", ["agenda", "incoming"])
def test_reassigning_a_reference_compares_references_linearly(feature, monkeypatch):
    """``self.agenda := self.agenda.reject { ... }`` must write the slot once,
    not unlink and relink each element through a scan of the slot; counting
    comparisons keeps the guard independent of speed.  ``incoming`` has a
    single-valued opposite, which each element's upkeep reads once."""
    model = ModelInstance(_AGENDA_WOVEN)
    hub = create_instance(model, "Hub")
    edges = [create_instance(model, "Edge") for _ in range(2000)]
    set_feature(model, hub, feature, Coll("OrderedSet", edges))
    rest = Coll("OrderedSet", edges[1:])
    calls = 0
    plain_eq = ObjRef.__eq__

    def counting_eq(self, other):
        nonlocal calls
        calls += 1
        return plain_eq(self, other)

    monkeypatch.setattr(ObjRef, "__eq__", counting_eq)
    set_feature(model, hub, feature, rest)
    monkeypatch.undo()
    assert calls <= 2 * len(edges), calls
    assert model.obj(hub.id).slots[feature] == rest
    assert conformance_check(model) == []


def test_model_operations_build_no_slot_plans(fuml_woven, monkeypatch):
    """compose settles every slot plan; creating, assigning, checking,
    loading, saving and running only read them."""
    built = 0
    plain_init = SlotPlan.__init__

    def counting_init(self, *args):
        nonlocal built
        built += 1
        plain_init(self, *args)

    monkeypatch.setattr(SlotPlan, "__init__", counting_init)
    lib_woven = weave(mm=LIB_MM)
    assert built == 10  # one per declared feature
    built = 0
    model = load_model((MODELS / "worksession.model").read_text(), fuml_woven)
    check_model(model)
    save_model(model)
    lib = ModelInstance(lib_woven)
    home, book, writer = (create_instance(lib, c) for c in ("Library", "Book", "Writer"))
    set_feature(lib, home, "name", StringV("town"))
    add_to_feature(lib, home, "book", book)
    set_feature(lib, book, "author", writer)
    remove_from_feature(lib, writer, "works", book)
    invoke(model, "o1", "execute")
    assert built == 0


def test_intersection_compares_elements_linearly(monkeypatch):
    """``c.intersection(d)`` must not compare each element of c with every
    element of d; counting comparisons keeps the guard independent of speed."""
    model = ModelInstance(weave(mm="metamodel t { class A { } }"))
    a = create_instance(model, "A")
    scope = {"c": Coll("Sequence", [IntV(i) for i in range(1000)]),
             "d": Coll("Sequence", [IntV(i) for i in range(1000, 3000)])}
    calls = 0
    plain_eq = IntV.__eq__

    def counting_eq(self, other):
        nonlocal calls
        calls += 1
        return plain_eq(self, other)

    monkeypatch.setattr(IntV, "__eq__", counting_eq)
    result = eval_expr(parse_expr("c.intersection(d)"), Interpreter(model), a, scope)
    monkeypatch.undo()
    assert result == Coll("Sequence", [])
    assert calls <= 3000, calls
    # collections of collections hash by structure, and meet the same test
    def seq(*ints):
        return Coll("Sequence", [IntV(i) for i in ints])

    scope = {"c": Coll("Sequence", [seq(1), seq(2), seq(1, 2)]),
             "d": Coll("Sequence", [seq(1, 2), seq(1)])}
    intersect = parse_expr("c.intersection(d)")
    assert eval_expr(intersect, Interpreter(model), a, scope) == Coll(
        "Sequence", [seq(1), seq(1, 2)])
    scope["d"] = Coll("Sequence", [seq(2)])
    assert eval_expr(intersect, Interpreter(model), a, scope) == Coll("Sequence", [seq(2)])


def test_containment_cycle_refused(lib_woven):
    # self-containment is impossible through a Library/Book pair, so use a
    # dedicated parent/child metamodel
    woven = weave(mm="""
metamodel t { class N { ref kids: N[*] containment; } }
""")
    model = ModelInstance(woven)
    a = create_instance(model, "N")
    b = create_instance(model, "N")
    add_to_feature(model, a, "kids", b)
    with pytest.raises(EvalFault) as exc:
        add_to_feature(model, b, "kids", a)
    assert exc.value.kind == "ContainmentCycle"
    with pytest.raises(EvalFault):
        add_to_feature(model, a, "kids", a)
    assert conformance_check(model) == []


TREE_MM = """
metamodel t {
  class N {
    attr tag: Int;
    ref kids: N[*] containment opposite parent;
    ref parent: N[0..1] opposite kids;
    ref friend: N[0..1];
  }
}
"""


def test_cycle_refused_through_the_parent_side():
    woven = weave(mm=TREE_MM)
    model = ModelInstance(woven)
    a = create_instance(model, "N")
    b = create_instance(model, "N")
    c = create_instance(model, "N")
    add_to_feature(model, a, "kids", b)
    add_to_feature(model, b, "kids", c)
    # assigning the child end of the containment pair must be guarded too
    with pytest.raises(EvalFault) as exc:
        set_feature(model, a, "parent", c)
    assert exc.value.kind == "ContainmentCycle"
    with pytest.raises(EvalFault):
        set_feature(model, a, "parent", a)
    assert conformance_check(model) == []
    # a legal re-parenting through the child side still works
    set_feature(model, c, "parent", a)
    assert model.obj(c.id).container == (a.id, "kids")
    assert conformance_check(model) == []


def test_randomized_tree_operations_keep_the_forest():
    import random

    woven = weave(mm=TREE_MM)
    model = ModelInstance(woven)
    rng = random.Random(31)
    nodes = [create_instance(model, "N") for _ in range(8)]
    refusals = 0
    for _step in range(800):
        x, y = rng.choice(nodes), rng.choice(nodes)
        action = rng.randrange(5)
        try:
            if action == 0:
                add_to_feature(model, x, "kids", y)
            elif action == 1:
                set_feature(model, x, "parent", y)
            elif action == 2:
                set_feature(model, x, "parent", VoidV())
            elif action == 3:
                remove_from_feature(model, x, "kids", y)
            else:
                set_feature(model, x, "friend", y)
        except EvalFault as fault:
            assert fault.kind in ("ContainmentCycle", "UpperBoundExceeded")
            refusals += 1
        problems = conformance_check(model)
        assert problems == [], [d.render() for d in problems]
    assert refusals > 0  # the workload really attempted cycles


def test_type_fault_on_wrong_target(lib):
    b = create_instance(lib, "Book")
    w = create_instance(lib, "Writer")
    with pytest.raises(EvalFault) as exc:
        set_feature(lib, b, "home", w)  # Writer is not a Library
    assert exc.value.kind == "TypeFault"
    with pytest.raises(EvalFault):
        set_feature(lib, b, "title", IntV(3))


def test_reference_targets_conform_by_linearization():
    woven = weave(mm="metamodel t { class A { ref b: B[0..1]; ref bs: B[*]; } "
                     "class B { } class C extends B { } }",
                  act='package t;\nrequire "t.mm";\naspect class A { ref any: Root[0..1]; }\n')
    model = ModelInstance(woven)
    a, c = create_instance(model, "A"), create_instance(model, "C")
    set_feature(model, a, "b", c)  # C conforms to B
    add_to_feature(model, a, "bs", c)
    set_feature(model, a, "any", a)  # every class conforms to Root
    for op, fname, value in ((set_feature, "b", a), (add_to_feature, "bs", a),
                             (set_feature, "bs", Coll("OrderedSet", [a]))):
        with pytest.raises(EvalFault) as exc:
            op(model, a, fname, value)
        assert (exc.value.kind, exc.value.message) == (
            "TypeFault", f"reference {fname} expects B, got A")
    assert conformance_check(model) == []


def test_sequence_into_unique_slot_dedupes_first_occurrence(lib):
    l1 = create_instance(lib, "Library")
    b1 = create_instance(lib, "Book")
    b2 = create_instance(lib, "Book")
    set_feature(lib, l1, "book", Coll("Sequence", [b1, b2, b1, b2]))
    assert lib.obj(l1.id).slots["book"].items == [b1, b2]


# ---------------------------------------------------------------------------
# invocation
# ---------------------------------------------------------------------------


def test_invoke_dispatches_first_definer(fuml_woven):
    model = ModelInstance(fuml_woven)
    n = create_instance(model, "InitialNode")
    set_feature(model, n, "tokens", IntV(1))
    result, _env = invoke(model, n, "ready")
    assert result == BoolV(True)


def test_invoke_super_chain_and_trace_events(fuml_woven):
    model = load_model((MODELS / "worksession.model").read_text(), fuml_woven)
    result, env = invoke(model, ObjRef("o1"), "execute")
    assert isinstance(result, VoidV)
    labels = [e.label for e in env.trace if isinstance(e, NodeExecuted)]
    assert labels == ["Have a coffee", "Talk", "Work", "final"]
    enters = [e for e in env.trace if type(e).__name__ == "OpEnter"]
    exits = [e for e in env.trace if type(e).__name__ == "OpExit"]
    assert len(enters) == len(exits)


def test_invoke_checks_argument_types_on_entry():
    act = TABLE_HEADER + "aspect class A {\n  operation get(b : B) : Int is do return b.w end\n}\n"
    model = table_model(weave(mm=TABLE_MM, act=act))
    assert invoke(model, "o1", "get", [ObjRef("o2")])[0] == IntV(1)
    assert invoke(model, "o1", "get", [VOID_VALUE])[0] == VOID_VALUE
    # a method and a root builtin alike
    for op, arg, expected in (("get", IntV(3), "b of get expects B, got 3"),
                              ("get", ObjRef("o1"), "b of get expects B, got @o1"),
                              ("fault", IntV(1), "message of fault expects String, got 1"),
                              ("trace", ObjRef("o2"), "message of trace expects String, got @o2")):
        with pytest.raises(EvalFault) as exc:
            invoke(model, "o1", op, [arg])
        assert (exc.value.kind, exc.value.message) == ("TypeFault", f"argument {expected}")


# Python values that are not mashup values, passed in from outside, and an
# id where a reference may stand -> the outcome on the work session
OUTSIDE_CALLS = {
    "set_feature": (lambda m: set_feature(m, "o2", "name", "x"),
                    "TypeFault attribute name expects String, got 'x'"),
    "add_to_feature": (lambda m: add_to_feature(m, "o1", "node", "o2"),
                       "TypeFault reference node expects an object, got 'o2'"),
    "invoke": (lambda m: invoke(m, "o1", "trace", ["hi"]),
               "TypeFault 'hi' is not a mashup value"),
    "eval_expr": (lambda m: eval_expr(parse_expr("x"), Interpreter(m), "o1", {"x": 3}),
                  "TypeFault 3 is not a mashup value"),
    "Interpreter.invoke": (lambda m: Interpreter(m).invoke("o1", "execute", []), "void"),
}


@pytest.mark.parametrize("call", OUTSIDE_CALLS)
def test_calls_from_outside_fault_on_python_values(fuml_woven, call):
    run, expected = OUTSIDE_CALLS[call]
    model = load_model((MODELS / "worksession.model").read_text(), fuml_woven)
    try:
        outcome = render_value(run(model))
    except EvalFault as fault:
        outcome = f"{fault.kind} {fault.message}"
    assert outcome == expected


def test_dispatch_is_deterministic(fuml_woven):
    model = load_model((MODELS / "worksession.model").read_text(), fuml_woven)
    _r1, env1 = invoke(model.clone(), ObjRef("o1"), "execute")
    _r2, env2 = invoke(model.clone(), ObjRef("o1"), "execute")
    assert env1.trace == env2.trace


def test_precondition_false_at_every_level_raises():
    woven = weave(
        mm="metamodel m { class A { } }",
        act='package m;\nrequire "m.mm";\n'
            "aspect class A { operation m() : Void is do end }",
        inv='package m;\nrequire "m.mm";\naspect class A { pre never on m : false; }',
    )
    model = ModelInstance(woven)
    a = create_instance(model, "A")
    with pytest.raises(ContractViolation) as exc:
        invoke(model, a, "m")
    assert exc.value.kind == "PreconditionViolation" and exc.value.name == "never"


def test_super_precondition_acceptance_via_disjunction():
    woven = weave(
        mm="metamodel m { class Super { } class Sub extends Super { } }",
        act='package m;\nrequire "m.mm";\n'
            "aspect class Super { operation m(v : Int) : Int is do return v end }",
        inv='package m;\nrequire "m.mm";\n'
            "aspect class Super { pre ps on m : v >= 1; }\n"
            "aspect class Sub { pre pt on m : v >= 10; }",
    )
    model = ModelInstance(woven)
    sub = create_instance(model, "Sub")
    result, _ = invoke(model, sub, "m", [IntV(5)])  # fails sub, passes super
    assert result == IntV(5)
    with pytest.raises(ContractViolation):
        invoke(model, sub, "m", [IntV(0)])


def test_inherited_contract_sees_its_own_parameter_names():
    woven = weave(
        mm="metamodel m { class Super { } class Sub extends Super { } }",
        act='package m;\nrequire "m.mm";\n'
            "aspect class Super { operation m(v : Int) : Int is do return v end }\n"
            "aspect class Sub { method m(w : Int) : Int is do return w + 1 end }",
        inv='package m;\nrequire "m.mm";\n'
            "aspect class Super { pre ps on m : v >= 1; }",
    )
    model = ModelInstance(woven)
    sub = create_instance(model, "Sub")
    assert invoke(model, sub, "m", [IntV(2)])[0] == IntV(3)
    with pytest.raises(ContractViolation):
        invoke(model, sub, "m", [IntV(0)])


RENAMED_MM = "metamodel s { class A { op m(x: Int): Int; } class B extends A { } }"
RENAMED_ACT = ('package s;\nrequire "s.mm";\n'
               "aspect class B {\n"
               "  method m(y : Int) : Int is do return y end\n"
               "  operation go() : Void is do self.m(3) end\n}\n")
RENAMED_INV = ('package s;\nrequire "s.mm";\n'
               "aspect class A { pre pos on m : x > 0; post same on m : result == x; }\n")


def test_contracts_bind_the_signature_they_were_checked_against(tmp_path):
    """A's rules name A's parameter ``x``, which the type checker checked
    them against; B's body calls it ``y``.  Each rule binds the arguments
    under its declaring class's signature."""
    model = ModelInstance(weave(mm=RENAMED_MM, act=RENAMED_ACT, inv=RENAMED_INV))
    b = create_instance(model, "B")
    assert invoke(model, b, "m", [IntV(3)])[0] == IntV(3)
    with pytest.raises(ContractViolation) as exc:
        invoke(model, b, "m", [IntV(0)])
    assert (exc.value.kind, exc.value.message) == ("PreconditionViolation", f"pos @ {b.id}")
    for name, text in (("s.mm", RENAMED_MM), ("s.act", RENAMED_ACT), ("s.inv", RENAMED_INV),
                       ("s.mashup", 'package s;\nrequire "s.mm";\nrequire "s.act";\n'
                                    'require "s.inv";\nmain B.go;\n'),
                       ("b.model", '{"conformsTo": "s", "objects": [{"id": "b", "class": "B", '
                                   '"slots": {}}], "roots": ["@b"]}')):
        (tmp_path / name).write_text(text)
    assert run_cli("run", "--manifest", str(tmp_path / "s.mashup"),
                   "--model", str(tmp_path / "b.model")) == (
        0, "OpEnter\tb.go\nOpEnter\tb.m\nOpExit\tb.m\t3\nOpExit\tb.go\tvoid\n", "")


def test_check_model_builds_one_interpreter(monkeypatch):
    """Every invariant of every object is evaluated by one interpreter."""
    built = 0
    plain_init = Interpreter.__init__

    def counting_init(self, *args):
        nonlocal built
        built += 1
        plain_init(self, *args)

    monkeypatch.setattr(Interpreter, "__init__", counting_init)
    woven = weave(mm="metamodel m { class A { attr x: Int; } }",
                  inv='package m;\nrequire "m.mm";\n'
                      "aspect class A { inv pos : self.x >= 0; inv small : self.x < 3; }")
    for n in (1, 2, 40):
        model = ModelInstance(woven)
        for i in range(n):
            set_feature(model, create_instance(model, "A"), "x", IntV(i))
        built = 0
        results = check_model(model)
        assert len(results) == 2 * n and built == 1
        assert [r.status for r in results].count("violated") == max(0, n - 3)


def test_postcondition_conjunction_rejects_any_level():
    woven = weave(
        mm="metamodel m { class Super { } class Sub extends Super { } }",
        act='package m;\nrequire "m.mm";\n'
            "aspect class Super { operation m(v : Int) : Int is do return v end }",
        inv='package m;\nrequire "m.mm";\n'
            "aspect class Super { post qs on m : result >= 2; }\n"
            "aspect class Sub { post qt on m : result >= 4; }",
    )
    model = ModelInstance(woven)
    sub = create_instance(model, "Sub")
    assert invoke(model, sub, "m", [IntV(9)])[0] == IntV(9)
    with pytest.raises(ContractViolation) as exc:
        invoke(model, sub, "m", [IntV(3)])  # passes super, fails sub
    assert exc.value.name == "qt"
    with pytest.raises(ContractViolation):
        invoke(model, sub, "m", [IntV(1)])


def test_invariant_policy_full_checks_after_op():
    woven = weave(
        mm="metamodel m { class A { attr x: Int; } }",
        act='package m;\nrequire "m.mm";\n'
            "aspect class A { operation poke() : Void is do self.x := self.x - 5 end }",
        inv='package m;\nrequire "m.mm";\naspect class A { inv pos : self.x >= 0; }',
    )
    model = ModelInstance(woven)
    a = create_instance(model, "A")
    invoke(model, a, "poke", policy="prepost")  # x becomes -5, unchecked
    with pytest.raises(ContractViolation) as exc:
        invoke(model, a, "poke", policy="full")
    assert exc.value.kind == "InvariantViolation" and exc.value.name == "pos"


def test_policy_off_skips_contracts():
    woven = weave(
        mm="metamodel m { class A { } }",
        act='package m;\nrequire "m.mm";\n'
            "aspect class A { operation m() : Void is do end }",
        inv='package m;\nrequire "m.mm";\naspect class A { pre never on m : false; }',
    )
    model = ModelInstance(woven)
    a = create_instance(model, "A")
    invoke(model, a, "m", policy="off")  # no violation raised


def test_no_such_method_and_arity_fault(fuml_woven):
    model = ModelInstance(fuml_woven)
    a = create_instance(model, "Activity")
    with pytest.raises(EvalFault) as exc:
        invoke(model, a, "ghost")
    assert exc.value.kind == "NoSuchMethod"
    with pytest.raises(EvalFault) as exc:
        invoke(model, a, "launch", [])
    assert exc.value.kind == "TypeFault"


def test_super_from_renamed_body_follows_the_linearization():
    # D extends B, C; both override A's run; C's branch is renamed. A super
    # call inside C's body continues at the next definer in lin(D) = B.
    woven = weave(
        mm="metamodel d { class A { } class B extends A { } class C extends A { } "
           "class D extends B, C { } }",
        act=[
            'package d;\nrequire "d.mm";\n'
            'aspect class A { operation run() : Void is do self.trace("A") end }\n'
            'aspect class B { method run() : Void is do super() self.trace("B") end }\n'
            'aspect class C { method run() : Void is do super() self.trace("C") end }',
            'package d;\nrequire "d.mm";\naspect class D { rename run from C as runC; }',
        ],
    )
    model = ModelInstance(woven)
    d = create_instance(model, "D")
    _r, env = invoke(model, d, "runC")
    labels = [e.label for e in env.trace if isinstance(e, NodeExecuted)]
    assert labels == ["A", "B", "C"]  # C -> super() -> B -> super() -> A, unwinding


def test_partially_renamed_diamond_stays_ambiguous():
    woven = compose(parse_units(
        mm="metamodel t { class B { } class C { } class E { } "
           "class D extends B, C, E { } }",
        act=[
            'package t;\nrequire "t.mm";\n'
            "aspect class B { operation run() : Void is do end }\n"
            "aspect class C { operation run() : Void is do end }\n"
            "aspect class E { operation run() : Void is do end }",
            'package t;\nrequire "t.mm";\naspect class D { rename run from C as runC; }',
        ],
    ))
    d = woven.classes["D"]
    assert "run" in d.ambiguous_ops and "runC" not in d.ambiguous_ops


def test_builtin_fault_operation():
    woven = weave(
        mm="metamodel m { class A { } }",
        act='package m;\nrequire "m.mm";\n'
            'aspect class A { operation boom() : Void is do self.fault("nope") end }',
    )
    model = ModelInstance(woven)
    a = create_instance(model, "A")
    with pytest.raises(EvalFault) as exc:
        invoke(model, a, "boom")
    assert exc.value.kind == "Fault" and "nope" in exc.value.message


def test_loop_forms_compute():
    woven = weave(
        mm="metamodel m { class A { } }",
        act='package m;\nrequire "m.mm";\n'
            """
aspect class A {
  operation sumTo(n : Int) : Int is do
    var total : Int init 0
    from var i : Int init 1 until i > n loop
      total := total + i
      i := i + 1
    end
    return total
  end
  operation sumDown(n : Int) : Int is do
    var total : Int init 0
    while n > 0 loop
      total := total + n
      n := n - 1
    end
    return total
  end
  operation pick(flag : Bool) : Int is do
    return if flag then 1 else 2 end
  end
}
""",
    )
    model = ModelInstance(woven)
    a = create_instance(model, "A")
    assert invoke(model, a, "sumTo", [IntV(5)])[0] == IntV(15)
    assert invoke(model, a, "sumDown", [IntV(5)])[0] == IntV(15)
    assert invoke(model, a, "pick", [BoolV(True)])[0] == IntV(1)
    assert invoke(model, a, "pick", [BoolV(False)])[0] == IntV(2)


def test_new_and_containment_assignment_from_dsl_code():
    woven = weave(
        mm="metamodel z { class Box { ref item: Thing[0..1] containment; } class Thing { } }",
        act='package z;\nrequire "z.mm";\n'
            """
aspect class Box {
  operation fill() : Thing is do
    var t : Thing init Thing.new()
    self.item := t
    return t
  end
}
""",
    )
    model = ModelInstance(woven)
    box = create_instance(model, "Box")
    result, _env = invoke(model, box, "fill")
    assert isinstance(result, ObjRef)
    thing = model.obj(result.id)
    assert thing.container == (box.id, "item")
    assert model.roots == [box.id]


def test_each_loop_mutates_through_element_adds():
    woven = weave(
        mm="metamodel m { class Bag { ref item: Pebble[*]; } class Pebble { attr w: Int; } }",
        act='package m;\nrequire "m.mm";\n'
            """
aspect class Bag {
  operation weigh() : Int is do
    var total : Int init 0
    self.item.each { p | total := total + p.w }
    return total
  end
  operation lighten() : Void is do
    self.item := self.item.reject { p | p.w > 5 }
  end
}
""",
    )
    model = ModelInstance(woven)
    bag = create_instance(model, "Bag")
    for w in (2, 7, 4):
        pebble = create_instance(model, "Pebble")
        set_feature(model, pebble, "w", IntV(w))
        add_to_feature(model, bag, "item", pebble)
    assert invoke(model, bag, "weigh")[0] == IntV(13)
    invoke(model, bag, "lighten")
    assert invoke(model, bag, "weigh")[0] == IntV(6)


def test_aspect_operation_of_a_featureless_class_is_executable():
    woven = weave(
        mm="metamodel m { class A { } class Helper { } }",
        act='package m;\nrequire "m.mm";\n'
            "aspect class Helper { operation double(x : Int) : Int is do return x + x end }",
    )
    model = ModelInstance(woven)
    helper = create_instance(model, "Helper")
    assert invoke(model, helper, "double", [IntV(21)])[0] == IntV(42)


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------


def test_load_counts_fig_one_model(fuml_woven):
    model = load_model((MODELS / "worksession.model").read_text(), fuml_woven)
    activities = [o for o in model.objects.values() if o.class_name == "Activity"]
    assert len(activities) == 1
    activity = activities[0]
    assert len(activity.slots["node"].items) == 7
    assert len(activity.slots["edge"].items) == 7


def test_load_empty_object_list(fuml_woven):
    model = load_model('{"conformsTo": "fuml", "objects": [], "roots": []}', fuml_woven)
    assert model.objects == {} and model.roots == []


def test_load_rejects_unresolved_reference(fuml_woven):
    doc = {
        "conformsTo": "fuml",
        "objects": [{"id": "o1", "class": "ControlFlow", "slots": {"source": "@ghost"}}],
        "roots": ["@o1"],
    }
    with pytest.raises(TypecheckError) as exc:
        load_model(json.dumps(doc), fuml_woven)
    assert any("ghost" in d.message for d in exc.value.diagnostics)


def test_load_rejects_duplicate_ids(fuml_woven):
    doc = {
        "conformsTo": "fuml",
        "objects": [
            {"id": "x", "class": "Class", "slots": {}},
            {"id": "x", "class": "Class", "slots": {}},
        ],
        "roots": ["@x"],
    }
    with pytest.raises(TypecheckError) as exc:
        load_model(json.dumps(doc), fuml_woven)
    assert any("duplicate" in d.message for d in exc.value.diagnostics)


def test_load_rejects_wrong_package(fuml_woven):
    with pytest.raises(TypecheckError) as exc:
        load_model('{"conformsTo": "other", "objects": [], "roots": []}', fuml_woven)
    assert any("conforms" in d.message for d in exc.value.diagnostics)


def test_load_rejects_abstract_instance(fuml_woven):
    doc = {
        "conformsTo": "fuml",
        "objects": [{"id": "x", "class": "Action", "slots": {}}],
        "roots": ["@x"],
    }
    with pytest.raises(TypecheckError) as exc:
        load_model(json.dumps(doc), fuml_woven)
    assert any(d.code == "AbstractInstance" for d in exc.value.diagnostics)


def test_load_rejects_bad_slot_type(fuml_woven):
    doc = {
        "conformsTo": "fuml",
        "objects": [{"id": "o1", "class": "Activity", "slots": {"name": 3}}],
        "roots": ["@o1"],
    }
    with pytest.raises(TypecheckError):
        load_model(json.dumps(doc), fuml_woven)


def test_load_checks_required_reference(fuml_woven):
    doc = {
        "conformsTo": "fuml",
        "objects": [{"id": "e1", "class": "ControlFlow", "slots": {}}],
        "roots": ["@e1"],
    }
    with pytest.raises(TypecheckError) as exc:
        load_model(json.dumps(doc), fuml_woven)
    assert any("required reference" in d.message for d in exc.value.diagnostics)


def test_load_checks_one_sided_opposites(fuml_woven):
    base = json.loads((MODELS / "worksession.model").read_text())
    for obj in base["objects"]:
        if obj["id"] == "o2":
            obj["slots"]["outgoing"] = []  # drop one side of e1.source
    with pytest.raises(TypecheckError) as exc:
        load_model(json.dumps(base), fuml_woven)
    assert any(d.code == "OppositeMismatch" for d in exc.value.diagnostics)


def _set(oid, fname, value):
    return lambda m: m.objects[oid].slots.__setitem__(fname, value)


def _retype(oid, class_name):
    return lambda m: setattr(m.objects[oid], "class_name", class_name)


def _drop_item(oid, fname, item):
    return lambda m: m.objects[oid].slots[fname].items.remove(ObjRef(item))


def _each(*mutations):
    def mutate(m):
        for mutation in mutations:
            mutation(m)
    return mutate


def _second_container(m):
    extra = create_instance(m, "Activity")
    m.obj(extra.id).slots["node"].items.append(ObjRef("o2"))


# fuml-lite with an activity of at least eight nodes
_EIGHT_NODES_WOVEN = weave(
    mm=(FUML / "fuml.mm").read_text().replace("ref node: ActivityNode[*]",
                                              "ref node: ActivityNode[8..*]"),
    inv=(FUML / "fuml.inv").read_text(), act=(FUML / "fuml.act").read_text())


def _demand_eight_nodes(m):
    m.woven = _EIGHT_NODES_WOVEN


_C, _X = "ConformanceError", "ContainmentError"

# Every conformance diagnostic, in the order conformance_check reports it,
# for one corruption of the loaded worksession each.
CONFORMANCE_CASES = {
    "attribute of the wrong type": (
        _set("o2", "name", IntV(3)), [(_C, "o2.name expects String")]),
    "void attribute": (
        _set("o2", "name", VOID_VALUE), [(_C, "attribute o2.name cannot be void")]),
    "many-valued lower bound": (
        _demand_eight_nodes, [(_C, "o1.node holds 7 element(s), lower bound is 8")]),
    "unset required reference": (
        _set("e1", "source", VOID_VALUE),
        [(_C, "required reference e1.source is unset"),
         ("OppositeMismatch", "o2.outgoing lists e1 but e1.source does not list o2")]),
    "unknown slot": (
        _set("o2", "colour", StringV("red")),
        [("UnknownFeature", "object o2 has unknown slot colour")]),
    "missing slot": (
        lambda m: m.objects["o2"].slots.pop("name"),
        [("MissingSlot", "object o2 lacks slot name")]),
    "undeclared target": (
        _set("o4", "classifier", ObjRef("ghost")),
        [(_C, "o4.classifier points at undeclared id ghost")]),
    "target of the wrong class": (
        _set("o4", "classifier", ObjRef("o5")),
        [(_C, "o4.classifier expects Classifier, found CreateObjectAction")]),
    "abstract instance": (
        _retype("o8", "ControlNode"),
        [("AbstractInstance", "object o8 instantiates abstract ControlNode")]),
    "unknown class": (
        _retype("o8", "Ghost"),
        [(_C, "e7.target expects ActivityNode, found Ghost"),
         (_C, "o1.node expects ActivityNode, found Ghost"),
         ("UnknownClass", "object o8 has unknown class Ghost")]),
    "one-sided opposite": (
        _drop_item("o3", "outgoing", "e3"),
        [("OppositeMismatch", "e3.source lists o3 but o3.outgoing does not list e3")]),
    "two containers": (
        _second_container, [(_X, "object o2 is contained both by o1 and o9")]),
    "containment cycle": (
        lambda m: m.objects["o1"].slots["node"].items.append(ObjRef("o1")),
        [(_C, "o1.node expects ActivityNode, found Activity"),
         (_X, "object o1 records container None, slots say ('o1', 'node')")]
        # every object under o1, o1 included, climbs into the cycle
        + [(_X, "containment cycle through o1")] * 15
        + [(_C, "root o1 has a container")]),
    "repeated root": (
        lambda m: m.roots.append("c1"), [(_C, "roots list repeats an object")]),
    "root that is no object": (
        lambda m: m.roots.append("ghost"),
        [(_C, "root ghost is not an object of the model")]),
    "root with a container": (
        lambda m: m.roots.append("o2"), [(_C, "root o2 has a container")]),
    "one finding of each pass": (
        _each(_second_container, _drop_item("o3", "outgoing", "e3"),
              _set("o2", "name", IntV(3)), lambda m: m.roots.append("c1")),
        [(_C, "o2.name expects String"),
         ("OppositeMismatch", "e3.source lists o3 but o3.outgoing does not list e3"),
         (_X, "object o2 is contained both by o1 and o9"),
         (_C, "roots list repeats an object")]),
    "uncontained object missing from roots": (
        lambda m: m.roots.remove("c1"),
        [(_C, "uncontained object c1 is missing from roots")]),
}


@pytest.mark.parametrize("case", CONFORMANCE_CASES)
def test_conformance_diagnostics_are_pinned(fuml_woven, case):
    mutate, expected = CONFORMANCE_CASES[case]
    model = load_model((MODELS / "worksession.model").read_text(), fuml_woven)
    assert conformance_check(model) == []
    mutate(model)
    found = conformance_check(model)
    assert [(d.code, d.message) for d in found] == expected
    assert {d.render()[:len("<model>:0:0: ")] for d in found} == {"<model>:0:0: "}


def _entry(doc: dict, oid: str) -> dict:
    return next(entry for entry in doc["objects"] if entry["id"] == oid)


_DROP = object()


def _doc_slot(oid, fname, raw):
    """Write a slot of one document entry: ``raw``, or ``raw`` of the old
    value if it is a function, or no slot at all if it is ``_DROP``."""
    def mutate(doc):
        slots = _entry(doc, oid)["slots"]
        if raw is _DROP:
            slots.pop(fname)
        else:
            slots[fname] = raw(slots.get(fname)) if callable(raw) else raw
    return mutate


def _doc_class(oid, class_name):
    return lambda doc: _entry(doc, oid).__setitem__("class", class_name)


def _doc_roots(*edits):
    """Append each "@id" of ``edits`` to the roots, or remove it if it
    starts with "-"."""
    def mutate(doc):
        for edit in edits:
            if edit.startswith("-"):
                doc["roots"].remove(edit[1:])
            else:
                doc["roots"].append(edit)
    return mutate


def _doc_second_container(doc):
    doc["objects"].append({"id": "o9", "class": "Activity", "slots": {"node": ["@o2"]}})
    doc["roots"].append("@o9")


# What load_model raises, (code, message) in order, for one corruption of
# the worksession document each, loaded into fuml-lite or, where a woven
# model is given, into that.
LOAD_CASES = {
    "single target of the wrong class": (
        _doc_slot("o4", "classifier", "@o5"), None,
        [(_C, "o4.classifier expects Classifier, found CreateObjectAction")]),
    "listed target of the wrong class": (
        _doc_slot("o6", "incoming", lambda v: v + ["@c1"]), None,
        [(_C, "o6.incoming expects ActivityEdge, found Class"),
         ("OppositeMismatch", "o6.incoming lists c1 but c1.target does not list o6")]),
    "listed target of the wrong class without an opposite": (
        _doc_slot("o1", "agenda", ["@e1", "@c1"]), None,
        [(_C, "o1.agenda expects ActivityEdge, found Class")]),
    "undeclared target": (
        _doc_slot("o4", "classifier", "@ghost"), None,
        [(_C, "o4.classifier points at undeclared id ghost")]),
    "abstract class": (
        _doc_class("o8", "ControlNode"), None,
        [("AbstractInstance", "object o8 instantiates abstract ControlNode")]),
    "unknown class": (
        _doc_class("o8", "Ghost"), None, [("UnknownClass", "object o8 has unknown class Ghost")]),
    "unset required reference": (
        _doc_slot("e1", "source", _DROP), None,
        [(_C, "required reference e1.source is unset"),
         ("OppositeMismatch", "o2.outgoing lists e1 but e1.source does not list o2")]),
    "null required reference": (
        _doc_slot("e1", "source", None), None,
        [(_C, "required reference e1.source is unset"),
         ("OppositeMismatch", "o2.outgoing lists e1 but e1.source does not list o2")]),
    "lower bound": (
        lambda doc: None, _EIGHT_NODES_WOVEN,
        [(_C, "o1.node holds 7 element(s), lower bound is 8")]),
    "lower bound after duplicates": (
        _doc_slot("o1", "node", lambda v: v[:6] + ["@o2"]), _EIGHT_NODES_WOVEN,
        [(_C, "o1.node holds 6 element(s), lower bound is 8"),
         (_C, "uncontained object o8 is missing from roots")]),
    "lower bound of a defaulted slot": (
        _doc_slot("o1", "node", _DROP), _EIGHT_NODES_WOVEN,
        [(_C, "o1.node holds 0 element(s), lower bound is 8")]
        + [(_C, f"uncontained object o{i} is missing from roots") for i in range(2, 9)]),
    "bad scalar": (
        _doc_slot("o2", "name", 3), None, [(_C, "o2.name expects a String scalar, found 3")]),
    "null attribute": (
        _doc_slot("o2", "name", None), None, [(_C, "attribute o2.name cannot be null")]),
    "unknown slot": (
        _doc_slot("o2", "colour", "red"), None,
        [("UnknownFeature", "object o2 has unknown slot colour")]),
    "one-sided opposite": (
        _doc_slot("o3", "outgoing", ["@e2"]), None,
        [("OppositeMismatch", "e3.source lists o3 but o3.outgoing does not list e3")]),
    "two containers": (
        _doc_second_container, None, [(_X, "object o2 is contained both by o1 and o9")]),
    "containment cycle": (
        _doc_slot("o1", "node", lambda v: v + ["@o1"]), None,
        [(_C, "o1.node expects ActivityNode, found Activity")]
        # every object under o1, o1 included, climbs into the cycle
        + [(_X, "containment cycle through o1")] * 15
        + [(_C, "root o1 has a container")]),
    "repeated root": (_doc_roots("@c1"), None, [(_C, "roots list repeats an object")]),
    "root with a container": (_doc_roots("@o2"), None, [(_C, "root o2 has a container")]),
    "uncontained object missing from roots": (
        _doc_roots("-@c1"), None, [(_C, "uncontained object c1 is missing from roots")]),
    "duplicate id": (
        lambda doc: doc["objects"].append({"id": "c1", "class": "Class"}), None,
        [(_C, "duplicate object id c1")]),
    "one finding of each pass": (
        _each(_doc_slot("o4", "classifier", "@o5"), _doc_slot("o3", "outgoing", ["@e2"]),
              _doc_second_container, _doc_roots("@c1")), None,
        [(_C, "o4.classifier expects Classifier, found CreateObjectAction"),
         ("OppositeMismatch", "e3.source lists o3 but o3.outgoing does not list e3"),
         (_X, "object o2 is contained both by o1 and o9"),
         (_C, "roots list repeats an object")]),
}


@pytest.mark.parametrize("case", LOAD_CASES)
def test_load_diagnostics_are_pinned(fuml_woven, case):
    mutate, woven, expected = LOAD_CASES[case]
    doc = json.loads((MODELS / "worksession.model").read_text())
    mutate(doc)
    with pytest.raises(TypecheckError) as exc:
        load_model(json.dumps(doc), woven or fuml_woven, "ws.model")
    found = exc.value.diagnostics
    assert [(d.code, d.message) for d in found] == expected
    assert {d.render()[:len("ws.model:0:0: ")] for d in found} == {"ws.model:0:0: "}


_ABSTRACT = ("NamedElement", "Classifier", "Behavior", "ActivityNode", "ActivityEdge",
             "ControlNode", "ExecutableNode", "Action")
_CONCRETE = ("Class", "Activity", "ControlFlow", "InitialNode", "FinalNode", "ForkNode",
             "JoinNode", "CreateObjectAction")


def _ref_sites(doc: dict) -> list[tuple[dict, str, int | None]]:
    """Every "@id" a document's slots hold: (slots, name, index or None)."""
    sites = []
    for entry in doc["objects"]:
        slots = entry["slots"]
        for fname, raw in sorted(slots.items()):
            if isinstance(raw, list):
                sites += [(slots, fname, i) for i in range(len(raw))]
            elif isinstance(raw, str) and raw.startswith("@"):
                sites.append((slots, fname, None))
    return sites


def _mutate_doc(doc: dict, kind: str, a: int, b: int) -> None:
    """One corruption of a document, at the places ``a`` and ``b`` pick."""
    objects = doc["objects"]
    ids = [entry["id"] for entry in objects]
    sites = _ref_sites(doc)
    slots, fname, i = sites[a % len(sites)] if sites else ({}, "", None)
    if kind == "retarget":
        raw = "@" + ids[b % len(ids)]
        if i is None:
            slots[fname] = raw
        else:
            slots[fname][i] = raw
    elif kind == "drop":  # one side of an opposite, a containment or a reference
        if i is not None:
            del slots[fname][i]
        elif fname in slots:
            del slots[fname]
    elif kind == "repeat":
        if i is not None:
            slots[fname].append(slots[fname][b % len(slots[fname])])
    elif kind == "null":
        slots[fname] = None
    elif kind == "container":
        objects.append({"id": f"x{len(objects)}", "class": "Activity",
                        "slots": {"node": ["@" + ids[b % len(ids)]]}})
        doc["roots"].append(f"@x{len(objects) - 1}")
    elif kind in ("abstract", "class"):
        names = _ABSTRACT if kind == "abstract" else _CONCRETE
        objects[a % len(objects)]["class"] = names[b % len(names)]
    elif kind == "root":
        doc["roots"].append("@" + ids[b % len(ids)])
    elif doc["roots"]:  # "unroot"
        doc["roots"].pop(b % len(doc["roots"]))


_RECURSIVE_DOCS = [build_recursive_model(depth)[0] for depth in range(4)]


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.integers(0, len(_RECURSIVE_DOCS) - 1),
       st.lists(st.tuples(st.sampled_from(["retarget", "drop", "repeat", "null", "container",
                                           "abstract", "class", "root", "unroot"]),
                          st.integers(0, 10**6), st.integers(0, 10**6)), max_size=3))
def test_load_never_accepts_what_conformance_rejects(fuml_woven, depth, mutations):
    """Load's decode-time checks decide alone whether conformance_check
    runs: a document they pass must be one it passes, and one that saves
    and loads back unchanged."""
    doc = json.loads(_RECURSIVE_DOCS[depth])
    for kind, a, b in mutations:
        _mutate_doc(doc, kind, a, b)
    try:
        model = load_model(json.dumps(doc), fuml_woven)
    except TypecheckError:
        return
    assert conformance_check(model) == []
    assert load_model(save_model(model), fuml_woven).fingerprint() == model.fingerprint()


_CHAIN_WOVEN = weave(mm="metamodel t { class N { ref kids: N[*] containment; } }")


def _chain_model(parents: list[int | None]) -> ModelInstance:
    """Objects n0, n1, ...; ``parents[i]`` is the index of n<i>'s container."""
    model = ModelInstance(_CHAIN_WOVEN)
    for i in range(len(parents)):
        model.objects[f"n{i}"] = obj = Obj(f"n{i}", "N")
        obj.slots["kids"] = Coll("OrderedSet")
    for i, parent in enumerate(parents):
        if parent is None:
            model.roots.append(f"n{i}")
        else:
            model.objects[f"n{parent}"].slots["kids"].items.append(ObjRef(f"n{i}"))
            model.objects[f"n{i}"].container = (f"n{parent}", "kids")
    return model


def _climbed_cycles(parents: list[int | None]) -> list[str]:
    """Cycle messages as a climb from every object, in object order, finds
    them: the first node each climb meets twice."""
    out = []
    for i in range(len(parents)):
        seen, cur = set(), i
        while parents[cur] is not None:
            if cur in seen:
                out.append(f"containment cycle through n{cur}")
                break
            seen.add(cur)
            cur = parents[cur]
    return out


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(-1, 11), min_size=1, max_size=12))
def test_cycle_diagnostics_match_a_climb_from_every_object(picks):
    parents = [p if 0 <= p < len(picks) else None for p in picks]
    found = [d.message for d in conformance_check(_chain_model(parents))
             if "cycle" in d.message]
    assert found == _climbed_cycles(parents)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(st.lists(st.integers(-1, 9), min_size=1, max_size=10))
def test_load_refuses_every_containment_cycle(picks):
    """A document whose containment slots close cycles, and that is right
    in every other way, is refused with the cycles a climb from every
    object finds."""
    parents = [p if 0 <= p < len(picks) else None for p in picks]
    doc = {"conformsTo": "t", "roots": [f"@n{i}" for i, p in enumerate(parents) if p is None],
           "objects": [{"id": f"n{i}", "class": "N", "slots": {
               "kids": [f"@n{k}" for k, p in enumerate(parents) if p == i]}}
               for i in range(len(parents))]}
    cycles = _climbed_cycles(parents)
    if not cycles:
        assert conformance_check(load_model(json.dumps(doc), _CHAIN_WOVEN)) == []
        return
    with pytest.raises(TypecheckError) as exc:
        load_model(json.dumps(doc), _CHAIN_WOVEN)
    assert [d.message for d in exc.value.diagnostics if "cycle" in d.message] == cycles


def test_cycle_detection_climbs_each_object_once():
    """A containment chain 1000 deep: counting the lines ``_check_forest``
    executes keeps the guard independent of speed (a climb from every
    object ran about 2 million)."""
    import sys

    depth = 1000
    chains = [  # (parents, cycle diagnostics)
        ([None] + list(range(depth - 1)), 0),  # containers first
        (list(range(1, depth)) + [None], 0),  # children first
        ([depth - 1] + list(range(depth - 1)), depth),  # one cycle through all
    ]
    for parents, cycles in chains:
        model = _chain_model(parents)
        lines = 0

        def tracer(frame, _event, _arg):
            if frame.f_code.co_name != "_check_forest":
                return None

            def count(_frame, event, _arg):
                nonlocal lines
                lines += event == "line"
                return count
            return count

        sys.settrace(tracer)
        try:
            found = conformance_check(model)
        finally:
            sys.settrace(None)
        assert len([d for d in found if "cycle" in d.message]) == cycles
        assert lines <= 30 * depth, lines


_HUB_WOVEN = weave(mm="metamodel h { class Hub { ref incoming: Edge[*] opposite target; } "
                      "class Edge { ref target: Hub[0..1] opposite incoming; } }")


def _hub_doc(n: int, listed: range) -> str:
    """A hub ``h`` with ``n`` edges targeting it, of which ``incoming`` lists
    those in ``listed``."""
    edges = [{"id": f"e{i}", "class": "Edge", "slots": {"target": "@h"}} for i in range(n)]
    return json.dumps({"conformsTo": "h", "roots": ["@h"] + [f"@e{i}" for i in range(n)],
                       "objects": [{"id": "h", "class": "Hub", "slots": {
                           "incoming": [f"@e{i}" for i in listed]}}] + edges})


@pytest.mark.parametrize("n", [2, _SCAN_LIMIT, _SCAN_LIMIT + 1, 1000])
def test_opposite_check_agrees_on_short_and_long_collections(n):
    """Opposite collections up to ``_SCAN_LIMIT`` are scanned and longer ones
    hashed; both report every unlisted edge, in link order, and the hub is
    told apart from an edge that targets another hub."""
    model = load_model(_hub_doc(n, range(n)), _HUB_WOVEN)
    assert conformance_check(model) == []
    with pytest.raises(TypecheckError) as exc:
        load_model(_hub_doc(n, range(1, n, 2)), _HUB_WOVEN)
    assert [d.render() for d in exc.value.diagnostics] == [
        f"<model>:0:0: OppositeMismatch e{i}.target lists h but h.incoming does not list e{i}"
        for i in range(0, n, 2)]
    doc = json.loads(_hub_doc(n, range(n)))  # odd edges retargeted to a hub g
    for edge in doc["objects"][2::2]:
        edge["slots"]["target"] = "@g"
    doc["roots"].append("@g")
    doc["objects"].append({"id": "g", "class": "Hub", "slots": {
        "incoming": [f"@e{i}" for i in range(1, n, 2)]}})
    with pytest.raises(TypecheckError) as exc:
        load_model(json.dumps(doc), _HUB_WOVEN)
    assert [d.render() for d in exc.value.diagnostics] == [
        f"<model>:0:0: OppositeMismatch h.incoming lists e{i} but e{i}.target does not list h"
        for i in range(1, n, 2)]


def test_opposite_check_reads_each_opposite_collection_once():
    """A hub with 1000 incoming edges: checking each edge's ``target``
    against the hub's ``incoming`` must not scan that collection once per
    edge.  Counting the lines conformance runs keeps the guard independent
    of speed (a scan per edge ran about a million)."""
    import sys

    n = 1000
    with pytest.raises(TypecheckError) as exc:
        load_model(_hub_doc(n, range(1, n)), _HUB_WOVEN)
    assert [d.render() for d in exc.value.diagnostics] == [
        "<model>:0:0: OppositeMismatch e0.target lists h but h.incoming does not list e0"]
    model = load_model(_hub_doc(n, range(n)), _HUB_WOVEN)
    lines = 0

    def count(frame, event, _arg):
        nonlocal lines
        lines += event == "line"
        return count

    sys.settrace(lambda frame, _event, _arg: count if frame.f_code.co_filename
                 == conformance_check.__code__.co_filename else None)
    try:
        found = conformance_check(model)
    finally:
        sys.settrace(None)
    assert found == []
    assert lines <= 100 * n, lines


def test_save_load_round_trip(fuml_woven):
    model = load_model((MODELS / "worksession.model").read_text(), fuml_woven)
    text = save_model(model)
    again = load_model(text, fuml_woven)
    assert again.fingerprint() == model.fingerprint()
    assert save_model(again) == text


SAVE_MM = """
metamodel keep {
  class Box {
    attr label: String; attr count: Int; attr flag: Bool;
    attr notes: String[*]; attr sizes: Int[*]; attr marks: Bool[*];
    ref items: Box[*] containment opposite owner;
    ref owner: Box[0..1] opposite items;
    ref peer: Box[0..1];
    ref seen: Box[*];
  }
}
"""

# quotes, backslashes, control and non-ASCII characters, and anything else
_TEXT = st.text(st.sampled_from('"\\/\x00\x1f\x7f\n\t\u2028é\U0001f600ab '), max_size=6) | st.text(max_size=6)
_INT = st.integers(-2**70, 2**70)


def _box(index: int):
    """Slot values for box ``index``; None leaves a slot at its default."""
    earlier = st.integers(0, index - 1)
    links = {
        "owner": st.none() | earlier,
        "peer": st.none() | earlier,
        "seen": st.none() | st.lists(earlier, max_size=3),
    } if index else {}
    return st.fixed_dictionaries({
        "label": st.none() | _TEXT.map(StringV),
        "count": st.none() | _INT.map(IntV),
        "flag": st.none() | st.booleans().map(BoolV),
        "notes": st.none() | st.lists(_TEXT.map(StringV), max_size=3),
        "sizes": st.none() | st.lists(_INT.map(IntV), max_size=3),
        "marks": st.none() | st.lists(st.booleans().map(BoolV), max_size=3),
        **links,
    })


@st.composite
def _box_models(draw, woven):
    model = ModelInstance(woven)
    boxes = []
    for index in range(draw(st.integers(0, 8))):
        box = create_instance(model, "Box")
        for fname, value in draw(_box(index)).items():
            if value is None:
                continue
            if fname in ("owner", "peer"):
                set_feature(model, box, fname, boxes[value])
            elif fname == "seen":
                set_feature(model, box, fname, Coll("OrderedSet", [boxes[i] for i in value]))
            elif isinstance(value, list):
                set_feature(model, box, fname, Coll("Sequence", value))
            else:
                set_feature(model, box, fname, value)
        boxes.append(box)
    return model


def reference_doc(model: ModelInstance) -> dict:
    """The document save_model writes, built as plain JSON data."""
    def encode(value):
        if isinstance(value, Coll):
            return [encode(x) for x in value.items]
        if isinstance(value, ObjRef):
            return "@" + value.id
        return value.i if isinstance(value, IntV) else value.b if isinstance(value, BoolV) else value.s

    objects = []
    for oid in sorted(model.objects):
        obj = model.objects[oid]
        plans = model.woven.classes[obj.class_name].slots
        slots = {fname: encode(value) for fname, value in obj.slots.items()
                 if value != default_value(plans[fname].feat)}
        objects.append({"id": oid, "class": obj.class_name, "slots": slots})
    return {"conformsTo": model.woven.package, "objects": objects,
            "roots": ["@" + r for r in model.roots]}


_SAVE_WOVEN = weave(mm=SAVE_MM)


@settings(deadline=None)
@given(_box_models(_SAVE_WOVEN))
def test_save_writes_the_canonical_json_text(model):
    text = save_model(model)
    assert text == json.dumps(reference_doc(model), indent=2, sort_keys=True) + "\n"
    assert save_model(load_model(text, _SAVE_WOVEN)) == text


def test_save_does_not_use_the_indenting_json_encoder(fuml_woven, monkeypatch):
    """json.dumps with an indent runs CPython's pure-Python encoder; making
    that encoder fail keeps this guard independent of the host's speed."""
    text, _stats = build_recursive_model(400)
    model = load_model(text, fuml_woven)

    def refuse(*args, **kwargs):
        raise AssertionError("the pure-Python JSON encoder ran")

    monkeypatch.setattr(json.encoder, "_make_iterencode", refuse)
    saved = save_model(model)
    monkeypatch.undo()
    assert load_model(saved, fuml_woven).fingerprint() == model.fingerprint()


def test_save_empty_model_is_canonical(fuml_woven):
    model = ModelInstance(fuml_woven)
    assert json.loads(save_model(model)) == {"conformsTo": "fuml", "objects": [], "roots": []}


def test_save_refuses_containment_cycle(fuml_woven):
    model = ModelInstance(fuml_woven)
    a = create_instance(model, "Activity")
    # hand-build a cycle behind the API's back
    obj = model.obj(a.id)
    obj.slots["node"].items.append(ObjRef(a.id))
    with pytest.raises(TypecheckError):
        save_model(model)


def test_a_model_is_checked_once_until_it_is_written(fuml_woven, monkeypatch):
    """A loaded model is saved without a second conformance check, and so
    is its clone; any write clears that, until a checked save."""
    import mashup.runtime as runtime

    calls = []
    check = runtime.conformance_check
    monkeypatch.setattr(runtime, "conformance_check", lambda *a: calls.append(1) or check(*a))

    def checks(run) -> int:
        calls.clear()
        run()
        return len(calls)

    model = load_model((MODELS / "worksession.model").read_text(), fuml_woven)
    assert calls == []
    text = save_model(model)
    assert checks(lambda: check_model(model)) == 0
    assert checks(lambda: eval_expr(parse_expr("self.name"), Interpreter(model), "o2")) == 0
    assert checks(lambda: save_model(model)) == 0
    assert checks(lambda: save_model(model.clone())) == 0
    # bump writes an attribute only, which generated code stores inline
    woven = weave(mm=TABLE_MM, act=TABLE_HEADER + "aspect class A {\n"
                  "  operation bump() : Void is do self.n := self.n + 1 end\n}\n")
    text = save_model(table_model(woven))
    writes = {
        "create_instance": lambda m: create_instance(m, "B"),
        "set_feature": lambda m: set_feature(m, "o1", "n", IntV(5)),
        "add_to_feature": lambda m: add_to_feature(m, "o2", "kids", ObjRef("o3")),
        "remove_from_feature": lambda m: remove_from_feature(m, "o2", "kids", ObjRef("o3")),
        "invoke": lambda m: invoke(m, "o1", "bump"),
        "eval_expr": lambda m: eval_expr(parse_expr("self.bump()"), Interpreter(m), "o1",
                                         pure=False),
    }
    for name, write in writes.items():
        edited = load_model(text, woven)
        write(edited)
        assert checks(lambda: save_model(edited)) == 1, name
        assert checks(lambda: save_model(edited)) == 0, name


def test_check_model_results(fuml_woven):
    good = load_model((MODELS / "worksession.model").read_text(), fuml_woven)
    assert all(r.status == "holds" for r in check_model(good))
    bad = load_model((MODELS / "worksession_badclassifier.model").read_text(), fuml_woven)
    flagged = [r for r in check_model(bad) if r.status != "holds"]
    assert [(r.status, r.invariant, r.obj_id) for r in flagged] == [
        ("violated", "fUML_is_class", "o7")
    ]


# fuml-lite with a many-valued attribute, so that clones share one of those too
_MARKS_WOVEN = weave(
    mm=(FUML / "fuml.mm").read_text(), inv=(FUML / "fuml.inv").read_text(),
    act=[(FUML / "fuml.act").read_text(),
         'package fuml;\nrequire "fuml.mm";\naspect class Activity { attr marks : Int[*]; }\n'])


def _edit_worksession(m: ModelInstance) -> None:
    """Run the activity, then write each kind of many-valued slot through
    every write of the model API, leaving the model conformant."""
    def refs(*ids):
        return Coll("OrderedSet", [ObjRef(i) for i in ids])

    invoke(m, ObjRef("o1"), "execute")
    set_feature(m, ObjRef("o1"), "name", StringV("changed"))
    # a plain reference (fuml.act's agenda)
    add_to_feature(m, "o1", "agenda", ObjRef("e3"))
    add_to_feature(m, "o1", "agenda", ObjRef("e1"))
    remove_from_feature(m, "o1", "agenda", ObjRef("e3"))
    set_feature(m, "o1", "agenda", refs("e7", "e1"))
    # a many-valued attribute
    add_to_feature(m, "o1", "marks", IntV(2))
    remove_from_feature(m, "o1", "marks", IntV(1))
    set_feature(m, "o1", "marks", Coll("Sequence", [IntV(5), IntV(5)]))
    # references with a single-valued opposite: e3 and e2 change source, e1 target
    add_to_feature(m, "o2", "outgoing", ObjRef("e3"))
    remove_from_feature(m, "o3", "outgoing", ObjRef("e2"))
    add_to_feature(m, "o4", "outgoing", ObjRef("e2"))
    set_feature(m, "o6", "incoming", refs("e5", "e4", "e1"))
    # containment: o2 moves to a new activity and out again, o1's nodes reorder
    other = create_instance(m, "Activity")
    add_to_feature(m, other, "node", ObjRef("o2"))
    remove_from_feature(m, other, "node", ObjRef("o2"))
    set_feature(m, "o1", "node", refs("o8", "o7", "o6", "o5", "o4", "o3", "o2"))


def test_clone_is_independent():
    """A clone shares the original's collections, and neither sees the
    other's writes, in either direction."""
    text = (MODELS / "worksession.model").read_text()
    for edited, kept in ((0, 1), (1, 0)):
        model = load_model(text, _MARKS_WOVEN)
        add_to_feature(model, "o1", "marks", IntV(1))
        set_feature(model, "o1", "agenda", Coll("OrderedSet", [ObjRef("e1"), ObjRef("e2")]))
        pair = (model, model.clone())
        saved, fingerprint = save_model(pair[kept]), pair[kept].fingerprint()
        _edit_worksession(pair[edited])
        assert save_model(pair[edited]) != saved  # conformant, and changed
        assert save_model(pair[kept]) == saved
        assert pair[kept].fingerprint() == fingerprint
        assert pair[kept].obj("o1").slots["name"] == StringV("WorkSessionActivity")
