from __future__ import annotations

import os
import random

import pytest
from hypothesis import given, settings, strategies as st

from helpers import DIAMOND, FUML, GOLDEN, parse_units, run_cli, weave
from mashup.behavior import AspectClass, BehaviorModule
from mashup.composer import (
    CompositionCase, ROOT_CLASS, SlotPlan, WovenClass, classify_pair, compose, emit_report,
    linearize, linearize_all, load_manifest, parse_manifest, resolve_method_conflicts,
    resolve_requires, validate_woven,
)
from mashup.contracts import parse_contracts
from mashup.diagnostics import CompositionError, UnitParseError
from mashup.metamodel import MetaClass, Metamodel, Reference
from mashup.runtime import default_value
from mashup.typecheck import build
from test_acceptance import _brute_force_lin

HEADER = 'package m;\nrequire "m.mm";\n'

# ---------------------------------------------------------------------------
# cases and unit resolution
# ---------------------------------------------------------------------------


def test_classify_pair_covers_all_cases():
    base = MetaClass("Activity")
    aspect = AspectClass("Activity")
    (contract,) = parse_contracts(HEADER + "aspect class Activity { inv i : true; }").contributions
    assert classify_pair(contract, aspect) is CompositionCase.KMT_KMT
    assert classify_pair(base, MetaClass("Activity")) is CompositionCase.ECORE_ECORE
    assert classify_pair(base, aspect) is CompositionCase.ECORE_KMT
    assert classify_pair(aspect, base) is CompositionCase.ECORE_KMT


def test_resolve_requires_loads_three_units_once(fuml):
    _manifest, units, _woven = fuml
    kinds = [type(u).__name__ for u in units]
    assert kinds == ["Metamodel", "ContractModule", "BehaviorModule"]
    # fuml.mm is required by the manifest and both aspect units, yet loads once


def test_metamodel_only_manifest_composes(tmp_path):
    (tmp_path / "m.mm").write_text("metamodel m { class A { } }")
    (tmp_path / "m.mashup").write_text('package m;\nrequire "m.mm";\n')
    _m, units, woven = build(str(tmp_path / "m.mashup"))
    assert len(units) == 1
    assert woven.classes["A"].method_table == {}
    assert woven.classes["A"].linearization == ("A", ROOT_CLASS)


def test_duplicate_manifest_requires_rejected():
    with pytest.raises(UnitParseError) as exc:
        parse_manifest('package p;\nrequire "a.mm";\nrequire "a.mm";\n')
    assert exc.value.diagnostics[0].code == "DuplicateRequire"


def test_equivalent_paths_load_once(tmp_path):
    (tmp_path / "m.mm").write_text("metamodel m { class A { } }")
    (tmp_path / "m.mashup").write_text(
        'package m;\nrequire "m.mm";\nrequire "./m.mm";\n'
    )
    _m, units, _w = build(str(tmp_path / "m.mashup"))
    assert len(units) == 1


def test_unit_required_three_times_is_read_once(fuml, monkeypatch):
    manifest = fuml[0]
    read = []

    def spy(path, *args, **kwargs):
        read.append(os.path.basename(path))
        return open(path, *args, **kwargs)

    monkeypatch.setattr("mashup.composer.open", spy, raising=False)
    resolve_requires(manifest)
    assert sorted(read) == ["fuml.act", "fuml.inv", "fuml.mm"]


def test_missing_unit_is_parse_stage_error(tmp_path):
    (tmp_path / "m.mashup").write_text('package m;\nrequire "ghost.mm";\n')
    manifest = parse_manifest((tmp_path / "m.mashup").read_text(), "m.mashup", str(tmp_path))
    with pytest.raises(UnitParseError) as exc:
        resolve_requires(manifest)
    assert exc.value.diagnostics[0].code == "UnitNotFound"


# ---------------------------------------------------------------------------
# compose
# ---------------------------------------------------------------------------


def test_fuml_weave_merges_all_three_concerns(fuml_woven):
    activity = fuml_woven.classes["Activity"]
    assert activity.method_table["execute"][0][0] == "Activity"
    coa = fuml_woven.classes["CreateObjectAction"]
    assert [(owner, inv.name) for owner, inv in coa.flat_invariants] == [
        ("CreateObjectAction", "fUML_is_class")
    ]
    # aspect-added features landed in the merged table
    assert activity.slots["halted"].owner == "Activity"
    assert activity.slots["agenda"].owner == "Activity"


def test_same_base_class_twice_is_forbidden():
    units = parse_units(mm=[
        "metamodel p { class Shared { } }",
        "metamodel p { class Shared { } }",
    ])
    with pytest.raises(CompositionError) as exc:
        compose(units)
    diag = exc.value.diagnostics[0]
    assert diag.code == "ForbiddenComposition"
    assert "u0.mm" in diag.message and "u1.mm" in diag.message


def test_case2_totality_regardless_of_members():
    rng = random.Random(5)
    prims = ["Int", "Bool", "String"]
    for _ in range(25):
        def render(n):
            attrs = "".join(
                f"attr f{i}: {rng.choice(prims)}; " for i in range(rng.randint(0, 3))
            )
            return f"metamodel p {{ class Shared {{ {attrs}}} }}"
        units = parse_units(mm=[render(0), render(1)])
        with pytest.raises(CompositionError):
            compose(units)


def test_aspect_must_reopen_a_declared_class():
    """An aspect of a name no metamodel declares is refused, positioned at
    its name, with the nearest declared class as a hint."""
    units = parse_units(
        mm="metamodel m { class Activity { } class Node { } }",
        act='package m;\nrequire "m.mm";\n'
            "aspect class Activty { operation id(x : Int) : Int is do return x end }",
        inv='package m;\nrequire "m.mm";\naspect class Helper { inv i : true; }',
    )
    with pytest.raises(CompositionError) as exc:
        compose(units)
    assert [d.render() for d in exc.value.diagnostics] == [
        "u0.inv:3:14: UnknownAspectTarget aspect targets unknown class Helper",
        "u0.act:3:14: UnknownAspectTarget aspect targets unknown class Activty; "
        "did you mean Activity?",
    ]


def test_unknown_supertype_is_composition_error():
    units = parse_units(
        mm="metamodel m { class A { } }",
        act='package m;\nrequire "m.mm";\naspect class A inherits Ghost { }',
    )
    with pytest.raises(CompositionError) as exc:
        compose(units)
    assert exc.value.diagnostics[0].code == "ResolutionError"


def test_aspect_added_supertype_cycle_detected():
    units = parse_units(
        mm="metamodel m { class A { } class B extends A { } }",
        act='package m;\nrequire "m.mm";\naspect class A inherits B { }',
    )
    with pytest.raises(CompositionError) as exc:
        compose(units)
    assert exc.value.diagnostics[0].code == "CycleError"


def test_feature_clash_between_units():
    units = parse_units(
        mm="metamodel m { class A { } }",
        act=[
            'package m;\nrequire "m.mm";\naspect class A { attr x: Int; }',
            'package m;\nrequire "m.mm";\naspect class A { attr x: Bool; }',
        ],
    )
    with pytest.raises(CompositionError) as exc:
        compose(units)
    assert [d.render() for d in exc.value.diagnostics] == [
        "u1.act:3:23: FeatureClash feature A.x is contributed by both u0.act and u1.act"]


def test_feature_clash_with_base_feature():
    units = parse_units(
        mm="metamodel m { class A { attr x: Int; } }",
        act='package m;\nrequire "m.mm";\naspect class A { attr x: Int; }',
    )
    with pytest.raises(CompositionError) as exc:
        compose(units)
    assert [d.render() for d in exc.value.diagnostics] == [
        "u0.act:3:23: FeatureClash feature x reaches A from both A and A"]


def test_feature_clash_across_hierarchy():
    units = parse_units(
        mm="metamodel m { class A { attr x: Int; } class B extends A { attr x: Int; } }",
    )
    with pytest.raises(CompositionError) as exc:
        compose(units)
    assert [d.render() for d in exc.value.diagnostics] == [
        "u0.mm:1:30: FeatureClash feature x reaches B from both B and A"]


def test_method_clash_between_units():
    units = parse_units(
        mm="metamodel m { class A { } }",
        act=[
            'package m;\nrequire "m.mm";\n'
            "aspect class A { operation f() : Void is do end }",
            'package m;\nrequire "m.mm";\n'
            "aspect class A { operation f() : Void is do end }",
        ],
    )
    with pytest.raises(CompositionError) as exc:
        compose(units)
    assert [d.render() for d in exc.value.diagnostics] == [
        "u1.act:3:28: FeatureClash method A.f is contributed by both u0.act and u1.act"]


# ---------------------------------------------------------------------------
# linearization
# ---------------------------------------------------------------------------


def test_linearize_supertype_free_class():
    assert linearize("C", {"C": ()}) == ("C", ROOT_CLASS)


def test_linearize_pin_hierarchy():
    graph = {
        "Pin": ("ObjectNode", "MultiplicityElement"),
        "ObjectNode": ("ActivityNode",),
        "MultiplicityElement": (),
        "ActivityNode": (),
    }
    assert linearize("Pin", graph) == (
        "Pin", "MultiplicityElement", "ObjectNode", "ActivityNode", ROOT_CLASS
    )


def test_linearize_diamond_keeps_last_occurrence():
    graph = {"D": ("B", "C"), "B": ("A",), "C": ("A",), "A": ()}
    assert linearize("D", graph) == ("D", "C", "B", "A", ROOT_CLASS)


def test_linearize_rejects_cycles():
    with pytest.raises(CompositionError) as exc:
        linearize("A", {"A": ("B",), "B": ("A",)})
    assert exc.value.diagnostics[0].code == "CycleError"


@st.composite
def _dags(draw):
    """A supertype DAG of up to 12 classes, declared in a random order."""
    names = [f"C{i}" for i in range(draw(st.integers(1, 12)))]
    graph = {
        name: tuple(draw(st.lists(st.sampled_from(names[i + 1:]), unique=True, max_size=3))
                    if names[i + 1:] else ())
        for i, name in enumerate(names)
    }
    return {name: graph[name] for name in draw(st.permutations(names))}


@settings(max_examples=150, deadline=None)
@given(_dags())
def test_linearize_all_matches_brute_force(graph):
    lins = linearize_all(graph)
    assert list(lins) == list(graph)
    for name in graph:
        assert lins[name] == _brute_force_lin(name, graph)


class _CountingGraph(dict):
    """A supertype graph that counts how often each class's entry is read."""

    def __init__(self, items):
        super().__init__(items)
        self.reads: dict[str, int] = {}

    def __getitem__(self, name):
        self.reads[name] = self.reads.get(name, 0) + 1
        return super().__getitem__(name)

    def get(self, name, default=None):
        self.reads[name] = self.reads.get(name, 0) + 1
        return super().get(name, default)


def test_linearize_all_reads_each_class_a_bounded_number_of_times():
    levels = 14
    graph = _CountingGraph({"L0A": (), "L0B": ()})
    for k in range(1, levels + 1):
        graph[f"L{k}A"] = (f"L{k - 1}A", f"L{k - 1}B")
        graph[f"L{k}B"] = (f"L{k - 1}B", f"L{k - 1}A")
    lins = linearize_all(graph)
    assert max(graph.reads.values()) <= 3
    assert lins[f"L{levels}A"][:3] == (f"L{levels}A", f"L{levels - 1}B", f"L{levels - 1}A")
    assert len(lins[f"L{levels}A"]) == 2 * levels + 2


# ---------------------------------------------------------------------------
# slot plans
# ---------------------------------------------------------------------------


def _declared_features(units) -> dict[str, list]:
    """Each class's own features, in the order compose declares them: the
    metamodel's, then the aspects' attributes, then their references."""
    base: dict[str, list] = {}
    attrs: dict[str, list] = {}
    refs: dict[str, list] = {}
    for unit in units:
        if isinstance(unit, Metamodel):
            for cls in unit.classes:
                base[cls.name] = list(cls.features())
        elif isinstance(unit, BehaviorModule):
            for aspect in unit.aspects:
                attrs.setdefault(aspect.class_name, []).extend(aspect.added_attributes)
                refs.setdefault(aspect.class_name, []).extend(aspect.added_references)
    return {name: base.get(name, []) + attrs.get(name, []) + refs.get(name, [])
            for name in {**base, **attrs, **refs}}


def _assert_slot_plans(woven, units):
    """Every class's slot plans against the units' features along its
    linearization."""
    names = list(woven.classes)
    declared = _declared_features(units)
    for wc in woven.classes.values():
        expected = {feat.name: (feat, owner)
                    for owner in wc.linearization for feat in declared.get(owner, ())}
        assert list(wc.slots) == list(expected)
        assert [sp.name for sp in wc.save_order] == sorted(wc.slots)
        assert wc.links == tuple(
            sp for sp in wc.slots.values() if isinstance(sp.feat, Reference)
            and (sp.feat.opposite is not None or sp.feat.containment))
        assert wc.fresh_slots() == {
            fname: default_value(feat) for fname, (feat, _owner) in expected.items()}
        for fname, (feat, owner) in expected.items():
            sp = wc.slots[fname]
            assert sp.feat is feat and sp.owner == owner
            assert woven.feature(wc.name, fname) is sp
            if not isinstance(feat, Reference):
                assert sp.targets is None
                continue
            for name in names + [feat.target]:
                assert (sp.targets is None or name in sp.targets) == woven.conforms(
                    name, feat.target), (wc.name, fname, name)


@pytest.mark.parametrize("manifest", [
    FUML / "fuml.mashup", DIAMOND / "diamond.mashup", DIAMOND / "diamond_renamed.mashup",
], ids=lambda path: path.name)
def test_slot_plans_of_the_example_languages(manifest):
    units = resolve_requires(load_manifest(str(manifest)))
    _assert_slot_plans(compose(units), units)


_BOUNDS = st.sampled_from(["", "[0..1]", "[1..1]", "[*]", "[2..*]"])


@st.composite
def _languages(draw):
    """A metamodel over a random class DAG, with attributes, references with
    and without containment, opposite pairs, and an aspect reference to the
    root or to a class no unit declares."""
    graph = draw(_dags())
    names = list(graph)
    members: dict[str, list[str]] = {name: [] for name in names}
    for i, name in enumerate(names):
        for k in range(draw(st.integers(0, 2))):
            kind = draw(st.sampled_from(["Int", "Bool", "String"]))
            members[name].append(f"attr a{i}_{k}: {kind}{draw(_BOUNDS)};")
        for k in range(draw(st.integers(0, 2))):
            target = draw(st.sampled_from(names))
            containment = " containment" if draw(st.booleans()) else ""
            members[name].append(f"ref r{i}_{k}: {target}{draw(_BOUNDS)}{containment};")
    for k in range(draw(st.integers(0, 3))):
        a, b = draw(st.sampled_from(names)), draw(st.sampled_from(names))
        containment = " containment" if draw(st.booleans()) else ""
        members[a].append(f"ref p{k}: {b}{draw(_BOUNDS)}{containment} opposite q{k};")
        members[b].append(f"ref q{k}: {a}{draw(_BOUNDS)} opposite p{k};")
    mm = "metamodel g {\n" + "".join(
        f"  class {name}{' extends ' + ', '.join(supers) if supers else ''} "
        f"{{ {' '.join(members[name])} }}\n" for name, supers in graph.items()) + "}\n"
    act = (f'package g;\nrequire "g.mm";\naspect class {draw(st.sampled_from(names))} '
           f"{{ ref extra: {draw(st.sampled_from(['Root', 'Ghost'] + names))}[*]; }}\n")
    return mm, act


@settings(max_examples=100, deadline=None)
@given(_languages())
def test_slot_plans_agree_with_the_woven_model(language):
    mm, act = language
    units = parse_units(mm=mm, act=act)
    _assert_slot_plans(compose(units), units)


def test_linearization_wellformed_in_fixture(fuml_woven):
    for name, wc in fuml_woven.classes.items():
        lin = wc.linearization
        assert lin[0] == name and lin[-1] == ROOT_CLASS
        assert len(set(lin)) == len(lin)
        for sup in wc.supertypes:
            assert lin.count(sup) == 1
            assert lin.index(name) < lin.index(sup)


# ---------------------------------------------------------------------------
# conflicts and renaming
# ---------------------------------------------------------------------------

DIAMOND_MM = "metamodel d { class A { } class B extends A { } class C extends A { } class D extends B, C { } }"
DIAMOND_ACT = (
    'package d;\nrequire "d.mm";\n'
    'aspect class B { operation run() : Void is do self.trace("B") end }\n'
    'aspect class C { operation run() : Void is do self.trace("C") end }\n'
)


def test_unrelated_definitions_are_ambiguous():
    woven = compose(parse_units(mm=DIAMOND_MM, act=DIAMOND_ACT))
    d = woven.classes["D"]
    assert "run" in d.ambiguous_ops
    diags = resolve_method_conflicts(d, woven)
    assert diags and diags[0].code == "AmbiguousMethod"


def test_renaming_splits_the_table():
    woven = weave(
        mm=DIAMOND_MM,
        act=[DIAMOND_ACT, 'package d;\nrequire "d.mm";\n'
             "aspect class D { rename run from C as runC; }"],
    )
    d = woven.classes["D"]
    assert d.ambiguous_ops == frozenset()
    assert d.method_table["run"][0][0] == "B"
    assert d.method_table["runC"][0][0] == "C"


def test_renamed_operation_is_callable_from_dsl_code():
    woven = weave(
        mm=DIAMOND_MM,
        act=[DIAMOND_ACT, 'package d;\nrequire "d.mm";\n'
             "aspect class D {\n"
             "  rename run from C as runC;\n"
             "  operation both() : Void is do\n"
             "    self.run()\n"
             "    self.runC()\n"
             "  end\n"
             "}"],
    )
    assert woven.classes["D"].op_sigs["runC"][1] == "C"


def test_renamed_signature_is_validated_where_its_body_is_declared():
    # once each, at the class declaring it: D's run and runC are B's and C's
    act = DIAMOND_ACT.replace("run()", "run(g : Ghost)")
    woven = compose(parse_units(mm=DIAMOND_MM, act=[
        act, 'package d;\nrequire "d.mm";\naspect class D { rename run from C as runC; }']))
    assert [d.render() for d in validate_woven(woven)] == [
        "u0.act:3:28: ClosureError operation B.run mentions unknown class Ghost",
        "u0.act:4:28: ClosureError operation C.run mentions unknown class Ghost"]


def test_compose_reports_each_bad_declaration_once(tmp_path):
    for name in os.listdir(DIAMOND):
        text = (DIAMOND / name).read_text()
        (tmp_path / name).write_text(text.replace("run()", "run(g : Ghost)"))
    code, out, err = run_cli("compose", "--manifest", str(tmp_path / "diamond_renamed.mashup"))
    assert (code, out) == (2, "")
    assert err.splitlines() == [
        "diamond.act:6:13: ClosureError operation B.run mentions unknown class Ghost",
        "diamond.act:12:13: ClosureError operation C.run mentions unknown class Ghost"]


def test_a_renamed_away_operation_keeps_the_signature_of_the_body_it_runs(tmp_path):
    # D's run runs B's body, so a call is checked against B's signature, not
    # against C's, which the renaming took away as runC
    for name in os.listdir(DIAMOND):
        (tmp_path / name).write_text((DIAMOND / name).read_text())
    act = tmp_path / "diamond.act"
    act.write_text(act.read_text().replace(
        "aspect class B {\n  operation run() :", "aspect class B {\n  operation run(x : Int) :"))
    rename = tmp_path / "diamond_rename.act"
    rename.write_text(rename.read_text().replace(
        "rename run from C as runC;",
        "rename run from C as runC;\n  operation go() : Void is do\n    self.run()\n  end"))
    (tmp_path / "d.model").write_text('{"conformsTo": "diamond", "objects": '
                                      '[{"id": "d", "class": "D", "slots": {}}], "roots": ["@d"]}')
    code, out, err = run_cli("run", "--manifest", str(tmp_path / "diamond_renamed.mashup"),
                             "--model", str(tmp_path / "d.model"), "--entry", "D.go")
    assert (code, out) == (3, "")
    assert err == "diamond_rename.act:9:10: ArityMismatch run expects 1 argument(s), found 0\n"
    woven = compose(resolve_requires(load_manifest(str(tmp_path / "diamond_renamed.mashup"))))
    d = woven.classes["D"]
    assert d.op_sigs["run"][1] == "B" and [p.name for p in d.op_sigs["run"][0].params] == ["x"]
    assert d.op_sigs["runC"][1] == "C" and d.op_sigs["runC"][0].params == ()


def test_override_along_one_chain_is_not_ambiguous():
    woven = weave(
        mm="metamodel m { class B { } class D extends B { } }",
        act='package m;\nrequire "m.mm";\n'
            "aspect class B { operation run() : Void is do end }\n"
            "aspect class D { method run() : Void is do end }",
    )
    d = woven.classes["D"]
    assert d.ambiguous_ops == frozenset()
    assert d.method_table["run"][0][0] == "D"


def test_own_definition_resolves_diamond():
    woven = weave(
        mm=DIAMOND_MM,
        act=[DIAMOND_ACT, 'package d;\nrequire "d.mm";\n'
             "aspect class D { method run() : Void is do end }"],
    )
    assert woven.classes["D"].ambiguous_ops == frozenset()


def test_rename_from_non_supertype_fails():
    units = parse_units(
        mm=DIAMOND_MM,
        act=[DIAMOND_ACT, 'package d;\nrequire "d.mm";\n'
             "aspect class B { rename run from C as runC; }"],
    )
    with pytest.raises(CompositionError) as exc:
        compose(units)
    assert exc.value.diagnostics[0].code == "RenameTargetMissing"


def test_rename_of_missing_operation_fails():
    units = parse_units(
        mm=DIAMOND_MM,
        act=[DIAMOND_ACT, 'package d;\nrequire "d.mm";\n'
             "aspect class D { rename walk from C as walkC; }"],
    )
    with pytest.raises(CompositionError):
        compose(units)


# ---------------------------------------------------------------------------
# contract flattening
# ---------------------------------------------------------------------------

FLAT_MM = "metamodel f { class Super { attr x: Int; } class Sub extends Super { } }"
FLAT_ACT = (
    'package f;\nrequire "f.mm";\n'
    "aspect class Super { operation m(v : Int) : Int is do return v end }"
)


def test_preconditions_group_per_level_subclass_first():
    woven = weave(
        mm=FLAT_MM, act=FLAT_ACT,
        inv='package f;\nrequire "f.mm";\n'
            "aspect class Super { pre pS on m : v >= 10; }\n"
            "aspect class Sub { pre pT on m : v >= 20; pre pU on m : v <= 90; }",
    )
    groups = woven.classes["Sub"].flat_pre["m"]
    assert [owner for owner, _clauses in groups] == ["Sub", "Super"]
    assert [c.name for c in groups[0][1]] == ["pT", "pU"]  # one level conjoins
    assert [c.name for c in groups[1][1]] == ["pS"]


def test_postconditions_conjoin_across_levels():
    woven = weave(
        mm=FLAT_MM, act=FLAT_ACT,
        inv='package f;\nrequire "f.mm";\n'
            "aspect class Super { post qS on m : result >= 0; }\n"
            "aspect class Sub { post qT on m : result >= 5; }",
    )
    clauses = woven.classes["Sub"].flat_post["m"]
    assert [(owner, c.name) for owner, c in clauses] == [("Sub", "qT"), ("Super", "qS")]


def test_contract_free_ancestry_keeps_own_contracts():
    woven = weave(
        mm=FLAT_MM, act=FLAT_ACT,
        inv='package f;\nrequire "f.mm";\naspect class Sub { inv own : self.x >= 0; }',
    )
    assert [(o, i.name) for o, i in woven.classes["Sub"].flat_invariants] == [("Sub", "own")]
    assert woven.classes["Super"].flat_invariants == ()


def test_subclass_invariants_superset_of_super():
    woven = weave(
        mm=FLAT_MM, act=FLAT_ACT,
        inv='package f;\nrequire "f.mm";\n'
            "aspect class Super { inv a : true; inv b : self.x >= 0; }\n"
            "aspect class Sub { inv c : true; }",
    )
    sup = {(o, i.name) for o, i in woven.classes["Super"].flat_invariants}
    sub = {(o, i.name) for o, i in woven.classes["Sub"].flat_invariants}
    assert sup <= sub and ("Sub", "c") in sub


# ---------------------------------------------------------------------------
# aspect weaving (composition case 1)
# ---------------------------------------------------------------------------

# units -> the first clash compose reports, at the later of the two members
ASPECT_CLASHES = {
    "invariant across constraint units": (
        dict(inv=[HEADER + "aspect class A { inv i : true; }",
                  HEADER + "aspect class A {\n  inv i : false; }"]),
        "u1.inv:4:7: FeatureClash invariant A.i is contributed by both u0.inv and u1.inv"),
    "pre and post of one name and operation": (
        dict(inv=[HEADER + "aspect class A { pre p on f : true; }",
                  HEADER + "aspect class A {\n  post p on f : true; }"]),
        "u1.inv:4:8: FeatureClash condition A.p on f is contributed by both u0.inv and u1.inv"),
    "two aspects of one class in one unit": (
        dict(act=HEADER + "aspect class A { attr x: Int; }\naspect class A { attr x: Int; }"),
        "u0.act:4:23: FeatureClash feature A.x is contributed by both u0.act and u0.act"),
    "the earlier unit's clash is reported": (
        dict(act=[HEADER + "aspect class A { attr x: Int; operation f() : Void is do end }",
                  HEADER + "aspect class A {\n  operation f() : Void is do end }",
                  HEADER + "aspect class A {\n  attr x: Int; }"]),
        "u1.act:4:13: FeatureClash method A.f is contributed by both u0.act and u1.act"),
    "features are checked before methods": (
        dict(act=[HEADER + "aspect class A { attr x: Int; operation f() : Void is do end }",
                  HEADER + "aspect class A {\n  operation f() : Void is do end\n"
                           "  attr x: Int; }"]),
        "u1.act:5:8: FeatureClash feature A.x is contributed by both u0.act and u1.act"),
    "invariants are checked before conditions": (
        dict(inv=[HEADER + "aspect class A { inv i : true; pre p on f : true; }",
                  HEADER + "aspect class A {\n  pre p on f : true;\n  inv i : true; }"]),
        "u1.inv:5:7: FeatureClash invariant A.i is contributed by both u0.inv and u1.inv"),
    "a repeat inside one aspect": (
        dict(act=HEADER + "aspect class A {\n  attr x: Int;\n  attr x: Int; }"),
        "u0.act:5:8: FeatureClash feature x reaches A from both A and A"),
}


@pytest.mark.parametrize("case", ASPECT_CLASHES)
def test_aspect_clash_reports_the_first_clash(case):
    units, expected = ASPECT_CLASHES[case]
    with pytest.raises(CompositionError) as exc:
        compose(parse_units(mm="metamodel m { class A { } }", **units))
    assert [d.render() for d in exc.value.diagnostics] == [expected]


def test_supertype_and_unit_of_several_aspects_are_kept_once():
    woven = weave(
        mm="metamodel m { class A { } class B { } class C { } }",
        act=[HEADER + "aspect class A inherits B { }\naspect class A { }",
             HEADER + "aspect class A inherits C, B { }"],
    )
    assert woven.classes["A"].supertypes == ("B", "C")
    assert woven.aspect_units["A"] == ("u0.act", "u1.act")


# One aspect of K, member by member: each act member is (supertype, None)
# or (None, member text).
SPLIT_MM = "metamodel m { class S { op f(x: Int): Int; } class T { } class U { } class K { } }"
SPLIT_ACT = (
    ("S", None), (None, "attr a: Int;"), (None, "ref r: T[*];"), ("T", None),
    (None, "attr b: Bool;"), (None, "operation g() : Void is do end"),
    (None, "method f(x : Int) : Int is do return x end"),
    (None, "rename f from S as fS;"), ("U", None), (None, "ref s: U[0..1];"),
)
SPLIT_INV = ("inv i1 : true;", "pre p1 on f : x > 0;", "post q1 on f : result >= 0;",
             "inv i2 : self.a >= 0;", "pre p2 on f : x < 10;", "post q2 on f : true;")
SPLIT_BASE = HEADER + "aspect class S { method f(x : Int) : Int is do return x + 1 end }\n"


def _splits(members):
    """``members`` cut into one, two or three non-empty runs, in order."""
    n = len(members)
    yield [members]
    for i in range(1, n):
        yield [members[:i], members[i:]]
        for j in range(i + 1, n):
            yield [members[:i], members[i:j], members[j:]]


def _act_unit(part) -> str:
    supers = [s for s, _m in part if s]
    head = "aspect class K" + (" inherits " + ", ".join(supers) if supers else "")
    return HEADER + head + " {\n" + "\n".join(m for _s, m in part if m) + "\n}\n"


def _woven_table(woven):
    wc = woven.classes["K"]
    return ([(sp.name, sp.owner, sp.feat) for sp in wc.slots.values()], wc.supertypes,
            wc.linearization, wc.op_sigs, wc.method_table, wc.raw_definers,
            wc.flat_invariants, wc.flat_pre, wc.flat_post)


def test_aspect_split_over_units_weaves_as_one_unit():
    def woven(act_parts, inv_parts):
        acts = [_act_unit(part) for part in act_parts]
        acts[0] = SPLIT_BASE + acts[0].removeprefix(HEADER)
        invs = [HEADER + "aspect class K {\n" + "\n".join(part) + "\n}\n"
                for part in inv_parts]
        return _woven_table(compose(parse_units(mm=SPLIT_MM, inv=invs, act=acts)))

    whole = woven([SPLIT_ACT], [SPLIT_INV])
    assert [n for n, _o, _f in whole[0]] == ["a", "b", "r", "s"]
    assert whole[1] == ("S", "T", "U") and "fS" in whole[4]
    assert [len(groups) for groups in whole[7].values()] == [1]
    for act_parts in _splits(SPLIT_ACT):
        for inv_parts in _splits(SPLIT_INV):
            assert woven(act_parts, inv_parts) == whole, (act_parts, inv_parts)


# ---------------------------------------------------------------------------
# report and validation
# ---------------------------------------------------------------------------


def test_emit_report_matches_golden(fuml_woven):
    expected = (GOLDEN / "fuml_report.txt").read_text()
    assert emit_report(fuml_woven) == expected


def test_emit_report_deterministic(fuml):
    _m, _u, first = fuml
    _m2, _u2, second = build(str(FUML / "fuml.mashup"))
    assert emit_report(first) == emit_report(second)


def test_emit_metamodel_only_has_no_rich_entries():
    woven = weave(mm="metamodel m { class A { } }")
    report = emit_report(woven)
    assert "rich classes: 0" in report and "Rich" not in report.splitlines()[-1]


def test_emit_lists_aspect_units_in_require_order():
    woven = weave(
        mm="metamodel m { class A { } }",
        inv='package m;\nrequire "m.mm";\naspect class A { inv i : true; }',
        act='package m;\nrequire "m.mm";\n'
            "aspect class A { operation f() : Void is do end }",
    )
    report = emit_report(woven)
    line = next(l for l in report.splitlines() if l.startswith("RichA ="))
    assert line == "RichA = ABase with AAspect<u0.inv> with AAspect<u0.act>"
    assert "factory: createA -> RichA" in report


def test_validate_woven_fixture_clean(fuml_woven):
    assert validate_woven(fuml_woven) == []


def test_validate_woven_flags_duplicate_linearization(fuml_woven):
    broken = WovenClass(
        name="X", is_abstract=False, supertypes=(),
        linearization=("X", "X", ROOT_CLASS),
    )
    import copy
    woven = copy.copy(fuml_woven)
    woven.classes = dict(fuml_woven.classes)
    woven.classes["X"] = broken
    assert any(d.code == "BadLinearization" for d in validate_woven(woven))


def test_validate_woven_flags_unknown_target(fuml_woven):
    broken = WovenClass(
        name="X", is_abstract=False, supertypes=(),
        linearization=("X", ROOT_CLASS),
        slots={"r": SlotPlan(Reference("r", "Ghost"), "X", "x.mm", {})},
    )
    import copy
    woven = copy.copy(fuml_woven)
    woven.classes = dict(fuml_woven.classes)
    woven.classes["X"] = broken
    assert any(d.code == "ClosureError" for d in validate_woven(woven))


def test_compose_requires_a_metamodel():
    units = parse_units(act='package p;\nrequire "p.mm";\naspect class A { }')
    with pytest.raises(CompositionError) as exc:
        compose(units)
    assert exc.value.diagnostics[0].code == "NoMetamodel"
