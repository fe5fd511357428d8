from __future__ import annotations

import pytest

from helpers import FUML
from mashup.diagnostics import CompositionError, UnitParseError
from mashup.metamodel import (
    Attribute, Bounds, MetaClass, Metamodel, Reference, parse_metamodel, pretty_print,
)
from mashup.typecheck import build_units

ACTIVITY_MM = """
metamodel fuml {
  class Activity {
    attr name: String;
    ref node: ActivityNode[*] containment;
  }
  abstract class ActivityNode {
  }
}
"""


def test_parse_activity_with_containment():
    mm = parse_metamodel(ACTIVITY_MM)
    activity = mm.class_named("Activity")
    assert len(activity.attributes) == 1
    assert activity.attributes[0].name == "name"
    assert activity.attributes[0].type == "String"
    ref = activity.references[0]
    assert ref.name == "node" and ref.target == "ActivityNode"
    assert ref.containment and ref.bounds.many
    assert mm.class_named("ActivityNode").is_abstract


def test_parse_empty_metamodel():
    mm = parse_metamodel("metamodel empty { }")
    assert mm.classes == ()


def _build_codes(mm: Metamodel) -> list[str]:
    """The codes of what building ``mm`` alone reports; [] if it builds."""
    try:
        build_units([mm])
    except CompositionError as exc:
        return [d.code for d in exc.diagnostics]
    return []


def test_dangling_supertype_is_resolution_error():
    mm = parse_metamodel("metamodel m { class A extends B { } }")
    with pytest.raises(CompositionError) as exc:
        build_units([mm])
    assert any(d.code == "ResolutionError" and "B" in d.message
               for d in exc.value.diagnostics)


def test_two_cycle_is_cycle_error():
    mm = Metamodel("m", (
        MetaClass("A", supertypes=("B",)),
        MetaClass("B", supertypes=("A",)),
    ))
    assert "CycleError" in _build_codes(mm)


def test_non_mutual_opposite_reported():
    mm = Metamodel("m", (
        MetaClass("A", references=(Reference("r", "B", opposite="s"),)),
        MetaClass("B", references=(
            Reference("s", "A", opposite="t"),
            Reference("t", "A"),
        )),
    ))
    assert "OppositeMismatch" in _build_codes(mm)


def test_containment_opposite_pair_rejected():
    mm = Metamodel("m", (
        MetaClass("A", references=(Reference("r", "B", containment=True, opposite="s"),)),
        MetaClass("B", references=(Reference("s", "A", containment=True, opposite="r"),)),
    ))
    assert "ContainmentOpposite" in _build_codes(mm)


def test_fixture_metamodel_is_clean():
    mm = parse_metamodel((FUML / "fuml.mm").read_text(), "fuml.mm")
    assert _build_codes(mm) == []


def test_duplicate_class_and_feature_reported():
    # a repeated class stops the build before its features are woven, so
    # each repetition is built on its own
    duplicate_class = Metamodel("m", (MetaClass("A"), MetaClass("A")))
    duplicate_feature = Metamodel("m", (
        MetaClass("A", attributes=(Attribute("x", "Int"), Attribute("x", "Bool"))),
    ))
    assert _build_codes(duplicate_class) == ["ForbiddenComposition"]
    assert _build_codes(duplicate_feature) == ["FeatureClash"]


def test_bad_bounds_reported():
    mm = Metamodel("m", (
        MetaClass("A", attributes=(Attribute("x", "Int", Bounds(0, 2)),)),
        MetaClass("B", attributes=(Attribute("y", "Int", Bounds(2, 1)),)),
    ))
    assert _build_codes(mm).count("BoundsError") >= 2


def test_print_parse_round_trip_fixture():
    mm = parse_metamodel((FUML / "fuml.mm").read_text(), "fuml.mm")
    again = parse_metamodel(pretty_print(mm), "fuml.mm")
    assert _build_codes(again) == []
    assert again == mm


def test_print_parse_round_trip_with_signatures():
    text = """
metamodel m {
  class A {
    attr k: Int[1..1];
    attr tags: String[*];
    ref next: A[0..1] opposite prev;
    ref prev: A[0..1] opposite next;
    op tick(step: Int): Bool;
    op reset();
  }
}
"""
    mm = parse_metamodel(text)
    assert parse_metamodel(pretty_print(mm)) == mm


def test_supertype_relation_is_strict_partial_order():
    mm = parse_metamodel((FUML / "fuml.mm").read_text(), "fuml.mm")
    direct = {c.name: set(c.supertypes) for c in mm.classes}
    closure = {name: set(sups) for name, sups in direct.items()}
    changed = True
    while changed:
        changed = False
        for name in closure:
            extra = set()
            for sup in closure[name]:
                extra |= closure.get(sup, set())
            if not extra <= closure[name]:
                closure[name] |= extra
                changed = True
    for name, sups in closure.items():
        assert name not in sups  # irreflexive transitive closure


def test_opposite_resolution_is_involution():
    mm = parse_metamodel((FUML / "fuml.mm").read_text(), "fuml.mm")
    refs = {(c.name, r.name): r for c in mm.classes for r in c.references}
    for (owner, _name), ref in refs.items():
        if ref.opposite is None:
            continue
        opp = refs[(ref.target, ref.opposite)]
        assert opp.opposite == ref.name and opp.target == owner


def _random_metamodel_text(rng) -> str:
    count = rng.randint(1, 6)
    names = [f"K{i}" for i in range(count)]
    rendered = []
    for i, name in enumerate(names):
        pool = names[i + 1:]
        supers = rng.sample(pool, k=min(len(pool), rng.randint(0, 2)))
        members = []
        # feature names are unique across classes, so no subclass inherits a
        # clash
        for j in range(rng.randint(0, 3)):
            mult = rng.choice(["", "[*]", "[1..1]", "[0..1]"])
            members.append(f"attr a{i}_{j}: {rng.choice(['Int', 'Bool', 'String'])}{mult};")
        for j in range(rng.randint(0, 2)):
            members.append(f"ref r{i}_{j}: {rng.choice(names)}[*];")
        for j in range(rng.randint(0, 2)):
            ret = rng.choice([": Int", ": Bool", ": Sequence<String>", ""])
            members.append(f"op f{j}(x: Int, y: {name}){ret};")
        head = "abstract class " if rng.random() < 0.3 else "class "
        ext = f" extends {', '.join(supers)}" if supers else ""
        rendered.append(f"{head}{name}{ext} {{ {' '.join(members)} }}")
    return "metamodel rnd { " + " ".join(rendered) + " }"


def test_round_trip_on_random_metamodels():
    import random

    rng = random.Random(42)
    for _ in range(40):
        mm = parse_metamodel(_random_metamodel_text(rng))
        again = parse_metamodel(pretty_print(mm))
        assert again == mm
        assert _build_codes(again) == []


def test_duplicate_params_reported():
    mm = parse_metamodel("metamodel m { class A { op f(x: Int, x: Bool); } }")
    assert _build_codes(mm) == ["DuplicateParam"]


def test_syntax_error_carries_position():
    with pytest.raises(UnitParseError) as exc:
        parse_metamodel("metamodel m {\n  class {\n}", "bad.mm")
    diag = exc.value.diagnostics[0]
    assert diag.code == "SyntaxError" and diag.unit == "bad.mm"
    assert diag.pos.line == 2
