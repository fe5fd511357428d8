"""Tests of the benchmark's generators, reference checks and fuml-lite."""

from __future__ import annotations

import os

import pytest

import gen
import reference
from mashup.composer import (
    compose, emit_report, load_manifest, resolve_method_conflicts, resolve_requires,
    validate_woven,
)
from mashup.diagnostics import EvalFault
from mashup.exprs import ObjRef, StringV
from mashup.runtime import (
    NodeExecuted, add_to_feature, check_model, conformance_check, create_instance,
    invoke, load_model, remove_from_feature, save_model, set_feature,
)
from mashup.typecheck import typecheck_units

FUML = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                    "fuml-lite", "fuml.mashup")


def build(manifest_path):
    manifest = load_manifest(manifest_path)
    units = resolve_requires(manifest)
    woven = compose(units, manifest.package)
    problems = validate_woven(woven)
    for wc in woven.classes.values():
        problems.extend(resolve_method_conflicts(wc, woven))
    problems.extend(typecheck_units(units, woven))
    return units, woven, problems


@pytest.fixture(scope="module")
def woven():
    _units, woven, problems = build(FUML)
    assert problems == []
    return woven


def write_language(tmp_path, lang):
    for name, text in lang["files"].items():
        (tmp_path / name).write_text(text)
    return str(tmp_path / lang["manifest"])


def reference_lins(manifest_path):
    folder = os.path.dirname(manifest_path)
    texts = [open(os.path.join(folder, n)).read() for n in sorted(os.listdir(folder))]
    supers = reference.supertypes_of(texts)
    return {name: reference.linearization(name, supers) for name in supers}


def run_session(model, plan):
    """Apply a plan through the assignment API; returns the refused count."""
    made, refused = [], 0
    fns = {"add": add_to_feature, "remove": remove_from_feature, "set": set_feature}
    for step in plan:
        if step[0] == "create":
            made.append(create_instance(model, step[1]))
            continue
        owner = ObjRef(step[1][1]) if step[1][0] == "ref" else made[step[1][1]]
        tag, raw = step[3]
        value = ObjRef(raw) if tag == "ref" else made[raw] if tag == "new" else StringV(raw)
        try:
            fns[step[0]](model, owner, step[2], value)
        except EvalFault as fault:
            assert fault.kind == "UpperBoundExceeded"
            refused += 1
    return refused


# ---------------------------------------------------------------------------
# generators are deterministic for each seed
# ---------------------------------------------------------------------------


def test_activity_model_is_deterministic():
    a, b = gen.activity_model(5, 300, planted=2), gen.activity_model(5, 300, planted=2)
    assert a["text"] == b["text"] and a["preds"] == b["preds"] and a["planted"] == b["planted"]
    assert gen.activity_model(6, 300, planted=2)["text"] != a["text"]
    assert abs(a["elements"] - 300) < 15


def test_synthetic_language_is_deterministic():
    a, b = gen.synthetic_language(3, 100, 10), gen.synthetic_language(3, 100, 10)
    assert a["files"] == b["files"]
    assert gen.synthetic_language(4, 100, 10)["files"] != a["files"]
    assert a["classes"] == 100


def test_edit_plan_is_deterministic():
    doc = gen.activity_model(2, 200, activities=2)["doc"]
    assert gen.edit_plan(9, doc, 50) == gen.edit_plan(9, doc, 50)
    assert gen.edit_plan(10, doc, 50) != gen.edit_plan(9, doc, 50)


def test_large_activity_needs_no_recursion():
    model = gen.activity_model(1, 20000)
    assert model["elements"] >= 20000


# ---------------------------------------------------------------------------
# fuml-lite
# ---------------------------------------------------------------------------


def test_fuml_lite_composes_and_typechecks_cleanly(woven):
    assert len(woven.classes) == 16
    assert not woven.conforms("Activity", "Class")
    assert emit_report(woven).count("\nRich") == 7


def test_fuml_lite_runs_both_schedules(woven):
    model = gen.activity_model(11, 200)
    loaded = load_model(model["text"], woven)
    orders = []
    for op in ("execute", "executeReverse"):
        _r, env = invoke(loaded.clone(), ObjRef("a1"), op)
        labels = [e.label for e in env.trace if isinstance(e, NodeExecuted)]
        assert reference.check_execute(labels, model["labels"]["a1"], model["preds"]["a1"]) == []
        orders.append(labels)
    assert orders[0] != orders[1]


# ---------------------------------------------------------------------------
# reference checks accept right outputs and reject corrupted ones
# ---------------------------------------------------------------------------


def test_build_check_rejects_a_wrong_linearization(tmp_path):
    manifest = write_language(tmp_path, gen.synthetic_language(8, 80, 10))
    _units, woven, problems = build(manifest)
    lins = {name: wc.linearization for name, wc in woven.classes.items()}
    expected = reference_lins(manifest)
    assert reference.check_build(lins, expected, problems) == []
    lins["L3A"] = (lins["L3A"][0], lins["L3A"][2], lins["L3A"][1]) + lins["L3A"][3:]
    assert reference.check_build(lins, expected, problems) != []
    assert reference.check_build({}, expected, []) != []
    assert reference.check_build(expected, expected, ["x.mm:1:1: Oops"]) != []


def test_execute_check_rejects_a_swapped_or_short_trace(woven):
    model = gen.activity_model(12, 150)
    _r, env = invoke(load_model(model["text"], woven), ObjRef("a1"), "execute")
    labels = [e.label for e in env.trace if isinstance(e, NodeExecuted)]
    want, preds = model["labels"]["a1"], model["preds"]["a1"]
    assert reference.check_execute(labels, want, preds) == []
    swapped = [labels[-1]] + labels[1:-1] + [labels[0]]  # final first
    assert reference.check_execute(swapped, want, preds) != []
    assert reference.check_execute(labels[:-1], want, preds) != []


def test_ingest_check_rejects_a_dropped_violation_or_changed_text(woven):
    model = gen.activity_model(13, 400, planted=3)
    loaded = load_model(model["text"], woven)
    results = check_model(loaded)
    violated = [(r.invariant, r.obj_id) for r in results if r.status == "violated"]
    saved = save_model(loaded)
    args = (model["planted"], model["text"])
    assert reference.check_ingest(violated, 0, saved, *args) == []
    assert reference.check_ingest(violated[1:], 0, saved, *args) != []
    assert reference.check_ingest(violated, 0, saved.replace("a1", "a2", 1), *args) != []
    assert reference.check_ingest(violated, 1, saved, *args) != []


def test_edit_shadow_matches_and_rejects_corruption(woven):
    model = gen.activity_model(14, 600, activities=2)
    plan = gen.edit_plan(15, model["doc"], 200)
    expected, want_refused = reference.edit_reference(model["doc"], plan)
    loaded = load_model(model["text"], woven)
    refused = run_session(loaded, plan)
    saved = save_model(loaded)
    problems = conformance_check(loaded)
    assert want_refused > 0
    assert reference.check_edit(saved, refused, expected, want_refused, problems) == []
    assert reference.check_edit(saved, refused + 1, expected, want_refused, []) != []
    moved = saved.replace('"@x1n00003"', '"@x1n00004"', 1)
    assert reference.check_edit(moved, refused, expected, want_refused, []) != []
    assert reference.check_edit(saved, refused, expected, want_refused, ["bad"]) != []
