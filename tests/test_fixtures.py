"""End-to-end behavior of the shipped DSL fixtures."""

from __future__ import annotations

import hashlib
import json

import pytest

from helpers import CASE2, DIAMOND, FUML, MODELS, REPO, run_cli, trace_labels
from mashup.modelgen import build_recursive_model, recursive_model_stats
from mashup.runtime import NodeExecuted, load_model, invoke
from mashup.exprs import ObjRef
from mashup.typecheck import build


def test_all_fixture_manifests_compose():
    for manifest in (FUML / "fuml.mashup", DIAMOND / "diamond_renamed.mashup"):
        code, out, err = run_cli("compose", "--manifest", str(manifest))
        assert code == 0, err


def _run_labels(model_path, entry=None):
    args = ["run", "--manifest", str(FUML / "fuml.mashup"), "--model", str(model_path)]
    if entry:
        args += ["--entry", entry]
    code, out, err = run_cli(*args)
    assert code == 0, err
    return trace_labels(out)


def test_work_session_partial_order_forward():
    labels = _run_labels(MODELS / "worksession.model")
    assert set(labels) == {"Have a coffee", "Talk", "Work", "final"}
    assert labels.index("Have a coffee") < labels.index("Work")
    assert labels.index("Talk") < labels.index("Work")
    assert labels.index("Work") < labels.index("final")


def test_work_session_partial_order_reverse():
    labels = _run_labels(MODELS / "worksession.model", entry="Activity.executeReverse")
    assert set(labels) == {"Have a coffee", "Talk", "Work", "final"}
    assert labels.index("Have a coffee") < labels.index("Work")
    assert labels.index("Talk") < labels.index("Work")
    assert labels.index("Work") < labels.index("final")


def test_linear_chain_single_action(tmp_path, fuml_woven):
    doc = {
        "conformsTo": "fuml",
        "objects": [
            {"id": "a1", "class": "Activity", "slots": {
                "name": "Linear", "node": ["@n1", "@n2", "@n3"],
                "edge": ["@e1", "@e2"]}},
            {"id": "n1", "class": "InitialNode", "slots": {"outgoing": ["@e1"]}},
            {"id": "n2", "class": "CreateObjectAction", "slots": {
                "name": "act", "incoming": ["@e1"], "outgoing": ["@e2"]}},
            {"id": "n3", "class": "FinalNode", "slots": {
                "name": "final", "incoming": ["@e2"]}},
            {"id": "e1", "class": "ControlFlow", "slots": {"source": "@n1", "target": "@n2"}},
            {"id": "e2", "class": "ControlFlow", "slots": {"source": "@n2", "target": "@n3"}},
        ],
        "roots": ["@a1"],
    }
    path = tmp_path / "linear.model"
    path.write_text(json.dumps(doc))
    labels = _run_labels(path)
    assert labels == ["act", "final"]  # one action plus the final marker


def test_truncated_join_never_fires():
    labels = _run_labels(MODELS / "worksession_truncated.model")
    assert labels == ["Have a coffee"]
    assert "Work" not in labels


def test_activity_without_initial_node_faults(tmp_path):
    doc = {
        "conformsTo": "fuml",
        "objects": [
            {"id": "a1", "class": "Activity", "slots": {"name": "Empty"}},
        ],
        "roots": ["@a1"],
    }
    path = tmp_path / "noinit.model"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(
        "run", "--manifest", str(FUML / "fuml.mashup"), "--model", str(path))
    assert code == 5
    assert "initial node" in err


def test_confluence_both_orders_agree_on_causality(fuml_woven):
    model = load_model((MODELS / "worksession.model").read_text(), fuml_woven)
    orders = []
    for op in ("execute", "executeReverse"):
        _r, env = invoke(model.clone(), ObjRef("o1"), op)
        orders.append([e.label for e in env.trace if isinstance(e, NodeExecuted)])
    forward, reverse = orders
    assert forward != reverse  # the tie-break really differs
    for labels in orders:
        assert labels.index("Have a coffee") < labels.index("Work")
        assert labels.index("Talk") < labels.index("Work")
        assert labels.index("Work") < labels.index("final")


# ---------------------------------------------------------------------------
# diamond fixture
# ---------------------------------------------------------------------------


def test_diamond_without_rename_is_ambiguous():
    code, out, err = run_cli("compose", "--manifest", str(DIAMOND / "diamond.mashup"))
    assert code == 2
    assert "AmbiguousMethod" in err and "D.run" in err
    # reported where the winning body is declared, not at the class name
    assert "diamond.act:12:13: AmbiguousMethod D.run" in err


def test_diamond_rename_dispatches_both_bodies(tmp_path):
    _m, _u, woven = build(str(DIAMOND / "diamond_renamed.mashup"))
    from mashup.runtime import ModelInstance, create_instance, Interpreter

    model = ModelInstance(woven)
    d = create_instance(model, "D")
    interp = Interpreter(model)
    interp.invoke(d, "run", [])
    interp.invoke(d, "runC", [])
    labels = [e.label for e in interp.trace if isinstance(e, NodeExecuted)]
    assert labels == ["B.run", "C.run"]


def test_case2_fixture_forbidden():
    code, out, err = run_cli("compose", "--manifest", str(CASE2 / "case2.mashup"))
    assert code == 2
    assert "p1.mm" in err and "p2.mm" in err


# ---------------------------------------------------------------------------
# recursive generator
# ---------------------------------------------------------------------------


def test_generator_depth_zero_is_single_action(tmp_path, fuml_woven):
    text, stats = build_recursive_model(0)
    assert stats == {"depth": 0, "nodes": 3, "edges": 2, "elements": 7,
                     "expected_node_executions": 2}
    path = tmp_path / "d0.model"
    path.write_text(text)
    labels = _run_labels(path)
    assert labels == ["act0", "final"]


def test_generator_counts_match_document():
    for depth in (0, 1, 2, 5):
        text, stats = build_recursive_model(depth)
        doc = json.loads(text)
        classes = [o["class"] for o in doc["objects"]]
        nodes = sum(1 for c in classes if c.endswith("Node") or c.endswith("Action"))
        edges = sum(1 for c in classes if c == "ControlFlow")
        assert nodes == stats["nodes"] and edges == stats["edges"]
        assert len(doc["objects"]) == stats["elements"]
        assert recursive_model_stats(depth)["elements"] == 7 * depth + 7
        assert classes.count("Class") == 1


# sha256 of the generated text, fixed when create actions got their Class
GENERATED_TEXT_SHA256 = {
    0: "ccc603df0d09c07770fad4c09f7487473e3e42b12ff48b0e1c594c2935781b9c",
    4: "227268c30b33c250ceb128c9fb8bc5764e46de5eae79eddcd406d4c366c6ae79",
    102: "a763860cfbabef10286e3f75a83438fecfa6a25ef4b19135e184d5641ac3fb6f",
}


@pytest.mark.parametrize("depth", GENERATED_TEXT_SHA256)
def test_generator_text_is_stable(depth):
    text, _stats = build_recursive_model(depth)
    assert hashlib.sha256(text.encode()).hexdigest() == GENERATED_TEXT_SHA256[depth]


def test_generator_handles_depths_past_the_recursion_limit():
    text, stats = build_recursive_model(1000)
    assert stats["elements"] == 7007
    assert len(json.loads(text)["objects"]) == 7007


def test_generator_execution_count_matches_closed_form(tmp_path):
    text, stats = build_recursive_model(4)
    path = tmp_path / "d4.model"
    path.write_text(text)
    labels = _run_labels(path)
    assert len(labels) == stats["expected_node_executions"]
    assert labels[-1] == "final"


@pytest.mark.parametrize("contracts", ["off", "prepost", "full"])
def test_generated_model_runs_under_every_contract_policy(tmp_path, contracts):
    text, stats = build_recursive_model(102)
    path = tmp_path / "big.model"
    path.write_text(text)
    code, out, err = run_cli("run", "--manifest", str(FUML / "fuml.mashup"),
                             "--model", str(path), "--contracts", contracts)
    assert code == 0 and err == "", err
    assert len(trace_labels(out)) == stats["expected_node_executions"]


def test_generator_tool_script(tmp_path):
    import os, subprocess, sys
    out_path = tmp_path / "gen.model"
    # the script imports mashup like any client: put src/ on its path
    path = os.pathsep.join(filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "tools/gen-recursive", "--depth", "3", "--out", str(out_path)],
        capture_output=True, text=True, cwd=str(REPO), env={**os.environ, "PYTHONPATH": path},
    )
    assert result.returncode == 0, result.stderr
    stats = json.loads(result.stdout)
    assert stats["elements"] == 28
    assert json.loads(out_path.read_text())["conformsTo"] == "fuml"
