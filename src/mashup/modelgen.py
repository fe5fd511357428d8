"""Generator for the recursive benchmark activity.

Level k of the structure is a fork that offers one branch to an action and
one to level k-1; both branches meet at a join.  Level 0 is a single
action.  The whole model is initial -> level(depth) -> join chain -> final,
so a depth-d model holds 3d+3 nodes, 4d+2 edges, one activity and one
``Class``, the classifier of every create action (a second root, so that
the ``fUML_is_class`` invariant holds): 7d+7 elements in total, with d+2
traced node executions (d+1 actions plus the final node).  Depth 102 gives
721 elements.
"""

from __future__ import annotations

import json


def recursive_model_stats(depth: int) -> dict[str, int]:
    return {
        "depth": depth,
        "nodes": 3 * depth + 3,
        "edges": 4 * depth + 2,
        "elements": 7 * depth + 7,
        "expected_node_executions": depth + 2,
    }


def build_recursive_model(depth: int, package: str = "fuml") -> tuple[str, dict[str, int]]:
    """Return (model document text, closed-form stats) for one depth."""
    if depth < 0:
        raise ValueError("depth must be >= 0")
    nodes: list[dict] = []
    edges: list[dict] = []
    counter = {"n": 0, "e": 0}

    classifier = {"id": "c1", "class": "Class", "slots": {"name": "Object"}}

    def node(cls: str, name: str) -> str:
        counter["n"] += 1
        nid = f"n{counter['n']:04d}"
        slots = {"name": name}
        if cls == "CreateObjectAction":
            slots["classifier"] = "@c1"
        nodes.append({"id": nid, "class": cls, "slots": slots})
        return nid

    def edge(src: str, tgt: str) -> None:
        counter["e"] += 1
        eid = f"e{counter['e']:04d}"
        edges.append({"id": eid, "class": "ControlFlow",
                      "slots": {"source": f"@{src}", "target": f"@{tgt}"}})

    # Level k opens with its fork and action, nests level k-1, and closes
    # with its join; build the openings top-down, then the joins bottom-up.
    init = node("InitialNode", "initial")
    openings = [(node("ForkNode", f"fork{k}"), node("CreateObjectAction", f"act{k}"))
                for k in range(depth, 0, -1)]
    entry = exit_ = node("CreateObjectAction", "act0")
    for k in range(1, depth + 1):
        fork, act = openings.pop()
        join = node("JoinNode", f"join{k}")
        edge(fork, act)
        edge(act, join)
        edge(fork, entry)
        edge(exit_, join)
        entry, exit_ = fork, join
    final = node("FinalNode", "final")
    edge(init, entry)
    edge(exit_, final)

    # wire the opposite ends so the document is fully two-sided
    outgoing: dict[str, list[str]] = {n["id"]: [] for n in nodes}
    incoming: dict[str, list[str]] = {n["id"]: [] for n in nodes}
    for e in edges:
        outgoing[e["slots"]["source"][1:]].append(f"@{e['id']}")
        incoming[e["slots"]["target"][1:]].append(f"@{e['id']}")
    for n in nodes:
        if outgoing[n["id"]]:
            n["slots"]["outgoing"] = outgoing[n["id"]]
        if incoming[n["id"]]:
            n["slots"]["incoming"] = incoming[n["id"]]

    activity = {
        "id": "a1",
        "class": "Activity",
        "slots": {
            "name": f"Recursive{depth}",
            "node": [f"@{n['id']}" for n in nodes],
            "edge": [f"@{e['id']}" for e in edges],
        },
    }
    doc = {
        "conformsTo": package,
        "objects": [activity, classifier] + nodes + edges,
        "roots": ["@a1", "@c1"],
    }
    stats = recursive_model_stats(depth)
    assert stats["nodes"] == len(nodes) and stats["edges"] == len(edges)
    return json.dumps(doc, indent=2, sort_keys=True) + "\n", stats
