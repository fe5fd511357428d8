"""Seeded input generators for the benchmark.

Everything here is plain Python and never imports mashup, so the reference
answers the benchmark checks against (labels, causal predecessors, planted
violations, canonical text) come from the generator and not from the program
under test.

* ``activity_model`` draws series-parallel fork/join activities for the
  fuml-lite language that ships next to this file.  It grows the graph by
  repeatedly splitting a random edge, iteratively, so any size is safe.
* ``synthetic_language`` writes a metamodel plus several constraint and
  behaviour units with renamed diamonds and multiple-inheritance ladders.
* ``edit_plan`` draws one editing session against an activity model.
"""

from __future__ import annotations

import json
import random

PACKAGE = "fuml"
CLASSES_PER_MODEL = 4


def canonical_text(doc: dict) -> str:
    """The byte-stable document form: objects by id, keys sorted."""
    out = dict(doc)
    out["objects"] = sorted(doc["objects"], key=lambda o: o["id"])
    return json.dumps(out, indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# Activities
# ---------------------------------------------------------------------------


class _Graph:
    """Series-parallel activity graph under construction."""

    def __init__(self, prefix: str):
        self.prefix = prefix
        self.nodes: list[list[str]] = []  # [id, class, name]
        self.edges: list[list[str]] = []  # [source id, target id]
        self.counts = {"a": 0, "fork": 0, "join": 0}

    def node(self, cls: str, name: str) -> str:
        nid = f"{self.prefix}n{len(self.nodes) + 1:05d}"
        self.nodes.append([nid, cls, name])
        return nid

    def named(self, kind: str, cls: str) -> str:
        self.counts[kind] += 1
        return self.node(cls, f"{self.prefix}{kind}{self.counts[kind]}")

    def elements(self) -> int:
        return len(self.nodes) + len(self.edges) + 1


def _grow(rng: random.Random, g: _Graph, target: int) -> None:
    initial = g.node("InitialNode", "initial")
    final = g.node("FinalNode", "final")
    first = g.named("a", "CreateObjectAction")
    g.edges += [[initial, first], [first, final]]
    while g.elements() < target:
        i = rng.randrange(len(g.edges))
        src, tgt = g.edges[i]
        if rng.random() < 0.55:
            mid = g.named("a", "CreateObjectAction")
            g.edges[i] = [src, mid]
            g.edges.append([mid, tgt])
            continue
        fork = g.named("fork", "ForkNode")
        join = g.named("join", "JoinNode")
        g.edges[i] = [src, fork]
        g.edges.append([join, tgt])
        for _ in range(rng.choice((2, 2, 3))):
            branch = g.named("a", "CreateObjectAction")
            g.edges += [[fork, branch], [branch, join]]


def activity_model(seed: int, elements: int, activities: int = 1,
                   planted: int = 0) -> dict:
    """Draw a model of ``activities`` activities of about ``elements`` in all.

    ``planted`` create actions get the activity itself as classifier, which
    violates ``fUML_is_class``; every other one points at a plain class.
    Returns the canonical ``text`` plus the reference answers: ``labels``
    (traced names per activity id), ``preds`` (traced label -> traced labels
    that must come first), ``planted`` ids, and ``doc``.
    """
    rng = random.Random(seed)
    per = max(12, (elements - CLASSES_PER_MODEL) // activities)
    classes = [f"c{k}" for k in range(1, CLASSES_PER_MODEL + 1)]
    objects: list[dict] = [
        {"class": "Class", "id": cid, "slots": {"name": f"Class{cid[1:]}"}} for cid in classes
    ]
    roots: list[str] = []
    labels: dict[str, list[str]] = {}
    preds: dict[str, dict[str, list[str]]] = {}
    actions: list[tuple[str, str]] = []  # (action id, activity id)
    for a in range(1, activities + 1):
        aid = f"a{a}"
        g = _Graph("" if activities == 1 else f"x{a}")
        _grow(rng, g, per)
        edge_ids = [f"{g.prefix}e{k + 1:05d}" for k in range(len(g.edges))]
        outgoing: dict[str, list[str]] = {n[0]: [] for n in g.nodes}
        incoming: dict[str, list[str]] = {n[0]: [] for n in g.nodes}
        for eid, (src, tgt) in zip(edge_ids, g.edges):
            outgoing[src].append("@" + eid)
            incoming[tgt].append("@" + eid)
            objects.append({"class": "ControlFlow", "id": eid,
                            "slots": {"name": eid, "source": "@" + src, "target": "@" + tgt}})
        for nid, cls, name in g.nodes:
            slots: dict = {"name": name}
            if incoming[nid]:
                slots["incoming"] = incoming[nid]
            if outgoing[nid]:
                slots["outgoing"] = outgoing[nid]
            if cls == "CreateObjectAction":
                actions.append((nid, aid))
            objects.append({"class": cls, "id": nid, "slots": slots})
        objects.append({"class": "Activity", "id": aid, "slots": {
            "name": f"Activity{a}",
            "node": ["@" + n[0] for n in g.nodes],
            "edge": ["@" + e for e in edge_ids],
        }})
        roots.append("@" + aid)
        labels[aid], preds[aid] = _reference_order(g)
    bad = set(rng.sample(range(len(actions)), planted)) if planted else set()
    by_id = {o["id"]: o for o in objects}
    planted_ids = []
    for k, (nid, aid) in enumerate(actions):
        if k in bad:
            by_id[nid]["slots"]["classifier"] = "@" + aid
            planted_ids.append(nid)
        else:
            by_id[nid]["slots"]["classifier"] = "@" + rng.choice(classes)
    doc = {"conformsTo": PACKAGE, "objects": objects, "roots": roots + ["@" + c for c in classes]}
    return {
        "text": canonical_text(doc),
        "doc": doc,
        "elements": len(objects),
        "labels": labels,
        "preds": preds,
        "planted": sorted(planted_ids),
    }


def _reference_order(g: _Graph) -> tuple[list[str], dict[str, list[str]]]:
    """Traced labels and, per label, the nearest traced labels upstream.

    Actions and the final node are traced; control nodes are looked
    through.  Nodes are visited in topological order, iteratively.
    """
    traced = {n[0]: n[2] for n in g.nodes if n[1] in ("CreateObjectAction", "FinalNode")}
    ins: dict[str, list[str]] = {n[0]: [] for n in g.nodes}
    outs: dict[str, list[str]] = {n[0]: [] for n in g.nodes}
    for src, tgt in g.edges:
        ins[tgt].append(src)
        outs[src].append(tgt)
    pending = {nid: len(v) for nid, v in ins.items()}
    ready = [nid for nid, k in pending.items() if k == 0]
    upstream: dict[str, set[str]] = {}  # nearest traced labels at or before a node
    preds: dict[str, list[str]] = {}
    while ready:
        nid = ready.pop()
        before: set[str] = set()
        for src in ins[nid]:
            before |= upstream[src]
        if nid in traced:
            preds[traced[nid]] = sorted(before)
            upstream[nid] = {traced[nid]}
        else:
            upstream[nid] = before
        for tgt in outs[nid]:
            pending[tgt] -= 1
            if pending[tgt] == 0:
                ready.append(tgt)
    return sorted(traced.values()), preds


# ---------------------------------------------------------------------------
# Synthetic languages
# ---------------------------------------------------------------------------


def synthetic_language(seed: int, classes: int, ladder: int, units: int = 3) -> dict:
    """Draw a language of about ``classes`` classes as unit texts.

    The metamodel holds a diamond ladder ``ladder`` levels deep (at each
    level two classes both extending the two of the level below), plain
    class chains with attributes and references, and renamed diamonds.
    ``units`` behaviour units and as many constraint units reopen classes.
    Returns the unit ``files`` ({file name: text}), the ``manifest`` name and
    the number of ``classes``.
    """
    rng = random.Random(seed)
    pkg = f"syn{seed % 100000}"
    supers: dict[str, list[str]] = {}
    decl: dict[str, list[str]] = {}  # class -> member lines
    abstract: set[str] = set()

    def add(name: str, parents: list[str]) -> None:
        supers[name] = parents
        decl[name] = [f"attr {name.lower()}Id: Int;"]

    add("L0A", [])
    add("L0B", [])
    for k in range(1, ladder + 1):
        add(f"L{k}A", [f"L{k - 1}A", f"L{k - 1}B"])
        add(f"L{k}B", [f"L{k - 1}B", f"L{k - 1}A"])
    diamonds = max(1, classes // 40)
    for d in range(diamonds):
        top, left, right, bottom = (f"D{d}{s}" for s in ("Top", "Left", "Right", "Bottom"))
        add(top, [])
        add(left, [top])
        add(right, [top])
        add(bottom, [left, right])
    # Plain classes only extend each other, so the ladders alone set the
    # (exponential) linearization cost and it does not vary with the seed.
    plain: list[str] = []
    k = 0
    while len(supers) < classes:
        name = f"C{k}"
        k += 1
        parents = [rng.choice(plain)] if plain and rng.random() < 0.7 else []
        if parents and rng.random() < 0.25:
            other = rng.choice(plain)
            if other not in parents:
                parents.append(other)
        add(name, parents)
        target = rng.choice(plain + ["L0A"])
        decl[name].append(f"ref link{k}: {target}[*];")
        plain.append(name)
    for name in rng.sample(sorted(n for n in supers if n.startswith("C")),
                           min(8, k)):
        abstract.add(name)

    files: dict[str, str] = {}
    mm = [f"metamodel {pkg} {{"]
    for name, parents in supers.items():
        head = ("  abstract class " if name in abstract else "  class ") + name
        if parents:
            head += " extends " + ", ".join(parents)
        mm.append(head + " {")
        mm += ["    " + line for line in decl[name]]
        if name.endswith("Top"):
            mm.append("    op weight(): Int;")
        mm.append("  }")
    mm.append("}")
    files[f"{pkg}.mm"] = "\n".join(mm) + "\n"

    # Diamond sides override weight() and each bottom renames the right-hand
    # body; every other class gets either a method or two invariants.
    # Aspects spread over the units round-robin.
    targets = [n for n in supers if not n.startswith("D")]
    act_units: list[list[str]] = [[] for _ in range(units)]
    inv_units: list[list[str]] = [[] for _ in range(units)]
    for d in range(diamonds):
        u = d % units
        act_units[u].append(
            f"aspect class D{d}Left {{\n"
            f"  method weight() : Int is do\n    return self.d{d}leftId + 1\n  end\n}}\n"
            f"aspect class D{d}Right {{\n"
            f"  method weight() : Int is do\n    return self.d{d}rightId + 2\n  end\n}}\n"
            f"aspect class D{d}Bottom {{\n"
            f"  rename weight from D{d}Right as weightRight;\n"
            f"  operation total() : Int is do\n"
            f"    return self.weight() + self.weightRight()\n  end\n}}\n"
        )
    for i, name in enumerate(targets):
        u = i % units
        field = name.lower() + "Id"
        if i % 2 == 0:
            act_units[u].append(
                f"aspect class {name} {{\n"
                f"  attr visits{i} : Int;\n"
                f"  operation touch{i}(n : Int) : Int is do\n"
                f"    var acc : Int init self.{field}\n"
                f"    from var j : Int init 0 until j >= n loop\n"
                f"      acc := acc + j * 2\n"
                f"      j := j + 1\n"
                f"    end\n"
                f"    self.visits{i} := acc\n"
                f"    if acc > 100 then\n      return acc - 100\n    else\n      return acc\n    end\n"
                f"  end\n}}\n"
            )
        else:
            inv_units[u].append(
                f"aspect class {name} {{\n"
                f"  inv nonneg{i} : self.{field} >= 0;\n"
                f"  inv bounded{i} : self.{field} < 1000000 or self.{field} == 0;\n"
                f"}}\n"
            )
    manifest = [f"package {pkg};", f'require "{pkg}.mm";']
    for u in range(units):
        for kind, parts in (("act", act_units[u]), ("inv", inv_units[u])):
            if not parts:
                continue
            fname = f"{pkg}_{u}.{kind}"
            files[fname] = f'package {pkg};\nrequire "{pkg}.mm";\n\n' + "\n".join(parts)
            manifest.append(f'require "{fname}";')
    files[f"{pkg}.mashup"] = "\n".join(manifest) + "\n"
    return {"files": files, "manifest": f"{pkg}.mashup", "classes": len(supers)}


# ---------------------------------------------------------------------------
# Edit sessions
# ---------------------------------------------------------------------------


_STEP_SHARES = (("move", 0.45), ("create", 0.15), ("edge", 0.15), ("remove", 0.10),
                ("rename", 0.10), ("reclassify", 0.05))


def edit_plan(seed: int, doc: dict, steps: int) -> list[tuple]:
    """Draw one session of edits over a two-activity model document.

    Steps name objects by their ids in ``doc`` or by ``("new", k)`` for the
    k-th object the session creates.  Kinds:
      ("create", cls, k)                 create an object
      ("add", owner, feature, value)     element-wise add
      ("remove", owner, feature, value)  element-wise removal
      ("set", owner, feature, value)     whole-slot assignment
    Values are ("ref", id), ("new", k) or ("str", text).
    """
    rng = random.Random(seed)
    acts = [o["id"] for o in doc["objects"] if o["class"] == "Activity"]
    nodes_of = {a: [] for a in acts}
    edges_of = {a: [] for a in acts}
    for o in doc["objects"]:
        if o["class"] == "Activity":
            nodes_of[o["id"]] = [r[1:] for r in o["slots"].get("node", [])]
            edges_of[o["id"]] = [r[1:] for r in o["slots"].get("edge", [])]
    actions = [o["id"] for o in doc["objects"] if o["class"] == "CreateObjectAction"]
    classes = [o["id"] for o in doc["objects"] if o["class"] == "Class"]
    owner = {n: a for a in acts for n in nodes_of[a]}
    plan: list[tuple] = []
    created = 0
    # Fixed shares of each kind of step, in seeded order, so that sessions
    # of one seed cost about what they cost for another.
    kinds = [kind for kind, share in _STEP_SHARES for _ in range(round(share * steps))]
    rng.shuffle(kinds)
    for kind in kinds:
        if kind == "move":
            # move a node into the other activity (containment move)
            node = rng.choice(actions)
            src = owner[node]
            dst = acts[(acts.index(src) + 1) % len(acts)]
            plan.append(("add", ("ref", dst), "node", ("ref", node)))
            owner[node] = dst
        elif kind == "create":
            # create an action, contain it, name it and give it a classifier
            k = created
            created += 1
            act = rng.choice(acts)
            plan += [
                ("create", "CreateObjectAction", k),
                ("add", ("ref", act), "node", ("new", k)),
                ("set", ("new", k), "name", ("str", f"made{k}")),
                ("set", ("new", k), "classifier", ("ref", rng.choice(classes))),
            ]
        elif kind == "edge":
            # draw an edge between two actions and contain it
            k = created
            created += 1
            act = rng.choice(acts)
            src, tgt = rng.sample(actions, 2)
            plan += [
                ("create", "ControlFlow", k),
                ("add", ("ref", act), "edge", ("new", k)),
                ("set", ("new", k), "source", ("ref", src)),
                ("add", ("ref", tgt), "incoming", ("new", k)),
                # a second source is refused: source is single-valued
                ("add", ("new", k), "source", ("ref", tgt)),
            ]
        elif kind == "remove":
            # drop an existing edge from its activity's containment
            act = rng.choice(acts)
            if edges_of[act]:
                edge = edges_of[act].pop(rng.randrange(len(edges_of[act])))
                plan.append(("remove", ("ref", act), "edge", ("ref", edge)))
        elif kind == "rename":
            node = rng.choice(actions)
            plan.append(("set", ("ref", node), "name", ("str", f"renamed{rng.randrange(10**6)}")))
        else:
            node = rng.choice(actions)
            plan.append(("set", ("ref", node), "classifier", ("ref", rng.choice(classes))))
    return plan
