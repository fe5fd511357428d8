"""Reference answers and output checks that do not use mashup.

Each ``check_*`` function returns a list of mismatch descriptions; an empty
list means the program's output is right.  The answers come from the
generated inputs (see ``gen``) or from the brute-force rules below, written
straight from the workbench's documented semantics.
"""

from __future__ import annotations

import re

from gen import canonical_text

ROOT = "Root"

# ---------------------------------------------------------------------------
# build: linearization by brute force
# ---------------------------------------------------------------------------

_CLASS_RE = re.compile(r"\bclass\s+(\w+)(?:\s+(?:extends|inherits)\s+([\w\s,]+?))?\s*\{")


def supertypes_of(unit_texts: list[str]) -> dict[str, list[str]]:
    """Declared plus aspect-added supertypes, read off the unit sources."""
    supers: dict[str, list[str]] = {}
    for text in unit_texts:
        for name, listed in _CLASS_RE.findall(text):
            have = supers.setdefault(name, [])
            for sup in (s.strip() for s in listed.split(",") if s.strip()):
                if sup not in have:
                    have.append(sup)
    return supers


def linearization(name: str, supers: dict[str, list[str]]) -> tuple[str, ...]:
    """Full expansion (class, then supertypes rightmost first, recursively),
    keeping the last occurrence of each class, with Root appended."""
    expanded: list[str] = []
    stack = [name]
    while stack:
        cls = stack.pop()
        expanded.append(cls)
        stack.extend(s for s in supers.get(cls, ()) if s != ROOT)
    seen: set[str] = set()
    out: list[str] = []
    for cls in reversed(expanded):
        if cls not in seen:
            seen.add(cls)
            out.append(cls)
    out.reverse()
    return tuple(out) + (ROOT,)


def check_build(linearizations: dict[str, tuple[str, ...]],
                expected: dict[str, tuple[str, ...]], problems: list[str]) -> list[str]:
    bad = [f"build reported {len(problems)} problem(s): {problems[:2]}"] if problems else []
    if set(linearizations) != set(expected):
        bad.append("class set differs from the units")
    for name, lin in expected.items():
        if linearizations.get(name) != lin:
            bad.append(f"linearization of {name} differs")
    return bad


# ---------------------------------------------------------------------------
# execute: executed labels and causal order
# ---------------------------------------------------------------------------


def check_execute(labels: list[str], expected: list[str],
                  preds: dict[str, list[str]]) -> list[str]:
    if sorted(labels) != expected:
        return ["executed labels differ from the graph's actions"]
    at = {label: i for i, label in enumerate(labels)}
    return [f"{label} ran before {p}" for label, ps in preds.items() for p in ps
            if at[p] > at[label]]


# ---------------------------------------------------------------------------
# ingest: planted violations and canonical text
# ---------------------------------------------------------------------------


def check_ingest(violated: list[tuple[str, str]], errors: int, saved: str,
                 planted: list[str], text: str) -> list[str]:
    bad = []
    if errors:
        bad.append(f"{errors} invariant evaluation(s) raised")
    if sorted(violated) != [("fUML_is_class", oid) for oid in planted]:
        bad.append("violated set differs from the planted classifiers")
    if saved != text:
        bad.append("saved text differs from the canonical text")
    return bad


# ---------------------------------------------------------------------------
# edit: a plain-Python shadow of the assignment semantics
# ---------------------------------------------------------------------------

# fuml-lite reference features: name -> (many, containment, opposite)
_REFS = {
    "node": (True, True, None),
    "edge": (True, True, None),
    "incoming": (True, False, "target"),
    "outgoing": (True, False, "source"),
    "source": (False, False, "outgoing"),
    "target": (False, False, "incoming"),
    "classifier": (False, False, None),
}


class Shadow:
    """Object slots, containers and the roots list, edited like the README
    says assignment works: opposites stay in sync, attaching to a
    containment reference detaches from the old container, and a second
    value for a single-valued reference is refused."""

    def __init__(self, doc: dict):
        self.objects = {o["id"]: {"class": o["class"], "slots": {
            k: list(v) if isinstance(v, list) else v for k, v in o["slots"].items()}}
            for o in doc["objects"]}
        self.roots = [r[1:] for r in doc["roots"]]
        self.container: dict[str, tuple[str, str]] = {}
        for oid, o in self.objects.items():
            for feat in ("node", "edge"):
                for ref in o["slots"].get(feat, []):
                    self.container[ref[1:]] = (oid, feat)
        self.created = 0
        self.refused = 0

    def _list(self, oid: str, feat: str) -> list[str]:
        return self.objects[oid]["slots"].setdefault(feat, [])

    def _unlink(self, oid: str, feat: str, tgt: str, sync: bool = True) -> None:
        many, containment, opposite = _REFS[feat]
        slots = self.objects[oid]["slots"]
        if many:
            if "@" + tgt in slots.get(feat, []):
                slots[feat].remove("@" + tgt)
        elif slots.get(feat) == "@" + tgt:
            del slots[feat]
        if containment and self.container.get(tgt) == (oid, feat):
            del self.container[tgt]
            if tgt not in self.roots:
                self.roots.append(tgt)
        if sync and opposite:
            self._unlink(tgt, opposite, oid, sync=False)

    def _link(self, oid: str, feat: str, tgt: str, sync: bool = True) -> None:
        many, containment, opposite = _REFS[feat]
        if containment:
            if tgt in self.container:
                self._unlink(*self.container[tgt], tgt)
            self.container[tgt] = (oid, feat)
            if tgt in self.roots:
                self.roots.remove(tgt)
        slots = self.objects[oid]["slots"]
        if many:
            if "@" + tgt not in slots.get(feat, []):
                self._list(oid, feat).append("@" + tgt)
        else:
            old = slots.get(feat)
            if old is not None and old != "@" + tgt:
                self._unlink(oid, feat, old[1:])
            slots[feat] = "@" + tgt
        if sync and opposite:
            self._link(tgt, opposite, oid, sync=False)

    def apply(self, step: tuple) -> None:
        kind = step[0]
        if kind == "create":
            self.created += 1
            oid = f"o{self.created}"
            self.objects[oid] = {"class": step[1], "slots": {}}
            self.roots.append(oid)
            return
        owner, feat, value = self.resolve(step[1]), step[2], step[3]
        if value[0] == "str":
            self.objects[owner]["slots"][feat] = value[1]
            return
        tgt = self.resolve(value)
        many = _REFS[feat][0]
        slots = self.objects[owner]["slots"]
        if kind == "remove":
            if "@" + tgt in slots.get(feat, []):
                self._unlink(owner, feat, tgt)
        elif kind == "add" and not many and slots.get(feat) is not None:
            self.refused += 1
        elif slots.get(feat) != "@" + tgt:
            self._link(owner, feat, tgt)

    def resolve(self, value: tuple) -> str:
        return value[1] if value[0] == "ref" else f"o{value[1] + 1}"

    def text(self, package: str) -> str:
        objects = [{"class": o["class"], "id": oid,
                    "slots": {k: v for k, v in o["slots"].items() if v != []}}
                   for oid, o in self.objects.items()]
        return canonical_text({"conformsTo": package, "objects": objects,
                               "roots": ["@" + r for r in self.roots]})


def edit_reference(doc: dict, plan: list[tuple]) -> tuple[str, int]:
    """Expected saved text and number of refused steps for one session."""
    shadow = Shadow(doc)
    for step in plan:
        shadow.apply(step)
    return shadow.text(doc["conformsTo"]), shadow.refused


def check_edit(saved: str, refused: int, expected_text: str, expected_refused: int,
               conformance: list) -> list[str]:
    bad = []
    if saved != expected_text:
        bad.append("saved slots differ from the shadow")
    if refused != expected_refused:
        bad.append(f"{refused} step(s) refused, shadow expects {expected_refused}")
    if conformance:
        bad.append(f"conformance_check found {len(conformance)} problem(s)")
    return bad
