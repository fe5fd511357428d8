"""Acceptance suite: one test per acceptance criterion.

Each criterion records one ``acceptance NN PASS|FAIL`` line; the conftest
terminal-summary hook prints the scoreboard after capture ends, so every
pytest run over this module finishes with one line per criterion.
"""

from __future__ import annotations

import itertools
import json
import random
import time
from contextlib import contextmanager

from conftest import ACCEPTANCE_RESULTS
from helpers import CASE2, DIAMOND, FUML, GOLDEN, MODELS, run_cli, trace_labels, weave
from mashup.composer import ROOT_CLASS, linearize
from mashup.diagnostics import ContractViolation, EvalFault
from mashup.exprs import Coll, IntV, ObjRef, StringV, VoidV
from mashup.modelgen import build_recursive_model
from mashup.runtime import (
    ModelInstance, add_to_feature, create_instance, invoke, load_model,
    remove_from_feature, save_model, set_feature,
)


@contextmanager
def criterion(num: int, summary: str):
    try:
        yield
    except BaseException:
        ACCEPTANCE_RESULTS.append((num, summary, "FAIL"))
        print(f"acceptance {num:02d} FAIL: {summary}")
        raise
    ACCEPTANCE_RESULTS.append((num, summary, "PASS"))
    print(f"acceptance {num:02d} PASS: {summary}")


# ---------------------------------------------------------------------------
# 1. end-to-end weave and byte-exact report
# ---------------------------------------------------------------------------


def test_01_mashup_end_to_end_report():
    with criterion(1, "compose exits 0 and the emitted report is byte-exact"):
        code, _out, err = run_cli("compose", "--manifest", str(FUML / "fuml.mashup"))
        assert code == 0, err
        code, out, _err = run_cli("emit", "--manifest", str(FUML / "fuml.mashup"))
        assert code == 0
        assert out == (GOLDEN / "fuml_report.txt").read_text()
        # one rich entry per aspected class, with factory and conversion roles
        assert out.count("Rich") >= 7 and "factory: createActivity -> RichActivity" in out
        assert "convert: Activity <-> RichActivity" in out


# ---------------------------------------------------------------------------
# 2. static semantics: the classifier rule
# ---------------------------------------------------------------------------


def test_02_invariant_check_exact():
    with criterion(2, "classifier rule holds on Class, flags Activity exactly once"):
        code, out, _ = run_cli("check", "--manifest", str(FUML / "fuml.mashup"),
                               "--model", str(MODELS / "worksession.model"))
        assert code == 0
        assert not [l for l in out.splitlines() if l.startswith("VIOLATED")]
        code, out, _ = run_cli("check", "--manifest", str(FUML / "fuml.mashup"),
                               "--model", str(MODELS / "worksession_badclassifier.model"))
        assert code == 4
        violated = [l for l in out.splitlines() if l.startswith("VIOLATED")]
        assert violated == ["VIOLATED fUML_is_class @ o7"]


# ---------------------------------------------------------------------------
# 3. work-session execution under both tie-break orders
# ---------------------------------------------------------------------------


def test_03_work_session_partial_order_both_orders():
    with criterion(3, "coffee and talk precede work, work precedes final, both orders"):
        for entry in ("Activity.execute", "Activity.executeReverse"):
            start = time.perf_counter()
            code, out, err = run_cli(
                "run", "--manifest", str(FUML / "fuml.mashup"),
                "--model", str(MODELS / "worksession.model"), "--entry", entry)
            elapsed = time.perf_counter() - start
            assert code == 0, err
            assert elapsed < 1.0
            labels = trace_labels(out)
            assert labels.index("Have a coffee") < labels.index("Work")
            assert labels.index("Talk") < labels.index("Work")
            assert labels.index("Work") < labels.index("final")


# ---------------------------------------------------------------------------
# 4. mixing two base metamodel classes is forbidden
# ---------------------------------------------------------------------------


def test_04_forbidden_base_base_composition():
    with criterion(4, "duplicate base class aborts composition with exit 2"):
        code, _out, err = run_cli("compose", "--manifest", str(CASE2 / "case2.mashup"))
        assert code == 2
        assert "p1.mm" in err and "p2.mm" in err


# ---------------------------------------------------------------------------
# 5. linearization against a brute-force oracle
# ---------------------------------------------------------------------------


def _brute_force_lin(cls: str, graph: dict[str, tuple[str, ...]]) -> tuple[str, ...]:
    """Naive last-occurrence rule: full expansion, then keep the final copy."""

    def expand(c: str) -> list[str]:
        out = [c]
        for sup in reversed(graph.get(c, ())):
            out.extend(expand(sup))
        return out

    raw = expand(cls)
    kept = [x for i, x in enumerate(raw) if x not in raw[i + 1:]]
    return tuple(kept) + (ROOT_CLASS,)


def _ordered_subsets(pool: list[str]):
    yield ()
    for r in range(1, len(pool) + 1):
        yield from itertools.permutations(pool, r)


def _all_graphs(n: int):
    names = [f"C{i}" for i in range(1, n + 1)]
    options = [list(_ordered_subsets(names[i + 1:])) for i in range(n)]
    for combo in itertools.product(*options):
        yield {names[i]: tuple(combo[i]) for i in range(n)}


def test_05_linearization_oracle_exhaustive():
    with criterion(5, "linearize matches the brute-force rule on every DAG of <= 5 classes"):
        start = time.perf_counter()
        graphs = 0
        for n in range(1, 6):
            for graph in _all_graphs(n):
                graphs += 1
                for cls in graph:
                    assert linearize(cls, graph) == _brute_force_lin(cls, graph)
        assert graphs == 1 + 2 + 10 + 160 + 10400
        pin_graph = {
            "Pin": ("ObjectNode", "MultiplicityElement"),
            "ObjectNode": ("ActivityNode",),
            "MultiplicityElement": (),
            "ActivityNode": (),
        }
        assert linearize("Pin", pin_graph) == (
            "Pin", "MultiplicityElement", "ObjectNode", "ActivityNode", ROOT_CLASS)
        assert time.perf_counter() - start < 10.0


# ---------------------------------------------------------------------------
# 6. contract flattening: 1000 randomized two-level hierarchies
# ---------------------------------------------------------------------------


def _flattening_fixture(rng: random.Random):
    spec = {
        "A": rng.randint(0, 12), "B": rng.randint(0, 12),
        "C1": rng.randint(0, 12), "C2": rng.randint(0, 12),
        "pre_super": rng.random() < 0.75, "pre_sub": rng.random() < 0.75,
        "post_super": rng.random() < 0.6, "post_sub": rng.random() < 0.6,
        "invs_super": rng.randint(0, 2), "invs_sub": rng.randint(0, 2),
    }
    super_rules, sub_rules = [], []
    if spec["pre_super"]:
        super_rules.append(f"pre ps on m : v >= {spec['A']};")
    if spec["pre_sub"]:
        sub_rules.append(f"pre pt on m : v >= {spec['B']};")
    if spec["post_super"]:
        super_rules.append(f"post qs on m : result >= {spec['C1']};")
    if spec["post_sub"]:
        sub_rules.append(f"post qt on m : result >= {spec['C2']};")
    for i in range(spec["invs_super"]):
        super_rules.append(f"inv is{i} : true;")
    for i in range(spec["invs_sub"]):
        sub_rules.append(f"inv it{i} : true;")
    inv_unit = (
        "package f;\nrequire \"f.mm\";\n"
        f"aspect class Super {{ {' '.join(super_rules)} }}\n"
        f"aspect class Sub {{ {' '.join(sub_rules)} }}"
    )
    woven = weave(
        mm="metamodel f { class Super { } class Sub extends Super { } }",
        act='package f;\nrequire "f.mm";\n'
            "aspect class Super { operation m(v : Int) : Int is do return v end }",
        inv=inv_unit,
    )
    return spec, woven


def _expected_outcome(spec, v: int) -> str:
    groups = []
    if spec["pre_super"]:
        groups.append(v >= spec["A"])
    if spec["pre_sub"]:
        groups.append(v >= spec["B"])
    if groups and not any(groups):
        return "pre"
    posts = []
    if spec["post_super"]:
        posts.append(v >= spec["C1"])
    if spec["post_sub"]:
        posts.append(v >= spec["C2"])
    return "post" if not all(posts) else "ok"


def test_06_contract_flattening_property_suite():
    with criterion(6, "invariant inclusion, precondition disjunction, postcondition conjunction"):
        rng = random.Random(606)
        cases = 0
        seen = {"ok": 0, "pre": 0, "post": 0, "super_only_pre": 0}
        while cases < 1000:
            spec, woven = _flattening_fixture(rng)
            sup_invs = {(o, i.name) for o, i in woven.classes["Super"].flat_invariants}
            sub_invs = {(o, i.name) for o, i in woven.classes["Sub"].flat_invariants}
            assert sup_invs <= sub_invs  # Rule 1 as a set inclusion
            model = ModelInstance(woven)
            sub = create_instance(model, "Sub")
            draws = [rng.randint(-3, 16) for _ in range(8)]
            if spec["pre_super"] and spec["pre_sub"] and spec["A"] < spec["B"]:
                draws.append(spec["A"])  # satisfies only the supertype group
            for v in draws:
                expected = _expected_outcome(spec, v)
                if (expected != "pre" and spec["pre_super"] and spec["pre_sub"]
                        and v >= spec["A"] and v < spec["B"]):
                    seen["super_only_pre"] += 1
                try:
                    result, _ = invoke(model, sub, "m", [IntV(v)])
                    outcome = "ok"
                    assert result == IntV(v)
                except ContractViolation as violation:
                    outcome = {"PreconditionViolation": "pre",
                               "PostconditionViolation": "post"}[violation.kind]
                assert outcome == expected, (spec, v)
                seen[outcome] += 1
                cases += 1
        assert cases >= 1000
        assert all(seen[key] > 0 for key in seen), seen


# ---------------------------------------------------------------------------
# 7. randomized assignment sequences keep opposites coherent and containment a forest
# ---------------------------------------------------------------------------

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


def _assert_opposite_coherence(model: ModelInstance):
    for oid, obj in model.objects.items():
        wc = model.woven.classes[obj.class_name]
        for fname, sp in wc.slots.items():
            feat = sp.feat
            if getattr(feat, "opposite", None) is None or not hasattr(feat, "target"):
                continue
            value = obj.slots[fname]
            targets = value.items if isinstance(value, Coll) else (
                [value] if isinstance(value, ObjRef) else [])
            for tgt in targets:
                back = model.obj(tgt.id).slots[feat.opposite]
                listed = back.items if isinstance(back, Coll) else [back]
                assert ObjRef(oid) in listed, f"{oid}.{fname} -> {tgt.id} has no back link"


def _assert_containment_forest(model: ModelInstance):
    container = {}
    for oid, obj in model.objects.items():
        wc = model.woven.classes[obj.class_name]
        for fname, sp in wc.slots.items():
            feat = sp.feat
            if not getattr(feat, "containment", False):
                continue
            value = obj.slots[fname]
            for tgt in (value.items if isinstance(value, Coll) else
                        ([value] if isinstance(value, ObjRef) else [])):
                assert tgt.id not in container, f"{tgt.id} has two containers"
                container[tgt.id] = oid
    for oid in model.objects:
        seen = set()
        cur = oid
        while cur in container:
            assert cur not in seen, f"containment cycle at {cur}"
            seen.add(cur)
            cur = container[cur]


def test_07_randomized_assignment_sequences():
    with criterion(7, "1000 random set/add/remove operations, coherence after each"):
        woven = weave(mm=LIB_MM)
        model = ModelInstance(woven)
        rng = random.Random(707)
        libraries = [create_instance(model, "Library") for _ in range(3)]
        books = [create_instance(model, "Book") for _ in range(5)]
        writers = [create_instance(model, "Writer") for _ in range(4)]
        single_refs = [("Library", "featured", books), ("Book", "home", libraries),
                       ("Book", "author", writers), ("Writer", "muse", writers),
                       ("Writer", "fan", writers)]
        many_refs = [("Library", "book", books), ("Writer", "works", books)]
        by_class = {"Library": libraries, "Book": books, "Writer": writers}
        refused = 0
        for step in range(1000):
            action = rng.randrange(6)
            try:
                if action == 0:
                    cls, fname, pool = rng.choice(single_refs)
                    set_feature(model, rng.choice(by_class[cls]), fname, rng.choice(pool))
                elif action == 1:
                    cls, fname, pool = rng.choice(single_refs)
                    set_feature(model, rng.choice(by_class[cls]), fname, VoidV())
                elif action == 2:
                    cls, fname, pool = rng.choice(many_refs)
                    add_to_feature(model, rng.choice(by_class[cls]), fname, rng.choice(pool))
                elif action == 3:
                    cls, fname, pool = rng.choice(many_refs)
                    remove_from_feature(model, rng.choice(by_class[cls]), fname,
                                        rng.choice(pool))
                elif action == 4:
                    cls, fname, pool = rng.choice(many_refs)
                    picks = rng.sample(pool, k=rng.randint(0, len(pool)))
                    set_feature(model, rng.choice(by_class[cls]), fname,
                                Coll("Sequence", [p for p in picks]))
                else:
                    set_feature(model, rng.choice(books), "title",
                                StringV(f"t{step}"))
            except EvalFault:
                refused += 1  # cycle or bound refusals leave the model untouched
            _assert_opposite_coherence(model)
            _assert_containment_forest(model)
        from mashup.runtime import conformance_check
        assert conformance_check(model) == []


# ---------------------------------------------------------------------------
# 8. diamond renaming
# ---------------------------------------------------------------------------


def test_08_diamond_renaming(tmp_path):
    with criterion(8, "unrenamed diamond is ambiguous; renamed names hit distinct bodies"):
        code, _out, err = run_cli("compose", "--manifest", str(DIAMOND / "diamond.mashup"))
        assert code == 2 and "AmbiguousMethod" in err
        model_path = tmp_path / "d.model"
        model_path.write_text(json.dumps({
            "conformsTo": "diamond",
            "objects": [{"id": "d1", "class": "D", "slots": {}}],
            "roots": ["@d1"],
        }))
        markers = []
        for entry in ("D.run", "D.runC"):
            code, out, err = run_cli(
                "run", "--manifest", str(DIAMOND / "diamond_renamed.mashup"),
                "--model", str(model_path), "--entry", entry)
            assert code == 0, err
            markers.extend(trace_labels(out))
        assert markers == ["B.run", "C.run"]


# ---------------------------------------------------------------------------
# 9. desk-scale benchmark
# ---------------------------------------------------------------------------


def test_09_benchmark_recursive_model(tmp_path):
    with criterion(9, "30-rep benchmark on the ~723-element model, mean under 2 s"):
        text, stats = build_recursive_model(102)
        assert 680 <= stats["elements"] <= 760  # as close to 723 as the shape allows
        path = tmp_path / "recursive.model"
        path.write_text(text)
        code, out, err = run_cli(
            "bench", "--manifest", str(FUML / "fuml.mashup"),
            "--model", str(path), "--reps", "30")
        assert code == 0, err
        fields = dict(part.split("=") for part in out.split()[1:])
        assert fields["reps"] == "30"
        mean_ms = float(fields["mean"].rstrip("ms"))
        assert mean_ms < 2000.0


# ---------------------------------------------------------------------------
# 10. load/save round trip on random conformant models
# ---------------------------------------------------------------------------


def _random_model(woven, rng: random.Random) -> ModelInstance:
    model = ModelInstance(woven)
    libraries = [create_instance(model, "Library") for _ in range(rng.randint(1, 3))]
    books = [create_instance(model, "Book") for _ in range(rng.randint(0, 6))]
    writers = [create_instance(model, "Writer") for _ in range(rng.randint(0, 4))]
    for i, book in enumerate(books):
        set_feature(model, book, "title", StringV(f"b{i}"))
        if rng.random() < 0.8:
            add_to_feature(model, rng.choice(libraries), "book", ObjRef(book.id))
        if writers and rng.random() < 0.7:
            set_feature(model, book, "author", rng.choice(writers))
    for writer in writers:
        if rng.random() < 0.4:
            set_feature(model, writer, "muse", rng.choice(writers))
    for library in libraries:
        if books and rng.random() < 0.5:
            set_feature(model, library, "featured", rng.choice(books))
    return model


def test_10_round_trip_random_models():
    with criterion(10, "load(save(m)) reproduces 100 random models exactly"):
        woven = weave(mm=LIB_MM)
        rng = random.Random(1010)
        for _ in range(100):
            model = _random_model(woven, rng)
            text = save_model(model)
            again = load_model(text, woven)
            assert again.fingerprint() == model.fingerprint()
            assert save_model(again) == text
