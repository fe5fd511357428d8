"""The compiled evaluator: pinned runs, name safety and the compile cache.

The digests pin, family by family, every event of ``interp.trace`` and the
saved model of each run, under the ``off``, ``prepost`` and ``full``
policies.  They were recorded from the tree-walking interpreter the
compiled code replaced, so they show that both give the same runs on the
worksession models, on the recursive models of depths 0-50 and on every
input of the benchmark's execute workload (seed 1, drawn by
``perfbench/run.py`` itself).
"""

from __future__ import annotations

import ast
import hashlib
import importlib.util
import re
import shutil

import pytest

from helpers import (
    FUML, MODELS, REPO, TABLE_MM, parse_units, run_cli, table_act, table_model, weave,
)
from mashup.diagnostics import EvalFault, TypecheckError
from mashup.exprs import TRUE, VOID_VALUE, IntV, ObjRef, StringV, parse_expr
from mashup.modelgen import build_recursive_model
from mashup.runtime import (
    Interpreter, ModelInstance, add_to_feature, conformance_check, create_instance, eval_expr,
    invoke, load_model, save_model, set_feature,
)
from mashup.typecheck import build, build_units

POLICIES = ("off", "prepost", "full")
SCHEDULES = ("execute", "executeReverse")


def _run(woven, text: str, op: str, policy: str) -> str:
    """The trace, the outcome and the saved model of one run of ``op`` on a1."""
    model = load_model(text, woven)
    interp = Interpreter(model, policy)
    try:
        interp.invoke(ObjRef("a1"), op, [])
        outcome = "ok"
    except EvalFault as fault:
        outcome = f"{fault.kind}: {fault.message}"
    try:
        saved = save_model(model)
    except TypecheckError as exc:
        saved = "\n".join(d.render() for d in exc.diagnostics)
    return "\n".join([e.render() for e in interp.trace] + [outcome, saved])


def _digest(woven, runs) -> str:
    """sha256 over the runs (text, op, policy), in order."""
    h = hashlib.sha256()
    for text, op, policy in runs:
        h.update(_run(woven, text, op, policy).encode())
    return h.hexdigest()


def _execute_inputs(tmp_path) -> list[str]:
    """The documents of the benchmark's execute workload at seed 1, the
    resident models and then the closing sweep's."""
    spec = importlib.util.spec_from_file_location("perfbench_run", REPO / "perfbench" / "run.py")
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    texts = []
    for small in (False, True):
        drawn = bench.draw("execute", str(tmp_path / str(small)), 1, small)
        texts += [open(item["path"], encoding="utf-8").read() for item in drawn["resident"]]
    return texts


WORKSESSION_SHA256 = {
    "worksession.model":
        "59a270fed4d2acf0dce8b3d49a62a4ccc9e2be12e6ec6e4a8dfa60bea197b583",
    "worksession_badclassifier.model":
        "573befa3e4488eca2fd8c9ce9c97d91ba3655acdf06428290af924d688061d20",
    "worksession_truncated.model":
        "d28796730786835ab8ffb458b6ef9ee032c912224d0366c4e7cf575e5ed557d8",
}
RECURSIVE_SHA256 = "ba61478df7348de00b910c36a217a64ed838ae5812f05f5f934eed4714e3da83"
EXECUTE_INPUTS_SHA256 = "22a08a61a9a84a038280bfb07bac54a2e80a8e07e023fe83020027ea1f302c89"


@pytest.mark.parametrize("name", WORKSESSION_SHA256)
def test_worksession_runs_are_pinned(fuml_woven, name):
    text = (MODELS / name).read_text()
    runs = [(text, op, policy) for op in SCHEDULES for policy in POLICIES]
    assert _digest(fuml_woven, runs) == WORKSESSION_SHA256[name]


def test_recursive_model_runs_are_pinned(fuml_woven):
    runs = [(build_recursive_model(depth)[0], "execute", policy)
            for depth in range(51) for policy in POLICIES]
    assert _digest(fuml_woven, runs) == RECURSIVE_SHA256


def test_benchmark_execute_runs_are_pinned(tmp_path):
    woven = build(str(REPO / "perfbench" / "fuml-lite" / "fuml.mashup"))[2]
    runs = [(text, op, policy) for text in _execute_inputs(tmp_path)
            for op in SCHEDULES for policy in POLICIES]
    assert _digest(woven, runs) == EXECUTE_INPUTS_SHA256


# DSL names that are Python keywords, builtins, dunders or the generated
# code's own names, a non-ASCII name, a name Python cannot take (``²x``) and
# strings holding quotes, backslashes and format directives.
NAMES_MM = """metamodel p {
  class def {
    attr None : Int;
    attr __import__ : String;
    ref rt : lambda[*] containment;
  }
  class lambda { attr v0 : Int; attr self : Int; }
}
"""
NAMES_ACT = r"""package p;
require "p.mm";
aspect class def {
  operation class(v0 : Int, rt : String) : String is do
    var obj : Int init v0 + 1
    var me : String init rt + "'"
    var t1 : Int init obj
    var été : String init "\"\"\" \\ {} %s {0} '''"
    var ²x : lambda init lambda.new()
    ²x.v0 := t1 * 2
    ²x.self := ²x.v0
    self.rt.add(²x)
    self.None := obj
    self.__import__ := été
    self.trace(me)
    self.trace(été + me)
    return été
  end
  operation import() : Void is do
    var None : String init self.class(41, "x")
    self.trace(None)
    self.rt.each { self2 | if self2.self == 84 then self.trace("v0=" + "{v0}") end }
  end
}
"""
NAMES_INV = r"""package p;
require "p.mm";
aspect class def {
  pre positive on class : v0 > 0 and rt != "\\";
  post same on class : result == self.__import__;
  inv __class__ : self.None >= 0;
}
"""
NAMES_TRACE = [
    "OpEnter\to1.import",
    "OpEnter\to1.class",
    "NodeExecuted\tx'",
    "NodeExecuted\t\"\"\" \\ {} %s {0} '''x'",
    "OpExit\to1.class\t\"\"\"\" \\ {} %s {0} '''\"",
    "NodeExecuted\t\"\"\" \\ {} %s {0} '''",
    "NodeExecuted\tv0={v0}",
    "OpExit\to1.import\tvoid",
]
# the only identifiers generated code has: its parameters and locals, the
# runtime names it is run with, and the attributes of values, objects and
# the interpreter
GENERATED = re.compile(r"[vtcmre]\d+|rt|obj|me|objects|model|result|DISPATCH|PLANS|"
                       r"BoolV|IntV|StringV|VoidV|ObjRef|Coll|TRUE|FALSE|VOID|EvalFault|"
                       r"make_coll|set_slot|add_slot|"
                       r"create_instance|render_value|_operands|_cast|_intersection|"
                       r"_quotient|_no_method|_container|_trace|_fault|event|OpEnter|"
                       r"OpExit|NodeExecuted|frozenset|len|RecursionError|"
                       r"slots|items|kind|id|class_name|container|trace|checks|full|"
                       r"violation|append|__class__|[bis]")


@pytest.mark.parametrize("contracts", POLICIES)
def test_dsl_names_and_strings_round_trip(tmp_path, contracts):
    for name, text in (("p.mm", NAMES_MM), ("p.act", NAMES_ACT), ("p.inv", NAMES_INV),
                       ("p.mashup", 'package p;\nrequire "p.mm";\nrequire "p.act";\n'
                                    'require "p.inv";\nmain def.import;\n'),
                       ("m.model", '{"conformsTo": "p", "objects": '
                                   '[{"id": "o1", "class": "def", "slots": {}}], '
                                   '"roots": ["@o1"]}')):
        (tmp_path / name).write_text(text, encoding="utf-8")
    code, out, err = run_cli("run", "--manifest", str(tmp_path / "p.mashup"),
                             "--model", str(tmp_path / "m.model"), "--contracts", contracts)
    assert (code, err) == (0, "")
    assert out.splitlines() == NAMES_TRACE


def test_no_dsl_name_becomes_a_python_identifier():
    woven = build_units(parse_units(mm=NAMES_MM, inv=NAMES_INV.replace('"p.mm"', '"u0.mm"'),
                                    act=NAMES_ACT.replace('"p.mm"', '"u0.mm"')))
    source = Interpreter(ModelInstance(woven)).code.source
    for node in ast.walk(ast.parse(source)):
        for name in (getattr(node, attr, None) for attr in ("id", "arg", "attr", "name")):
            assert name is None or GENERATED.fullmatch(name), name


def test_a_woven_model_is_compiled_once():
    woven = build(str(FUML / "fuml.mashup"))[2]
    model = load_model((MODELS / "worksession.model").read_text(), woven)
    assert woven.compiled is None
    first = Interpreter(model).code
    assert Interpreter(model.clone(), "off").code is first is woven.compiled
    # and so is each expression evaluated against it, whatever its position
    for text in ("self.node.size()", " self.node.size()"):
        assert eval_expr(parse_expr(text), Interpreter(model), "o1") == IntV(7)
    assert len(first.expressions) == 1


def test_nesting_too_deep_to_compile_is_a_positioned_parse_error(tmp_path):
    body = 'self.trace("x")'
    for i in range(25):  # Python's compiler takes 20 nested blocks
        body = f"self.rt.each {{ x{i} |\n{body}\n}}"
    (tmp_path / "p.mm").write_text(NAMES_MM)
    (tmp_path / "deep.act").write_text('package p;\nrequire "p.mm";\naspect class def {\n'
                                       f'  operation go() : Void is do\n{body}\n  end\n}}\n')
    (tmp_path / "p.mashup").write_text('package p;\nrequire "p.mm";\nrequire "deep.act";\n'
                                       'main def.go;\n')
    (tmp_path / "m.model").write_text('{"conformsTo": "p", "objects": '
                                      '[{"id": "o1", "class": "def", "slots": {}}], '
                                      '"roots": ["@o1"]}')
    code, out, err = run_cli("run", "--manifest", str(tmp_path / "p.mashup"),
                             "--model", str(tmp_path / "m.model"))
    assert (code, out) == (1, "")
    assert err == "deep.act:4:13: SyntaxError def.go is nested too deeply to compile\n"


# -- dispatch, contracts and builtins in the generated module --------------

OVERRIDES_MM = """metamodel p {
  class N { attr n : Int; ref kids : N[*] containment; }
  class A extends N { }
  class B extends N { }
}
"""
OVERRIDES_ACT = """package p;
require "u0.mm";
aspect class A {
  method container() : Root is do
    self.trace("mine")
    return void
  end
}
aspect class B {
  method trace(message : String) : Void is do
    self.n := self.n + 1
  end
}
aspect class N {
  operation go() : Void is do
    self.kids.each { k |
      k.trace("hello")
      var c : Root init k.container()
      if c == self then self.trace("contained") end
    }
  end
  operation viaContainer() : Root is do return self.container() end
  operation viaTrace() : Void is do self.trace("x") end
}
"""


def test_a_class_overriding_a_builtin_runs_its_own_body():
    woven = weave(mm=OVERRIDES_MM, act=OVERRIDES_ACT)
    model = load_model('{"conformsTo": "p", "objects": [{"id": "n0", "class": "N", "slots": '
                       '{"kids": ["@a", "@b", "@n1"]}}, {"id": "a", "class": "A", "slots": {}}, '
                       '{"id": "b", "class": "B", "slots": {}}, '
                       '{"id": "n1", "class": "N", "slots": {}}], "roots": ["@n0"]}', woven)
    _result, interp = invoke(model, "n0", "go")
    # a's container and b's trace run their methods; the others, the builtins
    assert [e.render() for e in interp.trace] == [
        "OpEnter\tn0.go",
        "NodeExecuted\thello",
        "OpEnter\ta.container", "NodeExecuted\tmine", "OpExit\ta.container\tvoid",
        "OpEnter\tb.trace", "OpExit\tb.trace\tvoid",
        "NodeExecuted\tcontained",
        "NodeExecuted\thello",
        "NodeExecuted\tcontained",
        "OpExit\tn0.go\tvoid",
    ]
    assert model.obj("b").slots["n"] == IntV(1)
    result, interp = invoke(model, "a", "container")
    assert result == VOID_VALUE
    assert [e.render() for e in interp.trace] == [
        "OpEnter\ta.container", "NodeExecuted\tmine", "OpExit\ta.container\tvoid"]
    result, interp = invoke(model, "n1", "container")
    assert (result, interp.trace) == (ObjRef("n0"), [])
    # invoke, a compiled call site and an evaluated expression run the same
    for oid in ("a", "b", "n1"):
        for op, args, text in (("container", [], "self.container()"),
                               ("trace", [StringV("x")], 'self.trace("x")')):
            result, interp = invoke(model, oid, op, args)
            via, site = invoke(model, oid, "via" + op.capitalize())
            evaluated = Interpreter(model)
            value = eval_expr(parse_expr(text), evaluated, oid, pure=False)
            assert (via, value) == (result, result)
            assert site.trace[1:-1] == evaluated.trace == interp.trace


def test_builtins_run_inline_where_no_class_defines_them():
    woven = build(str(REPO / "perfbench" / "fuml-lite" / "fuml.mashup"))[2]
    # the functions, before DISPATCH, whose rows name every builtin
    source = Interpreter(ModelInstance(woven)).code.source.split("DISPATCH =")[0]
    assert "_container" not in source
    # trace appends inline; only a message other than a String falls back
    # to the runtime builtin, which faults
    traces = [line.strip() for line in source.splitlines() if "_trace" in line]
    assert traces and all(line.startswith("else: _trace(rt, ") for line in traces)
    assert "rt.trace.append(event(NodeExecuted" in source
    source = Interpreter(ModelInstance(weave(mm=OVERRIDES_MM, act=OVERRIDES_ACT))).code.source
    assert "'N': _container" in source and "'N': _trace" in source


# perfbench's fuml-lite (it has pre- and postconditions) with a unit adding
# one more rule: a precondition the fork node fails, or a postcondition the
# final node fails
VIOLATING = {
    "pre": "aspect class Activity { pre single_out on fire : n.outgoing.size() < 2; }\n",
    "post": 'aspect class FinalNode { post never on run : self.name == ""; }\n',
}
VIOLATIONS = {
    ("base", "worksession_badclassifier.model", "full"): "InvariantViolation fUML_is_class @ o7",
    ("pre", "worksession.model", "prepost"): "PreconditionViolation single_out @ o1",
    ("pre", "worksession.model", "full"): "PreconditionViolation single_out @ o1",
    ("pre", "worksession_badclassifier.model", "prepost"): "PreconditionViolation single_out @ o1",
    ("pre", "worksession_badclassifier.model", "full"): "PreconditionViolation single_out @ o1",
    ("post", "worksession.model", "prepost"): "PostconditionViolation never @ o8",
    ("post", "worksession.model", "full"): "PostconditionViolation never @ o8",
    ("post", "worksession_badclassifier.model", "prepost"): "PostconditionViolation never @ o8",
    ("post", "worksession_badclassifier.model", "full"): "InvariantViolation fUML_is_class @ o7",
}
# sha256 over every run's exit code, trace and error, in the loops' order,
# as the tree-walking and the first compiled interpreter printed them
RUN_OUTPUT_SHA256 = "fe3bcff7c27591e101c2918539487524cf8f4b924a4f5a4765e407319323ac4e"


def test_worksession_traces_and_violations_are_pinned(tmp_path):
    h = hashlib.sha256()
    for variant in ("base", "pre", "post"):
        lang = tmp_path / variant
        shutil.copytree(REPO / "perfbench" / "fuml-lite", lang)
        if variant != "base":
            (lang / "extra.inv").write_text(
                'package fuml;\nrequire "fuml.mm";\nrequire "fuml.act";\n' + VIOLATING[variant])
            manifest = (lang / "fuml.mashup").read_text()
            (lang / "fuml.mashup").write_text(manifest.replace(
                'require "fuml.act";', 'require "fuml.act";\nrequire "extra.inv";'))
        for model in ("worksession.model", "worksession_badclassifier.model"):
            for policy in POLICIES:
                for op in SCHEDULES:
                    code, out, err = run_cli("run", "--manifest", str(lang / "fuml.mashup"),
                                             "--model", str(MODELS / model), "--contracts", policy,
                                             "--entry", "Activity." + op)
                    violation = VIOLATIONS.get((variant, model, policy))
                    expected = f"{MODELS / model}:0:0: {violation}\n" if violation else ""
                    assert (code, err) == (4 if violation else 0, expected)
                    h.update(f"{code}\n{out}{err.replace(str(MODELS) + '/', '')}".encode())
    assert h.hexdigest() == RUN_OUTPUT_SHA256


TWO_PLANS_MM = """metamodel t {
  class A { attr n : Int; ref one : B[0..1]; ref kids : B[*]; }
  class B { attr n : Int; attr w : Int; }
}
"""


# n, w and kids each have two plans, kids one with an opposite
OPPOSITE_MM = """metamodel t {
  class A { attr n : Int; ref one : B[0..1]; ref kids : B[*] opposite up; }
  class B { attr n : Int; attr w : Int; ref up : A[0..1] opposite kids; }
  class C { attr w : Int; ref kids : B[*]; }
}
"""


@pytest.mark.parametrize("mm", [TABLE_MM, TWO_PLANS_MM, OPPOSITE_MM],
                         ids=["one-plan", "two-plans", "opposite"])
def test_a_write_keeps_its_exact_type_fault(mm):
    # compiled writes that succeed, through the feature's one plan or the
    # plan of the target's class
    woven = weave(mm=mm, act=table_act(
        "    var b : B init B.new()\n    b.w := 3\n    self.n := b.w + 4\n    self.kids.add(b)"))
    model = table_model(woven)
    invoke(model, "o1", "run")
    assert model.obj("o4").slots["w"] == IntV(3)
    assert model.obj("o1").slots["n"] == IntV(7)
    assert model.obj("o1").slots["kids"].items == [ObjRef("o2"), ObjRef("o3"), ObjRef("o4")]
    if mm is OPPOSITE_MM:  # and the opposite end follows
        assert model.obj("o4").slots["up"] == ObjRef("o1")
    assert conformance_check(model) == []
    # a compiled store of void, through the feature's one plan or by class
    woven = weave(mm=mm, act=table_act("    self.n := self.one.w"))
    with pytest.raises(EvalFault) as exc:
        invoke(table_model(woven), "o1", "run")
    assert (exc.value.kind, exc.value.message) == (
        "TypeFault", "attribute n expects Int, got void")
    woven = weave(mm=mm, act=table_act("    self.kids.add(self.one)"))
    with pytest.raises(EvalFault) as exc:
        invoke(table_model(woven), "o1", "run")
    assert (exc.value.kind, exc.value.message) == (
        "TypeFault", "reference kids expects an object, got void")
    # and through the model API, which also meets a wrong primitive
    model = table_model(woven)
    for feature, value, message in (("n", TRUE, "attribute n expects Int, got true"),
                                    ("n", VOID_VALUE, "attribute n expects Int, got void"),
                                    ("one", IntV(1), "reference one expects an object, got 1")):
        with pytest.raises(EvalFault) as exc:
            set_feature(model, "o1", feature, value)
        assert (exc.value.kind, exc.value.message) == ("TypeFault", message)
    with pytest.raises(EvalFault) as exc:
        add_to_feature(model, "o1", "kids", VOID_VALUE)
    assert exc.value.message == "reference kids expects an object, got void"


def test_builtin_faults_keep_the_runtime_text():
    # a void message falls back from the inline trace to the runtime
    # builtin; fault is always the runtime builtin
    for body, fault in (("    self.trace(self.one.s)", ("TypeFault", "trace expects a String")),
                        ("    self.fault(self.one.s)", ("Fault", "void")),
                        ('    self.fault("boom")', ("Fault", "boom"))):
        woven = weave(mm=TABLE_MM, act=table_act(body))
        with pytest.raises(EvalFault) as exc:
            invoke(table_model(woven), "o1", "run")
        assert (exc.value.kind, exc.value.message) == fault


GROUPS_MM = "metamodel m { class Super { } class Sub extends Super { } }"
GROUPS_ACT = ('package m;\nrequire "u0.mm";\n'
              "aspect class Super { operation m(v : Int) : Int is do return v end }")
GROUPS_INV = ('package m;\nrequire "u0.mm";\n'
              "aspect class Super { pre b1 on m : v >= 1; pre b2 on m : v <= 3; }\n"
              "aspect class Sub { pre a1 on m : v >= 10; pre a2 on m : v <= 20; }")


@pytest.mark.parametrize("cls,v,outcome", [
    ("Sub", 15, "15"),  # Sub's group holds
    ("Sub", 2, "2"),  # Sub's fails at its first rule, Super's holds
    # a violation names the first group's first failing rule
    ("Sub", 25, "pre a2 @ o1"),  # both fail at their second rule
    ("Sub", 0, "pre a1 @ o1"),
    ("Super", 2, "2"),
    ("Super", 5, "pre b2 @ o1"),  # the one group fails at its second rule
])
def test_precondition_groups_disjoin_and_their_rules_conjoin(cls, v, outcome):
    woven = weave(mm=GROUPS_MM, act=GROUPS_ACT, inv=GROUPS_INV)
    model = ModelInstance(woven)
    obj = create_instance(model, cls)
    interp = Interpreter(model)
    try:
        result = interp.invoke(obj, "m", [IntV(v)]).i
    except EvalFault as fault:
        assert fault.kind == "PreconditionViolation"
        result = None
    trace = [e.render() for e in interp.trace]
    if result is None:
        assert trace == ["OpEnter\to1.m", f"ContractViolation\t{outcome}"]
    else:
        assert (str(result), trace) == (outcome, ["OpEnter\to1.m", f"OpExit\to1.m\t{outcome}"])


def test_an_operation_declared_without_a_body_is_no_such_method():
    woven = weave(mm="metamodel t { class A { op foo() : Int; } class B extends A { } }",
                  act='package t;\nrequire "u0.mm";\n'
                      "aspect class A { operation go() : Int is do return self.foo() end }")
    model = ModelInstance(woven)
    for cls in ("A", "B"):
        obj = create_instance(model, cls)
        for run in (lambda: invoke(model, obj, "go"), lambda: invoke(model, obj, "foo"),
                    lambda: eval_expr(parse_expr("self.foo()"), Interpreter(model), obj,
                                      pure=False)):
            with pytest.raises(EvalFault) as exc:
                run()
            assert (exc.value.kind, exc.value.message) == (
                "NoSuchMethod", f"{cls} has no operation foo")
