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

import pytest

from helpers import FUML, MODELS, REPO, parse_units, run_cli
from mashup.diagnostics import EvalFault, TypecheckError
from mashup.exprs import IntV, ObjRef, parse_expr
from mashup.modelgen import build_recursive_model
from mashup.runtime import Interpreter, ModelInstance, eval_expr, load_model, save_model
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
# runtime names it is run with, and the attributes of values and objects
GENERATED = re.compile(r"[vtcmr]\d+|rt|obj|me|objects|model|result|DISPATCH|INVARIANTS|"
                       r"BoolV|IntV|StringV|VoidV|ObjRef|Coll|TRUE|FALSE|VOID|EvalFault|"
                       r"make_coll|set_feature|add_to_feature|create_instance|_operands|"
                       r"_cast|_intersection|_quotient|frozenset|len|RecursionError|"
                       r"slots|items|kind|id|class_name|call|append|__class__|[bis]")


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
