from __future__ import annotations

import random
import re
import shutil
import sys

import pytest

from helpers import CASE2, FUML, MODELS, run_cli


def test_missing_manifest_exits_1():
    code, out, err = run_cli("compose", "--manifest", "does/not/exist.mashup")
    assert code == 1
    assert "UnitNotFound" in err and out == ""


def test_parse_error_exits_1(tmp_path):
    (tmp_path / "bad.mm").write_text("metamodel ???")
    (tmp_path / "bad.mashup").write_text('package p;\nrequire "bad.mm";\n')
    code, _out, err = run_cli("compose", "--manifest", str(tmp_path / "bad.mashup"))
    assert code == 1 and "SyntaxError" in err


def test_unknown_unit_kind_exits_1(tmp_path):
    (tmp_path / "x.txt").write_text("package p;\n")
    (tmp_path / "x.mashup").write_text('package p;\nrequire "x.txt";\n')
    code, out, err = run_cli("compose", "--manifest", str(tmp_path / "x.mashup"))
    assert code == 1 and out == ""
    assert err == "x.txt:0:0: UnknownUnitKind no parser for .txt unit\n"


def test_composition_error_exits_2():
    code, _out, err = run_cli("compose", "--manifest", str(CASE2 / "case2.mashup"))
    assert code == 2 and "ForbiddenComposition" in err


def test_structurally_broken_metamodel_exits_2(tmp_path):
    # the parser checks syntax only; the build refuses the structure
    (tmp_path / "s.mm").write_text(
        "metamodel s {\n  class A extends Ghost { attr n: Int[0..2]; }\n}\n")
    (tmp_path / "s.mashup").write_text('package s;\nrequire "s.mm";\n')
    code, out, err = run_cli("compose", "--manifest", str(tmp_path / "s.mashup"))
    assert (code, out) == (2, "")
    assert err.splitlines() == ["s.mm:2:9: ResolutionError class A inherits unknown class Ghost"]
    (tmp_path / "s.mm").write_text("metamodel s {\n  class A { attr n: Int[0..2]; }\n}\n")
    code, out, err = run_cli("compose", "--manifest", str(tmp_path / "s.mashup"))
    assert (code, out) == (2, "")
    assert err.splitlines() == ["s.mm:2:18: BoundsError A.n: upper bound must be 1 or *"]


def test_validation_errors_point_at_their_declarations(tmp_path):
    (tmp_path / "v.mm").write_text(
        "metamodel v {\n  class A {\n    ref kids: B[*];\n    op make(x: Ghost);\n  }\n"
        "  class B { }\n}\n")
    (tmp_path / "v.act").write_text(
        'package v;\nrequire "v.mm";\n\naspect class B {\n  ref owner: A opposite kids;\n'
        "  ref r: Nope;\n  operation build(y : Ghost) : Void is do end\n}\n")
    (tmp_path / "v.mashup").write_text('package v;\nrequire "v.mm";\nrequire "v.act";\n')
    code, out, err = run_cli("compose", "--manifest", str(tmp_path / "v.mashup"))
    assert code == 2 and out == ""
    assert err.splitlines() == [
        "v.mm:4:8: ClosureError operation A.make mentions unknown class Ghost",
        "v.act:5:7: OppositeMismatch opposites are not mutual for B.owner",
        "v.act:6:7: ClosureError reference B.r targets unknown class Nope",
        "v.act:7:13: ClosureError operation B.build mentions unknown class Ghost",
    ]


def test_type_error_exits_3(tmp_path):
    (tmp_path / "m.mm").write_text("metamodel m { class A { } }")
    (tmp_path / "m.inv").write_text(
        'package m;\nrequire "m.mm";\naspect class A { inv bad : 1 + 2; }')
    (tmp_path / "m.mashup").write_text(
        'package m;\nrequire "m.mm";\nrequire "m.inv";\n')
    code, _out, err = run_cli("compose", "--manifest", str(tmp_path / "m.mashup"))
    assert code == 3 and "NonBooleanRule" in err


def test_compose_success_prints_summary():
    code, out, err = run_cli("compose", "--manifest", str(FUML / "fuml.mashup"))
    assert code == 0 and err == ""
    assert out.strip() == "composed fuml: 16 classes, 7 aspected"


def test_emit_to_stdout_and_file_agree(tmp_path):
    code, out, _err = run_cli("emit", "--manifest", str(FUML / "fuml.mashup"))
    assert code == 0
    target = tmp_path / "report.txt"
    code, piped, _err = run_cli(
        "emit", "--manifest", str(FUML / "fuml.mashup"), "--emit", str(target))
    assert code == 0 and piped == ""
    assert target.read_text() == out


def test_check_exit_codes():
    code, out, _ = run_cli("check", "--manifest", str(FUML / "fuml.mashup"),
                           "--model", str(MODELS / "worksession.model"))
    assert code == 0
    assert "0 problem(s)" in out
    code, out, _ = run_cli("check", "--manifest", str(FUML / "fuml.mashup"),
                           "--model", str(MODELS / "worksession_badclassifier.model"))
    assert code == 4
    assert "VIOLATED fUML_is_class @ o7" in out.splitlines()


def test_check_nonconformant_model_exits_3(tmp_path):
    path = tmp_path / "bad.model"
    path.write_text('{"conformsTo": "fuml", "objects": '
                    '[{"id": "x", "class": "Activity", "slots": {"name": 1}}], '
                    '"roots": ["@x"]}')
    code, _out, err = run_cli("check", "--manifest", str(FUML / "fuml.mashup"),
                              "--model", str(path))
    assert code == 3 and "ConformanceError" in err
    assert err.startswith(f"{path}:0:0: ConformanceError ")


_OBJ = '{"id": "x", "class": "Class", "slots": {}}'


@pytest.mark.parametrize("document", [
    '{"objects": 3}',
    '{"conformsTo": "fuml", "objects": [3], "roots": []}',
    '{"conformsTo": "fuml", "objects": [{"id": "x", "class": ["x"], "slots": {}}], "roots": []}',
    '{"conformsTo": "fuml", "objects": [{"id": "x", "class": "Class", "slots": []}], "roots": []}',
    '{"conformsTo": "fuml", "objects": [' + _OBJ + '], "roots": "@x"}',
    '{"objects": ' + "[" * 100_000 + "]" * 100_000 + "}",
    '{"conformsTo": "fuml", "objects": [{"class": "Class", "slots": {}}], "roots": []}',
    '{"conformsTo": "fuml", "objects": [{"id": 7, "class": "Class", "slots": {}}], "roots": []}',
], ids=["objects-not-list", "object-not-dict", "class-not-string", "slots-not-dict",
        "roots-not-list", "nested-too-deep", "id-missing", "id-not-string"])
def test_check_rejects_badly_shaped_models(tmp_path, document):
    path = tmp_path / "shape.model"
    path.write_text(document)
    code, _out, err = run_cli("check", "--manifest", str(FUML / "fuml.mashup"),
                              "--model", str(path))
    assert code == 1
    assert err.startswith(f"{path}:0:0: SyntaxError "), err
    assert "Traceback" not in err


COUNTER_MM = "metamodel p { class Counter { attr n: Int; } }"
COUNTER_ACT = """package p;
require "p.mm";
aspect class Counter {
  operation down(k : Int) : Void is do
    if k > 0 then self.down(k - 1) end
  end
  operation start() : Void is do
    self.down(self.n)
  end
}
"""


@pytest.mark.parametrize("rule", [
    # as many levels as the recursion limit has frames, whatever each costs
    "(" * sys.getrecursionlimit() + "true" + ")" * sys.getrecursionlimit(),
    "+".join(["1"] * 500) + " == 500",
], ids=["parentheses", "long-sum"])
def test_deeply_nested_unit_exits_1(tmp_path, rule):
    (tmp_path / "p.mm").write_text(COUNTER_MM)
    (tmp_path / "deep.inv").write_text(
        f'package p;\nrequire "p.mm";\naspect class Counter {{ inv deep : {rule}; }}\n')
    (tmp_path / "p.mashup").write_text('package p;\nrequire "p.mm";\nrequire "deep.inv";\n')
    code, _out, err = run_cli("compose", "--manifest", str(tmp_path / "p.mashup"))
    assert code == 1
    assert err.startswith("deep.inv:0:0: SyntaxError unit is nested too deeply"), err
    assert "Traceback" not in err


@pytest.mark.parametrize("depth,exit_code", [(400, 0), (5000, 5)])
def test_run_deep_dsl_recursion(tmp_path, depth, exit_code):
    # one DSL call takes two Python frames (its generated entry and its
    # compiled body), under the interpreter's unchanged recursion limit
    limit = sys.getrecursionlimit()
    (tmp_path / "p.mm").write_text(COUNTER_MM)
    (tmp_path / "p.act").write_text(COUNTER_ACT)
    (tmp_path / "p.mashup").write_text(
        'package p;\nrequire "p.mm";\nrequire "p.act";\nmain Counter.start;\n')
    model = tmp_path / "c.model"
    model.write_text('{"conformsTo": "p", "objects": [{"id": "c", "class": "Counter", '
                     f'"slots": {{"n": {depth}}}}}], "roots": ["@c"]}}')
    code, out, err = run_cli("run", "--manifest", str(tmp_path / "p.mashup"),
                             "--model", str(model))
    assert code == exit_code, err
    assert "Traceback" not in err
    if exit_code:
        assert err.startswith(f"{model}:0:0: StackOverflow "), err
        assert "Counter.down" in err
    else:
        assert err == "" and out.count("OpEnter\tc.down") == depth + 1
    assert sys.getrecursionlimit() == limit <= 1000


def test_run_trace_format_and_determinism():
    args = ("run", "--manifest", str(FUML / "fuml.mashup"),
            "--model", str(MODELS / "worksession.model"))
    code1, out1, err1 = run_cli(*args)
    code2, out2, _ = run_cli(*args)
    assert code1 == code2 == 0 and out1 == out2 and err1 == ""
    for line in out1.splitlines():
        event, _, detail = line.partition("\t")
        assert event in ("OpEnter", "OpExit", "NodeExecuted", "ContractViolation")
        assert detail


def test_run_contract_violation_exits_4():
    code, out, err = run_cli(
        "run", "--manifest", str(FUML / "fuml.mashup"),
        "--model", str(MODELS / "worksession_badclassifier.model"),
        "--contracts", "full")
    assert code == 4
    assert "fUML_is_class" in err
    assert any(line.startswith("ContractViolation\tinv fUML_is_class") for line in out.splitlines())


def test_run_without_matching_root_exits_5(tmp_path):
    path = tmp_path / "norota.model"
    path.write_text('{"conformsTo": "fuml", "objects": '
                    '[{"id": "c1", "class": "Class", "slots": {}}], "roots": ["@c1"]}')
    code, _out, err = run_cli("run", "--manifest", str(FUML / "fuml.mashup"),
                              "--model", str(path))
    assert code == 5 and "no root object of class Activity" in err


@pytest.mark.parametrize("command", ["run", "bench"])
def test_run_and_bench_resolve_the_entry_alike(tmp_path, command):
    manifest = str(FUML / "fuml.mashup")
    path = tmp_path / "norota.model"
    path.write_text('{"conformsTo": "fuml", "objects": '
                    '[{"id": "c1", "class": "Class", "slots": {}}], "roots": ["@c1"]}')
    assert run_cli(command, "--manifest", manifest, "--model", str(path)) == (
        5, "", f"{manifest}:0:0: Fault model has no root object of class Activity\n")
    # run reports a fault of the entry against the model, bench against the manifest
    where = str(path) if command == "run" else manifest
    assert run_cli(command, "--manifest", manifest, "--model", str(path),
                   "--entry", "Class.run") == (
        5, "", f"{where}:0:0: NoSuchMethod Class has no operation run\n")
    worksession = str(MODELS / "worksession.model")
    where = worksession if command == "run" else manifest
    # the entry's operation and arity are checked at run time: the CLI passes
    # no arguments, to a user operation or a builtin alike
    assert run_cli(command, "--manifest", manifest, "--model", worksession,
                   "--entry", "Activity.launch") == (
        5, "", f"{where}:0:0: TypeFault launch expects 1 argument(s), got 0\n")
    assert run_cli(command, "--manifest", manifest, "--model", worksession,
                   "--entry", "Activity.trace") == (
        5, "", f"{where}:0:0: TypeFault trace expects 1 argument(s)\n")
    assert run_cli(command, "--manifest", manifest, "--model", worksession,
                   "--entry", "Activity.") == (
        5, "", f"{manifest}:0:0: Fault --entry wants Class.operation, got 'Activity.'\n")


def test_bench_contract_violation_exits_4(tmp_path):
    """A violated postcondition ends bench with exit code 4, reported
    against the manifest."""
    (tmp_path / "p.mm").write_text(COUNTER_MM)
    (tmp_path / "p.act").write_text('package p;\nrequire "p.mm";\naspect class Counter {\n'
                                    "  operation start() : Void is do self.n := self.n + 1 end\n}\n")
    (tmp_path / "p.inv").write_text('package p;\nrequire "p.mm";\nrequire "p.act";\n'
                                    "aspect class Counter { post still on start : self.n == 0; }\n")
    manifest = tmp_path / "p.mashup"
    manifest.write_text('package p;\nrequire "p.mm";\nrequire "p.act";\nrequire "p.inv";\n'
                        "main Counter.start;\n")
    model = tmp_path / "c.model"
    model.write_text('{"conformsTo": "p", "objects": [{"id": "c", "class": "Counter", '
                     '"slots": {}}], "roots": ["@c"]}')
    assert run_cli("bench", "--manifest", str(manifest), "--model", str(model)) == (
        4, "", f"{manifest}:0:0: PostconditionViolation still @ c\n")


def test_run_entry_override_and_bad_entry():
    code, out, _ = run_cli("run", "--manifest", str(FUML / "fuml.mashup"),
                           "--model", str(MODELS / "worksession.model"),
                           "--entry", "Activity.executeReverse")
    assert code == 0 and "NodeExecuted\tTalk" in out
    code, _out, err = run_cli("run", "--manifest", str(FUML / "fuml.mashup"),
                              "--model", str(MODELS / "worksession.model"),
                              "--entry", "nonsense")
    assert code == 5 and "Class.operation" in err


def test_bench_single_rep_mean_equals_min_max(tmp_path):
    code, out, _err = run_cli(
        "bench", "--manifest", str(FUML / "fuml.mashup"),
        "--model", str(MODELS / "worksession.model"), "--reps", "1")
    assert code == 0
    fields = dict(part.split("=") for part in out.split()[1:])
    assert fields["reps"] == "1"
    assert fields["mean"] == fields["min"] == fields["max"]


def test_bench_rejects_non_positive_reps():
    with pytest.raises(SystemExit):
        run_cli("bench", "--manifest", str(FUML / "fuml.mashup"),
                "--model", str(MODELS / "worksession.model"), "--reps", "0")


def test_mashup_color_env_var_controls_ansi(monkeypatch):
    import io

    from mashup.diagnostics import Diagnostic, print_diagnostics

    class FakeTty(io.StringIO):
        def isatty(self):
            return True

    monkeypatch.setenv("MASHUP_COLOR", "0")
    stream = FakeTty()
    print_diagnostics([Diagnostic("Code", "message", "unit")], stream)
    assert "\x1b[" not in stream.getvalue()
    monkeypatch.delenv("MASHUP_COLOR")
    stream = FakeTty()
    print_diagnostics([Diagnostic("Code", "message", "unit")], stream)
    assert stream.getvalue().startswith("\x1b[31m")


DEEP = 1200


def test_deep_declared_hierarchy_composes(tmp_path):
    """A chain of DEEP classes composes whether each class is declared
    after its supertype or before it."""
    base_first = [f"class C{k} extends C{k - 1} {{ }}" for k in range(1, DEEP)]
    for order in (["class C0 { }"] + base_first, base_first[::-1] + ["class C0 { }"]):
        classes = "\n".join(order)
        (tmp_path / "p.mm").write_text(f"metamodel p {{\n{classes}\n}}\n")
        (tmp_path / "p.mashup").write_text('package p;\nrequire "p.mm";\n')
        code, out, err = run_cli("compose", "--manifest", str(tmp_path / "p.mashup"))
        assert (code, err) == (0, ""), err
        assert out.strip() == f"composed p: {DEEP} classes, 0 aspected"


def test_deep_aspect_hierarchy_composes(tmp_path):
    classes = "\n".join(f"class C{k} {{ }}" for k in range(DEEP))
    (tmp_path / "p.mm").write_text(f"metamodel p {{\n{classes}\n}}\n")
    (tmp_path / "p.act").write_text('package p;\nrequire "p.mm";\n' + "".join(
        f"aspect class C{k} inherits C{k + 1} {{}}\n" for k in range(DEEP - 1)))
    (tmp_path / "p.mashup").write_text('package p;\nrequire "p.mm";\nrequire "p.act";\n')
    code, out, err = run_cli("compose", "--manifest", str(tmp_path / "p.mashup"))
    assert (code, err) == (0, ""), err
    assert out.strip() == f"composed p: {DEEP} classes, {DEEP - 1} aspected"


def test_non_ascii_digit_bound_is_a_syntax_error(tmp_path):
    (tmp_path / "p.mm").write_text("metamodel p {\n  class A { attr x: Int[²..1]; }\n}\n")
    (tmp_path / "p.mashup").write_text('package p;\nrequire "p.mm";\n')
    code, _out, err = run_cli("compose", "--manifest", str(tmp_path / "p.mashup"))
    assert code == 1
    assert err == "p.mm:2:25: SyntaxError expected lower bound or '*'\n"


def test_unreadable_files_name_their_unit(tmp_path):
    manifest = tmp_path / "p.mashup"
    code, _out, err = run_cli("compose", "--manifest", str(manifest))
    assert code == 1
    assert err.startswith(f"{manifest}:0:0: UnitNotFound cannot read manifest: "), err
    manifest.write_text('package p;\nrequire "sub/ghost.mm";\n')
    code, _out, err = run_cli("compose", "--manifest", str(manifest))
    assert code == 1
    assert err.startswith("sub/ghost.mm:0:0: UnitNotFound cannot read unit: "), err
    model = tmp_path / "ghost.model"
    code, _out, err = run_cli("check", "--manifest", str(FUML / "fuml.mashup"),
                              "--model", str(model))
    assert code == 1
    assert err.startswith(f"{model}:0:0: UnitNotFound cannot read model: "), err


def test_non_utf8_model_exits_1(tmp_path):
    model = tmp_path / "bad.model"
    model.write_bytes(b"\xff\xfe{}")
    code, _out, err = run_cli("check", "--manifest", str(FUML / "fuml.mashup"),
                              "--model", str(model))
    assert code == 1
    assert err.startswith(f"{model}:0:0: UnitNotFound cannot read model: 'utf-8' codec"), err


def test_only_execution_commands_take_execution_options():
    model = str(MODELS / "worksession.model")
    for option in (["--contracts", "full"], ["--entry", "Activity.execute"]):
        with pytest.raises(SystemExit):
            run_cli("check", "--manifest", str(FUML / "fuml.mashup"), "--model", model,
                    *option)
    code, _out, err = run_cli("run", "--manifest", str(FUML / "fuml.mashup"),
                              "--model", model, "--contracts", "full")
    assert (code, err) == (0, "")


def _mutants(data: bytes, rng: random.Random, count: int) -> list[tuple[str, bytes]]:
    """``count`` mutants of ``data``, each a byte flip, a truncation, or the
    duplication or deletion of one token (a word, a run of blanks or one
    other byte), named for the failure message."""
    tokens = re.findall(rb"\w+|\s+|.", data, re.S)
    out = []
    for i in range(count):
        kind = ("flip", "truncate", "duplicate", "delete")[i % 4]
        if kind == "flip":
            at = rng.randrange(len(data))
            mutant = data[:at] + bytes([data[at] ^ (1 << rng.randrange(8))]) + data[at + 1:]
        elif kind == "truncate":
            at = rng.randrange(len(data))
            mutant = data[:at]
        else:
            at = rng.randrange(len(tokens))
            kept = tokens[at:at + 1] * (2 if kind == "duplicate" else 0)
            mutant = b"".join(tokens[:at] + kept + tokens[at + 1:])
        out.append((f"{kind}@{at}", mutant))
    return out


# a diagnostic's first line: unit:line:col: Code
_DIAGNOSTIC = re.compile(r"^\S.*:\d+:\d+: [A-Z]\w* ", re.M)


@pytest.mark.parametrize("name", ["fuml.mm", "fuml.inv", "fuml.act", "fuml.mashup",
                                  "worksession.model"])
def test_mutated_inputs_end_in_an_exit_code_and_a_diagnostic(tmp_path, name):
    # compose on mutated units and manifests, check on mutated models; run
    # is left out, as a mutated loop need not terminate
    shutil.copytree(FUML, tmp_path, dirs_exist_ok=True)
    shutil.copy(MODELS / "worksession.model", tmp_path)
    manifest, path = str(tmp_path / "fuml.mashup"), tmp_path / name
    command = ("check", "--manifest", manifest, "--model", str(path)) \
        if name.endswith(".model") else ("compose", "--manifest", manifest)
    rng = random.Random(name)
    bad = []
    for what, mutant in _mutants(path.read_bytes(), rng, 20):
        path.write_bytes(mutant)
        try:
            code, _out, err = run_cli(*command)
        except Exception as exc:  # noqa: BLE001 - every escape is reported
            bad.append(f"{what}: {type(exc).__name__}: {exc}")
            continue
        if not 0 <= code <= 5 or "Traceback" in err:
            bad.append(f"{what}: exit {code}: {err!r}")
        elif 1 <= code <= 3 and not _DIAGNOSTIC.search(err):
            bad.append(f"{what}: exit {code} without a diagnostic: {err!r}")
    assert bad == []
