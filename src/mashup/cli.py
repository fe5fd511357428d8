"""Command-line entry point.

    mashup compose --manifest pkg.mashup
    mashup emit    --manifest pkg.mashup [--emit report.txt]
    mashup check   --manifest pkg.mashup --model m.model
    mashup run     --manifest pkg.mashup --model m.model [--entry C.op]
    mashup bench   --manifest pkg.mashup --model m.model [--reps N]

Exit codes: 0 success, 1 parse error or unreadable file, 2 composition
error, 3 type or conformance error, 4 contract violation, 5 runtime fault.
Results go to stdout, diagnostics to stderr (MASHUP_COLOR=0 disables ANSI
colors).
"""

from __future__ import annotations

import argparse
import sys
import time

from .composer import MashupManifest, WovenModel, emit_report, read_source
from .diagnostics import Diagnostic, EvalFault, WorkbenchError, print_diagnostics
from .runtime import Interpreter, ModelInstance, ObjRef, check_model, load_model
from .typecheck import build


def _load_model(path: str, woven: WovenModel) -> ModelInstance:
    return load_model(read_source(path, "model"), woven, path)


def _entry_point(args, manifest: MashupManifest) -> tuple[str, str]:
    if args.entry:
        cls, sep, op = args.entry.partition(".")
        if not sep or not cls or not op:
            raise EvalFault("Fault", f"--entry wants Class.operation, got {args.entry!r}")
        return cls, op
    if manifest.main:
        return manifest.main
    raise EvalFault("Fault", "no entry point: pass --entry or add a main to the manifest")


def cmd_compose(args) -> int:
    _manifest, _units, woven = build(args.manifest)
    rich = sum(1 for name in woven.classes if woven.aspect_units.get(name))
    print(f"composed {woven.package}: {len(woven.classes)} classes, {rich} aspected")
    return 0


def cmd_emit(args) -> int:
    _manifest, _units, woven = build(args.manifest)
    report = emit_report(woven)
    if args.emit:
        with open(args.emit, "w", encoding="utf-8") as handle:
            handle.write(report)
    else:
        sys.stdout.write(report)
    return 0


def cmd_check(args) -> int:
    _manifest, _units, woven = build(args.manifest)
    model = _load_model(args.model, woven)
    results = check_model(model)
    bad = 0
    for r in results:
        if r.status == "violated":
            print(f"VIOLATED {r.invariant} @ {r.obj_id}")
            bad += 1
        elif r.status == "error":
            print(f"ERROR {r.invariant} @ {r.obj_id} ({r.detail})")
            bad += 1
    print(f"checked {len(results)} invariant evaluation(s), {bad} problem(s)")
    return 4 if bad else 0


def _entry(args) -> tuple[ModelInstance, str, list[str]]:
    """Build the manifest, load the model and resolve the entry: the model,
    the entry operation and the roots whose class conforms to the entry's."""
    manifest, _units, woven = build(args.manifest)
    model = _load_model(args.model, woven)
    cls, op = _entry_point(args, manifest)
    roots = [oid for oid in model.roots if woven.conforms(model.objects[oid].class_name, cls)]
    if not roots:
        raise EvalFault("Fault", f"model has no root object of class {cls}")
    return model, op, roots


def _run_entry(interp: Interpreter, op: str, roots: list[str]) -> None:
    for oid in roots:
        interp.invoke(ObjRef(oid), op, [])


def cmd_run(args) -> int:
    model, op, roots = _entry(args)
    interp = Interpreter(model, args.contracts)
    code = 0
    try:
        _run_entry(interp, op, roots)
    except EvalFault as fault:  # both faults and contract violations
        print_diagnostics([Diagnostic(fault.kind, fault.message, args.model)])
        code = fault.exit_code
    for event in interp.trace:
        print(event.render())
    return code


def cmd_bench(args) -> int:
    base_model, op, roots = _entry(args)
    timings: list[float] = []
    for _rep in range(args.reps):
        # load/copy time stays outside the clock
        interp = Interpreter(base_model.clone(), args.contracts)
        start = time.perf_counter()
        _run_entry(interp, op, roots)
        timings.append(time.perf_counter() - start)
    mean = sum(timings) / len(timings)
    print(
        f"bench: reps={args.reps} mean={mean * 1000:.3f}ms "
        f"min={min(timings) * 1000:.3f}ms max={max(timings) * 1000:.3f}ms"
    )
    return 0


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return value


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mashup",
        description="compose metamodel, constraint and behavior units into a DSL runtime",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {
        "compose": cmd_compose, "emit": cmd_emit, "check": cmd_check,
        "run": cmd_run, "bench": cmd_bench,
    }
    for name, fn in commands.items():
        p = sub.add_parser(name)
        p.add_argument("--manifest", required=True, help="mashup manifest file")
        if name in ("check", "run", "bench"):
            p.add_argument("--model", required=True, help="model document to load")
        if name in ("run", "bench"):
            p.add_argument("--entry", help="Class.operation entry point override")
            p.add_argument(
                "--contracts", choices=["off", "prepost", "full"], default="prepost",
                help="contract enforcement during execution",
            )
        if name == "emit":
            p.add_argument("--emit", help="write the report here instead of stdout")
        if name == "bench":
            p.add_argument("--reps", type=_positive_int, default=30,
                           help="repetitions over fresh model copies")
        p.set_defaults(fn=fn)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_arg_parser().parse_args(argv)
    try:
        return args.fn(args)
    except WorkbenchError as err:
        print_diagnostics(err.diagnostics)
        return err.exit_code
    except EvalFault as fault:
        print_diagnostics([Diagnostic(fault.kind, fault.message, args.manifest)])
        return fault.exit_code


if __name__ == "__main__":
    sys.exit(main())
