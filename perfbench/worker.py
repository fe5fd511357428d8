"""One benchmark worker process: set up a workload, then run its ops.

    python3 perfbench/worker.py --spec SPEC.json --mode setup|run|trace --seconds S

``setup`` only times the set-up and exits.  ``run`` times the set-up and
then runs whole cycles of the workload's ops (each input once per cycle),
one at a time, until both ``--seconds`` have passed and MIN_OPS ops are
done.  ``trace`` runs
half the time untraced and half traced, then one sweep over every layer.
The result is one JSON line on stdout.  ``run.py`` writes the spec and
starts this script.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path.insert(0, HERE)

import reference  # noqa: E402  (plain Python, never imports mashup)

MIN_OPS = 100       # p90 needs at least ten samples beyond it
HARD_LIMIT_S = 140  # stop adding cycles after this, whatever MIN_OPS says
# Each layer, and the workload whose op the closing sweep borrows to
# measure it where a workload's own ops never call it.
OWNER = {"parse": "build", "compose": "build", "validate": "build", "typecheck": "build",
         "report": "build", "load": "ingest", "conformance": "ingest", "check": "ingest",
         "clone": "execute", "execute": "execute", "assign": "edit", "save": "ingest"}


def calibrate() -> float:
    """Milliseconds for a fixed pure-Python loop; reported, never used to scale."""
    start = time.perf_counter()
    acc = 0
    for i in range(300_000):
        acc = (acc + i * i) % 1_000_003
    return (time.perf_counter() - start) * 1e3


class Tracer:
    """Spans around calls into mashup, kept in memory until the run ends.

    A span is (name, start ns, end ns, parent span index, op id).  When
    disabled, ``call`` is a plain call.
    """

    def __init__(self):
        self.enabled = False
        self.op_id = "setup"
        self.spans: list = []
        self._stack: list[int] = []

    def call(self, name: str, fn, *args):
        if not self.enabled:
            return fn(*args)
        index = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(index)
        start = time.perf_counter_ns()
        try:
            return fn(*args)
        finally:
            self.spans[index] = (name, start, time.perf_counter_ns(), parent, self.op_id)
            self._stack.pop()


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


class Workload:
    """Set-up, the op cycle, the timed op and its verification.

    ``op`` makes only the calls a user pays for; ``verify`` runs outside
    the clock and returns mismatch descriptions.  Counts accumulate in
    ``counts`` under their metric names.
    """

    def __init__(self, spec: dict, tr: Tracer):
        self.spec = spec
        self.tr = tr
        self.reset()

    def reset(self) -> tuple[Counter, list[int]]:
        """Start counting afresh; returns what was counted so far."""
        old = getattr(self, "counts", Counter()), getattr(self, "load_sizes", [])
        self.counts: Counter = Counter()
        self.load_sizes: list[int] = []  # elements per load call, in call order
        return old

    def setup(self) -> None:
        """Import mashup, build fuml-lite and load resident inputs."""
        sys.path.insert(0, SRC)
        import mashup

        if os.path.dirname(os.path.abspath(mashup.__file__)) != os.path.join(SRC, "mashup"):
            raise RuntimeError(f"imported mashup from {mashup.__file__}, not from {SRC}")
        self.m = mashup
        _units, self.woven, problems = self.build_language(self.spec["fuml"])
        if problems:
            raise RuntimeError(f"fuml-lite does not build: {problems[0].render()}")
        self.models = [self.load(_read(item["path"])) for item in self.spec.get("resident", ())]

    def build_language(self, manifest_path: str):
        m, tr = self.m, self.tr
        manifest, units = tr.call("parse", self.parse, manifest_path)
        woven = tr.call("compose", m.compose, units, manifest.package)
        problems = tr.call("validate", self.validate, woven)
        problems += tr.call("typecheck", m.typecheck_units, units, woven)
        return units, woven, problems

    def parse(self, path: str):
        manifest = self.m.composer.load_manifest(path)
        return manifest, self.m.resolve_requires(manifest)

    def validate(self, woven) -> list:
        problems = self.m.validate_woven(woven)
        for wc in woven.classes.values():
            problems.extend(self.m.resolve_method_conflicts(wc, woven))
        return problems

    def load(self, text: str):
        model = self.tr.call("load", self.m.load_model, text, self.woven)
        self.load_sizes.append(len(model.objects))
        return model


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as handle:
        return handle.read()


class Build(Workload):
    """Op: build one language (parse, compose, validate, typecheck) and emit
    its report."""

    def cycle(self) -> list:
        return self.spec["languages"]

    def op(self, lang: dict):
        units, woven, problems = self.build_language(lang["manifest"])
        report = self.tr.call("report", self.m.emit_report, woven)
        return units, woven, problems, report

    def verify(self, lang: dict, out) -> list[str]:
        units, woven, problems, report = out
        lins = {name: wc.linearization for name, wc in woven.classes.items()}
        c = self.counts
        c["parse.bytes"] += lang["bytes"]
        c["parse.units"] += len(units)
        c["compose.classes"] += len(woven.classes)
        c["compose.lin_len"] += sum(len(lin) for lin in lins.values())
        c["report.bytes"] += len(report.encode())
        expected = {name: tuple(lin) for name, lin in lang["linearizations"].items()}
        return reference.check_build(lins, expected, [d.render() for d in problems])


class Ingest(Workload):
    """Op: load_model, check_model, save_model on one document."""

    def cycle(self) -> list:
        for item in self.spec["models"]:
            item.setdefault("text", _read(item["path"]))
        return self.spec["models"]

    def op(self, item: dict):
        model = self.load(item["text"])
        results = self.tr.call("check", self.m.check_model, model)
        saved = self.tr.call("save", self.m.save_model, model)
        return model, results, saved

    def verify(self, item: dict, out) -> list[str]:
        model, results, saved = out
        if self.tr.enabled:
            self.tr.call("load.json", json.loads, item["text"])
        problems = self.tr.call("conformance", self.m.runtime.conformance_check, model)
        violated = [(r.invariant, r.obj_id) for r in results if r.status == "violated"]
        errors = sum(1 for r in results if r.status == "error")
        c = self.counts
        c["check.evaluations"] += len(results)
        c["check.violations"] += len(violated)
        c["save.bytes"] += len(saved.encode())
        bad = reference.check_ingest(violated, errors, saved, item["planted"], item["text"])
        return bad + [f"conformance_check found {len(problems)} problem(s)"] * bool(problems)


class Execute(Workload):
    """Op: clone a resident activity, then run one schedule under prepost
    contracts.  Ops alternate between the two schedules."""

    def cycle(self) -> list:
        return [(k, op) for k in range(len(self.models)) for op in ("execute", "executeReverse")]

    def run(self, item, policy: str = "prepost"):
        model = self.tr.call("clone", self.models[item[0]].clone)
        receiver = self.m.exprs.ObjRef("a1")
        name = "execute" if policy == "prepost" else "execute.off"
        return self.tr.call(name, self.m.invoke, model, receiver, item[1], None, policy)[1].trace

    def op(self, item):
        return self.run(item)

    def verify(self, item, trace) -> list[str]:
        if self.tr.enabled:
            self.run(item, "off")
        runtime = self.m.runtime
        labels = [e.label for e in trace if isinstance(e, runtime.NodeExecuted)]
        c = self.counts
        c["execute.dispatches"] += sum(1 for e in trace if isinstance(e, runtime.OpEnter))
        c["execute.trace_events"] += len(trace)
        c["execute.nodes"] += len(labels)
        ref = self.spec["resident"][item[0]]
        return reference.check_execute(labels, ref["labels"], ref["preds"])


class Edit(Workload):
    """Op: clone a resident model, apply one seeded session through the
    assignment API, save."""

    def cycle(self) -> list:
        m = self.m
        self.assign = {"add": ("assign.add", m.add_to_feature),
                       "remove": ("assign.remove", m.remove_from_feature),
                       "set": ("assign.set", m.set_feature)}
        return self.spec["sessions"]

    def op(self, session: dict):
        m, tr = self.m, self.tr
        ObjRef = m.exprs.ObjRef
        model = tr.call("clone", self.models[session["model"]].clone)
        made: list = []
        refused = 0
        for step in session["plan"]:
            if step[0] == "create":
                made.append(tr.call("assign.create", m.create_instance, model, step[1]))
                continue
            owner = ObjRef(step[1][1]) if step[1][0] == "ref" else made[step[1][1]]
            tag, raw = step[3]
            value = ObjRef(raw) if tag == "ref" else made[raw] if tag == "new" else m.exprs.StringV(raw)
            name, fn = self.assign[step[0]]
            try:
                tr.call(name, fn, model, owner, step[2], value)
            except m.EvalFault as fault:
                if fault.kind != "UpperBoundExceeded":
                    raise
                refused += 1
        saved = tr.call("save", m.save_model, model)
        return model, refused, saved

    def verify(self, session: dict, out) -> list[str]:
        model, refused, saved = out
        problems = self.tr.call("conformance", self.m.runtime.conformance_check, model)
        c = self.counts
        c["assign.calls"] += len(session["plan"])
        c["assign.refused"] += refused
        c["save.bytes"] += len(saved.encode())
        return reference.check_edit(saved, refused, session["expected"],
                                    session["refused"], problems)


WORKLOADS = {"build": Build, "ingest": Ingest, "execute": Execute, "edit": Edit}


# ---------------------------------------------------------------------------
# Running
# ---------------------------------------------------------------------------


class Runner:
    """Closed loop, one client: the next op starts when the last is verified."""

    def __init__(self, work: Workload):
        self.work = work
        self.latencies: list[float] = []  # seconds
        self.failed = 0
        self.failures: list[str] = []

    def one(self, item, op_id) -> None:
        work = self.work
        work.tr.op_id = op_id
        start = time.perf_counter()
        try:
            out = work.tr.call("op", work.op, item)
        except Exception as exc:  # an op that raises is a failed op, not a crash
            self.latencies.append(time.perf_counter() - start)
            self.fail(f"{type(exc).__name__}: {exc}")
            return
        self.latencies.append(time.perf_counter() - start)
        bad = work.verify(item, out)
        if bad:
            self.fail("; ".join(bad[:3]))

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.failures) < 5:
            self.failures.append(message[:300])

    def cycles(self, cycle: list, seconds: float, min_ops: int) -> None:
        """Whole cycles until ``seconds`` and ``min_ops`` are both reached."""
        start = time.perf_counter()
        while True:
            for item in cycle:
                self.one(item, len(self.latencies))
            elapsed = time.perf_counter() - start
            if elapsed >= HARD_LIMIT_S or (elapsed >= seconds and len(self.latencies) >= min_ops):
                return


def sweep(work: Workload, runner: Runner) -> dict[str, tuple]:
    """One op of every other workload on tiny inputs, so that layers this
    workload never calls still report.  Returns the counts, load sizes and
    op count of each, keyed by its op id."""
    phases = {}
    for name, cls in WORKLOADS.items():
        if name == work.spec["workload"]:
            continue
        mini = cls(work.spec["sweep"][name], work.tr)
        mini.m, mini.woven = work.m, work.woven
        work.tr.op_id = "setup"
        mini.models = [mini.load(_read(item["path"])) for item in mini.spec.get("resident", ())]
        mini.reset()
        mini_runner = Runner(mini)
        mini_runner.one(mini.cycle()[0], f"sweep:{name}")
        runner.failed += mini_runner.failed
        runner.failures += mini_runner.failures
        runner.latencies += mini_runner.latencies
        phases[f"sweep:{name}"] = (*mini.reset(), 1)
    return phases


def layer_metrics(spans: list, phases: dict) -> dict[str, float]:
    """Per-layer self time and counts per op.

    ``phases`` maps "op" and each sweep op id to (counts, load sizes, ops).
    A layer is measured on the workload's own traced ops; a layer they never
    call is measured on the sweep op of the workload that owns it.
    """
    child_ns = [0] * len(spans)
    for _name, start, end, parent, _op in spans:
        if parent is not None:
            child_ns[parent] += end - start
    self_ms: dict[str, Counter] = {phase: Counter() for phase in phases}
    load_ms: dict[str, list[float]] = {phase: [] for phase in phases}
    for i, (name, start, end, _parent, op) in enumerate(spans):
        if op == "setup":
            continue
        phase = op if isinstance(op, str) else "op"
        self_ms[phase][name] += (end - start - child_ns[i]) / 1e6
        if name == "load":
            load_ms[phase].append((end - start) / 1e6)
    used = {name.split(".")[0] for name in self_ms["op"]}

    def phase_of(name: str) -> str:
        layer = name.split(".")[0]
        return "op" if layer in used else f"sweep:{OWNER[layer]}"

    def ms(name: str) -> float:
        phase = phase_of(name)
        return self_ms[phase][name] / phases[phase][2]

    def count(name: str) -> float:
        phase = phase_of(name)
        return phases[phase][0][name] / phases[phase][2]

    out: dict[str, float] = {}
    for layer in OWNER:
        if layer != "assign":
            out[f"{layer}.ms"] = ms(layer)
    for name in ("parse.bytes", "parse.units", "compose.classes", "compose.lin_len",
                 "report.bytes", "check.evaluations", "check.violations",
                 "execute.dispatches", "execute.trace_events", "execute.nodes",
                 "assign.calls", "assign.refused", "save.bytes"):
        out[name] = count(name)
    phase = phase_of("load")
    sizes, times = phases[phase][1], load_ms[phase]
    out["load.json_ms"] = ms("load.json")
    out["load.elements"] = sum(sizes) / len(sizes)
    out["load.us_per_element"] = sum(times) * 1e3 / sum(sizes)
    out["load.growth"] = _growth(sizes, times)
    out["execute.off_ms"] = ms("execute.off")
    out["contracts.ms"] = out["execute.ms"] - out["execute.off_ms"]
    out["execute.us_per_dispatch"] = out["execute.ms"] * 1e3 / out["execute.dispatches"]
    for kind in ("create", "set", "add", "remove"):
        out[f"assign.{kind}_ms"] = ms(f"assign.{kind}")
    out["assign.accept_frac"] = 1 - out["assign.refused"] / out["assign.calls"]
    return out


def _growth(sizes: list[int], times: list[float]) -> float:
    """Per-element load time at the largest size over that at the smallest."""
    per_element: dict[int, list[float]] = {}
    for n, ms in zip(sizes, times):
        per_element.setdefault(n, []).append(ms / n)
    lo, hi = min(per_element), max(per_element)
    return (sum(per_element[hi]) / len(per_element[hi])) / (sum(per_element[lo]) / len(per_element[lo]))


def layer_shares(spans: list) -> dict[str, float]:
    """Each layer's share of the time spent inside the traced ops."""
    totals: Counter = Counter()
    for name, start, end, parent, op in spans:
        if isinstance(op, int) and parent is not None and spans[parent][0] == "op":
            totals[name.split(".")[0]] += end - start
    whole = sum(totals.values())
    return {layer: totals[layer] / whole for layer in OWNER if totals[layer]}


def write_spans(path: str, spans: list) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        for i, (name, start, end, parent, op) in enumerate(spans):
            handle.write(json.dumps({"id": i, "name": name, "start_ns": start, "end_ns": end,
                                     "parent": parent, "op": op}) + "\n")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spec", required=True)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    parser.add_argument("--seconds", type=float, required=True)
    args = parser.parse_args()
    with open(args.spec, encoding="utf-8") as handle:
        spec = json.load(handle)
    tr = Tracer()
    work = WORKLOADS[spec["workload"]](spec, tr)
    start = time.perf_counter()
    work.setup()
    setup_s = time.perf_counter() - start
    result: dict = {"setup_s": setup_s}
    if args.mode == "setup":
        print(json.dumps(result))
        return 0
    cycle = work.cycle()
    work.reset()
    calib = [calibrate()]
    runner = Runner(work)
    if args.mode == "run":
        runner.cycles(cycle, args.seconds, MIN_OPS)
    else:
        runner.cycles(cycle, args.seconds / 2, 1)
        untraced_s = sum(runner.latencies) / len(runner.latencies)
        work.reset()
        tr.enabled = True
        traced = Runner(work)
        traced.cycles(cycle, args.seconds / 2, 1)
        op_phase = (*work.reset(), len(traced.latencies))
        sweep_phases = sweep(work, traced)
        tr.enabled = False
        traced_s = sum(traced.latencies[:op_phase[2]]) / op_phase[2]
        metrics = layer_metrics(tr.spans, {"op": op_phase, **sweep_phases})
        metrics["trace.overhead"] = traced_s / untraced_s
        result.update(layers=metrics, shares=layer_shares(tr.spans))
        write_spans(spec["trace_out"], tr.spans)
        runner.latencies += traced.latencies
        runner.failed += traced.failed
        runner.failures += traced.failures
    calib.append(calibrate())
    result.update(
        latencies_ms=[t * 1e3 for t in runner.latencies],
        failed=runner.failed,
        failures=runner.failures,
        calib_ms=calib,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
