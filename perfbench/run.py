#!/usr/bin/env python3
"""Run one workload of the mashup benchmark and print its metrics.

    python3 perfbench/run.py --workload build|ingest|execute|edit \
        --seed N --seconds S --trace 0|1

Run it from the repository root.  It draws the workload's inputs from the
seed into ``.perfbench/``, times the set-up in SETUP_PROBES fresh worker
processes plus the measuring one, then runs the ops in one worker process
(one thread, closed loop).  With ``--trace 0`` it prints the end-to-end
metrics, with ``--trace 1`` the per-layer ones.  The last line of stdout is
one JSON object: {"correct", "attempted", "failed", "metrics"}.  See
perfbench/README.md for what each metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import gen  # noqa: E402
import reference  # noqa: E402

FUML = os.path.join(HERE, "fuml-lite", "fuml.mashup")
WORKLOADS = ("build", "ingest", "execute", "edit")
SETUP_PROBES = 5  # plus the measuring worker's own set-up
BUDGET_S = 170  # every worker must be done by then

# Synthetic languages of the build workload: (classes, ladder levels).
LANGUAGE_SHAPES = ((100, 10), (130, 11), (170, 12), (210, 12), (250, 13), (300, 14))
# The ROADMAP size ladder (generator depths 102, 400 and 800), weighted so
# that p50 falls among the small and p90 among the middle documents.
INGEST_SIZES = (720,) * 16 + (2806,) * 3 + (5606,)
EXECUTE_SIZES = tuple(100 + 600 * k // 11 for k in range(12))
EDIT_SIZES = (2000, 3000, 4000)
EDIT_SESSIONS = (0, 0, 0, 1, 1, 1, 2)  # resident model of each session
EDIT_STEPS = 700


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------


def language_entry(manifest: str) -> dict:
    """Manifest path, bytes of unit text and the reference linearizations."""
    folder = os.path.dirname(manifest)
    texts = [_read(os.path.join(folder, name)) for name in sorted(os.listdir(folder))
             if name.endswith((".mm", ".inv", ".act", ".mashup"))]
    supers = reference.supertypes_of(texts)
    return {
        "manifest": manifest,
        "bytes": sum(len(t.encode()) for t in texts),
        "linearizations": {name: reference.linearization(name, supers) for name in supers},
    }


def write_model(path: str, model: dict) -> dict:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(model["text"])
    return {"path": path, "elements": model["elements"], "planted": model["planted"]}


def draw(workload: str, work: str, seed: int, small: bool = False) -> dict:
    """Draw the inputs of one workload into ``work`` and return its spec.

    ``small`` draws the tiny inputs of the closing sweep instead.
    """
    rng = random.Random(f"{seed}:{workload}:{small}")
    os.makedirs(work, exist_ok=True)
    spec: dict = {"workload": workload, "fuml": FUML}
    if workload == "build":
        spec["languages"] = [language_entry(FUML)]
        for k, (classes, ladder) in enumerate(() if small else LANGUAGE_SHAPES):
            lang = gen.synthetic_language(rng.randrange(10**9), classes, ladder)
            folder = os.path.join(work, f"lang{k}")
            os.makedirs(folder)
            for name, text in lang["files"].items():
                with open(os.path.join(folder, name), "w", encoding="utf-8") as handle:
                    handle.write(text)
            spec["languages"].append(language_entry(os.path.join(folder, lang["manifest"])))
    elif workload == "ingest":
        sizes = list((60,) if small else INGEST_SIZES)
        rng.shuffle(sizes)
        spec["models"] = [
            write_model(os.path.join(work, f"ingest{k}.model"),
                        gen.activity_model(rng.randrange(10**9), n, planted=1 + n // 1000))
            for k, n in enumerate(sizes)
        ]
    elif workload == "execute":
        spec["resident"] = []
        for k, n in enumerate((60,) if small else EXECUTE_SIZES):
            model = gen.activity_model(rng.randrange(10**9), n)
            entry = write_model(os.path.join(work, f"execute{k}.model"), model)
            entry.update(labels=model["labels"]["a1"], preds=model["preds"]["a1"])
            spec["resident"].append(entry)
    else:
        spec["resident"], docs = [], []
        for k, n in enumerate((80,) if small else EDIT_SIZES):
            model = gen.activity_model(rng.randrange(10**9), n, activities=2)
            spec["resident"].append(write_model(os.path.join(work, f"edit{k}.model"), model))
            docs.append(model["doc"])
        spec["sessions"] = []
        for k in ((0,) if small else EDIT_SESSIONS):
            plan = gen.edit_plan(rng.randrange(10**9), docs[k], 12 if small else EDIT_STEPS)
            expected, refused = reference.edit_reference(docs[k], plan)
            spec["sessions"].append({"model": k, "plan": plan, "expected": expected,
                                     "refused": refused})
    return spec


def declared(kind: str) -> list[dict]:
    """The metrics BENCHMARK.json declares under ``kind``, in order."""
    return json.loads(_read(os.path.join(ROOT, "BENCHMARK.json")))[kind]


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as handle:
        return handle.read()


# ---------------------------------------------------------------------------
# Workers
# ---------------------------------------------------------------------------


def start_worker(spec_path: str, mode: str, seconds: float, deadline: float) -> dict:
    """Run one worker process to completion and return its JSON result."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--spec", spec_path,
           "--mode", mode, "--seconds", str(seconds)]
    try:
        done = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise SystemExit(f"perfbench: {mode} worker ran past the time budget") from exc
    if done.returncode != 0:
        sys.stderr.write(done.stderr[-3000:])
        raise SystemExit(f"perfbench: {mode} worker exited with code {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def run_one(workload: str, seed: int, seconds: float, trace: bool, deadline: float) -> dict:
    """One run of one workload; prints its summary lines, returns the result."""
    work = os.path.join(ROOT, ".perfbench", f"run-{os.getpid()}-{workload}")
    try:
        spec = draw(workload, work, seed)
        spec["trace_out"] = os.path.join(ROOT, ".perfbench", f"trace-{workload}.jsonl")
        if trace:
            spec["sweep"] = {name: draw(name, os.path.join(work, "sweep", name), seed, True)
                             for name in WORKLOADS if name != workload}
        spec_path = os.path.join(work, "spec.json")
        with open(spec_path, "w", encoding="utf-8") as handle:
            json.dump(spec, handle)
        probes = 0 if trace else SETUP_PROBES
        # probes before and after the run, so one slow spell of the host
        # does not take them all
        setups = [start_worker(spec_path, "setup", 0, deadline)["setup_s"]
                  for _ in range(probes - probes // 2)]
        res = start_worker(spec_path, "trace" if trace else "run", seconds, deadline)
        setups += [start_worker(spec_path, "setup", 0, deadline)["setup_s"]
                   for _ in range(probes // 2)]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    lat = res["latencies_ms"]
    attempted, failed = len(lat), res["failed"]
    calib = statistics.median(res["calib_ms"])
    for message in res["failures"]:
        print(f"{workload}: failure: {message}")
    if trace:
        values = dict(res["layers"], **{"host.calib_ms": calib})
        names = declared("per_layer")
        shares = ", ".join(f"{k} {v:.0%}" for k, v in
                           sorted(res["shares"].items(), key=lambda kv: -kv[1]))
        print(f"{workload}: {attempted} ops (untraced half, traced half, sweep); "
              f"share of traced op time by layer: {shares}")
    else:
        setups.append(res["setup_s"])
        values = {
            "setup_s": statistics.median(setups),
            "ops_per_s": (attempted - failed) / (sum(lat) / 1e3),
            "latency_p50_ms": percentile(lat, 50),
            "latency_p90_ms": percentile(lat, 90),
            "peak_rss_mb": res["peak_rss_mb"],
        }
        names = declared("end_to_end")
        beyond = sum(1 for t in lat if t > values["latency_p90_ms"])
        print(f"{workload}: {attempted} ops, {beyond} beyond p90, "
              f"fail_frac = {failed / attempted:.4f}, host.calib_ms = {calib:.2f} ms")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in names}
    for name, m in metrics.items():
        print(f"{workload}: {name} = {m['value']:.6g} {m['unit']}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def main() -> int:
    parser = argparse.ArgumentParser(description="mashup benchmark")
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True,
                        help="'all' runs every workload untraced and traced")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "mashup", "__init__.py")):
        print("perfbench: no src/mashup next to the benchmark; run from a full checkout",
              file=sys.stderr)
        return 2
    if args.workload != "all":
        deadline = time.monotonic() + BUDGET_S
        print(json.dumps(run_one(args.workload, args.seed, args.seconds, bool(args.trace),
                                 deadline)))
        return 0
    results = {}
    for workload in WORKLOADS:
        for trace in (False, True):
            deadline = time.monotonic() + BUDGET_S
            results[workload, trace] = run_one(workload, args.seed, args.seconds, trace, deadline)
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{name}": m for (w, _t), r in results.items()
                    for name, m in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
