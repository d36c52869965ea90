#!/usr/bin/env python3
"""The natspace benchmark.

Run from the root of a checkout:

    python3 bench/run.py --workload eval-precise --seed 1 --seconds 30 --trace 0

One closed-loop client in one process, with no threads: a query is sent only
after the previous one returned.  The inputs come from --seed alone.

--trace 0 measures the end-to-end metrics, untraced.  A run asks a fixed list
of queries made from the seed and --seconds: as many as take --seconds at the
workload's nominal speed, so that a run does the same work however fast the
machine is at the moment.  Each query is asked once.
--trace 1 runs the workload's plan for TRACE_SECONDS (which --seconds does not
change) once untraced and twice traced, each in a fresh process, and reports
the per-layer metrics; it checks that the traced runs repeat every count
exactly and give the untraced outputs.

Every answer is checked.  The last line of stdout is one JSON object with
the keys correct, attempted, failed and metrics.  A results file with the
input properties, the output digest, every query's latency and the machine
stamp goes to bench/results/.

End-to-end metrics: setup_s is the median time from the start of a fresh
runner process to the end of the workload's set-up, probed SETUP_PROBES times
spread over the run; query_p50_s and query_p90_s are percentiles of every
query's latency (below 100 queries, query_p90_s is the highest percentile
with ten queries beyond it, recorded in the results file); throughput_qps is
the queries completed per second of the timed phase, in which the one client
asks its queries back to back; sound_ratio is the share of queries whose
answers passed every check; peak_rss_mb is the runner's peak resident memory.
Every time is scaled to the machine's momentary speed, measured next to it
(see run_plan); the results file keeps the measured times as well.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RESULTS = BENCH / "results"
SETUP_PROBES = 9
TRACE_SECONDS = 15
QUERY_DEADLINE_S = 140  # a run stops asking here, to exit within 180 s
REFERENCE_CALIBRATION_S = 0.003
CHILD_DEADLINE_S = 170

END_TO_END = (
    ("setup_s", "s"),
    ("query_p50_s", "s"),
    ("query_p90_s", "s"),
    ("throughput_qps", "queries/s"),
    ("sound_ratio", "fraction"),
    ("peak_rss_mb", "MB"),
)


# ---------------------------------------------------------------------------
# Running queries.


def calibrate() -> float:
    """Seconds that a fixed piece of pure-Python work takes now, about 3 ms.

    The work mixes Fraction arithmetic, big integers and dict stores, as
    natspace does, and runs no natspace code.  The collector is off while it
    runs, so that the program's heap does not change its time."""
    gc.disable()
    try:
        begin = time.perf_counter()
        acc, seen = Fraction(0), {}
        for i in range(1, 700):
            acc = (acc + Fraction(i, i + 7)) / 2
            seen[(i % 97, i & 31)] = (acc.numerator & 0xFFFF, i)
            if i % 100 == 0:
                acc = Fraction(acc.numerator % 10**30, acc.denominator % 10**30 + 1)
        return time.perf_counter() - begin
    finally:
        gc.enable()


def answer(workload, state, item, span=None):
    """One query: its answer (a Failure if it raised) and its latency."""
    from workloads import Failure

    begin = time.perf_counter()
    try:
        with span or contextlib.nullcontext():
            result = workload.query(state, item)
    except Exception as exc:  # a query that raises is a failed query
        result = Failure(f"{type(exc).__name__}: {exc}")
    return result, time.perf_counter() - begin


def run_plan(args, workload, state, items):
    """The timed phase: every query of the plan once, in order, with the
    set-up probes spread over it and calibrate() before and after each.

    A shared host runs this code up to twice as slow at some times as at
    others, for seconds to minutes.  calibrate() slows with it, so each
    measured time is scaled by REFERENCE_CALIBRATION_S over the mean of the
    calibrations just before and after it: times read as on a machine where
    calibrate() takes 3 ms.  Returns the answers, and for the queries and
    the set-up probes their scaled and their measured seconds."""
    every = max(1, len(items) // SETUP_PROBES)
    answers = []
    times = {"queries": ([], []), "probes": ([], [])}
    start = time.perf_counter()
    before = calibrate()

    def record(kind, seconds):
        nonlocal before
        after = calibrate()
        scaled, measured = times[kind]
        scaled.append(seconds * 2 * REFERENCE_CALIBRATION_S / (before + after))
        measured.append(seconds)
        before = after

    for q, item in enumerate(items):
        if q % every == 0 and len(times["probes"][0]) < SETUP_PROBES:
            record("probes", probe_setup(args))
        if time.perf_counter() - start > QUERY_DEADLINE_S:
            break
        result, latency = answer(workload, state, item)
        answers.append(result)
        record("queries", latency)
    return answers, times


def judge(workload, state, items, answers):
    """Failure message per failed query index, and the SHA-256 of every
    answer in query order."""
    from workloads import Failure

    failures = {}
    for q, (item, result) in enumerate(zip(items, answers)):
        message = result.message if isinstance(result, Failure) else workload.check(item, result)
        if message:
            failures[q] = message
    for q, message in workload.finish(state, answers):
        failures.setdefault(q, message)
    digest = hashlib.sha256()
    for q, result in enumerate(answers):
        text = "failed" if q in failures else workload.text(result)
        digest.update(text.encode() + b"\n")
    return failures, digest.hexdigest()


def tail_latency(latencies):
    """p90 with at least 100 queries; otherwise the highest percentile that
    has ten samples beyond it.  Returns (value, percentile)."""
    ordered = sorted(latencies)
    n = len(ordered)
    rank = math.ceil(0.9 * n) if n >= 100 else max(1, n - 10)
    return ordered[rank - 1], round(100 * rank / n, 1)


# ---------------------------------------------------------------------------
# Fresh processes: set-up probes and trace runs.


def child_argv(args, *extra):
    return [sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
            "--seed", str(args.seed), *extra]


def probe_setup(args) -> float:
    """Seconds from the start of a fresh runner process to the end of the
    workload's set-up."""
    start = time.perf_counter()
    with subprocess.Popen(child_argv(args, "--probe-setup"), cwd=ROOT,
                          stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
        code = proc.wait(timeout=60)
    if line.strip() != "ready" or code:
        raise RuntimeError(f"set-up probe failed (exit {code})")
    return elapsed


def run_child(args, index: int, traced: bool, deadline: float) -> dict:
    proc = subprocess.run(
        child_argv(args, "--child", "1" if traced else "0", "--child-index", str(index)),
        cwd=ROOT, stdout=subprocess.PIPE, text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if proc.returncode:
        raise RuntimeError(f"trace child {index} failed (exit {proc.returncode})")
    return json.loads(proc.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# Stamp and results file.


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit():
    """HEAD of the checkout, read from .git without running git; None when
    the checkout is not a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _sha256_of(directory: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(directory.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def stamp(args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "git_commit": _git_commit(),
        "source_sha256": _sha256_of(ROOT / "src" / "natspace"),
        "bench_sha256": _sha256_of(BENCH),
        "time": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def write_results(args, doc: dict, problems: list) -> Path:
    """Write the results file; a digest that differs from an earlier run of
    the same program and benchmark code, workload, seed and query count is a
    problem."""
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    if path.is_file():
        try:
            old = json.loads(path.read_text())
        except ValueError:
            old = {}
        same_run = all(old.get("stamp", {}).get(k) == doc["stamp"][k]
                       for k in ("source_sha256", "bench_sha256"))
        same_run = same_run and old.get("digest", {}).get("queries") == doc["digest"]["queries"]
        if same_run and old.get("digest", {}).get("sha256") != doc["digest"]["sha256"]:
            problems.append(f"output digest differs from the earlier run in {path.name}")
    doc["problems"] = problems
    path.write_text(json.dumps(doc, indent=1, sort_keys=True, default=str) + "\n")
    return path


def report(metrics: dict, correct: bool, attempted: int, failed: int) -> None:
    for name, m in metrics.items():
        print(f"{name:40s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))


# ---------------------------------------------------------------------------
# Modes.


def measure(args, workload) -> int:
    """--trace 0: the end-to-end metrics from one untraced run."""
    items = workload.plan(args.seed, args.seconds)
    planned = len(items)
    state = workload.setup()
    answers, times = run_plan(args, workload, state, items)
    (latencies, measured), (probes, measured_probes) = times["queries"], times["probes"]
    items = items[:len(answers)]
    failures, digest = judge(workload, state, items, answers)
    n = len(items)
    tail, tail_pct = tail_latency(latencies)
    values = {
        "setup_s": statistics.median(probes),
        "query_p50_s": statistics.median(latencies),
        "query_p90_s": tail,
        # one closed-loop client: the timed phase is its queries back to back
        "throughput_qps": n / sum(latencies),
        "sound_ratio": (n - len(failures)) / n,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    problems = [f"query {q}: {msg}" for q, msg in sorted(failures.items())[:20]]
    if n < planned:
        print(f"note: stopped after {n} of {planned} queries at the {QUERY_DEADLINE_S} s limit")
    path = write_results(args, {
        "stamp": stamp(args),
        "metrics": metrics,
        "queries": n,
        "planned_queries": planned,
        "query_p90_percentile": tail_pct,
        "latencies_s": {"scaled": latencies, "measured": measured},
        "setup_probes_s": {"scaled": probes, "measured": measured_probes},
        "failed_ratio": len(failures) / n,
        "digest": {"queries": n, "sha256": digest},
        "inputs": workload.properties(items),
    }, problems)
    print(f"{args.workload} seed {args.seed}: {n} queries in {sum(measured):.2f} s measured, "
          f"{len(failures)} failed; p90 column is p{tail_pct}; results in {path.relative_to(ROOT)}")
    for problem in problems:
        print("problem:", problem)
    report(metrics, not problems, n, len(failures))
    return 0


def trace(args, workload) -> int:
    """--trace 1: per-layer metrics from two traced runs, checked against
    each other and against an untraced run of the same queries."""
    from tracing import layer_metrics

    deadline = time.monotonic() + CHILD_DEADLINE_S
    plain = run_child(args, 0, traced=False, deadline=deadline)
    runs = [run_child(args, k, traced=True, deadline=deadline) for k in (1, 2)]
    problems = []
    for k, run in enumerate(runs, 1):
        if run["digest"] != plain["digest"]:
            problems.append(f"traced run {k} gives other outputs than the untraced run")
        if run["unbound"]:
            problems.append(f"traced run {k} left unwrapped bindings: {run['unbound']}")
        for layer in workload.layers:
            name = layer if layer in run["layers"] else f"{layer}.calls"
            if not run["layers"][name]:
                problems.append(f"traced run {k}: layer {layer} did no work")
    counts = [{name: v for name, v in run["layers"].items() if not name.endswith("_s")}
              for run in runs]
    if counts[0] != counts[1]:
        differ = sorted(n for n in counts[0] if counts[0][n] != counts[1].get(n))
        problems.append(f"counts differ between the two traced runs: {differ}")
    failed = sorted({int(q) for run in (plain, *runs) for q in run["failures"]})
    values = {}
    for name, unit in layer_metrics():
        if name == "trace.overhead_s":
            values[name] = statistics.mean(r["wall_s"] for r in runs) - plain["wall_s"]
        elif unit == "s":
            values[name] = statistics.mean(r["layers"][name] for r in runs)
        else:
            values[name] = runs[0]["layers"][name]
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in layer_metrics()}
    problems += [f"query {q}: {msg}" for run in (plain, *runs)
                 for q, msg in sorted(run["failures"].items())[:5]]
    path = write_results(args, {
        "stamp": stamp(args),
        "metrics": metrics,
        "queries": plain["queries"],
        "wall_s": {"untraced": plain["wall_s"], "traced": [r["wall_s"] for r in runs]},
        "digest": {"queries": plain["queries"], "sha256": plain["digest"]},
        "inputs": plain["inputs"],
    }, problems)
    print(f"{args.workload} seed {args.seed}: traced {plain['queries']} queries; "
          f"results in {path.relative_to(ROOT)}")
    for problem in problems:
        print("problem:", problem)
    report(metrics, not problems, plain["queries"], len(failed))
    return 0


def child(args, workload) -> int:
    """One run of the traced query plan, in this fresh process."""
    tracer = None
    if args.child:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    start = time.perf_counter()
    state = workload.setup()
    items = workload.plan(args.seed, TRACE_SECONDS)
    answers = [answer(workload, state, item, tracer.span(q) if tracer else None)[0]
               for q, item in enumerate(items)]
    wall = time.perf_counter() - start
    layers = tracer.snapshot() if tracer else {}
    failures, digest = judge(workload, state, items, answers)
    if tracer:
        RESULTS.mkdir(exist_ok=True)
        path = RESULTS / f"trace-{args.workload}-seed{args.seed}-{args.child_index}.json"
        path.write_text(json.dumps({"stamp": stamp(args), "wall_s": wall, "layers": layers,
                                    "spans": tracer.spans}, indent=1) + "\n")
    print(json.dumps({
        "wall_s": wall,
        "queries": len(items),
        "digest": digest,
        "failures": failures,
        "layers": layers,
        "unbound": tracer.unbound() if tracer else [],
        "inputs": workload.properties(items),
    }, default=str))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--child", type=int, choices=(0, 1), help=argparse.SUPPRESS)
    parser.add_argument("--child-index", type=int, default=0, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    if not (ROOT / "src" / "natspace" / "__init__.py").is_file():
        print(f"error: no natspace sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    if args.probe_setup:
        workload.setup()
        print("ready", flush=True)
        return 0
    if args.child is not None:
        return child(args, workload)
    return trace(args, workload) if args.trace else measure(args, workload)


if __name__ == "__main__":
    sys.exit(main())
