#!/usr/bin/env python3
"""Paired benchmark runs of two checkouts, a parent and a change.

Run from anywhere, with two directories that each hold a checkout:

    python3 scripts/bench_pairs.py PARENT CHANGE --workloads topology --pairs 10 --seed 1

Both checkouts are byte-compiled fresh (compileall -f on src and bench)
before the first run.  Pair k runs `bench/run.py --trace 0` once in each
checkout, the parent first in even pairs and the change first in odd ones.
A pair whose two runs give different answer digests stops the script with
exit 1.  Progress goes to stderr; stdout is one JSON object, workload ->
summary: per end-to-end metric the parent's and the change's runs with
their inclusive quartiles, the ratio of the medians, the parent's IQR over
its median, the pairs in which the change is better or worse, and a
verdict (see `verdict`), which stderr lists too.

With --trace, each workload's pairs are followed by one `bench/run.py
--trace 1` run in each checkout, and the summary gains layer_counts: every
count metric with the parent's and the change's value, those that differ
first.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def pair_order(k: int) -> Tuple[str, str]:
    """The sides of pair k in the order they run: the parent first in even pairs."""
    return SIDES if k % 2 == 0 else SIDES[::-1]


def compile_fresh(checkout: Path) -> None:
    subprocess.run([sys.executable, "-m", "compileall", "-q", "-f", "src", "bench"],
                   cwd=checkout, check=True, stdout=subprocess.DEVNULL)


def run_once(checkout: Path, workload: str, seed: int, trace: int = 0) -> dict:
    """One bench/run.py run at its default length: its metric values (with
    trace 1, the count metrics only), failures and answer digest."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--trace", str(trace)],
        cwd=checkout, capture_output=True, text=True, check=True,
    )
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    results = checkout / "bench" / "results" / f"{workload}-seed{seed}-trace{trace}.json"
    return {
        "metrics": {name: m["value"] for name, m in last["metrics"].items()
                    if not trace or m["unit"] == "count"},
        "correct": last["correct"],
        "failed": last["failed"],
        "digest": json.loads(results.read_text())["digest"]["sha256"],
    }


def check_pair(k, runs: Dict[str, dict]) -> None:
    if runs["parent"]["digest"] != runs["change"]["digest"]:
        raise ValueError(f"pair {k}: answer digests differ: parent "
                         f"{runs['parent']['digest']}, change {runs['change']['digest']}")


def _spread(values: Sequence[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3, "runs": list(values)}


def summarize(pairs: List[Dict[str, dict]], better: Dict[str, str]) -> dict:
    """One workload's pairs ({"parent": run, "change": run} each) as a summary;
    better maps each metric to "higher" or "lower"."""
    out: dict = {
        "pairs": len(pairs),
        "all_runs_correct": all(p[s]["correct"] and not p[s]["failed"]
                                for p in pairs for s in SIDES),
        "failed": {s: sum(p[s]["failed"] for p in pairs) for s in SIDES},
        "answer_sha256": {s: sorted({p[s]["digest"] for p in pairs}) for s in SIDES},
        "metrics": {},
    }
    for name, direction in better.items():
        sign = 1 if direction == "higher" else -1
        parent = _spread([p["parent"]["metrics"][name] for p in pairs])
        change = _spread([p["change"]["metrics"][name] for p in pairs])
        gains = [sign * (p["change"]["metrics"][name] - p["parent"]["metrics"][name])
                 for p in pairs]
        out["metrics"][name] = {
            "parent": parent,
            "change": change,
            "change_over_parent_median": (change["median"] / parent["median"]
                                          if parent["median"] else None),
            "parent_iqr_over_median": ((parent["q3"] - parent["q1"]) / parent["median"]
                                       if parent["median"] else None),
            "change_better_pairs": sum(g > 0 for g in gains),
            "change_worse_pairs": sum(g < 0 for g in gains),
        }
    return out


def verdict(metric: dict, direction: str, bound: float) -> str:
    """A metric summary's verdict: "gain" when the change is better in at
    least 9 of 10 pairs and its median beats the parent's by more than the
    parent's IQR; "unresolved" when it is no gain, the parent's IQR exceeds
    bound (a fraction of the parent's median, as BENCHMARK.json gives it)
    and some change run reads no better than some parent run, for such a
    spread cannot tell a change within the bound from one past it; else
    "worse" when its median is worse than the parent's by more than bound,
    and "within" otherwise."""
    parent, change = metric["parent"], metric["change"]
    sign = 1 if direction == "higher" else -1
    gap = (change["median"] - parent["median"]) * sign
    if (10 * metric["change_better_pairs"] >= 9 * len(parent["runs"])
            and gap > parent["q3"] - parent["q1"]):
        return "gain"
    if (parent["q3"] - parent["q1"] > bound * abs(parent["median"])
            and min(sign * v for v in change["runs"]) <= max(sign * v for v in parent["runs"])):
        return "unresolved"
    return "worse" if -gap > bound * abs(parent["median"]) else "within"


def layer_counts(traced: Dict[str, dict]) -> List[dict]:
    """The count metrics of a traced run per side as {name, parent, change}
    rows, the counts that differ first, each group by name."""
    parent, change = (traced[s]["metrics"] for s in SIDES)
    rows = [{"name": name, "parent": parent.get(name), "change": change.get(name)}
            for name in sorted(parent.keys() | change.keys())]
    return sorted(rows, key=lambda row: row["parent"] == row["change"])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--trace", action="store_true",
                        help="add one traced run per side and workload (layer_counts)")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in benchmark["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in benchmark["end_to_end"]}
    for checkout in checkouts.values():
        compile_fresh(checkout)
    summary = {}
    try:
        for workload in args.workloads:
            pairs = []
            for k in range(args.pairs):
                runs = {side: run_once(checkouts[side], workload, args.seed)
                        for side in pair_order(k)}
                check_pair(k, runs)
                pairs.append(runs)
                qps = {s: round(runs[s]["metrics"]["throughput_qps"], 1) for s in SIDES}
                print(f"{workload} pair {k}: throughput_qps {qps}", file=sys.stderr)
            summary[workload] = summarize(pairs, better)
            for name, metric in summary[workload]["metrics"].items():
                metric["verdict"] = verdict(metric, better[name], bounds[name])
                print(f"{workload} {name}: {metric['verdict']}", file=sys.stderr)
            if args.trace:
                traced = {side: run_once(checkouts[side], workload, args.seed, trace=1)
                          for side in SIDES}
                check_pair("traced", traced)
                summary[workload]["layer_counts"] = layer_counts(traced)
    except (ValueError, subprocess.CalledProcessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(summary, indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
