"""The demo scripts run to completion against the public API."""

import importlib.util
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "script, first_line",
    [
        ("linecall_demo.py", "calling at resolution 2^-8"),
        ("metric_demo.py", "distance brackets at precision 6 bits"),
    ],
)
def test_demo_runs(script, first_line):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script)],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0] == first_line


def _script(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bench_pairs():
    return _script("bench_pairs")


def test_bench_pairs_alternate_which_side_runs_first():
    order = _bench_pairs().pair_order
    assert [order(k) for k in range(4)] == [
        ("parent", "change"), ("change", "parent"), ("parent", "change"), ("change", "parent"),
    ]


def _run(qps, rss, digest="d1", failed=0):
    return {"metrics": {"throughput_qps": qps, "peak_rss_mb": rss},
            "correct": not failed, "failed": failed, "digest": digest}


def test_bench_pairs_summary_of_fabricated_runs():
    bp = _bench_pairs()
    pairs = [{"parent": _run(q, 20.0), "change": _run(c, r)}
             for q, c, r in ((100, 120, 21.0), (104, 118, 19.0), (96, 90, 20.0),
                             (102, 125, 20.0), (98, 121, 22.0))]
    summary = bp.summarize(pairs, {"throughput_qps": "higher", "peak_rss_mb": "lower"})
    assert summary["pairs"] == 5 and summary["all_runs_correct"]
    assert summary["failed"] == {"parent": 0, "change": 0}
    assert summary["answer_sha256"] == {"parent": ["d1"], "change": ["d1"]}
    qps = summary["metrics"]["throughput_qps"]
    assert qps["parent"] == {"q1": 98, "median": 100, "q3": 102, "runs": [100, 104, 96, 102, 98]}
    assert qps["change"]["median"] == 120
    assert qps["change_over_parent_median"] == 1.2
    assert qps["parent_iqr_over_median"] == 0.04
    assert (qps["change_better_pairs"], qps["change_worse_pairs"]) == (4, 1)
    rss = summary["metrics"]["peak_rss_mb"]  # lower is better; a tie is neither
    assert (rss["change_better_pairs"], rss["change_worse_pairs"]) == (1, 2)


def _p90_summary(parent, change):
    def run(p90):
        return {"metrics": {"query_p90_s": p90}, "correct": True, "failed": 0, "digest": "d1"}

    pairs = [{"parent": run(p), "change": run(c)} for p, c in zip(parent, change)]
    return _bench_pairs().summarize(pairs, {"query_p90_s": "lower"})["metrics"]["query_p90_s"]


@pytest.mark.parametrize("change, expected", [
    ([0.55] * 9 + [1.2], "gain"),  # 9 of 10 pairs better, median gap far past the IQR
    ([0.55] * 8 + [1.2] * 2, "within"),  # 8 of 10 pairs better
    ([0.97] * 10, "within"),  # better in every pair, but by less than the parent's IQR
    ([1.2] * 10, "within"),  # 20% worse, under the 25% bound
    ([1.3] * 10, "worse"),  # 30% worse, past the bound
], ids=["gain", "8-of-10", "inside-iqr", "worse-in-bound", "worse"])
def test_bench_pairs_verdicts_on_fabricated_runs(change, expected):
    parent = [0.96, 0.98, 1.0, 1.02, 1.04] * 2  # median 1.0, IQR 0.04
    metric = _p90_summary(parent, change)
    assert _bench_pairs().verdict(metric, "lower", 0.25) == expected


@pytest.mark.parametrize("change, expected", [
    ([1.35] * 10, "unresolved"),  # 35% worse, but the parent's own runs spread wider
    ([1.0] * 10, "unresolved"),  # no change, which such a spread cannot show either
    ([0.65] * 10, "within"),  # every change run beats every parent run, by less than the IQR
    ([0.3] * 10, "gain"),  # better in every pair, the median gap past the parent's IQR
], ids=["worse", "same", "all-runs-better", "gain"])
def test_bench_pairs_verdicts_past_a_noisy_parent(change, expected):
    parent = [0.7, 0.8, 1.0, 1.2, 1.3] * 2  # median 1.0, IQR 0.4, past the 15% bound
    metric = _p90_summary(parent, change)
    assert metric["parent_iqr_over_median"] > 0.15
    assert _bench_pairs().verdict(metric, "lower", 0.15) == expected


@pytest.mark.parametrize("change, expected", [
    ([0.55] * 3, "unresolved"),  # better in 3 of 3 pairs by far: a gain needs 10 pairs
    ([0.99] * 3, "within"),  # better in every pair, but by less than the parent's IQR
    ([1.3] * 3, "worse"),  # 30% worse, past the bound
    ([1.2] * 3, "within"),  # 20% worse, under the 25% bound
], ids=["gain-like", "inside-iqr", "worse", "worse-in-bound"])
def test_bench_pairs_verdicts_from_three_pairs(change, expected):
    metric = _p90_summary([0.98, 1.0, 1.02], change)  # median 1.0, IQR 0.02
    assert _bench_pairs().verdict(metric, "lower", 0.25) == expected


def test_bench_pairs_verdict_reads_the_direction():
    # throughput (higher is better) 35% down: worse; 35% up in every pair: gain
    down = {"parent": {"q1": 99, "median": 100, "q3": 101, "runs": [100] * 10},
            "change": {"median": 65}, "change_better_pairs": 0}
    up = dict(down, change={"median": 135}, change_better_pairs=10)
    assert _bench_pairs().verdict(down, "higher", 0.25) == "worse"
    assert _bench_pairs().verdict(up, "higher", 0.25) == "gain"


def test_bench_pairs_layer_counts_list_the_counts_that_differ_first():
    traced = {"parent": {"metrics": {"b.calls": 5, "a.calls": 1008, "c.calls": 7, "z.pulls": 2}},
              "change": {"metrics": {"b.calls": 5, "a.calls": 365, "c.calls": 7, "z.pulls": 3}}}
    assert _bench_pairs().layer_counts(traced) == [
        {"name": "a.calls", "parent": 1008, "change": 365},
        {"name": "z.pulls", "parent": 2, "change": 3},
        {"name": "b.calls", "parent": 5, "change": 5},
        {"name": "c.calls", "parent": 7, "change": 7},
    ]


def test_bench_pairs_refuse_a_pair_whose_answers_differ():
    bp = _bench_pairs()
    bp.check_pair(0, {"parent": _run(1, 1), "change": _run(2, 2)})
    with pytest.raises(ValueError, match="pair 3: answer digests differ"):
        bp.check_pair(3, {"parent": _run(1, 1), "change": _run(1, 1, digest="d2")})
    failed = [{"parent": _run(1, 1), "change": _run(1, 1, failed=2)}] * 2
    summary = bp.summarize(failed, {"throughput_qps": "higher"})
    assert not summary["all_runs_correct"] and summary["failed"] == {"parent": 0, "change": 4}


_MODULE = '''"""A module."""


def add(a, b):
    """Add."""
    return (a +
            b)
'''


def test_src_size_counts_code_not_layout(tmp_path):
    src_size = _script("src_size")
    nodes = src_size.ast_nodes(_MODULE)
    reformatted = "def add(a, b):  # no docstrings\n    return a + b\n"
    redocumented = _MODULE.replace('"""Add."""', '"""Add b to a,\n    over two lines."""')
    assert src_size.ast_nodes(reformatted) == src_size.ast_nodes(redocumented) == nodes
    assert src_size.ast_nodes(_MODULE + "\n\nX = 1\n") == nodes + 4  # Assign Name Store Constant
    for tree, text in (("old", _MODULE), ("new", _MODULE + "\n\nX = 1\n")):
        (tmp_path / tree / "src" / "natspace").mkdir(parents=True)
        (tmp_path / tree / "src" / "natspace" / "m.py").write_text(text)
    rows = [row.split("\t") for row in src_size.table([tmp_path / "old", tmp_path / "new"])]
    assert rows[1:] == [[name, "7", str(nodes), "10", str(nodes + 4), "+3", "+4"]
                        for name in ("m", "total")]
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / "src_size.py")],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0 and proc.stdout.splitlines()[-1].startswith("total\t"), proc.stderr
