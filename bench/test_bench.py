"""Tests of the benchmark's own code.

Run from the root of a checkout:  python3 -m pytest -q bench/test_bench.py
"""

import itertools
import json
import random
import shutil
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import natspace  # noqa: E402
from natspace.cli import parse_expression  # noqa: E402
from natspace.dots import DyadicInterval  # noqa: E402

import run  # noqa: E402
import workloads as wl  # noqa: E402
from tracing import Tracer, layer_metrics  # noqa: E402


# ---------------------------------------------------------------------------
# Inputs.


def test_expressions_follow_the_acceptance_grammar():
    oracles_path = ROOT / "tests" / "oracles.py"
    if not oracles_path.is_file():
        pytest.skip("no acceptance oracles in this checkout")
    sys.path.insert(0, str(oracles_path.parent))
    import oracles

    a, b = random.Random(7), random.Random(7)
    for _ in range(200):
        text, tree = wl.random_expression(a, 3)
        o_text, o_value = oracles.random_expression(b, 3)
        assert text == o_text
        assert wl.describe(tree)[0] == o_value


def test_values_agree_with_the_cli_parse():
    rng = random.Random(3)
    for _ in range(200):
        text, tree = wl.random_expression(rng, 3)
        assert wl.describe(parse_expression(text))[0] == wl.describe(tree)[0]


def test_plans_repeat_for_a_seed_and_differ_across_seeds():
    for name in ("eval-precise", "topology"):
        w = wl.WORKLOADS[name]
        first = w.plan(5, 10)
        assert first == w.plan(5, 10)
        assert first != w.plan(6, 10)


def test_plan_sizes_follow_the_seconds():
    w = wl.WORKLOADS["eval-precise"]
    assert len(w.plan(1, 30)) == round(30 / w.query_s)
    assert len(w.plan(1, 1)) == wl.MIN_QUERIES
    m = wl.WORKLOADS["metric-table"]
    assert m.plan(1, 30) == list(wl.METRIC_PAIRS) * 2
    assert m.plan(1, 1) == list(wl.METRIC_PAIRS)


def test_precise_expressions_have_one_or_two_operations():
    for e in wl.WORKLOADS["eval-precise"].plan(1, 60):
        assert 1 <= e.operations <= 2


def test_stratified_keeps_the_middle_draw_of_each_stratum():
    draws = itertools.count()
    chosen = wl.stratified(random.Random(1), lambda rng: next(draws), key=lambda x: -x, size=8)
    per = wl.DRAWS_PER_STRATUM
    assert sorted(chosen) == sorted(8 * per - 1 - (k * per + per // 2) for k in range(8))


def test_unglued_copies_model_matches_cover_trails():
    real = natspace.std_space("sigma_R")
    for m in range(0, 11):
        for n in range(-6, 7):
            d = DyadicInterval(n, m)
            assert wl.unglued_copies(n, m) == len(natspace.cover_trails(real, d)), d


# ---------------------------------------------------------------------------
# Answer checks: each must flag a deliberately wrong answer.


def _cli_answer(lo, hi, code=0):
    return code, json.dumps({"lo": str(lo), "hi": str(hi)}), ""


def test_eval_check_flags_wrong_brackets():
    w = wl.WORKLOADS["eval-precise"]
    value = Fraction(1, 3)
    item = wl.Expression("1/3", value, Counter(rat=1))
    step = Fraction(1, 2 ** (w.bits + 1))
    assert w.check(item, _cli_answer(value - step, value + step)) is None
    assert w.check(item, w.query(None, item)) is None
    assert "unsound" in w.check(item, _cli_answer(value + step, value + 2 * step))
    assert "too wide" in w.check(item, _cli_answer(value - 4 * step, value + 4 * step))
    assert "exit 2" in w.check(item, (2, "", "error: boom"))
    assert "unreadable" in w.check(item, (0, "lo 1", ""))


class _FakeTable:
    """Distances |x_i - x_j| between points on a line, as exact brackets."""

    def __init__(self):
        self.x = [Fraction(i, 20) for i in range(len(wl.METRIC_BASES))]
        self.override = {}

    def distance(self, i, j):
        if (i, j) in self.override:
            return self.override[(i, j)]
        d = abs(self.x[i] - self.x[j])
        return d, d + Fraction(1, 1000)


def _tables(state, count=2):
    return [state.distance(i, j) for i, j in wl.METRIC_PAIRS] * count


def test_metric_checks_accept_a_metric_and_flag_each_violation():
    w = wl.WORKLOADS["metric-table"]
    state = _FakeTable()
    answers = _tables(state)
    assert w.finish(state, answers) == []
    assert w.check(None, (Fraction(1), Fraction(0))) is not None

    state.override = {(3, 1): (Fraction(1, 2), Fraction(1))}
    assert any("symmetric" in m for _, m in w.finish(state, answers))

    state.override = {(4, 4): (Fraction(1, 100), Fraction(1, 10))}
    assert any("d(x,x)" in m for _, m in w.finish(state, answers))
    state.override = {}

    broken = list(answers)
    k = len(wl.METRIC_PAIRS) + wl.METRIC_PAIRS.index((0, 14))
    broken[k] = (Fraction(5), Fraction(6))
    messages = [m for _, m in w.finish(state, broken)]
    assert any("triangle" in m for m in messages)
    assert any("differs from table 0" in m for m in messages)

    flat = list(answers)
    k = len(wl.METRIC_PAIRS) + wl.METRIC_PAIRS.index((0, 8))  # base dots 0 and 4
    flat[k] = (Fraction(0), flat[k][1])
    flat[k - len(wl.METRIC_PAIRS)] = flat[k]
    state.override[(8, 0)] = flat[k]
    assert any("positive" in m for _, m in w.finish(state, flat))


def test_topology_check_flags_wrong_answers():
    w = wl.WORKLOADS["topology"]
    item = wl.TopologyInput(q=Fraction(3), copies=(1,) * 21, bar_depth=3, bar_seed=11,
                            pick=0.5, code=(1, 2))
    answer = w.query(wl.TopologyState(), item)
    assert w.check(item, answer) is None

    def broken(**change):
        return w.check(item, wl.TopologyAnswer(**{**vars(answer), **change}))

    assert "misses" in broken(image=DyadicInterval(100, 20))
    assert "apart" in broken(image_apart=natspace.Apart(3))
    assert "cover [0,1]" in broken(chosen=answer.chosen[:1])
    assert "cover dots" in broken(chosen=answer.chosen + (DyadicInterval(0, 9),))
    assert "leaf" in broken(member=False)
    assert "round trip" in broken(round_trip_apart=natspace.Apart(1))


# ---------------------------------------------------------------------------
# Runner and tracer.


def test_tail_latency_is_p90_or_ten_samples_from_the_top():
    assert run.tail_latency(list(range(1, 201))) == (180, 90.0)
    value, pct = run.tail_latency(list(range(1, 61)))
    assert value == 50 and pct == round(100 * 50 / 60, 1)


def test_times_are_scaled_by_the_calibrations_around_them(monkeypatch):
    calibrations = iter([0.002, 0.004, 0.008, 0.004])
    monkeypatch.setattr(run, "calibrate", lambda: next(calibrations))
    monkeypatch.setattr(run, "probe_setup", lambda args: 0.5)
    monkeypatch.setattr(run, "SETUP_PROBES", 1)

    class Slow:
        def query(self, state, item):
            time.sleep(0.05)
            return item

    answers, times = run.run_plan(None, Slow(), None, ["a", "b"])
    assert answers == ["a", "b"]
    probes, queries = times["probes"], times["queries"]
    ref = run.REFERENCE_CALIBRATION_S
    assert probes == (pytest.approx([0.5 * ref / 0.003]), [0.5])
    for scaled, measured in zip(*queries):  # calibrations around each average 6 ms
        assert measured >= 0.05 and scaled == pytest.approx(measured * ref / 0.006)


def test_self_time_excludes_wrapped_children():
    tracer = Tracer()
    outer_stat, inner_stat = [0, 0.0], [0, 0.0]
    inner = tracer._wrap(inner_stat, lambda: time.sleep(0.02))

    def body():
        time.sleep(0.01)
        inner()
        inner()

    outer = tracer._wrap(outer_stat, body)
    with tracer.span(0):
        outer()
    assert inner_stat[0] == 2 and outer_stat[0] == 1
    assert inner_stat[1] >= 0.04
    assert 0.01 <= outer_stat[1] < 0.03
    (span,) = tracer.spans
    assert span["query"] == 0 and span["wall_s"] >= 0.05 and span["self_s"] < 0.005


def test_install_wraps_every_binding_and_counts_calls():
    script = (
        "import io, contextlib, json, sys\n"
        f"sys.path[:0] = [{str(ROOT / 'src')!r}, {str(BENCH)!r}]\n"
        "import natspace.cli\n"
        "from tracing import Tracer\n"
        "t = Tracer(); t.install()\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    natspace.cli.main(['eval', '--bits', '8', '--', '1/3 + 1/6'])\n"
        "print(json.dumps({'unbound': t.unbound(), 'layers': t.snapshot()}))\n"
    )
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         check=True, timeout=120)
    doc = json.loads(out.stdout)
    assert doc["unbound"] == []
    layers = doc["layers"]
    assert layers["cli.main.calls"] == 1
    assert layers["cli.compile_expression.calls"] == 3
    assert layers["morphisms.round_hull.calls"] > 0
    assert layers["points.dot.pulls"] > 0
    names = {name for name, _ in layer_metrics()}
    assert names - {"trace.overhead_s"} == set(layers)


def test_runner_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "eval-precise", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode != 0
    assert out.stdout == ""


def test_benchmark_json_names_what_the_runner_reports():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(wl.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == layer_metrics()
    assert all(len(w["why"]) <= 200 for w in doc["workloads"])
