"""The workloads of the natspace benchmark.

A workload makes its queries from a seed, builds the program objects that its
queries share (its set-up), answers one query at a time, and checks every
answer with code of its own: exact rational arithmetic and interval sweeps
that do not call the program under test.  A query is one request for a
certified answer.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import operator
import random
import statistics
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Tuple

import natspace
import natspace.cli
from natspace.dots import DyadicInterval, Isolated, Seq
from natspace.induction import Cover, GeneticBar, Leaf, Split
from natspace.spaces import _STD_BUILDERS


class Failure:
    """The answer of a query that raised."""

    def __init__(self, message: str):
        self.message = message


# ---------------------------------------------------------------------------
# Query plans.

DRAWS_PER_STRATUM = 16
MIN_QUERIES = 21  # so that the tail latency, ten from the top, is not below the median


def plan_size(seconds: int, query_s: float) -> int:
    """Queries in a run of `seconds`, at the workload's nominal query time.

    A run asks a fixed list of queries, so that it does the same work however
    fast the machine is at the moment; query_s is the mean query time on a
    2-CPU x86-64 machine, so that there a run takes about `seconds`."""
    return max(MIN_QUERIES, round(seconds / query_s))


def stratified(rng: random.Random, make, key, size: int) -> list:
    """size seeded inputs that spread evenly over a cost key, in key order.

    Query cost spreads over two orders of magnitude, so with plain draws a
    seed's luck moves every percentile.  This makes size * 16 draws, orders
    them by the key and keeps the middle draw of each of size equal strata.
    """
    draws = sorted((make(rng) for _ in range(size * DRAWS_PER_STRATUM)), key=key)
    return [draws[k * DRAWS_PER_STRATUM + DRAWS_PER_STRATUM // 2] for k in range(size)]


def summary(values) -> dict:
    values = sorted(values)
    if not values:
        return {"count": 0}
    return {
        "count": len(values),
        "min": values[0],
        "median": statistics.median(values),
        "p90": values[math.ceil(0.9 * len(values)) - 1],
        "max": values[-1],
        "mean": sum(values) / len(values),
    }


def _dyadic_bracket(d) -> Optional[Tuple[Fraction, Fraction]]:
    if type(d) is not DyadicInterval:
        return None
    return Fraction(d.n, 2**d.m), Fraction(d.n + 2, 2**d.m)


def _dot_text(d) -> str:
    if type(d) is DyadicInterval:
        return f"D({d.n},{d.m})"
    if type(d) is Seq:
        return "S(" + ",".join(map(str, d.syms)) + ")"
    return repr(d)


def covers(segments, lo: Fraction, hi: Fraction) -> bool:
    """True iff the union of the closed segments contains [lo, hi]."""
    cursor = lo
    for s_lo, s_hi in sorted(segments):
        if s_lo > cursor:
            return False
        cursor = max(cursor, s_hi)
    return cursor >= hi


# ---------------------------------------------------------------------------
# Expressions of the eval grammar, with their exact values.
#   expr   := term (('+'|'-') term)*
#   term   := factor ('*' factor)*
#   factor := rational | '-' factor | min(e,e) | max(e,e) | abs(e) | (expr)


def random_expression(rng: random.Random, depth: int) -> Tuple[str, tuple]:
    """A random expression as (text, tree), drawn as the acceptance suite
    draws its fuzzed expressions.  Tree nodes are ("rat", q) or
    (operator, child, ...)."""

    def rational():
        num = rng.randint(0, 40)
        if rng.random() < 0.5:
            den = rng.randint(1, 12)
            return f"{num}/{den}", ("rat", Fraction(num, den))
        return str(num), ("rat", Fraction(num))

    def factor(d):
        r = rng.random()
        if d <= 0 or r < 0.40:
            return rational()
        if r < 0.55:
            text, node = factor(d - 1)
            return f"-{text}", ("neg", node)
        if r < 0.85:
            op = "min" if r < 0.70 else "max"
            (t1, n1), (t2, n2) = expr(d - 1), expr(d - 1)
            return f"{op}({t1}, {t2})", (op, n1, n2)
        text, node = expr(d - 1)
        if rng.random() < 0.5:
            return f"abs({text})", ("abs", node)
        return f"({text})", node

    def term(d):
        text, node = factor(d)
        for _ in range(rng.randint(0, 2)):
            t2, n2 = factor(d - 1)
            text, node = f"{text} * {t2}", ("mul", node, n2)
        return text, node

    def expr(d):
        text, node = term(d)
        for _ in range(rng.randint(0, 2)):
            op = rng.choice(["+", "-"])
            t2, n2 = term(d - 1)
            text, node = f"{text} {op} {t2}", ("add" if op == "+" else "sub", node, n2)
        return text, node

    return expr(depth)


_EXACT = {
    "neg": operator.neg,
    "abs": abs,
    "add": operator.add,
    "sub": operator.sub,
    "mul": operator.mul,
    "min": min,
    "max": max,
}


def describe(tree: tuple) -> Tuple[Fraction, Counter]:
    """The exact value and the operator counts of a tree."""
    ops: Counter = Counter()

    def value(node):
        ops[node[0]] += 1
        return node[1] if node[0] == "rat" else _EXACT[node[0]](*map(value, node[1:]))

    return value(tree), ops


@dataclass(frozen=True)
class Expression:
    text: str
    value: Fraction
    ops: Counter

    @property
    def operations(self) -> int:
        return sum(self.ops.values()) - self.ops["rat"]


def check_bracket(value: Fraction, lo: Fraction, hi: Fraction, bits: int) -> Optional[str]:
    """The promise of `natspace eval --bits`: the exact value lies inside,
    and the width is at most 2^(1-bits)."""
    if not lo <= value <= hi:
        return f"unsound: {value} not in [{lo}, {hi}]"
    if hi - lo > Fraction(2, 2**bits):
        return f"too wide: {hi - lo} > 2^(1-{bits})"
    return None


class EvalPrecise:
    """Expressions of one or two operations at 200 bits, through
    `natspace eval --format json` in-process, so that the cli layer is on
    the path.

    A run holds one third expressions of one operation and two thirds of
    two.  One operation takes about 0.2 s and two about 0.4 s, and the
    grammar draws each about half the time, which would put the median
    latency at the gap between the two and let a seed's draw flip it."""

    name = "eval-precise"
    why = (
        "one or two operations at 200 bits: round_hull and point plumbing at large "
        "grades, no enumeration or metric work"
    )
    depth, bits = 1, 200
    query_s = 0.34
    layers = (
        "cli.main",
        "cli.parse_expression",
        "cli.compile_expression",
        "morphisms.round_hull",
        "points.dot",
        "points.approximate",
        "points.ancestor_at",
        "spaces.relations",
        "spaces.predecessors",
        "dots.endpoints",
        "dots.interval_relations",
    )

    def make(self, rng: random.Random, operations: int) -> Expression:
        """The first draw of the grammar with that many operations."""
        while True:
            text, tree = random_expression(rng, self.depth)
            e = Expression(text, *describe(tree))
            if e.operations == operations:
                return e

    def plan(self, seed: int, seconds: int) -> List[Expression]:
        rng = random.Random(seed)
        size = plan_size(seconds, self.query_s)
        # differences cost most, then products, then longer operands
        items = [e for operations, share in ((1, size // 3), (2, size - size // 3))
                 for e in stratified(rng, lambda r: self.make(r, operations), size=share,
                                     key=lambda e: (e.ops["sub"], e.ops["mul"], len(e.text)))]
        rng.shuffle(items)
        return items

    def setup(self):
        return None

    def query(self, state, item: Expression):
        out, err = io.StringIO(), io.StringIO()
        argv = ["eval", "--bits", str(self.bits), "--format", "json", "--", item.text]
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = natspace.cli.main(argv)
        return code, out.getvalue(), err.getvalue()

    def bracket(self, answer) -> Tuple[Fraction, Fraction]:
        doc = json.loads(answer[1])
        return Fraction(doc["lo"]), Fraction(doc["hi"])

    def check(self, item: Expression, answer) -> Optional[str]:
        code, _, err = answer
        if code != 0:
            return f"exit {code}: {err.strip()}"
        try:
            lo, hi = self.bracket(answer)
        except (ValueError, KeyError, TypeError) as exc:
            return f"unreadable output {answer[1]!r}: {exc}"
        return check_bracket(item.value, lo, hi, self.bits)

    def text(self, answer) -> str:
        lo, hi = self.bracket(answer)
        return f"{lo} {hi}"

    def finish(self, state, answers) -> List[Tuple[int, str]]:
        return []

    def properties(self, items) -> dict:
        ops = Counter()
        for e in items:
            ops += e.ops
        nodes = [sum(e.ops.values()) for e in items]
        return {
            "bits": self.bits,
            "expressions": len(items),
            "distinct_expressions": len({e.text for e in items}),
            "operations_per_expression": dict(sorted(Counter(e.operations for e in items).items())),
            "operator_mix": dict(sorted(ops.items())),
            "nodes_per_expression": summary(nodes),
            "products_per_expression": summary([e.ops["mul"] for e in items]),
        }


# ---------------------------------------------------------------------------
# The metric table on sigma_[0,1]^+ at 10 bits.

METRIC_BITS = 10
METRIC_BASES: Tuple[Tuple[Optional[int], object], ...] = tuple(
    (n, d) for n in range(7) for d in (DyadicInterval(n, 3), DyadicInterval(4 * n + 1, 5))
) + ((None, Isolated(2)),)
METRIC_PAIRS = tuple(itertools.combinations(range(len(METRIC_BASES)), 2))


class MetricTableState:
    """One evaluator and the 15 canonical points, held for a whole table.

    The base space is built afresh rather than taken from std_space's shared
    copy, whose enumeration the previous table has already run, so that every
    table starts cold as in a new process."""

    def __init__(self):
        self.reset()

    def reset(self) -> None:
        base = _STD_BUILDERS["sigma_[0,1]"]()
        self.space = natspace.extend_with_isolated_point(base)
        self.evaluator = natspace.MetricEvaluator(self.space)
        self.points = [natspace.canonical_point(self.space, d) for _, d in METRIC_BASES]
        self.used = False

    def distance(self, i: int, j: int) -> Tuple[Fraction, Fraction]:
        self.used = True
        return natspace.evaluate_metric(self.evaluator, self.points[i], self.points[j], METRIC_BITS)


class MetricTable:
    """The 105-pair distance table of the metric demo and the acceptance
    suite, in itertools.combinations order.  A run computes whole tables;
    each table after the first starts from a fresh space, evaluator and
    points, as a new user would, and must reproduce the first table bit for
    bit.  The inputs are fixed: the seed changes nothing."""

    name = "metric-table"
    table_s = 15.0
    why = (
        "canonical-point streams, enumeration scans and separator building; "
        "the first query on a point builds, the others read caches"
    )
    layers = (
        "points.dot",
        "spaces.relations",
        "spaces.enumerate_dot",
        "spaces.level",
        "dots.endpoints",
        "dots.interval_relations",
        "metric.evaluate_metric",
        "metric.value_bounds",
        "metric.splitting_depth",
        "metric.separators_built",
    )

    def plan(self, seed: int, seconds: int) -> List[Tuple[int, int]]:
        return list(METRIC_PAIRS) * max(1, round(seconds / self.table_s))

    def setup(self) -> MetricTableState:
        return MetricTableState()

    def query(self, state: MetricTableState, item):
        if item == METRIC_PAIRS[0] and state.used:
            state.reset()
        return state.distance(*item)

    def check(self, item, answer) -> Optional[str]:
        lo, hi = answer
        if not 0 <= lo <= hi:
            return f"bad bracket [{lo}, {hi}]"
        return None

    def text(self, answer) -> str:
        return f"{answer[0]} {answer[1]}"

    def finish(self, state: MetricTableState, answers) -> List[Tuple[int, str]]:
        """Cross-query checks on the last whole table, asked again of the
        final state, and agreement of every table with the first."""
        size = len(METRIC_PAIRS)
        failed: List[Tuple[int, str]] = []
        first = answers[:size]
        for q in range(size, len(answers)):
            if answers[q] != first[q % size]:
                failed.append((q, f"table {q // size} differs from table 0 on pair {q % size}"))
        base = (len(answers) // size - 1) * size
        if base < 0 or any(isinstance(a, Failure) for a in answers[base:base + size]):
            return failed
        last = dict(zip(METRIC_PAIRS, answers[base:]))
        index = {pair: base + k for k, pair in enumerate(METRIC_PAIRS)}

        def d(i, j):
            return last[(i, j) if i < j else (j, i)]

        for (i, j), q in index.items():
            if state.distance(j, i) != last[(i, j)]:
                failed.append((q, "not symmetric"))
            ni, nj = METRIC_BASES[i][0], METRIC_BASES[j][0]
            if ni is not None and nj is not None and abs(ni - nj) >= 3 and last[(i, j)][0] <= 0:
                failed.append((q, "no positive lower bound for points 3 base dots apart"))
        for i in range(len(METRIC_BASES)):
            lo, _ = state.distance(i, i)
            if lo != 0:
                failed.append((base, f"d(x,x) lower bound {lo} for point {i}"))
        for x, y, z in itertools.permutations(range(len(METRIC_BASES)), 3):
            if d(x, z)[0] > d(x, y)[1] + d(y, z)[1]:
                failed.append((index[(min(x, z), max(x, z))], f"triangle ({x},{y},{z})"))
        return failed

    def properties(self, items) -> dict:
        return {
            "bits": METRIC_BITS,
            "distinct_points": len(METRIC_BASES),
            "distinct_pairs": len(set(items)),
            "tables": len(items) // len(METRIC_PAIRS),
            "base_dots": [_dot_text(d) for _, d in METRIC_BASES],
        }


# ---------------------------------------------------------------------------
# Topology: compression, a finite subcover, and a Baire round trip.

APART_BUDGET = 20
ROUND_TRIP_BUDGET = 12


def unglued_copies(n: int, m: int) -> int:
    """The number of immediate-successor trails from grade 1 down to the
    sigma_R dot [n/2^m, (n+2)/2^m]: dots of exponent 0 have grade 1, and a
    dot lies under two parents when n is even and under one when n is odd."""
    paths = {n: 1}
    for _ in range(m):
        up: Counter = Counter()
        for k, c in paths.items():
            for parent in (k // 2 - 1, k // 2) if k % 2 == 0 else ((k - 1) // 2,):
                up[parent] += c
        paths = up
    return sum(paths.values())


@dataclass(frozen=True)
class TopologyInput:
    q: Fraction
    copies: Tuple[int, ...]
    bar_depth: int
    bar_seed: int
    pick: float
    code: Tuple[int, ...]


def random_bar(space, root, depth: int, seed: int) -> GeneticBar:
    """A random genetic bar: each node is a leaf or a split by a draw that
    depends only on the seed and the dot; the depth limit forces leaves."""

    def node(d, k):
        r = random.Random(f"{seed}:{d!r}").random()
        if k <= 0 or (k < depth and r < 0.35):
            return Leaf(d)
        return Split(d, lambda s, k=k: node(s, k - 1))

    return GeneticBar(space, node(root, depth))


def spread_point(space, code: Tuple[int, ...]):
    """The point of a Baire spread that extends a code by zeros."""

    def gen():
        cur = code
        while True:
            yield Seq(cur)
            cur = cur + (0,)

    return natspace.Point(space, gen, name=f"ext{code}")


class TopologyState:
    def __init__(self):
        real = natspace.std_space("sigma_R")
        self.unit = natspace.std_space("sigma_[0,1]")
        self.tree = natspace.std_space("T3")
        self.compressed = natspace.compress_sigmaR(natspace.id_str(real))


@dataclass
class TopologyAnswer:
    image_apart: object
    image: object
    cover: tuple
    chosen: tuple
    member: bool
    round_trip_apart: object
    round_trip: object


class Topology:
    """Each query compresses the sigma_R point of a seeded rational and
    compares it with its image, takes the finite subcover of a seeded random
    genetic bar on sigma_[0,1] and asks the bar whether it holds one of its
    leaves, and makes one Baire round trip on T3."""

    name = "topology"
    query_s = 0.4
    why = (
        "the only workload that drives encodings and induction; cover_trails "
        "grows like the Fibonacci numbers in the grade"
    )
    layers = (
        "encodings.cover_trails",
        "encodings.hat",
        "encodings.level_member",
        "encodings.h_inverse_trail",
        "morphisms.strict_trail_of",
        "induction.finite_subcover",
        "induction.flatten",
        "induction.bar_walk",
        "points.dot",
        "points.point_apart",
        "spaces.relations",
        "spaces.predecessors",
        "spaces.index_of",
    )

    def make(self, rng: random.Random) -> TopologyInput:
        q = Fraction(rng.randint(-4000, 4000), rng.randint(1, 64))
        copies = tuple(
            unglued_copies(math.floor(q * 2**m - Fraction(1, 2)), m)
            for m in range(APART_BUDGET + 1)
        )
        return TopologyInput(
            q=q,
            copies=copies,
            bar_depth=rng.randint(1, 6),
            bar_seed=rng.randrange(2**32),
            pick=rng.random(),
            code=tuple(rng.randint(0, 3) for _ in range(rng.randint(0, 4))),
        )

    def plan(self, seed: int, seconds: int) -> List[TopologyInput]:
        # cover_trails' work follows the unglued copies of the compressed dots
        rng = random.Random(seed)
        items = stratified(rng, self.make, key=lambda t: sum(t.copies),
                           size=plan_size(seconds, self.query_s))
        rng.shuffle(items)
        return items

    def setup(self) -> TopologyState:
        return TopologyState()

    def query(self, state: TopologyState, item: TopologyInput) -> TopologyAnswer:
        p = natspace.rational_to_point(item.q)
        image = natspace.apply_point(state.compressed, p)
        image_apart = natspace.point_apart(p, image, APART_BUDGET)

        bar = random_bar(state.unit, state.unit.max_dot, item.bar_depth, item.bar_seed)
        leaves = natspace.flatten(bar)
        cover = list(leaves)
        random.Random(item.bar_seed).shuffle(cover)
        chosen = natspace.finite_subcover(state.unit, Cover(dots=tuple(cover), witness=bar))
        member = natspace.bar_contains(bar, leaves[int(item.pick * len(leaves))])

        enc = natspace.baire_encode(state.tree)
        x = spread_point(enc.spread, item.code)
        z = natspace.apply_point(enc.inverse, natspace.apply_point(enc.forward, x))
        round_trip_apart = natspace.point_apart(x, z, ROUND_TRIP_BUDGET)
        return TopologyAnswer(
            image_apart,
            image.dot(APART_BUDGET),
            tuple(cover),
            chosen,
            member,
            round_trip_apart,
            z.dot(ROUND_TRIP_BUDGET),
        )

    def check(self, item: TopologyInput, answer: TopologyAnswer) -> Optional[str]:
        if isinstance(answer.image_apart, natspace.Apart):
            return "compressed image apart from its point"
        bracket = _dyadic_bracket(answer.image)
        if bracket is None or not bracket[0] <= item.q <= bracket[1]:
            return f"compressed image {answer.image!r} misses {item.q}"
        segments = [_dyadic_bracket(d) for d in answer.chosen]
        if None in segments or not set(answer.chosen) <= set(answer.cover):
            return "subcover is not made of cover dots"
        if not covers(segments, Fraction(0), Fraction(1)):
            return "subcover does not cover [0,1]"
        if not answer.member:
            return "bar does not hold its own leaf"
        if isinstance(answer.round_trip_apart, natspace.Apart):
            return f"Baire round trip of {item.code} apart"
        return None

    def text(self, answer: TopologyAnswer) -> str:
        chosen = " ".join(_dot_text(d) for d in answer.chosen)
        return f"{_dot_text(answer.image)}|{chosen}|{answer.member}|{_dot_text(answer.round_trip)}"

    def finish(self, state, answers) -> List[Tuple[int, str]]:
        return []

    def properties(self, items) -> dict:
        copies = [c for t in items for c in t.copies]
        return {
            "queries": len(items),
            "apart_budget": APART_BUDGET,
            "unglued_copies_per_compressed_dot": summary(copies),
            "unglued_copies_per_query": summary([sum(t.copies) for t in items]),
            "dyadic_rationals": sum(1 for t in items if t.q.denominator & (t.q.denominator - 1) == 0),
            "bar_depths": dict(sorted(Counter(t.bar_depth for t in items).items())),
            "baire_code_lengths": dict(sorted(Counter(len(t.code) for t in items).items())),
        }


WORKLOADS = {w.name: w for w in (EvalPrecise(), MetricTable(), Topology())}
