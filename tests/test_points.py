"""Lazy points: rational streams, approximation, apartness verdicts."""

import gc
import itertools
import json
import random
import weakref
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

import natspace as ns
from natspace import points, spaces
from natspace.cli import compile_expression, main, parse_expression
from natspace.dots import DyadicInterval as D, Seq, Trail, dot_to_json
from natspace.points import PointDefect, normalized_dots

from conftest import read_together

import oracles

rationals = st.fractions(
    min_value=-4, max_value=4, max_denominator=64
)


def test_rational_point_brackets_value():
    p = ns.rational_to_point(F(1, 3))
    for g in range(1, 12):
        lo, hi = ns.point_to_rational_bounds(p, g)
        assert lo <= F(1, 3) <= hi
        assert hi - lo <= F(4, 2**g)


def test_zero_starts_at_the_centered_unit_dot():
    p = ns.rational_to_point(F(0))
    assert p.dot(0) in (ns.MAX, D(-1, 0))
    assert ns.approximate(p, 1) == D(-1, 0)  # [-1,1], the m=0 centered dot


@pytest.mark.parametrize("q, name", [
    (F(1, 3), "rat(1/3)"), (F(-7), "rat(-7)"), (F(10**5000, 3), f"rat(1{'0' * 5000}/3)"),
], ids=["1/3", "-7", "5001 digits"])
def test_a_rational_point_writes_its_name_when_it_is_read(monkeypatch, q, name):
    def refuse(*_):
        raise AssertionError("the name was written before it was read")

    monkeypatch.setattr(points, "rational_text", refuse)
    p = ns.rational_to_point(q)
    assert ns.line_call(p, 8) == ("IN" if q > 0 else "OUT")
    monkeypatch.undo()
    assert p.name == name


@given(
    st.one_of(
        st.builds(F, st.integers(-(2**80), 2**80), st.integers(1, 2**64)),
        st.integers(-(2**80), 2**80).map(F),
    ),
    st.integers(0, 500),
)
@settings(max_examples=200, deadline=None)
def test_rational_point_dots_match_the_rational_reference(q, m):
    assert ns.rational_to_point(q).dot(m).n == oracles.rational_dot_reference(q, m)


@given(rationals)
@settings(max_examples=40, deadline=None)
def test_rational_point_bounds_shrink(q):
    p = ns.rational_to_point(q)
    prev = None
    for g in range(0, 10):
        lo, hi = ns.point_to_rational_bounds(p, g)
        assert lo <= q <= hi
        if prev is not None:
            assert prev[0] <= lo and hi <= prev[1]
        prev = (lo, hi)


@given(rationals, rationals)
@settings(max_examples=30, deadline=None)
def test_distinct_rationals_are_apart(p_val, q_val):
    if p_val == q_val:
        return
    p = ns.rational_to_point(p_val)
    q = ns.rational_to_point(q_val)
    assert isinstance(ns.point_apart(p, q, 24), ns.Apart)


@given(st.integers(1, 80), st.integers(1, 80), st.integers(0, 16))
@settings(max_examples=60, deadline=None)
def test_point_apart_names_the_first_apart_dots(ext01, i, j, budget):
    p, q = (ns.canonical_point(ext01, ext01.enumerate_dot(n)) for n in (i, j))
    verdict = ns.point_apart(p, q, budget)
    apart = [ext01.apart(p.dot(k), q.dot(k)) for k in range(budget + 1)]
    if isinstance(verdict, ns.Apart):
        k = verdict.witness_index
        assert apart[k] and not any(apart[:k])
        assert ns.point_apart(q, p, budget) == verdict
    else:
        assert verdict == ns.Unknown(budget) and not any(apart)


def test_identical_rationals_never_apart():
    p = ns.rational_to_point(F(2, 7))
    q = ns.rational_to_point(F(2, 7))
    assert not isinstance(ns.point_apart(p, q, 16), ns.Apart)


def test_non_refining_stream_is_a_defect(sigmaR):
    def gen():
        yield D(0, 1)
        yield D(4, 1)  # apart from the previous dot: not a point

    p = ns.Point(sigmaR, gen)
    with pytest.raises(PointDefect):
        ns.approximate(p, 3)


def test_exhausted_stream_is_a_defect(sigmaR):
    p = ns.point_from_prefix(sigmaR, [D(0, 1), D(0, 2)])
    with pytest.raises(PointDefect):
        ns.approximate(p, 12)


def test_an_exhausted_stream_stays_exhausted(sigmaR):
    """A stream that goes on after its StopIteration: the point keeps the
    end it reported, so a later read past it replays the first text and
    draws nothing (it used to resume the stream)."""
    stream = [D(0, 1), D(0, 2), None, D(0, 3), D(0, 4), D(0, 5), D(0, 6)]

    class Resuming:
        def __iter__(self):
            return self

        def __next__(self):
            d = stream.pop(0)
            if d is None:
                raise StopIteration
            return d

    p = ns.Point(sigmaR, Resuming, name="r")
    for k in (4, 4, 2):
        with pytest.raises(PointDefect) as defect:
            p.dot(k)
        assert str(defect.value) == "point r: stream exhausted at index 2 (requested 4)"
    assert p.items == [D(0, 1), D(0, 2)] and len(stream) == 4


def test_an_empty_prefix_draws_nothing(sigmaR):
    # prefix(0) read dot(-1): an IndexError on a fresh point, the last dot
    # on a drawn one (and prefix(-1) then all dots but the last)
    drawn = []
    p = ns.Point(sigmaR, lambda: (drawn.append(m) or D(0, m) for m in itertools.count(0)))
    assert p.prefix(0) == p.prefix(-1) == () and drawn == []
    assert p.prefix(3) == (D(0, 0), D(0, 1), D(0, 2))
    assert p.prefix(0) == p.prefix(-2) == () and drawn == [0, 1, 2]


@st.composite
def _streams(draw):
    """A finite sigma_R stream, its strictness bound b, and its one defect
    at index j with the text dot(j) raises (None for a sound stream): a dot
    apart from the one before, b + 1 equal dots ending at j, or an end at j.
    A sound stream may stall for up to b equal dots in a row."""
    sigmaR = ns.std_space("sigma_R")
    b = draw(st.integers(1, 4))
    chain, run = [D(draw(st.integers(-8, 8)), 1)], 1
    for choice in draw(st.lists(st.integers(0, 3), max_size=12)):
        stall = choice == 3 and run < b
        chain.append(chain[-1] if stall else sigmaR.successors(chain[-1]).prefix(3)[choice % 3])
        run = run + 1 if stall else 1
    kind = draw(st.sampled_from(["none", "apart", "repeat", "end"]))
    if kind == "none":
        return chain, b, len(chain), None
    if kind == "end":
        j = draw(st.integers(0, len(chain)))
        return chain[:j], b, j, f"point s: stream exhausted at index {j} (requested {j})"
    if kind == "apart":
        j = draw(st.integers(1, len(chain)))
        prev = chain[j - 1]
        bad = D(prev.n + 4, prev.m)
        text = f"point s: dot {bad!r} does not refine previous {prev!r}"
        return chain[:j] + [bad] + chain[j:], b, j, text
    i = draw(st.integers(0, len(chain) - 1))
    stream = chain[: i + 1] + [chain[i]] * b + chain[i + 1 :]
    j, run = 0, 1  # j ends at the first index where b + 1 equal dots end
    while run <= b:
        j += 1
        run = run + 1 if stream[j] == stream[j - 1] else 1
    text = f"point s: no strict refinement within {b} steps at prefix length {j + 1}"
    return stream, b, j, text


@given(_streams(), st.booleans())
@settings(max_examples=150, deadline=None)
def test_a_point_draws_its_stream_up_to_the_first_defect(stream_case, jump):
    stream, b, j, text = stream_case
    p = ns.Point(ns.std_space("sigma_R"), lambda: stream, strictness_bound=b, name="s")
    if text is None:
        assert [p.dot(k) for k in range(j)] == stream
        return
    if not jump:  # read the sound prefix first, else draw it on the way to j
        assert [p.dot(k) for k in range(j)] == stream[:j]
    for _ in range(2):  # a second read raises the defect again
        with pytest.raises(PointDefect) as defect:
            p.dot(j)
        assert str(defect.value) == text
    assert [p.dot(k) for k in range(j)] == stream[:j] == list(p.items)


@given(st.integers(1, 12), st.integers(1, 6), st.integers(0, 60))
@settings(max_examples=60, deadline=None)
def test_repeats_count_only_under_a_strictness_bound(b, s, extra):
    """s strictly refining dots, then the last one again and again: with a
    bound b the dot at prefix length s + b raises, without one the point
    gives the repeated dot however often it is read."""
    chain = [D(0, m) for m in range(s)]
    stream = lambda: chain + [chain[-1]] * (b + extra)  # noqa: E731
    bounded = ns.Point(ns.std_space("sigma_R"), stream, strictness_bound=b, name="r")
    assert [bounded.dot(k) for k in range(s + b - 1)] == stream()[: s + b - 1]
    with pytest.raises(PointDefect) as defect:
        bounded.dot(s + b - 1)
    assert str(defect.value) == (
        f"point r: no strict refinement within {b} steps at prefix length {s + b}"
    )
    free = ns.Point(ns.std_space("sigma_R"), stream, name="r")
    assert [free.dot(k) for k in range(s + b + extra)] == stream()


def test_a_stream_error_is_raised_again(sigmaR):
    def gen():
        yield D(0, 1)
        raise ValueError("sensor lost")

    p = ns.Point(sigmaR, gen)
    with pytest.raises(ValueError) as first:
        p.dot(1)
    with pytest.raises(ValueError) as again:
        p.dot(3)
    assert again.value is first.value and p.dot(0) == D(0, 1)


def _traceback_length(error: BaseException) -> int:
    n, tb = 0, error.__traceback__
    while tb is not None:
        n, tb = n + 1, tb.tb_next
    return n


@pytest.mark.parametrize("kind", ["point", "lazy"])
def test_a_stored_error_keeps_its_traceback_length(sigmaR, kind):
    """Each later read raises the stored error with the traceback of the
    first failure, so it does not grow with the reads (it grew by one or two
    entries per read)."""

    def gen():
        yield D(0, 1)
        if kind == "lazy":
            raise ValueError("sensor lost")
        yield D(8, 1)  # does not refine the dot before

    if kind == "point":
        read, error = ns.Point(sigmaR, gen, name="jump").dot, PointDefect
    else:
        read, error = spaces.Lazy(gen).__getitem__, ValueError
    lengths, texts = [], set()
    for _ in range(1000):
        with pytest.raises(error) as raised:
            read(1)
        lengths.append(_traceback_length(raised.value))
        texts.add(str(raised.value))
    assert len(set(lengths[1:])) == 1 and lengths[-1] <= lengths[0] + 1
    if kind == "point":
        assert texts == {"point jump: dot [4,5]d does not refine previous [0,1]d"}


def test_linecall_names_where_a_short_stream_ends(tmp_path, capsys):
    path = tmp_path / "short.jsonl"
    path.write_text("".join(json.dumps(dot_to_json(D(-1, m))) + "\n" for m in range(2)))
    assert main(["linecall", str(path)]) == 3
    assert capsys.readouterr().err == (
        "budget exhausted: point measurements: stream exhausted at index 2 (requested 2)\n"
    )


@pytest.mark.parametrize(
    "make",
    [
        lambda: ns.rational_to_point(F(1, 3)),
        lambda: ns.canonical_point(ns.std_space("sigma_[0,1]"), D(0, 2)),
        lambda: ns.apply_point(ns.arith("neg"), ns.rational_to_point(F(1, 3))),
        lambda: ns.pair_point(ns.rational_to_point(F(1, 3)), ns.rational_to_point(F(2, 5))),
        lambda: ns.apply_point(
            ns.arith("mul"), ns.rational_to_point(F(1, 3)), ns.rational_to_point(F(2, 5))
        ),
    ],
    ids=["rational", "canonical", "apply", "pair", "apply-pair"],
)
def test_a_point_is_freed_by_reference_count(make):
    # no stream holds its own Point, so MetricEvaluator's per-point tables
    # (weak keys) go with their points without a garbage collection
    gc.disable()
    try:
        p = make()
        p.dot(6)
        ref = weakref.ref(p)
        del p
        assert ref() is None
    finally:
        gc.enable()


def test_canonical_point_refines_its_dot(sigma01):
    p = ns.canonical_point(sigma01, D(3, 3))
    for g in range(2, 8):
        assert sigma01.refines(ns.approximate(p, g), D(3, 3))


def test_searches_for_a_dot_stop_at_the_scan_budget(monkeypatch):
    # a hooked space reads index_of and its canonical step off the rank
    # hook; R_rat scans
    monkeypatch.setattr(spaces, "SCAN_BUDGET", 5)
    rat = spaces._STD_BUILDERS["R_rat"]()  # nothing indexed yet
    with pytest.raises(ns.SpaceDefect, match="first 5 enumerated dots"):
        rat.index_of(ns.RatInterval(F(0), F(2)))  # index 10
    with pytest.raises(ns.SpaceDefect, match="within 5 enumerated dots"):
        ns.canonical_point(rat, ns.RatInterval(F(0), F(1, 2))).dot(1)


def test_successor_normalize_aligns_grades(sigma01):
    p = ns.canonical_point(sigma01, D(0, 2))
    q = ns.successor_normalize(p)
    for g in range(1, 6):
        assert sigma01.grade(q.dot(g)) == g


@given(st.integers(0, 2**32))
@settings(max_examples=25, deadline=None)
def test_normalized_dots_match_the_grade_loop(seed):
    # each side compiles its own points, so neither reads the other's caches
    tree = parse_expression(oracles.random_expression(random.Random(seed), depth=3)[0])
    ours = itertools.islice(normalized_dots(compile_expression(tree)), 60)
    theirs = itertools.islice(oracles.normalized_dots_reference(compile_expression(tree)), 60)
    assert list(ours) == list(theirs)


def test_normalizing_a_rational_point_never_asks_its_budget(sigmaR):
    # one grade per dot never falls behind the g + 1 dots every budget allows
    p = ns.rational_to_point(F(1, 3))
    asked = []
    p.steps_for_grade = lambda g: asked.append(g) or g + 1
    q = ns.successor_normalize(p)
    assert [sigmaR.grade(q.dot(g)) for g in range(51)] == list(range(51))
    assert asked == []


def test_point_in_dot(sigma01):
    p = ns.canonical_point(sigma01, D(0, 3))
    assert isinstance(ns.point_in_dot(p, D(0, 2), 8), ns.Yes)


def test_concurrent_readers_get_the_single_threaded_stream(ext01):
    alone = list(ns.canonical_point(ext01, D(0, 3)).prefix(201))
    shared = ns.canonical_point(ext01, D(0, 3))
    assert read_together(lambda: [shared.dot(k) for k in range(201)]) == [alone] * 4

    fresh = spaces._STD_BUILDERS["R_rat"]()
    alone = [fresh.enumerate_dot(i) for i in range(2001)]
    rat = spaces._STD_BUILDERS["R_rat"]()
    assert read_together(lambda: [rat.enumerate_dot(i) for i in range(2001)]) == [alone] * 4

    # one Baire encoding: its level, forward and inverse caches fill from four threads
    words = [Seq(syms) for syms in itertools.product(range(3), repeat=3)]
    trails = [Trail(tuple(Seq((x,) * n) for n in range(1, m))) for x in range(3) for m in range(8)]

    def encode(enc):
        return [enc.h(w) for w in words] + [enc.h_inverse_trail(t) for t in trails]

    alone = encode(ns.baire_encode(spaces._STD_BUILDERS["T3"]()))
    t3 = spaces._STD_BUILDERS["T3"]()
    shared = read_together(lambda: ns.baire_encode(t3))  # the one encoding of a fresh space
    assert all(enc is ns.baire_encode(t3) for enc in shared)
    assert read_together(lambda: encode(ns.baire_encode(t3))) == [alone] * 4

    # one sigma_R: its unglued copies share one predecessor map, filled from four threads
    dots = [D(n, m) for m in range(1, 12) for n in range(-5, 6)]

    def walk(space):
        return [([t.items for t in ns.cover_trails(space, a)], len(ns.cover_trails(space, a)))
                for a in dots]

    alone = walk(spaces._STD_BUILDERS["sigma_R"]())
    sigma_r = spaces._STD_BUILDERS["sigma_R"]()
    assert read_together(lambda: walk(sigma_r)) == [alone] * 4
