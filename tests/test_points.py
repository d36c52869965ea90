"""Lazy points: rational streams, approximation, apartness verdicts."""

import sys
import threading
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

import natspace as ns
from natspace import spaces
from natspace.dots import DyadicInterval as D, Seq
from natspace.points import PointDefect

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


def test_point_in_dot(sigma01):
    p = ns.canonical_point(sigma01, D(0, 3))
    assert isinstance(ns.point_in_dot(p, D(0, 2), 8), ns.Yes)


def _read_together(read, threads=4):
    """What each thread gets from read(), the threads started together and
    switched often so that their draws from a shared stream interleave."""
    barrier = threading.Barrier(threads)
    results = [None] * threads

    def run(t):
        barrier.wait(timeout=60)
        results[t] = read()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=run, args=(t,)) for t in range(threads)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(w.is_alive() for w in workers)
    return results


def test_concurrent_readers_get_the_single_threaded_stream(ext01):
    alone = list(ns.canonical_point(ext01, D(0, 3)).prefix(201))
    shared = ns.canonical_point(ext01, D(0, 3))
    assert _read_together(lambda: [shared.dot(k) for k in range(201)]) == [alone] * 4

    fresh = spaces._STD_BUILDERS["R_rat"]()
    alone = [fresh.enumerate_dot(i) for i in range(2001)]
    rat = spaces._STD_BUILDERS["R_rat"]()
    assert _read_together(lambda: [rat.enumerate_dot(i) for i in range(2001)]) == [alone] * 4
