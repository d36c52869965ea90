"""Star finiteness, splitting depths, Urysohn separators, the metric."""

import functools
import gc
import hashlib
import itertools
import weakref
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings, strategies as st

import natspace as ns
from natspace.dots import (
    DyadicInterval as D, GridDots, Isolated, NaryInterval, Seq, grid_ancestors, int_endpoints,
    interval_row, is_interval, row_span,
)
from natspace.metric import (
    _CONE_A, _CONE_B, DIGIT_CAP, MAX_LEVEL_GRADE, MetricDefect, _level_row, _meet, _shift,
    _TouchSet,
)
from natspace.spaces import _STD_BUILDERS

from conftest import read_together

import oracles


def test_star_reports_frozen(sigmaR, sigma01):
    r = ns.is_star_finite(sigmaR, 6)
    assert r.max_star == 5 and r.max_per_side == 3
    r = ns.is_star_finite(sigma01, 6)
    assert r.max_star == 4 and r.max_per_side == 3


def test_star_set_frozen(sigma01):
    assert set(ns.star_set(sigma01, 1, D(0, 3))) == {D(0, 3), D(1, 3), D(2, 3)}
    # interior dots see both sides
    assert set(ns.star_set(sigma01, 1, D(3, 3))) == {
        D(1, 3), D(2, 3), D(3, 3), D(4, 3), D(5, 3)
    }


def test_star_relation_via_middleman(sigma01):
    # [0,1/4] and [1/4,1/2] connect through [1/8,3/8] in two steps
    assert ns.star_relation(sigma01, 2, D(0, 3), D(2, 3))
    assert not ns.star_relation(sigma01, 1, D(0, 3), D(3, 3))


def test_splitting_depth_frozen(sigma01, cantor_space):
    A, B = (D(0, 3),), (D(6, 3),)
    assert ns.splitting_depth(sigma01, A, B) == 3
    assert not oracles.check_splitting(sigma01, A, B, 2)
    assert oracles.check_splitting(sigma01, A, B, 3)
    assert ns.splitting_depth(cantor_space, (Seq((0,)),), (Seq((1,)),)) == 1


def test_splitting_depth_matches_oracle(sigma01):
    A, B = (D(0, 3),), (D(6, 3),)
    segsA = [(F(0), F(1, 4))]
    segsB = [(F(3, 4), F(1))]
    assert oracles.splitting_depth_oracle(segsA, segsB) == 3


def test_splitting_requires_apart_sets(sigma01):
    with pytest.raises(MetricDefect):
        ns.splitting_depth(sigma01, (D(0, 3),), (D(1, 3),))


@pytest.mark.parametrize(
    "A, B",
    [
        ((D(0, 3),), (D(2, 3),)),  # [0,1/4] and [1/4,1/2] share only 1/4
        ((D(6, 3), D(0, 3)), (D(3, 3), D(4, 3))),  # only [1/2,3/4] and [3/4,1] meet
        ((Isolated(3), D(0, 3)), (D(2, 3),)),  # an isolated A dot beside a touching one
        ((Isolated(3),), (Isolated(5),)),
        ((Isolated(2),), (D(0, 1),)),  # the root touches every dot
        ((D(0, 1),), (Isolated(2),)),
    ],
    ids=["shared-endpoint", "second-dot", "iso-beside-touching", "iso-iso", "iso-root",
         "root-iso"],
)
def test_splitting_rejects_touching_sets(ext01, A, B):
    assert any(ext01.touch(a, b) for a in A for b in B)
    with pytest.raises(MetricDefect, match="apart input sets"):
        ns.splitting_depth(ext01, A, B, max_depth=6)  # a missed touch fails fast


def test_splitting_an_isolated_dot_from_a_regular_one(ext01):
    """An isolated dot is apart from every regular dot but the root, so the
    precheck passes and the touchers split at once: at grade 3 the isolated
    dot touches only itself."""
    A, B = (Isolated(3),), (D(2, 3),)
    assert ns.splitting_depth(ext01, A, B) == 3
    assert oracles.check_splitting(ext01, A, B, 3)


def _small_ext01_dots(g):
    """The dots of sigma_[0,1]^+ of grade g: iso(g) and the grid dots."""
    grid = st.integers(0, 2 ** (g + 1) - 2).map(lambda n: D(n, g + 1))
    return st.one_of(st.just(Isolated(g)), grid) if g else grid


@settings(max_examples=80, deadline=None)
@given(*[st.lists(st.integers(0, 6).flatmap(_small_ext01_dots), min_size=1, max_size=4)] * 2)
def test_splitting_depth_matches_the_oracle_on_random_sets(ext01, A, B):
    """On sets of grid, root and isolated dots up to grade 6: touching sets
    raise, and apart ones split at the oracle's least splitting grade of
    their grid dots (isolated dots touch only each other and the root) or
    at their deepest grade, whichever is later."""
    if any(ext01.touch(a, b) for a in A for b in B):
        with pytest.raises(MetricDefect, match="apart input sets"):
            ns.splitting_depth(ext01, A, B)
        return
    grid = [[ns.endpoints(d) for d in S if isinstance(d, D)] for S in (A, B)]
    deepest = max(ext01.grade(d) for d in A + B)
    assert ns.splitting_depth(ext01, A, B) == max(oracles.splitting_depth_oracle(*grid), deepest)


def test_subfan_levels(sigmaR):
    p = ns.rational_to_point(F(1, 3))
    sub = ns.subfan_Wx(sigmaR, p, 6)
    levels = [sub.level(n) for n in range(7)]  # built through the subfan's successors
    assert [len(lv) for lv in levels] == [1, 5, 6, 7, 8, 9, 10]
    # each level's order feeds the next, so the tuples are frozen, not only sizes
    assert tuple(tuple((d.n, d.m) for d in lv) for lv in levels[1:]) == (
        ((-1, 0), (-2, 0), (-3, 0), (0, 0), (1, 0)),
        ((-2, 1), (-1, 1), (0, 1), (-4, 1), (2, 1), (1, 1)),
        ((-2, 2), (-1, 2), (0, 2), (2, 2), (1, 2), (-6, 2), (4, 2)),
        ((-2, 3), (0, 3), (2, 3), (1, 3), (4, 3), (3, 3), (-10, 3), (8, 3)),
        ((-2, 4), (2, 4), (4, 4), (6, 4), (5, 4), (3, 4), (8, 4), (-18, 4), (16, 4)),
        ((-2, 5), (4, 5), (8, 5), (10, 5), (9, 5), (12, 5), (11, 5), (16, 5), (-34, 5),
         (32, 5)),
    )
    for n in range(1, 7):  # each member's parents in the subfan lie one level up
        assert all(set(sub.predecessors(d)) <= set(levels[n - 1]) for d in levels[n])
        assert all(sub.predecessors(d) for d in levels[n])
    assert ns.validate_space(sub, 7).ok


def test_subfan_enumeration_ends_with_a_space_defect(sigmaR):
    sub = ns.subfan_Wx(sigmaR, ns.rational_to_point(F(1, 3)), 6)
    with pytest.raises(ns.SpaceDefect, match="not found in first"):
        sub.index_of(D(1000, 3))
    with pytest.raises(ns.SpaceDefect, match="enumeration ends"):
        sub.enumerate_dot(10**4)
    with pytest.raises(ns.SpaceDefect):  # a grade-6 dot has no strict refinement here
        ns.canonical_point(sub, sub.level(6)[0]).dot(1)


@pytest.mark.parametrize("name", ["[0,1]_ter", "cantor", "T3", "sigma_3_real"])
def test_star_dots_match_a_level_scan(name):
    # the n-ary neighbour rule ([0,1]_ter) and the level scan (digit strings)
    space = ns.std_space(name)
    for g in range(1, 5):
        level = space.level(g)
        for d in level:
            star = ns.star_dots(space, d)
            assert len(star) == len(set(star))
            assert set(star) == {e for e in level if space.touch(d, e)}


def test_urysohn_fan_frozen_values(sigma01):
    f = ns.urysohn_fan(sigma01, D(0, 3), D(6, 3), max_level_grade=12)
    pa = ns.canonical_point(sigma01, D(0, 3))
    pb = ns.canonical_point(sigma01, D(6, 3))
    pm = ns.canonical_point(sigma01, D(3, 3))
    assert f.value_bounds(pa, 3) == (F(0), F(1, 27))
    assert f.value_bounds(pb, 3) == (F(26, 27), F(1))
    assert f.value_bounds(pm, 1) == (F(1, 3), F(2, 3))
    assert f.t[:2] == [2, 3]


def test_urysohn_fan_requires_apart_pair(sigma01):
    with pytest.raises(MetricDefect):
        ns.urysohn_fan(sigma01, D(0, 3), D(2, 3))


def test_urysohn_spread_frozen_values(sigmaR):
    g = ns.urysohn_spread(sigmaR, D(0, 1), D(4, 1), depth_budget=2)
    qa = ns.rational_to_point(F(1, 2))
    qb = ns.rational_to_point(F(5, 2))
    qm = ns.rational_to_point(F(3, 2))
    assert g.value_bounds(qa, 2) == (F(0), F(1, 9))
    assert g.value_bounds(qb, 2) == (F(8, 9), F(1))
    assert g.value_bounds(qm, 1) == (F(1, 3), F(2, 3))
    # classification cut off by the depth budget is surfaced, not hidden
    assert len(g.pending()) == 2


def test_pair_stream_frozen_prefix(metric_ev):
    pairs = [metric_ev.pair(m) for m in range(11)]
    assert pairs[0] == (Isolated(1), D(0, 2))
    assert pairs[3] == (Isolated(2), D(0, 3))
    assert pairs[9] == (Isolated(2), D(6, 3))
    assert pairs[10] == (D(0, 3), D(3, 3))
    # the isolated-dot terms come first within each grade
    for m in range(10):
        assert pairs[m][0] in (Isolated(1), Isolated(2))


def test_metric_digit_goals():
    assert [ns.metric_digit_goal(p) for p in (1, 2, 4, 6, 10)] == [2, 3, 4, 6, 8]


def test_metric_frozen_value(metric_ev, ext01):
    x = ns.canonical_point(ext01, D(0, 3))
    y = ns.canonical_point(ext01, D(6, 3))
    lo, hi = ns.evaluate_metric(metric_ev, x, y, 6)
    assert lo == F(107, 192)
    assert hi == F(1799, 2592)
    assert ns.evaluate_metric(metric_ev, y, x, 6) == (lo, hi)


def test_metric_self_distance_contract(metric_ev, ext01):
    x = ns.canonical_point(ext01, D(3, 3))
    lo, hi = ns.evaluate_metric(metric_ev, x, x, 4)
    assert lo == 0
    # the stated width contract holds up to precision 4 (the digit cap)
    assert hi <= F(1, 4)


@pytest.mark.parametrize("x, y, bounds", [
    (Isolated(8), 30, (F(51781, 34992), F(27419, 17496))),
    (NaryInterval(3, 1, 8), NaryInterval(3, 1, 8), (F(0), F(185, 2916))),
], ids=["iso8-dot30", "regular-grade-8"])
def test_ternary_metric_frozen_values(x, y, bounds):
    """The [0,1]_ter^+ path that no benchmark workload runs: points of grade
    8, whose separators split every level down to MAX_LEVEL_GRADE."""
    space = ns.extend_with_isolated_point(ns.std_space("[0,1]_ter"))
    px, py = (ns.canonical_point(space, space.enumerate_dot(d) if isinstance(d, int) else d)
              for d in (x, y))
    assert ns.evaluate_metric(ns.MetricEvaluator(space), px, py, 4) == bounds


def test_metric_cache_survives_recycled_point_ids(ext01):
    # An entry dies with its point, so a new point (which may get the freed
    # id) is never handed the dead point's values.
    far_dots = ns.canonical_point(ext01, D(0, 3)).prefix(14)
    near_dots = ns.canonical_point(ext01, D(6, 3)).prefix(14)
    ev = ns.MetricEvaluator(ext01)
    q = ns.canonical_point(ext01, D(6, 3))
    far = ns.point_from_prefix(ext01, far_dots)
    assert ns.evaluate_metric(ev, far, q, 4) == (F(5, 9), F(955, 1296))
    del far
    gc.collect()
    assert list(ev._values) == [q]
    near = ns.point_from_prefix(ext01, near_dots)
    assert ns.evaluate_metric(ev, near, q, 4) == (F(0), F(79, 648))


@pytest.mark.parametrize("name", ["sigma_[0,1]", "cantor"])
def test_a_space_and_its_metric_are_freed_by_reference_count(name):
    # no level stream or separator holds its own space, so a fresh space,
    # its evaluator and its separators go without a garbage collection
    gc.disable()
    try:
        space = ns.extend_with_isolated_point(_STD_BUILDERS[name]())
        ev = ns.MetricEvaluator(space)
        x, y = (ns.canonical_point(space, d) for d in space.level(3)[:2])
        ns.evaluate_metric(ev, x, y, 4)
        refs = [weakref.ref(obj) for obj in (space, ev, ev.separator(0))]
        del space, ev, x, y
        assert [ref() for ref in refs] == [None] * 3
    finally:
        gc.enable()


def test_metric_digit_goal_is_least_power_of_three():
    for bits in range(5000):
        k = ns.metric_digit_goal(bits)  # the least k >= 1 with 3^k >= 2^(bits+2)
        assert 3**k >= 2 ** (bits + 2) and (k == 1 or 3 ** (k - 1) < 2 ** (bits + 2))


@st.composite
def ext01_starts(draw):
    """A dot of sigma_[0,1]^+ of grade at most 20: iso(g), or a grid dot
    (n, g + 1), whose exponent g + 1 holds 2^(g+1) - 1 dots."""
    g = draw(st.integers(0, 20))
    if g and draw(st.booleans()):
        return Isolated(g)
    return D(draw(st.integers(0, 2 ** (g + 1) - 2)), g + 1)


@st.composite
def nary01_starts(draw, base):
    """A dot of [0,1]_bin^+ (base 2) or [0,1]_ter^+ (base 3) of grade at most
    6, iso(g) or the n-ary dot (n, g): a point of grade 8 or more builds zone
    levels for seconds."""
    g = draw(st.integers(0, 6))
    if g and draw(st.booleans()):
        return Isolated(g)
    return NaryInterval(base, draw(st.integers(0, base**g - 1)), g)


@functools.cache
def _extended(name):
    """The space name^+, one per test session, so its level rows are built once."""
    return ns.extend_with_isolated_point(ns.std_space(name))


@functools.cache
def _shared_evaluator(name):
    """One evaluator of name^+ across examples, so its separators are built once."""
    return ns.MetricEvaluator(_extended(name))


def _assert_metric_laws(ev, starts):
    x, y, z = (ns.canonical_point(ev.space, d) for d in starts)

    def d(p, q):
        lo, hi = ns.evaluate_metric(ev, p, q, 4)
        assert lo <= hi
        return lo, hi

    assert d(x, y) == d(y, x)
    assert d(x, x)[0] == 0
    assert d(x, z)[0] <= d(x, y)[1] + d(y, z)[1]


@settings(max_examples=100, deadline=None)
@given(ext01_starts(), ext01_starts(), ext01_starts())
def test_metric_brackets_are_a_pseudometric(metric_ev, a, b, c):
    _assert_metric_laws(metric_ev, (a, b, c))


@pytest.mark.parametrize("name, base", [("[0,1]_bin", 2), ("[0,1]_ter", 3)])
def test_metric_brackets_are_a_pseudometric_on_the_nary_unit_intervals(name, base):
    @settings(max_examples=100, deadline=None)
    @given(st.tuples(*[nary01_starts(base)] * 3))
    def laws(starts):
        _assert_metric_laws(_shared_evaluator(name), starts)

    laws()


# ---------------------------------------------------------------------------
# A separator's value: the read stops once no later dot can add a digit.


def _grid_starts(name):
    """Canonical point starts of name^+: ext01_starts on sigma_[0,1]^+, and
    nary01_starts on [0,1]_bin^+ and [0,1]_ter^+."""
    return ext01_starts() if name == "sigma_[0,1]" else nary01_starts(2 if "bin" in name else 3)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(["sigma_[0,1]", "[0,1]_bin", "[0,1]_ter"]), st.data())
def test_value_bounds_matches_the_full_read(name, data):
    """On fresh evaluators, value_bounds gives the bracket of the loop that
    asks every dot up to the grade the digits need."""
    space = _extended(name)
    start = data.draw(_grid_starts(name), label="start")
    m, goal = data.draw(st.integers(0, 7), label="m"), data.draw(st.integers(1, 4), label="goal")
    f, g = (ns.MetricEvaluator(space).separator(m) for _ in range(2))
    x, y = (ns.canonical_point(space, start) for _ in range(2))
    assert f.value_bounds(x, goal) == oracles.value_bounds_reference(g, y, goal)


def test_value_bounds_stops_reading_once_the_steps_run_out(metric_ev, ext01):
    """Separator 0 of sigma_[0,1]^+ runs out of zone steps below the goal, so
    its read stops at the dot whose digits exhaust them, well before the
    grade that four digits need."""
    f = metric_ev.separator(0)
    x = ns.canonical_point(ext01, D(0, 3))
    assert f.value_bounds(x, 4) == oracles.value_bounds_reference(f, x, 4)
    full = len(x.items)
    y = ns.canonical_point(ext01, D(0, 3))
    f.value_bounds(y, 4)
    assert f.exhausted and len(y.items) < full


def test_one_evaluator_read_from_four_threads_gives_the_single_threaded_brackets():
    """Four threads, each with its own points, read one fresh evaluator: its
    separators and zone levels are built under their races, and every
    thread gets the brackets of a single-threaded evaluator."""
    bases = {"sigma_[0,1]": [D(0, 3), D(5, 4), D(6, 3), Isolated(2), Isolated(4)],
             "[0,1]_ter": [NaryInterval(3, 0, 2), NaryInterval(3, 4, 2), Isolated(3)]}
    for name, starts in bases.items():
        space = _extended(name)

        def table(ev):
            points = [ns.canonical_point(space, d) for d in starts]
            return [ns.evaluate_metric(ev, x, y, 6) for x, y in itertools.combinations(points, 2)]

        alone, shared = table(ns.MetricEvaluator(space)), ns.MetricEvaluator(space)
        assert read_together(lambda: table(shared)) == [alone] * 4


# ---------------------------------------------------------------------------
# Fan zones classified once per level, against the recursive rule.


def _fan_and_reference(space, a, b, max_level_grade):
    f = ns.urysohn_fan(space, a, b, max_level_grade)
    ref = oracles.FanZonesReference(
        space, a, b, max_level_grade,
        touch_set=lambda dots: _TouchSet(space, dots).touches,
        grid_ancestors=grid_ancestors,
        is_isolated=lambda d: isinstance(d, Isolated),
    )
    f.ensure_level(max_level_grade + 1)
    ref.build_all()
    return f, ref


def _assert_same_zones(space, f, ref, levels):
    assert f.t == ref.t
    assert f.alive == ref.alive
    for g in levels:
        for c in space.level(g):
            assert f.digits(c).syms == ref.digits(c), c


def test_zone_shift_matches_the_digit_loop():
    # the reference encodes and decodes the ternary index by its own loops
    cones = {"A": _CONE_A, "B": _CONE_B}
    for ln in range(6):
        for i in itertools.product(range(3), repeat=ln):
            for step in (-1, 1):
                ref = oracles.FanZonesReference.shift(i, step)
                assert _shift(i, step) == cones.get(ref, ref)


def test_fan_zones_match_the_recursive_rule_on_the_metric_table(metric_ev, ext01):
    """The 11 separators a 10-bit metric table reads, every dot of levels
    1-7: part maps, one descent per dot and level touchers by segment give
    the t, alive zones and digits of the per-(dot, zone) recursion."""
    for m in range(11):
        f, ref = _fan_and_reference(ext01, *metric_ev.pair(m), MAX_LEVEL_GRADE)
        _assert_same_zones(ext01, f, ref, range(1, 8))


@pytest.mark.parametrize(
    "name, a, b",
    [
        ("[0,1]_ter", ns.NaryInterval(3, 0, 2), ns.NaryInterval(3, 4, 2)),
        ("cantor", Seq((0, 0)), Seq((1, 0))),  # no grid: every hit is a refines scan
        ("sigma_2", Seq((0, 1)), Seq((1, 1))),
    ],
)
def test_fan_zones_match_the_recursive_rule_off_the_dyadic_grid(name, a, b):
    space = ns.std_space(name)
    f, ref = _fan_and_reference(space, a, b, 7)
    assert len(f.t) > 2
    _assert_same_zones(space, f, ref, range(1, 8))


_GRIDS = {
    "sigma_[0,1]^+": ns.extend_with_isolated_point(ns.std_space("sigma_[0,1]")),
    "[0,1]_ter": ns.std_space("[0,1]_ter"),
    "[0,1]_bin": ns.std_space("[0,1]_bin"),
}


@st.composite
def apart_same_grade_pairs(draw):
    """A unit-interval grid and two apart dots of one grade 1-4 on it."""
    space = _GRIDS[draw(st.sampled_from(sorted(_GRIDS)))]
    level = space.level(draw(st.integers(1, 4)))
    pairs = [(a, b) for a in level for b in level if space.apart(a, b)]
    assume(pairs)  # the two dots of [0,1]_bin's grade 1 touch
    return (space, *draw(st.sampled_from(pairs)))


@settings(max_examples=12, deadline=None)
@given(apart_same_grade_pairs())
def test_run_classified_zones_match_the_recursive_rule_on_random_pairs(case):
    """t, alive zones and the digits of every dot of levels 1-7, zones
    split down to grade 6."""
    space, a, b = case
    f, ref = _fan_and_reference(space, a, b, 6)
    _assert_same_zones(space, f, ref, range(1, 8))


@settings(max_examples=12, deadline=None)
@given(apart_same_grade_pairs())
def test_zone_parts_are_the_run_length_form_of_the_painted_codes(case):
    """At every step, zones split down to grade 6: the row runs and dots
    near a zone's two neighbours are disjoint, its part's partition is the
    run-length form of the positions painted one by one (oracles), and
    _hits reads, for every dot of levels 1-7 on the row, the painted codes
    of the positions that contain it."""
    space, a, b = case
    f = ns.urysohn_fan(space, a, b, 6)
    dots = [c for g in range(1, 8) for c in space.level(g)]
    for n in itertools.count():
        t, alive = f.t[n], f.alive[n]
        near = {i: (f._zone_set(_shift(i, -1), t), f._zone_set(_shift(i, 1), t)) for i in alive}
        f.ensure_level(n + 1)
        if len(f.t) <= n + 1:
            break
        for i in alive:
            row, starts, codes, rest = f.part[i]
            if row is None:
                continue
            A, B = (S.touchers(row, tuple(rest)) for S in near[i])
            assert not _meet(A.runs, B.runs) and not set(A.dots) & set(B.dots)
            painted = oracles.painted_part(len(row[0]), A.runs, B.runs)
            ends = starts[1:] + [len(row[0])]
            assert list(zip(starts, ends, codes)) == oracles.painted_runs(painted)
            for c in dots:  # a digit walk asks zone i only of dots finer than t
                if space.grade(c) > t and (span := row_span(row, c)) is not None:
                    assert f._hits(i, c) == set(painted[span[0] : span[1]]), (i, c)


@pytest.mark.parametrize("no_rows", [(1, 3, 5, 7), (4,)], ids=["odd-levels", "level-4"])
def test_fan_zones_mix_row_levels_with_levels_taken_dot_by_dot(no_rows):
    """A level that is no row takes the per-dot path beside row levels, in
    both directions, for the whole level or inside a zone (here the given
    levels of a fresh sigma_[0,1]^+ are marked as no row)."""
    space = ns.extend_with_isolated_point(ns.std_space("sigma_[0,1]"))
    for g in no_rows:
        space.derived(_level_row, dict)[g] = (None, space.level(g))
    for a, b in [(D(0, 3), D(6, 3)), (Isolated(2), D(2, 3)), (D(0, 4), D(9, 4))]:
        f, ref = _fan_and_reference(space, a, b, 7)
        assert len(f.t) > 2
        _assert_same_zones(space, f, ref, range(1, 8))


@pytest.mark.parametrize("extend", [False, True], ids=["grid", "grid^+"])
@pytest.mark.parametrize("name", ["sigma_[0,1]", "[0,1]_bin", "[0,1]_ter"])
def test_hooked_level_rows_match_the_level_derivation(name, extend):
    """Levels 1-9 of a fresh unit-interval grid (and its isolated-point
    extension): the level_row hook's (row, rest), materialized, is the
    derivation from level(g) (level 0, the root, has no row), the metric
    reads the hook's row, and row_span reads both rows alike."""
    space = _STD_BUILDERS[name]()
    space = ns.extend_with_isolated_point(space) if extend else space
    row_of = functools.partial(
        oracles.interval_row_reference, grid_types=(D, NaryInterval), int_endpoints=int_endpoints)
    probes = [c for g in range(1, 6) for c in space.level(g)] + [
        NaryInterval(5, 1, 2), D(1, 2) if name != "sigma_[0,1]" else NaryInterval(2, 1, 2)]
    assert _level_row(space, 0) == oracles.level_row_reference(space, 0, is_interval, row_of)
    for g in range(1, 10):
        row, rest = space.level_row(g)
        ref_row, ref_rest = oracles.level_row_reference(space, g, is_interval, row_of)
        assert rest == ref_rest, (g, rest)
        assert (tuple(row[0]), *row[1:]) == ref_row, g
        assert type(_level_row(space, g)[0][0]) is GridDots  # the metric reads the hook
        assert len(row[0]) == len(ref_row[0]) and row[0][-1] == ref_row[0][-1]
        assert [row_span(row, c) for c in probes] == [row_span(ref_row, c) for c in probes], g


@pytest.mark.parametrize("name", ["cantor", "T3"])
def test_level_rows_off_the_grids_are_derived_from_the_level(name):
    """On an extension over a space with no level_row hook, the extension's
    hook gives no row, and the metric derives (row, rest) from level(g)."""
    space = ns.extend_with_isolated_point(_STD_BUILDERS[name]())
    row_of = functools.partial(
        oracles.interval_row_reference, grid_types=(D, NaryInterval), int_endpoints=int_endpoints)
    assert all(space.level_row(g)[0] is None for g in range(1, 8))
    for g in range(8):
        assert _level_row(space, g) == oracles.level_row_reference(space, g, is_interval, row_of)


@st.composite
def touch_sets(draw):
    """At most six dots of sigma_[0,1]^+: grid dots up to grade 7 and
    isolated dots."""
    return draw(st.lists(ext01_starts().filter(lambda d: not isinstance(d, D) or d.m <= 8),
                         max_size=6))


def _dots_of(ts):
    """A level touch set's dots: its row runs, then its scanned dots."""
    return [ts.row[0][j] for j0, j1 in ts.runs for j in range(j0, j1)] + list(ts.dots)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 7), touch_sets())
def test_level_touchers_match_the_per_dot_scan(ext01, g, dots):
    ts = _TouchSet(ext01, dots)
    level = ext01.level(g)
    got = _dots_of(ts.touchers(*_level_row(ext01, g)))
    assert len(got) == len(set(got))
    assert set(got) == {c for c in level if ts.touches(c)}


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 5).flatmap(
    lambda g: st.tuples(st.just(g), st.permutations(ns.std_space("sigma_[0,1]").level(g)))),
    touch_sets())
def test_level_touchers_of_a_level_that_is_no_row(ext01, case, dots):
    g, shuffled = case
    level = ext01.level(g)
    assume([c for c in level if c in shuffled] != shuffled)
    assert interval_row(shuffled) is None
    ts = _TouchSet(ext01, dots)
    got = _dots_of(ts.touchers(None, tuple(shuffled) + (Isolated(g),)))
    assert len(got) == len(set(got)) and set(got) == {c for c in level if ts.touches(c)}


def test_a_fresh_metric_table_keeps_its_frozen_digest():
    """All 105 brackets of the 10-bit table on sigma_[0,1]^+ over the 15
    canonical points at D(n,3), D(4n+1,5) (n < 7) and iso(2), pairs in
    itertools.combinations order, one "lo hi" line each."""
    space = ns.extend_with_isolated_point(ns.std_space("sigma_[0,1]"))
    ev = ns.MetricEvaluator(space)
    bases = [d for n in range(7) for d in (D(n, 3), D(4 * n + 1, 5))] + [Isolated(2)]
    points = [ns.canonical_point(space, d) for d in bases]
    lines = "".join(
        "{} {}\n".format(*ns.evaluate_metric(ev, x, y, 10))
        for x, y in itertools.combinations(points, 2)
    )
    assert hashlib.sha256(lines.encode()).hexdigest() == (
        "b5bc0d564a4b1932f187057b81120d2fd7cfb31ffe191f17bb4b0301cf61123e"
    )


@pytest.mark.parametrize("bases", [
    [d for n in range(7) for d in (D(n, 3), D(4 * n + 1, 5))] + [Isolated(2)],  # the table's 15
    [D(n, 9) for n in range(0, 511, 9)] + [D(510, 9)],
], ids=["metric-table", "exponent-9"])
def test_evaluate_metric_matches_the_fraction_sum(bases):
    space = ns.extend_with_isolated_point(ns.std_space("sigma_[0,1]"))
    ev = ns.MetricEvaluator(space)
    points = [ns.canonical_point(space, d) for d in bases]
    longest = 0  # the largest bracket denominator over the goal's 3^goal
    for bits in range(-1, 11):  # -1: no term, the tail alone
        goal = min(ns.metric_digit_goal(bits), DIGIT_CAP)
        for x, m in itertools.product(points, range(bits + 1)):
            longest = max(longest, *(q.denominator // 3**goal for q in ev.values_of(x)(m, goal)))
        for x, y in itertools.combinations(points, 2):
            expected = oracles.evaluate_metric_reference(ev, x, y, bits, goal)
            assert ns.evaluate_metric(ev, x, y, bits) == expected, (bits, x, y)
    assert longest > 1  # some digit strings run past the goal
