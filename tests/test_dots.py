"""Basic dot types: endpoints, apartness, refinement, JSON round trips."""

import json
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings, strategies as st

import natspace as ns
import oracles
from natspace.dots import (
    Ball,
    DyadicInterval as D,
    Isolated,
    MAX,
    NaryInterval,
    RatInterval,
    Seq,
    TupleDot,
    dot_from_json,
    dot_to_json,
    endpoints,
    grid_ancestors,
    grid_neighbours,
    int_endpoints,
    interval_contains,
    interval_row,
    interval_gap,
    intervals_apart,
    is_interval,
    meeting_segment,
    merged_segments,
    nary_seq,
    read_rational,
    seq_dot,
    width,
)
from natspace.points import ancestors_at

dyadics = st.builds(
    D, st.integers(min_value=-64, max_value=64), st.integers(min_value=0, max_value=8)
)

# Small denominators, so that the three kinds often share an endpoint.
_small_fractions = st.builds(
    F, st.integers(min_value=-24, max_value=24), st.sampled_from([1, 2, 3, 4, 6, 8, 9, 12])
)
interval_dots = st.one_of(
    dyadics,
    st.builds(
        NaryInterval,
        st.integers(min_value=2, max_value=5),
        st.integers(min_value=-20, max_value=20),
        st.integers(min_value=0, max_value=3),
    ),
    st.tuples(_small_fractions, _small_fractions)
    .filter(lambda lh: lh[0] != lh[1])
    .map(lambda lh: RatInterval(min(lh), max(lh))),
)


def test_dyadic_endpoints():
    assert endpoints(D(0, 1)) == (F(0), F(1))
    assert endpoints(D(-1, 0)) == (F(-1), F(1))
    assert endpoints(D(3, 3)) == (F(3, 8), F(5, 8))


def test_shared_endpoint_touches():
    # [0,1/4] and [1/4,1/2] share the endpoint 1/4: touching, not apart
    assert not intervals_apart(D(0, 3), D(2, 3))
    assert intervals_apart(D(0, 3), D(3, 3))


@given(interval_dots, interval_dots)
def test_apartness_matches_endpoint_comparison(a, b):
    assert intervals_apart(a, b) == oracles.intervals_apart_reference(endpoints(a), endpoints(b))
    assert intervals_apart(a, b) == intervals_apart(b, a)


@given(interval_dots, interval_dots)
def test_gap_and_containment_consistent(a, b):
    gap = interval_gap(a, b)
    assert (gap > 0) == intervals_apart(a, b)
    assert interval_contains(a, b) == oracles.interval_contains_reference(
        endpoints(a), endpoints(b)
    )


@given(interval_dots, interval_dots)
def test_layout_matches_the_fraction_reference(a, b):
    ra, rb = oracles.interval_of_json(dot_to_json(a)), oracles.interval_of_json(dot_to_json(b))
    assert endpoints(a) == ra and width(a) == ra[1] - ra[0]
    assert interval_gap(a, b) == oracles.interval_gap_reference(ra, rb)
    assert intervals_apart(a, b) == oracles.intervals_apart_reference(ra, rb)
    assert interval_contains(a, b) == oracles.interval_contains_reference(ra, rb)


@given(st.lists(interval_dots, max_size=8), interval_dots)
def test_segment_kernel_matches_the_fraction_reference(dots, c):
    """merged_segments over mixed layouts and dens gives the Fraction merge
    over one common den, and meeting_segment finds the one segment c meets
    first, or None when c touches no dot."""
    los, his, den = segs = merged_segments(dots)
    ref = oracles.merged_segments_reference([endpoints(d) for d in dots])
    assert [(F(lo, den), F(hi, den)) for lo, hi in zip(los, his)] == ref
    i = meeting_segment(segs, c)
    met = [k for k, seg in enumerate(ref)
           if not oracles.intervals_apart_reference(seg, endpoints(c))]
    assert i == (met[0] if met else None)
    assert (i is not None) == any(not intervals_apart(c, d) for d in dots)


def test_segments_merge_at_a_shared_endpoint_across_layouts():
    # [0,1/4] (dyadic), [1/4,1/3] (rational), [1/3,2/3] (ternary): one segment;
    # [3/4,1] only touches the point 3/4 that no other dot reaches
    dots = [D(0, 3), RatInterval(F(1, 4), F(1, 3)), NaryInterval(3, 1, 1), D(6, 3)]
    los, his, den = segs = merged_segments(dots)
    assert [(F(lo, den), F(hi, den)) for lo, hi in zip(los, his)] == [
        (F(0), F(2, 3)), (F(3, 4), F(1))]
    assert meeting_segment(segs, RatInterval(F(2, 3), F(3, 4))) == 0
    assert meeting_segment(segs, RatInterval(F(7, 10), F(8, 11))) is None
    assert meeting_segment(merged_segments([]), D(0, 1)) is None


@given(
    st.sampled_from(["sigma_R", "sigma_[0,1]", "R_ter", "[0,1]_bin"]),
    st.integers(min_value=1, max_value=400),
    st.data(),
)
def test_grid_ancestors_match_the_predecessor_walk(name, i, data):
    space = ns.std_space(name)
    d = space.enumerate_dot(i)
    g = data.draw(st.integers(min_value=1, max_value=space.grade(d)), label="grade")
    m = d.m - (space.grade(d) - g)
    ancestors = grid_ancestors(d, m)
    # a grid ancestor past the end of the unit interval is no dot of the space
    in_space = tuple(c for c in ancestors if space.refines(c, space.max_dot))
    assert in_space == ancestors_at(space, d, g)
    # and the ancestors are the grid dots around d's position that hold it
    base = 2 if type(d) is D else d.base
    top = d.n // base ** (d.m - m)
    grid = [D(n, m) if type(d) is D else NaryInterval(base, n, m) for n in range(top - 2, top + 3)]
    inner = oracles.interval_of_json(dot_to_json(d))
    assert ancestors == tuple(
        c for c in grid
        if oracles.interval_contains_reference(oracles.interval_of_json(dot_to_json(c)), inner)
    )


@given(interval_dots)
def test_grid_neighbours_are_the_touching_dots_of_the_exponent(d):
    if type(d) not in (D, NaryInterval):
        assert grid_neighbours(d) is None
        return
    # a window wider than any star, touch decided on Fraction endpoints
    window = [
        D(d.n + k, d.m) if type(d) is D else NaryInterval(d.base, d.n + k, d.m)
        for k in range(-6, 7)
    ]
    inner = oracles.interval_of_json(dot_to_json(d))
    assert grid_neighbours(d) == tuple(
        c for c in window
        if not oracles.intervals_apart_reference(oracles.interval_of_json(dot_to_json(c)), inner)
    )
    assert grid_neighbours(MAX) is None and grid_neighbours(Seq((0,))) is None


@given(
    st.integers(min_value=2, max_value=10).flatmap(
        lambda b: st.tuples(st.just(b), st.lists(st.integers(0, b - 1), max_size=8))
    )
)
def test_seq_interval_reads_the_digit_value(base_syms):
    base, syms = base_syms
    assert ns.seq_interval(Seq(syms), base) == oracles.digit_interval(syms, base)


@given(
    st.integers(min_value=2, max_value=10).flatmap(
        lambda b: st.tuples(st.just(b), st.lists(st.integers(0, b - 1), max_size=8))
    )
)
def test_nary_seq_inverts_seq_dot(base_syms):
    base, syms = base_syms
    assert nary_seq(seq_dot(Seq(syms), base)) == Seq(syms)


def test_nary_seq_matches_repeated_division():
    for base in (2, 3, 5):
        for m in range(6):
            for n in range(base**m):
                assert nary_seq(NaryInterval(base, n, m)).syms == oracles.digits_divided(n, base, m)


def test_interval_relations_reject_non_interval_dots():
    for args in ((Seq((0,)), D(0, 1)), (D(0, 1), MAX)):
        with pytest.raises(TypeError, match="has no interval endpoints"):
            intervals_apart(*args)
        with pytest.raises(TypeError, match="has no interval endpoints"):
            interval_contains(*args)


def test_nary_endpoints():
    assert endpoints(NaryInterval(3, 1, 1)) == (F(1, 3), F(2, 3))
    assert endpoints(NaryInterval(10, 25, 2)) == (F(25, 100), F(26, 100))


def test_seq_construction_coerces_and_rejects_negatives():
    assert Seq([True, 2.0, "3"]).syms == (1, 2, 3)
    assert Seq(iter([1, 2])).syms == (1, 2)
    assert Seq(()).syms == ()
    with pytest.raises(ValueError) as err:
        Seq((0, -1))
    assert str(err.value) == "Seq symbols must be naturals"


def _row_reference(dots):
    return oracles.interval_row_reference(dots, (D, NaryInterval), int_endpoints)


def _grid_dot(kind, n, m):
    return D(n, m) if kind == 0 else NaryInterval(kind, n, m)


@st.composite
def _near_rows(draw):
    """A grid row (dyadic, or n-ary of base 2..4) of 1..8 dots, maybe
    shuffled, gapped, or with one dot of another kind, base, exponent or
    no grid at all put in."""
    kind, n0, m = draw(st.integers(0, 4).filter(lambda b: b != 1)), draw(
        st.integers(-8, 8)), draw(st.integers(0, 4))
    dots = [_grid_dot(kind, n0 + j, m) for j in range(draw(st.integers(1, 8)))]
    change = draw(st.sampled_from(["none", "shuffle", "gap", "swap"]))
    if change == "shuffle":
        dots = draw(st.permutations(dots))
    elif change == "gap" and len(dots) > 2:
        del dots[draw(st.integers(1, len(dots) - 2))]
    elif change == "swap":
        j = draw(st.integers(0, len(dots) - 1))
        d = dots[j]
        dots[j] = draw(st.sampled_from([
            _grid_dot(0 if kind else 2, d.n, d.m), _grid_dot(kind or 2, d.n, d.m),
            _grid_dot(kind, d.n, d.m + 1), _grid_dot(3 if kind == 4 else 4, d.n, d.m),
            Isolated(1), RatInterval(F(d.n, 7), F(d.n + 1, 7)), MAX,
        ]))
    return dots


@given(_near_rows())
@example([NaryInterval(2, 0, 1), NaryInterval(3, 1, 1)])  # mixed base
@example([D(0, 1), NaryInterval(2, 1, 1)])  # mixed kind
@example([D(0, 2), D(1, 3)])  # mixed exponent
@example([D(0, 2), D(2, 2)])  # gapped
@example([D(1, 2), D(0, 2)])  # shuffled
def test_interval_row_matches_the_set_form(dots):
    assert interval_row(dots) == _row_reference(dots)
    assert interval_row(iter(dots)) == _row_reference(dots)


def test_interval_row_matches_the_set_form_on_unit_levels(ext01):
    assert interval_row(()) is None is _row_reference(())
    rows = 0
    for g in range(10):
        level = ext01.level(g)
        grid = [c for c in level if is_interval(c) and c != ext01.max_dot]
        for dots in (level, grid, grid[::-1], grid[1:], grid[:1] + grid[2:]):
            row = interval_row(dots)
            assert row == _row_reference(dots), g
            rows += row is not None
    assert rows == 19  # level 0 (the root alone), then grid and grid[1:] at g >= 1


def test_seq_extends():
    assert Seq((0, 1, 2)).extends(Seq((0, 1)))
    assert not Seq((0, 2)).extends(Seq((0, 1)))
    assert Seq(()).extends(Seq(()))


@pytest.mark.parametrize(
    "dot",
    [
        MAX,
        D(-3, 2),
        NaryInterval(3, 4, 2),
        Seq((0, 2, 1)),
        Isolated(4),
        Ball(7, 3),
        TupleDot((D(0, 1), Seq((1,)))),
        ns.RatInterval(F(1, 3), F(2, 3)),
        ns.Trail((Seq(()), Seq((1,)))),
        ns.RatInterval(F(-(10**6000) + 1, 7), F(10**5999, 10**6000 - 1)),  # past int/str's limit
    ],
)
def test_json_round_trip(dot):
    assert dot_from_json(dot_to_json(dot)) == dot


_WIRE_FORMS = [  # one dot of each kind and its JSON object, keys in order
    (MAX, [("kind", "max")]),
    (RatInterval(F(-1, 3), F(2)), [("kind", "rat"), ("lo", "-1/3"), ("hi", "2/1")]),
    (D(-3, 2), [("kind", "dyadic"), ("n", -3), ("m", 2)]),
    (NaryInterval(3, 4, 2), [("kind", "nary"), ("base", 3), ("n", 4), ("m", 2)]),
    (Seq((0, 2, 1)), [("kind", "seq"), ("syms", [0, 2, 1])]),
    (TupleDot((D(0, 1), Seq((1,)))),
     [("kind", "tuple"), ("items", [{"kind": "dyadic", "n": 0, "m": 1}, {"kind": "seq", "syms": [1]}])]),
    (Ball(7, 3), [("kind", "ball"), ("i", 7), ("s", 3)]),
    (ns.Trail((Seq(()), Seq((1,)))),
     [("kind", "trail"), ("items", [{"kind": "seq", "syms": []}, {"kind": "seq", "syms": [1]}])]),
    (Isolated(4), [("kind", "iso"), ("k", 4)]),
]


@pytest.mark.parametrize(
    "dot, form", _WIRE_FORMS, ids=[type(d).__name__ for d, _ in _WIRE_FORMS])
def test_json_wire_form_is_pinned(dot, form):
    obj = dot_to_json(dot)
    assert json.dumps(obj) == json.dumps(dict(form))  # nested objects' key order too
    assert dot_from_json(obj) == dot


def test_every_dot_class_has_a_json_kind():
    # the classes slots=True replaced may linger among the subclasses: compare names
    assert {c.__name__ for c in ns.Dot.__subclasses__()} == {type(d).__name__ for d, _ in _WIRE_FORMS}


@pytest.mark.parametrize(
    "obj, error, text",
    [
        ({"kind": "foo"}, ValueError, "unknown dot kind 'foo'"),
        ({"kind": [1]}, ValueError, "unknown dot kind [1]"),
        ({"kind": True}, ValueError, "unknown dot kind True"),
        ({"kind": "nary", "base": 3, "n": 1}, KeyError, "'m'"),
        ({"kind": "dyadic", "n": True, "m": 1}, TypeError, "expected a JSON int, found True"),
        ({"kind": "rat", "lo": 0, "hi": "1/2"}, TypeError, "expected a JSON str, found 0"),
        ({"kind": "seq", "syms": "01"}, TypeError, "expected a JSON list, found '01'"),
        ([1], TypeError, "list indices must be integers or slices, not str"),
    ],
)
def test_malformed_json_dots_raise_pinned_errors(obj, error, text):
    with pytest.raises(error) as info:
        dot_from_json(obj)
    assert str(info.value) == text


def _long_integers(low):
    """Integers from low up of 1 to 6,000 digits: the length k is drawn
    first, about half the time past int/str's 4,300-digit limit, then a
    k-digit integer (a one-digit one from low)."""
    lengths = st.integers(1, 6000) | st.integers(4301, 6000)
    return lengths.flatmap(lambda k: st.integers(10 ** (k - 1) if k > 1 else low, 10**k - 1))


long_rationals = st.builds(
    F, st.tuples(st.booleans(), _long_integers(0)).map(lambda s: -s[1] if s[0] else s[1]),
    _long_integers(1),
)


@settings(deadline=None)
@given(st.lists(long_rationals, min_size=2, max_size=2, unique=True).map(sorted))
def test_a_rat_dot_round_trips_at_any_length(ends):
    d = RatInterval(*ends)
    assert dot_from_json(dot_to_json(d)) == d


numerators = (st.integers(-3, 3) | st.integers()
              | st.tuples(st.booleans(), _long_integers(0)).map(lambda s: -s[1] if s[0] else s[1]))


@settings(deadline=None)
@given(n=numerators, m=st.integers(0, 70) | st.integers(0, 20_000), base=st.integers(2, 12),
       k=st.integers(0, 40) | st.integers(0, 6_000), den=st.integers(1, 10**6) | _long_integers(1))
def test_interval_texts_are_the_fraction_texts(n, m, base, k, den):
    cases = [
        (D(n, m), F(n, 2**m), F(n + 2, 2**m), "d"),
        (NaryInterval(base, n, k), F(n, base**k), F(n + 1, base**k), f"@{base}"),
        (RatInterval(F(n, den), F(n + 1, den)), F(n, den), F(n + 1, den), ""),
    ]
    for d, lo, hi, suffix in cases:
        text = repr(d)
        try:
            expected = oracles.interval_text_reference(lo, hi, suffix)
        except ValueError:  # past int/str's digit limit: the text still reads back
            assert text.endswith("]" + suffix)
            lo_text, hi_text = text[1:text.index("]")].split(",")
            assert (read_rational(lo_text), read_rational(hi_text)) == (lo, hi)
        else:
            assert text == expected
