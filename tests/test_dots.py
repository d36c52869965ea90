"""Basic dot types: endpoints, apartness, refinement, JSON round trips."""

from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

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
    interval_contains,
    interval_gap,
    intervals_apart,
)

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


def test_interval_relations_reject_non_interval_dots():
    for args in ((Seq((0,)), D(0, 1)), (D(0, 1), MAX)):
        with pytest.raises(TypeError, match="has no interval endpoints"):
            intervals_apart(*args)
        with pytest.raises(TypeError, match="has no interval endpoints"):
            interval_contains(*args)


def test_nary_endpoints():
    assert endpoints(NaryInterval(3, 1, 1)) == (F(1, 3), F(2, 3))
    assert endpoints(NaryInterval(10, 25, 2)) == (F(25, 100), F(26, 100))


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
    ],
)
def test_json_round_trip(dot):
    assert dot_from_json(dot_to_json(dot)) == dot
