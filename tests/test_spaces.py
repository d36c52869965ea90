"""Space descriptors: axioms, enumeration order, levels, pairing, oracles."""

import hashlib
import itertools
from fractions import Fraction as F

import pytest

import natspace as ns
from natspace import encodings, spaces
from natspace.dots import Ball, DyadicInterval as D, Isolated, MAX, Seq, Trail, TupleDot
from natspace.spaces import (
    _STD_BUILDERS, _compositions, _tuple_unrank, baire_rank, baire_unrank,
)

import oracles

STD_NAMES = sorted(_STD_BUILDERS)


@pytest.mark.parametrize("name", STD_NAMES)
def test_std_space_axioms_depth_60(name):
    report = ns.validate_space(ns.std_space(name), 60)
    assert report.ok, str(report)


def test_failing_validation_lists_every_violation():
    a, b, c, e = Seq((0,)), Seq((1,)), Seq((0, 0)), Seq((2,))

    def apart(x, y):  # a # b one way only, and e # e
        return (x, y) == (a, b) or x == y == e

    def refines(x, y):  # c skips MAX, e fails itself, b and e refine each other
        if x == e:
            return y == b
        return x == y or (x, y) in {(a, MAX), (b, MAX), (e, MAX), (c, a), (b, e)}

    space = ns.Space("defective", apart, refines, MAX, lambda: iter([MAX, a, b, c, e]))
    report = ns.validate_space(space, 5)
    assert not report.ok
    assert str(report) == (
        "validate defective depth=5: 11 violation(s)\n"
        "  max dot: <0,0> does not refine max\n"
        "  antireflexivity: <2> # <2>\n"
        "  reflexivity: not <2> <= <2>\n"
        "  max dot: <2> does not refine max\n"
        "  symmetry: <0> vs <1>\n"
        "  antisymmetry: <1> <=> <2>\n"
        "  transitivity: <0,0> <= <0> <= MAX but not <0,0> <= MAX\n"
        "  transitivity: <2> <= <1> <= MAX but not <2> <= MAX\n"
        "  monotonicity: <2> <= <1>, <0> # <1> but not # <2>\n"
        "  monotonicity: <1> <= <2>, <2> # <2> but not # <1>\n"
        "  transitivity: <2> <= <1> <= <2> but not <2> <= <2>"
    )


def test_product_space_axioms(sigmaR):
    prod = ns.product((sigmaR, sigmaR))
    assert ns.validate_space(prod, 60).ok


def test_extended_space_axioms(ext01):
    assert ns.validate_space(ext01, 120).ok


def test_frozen_enumeration_prefixes(sigma01, sigmaR, ext01):
    assert [sigma01.enumerate_dot(i) for i in range(7)] == [
        D(0, 1), D(0, 2), D(1, 2), D(2, 2), D(0, 3), D(1, 3), D(2, 3),
    ]
    assert [sigmaR.enumerate_dot(i) for i in range(5)] == [
        MAX, D(0, 0), D(1, 0), D(0, 1), D(-1, 0),
    ]
    assert [ext01.enumerate_dot(i) for i in range(4)] == [
        D(0, 1), Isolated(1), D(0, 2), Isolated(2),
    ]


# SHA-256 of the first 2,000 enumerated dots of each catalogue space; see
# _catalogue_digest for what each dot contributes.
CATALOGUE_DIGESTS = {
    "R_bin": "54e00946ec0b81145586af15f85146b64abb9a1a1b577eb0176c9f78e69062e8",
    "R_dec": "c67bbc3988578d050d7a7c6862e0eba9bd19bdf58c06238935d0c978a15ace5b",
    "R_rat": "3f07c985e3565c2a01bea56ca1f106fa6dec88f25e5791a2acfbf15d50032b57",
    "R_ter": "5867faa614eb2c77e908dee296a97a48cb42a46b3bcab1aafc48fc36a7230358",
    "T2": "1b7a0b6e88708eb426ae95bdab11357d99ba23c688fe0a8863ab3a3ee2245310",
    "T3": "f7e72f3a1553113e087c84c0a616d5fe9193f2fec82c43e3b7d7348a927f8ba3",
    "[0,1]_bin": "17096ea08d069ad54a4b4611a0f816a0c8678e2f2b1dee1061f00eb7f84eaa46",
    "[0,1]_ter": "1e3b716080666b16065e06ada433b3b0a35120d15677e894b09316cb92ec3e98",
    "baire": "0784379521c9b0ecb3ac757c2ee75d0a6618925788020dd1997bb06d6f0fbeb3",
    "cantor": "333c3cc18f982fcf92887b75c1960062d2f7fcacb4bc51d13e7b474f435ea776",
    "sigma_2": "333c3cc18f982fcf92887b75c1960062d2f7fcacb4bc51d13e7b474f435ea776",
    "sigma_2_real": "1bb6af64f81c899305a048c5c84470405ee0e00ff45d67d7cb323c7eecd0aeae",
    "sigma_3": "37c9ea4553eeb0f384108203470d64f0ad52f4abfdb5235b304a12cffb8000b4",
    "sigma_3_real": "27ffc6a4eb2cbdad0731d8df1154f26a2b008229e3eb51a2ef214216b279215c",
    "sigma_R": "8d2fde073e573182f1a6d9589c973428e2ec3caa6d06d739ec32d629296be9f6",
    "sigma_[0,1]": "3fe0439329138aad55b652f3abaf59c8e71a8c2bf0309f12c84af204e3c81d5c",
    "sigma_[0,1]^+": "2b8757add0620d2df89678216ee2070610764d845827470c8a06492c4f31fc63",
    "product((sigma_R, sigma_R))":
        "7687ff206d69520e6bb58eec0b9f577182a598dd75cf221ecf7dd6770a3b7e1b",
}


def _catalogue_space(name):
    if name == "sigma_[0,1]^+":
        return ns.extend_with_isolated_point(_STD_BUILDERS["sigma_[0,1]"]())
    if name == "product((sigma_R, sigma_R))":
        sigma_r = _STD_BUILDERS["sigma_R"]()
        return ns.product((sigma_r, sigma_r))
    return _STD_BUILDERS[name]()


def _catalogue_digest(space, count=2000):
    """Each dot contributes its repr, its apartness from and refinement of
    the previous dot and, on graded spaces, its grade, its first three
    successors and its predecessors."""
    h = hashlib.sha256()
    for i in range(count):
        d = space.enumerate_dot(i)
        row = [repr(d)]
        if i:
            prev = space.enumerate_dot(i - 1)
            row += [str(space.apart(d, prev)), str(space.refines(d, prev))]
        if space.graded:
            row += [
                str(space.grade(d)),
                repr(space.successors(d).prefix(3)[:3]),
                repr(space.predecessors(d)),
            ]
        h.update(("|".join(row) + "\n").encode())
    return h.hexdigest()


def test_catalogue_digests_cover_every_std_space():
    assert set(STD_NAMES) <= set(CATALOGUE_DIGESTS)


@pytest.mark.parametrize("name", sorted(CATALOGUE_DIGESTS))
def test_catalogue_digest(name):
    assert _catalogue_digest(_catalogue_space(name)) == CATALOGUE_DIGESTS[name]


def test_index_of_inverts_enumeration(sigma01):
    for i in range(200):
        assert sigma01.index_of(sigma01.enumerate_dot(i)) == i


def test_unit_fan_level_sizes(sigma01):
    # grade g holds the 2^(g+1)-1 half-overlapping dyadic dots
    for g in range(1, 7):
        assert len(list(sigma01.level(g))) == 2 ** (g + 1) - 1


@pytest.mark.parametrize(
    "name, levels", [("sigma_[0,1]", 13), ("[0,1]_bin", 13), ("[0,1]_ter", 11)]
)
def test_grid_levels_match_the_successor_expansion(name, levels):
    # fresh spaces, so the levels their caches hold are freed after the test;
    # the ternary grid stops at level 10, as its level 12 holds 3^12 dots
    base = spaces._STD_BUILDERS[name]()
    for space in (base, ns.extend_with_isolated_point(base)):
        for g in range(levels):
            assert space.level(g) == oracles.level_reference(space, g), (space.name, g)


def test_unit_fan_same_grade_apartness(sigma01):
    # overlapping grid: same-grade dots are apart iff indices differ by >= 3
    lev = list(sigma01.level(2))
    for a, b in itertools.combinations(lev, 2):
        assert sigma01.apart(a, b) == (abs(a.n - b.n) >= 3)


def test_extended_isolated_dots(ext01):
    assert ext01.refines(Isolated(5), Isolated(2))
    assert not ext01.refines(Isolated(2), Isolated(5))
    assert ext01.apart(Isolated(2), D(0, 2))
    assert ext01.is_isolated(Isolated(3))


def test_rational_enum_frozen_prefix():
    assert list(itertools.islice(ns.rational_enum(), 8)) == [
        F(0), F(1), F(1, 2), F(-1), F(1, 3), F(-1, 2), F(2), F(1, 4),
    ]


def test_dense_points_frozen_prefix():
    assert [ns.unit_interval_dense_points(i) for i in range(8)] == [
        F(0), F(1), F(1, 2), F(1, 4), F(3, 4), F(1, 8), F(3, 8), F(5, 8),
    ]
    assert [ns.unit_interval_dense_points(i) for i in range(5000)] == [
        oracles.dense_point_walk(i) for i in range(5000)
    ]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_tuple_orders_match_the_linear_walk(n):
    """Stars and bars and the bisected unrank against the recursion and the
    one-by-one walk that first stated the diagonal-by-total order."""
    for total in range(12):
        assert list(_compositions(total, n)) == list(oracles.compositions_listed(total, n))
    walk = itertools.islice(oracles.diagonal_tuples(n), 5000)
    assert [_tuple_unrank(k, n) for k in range(5000)] == list(walk)


def test_product_successors_list_each_successor_once(sigmaR, sigma01, baire):
    """A mixed product steps through its finite coordinates' combinations
    under the diagonal of its unbounded ones; the pure orders are frozen."""
    mixed = ns.product((sigma01, baire))
    listed = mixed.successors(mixed.max_dot).prefix(60)
    assert len(set(listed)) == 60
    assert listed[:4] == tuple(
        TupleDot((D(n, 2), Seq((k,)))) for k, n in ((0, 0), (0, 1), (0, 2), (1, 0))
    )
    square = ns.product((sigmaR, sigmaR))
    unbounded = ((0, 0), (0, 1), (1, 0), (0, -1), (1, 1), (-1, 0), (0, 2), (1, -1), (-1, 1), (2, 0))
    assert square.successors(square.max_dot).prefix(10) == tuple(
        TupleDot((D(a, 0), D(b, 0))) for a, b in unbounded
    )
    finite = square.successors(TupleDot((D(0, 0), D(-1, 0)))).dots
    assert finite == tuple(TupleDot((D(a, 1), D(b, 1))) for a in (0, 1, 2) for b in (-2, -1, 0))


def test_an_ungraded_space_names_the_structure_it_lacks():
    rat = ns.std_space("R_rat")
    d = rat.enumerate_dot(1)
    for read, text in (
        (lambda: rat.grade(d), "R_rat: no grade structure"),
        (lambda: rat.successors(d), "R_rat: no successor structure"),
        (lambda: rat.predecessors(d), "R_rat: no predecessor structure"),
        (lambda: rat.level(1), "R_rat: level sets need a finitely branching space"),
    ):
        with pytest.raises(ns.SpaceDefect) as raised:
            read()
        assert str(raised.value) == text


def _trail_past_the_scan_budget():
    more = ns.trail_space(_STD_BUILDERS["sigma_[0,1]"]()).successors(Trail((D(0, 3),))).more
    return lambda: more(1), ns.SpaceDefect, (
        "sigma_[0,1]: strict refinement 1 of [0,1/4]d not found in first 5 enumerated dots"
    )


def _baire_level_past_its_scan_budget():
    enc = ns.baire_encode(_STD_BUILDERS["T3"]())
    return lambda: enc.level_member(1, enc.space.max_dot, 4), ns.EncodingDefect, (
        "T3: level 1 under <> exhausted after scanning 5 dots (needed member 4)"
    )


def _metric_past_the_last_pair():
    ev = ns.MetricEvaluator(_STD_BUILDERS["T2"]())  # every dot isolated: no pair
    return lambda: ev.pair(0), ns.MetricDefect, "T2: no separator pair 0 up to grade 9"


@pytest.mark.parametrize(
    "case", [_trail_past_the_scan_budget, _baire_level_past_its_scan_budget,
             _metric_past_the_last_pair],
)
def test_a_stream_end_raises_its_owners_error(case, monkeypatch):
    """Past the end of a Lazy stream its owner's error comes with the
    owner's text, and without the end of the iterator as its context; so
    does a second read."""
    monkeypatch.setattr(spaces, "SCAN_BUDGET", 5)
    monkeypatch.setattr(encodings, "LEVEL_SCAN_BUDGET", 5)
    read, error, text = case()
    for _ in range(2):
        with pytest.raises(error) as raised:
            read()
        assert str(raised.value) == text
        assert raised.value.__suppress_context__ and raised.value.__cause__ is None


def test_metric_spread_axioms():
    spread = ns.metric_to_spread(
        ns.rational_points_oracle(ns.unit_interval_dense_points)
    )
    assert ns.validate_space(spread, 80).ok


def test_metric_spread_rejects_an_oracle_answer_other_than_below_or_above():
    spread = ns.metric_to_spread(lambda i, j, q, slack: "maybe")
    with pytest.raises(ns.SpaceDefect, match="oracle answer 'maybe' not below/above"):
        spread.apart(Ball(0, 1), Ball(1, 1))


def test_baire_rank_inverts_enumeration(baire):
    for i in range(2000):
        d = baire.enumerate_dot(i)
        assert baire_rank(d) == i
        assert baire_unrank(i) == d


def test_baire_rank_monotone_under_extension(baire):
    for i in range(200):
        d = baire.enumerate_dot(i)
        for s in (0, 1, 5):
            assert baire_rank(Seq(d.syms + (s,))) > baire_rank(d)


def test_baire_rank_large_round_trip():
    r = 10**30
    assert baire_rank(baire_unrank(r)) == r


def test_unknown_space_name_rejected():
    with pytest.raises(ValueError):
        ns.std_space("no_such_space")
