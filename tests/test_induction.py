"""Genetic bars, covers, Heine-Borel selection, the formal-rule calculus."""

from fractions import Fraction as F

import pytest

import natspace as ns
from natspace.dots import DyadicInterval as D, Seq, endpoints
from natspace.induction import (
    BarDefect,
    Cover,
    FiniteSet,
    GeneticBar,
    Ind1,
    Leaf,
)

import oracles
from conftest import random_bar


def test_uniform_bar_flatten_sizes(sigma01):
    # overlapping dyadic grid: depth-n flatten under the root is 2^(n+1)-1
    for n in range(0, 5):
        bar = ns.genetic_uniform(sigma01, D(0, 1), n)
        assert len(ns.flatten(bar)) == 2 ** (n + 1) - 1


def test_uniform_bar_flatten_sizes_cantor(cantor_space):
    for n in range(0, 6):
        bar = ns.genetic_uniform(cantor_space, Seq(()), n)
        assert len(ns.flatten(bar)) == 2**n


def test_bar_contains_and_depth(sigma01):
    bar = ns.genetic_uniform(sigma01, D(0, 1), 3)
    assert ns.bar_depth(bar) == 3
    for d in ns.flatten(bar):
        assert ns.bar_contains(bar, d)
    assert not ns.bar_contains(bar, D(0, 2))


def test_bar_json_round_trip(sigma01):
    bar = random_bar(sigma01, D(0, 1), 4, seed=7)
    blob = ns.bar_to_json(bar)
    back = ns.bar_from_json(sigma01, blob)
    assert ns.flatten(back) == ns.flatten(bar)


def test_flatten_union_covers_unit(sigma01):
    for seed in range(5):
        bar = random_bar(sigma01, D(0, 1), 5, seed=seed)
        segs = [endpoints(d) for d in ns.flatten(bar)]
        assert oracles.union_covers(segs, F(0), F(1))


def test_finite_subcover_frozen_examples(sigma01):
    grade1 = tuple(sigma01.level(1))
    cover = Cover(dots=grade1, witness=ns.genetic_uniform(sigma01, D(0, 1), 1))
    assert ns.finite_subcover(sigma01, cover) == grade1

    # an irrelevant deep dot is never selected
    noisy = Cover(
        dots=grade1 + (D(5, 6),),
        witness=ns.genetic_uniform(sigma01, D(0, 1), 1),
    )
    assert ns.finite_subcover(sigma01, noisy) == grade1


def test_finite_subcover_needs_witness(sigma01):
    with pytest.raises(BarDefect):
        ns.finite_subcover(sigma01, Cover(dots=tuple(sigma01.level(1))))


def test_finite_subcover_rejects_orphan_witness(sigma01):
    # witness dots at grade 1 cannot refine a grade-2-only cover
    cover = Cover(
        dots=(D(0, 3),), witness=ns.genetic_uniform(sigma01, D(0, 1), 1)
    )
    with pytest.raises(BarDefect):
        ns.finite_subcover(sigma01, cover)


def test_descends(sigma01):
    deep = ns.genetic_uniform(sigma01, D(0, 1), 3)
    shallow = ns.flatten(ns.genetic_uniform(sigma01, D(0, 1), 1))
    assert ns.descends(shallow, deep)
    assert not ns.descends((D(0, 3),), deep)


def test_reduce_bar_frozen(sigma01):
    bar = ns.genetic_uniform(sigma01, D(0, 1), 3)
    red = ns.reduce_bar(bar, D(0, 2))
    flat = ns.flatten(red)
    assert len(flat) == 7
    assert all(sigma01.refines(d, D(0, 2)) for d in flat)


def test_reduce_bar_identity_cases(sigma01):
    bar = ns.genetic_uniform(sigma01, D(0, 1), 2)
    assert ns.flatten(ns.reduce_bar(bar, D(0, 1))) == ns.flatten(bar)
    leaf = GeneticBar(sigma01, Leaf(D(0, 1)))
    assert ns.flatten(ns.reduce_bar(leaf, D(1, 3))) == (D(1, 3),)


def test_bar_walks_on_infinitely_branching_root(sigmaR):
    # MAX of sigma_R has infinitely many successors: the walks find the one
    # they need among the ancestors of the dot they are asked about
    bar = ns.genetic_uniform(sigmaR, ns.MAX, 3)
    dots = (D(1, 2), D(-3, 2), D(5, 1), D(0, 0), D(7, 3))
    assert [ns.bar_contains(bar, d) for d in dots] == [True, True, False, False, False]
    assert ns.flatten(ns.reduce_bar(bar, D(-3, 1))) == (D(-6, 2), D(-5, 2), D(-4, 2))
    assert ns.flatten(ns.reduce_bar(bar, D(2, 0))) == tuple(D(n, 2) for n in range(8, 15))


def test_bar_from_json_checks_child_dots(sigma01):
    blob = ns.bar_to_json(ns.genetic_uniform(sigma01, D(0, 1), 2))
    kids = blob["derivation"]["children"]
    kids[0], kids[2] = kids[2], kids[0]
    with pytest.raises(BarDefect, match="stands for the successor"):
        ns.bar_from_json(sigma01, blob)


def test_expand_bar_frozen(sigma01):
    leaf = GeneticBar(sigma01, Leaf(D(0, 2)))
    exp = ns.expand_bar(leaf, D(0, 1))
    assert set(ns.flatten(exp)) == set(sigma01.level(1))


def test_min_bars_common_refinement(sigma01):
    b2 = ns.genetic_uniform(sigma01, D(0, 1), 2)
    b3 = ns.genetic_uniform(sigma01, D(0, 1), 3)
    m = ns.min_bars(b2, b3)
    assert set(ns.flatten(m)) == set(ns.flatten(b3))
    assert ns.descends(ns.flatten(b2), m)
    assert ns.descends(ns.flatten(b3), m)
    assert ns.flatten(ns.min_bars(b2, b2)) == ns.flatten(b2)


def test_separation_bar_chooses(sigma01):
    a, b = D(0, 3), D(4, 3)
    bar = ns.separation_bar(sigma01, a, b)
    for d in ns.flatten(bar):
        assert sigma01.apart(d, a) or sigma01.apart(d, b)


def test_separation_bar_trees(cantor_space, baire):
    bar = ns.separation_bar(cantor_space, Seq((0, 0)), Seq((0, 1)))
    for d in ns.flatten(bar):
        assert cantor_space.apart(d, Seq((0, 0))) or cantor_space.apart(
            d, Seq((0, 1))
        )


@pytest.mark.parametrize(
    "name, a, b",
    [
        ("sigma_2_real", Seq((0, 0)), Seq((1, 1))),
        ("sigma_2_real", Seq((0,)), Seq((1, 1))),
        ("sigma_3_real", Seq((0,)), Seq((2,))),
        ("sigma_3_real", Seq((0,)), Seq((1, 2))),
        ("sigma_2_real^+", Seq((0, 1, 1, 0)), Seq((1,))),
        ("sigma_2_real^+", Seq((0,)), ns.Isolated(2)),
        ("sigma_[0,1]^+", D(0, 3), ns.Isolated(2)),
        ("cantor^+", Seq((0, 1)), Seq((1,))),
        ("cantor^+", Seq((0, 0, 1)), ns.Isolated(1)),
        ("T3^+", Seq((0, 0)), Seq((2,))),
        ("T3^+", ns.Isolated(3), Seq((1,))),
    ],
)
def test_separation_bar_digit_intervals(name, a, b):
    if name.endswith("^+"):
        space = ns.extend_with_isolated_point(ns.std_space(name[:-2]))
    else:
        space = ns.std_space(name)
    bar = ns.separation_bar(space, a, b)
    for d in ns.flatten(bar):
        assert space.apart(d, a) or space.apart(d, b)


def test_inductive_preimage_identity_and_neg(sigmaR, sigma01):
    G = ns.genetic_uniform(sigma01, D(0, 1), 2)
    H = ns.inductive_preimage(ns.identity(sigma01), G)
    assert ns.flatten(H) == ns.flatten(G)

    cone = ns.genetic_uniform(sigmaR, D(0, 1), 2)
    Hn = ns.inductive_preimage(ns.arith("neg"), cone)
    flatG = ns.flatten(cone)
    for d in ns.flatten(Hn):
        img = ns.arith("neg").map(d)
        assert any(sigmaR.refines(img, c) for c in flatG)


def test_product_bar_cover(sigma01):
    G = ns.genetic_uniform(sigma01, D(0, 1), 1)
    prod = ns.product((sigma01, sigma01))
    cover = ns.product_bar(G, G, prod)
    wflat = ns.flatten(cover.witness)
    assert wflat == ns.flatten(ns.genetic_uniform(prod, prod.max_dot, 1))
    assert all(cover.member(d) for d in wflat)


def test_formal_derivation_round_trip(sigma01):
    bar = ns.genetic_uniform(sigma01, D(0, 1), 2)
    B = ns.flatten(bar)
    der = ns.formal_from_genetic(sigma01, D(0, 1), B, bar)
    A_expr, B_expr = ns.verify_derivation(sigma01, der)
    assert A_expr == FiniteSet(frozenset({D(0, 1)}))
    assert isinstance(B_expr, FiniteSet)
    assert B_expr.dots == frozenset(B)


def test_verifier_rejects_false_rule(sigma01):
    # ind1 requires b to refine c
    with pytest.raises(BarDefect):
        ns.verify_derivation(sigma01, Ind1(D(0, 2), D(4, 3)))


def test_one_step_refinement_derivation(sigma01):
    A, B = ns.verify_derivation(sigma01, Ind1(D(0, 3), D(0, 2)))
    assert A == FiniteSet(frozenset({D(0, 3)}))
    assert B == FiniteSet(frozenset({D(0, 2)}))
