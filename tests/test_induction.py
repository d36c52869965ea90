"""Genetic bars, covers, Heine-Borel selection, the formal-rule calculus."""

import itertools
from fractions import Fraction as F

import pytest

import natspace as ns
from natspace.dots import DyadicInterval as D, Seq, Trail, endpoints
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


def _named(name):
    if name.endswith("^+"):
        return ns.extend_with_isolated_point(ns.std_space(name[:-2]))
    return ns.std_space(name)


def _chooses(space, d, a, b):
    return space.apart(d, a) or space.apart(d, b)


def _walked_leaves(bar, width=4, depth=4):
    """The leaves met on the first `width` children of each split, down to
    `depth` splits: a bar on an infinitely branching space cannot be
    flattened."""
    sp, out = bar.space, []

    def walk(node, k):
        if isinstance(node, Leaf):
            out.append(node.dot)
        elif k < depth:
            for s in sp.successors(node.dot).prefix(width):
                walk(node.child(s), k + 1)

    walk(bar.node, 0)
    return out


def _apart_pairs(space, n):
    dots = [space.enumerate_dot(i) for i in range(n)]
    return [(a, b) for a, b in itertools.combinations(dots, 2) if space.apart(a, b)]


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
    space = _named(name)
    bar = ns.separation_bar(space, a, b)
    for d in ns.flatten(bar):
        assert space.apart(d, a) or space.apart(d, b)


def test_separation_bar_on_unglued_interval_trails():
    # the larger-grade rule leafed T([1/4,3/4]d;[3/8,5/8]d), which touches both
    space = ns.unglue(ns.std_space("sigma_[0,1]"))
    a, b = Trail((D(0, 2),)), Trail((D(2, 2), D(5, 3)))
    leaves = ns.flatten(ns.separation_bar(space, a, b))
    assert leaves and all(_chooses(space, d, a, b) for d in leaves)


@pytest.mark.parametrize(
    "space, a, b",
    [
        # the depth-1 leaf T([0,1/2]d) touches both
        (ns.trail_space(ns.std_space("sigma_[0,1]")), Trail((D(0, 3),)), Trail((D(4, 3),))),
        # the leaf <0> maps to [0,1/2]@2, which touches both images
        (ns.baire_encode(ns.std_space("[0,1]_bin")).spread, Seq((1,)), Seq((2,))),
        # the width walk met iso(1), which has no endpoints
        (_named("sigma_R^+"), D(0, 3), D(4, 3)),
        (_named("R_bin^+"), ns.NaryInterval(2, 0, 2), ns.NaryInterval(2, 2, 2)),
    ],
    ids=["trails", "baire-spread", "sigma_R^+", "R_bin^+"],
)
def test_separation_bar_on_infinitely_branching_spaces(space, a, b):
    leaves = _walked_leaves(ns.separation_bar(space, a, b))
    assert leaves and all(_chooses(space, d, a, b) for d in leaves)


_SEPARATED = [
    "sigma_[0,1]", "[0,1]_ter", "cantor", "T3", "sigma_3_real",
    "sigma_[0,1]^+", "[0,1]_ter^+", "cantor^+", "T3^+", "sigma_3_real^+",
]


@pytest.mark.parametrize("name", _SEPARATED + ["unglue", "product"])
def test_separation_bar_leaves_all_choose(name):
    if name == "unglue":
        space = ns.unglue(ns.std_space("sigma_[0,1]"))
    elif name == "product":
        space = ns.product([ns.std_space("sigma_[0,1]")] * 2)
    else:
        space = _named(name)
    for a, b in _apart_pairs(space, 30):
        assert all(_chooses(space, d, a, b) for d in ns.flatten(ns.separation_bar(space, a, b)))


@pytest.mark.parametrize("name", _SEPARATED + ["sigma_2_real"])
def test_separation_bar_no_deeper_than_the_family_rules(name):
    """Wherever the old per-family uniform depth gave a sound bar, the
    split-until-chosen bar is no deeper and has no more leaves."""
    space, compared = _named(name), 0
    for a, b in _apart_pairs(space, 30):
        try:
            depth = oracles.separation_depth_reference(space, a, b, ns.dot_to_json)
        except (ValueError, TypeError):  # no rule, or a width walk into iso(1)
            continue
        uniform = ns.flatten(ns.genetic_uniform(space, space.max_dot, depth))
        if not all(_chooses(space, d, a, b) for d in uniform):
            continue
        bar = ns.separation_bar(space, a, b)
        assert ns.bar_depth(bar) <= depth and len(ns.flatten(bar)) <= len(uniform)
        compared += 1
    assert compared


def test_separation_bar_needs_apart_dots_and_a_graded_space(sigma01):
    with pytest.raises(BarDefect, match="not apart"):
        ns.separation_bar(sigma01, D(0, 2), D(1, 2))
    rat = ns.std_space("R_rat")  # ungraded
    a, b = rat.enumerate_dot(3), rat.enumerate_dot(4)  # [1/2,1] and [-1,0]
    assert rat.apart(a, b)
    with pytest.raises(ns.SpaceDefect, match="spraid"):
        ns.separation_bar(rat, a, b)


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


def _under_the_bar(f, G, leaves):
    targets = ns.flatten(G)
    return leaves and all(any(f.target.refines(f.map(d), c) for c in targets) for d in leaves)


@pytest.mark.parametrize(
    "f",
    [ns.cantor_function(), ns.doubling(), ns.compose(ns.cantor_function(), ns.doubling())],
    ids=["f_can", "doubling", "composite"],
)
def test_inductive_preimage_of_grade_preserving_maps(f):
    for seed in range(4):
        G = random_bar(f.target, f.target.max_dot, 3, seed)
        assert _under_the_bar(f, G, ns.flatten(ns.inductive_preimage(f, G)))


@pytest.mark.parametrize(
    "f",
    [ns.arith("scalar", F(1, 2)), ns.arith("abs"),
     ns.compose(ns.arith("scalar", F(1, 2)), ns.arith("neg"))],
    ids=["scalar", "abs", "composite"],
)
def test_inductive_preimage_of_arithmetic(sigmaR, f):
    # the conditional bar splits until the image lands under a leaf of G
    G = ns.genetic_uniform(sigmaR, D(0, 0), 2)
    assert _under_the_bar(f, G, _walked_leaves(ns.inductive_preimage(f, G)))


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
