"""Dot-level morphisms: arithmetic, codecs, line calls, diagonalization."""

import itertools
import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

import natspace as ns
from natspace.cli import compile_expression, parse_expression
from natspace.dots import DyadicInterval as D, Seq, Trail, TupleDot, endpoints
from natspace.morphisms import TRAIL

import oracles

rationals = st.fractions(min_value=-3, max_value=3, max_denominator=32)


def _binary_value(op: str, bits: int, a: F, b: F) -> tuple:
    f = ns.arith(op)
    p = ns.pair_point(ns.rational_to_point(a), ns.rational_to_point(b))
    img = ns.apply_point(f, p)
    return endpoints(ns.approximate(img, bits))


@given(rationals, rationals)
@settings(max_examples=25, deadline=None)
def test_add_matches_rational_oracle(a, b):
    lo, hi = _binary_value("add", 12, a, b)
    assert lo <= a + b <= hi


@given(rationals, rationals)
@settings(max_examples=25, deadline=None)
def test_mul_matches_rational_oracle(a, b):
    lo, hi = _binary_value("mul", 12, a, b)
    assert lo <= a * b <= hi


@given(rationals, rationals)
@settings(max_examples=20, deadline=None)
def test_min_max_match_rational_oracle(a, b):
    lo, hi = _binary_value("min", 12, a, b)
    assert lo <= min(a, b) <= hi
    lo, hi = _binary_value("max", 12, a, b)
    assert lo <= max(a, b) <= hi


@given(rationals)
@settings(max_examples=20, deadline=None)
def test_unary_ops_match_rational_oracle(a):
    for op, val in (("neg", -a), ("abs", abs(a))):
        f = ns.arith(op)
        img = ns.apply_point(f, ns.rational_to_point(a))
        lo, hi = endpoints(ns.approximate(img, 12))
        assert lo <= val <= hi
    f = ns.arith("scalar", F(3, 2))
    img = ns.apply_point(f, ns.rational_to_point(a))
    lo, hi = endpoints(ns.approximate(img, 12))
    assert lo <= a * F(3, 2) <= hi


@pytest.mark.parametrize("op", ["neg", "abs", "add", "mul", "min", "max"])
def test_arith_morphism_laws(op):
    assert ns.check_morphism(ns.arith(op), 40).ok


def test_codec_and_cantor_morphism_laws():
    enc, dec = ns.nary_codec(3)
    assert ns.check_morphism(enc, 60).ok
    assert dec is not None and ns.check_morphism(dec, 60).ok
    assert ns.check_morphism(ns.cantor_function(), 60).ok
    assert ns.check_morphism(ns.doubling(), 60).ok


@pytest.mark.parametrize("base", [2, 4])
def test_nary_encode_morphism_laws(base):
    enc, dec = ns.nary_codec(base)
    assert dec is None
    assert ns.check_morphism(enc, 60).ok


def test_round_hull_maximal_containing_dot():
    d = ns.round_hull(4, 5, 12)  # [1/3, 5/12]
    lo, hi = endpoints(d)
    assert lo <= F(1, 3) and F(5, 12) <= hi
    # deepest containing dyadic dot (the grade-4 grid still has one)
    assert d == D(5, 4)


def _power_of_two(j: int) -> F:
    return F(1, 2**j) if j >= 0 else F(2**-j)


_widths = st.one_of(
    st.just(F(0)),
    st.integers(-3, 600).map(_power_of_two),  # 2^-j: the largest m that fits is j or j+1
    st.integers(-3, 600).map(lambda j: 2 * _power_of_two(j)),  # 2^(1-j)
    st.integers(1000, 2500).map(_power_of_two),  # rounded at m past 1,000 by shifts
    st.builds(F, st.integers(1, 2**600), st.integers(1, 2**600)),
    st.integers(3, 2**20).map(F),  # wider than every dot: MAX
)


@st.composite
def _hulls(draw):
    den = draw(st.one_of(st.integers(0, 600).map(lambda a: 2**a), st.integers(1, 2**600),
                         st.integers(1000, 2500).map(lambda a: 2**a)))  # dyadic at high bits
    lo = F(draw(st.integers(-5 * den, 5 * den)), den)  # straddling 0 or wholly negative too
    return lo, lo + draw(_widths), draw(st.integers(0, 400))


@given(_hulls(), st.one_of(st.just(1), st.integers(2, 2**64)))
@settings(max_examples=300, deadline=None)
def test_round_hull_matches_probing_reference(hull, c):
    """The integer form (lo, hi, den) over the least common den, and the
    same hull scaled by c (not reduced), round as the Fraction reference."""
    lo, hi, hint = hull
    den = math.lcm(lo.denominator, hi.denominator) * c
    d = ns.round_hull(int(lo * den), int(hi * den), den, hint)
    got = None if d == ns.MAX else (d.n, d.m)
    assert got == oracles.round_hull_reference(lo, hi, hint)


_ARITH_OPS = ("neg", "abs", "scalar", "add", "mul", "min", "max")
_dyadics = st.builds(D, st.integers(-(2**40), 2**40), st.integers(0, 300))


@st.composite
def _operands(draw):
    """Two dyadic dots; one in ten times one of them is MAX."""
    items = [draw(_dyadics), draw(_dyadics)]
    if draw(st.integers(0, 9)) == 0:
        items[draw(st.integers(0, 1))] = ns.MAX
    return items


@given(
    st.sampled_from(_ARITH_OPS),
    _operands(),
    st.builds(F, st.integers(-(2**70), 2**70), st.integers(1, 2**70)),
)
@settings(max_examples=400, deadline=None)
def test_arith_is_bit_identical_to_the_rational_hull(op, operands, q):
    """arith's integer hulls give the dot that rounding the Fraction hull of
    the operands' endpoints gives, for operands of unequal exponents too."""
    items = operands if op in ("add", "mul", "min", "max") else operands[:1]
    got = ns.arith(op, q if op == "scalar" else None).map(
        TupleDot(tuple(items)) if len(items) == 2 else items[0])
    if ns.MAX in items:
        assert got == ns.MAX
        return
    hull = oracles.hull_reference(op, *map(endpoints, items), q=q)
    ref = oracles.round_hull_reference(*hull, max(x.m for x in items))
    assert got == (ns.MAX if ref is None else D(*ref))


def test_cantor_digit_rule_matches_oracle_depth_6():
    cf = ns.cantor_function()
    for depth in range(1, 7):
        for syms in itertools.product((0, 1, 2), repeat=depth):
            img = cf.map(Seq(syms))
            assert img.syms == oracles.cantor_digit_rule(syms)


@pytest.mark.parametrize(
    "x, y, steps",
    [
        (F(1), F(1), [6, 7, 11, 26, 206]),
        (F(3, 2), F(-3, 2), [6, 7, 11, 26, 206]),
        (F(1000), F(1, 3), [14, 15, 19, 34, 214]),
    ],
)
def test_mul_step_budget_tracks_operand_magnitude(x, y, steps):
    prod = ns.apply_point(
        ns.arith("mul"), ns.pair_point(ns.rational_to_point(x), ns.rational_to_point(y))
    )
    for _ in range(2):  # the magnitude offset is read once, then reused
        assert [prod.steps_for_grade(g) for g in (0, 1, 5, 20, 200)] == steps


def test_line_call_verdicts():
    assert ns.line_call(ns.rational_to_point(F(1, 100)), 8) == "IN"
    assert ns.line_call(ns.rational_to_point(F(-3, 100)), 8) == "OUT"
    assert ns.line_call(ns.rational_to_point(F(1, 100000)), 8) == "LET"


def test_line_call_explicit_shrinking_stream(sigmaR):
    # the halving stream [-1,1], [-1/2,1/2], ... pinned around zero
    dots = [D(-1, m) for m in range(0, 10)]
    p = ns.point_from_prefix(sigmaR, dots)
    assert ns.line_call(p, 8) == "LET"


def test_compose_chain_agrees_pointwise():
    f = ns.compose(ns.arith("abs"), ns.arith("neg"))
    p = ns.rational_to_point(F(-7, 5))
    lo, hi = endpoints(ns.approximate(ns.apply_point(f, p), 10))
    assert lo <= F(7, 5) <= hi


@pytest.mark.parametrize("exponent", [6, 30])
def test_compose_carries_dynamic_liveness(exponent):
    # mul's liveness depends on the magnitude of its input; a composite that
    # dropped it fell back to mul's static bound and stalled at 10^6
    big = ns.rational_to_point(10**exponent)
    p = ns.pair_point(big, big)
    product_dot = ns.approximate(ns.apply_point(ns.arith("mul"), p), 30)
    negated = ns.approximate(ns.apply_point(ns.compose(ns.arith("neg"), ns.arith("mul")), p), 30)
    assert negated == D(-product_dot.n - 2, product_dot.m)
    # the two-operand form reads the same liveness off a pair point of its own
    assert ns.approximate(ns.apply_point(ns.arith("mul"), big, big), 30) == product_dot
    neg_mul = ns.compose(ns.arith("neg"), ns.arith("mul"))
    assert ns.approximate(ns.apply_point(neg_mul, big, big), 30) == negated


def test_an_operand_stream_defect_keeps_its_text():
    """A user point whose stream jumps at its third dot: an image point, of
    a pair point or of two operands, raises the PointDefect text of reading
    the operand alone."""

    def bad():
        return ns.Point(ns.std_space("sigma_R"), lambda: [D(0, 0), D(0, 1), D(7, 2)], name="bad")

    def text(point):
        with pytest.raises(ns.PointDefect) as defect:
            ns.approximate(point, 12)
        return str(defect.value)

    alone = text(bad())
    assert alone == f"point bad: dot {D(7, 2)!r} does not refine previous {D(0, 1)!r}"
    good = ns.rational_to_point(F(1, 3))
    assert text(ns.apply_point(ns.arith("add"), ns.pair_point(bad(), good))) == alone
    assert text(ns.apply_point(ns.arith("add"), bad(), good)) == alone
    assert text(ns.apply_point(ns.arith("mul"), good, bad())) == alone
    assert text(ns.apply_point(ns.arith("neg"), bad())) == alone


def _compile_on_pair_points(node: tuple) -> ns.Point:
    """compile_expression with every binary op applied to a pair_point."""
    kind = node[0]
    if kind == "rat":
        return ns.rational_to_point(node[1])
    if kind in ("neg", "abs"):
        return ns.apply_point(ns.arith(kind), _compile_on_pair_points(node[1]))
    lhs, rhs = _compile_on_pair_points(node[1]), _compile_on_pair_points(node[2])
    if kind == "sub":
        kind, rhs = "add", ns.apply_point(ns.arith("neg"), rhs)
    return ns.apply_point(ns.arith(kind), ns.pair_point(lhs, rhs))


def _assert_same_point(ours: ns.Point, theirs: ns.Point) -> None:
    assert ours.name == theirs.name
    assert [ours.steps_for_grade(g) for g in range(41)] == [
        theirs.steps_for_grade(g) for g in range(41)
    ]
    assert [ours.dot(k) for k in range(60)] == [theirs.dot(k) for k in range(60)]


@given(st.sampled_from(["add", "mul", "min", "max"]), rationals, rationals)
@settings(max_examples=40, deadline=None)
def test_two_operands_map_their_pair_stream(op, a, b):
    # each side on fresh points, so neither reads the other's drawn dots
    ours = ns.apply_point(ns.arith(op), ns.rational_to_point(a), ns.rational_to_point(b))
    pair = ns.pair_point(ns.rational_to_point(a), ns.rational_to_point(b))
    _assert_same_point(ours, ns.apply_point(ns.arith(op), pair))


@given(st.integers(0, 2**32))
@settings(max_examples=25, deadline=None)
def test_a_compiled_tree_maps_pair_streams_as_pair_points_would(seed):
    tree = parse_expression(oracles.random_expression(random.Random(seed), depth=3)[0])
    _assert_same_point(compile_expression(tree), _compile_on_pair_points(tree))


def test_compose_lifts_trails_into_a_trail_morphism():
    # a trail g lifts f trail-wise: by dots for a refinement f, by prefixes
    # for a trail f; id_str then reads the last dot of the lifted trail
    s2, s3 = ns.std_space("sigma_2"), ns.std_space("sigma_3")
    trail = Trail((Seq((1,)), Seq((1, 0)), Seq((1, 0, 1))))
    after_doubling = ns.compose(ns.id_str(s3), ns.doubling())
    assert after_doubling.kind == TRAIL and after_doubling.map(trail) == Seq((2, 0, 2))
    after_trail = ns.compose(ns.id_str(s2), ns.id_str(s2))
    assert after_trail.map(trail) == Seq((1, 0, 1))
    assert ns.check_morphism(after_doubling, 12).ok and ns.check_morphism(after_trail, 12).ok


def test_failing_check_lists_every_violation():
    parity = ns.Morphism(
        "refinement", ns.std_space("sigma_2"), ns.std_space("sigma_2"),
        lambda d: Seq((len(d.syms) % 2,)), lambda g: g, tag="parity",
    )
    report = ns.check_morphism(parity, 4)
    assert not report.ok
    assert str(report) == (
        "check parity depth=4: 11 violation(s)\n"
        "  law (i): f(<>)=<0> # f(<0>)=<1> but sources touch\n"
        "  law (i): f(<>)=<0> # f(<1>)=<1> but sources touch\n"
        "  law (i): f(<0>)=<1> # f(<>)=<0> but sources touch\n"
        "  law (ii): <0> <= <> but f-images <1> !<= <0>\n"
        "  law (i): f(<0>)=<1> # f(<0,0>)=<0> but sources touch\n"
        "  law (i): f(<1>)=<1> # f(<>)=<0> but sources touch\n"
        "  law (ii): <1> <= <> but f-images <1> !<= <0>\n"
        "  law (i): f(<0,0>)=<0> # f(<0>)=<1> but sources touch\n"
        "  law (ii): <0,0> <= <0> but f-images <0> !<= <1>\n"
        "  law (iii): point parity(canon(<>)): dot <1> does not refine previous <0>\n"
        "  law (iii): point parity(canon(<0>)): dot <0> does not refine previous <1>"
    )


def test_code_point_round_trip(baire):
    g = ns.identity(baire)
    Fc = ns.constant_code_morphism(g)
    code = ns.code_point_of(g)
    # the constant-code morphism reproduces g's code on every input
    d = Fc.map(Seq((0, 1, 0, 2)))
    assert d == code.dot(4)


def test_diagonalize_identity_code(baire):
    from conftest import spread_point

    g = ns.identity(baire)
    diag = ns.diagonalize(ns.constant_code_morphism(g))
    p = spread_point(baire, Seq((1, 0)))
    fp = ns.apply_point(diag.morphism, p)
    gp = ns.apply_point(g, p)
    assert isinstance(ns.point_apart(fp, gp, 25), ns.Apart)


def test_diagonalize_output_is_lawful(baire):
    # the flipped morphism is itself monotone along prefix extension
    g = ns.identity(baire)
    diag = ns.diagonalize(ns.constant_code_morphism(g))
    prev = None
    for k in range(0, 6):
        out = diag.morphism.map(Seq((0,) * k))
        if prev is not None and prev.syms:
            assert out.extends(prev)
        prev = out
