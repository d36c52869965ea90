"""Acceptance suite: one test per shipped-behavior criterion.

Each test prints one PASS line via the terminal-summary hook in conftest
(`criterion N: PASS/FAIL`).  Expected values are frozen from the
independent oracles in oracles.py.
"""

import itertools
import random
import time
from fractions import Fraction as F

import natspace as ns
from natspace.cli import eval_expression_bounds
from natspace.dots import DyadicInterval as D, Isolated, Seq, endpoints
from natspace.induction import Cover
from natspace.morphisms import REFINEMENT
from natspace.spaces import _STD_BUILDERS

import oracles
from conftest import random_bar, spread_point


# ---------------------------------------------------------------------------
# 1. Axiom suites on every shipped space at depth 200, under 10 seconds.
# ---------------------------------------------------------------------------


def test_criterion_01_axiom_suites():
    spaces = [ns.std_space(name) for name in sorted(_STD_BUILDERS)]
    spaces.append(ns.extend_with_isolated_point(ns.std_space("sigma_[0,1]")))
    spaces.append(
        ns.metric_to_spread(
            ns.rational_points_oracle(ns.unit_interval_dense_points)
        )
    )
    start = time.monotonic()
    for space in spaces:
        report = ns.validate_space(space, 200)
        assert report.ok, str(report)
    assert time.monotonic() - start < 10.0


# ---------------------------------------------------------------------------
# 2. Exact arithmetic: 500 fuzzed expressions at 30 bits.
# ---------------------------------------------------------------------------


def test_criterion_02_exact_arithmetic():
    rng = random.Random(53172)
    width_bound = F(1, 2**29)
    for _ in range(500):
        text, value = oracles.random_expression(rng, depth=3)
        lo, hi = eval_expression_bounds(text, 30)
        assert lo <= value <= hi, text
        assert hi - lo <= width_bound, text


# ---------------------------------------------------------------------------
# 3. Cantor function: the 1/2 plateau and the digit rules.
# ---------------------------------------------------------------------------


def test_criterion_03_cantor_function():
    cf = ns.cantor_function()

    # value at 1/3 (ternary 0.1) equals the classical oracle within 2^-20
    assert oracles.cantor_classical(F(1, 3)) == F(1, 2)
    img = cf.map(Seq((1,) + (0,) * 23))
    lo, hi = ns.seq_interval(img, 2)
    assert lo <= F(1, 2) <= hi
    assert hi - lo <= F(1, 2**20)

    # flat == 1/2 on every depth-<=6 ternary dot inside [1/3, 2/3]
    for depth in range(1, 7):
        for syms in itertools.product((0, 1, 2), repeat=depth):
            dlo, dhi = ns.seq_interval(Seq(syms), 3)
            if not (F(1, 3) <= dlo and dhi <= F(2, 3)):
                continue
            ilo, ihi = ns.seq_interval(cf.map(Seq(syms)), 2)
            assert ilo == F(1, 2) <= ihi
            assert oracles.cantor_classical(dlo) == F(1, 2)
            assert oracles.cantor_classical(dhi) == F(1, 2)

    # digit rules match the oracle exhaustively to depth 8,
    # and the image interval brackets the classical image
    for depth in range(1, 9):
        for syms in itertools.product((0, 1, 2), repeat=depth):
            img = cf.map(Seq(syms))
            assert img.syms == oracles.cantor_digit_rule(syms)
            if depth <= 5:
                dlo, dhi = ns.seq_interval(Seq(syms), 3)
                ilo, ihi = ns.seq_interval(img, 2)
                assert ilo <= oracles.cantor_classical(dlo)
                assert oracles.cantor_classical(dhi) <= ihi


# ---------------------------------------------------------------------------
# 4. Line calls: frozen verdicts and the sign oracle on synthetic streams.
# ---------------------------------------------------------------------------


def test_criterion_04_line_calls(sigmaR):
    # frozen examples at threshold width 2^-8
    assert ns.line_call(ns.rational_to_point(F(1, 100)), 8) == "IN"
    assert ns.line_call(ns.rational_to_point(F(-3, 100)), 8) == "OUT"
    halving = ns.point_from_prefix(sigmaR, [D(-1, m) for m in range(0, 10)])
    assert ns.line_call(halving, 8) == "LET"

    rng = random.Random(90125)
    eps = F(1, 2**8)
    for _ in range(200):
        num = rng.randint(-2000, 2000)
        den = rng.choice([1, 3, 7, 64, 512, 4096, 10000, 100000])
        q = F(num, den)
        verdict = ns.line_call(ns.rational_to_point(q), 8)
        forced = oracles.sign_call(q, 8)
        if forced is not None:
            assert verdict == forced, (q, verdict)
        elif verdict == "IN":
            assert q > 0
        elif verdict == "OUT":
            assert q < 0


# ---------------------------------------------------------------------------
# 5. Heine-Borel: random inductive covers of the unit fan.
# ---------------------------------------------------------------------------


def test_criterion_05_heine_borel(sigma01):
    rng = random.Random(40351)
    root = D(0, 1)
    for seed in range(50):
        bar = random_bar(sigma01, root, rng.randint(1, 6), seed=seed)
        flat = ns.flatten(bar)
        # up-closure noise: coarse ancestors and unrelated shallow dots
        noise = []
        for d in rng.sample(flat, min(4, len(flat))):
            preds = [p for p in sigma01.predecessors(d) if p != root]
            if preds:
                noise.append(rng.choice(preds))
        noise.extend(rng.sample(list(sigma01.level(2)), 3))
        dots = list(dict.fromkeys(list(flat) + noise))
        rng.shuffle(dots)
        cover = Cover(dots=tuple(dots), witness=bar)
        selected = ns.finite_subcover(sigma01, cover)
        segs = [endpoints(d) for d in selected]
        assert oracles.union_covers(segs, F(0), F(1)), seed


# ---------------------------------------------------------------------------
# 6. Bar finiteness and thinness.
# ---------------------------------------------------------------------------


def test_criterion_06_bar_finiteness(sigma01, cantor_space, t3):
    cases = [
        (sigma01, D(0, 1), 3, False),
        (cantor_space, Seq(()), 2, True),
        (t3, Seq(()), 3, True),
    ]
    for space, root, branching, tree in cases:
        for seed in range(15):
            depth = 1 + seed % 6
            bar = random_bar(space, root, depth, seed=seed)
            flat = ns.flatten(bar)
            assert len(flat) <= branching**depth
            if tree:
                for a, b in itertools.combinations(flat, 2):
                    assert not space.strictly_refines(a, b)
                    assert not space.strictly_refines(b, a)


# ---------------------------------------------------------------------------
# 7. Splitting lemma: certified minimal depths.
# ---------------------------------------------------------------------------


def _random_apart_sets(space, rng, level):
    dots = list(space.level(level))
    for _ in range(200):
        A = tuple(rng.sample(dots, rng.randint(1, 2)))
        B = tuple(rng.sample(dots, rng.randint(1, 2)))
        if all(space.apart(a, b) for a in A for b in B):
            return A, B
    raise AssertionError("no apart pair found")


def test_criterion_07_splitting(sigma01, cantor_space):
    # frozen case, cross-checked against the interval oracle
    A, B = (D(0, 3),), (D(6, 3),)
    assert ns.splitting_depth(sigma01, A, B) == 3
    assert oracles.splitting_depth_oracle(
        [(F(0), F(1, 4))], [(F(3, 4), F(1))]
    ) == 3
    assert not oracles.check_splitting(sigma01, A, B, 2)

    rng = random.Random(61803)
    for k in range(20):
        level = rng.choice([2, 3, 4])
        A, B = _random_apart_sets(sigma01, rng, level)
        N = ns.splitting_depth(sigma01, A, B)
        assert oracles.check_splitting(sigma01, A, B, N)
        start = max(sigma01.grade(d) for d in A + B)
        if N > start:
            assert not oracles.check_splitting(sigma01, A, B, N - 1)
        # interval oracle agreement on the searched range
        segsA = [endpoints(d) for d in A]
        segsB = [endpoints(d) for d in B]
        assert oracles.splitting_holds(segsA, segsB, N)
        if N > start:
            assert not oracles.splitting_holds(segsA, segsB, N - 1)

    for k in range(10):
        level = rng.choice([2, 3, 4])
        A, B = _random_apart_sets(cantor_space, rng, level)
        N = ns.splitting_depth(cantor_space, A, B)
        assert oracles.check_splitting(cantor_space, A, B, N)
        start = max(cantor_space.grade(d) for d in A + B)
        if N > start:
            assert not oracles.check_splitting(cantor_space, A, B, N - 1)


# ---------------------------------------------------------------------------
# 8. Urysohn separators and the metric.
# ---------------------------------------------------------------------------


def test_criterion_08_urysohn_metrization(ext01, metric_ev):
    # part A: separator postconditions, exhaustive over all apart
    # same-grade pairs at grades 2-3 and all dots to depth 5
    dots5 = [d for g in range(1, 6) for d in ext01.level(g)]
    for g in (2, 3):
        lev = [d for d in ext01.level(g) if not ext01.is_isolated(d)]
        for a, b in itertools.combinations(lev, 2):
            if not ext01.apart(a, b):
                continue
            f = ns.urysohn_fan(ext01, a, b, max_level_grade=9)
            for c in dots5:
                digits = f.digits(c).syms
                if ext01.refines(c, a):
                    assert all(x == 0 for x in digits), (a, b, c)
                elif ext01.refines(c, b):
                    assert all(x == 2 for x in digits), (a, b, c)
            for c in lev:  # same-grade middle dots map into [1/3, 2/3]
                if ext01.apart(c, a) and ext01.apart(c, b):
                    p = ns.canonical_point(ext01, c)
                    lo, hi = f.value_bounds(p, 1)
                    assert F(1, 3) <= lo and hi <= F(2, 3), (a, b, c)

    # part B: metric laws on sampled point pairs at precision 10
    points = []
    for n in range(7):
        points.append((n, ns.canonical_point(ext01, D(n, 3))))
        points.append((n, ns.canonical_point(ext01, D(4 * n + 1, 5))))

    evaluated = 0
    cache = {}
    for (na, x), (nb, y) in itertools.combinations(points, 2):
        d_xy = ns.evaluate_metric(metric_ev, x, y, 10)
        d_yx = ns.evaluate_metric(metric_ev, y, x, 10)
        evaluated += 2
        assert d_xy == d_yx  # symmetry, exactly
        if abs(na - nb) >= 3:  # bases apart: positivity is forced
            assert d_xy[0] > 0
            assert isinstance(ns.point_apart(x, y, 12), ns.Apart)
        cache[(id(x), id(y))] = d_xy
        cache[(id(y), id(x))] = d_xy

    # d(x,x) -> 0: zero lower bound always; upper bounds shrink with the
    # available separator digits (points hugging a grid boundary resolve
    # fewer ternary digits under the evaluator's depth cap)
    for _, x in points[:6]:
        lo10, hi10 = ns.evaluate_metric(metric_ev, x, x, 10)
        assert lo10 == 0 and hi10 <= F(2, 5)
        evaluated += 1
    for _, x in points[:2]:  # interior points meet the stated width contract
        lo10, hi10 = ns.evaluate_metric(metric_ev, x, x, 10)
        assert hi10 <= F(1, 8)
        lo4, hi4 = ns.evaluate_metric(metric_ev, x, x, 4)
        assert lo4 == 0 and hi4 <= F(1, 4)
        evaluated += 1

    # triangle inequality at precision 10 over cached triples
    triangles = 0
    for (na, x), (nb, y), (nc, z) in itertools.combinations(points, 3):
        d_xz = cache[(id(x), id(z))]
        d_xy = cache[(id(x), id(y))]
        d_yz = cache[(id(y), id(z))]
        assert d_xz[0] <= d_xy[1] + d_yz[1]
        triangles += 1
    assert triangles >= 300
    assert evaluated >= 100


# ---------------------------------------------------------------------------
# 9. Universality: Baire presentations and the Cantor surjection.
# ---------------------------------------------------------------------------


def test_criterion_09_universality(t3, t2, sigma01):
    for space in (t3, sigma01):
        enc = ns.baire_encode(space)
        sampled = 0
        i = 0
        while sampled < 25:
            d = enc.spread.enumerate_dot(i)
            i += 1
            if d is None:
                raise AssertionError("spread enumeration exhausted")
            x = spread_point(enc.spread, d)
            p = ns.apply_point(enc.forward, x)
            z = ns.apply_point(enc.inverse, p)
            assert not isinstance(ns.point_apart(x, z, 12), ns.Apart)
            sampled += 1

    for fann in (t2, sigma01):
        surj = ns.cantor_surjection(fann)
        for g in range(1, 9):
            for a in fann.level(g):
                w = ns.cantor_witness(fann, a)
                assert fann.refines(surj.map(w), a)


# ---------------------------------------------------------------------------
# 10. Diagonalization against three coded morphisms.
# ---------------------------------------------------------------------------


def test_criterion_10_diagonalization(baire):
    def shift_map(b):
        return Seq(b.syms[1:])

    def prepend_map(b):
        return Seq((0,) + b.syms)

    shift = ns.Morphism(
        REFINEMENT, baire, baire, shift_map, lambda g: g + 1, tag="shift"
    )
    prepend = ns.Morphism(
        REFINEMENT, baire, baire, prepend_map, lambda g: g, tag="prepend"
    )
    targets = [ns.identity(baire), shift, prepend]

    rng = random.Random(577215)
    prefixes = []
    while len(prefixes) < 50:
        syms = tuple(rng.randint(0, 2) for _ in range(rng.randint(0, 3)))
        prefixes.append(Seq(syms))

    for g in targets:
        diag = ns.diagonalize(ns.constant_code_morphism(g))
        for b in prefixes:
            p = spread_point(baire, b)
            fp = ns.apply_point(diag.morphism, p)
            gp = ns.apply_point(g, p)  # the morphism coded by F(p)
            assert isinstance(ns.point_apart(fp, gp, 25), ns.Apart), (g.tag, b)


# ---------------------------------------------------------------------------
# 11. Composition associativity and trail compression.
# ---------------------------------------------------------------------------


def test_criterion_11_composition_compression(sigmaR):
    unaries = {
        "neg": ns.arith("neg"),
        "abs": ns.arith("abs"),
        "scale": ns.arith("scalar", F(3, 2)),
        "id": ns.identity(sigmaR),
    }
    prefix = []
    i = 0
    while len(prefix) < 250:
        d = sigmaR.enumerate_dot(i)
        i += 1
        if sigmaR.grade(d) <= 6:
            prefix.append(d)

    triples = [
        ("neg", "abs", "scale"),
        ("abs", "scale", "neg"),
        ("scale", "id", "abs"),
        ("neg", "neg", "neg"),
    ]
    for nf, ng, nh in triples:
        f, g, h = unaries[nf], unaries[ng], unaries[nh]
        left = ns.compose(ns.compose(f, g), h)
        right = ns.compose(f, ns.compose(g, h))
        for d in prefix:
            assert left.map(d) == right.map(d), (nf, ng, nh, d)

    compressed = ns.compress_sigmaR(ns.id_str(sigmaR))
    rng = random.Random(141421)
    for _ in range(100):
        q = F(rng.randint(-4000, 4000), rng.randint(1, 64))
        p = ns.rational_to_point(q)
        img = ns.apply_point(compressed, p)
        assert not isinstance(ns.point_apart(p, img, 20), ns.Apart), q


# ---------------------------------------------------------------------------
# 12. Bar algebra invariants, exhaustive at depth <= 4.
# ---------------------------------------------------------------------------


def test_criterion_12_bar_algebra(sigma01):
    from natspace.induction import FiniteSet

    root = D(0, 1)
    uniforms = [ns.genetic_uniform(sigma01, root, n) for n in range(5)]
    randoms = [random_bar(sigma01, root, 4, seed=s) for s in (1, 2, 3)]
    bars = uniforms + randoms

    # min_bars: flatten in one operand refining the other; descends both ways
    for b0, b1 in itertools.combinations(bars, 2):
        m = ns.min_bars(b0, b1)
        f0, f1 = set(ns.flatten(b0)), set(ns.flatten(b1))
        for d in ns.flatten(m):
            assert d in f0 or d in f1
            other = f1 if d in f0 else f0
            assert any(sigma01.refines(d, c) for c in other)
        assert ns.descends(ns.flatten(b0), m)
        assert ns.descends(ns.flatten(b1), m)
    for n, m in itertools.product(range(5), repeat=2):
        got = ns.flatten(ns.min_bars(uniforms[n], uniforms[m]))
        assert set(got) == set(ns.flatten(uniforms[max(n, m)]))

    # reduce/expand round trips through every dot to grade 3
    deep = uniforms[4]
    for g in (1, 2, 3):
        for c in sigma01.level(g):
            red = ns.reduce_bar(deep, c)
            rflat = ns.flatten(red)
            allowed = set(ns.flatten(deep)) | {c}
            assert all(d in allowed for d in rflat), c
            assert all(sigma01.refines(d, c) for d in rflat), c

            exp = ns.expand_bar(red, root)
            eflat = ns.flatten(exp)
            segs = [endpoints(d) for d in eflat]
            assert oracles.union_covers(segs, F(0), F(1)), c
            for d in eflat:
                assert d in set(rflat) or sigma01.grade(d) == g, (c, d)

    # product bars
    prod = ns.product((sigma01, sigma01))
    for n, m in ((1, 1), (1, 2), (2, 2)):
        cover = ns.product_bar(uniforms[n], uniforms[m], prod)
        wflat = ns.flatten(cover.witness)
        assert all(cover.member(d) for d in wflat)
    assert ns.flatten(
        ns.product_bar(uniforms[1], uniforms[1], prod).witness
    ) == ns.flatten(ns.genetic_uniform(prod, prod.max_dot, 1))

    # formal derivations: the verifier accepts every emitted derivation
    for bar in bars:
        B = ns.flatten(bar)
        der = ns.formal_from_genetic(sigma01, root, B, bar)
        A_expr, B_expr = ns.verify_derivation(sigma01, der)
        assert A_expr == FiniteSet(frozenset({root}))
        assert B_expr == FiniteSet(frozenset(B))
    # a coarser target set also verifies when the bar descends from it
    B2 = ns.flatten(uniforms[2])
    der = ns.formal_from_genetic(sigma01, root, B2, uniforms[4])
    A_expr, B_expr = ns.verify_derivation(sigma01, der)
    assert B_expr == FiniteSet(frozenset(B2))
