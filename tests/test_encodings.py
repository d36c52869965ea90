"""Trail spaces, ungluing, Baire presentations, Cantor universality."""

import dataclasses
import functools
import gc
import hashlib
import itertools
import time
import weakref
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

import natspace as ns
from natspace import encodings, spaces
from natspace.dots import DyadicInterval as D, Seq, Trail, endpoints

import oracles
from conftest import spread_point


def _prefix_digest(space, count):
    h = hashlib.sha256()
    for i in range(count):
        h.update((repr(space.enumerate_dot(i)) + "\n").encode())
    return h.hexdigest()


# the frozen trail-tree orders: baire_enum over index strings
@pytest.mark.parametrize(
    "build, name, count, digest",
    [
        ("unglue", "sigma_[0,1]", 200,
         "e3ba61c0b550fd952a8a74edacfc6f45abf23d13a955ca7cb79c7f15007303db"),
        ("unglue", "sigma_R", 200,
         "538a9ed94092529da40a020ca8ef1ea37b2d34b9913a27cb0c791110cc811a24"),
        ("unglue", "T3", 20,
         "ccd1d098b924aa5f641a05099fb9f53a91a969fa215ef93a3890d0a08c794ea6"),
        ("unglue", "T2", 12,
         "ba641d12916605601eb0b895b8578eea4b89056322596a61da056a7d05140ed9"),
        ("trail_space", "sigma_[0,1]", 13,
         "513e235c709f1a8acbfc10971291e81abc727fdfa33077792d63e53f3ab6013a"),
        ("trail_space", "cantor", 13,
         "d25203a0354e2844246f1ca3e7f33da4a2893bef19c193c8b2950459ef21b9d8"),
    ],
)
def test_trail_tree_prefix_digests(build, name, count, digest):
    space = getattr(ns, build)(ns.std_space(name))
    assert _prefix_digest(space, count) == digest


def _unglue_steps(space):
    """extend for the reference order of unglue(space): the successors of
    the last dot, successor i at index i (kept per last dot and cap, since
    the reference walks each prefix again for every length)."""

    @functools.cache
    def steps(last, cap):
        return tuple(enumerate(space.successors(last).prefix(cap)[:cap]))

    return lambda t, cap: steps(t[-1] if t else space.max_dot, cap)


def _trail_steps(space):
    """extend for the reference order of trail_space(space): index i names
    the dot enumerated at 1 + i, a step when it strictly refines the last."""

    def extend(t, cap):
        for i in range(cap):
            d = space.enumerate_dot(1 + i)
            if not t or space.strictly_refines(d, t[-1]):
                yield i, d

    return extend


@pytest.mark.parametrize(
    "build, steps, name, count",
    [
        ("unglue", _unglue_steps, "T2", 300),
        ("unglue", _unglue_steps, "T3", 300),
        ("unglue", _unglue_steps, "sigma_R", 300),
        ("unglue", _unglue_steps, "baire", 300),
        ("trail_space", _trail_steps, "sigma_[0,1]", 100),
    ],
)
def test_trail_tree_matches_the_per_length_reference(build, steps, name, count):
    base = ns.std_space(name)
    space = getattr(ns, build)(base)
    reference = itertools.islice(oracles.trail_tree_order(steps(base)), count)
    assert [space.enumerate_dot(i) for i in range(count)] == [Trail(t) for t in reference]


def test_unglue_chain_enumerates_in_polynomial_time(t2):
    # one walk down the lengths per weight class, pruned to the named trails
    start = time.perf_counter()
    ns.unglue(t2).enumerate_dot(199)
    assert time.perf_counter() - start < 1.0


def test_trail_successor_scan_has_a_budget(monkeypatch):
    monkeypatch.setattr(spaces, "SCAN_BUDGET", 5)
    sigma01 = spaces._STD_BUILDERS["sigma_[0,1]"]()  # its short scan stays on it
    more = ns.trail_space(sigma01).successors(Trail((D(0, 3),))).more
    assert more(0) == Trail((D(0, 3), D(0, 4)))  # the least-rank successor
    with pytest.raises(ns.SpaceDefect, match="first 5 enumerated dots"):
        more(1)


@pytest.mark.parametrize("build", [ns.trail_space, ns.unglue])
def test_trail_trees_grade_by_length_and_drop_the_last_dot(build, sigmaR):
    space = build(sigmaR)
    chain = (D(0, 0), D(1, 1), D(2, 2))
    for n in range(len(chain) + 1):
        t = Trail(chain[:n])
        assert space.grade(t) == n
        assert space.predecessors(t) == ((Trail(chain[:n - 1]),) if n else ())


def test_trail_space_axioms(sigma01):
    # trail enumeration is combinatorial; a shallow prefix suffices here
    assert ns.validate_space(ns.trail_space(sigma01), 12).ok


def test_unglue_axioms(sigmaR):
    assert ns.validate_space(ns.unglue(sigmaR), 60).ok


def test_unglue_projection_morphism(sigmaR):
    proj = ns.unglue_projection(sigmaR)
    assert ns.check_morphism(proj, 40).ok


def test_id_str_is_a_trail_morphism(sigmaR):
    f = ns.id_str(sigmaR)
    assert ns.check_morphism(f, 40).ok


def test_cover_trails_end_at_target(sigma01):
    for a, copies in ((D(0, 2), 1), (D(1, 3), 1), (D(2, 3), 2)):
        trails = ns.cover_trails(sigma01, a)
        assert len(trails) == copies
        for tr in trails:
            assert tr.items[-1] == a


def _listed(space, a):
    return oracles.cover_trails_listed(space.predecessors, space.max_dot, a)


def test_cover_trails_match_the_recursive_listing(sigmaR, sigma01):
    dots = [D(n, m) for m in range(13) for n in range(-9, 10)] + [sigmaR.max_dot]
    for a in dots:
        trails = ns.cover_trails(sigmaR, a)
        assert [t.items for t in trails] == _listed(sigmaR, a), a
        assert len(trails) == len(_listed(sigmaR, a)), a
    for g in range(9):
        for a in sigma01.level(g):
            trails = ns.cover_trails(sigma01, a)
            assert [t.items for t in trails] == _listed(sigma01, a), a
            assert len(trails) == len(_listed(sigma01, a)), a


def _walks(space, dots):
    """Each dot's unglued copies and their count, walked on one space in
    the given order."""
    return [([t.items for t in ns.cover_trails(space, a)], len(ns.cover_trails(space, a)))
            for a in dots]


@pytest.mark.parametrize("name", ["sigma_R", "sigma_[0,1]"])
def test_cover_trails_share_one_predecessor_map_per_space(name):
    space = spaces._STD_BUILDERS[name]()  # its map starts empty
    if name == "sigma_R":
        dots = [D(n, m) for m in range(13) for n in range(-9, 10)] + [space.max_dot]
    else:
        dots = [a for g in range(9) for a in space.level(g)]
    listed = [(_listed(space, a), len(_listed(space, a))) for a in dots]
    assert _walks(space, dots) == listed
    assert space.derived(encodings.CoverTrails, dict)  # the space's map, filled
    # a second pass in the other order reads the map the first pass filled
    assert _walks(space, dots[::-1]) == listed[::-1]


class _Map(dict):
    """A dict that a weak reference can watch."""


def test_a_dropped_space_takes_its_predecessor_map_along():
    space = spaces._STD_BUILDERS["sigma_R"]()
    up = space.derived(encodings.CoverTrails, _Map)  # the map the walk below fills
    assert len(ns.cover_trails(space, D(5, 9))) == len(_listed(space, D(5, 9)))
    assert up
    gone, gone_map = weakref.ref(space), weakref.ref(up)
    del space, up
    gc.collect()
    assert gone() is None
    assert gone_map() is None


def _unmarked(f):
    return dataclasses.replace(f, last_dot=False)


def _left_half_dots(grades):
    # every sigma_R dot of grade 1 .. grades whose left end lies in [0, 1/2]
    return [D(n, m) for m in range(grades) for n in range(2 ** m // 2 + 1)]


def test_id_str_compresses_through_one_copy(sigmaR):
    f = ns.id_str(sigmaR)
    assert f.last_dot
    marked, unmarked = ns.compress_sigmaR(f), ns.compress_sigmaR(_unmarked(f))
    for a in _left_half_dots(12):
        assert marked.map(a) == unmarked.map(a), a


def test_refinement_after_id_str_stays_last_dot(sigmaR):
    f = ns.compose(ns.arith("neg"), ns.id_str(sigmaR))
    assert f.last_dot
    marked, unmarked = ns.compress_sigmaR(f), ns.compress_sigmaR(_unmarked(f))
    for a in _left_half_dots(10):
        assert marked.map(a) == unmarked.map(a), a
    # a trail morphism after id_str lifts through strict_trail_of: unmarked
    assert not ns.compose(ns.id_str(sigmaR), ns.id_str(sigmaR)).last_dot


def test_unmarked_compression_has_a_budget(sigmaR):
    a = D(2**25 // 3, 25)  # grade 26, near 1/3
    assert len(ns.cover_trails(sigmaR, a)) > encodings.COVER_TRAIL_BUDGET
    g = ns.compress_sigmaR(_unmarked(ns.id_str(sigmaR)))
    start = time.perf_counter()
    with pytest.raises(ns.MorphismDefect) as err:
        g.map(a)
    assert time.perf_counter() - start < 1.0
    for part in ("compress_sigmaR", repr(a), str(encodings.COVER_TRAIL_BUDGET)):
        assert part in str(err.value)


def test_compress_sigmaR_brackets_rationals(sigmaR):
    g = ns.compress_sigmaR(ns.id_str(sigmaR))
    for q in (F(0), F(1, 3), F(-7, 5), F(13, 8)):
        p = ns.rational_to_point(q)
        img = ns.apply_point(g, p)
        lo, hi = endpoints(ns.approximate(img, 10))
        assert lo <= q <= hi


def test_compress_sigmaR_carries_dynamic_liveness(sigmaR):
    f = dataclasses.replace(ns.id_str(sigmaR), dynamic_liveness=lambda p: lambda g: g + 5)
    g = ns.compress_sigmaR(f)
    p = ns.rational_to_point(F(1, 3))
    assert g.dynamic_liveness(p)(3) == 10  # f's liveness two grades deeper
    lo, hi = endpoints(ns.approximate(ns.apply_point(g, p), 10))
    assert lo <= F(1, 3) <= hi


def test_baire_encode_round_trip_t3(t3):
    enc = ns.baire_encode(t3)
    for syms in ((0,), (1, 1), (2, 2, 2), ()):
        # points of the presenting spread, pushed forward and pulled back
        b = Seq(syms)
        x = spread_point(enc.spread, b)
        p = ns.apply_point(enc.forward, x)
        z = ns.apply_point(enc.inverse, p)
        assert not isinstance(ns.point_apart(x, z, 12), ns.Apart)


def _chain_trail(k):
    """A strict trail of the chain space T<k>: one digit's dots at increasing
    lengths, the root (length 0) maybe first."""
    return st.tuples(
        st.integers(0, k - 1), st.sets(st.integers(0, 10), max_size=6)
    ).map(lambda xl: Trail(tuple(Seq((xl[0],) * n) for n in sorted(xl[1]))))


@st.composite
def _trail_calls(draw, k):
    """Calls of h_inverse_trail in a random order: prefixes of a few trails,
    each maybe walked growing first, then any prefix again (repeated,
    shortened or of an unrelated trail)."""
    trails = draw(st.lists(_chain_trail(k), min_size=1, max_size=3))
    prefixes = [Trail(t.items[:n]) for t in trails for n in range(len(t.items) + 1)]
    calls = []
    for t in trails:
        if draw(st.booleans()):
            calls += [Trail(t.items[:n]) for n in range(len(t.items) + 1)]
    return calls + draw(st.lists(st.sampled_from(prefixes), min_size=1, max_size=12))


@pytest.mark.parametrize("k", [2, 3])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_h_inverse_trail_matches_the_from_scratch_loop(k, data):
    space = ns.std_space(f"T{k}")
    enc = ns.BaireEncoding(space)  # fresh, as is the oracle's: neither reads the shared caches
    for t in data.draw(_trail_calls(k)):
        expected = oracles.h_inverse_trail_reference(ns.BaireEncoding(space), t)
        assert enc.h_inverse_trail(t).syms == expected, t


@pytest.mark.parametrize("k", [2, 3])
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_level_index_matches_the_linear_scan(k, data):
    space = ns.std_space(f"T{k}")
    enc = ns.BaireEncoding(space)  # fresh: its levels start undrawn
    tops = [space.max_dot] + [Seq((x,) * n) for x in range(k) for n in (1, 2)]
    a = data.draw(st.sampled_from(tops))
    n = len(a.syms) + data.draw(st.integers(1, 2))
    members = [ns.BaireEncoding(space).level_member(n, a, j) for j in range(6)]
    for j in data.draw(st.lists(st.integers(0, 5), min_size=1, max_size=8)):  # drawn or not yet
        assert enc.level_index(n, a, members[j]) == j == oracles.level_index_reference(
            ns.BaireEncoding(space), n, a, members[j])


def test_an_exhausted_level_index_keeps_its_defect_text(monkeypatch):
    t3 = spaces._STD_BUILDERS["T3"]()  # no level of it drawn under the full budget
    monkeypatch.setattr(encodings, "LEVEL_SCAN_BUDGET", 20)
    not_in_level = Seq((0,) * 30)  # past the scan
    errors = []
    for index in (ns.baire_encode(t3).level_index,
                  functools.partial(oracles.level_index_reference, ns.BaireEncoding(t3))):
        with pytest.raises(ns.EncodingDefect) as err:
            index(1, t3.max_dot, not_in_level)
        errors.append(str(err.value))
    assert errors[0] == errors[1] and "needed member" in errors[0]


def test_an_inverse_call_that_raises_caches_nothing(monkeypatch):
    # <0>*12 is the 9th member (index 8) of level 3 under <0,0,0,0>, enumerated
    # at 34: past a scan budget of 30, while levels 1 and 2 stay inside it
    t3 = spaces._STD_BUILDERS["T3"]()  # no level of it drawn under the full budget
    t = Trail((Seq((0,) * 3), Seq((0,) * 4), Seq((0,) * 12)))
    prefix = Trail(t.items[:2])
    enc = ns.baire_encode(t3)
    monkeypatch.setattr(encodings, "LEVEL_SCAN_BUDGET", 30)
    texts = []
    for _ in range(2):  # a partial state cached by the first call would answer the second
        with pytest.raises(ns.EncodingDefect) as err:
            enc.h_inverse_trail(t)
        texts.append(str(err.value))
    assert texts[0] == texts[1] and "level 3 under <0,0,0,0>" in texts[0]
    monkeypatch.undo()  # the budget back: the prefix's levels are whole
    # fresh encodings for the whole trail: enc's level 3 was scanned to its end under 30
    assert enc.h_inverse_trail(prefix).syms == oracles.h_inverse_trail_reference(
        ns.BaireEncoding(t3), prefix) == (6, 1)
    assert ns.BaireEncoding(t3).h_inverse_trail(t).syms == oracles.h_inverse_trail_reference(
        ns.BaireEncoding(t3), t) == (6, 1, 8)


def test_baire_encode_returns_the_one_encoding_of_its_space(t3):
    assert ns.baire_encode(t3) is ns.baire_encode(t3)
    assert ns.BaireEncoding(t3) is not ns.baire_encode(t3)
    assert ns.baire_encode(spaces._STD_BUILDERS["T3"]()) is not ns.baire_encode(t3)


def test_a_dropped_space_takes_its_baire_encoding_along():
    space = spaces._STD_BUILDERS["T3"]()
    enc = ns.baire_encode(space)
    enc.h(Seq((1, 0)))  # fills its level and forward caches
    gone = weakref.ref(enc)
    del space, enc
    gc.collect()
    assert gone() is None


def test_baire_encode_forward_is_surjective_on_dots(t3):
    enc = ns.baire_encode(t3)
    seen = set()
    for i in range(60):
        d = enc.spread.enumerate_dot(i)
        if d is None:
            break
        seen.add(enc.forward.map(d))
    for g in range(1, 4):
        for d in t3.level(g):
            assert any(t3.refines(s, d) or s == d for s in seen)


def test_cantor_surjection_witnesses(sigma01, cantor_space):
    surj = ns.cantor_surjection(sigma01)
    assert surj.source.name == "cantor"
    for g in range(1, 5):
        for a in sigma01.level(g):
            w = ns.cantor_witness(sigma01, a)
            assert sigma01.refines(surj.map(w), a)


def test_cantor_witnesses_frozen():
    h = hashlib.sha256()
    for name, grades in (("sigma_[0,1]", 7), ("T3", 5), ("T2", 7)):
        space = ns.std_space(name)
        for g in range(1, grades):
            for a in space.level(g):
                h.update(f"{a!r} {ns.cantor_witness(space, a)!r}\n".encode())
    assert h.hexdigest() == "44342f420fba225f27f5313ddacd33ba247d6a0ab171f48c6160a03ebd326688"


def test_cantor_surjection_morphism_laws(sigma01):
    assert ns.check_morphism(ns.cantor_surjection(sigma01), 30).ok


@pytest.mark.parametrize("name", ["sigma_[0,1]", "T3", "cantor"])
def test_cantor_surjection_liveness(name):
    # liveness(g) bits reach grade g on every string, and one bit fewer
    # falls short on some string
    fann = ns.std_space(name)
    f = ns.cantor_surjection(fann)

    def least_grade(bits: int) -> int:
        return min(fann.grade(f.map(Seq(b))) for b in itertools.product((0, 1), repeat=bits))

    for g in range(1, 5):
        assert least_grade(f.liveness(g)) >= g > least_grade(f.liveness(g) - 1)


def test_block_size_is_ceil_log2():
    from natspace.encodings import _block_size

    assert _block_size(1) == 1
    for b in range(2, 200_001):
        k = _block_size(b)  # the least k >= 1 with 2^k >= b
        assert 2**k >= b and (k == 1 or 2 ** (k - 1) < b)
