"""Closed-form rank/unrank hooks: each hooked family against the generator
that first stated its frozen order (tests/oracles.py), canonical points
against the scan that defines them, and index_of on dots of other spaces."""

import itertools
import random

import pytest

import natspace as ns
from natspace.dots import MAX, DyadicInterval as D, Isolated, NaryInterval, Seq
from natspace.spaces import _STD_BUILDERS

import oracles

GRIDS = {
    "sigma_R": (2, 3, True),
    "sigma_[0,1]": (2, 3, False),
    "R_bin": (2, 2, True),
    "R_ter": (3, 3, True),
    "R_dec": (10, 10, True),
    "[0,1]_bin": (2, 2, False),
    "[0,1]_ter": (3, 3, False),
}
STRINGS = {"cantor": 2, "sigma_2": 2, "sigma_3": 3, "sigma_2_real": 2, "sigma_3_real": 3}
CHAINS = {"T2": 2, "T3": 3}


def _reference(name):
    """The frozen order of a catalogue space, as package dots."""
    if name in GRIDS:
        base, k, line = GRIDS[name]
        dot = D if k > base else (lambda n, m: NaryInterval(base, n, m))
        return (MAX if x is None else dot(*x) for x in oracles.grid_order(base, k, line))
    if name in STRINGS:
        return map(Seq, oracles.strings_order(STRINGS[name]))
    if name in CHAINS:
        return map(Seq, oracles.chains_order(CHAINS[name]))
    assert name == "baire"
    return map(Seq, oracles.baire_order())


def _extended_reference(name):
    """The interleaved order of name^+: inner dot r at 2r, iso(k) at 2k-1."""
    inner = _reference(name)
    for k in itertools.count(1):
        yield next(inner)
        yield Isolated(k)


HOOKED = {name: (lambda name=name: _STD_BUILDERS[name](), lambda name=name: _reference(name))
          for name in [*GRIDS, *STRINGS, *CHAINS, "baire"]}
for _inner in ("sigma_[0,1]", "cantor", "T3"):
    HOOKED[_inner + "^+"] = (
        lambda n=_inner: ns.extend_with_isolated_point(_STD_BUILDERS[n]()),
        lambda n=_inner: _extended_reference(n),
    )
HOOKED["spread(T3)"] = (lambda: ns.baire_encode(_STD_BUILDERS["T3"]()).spread,
                        lambda: _reference("baire"))
assert set(_STD_BUILDERS) - {"R_rat"} <= set(HOOKED)


@pytest.mark.parametrize("name", sorted(HOOKED))
def test_hooks_match_the_reference_order(name):
    build, reference = HOOKED[name]
    space = build()
    dots = list(itertools.islice(reference(), 5000))
    assert [space.enumerate_dot(i) for i in range(len(dots))] == dots
    assert [space.rank(d) for d in dots] == list(range(len(dots)))
    assert [space.index_of(d) for d in dots] == list(range(len(dots)))


@pytest.mark.parametrize("name", ["sigma_[0,1]", "sigma_R", "sigma_3"])
def test_hooks_far_out(name):
    space = _STD_BUILDERS[name]()
    far = list(itertools.islice(_reference(name), 200_000, 203_000))
    assert [space.enumerate_dot(200_000 + i) for i in range(len(far))] == far
    rng = random.Random(7)
    for i in [rng.randrange(200_000, 10**12) for _ in range(500)]:
        assert space.rank(space.unrank(i)) == i


# Start dots whose first four canonical steps stay at enumeration indices the
# reference scan reaches quickly: on the n-ary lines of base 3 and 10, a step
# from (n, m) goes to about (base*n, m+1), whose diagonal index grows like
# base^2 per step unless n is 0 or -1.
CANONICAL_STARTS = {
    name: (lambda space: [space.enumerate_dot(i) for i in range(1, 201)])
    for name in ("sigma_R", "R_bin", "sigma_[0,1]", "[0,1]_bin", "[0,1]_ter", "cantor",
                 "sigma_3", "sigma_2_real", "T2", "T3", "sigma_[0,1]^+", "T3^+")
}
for _name in ("R_ter", "R_dec"):
    CANONICAL_STARTS[_name] = lambda space: [
        NaryInterval(space.enumerate_dot(1).base, n, m) for m in range(100) for n in (0, -1)
    ]


@pytest.mark.parametrize("name", sorted(CANONICAL_STARTS))
def test_canonical_point_matches_the_scan(name):
    build, reference = HOOKED[name]
    space = build()
    starts = CANONICAL_STARTS[name](space)
    assert len(starts) == 200
    expected = [ns.canonical_point(space, a).prefix(5)[1:] for a in starts]
    deepest = max(space.index_of(d) for steps in expected for d in steps)
    prefix = list(itertools.islice(reference(), deepest + 1))
    for a, steps in zip(starts, expected):
        assert oracles.scan_canonical_steps(prefix, space.strictly_refines, a, 4) == list(steps)


@pytest.mark.parametrize("name", sorted(set(_STD_BUILDERS) - {"R_rat", "baire"}))
def test_canonical_points_reach_grade_200(name):
    # the hooked step reads the least-rank successor, however large its rank
    space = _STD_BUILDERS[name]()
    for i in range(10):
        p = ns.canonical_point(space, space.enumerate_dot(i))
        k = 0
        while space.grade(p.dot(k)) < 200:
            k += 1
            assert p.dot(k - 1) in space.predecessors(p.dot(k))
            assert space.grade(p.dot(k)) == space.grade(p.dot(k - 1)) + 1


@pytest.mark.parametrize(
    "name, dot",
    [
        ("sigma_[0,1]", Isolated(1)),
        ("sigma_[0,1]", D(7, 2)),
        ("sigma_[0,1]", D(0, 0)),  # below the unit interval's first exponent
        ("T3", Seq((0, 1))),
        ("sigma_R", NaryInterval(2, 0, 0)),
        ("R_ter", NaryInterval(2, 0, 1)),  # another base: ranked, then rejected
    ],
)
def test_index_of_rejects_dots_of_other_spaces(name, dot):
    space = _STD_BUILDERS[name]()
    with pytest.raises(ns.SpaceDefect, match="is not a dot of the space"):
        space.index_of(dot)


def test_space_takes_a_generator_or_both_hooks():
    sigma01 = _STD_BUILDERS["sigma_[0,1]"]()
    args = ("x", sigma01.apart, sigma01.refines, sigma01.max_dot)
    for order in ({}, {"rank": sigma01.rank},
                  {"enum_factory": lambda: iter(()), "rank": sigma01.rank,
                   "unrank": sigma01.unrank}):
        with pytest.raises(ValueError):
            ns.Space(*args, **order)


def test_extension_of_a_space_without_hooks_interleaves_its_generator():
    sigma_r = _STD_BUILDERS["sigma_R"]()
    prod = ns.product((sigma_r, sigma_r))
    ext = ns.extend_with_isolated_point(prod)
    assert prod.rank is None and ext.rank is None
    assert [ext.enumerate_dot(i) for i in range(6)] == [
        prod.enumerate_dot(0), Isolated(1), prod.enumerate_dot(1), Isolated(2),
        prod.enumerate_dot(2), Isolated(3),
    ]
    assert ext.index_of(Isolated(3)) == 5


def test_index_of_reads_the_hook_without_a_budget(monkeypatch):
    cantor = _STD_BUILDERS["cantor"]()
    monkeypatch.setattr(ns.spaces, "SCAN_BUDGET", 5)
    assert cantor.index_of(Seq((1, 1, 1))) == 14
