"""Genetic bars and their algebra: uniform bars, descent, finite subcovers,
reduction/expansion/min, separation bars (split until each dot chooses
between two apart dots), preimage bars under the shipped morphism
families, product bars, and the translation of a genetic witness into a
five-rule formal derivation (with an independent rule verifier).

A genetic bar is a derivation tree, never a bare set: Leaf(a) is the bar
{a} on the cone under a, Split(a, .) recurses on every immediate successor.
Splits materialize children lazily, so bars over infinitely branching cones
stay decidable (membership by derivation walk) even when they cannot be
flattened.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from .dots import Dot, MaxDot, TupleDot, dot_from_json, dot_to_json
from .morphisms import Morphism
from .points import ancestors_at
from .spaces import Space, SpaceDefect


DERIVATION_SAMPLES = 6  # members verify_derivation draws from an infinite set


class BarDefect(Exception):
    pass


# ---------------------------------------------------------------------------
# Bars
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Leaf:
    dot: Dot


class Split:
    """An inner derivation node: one child per immediate successor, built on
    demand and memoized."""

    __slots__ = ("dot", "_child_fn", "_memo")

    def __init__(self, dot: Dot, child_fn: Callable[[Dot], "BarNode"]):
        self.dot = dot
        self._child_fn = child_fn
        self._memo: Dict[Dot, BarNode] = {}

    def child(self, s: Dot) -> "BarNode":
        if s not in self._memo:
            self._memo[s] = self._child_fn(s)
        return self._memo[s]

    def __repr__(self) -> str:
        return f"Split({self.dot!r})"


BarNode = Union[Leaf, Split]


@dataclass
class GeneticBar:
    space: Space
    node: BarNode

    @property
    def root(self) -> Dot:
        return self.node.dot


@dataclass
class Cover:
    """A decidable dot set, optionally with the genetic bar it descends from.

    Finite covers carry their dots; predicate covers carry a membership test.
    """

    dots: Optional[Tuple[Dot, ...]] = None
    member: Optional[Callable[[Dot], bool]] = None
    witness: Optional[GeneticBar] = None


def _finite_successors(space: Space, a: Dot) -> Tuple[Dot, ...]:
    succ = space.successors(a)
    if succ.unbounded:
        raise BarDefect(
            f"{space.name}: cone under {a!r} branches infinitely; "
            f"this operation needs a fann (or a finite cone)"
        )
    return succ.dots


def _successors_above(space: Space, r: Dot, d: Dot) -> List[Dot]:
    """The successors of r that d refines (d strictly refines r); under an
    infinitely branching r they are found among d's own ancestors."""
    succ = space.successors(r)
    if succ.unbounded:
        return [s for s in ancestors_at(space, d, space.grade(r) + 1)
                if space.refines(s, r)]
    return [s for s in succ.dots if space.refines(d, s)]


def flatten(bar: GeneticBar) -> Tuple[Dot, ...]:
    """All leaf dots of the derivation (finite exactly when every visited
    cone branches finitely)."""
    out: Dict[Dot, None] = {}  # an ordered set

    def walk(node: BarNode) -> None:
        if isinstance(node, Leaf):
            out[node.dot] = None
            return
        for s in _finite_successors(bar.space, node.dot):
            walk(node.child(s))

    walk(bar.node)
    return tuple(out)


def bar_contains(bar: GeneticBar, d: Dot) -> bool:
    """Leaf membership decided by a derivation walk (cost bounded by the
    grade difference, no flattening)."""
    sp = bar.space

    def walk(node: BarNode) -> bool:
        if isinstance(node, Leaf):
            return d == node.dot
        if not sp.strictly_refines(d, node.dot):
            return False
        return any(walk(node.child(s)) for s in _successors_above(sp, node.dot, d))

    return walk(bar.node)


def genetic_uniform(space: Space, a: Dot, n: int) -> GeneticBar:
    """The full-split bar of depth n under a: flatten is every refinement of
    a that is n grades deeper."""
    if not space.graded:
        raise SpaceDefect(f"{space.name}: bars need spraid structure")
    if n < 0:
        raise ValueError("depth must be >= 0")

    def rec(d: Dot, k: int) -> BarNode:
        if k == 0:
            return Leaf(d)
        return Split(d, lambda s, k=k: rec(s, k - 1))

    return GeneticBar(space, rec(a, n))


def bar_depth(bar: GeneticBar) -> int:
    """The maximal leaf depth (finite cones only)."""

    def walk(node: BarNode) -> int:
        if isinstance(node, Leaf):
            return 0
        return 1 + max(
            walk(node.child(s)) for s in _finite_successors(bar.space, node.dot)
        )

    return walk(bar.node)


def descends(C: Sequence[Dot], G: GeneticBar) -> bool:
    """True iff every flattened bar dot refines some element of C."""
    sp = G.space
    return all(any(sp.refines(d, c) for c in C) for d in flatten(G))


def finite_subcover(fann: Space, cover: Cover) -> Tuple[Dot, ...]:
    """Heine-Borel selection: the sub-list of cover dots actually used by the
    witness bar (each flattened witness dot refines its selected element)."""
    if cover.witness is None or cover.dots is None:
        raise BarDefect("finite_subcover needs a finite cover with a bar witness")
    if not fann.finitely_branching:
        raise BarDefect(f"{fann.name}: finite subcovers need a fann")
    chosen: Dict[Dot, None] = {}  # an ordered set
    for d in flatten(cover.witness):
        hit = next((c for c in cover.dots if fann.refines(d, c)), None)
        if hit is None:
            raise BarDefect(
                f"invalid witness: bar dot {d!r} refines no cover element"
            )
        chosen[hit] = None
    return tuple(chosen)


# ---------------------------------------------------------------------------
# Bar algebra: reduce, expand, min
# ---------------------------------------------------------------------------


def min_bars(b0: GeneticBar, b1: GeneticBar) -> GeneticBar:
    """The derivation-structural minimum (the common refinement): a Leaf
    yields to the other bar's subtree; two Splits recurse child-wise.  Every
    result dot belongs to one operand and refines a dot of the other."""
    if b0.root != b1.root:
        raise BarDefect(f"min_bars: root mismatch {b0.root!r} vs {b1.root!r}")

    def rec(n0: BarNode, n1: BarNode) -> BarNode:
        if isinstance(n0, Leaf):
            return n1
        if isinstance(n1, Leaf):
            return n0
        return Split(n0.dot, lambda s: rec(n0.child(s), n1.child(s)))

    return GeneticBar(b0.space, rec(b0.node, b1.node))


def reduce_bar(bar: GeneticBar, c: Dot) -> GeneticBar:
    """The bar restricted to the cone under c (contained in the original's
    up-closure together with c itself)."""
    sp = bar.space
    if not sp.refines(c, bar.root):
        raise BarDefect(f"reduce_bar: {c!r} is not under the root {bar.root!r}")

    def rec(node: BarNode, r: Dot) -> BarNode:
        if c == r:
            return node
        if isinstance(node, Leaf):
            return Leaf(c)
        cands = _successors_above(sp, r, c)
        if not cands:
            raise BarDefect(f"reduce_bar: no successor of {r!r} above {c!r}")
        parts = [GeneticBar(sp, rec(node.child(s), s)) for s in cands]
        out = parts[0]
        for p in parts[1:]:
            out = min_bars(out, p)
        return out.node

    return GeneticBar(sp, rec(bar.node, bar.root))


def expand_bar(bar: GeneticBar, a: Dot) -> GeneticBar:
    """The bar pushed up to the cone under a: full splits down to the grade
    of the original root, the original derivation at the root itself, leaves
    on the sibling branches."""
    sp = bar.space
    c = bar.root
    if not sp.refines(c, a):
        raise BarDefect(f"expand_bar: root {c!r} is not under {a!r}")
    gc = sp.grade(c)

    def rec(r: Dot) -> BarNode:
        if r == c:
            return bar.node
        if sp.grade(r) >= gc:
            return Leaf(r)
        return Split(r, rec)

    return GeneticBar(sp, rec(a))


# ---------------------------------------------------------------------------
# Separation bars
# ---------------------------------------------------------------------------


def separation_bar(space: Space, a: Dot, b: Dot) -> GeneticBar:
    """The split-until-chosen bar under the maximal dot: a dot that chooses
    between a and b (it is apart from a or apart from b) is a leaf, every
    other dot splits.  Every point chooses, since a and b are apart, and it
    chooses through one of its own dots; so every branch reaches a leaf,
    and by bar induction the choosing dots form a bar.  The rule asks the
    space for its apartness and successors only."""
    if not space.graded:
        raise SpaceDefect(f"{space.name}: bars need spraid structure")
    if not space.apart(a, b):
        raise BarDefect(f"{space.name}: {a!r} and {b!r} are not apart")

    def rec(d: Dot) -> BarNode:
        if space.apart(d, a) or space.apart(d, b):
            return Leaf(d)
        return Split(d, rec)

    return GeneticBar(space, rec(space.max_dot))


# ---------------------------------------------------------------------------
# Preimage bars (a registry per morphism family, never a search)
# ---------------------------------------------------------------------------


def _transport_bar(G: GeneticBar, target: Space, bij: Callable[[Dot], Dot]) -> GeneticBar:
    """Transport a bar through an exact dot bijection commuting with the
    successor structure."""

    def rec(node: BarNode) -> BarNode:
        if isinstance(node, Leaf):
            return Leaf(bij(node.dot))
        img = bij(node.dot)

        def child(s: Dot) -> BarNode:
            return rec(node.child(bij(s)))

        return Split(img, child)

    return GeneticBar(target, rec(G.node))


def _conditional_bar(f: Morphism, G: GeneticBar) -> GeneticBar:
    """The continuity-modulus bar: split until the image lands under a bar
    element (terminates on interval arithmetic against finite bars)."""
    targets = flatten(G)
    sp = f.source

    def rec(d: Dot) -> BarNode:
        img = f.map(d)
        if not isinstance(img, MaxDot) and any(
            f.target.refines(img, c) for c in targets
        ):
            return Leaf(d)
        return Split(d, rec)

    return GeneticBar(sp, rec(sp.max_dot))


def inductive_preimage(f: Morphism, G: GeneticBar) -> GeneticBar:
    """A genetic bar on the source whose dots all map under the given bar.

    Strategies are registered per morphism family; anything else is an
    explicit unsupported error."""
    tag = f.tag
    if tag == "id":
        return G
    if tag == "neg":
        return _transport_bar(G, f.source, f.map)  # neg is its own inverse
    if tag in ("f_can", "nary_encode", "ter_decode", "doubling"):
        # grade-preserving: every source dot at the witness depth maps under the bar
        return genetic_uniform(f.source, f.source.max_dot, bar_depth(G))
    if tag in ("add", "mul", "min", "max", "abs") or tag.startswith("scalar("):
        return _conditional_bar(f, G)
    if f.parts:
        g, inner = f.parts
        return inductive_preimage(inner, inductive_preimage(g, G))
    raise BarDefect(f"no preimage strategy registered for morphism {tag!r}")


# ---------------------------------------------------------------------------
# Product bars
# ---------------------------------------------------------------------------


def product_bar(G: GeneticBar, H: GeneticBar, prod: Space) -> Cover:
    """The product cover on a sigma product: tuples whose coordinates sit
    under the two bars with at least one coordinate in its bar, witnessed by
    the double-recursion bar (coordinates descend together, leafing when both
    sides have leafed)."""
    spV, spW = G.space, H.space
    if G.root != spV.max_dot or H.root != spW.max_dot:
        raise BarDefect("product_bar expects bars rooted at the maximal dots")

    def rec(gn: BarNode, hn: BarNode, d: Dot) -> BarNode:
        if isinstance(gn, Leaf) and isinstance(hn, Leaf):
            return Leaf(d)

        def child(s: Dot) -> BarNode:
            v, w = s.items
            gn2 = gn if isinstance(gn, Leaf) else gn.child(v)
            hn2 = hn if isinstance(hn, Leaf) else hn.child(w)
            return rec(gn2, hn2, s)

        return Split(d, child)

    witness = GeneticBar(prod, rec(G.node, H.node, prod.max_dot))
    g_dots, h_dots = flatten(G), flatten(H)

    def member(d: Dot) -> bool:
        if not isinstance(d, TupleDot) or len(d.items) != 2:
            return False
        v, w = d.items
        v_under = any(spV.refines(v, c) for c in g_dots)
        w_under = any(spW.refines(w, c) for c in h_dots)
        return v_under and w_under and (bar_contains(G, v) or bar_contains(H, w))

    return Cover(dots=None, member=member, witness=witness)


# ---------------------------------------------------------------------------
# Formal derivations (the five-rule calculus) and the rule verifier
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FiniteSet:
    dots: frozenset

    def __repr__(self) -> str:
        return "{" + ", ".join(repr(d) for d in sorted(self.dots, key=repr)) + "}"


@dataclass(frozen=True)
class StrictRefinements:
    """The (possibly infinite) set of strict refinements of a dot."""

    dot: Dot


SetExpr = Union[FiniteSet, StrictRefinements]


@dataclass
class Ind1:
    """b <= c yields {b} covered by {c}."""

    b: Dot
    c: Dot


@dataclass
class Ind2:
    """A covered by B from a per-element derivation of {a} covered by B."""

    A: SetExpr
    B: SetExpr
    prove: Callable[[Dot], "Derivation"]


@dataclass
class Ind3:
    """Widen the right side: from A covered by B and B a subset of C."""

    sub: "Derivation"
    C: SetExpr


@dataclass
class Ind4:
    """Chain two derivations through a shared middle set."""

    sub1: "Derivation"
    sub2: "Derivation"


@dataclass
class Ind5:
    """{b} is covered by the strict refinements of b."""

    b: Dot


Derivation = Union[Ind1, Ind2, Ind3, Ind4, Ind5]


def _expr_members_sample(space: Space, e: SetExpr) -> List[Dot]:
    if isinstance(e, FiniteSet):
        return list(e.dots)
    out: List[Dot] = []
    frontier = [e.dot]
    while frontier and len(out) < DERIVATION_SAMPLES:
        succ = space.successors(frontier.pop(0)).prefix(3)
        out += succ
        frontier += succ
    return out[:DERIVATION_SAMPLES]


def _expr_subset(space: Space, small: SetExpr, big: SetExpr) -> bool:
    def member(d: Dot, e: SetExpr) -> bool:
        if isinstance(e, FiniteSet):
            return d in e.dots
        return space.strictly_refines(d, e.dot)

    return all(member(d, big) for d in _expr_members_sample(space, small))


def verify_derivation(space: Space, der: Derivation) -> Tuple[SetExpr, SetExpr]:
    """The independent rule checker: walks the derivation, re-checks every
    side condition (sampling DERIVATION_SAMPLES members of each infinite set
    for schematic sub-derivations), and returns the conclusion (A, B).
    Raises BarDefect on any violation."""
    if isinstance(der, Ind1):
        if not space.refines(der.b, der.c):
            raise BarDefect(f"ind1: {der.b!r} does not refine {der.c!r}")
        return (FiniteSet(frozenset((der.b,))), FiniteSet(frozenset((der.c,))))
    if isinstance(der, Ind2):
        for a in _expr_members_sample(space, der.A):
            sub_a, sub_b = verify_derivation(space, der.prove(a))
            if sub_a != FiniteSet(frozenset((a,))):
                raise BarDefect(f"ind2: sub-derivation for {a!r} proves {sub_a!r}")
            if not _expr_subset(space, sub_b, der.B) or not _expr_subset(space, der.B, sub_b):
                raise BarDefect(f"ind2: sub-derivation right side {sub_b!r} != {der.B!r}")
        return (der.A, der.B)
    if isinstance(der, Ind3):
        a, b = verify_derivation(space, der.sub)
        if not _expr_subset(space, b, der.C):
            raise BarDefect(f"ind3: {b!r} is not a subset of {der.C!r}")
        return (a, der.C)
    if isinstance(der, Ind4):
        a, b1 = verify_derivation(space, der.sub1)
        b2, c = verify_derivation(space, der.sub2)
        if b1 != b2:
            raise BarDefect(f"ind4: middle sets differ: {b1!r} vs {b2!r}")
        return (a, c)
    if isinstance(der, Ind5):
        return (FiniteSet(frozenset((der.b,))), StrictRefinements(der.b))
    raise BarDefect(f"unknown derivation node {der!r}")


def formal_from_genetic(space: Space, a: Dot, B: Sequence[Dot], G: GeneticBar) -> Derivation:
    """Translate a genetic witness into a five-rule derivation of {a} covered
    by B (the bar-leaf case is a widen-of-refine step; the split case runs
    the successor rule, the schematic per-refinement rule, and a chain)."""
    if G.root != a:
        raise BarDefect(f"formal_from_genetic: bar rooted at {G.root!r}, not {a!r}")
    if not descends(B, G):
        raise BarDefect("formal_from_genetic: B does not descend from G")
    B_expr = FiniteSet(frozenset(B))
    sp = space

    def rec(node: BarNode) -> Derivation:
        r = node.dot
        if isinstance(node, Leaf):
            c = next((c for c in B if sp.refines(node.dot, c)), None)
            if c is None:
                raise BarDefect(f"bar dot {node.dot!r} refines no element of B")
            return Ind3(Ind1(node.dot, c), B_expr)
        succ = _finite_successors(sp, r)
        sub_of: Dict[Dot, Derivation] = {s: rec(node.child(s)) for s in succ}

        def prove(d: Dot) -> Derivation:
            s = next((s for s in succ if sp.refines(d, s)), None)
            if s is None:
                raise BarDefect(f"{d!r} refines no successor of {r!r}")
            if d == s:
                return sub_of[s]
            return Ind4(Ind1(d, s), sub_of[s])

        step = Ind2(StrictRefinements(r), B_expr, prove)
        return Ind4(Ind5(r), step)

    return rec(G.node)


# ---------------------------------------------------------------------------
# JSON bar format
# ---------------------------------------------------------------------------


def bar_to_json(bar: GeneticBar) -> dict:
    def walk(node: BarNode) -> dict:
        if isinstance(node, Leaf):
            return {"leaf": dot_to_json(node.dot)}
        succ = _finite_successors(bar.space, node.dot)
        return {
            "split": dot_to_json(node.dot),
            "children": [walk(node.child(s)) for s in succ],
        }

    return {"space": bar.space.name, "derivation": walk(bar.node)}


def bar_from_json(space: Space, data: dict) -> GeneticBar:
    """The bar of bar_to_json's format; each child's own dot must be the
    successor of its parent that it stands for."""

    def walk(obj: dict, expected: Optional[Dot]) -> BarNode:
        leaf = "leaf" in obj
        dot = dot_from_json(obj["leaf"] if leaf else obj["split"])
        if expected is not None and dot != expected:
            raise BarDefect(f"bar JSON: child {dot!r} stands for the successor {expected!r}")
        if leaf:
            return Leaf(dot)
        succ = _finite_successors(space, dot)
        kids = obj["children"]
        if len(kids) != len(succ):
            raise BarDefect(f"bar JSON: {dot!r} has {len(kids)} children, expected {len(succ)}")
        table = {s: walk(c, s) for s, c in zip(succ, kids)}
        return Split(dot, lambda s: table[s])

    return GeneticBar(space, walk(data["derivation"], None))
