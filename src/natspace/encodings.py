"""Trail spaces, unglueing, trail-to-refinement compression, and the two
universality constructions: every enumerated space is encoded over Baire
sequences, and Cantor space surjects onto every finitely branching fann.
"""

from __future__ import annotations

import itertools
import threading
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple

from . import spaces
from .dots import MAX, Dot, DyadicInterval, MaxDot, Seq, Trail
from .morphisms import REFINEMENT, TRAIL, Morphism, MorphismDefect
from .spaces import (
    Space,
    SpaceDefect,
    Successors,
    baire_rank,
    baire_unrank,
    prefix_tree,
    seq_extensions,
    std_space,
)

LEVEL_SCAN_BUDGET = 50_000  # enumerated dots one Baire level set may scan
COVER_TRAIL_BUDGET = 100_000  # unglued copies compress_sigmaR may map per dot


class EncodingDefect(Exception):
    pass


# ---------------------------------------------------------------------------
# Trail spaces
# ---------------------------------------------------------------------------


def _check_chain(space: Space, t: Trail) -> None:
    for prev, cur in zip(t.items, t.items[1:]):
        if not space.strictly_refines(cur, prev):
            raise SpaceDefect(
                f"{space.name}: {t!r} is not a strict-descent trail "
                f"({cur!r} does not strictly refine {prev!r})"
            )


def _last(space: Space, t: Trail) -> Dot:
    """The last dot of a trail (the maximal dot for the empty trail)."""
    return t.items[-1] if t.items else space.max_dot


def _trail_tree(
    name: str,
    space: Space,
    check: Callable[[Trail], None],
    successors: Callable[[Dot], Successors],
    options: Callable[[Trail, int], Iterable[Tuple[int, Trail]]],
    finitely_branching: bool,
) -> Space:
    """A tree of trails over space under the empty trail: grade is length,
    the one predecessor drops the last dot, refinement is extension and
    apartness is last-dot apartness, each after check vets both trails.
    The enumeration follows the baire order (spaces.baire_rank) over index
    strings: options(t, cap) gives, by increasing index below cap, the
    (index, trail) steps that extend t by one dot, so a prefix that names no
    trail is never extended.  Each weight class (cap) is one walk down the
    lengths: a length's trails, lexicographic in their strings, are built
    from the previous length's and yielded as they are built when their
    string uses the top index cap - 1 or has length cap."""

    def apart(a: Dot, b: Dot) -> bool:
        check(a)
        check(b)
        if not a.items or not b.items:
            return False
        return space.apart(a.items[-1], b.items[-1])

    def refines(b: Dot, a: Dot) -> bool:
        check(a)
        check(b)
        return b.extends(a)

    def predecessors(t: Dot) -> Tuple[Dot, ...]:
        return (Trail(t.items[:-1]),) if t.items else ()

    def enum() -> Iterator[Dot]:
        root = Trail(())
        yield root
        for cap in itertools.count(1):
            level = [(root, False)]  # (trail, its string uses cap - 1)
            for ln in range(1, cap + 1):
                longer = []
                for t, top in level:
                    for i, s in options(t, cap):
                        s_top = top or i == cap - 1
                        if s_top or ln == cap:
                            yield s
                        if ln < cap:
                            longer.append((s, s_top))
                level = longer

    return Space(
        name,
        apart,
        refines,
        Trail(()),
        enum,
        grade=len, successors=successors, predecessors=predecessors,
        finitely_branching=finitely_branching,
    )


def trail_space(space: Space) -> Space:
    """The space of strict-descent trails: refinement is trail extension,
    apartness is last-dot apartness, the empty trail is maximal."""

    def _extensions(t: Trail, k: int) -> Dot:
        """The k-th one-step extension of t (underlying enumeration order),
        drawn from space.strict_refinements (see there for its budget) and kept on the space."""
        last = _last(space, t)
        refinements = space.derived(
            (trail_space, last), lambda: spaces.Lazy(lambda: space.strict_refinements(last)))
        try:
            return Trail(t.items + (refinements[k],))
        except IndexError:
            raise SpaceDefect(
                f"{space.name}: strict refinement {k} of {last!r} not found in "
                f"first {spaces.SCAN_BUDGET} enumerated dots"
            ) from None

    def successors(t: Dot) -> Successors:
        return Successors(more=lambda k: _extensions(t, k))

    def options(t: Trail, cap: int) -> Iterator[Tuple[int, Trail]]:
        # index i names the dot enumerated at 1 + i (MAX left out)
        for i in range(cap):
            d = space.enumerate_dot(1 + i)
            if not t.items or space.strictly_refines(d, t.items[-1]):
                yield i, Trail(t.items + (d,))

    return _trail_tree(
        f"trails({space.name})",
        space,
        lambda t: _check_chain(space, t),
        successors,
        options,
        False,
    )


def id_str(space: Space) -> Morphism:
    """The trail identity: a trail maps to its last dot."""
    return Morphism(
        TRAIL, space, space, lambda t: _last(space, t), lambda g: g, tag="id_str",
        last_dot=True,
    )


# ---------------------------------------------------------------------------
# Unglueing
# ---------------------------------------------------------------------------


class CoverTrails:
    """The immediate-successor trails from a grade-1 dot down to a (the
    distinct unglued copies of a), read off the predecessor DAG above a
    without listing them: iteration walks the DAG depth first and yields
    the trails in order of their predecessor choices, last step first (the
    first trail takes the first predecessor at every step); len counts the
    trails level by level without building any.

    Every CoverTrails of one space shares that space's predecessor map, kept
    on the space as space.derived(CoverTrails, dict) (dot -> its predecessors
    but the max dot), so the walks of neighbouring dots climb through
    ancestors once, and its first copies (first) in
    space.derived(CoverTrails.first, dict).  Both die with the space and
    hold only dots that some walk reached; racing threads store equal values."""

    def __init__(self, space: Space, a: Dot):
        self.space = space
        self.a = a
        self._up = space.derived(CoverTrails, dict)

    def _parents(self, d: Dot) -> Tuple[Dot, ...]:
        up = self._up.get(d)
        if up is None:
            up, top = tuple(self.space.predecessors(d)), self.space.max_dot
            self._up[d] = up = tuple(p for p in up if p != top) if top in up else up
        return up

    def first(self) -> Optional[Trail]:
        """The trail iteration yields first, kept per dot (none for the max
        dot): the first copy of a's first predecessor, then a; (a,) at grade
        1.  A loop, not recursion, climbs to a kept dot and extends down."""
        top, kept = self.space.max_dot, self.space.derived(CoverTrails.first, dict)
        climb, d = [], self.a
        while d not in kept and d != top:
            climb.append(d)
            d = (self._parents(d) or (top,))[0]
        items = () if d == top else kept[d].items
        for d in reversed(climb):
            items += (d,)
            kept[d] = Trail(items)
        return kept.get(self.a)

    def __iter__(self) -> Iterator[Trail]:
        if self.a == self.space.max_dot:
            return
        path: List[Dot] = [self.a]
        stack: List[Iterator[Dot]] = []  # the parents left to try, per path dot
        while path:
            if len(stack) < len(path):  # path[-1] is new
                parents = self._parents(path[-1])
                if not parents:
                    yield Trail(tuple(reversed(path)))
                    path.pop()
                    continue
                stack.append(iter(parents))
            p = next(stack[-1], None)
            if p is None:
                stack.pop()
                path.pop()
            else:
                path.append(p)

    def __len__(self) -> int:
        if self.a == self.space.max_dot:
            return 0
        total = 0
        paths = {self.a: 1}  # dot -> the number of paths from a up to it
        while paths:
            up: Dict[Dot, int] = {}
            for d, count in paths.items():
                parents = self._parents(d)
                if not parents:
                    total += count
                for p in parents:
                    up[p] = up.get(p, 0) + count
            paths = up
        return total


def cover_trails(space: Space, a: Dot) -> CoverTrails:
    """The unglued copies of a, lazy and sized (see CoverTrails)."""
    return CoverTrails(space, a)


def unglue(space: Space) -> Space:
    """The unglued twin: dots are immediate-successor trails from grade 1, so
    every non-max dot has exactly one predecessor (a tree).  Apartness is
    last-dot apartness; grade is preserved."""
    if not space.graded:
        raise SpaceDefect(f"{space.name}: unglue needs spraid structure")

    def successors(t: Dot) -> Successors:
        succ = space.successors(_last(space, t))
        if not succ.unbounded:
            return Successors(tuple(Trail(t.items + (s,)) for s in succ.dots))
        return Successors(more=lambda k: Trail(t.items + (succ.more(k),)))

    def options(t: Trail, cap: int) -> Iterable[Tuple[int, Trail]]:
        return enumerate(successors(t).prefix(cap)[:cap])  # index i: successor i

    return _trail_tree(
        f"unglued({space.name})",
        space,
        lambda t: None,
        successors,
        options,
        space.finitely_branching,
    )


def unglue_projection(space: Space) -> Morphism:
    """id_str on unglued dots: the projection back onto the glued space."""
    return Morphism(
        REFINEMENT,
        unglue(space),
        space,
        lambda t: _last(space, t),
        lambda g: g,
        tag="unglue_proj",
    )


# ---------------------------------------------------------------------------
# Trail-to-refinement compression on sigma_R
# ---------------------------------------------------------------------------


def hat(d: Dot) -> Dot:
    """The two-grade coarsening [s/2^t,(s+2)/2^t] around [n/2^m,(n+2)/2^m]
    with n = 4s+i, 1 <= i <= 4; MaxDot when the grade is too small."""
    if isinstance(d, MaxDot) or d.m < 2:
        return MAX
    s = (d.n - 1) // 4
    return DyadicInterval(s, d.m - 2)


def compress_sigmaR(f: Morphism) -> Morphism:
    """Turn a trail morphism on sigma_R into a refinement morphism: g(a) is
    the common refinement of f(b)-hat over all unglued copies b of a.  g
    never becomes apart from f on points.  When f.last_dot every copy has
    the same image, so g maps the first copy only, kept per dot (see
    CoverTrails.first); otherwise it maps every copy, and raises
    MorphismDefect when a has more than COVER_TRAIL_BUDGET of them."""
    if f.kind != TRAIL:
        raise MorphismDefect("compress_sigmaR expects a trail morphism")
    sr = std_space("sigma_R")

    def gmap(a: Dot) -> Dot:
        if isinstance(a, MaxDot):
            return MAX
        trails = cover_trails(sr, a)
        if f.last_dot:
            copies: Iterable[Trail] = (trails.first(),)
        elif len(trails) > COVER_TRAIL_BUDGET:
            raise MorphismDefect(
                f"compress_sigmaR: {a!r} has {len(trails)} unglued copies, over "
                f"the budget of {COVER_TRAIL_BUDGET}"
            )
        else:
            copies = trails
        hats = [hat(f.map(t)) for t in copies]
        hats = [h for h in hats if not isinstance(h, MaxDot)]
        if not hats:
            return MAX
        finest = max(hats, key=lambda h: h.m)
        for h in hats:
            if not sr.refines(finest, h):
                raise MorphismDefect(
                    f"compress_sigmaR: trail images of {a!r} have no common "
                    f"refinement ({finest!r} vs {h!r})"
                )
        return finest

    def dyn(p):
        f_live = f.dynamic_liveness(p)
        return lambda g: f_live(g + 2)

    return Morphism(
        REFINEMENT, sr, sr, gmap, lambda g: f.liveness(g + 2), tag=f"compress({f.tag})",
        dynamic_liveness=dyn if f.dynamic_liveness is not None else None,
    )


# ---------------------------------------------------------------------------
# The Baire encoding
# ---------------------------------------------------------------------------

class BaireEncoding:
    """The spread presentation of an enumerated space: a pullback spread over
    Baire sequences with the apartness of the h-images, the surjective
    refinement morphism forward (h) and the trail morphism inverse; the
    round trip is never apart on points.

    Its levels are cut by e-grades: with the apart pairs of the space indexed
    from 1 (index 0 is the implicit sentinel pair, which every dot chooses),
    a dot d has e-grade >= n iff d chooses, i.e. is apart from one side of,
    every pair of index below n.  One lock guards the three caches."""

    def __init__(self, space: Space):
        self.space = space
        self.spread = prefix_tree(
            f"spread({space.name})", lambda x, y: space.apart(self.h(x), self.h(y)),
            seq_extensions, baire_rank, baire_unrank, False,
        )
        self.forward = Morphism(REFINEMENT, self.spread, space, self.h, lambda g: 2 * g + 8,
                                tag=f"h[{space.name}]")
        self.inverse = Morphism(TRAIL, space, self.spread, self.h_inverse_trail, lambda g: g + 4,
                                tag=f"h_inv[{space.name}]")
        self._levels: Dict[Tuple[int, Dot], spaces.Lazy] = {}
        self._h_cache: Dict[Seq, Dot] = {}
        self._inv_cache: Dict[Tuple[Dot, ...], Tuple[Seq, Dot]] = {}
        self._pairs = spaces.Lazy(self._apart_pairs)
        self._lock = threading.RLock()

    # e-grades ------------------------------------------------------------------

    def chooses(self, d: Dot, i: int) -> bool:
        if i == 0:
            return True
        x, y = self._pairs[i - 1]
        return self.space.apart(d, x) or self.space.apart(d, y)

    def _apart_pairs(self) -> Iterator[Tuple[Dot, Dot]]:
        """The apart dot pairs, diagonally over the dot enumeration."""
        for j in itertools.count(1):
            ej = self.space.enumerate_dot(j)
            for ei in map(self.space.enumerate_dot, range(j)):
                if self.space._apart(ei, ej):  # the raw hook, as subfan_Wx reads it
                    yield (ei, ej)

    def has_e_grade(self, d: Dot, n: int) -> bool:
        return all(self.chooses(d, i) for i in range(1, n))

    # the level sets and per-cone bijections -------------------------------

    def level_member(self, n: int, a: Dot, k: int) -> Dot:
        """g_a(k): the k-th dot (enumeration order) of index >= n, e-grade
        >= n, refining a; the scan stops at LEVEL_SCAN_BUDGET dots."""
        with self._lock:
            if (n, a) not in self._levels:
                self._levels[(n, a)] = spaces.Lazy(lambda: self._level(n, a))
        try:
            return self._levels[(n, a)][k]
        except IndexError:
            raise EncodingDefect(
                f"{self.space.name}: level {n} under {a!r} exhausted after "
                f"scanning {LEVEL_SCAN_BUDGET} dots (needed member {k})"
            ) from None

    def _level(self, n: int, a: Dot) -> Iterator[Dot]:
        for m in range(n, LEVEL_SCAN_BUDGET):
            v = self.space.enumerate_dot(m)
            if self.space.refines(v, a) and self.has_e_grade(v, n):
                yield v

    def level_index(self, n: int, a: Dot, v: Dot) -> int:
        """The g_a-index of a qualifying dot v (inverse of level_member): its
        place among the level's drawn dots, drawn on until v appears."""
        drawn = self._levels[(n, a)].items if (n, a) in self._levels else []
        k = len(drawn)  # drawn dots only grow, so the first k stay
        if v in drawn[:k]:
            return drawn.index(v)
        while self.level_member(n, a, k) != v:
            k += 1
        return k

    def h(self, b: Seq) -> Dot:
        """The forward dot map: digits pick cone members level by level."""
        with self._lock:
            out = self._h_cache.get(b)
        if out is None:
            s = b.syms
            out = self.level_member(len(s), self.h(Seq(s[:-1])), s[-1]) if s else self.space.max_dot
            with self._lock:
                self._h_cache[b] = out
        return out

    def h_inverse_trail(self, t: Trail) -> Seq:
        """Minimal-index subsequence extraction: at level n pick the first
        trail dot of e-grade >= n, index >= n, strictly refining the current
        image.  Like h, a call resumes from the cached (sequence, image) of
        t less its last dot: each prefix hit precedes the last dot, so stays
        the first, and where the prefix stopped no prefix dot qualifies, so
        only the last dot is tried there.  Only a call that returns caches."""
        items = t.items
        with self._lock:
            state = self._inv_cache.get(items)
            if state:
                return state[0]
            state = self._inv_cache.get(items[:-1])
        seq, a = state or (Seq(()), self.space.max_dot)
        syms, scan = list(seq.syms), items[-1:] if state else items
        while True:
            n = len(syms) + 1
            hit = next((x for x in scan if self.space.strictly_refines(x, a)
                        and self.space.index_of(x) >= n and self.has_e_grade(x, n)), None)
            if hit is None:
                break
            syms.append(self.level_index(n, a, hit))
            a, scan = hit, items
        with self._lock:
            state = self._inv_cache[items] = (Seq(tuple(syms)), a)
        return state[0]


def baire_encode(space: Space) -> BaireEncoding:
    """The space's one spread presentation over Baire sequences, kept on the
    space by space.derived: its level, forward and inverse caches fill across
    calls and die with the space.  The caches of a cached std_space grow for
    the life of the process, as its predecessor map does.
    BaireEncoding(space) builds a fresh encoding."""
    return space.derived(BaireEncoding, lambda: BaireEncoding(space))


# ---------------------------------------------------------------------------
# The Cantor surjection onto fanns
# ---------------------------------------------------------------------------


def _block_size(branching: int) -> int:
    return max(1, (branching - 1).bit_length())


def cantor_surjection(fann: Space) -> Morphism:
    """The surjective morphism cantor -> fann: bits are consumed in blocks of
    ceil(log2(#successors)); in-range blocks pick the successor, overflow
    blocks commit to the canonical filler walk (always the first successor).
    Partial blocks lag (the image stays one grade coarser until the block
    completes)."""
    if not fann.finitely_branching:
        raise MorphismDefect(f"{fann.name}: cantor_surjection needs a fann")
    cantor = std_space("cantor")

    def fmap(d: Dot) -> Dot:
        bits = d.syms
        cur = fann.max_dot
        i = 0
        overflow = False
        while True:
            succ = fann.successors(cur).dots
            if not succ:
                return cur
            L = _block_size(len(succ))
            if i + L > len(bits):
                return cur
            if not overflow:
                v = 0
                for b in bits[i : i + L]:
                    v = 2 * v + b
                overflow = v >= len(succ)
            cur = succ[0] if overflow else succ[v]
            i += L

    def liveness(g: int) -> int:
        bits = 0
        for lvl in range(g):
            branch = max(
                (len(fann.successors(d).dots) for d in fann.level(lvl)), default=1
            )
            bits += _block_size(branch)
        return bits

    return Morphism(
        REFINEMENT, cantor, fann, fmap, liveness, tag=f"cantor_onto[{fann.name}]"
    )


def cantor_witness(fann: Space, a: Dot) -> Seq:
    """A cantor dot the surjection maps onto a (the in-range block coding of
    the immediate-successor trail of a)."""
    cantor_bits: List[int] = []
    if a == fann.max_dot:
        return Seq(())
    trail = next(iter(cover_trails(fann, a)), None)
    if trail is None:
        raise MorphismDefect(f"{fann.name}: {a!r} unreachable from the maximal dot")
    cur = fann.max_dot
    for step in trail.items:
        succ = fann.successors(cur).dots
        L = _block_size(len(succ))
        v = succ.index(step)
        cantor_bits.extend((v >> (L - 1 - j)) & 1 for j in range(L))
        cur = step
    return Seq(tuple(cantor_bits))
