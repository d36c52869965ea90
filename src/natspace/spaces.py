"""Pre-natural spaces: countable dot universes with decidable apartness and
refinement, plus the concrete spaces the rest of the library is built on.

A space descriptor bundles the two decidable relations, the maximal dot, a
frozen enumeration of the dot universe, and (for graded spaces) the
grade/successor structure.  Enumeration orders are canonical and frozen:
sequence spaces are length-then-lexicographic, interval dot systems use an
(m, n)-diagonal with zigzag n, and the maximal dot is always index 0.
"""

from __future__ import annotations

import functools
import itertools
import math
import threading
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable, Iterator, List, Optional, Tuple

from .dots import (
    MAX,
    Ball,
    Dot,
    DyadicInterval,
    GridDots,
    Isolated,
    MaxDot,
    NaryInterval,
    RatInterval,
    Seq,
    TupleDot,
    endpoints,
    grid_ancestors,
    interval_contains,
    interval_row,
    intervals_apart,
    nary_seq,
    seq_dot,
    width,
)


class SpaceDefect(Exception):
    """A shipped-space contract was violated (missing refinement, stalled
    search, inconsistent oracle...)."""


SCAN_BUDGET = 500_000  # enumerated dots one search for a dot may scan
_DERIVED_LOCK = threading.RLock()  # Space.derived's builds, reentrant: one may read another


class Lazy:
    """A memoised sequence: the iterator is made by factory() on first use,
    item i is drawn once under the lock, and every drawn item stays in
    items.  Indexing past the end of a finite iterator raises IndexError,
    and past an iterator that raised raises that error again."""

    def __init__(self, factory: Callable[[], Iterable]):
        self._factory = factory
        self._iter: Optional[Iterator] = None
        self._error: Optional[Exception] = None
        self._traceback = None
        self.items: list = []
        self._lock = threading.RLock()

    def __getitem__(self, i: int):
        items = self.items
        if i < len(items):  # items only grow, so this read needs no lock
            return items[i]
        with self._lock:
            if self._iter is None:
                self._iter = iter(self._factory())
            while len(items) <= i:
                if self._error is not None:  # the first traceback, so it does not grow
                    raise self._error.with_traceback(self._traceback)
                try:
                    items.append(next(self._iter))
                except StopIteration:
                    raise IndexError(i) from None
                except Exception as exc:  # the iterator is spent: keep its error
                    self._error, self._traceback = exc, exc.__traceback__
                    raise
            return items[i]


def zigzag(j: int) -> int:
    """0, 1, -1, 2, -2, ... - the frozen signed-integer enumeration."""
    return (j + 1) // 2 if j % 2 == 1 else -(j // 2)


@dataclass(frozen=True)
class Successors:
    """Successor listing: the dots of a finitely branching node, or more,
    the k-th successor, when the full set is infinite."""

    dots: Tuple[Dot, ...] = ()
    more: Optional[Callable[[int], Dot]] = None  # k-th successor, k >= 0

    @property
    def unbounded(self) -> bool:
        return self.more is not None

    def prefix(self, count: int) -> Tuple[Dot, ...]:
        if self.more is None:
            return self.dots
        return tuple(self.more(k) for k in range(count))


def _level_sets(max_dot: Dot, successors, level_row) -> Iterator[Tuple[Dot, ...]]:
    """A space's levels from (max_dot,): each the row's dots and rest of
    level_row(g), or with no such hook the successors of the level before."""
    out: Tuple[Dot, ...] = (max_dot,)
    for g in itertools.count(1):
        yield out
        if level_row is None:
            out = tuple(dict.fromkeys(s for d in out for s in successors(d).dots))
        else:
            row, rest = level_row(g)
            out = (() if row is None else tuple(row[0])) + rest


class Space:
    """A pre-natural space descriptor.

    The frozen enumeration of the dot universe comes either from
    enum_factory, a generator whose dots are cached and scanned by index_of,
    or from the closed-form hooks rank and unrank, supplied together in its
    place and kept with no cache: unrank(i) is the i-th dot, and rank(d) the
    index of a dot of the space or None for a dot that cannot be one (another
    kind, a field out of range).  Only this class reads the hooks: index_of
    and strict_refinements answer from them where they can, and scan the
    enumeration below SCAN_BUDGET where they cannot.

    A graded space binds its grade and successors hooks as attributes.
    Level g holds the successors of level g - 1's dots, in order and each
    once, from (max_dot,).  A space may state level g >= 1 in closed form as
    level_row(g) = (row, rest): row the dots.interval_row of its interval
    dots (as GridDots, which builds none) or None, rest its other dots in
    level order; the level is then the row's dots followed by its rest.

    Immutable after construction except for its caches, so shareable: the
    enumeration and level-set streams draw under their Lazy's lock, and the
    index scan runs under the space's own lock.  Data that other modules
    derive from a space is kept on it through derived, so it dies with it.
    """

    def __init__(
        self,
        name: str,
        apart: Callable[[Dot, Dot], bool],
        refines: Callable[[Dot, Dot], bool],
        max_dot: Dot,
        enum_factory: Optional[Callable[[], Iterator[Dot]]] = None,
        grade: Optional[Callable[[Dot], int]] = None,
        successors: Optional[Callable[[Dot], Successors]] = None,
        predecessors: Optional[Callable[[Dot], Tuple[Dot, ...]]] = None,
        finitely_branching: bool = False,
        width: Optional[Callable[[Dot], Fraction]] = None,
        is_isolated: Optional[Callable[[Dot], bool]] = None,
        rank: Optional[Callable[[Dot], Optional[int]]] = None,
        unrank: Optional[Callable[[int], Dot]] = None,
        level_row: Optional[Callable[[int], tuple]] = None,
    ):
        if (rank is None) != (unrank is None) or (rank is None) == (enum_factory is None):
            raise ValueError("a space needs either enum_factory or both rank and unrank")
        self.name = name
        self._apart = apart
        self._refines = refines
        self.max_dot = max_dot
        self.rank = rank
        self.unrank = unrank
        self.level_row = level_row
        self.graded = grade is not None
        if self.graded:  # read as attributes: a hot read is one call
            self.grade, self.successors = grade, successors
        self._predecessors = predecessors
        self.finitely_branching = finitely_branching
        self._width = width
        self.is_isolated = is_isolated or (lambda d: False)
        if enum_factory is not None:
            self._enum = Lazy(enum_factory)
            self._index_cache: dict = {}
            self._indexed = 0  # enumeration indices below this are in _index_cache
            self._lock = threading.RLock()
        self._derived: dict = {}
        # no reference to the space in its own stream: a space dies with its last reference
        self._levels = Lazy(functools.partial(_level_sets, max_dot, self.successors, level_row))

    # -- relations ---------------------------------------------------------

    def apart(self, a: Dot, b: Dot) -> bool:
        return self._apart(a, b)

    def touch(self, a: Dot, b: Dot) -> bool:
        return not self._apart(a, b)

    def refines(self, b: Dot, a: Dot) -> bool:
        """True iff b is a refinement of a (b below a)."""
        return self._refines(b, a)

    def strictly_refines(self, b: Dot, a: Dot) -> bool:
        return b != a and self._refines(b, a)

    # -- enumeration -------------------------------------------------------

    def enumerate_dot(self, i: int) -> Dot:
        """The i-th dot of the frozen enumeration: unrank(i) on a space with
        hooks, else drawn from the generator and cached."""
        if self.unrank is not None:
            return self.unrank(i)
        try:
            return self._enum[i]
        except IndexError:
            raise SpaceDefect(f"{self.name}: the enumeration ends before dot {i}") from None

    def index_of(self, d: Dot) -> int:
        """Enumeration index of a dot.  With hooks it is rank(d), checked
        against enumerate_dot and bounded by nothing, since nothing is
        scanned; without, a mu-search below SCAN_BUDGET in which each
        enumerated dot is indexed once, scanning on from where the last
        search stopped.  A dot not of the space (also one past the budget or
        past the end of a finite enumeration) raises SpaceDefect."""
        if self.rank is not None:
            r = self.rank(d)
            if r is not None and self.enumerate_dot(r) == d:
                return r
            raise SpaceDefect(f"{self.name}: dot {d!r} is not a dot of the space")
        with self._lock:
            index = self._index_cache
            while d not in index and self._indexed < SCAN_BUDGET:
                try:
                    index.setdefault(self._enum[self._indexed], self._indexed)
                except IndexError:
                    break
                self._indexed += 1
            if d not in index:
                raise SpaceDefect(
                    f"{self.name}: dot {d!r} not found in first {SCAN_BUDGET} enumerated dots"
                )
            return index[d]

    def strict_refinements(self, d: Dot) -> Iterator[Dot]:
        """The strict refinements of d in enumeration order.  On a hooked
        graded space where d has finitely many successors the first is the
        successor of least rank, read with no budget: the hooked orders rank
        every strict refinement after one of its successor ancestors.  The
        scan for the others starts just past that rank (at index 0 on other
        spaces) and stops at SCAN_BUDGET."""
        start = 0
        if self.rank is not None and self.graded:
            succs = self.successors(d)
            if not succs.unbounded:
                start = min(map(self.rank, succs.dots))
                yield self.enumerate_dot(start)
                start += 1
        for i in range(start, SCAN_BUDGET):
            e = self.enumerate_dot(i)
            if self.strictly_refines(e, d):
                yield e

    def derived(self, key, build: Callable[[], object]):
        """The value of build() that key names, built once under one lock and
        kept on the space, so it dies with the space: the one place for data
        derived from a space (one that holds it makes a cycle gc frees)."""
        if key not in self._derived:
            with _DERIVED_LOCK:
                if key not in self._derived:
                    self._derived[key] = build()
        return self._derived[key]

    # -- graded structure ----------------------------------------------------

    def grade(self, d: Dot) -> int:  # a graded space binds its own
        raise SpaceDefect(f"{self.name}: no grade structure")

    def successors(self, d: Dot) -> Successors:  # a graded space binds its own
        raise SpaceDefect(f"{self.name}: no successor structure")

    def predecessors(self, d: Dot) -> Tuple[Dot, ...]:
        if self._predecessors is None:
            raise SpaceDefect(f"{self.name}: no predecessor structure")
        return self._predecessors(d)

    def level(self, g: int) -> Tuple[Dot, ...]:
        """All grade-g dots of a finitely branching graded space."""
        if not self.finitely_branching:
            raise SpaceDefect(f"{self.name}: level sets need a finitely branching space")
        return self._levels[g]

    def width(self, d: Dot) -> Fraction:
        if self._width is None:
            raise SpaceDefect(f"{self.name}: dots have no width")
        return self._width(d)

    @property
    def interval_like(self) -> bool:
        return self._width is not None

    def __repr__(self) -> str:
        return f"Space({self.name})"


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------


@dataclass
class Report:
    """The outcome of a law check: check names it ("validate" for a space's
    axioms, "check" for a morphism's laws), subject is the space or morphism
    checked on its first depth dots, and each entry is one violation."""

    check: str
    subject: str
    depth: int
    entries: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.entries

    def __str__(self) -> str:
        head = f"{self.check} {self.subject} depth={self.depth}: "
        if self.ok:
            return head + "ok"
        return head + f"{len(self.entries)} violation(s)\n" + "\n".join(
            "  " + e for e in self.entries
        )


def validate_space(space: Space, depth: int) -> Report:
    """Check the pre-natural axioms on the first `depth` enumerated dots.

    Violations are report entries, not failures.  Uses bitset rows so the
    triple checks (monotonicity, transitivity) cost O(depth^2) word ops.
    """
    if depth < 1:
        raise ValueError("depth >= 1 required")
    rep = Report("validate", space.name, depth)
    dots = [space.enumerate_dot(i) for i in range(depth)]
    n = len(dots)
    apart_row = [0] * n  # bit j of apart_row[i]: dots[j] # dots[i]
    ref_row = [0] * n  # bit j of ref_row[i]: dots[j] refines dots[i]
    for i in range(n):
        di = dots[i]
        if space.apart(di, di):
            rep.entries.append(f"antireflexivity: {di!r} # {di!r}")
        if not space.refines(di, di):
            rep.entries.append(f"reflexivity: not {di!r} <= {di!r}")
        if not space.refines(di, space.max_dot):
            rep.entries.append(f"max dot: {di!r} does not refine max")
        for j in range(n):
            if space.apart(dots[j], di):
                apart_row[i] |= 1 << j
            if space.refines(dots[j], di):
                ref_row[i] |= 1 << j
    for i in range(n):
        for j in range(i + 1, n):
            if apart_row[i] >> j & 1 != apart_row[j] >> i & 1:
                rep.entries.append(f"symmetry: {dots[i]!r} vs {dots[j]!r}")
            if ref_row[i] >> j & 1 and ref_row[j] >> i & 1:
                rep.entries.append(f"antisymmetry: {dots[i]!r} <=> {dots[j]!r}")
    for i, row in enumerate(ref_row):
        for j in range(row.bit_length()):
            if row >> j & 1:  # dots[j] refines dots[i]
                bad_mono = apart_row[i] & ~apart_row[j]
                if bad_mono:
                    k = bad_mono.bit_length() - 1
                    rep.entries.append(
                        f"monotonicity: {dots[j]!r} <= {dots[i]!r}, "
                        f"{dots[k]!r} # {dots[i]!r} but not # {dots[j]!r}"
                    )
                bad_trans = ref_row[j] & ~row
                if bad_trans:
                    k = bad_trans.bit_length() - 1
                    rep.entries.append(
                        f"transitivity: {dots[k]!r} <= {dots[j]!r} <= {dots[i]!r} "
                        f"but not {dots[k]!r} <= {dots[i]!r}"
                    )
    return rep


# ---------------------------------------------------------------------------
# Concrete spaces
# ---------------------------------------------------------------------------


def _interval_apart(a: Dot, b: Dot) -> bool:
    if isinstance(a, MaxDot) or isinstance(b, MaxDot):
        return False
    return intervals_apart(a, b)


def _interval_refines(b: Dot, a: Dot) -> bool:
    if isinstance(a, MaxDot):
        return True
    if isinstance(b, MaxDot):
        return False
    return interval_contains(a, b)


def _interval_space(name: str, base: int, k: int, line: bool) -> Space:
    """The grid spaces: dot (n, m) sits at n/base^m and refines into its k
    successors (base*n + i, m+1), i < k.  With k = base+1 the dots are the
    half-overlapping dyadic intervals, with k = base the n-ary ones.  On the
    whole line MAX sits above exponent 0; on the unit interval the maximal
    dot is (0, m0) with m0 = k - base, and exponent m >= m0 holds
    base^m - (k - base) dots.

    The frozen order, as rank/unrank: on the unit interval by exponent from
    m0, then by n; on the line MAX first, then the diagonals t = m + j with
    n = zigzag(j), each by m, so (n, m) has index 1 + t(t+1)/2 + m."""
    kind = DyadicInterval if k > base else NaryInterval
    dot = kind if k > base else functools.partial(NaryInterval, base)
    spill = k - base
    m0 = -1 if line else spill  # the exponent the maximal dot stands for

    def grade(d: Dot) -> int:
        return 0 if type(d) is MaxDot else d.m - m0

    def successors(d: Dot) -> Successors:
        if type(d) is MaxDot:
            return Successors(more=lambda j: dot(zigzag(j), 0))
        return Successors(tuple(dot(base * d.n + i, d.m + 1) for i in range(k)))

    def predecessors(d: Dot) -> Tuple[Dot, ...]:
        if type(d) is MaxDot or d.m == m0:
            return ()
        if d.m == 0:  # on the line, below MAX
            return (MAX,)
        parents = grid_ancestors(d, d.m - 1)
        if line:
            return parents
        return tuple(p for p in parents if rank(p) is not None)

    # (an n-ary dot of another base gets an index; index_of's check rejects it)
    if line:

        def rank(d: Dot) -> Optional[int]:
            if type(d) is MaxDot:
                return 0
            if type(d) is not kind:
                return None
            t = d.m + (2 * d.n - 1 if d.n > 0 else -2 * d.n)
            return 1 + t * (t + 1) // 2 + d.m

        def unrank(i: int) -> Dot:
            if i == 0:
                return MAX
            t = (math.isqrt(8 * i - 7) - 1) // 2  # the diagonal of index i - 1
            m = i - 1 - t * (t + 1) // 2
            return dot(zigzag(t - m), m)

    else:

        def rank(d: Dot) -> Optional[int]:
            if type(d) is not kind or d.m < m0 or not 0 <= d.n < base**d.m - spill:
                return None
            return (base**d.m - base**m0) // (base - 1) - spill * (d.m - m0) + d.n

        def unrank(i: int) -> Dot:
            m = m0
            while i >= base**m - spill:
                i -= base**m - spill
                m += 1
            return dot(i, m)

    return Space(
        name,
        _interval_apart,
        _interval_refines,
        MAX if line else dot(0, m0),
        grade=grade, successors=successors, predecessors=predecessors,
        finitely_branching=not line,
        width=width,
        rank=rank,
        unrank=unrank,
        level_row=None if line else (
            lambda g: (interval_row(GridDots(dot(0, m0 + g), base ** (m0 + g) - spill)), ())),
    )


def _seq_apart(a: Dot, b: Dot) -> bool:
    return not (a.extends(b) or b.extends(a))


def _seq_parent(d: Dot) -> Tuple[Dot, ...]:
    return (Seq(d.syms[:-1]),) if d.syms else ()


def seq_extensions(d: Dot) -> Successors:
    """Every one-symbol extension of a digit string (infinite branching)."""
    return Successors(more=lambda k: Seq(d.syms + (k,)))


def prefix_tree(
    name: str,
    apart: Callable[[Dot, Dot], bool],
    successors: Callable[[Dot], Successors],
    rank: Callable[[Dot], Optional[int]],
    unrank: Callable[[int], Dot],
    finitely_branching: bool,
    **space_args,
) -> Space:
    """A space of digit strings under the empty string: grade is length, the
    one predecessor drops the last symbol, refinement is extension, and
    rank/unrank state the frozen order.  Further keyword arguments go to
    Space."""
    return Space(
        name,
        apart,
        Seq.extends,
        Seq(()),
        grade=len, successors=successors, predecessors=_seq_parent,
        finitely_branching=finitely_branching,
        rank=rank,
        unrank=unrank,
        **space_args,
    )


def _baire() -> Space:
    return prefix_tree("baire", _seq_apart, seq_extensions, baire_rank, baire_unrank, False)


def _baire_weight_count(ln: int, w: int) -> int:
    """Sequences of length ln over range(w) with weight exactly w."""
    if ln == w:
        return w**ln
    return w**ln - (w - 1) ** ln


def _baire_cap_total(w: int) -> int:
    return sum(_baire_weight_count(ln, w) for ln in range(1, w + 1))


def baire_rank(d: Dot) -> Optional[int]:
    """Closed-form rank of a finite sequence in the frozen baire order
    (monotone along extension: rank(a) <= rank(a*b)); None for a dot that is
    not a sequence.

    The order grows a cap: a sequence has weight max(len, max(sym)+1) and
    comes with the others of its weight, by length and then lexicographically.
    """
    if type(d) is not Seq:
        return None
    s = d.syms
    if not s:
        return 0
    ln = len(s)
    w = max(ln, max(s) + 1)
    r = 1 + sum(_baire_cap_total(c) for c in range(1, w))
    r += sum(_baire_weight_count(l, w) for l in range(1, ln))
    pos = 0
    for x in s:  # the string's value in base w (w = 1 has no seq_dot)
        pos = pos * w + x
    if ln != w:
        # drop lex-smaller tuples that never use the top symbol w-1
        clean = True
        for i, x in enumerate(s):
            if clean:
                pos -= min(x, w - 1) * (w - 1) ** (ln - 1 - i)
            if x == w - 1:
                clean = False
    return r + pos


def baire_unrank(r: int) -> Seq:
    """Inverse of baire_rank."""
    if r < 0:
        raise ValueError("rank must be >= 0")
    if r == 0:
        return Seq(())
    r -= 1
    w = 1
    while r >= _baire_cap_total(w):
        r -= _baire_cap_total(w)
        w += 1
    ln = 1
    while r >= _baire_weight_count(ln, w):
        r -= _baire_weight_count(ln, w)
        ln += 1
    syms: List[int] = []
    has_top = False
    for i in range(ln):
        rest = ln - 1 - i
        for x in range(w):
            if ln == w or has_top or x == w - 1:
                cnt = w**rest
            else:
                cnt = w**rest - (w - 1) ** rest
            if r < cnt:
                syms.append(x)
                has_top = has_top or x == w - 1
                break
            r -= cnt
        else:
            raise AssertionError("unrank digit search fell through")
    return Seq(tuple(syms))


def _sigma_k(k: int, name: str, apart=_seq_apart, width=None) -> Space:
    """Strings over range(k), ordered by length, then lexicographically."""

    def successors(d: Dot) -> Successors:
        return Successors(tuple(Seq(d.syms + (i,)) for i in range(k)))

    def rank(d: Dot) -> Optional[int]:
        if type(d) is not Seq or any(x >= k for x in d.syms):
            return None
        return (k ** len(d.syms) - 1) // (k - 1) + seq_dot(d, k).n  # n: the string's value

    def unrank(i: int) -> Dot:
        ln = 0
        while i >= k**ln:
            i -= k**ln
            ln += 1
        return nary_seq(NaryInterval(k, i, ln))

    return prefix_tree(name, apart, successors, rank, unrank, True, width=width)


def seq_interval(d: Seq, base: int) -> Tuple[Fraction, Fraction]:
    """The base-b interval a digit string denotes (see dots.seq_dot)."""
    return endpoints(seq_dot(d, base))


def _sigma_k_real(k: int, name: str) -> Space:
    def apart(a: Dot, b: Dot) -> bool:
        return intervals_apart(seq_dot(a, k), seq_dot(b, k))

    return _sigma_k(k, name, apart, width=lambda d: width(seq_dot(d, k)))


def _chain(k: int, name: str) -> Space:
    """The k-point space: k disjoint constant-digit chains under the root,
    ordered by length, then by digit."""

    def successors(d: Dot) -> Successors:
        if not d.syms:
            return Successors(tuple(Seq((i,)) for i in range(k)))
        return Successors((Seq(d.syms + (d.syms[0],)),))

    def rank(d: Dot) -> Optional[int]:
        if type(d) is not Seq:
            return None
        if not d.syms:
            return 0
        x = d.syms[0]
        if x >= k or d.syms != (x,) * len(d.syms):
            return None
        return 1 + (len(d.syms) - 1) * k + x

    def unrank(i: int) -> Dot:
        if i == 0:
            return Seq(())
        ln, x = divmod(i - 1, k)
        return Seq((x,) * (ln + 1))

    def is_isolated(d: Dot) -> bool:
        return bool(d.syms)

    return prefix_tree(name, _seq_apart, successors, rank, unrank, True, is_isolated=is_isolated)


def rational_enum() -> Iterator[Fraction]:
    """Frozen enumeration of the rationals: diagonal over (zigzag num, den)."""
    seen = set()
    for t in itertools.count(0):
        for j in range(t + 1):
            num = zigzag(j)
            den = t - j + 1
            q = Fraction(num, den)
            if q not in seen:
                seen.add(q)
                yield q


def _r_rat() -> Space:
    def enum() -> Iterator[Dot]:
        yield MAX
        rats = Lazy(rational_enum)
        for t in itertools.count(1):
            for i in range(t + 1):
                lo, hi = rats[i], rats[t - i]
                if lo < hi:
                    yield RatInterval(lo, hi)

    return Space("R_rat", _interval_apart, _interval_refines, MAX, enum, width=width)


_STD_BUILDERS: dict = {
    "R_rat": _r_rat,
    "sigma_R": lambda: _interval_space("sigma_R", 2, 3, line=True),
    "sigma_[0,1]": lambda: _interval_space("sigma_[0,1]", 2, 3, line=False),
    "R_bin": lambda: _interval_space("R_bin", 2, 2, line=True),
    "R_ter": lambda: _interval_space("R_ter", 3, 3, line=True),
    "R_dec": lambda: _interval_space("R_dec", 10, 10, line=True),
    "[0,1]_bin": lambda: _interval_space("[0,1]_bin", 2, 2, line=False),
    "[0,1]_ter": lambda: _interval_space("[0,1]_ter", 3, 3, line=False),
    "baire": _baire,
    "cantor": lambda: _sigma_k(2, "cantor"),
    "T2": lambda: _chain(2, "T2"),
    "T3": lambda: _chain(3, "T3"),
    # internal names used by morphisms/encodings/metric:
    "sigma_2": lambda: _sigma_k(2, "sigma_2"),
    "sigma_3": lambda: _sigma_k(3, "sigma_3"),
    "sigma_2_real": lambda: _sigma_k_real(2, "sigma_2_real"),
    "sigma_3_real": lambda: _sigma_k_real(3, "sigma_3_real"),
}

_STD_CACHE: dict = {}
_STD_LOCK = threading.Lock()


def std_space(name: str) -> Space:
    """The named standard space (descriptors are cached and shared)."""
    with _STD_LOCK:
        if name not in _STD_CACHE:
            if name not in _STD_BUILDERS:
                raise ValueError(f"unknown space name {name!r}")
            _STD_CACHE[name] = _STD_BUILDERS[name]()
        return _STD_CACHE[name]


# ---------------------------------------------------------------------------
# Products
# ---------------------------------------------------------------------------


def product(factors) -> Space:
    """The sigma product of a finite list of graded factors: its dots are
    tuples whose coordinates share a grade, refinement is coordinatewise,
    and apartness is the existence of an apart coordinate pair."""
    factors = list(factors)
    n = len(factors)
    if not all(f.graded for f in factors):
        raise ValueError("sigma product needs graded factors")

    def apart(a: Dot, b: Dot) -> bool:
        return any(
            factors[i].apart(a.items[i], b.items[i])
            for i in range(min(len(a.items), len(b.items)))
        )

    def refines(b: Dot, a: Dot) -> bool:
        if len(b.items) < len(a.items):
            return False
        for i in range(len(a.items)):  # a loop, not all(...): this runs on every pair pull
            if not factors[i].refines(b.items[i], a.items[i]):
                return False
        return True

    max_dot = TupleDot(tuple(f.max_dot for f in factors))

    def grade(d: Dot) -> int:
        return factors[0].grade(d.items[0])

    def succs(d: Dot) -> Successors:
        per = [factors[i].successors(d.items[i]) for i in range(n)]
        free = sum(s.unbounded for s in per)
        combos = tuple(itertools.product(*(s.dots for s in per if not s.unbounded)))
        if not free:
            return Successors(tuple(map(TupleDot, combos)))

        def more(k: int) -> Dot:
            # each finite combination in turn, under the diagonal over the
            # unbounded coordinates' successor indices
            q, r = divmod(k, len(combos))
            idxs, fixed = iter(_tuple_unrank(q, free)), iter(combos[r])
            return TupleDot(tuple(s.more(next(idxs)) if s.unbounded else next(fixed) for s in per))

        return Successors(more=more)

    def preds(d: Dot) -> Tuple[Dot, ...]:
        per = [factors[i].predecessors(d.items[i]) for i in range(n)]
        return tuple(TupleDot(c) for c in itertools.product(*per))

    width = None
    if all(f.interval_like for f in factors):
        width = lambda d: max(factors[i].width(d.items[i]) for i in range(n))  # noqa: E731

    def enum() -> Iterator[Dot]:
        yield max_dot
        for t in itertools.count(1):
            for idxs in _compositions(t, n):
                items = tuple(factors[i].enumerate_dot(idxs[i]) for i in range(n))
                d = TupleDot(items)
                if d == max_dot:
                    continue
                gs = {factors[i].grade(items[i]) for i in range(n)}
                if len(gs) != 1:
                    continue
                yield d

    return Space(
        "product[sigma](" + ",".join(f.name for f in factors) + ")",
        apart,
        refines,
        max_dot,
        enum,
        grade=grade, successors=succs, predecessors=preds,
        finitely_branching=all(f.finitely_branching for f in factors),
        width=width,
    )


def _compositions(total: int, n: int) -> Iterator[Tuple[int, ...]]:
    """All n-tuples of naturals summing to total, lexicographic: the gaps
    around n - 1 bars among total + n - 1 places (stars and bars)."""
    for bars in itertools.combinations(range(total + n - 1), n - 1):
        yield tuple(b - a - 1 for a, b in itertools.pairwise((-1, *bars, total + n - 1)))


def _tuple_unrank(k: int, n: int) -> Tuple[int, ...]:
    """The k-th n-tuple of naturals in the diagonal-by-total order, each part
    bisected: C(s + r, r) r-tuples have total at most s."""
    t = bisect_right(range(k + 1), k, key=lambda t: math.comb(t + n, n))
    k -= math.comb(t + n - 1, n)  # the tuples of smaller total
    out = []
    for r in range(n - 1, 0, -1):  # r parts follow this one, which is t - s
        s = bisect_left(range(t + 1), math.comb(t + r, r) - k, key=lambda s: math.comb(s + r, r))
        k -= math.comb(t + r, r) - math.comb(s + r, r)  # the tuples with a smaller part here
        out.append(t - s)
        t = s
    return (*out, t)


# ---------------------------------------------------------------------------
# Metric-to-spread
# ---------------------------------------------------------------------------

BELOW = "below"
ABOVE = "above"


def rational_points_oracle(
    points: Callable[[int], Fraction]
) -> Callable[[int, int, Fraction, Fraction], str]:
    """Exact oracle for a rational dense point enumeration: BELOW iff d < q."""

    def compare(i: int, j: int, q: Fraction, slack: Fraction) -> str:
        d = abs(points(i) - points(j))
        return BELOW if d < q else ABOVE

    return compare


def unit_interval_dense_points(i: int) -> Fraction:
    """Frozen dense enumeration of [0,1]: 0, 1, then odd k/2^j by level."""
    if i == 0:
        return Fraction(0)
    if i == 1:
        return Fraction(1)
    j = (i - 1).bit_length()  # level j holds the 2^(j-1) indices from 2^(j-1) + 1
    return Fraction(2 * (i - 1) - 2**j + 1, 2**j)


def metric_to_spread(oracle: Callable[[int, int, Fraction, Fraction], str]) -> Space:
    """The spread of dyadic-radius balls over an oracle-given metric on an
    enumerated dense point set a_0, a_1, ...: oracle(i, j, q, slack) answers
    BELOW when d(a_i,a_j) < q, or ABOVE when d(a_i,a_j) > q - slack (either
    answer is acceptable in the overlap); any other answer is a SpaceDefect.

    refines(Ball(n,s), Ball(m,t)) is decided by one oracle call with
    q = 2^-t - 2^-s (slack 2^-2s); apart with q = 2^-s + 2^-t + 2^-s-t
    (slack 2^-s-t-1).  Answers are memoized so both relations are stable,
    and cross-checked for consistency.
    """
    memo: dict = {}
    bounds: dict = {}  # (i,j) -> [max certified lower bound, min certified upper bound]
    lock = threading.RLock()

    def ask(i: int, j: int, s: int, t: int, is_ref: bool) -> str:
        # q and slack are determined by (s, t, is_ref); keying the memo on
        # the integer exponents keeps cache hits free of Fraction hashing.
        if i > j:
            i, j = j, i
        key = (i, j, s, t, is_ref)
        with lock:
            if key in memo:
                return memo[key]
            if is_ref:
                q = Fraction(1, 2**s) - Fraction(1, 2**t)
                slack = Fraction(1, 2 ** (2 * t))
            else:
                q = (
                    Fraction(1, 2**s)
                    + Fraction(1, 2**t)
                    + Fraction(1, 2 ** (s + t))
                )
                slack = Fraction(1, 2 ** (s + t + 1))
            ans = oracle(i, j, q, slack)
            if ans not in (BELOW, ABOVE):
                raise SpaceDefect(f"oracle answer {ans!r} not below/above")
            # BELOW(q) certifies d < q; ABOVE(q) certifies d > q - slack.
            # Keep the tightest certified bounds per pair; any crossing is
            # an inconsistent oracle.
            lohi = bounds.setdefault((i, j), [None, None])
            if ans == BELOW:
                if lohi[0] is not None and q <= lohi[0]:
                    raise SpaceDefect(
                        f"inconsistent oracle on pair ({i},{j}): "
                        f"below {q} vs certified lower bound {lohi[0]}"
                    )
                if lohi[1] is None or q < lohi[1]:
                    lohi[1] = q
            else:
                low = q - slack
                if lohi[1] is not None and lohi[1] <= low:
                    raise SpaceDefect(
                        f"inconsistent oracle on pair ({i},{j}): "
                        f"above {q}-{slack} vs certified upper bound {lohi[1]}"
                    )
                if lohi[0] is None or low > lohi[0]:
                    lohi[0] = low
            memo[key] = ans
            return ans

    def refines(b: Dot, a: Dot) -> bool:
        if isinstance(a, MaxDot):
            return True
        if isinstance(b, MaxDot):
            return False
        if b == a:
            return True
        if b.s <= a.s:
            return False
        return ask(b.i, a.i, a.s, b.s, True) == BELOW

    def apart(a: Dot, b: Dot) -> bool:
        if isinstance(a, MaxDot) or isinstance(b, MaxDot):
            return False
        if a == b:
            return False
        return ask(a.i, b.i, a.s, b.s, False) == ABOVE

    def enum() -> Iterator[Dot]:
        yield MAX
        for t in itertools.count(0):
            for s in range(t + 1):
                yield Ball(t - s, s)

    return Space("metric_spread", apart, refines, MAX, enum)


# ---------------------------------------------------------------------------
# Isolated-point extension
# ---------------------------------------------------------------------------


def extend_with_isolated_point(space: Space) -> Space:
    """Add the chain iso(1) > iso(2) > ... under the maximal dot, apart from
    every non-maximal original dot; grades are preserved, grd(iso(k)) = k."""
    if not space.graded:
        raise ValueError("isolated-point extension needs a graded space")
    max_dot = space.max_dot

    def apart(a: Dot, b: Dot) -> bool:
        ia, ib = isinstance(a, Isolated), isinstance(b, Isolated)
        if ia and ib:
            return False
        if ia:
            return b != max_dot
        if ib:
            return a != max_dot
        return space.apart(a, b)

    def refines(b: Dot, a: Dot) -> bool:
        ia, ib = isinstance(a, Isolated), isinstance(b, Isolated)
        if ia and ib:
            return b.k >= a.k
        if ib:
            return a == max_dot
        if ia:
            return False
        return space.refines(b, a)

    def grade(d: Dot) -> int:
        return d.k if isinstance(d, Isolated) else space.grade(d)

    def succs(d: Dot) -> Successors:
        if isinstance(d, Isolated):
            return Successors((Isolated(d.k + 1),))
        s = space.successors(d)
        if d == max_dot:
            if s.unbounded:
                return Successors(more=lambda k: Isolated(1) if k == 0 else s.more(k - 1))
            return Successors(s.dots + (Isolated(1),))
        return s

    def preds(d: Dot) -> Tuple[Dot, ...]:
        if isinstance(d, Isolated):
            return (max_dot,) if d.k == 1 else (Isolated(d.k - 1),)
        return space._predecessors(d)  # the inner hook: one Space.predecessors call per dot

    # the order interleaves: inner dot r at 2r, iso(k) at 2k - 1
    if space.rank is not None:

        def rank(d: Dot) -> Optional[int]:
            if isinstance(d, Isolated):
                return 2 * d.k - 1
            r = space.rank(d)
            return None if r is None else 2 * r

        def unrank(i: int) -> Dot:
            return Isolated((i + 1) // 2) if i % 2 else space.unrank(i // 2)

        order = dict(rank=rank, unrank=unrank)
    else:

        def enum() -> Iterator[Dot]:
            for i in itertools.count(1):
                yield space.enumerate_dot(i - 1)
                yield Isolated(i)

        order = dict(enum_factory=enum)

    def is_isolated(d: Dot) -> bool:
        return isinstance(d, Isolated) or space.is_isolated(d)

    def level_row(g: int) -> tuple:
        row, rest = (None, space.level(g)) if space.level_row is None else space.level_row(g)
        return row, rest + (Isolated(g),)

    return Space(
        space.name + "^+",
        apart,
        refines,
        max_dot,
        grade=grade, successors=succs, predecessors=preds,
        finitely_branching=space.finitely_branching,
        width=space._width,
        is_isolated=is_isolated,
        level_row=level_row if space.finitely_branching else None,
        **order,
    )
