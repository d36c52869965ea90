"""Star-finiteness, splitting depths, three-value separating functions and
the induced metric on star-finite fans.

The central construction: for two apart same-grade dots a # b, build a
morphism h into the ternary digit space whose realized value is 0 on every
point through a, 1 on every point through b, and inside [1/3, 2/3] on points
eventually apart from both.  Summing countably many such separators with
weights 2^-m yields a metric compatible with the apartness topology.
"""

from __future__ import annotations

import threading
import weakref
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, Iterator, List, Tuple

from .dots import (
    Dot,
    DyadicInterval,
    Isolated,
    MaxDot,
    NaryInterval,
    Seq,
    endpoints,
    grid_ancestors,
    interval_contains,
    is_interval,
    meeting_segment,
    merged_segments,
)
from .points import Point, successor_normalize
from .spaces import Lazy, Space, SpaceDefect, SpraidInfo, Successors, seq_interval

MAX_LEVEL_GRADE = 9  # the deepest level an evaluator's separators split at
DIGIT_CAP = 4  # ternary digits read per separator term


class MetricDefect(Exception):
    """A precondition of the metric machinery failed."""


# ---------------------------------------------------------------------------
# Stars: same-grade touchers.


def star_dots(space: Space, d: Dot) -> Tuple[Dot, ...]:
    """All same-grade dots touching d (including d itself)."""
    if space.spraid_info is None:
        raise SpaceDefect(f"{space.name}: stars need a graded space")
    if d == space.max_dot:
        return (d,)
    if isinstance(d, Isolated):
        # The isolated chain has one dot per grade and touches nothing else.
        return (d,)
    if isinstance(d, DyadicInterval):
        # Overlapping dyadic grid: [n, n+2] scaled by 2^-m meets [n', n'+2]
        # exactly when |n - n'| <= 2.  Validity is containment in the root.
        cands = [DyadicInterval(d.n + k, d.m) for k in range(-2, 3)]
    elif isinstance(d, NaryInterval):
        cands = [NaryInterval(d.base, d.n + k, d.m) for k in (-1, 0, 1)]
    elif space.spraid_info.finitely_branching:
        g = space.grade(d)
        return tuple(e for e in space.level(g) if space.touch(d, e))
    else:
        raise SpaceDefect(f"{space.name}: no star rule for {d!r}")
    root = space.max_dot
    out = []
    for c in cands:
        if isinstance(root, MaxDot) or interval_contains(root, c):
            if not space.apart(c, d):
                out.append(c)
    return tuple(out)


def star_set(space: Space, n: int, a: Dot) -> Tuple[Dot, ...]:
    """The same-grade n-star: dots reachable from a by n touch steps at the
    grade of a (the 1-star is the plain star)."""
    if n < 1:
        raise ValueError("star index must be >= 1")
    cur = {a}
    for _ in range(n - 1):
        nxt = set(cur)
        for c in cur:
            nxt.update(star_dots(space, c))
        cur = nxt
    out = set()
    for c in cur:
        out.update(star_dots(space, c))
    return tuple(sorted(out, key=repr))


def star_relation(space: Space, n: int, a: Dot, b: Dot) -> bool:
    """The iterated near-ness relation: reachable in n touch steps, the first
    n-1 staying at the grade of the coarser dot."""
    if space.grade(b) < space.grade(a):
        a, b = b, a
    near = star_set(space, n - 1, a) if n > 1 else (a,)
    return any(space.touch(c, b) for c in near)


@dataclass
class StarReport:
    space: str
    checked: int
    max_star: int
    max_per_side: int

    def __str__(self) -> str:
        return (
            f"star-finite[{self.space}]: checked={self.checked} "
            f"max_star={self.max_star} max_per_side={self.max_per_side}"
        )


def is_star_finite(space: Space, depth: int) -> StarReport:
    """Examine the first `depth` enumerated dots; report the largest star and
    the largest one-sided star (dots extending left / right of the dot)."""
    max_star = 0
    max_side = 0
    checked = 0
    for i in range(depth):
        d = space.enumerate_dot(i)
        if d == space.max_dot:
            continue
        st = star_dots(space, d)
        checked += 1
        max_star = max(max_star, len(st))
        if is_interval(d):
            dlo, dhi = endpoints(d)
            left = sum(1 for e in st if is_interval(e) and endpoints(e)[0] <= dlo)
            right = sum(1 for e in st if is_interval(e) and endpoints(e)[1] >= dhi)
            max_side = max(max_side, left, right)
        else:
            max_side = max(max_side, len(st))
    return StarReport(space.name, checked, max_star, max_side)


# ---------------------------------------------------------------------------
# Touch sets: fast "does c touch anything in S" predicates.


class _TouchSet:
    """A finite dot set with a fast touch test: its interval dots as merged
    integer segments, the other dots scanned.  An isolated dot touches only
    the isolated dots and the root."""

    def __init__(self, space: Space, dots):
        self.space = space
        self.dots = tuple(dots)
        self.segs = merged_segments(filter(is_interval, self.dots))
        self.has_iso = any(isinstance(d, Isolated) for d in self.dots)
        self.other = tuple(d for d in self.dots if not (is_interval(d) or isinstance(d, Isolated)))

    def touches(self, c: Dot) -> bool:
        if not is_interval(c):
            return any(self.space.touch(c, d) for d in self.dots)
        return (
            meeting_segment(self.segs, c) is not None
            or self.has_iso and c == self.space.max_dot
            or any(self.space.touch(c, d) for d in self.other)
        )


# ---------------------------------------------------------------------------
# Splitting depth.


def splitting_depth(fann: Space, A, B, max_depth: int = 32) -> int:
    """The least grade N at which the touchers of A and the touchers of B
    are apart from each other, searched from the deepest input grade up."""
    A, B = tuple(A), tuple(B)
    sa = _TouchSet(fann, A)
    if any(sa.touches(b) for b in B):
        raise MetricDefect("splitting needs apart input sets")
    grades = [fann.grade(d) for d in A + B]
    start = max(grades) if grades else 1
    sb = _TouchSet(fann, B)
    for N in range(max(start, 1), max_depth + 1):
        level = fann.level(N)
        ta = [c for c in level if sa.touches(c)]
        tbset = _TouchSet(fann, [c for c in level if sb.touches(c)])
        if not any(tbset.touches(c) for c in ta):
            return N
    raise MetricDefect(
        f"no splitting depth for {len(A)} vs {len(B)} dots within grade {max_depth}"
    )


# ---------------------------------------------------------------------------
# The point-relative subfan of a star-finite spread.


def subfan_Wx(space: Space, x: Point, depth: int) -> Space:
    """The fan of dots near the point x: level n holds the grade-n dots
    touching x's grade-n dot, plus one filler refinement under each
    dead-end member so every branch stays infinite."""
    if space.spraid_info is None:
        raise SpaceDefect(f"{space.name}: subfans need a graded space")
    xn = successor_normalize(x)
    levels: List[Tuple[Dot, ...]] = [(space.max_dot,)]
    succ_map: Dict[Dot, List[Dot]] = {}
    for n in range(1, depth + 1):
        target = xn.dot(n)
        if space.grade(target) != n:
            raise MetricDefect("subfan needs a successor-normalized point")
        near = list(star_set(space, 1, target))
        members: List[Dot] = []
        seen = set()
        for a in levels[n - 1]:
            children = [b for b in near if space.strictly_refines(b, a)]
            if not children:
                # dead end: keep the least-enumerated strict refinement alive
                succs = space.successors(a)
                if succs.unbounded:
                    raise SpaceDefect(
                        f"{space.name}: subfan needs bounded branching at {a!r}"
                    )
                children = [min(succs.dots, key=space.index_of)]
            succ_map[a] = children
            for b in children:
                if b not in seen:
                    seen.add(b)
                    members.append(b)
        levels.append(tuple(members))
    member_set = {d for lvl in levels for d in lvl}

    def successors(d: Dot):
        if d not in succ_map:
            if d in member_set:
                raise SpaceDefect(f"subfan built to depth {depth} only")
            raise SpaceDefect(f"{d!r} is not a subfan member")
        return Successors(tuple(succ_map[d]))

    def predecessors(d: Dot) -> Tuple[Dot, ...]:
        return tuple(p for p in space.predecessors(d) if p in member_set)

    def enum() -> Iterator[Dot]:
        for lvl in levels:
            yield from lvl

    sub = Space(
        f"W[{x.name or 'x'}]({space.name})",
        space._apart,
        space._refines,
        space.max_dot,
        enum,
        SpraidInfo(space.grade, successors, predecessors, True),
        width=space._width,
        is_isolated=space.is_isolated,
    )
    sub.wx_levels = tuple(levels)
    return sub


class _GenSet:
    """A same-grade generator set with a fast 'does c refine a member' test:
    a grid dot finds its few ancestors at the set's exponent through
    grid_ancestors."""

    def __init__(self, space: Space, dots):
        self.space = space
        self.dots = frozenset(dots)
        self.iso = tuple(d for d in self.dots if isinstance(d, Isolated))
        # same-grade grid dots share their exponent; no other dot has an m
        self.m = next((d.m for d in self.dots if hasattr(d, "m")), None)

    def contains_refiner(self, c: Dot) -> bool:
        if c in self.dots:
            return True
        if isinstance(c, Isolated):
            return any(self.space.refines(c, x) for x in self.iso)
        if self.m is not None and (ancestors := grid_ancestors(c, self.m)) is not None:
            return any(a in self.dots for a in ancestors)
        return any(self.space.refines(c, x) for x in self.dots)


# ---------------------------------------------------------------------------
# Ternary zone systems: the separating function.

_CONE_A = -1
_CONE_B = 3


def _shift(i: Tuple[int, ...], step: int):
    """The zone index step places after i (-1: the predecessor, +1: the
    successor) in the lexicographic order of its level, or the cone beyond
    the level's first or last index."""
    v = 0
    for s in i:
        v = 3 * v + s
    v += step
    if v < 0:
        return _CONE_A
    if v >= 3 ** len(i):
        return _CONE_B
    return tuple(v // 3**k % 3 for k in reversed(range(len(i))))


class UrysohnFunction:
    """A three-value separating function between two apart same-grade dots
    a and b, which is its ternary zone system.  Level n indexes zones by
    {0,1,2}^n; the cone under a sits before the first index of every level
    and the cone under b after the last one.  digits(c), the zone index of
    the dot c, is a dot of sigma_3_real, and value_bounds reads the [0,1]
    value at a point off those digits.  Subclasses decide membership in the
    child zone head + (s,) through _in_child and give through
    grade_for_digits the grade k digits need; member() answers the cones
    and the root and memoizes."""

    def __init__(self, space: Space, a: Dot, b: Dot):
        if space.spraid_info is None:
            raise MetricDefect("zone systems need a graded space")
        if not space.apart(a, b):
            raise MetricDefect("zone endpoints must be apart")
        if space.grade(a) != space.grade(b):
            raise MetricDefect("zone endpoints must share a grade")
        self.space = space
        self.a = a
        self.b = b
        self.M = space.grade(a)
        self.pending_set: List[Tuple[Dot, int]] = []
        self._mem: Dict[Tuple[Dot, Tuple[int, ...]], bool] = {}
        self._lock = threading.RLock()

    # -- zone membership ----------------------------------------------------

    def member(self, c: Dot, i) -> bool:
        if i == _CONE_A:
            return self.space.refines(c, self.a)
        if i == _CONE_B:
            return self.space.refines(c, self.b)
        if i == ():
            return True
        key = (c, i)
        if key in self._mem:
            return self._mem[key]
        self._mem[key] = False  # cut recursive re-entry on the same query
        res = self._in_child(c, i[:-1], i[-1])
        self._mem[key] = res
        return res

    def pending(self) -> Tuple[Tuple[Dot, int], ...]:
        """The dots (with their digit counts) whose classification the
        depth budget cut off."""
        return tuple(self.pending_set)

    def value_bounds(self, x: Point, digit_goal: int) -> Tuple[Fraction, Fraction]:
        """Sound rational bounds on the realized value at the point x,
        walking the stream until digit_goal ternary digits are available or
        x's dots reach the grade that many digits need (fewer digits widen
        the bounds)."""
        needed = self.grade_for_digits(digit_goal)
        best = Seq(())
        for k in range(x.steps_for_grade(needed) + 2):
            d = x.dot(k)
            got = self.digits(d)
            if len(got.syms) > len(best.syms):
                best = got
            if len(best.syms) >= digit_goal:
                break
            if self.space.grade(d) >= needed:
                break
        return seq_interval(best, 3)


# ---------------------------------------------------------------------------
# Separating functions on fanns (zone construction via splitting depths).


class _FanZones(UrysohnFunction):
    """The zone system on a fann.  Each refinement step takes the grade-t
    members of the two neighbouring zones, finds a splitting depth N, and
    classifies the grade-N dots into near-left / middle / near-right."""

    def __init__(self, fann: Space, a: Dot, b: Dot, max_level_grade: int):
        if fann.spraid_info is None or not fann.spraid_info.finitely_branching:
            raise MetricDefect("zone systems need a finitely branching space")
        super().__init__(fann, a, b)
        if self.M < 1:
            raise MetricDefect("zone endpoints must be proper dots")
        self.max_level_grade = max_level_grade
        self.t: List[int] = [self.M]
        self.alive: Dict[int, Tuple[Tuple[int, ...], ...]] = {0: ((),)}
        self.X: Dict[Tuple[Tuple[int, ...], int], _GenSet] = {}
        self.exhausted = False

    def _in_child(self, c: Dot, head: Tuple[int, ...], s: int) -> bool:
        gens = self.X.get((head, s))
        return (
            gens is not None
            and self.member(c, head)
            and gens.contains_refiner(c)
        )

    def _zone_dots(self, i, level) -> Tuple[Dot, ...]:
        return tuple(c for c in level if self.member(c, i))

    # -- level construction --------------------------------------------------

    def ensure_level(self, n: int) -> None:
        with self._lock:
            while len(self.t) <= n and not self.exhausted:
                self._build_next()

    def _build_next(self) -> None:
        n = len(self.t) - 1
        t = self.t[n]
        if t > self.max_level_grade:
            self.exhausted = True
            return
        level_t = self.space.level(t)
        depths = []
        for i in self.alive[n]:
            A = self._zone_dots(_shift(i, -1), level_t)
            B = self._zone_dots(_shift(i, 1), level_t)
            try:
                if A and B:
                    N = splitting_depth(
                        self.space, A, B, max_depth=self.max_level_grade
                    )
                    N = max(N, t + 1)
                else:
                    N = t + 1
            except MetricDefect:
                self.exhausted = True
                return
            level_n = self.space.level(N)
            sa = _TouchSet(self.space, A)
            sb = _TouchSet(self.space, B)
            parts: Tuple[List[Dot], ...] = ([], [], [])  # near a, middle, near b
            for c in level_n:
                parts[0 if sa.touches(c) else 2 if sb.touches(c) else 1].append(c)
            for s in range(3):
                self.X[(i, s)] = _GenSet(self.space, parts[s])
            depths.append(N)
        t_next = max(depths) if depths else t + 1
        level_next = self.space.level(t_next) if t_next <= self.max_level_grade else ()
        alive_next = []
        for i in self.alive[n]:
            for s in range(3):
                child = i + (s,)
                if any(self.member(c, child) for c in level_next):
                    alive_next.append(child)
        self.t.append(t_next)
        self.alive[n + 1] = tuple(alive_next)

    # -- the digit map -------------------------------------------------------

    def digits(self, c: Dot) -> Seq:
        i: Tuple[int, ...] = ()  # the zone index of c so far: its digits
        g = self.space.grade(c)
        while True:
            n = len(i)
            if g <= self.t[n]:
                break
            self.ensure_level(n + 1)
            if len(self.t) <= n + 1:
                break
            hits = [s for s in (0, 1, 2) if self.member(c, i + (s,))]
            if len(hits) != 1:
                break
            i = i + (hits[0],)
        return Seq(i)

    def grade_for_digits(self, k: int) -> int:
        self.ensure_level(k)
        idx = min(k, len(self.t) - 1)
        penalty = 3 * max(0, k - (len(self.t) - 1))
        return self.t[idx] + 1 + penalty


# ---------------------------------------------------------------------------
# Separating functions on star-finite spreads (star-based zones, no level
# sets needed, classification is dot-local and may stay pending).


class _SpreadZones(UrysohnFunction):
    """The zone system on a star-finite spread.  Zone membership is decided
    from a dot's finite star and its ancestors; a security predicate (the
    whole 2-star already classified one level up) gates refinement."""

    def __init__(self, space: Space, a: Dot, b: Dot, depth_budget: int):
        super().__init__(space, a, b)
        self.depth_budget = depth_budget
        self._sec: Dict[Tuple[Dot, int], bool] = {}
        self._zone: Dict[Tuple[Dot, int], bool] = {}
        self._star: Dict[Dot, Tuple[Dot, ...]] = {}

    # -- stars and ancestors --------------------------------------------------

    def star(self, d: Dot) -> Tuple[Dot, ...]:
        if d not in self._star:
            self._star[d] = star_dots(self.space, d)
        return self._star[d]

    def star2(self, d: Dot) -> Tuple[Dot, ...]:
        out = set()
        for e in self.star(d):
            out.update(self.star(e))
        return tuple(out)

    def _ancestors(self, c: Dot) -> Tuple[Dot, ...]:
        """c and everything above it (the maximal dot excluded)."""
        out = [c]
        seen = {c}
        queue = [c]
        while queue:
            d = queue.pop()
            for p in self.space.predecessors(d):
                if p != self.space.max_dot and p not in seen:
                    seen.add(p)
                    out.append(p)
                    queue.append(p)
        return tuple(out)

    # -- zone membership --------------------------------------------------------

    def _touch_zone(self, d: Dot, j) -> bool:
        return any(self.member(e, j) for e in self.star(d))

    def _touch2_zone(self, d: Dot, j) -> bool:
        return any(self.member(e, j) for e in self.star2(d))

    def sec(self, c: Dot, n: int) -> bool:
        """Security at stage n: the whole 2-star sits in stage-n zones."""
        if self.space.grade(c) < self.M:
            return False
        if n == 0:
            return True
        key = (c, n)
        if key not in self._sec:
            self._sec[key] = all(self.has_zone(e, n) for e in self.star2(c))
        return self._sec[key]

    def has_zone(self, d: Dot, n: int) -> bool:
        def rec(i: Tuple[int, ...]) -> bool:
            if len(i) == n:
                return True
            return any(self.member(d, i + (s,)) and rec(i + (s,)) for s in (0, 1, 2))

        if (d, n) not in self._zone:
            self._zone[(d, n)] = rec(())
        return self._zone[(d, n)]

    def _in_child(self, c: Dot, head: Tuple[int, ...], s: int) -> bool:
        n = len(head)
        left, right = _shift(head, -1), _shift(head, 1)
        if s == 0 or s == 2:
            near, far = (left, right) if s == 0 else (right, left)
            return any(
                self.member(d, head)
                and self.sec(d, n)
                and self._touch_zone(d, near)
                and not self._touch2_zone(d, far)
                for d in self._ancestors(c)
            )
        return (
            self.member(c, head)
            and self.sec(c, n)
            and not self.member(c, head + (0,))
            and not self.member(c, head + (2,))
            and not self._touch_zone(c, left)
            and not self._touch_zone(c, right)
        )

    # -- the digit map -----------------------------------------------------------

    def digits(self, c: Dot) -> Seq:
        i: Tuple[int, ...] = ()  # the zone index of c so far: its digits
        for _ in range(self.depth_budget):
            hits = [s for s in (0, 1, 2) if self.member(c, i + (s,))]
            if len(hits) != 1:
                break
            i = i + (hits[0],)
        else:  # the budget ran out with the digit string still going
            with self._lock:
                self.pending_set.append((c, len(i)))
        return Seq(i)

    def grade_for_digits(self, k: int) -> int:
        return self.M + 3 * k + 2


def urysohn_fan(
    fann: Space, a: Dot, b: Dot, max_level_grade: int = 12
) -> UrysohnFunction:
    """The separating function between two apart same-grade dots of a
    finitely branching space, built from level-set splittings."""
    return _FanZones(fann, a, b, max_level_grade)


def urysohn_spread(
    space: Space, a: Dot, b: Dot, depth_budget: int = 3
) -> UrysohnFunction:
    """The separating function on a star-finite spread; classification is
    dot-local, and dots whose digit string was cut off by the depth budget
    are surfaced through pending()."""
    return _SpreadZones(space, a, b, depth_budget)


# ---------------------------------------------------------------------------
# The induced metric.


def _pair_stream(space: Space) -> Iterator[Tuple[Dot, Dot]]:
    """The frozen enumeration of separator endpoint pairs: grade by grade up
    to MAX_LEVEL_GRADE, past which no separator splits, first (isolated,
    regular) pairs in level order, then apart regular pairs in level order.
    Touching pairs separate nothing and are skipped."""
    for g in range(1, MAX_LEVEL_GRADE + 1):
        level = space.level(g)
        iso = [d for d in level if space.is_isolated(d)]
        reg = [d for d in level if d not in iso]
        for i in iso:
            for c in reg:
                if space.apart(i, c):
                    yield (i, c)
        for j, c in enumerate(reg):
            for d in reg[j + 1 :]:
                if space.apart(c, d):
                    yield (c, d)


class MetricEvaluator:
    """The metric d(x,y) = sum_m 2^-m |f_m(x) - f_m(y)| over the frozen
    enumeration of separator pairs of a star-finite fann; every separator
    splits levels down to MAX_LEVEL_GRADE."""

    def __init__(self, space: Space):
        if space.spraid_info is None or not space.spraid_info.finitely_branching:
            raise MetricDefect("the metric needs a finitely branching space")
        self.space = space
        self._pairs = Lazy(lambda: _pair_stream(space))
        self._seps: Dict[int, UrysohnFunction] = {}
        # per point: (m, digits) -> value bounds; an entry dies with its point
        self._values: "weakref.WeakKeyDictionary[Point, Dict]" = weakref.WeakKeyDictionary()
        self._lock = threading.RLock()

    def pair(self, m: int) -> Tuple[Dot, Dot]:
        try:
            return self._pairs[m]
        except IndexError:
            raise MetricDefect(
                f"{self.space.name}: no separator pair {m} up to grade {MAX_LEVEL_GRADE}"
            ) from None

    def separator(self, m: int) -> UrysohnFunction:
        with self._lock:
            if m not in self._seps:
                a, b = self.pair(m)
                self._seps[m] = urysohn_fan(self.space, a, b, MAX_LEVEL_GRADE)
            return self._seps[m]

    def values_of(self, x: Point) -> Callable[[int, int], Tuple[Fraction, Fraction]]:
        """value(m, digits): bounds on f_m(x) to that many ternary digits,
        cached for as long as x lives."""
        with self._lock:
            table = self._values.get(x)
            if table is None:
                table = self._values[x] = {}

        def value(m: int, digits: int) -> Tuple[Fraction, Fraction]:
            key = (m, digits)
            if key not in table:
                table[key] = self.separator(m).value_bounds(x, digits)
            return table[key]

        return value


def metric_digit_goal(precision_bits: int) -> int:
    """Ternary digits per separator term for the requested output width: the
    least k >= 1 with 3^k >= 2^(precision_bits+2)."""
    k = max(1, precision_bits * 41 // 65)  # 41/65 < log(2)/log(3): from below
    while 3**k < 1 << max(0, precision_bits + 2):
        k += 1
    return k


def evaluate_metric(
    ev: MetricEvaluator, x: Point, y: Point, precision_bits: int
) -> Tuple[Fraction, Fraction]:
    """Sound rational bounds [lo, hi] on d(x,y).

    Uses precision_bits + 1 series terms plus an exact tail bound.  The
    output width is at most 2^-(precision_bits-2) whenever the per-term digit
    goal fits under DIGIT_CAP (ceil(0.631*(precision_bits+2)) <= DIGIT_CAP);
    beyond that the bounds stay sound but may be wider."""
    terms = precision_bits + 1
    goal = min(metric_digit_goal(precision_bits), DIGIT_CAP)
    lo = Fraction(0)
    hi = Fraction(0)
    fx_of, fy_of = ev.values_of(x), ev.values_of(y)
    for m in range(terms):
        fx = fx_of(m, goal)
        fy = fy_of(m, goal)
        dlo = max(Fraction(0), fx[0] - fy[1], fy[0] - fx[1])
        dhi = min(Fraction(1), max(fx[1] - fy[0], fy[1] - fx[0]))
        w = Fraction(1, 2**m)
        lo += w * dlo
        hi += w * dhi
    hi += Fraction(2, 2**terms)  # remaining terms are at most sum 2^-m
    return (lo, hi)
