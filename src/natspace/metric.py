"""Star-finiteness, splitting depths, three-value separating functions and
the induced metric on star-finite fans.

The central construction: for two apart same-grade dots a # b, build a
morphism h into the ternary digit space whose realized value is 0 on every
point through a, 1 on every point through b, and inside [1/3, 2/3] on points
eventually apart from both.  Summing countably many such separators with
weights 2^-m yields a metric compatible with the apartness topology.
"""

from __future__ import annotations

import itertools
import threading
import weakref
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, Iterator, List, Optional, Set, Tuple

from .dots import (
    Dot,
    MaxDot,
    Seq,
    endpoints,
    grid_neighbours,
    int_endpoints,
    interval_contains,
    interval_row,
    is_interval,
    meeting_segment,
    merged_segments,
    nary_seq,
    row_runs,
    row_segments,
    row_span,
    seq_dot,
)
from .points import Point, successor_normalize
from .spaces import Lazy, Space, SpaceDefect, Successors, seq_interval

MAX_LEVEL_GRADE = 9  # the deepest level an evaluator's separators split at
DIGIT_CAP = 4  # ternary digits read per separator term


class MetricDefect(Exception):
    """A precondition of the metric machinery failed."""


# ---------------------------------------------------------------------------
# Stars: same-grade touchers.


def star_dots(space: Space, d: Dot) -> Tuple[Dot, ...]:
    """All same-grade dots touching d (including d itself)."""
    if not space.graded:
        raise SpaceDefect(f"{space.name}: stars need a graded space")
    if d == space.max_dot or space.is_isolated(d):
        # an isolated point's chain has one dot per grade and touches nothing else
        return (d,)
    cands = grid_neighbours(d)
    if cands is None and space.finitely_branching:
        return tuple(e for e in space.level(space.grade(d)) if space.touch(d, e))
    if cands is None:
        raise SpaceDefect(f"{space.name}: no star rule for {d!r}")
    root = space.max_dot
    return tuple(
        c for c in cands
        if (isinstance(root, MaxDot) or interval_contains(root, c)) and not space.apart(c, d)
    )


def star_set(space: Space, n: int, a: Dot) -> Tuple[Dot, ...]:
    """The same-grade n-star: dots reachable from a by n touch steps at the
    grade of a (the 1-star is the plain star)."""
    if n < 1:
        raise ValueError("star index must be >= 1")
    cur = {a}
    for _ in range(n):  # every dot is in its own star
        cur = {e for c in cur for e in star_dots(space, c)}
    return tuple(sorted(cur, key=repr))


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
    max_star = max_side = checked = 0
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


def _meet(xs, ys) -> List[Tuple[int, int]]:
    """The positions two sorted lists of disjoint runs share, as runs."""
    return [(max(a, c), min(b, d)) for a, b in xs for c, d in ys if max(a, c) < min(b, d)]


class _TouchSet:
    """A finite dot set with a fast touch test: its interval dots as integer
    segments, the other dots asked through space.touch.  A set of one
    level's dots holds its _level_row dots as runs (row, runs) and only the
    dots that are no interval as dots."""

    def __init__(self, space: Space, dots, row=None, runs=()):
        self.space, self.dots, self.row, self.runs = space, tuple(dots), row, runs
        self.segs = (
            row_segments(row, runs) if runs else merged_segments(filter(is_interval, self.dots))
        )
        self.other = tuple(d for d in self.dots if not is_interval(d))
        sample = self.dots + ((row[0][runs[0][0]],) if runs else ())  # a dot of each grade held
        self.grade = max(map(space.grade, sample), default=0)

    def __bool__(self) -> bool:
        return bool(self.runs or self.dots)

    def touches(self, c: Dot) -> bool:
        if not is_interval(c):
            return any(self.space.touch(c, d) for d in self.dots)
        return meeting_segment(self.segs, c) is not None or any(
            self.space.touch(c, d) for d in self.other
        )

    def meets(self, other: "_TouchSet") -> bool:
        """Whether a dot of other touches the set: other's runs against the
        row runs meeting the set's segments, other's scanned dots one by one."""
        near = row_runs(other.row, self.segs) if other.runs else []
        return bool(_meet(near, other.runs)) or any(self.touches(c) for c in other.dots)

    def touchers(self, row, rest) -> "_TouchSet":
        """The dots of a _level_row (row, rest) meeting the set's segments
        or touching it: the row's as runs, bisected per segment."""
        runs = row_runs(row, self.segs) if row else ()
        return _TouchSet(self.space, (c for c in rest if self.touches(c)), row, runs)


def _level_row(space: Space, g: int) -> Tuple[Optional[tuple], Tuple[Dot, ...]]:
    """(row, rest): level g's interval dots as one dots.interval_row and
    its other dots in level order, or (None, level) when they are no row.
    The root is never a row: rest dots may touch it, which no segment shows."""
    rows = space.derived(_level_row, dict)
    if g not in rows:
        level = space.level(g)
        row = interval_row(c for c in level if is_interval(c) and c != space.max_dot)
        rest = tuple(c for c in level if not is_interval(c))
        rows[g] = (row, rest) if row is not None else (None, level)
    return rows[g]


# ---------------------------------------------------------------------------
# Splitting depth.


def splitting_depth(fann: Space, A, B, max_depth: int = 32) -> int:
    """The least grade N at which the touchers of A and the touchers of B
    are apart from each other, searched from the deepest input grade up.
    A and B are dots (a fan passes the _TouchSets of one level's dots)."""
    sa, sb = (S if isinstance(S, _TouchSet) else _TouchSet(fann, S) for S in (A, B))
    if sa.meets(sb):
        raise MetricDefect("splitting needs apart input sets")
    for N in range(max(sa.grade, sb.grade, 1), max_depth + 1):
        level = _level_row(fann, N)
        if not sb.touchers(*level).meets(sa.touchers(*level)):
            return N
    raise MetricDefect(
        f"no splitting depth for {len(sa.dots)} vs {len(sb.dots)} dots within grade {max_depth}"
    )


# ---------------------------------------------------------------------------
# The point-relative subfan of a star-finite spread.


def subfan_Wx(space: Space, x: Point, depth: int) -> Space:
    """The fan of dots near the point x: level n holds the grade-n dots
    touching x's grade-n dot, plus one filler refinement under each
    dead-end member so every branch stays infinite."""
    if not space.graded:
        raise SpaceDefect(f"{space.name}: subfans need a graded space")
    xn = successor_normalize(x)
    levels: List[Tuple[Dot, ...]] = [(space.max_dot,)]
    succ_map: Dict[Dot, List[Dot]] = {}
    for n in range(1, depth + 1):
        target = xn.dot(n)
        if space.grade(target) != n:
            raise MetricDefect("subfan needs a successor-normalized point")
        near = list(star_set(space, 1, target))
        members: Dict[Dot, None] = {}  # an ordered set
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
            members.update(dict.fromkeys(children))
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

    return Space(
        f"W[{x.name or 'x'}]({space.name})",
        space._apart,
        space._refines,
        space.max_dot,
        lambda: itertools.chain.from_iterable(levels),
        grade=space.grade, successors=successors, predecessors=predecessors,
        finitely_branching=True,
        width=space._width,
        is_isolated=space.is_isolated,
    )


# ---------------------------------------------------------------------------
# Ternary zone systems: the separating function.

_CONE_A = -1
_CONE_B = 3


def _shift(i: Tuple[int, ...], step: int):
    """The zone index step places after i (-1: the predecessor, +1: the
    successor) in the lexicographic order of its level, or the cone beyond
    the level's first or last index."""
    there = grid_neighbours(seq_dot(Seq(i), 3))[1 + step]
    lo, hi, den = int_endpoints(there)
    if lo < 0 or hi > den:  # past [0, 1]
        return _CONE_A if step < 0 else _CONE_B
    return nary_seq(there).syms


class UrysohnFunction:
    """A three-value separating function between two apart same-grade dots
    a and b, which is its ternary zone system.  Level n indexes zones by
    {0,1,2}^n; the cone under a sits before the first index of every level
    and the cone under b after the last one.  digits(c), the zone index of
    the dot c, is a dot of sigma_3_real, and value_bounds reads the [0,1]
    value at a point off those digits.  Subclasses give digits and, through
    grade_for_digits, the grade k digits need: the fan classifies each
    level once, zones as runs of its row (see _FanZones), and only the
    spread asks membership one (dot, zone) pair at a time (_SpreadZones)."""

    def __init__(self, space: Space, a: Dot, b: Dot):
        if not space.graded:
            raise MetricDefect("zone systems need a graded space")
        if not space.apart(a, b):
            raise MetricDefect("zone endpoints must be apart")
        if space.grade(a) != space.grade(b):
            raise MetricDefect("zone endpoints must share a grade")
        self.space = space
        self.a, self.b = a, b
        self.M = space.grade(a)
        self.pending_set: List[Tuple[Dot, int]] = []
        self._lock = threading.RLock()

    def pending(self) -> Tuple[Tuple[Dot, int], ...]:
        """The dots (with their digit counts) whose classification the
        depth budget cut off."""
        return tuple(self.pending_set)

    def adds_digit(self, held: int, grade: Optional[int] = None) -> bool:
        """Whether a dot of that grade (by default, any later dot) may read past held digits."""
        return True

    def value_bounds(self, x: Point, digit_goal: int) -> Tuple[Fraction, Fraction]:
        """Sound rational bounds on the realized value at the point x, walking
        the stream until digit_goal ternary digits are available, x's dots
        reach the grade that many digits need, or no later dot can add a digit
        (fewer digits widen the bounds); a dot that cannot add one is skipped."""
        needed = self.grade_for_digits(digit_goal)
        best = Seq(())
        for k in range(x.steps_for_grade(needed) + 2):
            if not self.adds_digit(len(best)):
                break
            d = x.dot(k)
            g = self.space.grade(d)
            if self.adds_digit(len(best), g) and len(got := self.digits(d)) > len(best):
                best = got
            if len(best) >= digit_goal or g >= needed:
                break
        return seq_interval(best, 3)


# ---------------------------------------------------------------------------
# Separating functions on fanns (zone construction via splitting depths).


class _FanZones(UrysohnFunction):
    """The zone system on a fann, which classifies each level once.  Step n
    finds a splitting depth N for the level-t[n] dots of each alive zone i's
    two neighbours and splits level N into near-a 0 / middle 1 / near-b 2:
    part[i] codes level N's row as a run-length partition and each dot of its
    rest (_level_row), and a dot of zone i is in zone i + (s,) when it lies in
    a dot of code s (_hits).  On rows, zones, cones and parts are runs of
    positions, found in closed form per run; rest dots and levels that are no
    row go dot by dot.  The groups give the alive zones and the neighbours of step n+1."""

    def __init__(self, fann: Space, a: Dot, b: Dot, max_level_grade: int):
        if not fann.finitely_branching:
            raise MetricDefect("zone systems need a finitely branching space")
        super().__init__(fann, a, b)
        if self.M < 1:
            raise MetricDefect("zone endpoints must be proper dots")
        self.max_level_grade = max_level_grade
        self.t: List[int] = [self.M]
        self.alive: Dict[int, Tuple[Tuple[int, ...], ...]] = {0: ((),)}
        # zone -> (level N's row, its run starts, a code per run, {rest dot: code})
        self.part: Dict[Tuple[int, ...], tuple] = {}
        self.groups: Dict[Tuple[int, ...], tuple] = {}  # zone -> level t[-1]'s (runs, dots)
        self.exhausted = False

    def _hits(self, i: Tuple[int, ...], c: Dot) -> Set[int]:
        """The s with c in zone i + (s,), for c in zone i: the codes of the runs
        holding the row dots that contain c, bisected, or of the rest dots c refines."""
        if i not in self.part:
            return set()
        row, starts, codes, rest = self.part[i]
        if row is not None and (span := row_span(row, c)) is not None:
            return set(codes[bisect_right(starts, span[0]) - 1 : bisect_left(starts, span[1])])
        return {s for x, s in rest.items() if x == c or self.space.refines(c, x)}

    def _zone_set(self, i, t: int) -> _TouchSet:
        """Zone i's dots of level t: its group, or a cone's: the row run
        inside the end and the other dots refining it."""
        row, rest = _level_row(self.space, t)
        if i not in (_CONE_A, _CONE_B):
            runs, dots = self.groups.get(i, ((), ()))
            return _TouchSet(self.space, dots, row, runs)
        end = self.b if i == _CONE_B else self.a
        runs = row_runs(row, _TouchSet(self.space, (end,)).segs, inside=True) if row else ()
        return _TouchSet(self.space, [c for c in rest if self.space.refines(c, end)], row, runs)

    def _groups(self, depth: int, g: int) -> Dict[Tuple[int, ...], tuple]:
        """Level g's (runs, dots) by zone of the given depth, from the whole
        level at (): a child's runs are its parent's met with those inside
        a run of its code, its dots those with that code among their hits."""
        row, rest = _level_row(self.space, g)
        groups = {(): ([(0, len(row[0]))] if row else [], rest)}
        for _ in range(depth):
            nxt = {}
            for i, (runs, dots) in groups.items():
                if i not in self.part:
                    continue
                prow, starts, codes, _ = self.part[i]
                if prow is None and runs:  # level N is no row: these dots go one by one
                    dots = [row[0][j] for j0, j1 in runs for j in range(j0, j1)] + list(dots)
                    runs = []
                ends = starts[1:] + [len(prow[0])] if runs else []
                for s in range(3):
                    coded = [(j0, j1) for j0, j1, code in zip(starts, ends, codes) if code == s]
                    inside = row_runs(row, row_segments(prow, coded), inside=True) if runs else []
                    child = (_meet(runs, inside), [c for c in dots if s in self._hits(i, c)])
                    if child[0] or child[1]:
                        nxt[i + (s,)] = child
            groups = nxt
        return groups

    # -- level construction --------------------------------------------------

    def ensure_level(self, n: int) -> None:
        if len(self.t) <= n and not self.exhausted:  # _build_next stores a step before t names it
            with self._lock:
                while len(self.t) <= n and not self.exhausted:
                    self._build_next()

    def _build_next(self) -> None:
        n = len(self.t) - 1
        t = self.t[n]
        if t > self.max_level_grade:
            self.exhausted = True
            return
        depths, parts = [], {}
        for i in self.alive[n]:
            A, B = self._zone_set(_shift(i, -1), t), self._zone_set(_shift(i, 1), t)
            try:
                N = splitting_depth(self.space, A, B, self.max_level_grade) if A and B else t
            except MetricDefect:
                self.exhausted = True
                return
            N = max(N, t + 1)
            row, rest = _level_row(self.space, N)
            near = {s: S.touchers(row, rest) for s, S in ((2, B), (0, A))}  # near a 0, near b 2
            # middle 1 fills the gaps: at and past the splitting depth no position is near both
            code = {0: 1} | {j1: 1 for S in near.values() for _, j1 in S.runs if j1 < len(row[0])}
            code |= {j0: s for s, S in near.items() for j0, _ in S.runs}
            part = dict.fromkeys(rest, 1) | {c: s for s, S in near.items() for c in S.dots}
            parts[i] = (row, sorted(code), [code[j] for j in sorted(code)], part)
            depths.append(N)
        self.part.update(parts)  # a step's part maps all land, or none
        t_next = max(depths) if depths else t + 1
        self.groups = self._groups(n + 1, t_next) if t_next <= self.max_level_grade else {}
        self.t.append(t_next)
        self.alive[n + 1] = tuple(
            i + (s,) for i in self.alive[n] for s in range(3) if i + (s,) in self.groups
        )

    # -- the digit map -------------------------------------------------------

    def digits(self, c: Dot) -> Seq:
        i: Tuple[int, ...] = ()  # the zone index of c so far: its digits
        g = self.space.grade(c)
        while g > self.t[len(i)]:
            self.ensure_level(len(i) + 1)
            hits = self._hits(i, c)  # none once the steps ran out
            if len(hits) != 1:
                break
            i += tuple(hits)
        return Seq(i)

    def adds_digit(self, held: int, grade: Optional[int] = None) -> bool:
        """No dot once held digits fill the steps of an exhausted system, for no
        digit string is longer; no dot of grade at most t[held], whose walk stops there."""
        spent = self.exhausted and held == len(self.t) - 1
        return not spent and (grade is None or grade > self.t[held])

    def grade_for_digits(self, k: int) -> int:
        self.ensure_level(k)
        built = len(self.t) - 1  # steps built; each missing digit costs 3 grades
        return self.t[min(k, built)] + 1 + 3 * max(0, k - built)


# ---------------------------------------------------------------------------
# Separating functions on star-finite spreads (star-based zones, no level
# sets needed, classification is dot-local and may stay pending).


class _SpreadZones(UrysohnFunction):
    """The zone system on a star-finite spread.  Zone membership is decided
    one (dot, zone) pair at a time from a dot's finite star and its
    ancestors; a security predicate (the whole 2-star already classified one
    level up) gates refinement.  member() answers the cones and the root
    and memoizes."""

    def __init__(self, space: Space, a: Dot, b: Dot, depth_budget: int):
        super().__init__(space, a, b)
        self.depth_budget = depth_budget
        self._mem: Dict[Tuple[Dot, Tuple[int, ...]], bool] = {}
        self._sec: Dict[Tuple[Dot, int], bool] = {}
        self._zone: Dict[Tuple[Dot, int], bool] = {}
        self._star: Dict[Dot, Tuple[Dot, ...]] = {}

    # -- stars and ancestors --------------------------------------------------

    def star(self, d: Dot) -> Tuple[Dot, ...]:
        if d not in self._star:
            self._star[d] = star_dots(self.space, d)
        return self._star[d]

    def star2(self, d: Dot) -> Tuple[Dot, ...]:
        return tuple({x for e in self.star(d) for x in self.star(e)})

    def _ancestors(self, c: Dot) -> Tuple[Dot, ...]:
        """c and everything above it (the maximal dot excluded)."""
        seen = {c: None}  # in the order found
        queue = [c]
        while queue:
            for p in self.space.predecessors(queue.pop()):
                if p != self.space.max_dot and p not in seen:
                    seen[p] = None
                    queue.append(p)
        return tuple(seen)

    # -- zone membership --------------------------------------------------------

    def member(self, c: Dot, i) -> bool:
        if i in (_CONE_A, _CONE_B):
            return self.space.refines(c, self.b if i == _CONE_B else self.a)
        if i == ():
            return True
        if (c, i) not in self._mem:
            self._mem[(c, i)] = False  # cut recursive re-entry on the same query
            self._mem[(c, i)] = self._in_child(c, i[:-1], i[-1])
        return self._mem[(c, i)]

    def _touch_zone(self, star: Tuple[Dot, ...], j) -> bool:
        return any(self.member(e, j) for e in star)

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
                and self._touch_zone(self.star(d), near)
                and not self._touch_zone(self.star2(d), far)
                for d in self._ancestors(c)
            )
        return (
            self.member(c, head)
            and self.sec(c, n)
            and not self.member(c, head + (0,))
            and not self.member(c, head + (2,))
            and not self._touch_zone(self.star(c), left)
            and not self._touch_zone(self.star(c), right)
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
        yield from ((i, c) for i in iso for c in reg if space.apart(i, c))
        yield from ((c, d) for j, c in enumerate(reg) for d in reg[j + 1 :] if space.apart(c, d))


class MetricEvaluator:
    """The metric d(x,y) = sum_m 2^-m |f_m(x) - f_m(y)| over the frozen
    enumeration of separator pairs of a star-finite fann; every separator
    splits levels down to MAX_LEVEL_GRADE."""

    def __init__(self, space: Space):
        if not space.finitely_branching:
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
            table = self._values.setdefault(x, {})

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
    beyond that the bounds stay sound but may be wider.

    The series is one integer numerator: every bracket endpoint is scaled to
    one = 3^L, its largest denominator (a digit string may pass the goal),
    and with T terms lo = sum_m dlo_m 2^(T-m) / (one 2^T) and hi =
    (sum_m dhi_m 2^(T-m) + 2 one) / (one 2^T), 2 one being the tail."""
    terms = precision_bits + 1
    goal = min(metric_digit_goal(precision_bits), DIGIT_CAP)
    fx_of, fy_of = ev.values_of(x), ev.values_of(y)
    ends = [[q.as_integer_ratio() for q in fx_of(m, goal) + fy_of(m, goal)] for m in range(terms)]
    one = max((den for row in ends for _, den in row), default=1)
    lo = hi = 0
    for m, row in enumerate(ends):
        xlo, xhi, ylo, yhi = (num * (one // den) for num, den in row)
        lo += max(0, xlo - yhi, ylo - xhi) << terms - m
        hi += min(one, max(xhi - ylo, yhi - xlo)) << terms - m
    return Fraction(lo, one << terms), Fraction(hi + 2 * one, one << terms)
