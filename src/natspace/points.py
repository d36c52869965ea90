"""Points: lazy refining dot streams.

A point is a stream p0 >= p1 >= ... of dots that eventually strictly refines
and chooses between every apart dot pair.  Operations that ask a point
something (approximation, apartness, membership) read the stream under an
explicit step budget.
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Iterator, List, Optional, Tuple, Union

from . import spaces
from .dots import Dot, DyadicInterval, endpoints, rational_text
from .spaces import Space, SpaceDefect, std_space

STRICTNESS_BOUND = 4  # declared liveness contract for shipped constructors
_END = object()  # next()'s default: the stream is exhausted


class PointDefect(Exception):
    """A point stream violated its liveness contract."""


class Point:
    """A point of a space given by a factory of its dot stream, called once.
    dot(k) draws the stream under the point's lock and checks each dot as it
    is drawn: it refines the one before, and with a strictness_bound b no
    b + 1 dots in a row are equal.  Drawn dots stay in items, read without
    the lock; a stream or check that raised raises the same error again.
    steps_for_grade(g), at least g, is the index of a dot of grade g or more.
    The stream must not hold its Point: points are freed by reference count."""

    def __init__(
        self,
        space: Space,
        dots: Callable[[], Iterable[Dot]],
        steps_for_grade: Optional[Callable[[int], int]] = None,
        strictness_bound: Optional[int] = None,
        name: Union[str, Callable[[], str]] = "",
    ):
        self.space = space
        self.steps_for_grade = steps_for_grade or (lambda g: STRICTNESS_BOUND * (g + 1) + 16)
        self._name = name
        self.items: List[Dot] = []
        self._iter = iter(dots())
        self._error: Optional[Exception] = None
        self._traceback = None
        self._bound = strictness_bound
        self._repeats = 0  # how many dots in a row equal the one before
        self._lock = threading.RLock()

    @property
    def name(self) -> str:  # a name given as a function is written on its first read
        if callable(self._name):
            self._name = self._name()
        return self._name

    def dot(self, k: int) -> Dot:
        items = self.items
        if k < len(items):  # items only grow, so this read needs no lock
            return items[k]
        with self._lock:
            while len(items) <= k:
                if self._error is not None:  # the first traceback, so it does not grow
                    raise self._error.with_traceback(self._traceback)
                try:
                    d = next(self._iter, _END)
                    if d is _END:
                        raise PointDefect(
                            f"point {self.name or '<anon>'}: stream exhausted at "
                            f"index {len(items)} (requested {k})"
                        )
                    if items and not self.space.refines(d, items[-1]):
                        raise PointDefect(
                            f"point {self.name or '<anon>'}: dot {d!r} does not refine "
                            f"previous {items[-1]!r}"
                        )
                    if self._bound is not None:  # repeats count only under a bound
                        self._repeats = self._repeats + 1 if items and d == items[-1] else 0
                        if self._repeats >= self._bound:
                            raise PointDefect(
                                f"point {self.name or '<anon>'}: no strict refinement within "
                                f"{self._bound} steps at prefix length {len(items) + 1}"
                            )
                except Exception as exc:  # the stream or its check failed: keep the error
                    self._error, self._traceback = exc, exc.__traceback__
                    raise
                items.append(d)
            return items[k]

    def prefix(self, k: int) -> Tuple[Dot, ...]:
        if k > 0:
            self.dot(k - 1)
        return tuple(self.items[: max(k, 0)])

    def __repr__(self) -> str:
        return f"Point({self.space.name}, {self.name or '...'})"


@dataclass(frozen=True)
class Apart:
    witness_index: int


@dataclass(frozen=True)
class Unknown:
    budget_spent: int


ApartVerdict = Union[Apart, Unknown]


@dataclass(frozen=True)
class Yes:
    m: int


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------


def approximate(p: Point, grade: int) -> Dot:
    """First stream dot with grade >= requested grade (consumes the stream)."""
    if not p.space.graded:
        raise SpaceDefect(f"{p.space.name}: approximate needs a graded space")
    grade_of = p.space.grade
    max_steps = p.steps_for_grade(grade)
    for k in range(max_steps + 1):
        d = p.dot(k)
        if grade_of(d) >= grade:
            return d
    raise PointDefect(
        f"point {p.name or '<anon>'}: grade {grade} not reached within "
        f"{max_steps} steps; stalled prefix ends at {p.dot(max_steps)!r}"
    )


def point_apart(p: Point, q: Point, budget: int) -> ApartVerdict:
    """Semi-decide apartness of two points of the same space."""
    for k in range(budget + 1):
        if p.space.apart(p.dot(k), q.dot(k)):
            return Apart(k)
    return Unknown(budget)


def point_in_dot(p: Point, a: Dot, budget: int) -> Union[Yes, Unknown]:
    """Semi-decide strict membership of a point in a dot's hull."""
    for m in range(budget + 1):
        if p.space.strictly_refines(p.dot(m), a):
            return Yes(m)
    return Unknown(budget)


def canonical_point(space: Space, a: Dot) -> Point:
    """The deterministic point x^a: every next dot is the least-enumeration-
    index strict refinement of the current dot, the first of
    space.strict_refinements (see there for its budget)."""

    def gen() -> Iterator[Dot]:
        cur = a
        while True:
            yield cur
            nxt = next(space.strict_refinements(cur), None)
            if nxt is None:
                raise SpaceDefect(
                    f"{space.name}: no strict refinement of {cur!r} within "
                    f"{spaces.SCAN_BUDGET} enumerated dots (space defect)"
                )
            cur = nxt

    return Point(space, gen, strictness_bound=STRICTNESS_BOUND, name=f"canon({a!r})")


def ancestors_at(space: Space, d: Dot, g: int) -> Tuple[Dot, ...]:
    """Every grade-g dot c with d <= c, in the order of a breadth-first
    predecessor walk."""
    cur_grade = space.grade(d)
    if cur_grade < g:
        raise ValueError(f"dot {d!r} has grade {cur_grade} < {g}")
    frontier = [d]
    while space.grade(frontier[0]) != g:
        nxt = list(dict.fromkeys(pr for x in frontier for pr in space.predecessors(x)))
        if not nxt:
            raise SpaceDefect(f"predecessor walk from {d!r} died out before grade {g}")
        frontier = nxt
    return tuple(frontier)


def ancestor_at(space: Space, d: Dot, g: int, under: Optional[Dot] = None) -> Dot:
    """A grade-g dot c with d <= c (and c <= under when given); deterministic
    first hit of a breadth-first predecessor walk, which at d's own grade is d."""
    for c in ancestors_at(space, d, g):
        if under is None or space.refines(c, under):
            return c
    raise SpaceDefect(f"no grade-{g} ancestor of {d!r} under {under!r}")


def normalized_dots(p: Point) -> Iterator[Dot]:
    """The dot stream of successor_normalize(p): for g = 0, 1, ... the first
    grade-g ancestor, under the one before, of p's first dot of grade g or
    more.  A dot of grade g is that ancestor itself: it refines the one
    before through p's checked stream.  Every budget allows g + 1 dots, so
    p.steps_for_grade(g) is asked only once the stream reads past them."""
    space = p.space
    grade = space.grade
    prev: Optional[Dot] = None
    k, d = 0, p.dot(0)  # the stream position in p and its dot, each read once
    dg = grade(d)
    for g in itertools.count(0):
        while dg < g:
            k += 1
            if k > g + 1 and k > (budget := p.steps_for_grade(g)) + 1:
                raise PointDefect(
                    f"successor_normalize: grade {g} not reached within "
                    f"{budget} steps of {p!r}"
                )
            d = p.dot(k)
            dg = grade(d)
        prev = d if dg == g else ancestor_at(space, d, g, under=prev)
        yield prev


def successor_normalize(p: Point) -> Point:
    """The equivalent successor point: grade(result_k) = k for every k."""
    if not p.space.graded:
        raise SpaceDefect(f"{p.space.name}: successor_normalize needs grades")
    return Point(
        p.space,
        lambda: normalized_dots(p),
        strictness_bound=STRICTNESS_BOUND,
        steps_for_grade=lambda g: g + 1,
        name=f"norm({p.name})",
    )


def rational_to_point(q: Fraction) -> Point:
    """The standard embedding of a rational into sigma_R: at each exponent m
    the dot [n/2^m,(n+2)/2^m] with n = floor(q*2^m - 1/2), which places q in
    the middle half; successive dots are successors.  With q = num/den,
    n = floor((num*2^(m+1) - den) / (2*den)), in integers."""
    num, den = q.as_integer_ratio()
    space = std_space("sigma_R")

    def gen() -> Iterator[Dot]:
        for m in itertools.count(0):
            yield DyadicInterval(((num << (m + 1)) - den) // (2 * den), m)

    return Point(
        space,
        gen,
        steps_for_grade=lambda g: g + 1,
        strictness_bound=STRICTNESS_BOUND,
        name=lambda: f"rat({rational_text(q)})",  # a line call never reads it
    )


def point_to_rational_bounds(p: Point, grade: int) -> Tuple[Fraction, Fraction]:
    """Endpoints of approximate(p, grade) for interval-space points."""
    if not p.space.interval_like:
        raise SpaceDefect(f"{p.space.name}: not an interval space")
    d = approximate(p, grade)
    return endpoints(d)


def point_from_prefix(space: Space, dots: Iterable[Dot], name: str = "") -> Point:
    """A point backed by a finite prefix; consuming past it is a defect (used
    by the CLI to read point-prefix files)."""
    dots = tuple(dots)
    return Point(space, lambda: dots, name=name or "prefix")
