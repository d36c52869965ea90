"""Points: lazy refining dot streams.

A point is a stream p0 >= p1 >= ... of dots that eventually strictly refines
and chooses between every apart dot pair.  Operations that ask a point
something (approximation, apartness, membership) read the stream under an
explicit step budget.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Iterator, List, Optional, Tuple, Union

from . import spaces
from .dots import Dot, DyadicInterval, endpoints
from .spaces import Space, SpaceDefect, std_space

STRICTNESS_BOUND = 4  # declared liveness contract for shipped constructors


class PointDefect(Exception):
    """A point stream violated its liveness contract."""


class Point:
    """A point of a space given by a factory of its dot stream.  The stream
    is drawn once into a spaces.Lazy, under its lock, and checked as it is
    drawn: each dot refines the one before, and with a strictness_bound b
    no b + 1 dots in a row are equal."""

    def __init__(
        self,
        space: Space,
        dots: Callable[[], Iterable[Dot]],
        steps_for_grade: Optional[Callable[[int], int]] = None,
        strictness_bound: Optional[int] = None,
        name: str = "",
    ):
        self.space = space
        label = f"point {name or '<anon>'}"
        # the closure must not hold self: points are freed by reference count
        self._stream = spaces.Lazy(lambda: _checked(space, dots(), strictness_bound, label))
        self.steps_for_grade = steps_for_grade or (lambda g: STRICTNESS_BOUND * (g + 1) + 16)
        self.name = name

    def dot(self, k: int) -> Dot:
        try:
            return self._stream[k]
        except IndexError:
            raise PointDefect(
                f"point {self.name or '<anon>'}: stream exhausted at "
                f"index {len(self._stream.items)} (requested {k})"
            ) from None

    def prefix(self, k: int) -> Tuple[Dot, ...]:
        self.dot(k - 1)
        return tuple(self._stream.items[:k])

    def __repr__(self) -> str:
        return f"Point({self.space.name}, {self.name or '...'})"


def _checked(space: Space, dots: Iterator[Dot], bound: Optional[int], label: str):
    prev, repeats = None, 0
    for n, d in enumerate(dots, 1):
        if n > 1 and not space.refines(d, prev):
            raise PointDefect(f"{label}: dot {d!r} does not refine previous {prev!r}")
        repeats = repeats + 1 if n > 1 and d == prev else 0
        if bound is not None and repeats >= bound:
            raise PointDefect(
                f"{label}: no strict refinement within {bound} steps at prefix length {n}"
            )
        prev = d
        yield d


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
    if p.space.spraid_info is None:
        raise SpaceDefect(f"{p.space.name}: approximate needs a graded space")
    max_steps = p.steps_for_grade(grade)
    for k in range(max_steps + 1):
        d = p.dot(k)
        if p.space.grade(d) >= grade:
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
        yield cur
        while True:
            nxt = next(space.strict_refinements(cur), None)
            if nxt is None:
                raise SpaceDefect(
                    f"{space.name}: no strict refinement of {cur!r} within "
                    f"{spaces.SCAN_BUDGET} enumerated dots (space defect)"
                )
            cur = nxt
            yield cur

    return Point(space, gen, strictness_bound=STRICTNESS_BOUND, name=f"canon({a!r})")


def ancestors_at(space: Space, d: Dot, g: int) -> Tuple[Dot, ...]:
    """Every grade-g dot c with d <= c, in the order of a breadth-first
    predecessor walk."""
    cur_grade = space.grade(d)
    if cur_grade < g:
        raise ValueError(f"dot {d!r} has grade {cur_grade} < {g}")
    frontier = [d]
    while space.grade(frontier[0]) != g:
        nxt: List[Dot] = []
        seen = set()
        for x in frontier:
            for pr in space.predecessors(x):
                if pr not in seen:
                    seen.add(pr)
                    nxt.append(pr)
        if not nxt:
            raise SpaceDefect(f"predecessor walk from {d!r} died out before grade {g}")
        frontier = nxt
    return tuple(frontier)


def ancestor_at(space: Space, d: Dot, g: int, under: Optional[Dot] = None) -> Dot:
    """A grade-g dot c with d <= c (and c <= under when given); deterministic
    first hit of a breadth-first predecessor walk."""
    for c in ancestors_at(space, d, g):
        if under is None or space.refines(c, under):
            return c
    raise SpaceDefect(f"no grade-{g} ancestor of {d!r} under {under!r}")


def normalized_dots(p: Point) -> Iterator[Dot]:
    """The dot stream of successor_normalize(p): for g = 0, 1, ... the first
    grade-g ancestor, under the one before, of p's first dot of grade g or
    more."""
    space = p.space
    prev: Optional[Dot] = None
    k = 0  # stream position in p
    for g in itertools.count(0):
        budget = p.steps_for_grade(g)
        while space.grade(p.dot(k)) < g:
            k += 1
            if k > budget + 1:
                raise PointDefect(
                    f"successor_normalize: grade {g} not reached within "
                    f"{budget} steps of {p!r}"
                )
        prev = ancestor_at(space, p.dot(k), g, under=prev)
        yield prev


def successor_normalize(p: Point) -> Point:
    """The equivalent successor point: grade(result_k) = k for every k."""
    if p.space.spraid_info is None:
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
        name=f"rat({q})",
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
