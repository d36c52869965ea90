"""Basic dots: the finite-information approximations all spaces are built from.

A dot is a tagged value interpreted by its space: an interval (rational,
dyadic, or n-ary), a finite symbol sequence, a tuple, a trail, a metric ball
index, an isolated-point marker, or the maximal dot.  Dots are immutable and
compared by canonical form; a dyadic dot is never stored as a rational
interval (the overlapping-interval structure of the dyadic spaces depends on
dot identity).
"""

from __future__ import annotations

import math
import re
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from decimal import Decimal
from functools import partial
from fractions import Fraction
from typing import List, Optional, Tuple as Tup


class Dot:
    """Base class for all dot variants (value types, hash/eq by fields)."""

    __slots__ = ()


@dataclass(frozen=True, slots=True)
class MaxDot(Dot):
    """The maximal dot; every dot of a space refines it."""

    def __repr__(self) -> str:
        return "MAX"


MAX = MaxDot()


@dataclass(frozen=True, slots=True)
class RatInterval(Dot):
    """Closed rational interval [lo, hi] with lo < hi."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "lo", Fraction(self.lo))
        object.__setattr__(self, "hi", Fraction(self.hi))
        if not self.lo < self.hi:
            raise ValueError(f"RatInterval needs lo < hi, got [{self.lo}, {self.hi}]")

    def __repr__(self) -> str:
        return f"[{self.lo},{self.hi}]"


@dataclass(frozen=True, slots=True)
class DyadicInterval(Dot):
    """The dyadic dot [n/2^m, (n+2)/2^m]; width 2^(1-m)."""

    n: int
    m: int

    def __post_init__(self) -> None:
        if self.m < 0:
            raise ValueError("DyadicInterval needs m >= 0")

    def __repr__(self) -> str:
        lo, hi, den = int_endpoints(self)
        return f"[{Fraction(lo, den)},{Fraction(hi, den)}]d"


@dataclass(frozen=True, slots=True)
class NaryInterval(Dot):
    """The n-ary dot [n/base^m, (n+1)/base^m]; width base^(-m)."""

    base: int
    n: int
    m: int

    def __post_init__(self) -> None:
        if self.base < 2:
            raise ValueError("NaryInterval needs base >= 2")
        if self.m < 0:
            raise ValueError("NaryInterval needs m >= 0")

    def __repr__(self) -> str:
        lo, hi, den = int_endpoints(self)
        return f"[{Fraction(lo, den)},{Fraction(hi, den)}]@{self.base}"


@dataclass(frozen=True, slots=True)
class Seq(Dot):
    """A finite sequence of natural-number symbols (Baire/Cantor-style dot)."""

    syms: Tup[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "syms", tuple(map(int, self.syms)))
        if self.syms and min(self.syms) < 0:
            raise ValueError("Seq symbols must be naturals")

    def __len__(self) -> int:
        return len(self.syms)

    def extends(self, other: "Seq") -> bool:
        """True iff self = other * tail (self refines other)."""
        n = len(other.syms)
        return len(self.syms) >= n and self.syms[:n] == other.syms

    def __repr__(self) -> str:
        return "<" + ",".join(str(s) for s in self.syms) + ">"


@dataclass(frozen=True, slots=True)
class TupleDot(Dot):
    """A finite tuple of dots (product and direct-limit spaces)."""

    items: Tup[Dot, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "items", tuple(self.items))

    def __len__(self) -> int:
        return len(self.items)

    def __repr__(self) -> str:
        return "(" + ",".join(repr(d) for d in self.items) + ")"


@dataclass(frozen=True, slots=True)
class Ball(Dot):
    """The metric ball B(a_i, 2^-s) around the i-th dense point."""

    i: int
    s: int

    def __repr__(self) -> str:
        return f"B({self.i},2^-{self.s})"


@dataclass(frozen=True, slots=True)
class Trail(Dot):
    """A strict refinement chain d_0 > d_1 > ... (dot of a trail space)."""

    items: Tup[Dot, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "items", tuple(self.items))

    def __len__(self) -> int:
        return len(self.items)

    def extends(self, other: "Trail") -> bool:
        n = len(other.items)
        return len(self.items) >= n and self.items[:n] == other.items

    def __repr__(self) -> str:
        return "T(" + ";".join(repr(d) for d in self.items) + ")"


@dataclass(frozen=True, slots=True)
class Isolated(Dot):
    """The k-th dot on the isolated-point chain of an extended space."""

    k: int

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError("Isolated needs k >= 1")

    def __repr__(self) -> str:
        return f"iso({self.k})"


# ---------------------------------------------------------------------------
# Interval layouts: the other modules read them through these functions only.
# ---------------------------------------------------------------------------


def is_interval(d: Dot) -> bool:
    """True for a rational, dyadic or n-ary interval dot."""
    return isinstance(d, (RatInterval, DyadicInterval, NaryInterval))


def int_endpoints(d: Dot) -> Tup[int, int, int]:
    """(lo_num, hi_num, den): the endpoints of an interval dot over one
    integer den > 0, with no Fraction built (and no gcd taken) on the
    dyadic and n-ary hot path.  A non-interval dot raises TypeError."""
    if type(d) is DyadicInterval:
        return d.n, d.n + 2, 1 << d.m
    if type(d) is NaryInterval:
        return d.n, d.n + 1, d.base**d.m
    if type(d) is RatInterval:
        (lo, lo_den), (hi, hi_den) = d.lo.as_integer_ratio(), d.hi.as_integer_ratio()
        return lo * hi_den, hi * lo_den, lo_den * hi_den
    raise TypeError(f"dot {d!r} has no interval endpoints")


def endpoints(d: Dot) -> Tup[Fraction, Fraction]:
    """Exact rational endpoints of an interval dot."""
    lo, hi, den = int_endpoints(d)
    return Fraction(lo, den), Fraction(hi, den)


def width(d: Dot) -> Fraction:
    """hi - lo of an interval dot."""
    lo, hi, den = int_endpoints(d)
    return Fraction(hi - lo, den)


def intervals_apart(a: Dot, b: Dot) -> bool:
    """Strict disjointness; shared endpoints mean touching, not apart."""
    alo, ahi, ad = int_endpoints(a)
    blo, bhi, bd = int_endpoints(b)
    return ahi * bd < blo * ad or bhi * ad < alo * bd


def interval_contains(outer: Dot, inner: Dot) -> bool:
    """Endpoint containment: inner refines outer (two dyadic dots by shifts)."""
    if type(outer) is DyadicInterval and type(inner) is DyadicInterval:
        s = inner.m - outer.m
        return s >= 0 and outer.n << s <= inner.n and inner.n + 2 <= (outer.n + 2) << s
    olo, ohi, od = int_endpoints(outer)
    ilo, ihi, idn = int_endpoints(inner)
    return olo * idn <= ilo * od and ihi * od <= ohi * idn


def interval_gap(a: Dot, b: Dot) -> Fraction:
    """Distance between two interval dots (0 when they touch)."""
    alo, ahi, ad = int_endpoints(a)
    blo, bhi, bd = int_endpoints(b)
    return Fraction(max(blo * ad - ahi * bd, alo * bd - bhi * ad, 0), ad * bd)


def merged_segments(dots) -> Tup[List[int], List[int], int]:
    """The union of interval dots as (los, his, den): disjoint closed
    segments [los[i]/den, his[i]/den] from left to right over one common
    integer den; dots that touch merge into one segment."""
    ends = [int_endpoints(d) for d in dots]
    den = math.lcm(*(d for _, _, d in ends))
    los, his = [], []
    for lo, hi in sorted((lo * (den // d), hi * (den // d)) for lo, hi, d in ends):
        if his and lo <= his[-1]:
            his[-1] = max(his[-1], hi)
        else:
            los.append(lo)
            his.append(hi)
    return los, his, den


def meeting_segment(segs: Tup[List[int], List[int], int], d: Dot) -> Optional[int]:
    """The index of the leftmost segment of merged_segments' (los, his, den)
    that the interval dot d meets, or None: bisect his for the first
    segment ending at or after d's low end, then one cross-multiplied test
    of its low end against d's high end."""
    los, his, den = segs
    lo, hi, dd = int_endpoints(d)
    i = bisect_left(his, -(-lo * den // dd))
    return i if i < len(his) and los[i] * dd <= hi * den else None


def interval_row(dots) -> Optional[Tup[Tup[Dot, ...], range, range, int]]:
    """One grid exponent's consecutive dots n0, n0 + 1, ... (a grid level) as
    one integer row (dots, los, his, den), dots[j] being [los[j]/den,
    his[j]/den]; else None.  Neighbours touch, so a run covers a segment."""
    dots = tuple(dots)
    d0 = dots[0] if dots else None
    if type(d0) not in (DyadicInterval, NaryInterval) or any(  # d0's kind, base and m
        type(d) is not type(d0) or d.n != d0.n + j or d.m != d0.m
        or getattr(d, "base", 2) != getattr(d0, "base", 2) for j, d in enumerate(dots)
    ):
        return None
    lo, hi, den = int_endpoints(d0)
    return dots, range(lo, lo + len(dots)), range(hi, hi + len(dots)), den


def row_runs(row, segs, inside: bool = False) -> List[Tup[int, int]]:
    """The interval_row dots meeting (inside: lying in) a segment of (los,
    his, den), left to right, as sorted disjoint runs [j0, j1): over the row's
    den, [lo, hi] meets his >= ceil(lo) and los <= floor(hi), bisected."""
    (_, los, his, den), (slos, shis, sden) = row, segs
    firsts, lasts = (los, his) if inside else (his, los)
    runs: List[Tup[int, int]] = []
    for lo, hi in zip(slos, shis):
        j0, j1 = bisect_left(firsts, -(-lo * den // sden)), bisect_right(lasts, hi * den // sden)
        if runs and j0 <= runs[-1][1]:
            runs[-1] = (runs[-1][0], max(runs[-1][1], j1))
        elif j0 < j1:
            runs.append((j0, j1))
    return runs


def row_segments(row, runs) -> Tup[List[int], List[int], int]:
    """One segment per run of an interval_row, [los[j0], his[j1 - 1]] for
    [j0, j1): left to right, as merged_segments' readers need, maybe touching."""
    _, los, his, den = row
    return [los[j0] for j0, _ in runs], [his[j1 - 1] for _, j1 in runs], den


def ancestor_span(d: Dot, m: int) -> Optional[Tup[int, int]]:
    """The n run [lo, hi) of the exponent-m dots of d's grid that contain d:
    one or two dyadic dots (two grid steps wide) by shifts, one n-ary dot by
    floor division, none when m exceeds d's exponent.  None off the grids."""
    if type(d) is DyadicInterval and m <= d.m:  # ceil((n+2)/2^s) - 2 to floor(n/2^s)
        return -(-(d.n + 2) >> d.m - m) - 2, (d.n >> d.m - m) + 1
    if type(d) is NaryInterval and m <= d.m:
        return d.n // d.base ** (d.m - m), d.n // d.base ** (d.m - m) + 1
    return (0, 0) if type(d) in (DyadicInterval, NaryInterval) else None


def row_span(row, d: Dot) -> Optional[Tup[int, int]]:
    """The run [j0, j1) of the interval_row dots that contain d: its
    ancestor_span at the row's exponent; None off the row's grid."""
    first = row[0][0]
    if type(d) is not type(first) or getattr(d, "base", 2) != getattr(first, "base", 2):
        return None
    lo, hi = ancestor_span(d, first.m)
    return max(lo - first.n, 0), max(hi - first.n, 0)


def grid_ancestors(d: Dot, m: int) -> Optional[Tup[Dot, ...]]:
    """The exponent-m dots of d's grid that contain d, by increasing n (see
    ancestor_span); None for a dot of no grid."""
    span = ancestor_span(d, m)
    if span is None:
        return None
    lo, hi = span
    make = DyadicInterval if type(d) is DyadicInterval else partial(NaryInterval, d.base)
    return (make(lo, m), make(lo + 1, m)) if hi - lo == 2 else (make(lo, m),) if hi > lo else ()


def grid_neighbours(d: Dot) -> Optional[Tup[Dot, ...]]:
    """The dots of d's grid and exponent that touch d, by increasing n: n - 2
    .. n + 2 for a dyadic dot (two grid steps wide), n - 1 .. n + 1 for an
    n-ary one; None off the grids.  Some may lie outside a space's root."""
    if type(d) is DyadicInterval:
        return tuple(DyadicInterval(d.n + k, d.m) for k in range(-2, 3))
    if type(d) is NaryInterval:
        return tuple(NaryInterval(d.base, d.n + k, d.m) for k in (-1, 0, 1))
    return None


def seq_dot(d: Seq, base: int) -> NaryInterval:
    """The n-ary dot a base-b digit string stands for: [val, val+1]/b^len,
    with val the string's value."""
    val = 0
    for s in d.syms:
        val = val * base + s
    return NaryInterval(base, val, len(d.syms))


def nary_seq(d: NaryInterval) -> Seq:
    """The base-b digit string an n-ary dot stands for (inverse of seq_dot)."""
    return Seq(tuple(d.n // d.base**k % d.base for k in reversed(range(d.m))))


# ---------------------------------------------------------------------------
# JSON serialization (bit-exact round trip).
# ---------------------------------------------------------------------------


def rational_text(q: Fraction, slash: bool = False) -> str:
    """str(q), "n/d" or "n" ("n/d" always with slash), at any length: Decimal
    prints an integer past Python's int-to-str digit limit."""
    num = str(Decimal(q.numerator))
    return f"{num}/{Decimal(q.denominator)}" if slash or q.denominator != 1 else num


def read_rational(text: str) -> Fraction:
    """Fraction(text) at any length: Fraction checks the form with each run of
    digits cut to one digit, and Decimal, with no digit limit, reads the value.
    Every bad text raises ValueError, a zero denominator too, and an exponent
    past 10**6 (in Decimal's terms), whose power of ten takes seconds to build."""
    try:
        Fraction(re.sub(r"\d+", "1", text))
        num, _, den = text.strip().partition("/")
        if abs((x := Decimal(num)).as_tuple().exponent) > 10**6:  # a denominator has none
            raise ArithmeticError
        (n, d), (dn, dd) = x.as_integer_ratio(), Decimal(den or 1).as_integer_ratio()
    except ValueError:
        return Fraction(text)  # raises on the text as it always has
    except ArithmeticError:  # an exponent past the cap or past Decimal's range
        raise ValueError("exponent out of range") from None
    if not dn:
        raise ValueError("zero denominator")
    return Fraction(n * dd, d * dn)


def dot_to_json(d: Dot) -> dict:
    """Serialize a dot to its canonical JSON object form."""
    if isinstance(d, MaxDot):
        return {"kind": "max"}
    if isinstance(d, DyadicInterval):
        return {"kind": "dyadic", "n": d.n, "m": d.m}
    if isinstance(d, RatInterval):
        return {"kind": "rat", "lo": rational_text(d.lo, slash=True),
                "hi": rational_text(d.hi, slash=True)}
    if isinstance(d, NaryInterval):
        return {"kind": "nary", "base": d.base, "n": d.n, "m": d.m}
    if isinstance(d, Seq):
        return {"kind": "seq", "syms": list(d.syms)}
    if isinstance(d, TupleDot):
        return {"kind": "tuple", "items": [dot_to_json(x) for x in d.items]}
    if isinstance(d, Ball):
        return {"kind": "ball", "i": d.i, "s": d.s}
    if isinstance(d, Trail):
        return {"kind": "trail", "items": [dot_to_json(x) for x in d.items]}
    if isinstance(d, Isolated):
        return {"kind": "iso", "k": d.k}
    raise TypeError(f"unserializable dot {d!r}")


def _json(v, kind: type):
    """v, if it is of the JSON type kind (a bool is no int, a string no list)."""
    if type(v) is not kind:
        raise TypeError(f"expected a JSON {kind.__name__}, found {v!r}")
    return v


def dot_from_json(obj: dict) -> Dot:
    """Parse the canonical JSON object form back into a dot."""
    kind = obj["kind"]
    if kind == "max":
        return MAX
    if kind == "dyadic":
        return DyadicInterval(_json(obj["n"], int), _json(obj["m"], int))
    if kind == "rat":
        return RatInterval(*(read_rational(_json(obj[end], str)) for end in ("lo", "hi")))
    if kind == "nary":
        return NaryInterval(_json(obj["base"], int), _json(obj["n"], int), _json(obj["m"], int))
    if kind == "seq":
        return Seq(tuple(_json(s, int) for s in _json(obj["syms"], list)))
    if kind == "tuple":
        return TupleDot(tuple(dot_from_json(x) for x in _json(obj["items"], list)))
    if kind == "ball":
        return Ball(_json(obj["i"], int), _json(obj["s"], int))
    if kind == "trail":
        return Trail(tuple(dot_from_json(x) for x in _json(obj["items"], list)))
    if kind == "iso":
        return Isolated(_json(obj["k"], int))
    raise ValueError(f"unknown dot kind {kind!r}")
