"""Independent oracles used to freeze expected values.

Everything here is computed from first principles with exact rational
arithmetic -- no imports from the package under test -- so the test suite
checks the library against independently derived answers.
"""

from __future__ import annotations

import itertools
import math
import random
import re
from fractions import Fraction
from typing import Callable, Iterator, List, Optional, Sequence, Tuple

# ---------------------------------------------------------------------------
# Random expression generator + exact rational evaluator (the eval oracle).
# Grammar:
#   expr   := term (('+'|'-') term)*
#   term   := factor ('*' factor)*
#   factor := rational | '-' factor | min(e,e) | max(e,e) | abs(e) | (expr)
# ---------------------------------------------------------------------------


def random_expression(rng: random.Random, depth: int = 3) -> Tuple[str, Fraction]:
    """A random grammar-valid expression and its exact rational value.

    Values stay small (|value| well under 2^16) because terminals are small
    and multiplication nesting is bounded by the depth parameter.
    """

    def rational() -> Tuple[str, Fraction]:
        num = rng.randint(0, 40)
        if rng.random() < 0.5:
            den = rng.randint(1, 12)
            return f"{num}/{den}", Fraction(num, den)
        return str(num), Fraction(num)

    def factor(d: int) -> Tuple[str, Fraction]:
        r = rng.random()
        if d <= 0 or r < 0.40:
            return rational()
        if r < 0.55:
            t, v = factor(d - 1)
            return f"-{t}", -v
        if r < 0.70:
            t1, v1 = expr(d - 1)
            t2, v2 = expr(d - 1)
            return f"min({t1}, {t2})", min(v1, v2)
        if r < 0.85:
            t1, v1 = expr(d - 1)
            t2, v2 = expr(d - 1)
            return f"max({t1}, {t2})", max(v1, v2)
        t, v = expr(d - 1)
        if rng.random() < 0.5:
            return f"abs({t})", abs(v)
        return f"({t})", v

    def term(d: int) -> Tuple[str, Fraction]:
        t, v = factor(d)
        for _ in range(rng.randint(0, 2)):
            t2, v2 = factor(d - 1)
            t, v = f"{t} * {t2}", v * v2
        return t, v

    def expr(d: int) -> Tuple[str, Fraction]:
        t, v = term(d)
        for _ in range(rng.randint(0, 2)):
            op = rng.choice(["+", "-"])
            t2, v2 = term(d - 1)
            t = f"{t} {op} {t2}"
            v = v + v2 if op == "+" else v - v2
        return t, v

    return expr(depth)


class ExpressionParserReference:
    """The expression parser as it was before precedence climbing: one
    recursive-descent method per grammar rule above (expr -> term ->
    factor, three frames per level of parentheses), over a token list; a
    bad token raises ValueError."""

    def __init__(self, tokens: List[str]):
        self.toks, self.pos = tokens, 0

    def peek(self) -> Optional[str]:
        return self.toks[self.pos] if self.pos < len(self.toks) else None

    def take(self, expected: Optional[str] = None) -> str:
        tok = self.peek()
        if tok is None or expected is not None and tok != expected:
            raise ValueError(f"expected {expected!r}, found {tok!r}")
        self.pos += 1
        return tok

    def parse(self) -> tuple:
        node = self.expr()
        if self.peek() is not None:
            raise ValueError(f"trailing input at {self.peek()!r}")
        return node

    def expr(self) -> tuple:
        node = self.term()
        while self.peek() in ("+", "-"):
            node = ("add" if self.take() == "+" else "sub", node, self.term())
        return node

    def term(self) -> tuple:
        node = self.factor()
        while self.peek() == "*":
            self.take()
            node = ("mul", node, self.factor())
        return node

    def factor(self) -> tuple:
        tok = self.peek()
        if tok == "-":
            self.take()
            return ("neg", self.factor())
        if tok == "(":
            self.take()
            node = self.expr()
            self.take(")")
            return node
        if tok in ("min", "max", "abs"):
            self.take()
            self.take("(")
            args = [self.expr()]
            if tok != "abs":
                self.take(",")
                args.append(self.expr())
            self.take(")")
            return (tok, *args)
        if tok is not None and tok.isdigit():
            num = int(self.take())
            if self.peek() == "/":
                self.take()
                return ("rat", Fraction(num, int(self.take())))
            return ("rat", Fraction(num))
        raise ValueError(f"unexpected token {tok!r}")


# ---------------------------------------------------------------------------
# Classical Cantor function (devil's staircase) at exact rationals.
# ---------------------------------------------------------------------------


def cantor_classical(q: Fraction, max_digits: int = 64) -> Fraction:
    """The Cantor function value at q in [0,1].

    Exact whenever the greedy ternary expansion of q terminates or hits a
    digit 1 within max_digits (true for every ternary rational via the
    terminating expansion); raises otherwise.
    """
    if not 0 <= q <= 1:
        raise ValueError("cantor_classical needs q in [0,1]")
    value = Fraction(0)
    x = q
    for i in range(1, max_digits + 1):
        if x == 0:
            return value
        x *= 3
        d = int(x)  # floor: greedy terminating expansion
        if d == 3:  # q == 1 exactly
            d, x = 2, Fraction(1)
        x -= d
        if d == 1:
            return value + Fraction(1, 2**i)
        value += Fraction(d // 2, 2**i)
    raise ValueError(f"ternary expansion of {q} did not resolve")


def cantor_digit_rule(ternary: Sequence[int]) -> Tuple[int, ...]:
    """The digit-level, length-preserving Cantor rule: halve 0/2 digits
    until the first 1 (which maps to 1), zeros afterwards."""
    out: List[int] = []
    seen_one = False
    for d in ternary:
        if seen_one:
            out.append(0)
        elif d == 1:
            out.append(1)
            seen_one = True
        else:
            out.append(d // 2)
    return tuple(out)


# ---------------------------------------------------------------------------
# Exact union-coverage sweep for closed rational intervals.
# ---------------------------------------------------------------------------


def union_covers(
    segments: Sequence[Tuple[Fraction, Fraction]],
    lo: Fraction,
    hi: Fraction,
) -> bool:
    """True iff the union of the closed segments contains [lo, hi]."""
    cursor = lo
    for s_lo, s_hi in sorted(segments):
        if s_lo > cursor:
            return False
        cursor = max(cursor, s_hi)
        if cursor >= hi:
            return True
    return cursor >= hi


# ---------------------------------------------------------------------------
# Brute-force splitting oracle on the dyadic unit fan.
# Grade-g dots are [n/2^(g+1), (n+2)/2^(g+1)] for n = 0 .. 2^(g+1)-2.
# Two closed intervals "touch" iff they are not strictly disjoint.
# ---------------------------------------------------------------------------


def dyadic_unit_dots(grade: int) -> List[Tuple[Fraction, Fraction]]:
    m = grade + 1
    return [
        (Fraction(n, 2**m), Fraction(n + 2, 2**m)) for n in range(2**m - 1)
    ]


def _touches(a: Tuple[Fraction, Fraction], b: Tuple[Fraction, Fraction]) -> bool:
    return not (a[1] < b[0] or b[1] < a[0])


def splitting_holds(
    A: Sequence[Tuple[Fraction, Fraction]],
    B: Sequence[Tuple[Fraction, Fraction]],
    grade: int,
) -> bool:
    """True iff every grade-`grade` dot touching (a refinement of) some A
    element is strictly disjoint from every one touching some B element."""
    dots = dyadic_unit_dots(grade)
    ta = [d for d in dots if any(_touches(d, a) for a in A)]
    tb = [d for d in dots if any(_touches(d, b) for b in B)]
    return all(not _touches(x, y) for x in ta for y in tb)


def splitting_depth_oracle(
    A: Sequence[Tuple[Fraction, Fraction]],
    B: Sequence[Tuple[Fraction, Fraction]],
    max_grade: int = 16,
) -> Optional[int]:
    for g in range(1, max_grade + 1):
        if splitting_holds(A, B, g):
            return g
    return None


def check_splitting(fann, A, B, N: int) -> bool:
    """Brute-force certificate check on a finitely branching space, read
    through its own relations: every grade-N toucher of A is apart from
    every grade-N toucher of B."""
    level = fann.level(N)
    ta = [c for c in level if any(fann.touch(c, a) for a in A)]
    tb = [c for c in level if any(fann.touch(c, b) for b in B)]
    return all(fann.apart(c, d) for c in ta for d in tb)


# ---------------------------------------------------------------------------
# Interval relations over exact endpoints (the Fraction reference for the
# integer cross-multiplication in natspace.dots).
# ---------------------------------------------------------------------------


def intervals_apart_reference(a: Tuple[Fraction, Fraction], b: Tuple[Fraction, Fraction]) -> bool:
    """Strict disjointness of [alo, ahi] and [blo, bhi]: shared endpoints touch."""
    return not _touches(a, b)


def interval_contains_reference(
    outer: Tuple[Fraction, Fraction], inner: Tuple[Fraction, Fraction]
) -> bool:
    """[ilo, ihi] lies inside [olo, ohi]."""
    return outer[0] <= inner[0] and inner[1] <= outer[1]


def interval_of_json(obj: dict) -> Tuple[Fraction, Fraction]:
    """The endpoints of an interval dot, read off its JSON object form: the
    dyadic dot (n, m) is [n, n+2]/2^m, the n-ary dot (base, n, m) is
    [n, n+1]/base^m, and a rational dot carries its endpoints."""
    if obj["kind"] == "dyadic":
        return Fraction(obj["n"], 2 ** obj["m"]), Fraction(obj["n"] + 2, 2 ** obj["m"])
    if obj["kind"] == "nary":
        unit = Fraction(1, obj["base"] ** obj["m"])
        return obj["n"] * unit, (obj["n"] + 1) * unit
    if obj["kind"] == "rat":
        return Fraction(obj["lo"]), Fraction(obj["hi"])
    raise ValueError(f"no interval dot: {obj!r}")


def merged_segments_reference(
    intervals: Sequence[Tuple[Fraction, Fraction]]
) -> List[Tuple[Fraction, Fraction]]:
    """The union of closed intervals as disjoint segments from left to
    right, found by growing each segment while the next interval touches it."""
    out: List[Tuple[Fraction, Fraction]] = []
    for lo, hi in sorted(intervals):
        if out and _touches(out[-1], (lo, hi)):
            out[-1] = (out[-1][0], max(out[-1][1], hi))
        else:
            out.append((lo, hi))
    return out


def interval_gap_reference(a: Tuple[Fraction, Fraction], b: Tuple[Fraction, Fraction]) -> Fraction:
    """The distance between [alo, ahi] and [blo, bhi]; 0 when they touch."""
    return max(b[0] - a[1], a[0] - b[1], Fraction(0))


def digit_interval(syms: Sequence[int], base: int) -> Tuple[Fraction, Fraction]:
    """The interval of reals whose base-b expansion starts 0.s1 s2 ... sk."""
    lo = sum(Fraction(s, base ** (i + 1)) for i, s in enumerate(syms))
    return lo, lo + Fraction(1, base ** len(syms))


def separation_depth_reference(space, a, b, to_json: Callable[[object], dict]) -> int:
    """The uniform depth that separation bars once took, by one rule per
    family of dots, each dot's family read off its JSON form (to_json): 1
    when either dot is an isolated point; on an interval space the first
    grade at which the walk down first successors from the root is
    narrower than half the gap; else the larger grade of two digit strings
    or trails.  The rules are sound on some spaces only.  Raises ValueError
    where no rule applies."""
    ja, jb = to_json(a), to_json(b)
    if "iso" in (ja["kind"], jb["kind"]):
        return 1
    if space.interval_like:
        gap = interval_gap_reference(_interval_of(space, a, ja), _interval_of(space, b, jb))
        if not gap:
            raise ValueError(f"{a!r}, {b!r} have no positive gap")
        d, k = space.max_dot, 0
        while k == 0 or space.width(d) >= gap / 2:
            d, k = space.successors(d).prefix(1)[0], k + 1
        return k
    if {ja["kind"], jb["kind"]} <= {"seq", "trail"}:
        return max(space.grade(a), space.grade(b))
    raise ValueError(f"no separation rule for {a!r}, {b!r}")


def _interval_of(space, d, obj: dict) -> Tuple[Fraction, Fraction]:
    if obj["kind"] == "seq":  # a digit string reads in the base its width states
        w, n = space.width(d), len(obj["syms"])
        base = next(k for k in itertools.count(2) if Fraction(1, k**n) <= w)
        return digit_interval(obj["syms"], base)
    return interval_of_json(obj)


# ---------------------------------------------------------------------------
# Sign oracle for line calls.
# ---------------------------------------------------------------------------


def sign_call(limit: Fraction, threshold_exp: int) -> Optional[str]:
    """The forced verdict when the limit clears the threshold, else None."""
    eps = Fraction(1, 2**threshold_exp)
    if limit > eps:
        return "IN"
    if limit < -eps:
        return "OUT"
    return None


# ---------------------------------------------------------------------------
# Dyadic rounding by probing exponents one at a time, and the rational hulls
# and embeddings it rounds.
# ---------------------------------------------------------------------------


def round_hull_reference(lo: Fraction, hi: Fraction, m_hint: int = 0) -> Optional[Tuple[int, int]]:
    """(n, m) of the deepest dyadic dot [n/2^m, (n+2)/2^m] (m >= 0, least n)
    containing [lo, hi], found by probing m = 0, 1, 2, ...; None when no dot
    contains the hull.  A zero-width hull takes exponent m_hint + 1."""

    def fits(m: int) -> Optional[int]:
        n_min = math.ceil(hi * 2**m) - 2
        n_max = math.floor(lo * 2**m)
        return n_min if n_min <= n_max else None

    if hi == lo:
        return (fits(m_hint + 1), m_hint + 1)
    if fits(0) is None:
        return None
    m = 0
    while fits(m + 1) is not None:
        m += 1
    return (fits(m), m)


def _hull_neg(a):
    return (-a[1], -a[0])


def _hull_abs(a):
    if a[0] >= 0:
        return a
    if a[1] <= 0:
        return _hull_neg(a)
    return (Fraction(0), max(-a[0], a[1]))


def _hull_mul(a, b):
    ps = [a[0] * b[0], a[0] * b[1], a[1] * b[0], a[1] * b[1]]
    return (min(ps), max(ps))


_HULL_OPS = {
    "neg": _hull_neg,
    "abs": _hull_abs,
    "add": lambda a, b: (a[0] + b[0], a[1] + b[1]),
    "mul": _hull_mul,
    "min": lambda a, b: (min(a[0], b[0]), min(a[1], b[1])),
    "max": lambda a, b: (max(a[0], b[0]), max(a[1], b[1])),
}


def hull_reference(op: str, *operands: Tuple[Fraction, Fraction],
                   q: Optional[Fraction] = None) -> Tuple[Fraction, Fraction]:
    """The rational hull (lo, hi) of an interval-arithmetic op's image of
    operand intervals (lo, hi), in Fractions: neg, abs and scalar (times q)
    take one operand, add, mul, min and max two."""
    if op == "scalar":
        (a,) = operands
        return tuple(sorted((q * a[0], q * a[1])))
    return _HULL_OPS[op](*operands)


def rational_dot_reference(q: Fraction, m: int) -> int:
    """The n of the exponent-m dyadic dot [n/2^m, (n+2)/2^m] that holds q in
    its middle half: floor(q*2^m - 1/2)."""
    return math.floor(q * 2**m - Fraction(1, 2))


# ---------------------------------------------------------------------------
# Frozen enumeration orders, as the generators that first stated them.
# Dots are plain data: (n, m) for a grid dot, None for the line's maximal
# dot, a symbol tuple for a digit string.
# ---------------------------------------------------------------------------


def zigzag(j: int) -> int:
    return (j + 1) // 2 if j % 2 == 1 else -(j // 2)


def grid_order(base: int, k: int, line: bool) -> Iterator[Optional[Tuple[int, int]]]:
    """The grid spaces (k successors per dot, base^m cells per exponent): on
    the line the maximal dot, then the (m, zigzag n)-diagonals; on the unit
    interval exponent by exponent from k - base, each by n."""
    spill = k - base
    if line:
        yield None
        for t in itertools.count(0):
            for m in range(t + 1):
                yield (zigzag(t - m), m)
    else:
        for m in itertools.count(spill):
            for n in range(base**m - spill):
                yield (n, m)


def strings_order(k: int) -> Iterator[Tuple[int, ...]]:
    """Strings over range(k), by length, then lexicographically."""
    for ln in itertools.count(0):
        yield from itertools.product(range(k), repeat=ln)


def chains_order(k: int) -> Iterator[Tuple[int, ...]]:
    """The root, then the k constant-digit chains, by length, then digit."""
    yield ()
    for ln in itertools.count(1):
        for i in range(k):
            yield (i,) * ln


def baire_order() -> Iterator[Tuple[int, ...]]:
    """All finite strings over the naturals by growing cap: a string of
    weight max(len, max(sym)+1) comes at cap = weight, by length and then
    lexicographically."""
    yield ()
    for cap in itertools.count(1):
        for ln in range(1, cap + 1):
            for syms in itertools.product(range(cap), repeat=ln):
                if max(ln, max(syms) + 1) == cap:
                    yield syms


def compositions_listed(total: int, n: int) -> Iterator[Tuple[int, ...]]:
    """All n-tuples of naturals summing to total, lexicographic, by recursion
    on the first part."""
    if n == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in compositions_listed(total - first, n - 1):
            yield (first,) + rest


def diagonal_tuples(n: int) -> Iterator[Tuple[int, ...]]:
    """The n-tuples of naturals in the diagonal-by-total order, walked one by
    one: by total, each total's tuples lexicographic."""
    for t in itertools.count(0):
        yield from compositions_listed(t, n)


def dense_point_walk(i: int) -> Fraction:
    """The i-th point of the dense enumeration of [0,1]: 0, 1, then the odd
    k/2^j level by level, level j found by walking the levels below it."""
    if i < 2:
        return Fraction(i)
    i -= 2
    j = 1
    while i >= 2 ** (j - 1):
        i -= 2 ** (j - 1)
        j += 1
    return Fraction(2 * i + 1, 2**j)


def digits_divided(n: int, base: int, m: int) -> Tuple[int, ...]:
    """The m low base-b digits of n, most significant first, by repeated
    division."""
    digs: List[int] = []
    for _ in range(m):
        n, x = divmod(n, base)
        digs.append(x)
    return tuple(reversed(digs))


def scan_canonical_steps(
    dots: Sequence, strictly_refines: Callable, start, steps: int
) -> List:
    """The canonical point of start by definition: each next dot is the first
    of `dots` (an enumeration prefix) that strictly refines the current one.
    Raises LookupError when the prefix holds none."""
    out, cur = [], start
    for _ in range(steps):
        cur = next((d for d in dots if strictly_refines(d, cur)), None)
        if cur is None:
            raise LookupError("the prefix holds no strict refinement")
        out.append(cur)
    return out


def trail_tree_order(extend: Callable) -> Iterator[Tuple]:
    """The frozen trail-tree order, by its first statement: the empty trail,
    then for each weight class cap and each length ln up to cap, the
    length-ln trails lexicographic in their index strings, each walked down
    from the root again, whose strings use index cap - 1 or have length cap.
    extend(prefix, cap) gives, by increasing index below cap, the
    (index, dot) steps that extend a prefix (a dot tuple) by one dot."""

    def strings(t: Tuple, ln: int, cap: int, top: bool) -> Iterator[Tuple]:
        if len(t) == ln:
            if top or ln == cap:
                yield t
            return
        for i, d in extend(t, cap):
            yield from strings(t + (d,), ln, cap, top or i == cap - 1)

    yield ()
    for cap in itertools.count(1):
        for ln in range(1, cap + 1):
            yield from strings((), ln, cap, False)


# ---------------------------------------------------------------------------
# Unglued copies, listed by recursion.
# ---------------------------------------------------------------------------


def cover_trails_listed(predecessors: Callable, top, a) -> List[Tuple]:
    """Every immediate-successor trail from a grade-1 dot down to a, as dot
    tuples, listed by recursion over the predecessors: the trails through
    the first predecessor of a come first."""
    if a == top:
        return []
    preds = [p for p in predecessors(a) if p != top]
    if not preds:
        return [(a,)]
    return [t + (a,) for p in preds for t in cover_trails_listed(predecessors, top, p)]


# ---------------------------------------------------------------------------
# A fan zone's part painted position by position.
# ---------------------------------------------------------------------------


def painted_part(length: int, near_a, near_b) -> bytearray:
    """A zone's split of a level row of that length as one code per row
    position: 1 (middle) everywhere, then the runs [j0, j1) near b painted
    2, then those near a painted 0, so a position near both reads 0."""
    codes = bytearray(b"\1") * length
    for s, runs in ((2, near_b), (0, near_a)):
        for j0, j1 in runs:
            codes[j0:j1] = bytes((s,)) * (j1 - j0)
    return codes


def painted_runs(codes: bytearray) -> List[Tuple[int, int, int]]:
    """The maximal runs (j0, j1, code) of painted codes, left to right, each
    code's found by re.finditer."""
    found = (m.span() + (s,) for s in range(3) for m in re.finditer(bytes((s,)) + b"+", codes))
    return sorted(found)


# ---------------------------------------------------------------------------
# Fan zones by the recursive per-(dot, zone) membership rule.
# ---------------------------------------------------------------------------


class FanZonesReference:
    """The fan zone system as it was built before levels were classified
    once: membership in a zone head + (s,) is asked one (dot, zone) pair at
    a time, recursively through the parent zone and memoized, against the
    generator set of part s (the grade-N dots split near a / middle / near
    b); splitting depths and the three-way split test every level dot on
    its own.  The space is read through its own relations; the caller
    supplies touch_set(dots) -> a per-dot touch predicate, grid_ancestors
    (the grid dots of an exponent containing a dot, None off the grids)
    and is_isolated."""

    def __init__(self, space, a, b, max_level_grade, touch_set, grid_ancestors, is_isolated):
        self.space, self.a, self.b = space, a, b
        self.max_level_grade = max_level_grade
        self.touch_set, self.grid_ancestors, self.is_isolated = touch_set, grid_ancestors, is_isolated
        self.t = [space.grade(a)]
        self.alive = {0: ((),)}
        self.X = {}  # (head, s) -> the dots of part s
        self.mem = {}
        self.exhausted = False

    @staticmethod
    def shift(i, step):
        v = 0
        for s in i:
            v = 3 * v + s
        v += step
        if v < 0:
            return "A"
        if v >= 3 ** len(i):
            return "B"
        return tuple(v // 3**k % 3 for k in reversed(range(len(i))))

    def contains_refiner(self, gens, c) -> bool:
        if c in gens:
            return True
        if self.is_isolated(c):
            return any(self.space.refines(c, x) for x in gens if self.is_isolated(x))
        m = next((x.m for x in gens if hasattr(x, "m")), None)
        if m is not None and (ancestors := self.grid_ancestors(c, m)) is not None:
            return any(x in gens for x in ancestors)
        return any(self.space.refines(c, x) for x in gens)

    def member(self, c, i) -> bool:
        if i == "A":
            return self.space.refines(c, self.a)
        if i == "B":
            return self.space.refines(c, self.b)
        if i == ():
            return True
        if (c, i) not in self.mem:
            gens = self.X.get((i[:-1], i[-1]))
            self.mem[(c, i)] = (
                gens is not None and self.member(c, i[:-1]) and self.contains_refiner(gens, c)
            )
        return self.mem[(c, i)]

    def splitting_depth(self, A, B):
        sa, sb = self.touch_set(A), self.touch_set(B)
        if any(sa(b) for b in B):
            return None
        for N in range(max(max(self.space.grade(d) for d in A + B), 1), self.max_level_grade + 1):
            level = self.space.level(N)
            tb = self.touch_set([c for c in level if sb(c)])
            if not any(tb(c) for c in level if sa(c)):
                return N
        return None

    def build_all(self) -> None:
        while not self.exhausted:
            n = len(self.t) - 1
            t = self.t[n]
            if t > self.max_level_grade:
                self.exhausted = True
                return
            level_t = self.space.level(t)
            depths = []
            for i in self.alive[n]:
                A = tuple(c for c in level_t if self.member(c, self.shift(i, -1)))
                B = tuple(c for c in level_t if self.member(c, self.shift(i, 1)))
                N = self.splitting_depth(A, B) if A and B else t + 1
                if N is None:
                    self.exhausted = True
                    return
                N = max(N, t + 1)
                sa, sb = self.touch_set(A), self.touch_set(B)
                parts = ([], [], [])
                for c in self.space.level(N):
                    parts[0 if sa(c) else 2 if sb(c) else 1].append(c)
                for s in range(3):
                    self.X[(i, s)] = frozenset(parts[s])
                depths.append(N)
            t_next = max(depths) if depths else t + 1
            level_next = self.space.level(t_next) if t_next <= self.max_level_grade else ()
            self.t.append(t_next)
            self.alive[n + 1] = tuple(
                i + (s,) for i in self.alive[n] for s in range(3)
                if any(self.member(c, i + (s,)) for c in level_next)
            )

    def digits(self, c) -> Tuple[int, ...]:
        """The zone index of c, once build_all has run."""
        i: Tuple[int, ...] = ()
        g = self.space.grade(c)
        while len(i) + 1 < len(self.t) and g > self.t[len(i)]:
            hits = [s for s in (0, 1, 2) if self.member(c, i + (s,))]
            if len(hits) != 1:
                break
            i += (hits[0],)
        return i


# ---------------------------------------------------------------------------
# Loops the package replaced: the metric series summed as Fractions, a
# separator's value read off every dot up to the grade its digits need, grid
# levels by successor expansion, and successor normalization that asks every
# grade's budget and walks to an ancestor at every grade.


def evaluate_metric_reference(
    ev, x, y, precision_bits: int, goal: int
) -> Tuple[Fraction, Fraction]:
    """Bounds on d(x,y) from the evaluator's value brackets at the digit
    goal, summed term by term as Fractions: precision_bits + 1 terms
    weighted 2^-m, plus the tail 2/2^terms."""
    terms = precision_bits + 1
    lo = hi = Fraction(0)
    fx_of, fy_of = ev.values_of(x), ev.values_of(y)
    for m in range(terms):
        fx, fy = fx_of(m, goal), fy_of(m, goal)
        dlo = max(Fraction(0), fx[0] - fy[1], fy[0] - fx[1])
        dhi = min(Fraction(1), max(fx[1] - fy[0], fy[1] - fx[0]))
        w = Fraction(1, 2**m)
        lo += w * dlo
        hi += w * dhi
    hi += Fraction(2, 2**terms)  # remaining terms are at most sum 2^-m
    return (lo, hi)


def value_bounds_reference(f, x, digit_goal: int) -> Tuple[Fraction, Fraction]:
    """A separator f's bracket at the point x by the full read: every dot of x
    up to the grade digit_goal digits need (or until the goal is met) is
    asked for its digits, and the longest digit string is kept."""
    needed = f.grade_for_digits(digit_goal)
    best: Tuple[int, ...] = ()
    for k in range(x.steps_for_grade(needed) + 2):
        d = x.dot(k)
        got = f.digits(d).syms
        if len(got) > len(best):
            best = got
        if len(best) >= digit_goal or f.space.grade(d) >= needed:
            break
    return digit_interval(best, 3)


def level_sets_reference(space, top: int) -> List[Tuple]:
    """Levels 0..top of a finitely branching space, breadth first: the
    maximal dot, then each level's successors in order, each dot kept once."""
    levels = [(space.max_dot,)]
    while len(levels) <= top:
        levels.append(tuple(dict.fromkeys(s for d in levels[-1] for s in space.successors(d).dots)))
    return levels


def level_reference(space, g: int) -> Tuple:
    """Level g of a finitely branching space (see level_sets_reference)."""
    return level_sets_reference(space, g)[g]


def normalized_dots_reference(p) -> Iterator:
    """The successor-normalized stream of the point p: for g = 0, 1, ... the
    first grade-g dot, under the one before, of a breadth-first predecessor
    walk from p's first dot of grade g or more; every grade's budget asked."""
    space = p.space
    prev = None
    budget = p.steps_for_grade(0)
    k, d = 0, p.dot(0)
    for g in itertools.count(0):
        while space.grade(d) < g:
            k += 1
            if k > budget + 1:
                raise ValueError(f"grade {g} not reached within {budget} steps")
            d = p.dot(k)
        frontier = [d]
        while space.grade(frontier[0]) != g:
            frontier = list(dict.fromkeys(a for c in frontier for a in space.predecessors(c)))
        prev = next(c for c in frontier if prev is None or space.refines(c, prev))
        yield prev
        budget = p.steps_for_grade(g + 1)


# ---------------------------------------------------------------------------
# The Baire inverse from the empty trail, level indices by a linear scan, and
# grid rows by a set of per-dot consistency tuples.


def level_index_reference(enc, n: int, a, v) -> int:
    """The g_a-index of v: level_member(n, a, k) asked for k = 0, 1, ...
    until it gives v (an exhausted level raises there)."""
    return next(k for k in itertools.count() if enc.level_member(n, a, k) == v)


def h_inverse_trail_reference(enc, t) -> Tuple[int, ...]:
    """The symbols of the Baire inverse of the trail t, every level from the
    empty trail: at level n the first trail dot of index >= n and e-grade
    >= n that strictly refines the current image, indexed by
    level_index_reference."""
    space, syms, a = enc.space, [], enc.space.max_dot
    while True:
        n = len(syms) + 1
        hit = next((
            x for x in t.items
            if space.strictly_refines(x, a) and space.index_of(x) >= n and enc.has_e_grade(x, n)
        ), None)
        if hit is None:
            return tuple(syms)
        syms.append(level_index_reference(enc, n, a, hit))
        a = hit


def interval_row_reference(dots, grid_types, int_endpoints):
    """interval_row by its set form: the dots are one row when each is of
    grid_types and (type, base, m, n - j) is one tuple for all dots j."""
    dots = tuple(dots)
    if not dots or any(type(d) not in grid_types for d in dots) or len(
        {(type(d), getattr(d, "base", 2), d.m, d.n - j) for j, d in enumerate(dots)}
    ) > 1:
        return None
    lo, hi, den = int_endpoints(dots[0])
    return dots, range(lo, lo + len(dots)), range(hi, hi + len(dots)), den


def level_row_reference(space, g: int, is_interval, row_of) -> Tuple:
    """A level's (row, rest) derived from level(g), as the metric reads a
    level: row_of (an interval_row) over its interval dots but the root, and
    its other dots in level order; (None, level) when they are no row."""
    level = space.level(g)
    row = row_of([c for c in level if is_interval(c) and c != space.max_dot])
    return (row, tuple(c for c in level if not is_interval(c))) if row is not None else (None, level)


# ---------------------------------------------------------------------------
# Interval dot texts, random bar leaves and Heine-Borel selection, by
# str(Fraction), plain recursion and a scan.
# ---------------------------------------------------------------------------


def interval_text_reference(lo: Fraction, hi: Fraction, suffix: str = "") -> str:
    """An interval dot's text with each endpoint as str(Fraction) writes it:
    "[lo,hi]", then "d" for a dyadic dot or "@base" for an n-ary one.  Past
    Python's int-to-str digit limit str(Fraction) raises ValueError."""
    return f"[{lo},{hi}]{suffix}"


def random_bar_leaves(root, successors: Callable, max_depth: int, seed: int) -> List:
    """The leaves of conftest.random_bar's bar, each once in walk order, by
    recursion over successors(d) (a tuple): a dot is a leaf at the depth limit,
    or when its draw from f"{seed}:{d!r}" is below 0.35 and it is no root."""
    leaves: List = []

    def walk(d, k: int) -> None:
        if k <= 0 or (k < max_depth and random.Random(f"{seed}:{d!r}").random() < 0.35):
            if d not in leaves:
                leaves.append(d)
            return
        for s in successors(d):
            walk(s, k - 1)

    walk(root, max_depth)
    return leaves


def finite_subcover_scan(leaves: Sequence, cover: Sequence, refines: Callable) -> Tuple:
    """Heine-Borel selection by a scan: for each leaf in order the first cover
    dot it refines, each cover dot kept once, where it was first chosen."""
    chosen: List = []
    for d in leaves:
        hit = next(c for c in cover if refines(d, c))
        if hit not in chosen:
            chosen.append(hit)
    return tuple(chosen)
