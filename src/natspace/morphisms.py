"""Dot-level morphisms: the general algebra (laws, composition, validation)
and the concrete maps (interval arithmetic, the Cantor function, n-ary
codecs, line calls, and the Baire diagonalization).

A refinement morphism is a total dot-to-dot map that reflects apartness,
preserves refinement, and sends point streams to point streams (law (iii) is
discharged by a liveness bound: target grade g needs source grade
liveness(g)).  A trail morphism consumes strict-descent trails instead of
single dots.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator, List, Optional, Tuple

from .dots import (
    MAX,
    Dot,
    DyadicInterval,
    MaxDot,
    Seq,
    Trail,
    TupleDot,
    endpoints,
    int_endpoints,
    nary_seq,
    seq_dot,
)
from .points import Point, PointDefect, canonical_point, normalized_dots
from .spaces import Report, Space, product, std_space

REFINEMENT = "refinement"
TRAIL = "trail"


class MorphismDefect(Exception):
    pass


@dataclass
class Morphism:
    """A morphism of the given kind from source to target.

    last_dot states that a trail morphism's value depends only on the
    trail's last dot, so every trail ending at the same dot has the same
    image (id_str, and a refinement morphism composed after it).
    compress_sigmaR reads it to map one unglued copy of a dot instead of
    all of them."""

    kind: str
    source: Space
    target: Space
    map: Callable[[Dot], Dot]
    liveness: Callable[[int], int]
    tag: str = ""
    parts: Tuple = ()
    # optional: per-point liveness refinement (used by magnitude-dependent ops)
    dynamic_liveness: Optional[Callable[[Point], Callable[[int], int]]] = None
    last_dot: bool = False

    def __call__(self, d: Dot) -> Dot:
        return self.map(d)

    def __repr__(self) -> str:
        return f"Morphism({self.tag or self.kind}: {self.source.name}->{self.target.name})"


def identity(space: Space) -> Morphism:
    return Morphism(REFINEMENT, space, space, lambda d: d, lambda g: g, tag="id")


# ---------------------------------------------------------------------------
# Applying morphisms to points
# ---------------------------------------------------------------------------


def strict_trail_of(space: Space, dots: Tuple[Dot, ...]) -> Tuple[Dot, ...]:
    """The strict-descent subsequence (each kept dot strictly refines the
    previous kept dot)."""
    out: List[Dot] = []
    for d in dots:
        if not out or space.strictly_refines(d, out[-1]):
            out.append(d)
    return tuple(out)


def _liveness_at(f: Morphism, p: Point) -> Callable[[int], int]:
    """f's liveness on the source point p: its dynamic one, if it has one."""
    return f.liveness if f.dynamic_liveness is None else f.dynamic_liveness(p)


def apply_point(f: Morphism, p: Point, r: Optional[Point] = None) -> Point:
    """The image point: maps the stream dot by dot (refinement kind) or maps
    growing strict trails of the stream (trail kind).  Given r, a refinement
    f maps pair_dots(p, r), the stream of pair_point(p, r), with no Point
    between, as that Point's check cannot fail (see pair_dots)."""
    if r is not None:  # only a dynamic liveness reads a pair Point; budget g + 1, plus one
        live = f.liveness if f.dynamic_liveness is None else f.dynamic_liveness(pair_point(p, r))
        return Point(
            f.target, lambda: map(f.map, pair_dots(p, r)), steps_for_grade=lambda g: live(g) + 2,
            name=f"{f.tag or 'f'}(({p.name},{r.name}))",
        )
    liveness = _liveness_at(f, p)

    if f.kind == REFINEMENT:

        def gen():  # map, not a generator: each level of nesting costs stack
            return map(f.map, map(p.dot, itertools.count(0)))

    else:

        def gen():
            for k in itertools.count(0):
                trail = strict_trail_of(p.space, p.prefix(k + 1))
                yield f.map(Trail(trail))

    def steps(g: int) -> int:
        return p.steps_for_grade(liveness(g)) + 1

    return Point(f.target, gen, steps_for_grade=steps, name=f"{f.tag or 'f'}({p.name})")


def compose(g: Morphism, f: Morphism) -> Morphism:
    """Composition g after f; trail inputs are lifted through f trail-wise."""
    if f.target is not g.source and f.target.name != g.source.name:
        raise MorphismDefect(
            f"compose: {f!r} targets {f.target.name}, {g!r} expects {g.source.name}"
        )
    tag = f"({g.tag or 'g'} . {f.tag or 'f'})"
    live = lambda gr: f.liveness(g.liveness(gr))  # noqa: E731
    dyn = None
    if f.dynamic_liveness is not None or g.dynamic_liveness is not None:

        def dyn(p: Point) -> Callable[[int], int]:  # a dynamic g reads f's image of p
            f_live, g_live = _liveness_at(f, p), _liveness_at(g, apply_point(f, p))
            return lambda gr: f_live(g_live(gr))

    if g.kind == REFINEMENT:  # of f's kind, on dots or on trails
        return Morphism(
            f.kind, f.source, g.target, lambda d: g.map(f.map(d)), live,
            tag=tag, parts=(g, f), dynamic_liveness=dyn, last_dot=f.last_dot,
        )

    # g is a trail morphism: lift f to trails of its target (not last_dot,
    # since strict_trail_of may drop the last image)
    def lifted(t: Dot) -> Dot:
        items = t.items
        if f.kind == REFINEMENT:
            imgs = tuple(f.map(d) for d in items)
        else:
            imgs = tuple(f.map(Trail(items[: i + 1])) for i in range(len(items)))
        return g.map(Trail(strict_trail_of(f.target, imgs)))

    return Morphism(
        TRAIL, f.source, g.target, lifted, live, tag=tag, parts=(g, f), dynamic_liveness=dyn
    )


# ---------------------------------------------------------------------------
# Law checking
# ---------------------------------------------------------------------------


def _trail_samples(space: Space, depth: int) -> List[Trail]:
    """A deterministic sample of trail dots: strict-descent chains grown from
    enumerated dots via successor walks."""
    out: List[Trail] = []
    for i in range(depth):
        d = space.enumerate_dot(i)
        if d == space.max_dot:
            continue
        chain = [d]
        while len(chain) < 4:
            s = space.successors(chain[-1]).prefix(2)
            if not s:
                break
            chain.append(s[0])
        for ln in range(1, len(chain) + 1):
            out.append(Trail(tuple(chain[:ln])))
            if len(out) >= depth:
                return out
    return out


def check_morphism(f: Morphism, depth: int) -> Report:
    """Laws (i) and (ii) on enumerated dot pairs; law (iii) on sampled
    canonical points (stream stays refining, grades grow)."""
    if depth < 1:
        raise ValueError("depth >= 1 required")
    rep = Report("check", f.tag or repr(f), depth)
    if f.kind == REFINEMENT:
        dots: List[Dot] = [f.source.enumerate_dot(i) for i in range(depth)]
        src_apart = f.source.apart
        src_ref = f.source.refines
    else:
        from .encodings import trail_space

        tsp = trail_space(f.source)
        dots = list(_trail_samples(f.source, depth))
        src_apart = tsp.apart
        src_ref = tsp.refines
    imgs = [f.map(d) for d in dots]
    for i, a in enumerate(dots):
        for j, b in enumerate(dots):
            if i == j:
                continue
            if f.target.apart(imgs[i], imgs[j]) and not src_apart(a, b):
                rep.entries.append(
                    f"law (i): f({a!r})={imgs[i]!r} # f({b!r})={imgs[j]!r} "
                    f"but sources touch"
                )
            if src_ref(a, b) and not f.target.refines(imgs[i], imgs[j]):
                rep.entries.append(
                    f"law (ii): {a!r} <= {b!r} but f-images "
                    f"{imgs[i]!r} !<= {imgs[j]!r}"
                )
    # law (iii), spot check: image streams of sampled canonical points refine
    if f.kind == REFINEMENT and f.source.graded:
        later = (d for d in map(f.source.enumerate_dot, range(1, depth)) if d != f.source.max_dot)
        for a in [f.source.max_dot, *itertools.islice(later, 1)]:  # the root and the next dot
            try:  # the image point checks that its stream refines as it is drawn
                apply_point(f, canonical_point(f.source, a)).dot(5)
            except PointDefect as e:
                rep.entries.append(f"law (iii): {e}")
    return rep


# ---------------------------------------------------------------------------
# Interval arithmetic on sigma_R
# ---------------------------------------------------------------------------


@functools.cache
def sigma_rr() -> Space:
    """The shared sigma product sigma_R x sigma_R (arith binary source)."""
    s = std_space("sigma_R")
    return product([s, s])


def round_hull(lo: int, hi: int, den: int, m_hint: int = 0) -> Dot:
    """The dyadic dot with maximal exponent m containing [lo/den, hi/den]
    (the integer form of dots.int_endpoints, den > 0, reduced or not), least
    n as tie-break; MaxDot when no dot contains the hull.  Zero-width hulls
    round at exponent m_hint+1 so output grade tracks input grade.

    Closed form: the exponent-m dots [n/2^m, (n+2)/2^m] containing the hull
    run from n = ceil(hi*2^m/den) - 2 to floor(lo*2^m/den); they span 2^(1-m),
    so with k the largest m with width <= 2^-m, every hull fits at k and none
    at k+2: the answer is k+1 if it fits, else k, else (k < 0) MaxDot.  With
    den = 2^e * odd, both roundings shift by e, then divide by odd (1 for a
    dyadic hull): CPython's big-int division is quadratic in the digits."""
    w = hi - lo
    if w < 0:
        raise ValueError("empty hull")
    k = den.bit_length() - w.bit_length()
    if w << max(k, 0) > den << max(-k, 0):  # w/den > 2^-k
        k -= 1
    e = (den & -den).bit_length() - 1
    odd = den >> e
    for m in (m_hint + 1,) if w == 0 else (k + 1, k):  # a zero-width hull always fits
        if m >= 0 and (n := -((-hi << m >> e) // odd) - 2) <= (lo << m >> e) // odd:
            return DyadicInterval(n, m)
    return MAX


def _hull_neg(a):
    return (-a[1], -a[0], a[2])


def _hull_abs(a):
    if a[0] >= 0:
        return a
    if a[1] <= 0:
        return _hull_neg(a)
    return (0, max(-a[0], a[1]), a[2])


def _hull_add(a, b):
    return (a[0] * b[2] + b[0] * a[2], a[1] * b[2] + b[1] * a[2], a[2] * b[2])


def _hull_mul(a, b):
    ps = [a[0] * b[0], a[0] * b[1], a[1] * b[0], a[1] * b[1]]
    return (min(ps), max(ps), a[2] * b[2])


def _hull_min(a, b):
    return (min(a[0] * b[2], b[0] * a[2]), min(a[1] * b[2], b[1] * a[2]), a[2] * b[2])


def _hull_max(a, b):
    return (max(a[0] * b[2], b[0] * a[2]), max(a[1] * b[2], b[1] * a[2]), a[2] * b[2])


def arith(op: str, q: Optional[Fraction] = None) -> Morphism:
    """Exact interval arithmetic rounded into sigma_R.

    Unary ops (neg, abs, scalar) map sigma_R to itself; binary ops (add, mul,
    min, max) map the sigma product sigma_R x_s sigma_R to sigma_R.  The
    output is the rational hull of the operation's image, rounded to the
    maximal-exponent containing dyadic dot (MaxDot when the hull is too wide).
    The hull is integer: the hull ops map the operands' endpoint forms
    (lo, hi, den) from dots.int_endpoints, scalar(q) as mul by [q, q], to
    the form that round_hull takes.
    """
    sr = std_space("sigma_R")
    extra = {"neg": 0, "abs": 1, "mul": 12}.get(op, 3)  # liveness(g) = g + extra
    if op == "scalar":
        if q is None:
            raise ValueError("scalar needs a rational factor")
        q = Fraction(q)
        extra = (abs(q.numerator) // q.denominator).bit_length() + 2
    hull_op = {"neg": _hull_neg, "abs": _hull_abs, "add": _hull_add, "mul": _hull_mul,
               "min": _hull_min, "max": _hull_max,
               "scalar": lambda a: _hull_mul(a, (q.numerator, q.numerator, q.denominator))}.get(op)
    if hull_op is None:
        raise ValueError(f"unknown arith op {op!r}")
    binary = op in ("add", "mul", "min", "max")

    if binary:

        def fmap(d: Dot) -> Dot:
            a, b = d.items
            if isinstance(a, MaxDot) or isinstance(b, MaxDot):
                return MAX
            return round_hull(*hull_op(int_endpoints(a), int_endpoints(b)), max(a.m, b.m))

    else:

        def fmap(d: Dot) -> Dot:
            if isinstance(d, MaxDot):
                return MAX
            return round_hull(*hull_op(int_endpoints(d)), d.m)

    dyn = None
    if op == "mul":

        def dyn(p: Point) -> Callable[[int], int]:
            @functools.cache
            def offset() -> int:  # read off p.dot(2) once, at the first query
                d = p.dot(2)
                bound = 1  # max(1, ceil|lo|, ceil|hi|) over the coordinates
                if isinstance(d, TupleDot):
                    for c in d.items:
                        if not isinstance(c, MaxDot):
                            lo, hi, den = int_endpoints(c)
                            bound = max(bound, -(-max(-lo, hi) // den))
                return (1 + bound).bit_length() + 2

            return lambda g: g + offset()

    return Morphism(
        REFINEMENT, sigma_rr() if binary else sr, sr, fmap, lambda g: g + extra,
        tag=f"scalar({q})" if op == "scalar" else op, dynamic_liveness=dyn,
    )


def pair_dots(p: Point, r: Point) -> Iterator[Dot]:
    """The zipped successor-normalized streams of two sigma_R points.  Each
    coordinate is a dot of its operand's checked stream or an ancestor of one
    under the dot before, so each pair refines the one before."""
    return map(TupleDot, zip(normalized_dots(p), normalized_dots(r)))


def pair_point(p: Point, r: Point) -> Point:
    """The sigma-product point on pair_dots(p, r).  apply_point(f, p, r) maps that
    stream with no Point: a Point costs a frame of stack per dot pull, zip none."""
    return Point(
        sigma_rr(), lambda: pair_dots(p, r), steps_for_grade=lambda g: g + 1,
        name=f"({p.name},{r.name})",
    )


# ---------------------------------------------------------------------------
# Cantor function, codecs, doubling
# ---------------------------------------------------------------------------


def cantor_function() -> Morphism:
    """The Cantor function on digit strings: on {0,2}* digits map by
    min(d,1); past the first 1 everything flattens to 0s.  Length-preserving
    morphism sigma_3 -> sigma_2."""
    src, tgt = std_space("sigma_3"), std_space("sigma_2")

    def fmap(d: Dot) -> Dot:
        syms = d.syms
        cut = syms.index(1) + 1 if 1 in syms else len(syms)  # up to the first 1
        return Seq(tuple(min(s, 1) for s in syms[:cut]) + (0,) * (len(syms) - cut))

    return Morphism(REFINEMENT, src, tgt, fmap, lambda g: g, tag="f_can")


def nary_codec(base: int) -> Tuple[Morphism, Optional[Morphism]]:
    """The digit-string evaluation codec: encode maps base-b digit strings to
    the n-ary dots of [0,1]; for base 3, decode_ter is its exact inverse.
    Both are refinement morphisms after pulling the interval apartness back
    onto digit strings."""
    if base < 2:
        raise ValueError("base >= 2 required")
    if base == 2:
        seq_sp = std_space("sigma_2_real")
        tgt = std_space("[0,1]_bin")
    elif base == 3:
        seq_sp = std_space("sigma_3_real")
        tgt = std_space("[0,1]_ter")
    else:
        from .spaces import _interval_space, _sigma_k_real

        seq_sp = _sigma_k_real(base, f"sigma_{base}_real")
        tgt = _interval_space(f"[0,1]_base{base}", base, base, line=False)

    def enc(d: Dot) -> Dot:
        for s in d.syms:
            if s >= base:
                raise MorphismDefect(f"digit {s} out of range for base {base}")
        return seq_dot(d, base)

    encode = Morphism(REFINEMENT, seq_sp, tgt, enc, lambda g: g, tag="nary_encode")

    decode = None
    if base == 3:

        decode = Morphism(REFINEMENT, tgt, seq_sp, nary_seq, lambda g: g, tag="ter_decode")
    return encode, decode


def doubling() -> Morphism:
    """The doubling morphism sigma_2 -> sigma_3: every digit doubled."""
    src, tgt = std_space("sigma_2"), std_space("sigma_3")

    def fmap(d: Dot) -> Dot:
        return Seq(tuple(2 * s for s in d.syms))

    return Morphism(REFINEMENT, src, tgt, fmap, lambda g: g, tag="doubling")


# ---------------------------------------------------------------------------
# Line calls
# ---------------------------------------------------------------------------

IN, OUT, LET = "IN", "OUT", "LET"


LINE_CALL_MAX_EXPONENT = 10_000  # the work grows about quadratically in it


def line_call(stream: Point, threshold_exponent: int) -> str:
    """Consume the measurement stream until the interval width is at most
    2^-threshold_exponent, then call IN (lo>0), OUT (hi<0) or LET (0 inside)."""
    if not 1 <= threshold_exponent <= LINE_CALL_MAX_EXPONENT:
        raise ValueError(f"threshold_exponent must be in 1..{LINE_CALL_MAX_EXPONENT}")
    space = stream.space
    thr = Fraction(1, 2**threshold_exponent)
    budget = stream.steps_for_grade(threshold_exponent + 2)
    for k in range(budget + 1):
        d = stream.dot(k)
        if isinstance(d, MaxDot):
            continue
        if space.width(d) <= thr:
            lo, hi = endpoints(d)
            if lo > 0:
                return IN
            if hi < 0:
                return OUT
            return LET
    raise PointDefect(
        f"line_call: stream never reached width 2^-{threshold_exponent} "
        f"within {budget} steps"
    )


# ---------------------------------------------------------------------------
# Coded Baire morphisms and diagonalization
# ---------------------------------------------------------------------------


@dataclass
class CodedBaireMorphism:
    """A Baire morphism together with the baire point coding it."""

    morphism: Morphism
    code: Point


def code_point_of(f: Morphism) -> Point:
    """The baire point coding a baire morphism: alpha(n) is the enumeration
    index of f(dot_n)."""
    sp = f.source

    def gen():
        syms: List[int] = []
        yield Seq(())
        for n in itertools.count(0):
            syms.append(sp.index_of(f.map(sp.enumerate_dot(n))))
            yield Seq(tuple(syms))

    return Point(sp, gen, steps_for_grade=lambda g: g + 1, name=f"code({f.tag})")


def constant_code_morphism(g: Morphism) -> Morphism:
    """The morphism baire->baire sending every point to the code of g (the
    canonical 'constant code' test inputs for diagonalization)."""
    sp = g.source
    code = code_point_of(g)

    def fmap(b: Dot) -> Dot:
        return code.dot(len(b.syms))

    return Morphism(REFINEMENT, sp, sp, fmap, lambda g_: g_, tag=f"constcode({g.tag})")


def diagonalize(F: Morphism) -> CodedBaireMorphism:
    """Given F: baire -> baire whose outputs code Baire morphisms, build the
    coded morphism f with f-tilde(p) apart from F(p)-tilde(p) on every point.

    For every input prefix b of rank n, the coded morphism's value on b sits
    at code position n; once the input dot a is long enough that F(a)
    determines that value for some prefix b, f flips its last symbol.  Ranks
    grow along extension, so resolution order is stable and f is lawful."""
    sp = F.source
    empty = Seq(())
    resolved: dict = {}  # b -> decoded value (final once F(a) reveals it)

    def resolve(b: Seq, code: Seq):
        """The coded morphism's value on b per the code prefix, or None when
        the prefix is still too short to tell."""
        if b in resolved:
            return resolved[b]
        idx = sp.index_of(b)
        if idx >= len(code.syms):
            return None
        out = sp.enumerate_dot(code.syms[idx])
        if not isinstance(out, Seq):
            raise MorphismDefect(f"decoded non-sequence dot {out!r}")
        if b.syms:
            zp = resolve(Seq(b.syms[:-1]), code)  # smaller rank: resolved too
            if zp is not None and zp != empty and not out.extends(zp):
                raise MorphismDefect(
                    f"diagonalize: F's code is not a morphism at {b!r}: "
                    f"{out!r} does not extend the parent value {zp!r}"
                )
        resolved[b] = out
        return out

    def flip(w: Seq) -> Seq:
        return Seq(w.syms[:-1] + (w.syms[-1] + 1,))

    def fmap(a: Dot) -> Dot:
        code = F.map(a)
        for i in range(len(a.syms) + 1):
            b = Seq(a.syms[:i])
            z = resolve(b, code)
            if z is None:
                return empty  # deeper prefixes have larger ranks: also unknown
            if z != empty:
                return Seq(flip(z).syms + a.syms[i:])
        return empty

    f = Morphism(REFINEMENT, sp, sp, fmap, lambda g: g + 2, tag="diag")
    return CodedBaireMorphism(f, code_point_of(f))
