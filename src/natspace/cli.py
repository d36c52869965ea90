"""Batch command line: exact-real evaluation, Cantor function sampling,
line calls, cover analysis, metric tables, and axiom validation.

Exit codes: 0 success, 1 parse error (expression / digits / JSON syntax / a
malformed dot), 2 semantic error (unknown space, missing witness, a dot
outside the space, contract violation, an option past its cap), 3 budget
exhaustion (a lazy stream could not deliver in time).
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import re
import sys
from fractions import Fraction
from typing import List, Optional, Tuple

from .dots import (
    Dot, Seq, dot_from_json, dot_to_json, endpoints, int_endpoints, meeting_segment,
    merged_segments, rational_text, read_rational,
)
from .induction import BarDefect, Cover, GeneticBar, bar_from_json, finite_subcover
from .metric import DIGIT_CAP, MetricDefect, MetricEvaluator, evaluate_metric, metric_digit_goal
from .morphisms import (
    MorphismDefect,
    apply_point,
    arith,
    cantor_function,
    line_call,
)
from .points import (
    Point,
    PointDefect,
    approximate,
    point_from_prefix,
    rational_to_point,
)
from .spaces import (
    SpaceDefect,
    extend_with_isolated_point,
    seq_interval,
    std_space,
    validate_space,
)


class CliParseError(Exception):
    pass


class CliSemanticError(Exception):
    pass


# ---------------------------------------------------------------------------
# Expression grammar:
#   expr   := term (('+'|'-') term)*
#   term   := factor ('*' factor)*
#   factor := rational | '-' factor | 'min(' expr ',' expr ')'
#           | 'max(' expr ',' expr ')' | 'abs(' expr ')' | '(' expr ')'
#   rational := integer ('/' positive-integer)?


def _tokenize(text: str) -> List[str]:
    out: List[str] = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch in "+-*/(),":
            out.append(ch)
            i += 1
        elif ch.isdecimal():
            j = i
            while j < len(text) and text[j].isdecimal():
                j += 1
            out.append(text[i:j])
            i = j
        elif ch.isalpha():
            j = i
            while j < len(text) and text[j].isalpha():
                j += 1
            word = text[i:j]
            if word not in ("min", "max", "abs"):
                raise CliParseError(f"unknown function {word!r}")
            out.append(word)
            i = j
        else:
            raise CliParseError(f"unexpected character {ch!r}")
    return out


_BINARY = {"+": ("add", 0), "-": ("sub", 0), "*": ("mul", 1)}  # operator -> (node, precedence)


class _Parser:
    def __init__(self, tokens: List[str]):
        self.toks = tokens
        self.pos = 0

    def peek(self) -> Optional[str]:
        return self.toks[self.pos] if self.pos < len(self.toks) else None

    def take(self, expected: Optional[str] = None) -> str:
        tok = self.peek()
        if tok is None:
            raise CliParseError("unexpected end of expression")
        if expected is not None and tok != expected:
            raise CliParseError(f"expected {expected!r}, found {tok!r}")
        self.pos += 1
        return tok

    def parse(self) -> tuple:
        node = self.expr()
        if self.peek() is not None:
            raise CliParseError(f"trailing input at {self.peek()!r}")
        return node

    def expr(self, prec: int = 0) -> tuple:
        """Precedence climbing: a factor, then each operator binding at least
        as tightly as prec, its right operand one level tighter (left
        associative); a level of parentheses costs two frames."""
        node = self.factor()
        while self.peek() in _BINARY and _BINARY[self.peek()][1] >= prec:
            kind, level = _BINARY[self.take()]
            node = (kind, node, self.expr(level + 1))
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
        if tok is not None and tok.isdecimal():
            text = self.take()
            if self.peek() == "/":
                self.take()
                den = self.take()
                if not den.isdecimal() or not read_rational(den):
                    raise CliParseError("denominator must be a positive integer")
                text += "/" + den
            return ("rat", read_rational(text))
        if tok is None:
            raise CliParseError("unexpected end of expression")
        raise CliParseError(f"unexpected token {tok!r}")


def parse_expression(text: str) -> tuple:
    return _Parser(_tokenize(text)).parse()


def compile_expression(node: tuple) -> Point:
    """Compile an expression tree to one lazy point on the dyadic real
    spraid: leaves are rational embeddings, inner nodes apply the exact
    interval-arithmetic morphisms over sigma products."""
    kind = node[0]
    if kind == "rat":
        return rational_to_point(node[1])
    if kind in ("neg", "abs"):
        return apply_point(arith(kind), compile_expression(node[1]))
    if kind == "sub":
        rhs = apply_point(arith("neg"), compile_expression(node[2]))
        return apply_point(arith("add"), compile_expression(node[1]), rhs)
    if kind in ("add", "mul", "min", "max"):
        lhs = compile_expression(node[1])
        return apply_point(arith(kind), lhs, compile_expression(node[2]))
    raise CliSemanticError(f"unknown expression node {kind!r}")


def eval_expression_bounds(text: str, bits: int) -> Tuple[Fraction, Fraction]:
    """Rational bounds of width at most 2^(1-bits) around the exact value."""
    point = compile_expression(parse_expression(text))
    d = approximate(point, bits + 1)  # grade g dots have width 2^(2-g)
    return endpoints(d)


# ---------------------------------------------------------------------------
# Output helpers.


def _emit(fmt: str, payload: dict, out, text_lines: Optional[List[str]] = None) -> None:
    """The payload as one JSON line, or as text_lines (by default one
    "key value" line per payload field)."""
    if fmt == "json":
        out.write(json.dumps(payload, sort_keys=True) + "\n")
    else:
        for line in text_lines or [f"{key} {value}" for key, value in payload.items()]:
            out.write(line + "\n")


def _json_int(path: str, digits: str) -> int:
    """An integer of a JSON file; one past int()'s digit limit is a parse error."""
    try:
        return int(digits)
    except ValueError:
        raise CliParseError(f"{path}: an integer of {len(digits)} digits is too long to read")


def _resolve_space(name: str):
    try:
        if name.endswith("^+"):
            return extend_with_isolated_point(std_space(name[:-2]))
        return std_space(name)
    except ValueError as exc:
        raise CliSemanticError(str(exc))


def _read_json(path: str, lines: bool = False):
    """The value of a JSON file ("-": stdin), or with lines that of each nonblank line."""
    read_int = functools.partial(_json_int, path)
    try:
        with (contextlib.nullcontext(sys.stdin) if path == "-"
              else open(path, encoding="utf-8")) as fh:
            if lines:
                return [json.loads(line, parse_int=read_int) for line in fh if line.strip()]
            return json.load(fh, parse_int=read_int)
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        raise CliParseError(f"{path}: {exc}")
    except OSError as exc:
        raise CliSemanticError(str(exc))


@contextlib.contextmanager
def _parsing(where: str):
    """Reading file contents inside the block: a missing field, a field of
    the wrong type or value, or nesting too deep to read, is a parse error."""
    try:
        yield
    except (KeyError, TypeError, ValueError, RecursionError) as exc:
        raise CliParseError(f"{where}: {type(exc).__name__}: {exc}")


def _read_dots(space, objs, where: str) -> Tuple[Dot, ...]:
    """The dots of space that a file lists: a malformed dot is a parse
    error, one that does not refine the maximal dot a semantic one."""
    with _parsing(where):
        dots = tuple(dot_from_json(obj) for obj in objs)
    for d in dots:
        try:  # a dot of another kind has no grade or fails the relation
            ok = space.grade(d) >= 0 and space.refines(d, space.max_dot)
        except (AttributeError, TypeError):
            ok = False
        if not ok:
            with _parsing(where):  # a dot nested too deeply to print, too
                message = f"{where}: {d!r} is not a dot of {space.name}"
            raise CliSemanticError(message)
    return dots


def _read_witness(space, blob) -> GeneticBar:
    """The genetic witness of a cover file, a bar rooted at the maximal dot."""
    with _parsing("witness"):
        node = blob["derivation"]
        root = dot_from_json(node["leaf"] if "leaf" in node else node["split"])
        if root != space.max_dot:
            raise CliSemanticError(f"witness rooted at {root!r}, not at {space.max_dot!r}")
        return bar_from_json(space, blob)


# ---------------------------------------------------------------------------
# Subcommands.


EVAL_MAX_BITS = 10_000  # the work grows faster than quadratically in it
METRIC_MAX_BITS = 10  # one separator per bit; past DIGIT_CAP the bounds narrow little
VALIDATE_MAX_DEPTH = 500  # the axiom checks grow about quadratically in it


def _cmd_eval(args, out) -> int:
    if not 1 <= args.bits <= EVAL_MAX_BITS:
        raise CliSemanticError(f"--bits must be in 1..{EVAL_MAX_BITS}")
    try:
        # every operation deepens the stack of parsing and compiling, and
        # that of each dot pull by one frame (unary) or two (binary)
        lo, hi = eval_expression_bounds(args.expr, args.bits)
    except RecursionError:
        raise CliParseError("expression nested too deeply")
    _emit(args.format, {"lo": rational_text(lo), "hi": rational_text(hi)}, out)
    return 0


def _cmd_cantor(args, out) -> int:
    digits = args.digits.strip()
    if not digits or any(ch not in "012" for ch in digits):
        raise CliParseError("cantor input must be a nonempty string over {0,1,2}")
    depth = args.depth if args.depth is not None else len(digits)
    if depth < 1:
        raise CliSemanticError("depth must be >= 1")
    src = Seq(tuple(int(ch) for ch in digits[:depth]))
    image = cantor_function().map(src)
    text = "".join(str(s) for s in image.syms)
    lo, hi = seq_interval(image, 2)
    _emit(args.format, {"image": text, "lo": rational_text(lo), "hi": rational_text(hi)}, out)
    return 0


def _cmd_linecall(args, out) -> int:
    space = std_space("sigma_R")
    if args.synthetic is not None:
        try:
            stream = rational_to_point(read_rational(args.synthetic))
        except ValueError as exc:
            raise CliParseError(f"bad synthetic value: {exc}")
    else:
        dots = _read_dots(space, _read_json(args.input, lines=True), args.input)
        if not dots:
            raise CliSemanticError("empty measurement stream")
        stream = point_from_prefix(space, dots, name="measurements")
    verdict = line_call(stream, args.threshold_exp)
    _emit(args.format, {"call": verdict}, out, [verdict])
    return 0


def _union_covers_root(space, dots) -> Optional[bool]:
    try:
        los, his, den = segs = merged_segments(dots)
        i = meeting_segment(segs, space.max_dot)  # the one segment that can hold it
        lo, hi, rd = int_endpoints(space.max_dot)
    except TypeError:  # the root or a cover dot is no interval
        return None
    return i is not None and los[i] * rd <= lo * den and hi * den <= his[i] * rd


def _cmd_subcover(args, out) -> int:
    data = _read_json(args.cover_file)
    if not isinstance(data, dict) or "space" not in data or "cover" not in data:
        raise CliParseError("cover file needs 'space' and 'cover' fields")
    space = _resolve_space(str(data["space"]))
    cover_dots = _read_dots(space, data["cover"], "cover")
    if "witness" not in data:
        raise CliSemanticError("inductive cover without a genetic witness")
    cover = Cover(dots=cover_dots, witness=_read_witness(space, data["witness"]))
    selected = finite_subcover(space, cover)
    union_ok = _union_covers_root(space, selected)
    sel_json = [dot_to_json(d) for d in selected]
    lines = ["subcover " + json.dumps(sel_json, sort_keys=True)]
    if union_ok is None:
        lines.append("union check: n/a")
    else:
        lines.append(f"union covers root: {'true' if union_ok else 'false'}")
    _emit(
        args.format,
        {"subcover": sel_json, "union_covers_root": union_ok},
        out,
        lines,
    )
    return 0


def _load_point(space, path: str, name: str) -> Point:
    data = _read_json(path)
    if not isinstance(data, list) or not data:
        raise CliParseError(f"{path}: point file must be a nonempty JSON list of dots")
    return point_from_prefix(space, _read_dots(space, data, path), name=name)


def _cmd_metric(args, out) -> int:
    if args.bits < 0:
        raise CliSemanticError("--bits must be >= 0")
    if args.bits > METRIC_MAX_BITS:
        raise CliSemanticError(f"--bits must be at most {METRIC_MAX_BITS}")
    space = _resolve_space(args.space)
    x = _load_point(space, args.x, "x")
    y = _load_point(space, args.y, "y")
    ev = MetricEvaluator(space)
    lo, hi = evaluate_metric(ev, x, y, args.bits)
    fx_of, fy_of = ev.values_of(x), ev.values_of(y)
    goal = min(metric_digit_goal(args.bits), DIGIT_CAP)
    rows = []
    for m in range(args.bits + 1):
        a, b = ev.pair(m)
        fx, fy = fx_of(m, goal), fy_of(m, goal)
        rows.append(
            {
                "m": m,
                "a": dot_to_json(a),
                "b": dot_to_json(b),
                "fx": [rational_text(fx[0]), rational_text(fx[1])],
                "fy": [rational_text(fy[0]), rational_text(fy[1])],
            }
        )
    lines = [
        f"m={r['m']} a={json.dumps(r['a'], sort_keys=True)} "
        f"b={json.dumps(r['b'], sort_keys=True)} "
        f"fx=[{r['fx'][0]},{r['fx'][1]}] fy=[{r['fy'][0]},{r['fy'][1]}]"
        for r in rows
    ]
    lines.append(f"lo {rational_text(lo)}")
    lines.append(f"hi {rational_text(hi)}")
    _emit(
        args.format,
        {"terms": rows, "lo": rational_text(lo), "hi": rational_text(hi)},
        out,
        lines,
    )
    return 0


def _cmd_validate(args, out) -> int:
    if args.depth > VALIDATE_MAX_DEPTH:
        raise CliSemanticError(f"--depth must be at most {VALIDATE_MAX_DEPTH}")
    space = _resolve_space(args.space)
    report = validate_space(space, args.depth)
    _emit(
        args.format,
        {
            "space": report.subject,
            "depth": report.depth,
            "ok": report.ok,
            "entries": list(report.entries),
        },
        out,
        [str(report)],
    )
    return 0


# ---------------------------------------------------------------------------
# Argument plumbing.


class _Parser1(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit 2; we reserve 1
        raise CliParseError(message)


def build_parser() -> argparse.ArgumentParser:
    p = _Parser1(prog="natspace", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--format", choices=("text", "json"), default="text")

    sp = sub.add_parser("eval", help="evaluate an exact rational expression")
    sp.add_argument("expr")
    sp.add_argument("--bits", type=int, default=20)
    common(sp)
    sp._negative_number_matcher = re.compile("")  # like "-1", a dash word naming no option is expr

    sp = sub.add_parser("cantor", help="Cantor function on a ternary digit string")
    sp.add_argument("digits")
    sp.add_argument("--depth", type=int, default=None)
    common(sp)

    sp = sub.add_parser("linecall", help="IN/OUT/LET call on a measurement stream")
    sp.add_argument("input", nargs="?", default="-")
    sp.add_argument("--threshold-exp", type=int, default=8, dest="threshold_exp")
    sp.add_argument("--synthetic", default=None, help="rational limit; synthesizes the stream")
    common(sp)

    sp = sub.add_parser("subcover", help="finite subcover from an inductive cover file")
    sp.add_argument("cover_file")
    common(sp)

    sp = sub.add_parser("metric", help="metric bound table between two point files")
    sp.add_argument("space")
    sp.add_argument("x")
    sp.add_argument("y")
    sp.add_argument("--bits", type=int, default=4, help=(
        f"output precision; past {(3**DIGIT_CAP).bit_length() - 3} bits the bounds stay sound"
        f" but narrow little (each term is read to DIGIT_CAP = {DIGIT_CAP} ternary digits)"))
    common(sp)

    sp = sub.add_parser("validate", help="axiom report for a named space")
    sp.add_argument("space")
    sp.add_argument("--depth", type=int, default=100)
    common(sp)

    return p


_DISPATCH = {
    "eval": _cmd_eval,
    "cantor": _cmd_cantor,
    "linecall": _cmd_linecall,
    "subcover": _cmd_subcover,
    "metric": _cmd_metric,
    "validate": _cmd_validate,
}


@functools.cache
def _arg_parser() -> argparse.ArgumentParser:
    """The one parser of the process, built at its first use: parsing keeps
    no state in it."""
    return build_parser()


def main(argv: Optional[List[str]] = None) -> int:
    try:
        args = _arg_parser().parse_args(argv)
        return _DISPATCH[args.command](args, sys.stdout)
    except CliParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 1
    except PointDefect as exc:
        print(f"budget exhausted: {exc}", file=sys.stderr)
        return 3
    except (
        CliSemanticError,
        SpaceDefect,
        MorphismDefect,
        BarDefect,
        MetricDefect,
        ValueError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
