#!/usr/bin/env python3
"""A transcript of the command line's texts: each invocation of a fixed list
run through `natspace.cli.main` in-process, with its argv, its input files,
its exit code, its stdout and its stderr.

    PYTHONPATH=src python3 scripts/transcript.py

writes tests/transcripts/cli.txt, which tests/test_transcript.py replays
byte for byte.  The list covers every subcommand in text and JSON form,
every `raise Cli…` site of cli.py and the exit codes 0 to 3.  One site,
compile_expression's unknown node, no argv reaches (the parser makes no
such node), so one entry calls it as a library caller would.  A change
that alters a text regenerates the file: its diff lists the texts that
changed.
"""

from __future__ import annotations

import contextlib
import io
import json
import shlex
import sys
import tempfile
from pathlib import Path

import natspace as ns
from natspace import cli
from natspace.dots import DyadicInterval as D, Isolated, NaryInterval, dot_to_json

OUT = Path(__file__).resolve().parent.parent / "tests" / "transcripts" / "cli.txt"


def _dots(dots) -> str:
    return json.dumps([dot_to_json(d) for d in dots]) + "\n"


def _lines(dots) -> str:
    return "".join(json.dumps(dot_to_json(d)) + "\n" for d in dots)


def _canonical(space_name: str, a, count: int = 40) -> str:
    """The first count dots of the canonical point of a, as a point file."""
    point = ns.canonical_point(cli._resolve_space(space_name), a)
    return _dots(point.dot(k) for k in range(count))


def _cover(**fields) -> str:
    root = {"kind": "dyadic", "n": 0, "m": 1}
    blob = {"space": "sigma_[0,1]", "cover": [{"kind": "dyadic", "n": n, "m": 2} for n in range(3)],
            "witness": {"derivation": {"leaf": root}}}
    return json.dumps({k: v for k, v in {**blob, **fields}.items() if v is not None}) + "\n"


def cases() -> list:
    """(argv, {file name: content}) per invocation, in transcript order; a
    string in place of argv is a library call, a Python expression over cli's names."""
    bar = ns.genetic_uniform(ns.std_space("sigma_[0,1]"), D(0, 1), 2)
    cover = _cover(witness=ns.bar_to_json(bar))
    sig, ter = "sigma_[0,1]^+", "[0,1]_ter^+"
    sig_x, sig_y = _canonical(sig, D(1, 3)), _canonical(sig, Isolated(2))
    ter_x, ter_y = _canonical(ter, Isolated(5)), _canonical(ter, NaryInterval(3, 4, 3))
    stream = _lines(D(-1, m) for m in range(10))
    return [
        # answers, text and JSON
        (["eval", "1/3 + 1/6", "--bits", "20"], {}),
        (["eval", "min(1/3, -2/7) * abs(-5/3) - max(1, 1/2)", "--bits", "30",
          "--format", "json"], {}),
        (["eval", "-(1)", "--bits", "8"], {}),
        (["cantor", "0122"], {}),
        (["cantor", "0200", "--depth", "3", "--format", "json"], {}),
        (["linecall", "stream.jsonl"], {"stream.jsonl": stream}),
        (["linecall", "--synthetic=1/3", "--format", "json"], {}),
        (["linecall", "--synthetic=-2.5e-3", "--threshold-exp", "12"], {}),
        (["subcover", "cover.json"], {"cover.json": cover}),
        (["subcover", "cover.json", "--format", "json"], {"cover.json": cover}),
        (["subcover", "cover.json"], {"cover.json": json.dumps({  # no interval: no union check
            "space": "cantor", "cover": [{"kind": "seq", "syms": [s]} for s in (0, 1)],
            "witness": {"derivation": {"split": {"kind": "seq", "syms": []}, "children": [
                {"leaf": {"kind": "seq", "syms": [s]}} for s in (0, 1)]}}}) + "\n"}),
        (["metric", sig, "x.json", "y.json", "--bits", "4"], {"x.json": sig_x, "y.json": sig_y}),
        (["metric", sig, "x.json", "y.json", "--bits", "2", "--format", "json"],
         {"x.json": sig_x, "y.json": sig_y}),
        (["metric", ter, "x.json", "y.json", "--bits", "4"], {"x.json": ter_x, "y.json": ter_y}),
        (["metric", ter, "x.json", "x.json", "--bits", "3", "--format", "json"],
         {"x.json": ter_y}),
        (["validate", "sigma_R", "--depth", "30"], {}),
        (["validate", "[0,1]_ter^+", "--depth", "20", "--format", "json"], {}),
        # parse errors (exit 1), one per raise site
        (["eval", "foo(1)"], {}),
        (["eval", "1 & 2"], {}),
        (["eval", "min(1"], {}),
        (["eval", "min(1)"], {}),
        (["eval", "1 2"], {}),
        (["eval", "1/0"], {}),
        (["eval", "1 +"], {}),
        (["eval", ")"], {}),
        (["eval", "-" * 5000 + "1", "--bits", "4"], {}),
        (["cantor", "013"], {}),
        (["linecall", "--synthetic=abc"], {}),
        (["linecall", "big.jsonl"], {"big.jsonl": '{"kind": "dyadic", "n": ' + "7" * 5000
                                     + ', "m": 1}\n'}),
        (["subcover", "bad.json"], {"bad.json": "{\n"}),
        (["subcover", "list.json"], {"list.json": "[]\n"}),
        (["subcover", "cover.json"], {"cover.json": _cover(cover=[{"kind": "foo"}])}),
        (["metric", sig, "x.json", "x.json"], {"x.json": "{}\n"}),
        (["eval"], {}),
        (["frobnicate"], {}),
        # semantic errors (exit 2)
        ("compile_expression(('pow', ('rat', 1)))", {}),
        (["validate", "nonsense"], {}),
        (["subcover", "missing.json"], {}),
        (["metric", sig, "x.json", "x.json"], {"x.json": _dots([ns.Seq((0,))])}),
        (["subcover", "cover.json"], {"cover.json": _cover(
            witness={"derivation": {"leaf": {"kind": "dyadic", "n": 0, "m": 2}}})}),
        (["subcover", "cover.json"], {"cover.json": _cover(witness=None)}),
        (["subcover", "cover.json"], {"cover.json": _cover(cover=[
            {"kind": "dyadic", "n": 0, "m": 2}])}),
        (["subcover", "cover.json"], {"cover.json": _cover(witness={"derivation": {
            "split": {"kind": "dyadic", "n": 0, "m": 1},
            "children": [{"leaf": {"kind": "dyadic", "n": 0, "m": 2}}] * 3}})}),
        (["subcover", "cover.json"], {"cover.json": json.dumps({
            "space": "baire", "cover": [{"kind": "seq", "syms": []}],
            "witness": {"derivation": {"leaf": {"kind": "seq", "syms": []}}}}) + "\n"}),
        (["eval", "1", "--bits", "0"], {}),
        (["cantor", "012", "--depth", "0"], {}),
        (["linecall", "empty.jsonl"], {"empty.jsonl": "\n"}),
        (["linecall", "--synthetic=1/3", "--threshold-exp", "0"], {}),
        (["metric", sig, "x.json", "y.json", "--bits", "-1"], {}),
        (["metric", sig, "x.json", "y.json", "--bits", "11"], {}),
        (["metric", "T2", "x.json", "x.json"], {"x.json": _dots([ns.Seq((0,))])}),
        (["validate", "sigma_R", "--depth", "501"], {}),
        # budget exhausted (exit 3)
        (["linecall", "short.jsonl"], {"short.jsonl": _lines(D(-1, m) for m in range(2))}),
        (["metric", sig, "x.json", "y.json", "--bits", "4"],
         {"x.json": sig_x, "y.json": _dots([Isolated(2), Isolated(3)])}),
    ]


def run(argv, files) -> str:
    """One transcript entry: the invocation run in a fresh directory holding its files."""
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.chdir(tmp):
        for name, content in files.items():
            Path(name).write_text(content, encoding="utf-8")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if isinstance(argv, str):
                try:
                    ending = f"returned {eval(argv, vars(cli))!r}"
                except cli.CliSemanticError as exc:
                    ending = f"raised {type(exc).__name__}: {exc}"
            else:
                ending = f"exit {cli.main(argv)}"
    head = f">>> cli.{argv}" if isinstance(argv, str) else "$ natspace " + shlex.join(argv)
    shown = "".join(f"--- file {name}\n{content}" for name, content in files.items())
    return (f"{head}\n{shown}--- {ending}\n"
            f"--- stdout\n{out.getvalue()}--- stderr\n{err.getvalue()}\n")


def main() -> int:
    OUT.parent.mkdir(exist_ok=True)
    OUT.write_text("".join(run(argv, files) for argv, files in cases()), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
