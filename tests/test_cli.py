"""Command-line surface: outputs, formats, determinism, exit codes."""

import contextlib
import io
import json
import os
import random
import re
import subprocess
import sys
import tempfile
import time
import types
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

import natspace as ns
from natspace import cli
from natspace.cli import (
    EVAL_MAX_BITS, METRIC_MAX_BITS, VALIDATE_MAX_DEPTH, _tokenize, _union_covers_root,
    eval_expression_bounds, main, parse_expression,
)
from natspace.dots import (
    DyadicInterval as D, NaryInterval, RatInterval, Seq, dot_to_json, endpoints, read_rational,
)
from natspace.morphisms import LINE_CALL_MAX_EXPONENT

import oracles


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_eval_frozen_example(capsys):
    code, out, _ = run(capsys, "eval", "1/3 + 1/6", "--bits", "20")
    assert code == 0
    assert out == "lo 524287/1048576\nhi 524289/1048576\n"


def test_eval_bounds_contract():
    lo, hi = eval_expression_bounds("1/3 + 1/6", 20)
    assert lo <= F(1, 2) <= hi
    assert hi - lo <= F(1, 2**19)


def test_eval_fuzz_against_oracle():
    import random

    rng = random.Random(20240817)
    for _ in range(25):
        text, value = oracles.random_expression(rng, depth=3)
        lo, hi = eval_expression_bounds(text, 20)
        assert lo <= value <= hi
        assert hi - lo <= F(1, 2**19)


@given(st.integers(0, 2**32), st.integers(1, 200))
@settings(max_examples=30, deadline=None)
def test_eval_brackets_contain_the_exact_value(seed, bits):
    text, value = oracles.random_expression(random.Random(seed), depth=2)
    lo, hi = eval_expression_bounds(text, bits)
    assert lo <= value <= hi and hi - lo <= F(2, 2**bits)


def test_eval_json_format(capsys):
    code, out, _ = run(capsys, "eval", "1/2 * 1/2", "--bits", "10", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    lo, hi = F(payload["lo"]), F(payload["hi"])
    assert lo <= F(1, 4) <= hi


def test_eval_deterministic(capsys):
    outs = set()
    for _ in range(2):
        _, out, _ = run(capsys, "eval", "max(1/3, 1/4) - 2", "--bits", "16")
        outs.add(out)
    assert len(outs) == 1


def test_eval_parse_error_exit_1(capsys):
    code, _, err = run(capsys, "eval", "1 +")
    assert code == 1 and "parse error" in err
    code, _, err = run(capsys, "eval", "1/0")
    assert code == 1
    code, _, err = run(capsys, "eval", "2 / 3 / 4")  # no division operator
    assert code == 1


@pytest.mark.parametrize("expr", ["", "1+", "-", "2*", "abs(", "(", "min(1,", "(1"])
def test_an_expression_that_ends_early_says_so(capsys, expr):
    assert run(capsys, "eval", "--", expr) == (1, "", "parse error: unexpected end of expression\n")


@contextlib.contextmanager
def _no_int_digit_limit():
    """Python's int/str conversion without its digit limit, for the test's
    own reading and for the answer printed without it."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


@pytest.mark.parametrize("argv, value", [
    (("cantor", "0" * 20_000), None),
    (("eval", "--bits", "10000", "--", "7" * 2000), "7" * 2000),
    (("eval", "--", "7" * 5000), "7" * 5000),
], ids=["cantor-20000-zeros", "eval-10000-bits", "eval-5000-digit-literal"])
def test_answers_print_past_the_int_string_digit_limit(capsys, argv, value):
    code, out, err = run(capsys, *argv)
    assert code == 0 and err == ""
    with _no_int_digit_limit():
        assert run(capsys, *argv) == (code, out, err)  # the digits are the plain str()
        lo, hi = (F(line.split()[1]) for line in out.splitlines()[-2:])
        if value is None:  # the Cantor function maps 0^n to [0, 2^-n]
            assert (lo, hi) == (0, F(1, 2**20_000))
        else:
            assert lo <= int(value) <= hi


def _long_integer_dot():
    return '{"kind": "dyadic", "n": %s, "m": 2}' % ("1" * 5000)


@pytest.mark.parametrize("command", ["metric", "subcover", "linecall"])
def test_a_file_integer_too_long_to_read_is_a_parse_error(tmp_path, capsys, command):
    path = tmp_path / "long.json"
    if command == "metric":
        path.write_text(f"[{_long_integer_dot()}]")
        argv = ("metric", "sigma_R", str(path), str(path))
    elif command == "subcover":
        path.write_text('{"space": "sigma_R", "cover": [%s]}' % _long_integer_dot())
        argv = ("subcover", str(path))
    else:
        path.write_text(_long_integer_dot() + "\n")
        argv = ("linecall", str(path))
    assert run(capsys, *argv) == (
        1, "", f"parse error: {path}: an integer of 5000 digits is too long to read\n")


@pytest.mark.parametrize("digits", [1, 5000])
def test_a_rat_endpoint_reads_at_any_length(tmp_path, capsys, digits):
    # R_rat has no grades, so a file that reads gets this answer
    path = tmp_path / "rat.json"
    path.write_text('[{"kind": "rat", "lo": "0", "hi": "%s"}]' % ("7" * digits))
    assert run(capsys, "metric", "R_rat", str(path), str(path)) == (
        2, "", "error: R_rat: no grade structure\n")


@pytest.mark.parametrize("hi, text", [
    ("1/0", "zero denominator"),
    ("1e99999999999999999999", "exponent out of range"),  # Fraction(str) builds 10**exp
])
def test_a_bad_rat_endpoint_is_a_parse_error(tmp_path, capsys, hi, text):
    path = tmp_path / "rat.json"
    path.write_text('[{"kind": "rat", "lo": "0", "hi": "%s"}]' % hi)
    assert run(capsys, "metric", "R_rat", str(path), str(path)) == (
        1, "", f"parse error: {path}: ValueError: {text}\n")


@pytest.mark.parametrize("entry", ["synthetic", "rat endpoint", "eval literal"])
def test_an_exponent_past_the_cap_is_refused_at_once(tmp_path, capsys, entry):
    # 10**(10**7) took 9.3 s to build; the eval grammar reads no exponent at all
    path = tmp_path / "rat.json"
    path.write_text('[{"kind": "rat", "lo": "0", "hi": "1e10000000"}]')
    argv, expected = {
        "synthetic": (("linecall", "--synthetic=1e10000000"),
                      "parse error: bad synthetic value: exponent out of range\n"),
        "rat endpoint": (("metric", "R_rat", str(path), str(path)),
                         f"parse error: {path}: ValueError: exponent out of range\n"),
        "eval literal": (("eval", "--", "1e10000000"), "parse error: unknown function 'e'\n"),
    }[entry]
    start = time.perf_counter()
    assert run(capsys, *argv) == (1, "", expected)
    assert time.perf_counter() - start < 1


def test_an_exponent_at_the_cap_reads():
    assert read_rational("1e1000000") == 10**1000000
    for text in ("1e1000001", "-1e-1000001", "0e1000001", "0.1e-1000000"):
        with pytest.raises(ValueError, match="exponent out of range"):
            read_rational(text)


@pytest.mark.parametrize("expr", ["²", "1/²", "1+²", "1²"])
def test_eval_non_decimal_digits_parse_error(capsys, expr):
    # str.isdigit accepts a superscript two, which int() rejects
    code, _, err = run(capsys, "eval", "--", expr)
    assert code == 1 and "parse error" in err and "Traceback" not in err


def test_eval_reads_decimal_digits_of_any_script(capsys):
    # int() reads every decimal digit, so the Arabic-Indic three is a number
    assert run(capsys, "eval", "--", "٣+1") == run(capsys, "eval", "--", "3+1")
    code, out, _ = run(capsys, "eval", "--", "٣+1")
    lo, hi = (F(line.split()[1]) for line in out.splitlines())
    assert code == 0 and lo <= 4 <= hi


@pytest.mark.parametrize("expr, value", [("-(1)", -1), ("--1", 1), ("-1", -1), ("-(1)+2", 1)])
def test_eval_reads_an_expression_that_starts_with_a_dash(capsys, expr, value):
    answers = {run(capsys, "eval", *argv) for argv in (
        ("--bits", "8", expr), (expr, "--bits", "8"), ("--bits", "8", "--", expr),
    )}
    assert len(answers) == 1
    code, out, err = answers.pop()
    lo, hi = (F(line.split()[1]) for line in out.splitlines())
    assert code == 0 and err == "" and lo <= value <= hi and hi - lo <= F(1, 2**7)


def test_cantor_frozen_example(capsys):
    code, out, _ = run(capsys, "cantor", "02", "--depth", "2")
    assert code == 0
    assert out == "image 01\nlo 1/4\nhi 1/2\n"


def test_cantor_bad_digits_exit_1(capsys):
    code, _, _ = run(capsys, "cantor", "0x2")
    assert code == 1


def test_linecall_synthetic_verdicts(capsys):
    for value, expected in (("1/100", "IN"), ("-3/100", "OUT"), ("1/100000", "LET")):
        # the = form keeps argparse from reading a negative value as a flag
        code, out, _ = run(capsys, "linecall", f"--synthetic={value}")
        assert code == 0
        assert out.strip() == expected


@pytest.mark.parametrize("value, expected", [
    ("7" * 5000, "IN"),
    ("-" + "7" * 5000, "OUT"),
    ("0." + "0" * 5000 + "1", "LET"),
    ("1" + "0" * 5000 + "/" + "3" * 5000, "IN"),  # 3.000...3
], ids=["integer", "negative", "decimal", "slashed"])
def test_linecall_reads_a_synthetic_value_of_any_length(capsys, value, expected):
    assert run(capsys, "linecall", f"--synthetic={value}") == (0, expected + "\n", "")


@pytest.mark.parametrize("value, text", [
    ("1/0", "zero denominator"),
    ("-3/0_0", "zero denominator"),
    ("1e99999999999999999999", "exponent out of range"),
    ("1/3x", "Invalid literal for Fraction: '1/3x'"),
])
def test_linecall_names_what_is_wrong_with_a_synthetic_value(capsys, value, text):
    assert run(capsys, "linecall", f"--synthetic={value}") == (
        1, "", f"parse error: bad synthetic value: {text}\n")


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet="0123456789٣._eE+-/ d", max_size=12).filter(
    lambda text: not re.search(r"e[-+]?\d{3}", text, re.IGNORECASE)))  # exponents below 100
def test_a_synthetic_value_reads_as_fraction_reads_it(text):
    try:
        expected = F(text)
    except (ValueError, ZeroDivisionError) as exc:
        expected = "zero denominator" if isinstance(exc, ZeroDivisionError) else str(exc)
    try:
        got = read_rational(text)
    except ValueError as exc:
        got = str(exc)
    assert got == expected


def test_linecall_stream_file(tmp_path, capsys):
    # a stream pinned inside [-1/512, 1/512] at width 2^-8: LET
    path = tmp_path / "stream.jsonl"
    lines = [json.dumps(dot_to_json(D(-1, m))) for m in range(0, 10)]
    path.write_text("\n".join(lines) + "\n")
    code, out, _ = run(capsys, "linecall", str(path))
    assert code == 0 and out.strip() == "LET"


def test_linecall_short_stream_exit_3(tmp_path, capsys):
    path = tmp_path / "short.jsonl"
    lines = [json.dumps(dot_to_json(D(-1, m))) for m in range(0, 2)]
    path.write_text("\n".join(lines) + "\n")
    code, _, err = run(capsys, "linecall", str(path))
    assert code == 3 and "budget" in err


def test_subcover_round_trip(tmp_path, capsys, sigma01):
    bar = ns.genetic_uniform(sigma01, D(0, 1), 2)
    cover_dots = [dot_to_json(d) for d in sigma01.level(1)]
    blob = {
        "space": "sigma_[0,1]",
        "cover": cover_dots,
        "witness": ns.bar_to_json(bar),
    }
    path = tmp_path / "cover.json"
    path.write_text(json.dumps(blob))
    code, out, _ = run(capsys, "subcover", str(path), "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["union_covers_root"] is True
    assert len(payload["subcover"]) == 3


def test_subcover_without_witness_exit_2(tmp_path, capsys, sigma01):
    blob = {
        "space": "sigma_[0,1]",
        "cover": [dot_to_json(d) for d in sigma01.level(1)],
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(blob))
    code, _, err = run(capsys, "subcover", str(path))
    assert code == 2


def test_metric_table(tmp_path, capsys):
    xf = tmp_path / "x.json"
    yf = tmp_path / "y.json"
    x_dots = [D(0, 1)] + [D(0, m) for m in range(2, 14)]
    y_dots = [D(0, 1)] + [D(2**m - 2, m) for m in range(2, 14)]
    xf.write_text(json.dumps([dot_to_json(d) for d in x_dots]))
    yf.write_text(json.dumps([dot_to_json(d) for d in y_dots]))
    code, out, _ = run(
        capsys, "metric", "sigma_[0,1]^+", str(xf), str(yf), "--bits", "2",
        "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert len(payload["terms"]) == 3
    assert F(payload["lo"]) <= F(payload["hi"])


@pytest.mark.parametrize("length", [10, 13, 29])
def test_metric_point_files_need_only_the_dots_their_terms_read(tmp_path, capsys, length):
    # test_metric_table's points at 4 bits: every term's read stops by dot 10,
    # where the separators run out of zone steps; the full read at 13 dots
    # asked for a 14th dot (exit 3, "stream exhausted at index 13")
    files = []
    for name, dots in (("x", [D(0, 1)] + [D(0, m) for m in range(2, 30)]),
                       ("y", [D(0, 1)] + [D(2**m - 2, m) for m in range(2, 30)])):
        files.append(tmp_path / f"{name}.json")
        files[-1].write_text(json.dumps([dot_to_json(d) for d in dots[:length]]))
    code, out, err = run(capsys, "metric", "sigma_[0,1]^+", *map(str, files), "--bits", "4")
    assert (code, err) == (0, "")
    assert out.splitlines()[-2:] == ["lo 17/27", "hi 1043/1296"]


def test_validate_ok(capsys):
    code, out, _ = run(capsys, "validate", "sigma_R", "--depth", "30")
    assert code == 0
    assert "ok" in out


def test_validate_unknown_space_exit_2(capsys):
    code, _, _ = run(capsys, "validate", "nonsense")
    assert code == 2


def test_unknown_subcommand_exit_1(capsys):
    code, _, _ = run(capsys, "frobnicate")
    assert code == 1


def test_the_shared_parser_keeps_no_state(capsys, monkeypatch):
    """main parses with one parser per process: after a parse error, a json
    eval and a text eval, each call answers as a fresh parser would, and no
    default leaks from one subcommand into another."""
    calls = [
        ["eval", "--format", "xml", "--", "1"],
        ["eval", "--bits", "8", "--format", "json", "--", "1/3"],
        ["eval", "--", "1/3"],
        ["validate", "sigma_R", "--depth", "5"],
    ]
    shared = [run(capsys, *argv) for argv in calls]
    parsed = [vars(cli._arg_parser().parse_args(argv)) for argv in calls[1:]]
    monkeypatch.setattr(cli, "_arg_parser", cli.build_parser)
    assert [run(capsys, *argv) for argv in calls] == shared
    assert [vars(cli.build_parser().parse_args(argv)) for argv in calls[1:]] == parsed
    assert [code for code, _, _ in shared] == [1, 0, 0, 0]
    assert shared[2][1].startswith("lo ") and parsed[1]["format"] == "text"
    assert "bits" not in parsed[2] and "depth" not in parsed[1]


def test_linecall_reads_its_file_as_the_other_commands_do(tmp_path, capsys):
    # one reader: a JSON syntax error names no exception type, and a file
    # that is no UTF-8 is a parse error, for linecall, metric and subcover
    bad, latin = tmp_path / "bad.json", tmp_path / "latin.json"
    bad.write_text('{"kind": \n')
    latin.write_bytes(b"\xff[]")
    for path, text in ((bad, "Expecting value: line 2 column 1 (char 10)"),
                       (latin, "'utf-8' codec can't decode byte 0xff in position 0: "
                               "invalid start byte")):
        for argv in (("linecall", str(path)), ("metric", "sigma_R", str(path), str(path)),
                     ("subcover", str(path))):
            assert run(capsys, *argv) == (1, "", f"parse error: {path}: {text}\n"), argv


def test_linecall_reads_stdin_line_by_line(capsys, monkeypatch):
    lines = [json.dumps(dot_to_json(D(-1, m))) for m in range(0, 10)]
    monkeypatch.setattr(sys, "stdin", io.StringIO("\n\n".join(lines) + "\n"))
    assert run(capsys, "linecall") == (0, "LET\n", "")


def test_linecall_missing_file_exit_2(tmp_path, capsys):
    code, _, err = run(capsys, "linecall", str(tmp_path / "missing.json"))
    assert code == 2 and "Traceback" not in err


@pytest.mark.parametrize("bits", ["0", "-5"])
def test_eval_nonpositive_bits_exit_2(capsys, bits):
    code, _, err = run(capsys, "eval", "--bits", bits, "--", "1/3")
    assert code == 2 and "bits" in err


def test_eval_bits_above_the_cap_exit_2(capsys):
    start = time.perf_counter()
    code, _, err = run(capsys, "eval", "--bits", str(EVAL_MAX_BITS + 1), "--", "1/3")
    assert code == 2 and str(EVAL_MAX_BITS) in err and "Traceback" not in err
    assert time.perf_counter() - start < 1


def test_metric_negative_bits_exit_2(tmp_path, capsys):
    point = tmp_path / "x.json"
    point.write_text(json.dumps([dot_to_json(D(0, 1))]))
    code, _, err = run(capsys, "metric", "sigma_[0,1]^+", str(point), str(point),
                       "--bits=-5")
    assert code == 2 and "bits" in err and "Traceback" not in err


def test_metric_bits_cap(tmp_path, capsys):
    xf, yf = tmp_path / "x.json", tmp_path / "y.json"
    xf.write_text(json.dumps([dot_to_json(D(0, m)) for m in range(1, 40)]))
    yf.write_text(json.dumps([dot_to_json(D(2**m - 2, m)) for m in range(1, 40)]))
    start = time.perf_counter()
    code, _, err = run(capsys, "metric", "sigma_[0,1]^+", str(xf), str(yf),
                       "--bits", str(METRIC_MAX_BITS + 1))
    assert code == 2 and str(METRIC_MAX_BITS) in err and "Traceback" not in err
    assert time.perf_counter() - start < 1
    code, out, _ = run(capsys, "metric", "sigma_[0,1]^+", str(xf), str(yf),
                       "--bits", str(METRIC_MAX_BITS), "--format", "json")
    assert code == 0 and len(json.loads(out)["terms"]) == METRIC_MAX_BITS + 1


@pytest.mark.parametrize("bits", ["0", "1", "2", "3"])
@pytest.mark.parametrize("space", ["T2", "T3", "T2^+"])
def test_metric_without_separator_pairs_exit_2(tmp_path, capsys, space, bits):
    # every dot is isolated, so no level up to MAX_LEVEL_GRADE holds a pair
    point = tmp_path / "x.json"
    point.write_text(json.dumps([dot_to_json(Seq((0,) * n)) for n in range(3)]))
    start = time.perf_counter()
    code, _, err = run(capsys, "metric", space, str(point), str(point), "--bits", bits)
    assert code == 2 and "Traceback" not in err
    assert err == f"error: {space}: no separator pair 0 up to grade 9\n"
    assert time.perf_counter() - start < 5


def test_validate_depth_cap(capsys):
    start = time.perf_counter()
    code, _, err = run(capsys, "validate", "sigma_R", "--depth", str(VALIDATE_MAX_DEPTH + 1))
    assert code == 2 and str(VALIDATE_MAX_DEPTH) in err and "Traceback" not in err
    assert time.perf_counter() - start < 1
    code, out, _ = run(capsys, "validate", "sigma_[0,1]", "--depth", str(VALIDATE_MAX_DEPTH))
    assert code == 0 and f"depth={VALIDATE_MAX_DEPTH}" in out


@pytest.mark.parametrize(
    "cover",
    [
        [D(2, 3), D(4, 3)],  # [1/4,1/2] and [1/2,3/4] meet at 1/2
        [NaryInterval(3, 1, 1)],  # exactly the root
        [D(0, 2), RatInterval(F(1, 3), F(2, 3))],
        [D(0, 2), D(6, 3)],  # a gap (1/2, 3/4)
        [NaryInterval(3, 0, 1), NaryInterval(3, 2, 1)],  # touches the root's ends only
        [RatInterval(F(1, 3), F(13, 20)), RatInterval(F(2, 3), F(1))],  # misses (13/20, 2/3)
    ],
)
def test_union_covers_a_rational_root_of_another_den(cover):
    """A root [1/3, 2/3] over den 9 against covers over dens 8, 3 and 20."""
    root = RatInterval(F(1, 3), F(2, 3))
    got = _union_covers_root(types.SimpleNamespace(max_dot=root), cover)
    assert got == oracles.union_covers([endpoints(d) for d in cover], root.lo, root.hi)
    assert _union_covers_root(types.SimpleNamespace(max_dot=ns.MAX), cover) is None


@pytest.mark.parametrize(
    "expr",
    [
        "(" * 2000 + "1" + ")" * 2000,
        "+".join(["1"] * 1000),  # each addition nests three frames of a dot pull
        "-" * 2000 + "1",
    ],
    ids=["parens", "sum-chain", "minus-chain"],
)
def test_eval_deep_nesting_parse_error(capsys, expr):
    code, _, err = run(capsys, "eval", "--bits", "4", "--", expr)
    assert code == 1 and "parse error" in err and "Traceback" not in err


def test_eval_long_flat_sum_answers(capsys):
    # a sum pairs its operands without a Point around either normalized stream
    code, out, _ = run(capsys, "eval", "--bits", "4", "--", "+".join(["1"] * 250))
    lo, hi = (F(line.split()[1]) for line in out.splitlines())
    assert code == 0 and lo <= 250 <= hi


def test_eval_long_minus_chain_answers(capsys):
    # a unary operation costs one frame per dot pull: its image Point's dot
    code, out, _ = run(capsys, "eval", "--bits", "4", "--", "-" * 800 + "1")
    lo, hi = (F(line.split()[1]) for line in out.splitlines())
    assert code == 0 and lo <= 1 <= hi


_NESTED = {
    "parens": "(" * 400 + "1" + ")" * 400,
    "abs": "abs(" * 400 + "1" + ")" * 400,
}


@pytest.mark.parametrize("expr", _NESTED.values(), ids=_NESTED.keys())
def test_eval_400_nested_parentheses_answer(capsys, expr):
    # the parser spends two frames per level of parentheses or abs(
    code, out, _ = run(capsys, "eval", "--bits", "4", "--", expr)
    lo, hi = (F(line.split()[1]) for line in out.splitlines())
    assert code == 0 and lo <= 1 <= hi


@pytest.mark.parametrize("expr", _NESTED.values(), ids=_NESTED.keys())
def test_eval_400_nested_parentheses_answer_from_a_script(expr):
    script = "import sys; from natspace.cli import main; sys.exit(main(sys.argv[1:]))"
    proc = subprocess.run(
        [sys.executable, "-c", script, "eval", "--bits", "4", "--", expr],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    assert proc.returncode == 0, proc.stderr
    lo, hi = (F(line.split()[1]) for line in proc.stdout.splitlines())
    assert lo <= 1 <= hi


def test_parser_trees_match_the_three_method_parser():
    """Precedence climbing builds the trees of the expr/term/factor parser
    on the acceptance grammar's random expressions."""
    rng = random.Random(20241019)
    for _ in range(300):
        text, _ = oracles.random_expression(rng, depth=4)
        assert parse_expression(text) == oracles.ExpressionParserReference(_tokenize(text)).parse()


_ROOT = {"kind": "dyadic", "n": 0, "m": 1}  # the maximal dot of sigma_[0,1]
_LEVEL1 = [{"kind": "dyadic", "n": n, "m": 2} for n in range(3)]


def _cover(cover=_LEVEL1, derivation=None):
    node = {"leaf": _ROOT} if derivation is None else derivation
    return {"space": "sigma_[0,1]", "cover": cover, "witness": {"derivation": node}}


@pytest.mark.parametrize(
    "blob, code",
    [
        (_cover(derivation={"children": []}), 1),  # neither leaf nor split
        ({"space": "sigma_[0,1]", "cover": _LEVEL1, "witness": [1, 2]}, 1),
        (_cover(cover=[{"kind": "foo"}]), 1),  # unknown kind
        (_cover(cover=[{"kind": "dyadic", "n": 1}]), 1),  # missing field
        (_cover(cover=[{"kind": "dyadic", "n": "x", "m": 0}]), 1),  # not a number
        (_cover(_LEVEL1 + [{"kind": "max"}], {"leaf": {"kind": "max"}}), 2),
        (_cover(derivation={"split": {"kind": "seq", "syms": [0]}, "children": []}), 2),
        (_cover(derivation={"leaf": _LEVEL1[0]}), 2),  # not rooted at the root
        (_cover(cover=[{"kind": "max"}]), 2),  # a cover dot above the root
        (_cover(cover=[{"kind": "seq", "syms": [0]}]), 2),  # a dot of another space
        # every child claims the first successor
        (_cover(derivation={"split": _ROOT, "children": [{"leaf": _LEVEL1[0]}] * 3}), 2),
        # fields that are no JSON integers or lists, each coercible to a dot
        (_cover(cover=[{"kind": "dyadic", "n": 0, "m": 1.5}]), 1),
        (_cover(cover=[{"kind": "dyadic", "n": "0", "m": 1}]), 1),
        (_cover(derivation={"leaf": {"kind": "dyadic", "n": False, "m": True}}), 1),
        (_cover(cover=[{"kind": "seq", "syms": "12"}]), 1),
        (_cover(cover=[{"kind": "trail", "items": {}}]), 1),
    ],
    ids=[
        "no-leaf-or-split", "witness-list", "unknown-kind", "missing-field",
        "non-numeric", "leaf-max", "split-seq", "leaf-below-root", "cover-max",
        "cover-seq", "child-dot", "float-field", "string-field", "bool-fields",
        "string-syms", "object-items",
    ],
)
def test_subcover_malformed_file_exit_codes(tmp_path, capsys, blob, code):
    path = tmp_path / "cover.json"
    path.write_text(json.dumps(blob))
    got, _, err = run(capsys, "subcover", str(path))
    assert got == code and "Traceback" not in err


@pytest.mark.parametrize(
    "dot, code",
    [({"kind": "foo"}, 1), ({"kind": "dyadic", "n": "x", "m": 0}, 1),
     ({"kind": "seq", "syms": [0]}, 2),
     # fields that are no JSON integers or lists, each coercible to a dot
     ({"kind": "dyadic", "n": 0, "m": 1.5}, 1), ({"kind": "dyadic", "n": "0", "m": 1}, 1),
     ({"kind": "dyadic", "n": False, "m": True}, 1), ({"kind": "seq", "syms": "12"}, 1),
     ({"kind": "seq", "syms": [True]}, 1), ({"kind": "trail", "items": {}}, 1),
     # a rat dot's endpoints are strings, as dot_to_json writes them
     ({"kind": "rat", "lo": "0", "hi": "1/2"}, 2), ({"kind": "rat", "lo": 0.1, "hi": True}, 1),
     ({"kind": "rat", "lo": 0, "hi": "1"}, 1), ({"kind": "rat", "lo": "0", "hi": True}, 1)],
    ids=["unknown-kind", "non-numeric", "seq", "float-field", "string-field", "bool-fields",
         "string-syms", "bool-sym", "object-items", "rat", "rat-float-bool", "rat-int-lo",
         "rat-bool-hi"],
)
def test_point_files_malformed_dot_exit_codes(tmp_path, capsys, dot, code):
    stream = tmp_path / "stream.jsonl"
    stream.write_text(json.dumps(dot) + "\n")
    got, _, err = run(capsys, "linecall", str(stream))
    assert got == code and "Traceback" not in err
    point = tmp_path / "x.json"
    point.write_text(json.dumps([dot]))
    got, _, err = run(capsys, "metric", "sigma_[0,1]^+", str(point), str(point))
    assert got == code and "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [["subcover", "FILE"], ["metric", "sigma_R", "FILE", "FILE"], ["linecall", "FILE"]],
    ids=["subcover", "metric", "linecall"],
)
def test_deeply_nested_json_parse_error(tmp_path, capsys, argv):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000)
    code, _, err = run(capsys, *(str(path) if a == "FILE" else a for a in argv))
    assert code == 1 and "parse error" in err and "Traceback" not in err


def test_a_dot_too_deep_to_print_is_a_parse_error(tmp_path, capsys):
    # a nested tuple dot that reads, fails the check, and is too deep to print
    path = tmp_path / "deep.json"
    codes = set()
    for depth in range(100, 800, 10):
        path.write_text('{"kind":"tuple","items":[' * depth + '{"kind":"max"}' + "]}" * depth)
        code, _, err = run(capsys, "linecall", str(path), "--threshold-exp", "0")
        assert code in (1, 2) and "Traceback" not in err, depth
        codes.add(code)
    assert codes == {1, 2}


def test_linecall_threshold_cap(capsys):
    cap = str(LINE_CALL_MAX_EXPONENT)
    start = time.perf_counter()
    code, _, err = run(capsys, "linecall", "--synthetic=1/3", "--threshold-exp", "100000")
    assert code == 2 and cap in err and "Traceback" not in err
    assert time.perf_counter() - start < 1
    assert run(capsys, "linecall", "--synthetic=1/3", "--threshold-exp", cap)[:2] == (0, "IN\n")


# ---------------------------------------------------------------------------
# Fuzz: any argv and any file contents keep the exit-code contract.

_SPACE_NAMES = st.sampled_from(
    ["sigma_R", "sigma_[0,1]", "sigma_[0,1]^+", "R_rat", "R_ter", "[0,1]_bin", "baire",
     "cantor", "T3", "T2^+", "nowhere"]
)
_small = st.integers(-2, 12).map(str)
_field = st.one_of(st.integers(-4, 9), st.text(max_size=2), st.none())
_rational_text = st.sampled_from(["0", "1/3", "-2/3", "1", "1/0", "x", ""])
_leaf_dots = st.one_of(
    st.fixed_dictionaries({"kind": st.just("dyadic"), "n": _field, "m": _field}),
    st.fixed_dictionaries({"kind": st.just("nary"), "base": _field, "n": _field, "m": _field}),
    st.fixed_dictionaries({"kind": st.just("rat"), "lo": _rational_text, "hi": _rational_text}),
    st.fixed_dictionaries(
        {"kind": st.sampled_from(["max", "iso", "ball", "seq", "bogus"]), "k": _field,
         "i": _field, "s": _field, "syms": st.lists(_field, max_size=3)}
    ),
    _field,
)
_dots_json = st.recursive(
    _leaf_dots,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.fixed_dictionaries(
            {"kind": st.sampled_from(["tuple", "trail"]), "items": st.lists(inner, max_size=3)}
        ),
        st.fixed_dictionaries({"leaf": inner}),
        st.fixed_dictionaries({"split": inner, "children": st.lists(inner, max_size=3)}),
    ),
    max_leaves=8,
)


def _nested(depth: int, shape) -> str:
    opener, leaf, closer = shape
    return opener * depth + leaf + closer * depth


_deep_json = st.builds(
    _nested,
    st.integers(1, 20_000),
    st.sampled_from([("[", "", "]"), ('{"kind":"tuple","items":[', '{"kind":"max"}', "]}"),
                     ('{"split":{"kind":"max"},"children":[', "", "]}")]),
)
_file_texts = st.one_of(
    _dots_json.map(json.dumps),
    st.lists(_dots_json, max_size=4).map(lambda ds: "\n".join(map(json.dumps, ds))),
    st.fixed_dictionaries(
        {"space": _SPACE_NAMES, "cover": st.lists(_dots_json, max_size=4),
         "witness": st.fixed_dictionaries({"derivation": _dots_json})}
    ).map(json.dumps),
    _deep_json,
    st.text(max_size=12),
)
_exprs = st.one_of(
    st.text(alphabet="0123456789+-*/(), absminx", max_size=24),
    st.builds(_nested, st.integers(1, 3000),
              st.sampled_from([("(", "1", ")"), ("-", "1", ""), ("abs(", "1", ")")])),
)


@st.composite
def _invocations(draw):
    """An argv for one subcommand; @x and @y stand for two fuzzed files."""
    command = draw(st.sampled_from(["eval", "cantor", "linecall", "subcover", "metric",
                                    "validate", "nope"]))
    if command == "eval":
        argv = ["eval", "--bits", draw(_small), "--", draw(_exprs)]
    elif command == "cantor":
        argv = ["cantor", draw(st.text("0123x", max_size=6)), "--depth", draw(_small)]
    elif command == "linecall":
        source = draw(st.sampled_from([["@x"], ["--synthetic", "1/3"], ["--synthetic=x"]]))
        argv = ["linecall", *source, "--threshold-exp", draw(_small)]
    elif command == "subcover":
        argv = ["subcover", "@x"]
    elif command == "metric":
        bits = draw(st.sampled_from(["-1", "0", "1", "2", str(METRIC_MAX_BITS + 1), "300"]))
        argv = ["metric", draw(_SPACE_NAMES), "@x", "@y", "--bits", bits]
    elif command == "validate":
        depth = st.one_of(st.integers(-1, 25), st.integers(VALIDATE_MAX_DEPTH + 1, 10**6))
        argv = ["validate", draw(_SPACE_NAMES), "--depth", draw(depth.map(str))]
    else:
        argv = [command]
    extra = st.sampled_from(["--format", "json", "text", "xml", "--bits", "-h", "7"])
    return argv + draw(st.lists(extra, max_size=2))


@given(_invocations(), _file_texts, _file_texts)
@settings(max_examples=80, deadline=None)
def test_cli_fuzz_keeps_the_exit_code_contract(argv, x_text, y_text):
    with tempfile.TemporaryDirectory() as tmp:
        files = {}
        for name, text in (("@x", x_text), ("@y", y_text)):
            files[name] = os.path.join(tmp, name[1:] + ".json")
            with open(files[name], "w", encoding="utf-8") as fh:
                fh.write(text)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main([files.get(a, a) for a in argv])
            except SystemExit as exc:  # --help
                code = exc.code
    assert code in (0, 1, 2, 3), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()
