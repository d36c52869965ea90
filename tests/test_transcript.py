"""The command line's texts against tests/transcripts/cli.txt: a replay of
scripts/transcript.py's invocations, byte for byte, that reaches every
`raise Cli…` line of cli.py."""

import importlib.util
import pathlib
import re
import sys

import pytest

from natspace import cli

ROOT = pathlib.Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def replay():
    """The replayed transcript and the cli.py lines it ran, seen by a line
    tracer; a profile hook sets the tracer again where an overflow dropped it."""
    spec = importlib.util.spec_from_file_location("transcript", ROOT / "scripts" / "transcript.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    ran = set()

    def on_line(frame, event, arg):
        if event == "line":
            ran.add(frame.f_lineno)
        return on_line

    def on_call(frame, event, arg):
        return on_line if frame.f_code.co_filename == cli.__file__ else None

    def rearm(frame, event, arg):  # Python drops a tracer that a recursion overflow reaches
        if sys.gettrace() is None:
            sys.settrace(on_call)

    parts = []
    try:
        for argv, files in module.cases():
            sys.setprofile(rearm)
            sys.settrace(on_call)
            parts.append(module.run(argv, files))
    finally:
        sys.setprofile(None)  # first, or it sets the tracer again
        sys.settrace(None)
    return "".join(parts), ran


def test_transcript_replays_byte_for_byte(replay):
    text, _ = replay
    assert text == (ROOT / "tests" / "transcripts" / "cli.txt").read_text(encoding="utf-8")


def test_transcript_reaches_every_raise_site_and_exit_code(replay):
    text, ran = replay
    source = pathlib.Path(cli.__file__).read_text(encoding="utf-8").splitlines()
    sites = [n for n, line in enumerate(source, 1) if re.match(r"\s*raise Cli", line)]
    assert sites and [n for n in sites if n not in ran] == []
    assert set(re.findall(r"^--- exit (\d+)$", text, re.M)) == {"0", "1", "2", "3"}
