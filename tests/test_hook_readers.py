"""The rank and unrank hooks are read in spaces.py only: every other module
of the package asks a space through index_of, enumerate_dot and
strict_refinements, so the choice between a closed form and a scan stays
with the space."""

import ast
from pathlib import Path

import natspace

_PACKAGE = Path(natspace.__file__).parent
_HOOKS = {"rank", "unrank"}


def test_only_spaces_reads_the_rank_hooks():
    sites = [
        f"{path.name}:{node.lineno}: .{node.attr}"
        for path in sorted(_PACKAGE.glob("*.py"))
        if path.name != "spaces.py"
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Attribute) and node.attr in _HOOKS
    ]
    assert sites == []
