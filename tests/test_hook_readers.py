"""Decisions that one module owns are read there only.  The rank and unrank
hooks are read in spaces.py only: every other module of the package asks a
space through index_of, enumerate_dot and strict_refinements, so the choice
between a closed form and a scan stays with the space.  An interval dot's
lo and hi are read in dots.py only: every other module reads a layout
through endpoints, width, interval_gap, grid_ancestors and grid_neighbours,
so the layouts are stated once; metric.py reads no grid field (n, m, base)
at all.  metric.py and induction.py never name Isolated: they ask a space
through is_isolated, touch and apart, so the isolated-point rules stay with
the extension.  Only dots.py names Decimal: rationals are read and written
there, through read_rational and rational_text.  No module keeps a
WeakKeyDictionary of its own: data derived from a space is kept on the
space through Space.derived, so it dies with the space."""

import ast
from pathlib import Path

import pytest

import natspace

_PACKAGE = Path(natspace.__file__).parent


def _reads_outside(owner: str, attrs: set) -> list:
    return [
        f"{path.name}:{node.lineno}: .{node.attr}"
        for path in sorted(_PACKAGE.glob("*.py"))
        if path.name != owner
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Attribute) and node.attr in attrs
    ]


def test_only_spaces_reads_the_rank_hooks():
    assert _reads_outside("spaces.py", {"rank", "unrank"}) == []


def test_only_dots_reads_interval_endpoints():
    assert _reads_outside("dots.py", {"lo", "hi"}) == []


def test_metric_reads_no_grid_fields():
    # the grid layouts (n, m, base) are read through dots: grid_neighbours
    # states the star rules, seq_dot and nary_seq the digit strings
    tree = ast.parse((_PACKAGE / "metric.py").read_text())
    reads = [
        f"{node.lineno}: .{node.attr}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr in {"n", "m", "base"}
    ]
    assert reads == []


@pytest.mark.parametrize("module", ["metric.py", "induction.py"])
def test_never_names_isolated(module):
    tree = ast.parse((_PACKAGE / module).read_text())
    names = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and node.id == "Isolated"
        or isinstance(node, ast.alias) and node.name == "Isolated"
        or isinstance(node, ast.Attribute) and node.attr == "Isolated"
    ]
    assert names == []


def _names(node) -> set:
    """Every name, attribute and imported name under node."""
    return {getattr(n, "id", None) or getattr(n, "attr", None) or n.name
            for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute, ast.alias))}


def test_only_dots_names_decimal():
    named = [path.name for path in sorted(_PACKAGE.glob("*.py"))
             if "Decimal" in _names(ast.parse(path.read_text()))]
    assert named == ["dots.py"]


def test_no_module_keeps_a_weak_key_dictionary():
    kept = [
        f"{path.name}:{node.lineno}"
        for path in sorted(_PACKAGE.glob("*.py"))
        for node in ast.parse(path.read_text()).body
        if isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value is not None
        and "WeakKeyDictionary" in _names(node.value)
    ]
    assert kept == []
