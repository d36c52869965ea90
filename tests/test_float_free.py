"""The core computes without floating point: no float literal, no float()
call and no math.log*/math.sqrt call in any module of the package."""

import ast
from pathlib import Path

import natspace

_PACKAGE = Path(natspace.__file__).parent


def _float_sites(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            yield node.lineno, f"float literal {node.value!r}"
        elif isinstance(node, ast.Call):
            f = node.func
            if isinstance(f, ast.Name) and f.id == "float":
                yield node.lineno, "float() call"
            elif (isinstance(f, ast.Attribute) and isinstance(f.value, ast.Name)
                  and f.value.id == "math" and (f.attr.startswith("log") or f.attr == "sqrt")):
                yield node.lineno, f"math.{f.attr}() call"


def test_no_floating_point_in_the_core():
    sites = [
        f"{path.name}:{line}: {what}"
        for path in sorted(_PACKAGE.glob("*.py"))
        for line, what in _float_sites(ast.parse(path.read_text(), str(path)))
    ]
    assert sites == []
