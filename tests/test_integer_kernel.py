"""Exact arithmetic on the eval path runs in integers: round_hull, the hull
ops, arith's dot map and rational_to_point build no Fraction and take no true
division, so that none of them drifts back to rational arithmetic."""

import ast
import inspect

from natspace import morphisms, points


def _top_level(module):
    tree = ast.parse(inspect.getsource(module))
    return {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}


def _fraction_sites(fn: ast.FunctionDef):
    for node in ast.walk(fn):
        if isinstance(node, ast.Call):
            f = node.func
            if (isinstance(f, ast.Name) and f.id == "Fraction") or (
                    isinstance(f, ast.Attribute) and f.attr == "Fraction"):
                yield node.lineno, "Fraction() call"
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            yield node.lineno, "true division"


def test_integer_kernel_builds_no_fraction():
    top = _top_level(morphisms)
    kernel = {name: fn for name, fn in top.items()
              if name == "round_hull" or name.startswith("_hull_")}
    fmaps = [node for node in ast.walk(top["arith"])
             if isinstance(node, ast.FunctionDef) and node.name == "fmap"]  # one per arity
    kernel.update((f"arith.fmap@{fn.lineno}", fn) for fn in fmaps)
    kernel["rational_to_point"] = _top_level(points)["rational_to_point"]
    assert {"round_hull", "_hull_add", "_hull_mul"} <= set(kernel) and len(fmaps) == 2
    sites = [f"{name}:{line}: {what}" for name, fn in sorted(kernel.items())
             for line, what in _fraction_sites(fn)]
    assert sites == []
