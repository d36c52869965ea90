#!/usr/bin/env python3
"""Physical lines and AST nodes of each module of src/natspace.

    python3 scripts/src_size.py [TREE ...]

Each TREE is a directory holding a checkout (by default, the one holding
this script).  One row per module, then the total: for each tree the
module's physical lines and the nodes of its syntax tree, docstrings
excluded, and with two trees or more the last tree's figures minus the
first's.  A module a tree lacks counts 0 there.

Reformatting, comments and docstrings change the lines but not the nodes,
so the node count tells a smaller program from a denser layout of the same
one.
"""

from __future__ import annotations

import argparse
import ast
from pathlib import Path
from typing import Dict, List, Tuple

ROOT = Path(__file__).resolve().parent.parent
_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def ast_nodes(source: str) -> int:
    """The nodes of source's syntax tree, less each docstring's two (the
    expression statement and its string constant)."""
    nodes = list(ast.walk(ast.parse(source)))
    docstrings = sum(isinstance(n, _SCOPES) and ast.get_docstring(n) is not None for n in nodes)
    return len(nodes) - 2 * docstrings


def module_sizes(tree: Path) -> Dict[str, Tuple[int, int]]:
    """module name -> (physical lines, AST nodes) for each module of tree's src/natspace."""
    return {
        path.stem: (len(text.splitlines()), ast_nodes(text))
        for path in sorted((tree / "src" / "natspace").glob("*.py"))
        for text in [path.read_text(encoding="utf-8")]
    }


def table(trees: List[Path]) -> List[str]:
    """The rows the script prints for trees, a header first."""
    sizes = [module_sizes(tree) for tree in trees]
    names = sorted(set().union(*sizes))
    rows = [(name, [s.get(name, (0, 0)) for s in sizes]) for name in names]
    rows.append(("total", [tuple(map(sum, zip(*s.values()))) if s else (0, 0) for s in sizes]))
    header = ["module"] + [f"{kind}:{tree}" for tree in trees for kind in ("lines", "nodes")]
    if len(trees) > 1:
        header += ["lines:diff", "nodes:diff"]
    out = ["\t".join(header)]
    for name, figures in rows:
        cells = [str(x) for pair in figures for x in pair]
        if len(trees) > 1:
            cells += [f"{last - first:+d}" for first, last in zip(figures[0], figures[-1])]
        out.append("\t".join([name] + cells))
    return out


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("trees", nargs="*", type=Path, metavar="TREE", default=[ROOT])
    for row in table(parser.parse_args().trees):
        print(row)


if __name__ == "__main__":
    main()
