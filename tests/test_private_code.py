"""No test-only private code in src/: every private top-level function of
obsent is read somewhere in src/ outside its own definition, so a helper
whose last caller went away cannot stay behind for the tests alone."""

import ast
from collections import defaultdict
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "obsent"


def test_every_private_function_is_used_in_src():
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    readers = defaultdict(set)  # name -> the top-level statements that read it
    for tree in trees.values():
        for stmt in tree.body:
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name):
                    readers[node.id].add(stmt)
                elif isinstance(node, ast.Attribute):
                    readers[node.attr].add(stmt)
    unused = [
        f"{module}: {stmt.name}"
        for module, tree in trees.items()
        for stmt in tree.body
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
        and stmt.name.startswith("_")
        and not stmt.name.startswith("__")
        and not readers[stmt.name] - {stmt}
    ]
    assert len(trees) > 1 and unused == []
