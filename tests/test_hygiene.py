"""Source hygiene: checks on the text of src/twkbest, not on its behaviour."""
import ast
import pathlib

import pytest

import twkbest.core

SRC = pathlib.Path(twkbest.core.__file__).resolve().parent


def unused_imports(source: str) -> list[str]:
    """Names bound by a top-level import that the module never reads."""
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = f"line {node.lineno}: {name}"
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [where for name, where in bound.items() if name not in read]


def test_unused_imports_are_found():
    assert unused_imports("import os\nfrom a import b, c as d\nd()\n") == [
        "line 1: os", "line 2: b"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_unused_top_level_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
