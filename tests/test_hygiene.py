"""Source hygiene: checks on the text of src/twkbest, not on its behaviour."""
import ast
import pathlib

import pytest

import twkbest.core

SRC = pathlib.Path(twkbest.core.__file__).resolve().parent
PERFBENCH = SRC.parents[1] / "perfbench"
# Reference code that tests compare the engine against; nothing else calls it.
REFERENCE_ONLY = {
    "merge": "criterion 7 checks the top-k operators against their laws",
    "combine": "criterion 7 checks the top-k operators against their laws",
}


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


def defined_names(source: str) -> list[str]:
    """Names of the functions, methods and classes a module defines, except
    dunder methods, which Python calls by protocol."""
    return [n.name for n in ast.walk(ast.parse(source))
            if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef,
                              ast.ClassDef))
            and not (n.name.startswith("__") and n.name.endswith("__"))]


def referenced_names(source: str) -> set[str]:
    """Names a module reads, imports, rebinds or spells as a string (the
    argument of a getattr or setattr)."""
    out = set()
    for n in ast.walk(ast.parse(source)):
        if isinstance(n, ast.Name):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        elif isinstance(n, ast.ImportFrom):
            out.update(alias.name for alias in n.names)
        elif isinstance(n, ast.Constant) and isinstance(n.value, str):
            out.add(n.value)
    return out


def unreferenced_definitions(modules, readers) -> list[str]:
    """Names defined in modules that no source in readers references."""
    used = set().union(*map(referenced_names, readers))
    return sorted({name for source in modules
                   for name in defined_names(source) if name not in used})


def test_unreferenced_definitions_are_found():
    module = "def kept():\n    pass\n\n\ndef dead():\n    kept()\n"
    assert unreferenced_definitions([module], [module]) == ["dead"]


def test_every_definition_has_a_caller_outside_tests():
    def read(paths):
        return [p.read_text(encoding="utf-8") for p in sorted(paths)]

    modules = read(SRC.glob("*.py"))
    readers = modules + read(PERFBENCH.glob("*.py"))
    assert unreferenced_definitions(modules, readers) == sorted(REFERENCE_ONLY)


def test_unused_imports_are_found():
    assert unused_imports("import os\nfrom a import b, c as d\nd()\n") == [
        "line 1: os", "line 2: b"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_unused_top_level_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
