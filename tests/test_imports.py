"""Every import in the package and its tests is used, and the package
imports at module level only."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "logaq").glob("*.py"))
FILES = sorted([*PACKAGE, *(ROOT / "tests").glob("*.py")])


def unused_imports(source):
    """(line, name) of each name an import binds that no Name node reads."""
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [(node.lineno, a.asname or a.name.split(".")[0])
                      for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            bound += [(node.lineno, a.asname or a.name)
                      for a in node.names if a.name != "*"]
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [(line, name) for line, name in bound if name not in read]


def nested_imports(source):
    """Line of each import statement that is not at module level."""
    tree = ast.parse(source)
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and node not in tree.body]


def test_scan_finds_an_unused_import():
    assert unused_imports("import os\nfrom a import b, c as d\nd()\n") \
        == [(1, "os"), (2, "b")]
    assert unused_imports("def f():\n    from a import b\n") == [(2, "b")]


@pytest.mark.parametrize("path", FILES,
                         ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_scan_finds_a_nested_import():
    assert nested_imports("import os\ndef f():\n    from a import b\n"
                          "    return b\n") == [3]


@pytest.mark.parametrize("path", PACKAGE,
                         ids=lambda p: str(p.relative_to(ROOT)))
def test_package_imports_at_module_level(path):
    assert nested_imports(path.read_text()) == []
