"""Every import in the package and its tests is used, the package
imports at module level only, and every function, class and method the
package defines is read somewhere in the package: a definition that
only tests use belongs in `tests/`."""

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


def defined_names(source):
    """(line, name) of each function, class and method a file defines,
    dunders left out."""
    return sorted((node.lineno, node.name)
                  for node in ast.walk(ast.parse(source))
                  if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                       ast.ClassDef))
                  and not (node.name.startswith("__")
                           and node.name.endswith("__")))


def read_names(source):
    """Every name a file reads, as a Name or as an Attribute."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute) \
                and isinstance(node.ctx, ast.Load):
            out.add(node.attr)
    return out


def test_scan_finds_an_unread_definition():
    source = ("class A:\n    def f(self):\n        return g()\n"
              "    def __init__(self):\n        self.h = 1\n"
              "def g():\n    pass\ndef h():\n    pass\n")
    read = read_names(source)
    assert [(line, name) for line, name in defined_names(source)
            if name not in read] == [(1, "A"), (2, "f"), (8, "h")]


def test_every_package_definition_has_a_package_reader():
    read = set().union(*(read_names(p.read_text()) for p in PACKAGE))
    unread = [(str(p.relative_to(ROOT)), line, name) for p in PACKAGE
              for line, name in defined_names(p.read_text())
              if name not in read]
    assert unread == []
