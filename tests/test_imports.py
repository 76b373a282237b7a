"""Every import in the package and its tests is used, the package
imports at module level only, every function, class and method the
package defines is read somewhere in the package (a definition that
only tests use belongs in `tests/`), and only the ring and the engine
read the position arithmetic of the packed term layout."""

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
    """(line, name, is_method) of each function, class and method a file
    defines, dunders left out."""
    tree = ast.parse(source)
    methods = {id(node) for cls in ast.walk(tree)
               if isinstance(cls, ast.ClassDef) for node in cls.body}
    return sorted((node.lineno, node.name, id(node) in methods)
                  for node in ast.walk(tree)
                  if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                       ast.ClassDef))
                  and not (node.name.startswith("__")
                           and node.name.endswith("__")))


def read_names(source):
    """(names a file reads as a Name, names it reads as an Attribute)."""
    names, attrs = set(), set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) \
                and isinstance(node.ctx, ast.Load):
            attrs.add(node.attr)
    return names, attrs


def unread(defined, names, attrs):
    """(line, name) of each definition nothing reads.  A method is read
    only through an Attribute: a bare Name of the same spelling, such as
    `sub` imported from `operator`, is another object.  The scan still
    cannot tell apart methods that share a name across classes: one
    reader of `FpModule.free` or `ModHom.is_well_defined` counts for
    every class's `free` or `is_well_defined`."""
    return [(line, name) for line, name, is_method in defined
            if name not in attrs and (is_method or name not in names)]


def test_scan_finds_an_unread_definition():
    source = ("class A:\n    def f(self):\n        return g()\n"
              "    def __init__(self):\n        self.h = 1\n"
              "def g():\n    pass\ndef h():\n    pass\n")
    assert unread(defined_names(source), *read_names(source)) \
        == [(1, "A"), (2, "f"), (8, "h")]


def test_scan_reads_a_method_only_as_an_attribute():
    # `sub` is read as a Name, from operator, so the method stays unread;
    # `add` is read as an Attribute, so the method counts as read
    source = ("from operator import sub\n"
              "class F:\n    def sub(self, a, b):\n        return a - b\n"
              "    def add(self, a, b):\n        return sub(a, -b)\n"
              "def g(f):\n    return f.add(1, 2)\n"
              "g(F())\n")
    assert unread(defined_names(source), *read_names(source)) \
        == [(3, "sub")]


def test_every_package_definition_has_a_package_reader():
    names, attrs = set(), set()
    for p in PACKAGE:
        n, a = read_names(p.read_text())
        names |= n
        attrs |= a
    found = [(str(p.relative_to(ROOT)), line, name) for p in PACKAGE
             for line, name in unread(defined_names(p.read_text()),
                                      names, attrs)]
    assert found == []


PACKED_LAYOUT = {"top", "unpack", "pack", "monomial", "guards",
                 "exponent_mask", "units"}
# what each module may read of the packed layout: the ring and the engine
# own the position arithmetic, so a syzygy or an expression comes out of
# the engine over the positions its caller means; the algebra and module
# layers only split a term into (position, exponent).  Elsewhere Polys
# cross into vectors only through `vec_from_polys(..., algebra.packer)`
PACKED_READERS = {"polynomials": PACKED_LAYOUT, "gbcore": PACKED_LAYOUT,
                  "groebner": {"unpack"}, "modules": {"unpack"}}


def packed_layout_reads(source):
    """(line, attribute) of each read of a packed-layout attribute of a
    packer: of `x.packer`, of a name bound to one by assignment, or of a
    name `packer`."""
    tree = ast.parse(source)

    def is_packer(node):
        return isinstance(node, ast.Attribute) and node.attr == "packer"
    names = {"packer"}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                pairs = [(target, node.value)]
                if isinstance(target, ast.Tuple) \
                        and isinstance(node.value, ast.Tuple):
                    pairs = zip(target.elts, node.value.elts)
                names |= {t.id for t, v in pairs
                          if isinstance(t, ast.Name) and is_packer(v)}
    return sorted((node.lineno, node.attr) for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute)
                  and node.attr in PACKED_LAYOUT
                  and (is_packer(node.value)
                       or (isinstance(node.value, ast.Name)
                           and node.value.id in names)))


def test_scan_finds_a_packed_layout_read():
    source = ("p, seen = r.packer, 0\n"
              "t = p.top - packer.units[0]\n"
              "e = alg.packer.unpack(t)\n"
              "m = Poly.monomial(e, c, f)\n"
              "v = vec_from_polys(col, alg.packer)\n")
    assert packed_layout_reads(source) == [(2, "top"), (2, "units"),
                                           (3, "unpack")]


def test_only_the_engine_reads_the_packed_layout():
    found = [(str(p.relative_to(ROOT)), line, attr) for p in PACKAGE
             for line, attr in packed_layout_reads(p.read_text())
             if attr not in PACKED_READERS.get(p.stem, ())]
    assert found == []
