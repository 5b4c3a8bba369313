"""Source hygiene: every name imported in src/ and tests/ is used in its module,
and every function, class or method of the package is named in the package
outside its own definition, so that no entry point serves only the tests.  No
NamedTuple of the package writes its own equality, and the scalar fields `QQ`
and `QI` are the only instances of their classes."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted([*ROOT.glob("src/**/*.py"), *ROOT.glob("tests/*.py")])
PACKAGE = sorted(ROOT.glob("src/genuslab/*.py"))


def unused_imports(source: str) -> list:
    """Names bound by import statements that no expression of the module reads.

    Quoted annotations count as reads of the names inside them; a string
    that is no expression, such as a Literal value, reads nothing.
    """
    tree = ast.parse(source)
    imported = {}
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.arg) and node.annotation is not None:
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns is not None:
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for ann in annotations:
        for n in ast.walk(ann):
            if isinstance(n, ast.Constant) and isinstance(n.value, str):
                try:
                    quoted = ast.parse(n.value, mode="eval")
                except SyntaxError:
                    continue
                used |= {m.id for m in ast.walk(quoted) if isinstance(m, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def unnamed_definitions(sources) -> list:
    """Functions, classes and methods (not dunders) that no variable or attribute read names
    outside their own definition."""
    defined, named = set(), set()

    def scan(node, inside):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if not (node.name.startswith("__") and node.name.endswith("__")):
                defined.add(node.name)
            inside = inside | {node.name}
        elif isinstance(node, ast.Name) and node.id not in inside:
            named.add(node.id)
        elif isinstance(node, ast.Attribute) and node.attr not in inside:
            named.add(node.attr)
        for child in ast.iter_child_nodes(node):
            scan(child, inside)

    for source in sources:
        scan(ast.parse(source), frozenset())
    return sorted(defined - named)


def test_scan_finds_sources():
    names = {p.name for p in SOURCES}
    assert {"genus.py", "manifolds.py", "test_source_hygiene.py"} <= names


def test_scan_flags_an_unused_import():
    source = "from a import b, c\nimport d.e\nimport f as g\n\ndef h(x: 'c') -> None:\n    return d.e(x)\n"
    assert unused_imports(source) == [(1, "b"), (3, "g")]
    literal = "from typing import Literal\nimport b\n\ndef h(x: Literal['two words', 'a.b c']) -> None:\n    pass\n"
    assert unused_imports(literal) == [(2, "b")]


@pytest.mark.parametrize("path", SOURCES, ids=[str(p.relative_to(ROOT)) for p in SOURCES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_scan_flags_an_unnamed_private():
    defining = "class _A:\n    def _b(self):\n        return self._c()\n\n    def _c(self):\n        pass\n\n\ndef __d__():\n    pass\n"
    assert unnamed_definitions([defining]) == ["_A", "_b"]
    assert unnamed_definitions([defining, "from m import _A\n\n_A()._b()\n"]) == []


def test_scan_flags_an_unnamed_public():
    # a recursive call and a class naming itself stay inside their own definitions
    defining = "def walk(n):\n    return walk(n - 1)\n\n\nclass Box:\n    def copy(self):\n        return Box()\n"
    assert unnamed_definitions([defining]) == ["Box", "copy", "walk"]
    assert unnamed_definitions([defining, "from m import Box, walk\n\nwalk(Box().copy())\n"]) == []


def package_unnamed() -> list:
    return unnamed_definitions(path.read_text(encoding="utf-8") for path in PACKAGE)


def test_every_private_definition_is_named_in_the_package():
    assert [name for name in package_unnamed() if name.startswith("_")] == []


def test_every_public_definition_is_named_in_the_package():
    assert [name for name in package_unnamed() if not name.startswith("_")] == []


def named_tuple_equality(source: str) -> list:
    """(class, name) for each __eq__ or __ne__ that a NamedTuple class defines or assigns."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ClassDef) and any(
            getattr(base, "id", getattr(base, "attr", None)) == "NamedTuple" for base in node.bases
        ):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    names = [item.name]
                else:
                    names = [t.id for t in getattr(item, "targets", []) if isinstance(t, ast.Name)]
                found += [(node.name, name) for name in names if name in ("__eq__", "__ne__")]
    return found


def field_constructions(source: str) -> list:
    """Each call of RationalField or GaussianField: the module-level name it is assigned to, else its line."""
    tree = ast.parse(source)
    bound = {
        id(stmt.value): stmt.targets[0].id
        for stmt in tree.body
        if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1 and isinstance(stmt.targets[0], ast.Name)
    }
    return [
        bound.get(id(node), node.lineno)
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", getattr(node.func, "attr", None)) in ("RationalField", "GaussianField")
    ]


def test_scan_flags_named_tuple_equality():
    source = (
        "import typing\n\n\nclass A(typing.NamedTuple):\n    x: int\n\n    def __eq__(self, o):\n"
        "        return True\n\n    __ne__ = object.__ne__\n\n    def __hash__(self):\n        return 0\n\n\n"
        "class B:\n    def __eq__(self, o):\n        return True\n"
    )
    assert named_tuple_equality(source) == [("A", "__eq__"), ("A", "__ne__")]


def test_scan_finds_field_constructions():
    source = "import rings\n\nQQ = RationalField()\n\n\ndef f():\n    return rings.GaussianField()\n"
    assert field_constructions(source) == ["QQ", 7]


def test_no_named_tuple_writes_its_own_equality():
    # a NamedTuple compares as its tuple of fields; a second equality hides a field from it
    assert [hit for path in PACKAGE for hit in named_tuple_equality(path.read_text(encoding="utf-8"))] == []


def test_the_scalar_fields_have_one_instance_each():
    # QQ and QI compare by identity, which holds only while no other instance exists
    found = sorted(
        (str(path.relative_to(ROOT)), str(hit))
        for path in SOURCES
        for hit in field_constructions(path.read_text(encoding="utf-8"))
    )
    assert found == [("src/genuslab/rings.py", "QI"), ("src/genuslab/rings.py", "QQ")]
