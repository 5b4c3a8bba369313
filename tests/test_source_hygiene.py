"""Source hygiene: every name imported in src/ and tests/ is used in its module,
and every private function or class of the package is named outside its definition."""

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


def unnamed_privates(sources) -> list:
    """Private (`_name`, not dunder) functions and classes that no variable or attribute read names."""
    defined, named = set(), set()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if node.name.startswith("_") and not (node.name.startswith("__") and node.name.endswith("__")):
                    defined.add(node.name)
            elif isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
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
    assert unnamed_privates([defining]) == ["_A", "_b"]
    assert unnamed_privates([defining, "from m import _A\n\n_A()._b()\n"]) == []


def test_every_private_definition_is_named_in_the_package():
    assert unnamed_privates(path.read_text(encoding="utf-8") for path in PACKAGE) == []
