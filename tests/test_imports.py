"""Every name a package module imports is used in that module, and
every name a module defines is read somewhere in the package.

Stand-ins for a linter's unused-import and dead-code rules, built on
``ast`` alone.  ``__init__.py`` is left out of the import check: its
names are the package's exports.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import monotrack

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "monotrack"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """The names that ``source`` imports and never loads, sorted."""
    tree = ast.parse(source)
    imported: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.partition(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_unused_imports_finds_an_unused_name():
    source = "import os\nimport numpy as np\nfrom array import array\nnp.zeros(array('d'))\n"
    assert unused_imports(source) == ["os"]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def module_definitions(source: str) -> list[str]:
    """The names of ``source``'s module-level functions, classes and
    assigned names."""
    names: list[str] = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.extend(t.id for t in targets if isinstance(t, ast.Name))
    return names


def dead_definitions(sources: dict[str, str], kept: set[str]) -> list[str]:
    """``module.name`` of each module-level definition in ``sources`` (by
    module) that no source reads, bare or as an attribute, sorted.

    Names in ``kept`` and dunder names, which Python itself reads, are
    never dead.
    """
    loaded: set[str] = set()
    for source in sources.values():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif isinstance(node, ast.Attribute):
                loaded.add(node.attr)
    return [
        f"{module}.{name}"
        for module, source in sorted(sources.items())
        for name in module_definitions(source)
        if name not in loaded | kept and not name.startswith("__")
    ]


def test_dead_definitions_finds_an_unread_name():
    sources = {
        "a": "__all__ = []\nX = 1\ndef f():\n    return X\ndef g(): ...\nclass C: ...\n",
        "b": "from .a import f\nimport a\nf(a.C)\nY: int = 2\n",
    }
    assert dead_definitions(sources, set()) == ["a.g", "b.Y"]
    assert dead_definitions(sources, {"g"}) == ["b.Y"]


def test_every_definition_is_loaded():
    # Exempt: the package's exports and the command's entry point.
    sources = {p.stem: p.read_text(encoding="utf-8") for p in PACKAGE.glob("*.py")}
    assert dead_definitions(sources, {*monotrack.__all__, "main"}) == []
