"""The package's modules import each other without a cycle, and keep no unused import.

ast.walk also sees imports inside function bodies, so a deferred import
cannot hide a cycle.  Like test_exports.py, this keeps a later change
from bringing one back.  A removal can leave the names it alone used
imported; every module but __init__.py, whose imports are the package's
exports, must read each name it imports.
"""

import ast
from pathlib import Path

import cubewords

PACKAGE = Path(cubewords.__file__).resolve().parent


def module_imports(source: str) -> set[str]:
    """The package modules one module's source imports, at any depth."""
    targets = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level:
            if node.module:
                targets.add(node.module.split(".")[0])
            else:
                targets.update(alias.name for alias in node.names)
    return targets


def relative_imports() -> dict[str, set[str]]:
    """Each module's name mapped to the package modules it imports."""
    return {
        path.stem: module_imports(path.read_text(encoding="utf-8"))
        for path in sorted(PACKAGE.glob("*.py"))
    }


def find_cycle(graph: dict[str, set[str]]) -> list[str]:
    """One import cycle as a path ending where it closes, or []."""
    done: set[str] = set()
    stack: list[str] = []

    def visit(name: str) -> list[str]:
        if name in stack:
            return stack + [name]
        if name in done or name not in graph:
            return []
        stack.append(name)
        for target in sorted(graph[name]):
            cycle = visit(target)
            if cycle:
                return cycle
        stack.pop()
        done.add(name)
        return []

    for name in sorted(graph):
        cycle = visit(name)
        if cycle:
            return cycle
    return []


def test_imports_inside_functions_count():
    source = "from .words import complexity\n\ndef f():\n    from . import rotation\n"
    assert module_imports(source) == {"words", "rotation"}
    assert find_cycle({"a": {"b"}, "b": {"a"}, "c": set()}) == ["a", "b", "a"]
    # a reader that found nothing would pass vacuously
    assert {"exactnum", "returns", "words"} <= relative_imports()["rotation"]


def test_package_imports_form_no_cycle():
    cycle = find_cycle(relative_imports())
    assert cycle == [], " -> ".join(cycle)


def unused_imports(source: str) -> list[str]:
    """The names a module's source imports but never reads; from __future__ is exempt.

    Annotations are expressions in the tree even under postponed
    evaluation, so a name read only in an annotation counts as read.
    """
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return [name for name in imported if name not in read]


def test_unused_import_reader():
    source = (
        "from __future__ import annotations\n"
        "import os.path\nimport sys as system\n"
        "from typing import Optional, Sequence\nfrom .words import complexity\n"
        "def f(x: Optional[int]) -> None:\n    system.exit(complexity)\n"
    )
    assert unused_imports(source) == ["os", "Sequence"]


def test_no_module_keeps_an_unused_import():
    unused = {
        path.name: names
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "__init__.py"
        for names in [unused_imports(path.read_text(encoding="utf-8"))]
        if names
    }
    assert unused == {}
