"""The package's modules import each other without a cycle.

ast.walk also sees imports inside function bodies, so a deferred import
cannot hide a cycle.  Like test_exports.py, this keeps a later change
from bringing one back.
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
