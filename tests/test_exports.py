"""The package's export list names exactly its public objects, and each has a caller."""

import ast
import inspect
import types
from pathlib import Path

import cubewords
from test_benchmark_api import referenced_names

PACKAGE = Path(cubewords.__file__).resolve().parent


def test_all_is_sorted_resolvable_and_complete():
    names = cubewords.__all__
    assert names == sorted(set(names))
    assert [name for name in names if not hasattr(cubewords, name)] == []
    public = {
        name
        for name, value in vars(cubewords).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert set(names) == public


def package_loads() -> set[str]:
    """Names and attributes read anywhere in the package's modules but __init__.py."""
    loaded = set()
    for path in PACKAGE.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                loaded.add(node.attr)
    return loaded


def test_every_exported_route_has_a_caller():
    # constants such as PHI_SQRT2 are values, not code paths
    exported = {name: getattr(cubewords, name) for name in cubewords.__all__}
    routes = {
        name
        for name, value in exported.items()
        if inspect.isfunction(value) or inspect.isclass(value)
    }
    benchmark = {dotted.split(".")[1] for dotted in referenced_names()}
    assert {"trace", "FieldNumber", "run_all"} <= routes
    assert sorted(routes - package_loads() - benchmark) == []
