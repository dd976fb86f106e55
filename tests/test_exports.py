"""The package's export list names exactly its public objects."""

import types

import cubewords


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
