"""The package's public names: u6n.__all__ lists exactly what
src/u6n/__init__.py imports, so neither list can drift from the other."""

import ast
from pathlib import Path

import u6n

INIT = Path(u6n.__file__)


def test_all_is_exactly_the_imported_names():
    imported = [
        alias.asname or alias.name
        for node in ast.parse(INIT.read_text()).body
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    ]
    assert len(u6n.__all__) == len(set(u6n.__all__))
    assert sorted(u6n.__all__) == sorted(imported)
    for name in u6n.__all__:
        assert hasattr(u6n, name), name
