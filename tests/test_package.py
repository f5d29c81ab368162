"""The package's public surface: ``__all__`` and the names ``__init__`` imports."""
import ast
from pathlib import Path

import crossed_commutant


def test_all_lists_exactly_the_imported_public_names():
    tree = ast.parse(Path(crossed_commutant.__file__).read_text(encoding="utf-8"))
    imported = [
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if not (alias.asname or alias.name).startswith("_")
    ]
    assert sorted(crossed_commutant.__all__) == sorted(imported)
    assert len(set(imported)) == len(imported)
    for name in crossed_commutant.__all__:
        assert getattr(crossed_commutant, name) is not None
