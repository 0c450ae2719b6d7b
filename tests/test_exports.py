"""The package's export list stays in step with what `__init__` imports."""

import ast
from pathlib import Path

import hadamix


def test_every_exported_name_resolves():
    missing = [name for name in hadamix.__all__ if not hasattr(hadamix, name)]
    assert not missing
    assert len(set(hadamix.__all__)) == len(hadamix.__all__)


def test_all_lists_every_public_import():
    tree = ast.parse(Path(hadamix.__file__).read_text())
    imported = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    public = {name for name in imported if not name.startswith("_")}
    assert public
    assert sorted(public - set(hadamix.__all__)) == []
