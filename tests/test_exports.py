"""The package's ``__all__`` against what ``qilab/__init__.py`` imports."""

import ast
from pathlib import Path

import qilab


def test_all_names_resolve_and_are_the_public_imports():
    tree = ast.parse(Path(qilab.__file__).read_text())
    imported = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert [name for name in qilab.__all__ if not hasattr(qilab, name)] == []
    assert len(set(qilab.__all__)) == len(qilab.__all__)
    assert set(qilab.__all__) == {name for name in imported if not name.startswith("_")}
