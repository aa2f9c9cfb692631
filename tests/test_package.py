"""The package's public surface."""

import ast
import types
from pathlib import Path

import splicekit


def test_all_names_symbols_not_modules():
    init = Path(splicekit.__file__).read_text()
    imported = {
        alias.asname or alias.name
        for node in ast.walk(ast.parse(init))
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    }
    assert len(imported) > 40
    assert imported <= set(splicekit.__all__)
    assert not [n for n in splicekit.__all__ if isinstance(getattr(splicekit, n), types.ModuleType)]
    assert not [n for n in splicekit.__all__ if n.startswith("_")]
