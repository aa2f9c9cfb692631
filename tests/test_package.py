"""The package's public surface."""

import ast
import importlib
import importlib.util
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


def test_trace_targets_resolve():
    # the benchmark's tracer wraps each (module, attribute path) it lists;
    # a name the library no longer defines makes `run.py --trace` raise
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = []
    for module, attrs, _ in tracing.TARGETS.values():
        owner = importlib.import_module(module)
        for attr in attrs.split("."):
            owner = getattr(owner, attr, None)
        if not callable(owner):
            missing.append((module, attrs))
    assert len(tracing.TARGETS) > 20
    assert missing == []
