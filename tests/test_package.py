"""The package's public surface."""

import ast
import importlib
import importlib.util
import types
from pathlib import Path

import splicekit
from splicekit.cycles import branches
from splicekit.discriminant import leaf_generators
from splicekit.graph import nodes_of
from splicekit.splice import splice_from_resolution


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


def _tracing():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def _resolve(module, attrs):
    owner = importlib.import_module(module)
    for attr in attrs.split("."):
        owner = getattr(owner, attr, None)
    return owner


def test_trace_targets_resolve():
    # the benchmark's tracer wraps each (module, attribute path) it lists;
    # a name the library no longer defines makes `run.py --trace` raise
    tracing = _tracing()
    missing = [
        (module, attrs)
        for module, attrs, _ in tracing.TARGETS.values()
        if not callable(_resolve(module, attrs))
    ]
    assert len(tracing.TARGETS) > 20
    assert missing == []


def test_trace_observers_read_real_results(g17):
    # each observer reads fields of its target's return value; a field the
    # library no longer returns makes `run.py --trace` raise after the run
    tracing = _tracing()
    v = nodes_of(g17)[0]
    args = {
        "discriminant.enumerate_elements": (leaf_generators(g17),),
        "conditions.check_semigroup": (splice_from_resolution(g17),),
        "conditions.check_congruence": (g17,),
        "cycles.construct_monomial_cycle": (g17, v, branches(g17, v)[0]),
        "cycles.check_condition_3_3": (g17,),
    }
    observed = {name: t for name, t in tracing.TARGETS.items() if t[2] is not None}
    assert set(observed) == set(args)
    for name, (module, attrs, observe) in observed.items():
        fields = observe(_resolve(module, attrs)(*args[name]))
        assert fields and all(isinstance(x, int) for x in fields.values()), name
