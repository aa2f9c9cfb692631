"""The package's public surface."""

import ast
import importlib
import importlib.util
import re
import types
from collections import Counter
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


# Unreferenced in src/, in __all__ and under perfbench/ at the time this
# guard was added: the backlog of moving oracle-only code into the tests.
UNCALLED_BACKLOG = {
    "linalg.matmul",
    "cycles.cycle_pairing",
    "graph.negated_intersection_matrix",
    "cycles.QCycle.is_effective",
    "cycles.QCycle.as_int_dict",
    "discriminant.DiscriminantGroup.element_order",
}


def _names(node) -> Counter:
    return Counter(
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute))
    )


def test_every_function_has_a_caller():
    # each top-level function and method of the package is named in src/
    # outside its own body, exported, or named by the benchmark; properties
    # are read as data and dunder methods by the language, so neither counts
    root = Path(__file__).resolve().parents[1]
    bench = "\n".join(p.read_text() for p in (root / "perfbench").glob("*.py"))
    modules = {
        p.stem: ast.parse(p.read_text()) for p in (root / "src" / "splicekit").glob("*.py")
    }
    named = sum((_names(tree) for tree in modules.values()), Counter())
    defs = []
    for module, tree in modules.items():
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                defs.append((f"{module}.{node.name}", node))
            elif isinstance(node, ast.ClassDef):
                defs += [
                    (f"{module}.{node.name}.{f.name}", f)
                    for f in node.body
                    if isinstance(f, ast.FunctionDef)
                    and not any(_names(d)["property"] for d in f.decorator_list)
                ]
    uncalled = {
        qualname
        for qualname, f in defs
        if not (f.name.startswith("__") and f.name.endswith("__"))
        and named[f.name] == _names(f)[f.name]
        and f.name not in splicekit.__all__
        and not re.search(rf"\b{f.name}\b", bench)
    }
    assert len(defs) > 150
    assert uncalled == UNCALLED_BACKLOG
