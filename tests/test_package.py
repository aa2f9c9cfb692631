"""The package's public surface."""

import ast
import copy
import importlib
import importlib.util
import os
import pickle
import pkgutil
import re
import subprocess
import sys
import types
from collections import Counter
from pathlib import Path

import pytest

import splicekit
from splicekit import fixtures
from splicekit.cfrac import ContinuedFraction
from splicekit.conditions import (
    CongruenceReport,
    Decision,
    SemigroupReport,
    check_congruence,
    check_semigroup,
)
from splicekit.cycles import Condition33Report, Condition34Report, branches, check_condition_3_3
from splicekit.discriminant import leaf_generators
from splicekit.equations import LeadingFormReport
from splicekit.errors import NonReducedFraction
from splicekit.frozen import report_failures, report_ok
from splicekit.graph import ResolutionGraph, nodes_of
from splicekit.splice import (
    EdgeDetReport,
    IdealReport,
    MaximalSpliceDiagram,
    SpliceDiagram,
    maximal_splice,
    splice_from_resolution,
)


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


@pytest.mark.parametrize("workload", ["report_small", "invariants_scaling"])
def test_traced_benchmark_runs_in_a_fresh_interpreter(tmp_path, workload):
    # the tracer reads each target's module from sys.modules, so a module
    # that importing the CLI no longer loads makes `run.py --trace 1` raise;
    # the tests import every module themselves, and one workload's calls
    # may load what the next one's do not, so only a fresh interpreter per
    # workload shows it
    perfbench = Path(__file__).resolve().parents[1] / "perfbench"
    script = "\n".join((
        "import pathlib, sys",
        f"sys.path.insert(0, {str(perfbench)!r})",
        "import run",
        "run.WORK = pathlib.Path(sys.argv[1])",
        f"result, _ = run.run({workload!r}, 1, 0.01, True, count=1, write=False)",
        "assert result['correct'], result",
    ))
    proc = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path)], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr


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


def _names(node) -> Counter:
    return Counter(
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute))
    )


def test_every_function_has_a_caller():
    # each top-level function and method of the package, properties and
    # cached properties included, is named in src/ outside its own body,
    # exported, or named by the benchmark; dunder methods are called by the
    # language, so they do not count
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
    assert uncalled == set()


# every module of the package, lowest first; each may import only the
# modules before it
LAYERS = (
    "errors", "frozen", "linalg", "cfrac", "graph", "analysis", "corpus", "fixtures",
    "document", "splice", "conditions", "discriminant", "cycles", "equations",
    "reporting", "cli", "__init__",
)


def _package_imports(tree):
    """(module, name) for each name that tree imports from the package, in
    function bodies and TYPE_CHECKING blocks too."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            # from . import m, from .m import name, and their absolute forms
            parts = (("splicekit." if node.level else "") + (node.module or "")).split(".")
            if parts[0] == "splicekit":
                for alias in node.names:
                    yield (parts[1] if parts[1:] and parts[1] else alias.name), alias.name
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("splicekit."):
                    yield alias.name.split(".")[1], alias.name


def test_imports_point_down_the_layers():
    # no module imports one above it, not even lazily or for typing alone
    src = Path(__file__).resolve().parents[1] / "src" / "splicekit"
    modules = {p.stem: ast.parse(p.read_text()) for p in src.glob("*.py")}
    rank = {module: i for i, module in enumerate(LAYERS)}
    assert modules.keys() <= rank.keys()  # a new module takes its place in LAYERS
    upward = {
        (module, target, name)
        for module, tree in modules.items()
        for target, name in _package_imports(tree)
        if rank[target] >= rank[module]
    }
    assert upward == set()


def _private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def test_modules_meet_through_public_names():
    # no module imports another module's _private name, nor reads one as
    # module._name; docstrings are strings, so they do not count
    src = Path(__file__).resolve().parents[1] / "src" / "splicekit"
    crossings = set()
    for path in src.glob("*.py"):
        tree, module = ast.parse(path.read_text()), path.stem
        # from . import m binds the module m: its target is its own name
        modules = {name for target, name in _package_imports(tree) if target == name}
        crossings |= {
            (module, target, name)
            for target, name in _package_imports(tree)
            if target != name and target != module and _private(name)
        }
        crossings |= {
            (module, node.value.id, node.attr)
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in modules and _private(node.attr)
        }
    assert crossings == set()


def test_cli_loads_and_writes_in_main_alone():
    # every command is a function of the loaded graph and its arguments that
    # returns (payload, lines, code), so main alone reads the graph file and
    # writes the output; emit-fixtures reads no graph file
    path = Path(__file__).resolve().parents[1] / "src" / "splicekit" / "cli.py"
    functions = [f for f in ast.parse(path.read_text()).body if isinstance(f, ast.FunctionDef)]
    callers = {
        (f.name, node.func.id)
        for f in functions
        for node in ast.walk(f)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        and node.func.id in ("_load_graph", "_emit")
    }
    assert callers == {("main", "_load_graph"), ("main", "_emit")}
    first = {
        f.name: (f.args.args[0].arg, ast.unparse(f.args.args[0].annotation or ast.Constant(None)))
        for f in functions if f.name.startswith("cmd_")
    }
    assert first.pop("cmd_emit_fixtures") == ("args", "None")
    assert len(first) == 9 and set(first.values()) == {("g", "ResolutionGraph")}


REPORTS = (
    SemigroupReport, CongruenceReport, EdgeDetReport, IdealReport,
    Condition34Report, Condition33Report, LeadingFormReport,
)


@pytest.mark.parametrize("cls", REPORTS, ids=lambda cls: cls.__name__)
def test_reports_pass_when_every_entry_passes(cls):
    # the entries are the last field; the fields before it are not read
    def report(*entries):
        return cls(*[None] * (len(cls._fields) - 1), entries)

    entries = [types.SimpleNamespace(ok=ok, i=i) for i, ok in enumerate((False, True, False))]
    assert cls.ok is report_ok and report().ok and not report(*entries).ok
    assert report(entries[1], entries[1]).ok
    if cls is not LeadingFormReport:  # it lists no failures
        assert cls.failures is report_failures and report().failures == ()
        assert report(*entries).failures == (entries[0], entries[2])


def test_no_report_restates_the_pass_rule():
    # every report binds frozen.report_ok and report_failures, so a change
    # to the rule is made in one place; no class may define an ok that
    # reads all(... .ok ...) or a failures that filters on .ok
    restated = []
    for path in (Path(__file__).resolve().parents[1] / "src" / "splicekit").glob("*.py"):
        for cls in ast.walk(ast.parse(path.read_text())):
            for f in cls.body if isinstance(cls, ast.ClassDef) else ():
                if not isinstance(f, ast.FunctionDef):
                    continue
                calls_all = [
                    n for n in ast.walk(f)
                    if isinstance(n, ast.Call) and isinstance(n.func, ast.Name) and n.func.id == "all"
                ]
                filters = [c for n in ast.walk(f) if isinstance(n, ast.comprehension) for c in n.ifs]
                if (f.name == "ok" and any(_names(n)["ok"] for n in calls_all)) or (
                    f.name == "failures" and any(_names(c)["ok"] for c in filters)
                ):
                    restated.append(f"{path.stem}.{cls.name}.{f.name}")
    assert restated == []


def test_import_loads_neither_dataclasses_nor_inspect():
    # each costs milliseconds of every one-shot command's start-up
    src = Path(splicekit.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    for module in ("splicekit", "splicekit.cli"):
        code = (
            f"import sys; before = set(sys.modules); import {module}; "
            "print(sorted({'dataclasses', 'inspect'} & (sys.modules.keys() - before)))"
        )
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", ""), module


def _record_classes() -> list[type]:
    # the NamedTuple records and the Frozen classes of every module
    found = set()
    for info in pkgutil.iter_modules(splicekit.__path__):
        module = importlib.import_module(f"splicekit.{info.name}")
        found.update(
            cls for cls in vars(module).values()
            if isinstance(cls, type) and cls.__module__ == module.__name__
            and getattr(cls, "_fields", ())
        )
    return sorted(found, key=lambda cls: cls.__qualname__)


def _sample_fields(cls: type, g) -> tuple:
    d, m = splice_from_resolution(g), maximal_splice(g)
    return {
        ContinuedFraction: (7, 3),
        ResolutionGraph: (g.ids, g.weights, g.edges),
        SpliceDiagram: (d.ids, d.edges, d.weights, d.strings),
        MaximalSpliceDiagram: (m.ids, m.edges, m.weights, None),
    }.get(cls, tuple(range(len(cls._fields))))


# Decision stands for three records it replaced; each case under their
# names samples the fields of the decision one search builds: a semigroup
# edge, a failing congruence edge with its table and solved congruences,
# and a constructive 3.3 branch
_DECISIONS = {
    "SemigroupEdge": lambda: check_semigroup(splice_from_resolution(fixtures.g17())).edges[0],
    "CongruenceEdge": lambda: check_congruence(fixtures.g90()).failures[0],
    "BranchDecision": lambda: check_condition_3_3(fixtures.g17()).decisions[0],
}


@pytest.mark.parametrize("cls, decision", [
    *(pytest.param(cls, None, id=cls.__qualname__) for cls in _record_classes()),
    *(pytest.param(Decision, made, id=name) for name, made in _DECISIONS.items()),
])
def test_records_are_immutable_values(cls, decision, g17):
    values = tuple(decision()) if decision else _sample_fields(cls, g17)
    a, b = cls(*values), cls(**dict(zip(cls._fields, values)))
    for name in (*cls._fields, "unknown"):
        with pytest.raises(AttributeError):
            setattr(a, name, None)
    shown = ", ".join(f"{name}={value!r}" for name, value in zip(cls._fields, values))
    assert repr(a) == f"{cls.__name__}({shown})"
    assert a == b and not a != b and copy.copy(a) == a
    if issubclass(cls, tuple):  # a NamedTuple unpacks and compares as a tuple
        assert a == values and tuple(a) == values and a._replace() == a
    else:
        assert a != values
    if cls in (SpliceDiagram, MaximalSpliceDiagram):  # weights are a dict
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)


def test_graphs_and_diagrams_equal_only_their_own_class(g17):
    g, d = g17, splice_from_resolution(g17)
    assert g == ResolutionGraph(g.ids, g.weights, g.edges)
    assert g != tuple(_sample_fields(ResolutionGraph, g))
    assert d != MaximalSpliceDiagram(d.ids, d.edges, d.weights, d.strings)
    assert MaximalSpliceDiagram(d.ids, d.edges, d.weights) != d
    # strings are left out of equality, not of the repr
    bare = SpliceDiagram(d.ids, d.edges, d.weights)
    assert bare == d and repr(bare) != repr(d)
    # a fresh copy caches nothing; the cached values cannot be assigned
    assert g.det and "det" in vars(g) and "det" not in vars(copy.copy(g))
    with pytest.raises(AttributeError):
        g.det = 0
    with pytest.raises(AttributeError):
        del g.ids


@pytest.mark.parametrize(
    "n, p, error",
    [(0, 1, ValueError), (-3, 1, ValueError), (3, -1, ValueError), (6, 4, NonReducedFraction)],
)
def test_continued_fraction_is_checked_on_every_route(n, p, error):
    with pytest.raises(error):
        ContinuedFraction(n, p)
    with pytest.raises(error):
        ContinuedFraction(numerator=n, denominator=p)
    # copies and pickles are rebuilt through the constructor, and there is
    # no unchecked NamedTuple route
    unchecked = object.__new__(ContinuedFraction)
    unchecked._init(numerator=n, denominator=p)
    with pytest.raises(error):
        copy.copy(unchecked)
    with pytest.raises(error):
        pickle.loads(pickle.dumps(unchecked))
    assert not hasattr(ContinuedFraction, "_replace") and not hasattr(ContinuedFraction, "_make")
