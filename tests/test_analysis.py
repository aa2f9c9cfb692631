"""One analysis per command: what the checks derive from a graph is shared
within a command and released after it, and the graph keeps only its
passes."""

import gc
import inspect
import pkgutil
import random
import tracemalloc
from collections import Counter
from functools import partial

import pytest

import splicekit
from splicekit import conditions, cycles, discriminant, equations, fixtures, graph, reporting, splice
from splicekit.analysis import Analysis, analysis_of
from splicekit.cli import main
from splicekit.corpus import dominant_tree, dominant_trees, two_node_graphs, with_determinant_cap
from splicekit.discriminant import pairing_matrix
from splicekit.document import document_to_json, graph_to_document
from splicekit.errors import SpliceKitError
from splicekit.graph import ResolutionGraph
from splicekit.splice import is_end_node, linking_matrix, splice_from_resolution

# what a graph caches: its integer views, its two passes and what they give
PASSES = {
    "index", "tree", "adjacency", "_leaves_up", "_rev", "branch_det", "det", "negative_definite",
}


def test_analysis_of_keeps_an_analysis_and_wraps_a_graph(g17):
    a = analysis_of(g17)
    assert a.graph is g17 and analysis_of(a) is a and analysis_of(g17) is not a


def test_report_walks_each_linking_row_once(monkeypatch):
    # the group section and every congruence table of one report read the
    # rows of one analysis
    walked = Counter()
    real = graph.ResolutionGraph.linking_row

    def counted(g, v):
        walked[v] += 1
        return real(g, v)

    monkeypatch.setattr(graph.ResolutionGraph, "linking_row", counted)
    graphs = [*fixtures.fixture_graphs().values()]
    graphs += [dominant_tree(random.Random(seed), 12) for seed in range(3)]
    for g in graphs:
        walked.clear()
        reporting.analysis_report(g)
        assert walked and max(walked.values()) == 1


@pytest.mark.parametrize("name", ["fat_branch", "g90"])
def test_commands_build_each_branch_table_once(monkeypatch, tmp_path, capsys, name):
    # both graphs have a branch that is not reduced, which 3.4 reads off the
    # excess table; each command builds each table at most once
    built = Counter()
    for table in ("excess_table", "moduli_table"):
        real = getattr(cycles, table)
        monkeypatch.setattr(
            cycles, table, lambda g, table=table, real=real: built.update([table]) or real(g)
        )
    g = getattr(fixtures, name)()
    path = tmp_path / f"{name}.json"
    path.write_text(document_to_json(graph_to_document(g)))
    runs = {"library": lambda: reporting.analysis_report(g)}
    for argv in (["report"], ["check", "all"], ["check", "okuma33"], ["check", "okuma34"]):
        runs[" ".join(argv)] = lambda argv=argv: main([*argv, str(path)])
    for command, run in runs.items():
        built.clear()
        run()
        assert max(built.values(), default=0) <= 1, command
        if command != "check okuma33":  # 3.4 reads the excess table on both
            assert built["excess_table"] == 1, command
    capsys.readouterr()


def test_report_leaves_only_passes_on_the_graph():
    # the report, each section and the equations in both modes leave
    # nothing on the graph but its passes: no diagram, row or table
    for g in fixtures.fixture_graphs().values():
        reporting.analysis_report(g)
        assert vars(g).keys() <= PASSES
        for section in (*reporting.SECTIONS.values(), reporting.splice_section,
                        reporting.maximal_section, reporting.group_section):
            section(g)
        for equivariant in (False, True):
            try:
                equations.build_equations(g, equivariant=equivariant)
            except SpliceKitError:  # a condition fails; the graph still keeps nothing
                pass
        assert vars(g).keys() <= PASSES


def test_sections_release_what_they_derive():
    # with the passes built first, the splice, ideal, group, 3.4 and 3.3
    # sections leave nothing behind on a 400-vertex tree: no diagram,
    # linking rows, branch tables or searches stay on the graph once each
    # section has dropped its analysis
    g = dominant_tree(random.Random(7), 400)
    g.det, g.branch_det, g.adjacency
    tracemalloc.start()
    try:
        for section in (reporting.splice_section, reporting.ideal_section,
                        reporting.group_section, reporting.okuma34_section,
                        reporting.okuma33_section):
            section(g)
        gc.collect()
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert vars(g).keys() <= PASSES
    assert retained < 1 << 20


def test_an_analysis_shares_the_searches_of_its_sections(monkeypatch):
    # sections handed one analysis search each node edge once between them;
    # handed the graph, a section makes its own analysis and searches again
    searched = []
    real = conditions.search_edge
    monkeypatch.setattr(
        conditions, "search_edge", lambda *args: searched.append(args[1:3]) or real(*args)
    )
    g = fixtures.g90()
    a = Analysis(g)
    reporting.congruence_section(a)
    once = sorted(searched)
    reporting.okuma33_section(a)
    reporting.congruence_section(a)
    assert once and sorted(searched) == once
    reporting.congruence_section(g)
    assert sorted(searched) == sorted(once * 2)


def test_matrices_read_the_rows_of_one_analysis(monkeypatch):
    # the linking and pairing matrices and the dual cycles walk each row
    # once per analysis; a second call on it walks none, and a graph still
    # gets the same value from a fresh analysis
    walked = []
    real = graph.ResolutionGraph.linking_row
    monkeypatch.setattr(
        graph.ResolutionGraph, "linking_row", lambda g, v: walked.append(v) or real(g, v)
    )
    g = dominant_tree(random.Random(2), 20)
    for route in (linking_matrix, pairing_matrix, cycles.dual_cycles):
        a = Analysis(g)
        walked.clear()
        first = route(a)
        assert sorted(walked) == sorted(g.ids), route.__name__
        walked.clear()
        assert route(a) == first and not walked, route.__name__
        assert route(g) == first and len(walked) == len(g.ids), route.__name__


@pytest.mark.parametrize("make", [
    fixtures.fat_branch, fixtures.g90, lambda: dominant_tree(random.Random(4), 15),
], ids=["fat_branch", "g90", "dominant_tree"])
def test_report_builds_branch_tests_once(monkeypatch, make):
    # 3.4, 3.3 and, on the two graphs with a branch that is not reduced, the
    # excess table read one pair of branch tests per analysis; every branch
    # of a dominant tree is reduced
    built = []
    real = cycles._branch_tests
    monkeypatch.setattr(cycles, "_branch_tests", lambda a: built.append(a) or real(a))
    g = make()
    reporting.analysis_report(g)
    assert len(built) == 1


def test_two_node_criterion_builds_one_diagram(monkeypatch):
    # both end-node criteria read the diagram of the call's one analysis
    built = []
    real = splice._reduced_diagram
    monkeypatch.setattr(splice, "_reduced_diagram", lambda a: built.append(a) or real(a))
    for g in [fixtures.g1(), fixtures.g90(), *two_node_graphs(10)]:
        built.clear()
        conditions.two_node_criterion(g)
        assert len(built) == 1
        a = Analysis(g)
        conditions.two_node_criterion(a), conditions.two_node_criterion(a)
        assert len(built) == 2


def _end_node_edge(d):
    """Some node edge (v, v*) toward an end-node v*, or None."""
    return next(((v, u) for v in d.nodes for u in d.adjacency[v] if is_end_node(d, u)), None)


def _calls(g: ResolutionGraph) -> dict:
    """Every public function of the package that takes a graph or an
    analysis, by qualified name, as a one-argument call on either."""
    d = splice_from_resolution(g)
    edge = _end_node_edge(d) or (None, None)
    calls = {
        "splice.splice_from_resolution": splice.splice_from_resolution,
        "splice.linking_matrix": splice.linking_matrix,
        "splice.leaf_knot_order": lambda x: [splice.leaf_knot_order(x, w) for w in d.leaves],
        "discriminant.pairing_matrix": discriminant.pairing_matrix,
        "discriminant.scaled_leaf_block": discriminant.scaled_leaf_block,
        "discriminant.leaf_generators": discriminant.leaf_generators,
        "discriminant.group_order_check": discriminant.group_order_check,
        "conditions.check_congruence": conditions.check_congruence,
        "conditions.end_node_criterion_slack": partial(conditions.end_node_criterion_slack,
                                                       v=edge[0], v_star=edge[1]),
        "conditions.end_node_criterion": partial(conditions.end_node_criterion,
                                                 v=edge[0], v_star=edge[1]),
        "conditions.two_node_criterion": conditions.two_node_criterion,
        "cycles.dual_cycles": cycles.dual_cycles,
        "cycles.dual_cycle": lambda x: [cycles.dual_cycle(x, v) for v in g.ids],
        "cycles.excess_table": cycles.excess_table,
        "cycles.moduli_table": cycles.moduli_table,
        "cycles.check_condition_3_4": cycles.check_condition_3_4,
        "cycles.check_condition_3_3": cycles.check_condition_3_3,
        "equations.build_equations": lambda x: [
            equations.build_equations(x, equivariant=e) for e in (False, True)
        ],
        "reporting.condition_sections": partial(reporting.condition_sections,
                                                names=tuple(reporting.SECTIONS)),
        "reporting.analysis_report": reporting.analysis_report,
    }
    for name, section in vars(reporting).items():
        if name.endswith("_section"):
            calls[f"reporting.{name}"] = section
    if edge[0] is None:  # no end-node: the criteria are refused on any edge
        for name in ("end_node_criterion_slack", "end_node_criterion"):
            del calls[f"conditions.{name}"]
    return calls


def _takes_graph_or_analysis() -> set[str]:
    found = set()
    for info in pkgutil.iter_modules(splicekit.__path__):
        module = __import__(f"splicekit.{info.name}", fromlist=["_"])
        for name, f in vars(module).items():
            if inspect.isfunction(f) and f.__module__ == module.__name__ and name[0] != "_":
                first = [*inspect.signature(f).parameters.values()][:1]
                if first and "ResolutionGraph | Analysis" in str(first[0].annotation):
                    found.add(f"{info.name}.{name}")
    return found


def _outcome(call, x):
    try:
        value = call(x)
    except SpliceKitError as exc:
        return type(exc).__name__, str(exc)
    return value, repr(value)


def test_graph_or_analysis_same_answer():
    # each public function that takes a graph or an analysis answers the
    # same, to the repr, handed the bare graph or one analysis shared by
    # every call, whichever comes first
    small = with_determinant_cap(dominant_trees(100) + two_node_graphs(50), 10**4)[:10]
    covered = set()
    for base in [*fixtures.fixture_graphs().values(), *small]:
        answers = []
        for graph_first in (True, False):
            g = ResolutionGraph(base.ids, base.weights, base.edges)
            a, calls = Analysis(g), _calls(g)
            covered |= calls.keys()
            answer = {}
            for name, call in calls.items():
                first, second = (g, a) if graph_first else (a, g)
                answer[name] = _outcome(call, first)
                assert _outcome(call, second) == answer[name], name
            answers.append(answer)
        assert answers[0] == answers[1]
    # analysis_of makes the analysis that the others share
    assert covered == _takes_graph_or_analysis() - {"analysis.analysis_of"}
