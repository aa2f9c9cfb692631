"""One analysis per command: what the checks derive from a graph is shared
within a command and released after it, and the graph keeps only its
passes."""

import gc
import random
import tracemalloc
from collections import Counter

import pytest

from splicekit import conditions, cycles, fixtures, graph, reporting
from splicekit.analysis import Analysis, analysis_of
from splicekit.cli import main
from splicekit.corpus import dominant_tree
from splicekit.discriminant import pairing_matrix
from splicekit.document import document_to_json, graph_to_document
from splicekit.splice import linking_matrix

# what a graph caches: its integer views, its two passes and what they give
PASSES = {
    "index", "tree", "adjacency", "splice_diagram", "_leaves_up", "_rev",
    "branch_det", "det", "negative_definite",
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
    for g in fixtures.fixture_graphs().values():
        reporting.analysis_report(g)
        assert vars(g).keys() <= PASSES


def test_sections_release_what_they_derive():
    # with the passes built first, the group, 3.4 and 3.3 sections leave
    # nothing behind on a 400-vertex tree: no linking rows, branch tables or
    # searches stay on the graph once each section has dropped its analysis
    g = dominant_tree(random.Random(7), 400)
    g.det, g.branch_det, g.adjacency, g.splice_diagram
    tracemalloc.start()
    try:
        for section in (reporting.group_section, reporting.okuma34_section,
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
