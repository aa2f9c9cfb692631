"""Invariants read from the subtree-determinant table, against the
general-matrix oracles: Sylvester's criterion, Bareiss determinants and
Gauss-Jordan inversion."""

import random
import sys
import threading

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from splicekit import fixtures, graph
from splicekit.analysis import Analysis, linking_row
from splicekit.corpus import dominant_tree
from splicekit.cycles import dual_cycle
from splicekit.discriminant import pairing_matrix
from splicekit.errors import NotNegativeDefinite, UnknownVertex, ValidationError
from splicekit.graph import (
    ResolutionGraph,
    graph_determinant,
    intersection_matrix,
    is_negative_definite,
    subtree_determinants,
    validate_graph,
)
from splicekit.linalg import determinant, invert_rational
from splicekit.reporting import analysis_report, group_section
from splicekit.splice import linking_matrix, tree_determinant

from oracles import (
    invariant_factors_full,
    is_negative_definite_matrix,
    negated_intersection_matrix,
    subtree_determinants_direct,
)


@st.composite
def weighted_trees(draw):
    """Random trees with weights in [-5, 1], so that many are indefinite."""
    n = draw(st.integers(min_value=1, max_value=10))
    parents = [draw(st.integers(min_value=0, max_value=j - 1)) for j in range(1, n)]
    weights = [draw(st.integers(min_value=-5, max_value=1)) for _ in range(n)]
    return ResolutionGraph.build(
        vertices=[(f"v{i}", w) for i, w in enumerate(weights)],
        edges=[(f"v{p}", f"v{j}") for j, p in enumerate(parents, start=1)],
    )


@settings(max_examples=300, deadline=None)
@given(weighted_trees())
def test_table_invariants_match_matrix_oracles(g):
    a = intersection_matrix(g)
    definite = is_negative_definite(g)
    assert definite == is_negative_definite_matrix(a)
    assert tree_determinant(g) == determinant(negated_intersection_matrix(g))
    if not definite:
        for route in (graph_determinant, linking_matrix, pairing_matrix):
            with pytest.raises(NotNegativeDefinite):
                route(g)
        with pytest.raises(NotNegativeDefinite):
            dual_cycle(g, g.ids[0])
        return
    assert graph_determinant(g) == tree_determinant(g)
    assert group_section(g)["invariant_factors"] == invariant_factors_full(g)
    pm = pairing_matrix(g)
    assert pm == invert_rational(a)
    for i, v in enumerate(g.ids):
        assert dual_cycle(g, v).coefficients == {
            u: -pm[i][j] for j, u in enumerate(g.ids) if pm[i][j]
        }


@settings(max_examples=300, deadline=None)
@given(weighted_trees())
@example(ResolutionGraph.build([("a", -2), ("b", 0), ("c", -1)], [("a", "b"), ("a", "c")]))
@example(ResolutionGraph.build([("a", -2), ("b", -1), ("c", -1)], [("a", "b"), ("b", "c")]))
def test_subtree_table_matches_direct_expansion(g):
    # the root-down pass divides by the entries toward vertex 0, all positive
    # only on a negative-definite tree; in the second example the entry at b
    # toward a is 0, and both examples are indefinite
    if is_negative_definite(g):
        table = subtree_determinants(g)
        assert list(table.items()) == list(subtree_determinants_direct(g).items())
    else:
        with pytest.raises(NotNegativeDefinite, match="^graph is not negative definite$"):
            subtree_determinants(g)


def test_group_invariant_factors_match_full_smith_form(corpus):
    # read from the leaf block, they must equal the n-by-n Smith diagonal
    for g in corpus:
        assert group_section(g)["invariant_factors"] == invariant_factors_full(g)


def test_sylvester_sweep_has_both_verdicts():
    rng = random.Random(5)
    verdicts = set()
    for _ in range(200):
        n = rng.randint(1, 9)
        g = ResolutionGraph.build(
            vertices=[(f"v{i}", rng.randint(-4, -1)) for i in range(n)],
            edges=[(f"v{rng.randrange(j)}", f"v{j}") for j in range(1, n)],
        )
        verdict = is_negative_definite(g)
        assert verdict == is_negative_definite_matrix(intersection_matrix(g))
        verdicts.add(verdict)
    assert verdicts == {True, False}


@settings(max_examples=8, deadline=None)
@given(st.integers(min_value=0, max_value=10**6), st.sampled_from([2, 30, 90, 200]))
def test_linking_matrix_identity_on_dominant_trees(seed, n):
    g = dominant_tree(random.Random(seed), n)
    lmat = linking_matrix(g)
    det = graph_determinant(g)
    for i, row in enumerate(intersection_matrix(g)):
        nonzero = [(k, x) for k, x in enumerate(row) if x]
        for j in range(n):
            entry = sum(x * lmat[k][j] for k, x in nonzero)
            assert entry == (-det if i == j else 0)


def test_returned_matrices_do_not_alias_the_cache(g17):
    lmat = linking_matrix(g17)
    pm = pairing_matrix(g17)
    expected_l = [list(row) for row in lmat]
    expected_pm = [list(row) for row in pm]
    lmat[0][0] += 1
    lmat[1].append(7)
    lmat.pop()
    pm[0][0] += 1
    pm.pop()
    assert linking_matrix(g17) == expected_l
    assert pairing_matrix(g17) == expected_pm


def test_linking_row_is_the_row_of_linking_rows(corpus):
    # the linking matrix lists the rows by vertex; an analysis walks each
    # row once and hands the same row on every later read
    for g in corpus:
        a, rows = Analysis(g), linking_matrix(g)
        for v in g.ids:
            row = a.memo(linking_row, v)
            assert list(row) == rows[g.index[v]] and a.memo(linking_row, v) is row


def test_group_and_report_walk_only_the_rows_they_read(monkeypatch):
    # the group section and the congruence tables read the leaves' rows
    # alone; neither may walk from any other vertex
    walked = []
    real = graph.ResolutionGraph.linking_row
    monkeypatch.setattr(
        graph.ResolutionGraph, "linking_row", lambda g, v: walked.append(v) or real(g, v)
    )
    fresh = [*fixtures.fixture_graphs().values()]
    fresh += [dominant_tree(random.Random(seed), 12) for seed in range(3)]
    for g in fresh:
        leaves = set(graph.leaves_of(g))
        walked.clear()
        group_section(g)
        assert set(walked) == leaves
        walked.clear()
        analysis_report(g)
        assert set(walked) <= leaves


def test_linking_rows_under_concurrent_first_use():
    # threads read one fresh graph's rows in different orders, so its lazy
    # passes are first built concurrently; every row each of them reads
    # must be the row a lone caller gets
    expected = linking_matrix(dominant_tree(random.Random(4), 40))
    g = dominant_tree(random.Random(4), 40)
    errors = []

    def work(offset):
        for k in range(len(g.ids)):
            i = (k * 7 + offset) % len(g.ids)
            if list(g.linking_row(g.ids[i])) != expected[i]:
                errors.append(i)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not errors
    assert linking_matrix(g) == expected


def test_linking_row_rejects_unknown_and_indefinite(g17):
    with pytest.raises(UnknownVertex):
        g17.linking_row("nowhere")
    indefinite = ResolutionGraph.build([("a", -1), ("b", -1)], [("a", "b")])
    with pytest.raises(NotNegativeDefinite):
        indefinite.linking_row("a")


def test_non_tree_is_rejected():
    cyclic = ResolutionGraph.build(
        [("a", -3), ("b", -3), ("c", -3)], [("a", "b"), ("b", "c"), ("c", "a")]
    )
    with pytest.raises(ValidationError):
        is_negative_definite(cyclic)


@st.composite
def trees_and_near_trees(draw):
    """Random trees with vertices in a random order and weights in [-6, top],
    top 1, -2 or -3 so that both verdicts come up, as drawn or with an edge
    added, removed or moved, so that some are not trees."""
    n = draw(st.integers(min_value=1, max_value=10))
    top = draw(st.sampled_from((1, -2, -3)))
    weights = [draw(st.integers(min_value=-6, max_value=top)) for _ in range(n)]
    edges = [(f"v{draw(st.integers(0, j - 1))}", f"v{j}") for j in range(1, n)]
    change = draw(st.sampled_from(("none", "none", "add", "remove", "move")))
    if change in ("remove", "move") and edges:
        edges.pop(draw(st.integers(0, len(edges) - 1)))
    if change in ("add", "move"):
        free = [
            (f"v{i}", f"v{j}")
            for i in range(n)
            for j in range(i + 1, n)
            if (f"v{i}", f"v{j}") not in edges and (f"v{j}", f"v{i}") not in edges
        ]
        if free:
            edges.append(draw(st.sampled_from(free)))
    vertices = draw(st.permutations([(f"v{i}", w) for i, w in enumerate(weights)]))
    return ResolutionGraph.build(vertices, draw(st.permutations(edges)))


def _is_tree_by_search(g):
    reached, stack = {g.ids[0]}, [g.ids[0]]
    while stack:
        u = stack.pop()
        for a, b in g.edges:
            for x, y in ((a, b), (b, a)):
                if x == u and y not in reached:
                    reached.add(y)
                    stack.append(y)
    return len(reached) == len(g.ids) and len(g.edges) == len(g.ids) - 1


@settings(max_examples=300, deadline=None)
@given(trees_and_near_trees())
def test_linking_rows_invert_the_intersection_matrix(g):
    # each row L_v of the integer kernel solves A * L_v = -det * e_v; a
    # non-tree raises ValidationError and an indefinite tree
    # NotNegativeDefinite, for every vertex
    if not _is_tree_by_search(g):
        for v in g.ids:
            with pytest.raises(ValidationError):
                g.linking_row(v)
        return
    a = intersection_matrix(g)
    if not is_negative_definite_matrix(a):
        for v in g.ids:
            with pytest.raises(NotNegativeDefinite):
                g.linking_row(v)
        return
    det = determinant(negated_intersection_matrix(g))
    for i, v in enumerate(g.ids):
        row = g.linking_row(v)
        assert all(x > 0 for x in row)
        assert [sum(x * y for x, y in zip(r, row)) for r in a] == [
            -det if k == i else 0 for k in range(len(g.ids))
        ]


@settings(max_examples=150, deadline=None)
@given(trees_and_near_trees())
def test_integer_view_lists_neighbours_in_vertex_order(g):
    # whatever the order of the edges and their ends; the order of ``tree``
    # is breadth first from ids[0], children in vertex order, over its component
    pos = g.index
    for v in g.ids:
        around = {b for a, b in g.edges if a == v} | {a for a, b in g.edges if b == v}
        expected = tuple(sorted(around, key=pos.__getitem__))
        assert g.adjacency[v] == expected
        assert g.tree.nbrs[pos[v]] == tuple(pos[x] for x in expected)
    parent, queue = {g.ids[0]: None}, [g.ids[0]]
    for u in queue:
        for x in g.adjacency[u]:
            if x not in parent:
                parent[x] = u
                queue.append(x)
    ids, (_, order, tree_parent) = g.ids, g.tree
    named = [(ids[i], ids[tree_parent[i]] if tree_parent[i] >= 0 else None) for i in order]
    assert tuple(ids[i] for i in order) == tuple(queue) and named == list(parent.items())


def test_det_and_validation_read_the_leaves_up_pass_alone(corpus):
    # neither the root-down pass nor any table keyed by vertex ids is built
    indefinite = ResolutionGraph.build([("a", -1), ("b", -1)], [("a", "b")])
    for g in [*corpus, indefinite]:
        fresh = ResolutionGraph(g.ids, g.weights, g.edges)
        validate_graph(fresh)
        if fresh.negative_definite:
            assert graph_determinant(fresh) == g.det
        else:
            with pytest.raises(NotNegativeDefinite):
                graph_determinant(fresh)
        built = vars(fresh)
        assert "_leaves_up" in built
        assert not {"_rev", "adjacency"} & built.keys()
