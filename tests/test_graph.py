import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splicekit.errors import UnknownEdge, ValidationError
from splicekit.graph import (
    ResolutionGraph,
    blow_up_edge,
    classify_vertices,
    component_of,
    graph_determinant,
    intersection_matrix,
    is_negative_definite,
    is_quasi_minimal,
    validate_graph,
)
from splicekit.splice import splice_from_resolution

from oracles import component_by_search, is_negative_definite_matrix, maximal_strings


def chain(*weights):
    ids = [f"c{i}" for i in range(len(weights))]
    return ResolutionGraph.build(
        vertices=list(zip(ids, weights)),
        edges=[(ids[i], ids[i + 1]) for i in range(len(weights) - 1)],
    )


def test_intersection_matrix_single_vertex():
    g = chain(-2)
    assert intersection_matrix(g) == [[-2]]


def test_intersection_matrix_string():
    g = chain(-2, -2)
    assert intersection_matrix(g) == [[-2, 1], [1, -2]]


def test_intersection_matrix_g17(g17):
    m = intersection_matrix(g17)
    assert len(m) == 10
    assert all(m[i][i] == g17.weights[i] for i in range(10))
    assert graph_determinant(g17) == 17


def test_negative_definite_basics():
    assert is_negative_definite(chain(-2))
    assert not is_negative_definite(chain(0))
    assert not is_negative_definite_matrix([[0]])


def test_negative_definite_g1(g1):
    assert is_negative_definite(g1)
    assert graph_determinant(g1) == 1


def test_det_g90_matches_edge_determinant(g90):
    assert graph_determinant(g90) == 90
    assert 3 * 57 - 81 == 90


def test_classify_vertices(g1):
    assert classify_vertices(chain(-2)) == {"c0": "leaf"}
    assert classify_vertices(chain(-2, -2, -2))["c1"] == "string"
    kinds = classify_vertices(g1)
    assert kinds["nL"] == "node" and g1.weight_of("nL") == -1
    assert kinds["mid"] == "string"
    assert kinds["ul"] == "leaf"


def test_quasi_minimal():
    two_nodes = ResolutionGraph.build(
        vertices=[
            ("a1", -2), ("a2", -2), ("n1", -3), ("m", -1),
            ("n2", -3), ("b1", -2), ("b2", -2),
        ],
        edges=[
            ("a1", "n1"), ("a2", "n1"), ("n1", "m"), ("m", "n2"),
            ("n2", "b1"), ("n2", "b2"),
        ],
    )
    assert is_quasi_minimal(two_nodes)
    longer = ResolutionGraph.build(
        vertices=[
            ("a1", -2), ("a2", -2), ("n1", -3), ("m1", -1), ("m2", -2),
            ("n2", -3), ("b1", -2), ("b2", -2),
        ],
        edges=[
            ("a1", "n1"), ("a2", "n1"), ("n1", "m1"), ("m1", "m2"),
            ("m2", "n2"), ("n2", "b1"), ("n2", "b2"),
        ],
    )
    assert not is_quasi_minimal(longer)


def test_quasi_minimal_g1(g1):
    assert is_quasi_minimal(g1)
    for comp in maximal_strings(g1):
        assert all(g1.weight_of(v) != -1 for v in comp)


def test_blow_up_rule():
    g = blow_up_edge(chain(-2, -2), ("c0", "c1"))
    assert sorted(g.weights) == [-3, -3, -1]
    new = [v for v in g.ids if v not in ("c0", "c1")][0]
    assert g.weight_of(new) == -1
    assert g.has_edge("c0", new) and g.has_edge(new, "c1")
    assert not g.has_edge("c0", "c1")


def test_blow_up_takes_a_fresh_id():
    # b* and b*2 are taken, so the new curve is b*3
    g = ResolutionGraph.build([("b*", -2), ("b*2", -2), ("c", -2)], [("b*", "b*2"), ("b*2", "c")])
    g2 = blow_up_edge(g, ("b*2", "c"))
    assert g2.ids == ("b*", "b*2", "c", "b*3")
    assert g2.weights == (-2, -3, -3, -1)
    assert g2.has_edge("b*2", "b*3") and g2.has_edge("b*3", "c")


def test_blow_up_preserves_det_and_splice(g17):
    g2 = blow_up_edge(g17, ("nL", "nR"))
    assert graph_determinant(g2) == 17
    assert splice_from_resolution(g2) == splice_from_resolution(g17)


def test_blow_up_unknown_edge(g17):
    with pytest.raises(UnknownEdge):
        blow_up_edge(g17, ("nL", "br4"))


def test_validate_graph_errors():
    with pytest.raises(ValidationError):
        validate_graph(ResolutionGraph.build([], []))
    disconnected = ResolutionGraph.build([("a", -2), ("b", -2)], [])
    with pytest.raises(ValidationError):
        validate_graph(disconnected)
    cyclic = ResolutionGraph.build(
        [("a", -2), ("b", -2), ("c", -2)],
        [("a", "b"), ("b", "c"), ("c", "a")],
    )
    with pytest.raises(ValidationError):
        validate_graph(cyclic)
    positive = chain(-2, 2)
    with pytest.raises(ValidationError):
        validate_graph(positive)
    with pytest.raises(ValidationError):
        ResolutionGraph.build([("a", -2), ("a", -3)], [])
    with pytest.raises(ValidationError, match="^ids and weights differ in length$"):
        ResolutionGraph(ids=("a", "b"), weights=(-2,), edges=())


def test_build_takes_generators_and_empty_iterables():
    g = ResolutionGraph.build(((v, w) for v, w in [("a", -2), ("b", -3)]), iter([["a", "b"]]))
    assert g == ResolutionGraph(ids=("a", "b"), weights=(-2, -3), edges=(("a", "b"),))
    assert g.tree == (((1,), (0,)), (0, 1), (-1, 0))
    empty = ResolutionGraph.build(iter([]), [])
    assert (empty.ids, empty.weights, empty.edges, empty.tree) == ((), (), (), ((), (), ()))
    with pytest.raises(ValidationError, match="^graph has no vertices$"):
        validate_graph(empty)


def test_random_corpus_definite_and_offdiagonal(random_trees):
    for g in random_trees:
        assert is_negative_definite(g)
        assert graph_determinant(g) > 0
        m = intersection_matrix(g)
        ones = sum(
            1 for i in range(len(m)) for j in range(len(m)) if i != j and m[i][j]
        )
        assert ones == 2 * (len(g.ids) - 1)


@st.composite
def dominant_tree_data(draw):
    n = draw(st.integers(min_value=1, max_value=12))
    parents = [draw(st.integers(min_value=0, max_value=j - 1)) for j in range(1, n)]
    bumps = [draw(st.integers(min_value=0, max_value=2)) for _ in range(n)]
    return parents, bumps


@settings(max_examples=40, deadline=None)
@given(dominant_tree_data())
def test_dominant_rule_implies_definite(data):
    parents, bumps = data
    n = len(bumps)
    degree = [0] * n
    for j, p in enumerate(parents, start=1):
        degree[j] += 1
        degree[p] += 1
    g = ResolutionGraph.build(
        vertices=[(f"v{i}", -(degree[i] + 1) - bumps[i]) for i in range(n)],
        edges=[(f"v{p}", f"v{j}") for j, p in enumerate(parents, start=1)],
    )
    assert is_negative_definite(g)
    assert graph_determinant(g) > 0


@st.composite
def simple_graphs(draw):
    """Trees, forests and graphs with cycles, in any vertex order: a random
    tree with some edges dropped and some extra edges added, weights in
    [-3, -1], so that a third of the curves are (-1)-curves."""
    n = draw(st.integers(min_value=1, max_value=12))
    order = draw(st.permutations(range(n)))
    pairs = {(draw(st.integers(min_value=0, max_value=j - 1)), j) for j in range(1, n)}
    pairs = {e for e in pairs if draw(st.sampled_from([True, True, True, False]))}
    if n > 1:
        extra = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
        pairs |= {(a, b) for a, b in draw(st.lists(extra, max_size=3)) if a != b}
    edges = {frozenset((order[a], order[b])) for a, b in pairs}
    return ResolutionGraph.build(
        vertices=[(f"v{i}", draw(st.integers(min_value=-3, max_value=-1))) for i in range(n)],
        edges=[tuple(f"v{i}" for i in sorted(e)) for e in edges],
    )


@settings(max_examples=300, deadline=None)
@given(simple_graphs())
def test_component_and_quasi_minimality_match_the_searches(g):
    # every ordered pair of vertices, and a removed vertex the graph lacks
    strings = maximal_strings(g)
    assert is_quasi_minimal(g) == all(
        len(s) == 1 or all(g.weight_of(v) != -1 for v in s) for s in strings
    )
    for removed in (*g.ids, "no such vertex"):
        for start in g.ids:
            if start == removed:
                with pytest.raises(ValueError, match="^start vertex equals the removed vertex$"):
                    component_of(g, removed, start)
            else:
                assert component_of(g, removed, start) == component_by_search(g, removed, start)
