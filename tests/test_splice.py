import copy
import itertools
import pickle
import random
from math import gcd, prod

import pytest

from splicekit import cycles, graph, splice
from splicekit.analysis import Analysis
from splicekit.cfrac import continued_fraction_of_string
from splicekit.corpus import dominant_tree
from splicekit.discriminant import leaf_generators
from splicekit.errors import (
    LeafEdgeInReducedDiagram,
    NonIntegralWeight,
    NotEndNode,
    SameVertex,
    SpliceKitError,
    UnknownEdge,
    UnknownVertex,
    ValidationError,
)
from splicekit.graph import (
    ResolutionGraph,
    blow_up_edge,
    component_of,
    graph_determinant,
    induced_subgraph,
    intersection_matrix,
)
from splicekit.linalg import determinant
from splicekit.cli import main
from splicekit.document import document_to_json, graph_to_document
from splicekit.conditions import admissible_exponents, check_semigroup
from splicekit.equations import (
    build_equations_from_diagram,
    curve_component_count,
    leading_form_check,
)
from splicekit.splice import (
    SpliceDiagram,
    edge_determinant,
    end_node_reduce,
    end_node_reduce_graph,
    ideal_generator,
    is_end_node,
    check_ideal_condition,
    leaf_ideal_generator,
    leaf_knot_order,
    linking_matrix,
    linking_numbers,
    maximal_splice,
    splice_from_resolution,
    subtree_determinants,
    verify_edge_det_theorem,
)

from oracles import (
    edge_equations_by_id,
    element_order,
    ideal_generator_recursive,
    linking_numbers_by_path,
    matmul,
    maximal_weights_by_id,
    negated_intersection_matrix,
    path_by_search,
    reduced_diagram_by_id,
    subtree_determinants_direct,
)

G1_SPLICE = {
    ("nL", "ul"): 2, ("nL", "ll"): 3, ("nL", "nR"): 7,
    ("nR", "nL"): 11, ("nR", "ur"): 2, ("nR", "r2"): 5,
}

G1_MAXIMAL = {
    ("nL", "ul"): 2, ("ul", "nL"): 11,
    ("nL", "ll"): 3, ("ll", "nL"): 5,
    ("nL", "mid"): 7, ("mid", "nL"): 1,
    ("nR", "mid"): 11, ("mid", "nR"): 1,
    ("nR", "ur"): 2, ("ur", "nR"): 28,
    ("nR", "r1"): 5, ("r1", "nR"): 9,
    ("r1", "r2"): 2, ("r2", "r1"): 5,
}

G17_MAXIMAL = {
    ("nL", "ul"): 2, ("ul", "nL"): 19,
    ("nL", "bl2"): 3, ("bl2", "nL"): 15,
    ("nL", "nR"): 7, ("nR", "nL"): 11,
    ("bl1", "bl2"): 16, ("bl2", "bl1"): 2,
    ("nR", "ur"): 2, ("ur", "nR"): 36,
    ("nR", "br1"): 5, ("br1", "nR"): 21,
    ("br1", "br2"): 4, ("br2", "br1"): 20,
    ("br2", "br3"): 3, ("br3", "br2"): 19,
    ("br3", "br4"): 2, ("br4", "br3"): 18,
}

G90_SPLICE = {
    ("nL", "x"): 3, ("nL", "y"): 3, ("nL", "nR"): 3,
    ("nR", "nL"): 57, ("nR", "u"): 3, ("nR", "v"): 3,
}


def test_g1_splice_weights(g1):
    assert dict(splice_from_resolution(g1).weights) == G1_SPLICE


def test_g17_same_splice_diagram(g17):
    d = splice_from_resolution(g17)
    assert sorted(d.weights.values()) == sorted(G1_SPLICE.values())
    assert dict(d.weights) == {
        ("nL", "ul"): 2, ("nL", "bl1"): 3, ("nL", "nR"): 7,
        ("nR", "nL"): 11, ("nR", "ur"): 2, ("nR", "br4"): 5,
    }


def test_g90_splice_weights(g90):
    assert dict(splice_from_resolution(g90).weights) == G90_SPLICE


def test_g1_maximal_weights(g1):
    assert dict(maximal_splice(g1).weights) == G1_MAXIMAL


def test_g17_maximal_weights(g17):
    assert dict(maximal_splice(g17).weights) == G17_MAXIMAL


def test_derived_diagram_invariants(fixture_map, small_trees):
    # no valency-2 vertices, positive weights, positive edge determinants
    for g in [*fixture_map.values(), *small_trees]:
        d = splice_from_resolution(g)
        for v in d.ids:
            assert d.degree(v) != 2
        assert all(w > 0 for w in d.weights.values())
        for e in d.edges:
            if d.is_node(e[0]) and d.is_node(e[1]):
                assert edge_determinant(d, e) > 0


def test_trivial_single_vertex():
    g = ResolutionGraph.build([("a", -3)], [])
    d = maximal_splice(g)
    assert d.ids == ("a",) and not d.weights
    reduced = splice_from_resolution(g)
    assert reduced.ids == ("a",) and reduced.is_leaf("a")


def test_not_negative_definite_rejected():
    from splicekit.errors import NotNegativeDefinite
    from splicekit.graph import graph_determinant as det

    indefinite = ResolutionGraph.build([("a", -1), ("b", -1)], [("a", "b")])
    for op in (det, splice_from_resolution, maximal_splice):
        with pytest.raises(NotNegativeDefinite):
            op(indefinite)


def test_subtree_determinants_match_bareiss(random_trees):
    for g in random_trees[:15]:
        dets = subtree_determinants(g)
        for (child, parent), value in dets.items():
            comp = component_of(g, parent, child)
            direct = determinant(negated_intersection_matrix(induced_subgraph(g, comp)))
            assert value == direct


def test_linking_adjacent_reduced_is_one(g1):
    d = splice_from_resolution(g1)
    full, reduced = linking_numbers(d, "nL", "ul")
    assert reduced == 1
    assert full == 3 * 7  # the node's other weights


def test_linking_examples(g1, g90):
    d1 = splice_from_resolution(g1)
    full, reduced = linking_numbers(d1, "ul", "ll")
    assert full == reduced == 7
    lmat = linking_matrix(g1)
    i, j = g1.index["ul"], g1.index["ll"]
    assert lmat[i][j] == 7
    d90 = splice_from_resolution(g90)
    _, reduced = linking_numbers(d90, "nL", "u")
    assert reduced == 3


def test_linking_same_vertex_error(g1):
    d = splice_from_resolution(g1)
    with pytest.raises(SameVertex):
        linking_numbers(d, "ul", "ul")


def test_edge_determinants(g1, g90, g17):
    d1 = splice_from_resolution(g1)
    assert edge_determinant(d1, ("nL", "nR")) == 7 * 11 - 6 * 10 == 17
    d90 = splice_from_resolution(g90)
    assert edge_determinant(d90, ("nL", "nR")) == 3 * 57 - 9 * 9 == 90
    dmax = maximal_splice(g17)
    for e in dmax.edges:
        assert edge_determinant(dmax, e) == 17
    with pytest.raises(LeafEdgeInReducedDiagram):
        edge_determinant(d1, ("nL", "ul"))
    for call in (edge_determinant, lambda d, e: ideal_generator(d, *e)):
        for edge in (("nL", "ur"), ("nL", "zz")):
            with pytest.raises(UnknownEdge, match=rf"^\({edge[0]}, {edge[1]}\)$"):
                call(d1, edge)


def test_edge_det_theorem(g1, g17, g90):
    for g, det in ((g1, 1), (g17, 17), (g90, 90)):
        report = verify_edge_det_theorem(g)
        assert report.ok
        for entry in report.entries:
            assert entry.graph_det == det
    # G1's node-node edge comes from the single -17 string
    entry = verify_edge_det_theorem(g1).entries[0]
    assert entry.string_det == 17 and entry.edge_det == 17


def test_linking_identity_on_fixtures(fixture_map):
    for g in fixture_map.values():
        a = intersection_matrix(g)
        lmat = linking_matrix(g)
        det = graph_determinant(g)
        product = matmul(a, lmat)
        n = len(a)
        for i in range(n):
            for j in range(n):
                assert product[i][j] == (-det if i == j else 0)


def test_ideal_generators(g1, g90):
    d1 = splice_from_resolution(g1)
    assert ideal_generator(d1, "nL", "ul") == 1  # edge ending at a leaf
    assert ideal_generator(d1, "nL", "nR") == gcd(2, 5) == 1
    d90 = splice_from_resolution(g90)
    assert ideal_generator(d90, "nL", "nR") == 3


def test_ideal_generator_matches_direct_gcd(small_trees):
    for g in small_trees:
        d = splice_from_resolution(g)
        for v in d.nodes:
            for u in d.adjacency[v]:
                acc = 0
                for w in d.leaves:
                    if w == v:
                        continue
                    if u in d.path(v, w):
                        acc = gcd(acc, linking_numbers(d, v, w)[1])
                assert ideal_generator(d, v, u) == acc


def test_ideal_table_matches_recursion(fixture_map, random_trees, two_node_corpus):
    for g in [*fixture_map.values(), *random_trees, *two_node_corpus]:
        d = splice_from_resolution(g)
        for a, b in d.edges:
            for v, u in ((a, b), (b, a)):
                assert ideal_generator(d, v, u) == ideal_generator_recursive(d, v, u)


def _deep_caterpillar():
    # 1100 spine nodes, each with a leg, plus a leaf at each end: 2202
    # vertices, deeper than the interpreter's recursion limit
    spine = 1100
    vertices = [(f"s{i}", -4) for i in range(spine)]
    vertices += [(f"l{i}", -2) for i in range(spine)] + [("a", -2), ("b", -2)]
    edges = [(f"s{i}", f"s{i + 1}") for i in range(spine - 1)]
    edges += [(f"s{i}", f"l{i}") for i in range(spine)]
    edges += [("s0", "a"), (f"s{spine - 1}", "b")]
    g = ResolutionGraph.build(vertices, edges)
    assert len(g.ids) == 2202
    return g


def test_subtree_table_matches_direct_expansion_on_large_trees():
    # the root-down entries come from the edge-determinant identity, the
    # oracle's from expanding every row again
    graphs = [dominant_tree(random.Random(seed), n) for seed, n in ((7, 200), (8, 400), (9, 1000))]
    for g in [*graphs, _deep_caterpillar()]:
        assert list(subtree_determinants(g).items()) == list(subtree_determinants_direct(g).items())


def _shuffled(g, rng):
    # the same tree with its vertices and edges in a seeded order, each edge
    # either way round, so vertex order and tree order disagree
    order = rng.sample(range(len(g.ids)), len(g.ids))
    edges = [e if rng.random() < 0.5 else e[::-1] for e in g.edges]
    rng.shuffle(edges)
    return ResolutionGraph.build([(g.ids[i], g.weights[i]) for i in order], edges)


def _diagram_families(rng):
    yield ResolutionGraph.build([("a", -2)], [])
    yield ResolutionGraph.build([("a", -2), ("b", -3)], [("a", "b")])
    for _ in range(6):  # paths
        n = rng.randint(3, 40)
        yield ResolutionGraph.build(
            [(f"p{i}", -rng.randint(2, 5)) for i in range(n)],
            [(f"p{i}", f"p{i + 1}") for i in range(n - 1)],
        )
    for _ in range(6):  # stars whose arms are strings of 1 to 3 curves
        arms = [rng.randint(1, 3) for _ in range(rng.randint(3, 7))]
        vertices, edges = [("c", -len(arms) - 1 - rng.randint(0, 2))], []
        for a, length in enumerate(arms):
            chain = ["c"] + [f"a{a}_{k}" for k in range(length)]
            vertices += [(x, -rng.randint(2, 4)) for x in chain[1:]]
            edges += list(zip(chain, chain[1:]))
        yield ResolutionGraph.build(vertices, edges)
    for n in (5, 12, 25, 50, 100, 200, 400):
        yield dominant_tree(rng, n)


def test_diagrams_off_the_integer_tree_match_the_tables_by_vertex_id():
    rng = random.Random(20)
    graphs = [_shuffled(g, rng) for g in _diagram_families(rng)]
    for g in [*graphs, _deep_caterpillar()]:
        d, ref = splice_from_resolution(g), reduced_diagram_by_id(g)
        assert (d.ids, d.edges, dict(d.strings)) == (ref.ids, ref.edges, ref.strings)
        assert list(d.weights.items()) == list(ref.weights.items())
        assert list(maximal_splice(g).weights.items()) == maximal_weights_by_id(g)
        # every vertex of the small diagrams, a seeded few of the large ones;
        # the reference walks one path per leaf
        for v in d.ids if len(d.ids) <= 60 else rng.sample(d.ids, 4 if len(g.ids) < 2000 else 2):
            assert {u: d.edge_leaves(v, u) for u in d.adjacency[v]} == edge_equations_by_id(d, v)
        if len(g.ids) <= 60:  # valency-2 vertices and weights at both ends
            dmax = maximal_splice(g)
            for v in rng.sample(dmax.ids, min(3, len(dmax.ids))):
                leaves = {u: dmax.edge_leaves(v, u) for u in dmax.adjacency[v]}
                assert leaves == edge_equations_by_id(dmax, v)
        with pytest.raises(UnknownEdge):
            d.edge_leaves(d.ids[0], d.ids[0])
        with pytest.raises(UnknownEdge):
            d.edge_leaves("no such vertex", d.ids[0])


def test_paths_and_linking_numbers_match_the_search_on_every_pair(fixture_map, two_node_corpus):
    # every ordered pair of the reduced and maximal diagrams, adjacent or
    # not, and of the bare diagrams of their end-node reductions, and a
    # seeded sample of pairs on the deep caterpillar; both numbers are
    # symmetric, though each is read off the walk from its first vertex
    rng = random.Random(21)
    paths = [
        ResolutionGraph.build(
            [(f"p{i}", -rng.randint(2, 5)) for i in range(n)],
            [(f"p{i}", f"p{i + 1}") for i in range(n - 1)],
        )
        for n in (1, 2, 3, 8, 30)
    ]
    trees = [_shuffled(dominant_tree(rng, rng.randint(2, 50)), rng) for _ in range(12)]

    def agree(d, v, w):
        assert d.path(v, w) == path_by_search(d, v, w)
        if v == w:
            with pytest.raises(SameVertex):
                linking_numbers(d, v, w)
            return None
        numbers = linking_numbers(d, v, w)
        assert numbers == linking_numbers_by_path(d, v, w)
        return numbers

    def reductions(d):
        for v_star in d.nodes:
            if is_end_node(d, v_star):
                reduced = end_node_reduce(d, v_star).diagram
                assert reduced.strings is None
                yield reduced

    for g in [*fixture_map.values(), *trees, *paths, *two_node_corpus]:
        for d in (splice_from_resolution(g), maximal_splice(g)):
            for dd in (d, *reductions(d)):
                # all pairs from one vertex first, as the diagram keeps one walk
                seen = {(v, w): agree(dd, v, w) for v, w in itertools.product(dd.ids, repeat=2)}
                assert all(n == seen[(w, v)] for (v, w), n in seen.items())
    g = _deep_caterpillar()
    for d in (splice_from_resolution(g), maximal_splice(g)):
        for _ in range(200):
            v, w = rng.sample(d.ids, 2)
            assert agree(d, v, w) == linking_numbers(d, w, v)


def test_each_consumer_walks_the_diagram_once(fixture_map, monkeypatch):
    # the end-node reduction, the linking numbers from one vertex to all
    # others, the curve component count and the leading-form check each
    # read the one cached walk from one vertex: a fresh diagram walks once
    # past its integer view, and a repeat call walks zero times
    calls = []
    real = splice.walk_tree

    def counted(nbrs, root):
        calls.append(root)
        return real(nbrs, root)

    monkeypatch.setattr(graph, "walk_tree", counted)
    monkeypatch.setattr(splice, "walk_tree", counted)

    def walks(d, call):
        d = copy.copy(d)  # no cached walks
        d.tree  # its integer view walks once from vertex 0, not counted
        calls.clear()
        call(d)
        first = len(calls)
        call(d)
        return first, len(calls) - first

    g = dominant_tree(random.Random(7), 100)
    for d in (splice_from_resolution(g), maximal_splice(g)):
        ends = [v for v in d.nodes if is_end_node(d, v)]
        assert ends
        for v_star in ends:
            assert walks(d, lambda d: end_node_reduce(d, v_star)) == (1, 0)
        for v in (d.nodes[0], d.leaves[0]):
            assert walks(d, lambda d: [linking_numbers(d, v, w) for w in d.ids if w != v]) == (1, 0)
        assert walks(d, lambda d: curve_component_count(d, d.leaves[-1])) == (1, 0)
    for name in ("g1", "star"):
        d = splice_from_resolution(fixture_map[name])
        system = build_equations_from_diagram(d)
        for v in d.nodes:
            assert walks(d, lambda d: leading_form_check(d, v, system)) == (1, 0)


def test_diagram_holds_one_walk(g17):
    # a walk holds a big integer per vertex, so only the last one is kept
    for d in (splice_from_resolution(g17), maximal_splice(g17)):
        for v in d.ids:
            d.walk(v)
            assert list(d._walks) == [v]


def _diagram_routes(g):
    # reduced, maximal, end-node-reduced and user-built diagrams of g
    d = splice_from_resolution(g)
    reduced = [end_node_reduce(d, v).diagram for v in d.nodes if is_end_node(d, v)]
    user = SpliceDiagram(d.ids, d.edges, dict(d.weights), dict(d.strings))
    return [d, maximal_splice(g), *reduced, user]


def test_diagrams_are_read_only_and_pickle_on_every_route(fixture_map):
    # every route stores read-only copies of weights and strings, which a
    # pickle or a deep copy rebuilds through the constructor
    for g in fixture_map.values():
        for d in _diagram_routes(g):
            for copied in (pickle.loads(pickle.dumps(d)), copy.deepcopy(d)):
                assert type(copied) is type(d) and copied == d
                assert copied.strings == d.strings and copied.weights is not d.weights
            for mapping in (d.weights, d.strings or {}):
                for key in list(mapping)[:1]:
                    with pytest.raises(TypeError):
                        mapping[key] = mapping[key]
            with pytest.raises(TypeError):
                hash(d)
    # the caller's dicts are copied: changing them after construction
    # changes neither the diagram nor what it has cached
    edges = (("0", "1"), ("0", "2"), ("0", "3"))
    weights = {("0", "1"): 2, ("0", "2"): 3, ("0", "3"): 5}
    strings = {e: () for e in edges}
    d = SpliceDiagram(("0", "1", "2", "3"), edges, weights, strings)
    assert linking_numbers(d, "1", "2") == (5, 5)
    weights[("0", "3")], strings[edges[0]] = 7, ("x",)
    assert d.weights[("0", "3")] == 5 and d.strings[edges[0]] == ()
    assert linking_numbers(d, "1", "2") == (5, 5)
    assert linking_numbers(SpliceDiagram(d.ids, edges, weights), "1", "2") == (7, 7)


def test_unknown_and_unreachable_vertices_are_library_errors(g1):
    d = SpliceDiagram(ids=("a", "b", "c"), edges=(("a", "b"),), weights={})
    assert d.path("a", "b") == ("a", "b") and linking_numbers(d, "a", "b") == (1, 1)
    for call in (d.path, lambda v, w: linking_numbers(d, v, w)):
        with pytest.raises(SpliceKitError, match="no path from 'a' to 'c'"):
            call("a", "c")
        with pytest.raises(UnknownVertex):
            call("a", "zz")
    for query in (d.degree, d.is_node, d.is_leaf, d.weight_product):
        with pytest.raises(UnknownVertex):
            query("zz")
    assert not is_end_node(d, "zz")
    # g1's diagram beside a lone star: the star's node is not reached, and
    # the last vertex is not next to it
    g1d = splice_from_resolution(g1)
    star = [("m", "x"), ("m", "y"), ("m", "z")]
    two = SpliceDiagram(
        ids=("m", "x", "y", "z", *g1d.ids), edges=(*star, *g1d.edges),
        weights={**g1d.weights, **{e: 2 for e in star}},
    )
    with pytest.raises(SpliceKitError, match="no path from 'm' to 'nR'"):
        end_node_reduce(two, "nR")


BAD_DIAGRAMS = {
    "unknown vertex": (("a", "b"), (("a", "zz"),)),
    "self-loop": (("a", "b"), (("a", "b"), ("b", "b"))),
    "duplicate edge": (("a", "b"), (("a", "b"), ("a", "b"))),
    "reversed duplicate edge": (("a", "b"), (("a", "b"), ("b", "a"))),
    "duplicate id": (("a", "b", "a"), (("a", "b"),)),
}


@pytest.mark.parametrize("case", sorted(BAD_DIAGRAMS))
def test_bad_diagrams_fail_with_the_graphs_message(case):
    # a caller-built diagram checks its ids and edges on first use of its
    # integer view, with the routine and the messages of the graph's
    # constructor, wherever that use comes from
    ids, edges = BAD_DIAGRAMS[case]
    with pytest.raises(ValidationError) as graph_error:
        ResolutionGraph(ids=ids, weights=(-2,) * len(ids), edges=edges)
    message = str(graph_error.value)
    uses = (
        lambda d: d.tree,
        lambda d: d.index,
        lambda d: d.degree("a"),
        lambda d: linking_numbers(d, "a", "b"),
        check_ideal_condition,
        lambda d: end_node_reduce(d, "a"),
    )
    # the graph's message comes first, also when the weights are bad too
    for weights, use in itertools.product(({}, {("a", "b"): 0, ("b", "q"): True}), uses):
        d = SpliceDiagram(ids=ids, edges=edges, weights=weights)
        with pytest.raises(ValidationError) as diagram_error:
            use(d)
        assert str(diagram_error.value) == message


STAR_ENDS = (("c", "x", "y", "z"), (("c", "x"), ("c", "y"), ("c", "z")))
STAR_WEIGHTS = {("c", "x"): 2, ("c", "y"): 3, ("c", "z"): 5}
BAD_WEIGHTS = {  # weights on STAR_ENDS, and the message they raise
    "node with no weights": ({}, "no weight at node c toward x"),
    "node with some weights": (
        {("c", "x"): 2, ("c", "y"): 3}, "no weight at node c toward z"
    ),
    "weight on a non-edge": (
        {**STAR_WEIGHTS, ("x", "y"): 1}, "weight keyed ('x', 'y') is not at an end of an edge"
    ),
    "weight toward an unknown vertex": (
        {**STAR_WEIGHTS, ("c", "q"): 1}, "weight keyed ('c', 'q') is not at an end of an edge"
    ),
    "zero weight": (
        {**STAR_WEIGHTS, ("c", "z"): 0}, "weight 0 at c toward z is not a positive int"
    ),
    "negative weight": (
        {**STAR_WEIGHTS, ("c", "y"): -1}, "weight -1 at c toward y is not a positive int"
    ),
    "bool weight": (
        {**STAR_WEIGHTS, ("c", "x"): True}, "weight True at c toward x is not a positive int"
    ),
}


@pytest.mark.parametrize("case", sorted(BAD_WEIGHTS))
def test_bad_weights_fail_with_one_message_from_every_reader(case):
    # a caller-built diagram checks its weights against its edges with its
    # integer view, so every reader raises the same ValidationError: none a
    # KeyError, ValueError or ZeroDivisionError, and linking_numbers does not
    # read a missing node weight as 1
    weights, message = BAD_WEIGHTS[case]
    uses = (
        lambda d: d.tree,
        lambda d: d.index,
        lambda d: linking_numbers(d, "x", "y"),
        check_ideal_condition,
        check_semigroup,
        lambda d: admissible_exponents(d, "c", "x"),
        lambda d: end_node_reduce(d, "c"),
        build_equations_from_diagram,
    )
    for use in uses:
        d = SpliceDiagram(*STAR_ENDS, weights)
        with pytest.raises(ValidationError) as error:
            use(d)
        assert str(error.value) == message
    assert linking_numbers(SpliceDiagram(*STAR_ENDS, STAR_WEIGHTS), "x", "y") == (5, 5)


def test_library_built_diagrams_pass_the_weight_check(corpus):
    # reduced, maximal and end-node reduced diagrams meet the check by
    # construction; each is rebuilt so the check runs on a fresh view
    reductions = 0
    for g in corpus:
        d, det = splice_from_resolution(g), graph_determinant(g)
        diagrams = [d, maximal_splice(g)]
        for v in d.nodes:
            if is_end_node(d, v):
                diagrams += [end_node_reduce(d, v).diagram, end_node_reduce(d, v, det).diagram]
                reductions += 1
        for built in diagrams:
            assert SpliceDiagram(built.ids, built.edges, built.weights).index == built.index
    assert reductions == 298  # end nodes over the corpus


def test_weight_product_counts_a_bare_end_as_1(g1, g17, star):
    for g in (g1, g17, star):
        d, m = splice_from_resolution(g), maximal_splice(g)
        for v in d.ids:
            if d.is_leaf(v):
                assert d.weight_product(v) == 1
            else:
                assert d.weight_product(v) == m.weight_product(v) == prod(
                    d.weights[(v, u)] for u in d.adjacency[v]
                )
    d = splice_from_resolution(g1)
    assert d.weight_product("ul") == 1
    # the semigroup search reads a bare end's weight by the same rule
    assert admissible_exponents(d, "ul", "nL").target == 1


def test_cli_builds_a_diagram_view_only_where_a_section_reads_it(
    tmp_path, capsys, monkeypatch, g1, g17, star
):
    # the reduced and maximal diagrams are written from their fields, and the
    # group section reads the graph, so only report builds a diagram's view
    built = []
    view = splice.int_view
    monkeypatch.setattr(splice, "int_view", lambda *args: built.append(args) or view(*args))
    expected = {"splice": 0, "maximal": 0, "group": 0, "report": 1}
    for name, g in (("g1", g1), ("g17", g17), ("star", star)):
        path = tmp_path / f"{name}.json"
        path.write_text(document_to_json(graph_to_document(g)))
        for command, count in expected.items():
            built.clear()
            assert main([command, "--json", str(path)]) in (0, 1)  # 1: a condition fails
            assert len(built) == count, (name, command)
    capsys.readouterr()


def test_check_ideal_on_deep_caterpillar(tmp_path, capsys):
    path = tmp_path / "caterpillar.json"
    path.write_text(document_to_json(graph_to_document(_deep_caterpillar())))
    assert main(["check", "ideal", str(path)]) == 0
    assert capsys.readouterr().out == "ideal: pass\n"


def test_check_okuma34_on_deep_caterpillar(tmp_path, capsys):
    # every branch is reduced, so each value is read as 1 and no branch
    # cycle is computed; the whole table would hold the sum of the branch
    # sizes, about 4.8 million coefficients here
    path = tmp_path / "caterpillar.json"
    path.write_text(document_to_json(graph_to_document(_deep_caterpillar())))
    assert main(["check", "okuma34", str(path)]) == 0
    assert capsys.readouterr().out == "okuma34: pass\n"


def test_check_okuma33_on_deep_caterpillar(tmp_path, capsys, monkeypatch):
    # every branch is reduced: one subtree-add sweep per node on int arrays,
    # with no branch-cycle excess and no modulus computed, although every
    # spine curve steps and the exponents grow to hundreds of digits
    computed = []
    for name in ("excess_table", "moduli_table"):
        monkeypatch.setattr(cycles, name, lambda g, name=name: computed.append(name) or {})
    path = tmp_path / "caterpillar.json"
    path.write_text(document_to_json(graph_to_document(_deep_caterpillar())))
    for check in ("okuma33", "okuma34"):
        assert main(["check", check, str(path)]) == 0
        assert capsys.readouterr().out == f"{check}: pass\n"
    assert not computed


def test_check_okuma33_on_deep_string(tmp_path, capsys):
    # a node with two leaves and a string of 1100 curves, as deep as the
    # caterpillar
    length = 1100
    vertices = [("c", -3), ("a", -2), ("b", -2)] + [(f"x{i}", -2) for i in range(length)]
    edges = [("c", "a"), ("c", "b"), ("c", "x0")]
    edges += [(f"x{i}", f"x{i + 1}") for i in range(length - 1)]
    path = tmp_path / "deep.json"
    path.write_text(document_to_json(graph_to_document(ResolutionGraph.build(vertices, edges))))
    assert main(["check", "okuma33", str(path)]) == 0
    assert capsys.readouterr().out == "okuma33: pass\n"


def test_ideal_condition(g1, g90, small_trees, random_trees):
    # guaranteed for every resolution-derived diagram
    for g in [g1, g90, *small_trees, *random_trees]:
        assert check_ideal_condition(splice_from_resolution(g)).ok


def test_leaf_knot_orders(g1, g17, g90):
    assert all(leaf_knot_order(g1, w) == 1 for w in ("ul", "ll", "ur", "r2"))
    group17 = leaf_generators(g17)
    d17 = splice_from_resolution(g17)
    for w in d17.leaves:
        order = element_order(group17.generator(w))
        assert leaf_knot_order(g17, w) == order
    group90 = leaf_generators(g90)
    for w in splice_from_resolution(g90).leaves:
        order = element_order(group90.generator(w))
        assert leaf_knot_order(g90, w) == 90 // leaf_ideal_generator(
            splice_from_resolution(g90), w
        ) == order


def test_leaf_ideal_generator_and_knot_order_refuse_a_non_leaf(g1):
    d = splice_from_resolution(g1)
    for v in ("nL", "mid", "zz"):
        with pytest.raises(UnknownVertex, match=f"^{v} is not a leaf of the splice diagram$"):
            leaf_knot_order(g1, v)
    with pytest.raises(UnknownVertex, match="^nL is not a leaf$"):
        leaf_ideal_generator(d, "nL")


def test_ideal_generators_fill_one_table(monkeypatch):
    # every leaf knot order, ideal generator and ideal check of a diagram
    # reads its one cached table, filled in one pass over the directed edges;
    # the knot orders read the diagram of the analysis they share
    calls = []
    real = splice.edge_order

    def counted(tree):
        calls.append(tree)
        return real(tree)

    monkeypatch.setattr(splice, "edge_order", counted)
    a = Analysis(dominant_tree(random.Random(7), 60))
    d = splice_from_resolution(a)
    orders = [leaf_knot_order(a, w) for w in d.leaves]
    report = check_ideal_condition(d)
    assert [ideal_generator(d, e.node, e.toward) for e in report.entries] == [
        e.generator for e in report.entries
    ]
    assert calls == [d.tree] and len(orders) == len(d.leaves)
    with pytest.raises(TypeError):
        d.ideal_generators[next(iter(d.ideal_generators))] = 1


def test_end_node_reduce_g1(g1):
    d = splice_from_resolution(g1)
    assert is_end_node(d, "nR")
    result = end_node_reduce(d, "nR", det=1)
    reduced = result.diagram
    assert dict(reduced.weights) == {
        ("nL", "ul"): 2, ("nL", "ll"): 3, ("nL", result.new_leaf): 17,
    }
    raw = end_node_reduce(d, "nR").diagram
    assert dict(raw.weights) == dict(reduced.weights)

    g_tilde, d_tilde = end_node_reduce_graph(g1, "nR")
    assert graph_determinant(g_tilde) == 11  # the old weight toward the rest
    assert dict(d_tilde.weights) == {
        ("nL", "ul"): 2, ("nL", "ll"): 3, ("nL", "mid"): 17,
    }


def test_end_node_reduce_degenerate(star):
    d = splice_from_resolution(star)
    result = end_node_reduce(d, "c")
    assert result.diagram.ids == () and result.diagram.edges == ()
    assert result.new_leaf is None


def test_end_node_reduce_errors(g1, star):
    d = splice_from_resolution(g1)
    with pytest.raises(NotEndNode):
        end_node_reduce(d, "ul")
    with pytest.raises(NotEndNode, match="^ul$"):
        end_node_reduce_graph(g1, "ul")
    with pytest.raises(NotEndNode):
        end_node_reduce_graph(star, "c")


def test_end_node_reduce_takes_a_fresh_leaf_id(g1):
    # with w* and w*2 kept, the new leaf is w*3, and the diagram is the one
    # of g1 renamed
    names = {"ur": "w*", "r2": "w*2"}
    g = ResolutionGraph.build(
        [(names.get(v, v), w) for v, w in zip(g1.ids, g1.weights)],
        [(names.get(a, a), names.get(b, b)) for a, b in g1.edges],
    )
    det = graph_determinant(g1)
    plain = end_node_reduce(splice_from_resolution(g1), "nL", det)
    renamed = end_node_reduce(splice_from_resolution(g), "nL", det)
    names[plain.new_leaf] = "w*3"
    assert renamed.new_leaf == "w*3"
    assert renamed.diagram.ids == tuple(names.get(v, v) for v in plain.diagram.ids)
    assert renamed.diagram.weights == {
        (names.get(a, a), names.get(b, b)): w for (a, b), w in plain.diagram.weights.items()
    }


def test_end_node_reduce_nonintegral_raises(g1):
    # a divisor that does not match the diagram: 7 does not divide the raw
    # weight 17 at nL toward nR, and the error names all four
    d = splice_from_resolution(g1)
    message = "^reduced weight at nL toward nR: 17 not divisible by 7$"
    with pytest.raises(NonIntegralWeight, match=message):
        end_node_reduce(d, "nR", det=7)


def test_reduced_weights_lie_on_edges_in_vertex_order(fixture_map):
    # a maximal diagram also weights the vertex next to the end-node toward
    # it; that weight goes with the end-node, so every weight of a reduction
    # sits on an edge of the result, in vertex order
    for g in fixture_map.values():
        det = graph_determinant(g)
        for d in (splice_from_resolution(g), maximal_splice(g)):
            for v_star in [v for v in d.nodes if is_end_node(d, v)]:
                for divisor in (None, det):
                    reduced = end_node_reduce(d, v_star, divisor).diagram
                    keys, index = list(reduced.weights), reduced.index
                    assert all(to in reduced.adjacency[at] for at, to in keys), (v_star, divisor)
                    assert keys == sorted(keys, key=lambda e: (index[e[0]], index[e[1]]))


def test_graph_and_diagram_reduction_agree(two_node_corpus):
    for g in two_node_corpus[:20]:
        d = splice_from_resolution(g)
        det = graph_determinant(g)
        for v_star in d.nodes:
            if not is_end_node(d, v_star):
                continue
            result = end_node_reduce(d, v_star, det=det)
            g_tilde, d_tilde = end_node_reduce_graph(g, v_star)
            got = sorted(result.diagram.weights.values())
            want = sorted(d_tilde.weights.values())
            assert got == want


def test_end_node_strings_name_the_step_toward_the_centre(corpus):
    # the read of end_node_reduce_graph and check_condition_3_3: the first
    # curve of the string from an end-node toward its central direction is
    # the graph neighbour of the end-node on its path to the central node
    seen = 0
    for g in corpus:
        d = splice_from_resolution(g)
        for v_star in d.nodes:
            central = [x for x in d.adjacency[v_star] if not d.is_leaf(x)]
            if is_end_node(d, v_star) and central:
                step = (*d.strings[(v_star, central[0])], central[0])[0]
                assert path_by_search(maximal_splice(g), v_star, central[0])[1] == step
                seen += 1
    assert seen > 250  # 277 end-nodes with a central direction


def test_extremal_string_lemma(g1, g17, g90, small_trees):
    for g in [g1, g17, g90, *small_trees]:
        d = splice_from_resolution(g)
        det = graph_determinant(g)
        for v in d.nodes:
            for w in d.adjacency[v]:
                if not d.is_leaf(w):
                    continue
                chain = list(d.strings[(v, w)]) + [w]
                cf = continued_fraction_of_string([g.weight_of(x) for x in chain])
                g0 = induced_subgraph(g, [x for x in g.ids if x not in chain])
                n_other = d.weight_product(v) // d.weights[(v, w)]
                base = determinant(negated_intersection_matrix(g0))
                assert det == cf.numerator * base - n_other * cf.denominator


def test_leaf_end_weight_lemma(g1, g17, g90, small_trees):
    for g in [g1, g17, g90, *small_trees]:
        d = splice_from_resolution(g)
        dmax = maximal_splice(g)
        det = graph_determinant(g)
        for v in d.nodes:
            for w in d.adjacency[v]:
                if not d.is_leaf(w):
                    continue
                chain = list(d.strings[(v, w)]) + [w]
                n = continued_fraction_of_string(
                    [g.weight_of(x) for x in chain]
                ).numerator
                p_prime = (
                    continued_fraction_of_string(
                        [g.weight_of(x) for x in chain[:-1]]
                    ).numerator
                    if len(chain) > 1
                    else 1
                )
                n_other = d.weight_product(v) // d.weights[(v, w)]
                leaf_weight = dmax.weights[(w, g.adjacency[w][0])]
                assert leaf_weight * n == p_prime * det + n_other


def test_reduction_weight_lemma(two_node_corpus, g1):
    # a*det(trimmed) - a~*det = (other weights at v) * (leaf weights at the
    # end-node) * (reduced linking)^2, for every surviving node
    for g in [g1, *two_node_corpus[:15]]:
        d = splice_from_resolution(g)
        det = graph_determinant(g)
        for v_star in d.nodes:
            if not is_end_node(d, v_star):
                continue
            central = [x for x in d.adjacency[v_star] if not d.is_leaf(x)][0]
            g_tilde, d_tilde = end_node_reduce_graph(g, v_star)
            r = graph_determinant(g_tilde)
            assert r == d.weights[(v_star, central)]  # trimmed det = old weight
            n_prod = d.weight_product(v_star) // r
            new_leaf = [x for x in d_tilde.leaves if x not in d.index or not d.is_leaf(x)]
            assert len(new_leaf) == 1
            for v in d_tilde.nodes:
                a = d.weights[(v, d.path(v, v_star)[1])]
                a_tilde = d_tilde.weights[(v, d_tilde.path(v, new_leaf[0])[1])]
                m_prod = d.weight_product(v) // a
                lp = linking_numbers(d, v, v_star)[1]
                assert a * r - a_tilde * det == m_prod * n_prod * lp * lp


@pytest.mark.parametrize("seed, n", [(41, 25), (42, 100), (43, 400), (44, 1000)])
def test_edge_det_theorem_and_blow_up_on_dominant_trees(seed, n):
    rng = random.Random(seed)
    g = dominant_tree(rng, n)
    report = verify_edge_det_theorem(g)
    assert report.entries and report.ok
    g2 = blow_up_edge(g, rng.choice(g.edges))
    assert graph_determinant(g2) == graph_determinant(g)
    assert splice_from_resolution(g2).weights == splice_from_resolution(g).weights


def test_splice_invariant_under_blow_up(small_trees, random_trees, g90):
    for g in [g90, *small_trees, *random_trees[:30]]:
        d = splice_from_resolution(g)
        det = graph_determinant(g)
        for edge in g.edges:
            g2 = blow_up_edge(g, edge)
            assert splice_from_resolution(g2) == d
            assert graph_determinant(g2) == det
