"""Splice diagrams: derivation from resolution graphs and their calculus.

A splice diagram is a tree without valency-2 vertices; each node carries a
positive weight on every incident edge, equal to the determinant of the
piece of the resolution graph cut off in that direction. The maximal
variant keeps all vertices of the resolution graph and weights both ends
of every edge. Both are read off the graph's integer tree and the two
passes of its subtree determinants. Every diagram, however built, holds
read-only copies of its weights and strings, and checks its ids, edges
and weights on first use of its integer view. Every reader takes the
weight at a node's end as stored and counts a bare end as 1.
"""

from __future__ import annotations

from functools import cached_property
from math import gcd, prod
from types import MappingProxyType
from typing import Mapping, NamedTuple

from . import linalg
from .analysis import Analysis, analysis_of, linking_row
from .cfrac import continued_fraction_of_string
from .document import int_text
from .errors import (
    LeafEdgeInReducedDiagram,
    NonIntegralWeight,
    NotEndNode,
    SameVertex,
    SpliceKitError,
    UnknownEdge,
    UnknownVertex,
    ValidationError,
)
from .frozen import Frozen, report_failures, report_ok
from .graph import (
    DirectedEdge,
    ResolutionGraph,
    blow_up_edge,
    component_of,
    edge_order,
    fresh_id,
    graph_determinant,
    induced_subgraph,
    int_view,
    leaves_of,
    nodes_of,
    subtree_determinants,  # noqa: F401  re-exported as splice.subtree_determinants
    vertex_adjacency,
    walk_tree,
)


class Walk(NamedTuple):
    """``SpliceDiagram.walk`` from vertex i, by position in ``ids``."""

    parent: tuple[int, ...]  # toward i; -1 at i and off its component
    branch: tuple[int, ...]  # the neighbour of i on the way; -1 at i and off
    reduced: tuple[int, ...]  # reduced linking number from i; 1 at i and next to it
    leaves: Mapping[str, tuple[tuple[str, ...], tuple[int, ...]]]  # edge_leaves by toward


class SpliceDiagram(Frozen):
    """Weighted tree; ``weights[(v, u)]`` is the weight at v on edge {v, u}.

    In a reduced diagram only nodes carry weights; leaf ends are bare, and
    every reader counts a bare end as 1. ``strings`` optionally maps each
    directed edge back to the interior vertices of the resolution string
    it came from (ordered from the first endpoint); equality leaves it
    out. Every route stores read-only copies of both mappings, so a
    diagram is not changed through them or through the caller's dicts;
    copies and pickles rebuild it from plain dict copies, and it has no
    hash. On first use of ``index`` or ``tree``, which no route reads
    before it needs them, its ids and edges are checked by the graph's own
    routine, then its weights (``_view``). The last walk from a vertex is cached
    (``walk``); the paths, linking numbers, edge equations and end-node
    reduction read it, each from one vertex at a time.
    """

    __slots__ = ("ids", "edges", "weights", "strings", "__dict__")
    _fields = ("ids", "edges", "weights", "strings")
    _compared = ("ids", "edges", "weights")
    ids: tuple[str, ...]
    edges: tuple[tuple[str, str], ...]
    weights: Mapping[DirectedEdge, int]
    strings: Mapping[DirectedEdge, tuple[str, ...]] | None

    def __init__(
        self,
        ids: tuple[str, ...],
        edges: tuple[tuple[str, str], ...],
        weights: Mapping[DirectedEdge, int],
        strings: Mapping[DirectedEdge, tuple[str, ...]] | None = None,
    ) -> None:
        strings = None if strings is None else MappingProxyType(dict(strings))
        self._init(ids=ids, edges=edges, weights=MappingProxyType(dict(weights)), strings=strings)

    __hash__ = None  # type: ignore[assignment]

    def __reduce__(self):
        strings = None if self.strings is None else dict(self.strings)
        return type(self), (self.ids, self.edges, dict(self.weights), strings)

    def _view(self, name: str):
        """``index`` or ``tree``: both are cached together on first use of
        either, from ``int_view``, which raises ValidationError on a duplicate
        id, an edge to an unknown vertex, a self-loop or a duplicate edge.
        Then ValidationError names the first weight, in weight order, off
        the ends of the edges or not a positive int, then the first end at
        a node (valency >= 3), in vertex order, without a weight."""
        index, tree = int_view(ids := self.ids, self.edges)
        ends = {(ids[i], ids[j]): len(ns) > 2 for i, ns in enumerate(tree.nbrs) for j in ns}
        for end, w in self.weights.items():
            if end not in ends:
                raise ValidationError(f"weight keyed {end!r} is not at an end of an edge")
            if type(w) is not int or w < 1:
                raise ValidationError(
                    f"weight {w!r} at {end[0]} toward {end[1]} is not a positive int"
                )
        for (v, u), at_node in ends.items():
            if at_node and (v, u) not in self.weights:
                raise ValidationError(f"no weight at node {v} toward {u}")
        cache = self.__dict__
        cache["index"], cache["tree"] = index, tree
        return cache[name]

    index = cached_property(lambda d: d._view("index"))
    tree = cached_property(lambda d: d._view("tree"))
    adjacency = cached_property(vertex_adjacency)
    nodes = cached_property(nodes_of)
    leaves = cached_property(leaves_of)

    def _position(self, v: str) -> int:
        i = self.index.get(v)
        if i is None:
            raise UnknownVertex(v)
        return i

    def degree(self, v: str) -> int:
        """Raises UnknownVertex, as do is_node, is_leaf and weight_product."""
        return len(self.tree.nbrs[self._position(v)])

    def is_node(self, v: str) -> bool:
        return self.degree(v) >= 3

    def is_leaf(self, v: str) -> bool:
        return self.degree(v) <= 1

    def weight_product(self, v: str) -> int:
        """Product of the weights at v's ends, a bare end counting as 1: 1 at
        a leaf of a reduced diagram."""
        ids, get = self.ids, self.weights.get
        return prod(get((v, ids[u]), 1) for u in self.tree.nbrs[self._position(v)])

    @cached_property
    def ideal_generators(self) -> Mapping[DirectedEdge, int]:
        """Read-only generator of the edge from v toward u, keyed (u, v), which
        the ideal generators, leaf knot orders and ideal check read. Filled
        by vertex index in ``edge_order``, leaves first: 1 at a leaf u, else
        the gcd over the other edges (u, x) of the entry beyond x times the
        weights at u on the rest (positive, so // is exact)."""
        ids, nbrs, weights, table = self.ids, self.tree.nbrs, self.weights, {}
        for u, p in edge_order(self.tree):
            a = ids[u]
            at = {ids[x]: weights.get((a, ids[x]), 1) for x in nbrs[u] if x != p}
            rest = prod(at.values())
            table[(a, ids[p])] = gcd(*(table[(x, a)] * (rest // w) for x, w in at.items())) or 1
        return MappingProxyType(table)

    @cached_property
    def _walks(self) -> dict[str, Walk]:
        return {}

    def walk(self, v: str) -> Walk:
        """The walk from v, cached until a walk from another vertex replaces
        it, as each holds a big integer per vertex. One ``walk_tree`` from v,
        then one product pass along its order: the reduced number at a vertex
        is the one at its parent y times the weights at y toward y's other
        children, the weights off the path at y, and 1 next to v; a bare end
        counts as 1. Raises UnknownVertex."""
        found = self._walks.get(v)
        if found is not None:
            return found
        i, ids, nbrs, weights = self._position(v), self.ids, self.tree.nbrs, self.weights
        order, parent = walk_tree(nbrs, i)
        value, branch = [1] * len(ids), [-1] * len(ids)
        for x in nbrs[i]:
            branch[x] = x
        for y in order[1:]:
            kids = [x for x in nbrs[y] if x != parent[y]]
            at = [weights.get((ids[y], ids[x]), 1) for x in kids]
            after = [1] * (len(kids) + 1)  # after[m]: product of at[m:]
            for m in range(len(kids) - 1, -1, -1):
                after[m] = after[m + 1] * at[m]
            before = value[y]
            for m, x in enumerate(kids):
                value[x], branch[x] = before * after[m + 1], branch[y]
                before *= at[m]
        out: dict[int, tuple[list[str], list[int]]] = {u: ([], []) for u in nbrs[i]}
        for x, ns in enumerate(nbrs):
            if len(ns) <= 1 and branch[x] >= 0:
                names, values = out[branch[x]]
                names.append(ids[x])
                values.append(value[x])
        leaves = {ids[u]: (tuple(ls), tuple(vs)) for u, (ls, vs) in out.items()}
        found = Walk(tuple(parent), tuple(branch), tuple(value), MappingProxyType(leaves))
        self._walks.clear()
        self._walks[v] = found
        return found

    def edge_leaves(self, v: str, toward: str) -> tuple[tuple[str, ...], tuple[int, ...]]:
        """The leaves beyond the edge from v toward `toward` (`toward` itself
        when it is a leaf) in vertex order, with their reduced linking
        numbers from v (``linking_numbers(d, v, w)[1]``), read off the walk
        from v. Raises UnknownEdge."""
        branch = self.walk(v).leaves.get(toward) if v in self.index else None
        if branch is None:
            raise UnknownEdge(f"({v}, {toward})")
        return branch

    def path(self, v: str, w: str) -> tuple[str, ...]:
        """The vertices from v to w, up the parent array of the walk from v
        from w. Raises UnknownVertex, and SpliceKitError when w is not
        reached from v."""
        i, j = self._position(v), self._position(w)
        parent, path = self.walk(v).parent, [j]
        while j != i:
            j = parent[j]
            if j < 0:
                raise SpliceKitError(f"no path from {v!r} to {w!r}")
            path.append(j)
        return tuple(self.ids[k] for k in reversed(path))


class MaximalSpliceDiagram(SpliceDiagram):
    """Splice diagram on all resolution vertices, weighted at both ends."""

    __slots__ = ()


def tree_determinant(g: ResolutionGraph) -> int:
    """det of the negated intersection matrix, the value at ids[0] of the
    leaves-up pass of the subtree determinants, without a definiteness gate
    (``graph_determinant`` adds it).

    ``linalg.determinant`` (Bareiss) is the independent oracle; the tests
    cross-check the two.
    """
    return g.det


def splice_from_resolution(g: ResolutionGraph | Analysis) -> SpliceDiagram:
    """Reduced splice diagram of a negative-definite resolution graph, with
    read-only weights and strings, built once per analysis as
    ``a.memo(_reduced_diagram)``; handed a graph, it builds a fresh one.
    Raises NotNegativeDefinite."""
    return analysis_of(g).memo(_reduced_diagram)


def _reduced_diagram(a: Analysis) -> SpliceDiagram:
    """The vertices of valency other than 2, each string walked over int
    neighbours from both ends; the ends at each vertex are taken in vertex
    order, so edges and weights come out in vertex order, as ``tree``."""
    nbrs, ids, det = (g := a.graph).tree.nbrs, g.ids, g.branch_det
    keep = [i for i, ns in enumerate(nbrs) if len(ns) != 2]
    edges: list[tuple[str, str]] = []
    weights: dict[DirectedEdge, int] = {}
    strings: dict[DirectedEdge, tuple[str, ...]] = {}
    for i in keep:
        ends = []
        for j in nbrs[i]:
            prev, t, interior = i, j, []
            while len(nbrs[t]) == 2:
                interior.append(ids[t])
                a, b = nbrs[t]
                prev, t = t, b if a == prev else a
            ends.append((t, j, interior))
        ends.sort()  # the ends t are distinct, so only they are compared
        for t, j, interior in ends:
            key = (ids[i], ids[t])
            if t > i:
                edges.append(key)
            strings[key] = tuple(interior)
            if len(ends) > 2:
                weights[key] = det(j, i)
    return SpliceDiagram(
        ids=tuple(ids[i] for i in keep), edges=tuple(edges), weights=weights, strings=strings
    )


def maximal_splice(g: ResolutionGraph) -> MaximalSpliceDiagram:
    """Splice diagram keeping every vertex, with weights at both edge ends,
    in (at, toward) vertex order."""
    ids, det = g.ids, g.branch_det
    weights = {(ids[i], ids[j]): det(j, i) for i, ns in enumerate(g.tree.nbrs) for j in ns}
    return MaximalSpliceDiagram(ids=g.ids, edges=g.edges, weights=weights, strings=None)


def linking_numbers(d: SpliceDiagram, v: str, w: str) -> tuple[int, int]:
    """(full, reduced) products of weights adjacent to but not on the v-w path.

    The reduced value omits the weights sitting at v and w themselves; it
    is 1 when v and w are adjacent. Both are read off the walk from v: the
    reduced value at w times the weights at v and at w off the path, a
    bare end counting as 1. Both are symmetric in v and w. Raises
    SameVertex, UnknownVertex, and SpliceKitError when w is not reached.
    """
    if v == w:
        raise SameVertex(v)
    i, j = d._position(v), d._position(w)
    walk = d.walk(v)
    if walk.branch[j] < 0:
        raise SpliceKitError(f"no path from {v!r} to {w!r}")
    ids, nbrs, weights = d.ids, d.tree.nbrs, d.weights
    full = reduced = walk.reduced[j]
    for k, on in ((i, walk.branch[j]), (j, walk.parent[j])):
        full *= prod(weights.get((ids[k], ids[x]), 1) for x in nbrs[k] if x != on)
    return full, reduced


def linking_matrix(g: ResolutionGraph | Analysis) -> linalg.IntMatrix:
    """Matrix of pairwise linking numbers over all resolution vertices.

    Entries are the path products of the maximal splice diagram (see
    ``ResolutionGraph.linking_row``); the diagonal entry is the product of
    all weights at the vertex. Satisfies A * L = -det * I, which the test
    suite checks exactly. Rows are read as ``a.memo(linking_row, v)``, so
    an analysis walks each once. Returns a fresh list; raises
    NotNegativeDefinite.
    """
    a = analysis_of(g)
    return [list(a.memo(linking_row, v)) for v in a.graph.ids]


def edge_determinant(d: SpliceDiagram, edge: tuple[str, str]) -> int:
    """Product of the two weights on the edge minus the product of the
    weights adjacent to the edge."""
    v, w = edge
    if w not in d.adjacency.get(v, ()):
        raise UnknownEdge(f"({v}, {w})")
    wv = d.weights.get((v, w))
    ww = d.weights.get((w, v))
    if wv is None or ww is None:
        raise LeafEdgeInReducedDiagram(f"({v}, {w})")
    adjacent = prod(
        d.weights.get((end, x), 1)
        for end, other in ((v, w), (w, v))
        for x in d.adjacency[end]
        if x != other
    )
    return wv * ww - adjacent


class EdgeDetEntry(NamedTuple):
    edge: tuple[str, str]
    edge_det: int
    string_det: int
    graph_det: int

    @property
    def ok(self) -> bool:
        return self.edge_det == self.string_det * self.graph_det


class EdgeDetReport(NamedTuple):
    entries: tuple[EdgeDetEntry, ...]

    ok, failures = report_ok, report_failures


def verify_edge_det_theorem(g: ResolutionGraph) -> EdgeDetReport:
    """Check edge det = string det * graph det on every node-node edge. The
    string determinant is the numerator of the continued fraction of the
    string's weights (1 for an empty string)."""
    d = splice_from_resolution(g)
    det_g = graph_determinant(g)
    entries = []
    for v, w in d.edges:
        if not (d.is_node(v) and d.is_node(w)):
            continue
        interior = d.strings[(v, w)] if d.strings else ()
        string_det = continued_fraction_of_string([g.weight_of(x) for x in interior]).numerator
        entries.append(
            EdgeDetEntry(
                edge=(v, w),
                edge_det=edge_determinant(d, (v, w)),
                string_det=string_det,
                graph_det=det_g,
            )
        )
    return EdgeDetReport(entries=tuple(entries))


def ideal_generator(d: SpliceDiagram, v: str, toward: str) -> int:
    """Positive generator of the ideal spanned by the reduced linking
    numbers from v to the leaves beyond `toward`, read from the diagram's
    cached table (``SpliceDiagram.ideal_generators``), filled leaves first."""
    if toward not in d.adjacency.get(v, ()):
        raise UnknownEdge(f"({v}, {toward})")
    return d.ideal_generators[(toward, v)]


class IdealEntry(NamedTuple):
    node: str
    toward: str
    generator: int
    weight: int

    @property
    def ok(self) -> bool:
        return self.weight % self.generator == 0


class IdealReport(NamedTuple):
    entries: tuple[IdealEntry, ...]

    ok, failures = report_ok, report_failures


def check_ideal_condition(d: SpliceDiagram) -> IdealReport:
    """Every node-edge weight must be divisible by its ideal generator."""
    generators = d.ideal_generators  # keyed (toward, v)
    return IdealReport(entries=tuple(
        IdealEntry(node=v, toward=u, generator=generators[(u, v)], weight=d.weights[(v, u)])
        for v in d.nodes
        for u in d.adjacency[v]
    ))


def leaf_ideal_generator(d: SpliceDiagram, leaf: str) -> int:
    """Ideal generator at a leaf (over all other leaves of the diagram)."""
    if not d.is_leaf(leaf):
        raise UnknownVertex(f"{leaf} is not a leaf")
    nbrs = d.adjacency[leaf]
    if not nbrs:
        return 1  # single-vertex diagram: no other leaves, degenerate ideal
    return ideal_generator(d, leaf, nbrs[0])


def leaf_knot_order(g: ResolutionGraph | Analysis, leaf: str) -> int:
    """Homology order of the knot at a leaf: graph det / ideal generator."""
    det = graph_determinant((a := analysis_of(g)).graph)
    d = splice_from_resolution(a)
    if leaf not in d.index or not d.is_leaf(leaf):
        raise UnknownVertex(f"{leaf} is not a leaf of the splice diagram")
    gen = leaf_ideal_generator(d, leaf)
    if det % gen:
        raise ValueError(f"generator {gen} does not divide determinant {det}")
    return det // gen


# --- end-node reduction -------------------------------------------------


class ReductionResult(NamedTuple):
    diagram: SpliceDiagram
    new_leaf: str | None


def is_end_node(d: SpliceDiagram, v: str) -> bool:
    """A node all but (at most) one of whose edges leads to a leaf; False
    for a vertex not in d."""
    if v not in d.index or not d.is_node(v):
        return False
    non_leaf = [x for x in d.adjacency[v] if not d.is_leaf(x)]
    return len(non_leaf) <= 1


def end_node_reduce(d: SpliceDiagram, v_star: str, det: int | None = None) -> ReductionResult:
    """Collapse an end-node and its leaves into a fresh leaf.

    Weights pointing away from the end-node survive unchanged. For each
    remaining node, the weight on its edge toward the new leaf becomes

        r * d_v1 - N * (d_v / d_v1) * (reduced linking to the end-node)^2

    where r is the end-node's weight toward the rest and N the product of
    its leaf weights. Given ``det``, the reduction is normalized: each value
    is divided by it, and a value it does not divide raises
    NonIntegralWeight, which a graph's own diagram and determinant never
    give. The edge toward the new leaf and the reduced linking number to
    the end-node, which is symmetric, are read at each node off the one
    walk from the end-node. The weights come in vertex order, the new leaf
    last, and each lies on an edge of the result: the weight toward the
    end-node at a neighbour that is not a node, as in a maximal diagram, is
    dropped. Reducing a single-node diagram leaves nothing and returns the
    empty diagram.
    """
    if not is_end_node(d, v_star):
        raise NotEndNode(v_star)
    non_leaf = [x for x in d.adjacency[v_star] if not d.is_leaf(x)]
    if not non_leaf:
        # Single-node diagram: nothing remains after the reduction.
        return ReductionResult(SpliceDiagram(ids=(), edges=(), weights={}), None)
    central = non_leaf[0]
    leaf_nbrs = [x for x in d.adjacency[v_star] if x != central]
    r = d.weights[(v_star, central)]
    n_product = prod(d.weights[(v_star, x)] for x in leaf_nbrs)

    removed = {v_star, *leaf_nbrs}
    kept = tuple(v for v in d.ids if v not in removed)
    w_star = fresh_id("w*", kept)
    new_ids = kept + (w_star,)
    new_edges = tuple(
        e for e in d.edges if e[0] not in removed and e[1] not in removed
    ) + ((central, w_star),)

    surviving_nodes = [v for v in d.nodes if v != v_star]
    walk = d.walk(v_star)  # the reduced numbers are symmetric
    toward_new = {}
    for v in surviving_nodes:
        up = walk.parent[d.index[v]]
        if up < 0:
            raise SpliceKitError(f"no path from {v!r} to {v_star!r}")
        toward_new[v] = d.ids[up]
    new_weights = {  # those toward the new leaf are replaced below
        (at, to): wt for (at, to), wt in d.weights.items()
        if at not in removed and to not in removed and toward_new.get(at) != to
    }
    for v in surviving_nodes:
        x = toward_new[v]
        d_v1 = d.weights[(v, x)]
        d_v = d.weight_product(v)
        lp = walk.reduced[d.index[v]]
        value = r * d_v1 - n_product * (d_v // d_v1) * lp * lp
        if det is not None:
            if value % det:
                raise NonIntegralWeight(
                    f"reduced weight at {v} toward {x}: {int_text(value)} "
                    f"not divisible by {int_text(det)}"
                )
            value //= det
        if value <= 0:
            raise ValueError(f"reduced weight at {v} is not positive: {value}")
        key_to = w_star if x == v_star else x
        new_weights[(v, key_to)] = value

    index = {v: i for i, v in enumerate(new_ids)}
    ordered = sorted(new_weights, key=lambda e: (index[e[0]], index[e[1]]))
    weights = {e: new_weights[e] for e in ordered}
    return ReductionResult(SpliceDiagram(new_ids, new_edges, weights), w_star)


def end_node_reduce_graph(
    g: ResolutionGraph, v_star: str
) -> tuple[ResolutionGraph, SpliceDiagram]:
    """Remove an end-node and its leaf strings from the resolution graph.

    Returns the trimmed graph and its splice diagram. When the end-node
    touches the next node directly, the connecting edge is blown up first
    so that a string vertex remains to serve as the new leaf.
    """
    d = splice_from_resolution(g)
    if not is_end_node(d, v_star):
        raise NotEndNode(v_star)
    non_leaf = [x for x in d.adjacency[v_star] if not d.is_leaf(x)]
    if not non_leaf:
        raise NotEndNode(f"{v_star}: no remaining direction to keep")
    central_dir = (*d.strings[(v_star, non_leaf[0])], non_leaf[0])[0]
    work = g
    if work.degree(central_dir) >= 3:
        work = blow_up_edge(work, (v_star, central_dir))
        central_dir = next(v for v in work.ids if v not in g.index)
    keep = component_of(work, v_star, central_dir)
    g_tilde = induced_subgraph(work, keep)
    return g_tilde, splice_from_resolution(g_tilde)
