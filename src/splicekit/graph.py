"""Resolution graphs: vertex-weighted trees of exceptional curves."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import prod
from types import MappingProxyType
from typing import TYPE_CHECKING, Callable, Iterable, Mapping

from . import linalg
from .errors import NotNegativeDefinite, UnknownEdge, UnknownVertex, ValidationError

if TYPE_CHECKING:
    from .splice import SpliceDiagram

VertexKind = str  # "leaf" | "string" | "node"
DirectedEdge = tuple[str, str]


def vertex_index(g) -> Mapping[str, int]:
    """Position of each vertex in ``g.ids``, for a graph or splice diagram.
    Cached on each instance as ``index``."""
    return {v: i for i, v in enumerate(g.ids)}


def vertex_adjacency(g) -> Mapping[str, tuple[str, ...]]:
    """Neighbours of each vertex in vertex order, for a graph or splice
    diagram. Cached on each instance as ``adjacency``."""
    nbrs: dict[str, list[str]] = {v: [] for v in g.ids}
    for a, b in g.edges:
        nbrs[a].append(b)
        nbrs[b].append(a)
    order = g.index
    return {v: tuple(sorted(ns, key=order.__getitem__)) for v, ns in nbrs.items()}


def rooted_order(g) -> tuple[tuple[str, ...], Mapping[str, str | None]]:
    """``bfs_tree`` of a graph or splice diagram from ids[0], read-only; empty
    when there are no vertices. Where g is not a tree it holds the component
    of ids[0] only. Cached on each instance as ``rooted``."""
    if not g.ids:
        return (), MappingProxyType({})
    order, parent = bfs_tree(g, g.ids[0])
    return tuple(order), MappingProxyType(parent)


@dataclass(frozen=True)
class ResolutionGraph:
    """A tree whose vertices carry self-intersection weights.

    Vertex order is the insertion order of the input and fixes the row
    order of every derived matrix, so minors and Smith transforms are
    reproducible. Instances are immutable; all operations on them are
    pure functions. One breadth-first order from ids[0] (``rooted``) is
    walked once per instance; the tree test, the subtree-determinant and
    branch-cycle tables and the definiteness verdict all read it. The
    subtree-determinant table and the invariants read from it
    (definiteness, determinant, and the linking numbers, one row per vertex
    on first use), the branch-cycle table and the reduced splice diagram are
    computed once per instance and cached read-only.
    """

    ids: tuple[str, ...]
    weights: tuple[int, ...]
    edges: tuple[tuple[str, str], ...]

    def __post_init__(self) -> None:
        if len(self.ids) != len(self.weights):
            raise ValidationError("ids and weights differ in length")
        if len(set(self.ids)) != len(self.ids):
            raise ValidationError("duplicate vertex id")
        known = set(self.ids)
        seen: set[frozenset[str]] = set()
        for a, b in self.edges:
            if a not in known or b not in known:
                raise ValidationError(f"edge ({a}, {b}) references unknown vertex")
            if a == b:
                raise ValidationError(f"self-loop at {a}")
            key = frozenset((a, b))
            if key in seen:
                raise ValidationError(f"duplicate edge ({a}, {b})")
            seen.add(key)

    @classmethod
    def build(
        cls,
        vertices: Iterable[tuple[str, int]],
        edges: Iterable[tuple[str, str]],
    ) -> "ResolutionGraph":
        vs = list(vertices)
        return cls(
            ids=tuple(v for v, _ in vs),
            weights=tuple(w for _, w in vs),
            edges=tuple((a, b) for a, b in edges),
        )

    index = cached_property(vertex_index)
    adjacency = cached_property(vertex_adjacency)
    rooted = cached_property(rooted_order)

    @cached_property
    def subtree_dets(self) -> Mapping[DirectedEdge, int]:
        """Read-only ``subtree_determinants`` table."""
        return MappingProxyType(subtree_determinants(self))

    @cached_property
    def branch_cycles(self) -> Mapping[DirectedEdge, Mapping[str, int]]:
        """Read-only ``branch_cycle_table``."""
        return MappingProxyType(branch_cycle_table(self))

    @cached_property
    def splice_diagram(self) -> SpliceDiagram:
        """The reduced splice diagram with read-only weights and strings,
        returned by ``splice.splice_from_resolution``. Raises
        NotNegativeDefinite."""
        from .splice import _reduced_diagram  # splice imports this module

        return _reduced_diagram(self)

    @cached_property
    def det(self) -> int:
        """det of the negated intersection matrix: the value at ids[0] of the
        leaves-up pass of ``subtree_determinants``, one subtree step read
        off the cached table; 1 on the empty graph. No definiteness gate.
        Raises ValidationError when the graph is not a tree."""
        return _subtree_step(self, self.subtree_dets, self.ids[0], None) if self.ids else 1

    @cached_property
    def negative_definite(self) -> bool:
        """Rooted at ids[0] (the cached ``rooted`` order) and read leaves
        first, each leading principal minor of the negated form is a product
        of entries D(child, parent), each itself a principal minor; so the
        form is negative definite exactly when all of them and the root value
        are positive. Raises ValidationError when the graph is not a tree."""
        order, parent = self.rooted
        table = self.subtree_dets
        return self.det > 0 and all(table[(x, parent[x])] > 0 for x in order[1:])

    @cached_property
    def linking_rows(self) -> tuple[tuple[int, ...], ...]:
        """Linking numbers of the maximal splice diagram: ``linking_row`` of
        every vertex, in vertex order. Callers that need a few rows (the
        group section needs the leaves', the congruence table the leaves'
        and a node's) ask ``linking_row`` for those alone. Raises
        NotNegativeDefinite, where some weight may be zero.
        """
        return tuple(self.linking_row(v) for v in self.ids)

    @cached_property
    def _weight_products(self) -> Mapping[str, int]:
        table = self.subtree_dets
        return {v: prod(table[(u, v)] for u in self.adjacency[v]) for v in self.ids}

    @cached_property
    def _linking_row_cache(self) -> dict[str, tuple[int, ...]]:
        return {}

    def linking_row(self, v: str) -> tuple[int, ...]:
        """Linking numbers of v with every vertex, in vertex order, by one
        walk from v, cached per vertex. The entry at v is wp(v), the product
        of all weights at v; a step from u to x divides out the weight at u
        toward x, D(x, u), and multiplies in wp(x) / D(u, x). Both divisions
        are exact. Raises UnknownVertex, and NotNegativeDefinite, where some
        weight may be zero.
        """
        cache = self._linking_row_cache
        row = cache.get(v)
        if row is not None:
            return row
        if v not in self.index:
            raise UnknownVertex(v)
        if not self.negative_definite:
            raise NotNegativeDefinite("graph is not negative definite")
        table, wp, adj = self.subtree_dets, self._weight_products, self.adjacency
        order, walk = [v], {v: wp[v]}
        for u in order:  # breadth first
            here = walk[u]
            for x in adj[u]:
                if x not in walk:
                    walk[x] = here // table[(x, u)] * (wp[x] // table[(u, x)])
                    order.append(x)
        row = cache[v] = tuple(walk[x] for x in self.ids)
        return row

    def weight_of(self, v: str) -> int:
        try:
            return self.weights[self.index[v]]
        except KeyError:
            raise UnknownVertex(v) from None

    def degree(self, v: str) -> int:
        return len(self.adjacency[v])

    def has_edge(self, a: str, b: str) -> bool:
        return b in self.adjacency.get(a, ())


def bfs_tree(g: ResolutionGraph, root: str) -> tuple[list[str], dict[str, str | None]]:
    """Vertices reachable from root in breadth-first order, with parents."""
    order, parent = [root], {root: None}
    for u in order:
        for x in g.adjacency[u]:
            if x not in parent:
                parent[x] = u
                order.append(x)
    return order, parent


def is_tree(g: ResolutionGraph) -> bool:
    n = len(g.ids)
    return n > 0 and len(g.edges) == n - 1 and len(g.rooted[0]) == n


def validate_graph(g: ResolutionGraph) -> None:
    """Raise ValidationError unless g is a tree with negative weights."""
    if not g.ids:
        raise ValidationError("graph has no vertices")
    if not is_tree(g):
        raise ValidationError("graph is not a tree")
    for v, w in zip(g.ids, g.weights):
        if w >= 0:
            raise ValidationError(f"vertex {v} has non-negative weight {w}")


def classify_vertices(g: ResolutionGraph) -> dict[str, VertexKind]:
    """leaf (valency <= 1), string (valency 2), node (valency >= 3)."""
    out: dict[str, VertexKind] = {}
    for v in g.ids:
        deg = g.degree(v)
        out[v] = "node" if deg >= 3 else ("string" if deg == 2 else "leaf")
    return out


def nodes_of(g: ResolutionGraph) -> tuple[str, ...]:
    return tuple(v for v in g.ids if g.degree(v) >= 3)


def leaves_of(g: ResolutionGraph) -> tuple[str, ...]:
    return tuple(v for v in g.ids if g.degree(v) <= 1)


def maximal_strings(g: ResolutionGraph) -> tuple[tuple[str, ...], ...]:
    """Connected components of the graph minus its nodes."""
    node_set = set(nodes_of(g))
    seen: set[str] = set()
    out: list[tuple[str, ...]] = []
    for v in g.ids:
        if v in node_set or v in seen:
            continue
        comp = [v]
        seen.add(v)
        stack = [v]
        while stack:
            for w in g.adjacency[stack.pop()]:
                if w not in node_set and w not in seen:
                    seen.add(w)
                    comp.append(w)
                    stack.append(w)
        out.append(tuple(comp))
    return tuple(out)


def is_quasi_minimal(g: ResolutionGraph) -> bool:
    """No string contains a (-1)-vertex unless it is exactly one (-1)-vertex."""
    for comp in maximal_strings(g):
        if len(comp) != 1 and any(g.weight_of(v) == -1 for v in comp):
            return False
    return True


def intersection_matrix(g: ResolutionGraph) -> linalg.IntMatrix:
    """Symmetric matrix: weights on the diagonal, 1 where an edge exists."""
    n = len(g.ids)
    m = [[0] * n for _ in range(n)]
    for i, w in enumerate(g.weights):
        m[i][i] = w
    for a, b in g.edges:
        i, j = g.index[a], g.index[b]
        m[i][j] = 1
        m[j][i] = 1
    return m


def negated_intersection_matrix(g: ResolutionGraph) -> linalg.IntMatrix:
    return [[-x for x in row] for row in intersection_matrix(g)]


def _subtree_step(
    g: ResolutionGraph, table: Mapping[DirectedEdge, int], u: str, p: str | None
) -> int:
    """det of the subtree at u away from p (the whole tree when p is None),
    by expanding along u's row: b_u times the product of the child values,
    minus, for each child w, the other child values times the product of
    w's own child values. One pass over the children keeps the product of
    the values so far and the sum of the cross terms so far, so each child
    and grandchild entry is read once."""
    adj = g.adjacency
    down, cross = 1, 0
    for w in adj[u]:
        if w == p:
            continue
        grand = 1
        for x in adj[w]:
            if x != u:
                grand *= table[(x, w)]
        cross = cross * table[(w, u)] + down * grand
        down *= table[(w, u)]
    return -g.weight_of(u) * down - cross


def fill_edge_table(g, step: Callable[..., int]) -> dict[DirectedEdge, int]:
    """table[(child, parent)] = step(g, table, child, parent) on every
    directed edge of a tree (resolution graph or splice diagram), each step
    reading entries (x, child), x != parent: first toward ids[0], leaves
    up, then away from it, root down, along the cached ``g.rooted`` order
    and without recursion. The branch-cycle and ideal-generator tables are
    filled this way."""
    order, parent = g.rooted
    table: dict[DirectedEdge, int] = {}
    for u in reversed(order[1:]):
        table[(u, parent[u])] = step(g, table, u, parent[u])
    for u in order:
        for x in g.adjacency[u]:
            if x != parent[u]:
                table[(u, x)] = step(g, table, u, x)
    return table


def subtree_determinants(g: ResolutionGraph) -> dict[DirectedEdge, int]:
    """det of the component of g minus `parent` containing `child`.

    Keyed by (child, parent) for every directed edge, in the order of
    ``fill_edge_table``. Two passes over the cached ``g.rooted`` order.
    Leaves up, the entry D(u, p) toward the parent p is the subtree step
    b_u * prod D(c, u) - sum_c down(c) * prod_{c' != c} D(c', u) over the
    children c, where down(c) is the product of c's own child entries, kept
    from c's step. Root down, the entry D(u, x) away from a child x is read
    off the edge-determinant identity det = D(u, x) * D(x, u) -
    (F_u / D(x, u)) * down(x), F_u the product of all entries at u, as
    (det + down(x) * (F_u // D(x, u))) // D(x, u); where D(x, u) is 0,
    which a negative-definite graph never has, ``_subtree_step`` expands
    it. In all O(sum of degrees) big-int products plus two exact divisions
    per root-down entry. Splice weights, the determinant, definiteness and
    the linking and pairing matrices are all read from it;
    ``ResolutionGraph.subtree_dets`` caches it. Raises ValidationError when
    g is not a tree.
    """
    if g.ids and not is_tree(g):
        raise ValidationError("graph is not a tree")
    order, parent = g.rooted
    adj, weight = g.adjacency, dict(zip(g.ids, g.weights))
    up: dict[str, int] = {}  # D(u, parent of u); det at the root
    down: dict[str, int] = {}  # product of u's child entries
    for u in reversed(order):
        p = parent[u]
        below, cross = 1, 0
        for c in adj[u]:
            if c != p:
                cross = cross * up[c] + below * down[c]
                below *= up[c]
        down[u] = below
        up[u] = -weight[u] * below - cross
    det = up[order[0]] if order else 1
    table = {(u, parent[u]): up[u] for u in reversed(order[1:])}
    for u in order:
        p = parent[u]
        full = down[u] if p is None else down[u] * table[(p, u)]
        for x in adj[u]:
            if x != p:
                d = up[x]
                table[(u, x)] = (
                    (det + down[x] * (full // d)) // d if d else _subtree_step(g, table, u, x)
                )
    return table


def computation_sequence(
    g: ResolutionGraph, coeff: dict[str, int], pending: list[str]
) -> dict[str, int]:
    """Laufer's computation sequence on the support of coeff, in place: while
    a curve of the support meets the cycle positively, bump it until it no
    longer does. `pending` must hold every curve that may meet the start
    positively; after that only the neighbours of a bumped curve can, so
    they join the worklist. Started from an effective cycle at or below the
    fundamental cycle of a negative-definite support, it ends at that cycle
    whatever the order of bumps (Laufer, "On rational singularities", 1972).
    """
    adj = g.adjacency
    while pending:
        j = pending.pop()
        w = g.weight_of(j)
        excess = coeff[j] * w + sum(coeff.get(x, 0) for x in adj[j])
        if excess > 0:
            coeff[j] -= excess // w  # ceil(excess / -w) bumps, as w < 0
            pending.extend(x for x in adj[j] if x in coeff)
    return coeff


def _branch_cycle_step(
    g: ResolutionGraph, table: Mapping[DirectedEdge, Mapping[str, int]], u: str, p: str
) -> Mapping[str, int]:
    """Fundamental cycle of the component at u away from p, by the
    computation sequence started from E_u plus the cycles of the components
    beyond u. Restricted to one of those, the answer is effective and meets
    each of its curves non-positively, so it lies above that component's
    cycle: the start is at or below the answer. Only u and the neighbours of
    u can meet the start positively."""
    kids = [x for x in g.adjacency[u] if x != p]
    coeff = {u: 1}
    for x in kids:
        coeff.update(table[(x, u)])
    kids.append(u)
    return MappingProxyType(computation_sequence(g, coeff, kids))


def branch_cycle_table(g: ResolutionGraph) -> dict[DirectedEdge, Mapping[str, int]]:
    """Fundamental cycle of the component of g minus `parent` containing
    `child`, as read-only integer coefficients keyed by that component's
    vertices.

    Keyed by (child, parent) for every directed edge; ``fill_edge_table``
    with ``_branch_cycle_step``, leaves first. The entries hold the sum over
    directed edges of the component sizes, O(V^2) coefficients on a path
    or a caterpillar. ``ResolutionGraph.branch_cycles`` caches it. Raises
    NotNegativeDefinite, where a component may have no fundamental cycle.
    """
    if not g.negative_definite:
        raise NotNegativeDefinite("graph is not negative definite")
    return fill_edge_table(g, _branch_cycle_step)


def is_negative_definite(g: ResolutionGraph) -> bool:
    return g.negative_definite


def graph_determinant(g: ResolutionGraph) -> int:
    """det of the negated intersection matrix (the order of the cokernel).

    Raises NotNegativeDefinite when the intersection form is not
    negative definite.
    """
    if not g.negative_definite:
        raise NotNegativeDefinite("intersection form is not negative definite")
    return g.det


def fresh_id(base: str, taken: Iterable[str]) -> str:
    used = set(taken)
    if base not in used:
        return base
    k = 2
    while f"{base}{k}" in used:
        k += 1
    return f"{base}{k}"


def blow_up_edge(g: ResolutionGraph, edge: tuple[str, str]) -> ResolutionGraph:
    """Insert a fresh (-1)-vertex on the edge, decrementing both endpoints."""
    a, b = edge
    if not g.has_edge(a, b):
        raise UnknownEdge(f"({a}, {b})")
    new = fresh_id("b*", g.ids)
    ids = g.ids + (new,)
    weights = tuple(
        w - 1 if v in (a, b) else w for v, w in zip(g.ids, g.weights)
    ) + (-1,)
    pair = frozenset((a, b))
    edges = tuple(e for e in g.edges if frozenset(e) != pair) + ((a, new), (new, b))
    return ResolutionGraph(ids=ids, weights=weights, edges=edges)


def component_of(g: ResolutionGraph, removed: str, start: str) -> tuple[str, ...]:
    """Vertices of the component of g minus `removed` containing `start`.

    Result keeps the graph's vertex order.
    """
    if start == removed:
        raise ValueError("start vertex equals the removed vertex")
    seen = {start}
    stack = [start]
    while stack:
        for w in g.adjacency[stack.pop()]:
            if w != removed and w not in seen:
                seen.add(w)
                stack.append(w)
    return tuple(v for v in g.ids if v in seen)


def induced_subgraph(g: ResolutionGraph, keep: Iterable[str]) -> ResolutionGraph:
    keep_set = set(keep)
    return ResolutionGraph(
        ids=tuple(v for v in g.ids if v in keep_set),
        weights=tuple(w for v, w in zip(g.ids, g.weights) if v in keep_set),
        edges=tuple((a, b) for a, b in g.edges if a in keep_set and b in keep_set),
    )
