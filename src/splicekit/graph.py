"""Resolution graphs: vertex-weighted trees of exceptional curves."""

from __future__ import annotations

from functools import cached_property
from typing import Callable, Iterable, Mapping, NamedTuple

from . import linalg
from .errors import NotNegativeDefinite, UnknownEdge, UnknownVertex, ValidationError
from .frozen import Frozen

VertexKind = str  # "leaf" | "string" | "node"
DirectedEdge = tuple[str, str]


class IntTree(NamedTuple):
    """The integer view of a graph or splice diagram: vertex i is ids[i]."""

    nbrs: tuple[tuple[int, ...], ...]  # neighbours of each vertex, ascending
    order: tuple[int, ...]  # breadth first from vertex 0, over its component
    parent: tuple[int, ...]  # parent in that order; -1 at 0 and off the component


def walk_tree(nbrs, root: int) -> tuple[list[int], list[int]]:
    """Vertices reachable from root over the integer adjacency lists nbrs, in
    breadth-first order, and the parent of each vertex: -1 at root and at
    every vertex not reached."""
    order, parent = [root], [-1] * len(nbrs)
    parent[root] = root  # marks root as reached
    for u in order:
        for x in nbrs[u]:
            if parent[x] < 0:
                parent[x] = u
                order.append(x)
    parent[root] = -1
    return order, parent


def pack_tree(nbrs: list[list[int]]) -> IntTree:
    """The integer view of the adjacency lists nbrs, each sorted in place,
    with one ``walk_tree`` from vertex 0; empty when there are no vertices."""
    for ns in nbrs:
        ns.sort()
    order, parent = walk_tree(nbrs, 0) if nbrs else ([], [])
    return IntTree(tuple(map(tuple, nbrs)), tuple(order), tuple(parent))


def int_view(
    ids: tuple[str, ...], edges: tuple[tuple[str, str], ...]
) -> tuple[dict[str, int], IntTree]:
    """The position of each vertex in ids, and the integer view of the edges,
    for a graph or splice diagram: the adjacency lists come from one pass
    over the edges, then one ``walk_tree``. Raises ValidationError on a
    duplicate vertex id, then at the first bad edge: one to an unknown
    vertex, a self-loop, or a repeat of an earlier edge in either
    orientation."""
    index = {v: i for i, v in enumerate(ids)}
    if len(index) != len(ids):
        raise ValidationError("duplicate vertex id")
    n, get = len(ids), index.get
    nbrs: list[list[int]] = [[] for _ in ids]
    seen: set[int] = set()
    for a, b in edges:
        i, j = get(a), get(b)
        if i is None or j is None:
            raise ValidationError(f"edge ({a}, {b}) references unknown vertex")
        if i == j:
            raise ValidationError(f"self-loop at {a}")
        key = i * n + j if i < j else j * n + i
        if key in seen:
            raise ValidationError(f"duplicate edge ({a}, {b})")
        seen.add(key)
        nbrs[i].append(j)
        nbrs[j].append(i)
    return index, pack_tree(nbrs)


def vertex_adjacency(g) -> Mapping[str, tuple[str, ...]]:
    """Neighbours of each vertex in vertex order, for a graph or splice
    diagram, read off ``g.tree``. Cached on each instance as ``adjacency``."""
    ids = g.ids
    return {v: tuple(map(ids.__getitem__, ns)) for v, ns in zip(ids, g.tree.nbrs)}


class ResolutionGraph(Frozen):
    """A tree whose vertices carry self-intersection weights.

    Vertex order is the insertion order of the input and fixes the row order
    of every derived matrix, so minors and Smith transforms are
    reproducible. Instances are immutable; all operations on them are pure
    functions. Vertex i is ids[i] in ``index`` and in the integer view
    ``tree``: int adjacency lists, one breadth-first order from vertex 0 and
    its parent array. Both are built on construction, not on first use, by
    ``int_view``, which refuses a duplicate id, an edge to an unknown
    vertex, a self-loop or a duplicate edge. The tree test, both passes of
    the subtree determinants (leaves up, which gives the determinant and
    definiteness, and root down, on a negative-definite graph only) and the
    linking rows run on those arrays; everything else reads the passes
    through ``branch_det``, and ``adjacency`` and ``subtree_determinants``
    give views by vertex id. Each of these is cached on first use, and
    nothing else is: what the layers above derive from them, the splice
    diagram included, is kept by an ``analysis.Analysis``.
    """

    __slots__ = ("ids", "weights", "edges", "index", "tree", "__dict__")
    _fields = _compared = ("ids", "weights", "edges")
    ids: tuple[str, ...]
    weights: tuple[int, ...]
    edges: tuple[tuple[str, str], ...]
    index: Mapping[str, int]
    tree: IntTree

    def __init__(
        self,
        ids: tuple[str, ...],
        weights: tuple[int, ...],
        edges: tuple[tuple[str, str], ...],
    ) -> None:
        if len(ids) != len(weights):
            raise ValidationError("ids and weights differ in length")
        index, tree = int_view(ids, edges)
        self._init(ids=ids, weights=weights, edges=edges, index=index, tree=tree)

    @classmethod
    def build(
        cls,
        vertices: Iterable[tuple[str, int]],
        edges: Iterable[tuple[str, str]],
    ) -> "ResolutionGraph":
        ids, weights = tuple(zip(*vertices, strict=True)) or ((), ())
        return cls(ids=ids, weights=weights, edges=tuple(map(tuple, edges)))

    adjacency = cached_property(vertex_adjacency)

    @cached_property
    def _leaves_up(self) -> tuple[list[int], list[int]]:
        """The leaves-up pass over ``tree``, as (up, down) by vertex: up[u] is
        D(u, parent of u), the det of the subtree at u, and the det of the
        whole graph at vertex 0; down[u] is the product of u's child entries.
        The subtree step is b_u * prod D(c, u) - sum_c down(c) * prod_{c' !=
        c} D(c', u) over the children c, one pass keeping the product so far
        and the cross sum so far. Raises ValidationError when the graph is
        not a tree."""
        if self.ids and not is_tree(self):
            raise ValidationError("graph is not a tree")
        nbrs, order, parent = self.tree
        weights, up, down = self.weights, [0] * len(order), [1] * len(order)
        for u in reversed(order):
            p = parent[u]
            below, cross = 1, 0
            for c in nbrs[u]:
                if c != p:
                    d = up[c]
                    cross = cross * d + below * down[c]
                    below *= d
            down[u] = below
            up[u] = -weights[u] * below - cross
        return up, down

    @cached_property
    def _rev(self) -> list[int]:
        """The root-down pass over ``tree``: rev[x] is D(parent of x, x), the
        det of the component of the parent once x is cut off, and 1 at
        vertex 0, so down[u] * rev[u] is F_u, the product of all entries at
        u. It is read off the edge-determinant identity det = D(u, x) *
        D(x, u) - (F_u / D(x, u)) * down(x), for x a child of u, as (det +
        down(x) * (F_u // D(x, u))) // D(x, u): two exact divisions, as
        every D(x, u) is positive. Raises ValidationError when the graph is
        not a tree, and NotNegativeDefinite when it is indefinite."""
        require_negative_definite(self)
        up, down = self._leaves_up
        nbrs, order, parent = self.tree
        det, rev = self.det, [1] * len(order)
        for u in order:
            p, full = parent[u], down[u] * rev[u]
            for x in nbrs[u]:
                if x == p:
                    continue
                d = up[x]
                rev[x] = (det + down[x] * (full // d)) // d
        return rev

    @cached_property
    def branch_det(self) -> Callable[[int, int], int]:
        """D(x, p) by vertex index, for neighbours x and p in ``tree``: the
        det of the component of the graph minus p holding x, x's leaves-up
        entry when p is x's parent, else p's root-down entry, with the arrays
        bound once. Raises ValidationError or NotNegativeDefinite unless the
        graph is a negative-definite tree."""
        parent, up, rev = self.tree.parent, self._leaves_up[0], self._rev
        return lambda x, p: up[x] if parent[x] == p else rev[p]

    @cached_property
    def det(self) -> int:
        """det of the negated intersection matrix: the value at vertex 0 of
        the leaves-up pass; 1 on the empty graph. No definiteness gate.
        Raises ValidationError when the graph is not a tree."""
        return self._leaves_up[0][0] if self.ids else 1

    @cached_property
    def negative_definite(self) -> bool:
        """Rooted at vertex 0 and read leaves first, each leading principal
        minor of the negated form is a product of subtree determinants
        D(u, parent of u), each itself a principal minor; so the form is
        negative definite exactly when all of them and the root value, the
        whole leaves-up pass, are positive. Raises ValidationError when the
        graph is not a tree."""
        return all(d > 0 for d in self._leaves_up[0])

    def linking_row(self, v: str) -> tuple[int, ...]:
        """Linking numbers of v with every vertex, in vertex order, walked on
        each call. The entry at v is F_v, the product of all weights at v;
        a step from u to a neighbour x divides out the weight at u toward x,
        D(x, u), and multiplies in F_x / D(u, x). The walk steps from v up to
        vertex 0, to each parent p of u multiplying in (down[p] * rev[p]) //
        up[u], and then reaches every other vertex from its parent along the
        order of ``tree``, multiplying in down[x]. Both divisions are exact.
        Raises UnknownVertex, and NotNegativeDefinite, where some weight may
        be zero.
        """
        i = self.index.get(v)
        if i is None:
            raise UnknownVertex(v)
        require_negative_definite(self)
        _, order, parent = self.tree
        (up, down), rev = self._leaves_up, self._rev
        walk = [0] * len(up)
        walk[i] = down[i] * rev[i]
        path, u = {i}, i
        while parent[u] >= 0:
            p = parent[u]
            walk[p] = walk[u] // rev[u] * (down[p] * rev[p] // up[u])
            path.add(p)
            u = p
        for x in order:
            if x not in path:
                walk[x] = walk[parent[x]] // up[x] * down[x]
        return tuple(walk)

    def weight_of(self, v: str) -> int:
        try:
            return self.weights[self.index[v]]
        except KeyError:
            raise UnknownVertex(v) from None

    def degree(self, v: str) -> int:
        try:
            return len(self.tree.nbrs[self.index[v]])
        except KeyError:
            raise UnknownVertex(v) from None

    def has_edge(self, a: str, b: str) -> bool:
        return b in self.adjacency.get(a, ())


def is_tree(g: ResolutionGraph) -> bool:
    n = len(g.ids)
    return n > 0 and len(g.edges) == n - 1 and len(g.tree.order) == n


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


def nodes_of(g) -> tuple[str, ...]:
    return tuple(v for v, ns in zip(g.ids, g.tree.nbrs) if len(ns) >= 3)


def leaves_of(g) -> tuple[str, ...]:
    return tuple(v for v, ns in zip(g.ids, g.tree.nbrs) if len(ns) <= 1)


def is_quasi_minimal(g: ResolutionGraph) -> bool:
    """No string contains a (-1)-vertex unless it is exactly one (-1)-vertex.
    A (-1)-curve of valency <= 2 lies in a string of two or more curves
    exactly when it has a neighbour of valency <= 2."""
    nbrs = g.tree.nbrs
    return not any(
        w == -1 and len(ns) <= 2 and any(len(nbrs[x]) <= 2 for x in ns)
        for w, ns in zip(g.weights, nbrs)
    )


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


def edge_order(tree: IntTree) -> list[tuple[int, int]]:
    """Every directed edge (child, parent) of a tree by vertex index: first
    toward vertex 0, leaves up, then away from it, root down, neighbours in
    vertex order. Each entry's edges (x, child), x != parent, come before it,
    so a per-edge table filled in this order may read the entries beyond each
    edge: ``subtree_determinants``, the ideal generators of ``splice`` and the
    branch tables of ``cycles`` are."""
    nbrs, order, parent = tree
    edges = [(u, parent[u]) for u in reversed(order[1:])]
    return edges + [(u, x) for u in order for x in nbrs[u] if x != parent[u]]


def subtree_determinants(g: ResolutionGraph) -> dict[DirectedEdge, int]:
    """det of the component of g minus `parent` containing `child`.

    Keyed by (child, parent) for every directed edge, in ``edge_order``:
    the entries toward vertex 0, leaves first, then those away from it,
    root first. A view by vertex id of ``ResolutionGraph.branch_det``, which
    the library reads by vertex index, for callers and tests that want
    every entry by vertex id. Raises ValidationError or NotNegativeDefinite
    unless g is a negative-definite tree.
    """
    ids, det = g.ids, g.branch_det
    return {(ids[x], ids[p]): det(x, p) for x, p in edge_order(g.tree)}


def is_negative_definite(g: ResolutionGraph) -> bool:
    return g.negative_definite


def require_negative_definite(g: ResolutionGraph) -> None:
    """The one definiteness gate, and its one NotNegativeDefinite message."""
    if not g.negative_definite:
        raise NotNegativeDefinite("graph is not negative definite")


def graph_determinant(g: ResolutionGraph) -> int:
    """det of the negated intersection matrix (the order of the cokernel).

    Raises NotNegativeDefinite when the intersection form is not
    negative definite.
    """
    require_negative_definite(g)
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

    Result keeps the graph's vertex order. One ``walk_tree`` from start over
    ``g.tree``, with no neighbours listed at `removed`: it is reached but
    never left, and then dropped. A `removed` vertex g lacks cuts nothing.
    Raises UnknownVertex for an unknown start.
    """
    if start == removed:
        raise ValueError("start vertex equals the removed vertex")
    root = g.index.get(start)
    if root is None:
        raise UnknownVertex(start)
    nbrs, cut = list(g.tree.nbrs), g.index.get(removed)
    if cut is not None:
        nbrs[cut] = ()
    order, _ = walk_tree(nbrs, root)
    return tuple(g.ids[i] for i in sorted(order) if i != cut)


def induced_subgraph(g: ResolutionGraph, keep: Iterable[str]) -> ResolutionGraph:
    """The curves in `keep` and the edges between them, in the order of g.
    Raises UnknownVertex."""
    keep_set = set(keep)
    if not keep_set <= g.index.keys():
        raise UnknownVertex(min(keep_set - g.index.keys()))
    return ResolutionGraph(
        ids=tuple(v for v in g.ids if v in keep_set),
        weights=tuple(w for v, w in zip(g.ids, g.weights) if v in keep_set),
        edges=tuple((a, b) for a, b in g.edges if a in keep_set and b in keep_set),
    )
