"""Reference routes that the production routes are checked against.

The library reads definiteness from its subtree-determinant table; these
apply Sylvester's criterion to the matrix itself. It checks the
discriminant group from the Smith diagonal of the leaf block and the lemma
that every drop-one index is 1 on a tree; ``_span_check`` reads the
drop-one indices of any symmetric block off the left transform of its
Smith normal form, ``enumerated_group_check`` lists the elements, and
``full_group_character_oracle`` tests witnesses against every element, not
only the leaf generators. It fills the ideal generators in one table by
vertex index over ``edge_order``; ``ideal_generator_recursive`` recurses
per edge. It finds fundamental cycles with a worklist;
``fundamental_cycle_rescan`` rescans the whole set after every bump. The invariant factors come from the leaf block;
``invariant_factors_full`` takes the n-by-n Smith form of -A. The Smith
form is built by Bezout steps; ``smith_normal_form_rescan`` rescans the
whole block for the smallest pivot on every round. The
monomial cycle is built on integral cycles; ``construct_monomial_cycle_rational``
keeps the whole rational cycle. Non-negative solutions are listed with an
explicit stack; ``iter_nonnegative_solutions_recursive`` recurses per value.
The subtree-determinant table reads its root-down entries off the
edge-determinant identity, on negative-definite trees only, and the library
reads every entry through ``ResolutionGraph.branch_det``;
``subtree_determinants_direct`` expands every entry along its vertex's row
by vertex id, re-reading the grandchild entries, on any tree. It and
``branch_cycle_table`` are filled by ``fill_edge_table``, one step per
directed edge by vertex id, leaves first.
The reduced and maximal splice diagrams and the edge equations are read
off the integer tree; ``reduced_diagram_by_id``, ``maximal_weights_by_id``
and ``edge_equations_by_id`` build them by vertex id from
``subtree_determinants``, ``classify_vertices`` and
``linking_numbers_by_path``. A component is one integer walk that never
leaves the removed vertex; ``component_by_search`` searches depth first
over ``adjacency``. Quasi-minimality is read off the valencies of the
(-1)-curves and their neighbours; ``maximal_strings`` lists the strings
themselves. Paths and linking numbers read the one cached
walk from v, its parent array and its reduced numbers; ``path_by_search``
searches depth first over ``adjacency``, and ``linking_numbers_by_path``
multiplies along its path.
The fundamental cycles of branches are kept as their excess over the
reduced cycle, by vertex index, only once some branch is not reduced;
``branch_cycle_table`` keeps every whole cycle by vertex id, on every
directed edge, with ``computation_sequence`` by vertex id. The monomial
cycle is one sweep over int arrays that chooses sub-branches by a
divisibility test; ``greedy_monomial`` reads whole branch cycles from that
table and tests every curve of each sub-branch.
A branch where the greedy monomial cycle fails is decided by the congruence
search of one diagram edge; ``search_monomial_cycle`` tests the cycle of
each vector on every curve. Congruences are checked on integers mod det;
``congruence_equalities_rational`` compares the characters as fractions.
The congruence table is read off the leaves' linking rows alone, as integer
rows; ``congruence_table_by_name`` reads its targets off the node's row and
keeps every row as a name-keyed ``LeafCongruence``.
``random_tree`` draws seeded trees with weights from a given list,
``arithmetic_genus`` is p_a of the fundamental cycle, 0 exactly on
rational graphs, and ``canonical_cycle`` is Z_K. ``matmul``,
``negated_intersection_matrix``, ``cycle_pairing`` (a cycle met with a
curve, as a Fraction), ``is_integral``, ``as_int_dict`` (an integral cycle
as ints), ``equation_count`` (of an equation system) and ``element_order``
(of an element of (Q/Z)^t) serve the tests alone.
"""

import random
from fractions import Fraction
from types import MappingProxyType
from math import gcd, lcm, prod
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from splicekit.conditions import (
    LeafCongruence,
    SearchBudget,
    check_congruence,
    iter_nonnegative_solutions,
)
from splicekit.cycles import (
    MonomialCycleResult,
    QCycle,
    _branch_of,
    cycle_add,
    dual_cycle,
    fundamental_cycle,
)
from splicekit.discriminant import (
    DiscriminantGroup,
    GroupCheck,
    character_of_monomial,
    leaf_generators,
    pairing_matrix,
    qmod1,
)
from splicekit.equations import SpliceEquationSystem
from splicekit.errors import SameVertex, UnknownEdge, UnknownVertex
from splicekit.graph import (
    ResolutionGraph,
    classify_vertices,
    component_of,
    edge_order,
    graph_determinant,
    intersection_matrix,
    leaves_of,
    nodes_of,
    require_negative_definite,
    subtree_determinants,
    walk_tree,
)
from splicekit.linalg import (
    IntMatrix,
    SmithDecomposition,
    determinant,
    identity_matrix,
    smith_normal_form,
)
from splicekit.splice import SpliceDiagram, linking_matrix, splice_from_resolution


def matmul(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> IntMatrix:
    n, k, m = len(a), len(b), len(b[0]) if b else 0
    out = [[0] * m for _ in range(n)]
    for i in range(n):
        row = a[i]
        acc = out[i]
        for t in range(k):
            x = row[t]
            if x:
                brow = b[t]
                for j in range(m):
                    acc[j] += x * brow[j]
    return out


def negated_intersection_matrix(g: ResolutionGraph) -> IntMatrix:
    return [[-x for x in row] for row in intersection_matrix(g)]


def cycle_pairing(g: ResolutionGraph, cycle: QCycle | Mapping[str, Fraction], v: str) -> Fraction:
    """Intersection number of the cycle with the curve at v."""
    coeff = cycle.coefficients if isinstance(cycle, QCycle) else cycle
    return Fraction(coeff.get(v, 0) * g.weight_of(v) + sum(coeff.get(u, 0) for u in g.adjacency[v]))


def is_integral(cycle: QCycle) -> bool:
    return all(c.denominator == 1 for c in cycle.coefficients.values())


def as_int_dict(cycle: QCycle) -> dict[str, int]:
    """The non-zero coefficients of an integral cycle as ints; raises
    ValueError on a cycle that is not integral."""
    if not is_integral(cycle):
        raise ValueError("cycle is not integral")
    return {v: int(c) for v, c in cycle.coefficients.items() if c}


def random_tree(rng: random.Random, size: int, weights: Sequence[int]) -> ResolutionGraph:
    """A tree on v0..v{size-1}, each vertex after v0 joined to an earlier
    one drawn uniformly, each weight drawn from `weights`; it need not be
    negative definite."""
    parents = [rng.randrange(j) for j in range(1, size)]
    vertices = [(f"v{i}", rng.choice(weights)) for i in range(size)]
    edges = [(f"v{p}", f"v{j}") for j, p in enumerate(parents, start=1)]
    return ResolutionGraph.build(vertices=vertices, edges=edges)


def arithmetic_genus(g: ResolutionGraph) -> int:
    """p_a(Z) = 1 + (Z.Z + K.Z) / 2 of the fundamental cycle Z of a
    negative-definite graph, with K.E_j = -w_j - 2 (adjunction). The graph
    is rational exactly when this is 0 (Artin, 1966)."""
    z = as_int_dict(fundamental_cycle(g, g.ids))
    zz = sum(
        z[v] * (z[v] * w + sum(z[u] for u in g.adjacency[v])) for v, w in zip(g.ids, g.weights)
    )
    kz = sum((-w - 2) * z[v] for v, w in zip(g.ids, g.weights))
    return 1 + (zz + kz) // 2


def canonical_cycle(g: ResolutionGraph) -> QCycle:
    """Z_K of a negative-definite graph: the rational cycle with Z_K.E_j =
    w_j + 2 on every curve j (adjunction, K = -Z_K), that is -sum_j (w_j + 2)
    L[j] / det over the linking rows, each row det times a dual cycle."""
    coeff = [0] * len(g.ids)
    for v, w in zip(g.ids, g.weights):
        if w != -2:
            for i, x in enumerate(g.linking_row(v)):
                coeff[i] -= (w + 2) * x
    return QCycle({v: Fraction(c, g.det) for v, c in zip(g.ids, coeff) if c})


def equation_count(system: SpliceEquationSystem) -> int:
    """The number of equations of a system, over all its node blocks."""
    return sum(len(b.coefficients) for b in system.blocks)


def element_order(element: Sequence[Fraction]) -> int:
    """Order in (Q/Z)^t: lcm of the entry denominators."""
    return lcm(*(q.denominator for q in element)) if element else 1


def component_by_search(g: ResolutionGraph, removed: str, start: str) -> tuple[str, ...]:
    """``component_of`` by a depth-first search from start over ``adjacency``
    that never steps onto `removed`."""
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


def maximal_strings(g: ResolutionGraph) -> tuple[tuple[str, ...], ...]:
    """Connected components of the graph minus its nodes, by a depth-first
    search over ``adjacency`` from each vertex not yet seen."""
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


def leading_principal_minors(matrix: Sequence[Sequence[int]]) -> list[int]:
    """Determinants of the k-by-k top-left blocks, k = 1..n."""
    n = len(matrix)
    return [determinant([row[:k] for row in matrix[:k]]) for k in range(1, n + 1)]


def is_negative_definite_matrix(matrix: Sequence[Sequence[int]]) -> bool:
    """Sign test: the k-th leading principal minor must have sign (-1)^k."""
    for k, minor in enumerate(leading_principal_minors(matrix), start=1):
        if k % 2 == 1 and minor >= 0:
            return False
        if k % 2 == 0 and minor <= 0:
            return False
    return True


def fill_edge_table(g, step: Callable[..., int]) -> dict[tuple[str, str], int]:
    """table[(child, parent)] = step(g, table, child, parent) on every
    directed edge of a tree (resolution graph or splice diagram) by vertex
    id, in ``edge_order``, so each step may read the entries (x, child), x
    != parent, and without recursion."""
    ids = g.ids
    table: dict[tuple[str, str], int] = {}
    for u, x in edge_order(g.tree):
        a, b = ids[u], ids[x]
        table[(a, b)] = step(g, table, a, b)
    return table


def _subtree_step(
    g: ResolutionGraph, table: Mapping[tuple[str, str], int], u: str, p: str
) -> int:
    """det of the subtree at u away from p, by expanding along u's row by
    vertex id: b_u times the product of the child values, minus, for each
    child w, the other child values times the product of w's own child
    values. One pass over the children keeps the product of the values so
    far and the sum of the cross terms so far."""
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


def subtree_determinants_direct(g: ResolutionGraph) -> dict[tuple[str, str], int]:
    """The subtree-determinant table of a tree, every entry by
    ``_subtree_step`` in the order of ``fill_edge_table``."""
    return fill_edge_table(g, _subtree_step)


def dot(g: ResolutionGraph, coeff: Mapping[str, int], j: str) -> int:
    """Intersection number of a cycle, by its integer coefficients, with the
    curve at j."""
    return coeff.get(j, 0) * g.weight_of(j) + sum(coeff.get(u, 0) for u in g.adjacency[j])


def bfs_tree(g: ResolutionGraph, root: str) -> tuple[list[str], dict[str, str | None]]:
    """Vertices reachable from root in breadth-first order, with parents:
    ``walk_tree`` over ``g.tree`` by vertex id."""
    ids = g.ids
    order, parent = walk_tree(g.tree.nbrs, g.index[root])
    names = [ids[i] for i in order]
    return names, {v: ids[parent[i]] if parent[i] >= 0 else None for v, i in zip(names, order)}


def computation_sequence(
    g: ResolutionGraph, coeff: dict[str, int], pending: list[str]
) -> dict[str, int]:
    """Laufer's computation sequence on the support of coeff, by vertex id, in
    place: while a curve of the support meets the cycle positively, bump it
    until it no longer does. `pending` must hold every curve that may meet
    the start positively; after that only the neighbours of a bumped curve
    can, so they join the worklist."""
    while pending:
        j = pending.pop()
        excess = dot(g, coeff, j)
        if excess > 0:
            coeff[j] -= excess // g.weight_of(j)  # ceil(excess / -w) bumps, as w < 0
            pending.extend(x for x in g.adjacency[j] if x in coeff)
    return coeff


def _branch_cycle_step(
    g: ResolutionGraph, table: Mapping[tuple[str, str], Mapping[str, int]], u: str, p: str
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


def branch_cycle_table(g: ResolutionGraph) -> Mapping[tuple[str, str], Mapping[str, int]]:
    """Read-only fundamental cycle of the component of g minus `parent`
    containing `child`, keyed by (child, parent) for every directed edge:
    ``fill_edge_table`` with ``_branch_cycle_step``, leaves first, O(V^2)
    coefficients on a path or a caterpillar. Raises NotNegativeDefinite."""
    require_negative_definite(g)
    return MappingProxyType(fill_edge_table(g, _branch_cycle_step))


def _walk_string(
    g: ResolutionGraph, kinds: Mapping[str, str], start: str, first: str
) -> tuple[str, tuple[str, ...]]:
    """Follow valency-2 vertices from `start` through `first` until a
    leaf or node; returns (terminal, interior vertices in walk order)."""
    interior: list[str] = []
    prev, cur = start, first
    while kinds[cur] == "string":
        interior.append(cur)
        nxt = [x for x in g.adjacency[cur] if x != prev]
        prev, cur = cur, nxt[0]
    return cur, tuple(interior)


def reduced_diagram_by_id(g: ResolutionGraph) -> SpliceDiagram:
    """The reduced splice diagram by vertex id: the vertices that
    ``classify_vertices`` does not call strings, a walk through each string
    over ``adjacency``, node weights from ``subtree_determinants``, and
    edges and weights sorted by position in the kept vertices."""
    kinds = classify_vertices(g)
    keep = tuple(v for v in g.ids if kinds[v] != "string")
    dets = subtree_determinants(g)
    edges: list[tuple[str, str]] = []
    seen: set[frozenset[str]] = set()
    weights: dict[tuple[str, str], int] = {}
    strings: dict[tuple[str, str], tuple[str, ...]] = {}
    for v in keep:
        for u in g.adjacency[v]:
            terminal, interior = _walk_string(g, kinds, v, u)
            if frozenset((v, terminal)) not in seen:
                seen.add(frozenset((v, terminal)))
                edges.append((v, terminal))
            strings[(v, terminal)] = interior
            if kinds[v] == "node":
                weights[(v, terminal)] = dets[(u, v)]
    order = {v: i for i, v in enumerate(keep)}
    rank = lambda e: (order[e[0]], order[e[1]])  # noqa: E731
    return SpliceDiagram(
        ids=keep,
        edges=tuple(sorted(edges, key=rank)),
        weights={e: weights[e] for e in sorted(weights, key=rank)},
        strings=strings,
    )


def maximal_weights_by_id(g: ResolutionGraph) -> list[tuple[tuple[str, str], int]]:
    """((at, toward), weight) on both ends of every edge, from
    ``subtree_determinants``, sorted by vertex order."""
    idx = g.index
    return sorted(
        (((v, u), w) for (u, v), w in subtree_determinants(g).items()),
        key=lambda t: (idx[t[0][0]], idx[t[0][1]]),
    )


def subtree_leaves_by_id(d: SpliceDiagram, v: str, toward: str) -> tuple[str, ...]:
    """Leaves of the piece of the diagram cut off from v by the edge toward
    `toward` (including `toward` itself when it is a leaf), in vertex order,
    by a search over ``adjacency``."""
    if toward not in d.adjacency.get(v, ()):
        raise UnknownEdge(f"({v}, {toward})")
    seen, stack = {toward}, [toward]
    while stack:
        for x in d.adjacency[stack.pop()]:
            if x != v and x not in seen:
                seen.add(x)
                stack.append(x)
    return tuple(w for w in d.ids if w in seen and d.is_leaf(w))


def path_by_search(d: SpliceDiagram, v: str, w: str) -> tuple[str, ...]:
    """The vertices from v to w, by a depth-first search from v over
    ``adjacency`` that records each vertex's parent until it meets w."""
    if v not in d.index or w not in d.index:
        raise UnknownVertex(f"{v!r} or {w!r}")
    parent: dict[str, str | None] = {v: None}
    stack = [v]
    while stack and w not in parent:
        u = stack.pop()
        for x in d.adjacency[u]:
            if x not in parent:
                parent[x] = u
                stack.append(x)
    path = [w]
    while path[-1] != v:
        path.append(parent[path[-1]])  # type: ignore[arg-type]
    return tuple(reversed(path))


def linking_numbers_by_path(d: SpliceDiagram, v: str, w: str) -> tuple[int, int]:
    """(full, reduced) by ``path_by_search``: at each vertex u of the path,
    the weights at u toward neighbours off the path, each missing weight
    skipped; the reduced value leaves out those at v and w."""
    if v == w:
        raise SameVertex(v)
    path = path_by_search(d, v, w)
    full = reduced = 1
    for i, u in enumerate(path):
        on_path = {path[i - 1] if i else None, path[i + 1] if i + 1 < len(path) else None}
        for x in d.adjacency[u]:
            wt = d.weights.get((u, x))
            if x in on_path or wt is None:
                continue
            full *= wt
            if u not in (v, w):
                reduced *= wt
    return full, reduced


def edge_equations_by_id(
    d: SpliceDiagram, v: str
) -> dict[str, tuple[tuple[str, ...], tuple[int, ...]]]:
    """For each neighbour u of v, ``subtree_leaves_by_id`` with
    ``linking_numbers_by_path(d, v, w)[1]`` for each leaf w, one path search
    per leaf."""
    out = {}
    for u in d.adjacency[v]:
        leaves = subtree_leaves_by_id(d, v, u)
        out[u] = (leaves, tuple(linking_numbers_by_path(d, v, w)[1] for w in leaves))
    return out


def drop_one_indices(rows: Sequence[Sequence[int]], d: int) -> tuple[list[int], list[int]]:
    """(e, m) for the span H in (Z/d)^t of the rows of a symmetric t-by-t
    integer matrix G, from one Smith normal form U*G*V = diag(s) taken
    mod d (U stays invertible mod d, so nothing below changes):

    - with e_i = d / gcd(s_i, d), |H| = prod(e_i), H is the sum of cyclic
      groups of orders e_i, and the rows e_i*U_i span the relations
      c*G = 0 mod d (c = c'*U with e_i | c'_i);
    - the gcd m_j of d and the j-th entries of those rows is the index in
      H of the span without row j.
    """
    snf = smith_normal_form(rows, modulus=d)
    steps = [d // gcd(s, d) for s in snf.diagonal]
    indices = [
        gcd(d, *(e * row[j] for e, row in zip(steps, snf.left))) for j in range(len(rows))
    ]
    return steps, indices


def _span_check(rows: Sequence[Sequence[int]], d: int) -> GroupCheck:
    """The group checks on any symmetric block, from its drop-one indices:
    drop-one holds when every |H| = d * m_j, and forgetting coordinate j
    maps H onto the span of the columns of G but j, of order |H| / m_j as
    G is symmetric, with kernel the elements non-zero only at j (no
    pseudo-reflection: every m_j = 1). Both hold vacuously for t < 2."""
    steps, indices = drop_one_indices(rows, d)
    spanned, several = prod(steps), len(rows) >= 2
    return GroupCheck(
        order=d,
        enumerated_order=spanned,
        order_ok=spanned == d,
        drop_one_ok=not several or all(spanned == d * m for m in indices),
        no_pseudo_reflections=not several or all(m == 1 for m in indices),
        invariant_factors=tuple(sorted(e for e in steps if e > 1)),
    )


def enumerated_group_check(group: DiscriminantGroup) -> GroupCheck:
    """The three discriminant-group checks by listing elements: the span of
    all generators, the span without each one in turn (two or more
    leaves), and a scan of every element for a single non-zero entry."""
    elements = group.enumerate_elements()
    several = len(group.leaves) >= 2
    drop_one_ok = not several or all(
        len(group.enumerate_elements(generators=[w for w in group.leaves if w != skip]))
        == group.order
        for skip in group.leaves
    )
    no_pseudo = not several or all(
        sum(1 for x in el if x) != 1 for el in elements
    )
    return GroupCheck(
        order=group.order,
        enumerated_order=len(elements),
        order_ok=len(elements) == group.order,
        drop_one_ok=drop_one_ok,
        no_pseudo_reflections=no_pseudo,
    )


def ideal_generator_recursive(d: SpliceDiagram, v: str, toward: str) -> int:
    """Leaf-upward gcd recursion for one edge: a leaf contributes 1, and a
    node contributes the gcd over its outward edges of (generator there
    times the product of the weights on its other outward edges)."""
    if toward not in d.adjacency.get(v, ()):
        raise UnknownEdge(f"({v}, {toward})")
    if d.is_leaf(toward):
        return 1
    others = [x for x in d.adjacency[toward] if x != v]
    acc = 0
    for x in others:
        sub = ideal_generator_recursive(d, toward, x)
        skip = prod(d.weights[(toward, y)] for y in others if y != x)
        acc = gcd(acc, sub * skip)
    return acc


def full_group_character_oracle(
    g: ResolutionGraph, cap: int | None = None
) -> bool | None:
    """Stronger check over every group element, for small determinants:
    all chosen witnesses at a node must transform identically under the
    whole group, not just the leaf generators. Returns None when the
    per-generator search already fails."""
    report = check_congruence(g)
    if not report.ok:
        return None
    group = leaf_generators(g)
    elements = group.enumerate_elements(cap)
    det = group.order
    by_node: dict[str, list[Mapping[str, int]]] = {}
    for e in report.edges:
        assert e.witness is not None
        by_node.setdefault(e.node, []).append(e.witness.as_dict())
    order = group.leaves
    for node_witnesses in by_node.values():
        for el in elements:
            chars = set()
            for alpha in node_witnesses:
                val = -sum(s * alpha.get(w, 0) for w, s in zip(order, el)) % det
                chars.add(val)
            if len(chars) > 1:
                return False
    return True


def fundamental_cycle_rescan(g: ResolutionGraph, subset: Iterable[str]) -> QCycle:
    """Laufer's computation sequence, rescanning the set in vertex order
    after every bump and bumping the first curve met positively."""
    inside = set(subset)
    coeff = {v: 1 for v in g.ids if v in inside}

    def dot(j: str) -> int:
        return coeff[j] * g.weight_of(j) + sum(coeff.get(u, 0) for u in g.adjacency[j])

    while True:
        for j in coeff:
            if dot(j) > 0:
                coeff[j] += 1
                break
        else:
            return QCycle({v: Fraction(c) for v, c in coeff.items()})


def smith_normal_form_rescan(
    matrix: Sequence[Sequence[int]], modulus: int | None = None
) -> SmithDecomposition:
    """Smith normal form by smallest-magnitude pivots: every round rescans
    the whole remaining block for the non-zero entry of least absolute
    value, reduces its row and column by floor division, and pulls in an
    entry the pivot does not divide. The contract is that of
    ``linalg.smith_normal_form``; with a modulus, entries, steps and both
    transforms are reduced mod N."""
    a = [list(row) for row in matrix]
    if modulus:
        a = [[x % modulus for x in row] for row in a]
    n = len(a)
    m = len(a[0]) if n else 0
    left = identity_matrix(n)
    right = identity_matrix(m)

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        left[i], left[j] = left[j], left[i]

    def swap_cols(i, j):
        for row in a + right:
            row[i], row[j] = row[j], row[i]

    def add_row(src, dst, q):
        # row_dst += q * row_src
        for mat in (a, left):
            row = [x + q * y for x, y in zip(mat[dst], mat[src])]
            mat[dst] = [x % modulus for x in row] if modulus else row

    def add_col(src, dst, q):
        for row in a + right:
            row[dst] += q * row[src]
            if modulus:
                row[dst] %= modulus

    for k in range(min(n, m)):
        while True:
            best = None
            for i in range(k, n):
                for j in range(k, m):
                    v = abs(a[i][j])
                    if v and (best is None or v < best[0]):
                        best = (v, i, j)
            if best is None:
                break
            _, pi, pj = best
            if pi != k:
                swap_rows(k, pi)
            if pj != k:
                swap_cols(k, pj)
            pivot = a[k][k]
            dirty = False
            for i in range(k + 1, n):
                if a[i][k]:
                    q = a[i][k] // pivot
                    if q:
                        add_row(k, i, -q)
                    if a[i][k]:
                        dirty = True
            for j in range(k + 1, m):
                if a[k][j]:
                    q = a[k][j] // pivot
                    if q:
                        add_col(k, j, -q)
                    if a[k][j]:
                        dirty = True
            if dirty:
                continue
            offender = next(
                (i for i in range(k + 1, n) for j in range(k + 1, m) if a[i][j] % pivot),
                None,
            )
            if offender is None:
                break
            add_row(offender, k, 1)
        if a[k][k] < 0:
            a[k] = [-x for x in a[k]]
            left[k] = [-x for x in left[k]]

    return SmithDecomposition(
        diagonal=tuple(a[k][k] for k in range(min(n, m))),
        left=tuple(tuple(row) for row in left),
        right=tuple(tuple(row) for row in right),
    )


def invariant_factors_full(g: ResolutionGraph) -> list[int]:
    """Diagonal of the n-by-n integer Smith form of -A, by the rescanning
    pivot search."""
    return list(smith_normal_form_rescan(negated_intersection_matrix(g)).diagonal)


def greedy_monomial(
    g: ResolutionGraph,
    v: str,
    attach: str,
    table: Mapping[tuple[str, str], Mapping[str, int]],
) -> MonomialCycleResult:
    """The greedy monomial cycle on the branch of v at attach by vertex id,
    every branch cycle read from ``table`` (``branch_cycle_table(g)``), with
    cycle None: one breadth-first pass from v over ``bfs_tree``.

    A step at j adds -(W.E_j) times the cycle Z_S of a sub-branch S beyond
    j, the first in vertex order holding a curve met negatively, else the
    first. Z_S meets E_j at least once, so j is then met non-negatively;
    only the pairings on S, all farther from v, change. A curve's pairing
    thus moves only when it or an ancestor is stepped: one pass in
    breadth-first order steps the curves that "nearest first" would, each
    once, with the same sub-branch choices (steps at one distance touch
    disjoint sub-branches, so they commute). Every pairing of the final W
    is read with ``dot``."""
    order, parent = bfs_tree(g, v)
    leaf_set = set(leaves_of(g))
    excess = dict(table[(attach, v)])  # W; v is not in the branch
    pairs = {j: dot(g, excess, j) for j in excess}
    iterations = 0
    for j in order:
        if j not in excess or j in leaf_set or pairs[j] >= 0:
            continue
        iterations += 1
        top = min(
            (x for x in g.adjacency[j] if x != parent[j]),
            key=lambda x: (all(pairs[k] >= 0 for k in table[(x, j)]), g.index[x]),
        )
        sub, scale = table[(top, j)], -pairs[j]
        for k, c in sub.items():
            excess[k] += scale * c
        for k in sub:
            pairs[k] = dot(g, excess, k)
    curves = sorted([v, *excess], key=g.index.__getitem__)
    meet = {j: dot(g, excess, j) - (j == v) for j in curves}  # (dual(v) + W).E_j
    nonzero = [j for j in curves if j not in leaf_set and meet[j]]
    negative = [k for k in curves if k in leaf_set and meet[k] > 0]
    problems = [f"nonzero pairing with non-leaf curve {j}" for j in nonzero[:1]]
    problems += [f"leaf exponent at {k} is not a non-negative integer" for k in negative[:1]]
    exponents = tuple((k, -meet[k]) for k in curves if k in leaf_set and k != v)
    return MonomialCycleResult(
        ok=not problems, node=v, attach=attach, cycle=None,
        exponents=() if problems else exponents, iterations=iterations,
        reason="; ".join(problems) or None,
    )


def construct_monomial_cycle_rational(
    g: ResolutionGraph, v: str, branch: Sequence[str], stepped: list[str] | None = None
) -> MonomialCycleResult:
    """The greedy monomial-cycle construction over Fractions, re-ranking
    the curves still met negatively before every step and stepping the
    nearest (fewest vertices from the node, then vertex order): the whole
    rational cycle dual(v) + W is kept, and every pairing and the final
    checks are read from it with ``cycle_pairing``. Each stepped curve is
    appended to ``stepped`` when it is given."""
    attach = _branch_of(g, v, branch)
    bset = set(branch)
    leaf_set = set(leaves_of(g))
    interior = [j for j in branch if j not in leaf_set]
    cap = graph_determinant(g) * len(g.ids) * max(-w for w in g.weights)
    order, parent = bfs_tree(g, v)
    distance = {v: 1}  # vertices on the path from the node, both ends counted
    for x in order[1:]:
        distance[x] = distance[parent[x]] + 1

    d_cycle = cycle_add(dual_cycle(g, v), fundamental_cycle(g, branch))
    iterations = 0
    while True:
        bad = [
            (distance[j], g.index[j], j)
            for j in interior
            if cycle_pairing(g, d_cycle, j) < 0
        ]
        if not bad:
            break
        if iterations >= cap:
            return MonomialCycleResult(
                ok=False, node=v, attach=attach, cycle=None, exponents=(),
                iterations=iterations, reason="iteration cap exceeded",
            )
        iterations += 1
        _, _, j = min(bad)
        if stepped is not None:
            stepped.append(j)
        deficit = -int(cycle_pairing(g, d_cycle, j))
        candidates = []
        for x in g.adjacency[j]:
            comp = component_of(g, j, x)
            if v in comp:
                continue
            has_negative = any(
                cycle_pairing(g, d_cycle, k) < 0 for k in comp if k in bset
            )
            candidates.append((0 if has_negative else 1, g.index[x], comp))
        candidates.sort(key=lambda t: (t[0], t[1]))
        sub = candidates[0][2]
        d_cycle = cycle_add(d_cycle, fundamental_cycle(g, sub), scale=deficit)

    diff = cycle_add(d_cycle, dual_cycle(g, v), scale=-1)
    problems = []
    if not is_integral(diff):
        problems.append("difference with the dual cycle is not integral")
    if any(c < 0 for c in diff.coefficients.values()):
        problems.append("difference with the dual cycle is not effective")
    if any(c and x not in bset for x, c in diff.coefficients.items()):
        problems.append("difference is not supported on the branch")
    for j in g.ids:
        if j not in leaf_set and cycle_pairing(g, d_cycle, j) != 0:
            problems.append(f"nonzero pairing with non-leaf curve {j}")
            break
    exponents = []
    for k in leaves_of(g):
        val = -cycle_pairing(g, d_cycle, k)
        if val.denominator != 1 or val < 0:
            problems.append(f"leaf exponent at {k} is not a non-negative integer")
            break
        if k in bset:
            exponents.append((k, int(val)))
        elif val:
            problems.append(f"nonzero exponent at leaf {k} outside the branch")
            break
    if problems:
        return MonomialCycleResult(
            ok=False, node=v, attach=attach, cycle=None, exponents=(),
            iterations=iterations, reason="; ".join(problems),
        )
    return MonomialCycleResult(
        ok=True, node=v, attach=attach, cycle=d_cycle,
        exponents=tuple(exponents), iterations=iterations, reason=None,
    )


def iter_nonnegative_solutions_recursive(
    values: Sequence[int],
    target: int,
    budget: SearchBudget | None = None,
) -> Iterator[tuple[int, ...]]:
    """``iter_nonnegative_solutions`` as one generator per coordinate, each
    passing its solutions up a ``yield from`` chain."""
    k = len(values)
    if k == 0:
        if target == 0:
            yield ()
        return
    suffix = [0] * (k + 1)
    for i in range(k - 1, -1, -1):
        suffix[i] = gcd(suffix[i + 1], values[i])

    def rec(i: int, remaining: int, prefix: tuple[int, ...]):
        if i == k - 1:
            if budget is not None and not budget.spend():
                return
            q, r = divmod(remaining, values[i])
            if r == 0:
                yield prefix + (q,)
            return
        step = values[i]
        sub_gcd = suffix[i + 1]
        for a in range(remaining // step + 1):
            if budget is not None and not budget.spend():
                return
            rest = remaining - a * step
            if rest % sub_gcd == 0:
                yield from rec(i + 1, rest, prefix + (a,))
            if budget is not None and budget.exhausted:
                return

    if target >= 0 and target % suffix[0] == 0:
        yield from rec(0, target, ())


def search_monomial_cycle(
    g: ResolutionGraph,
    v: str,
    branch: Sequence[str],
    limit: int,
    budget: SearchBudget,
) -> tuple[tuple[tuple[str, int], ...] | None, bool]:
    """Complete bounded search over exponent vectors on the branch leaves.

    A vector works when sum(a_k * L[k][j]) - L[v][j] vanishes outside the
    branch and is a non-negative multiple of det inside it, i.e. the
    corresponding combination of leaf duals exceeds the node dual by an
    effective integral cycle supported on the branch.
    """
    lmat, det, idx = linking_matrix(g), graph_determinant(g), g.index
    bset = set(branch)
    leaves = [k for k in leaves_of(g) if k in bset]
    values = [lmat[idx[k]][idx[v]] for k in leaves]
    target = lmat[idx[v]][idx[v]]
    tested = 0
    for alpha in iter_nonnegative_solutions(values, target, budget):
        if tested >= limit:
            return None, True
        tested += 1
        good = True
        for j in g.ids:
            total = sum(
                a * lmat[idx[k]][idx[j]] for k, a in zip(leaves, alpha)
            ) - lmat[idx[v]][idx[j]]
            if j in bset:
                if total < 0 or total % det:
                    good = False
                    break
            elif total:
                good = False
                break
        if good:
            return tuple(zip(leaves, alpha)), False
    return None, budget.exhausted


def congruence_equalities_rational(
    g: ResolutionGraph,
    v: str,
    toward: str,
    alpha: Mapping[str, int],
) -> dict[str, tuple[Fraction, Fraction]]:
    """Exact-rational form of the per-leaf equalities for one candidate:
    maps each leaf beyond the edge to (character value, required value)."""
    d = splice_from_resolution(g)
    group = leaf_generators(g)
    pm = pairing_matrix(g)
    idx = g.index
    leaves = subtree_leaves_by_id(d, v, toward)
    out = {}
    for wp in leaves:
        lhs = character_of_monomial(group, alpha, group.generator(wp))
        rhs = qmod1(-pm[idx[v]][idx[wp]])
        out[wp] = (lhs, rhs)
    return out


def congruence_table_by_name(
    g: ResolutionGraph, v: str, leaves: tuple[str, ...]
) -> tuple[LeafCongruence, ...]:
    """The per-leaf congruence table of the edge from v, as name-keyed
    ``LeafCongruence`` rows whose targets are read off the node's own
    linking row."""
    node_row = g.linking_row(v)
    idx, det, rows = g.index, g.det, [g.linking_row(w) for w in leaves]
    out = []
    for wp in leaves:
        j = idx[wp]
        coeffs = tuple((w, row[j] % det) for w, row in zip(leaves, rows))
        out.append(
            LeafCongruence(leaf=wp, coefficients=coeffs, target=node_row[j] % det, modulus=det)
        )
    return tuple(out)


def satisfies_by_name(table: tuple[LeafCongruence, ...], alpha: Sequence[int]) -> bool:
    """Whether alpha, aligned with the leaves of the rows, meets every row."""
    for row in table:
        total = sum(c * a for (_, c), a in zip(row.coefficients, alpha))
        if (total - row.target) % row.modulus:
            return False
    return True
