"""Dual cycles, fundamental cycles via computation sequences, and the
branch-cycle conditions that mirror the semigroup and congruence conditions,
decided on integral cycles; rational ``QCycle`` values are formed for the API.

Call a branch B reduced when every curve j of B has w_j + deg_B(j) <= 0:
then its fundamental cycle Z_B is 1 on every curve, as on each sub-branch.
The test is O(1) per directed edge (``_branch_tests``). A branch of a
rational graph need not be reduced: it may hold a (-2)-curve of valency
three, and no verdict assumes otherwise. Once some branch is not reduced,
one table per analysis holds Z_B - 1_B by directed edge
(``excess_table``). 3.4 reads Z_B at the attach; 3.3 runs the greedy
monomial cycle as one breadth-first sweep per node over int arrays
(``_sweep``).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, prod
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

from .analysis import Analysis, analysis_of, linking_row
from .conditions import AdmissibleExponents, Decision, congruence_edge
from .errors import NotABranch, UnknownVertex
from .frozen import report_failures, report_ok
from .graph import (
    ResolutionGraph,
    component_of,
    edge_order,
    induced_subgraph,
    nodes_of,
    require_negative_definite,
    walk_tree,
)
from .splice import splice_from_resolution


class QCycle(NamedTuple):
    """Rational linear combination of exceptional curves, stored sparsely."""

    coefficients: Mapping[str, Fraction]

    def get(self, v: str) -> Fraction:
        return self.coefficients.get(v, Fraction(0))


def cycle_add(a: QCycle, b: QCycle, scale: int = 1) -> QCycle:
    out = dict(a.coefficients)
    for v, c in b.coefficients.items():
        out[v] = out.get(v, Fraction(0)) + scale * c
    return QCycle({v: c for v, c in out.items() if c})


def dual_cycles(g: ResolutionGraph | Analysis) -> dict[str, QCycle]:
    """All cycles dual to the curves: the i-th pairs to -1 with curve i and
    to 0 with every other curve (rows of the negated inverse pairing)."""
    a = analysis_of(g)
    return {v: dual_cycle(a, v) for v in a.graph.ids}


def dual_cycle(g: ResolutionGraph | Analysis, v: str) -> QCycle:
    """Row v of the negated pairing matrix, L[v] / det, read as
    ``a.memo(linking_row, v)``."""
    g, row = (a := analysis_of(g)).graph, a.memo(linking_row, v)  # raises NotNegativeDefinite
    return QCycle({u: Fraction(x, g.det) for u, x in zip(g.ids, row) if x})


def _neighbours(g: ResolutionGraph, v: str) -> tuple[str, ...]:
    if v not in g.index:
        raise UnknownVertex(v)
    return g.adjacency[v]


def branches(g: ResolutionGraph, v: str) -> tuple[tuple[str, ...], ...]:
    """Connected components of the graph minus v, in vertex order. Raises
    UnknownVertex."""
    return tuple(component_of(g, v, u) for u in _neighbours(g, v))


def fundamental_cycle(g: ResolutionGraph, subset: Iterable[str]) -> QCycle:
    """Minimal effective cycle on a connected vertex set with non-positive
    intersection against each of its curves: ``_laufer`` from coefficient 1
    everywhere, in vertex order. Raises UnknownVertex for a vertex g lacks,
    NotABranch on an empty set, ValidationError on a disconnected one, and
    NotNegativeDefinite when the set is not negative definite, where no
    such cycle need exist."""
    h = induced_subgraph(g, subset)
    if not h.ids:
        raise NotABranch("empty vertex set")
    require_negative_definite(h)
    extra = _laufer(h, {}, list(range(len(h.ids))))
    return QCycle({v: Fraction(1 + extra.get(i, 0)) for i, v in enumerate(h.ids)})


def _laufer(g: ResolutionGraph, extra: dict[int, int], pending: list[int], cut: int = -1) -> dict:
    """Laufer's computation sequence on the cycle 1 + extra by vertex index,
    in place on extra, supported on the component of g minus cut (all of g
    at -1) holding the pending curves: bump a curve met positively until it
    is not. `pending` must hold every curve that may meet the start
    positively; then only a bumped curve's neighbours can. From at or below
    the fundamental cycle of a negative-definite support, it ends there in
    any order of bumps (Laufer, "On rational singularities", 1972)."""
    weights, nbrs, get = g.weights, g.tree.nbrs, extra.get
    while pending:
        j = pending.pop()
        inside = nbrs[j] if cut not in nbrs[j] else [x for x in nbrs[j] if x != cut]
        e = get(j, 0)
        meet = (1 + e) * weights[j] + len(inside) + sum([get(x, 0) for x in inside])
        if meet > 0:
            extra[j] = e - meet // weights[j]  # ceil(meet / -w) bumps
            pending.extend(inside)
    return extra


def excess_entry(
    g: ResolutionGraph, table: Mapping[tuple[int, int], dict[int, int]], x: int, p: int
) -> dict[int, int]:
    """X(x, p) = Z_B - 1_B, sparse, for the component B of g minus p holding
    x: ``_laufer`` from E_x plus the cycles Z_C of the components C beyond
    x, read from ``table``. Z_B restricted to C meets C non-positively, so
    it lies above Z_C; only x and its children can meet that start
    positively."""
    extra, pending = {}, [x]
    for c in g.tree.nbrs[x]:
        if c != p:
            extra.update(table[(c, x)])
            pending.append(c)
    return _laufer(g, extra, pending, p)


def excess_table(g: ResolutionGraph | Analysis) -> dict[tuple[int, int], dict[int, int]]:
    """``excess_entry`` on every directed edge (x, p) of a negative-definite
    graph by vertex index, p not a leaf, in ``edge_order``: leaves first, so
    each entry reads the entries beyond it. Empty on a reduced branch. Read
    as ``a.memo(excess_table)``, once per analysis a."""
    g, (reduced, _) = (a := analysis_of(g)).graph, a.memo(_branch_tests)
    nbrs, table = g.tree.nbrs, {}
    for x, p in edge_order(g.tree):
        if len(nbrs[p]) > 1:
            table[(x, p)] = {} if reduced(x, p) else excess_entry(g, table, x, p)
    return table


def moduli_table(g: ResolutionGraph | Analysis) -> dict[tuple[int, int], int]:
    """q(x, k) = D / gcd(D, G) on every directed edge (x, k) of a
    negative-definite graph by vertex index, k not a leaf: D = D(x, k) is
    the det of the component S of g minus k holding x, and G the gcd of
    column x of the adjugate of -A_S. Read as ``a.memo(moduli_table)``.

    A cycle on S and k that is c at k and meets S non-positively lies above
    c col, col the column x of -A_S^-1, which meets S in 0. A fundamental
    cycle Z covering S and k is least, so on S it is c col when that is
    integral, exactly when q divides c = Z[k], and else meets S negatively.
    The column is P = prod D(c', x) at x, over the children c' of x, and P
    / D(c', x) times the column of the branch at c' on it: G(x, k) = gcd(P,
    (P / D(c', x)) G(c', x)), filled leaves first in ``edge_order``."""
    g = analysis_of(g).graph
    nbrs, det = g.tree.nbrs, g.branch_det
    common, moduli = {}, {}
    for x, k in edge_order(g.tree):
        if len(nbrs[k]) < 2:
            continue
        kids = [(det(c, x), common[(c, x)]) for c in nbrs[x] if c != k]
        whole = prod(d for d, _ in kids)
        common[(x, k)] = shared = gcd(whole, *(whole // d * h for d, h in kids))
        d = det(x, k)
        moduli[(x, k)] = d // gcd(d, shared)
    return moduli


class BranchCheck(NamedTuple):
    vertex: str
    attach: str
    value: int

    @property
    def ok(self) -> bool:
        return self.value == 1


class Condition34Report(NamedTuple):
    checks: tuple[BranchCheck, ...]

    ok, failures = report_ok, report_failures


BranchTests = tuple[Callable[[int, int], bool], Callable[[int, int], bool]]


def _branch_tests(a: Analysis) -> BranchTests:
    """Two O(1) tests on the component B of g minus p containing x, for an
    edge (x, p) by vertex index: ``reduced``, whether every curve j of B
    has w_j + deg_B(j) <= 0, and ``negative``, whether some curve j of B
    has w_j + deg(j) < 0. One leaves-up pass over ``g.tree`` counts the
    curves with each sign below every vertex; B is the subtree at x when p
    is the parent of x, and the rest of the tree otherwise. Only the attach
    x has a neighbour outside B. Read as ``a.memo(_branch_tests)``, g the
    graph of the analysis a."""
    nbrs, order, parent = (g := a.graph).tree
    excess = [w + len(ns) for w, ns in zip(g.weights, nbrs)]
    over = [int(r > 0) for r in excess]
    under = [int(r < 0) for r in excess]
    for j in reversed(order[1:]):
        over[parent[j]] += over[j]
        under[parent[j]] += under[j]

    def reduced(x: int, p: int) -> bool:
        r = excess[x]
        inside = over[x] if parent[x] == p else over[0] - over[p]
        return inside - (r > 0) + (r > 1) == 0

    def negative(x: int, p: int) -> bool:
        return (under[x] if parent[x] == p else under[0] - under[p]) > 0

    return reduced, negative


def check_condition_3_4(g: ResolutionGraph | Analysis) -> Condition34Report:
    """Every branch of every non-leaf curve must have fundamental cycle
    meeting that curve exactly once. The branch B of v at u meets E_v only
    through u, so Z_B.E_v = Z_B[u]: 1 when B is reduced, and otherwise 1 +
    X(u, v)[u] from ``excess_table``. Refuses any indefinite graph."""
    g = (a := analysis_of(g)).graph
    require_negative_definite(g)
    reduced, _ = a.memo(_branch_tests)
    ids = g.ids
    return Condition34Report(checks=tuple(
        BranchCheck(
            vertex=ids[i], attach=ids[x],
            value=1 if reduced(x, i) else 1 + a.memo(excess_table)[(x, i)].get(x, 0),
        )
        for i, ns in enumerate(g.tree.nbrs)
        if len(ns) > 1
        for x in ns
    ))


class MonomialCycleResult(NamedTuple):
    ok: bool
    node: str
    attach: str
    cycle: QCycle | None
    exponents: tuple[tuple[str, int], ...]
    iterations: int
    reason: str | None = None


def _branch_of(g: ResolutionGraph, v: str, branch: Sequence[str]) -> str:
    """Attach vertex of a claimed branch; raises UnknownVertex, and
    NotABranch on mismatch."""
    bset = set(branch)
    attach = [u for u in _neighbours(g, v) if u in bset]
    if len(attach) != 1 or set(component_of(g, v, attach[0])) != bset:
        raise NotABranch(f"{sorted(bset)} is not a branch of {v}")
    return attach[0]


def _sweep(
    a: Analysis, v: int, attaches: Sequence[int]
) -> tuple[dict[int, MonomialCycleResult], list[int], list[int] | None]:
    """The greedy monomial cycle of ``construct_monomial_cycle`` on the
    branches of v at the given attaches, by vertex index, in one
    breadth-first walk from v that enters no other branch: the results by
    attach, with cycle None, and the integral part W of the cycles as base
    + extra (extra is None, so 0, when all those branches are reduced).

    W starts at Z_B = 1_B + X(u, v) on the branch B at u, and a step at k
    adds s = -(W.E_k) times Z_S = 1_S + X(t, k), S the sub-branch at a
    child t (``excess_table``): 1_S as a subtree add, base[k] = base[p] +
    add[k] for p the parent of k, and s X(t, k) into extra. A step changes
    pairings in S alone, so when k is visited its children sit at base[k]
    and its pairing is final but for its own step. Each cycle added so far
    that covers k meets S non-positively, so W meets S negatively exactly
    when one does: a reduced one when ``negative(t, k)``, a fundamental
    cycle Z when q(t, k) does not divide Z[k] (``moduli_table``). Only v
    and stepped curves can end met positively: in X(u, v)[u] at v, in s
    X(t, k)[t] at k, the failures. The tests and tables are those of the
    analysis a."""
    g, (reduced, negative) = a.graph, a.memo(_branch_tests)
    ids, weights, nbrs = g.ids, g.weights, g.tree.nbrs
    cut = list(nbrs)
    cut[v] = attaches  # the walk leaves v into these branches alone
    order, parent = walk_tree(cut, v)
    n = len(ids)
    home, base = [0] * n, [0] * n  # attach of each curve, and the 1_S parts of W
    add = dict.fromkeys(attaches, 1)
    leaves, steps = {x: [] for x in attaches}, dict.fromkeys(attaches, 0)
    failed: dict[int, list[int]] = {}  # by attach
    extra, meets = None, negative
    if not all(reduced(x, v) for x in attaches):
        # the X added at each step, by its child t until t is visited; the X
        # of the non-reduced cycles covering each curve, and if a reduced one does
        table, extra, pushed = a.memo(excess_table), [0] * n, {}
        chain, plain = [()] * n, [False] * n
        for x in attaches:
            xs = pushed[x] = table[(x, v)] if len(nbrs[v]) > 1 else excess_entry(g, table, x, v)
            for j, c in xs.items():
                extra[j] += c
            if xs.get(x):
                failed[x] = [v]

        def meets(t: int, k: int) -> bool:  # W meets S at t negatively
            return plain[k] and negative(t, k) or any(
                (1 + xs.get(k, 0)) % a.memo(moduli_table)[(t, k)] for xs in chain[k])

    for k in order[1:]:
        p = parent[k]
        b = home[k] = k if p == v else home[p]
        wk = base[k] = base[p] + add.pop(k, 0)
        kids = len(nbrs[k]) - 1
        meet = wk * (weights[k] + kids) + base[p]
        if extra is not None:
            meet += extra[k] * weights[k] + sum(extra[x] for x in nbrs[k])
            chain[k], plain[k] = chain[p], plain[p]
            xs = pushed.pop(k, None)
            if xs:
                chain[k] += (xs,)
            elif xs is not None:
                plain[k] = True
        if not kids:
            leaves[b].append((k, -meet))
        elif meet < 0:
            steps[b] += 1
            for top in nbrs[k]:
                if top != p and (kids == 1 or meets(top, k)):
                    break
            else:
                top = nbrs[k][nbrs[k][0] == p]  # the first child
            add[top] = -meet
            if extra is not None:
                xs = pushed[top] = table[(top, k)]
                for j, c in xs.items():
                    extra[j] -= meet * c
                if xs.get(top):
                    failed.setdefault(b, []).append(k)
    leaf, results = len(nbrs[v]) < 2, {}
    for b in attaches:
        bad, problems = failed.get(b), []
        if bad:
            nonzero = sorted(j for j in bad if j != v or not leaf)[:1]
            problems = [f"nonzero pairing with non-leaf curve {ids[j]}" for j in nonzero]
            if leaf and v in bad:
                problems.append(f"leaf exponent at {ids[v]} is not a non-negative integer")
        results[b] = MonomialCycleResult(
            ok=not problems, node=ids[v], attach=ids[b], cycle=None,
            exponents=() if problems else tuple((ids[k], e) for k, e in sorted(leaves[b])),
            iterations=steps[b], reason="; ".join(problems) or None,
        )
    return results, base, extra


def construct_monomial_cycle(
    g: ResolutionGraph, v: str, branch: Sequence[str]
) -> MonomialCycleResult:
    """Greedy construction of a monomial cycle for a node and branch.

    Starts from the dual cycle of the node plus the branch fundamental
    cycle, then absorbs negative intersections at non-leaf curves by adding
    fundamental cycles of sub-branches, nearest the node first, in one
    breadth-first ``_sweep``. The result, when every check passes, pairs to
    zero with every non-leaf curve and decomposes over the leaf duals of
    the branch. Only the integral part W of the cycle dual(v) + W is kept,
    so the difference with the dual cycle is integral, effective and on the
    branch by construction; the rational cycle is formed once, on success.
    Raises UnknownVertex, NotABranch and NotNegativeDefinite.
    """
    attach = _branch_of(g, v, branch)
    require_negative_definite(g)
    i, x = g.index[v], g.index[attach]
    found, base, extra = _sweep(Analysis(g), i, (x,))
    if not found[x].ok:
        return found[x]
    extra, index = extra or [0] * len(base), g.index
    w = QCycle({u: Fraction(base[index[u]] + extra[index[u]]) for u in branch})
    return found[x]._replace(cycle=cycle_add(dual_cycle(g, v), w))


class Condition33Report(NamedTuple):
    decisions: tuple[Decision, ...]  # toward the attach of each branch

    ok, failures = report_ok, report_failures


def check_condition_3_3(g: ResolutionGraph | Analysis) -> Condition33Report:
    """Monomial-cycle condition at every node and branch of a definite graph.

    The greedy construction is tried first, on every branch of a node in
    one ``_sweep``. Where it does not settle the branch B of v attached at
    u, the analysis's congruence search of the diagram edge (v, t) whose
    string starts at u (t = u when the string is empty, ``congruence_edge``)
    decides it. Each branch gets a ``Decision`` toward u: the greedy one
    passes, "constructive", with its exponents as the witness at (v, t);
    the searched one is that edge's congruence decision.

    The leaves of that edge are the leaves of B, and a vector
    passes the congruence table exactly when its Z is an effective
    integral cycle supported on B, the test a monomial cycle asks for. Here
    L is the linking matrix, e_j* = L[j] / det are the dual cycles and Z =
    sum a_k e_k* - e_v* for a vector a that solves the edge equation.

    - For a leaf k in B and a vertex j outside it,
      L[k][j] * L[v][v] = L[k][v] * L[v][j]. So Z vanishes outside B:
      that is the edge equation, which every enumerated vector satisfies.
    - Z meets every curve integrally. So Z is integral exactly when it
      pairs integrally with the leaf duals, which generate D(Gamma). Off B
      that pairing is 0; inside B it is the congruence table.
    - Z is 0 off B and meets every curve of B non-positively (in -a_j at a
      leaf j, in 0 elsewhere). As -A_B^-1 >= 0, Z is effective, so no vector
      needs a non-negativity test.
    """
    g = (a := analysis_of(g)).graph
    require_negative_definite(g)
    ids, nbrs, diagram = g.ids, g.tree.nbrs, splice_from_resolution(a)
    decisions = []
    for v in nodes_of(g):
        i = g.index[v]
        swept, _, _ = _sweep(a, i, nbrs[i])
        # the diagram edge (v, t) whose string starts at each attach
        edge_at = {(diagram.strings[(v, t)] or (t,))[0]: t for t in diagram.adjacency[v]}
        for x in nbrs[i]:
            u, greedy = ids[x], swept[x]
            t = edge_at[u]
            decisions.append(
                Decision(v, u, "pass", "constructive", AdmissibleExponents(v, t, greedy.exponents))
                if greedy.ok else a.memo(congruence_edge, v, t)[1]._replace(toward=u)
            )
    return Condition33Report(decisions=tuple(decisions))
