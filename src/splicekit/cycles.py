"""Dual cycles, fundamental cycles via computation sequences, and the
branch-cycle conditions that mirror the semigroup and congruence conditions,
decided on integral cycles; rational ``QCycle`` values are formed for the API.

Call a branch B reduced when every curve j of B has w_j + deg_B(j) <= 0:
then the computation sequence started from its reduced cycle, coefficient
1 on every curve, makes no bump, so that cycle is Z_B, and the same holds
on every sub-branch of B. Branches of a rational graph are reduced, and
the test is O(1) per directed edge after one leaves-up count
(``_branch_tests``). On a reduced branch condition 3.4 reads Z_B[u] = 1,
and condition 3.3 runs the greedy monomial cycle as subtree adds on int
arrays, one sweep of all reduced branches of a node (``_reduced_sweep``).
Other branches read their cycles from ``ResolutionGraph.branch_cycle``, one
computation sequence per directed edge asked for, cached on the graph. The
greedy monomial cycle of 3.3 is one breadth-first sweep of each branch
from its node: a step only changes pairings farther from the node, so the
sweep steps the curves that "nearest first" would, each once.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Callable, Iterable, Mapping, Sequence

from .conditions import congruence_edge
from .errors import NotABranch
from .graph import (
    ResolutionGraph,
    bfs_tree,
    component_of,
    computation_sequence,
    dot,
    leaves_of,
    nodes_of,
    require_negative_definite,
    walk_tree,
)
from .splice import splice_from_resolution


@dataclass(frozen=True)
class QCycle:
    """Rational linear combination of exceptional curves, stored sparsely."""

    coefficients: Mapping[str, Fraction]

    def get(self, v: str) -> Fraction:
        return self.coefficients.get(v, Fraction(0))

    @property
    def support(self) -> tuple[str, ...]:
        return tuple(v for v, c in self.coefficients.items() if c)

    def is_integral(self) -> bool:
        return all(c.denominator == 1 for c in self.coefficients.values())

    def is_effective(self) -> bool:
        return all(c >= 0 for c in self.coefficients.values())

    def as_int_dict(self) -> dict[str, int]:
        if not self.is_integral():
            raise ValueError("cycle is not integral")
        return {v: int(c) for v, c in self.coefficients.items() if c}


def cycle_pairing(g: ResolutionGraph, cycle: QCycle | Mapping[str, Fraction], v: str) -> Fraction:
    """Intersection number of the cycle with the curve at v."""
    return Fraction(dot(g, cycle.coefficients if isinstance(cycle, QCycle) else cycle, v))


def cycle_add(a: QCycle, b: QCycle, scale: int = 1) -> QCycle:
    out = dict(a.coefficients)
    for v, c in b.coefficients.items():
        out[v] = out.get(v, Fraction(0)) + scale * c
    return QCycle({v: c for v, c in out.items() if c})


def dual_cycles(g: ResolutionGraph) -> dict[str, QCycle]:
    """All cycles dual to the curves: the i-th pairs to -1 with curve i and
    to 0 with every other curve (rows of the negated inverse pairing)."""
    return {v: dual_cycle(g, v) for v in g.ids}


def dual_cycle(g: ResolutionGraph, v: str) -> QCycle:
    """Row v of the negated pairing matrix, L[v] / det."""
    row = g.linking_row(v)  # raises NotNegativeDefinite
    return QCycle({u: Fraction(x, g.det) for u, x in zip(g.ids, row) if x})


def branches(g: ResolutionGraph, v: str) -> tuple[tuple[str, ...], ...]:
    """Connected components of the graph minus v, in vertex order."""
    return tuple(component_of(g, v, u) for u in g.adjacency[v])


def fundamental_cycle(g: ResolutionGraph, subset: Iterable[str]) -> QCycle:
    """Minimal effective cycle on a connected vertex set with non-positive
    intersection against each of its curves."""
    return QCycle({v: Fraction(c) for v, c in _fundamental_coefficients(g, subset).items()})


def _fundamental_coefficients(g: ResolutionGraph, subset: Iterable[str]) -> dict[str, int]:
    """Integer coefficients of ``fundamental_cycle``, in vertex order: the
    computation sequence started from coefficient 1 everywhere."""
    inside = set(subset)
    sub = [v for v in g.ids if v in inside]
    if not sub:
        raise NotABranch("empty vertex set")
    return computation_sequence(g, dict.fromkeys(sub, 1), sub[::-1])


@dataclass(frozen=True)
class BranchCheck:
    vertex: str
    attach: str
    value: int

    @property
    def ok(self) -> bool:
        return self.value == 1


@dataclass(frozen=True)
class Condition34Report:
    checks: tuple[BranchCheck, ...]

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    @property
    def failures(self) -> tuple[BranchCheck, ...]:
        return tuple(c for c in self.checks if not c.ok)


def _branch_tests(
    g: ResolutionGraph,
) -> tuple[Callable[[int, int], bool], Callable[[int, int], bool]]:
    """Two O(1) tests on the component B of g minus p containing x, for an
    edge (x, p) by vertex index: ``reduced``, whether every curve j of B
    has w_j + deg_B(j) <= 0, and ``negative``, whether some curve j of B
    has w_j + deg(j) < 0. One leaves-up pass over ``g.tree`` counts the
    curves with each sign below every vertex; B is the subtree at x when p
    is the parent of x, and the rest of the tree otherwise. Only the attach
    x has a neighbour outside B."""
    nbrs, order, parent = g.tree
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


def check_condition_3_4(g: ResolutionGraph) -> Condition34Report:
    """Every branch of every non-leaf curve must have fundamental cycle
    meeting that curve exactly once. The branch B of v at u meets E_v only
    through u, so Z_B.E_v = Z_B[u]: 1 when B is reduced, and otherwise read
    from ``g.branch_cycle``. Refuses any indefinite graph."""
    require_negative_definite(g)
    reduced, _ = _branch_tests(g)
    ids = g.ids
    return Condition34Report(checks=tuple(
        BranchCheck(
            vertex=ids[i], attach=ids[x],
            value=1 if reduced(x, i) else g.branch_cycle(ids[x], ids[i])[ids[x]],
        )
        for i, ns in enumerate(g.tree.nbrs)
        if len(ns) > 1
        for x in ns
    ))


@dataclass(frozen=True)
class MonomialCycleResult:
    ok: bool
    node: str
    attach: str
    cycle: QCycle | None
    exponents: tuple[tuple[str, int], ...]
    iterations: int
    reason: str | None = None


def _branch_of(g: ResolutionGraph, v: str, branch: Sequence[str]) -> str:
    """Attach vertex of a claimed branch; raises NotABranch on mismatch."""
    bset = set(branch)
    attach = [u for u in g.adjacency[v] if u in bset]
    if len(attach) != 1 or set(component_of(g, v, attach[0])) != bset:
        raise NotABranch(f"{sorted(bset)} is not a branch of {v}")
    return attach[0]


def _greedy_monomial(
    g: ResolutionGraph,
    v: str,
    attach: str,
    order: Sequence[str],
    parent: Mapping[str, str | None],
    leaf_set: set[str],
) -> tuple[MonomialCycleResult, dict[str, int]]:
    """The sweep of ``construct_monomial_cycle`` on the branch of v at
    attach, with the integral part W of its cycle; the result's ``cycle``
    is None. ``order`` and ``parent`` are ``bfs_tree(g, v)``.

    A step at j adds -(W.E_j) times the cycle Z_S of a sub-branch S beyond
    j, read from ``g.branch_cycle``. Z_S meets E_j at least once, so j is
    then met non-negatively; only the pairings on S, all farther from v,
    change. A curve's pairing thus moves only when it or an ancestor is
    stepped: one pass in breadth-first order steps the curves that
    "nearest first" would, each once, with the same sub-branch choices
    (steps at one distance touch disjoint sub-branches, so they commute)."""
    excess = dict(g.branch_cycle(attach, v))  # W; v is not in the branch
    pairs = {j: dot(g, excess, j) for j in excess}
    iterations = 0
    for j in order:
        if j not in excess or j in leaf_set or pairs[j] >= 0:
            continue
        iterations += 1
        # sub-branches at j away from v: still met negatively first, then vertex order
        top = min(
            (x for x in g.adjacency[j] if x != parent[j]),
            key=lambda x: (all(pairs[k] >= 0 for k in g.branch_cycle(x, j)), g.index[x]),
        )
        sub, scale = g.branch_cycle(top, j), -pairs[j]
        for k, c in sub.items():
            excess[k] += scale * c
        for k in sub:
            pairs[k] = dot(g, excess, k)

    # W, so each pairing with it, vanishes off the branch and v: every
    # other curve passes both checks below
    curves = sorted([v, *excess], key=g.index.__getitem__)
    meet = {j: dot(g, excess, j) - (j == v) for j in curves}  # (dual(v) + W).E_j
    nonzero = [j for j in curves if j not in leaf_set and meet[j]]
    negative = [k for k in curves if k in leaf_set and meet[k] > 0]
    problems = [f"nonzero pairing with non-leaf curve {j}" for j in nonzero[:1]]
    problems += [f"leaf exponent at {k} is not a non-negative integer" for k in negative[:1]]
    # a leaf v is checked but lies off the branch
    exponents = tuple((k, -meet[k]) for k in curves if k in leaf_set and k != v)
    found = MonomialCycleResult(
        ok=not problems, node=v, attach=attach, cycle=None,
        exponents=() if problems else exponents, iterations=iterations,
        reason="; ".join(problems) or None,
    )
    return found, excess


def _reduced_sweep(
    g: ResolutionGraph,
    v: int,
    reduced: Callable[[int, int], bool],
    negative: Callable[[int, int], bool],
) -> dict[int, MonomialCycleResult]:
    """``_greedy_monomial`` on every reduced branch of v at once, by vertex
    index, in one breadth-first walk from v that enters no other branch;
    keyed by attach. ``reduced`` and ``negative`` are ``_branch_tests(g)``.

    On a reduced branch every cycle read is a reduced cycle, so W is a sum
    of subtree adds: W[v] = 0, W[u] = 1 at the attach u, and W[k] = W[p] +
    add[k] below, p the parent of k and add[k] the scale of the step at p
    when k is the sub-branch it stepped. When k is visited no step has
    touched its children, so its pairing is W[k] (w_k + #children) + W[p];
    before the step at k every curve below it sits at W[k], so a child's
    sub-branch holds a curve met negatively exactly when it holds one with
    w + deg < 0. Every pairing at a visit is <= 0 on a reduced branch, a
    step brings it to 0, and the leaf pairings give the exponents: the
    result always passes."""
    ids, weights, nbrs = g.ids, g.weights, g.tree.nbrs
    attaches = tuple(x for x in nbrs[v] if reduced(x, v))
    cut = list(nbrs)
    cut[v] = attaches  # the walk leaves v into the reduced branches alone
    order, parent = walk_tree(cut, v)
    home, w_of = [0] * len(ids), [0] * len(ids)  # attach of each curve, and W
    add = dict.fromkeys(attaches, 1)
    leaves, steps = {x: [] for x in attaches}, dict.fromkeys(attaches, 0)
    for k in order[1:]:
        p = parent[k]
        b = home[k] = k if p == v else home[p]
        wk = w_of[k] = w_of[p] + add.pop(k, 0)
        kids = len(nbrs[k]) - 1
        meet = wk * (weights[k] + kids) + w_of[p]
        if not kids:
            leaves[b].append((k, -meet))
        elif meet < 0:
            steps[b] += 1
            for top in nbrs[k]:
                if top != p and negative(top, k):
                    break
            else:
                top = nbrs[k][nbrs[k][0] == p]  # the first child
            add[top] = -meet
    return {
        b: MonomialCycleResult(
            ok=True, node=ids[v], attach=ids[b], cycle=None,
            exponents=tuple((ids[k], e) for k, e in sorted(leaves[b])),
            iterations=steps[b],
        )
        for b in leaves
    }


def construct_monomial_cycle(
    g: ResolutionGraph, v: str, branch: Sequence[str]
) -> MonomialCycleResult:
    """Greedy construction of a monomial cycle for a node and branch.

    Starts from the dual cycle of the node plus the branch fundamental
    cycle, then absorbs negative intersections at non-leaf curves by adding
    fundamental cycles of sub-branches, in one breadth-first sweep from the
    node; a step only changes pairings farther out, so this is the "nearest
    first" order. The result, when every check passes, pairs to zero with
    every non-leaf curve and decomposes over the leaf duals of the branch.

    The cycle is dual(v) + W, and only the integral W is kept: the branch
    fundamental cycle plus positive multiples of those of sub-branches, so
    the difference with the dual cycle is integral, effective and on the
    branch by construction. dual(v) meets E_v in -1 and other curves in 0,
    so each pairing read is the integer W.E_j - [j = v]. The rational cycle
    is formed once, on success.
    """
    attach = _branch_of(g, v, branch)
    order, parent = bfs_tree(g, v)
    found, excess = _greedy_monomial(g, v, attach, order, parent, set(leaves_of(g)))
    if not found.ok:
        return found
    cycle = cycle_add(dual_cycle(g, v), QCycle({x: Fraction(c) for x, c in excess.items()}))
    return replace(found, cycle=cycle)


@dataclass(frozen=True)
class BranchDecision:
    node: str
    attach: str
    ok: bool
    method: str  # "constructive" | "search"
    exponents: tuple[tuple[str, int], ...]
    truncated: bool


@dataclass(frozen=True)
class Condition33Report:
    decisions: tuple[BranchDecision, ...]

    @property
    def ok(self) -> bool:
        return all(d.ok for d in self.decisions)

    @property
    def failures(self) -> tuple[BranchDecision, ...]:
        return tuple(d for d in self.decisions if not d.ok)


def check_condition_3_3(g: ResolutionGraph) -> Condition33Report:
    """Monomial-cycle condition at every node and branch of a definite graph.

    The greedy construction is tried first: on the reduced branches of a
    node as one ``_reduced_sweep``, which always passes and reads no branch
    cycle, and on the others by ``_greedy_monomial``. Where it does not
    settle the branch B of v attached at u, the cached congruence search of
    the diagram edge (v, t) whose string starts at u (t = u when the string
    is empty, ``congruence_edge``) decides it. The leaves of that edge are
    the leaves of B, and a vector passes the congruence table exactly when
    its Z is an effective integral cycle supported on B, the test a
    monomial cycle asks for. Here L is the linking matrix, e_j* = L[j] / det are the dual cycles and
    Z = sum a_k e_k* - e_v* for a vector a that solves the edge equation.

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
    require_negative_definite(g)
    reduced, negative = _branch_tests(g)
    ids, nbrs, leaf_set = g.ids, g.tree.nbrs, set(leaves_of(g))
    decisions = []
    for v in nodes_of(g):
        i, walk = g.index[v], None
        swept = _reduced_sweep(g, i, reduced, negative)
        for x in nbrs[i]:
            u = ids[x]
            greedy = swept.get(x)
            if greedy is None:
                walk = walk or bfs_tree(g, v)
                greedy, _ = _greedy_monomial(g, v, u, *walk, leaf_set)
            if greedy.ok:
                decisions.append(
                    BranchDecision(
                        node=v, attach=u, ok=True, method="constructive",
                        exponents=greedy.exponents, truncated=False,
                    )
                )
                continue
            diagram = splice_from_resolution(g)
            t = next(
                t for t in diagram.adjacency[v] if (*diagram.strings[(v, t)], t)[0] == u
            )
            edge = congruence_edge(g, v, t)
            decisions.append(
                BranchDecision(
                    node=v, attach=u, ok=edge.ok, method="search",
                    exponents=edge.witness.exponents if edge.witness else (),
                    truncated=edge.truncated,
                )
            )
    return Condition33Report(decisions=tuple(decisions))
