"""Semigroup and congruence conditions, with closed-form end-node criteria.

The congruence test clears denominators by the graph determinant and works
with integer congruences; the equivalent exact-rational route is exposed
separately and the test suite asserts the two agree.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Iterator, Mapping, Sequence

from . import config
from .cfrac import continued_fraction_of_string
from .discriminant import (
    character_of_monomial,
    leaf_generators,
    pairing_matrix,
    qmod1,
)
from .errors import NotEndNodeEdge, NotTwoNode, UnknownEdge
from .graph import ResolutionGraph, graph_determinant
from .splice import SpliceDiagram, linking_matrix, linking_numbers, splice_from_resolution


class SearchBudget:
    """Mutable node counter shared by a backtracking search.

    Exhaustion is a reported diagnostic, never a silent truncation: every
    consumer carries the flag into its result.
    """

    __slots__ = ("remaining", "exhausted")

    def __init__(self, nodes: int):
        self.remaining = nodes
        self.exhausted = False

    def spend(self) -> bool:
        if self.remaining <= 0:
            self.exhausted = True
            return False
        self.remaining -= 1
        return True


def iter_nonnegative_solutions(
    values: Sequence[int],
    target: int,
    budget: SearchBudget | None = None,
) -> Iterator[tuple[int, ...]]:
    """All non-negative integer vectors a with sum(a_i * values_i) == target,
    in lexicographically ascending order. values must be positive.

    A budget bounds the number of visited search nodes; when it runs out the
    generator stops early with budget.exhausted set.
    """
    k = len(values)
    if k <= 1:
        if k == 0 and target == 0:
            yield ()
        elif k == 1 and target % values[0] == 0 and (budget is None or budget.spend()):
            yield (target // values[0],)
        return
    suffix = [0] * (k + 1)
    for i in range(k - 1, -1, -1):
        suffix[i] = gcd(suffix[i + 1], values[i])
    if target % suffix[0]:
        return
    last = k - 1
    # Depth first with an explicit stack: counts[i] is the value tried for a_i,
    # rests[i] what a_i, a_{i+1}, ... make up. Each value tried and each division
    # at the last coordinate spends a node; the first refused spend ends it all.
    counts, rests, i = [0] * last, [target] * last, 0
    while True:
        a, step, sub_gcd = counts[i], values[i], suffix[i + 1]
        rest = rests[i] - a * step
        while rest >= 0:
            if budget is not None and not budget.spend():
                return
            if rest % sub_gcd == 0:
                counts[i] = a
                if i + 1 < last:
                    break
                if budget is not None and not budget.spend():
                    return
                q, r = divmod(rest, values[last])
                if r == 0:
                    yield (*counts, q)
            a += 1
            rest -= step
        else:
            i -= 1  # every value tried: back to the previous coordinate
            if i < 0:
                return
            counts[i] += 1
            continue
        i += 1
        counts[i], rests[i] = 0, rest


@dataclass(frozen=True)
class AdmissibleExponents:
    """Exponent vector witnessing that an edge weight lies in the semigroup
    spanned by the reduced linking numbers toward that edge."""

    node: str
    toward: str
    exponents: tuple[tuple[str, int], ...]

    def as_dict(self) -> dict[str, int]:
        return dict(self.exponents)

    @property
    def support(self) -> tuple[str, ...]:
        return tuple(w for w, a in self.exponents if a)


def subtree_leaves(d: SpliceDiagram, v: str, toward: str) -> tuple[str, ...]:
    """Leaves of the piece of the diagram cut off from v by the edge toward
    `toward` (including `toward` itself when it is a leaf)."""
    if toward not in d.adjacency.get(v, ()):
        raise UnknownEdge(f"({v}, {toward})")
    seen = {toward}
    stack = [toward]
    while stack:
        for x in d.adjacency[stack.pop()]:
            if x != v and x not in seen:
                seen.add(x)
                stack.append(x)
    return tuple(w for w in d.ids if w in seen and d.is_leaf(w))


def edge_equation(
    d: SpliceDiagram, v: str, toward: str
) -> tuple[tuple[str, ...], tuple[int, ...], int]:
    """(leaves, reduced linking numbers, edge weight) for one node edge."""
    leaves = subtree_leaves(d, v, toward)
    values = tuple(linking_numbers(d, v, w)[1] for w in leaves)
    return leaves, values, d.weights[(v, toward)]


def iter_admissible(
    d: SpliceDiagram, v: str, toward: str, budget: SearchBudget | None = None
) -> Iterator[AdmissibleExponents]:
    leaves, values, target = edge_equation(d, v, toward)
    for alpha in iter_nonnegative_solutions(values, target, budget):
        yield AdmissibleExponents(
            node=v, toward=toward, exponents=tuple(zip(leaves, alpha))
        )


@dataclass(frozen=True)
class ExponentSolutions:
    node: str
    toward: str
    leaves: tuple[str, ...]
    values: tuple[int, ...]
    target: int
    solutions: tuple[AdmissibleExponents, ...]
    truncated: bool


def admissible_exponents(
    d: SpliceDiagram, v: str, toward: str, limit: int | None = None
) -> ExponentSolutions:
    """Complete bounded enumeration of admissible exponent vectors.

    Exceeding the limit is reported through the `truncated` flag; the
    partial list is still returned.
    """
    cap = config.solution_limit(limit)
    leaves, values, target = edge_equation(d, v, toward)
    out: list[AdmissibleExponents] = []
    truncated = False
    budget = SearchBudget(max(cap * 16, 1 << 20))
    for adm in iter_admissible(d, v, toward, budget):
        if len(out) >= cap:
            truncated = True
            break
        out.append(adm)
    return ExponentSolutions(
        node=v,
        toward=toward,
        leaves=leaves,
        values=values,
        target=target,
        solutions=tuple(out),
        truncated=truncated or budget.exhausted,
    )


@dataclass(frozen=True)
class SemigroupEdge:
    node: str
    toward: str
    ok: bool
    witness: AdmissibleExponents | None
    truncated: bool = False


@dataclass(frozen=True)
class SemigroupReport:
    edges: tuple[SemigroupEdge, ...]

    @property
    def ok(self) -> bool:
        return all(e.ok for e in self.edges)

    @property
    def truncated(self) -> bool:
        return any(e.truncated for e in self.edges)

    @property
    def failures(self) -> tuple[SemigroupEdge, ...]:
        return tuple(e for e in self.edges if not e.ok)


def check_semigroup(d: SpliceDiagram, limit: int | None = None) -> SemigroupReport:
    """Each node-edge weight must lie in the semigroup spanned by the
    reduced linking numbers toward that edge. Edges to leaves always pass
    (the single exponent is the weight itself). A failing edge with the
    truncated flag set means the search budget ran out before the space
    was exhausted."""
    cap = config.solution_limit(limit)
    edges = []
    for v in d.nodes:
        for u in d.adjacency[v]:
            budget = SearchBudget(max(cap * 16, 1 << 20))
            witness = next(iter_admissible(d, v, u, budget), None)
            edges.append(
                SemigroupEdge(node=v, toward=u, ok=witness is not None,
                              witness=witness,
                              truncated=witness is None and budget.exhausted)
            )
    return SemigroupReport(edges=tuple(edges))


@dataclass(frozen=True)
class LeafCongruence:
    """One per-leaf integer congruence sum(coeff_w * a_w) = target (mod m)."""

    leaf: str
    coefficients: tuple[tuple[str, int], ...]
    target: int
    modulus: int


@dataclass(frozen=True)
class SolvedCongruence:
    """Single-variable form a = residue (mod modulus) at an end-node edge."""

    leaf: str
    residue: int
    modulus: int


@dataclass(frozen=True)
class CongruenceEdge:
    node: str
    toward: str
    semigroup_ok: bool
    ok: bool
    witness: AdmissibleExponents | None
    tested: int
    truncated: bool
    congruences: tuple[LeafCongruence, ...]
    solved: tuple[SolvedCongruence, ...]


@dataclass(frozen=True)
class CongruenceReport:
    determinant: int
    edges: tuple[CongruenceEdge, ...]

    @property
    def ok(self) -> bool:
        return all(e.ok for e in self.edges)

    @property
    def failures(self) -> tuple[CongruenceEdge, ...]:
        return tuple(e for e in self.edges if not e.ok)


def _congruence_table(
    g: ResolutionGraph,
    lmat: list[list[int]],
    det: int,
    d: SpliceDiagram,
    v: str,
    leaves: tuple[str, ...],
) -> tuple[LeafCongruence, ...]:
    idx = g.index
    out = []
    for wp in leaves:
        coeffs = tuple((w, lmat[idx[w]][idx[wp]] % det) for w in leaves)
        out.append(
            LeafCongruence(
                leaf=wp,
                coefficients=coeffs,
                target=lmat[idx[v]][idx[wp]] % det,
                modulus=det,
            )
        )
    return out


def _satisfies(table: tuple[LeafCongruence, ...], alpha: Mapping[str, int]) -> bool:
    for row in table:
        total = sum(c * alpha.get(w, 0) for w, c in row.coefficients)
        if (total - row.target) % row.modulus:
            return False
    return True


def _solved_congruences(
    g: ResolutionGraph, d: SpliceDiagram, v: str, v_star: str
) -> tuple[SolvedCongruence, ...]:
    """Per-leaf single-variable congruences for an edge toward an end-node:
    the exponent at each leaf must be = -n*p_i modulo the leaf string
    determinant, n the central string determinant."""
    if d.strings is None:
        return ()
    central = d.strings[(v, v_star)]
    n = continued_fraction_of_string(
        [g.weight_of(x) for x in central]
    ).numerator if central else 1
    out = []
    for w in d.adjacency[v_star]:
        if w == v or not d.is_leaf(w):
            continue
        chain = list(d.strings[(v_star, w)]) + [w]
        cf = continued_fraction_of_string([g.weight_of(x) for x in chain])
        n_i, p_i = cf.numerator, cf.denominator
        out.append(SolvedCongruence(leaf=w, residue=(-n * p_i) % n_i, modulus=n_i))
    return tuple(out)


def check_congruence(
    g: ResolutionGraph,
    limit: int | None = None,
) -> CongruenceReport:
    """Search each node edge for an admissible exponent vector whose
    per-leaf characters match the required ones.

    Only the leaf generators are tested: characters are homomorphisms from
    the discriminant group, which the leaf generators span, so equivariance
    under each generator is equivariance under the whole group.

    Failures carry the per-leaf congruence table (denominators cleared by
    the determinant) and, for edges toward an end-node, the solved
    single-variable congruences.
    """
    d = splice_from_resolution(g)
    det = graph_determinant(g)
    lmat = linking_matrix(g)
    cap = config.solution_limit(limit)
    edges = []
    for v in d.nodes:
        for u in d.adjacency[v]:
            leaves, _, _ = edge_equation(d, v, u)
            table = _congruence_table(g, lmat, det, d, v, leaves)
            witness = None
            tested = 0
            truncated = False
            any_admissible = False
            budget = SearchBudget(max(cap * 16, 1 << 20))
            for adm in iter_admissible(d, v, u, budget):
                any_admissible = True
                if tested >= cap:
                    truncated = True
                    break
                tested += 1
                if _satisfies(table, adm.as_dict()):
                    witness = adm
                    break
            truncated = truncated or (witness is None and budget.exhausted)
            is_end_edge = (
                d.is_node(u)
                and all(d.is_leaf(x) for x in d.adjacency[u] if x != v)
            )
            solved = (
                _solved_congruences(g, d, v, u)
                if (witness is None and any_admissible and is_end_edge)
                else ()
            )
            edges.append(
                CongruenceEdge(
                    node=v,
                    toward=u,
                    semigroup_ok=any_admissible,
                    ok=witness is not None,
                    witness=witness,
                    tested=tested,
                    truncated=truncated,
                    congruences=table if witness is None else (),
                    solved=solved,
                )
            )
    return CongruenceReport(determinant=det, edges=tuple(edges))


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
    leaves = subtree_leaves(d, v, toward)
    out = {}
    for wp in leaves:
        lhs = character_of_monomial(group, alpha, group.generator(wp))
        rhs = qmod1(-pm[idx[v]][idx[wp]])
        out[wp] = (lhs, rhs)
    return out


# --- closed-form criteria -------------------------------------------------


def _string_fraction(g: ResolutionGraph, chain: Sequence[str]) -> tuple[int, int]:
    cf = continued_fraction_of_string([g.weight_of(x) for x in chain])
    return cf.numerator, cf.denominator


def end_node_criterion_slack(g: ResolutionGraph, v: str, v_star: str) -> int:
    """Integer slack of the end-node inequality for the edge from v to the
    end-node v_star: n*b - p - sum(ceil(n*p_i/n_i)) over the leaf strings."""
    d = splice_from_resolution(g)
    if v_star not in d.adjacency.get(v, ()):
        raise NotEndNodeEdge(f"({v}, {v_star}) is not a diagram edge")
    if not d.is_node(v_star):
        raise NotEndNodeEdge(f"{v_star} is not a node")
    if any(not d.is_leaf(x) for x in d.adjacency[v_star] if x != v):
        raise NotEndNodeEdge(f"{v_star} is not an end-node seen from {v}")
    assert d.strings is not None
    b = -g.weight_of(v_star)
    n, p = _string_fraction(g, d.strings[(v_star, v)])
    slack = n * b - p
    for w in d.adjacency[v_star]:
        if w == v:
            continue
        chain = list(d.strings[(v_star, w)]) + [w]
        n_i, p_i = _string_fraction(g, chain)
        slack -= -(-(n * p_i) // n_i)  # ceil
    return slack


def end_node_criterion(g: ResolutionGraph, v: str, v_star: str) -> bool:
    """True when the semigroup and congruence conditions hold at the edge
    from v toward the end-node v_star (closed form)."""
    return end_node_criterion_slack(g, v, v_star) >= 0


def two_node_criterion(g: ResolutionGraph) -> bool:
    """Closed-form conjunction of the two end-node criteria of a two-node
    graph; equivalent to semigroup plus congruence."""
    d = splice_from_resolution(g)
    nodes = d.nodes
    if len(nodes) != 2:
        raise NotTwoNode(f"graph has {len(nodes)} nodes")
    a, b = nodes
    return end_node_criterion(g, a, b) and end_node_criterion(g, b, a)
