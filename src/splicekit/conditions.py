"""Semigroup and congruence conditions, with closed-form end-node criteria.

One bounded search per edge, ``search_edge``, decides the semigroup test
(its first vector) and the congruence test (its first vector meeting the
integer congruence table, denominators cleared by the determinant), made
once per ``Analysis`` by ``congruence_edge`` for both reports and the 3.3
fallback. Every verdict is a ``Decision``: pass, fail or undecided. The
table holds integer rows read off the leaves' linking rows; the name-keyed
``LeafCongruence`` certificate is built for a failing edge only. Each
search tests at most ``solution_limit()`` vectors: 10^5, or
SPLICEKIT_ENUM_CAP, which only this module reads, once per analysis. The
test oracles keep the exact-rational route and the name-keyed table read
off a node's row; the suite asserts agreement.
"""

from __future__ import annotations

import os
from itertools import islice
from math import gcd
from typing import Callable, Iterator, NamedTuple, Sequence

from .analysis import Analysis, analysis_of, linking_row
from .cfrac import continued_fraction_of_string
from .errors import NotEndNodeEdge, NotTwoNode, ValidationError
from .frozen import report_failures, report_ok
from .graph import ResolutionGraph, graph_determinant
from .splice import SpliceDiagram, is_end_node, splice_from_resolution

DEFAULT_SOLUTION_LIMIT = 100_000

_ENV_VAR = "SPLICEKIT_ENUM_CAP"


def solution_limit(override: int | None = None) -> int:
    """Per-edge cap on enumerated exponent solutions: the override, else
    SPLICEKIT_ENUM_CAP, else ``DEFAULT_SOLUTION_LIMIT``. Raises
    ValidationError when the override, or the variable where it is read, is
    not a positive integer."""
    if override is not None:
        if override > 0:
            return override
        raise ValidationError(f"search limit must be a positive integer, got {override!r}")
    raw = os.environ.get(_ENV_VAR)
    if raw is None:
        return DEFAULT_SOLUTION_LIMIT
    try:
        if (value := int(raw)) > 0:
            return value
    except ValueError:
        pass
    raise ValidationError(f"{_ENV_VAR} must be a positive integer, got {raw!r}")


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
    in lexicographically ascending order.

    A budget bounds the number of visited search nodes; when it runs out the
    generator stops early with budget.exhausted set. Raises ValueError, on
    the first step, unless every value is positive.
    """
    if not all(x > 0 for x in values):
        raise ValueError(f"values must be positive: {list(values)}")
    if target < 0:  # positive values make no negative sum
        return
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


class AdmissibleExponents(NamedTuple):
    """Exponent vector witnessing that an edge weight lies in the semigroup
    spanned by the reduced linking numbers toward that edge."""

    node: str
    toward: str
    exponents: tuple[tuple[str, int], ...]

    def as_dict(self) -> dict[str, int]:
        return dict(self.exponents)


class ExponentSolutions(NamedTuple):
    node: str
    toward: str
    leaves: tuple[str, ...]
    values: tuple[int, ...]
    target: int
    solutions: tuple[AdmissibleExponents, ...]
    truncated: bool


class LeafCongruence(NamedTuple):
    """One per-leaf integer congruence sum(coeff_w * a_w) = target (mod m)."""

    leaf: str
    coefficients: tuple[tuple[str, int], ...]
    target: int
    modulus: int


class SolvedCongruence(NamedTuple):
    """Single-variable form a = residue (mod modulus) at an end-node edge."""

    leaf: str
    residue: int
    modulus: int


class Decision(NamedTuple):
    """The verdict on one searched diagram edge (node, toward) or 3.3 branch
    (node, attach). A search passes with its witness, fails when it ran
    through every vector and undecided when it ran out first (``_status``);
    a greedy 3.3 branch passes with method "constructive". A failing
    congruence decision carries the table and, toward an end-node, the
    solved single-variable congruences."""

    node: str
    toward: str
    status: str  # "pass" | "fail" | "undecided"
    method: str  # "search" | "constructive"
    witness: AdmissibleExponents | None
    tested: int = 0
    congruences: tuple[LeafCongruence, ...] = ()
    solved: tuple[SolvedCongruence, ...] = ()

    ok = property(lambda self: self.status == "pass")
    truncated = property(lambda self: self.status == "undecided")  # the search ran out


def _status(witness: AdmissibleExponents | None, ran_out: bool) -> str:
    """A search's status: pass with a witness, else undecided when it ran
    out of vectors or nodes before the space did, else fail."""
    return "pass" if witness is not None else "undecided" if ran_out else "fail"


def search_edge(
    d: SpliceDiagram,
    v: str,
    toward: str,
    cap: int,
    accept: Callable[[tuple[int, ...]], object] | None = None,
) -> tuple[Decision, Decision]:
    """The edge's semigroup decision (from the first vector found) and the
    decision of the same search for the first vector that passes `accept`
    (the first one at all without a test), with the vectors tested. The
    search runs out after `cap` vectors, or when its node budget of
    max(16 * cap, 2^20) does (``_status``). `accept` sees the raw exponents,
    aligned with ``d.edge_leaves``; only the vectors returned are wrapped.
    Raises UnknownEdge."""
    leaves, values = d.edge_leaves(v, toward)
    target = d.weights[(v, toward)]
    budget = SearchBudget(max(cap * 16, 1 << 20))
    solutions = iter_nonnegative_solutions(values, target, budget)
    first = found = None
    tested = 0
    for tested, alpha in enumerate(islice(solutions, cap), 1):
        if first is None:
            first = alpha
        if accept is None or accept(alpha):
            found = alpha
            break
    # past the cap, one more vector means it ran out, as does a spent budget
    ran_out = found is None and (next(solutions, None) is not None or budget.exhausted)
    # each vector returned is wrapped once; first is None only when found is
    witness = None if found is None else AdmissibleExponents(v, toward, tuple(zip(leaves, found)))
    head = witness if first is found else AdmissibleExponents(v, toward, tuple(zip(leaves, first)))
    return (
        Decision(v, toward, _status(head, ran_out), "search", head, int(head is not None)),
        Decision(v, toward, _status(witness, ran_out), "search", witness, tested),
    )


def admissible_exponents(
    d: SpliceDiagram, v: str, toward: str, limit: int | None = None
) -> ExponentSolutions:
    """Complete bounded enumeration of admissible exponent vectors.

    Exceeding the limit is reported through the `truncated` flag; the
    partial list is still returned. Raises UnknownEdge.
    """
    leaves, values = d.edge_leaves(v, toward)
    out: list[tuple[int, ...]] = []  # append returns None: every vector is kept, none accepted
    truncated = search_edge(d, v, toward, solution_limit(limit), out.append)[1].truncated
    return ExponentSolutions(
        node=v,
        toward=toward,
        leaves=leaves,
        values=values,
        target=d.weights[(v, toward)],
        solutions=tuple(AdmissibleExponents(v, toward, tuple(zip(leaves, a))) for a in out),
        truncated=truncated,
    )


class SemigroupReport(NamedTuple):
    edges: tuple[Decision, ...]

    ok, failures = report_ok, report_failures


def check_semigroup(d: SpliceDiagram) -> SemigroupReport:
    """Each node-edge weight must lie in the semigroup spanned by the
    reduced linking numbers toward that edge. Edges to leaves always pass
    (the single exponent is the weight itself). An edge whose search ran
    out before the space did is undecided, not failed. Each search stops
    at its first vector; on a resolution
    graph, ``check_congruence(g).semigroup`` reads the same report."""
    cap = solution_limit()
    return SemigroupReport(edges=tuple(
        search_edge(d, v, u, cap)[0] for v in d.nodes for u in d.adjacency[v]
    ))


class CongruenceReport(NamedTuple):
    determinant: int
    semigroup: SemigroupReport  # the semigroup decisions of the same searches
    edges: tuple[Decision, ...]

    ok, failures = report_ok, report_failures


CongruenceTable = tuple[int, tuple[tuple[int, tuple[int, ...]], ...]]


def _congruence_table(a: Analysis, v: str, leaves: tuple[str, ...]) -> CongruenceTable:
    """(det, rows): for each leaf j of the edge, the row (L[j][v] mod det,
    (L[w][j] mod det for each leaf w of the edge)). L is symmetric, so the
    leaves' linking rows hold every entry and no node's row is walked."""
    rows = [a.memo(linking_row, w) for w in leaves]  # raises NotNegativeDefinite
    index, det = a.graph.index, a.graph.det
    i, cols = index[v], [index[w] for w in leaves]
    return det, tuple(
        (row_j[i] % det, tuple(row[j] % det for row in rows)) for row_j, j in zip(rows, cols)
    )


def _satisfies(table: CongruenceTable, alpha: Sequence[int]) -> bool:
    """Whether the exponents alpha, aligned with the table's leaves, meet
    every congruence of the table."""
    det, rows = table
    for target, coeffs in rows:
        if (sum(c * a for c, a in zip(coeffs, alpha)) - target) % det:
            return False
    return True


def _solved_congruences(
    g: ResolutionGraph, d: SpliceDiagram, v: str, v_star: str
) -> tuple[SolvedCongruence, ...]:
    """Per-leaf single-variable congruences for an edge toward an end-node:
    the exponent at each leaf must be = -n*p_i modulo the leaf string
    determinant, n the central string determinant (1 for an empty string)."""
    n, _, leaves = _end_node_fractions(g, d, v, v_star)
    return tuple(
        SolvedCongruence(leaf=w, residue=(-n * p_i) % n_i, modulus=n_i) for w, n_i, p_i in leaves
    )


def _search_cap(a: Analysis) -> int:
    return solution_limit()


def congruence_edge(a: Analysis, v: str, toward: str) -> tuple[Decision, Decision]:
    """The semigroup and congruence decisions of one search on a node edge
    of the splice diagram, the second for the first admissible vector that
    meets the per-leaf congruence table, under the cap read on the first
    search of a. Made once per analysis: ``a.memo(congruence_edge, v, t)``.
    """
    g, cap, d = a.graph, a.memo(_search_cap), splice_from_resolution(a)
    leaves = d.edge_leaves(v, toward)[0]
    table = _congruence_table(a, v, leaves)
    semigroup, congruence = search_edge(d, v, toward, cap, lambda alpha: _satisfies(table, alpha))
    if congruence.ok:
        return semigroup, congruence
    # v is a node, so toward is an end-node seen from v exactly when it is one at all
    end_edge = semigroup.ok and is_end_node(d, toward)
    return semigroup, congruence._replace(
        congruences=tuple(
            LeafCongruence(w, tuple(zip(leaves, coeffs)), target, table[0])
            for w, (target, coeffs) in zip(leaves, table[1])
        ),
        solved=_solved_congruences(g, d, v, toward) if end_edge else (),
    )


def check_congruence(g: ResolutionGraph | Analysis) -> CongruenceReport:
    """Search each node edge for an admissible exponent vector whose
    per-leaf characters match the required ones.

    Only the leaf generators are tested: characters are homomorphisms from
    the discriminant group, which the leaf generators span, so equivariance
    under each generator is equivariance under the whole group.

    Failures carry the per-leaf congruence table (denominators cleared by
    the determinant) and, for edges toward an end-node, the solved
    single-variable congruences. ``semigroup`` holds the semigroup
    decisions of the same searches.
    """
    d = splice_from_resolution(a := analysis_of(g))
    pairs = [a.memo(congruence_edge, v, u) for v in d.nodes for u in d.adjacency[v]]
    return CongruenceReport(
        determinant=graph_determinant(a.graph),
        semigroup=SemigroupReport(edges=tuple(s for s, _ in pairs)),
        edges=tuple(c for _, c in pairs),
    )


# --- closed-form criteria -------------------------------------------------


def _string_fraction(g: ResolutionGraph, chain: Sequence[str]) -> tuple[int, int]:
    cf = continued_fraction_of_string([g.weight_of(x) for x in chain])
    return cf.numerator, cf.denominator


def _end_node_fractions(
    g: ResolutionGraph, d: SpliceDiagram, v: str, v_star: str
) -> tuple[int, int, list[tuple[str, int, int]]]:
    """n/p, the continued fraction of the string from the end-node v_star to
    v, and (w, n_i, p_i) for that of the string from v_star out to each
    leaf w != v, w included."""
    n, p = _string_fraction(g, d.strings[(v_star, v)])
    ends = [w for w in d.adjacency[v_star] if w != v]
    return n, p, [(w, *_string_fraction(g, [*d.strings[(v_star, w)], w])) for w in ends]


def end_node_criterion_slack(g: ResolutionGraph | Analysis, v: str, v_star: str) -> int:
    """Integer slack of the end-node inequality for the edge from v to the
    end-node v_star: n*b - p - sum(ceil(n*p_i/n_i)) over the leaf strings."""
    d, g = splice_from_resolution(a := analysis_of(g)), a.graph
    if v_star not in d.adjacency.get(v, ()):
        raise NotEndNodeEdge(f"({v}, {v_star}) is not a diagram edge")
    if not d.is_node(v_star):
        raise NotEndNodeEdge(f"{v_star} is not a node")
    if any(not d.is_leaf(x) for x in d.adjacency[v_star] if x != v):
        raise NotEndNodeEdge(f"{v_star} is not an end-node seen from {v}")
    assert d.strings is not None
    b = -g.weight_of(v_star)
    n, p, leaves = _end_node_fractions(g, d, v, v_star)
    slack = n * b - p
    for _, n_i, p_i in leaves:
        slack -= -(-(n * p_i) // n_i)  # ceil
    return slack


def end_node_criterion(g: ResolutionGraph | Analysis, v: str, v_star: str) -> bool:
    """True when the semigroup and congruence conditions hold at the edge
    from v toward the end-node v_star (closed form)."""
    return end_node_criterion_slack(g, v, v_star) >= 0


def two_node_criterion(g: ResolutionGraph | Analysis) -> bool:
    """Closed-form conjunction of the two end-node criteria of a two-node
    graph; equivalent to semigroup plus congruence. Both read the diagram
    of one analysis."""
    nodes = splice_from_resolution(a := analysis_of(g)).nodes
    if len(nodes) != 2:
        raise NotTwoNode(f"graph has {len(nodes)} nodes")
    v, w = nodes
    return end_node_criterion(a, v, w) and end_node_criterion(a, w, v)
