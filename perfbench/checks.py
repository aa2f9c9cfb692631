"""Exact re-checks of the program's outputs, run outside the timed region.

Oracles: ``splice.tree_determinant`` for the determinant, the library's
linking matrix L once it satisfies A.L = -det.I exactly (A the intersection
matrix built here), and subtree determinants computed here by eliminating
leaves over Fractions. Every semigroup, congruence and 3.3 witness in a
report is re-checked against L.
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import cached_property
from math import prod

from splicekit.graph import ResolutionGraph
from splicekit.splice import linking_matrix, tree_determinant

# Exit codes an operation may return: 1 is a verdict of `report`, not a failure.
ALLOWED_EXIT = {"report": (0, 1), "det": (0,), "splice": (0,), "maximal": (0,), "group": (0,)}


class Mismatch(Exception):
    """An output disagrees with its oracle."""


class GraphFacts:
    """Oracle values for one graph, each computed on first use."""

    def __init__(self, g: ResolutionGraph):
        self.g = g

    @cached_property
    def det(self) -> int:
        return tree_determinant(self.g)

    @cached_property
    def leaves(self) -> tuple[str, ...]:
        return tuple(v for v in self.g.ids if self.g.degree(v) == 1)

    @cached_property
    def linking(self) -> dict[tuple[str, str], int]:
        g = self.g
        n = len(g.ids)
        lmat = linking_matrix(g)
        # Row i of A: the weight at i on the diagonal, 1 at each neighbour.
        neighbours: list[list[int]] = [[] for _ in range(n)]
        for u, v in g.edges:
            neighbours[g.index[u]].append(g.index[v])
            neighbours[g.index[v]].append(g.index[u])
        for i in range(n):
            for j in range(n):
                entry = g.weights[i] * lmat[i][j] + sum(lmat[k][j] for k in neighbours[i])
                if entry != (-self.det if i == j else 0):
                    raise Mismatch("linking matrix fails A.L = -det.I")
        return {(u, v): lmat[i][j] for i, u in enumerate(g.ids) for j, v in enumerate(g.ids)}

    def component(self, removed: str, start: str) -> list[str]:
        """Vertices of g minus `removed` reachable from `start`, parents first."""
        order, parent = [start], {start: removed}
        for u in order:
            for x in self.g.adjacency[u]:
                if x != parent[u] and x != removed:
                    parent[x] = u
                    order.append(x)
        return order

    def branch_det(self, removed: str, start: str) -> int:
        """det of the negated intersection form on one branch at `removed`:
        the product of the pivots b_v - sum(1 / pivot_child), leaves first."""
        order = self.component(removed, start)
        pivot: dict[str, Fraction] = {}
        for v in reversed(order):
            kids = [x for x in self.g.adjacency[v] if x in pivot]
            pivot[v] = Fraction(-self.g.weight_of(v)) - sum(1 / pivot[x] for x in kids)
        det = prod(pivot.values())
        if det.denominator != 1:
            raise Mismatch(f"branch at {removed} toward {start} has no integral determinant")
        return int(det)


def check_output(op, facts: GraphFacts, code, text: str) -> str | None:
    """None when the output is right, else the reason it is not."""
    if code not in ALLOWED_EXIT[op.command]:
        return f"exit code {code}"
    try:
        payload = json.loads(text)
        CHECKERS[op.command](op, facts, code, text, payload)
    except Mismatch as exc:
        return str(exc)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return f"malformed output: {type(exc).__name__}: {exc}"
    return None


def _expect(ok: bool, reason: str) -> None:
    if not ok:
        raise Mismatch(reason)


def _exponents(pairs) -> dict[str, int]:
    alpha = {leaf: a for leaf, a in pairs}
    _expect(all(isinstance(a, int) and a >= 0 for a in alpha.values()), "negative exponent")
    return alpha


def _check_edge_witness(facts: GraphFacts, v: str, toward: str, pairs, congruence: bool) -> None:
    """Semigroup: sum(a_w L[w][v]) = L[v][v] over leaves beyond the edge
    (the edge weight times the other weights at v). Congruence also needs
    sum(a_w L[w][w']) = L[v][w'] mod det at every leaf w'."""
    lnk, alpha = facts.linking, _exponents(pairs)
    beyond = set(facts.component(v, toward))
    _expect(all(w in beyond and w in facts.leaves for w in alpha),
            f"witness at ({v}, {toward}) leaves the edge")
    total = sum(a * lnk[w, v] for w, a in alpha.items())
    _expect(total == lnk[v, v], f"semigroup witness at ({v}, {toward}) misses the edge weight")
    if congruence:
        for leaf in facts.leaves:
            total = sum(a * lnk[w, leaf] for w, a in alpha.items())
            _expect((total - lnk[v, leaf]) % facts.det == 0,
                    f"congruence witness at ({v}, {toward}) fails at {leaf}")


def _check_monomial_cycle(facts: GraphFacts, v: str, attach: str, pairs) -> None:
    """sum(a_k E*_k) - E*_v must be an effective integral cycle on the branch:
    in L terms, divisible by det and >= 0 on the branch, zero off it."""
    lnk, alpha = facts.linking, _exponents(pairs)
    branch = set(facts.component(v, attach))
    _expect(all(k in branch and k in facts.leaves for k in alpha),
            f"3.3 exponents at ({v}, {attach}) leave the branch")
    for j in facts.g.ids:
        total = sum(a * lnk[k, j] for k, a in alpha.items()) - lnk[v, j]
        if j in branch:
            _expect(total >= 0 and total % facts.det == 0,
                    f"3.3 cycle at ({v}, {attach}) not effective integral at {j}")
        else:
            _expect(total == 0, f"3.3 cycle at ({v}, {attach}) leaves the branch at {j}")


def _check_report(op, facts, code, text, report) -> None:
    if op.golden is not None:
        _expect(text == op.golden, "report differs from the golden file")
    _expect(report["determinant"] == facts.det, "determinant differs from tree_determinant")
    _check_splice(op, facts, code, text, report["splice"])
    _check_weights(facts, report["maximal"]["weights"])
    cond = report["conditions"]
    all_ok = all(s["ok"] for s in cond.values())
    _expect(code == (0 if all_ok else 1), "exit code disagrees with the verdicts")
    for e in cond["semigroup"]["edges"]:
        if e["ok"]:
            _check_edge_witness(facts, e["node"], e["toward"], e["witness"], congruence=False)
    for e in cond["congruence"]["edges"]:
        if e["ok"]:
            _check_edge_witness(facts, e["node"], e["toward"], e["witness"], congruence=True)
    for b in cond["okuma33"]["branches"]:
        if b["ok"]:
            _check_monomial_cycle(facts, b["node"], b["attach"], b["exponents"])
    both = cond["semigroup"]["ok"] and cond["congruence"]["ok"]
    _expect(cond["okuma33"]["ok"] == both,
            "condition 3.3 verdict differs from semigroup and congruence")


def _check_det(op, facts, code, text, payload) -> None:
    _expect(payload["determinant"] == facts.det, "determinant differs from tree_determinant")


def _check_weights(facts: GraphFacts, triples) -> dict[tuple[str, str], int]:
    weights = {}
    for at, toward, w in triples:
        _expect(w == facts.branch_det(at, toward),
                f"weight at {at} toward {toward} is not the branch determinant")
        weights[at, toward] = w
    return weights


def _check_splice(op, facts, code, text, payload) -> None:
    weights = _check_weights(facts, payload["weights"])
    node_edges = sum(facts.g.degree(v) for v in facts.g.ids if facts.g.degree(v) >= 3)
    _expect(len(weights) == node_edges, "splice diagram misses node weights")


def _check_maximal(op, facts, code, text, payload) -> None:
    g = facts.g
    weights = _check_weights(facts, payload["weights"])
    _expect(len(weights) == 2 * len(g.edges), "maximal diagram misses edge weights")
    for u, v in g.edges:
        around = prod(weights[u, x] for x in g.adjacency[u] if x != v) * prod(
            weights[v, x] for x in g.adjacency[v] if x != u
        )
        _expect(weights[u, v] * weights[v, u] - around == facts.det,
                f"edge determinant of ({u}, {v}) is not det")


def _check_group(op, facts, code, text, payload) -> None:
    det, lnk = facts.det, facts.linking
    _expect(payload["order"] == det, "group order differs from det")
    _expect(prod(payload["invariant_factors"]) == det, "invariant factors do not multiply to det")
    # Generators are rows of A^-1 = -L/det, mod 1.
    expected = {
        leaf: [str(Fraction(-lnk[leaf, other], det) % 1) for other in facts.leaves]
        for leaf in facts.leaves
    }
    _expect(payload["generators"] == expected, "leaf generators differ from -L/det mod 1")


CHECKERS = {
    "report": _check_report,
    "det": _check_det,
    "splice": _check_splice,
    "maximal": _check_maximal,
    "group": _check_group,
}
