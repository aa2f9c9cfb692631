"""Reference routes that the production routes are checked against.

The library reads definiteness from its subtree-determinant table; these
apply Sylvester's criterion to the matrix itself. It checks the
discriminant group from one Smith normal form of the leaf block;
``enumerated_group_check`` lists the elements, and
``full_group_character_oracle`` tests witnesses against every element, not
only the leaf generators. It fills the ideal generators in one table;
``ideal_generator_recursive`` recurses per edge. It finds fundamental
cycles with a worklist; ``fundamental_cycle_rescan`` rescans the whole set
after every bump. The invariant factors come from the leaf block;
``invariant_factors_full`` takes the n-by-n Smith form of -A.
"""

from fractions import Fraction
from math import gcd, prod
from typing import Iterable, Mapping, Sequence

from splicekit.conditions import check_congruence
from splicekit.cycles import QCycle
from splicekit.discriminant import DiscriminantGroup, GroupCheck, leaf_generators
from splicekit.errors import UnknownEdge
from splicekit.graph import ResolutionGraph, negated_intersection_matrix
from splicekit.linalg import determinant, smith_normal_form
from splicekit.splice import SpliceDiagram


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


def invariant_factors_full(g: ResolutionGraph) -> list[int]:
    """Diagonal of the n-by-n integer Smith form of -A."""
    return list(smith_normal_form(negated_intersection_matrix(g)).diagonal)
