"""Reference routes that the production routes are checked against.

The library reads definiteness from its subtree-determinant table; these
apply Sylvester's criterion to the matrix itself. It checks the
discriminant group from one Smith normal form; ``enumerated_group_check``
lists the elements breadth-first. It fills the ideal generators in one
table; ``ideal_generator_recursive`` recurses per edge.
"""

from math import gcd, prod
from typing import Sequence

from splicekit.discriminant import DiscriminantGroup, GroupCheck
from splicekit.errors import UnknownEdge
from splicekit.linalg import determinant
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
