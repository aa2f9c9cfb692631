"""The discriminant group of a resolution graph and its leaf characters.

Elements live in (Q/Z)^t, t the number of leaves; each leaf contributes a
generator whose entries are the pairings of its dual basis vector with the
other leaf duals. All values are exact rationals mod 1, never floats.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Mapping, Sequence

from . import config
from .errors import CapExceeded
from .graph import ResolutionGraph, graph_determinant, leaves_of

QTuple = tuple[Fraction, ...]


def qmod1(x: Fraction) -> Fraction:
    return x - (x // 1)


def pairing_matrix(g: ResolutionGraph) -> list[list[Fraction]]:
    """Exact inverse of the intersection matrix (dual-basis pairings): -L/det
    with L the linking matrix, since A * L = -det * I."""
    rows = g.linking_rows  # raises NotNegativeDefinite
    return [[Fraction(-x, g.det) for x in row] for row in rows]


@dataclass(frozen=True)
class DiscriminantGroup:
    """Finite abelian group presented by its leaf generators in (Q/Z)^t."""

    leaves: tuple[str, ...]
    order: int
    generators: Mapping[str, QTuple]

    def generator(self, leaf: str) -> QTuple:
        return self.generators[leaf]

    def element_order(self, element: QTuple) -> int:
        """Order in (Q/Z)^t: lcm of the entry denominators."""
        return lcm(*(q.denominator for q in element)) if element else 1

    def scaled_generators(self) -> dict[str, tuple[int, ...]]:
        """Generators as integer tuples scaled by the group order."""
        out = {}
        for leaf, gen in self.generators.items():
            scaled = []
            for q in gen:
                s = q * self.order
                if s.denominator != 1:
                    raise ValueError("entry denominator does not divide order")
                scaled.append(int(s) % self.order)
            out[leaf] = tuple(scaled)
        return out

    def enumerate_elements(
        self,
        cap: int | None = None,
        generators: Sequence[str] | None = None,
    ) -> frozenset[tuple[int, ...]]:
        """All elements of the subgroup spanned by the given leaf generators,
        as integer tuples scaled by the group order.

        Raises CapExceeded when the group order is beyond the cap.
        """
        limit = config.group_cap(cap)
        if self.order > limit:
            raise CapExceeded(f"group order {self.order} exceeds cap {limit}")
        names = tuple(generators) if generators is not None else self.leaves
        scaled = self.scaled_generators()
        gens = [scaled[name] for name in names]
        d = self.order
        t = len(self.leaves)
        zero = tuple([0] * t)
        seen = {zero}
        frontier = [zero]
        while frontier:
            nxt = []
            for el in frontier:
                for gen in gens:
                    cand = tuple((a + b) % d for a, b in zip(el, gen))
                    if cand not in seen:
                        seen.add(cand)
                        nxt.append(cand)
            frontier = nxt
        return frozenset(seen)


def leaf_generators(g: ResolutionGraph) -> DiscriminantGroup:
    """Leaf generators read off the rows of the pairing matrix.

    Sign convention: the entry of the generator at leaf j against leaf i
    is the raw dual pairing (non-positive before mod-1 reduction), so the
    character formulas downstream match without extra signs.
    """
    pm = pairing_matrix(g)
    det = graph_determinant(g)
    leaves = leaves_of(g)
    idx = g.index
    gens = {
        w: tuple(qmod1(pm[idx[w]][idx[u]]) for u in leaves)
        for w in leaves
    }
    return DiscriminantGroup(leaves=leaves, order=det, generators=gens)


@dataclass(frozen=True)
class GroupCheck:
    order: int
    enumerated_order: int
    order_ok: bool
    drop_one_ok: bool
    no_pseudo_reflections: bool

    @property
    def ok(self) -> bool:
        return self.order_ok and self.drop_one_ok and self.no_pseudo_reflections


def group_order_check(g: ResolutionGraph, cap: int | None = None) -> GroupCheck:
    """Enumerate the group and verify its structural properties:

    - the leaf generators span a group of order det;
    - dropping any single generator still spans everything (skipped for a
      one-leaf graph, where the single generator is the whole datum);
    - no non-identity element fixes a coordinate hyperplane, i.e. every
      non-zero element has at least two non-zero entries (also only
      meaningful with >= 2 leaves).
    """
    group = leaf_generators(g)
    elements = group.enumerate_elements(cap)
    order_ok = len(elements) == group.order
    t = len(group.leaves)
    drop_one_ok = True
    if t >= 2:
        for skip in group.leaves:
            names = tuple(w for w in group.leaves if w != skip)
            sub = group.enumerate_elements(cap, generators=names)
            if len(sub) != group.order:
                drop_one_ok = False
                break
    no_pseudo = True
    if t >= 2:
        for el in elements:
            nonzero = sum(1 for x in el if x)
            if 0 < nonzero < 2:
                no_pseudo = False
                break
    return GroupCheck(
        order=group.order,
        enumerated_order=len(elements),
        order_ok=order_ok,
        drop_one_ok=drop_one_ok,
        no_pseudo_reflections=no_pseudo,
    )


def character_of_monomial(
    group: DiscriminantGroup,
    exponents: Mapping[str, int],
    element: QTuple,
) -> Fraction:
    """Character value (mod 1) by which an element multiplies a monomial.

    The element is given by its pairings with the leaf duals, in leaf
    order; a monomial with exponents a_w picks up minus the weighted sum
    of those pairings.
    """
    total = Fraction(0)
    for leaf, q in zip(group.leaves, element):
        a = exponents.get(leaf, 0)
        if a:
            total -= a * q
    return qmod1(total)


def leaf_character(
    group: DiscriminantGroup, exponents: Mapping[str, int], leaf: str
) -> Fraction:
    """Character of a monomial under the generator attached to a leaf."""
    return character_of_monomial(group, exponents, group.generator(leaf))
