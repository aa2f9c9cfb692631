"""The discriminant group of a resolution graph and its leaf characters.

Elements live in (Q/Z)^t, t the number of leaves; each leaf contributes a
generator whose entries are the pairings of its dual basis vector with the
other leaf duals. All values are exact rationals mod 1, never floats.
The group checks and the invariant factors come from one Smith normal form
of the leaf block, taken modulo the determinant, at any determinant; that
block is read from the leaves' linking rows alone, one walk per leaf.
Element listing (``enumerate_elements``, capped) serves only test oracles.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm, prod
from typing import Mapping, Sequence

from . import config
from .errors import CapExceeded
from .graph import ResolutionGraph, graph_determinant, leaves_of
from .linalg import smith_normal_form

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
        d = self.order
        # Close the span one generator at a time: S + k*g for k = 1, 2, ...
        # are new cosets of S until k*g lies in S, so each element is built once.
        span = {tuple([0] * len(self.leaves))}
        for gen in (scaled[name] for name in names):
            base, shift = list(span), gen
            while shift not in span:
                span.update(tuple((a + b) % d for a, b in zip(el, shift)) for el in base)
                shift = tuple((a + b) % d for a, b in zip(shift, gen))
        return frozenset(span)


def _scaled_leaf_block(g: ResolutionGraph) -> tuple[tuple[str, ...], list[list[int]], int]:
    """(leaves, G, det), G = (-L) mod det on the leaf block of the linking
    matrix: row w is the generator at w scaled by det. Only the leaves'
    linking rows are walked."""
    leaves = leaves_of(g)
    rows = [g.linking_row(w) for w in leaves]  # raises NotNegativeDefinite
    det, idx = graph_determinant(g), [g.index[w] for w in leaves]
    return leaves, [[-row[j] % det for j in idx] for row in rows], det


def leaf_generators(g: ResolutionGraph) -> DiscriminantGroup:
    """Leaf generators read off the leaf block of the pairing matrix -L/det.

    Sign convention: the entry of the generator at leaf j against leaf i
    is the raw dual pairing (non-positive before mod-1 reduction), so the
    character formulas downstream match without extra signs.
    """
    leaves, block, det = _scaled_leaf_block(g)
    gens = {w: tuple(Fraction(x, det) for x in row) for w, row in zip(leaves, block)}
    return DiscriminantGroup(leaves=leaves, order=det, generators=gens)


@dataclass(frozen=True)
class GroupCheck:
    order: int
    enumerated_order: int
    order_ok: bool
    drop_one_ok: bool
    no_pseudo_reflections: bool
    # invariant factors > 1 of the span, ascending (each divides the next)
    invariant_factors: tuple[int, ...] = field(default=(), compare=False)

    @property
    def ok(self) -> bool:
        return self.order_ok and self.drop_one_ok and self.no_pseudo_reflections


def _span_check(rows: Sequence[Sequence[int]], d: int) -> GroupCheck:
    """The checks on the span H in (Z/d)^t of the rows of a symmetric
    t-by-t integer matrix G, from one Smith normal form U*G*V = diag(s)
    taken mod d (U stays invertible mod d, so nothing below changes):

    - with e_i = d / gcd(s_i, d), |H| = prod(e_i), H is the sum of cyclic
      groups of orders e_i, and the rows e_i*U_i span the relations
      c*G = 0 mod d (c = c'*U with e_i | c'_i);
    - the gcd m_j of d and the j-th entries of those rows is the index in
      H of the span without row j (drop-one: every |H| = d * m_j);
    - forgetting coordinate j maps H onto the span of the columns of G but
      j, of order |H| / m_j as G is symmetric, with kernel the elements
      non-zero only at j (no pseudo-reflection: every m_j = 1; t >= 2).
    """
    t = len(rows)
    snf = smith_normal_form(rows, modulus=d)
    steps = [d // gcd(s, d) for s in snf.diagonal]
    spanned = prod(steps)
    indices = [gcd(d, *(e * row[j] for e, row in zip(steps, snf.left))) for j in range(t)]
    return GroupCheck(
        order=d,
        enumerated_order=spanned,
        order_ok=spanned == d,
        drop_one_ok=t < 2 or all(spanned == d * m for m in indices),
        no_pseudo_reflections=t < 2 or all(m == 1 for m in indices),
        invariant_factors=tuple(sorted(e for e in steps if e > 1)),
    )


def group_order_check(g: ResolutionGraph) -> GroupCheck:
    """The leaf generators span a group of order det (``enumerated_order``
    is the order of their span); with two or more leaves, any one of them
    can be dropped, and no non-zero element has a single non-zero entry
    (fixes a coordinate hyperplane). No element is listed."""
    _, block, det = _scaled_leaf_block(g)
    return _span_check(block, det)


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
