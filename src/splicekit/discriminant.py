"""The discriminant group of a resolution graph and its leaf characters.

Elements live in (Q/Z)^t, t the number of leaves; each leaf contributes a
generator whose entries are the pairings of its dual basis vector with the
other leaf duals. All values are exact rationals mod 1, never floats.
The group checks and the invariant factors come from the Smith diagonal
of the leaf block, with no transform tracked, taken modulo the part of the
determinant built from the primes that divide every entry of the block
(``_tree_span_check``): on a tree every drop-one index is 1 (the lemma in
``group_order_check``). That block is read from the leaves' linking rows
alone, one walk per leaf. Element listing (``enumerate_elements``, capped
per call, at ``DEFAULT_GROUP_CAP`` by default) serves only test oracles.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, prod
from typing import Mapping, NamedTuple, Sequence

from .analysis import Analysis, analysis_of, linking_row
from .errors import CapExceeded
from .graph import ResolutionGraph, graph_determinant, leaves_of
from .linalg import smith_diagonal

QTuple = tuple[Fraction, ...]

DEFAULT_GROUP_CAP = 1_000_000


def qmod1(x: Fraction) -> Fraction:
    return x - (x // 1)


def pairing_matrix(g: ResolutionGraph | Analysis) -> list[list[Fraction]]:
    """Exact inverse of the intersection matrix (dual-basis pairings): -L/det
    with L the linking matrix, since A * L = -det * I; rows as in
    ``splice.linking_matrix``."""
    g = (a := analysis_of(g)).graph
    return [[Fraction(-x, g.det) for x in a.memo(linking_row, v)] for v in g.ids]


class DiscriminantGroup(NamedTuple):
    """Finite abelian group presented by its leaf generators in (Q/Z)^t."""

    leaves: tuple[str, ...]
    order: int
    generators: Mapping[str, QTuple]

    def generator(self, leaf: str) -> QTuple:
        return self.generators[leaf]

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

        Raises CapExceeded when the group order is beyond the cap, by default
        ``DEFAULT_GROUP_CAP``, which SPLICEKIT_ENUM_CAP does not change.
        """
        limit = DEFAULT_GROUP_CAP if cap is None else cap
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


def scaled_leaf_block(
    g: ResolutionGraph | Analysis,
) -> tuple[tuple[str, ...], list[list[int]], int]:
    """(leaves, G, det), G = (-L) mod det on the leaf block of the linking
    matrix: row w is the generator at w scaled by det. Only the leaves'
    linking rows are walked, through the analysis. Read as
    ``a.memo(scaled_leaf_block)``, once per analysis a."""
    leaves = leaves_of(g := (a := analysis_of(g)).graph)
    rows = [a.memo(linking_row, w) for w in leaves]  # raises NotNegativeDefinite
    det, idx = graph_determinant(g), [g.index[w] for w in leaves]
    return leaves, [[-row[j] % det for j in idx] for row in rows], det


def leaf_generators(g: ResolutionGraph | Analysis) -> DiscriminantGroup:
    """Leaf generators read off the leaf block of the pairing matrix -L/det.

    Sign convention: the entry of the generator at leaf j against leaf i
    is the raw dual pairing (non-positive before mod-1 reduction), so the
    character formulas downstream match without extra signs.
    """
    leaves, block, det = analysis_of(g).memo(scaled_leaf_block)
    gens = {w: tuple(Fraction(x, det) for x in row) for w, row in zip(leaves, block)}
    return DiscriminantGroup(leaves=leaves, order=det, generators=gens)


class GroupCheck(NamedTuple):
    """The three checks on the span of the leaf generators in (Q/Z)^t.
    ``enumerated_order`` is the order of that span, the product of its
    invariant factors, read off the Smith diagonal of the scaled leaf block
    mod the g0-smooth part M of det (``_tree_span_check``) times det / M."""

    order: int
    enumerated_order: int
    order_ok: bool
    drop_one_ok: bool
    no_pseudo_reflections: bool
    # invariant factors > 1 of the span, ascending (each divides the next)
    invariant_factors: tuple[int, ...] = ()

    @property
    def ok(self) -> bool:
        return self.order_ok and self.drop_one_ok and self.no_pseudo_reflections


def _tree_span_check(rows: Sequence[Sequence[int]], d: int) -> GroupCheck:
    """The checks on the span H in (Z/d)^t of the rows of a tree's scaled
    leaf block. Let g0 = gcd(d, every entry) and M the largest divisor of
    d whose primes all divide g0. With s the Smith diagonal of the block
    taken mod M, the M / gcd(s_i, M) are the M-parts of the invariant
    factors of H; the rest of d, d / M, is cyclic in H and joins the
    largest factor. That, drop-one and pseudo-reflections follow from
    |H| = d by the lemma in ``group_order_check``. When g0 = 1, M = 1 and
    H is cyclic of order d."""
    g0 = d
    for i, row in enumerate(rows):  # the block is symmetric
        g0 = gcd(g0, *row[i:])
    smooth, rest = 1, d
    while (f := gcd(rest, g0)) > 1:
        smooth, rest = smooth * f, rest // f
    diagonal = smith_diagonal(rows, modulus=smooth)
    # a graph with no leaves is empty, with d = 1
    *steps, top = sorted(smooth // gcd(s, smooth) for s in diagonal) or [1]
    steps.append(top * rest)
    spanned = prod(steps)
    return GroupCheck(
        order=d,
        enumerated_order=spanned,
        order_ok=spanned == d,
        drop_one_ok=len(rows) < 2 or spanned == d,
        no_pseudo_reflections=True,
        invariant_factors=tuple(e for e in steps if e > 1),
    )


def group_order_check(g: ResolutionGraph | Analysis) -> GroupCheck:
    """The leaf generators span a group of order det (``enumerated_order``
    is the order of their span); with two or more leaves, any one of them
    can be dropped, and no non-zero element has a single non-zero entry
    (fixes a coordinate hyperplane). No element is listed, and only the
    Smith diagonal of the leaf block is taken.

    Lemma: on a tree with t >= 2 leaves, the classes x_i of the other
    leaves generate D = Z^n/AZ^n for every leaf j. Here x_v is the class
    of e_v, the dual e_v* under A^-1, with relations
    w_u*x_u + sum over v ~ u of x_v = 0. Proof: root the tree at j and
    work in D/<x_i : i != j>. Every vertex u != j is 0 there, by induction
    up from the leaves: a leaf i != j is 0 by definition, and any other u
    has a child c, whose relation w_c*x_c + x_u + sum over c's children = 0
    has every term but x_u already 0. Last, the relation at j's neighbour
    gives x_j = 0. The leaf generators are the images of the x_w under the
    non-degenerate pairing with the leaf duals, so the span H_j of all but
    generator j is the span H of them all: each drop-one index
    m_j = [H : H_j] is 1, and dropping a generator keeps order det exactly
    when H has it. Forgetting coordinate j maps H onto the span of the
    columns of the block but j, of order |H_j| = |H| as the block is
    symmetric, and its kernel is the elements non-zero only at j, so no
    pseudo-reflection is left.

    Since |H| = det, a prime p of det that does not divide
    g0 = gcd(det, every entry of the scaled block) gives H a cyclic p-part:
    some entry x of some generator is prime to p, so that generator has
    order divisible by p^v_p(det), which is already the p-part of |H|.
    Only the primes of g0 need the Smith diagonal, taken mod the part M of
    det they build; the rest, det / M, joins the largest invariant factor.
    """
    _, block, det = analysis_of(g).memo(scaled_leaf_block)
    return _tree_span_check(block, det)


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
