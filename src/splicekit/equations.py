"""Symbolic equation systems attached to a splice diagram.

Each node contributes (valency - 2) equations, one admissible monomial per
incident edge, with exact integer coefficients whose maximal minors are
nonzero: they are generalized Vandermonde determinants on distinct positive
nodes (``generic_coefficients``), and the test suite's
``test_maximal_minors_nonzero`` computes them. Higher-order terms are
caller-supplied polynomial data, validated against the weight (and, in
equivariant mode, character) invariants.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Mapping, NamedTuple, Sequence

from .analysis import Analysis, analysis_of
from .conditions import (
    AdmissibleExponents, CongruenceReport, SemigroupReport, check_congruence, check_semigroup,
)
from .discriminant import DiscriminantGroup, leaf_character, leaf_generators
from .errors import (
    CongruenceFails,
    DegenerateMatrix,
    InvalidHigherTerm,
    SemigroupFails,
)
from .document import int_text
from .frozen import report_ok
from .graph import ResolutionGraph
from .linalg import gauss_jordan
from .splice import SpliceDiagram, linking_numbers, splice_from_resolution

Coefficient = int | Fraction


class Monomial(NamedTuple):
    """Product of leaf variables with non-negative exponents."""

    exponents: tuple[tuple[str, int], ...]

    @classmethod
    def from_mapping(
        cls, mapping: Mapping[str, int], order: Sequence[str]
    ) -> "Monomial":
        return cls(tuple((w, mapping[w]) for w in order if mapping.get(w, 0)))

    def as_dict(self) -> dict[str, int]:
        return dict(self.exponents)

    def render(self) -> str:
        if not self.exponents:
            return "1"
        return "*".join(f"z_{w}" if a == 1 else f"z_{w}^" + int_text(a) for w, a in self.exponents)


def v_weight(d: SpliceDiagram, v: str, monomial: Monomial | Mapping[str, int]) -> int:
    """Weighted degree of a monomial, grading each leaf variable by its
    linking number with the node v."""
    exps = monomial.as_dict() if isinstance(monomial, Monomial) else dict(monomial)
    total = 0
    for w, a in exps.items():
        if a:
            total += a * linking_numbers(d, v, w)[0]
    return total


HigherTerm = tuple[Coefficient, Monomial]


class NodeBlock(NamedTuple):
    node: str
    edges: tuple[str, ...]
    monomials: tuple[Monomial, ...]
    coefficients: tuple[tuple[Coefficient, ...], ...]
    higher_terms: tuple[tuple[HigherTerm, ...], ...] = ()


class SpliceEquationSystem(NamedTuple):
    variables: tuple[str, ...]
    blocks: tuple[NodeBlock, ...]
    equivariant: bool = False


def generic_coefficients(count: int, width: int) -> tuple[tuple[int, ...], ...]:
    """Deterministic small-integer rows with all maximal minors nonzero: the
    first `count` rows of the Vandermonde matrix on the distinct nodes
    1..width, whose maximal minors are generalized Vandermonde determinants
    on distinct positive nodes, hence nonzero."""
    return tuple(tuple(c ** i for c in range(1, width + 1)) for i in range(count))


def _validate_higher_terms(
    d: SpliceDiagram,
    node: str,
    eq_count: int,
    terms: Sequence[Sequence[HigherTerm]],
    group: DiscriminantGroup | None,
    first: Monomial,
) -> tuple[tuple[HigherTerm, ...], ...]:
    """With a group, each term must transform as the node's first monomial."""
    if len(terms) != eq_count:
        raise InvalidHigherTerm(
            f"node {node}: expected {eq_count} higher-term lists, got {len(terms)}"
        )
    limit = d.weight_product(node)
    reference: dict[str, Fraction] = {}
    if group is not None:
        reference = {w: leaf_character(group, first.as_dict(), w) for w in group.leaves}
    out = []
    for i, eq_terms in enumerate(terms):
        checked = []
        for coeff, mon in eq_terms:
            if coeff == 0:
                raise InvalidHigherTerm(f"node {node} eq {i}: zero coefficient")
            weight = v_weight(d, node, mon)
            if weight <= limit:
                raise InvalidHigherTerm(
                    f"node {node} eq {i}: term {mon.render()} has weight "
                    f"{weight}, not above {limit}"
                )
            if group is not None:
                for leaf in group.leaves:
                    if leaf_character(group, mon.as_dict(), leaf) != reference[leaf]:
                        raise InvalidHigherTerm(
                            f"node {node} eq {i}: term {mon.render()} transforms "
                            f"differently under the generator at leaf {leaf}"
                        )
            checked.append((coeff, mon))
        out.append(tuple(checked))
    return tuple(out)


def _witnesses(report: SemigroupReport | CongruenceReport, fails: type[Exception], kind: str):
    """The witness at every edge of the report; ``fails`` names the edges
    without one, as (node, toward), ..."""
    if not report.ok:
        bad = ", ".join(f"({e.node}, {e.toward})" for e in report.failures)
        raise fails(f"no {kind} monomial at {bad}")
    return {(e.node, e.toward): e.witness for e in report.edges}


def semigroup_witnesses(report: SemigroupReport) -> dict[tuple[str, str], AdmissibleExponents]:
    """The witness at every node edge; SemigroupFails names those without."""
    return _witnesses(report, SemigroupFails, "admissible")


def build_equations_from_diagram(
    d: SpliceDiagram,
    *,
    higher_terms: Mapping[str, Sequence[Sequence[HigherTerm]]] | None = None,
    witnesses: Mapping[tuple[str, str], AdmissibleExponents] | None = None,
    group: DiscriminantGroup | None = None,
) -> SpliceEquationSystem:
    """One block per node; equivariant exactly when a group is given."""
    variables = d.leaves
    if witnesses is None:
        witnesses = semigroup_witnesses(check_semigroup(d))
    blocks = []
    for v in d.nodes:
        edges = d.adjacency[v]
        monomials = tuple(
            Monomial.from_mapping(witnesses[(v, u)].as_dict(), variables)
            for u in edges
        )
        coeffs = generic_coefficients(len(edges) - 2, len(edges))
        terms: tuple[tuple[HigherTerm, ...], ...] = tuple(
            () for _ in range(len(edges) - 2)
        )
        if higher_terms and v in higher_terms:
            terms = _validate_higher_terms(
                d, v, len(edges) - 2, higher_terms[v], group, monomials[0]
            )
        blocks.append(
            NodeBlock(
                node=v,
                edges=edges,
                monomials=monomials,
                coefficients=coeffs,
                higher_terms=terms,
            )
        )
    return SpliceEquationSystem(
        variables=variables, blocks=tuple(blocks), equivariant=group is not None
    )


def build_equations(
    g: ResolutionGraph | Analysis,
    *,
    equivariant: bool = False,
    higher_terms: Mapping[str, Sequence[Sequence[HigherTerm]]] | None = None,
) -> SpliceEquationSystem:
    """Equation system for a resolution graph.

    Plain mode needs the semigroup condition; equivariant mode also needs
    the congruence condition and picks monomials sharing a character, so
    the discriminant group acts on the system. The group is built only to
    check higher terms, which alone read it.
    """
    d = splice_from_resolution(a := analysis_of(g))
    if not equivariant:
        return build_equations_from_diagram(d, higher_terms=higher_terms)
    congruence = check_congruence(a)
    semigroup_witnesses(congruence.semigroup)  # raises SemigroupFails
    witnesses = _witnesses(congruence, CongruenceFails, "equivariant")
    group = leaf_generators(a) if higher_terms else None
    return build_equations_from_diagram(
        d, higher_terms=higher_terms, witnesses=witnesses, group=group
    )._replace(equivariant=True)


def normalize_coefficients(system: SpliceEquationSystem) -> SpliceEquationSystem:
    """Row-reduce each block to [I | a | b] over exact rationals and
    re-verify the genericity inequalities."""
    new_blocks = []
    for block in system.blocks:
        k = len(block.coefficients)
        width = len(block.edges)
        try:
            rows = gauss_jordan(block.coefficients)
        except ZeroDivisionError as exc:
            raise DegenerateMatrix(f"node {block.node}: {exc}") from None
        a = [rows[i][width - 2] for i in range(k)]
        b = [rows[i][width - 1] for i in range(k)]
        if any(x == 0 for x in a) or any(x == 0 for x in b):
            raise DegenerateMatrix(f"node {block.node}: zero tail coefficient")
        for i in range(k):
            for j in range(i + 1, k):
                if a[i] * b[j] - a[j] * b[i] == 0:
                    raise DegenerateMatrix(
                        f"node {block.node}: rows {i} and {j} are proportional"
                    )
        new_blocks.append(
            block._replace(coefficients=tuple(tuple(row) for row in rows))
        )
    return system._replace(blocks=tuple(new_blocks))


class LeadingFormEntry(NamedTuple):
    node: str
    expected_weight: int
    away_edges: tuple[str, ...]
    away_weights: tuple[int, ...]
    toward_edge: str | None
    toward_weight: int | None

    @property
    def ok(self) -> bool:
        if any(w != self.expected_weight for w in self.away_weights):
            return False
        if self.toward_weight is not None and self.toward_weight <= self.expected_weight:
            return False
        return True


class LeadingFormReport(NamedTuple):
    node: str
    entries: tuple[LeadingFormEntry, ...]

    ok = report_ok


def leading_form_check(
    d: SpliceDiagram, v: str, system: SpliceEquationSystem
) -> LeadingFormReport:
    """Grade every block by the weights of node v.

    At any other node, the monomials pointing away from v share the
    weight given by the two nodes' linking number, and the monomial
    pointing toward v exceeds it; those away-terms are the v-leading form
    of the equation.
    """
    entries = []
    for block in system.blocks:
        vp = block.node
        if vp == v:
            toward, expected = None, d.weight_product(v)
        else:
            toward = d.path(v, vp)[-2]  # vp's parent in the walk from v
            expected = linking_numbers(d, v, vp)[0]
        away, away_weights = [], []
        toward_weight = None
        for edge, mon in zip(block.edges, block.monomials):
            weight = v_weight(d, v, mon)
            if edge == toward:
                toward_weight = weight
            else:
                away.append(edge)
                away_weights.append(weight)
        entries.append(
            LeadingFormEntry(
                node=vp,
                expected_weight=expected,
                away_edges=tuple(away),
                away_weights=tuple(away_weights),
                toward_edge=toward,
                toward_weight=toward_weight,
            )
        )
    return LeadingFormReport(node=v, entries=tuple(entries))


def curve_component_count(d: SpliceDiagram, distinguished: str) -> int:
    """gcd of the linking numbers from the distinguished leaf to the others
    (the number of branches of the curve cut out by that leaf variable)."""
    if not d.is_leaf(distinguished):
        raise ValueError(f"{distinguished} is not a leaf")
    others = [w for w in d.leaves if w != distinguished]
    if not others:
        raise ValueError("need at least two leaves")
    acc = 0
    for w in others:
        acc = gcd(acc, linking_numbers(d, distinguished, w)[0])
    return acc


# --- rendering ------------------------------------------------------------


def _coeff_json(c: Coefficient):
    if isinstance(c, Fraction):
        if c.denominator == 1:
            return int(c)
        return [c.numerator, c.denominator]
    return c


def system_to_json(system: SpliceEquationSystem) -> dict:
    return {
        "variables": list(system.variables),
        "equivariant": system.equivariant,
        "blocks": [
            {
                "node": b.node,
                "edges": list(b.edges),
                "monomials": [[[w, a] for w, a in m.exponents] for m in b.monomials],
                "coefficients": [[_coeff_json(c) for c in row] for row in b.coefficients],
                "higher_terms": [
                    [[_coeff_json(c), [[w, a] for w, a in m.exponents]] for c, m in eq]
                    for eq in b.higher_terms
                ],
            }
            for b in system.blocks
        ],
    }


def _render_terms(terms: Sequence[tuple[Coefficient, Monomial]]) -> str:
    parts = []
    for coeff, mon in terms:
        body = mon.render()
        if coeff == 1:
            text = body
        elif coeff == -1:
            text = f"-{body}"
        else:  # int_text writes numbers past the int-to-str digit limit
            den = "" if coeff.denominator == 1 else "/" + int_text(coeff.denominator)
            text = f"{int_text(coeff.numerator)}{den}*{body}"
        if not parts:
            parts.append(text)
        elif text.startswith("-"):
            parts.append(f"- {text[1:]}")
        else:
            parts.append(f"+ {text}")
    return " ".join(parts) if parts else "0"


def render_equations(system: SpliceEquationSystem) -> str:
    """Deterministic text form of the system, one equation a line."""
    lines = []
    for block in system.blocks:
        for i, row in enumerate(block.coefficients):
            terms = [
                (c, m) for c, m in zip(row, block.monomials) if c != 0
            ]
            terms.extend(block.higher_terms[i] if i < len(block.higher_terms) else ())
            lines.append(f"{_render_terms(terms)} = 0")
    return "\n".join(lines)
