"""Structured analysis reports with stable key order (byte-stable JSON).

Every section takes a graph or an ``Analysis`` that a report shares, and
reads the one splice diagram of that analysis, whose edges and weights
come in vertex order, as do the maximal and end-node reduced diagrams';
``weights_list`` writes the weights of each. A condition section carries
its report's ``ok``; the semigroup and congruence sections write each
edge with ``_edge_entry``. Every other entry is written from its record's
fields (``_asdict()``, plus ``ok`` where the record reads it), so each
entry's keys are stated once, by the record. ``render_json`` writes with
``document.indented_json``, the bytes of ``json.dumps(payload, indent=2)``
without its pure-Python encoder.
"""

from __future__ import annotations

from math import gcd
from typing import Any

from . import conditions, cycles, discriminant, equations, splice
from .analysis import Analysis, analysis_of
from .document import indented_json, int_text
from .errors import SemigroupFails
from .graph import (
    ResolutionGraph,
    graph_determinant,
    is_negative_definite,
    is_quasi_minimal,
    leaves_of,
    nodes_of,
)


def weights_list(d: splice.SpliceDiagram) -> list[list[Any]]:
    """[at, toward, weight] for every weight of d, in the diagram's order,
    which is vertex order for every derived diagram."""
    return [[at, to, w] for (at, to), w in d.weights.items()]


def splice_section(g: ResolutionGraph | Analysis) -> dict:
    d = splice.splice_from_resolution(g)
    return {
        "vertices": list(d.ids),
        "edges": pairs_list(d.edges),
        "weights": weights_list(d),
    }


def maximal_section(g: ResolutionGraph | Analysis) -> dict:
    return {"weights": weights_list(splice.maximal_splice(analysis_of(g).graph))}


def _residue_str(x: int, det: int, denominators: dict[int, str]) -> str:
    """str(Fraction(x, det)) for 0 <= x < det, without the Fraction; each
    denominator det // gcd(x, det) is written once, kept in denominators
    under its gcd."""
    if not x:
        return "0"
    common = gcd(x, det)
    if common not in denominators:
        denominators[common] = int_text(det // common)
    return int_text(x // common) + "/" + denominators[common]


def group_section(g: ResolutionGraph | Analysis) -> dict:
    """Order, invariant factors, leaf generators and checks of D(G) = Z^n/AZ^n.

    The generators and checks are those of ``leaf_generators`` and
    ``group_order_check``, from one leaf block built once from the leaves'
    linking rows alone; each generator entry is written from its integer
    x in that block as the reduced x/det, or "0", once per unordered leaf
    pair, as the block is symmetric, and each distinct denominator once.
    The invariant factors are those of the leaf span that the checks read
    off the Smith diagonal of the block mod the g0-smooth part M of det,
    det / M joining the largest (``discriminant.group_order_check``),
    padded with 1s to n entries. This is exact on any tree,
    because the leaf duals generate D(G): going inward from the leaves,
    the relation w_v*[e_v*] + sum over u ~ v of [e_u*] = 0 gives the class
    of the parent of v from those of v and its children.
    The discriminant pairing is non-degenerate, so the leaf generators (the
    pairings with the leaf duals) span a copy of D(G) itself, ``order_ok``
    always holds, and the factors equal the n-by-n Smith diagonal of -A.
    """
    leaves, block, det = (a := analysis_of(g)).memo(discriminant.scaled_leaf_block)
    check = discriminant.group_order_check(a)  # reads the same block
    factors = check.invariant_factors
    denominators: dict[int, str] = {}
    text: list[list[str]] = []
    for i, row in enumerate(block):
        residues = [_residue_str(x, det, denominators) for x in row[i:]]
        text.append([text[j][i] for j in range(i)] + residues)
    return {
        "order": det,
        "invariant_factors": [1] * (len(a.graph.ids) - len(factors)) + list(factors),
        "generators": dict(zip(leaves, text)),
        "checks": {
            "order_ok": check.order_ok,
            "drop_one_generator_ok": check.drop_one_ok,
            "no_pseudo_reflections": check.no_pseudo_reflections,
        },
    }


def pairs_list(pairs) -> list[list]:
    """Each pair as a two-item JSON list."""
    return [[a, b] for a, b in pairs]


def _truncated(d: conditions.Decision) -> dict:  # an undecided search says so
    return {"truncated": True} if d.truncated else {}


def _witness(d: conditions.Decision) -> list | None:
    return None if d.witness is None else pairs_list(d.witness.exponents)


def _edge_entry(e: conditions.Decision) -> dict:
    """A searched edge: its verdict and the exponents found, if any."""
    entry = {"node": e.node, "toward": e.toward, "ok": e.ok, "witness": _witness(e)}
    return entry | _truncated(e)


def _semigroup_payload(report: conditions.SemigroupReport) -> dict:
    return {"ok": report.ok, "edges": [_edge_entry(e) for e in report.edges]}


def semigroup_section(g: ResolutionGraph | Analysis) -> dict:
    return _semigroup_payload(conditions.check_semigroup(splice.splice_from_resolution(g)))


def congruence_section(g: ResolutionGraph | Analysis) -> dict:
    report = conditions.check_congruence(g)
    edges = []
    for e in report.edges:
        entry = _edge_entry(e)
        if not e.ok:
            entry["congruences"] = [
                c._asdict() | {"coefficients": pairs_list(c.coefficients)} for c in e.congruences
            ]
            if e.solved:
                entry["solved"] = [s._asdict() for s in e.solved]
        edges.append(entry)
    return {"ok": report.ok, "determinant": report.determinant, "edges": edges}


def ideal_section(g: ResolutionGraph | Analysis) -> dict:
    report = splice.check_ideal_condition(splice.splice_from_resolution(g))
    return {"ok": report.ok, "edges": [e._asdict() | {"ok": e.ok} for e in report.entries]}


def okuma34_section(g: ResolutionGraph | Analysis) -> dict:
    report = cycles.check_condition_3_4(g)
    return {"ok": report.ok, "failures": [c._asdict() for c in report.failures]}


def okuma33_section(g: ResolutionGraph | Analysis) -> dict:
    report = cycles.check_condition_3_3(g)
    return {
        "ok": report.ok,
        "branches": [
            {
                "node": d.node,
                "attach": d.toward,
                "ok": d.ok,
                "method": d.method,
                "exponents": _witness(d) or [],
            }
            | _truncated(d)
            for d in report.decisions
        ],
    }


SECTIONS = {  # the order of ``check all``
    "semigroup": semigroup_section, "congruence": congruence_section,
    "ideal": ideal_section, "okuma34": okuma34_section, "okuma33": okuma33_section,
}


def condition_sections(g: ResolutionGraph | Analysis, names: tuple[str, ...]) -> dict[str, dict]:
    """The named condition sections in the order given, all from one
    analysis. Where congruence is named too, the semigroup section is read
    off its searches; alone, each semigroup edge stops at its first vector."""
    a, builders = analysis_of(g), dict(SECTIONS)
    if "congruence" in names:
        congruence = conditions.check_congruence
        builders["semigroup"] = lambda a: _semigroup_payload(congruence(a).semigroup)
    return {name: builders[name](a) for name in names}


def analysis_report(g: ResolutionGraph | Analysis, name: str | None = None) -> dict:
    g, report = (a := analysis_of(g)).graph, {}
    if name:
        report["name"] = name
    report["vertices"] = len(g.ids)
    report["edges"] = len(g.edges)
    report["negative_definite"] = is_negative_definite(g)
    if not report["negative_definite"]:
        return report
    report["quasi_minimal"] = is_quasi_minimal(g)
    report["determinant"] = graph_determinant(g)
    report["nodes"] = list(nodes_of(g))
    report["leaves"] = list(leaves_of(g))
    report["group"] = group_section(a)
    report["splice"] = splice_section(a)
    report["maximal"] = maximal_section(a)
    report["conditions"] = condition_sections(
        a, ("ideal", "semigroup", "congruence", "okuma34", "okuma33")
    )
    try:  # the witnesses of the congruence searches make the equations
        witnesses = equations.semigroup_witnesses(conditions.check_congruence(a).semigroup)
    except SemigroupFails as exc:
        report["equations"] = {"error": "SemigroupFails", "detail": str(exc)}
        return report
    system = equations.build_equations_from_diagram(
        splice.splice_from_resolution(a), witnesses=witnesses
    )
    report["equations"] = {
        "text": equations.render_equations(system).splitlines(),
        "system": equations.system_to_json(system),
    }
    return report


def report_conditions_ok(sections: dict[str, dict]) -> bool:
    """Whether every condition section passes; ``check`` and ``report``
    read their exit codes from it."""
    return all(s["ok"] for s in sections.values())


def render_json(payload: dict) -> str:
    return indented_json(payload) + "\n"
