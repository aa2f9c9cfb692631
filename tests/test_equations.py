import itertools
import json
from fractions import Fraction

import pytest

from splicekit.conditions import check_semigroup
from splicekit.document import indented_json
from splicekit.discriminant import leaf_character, leaf_generators
from splicekit.equations import (
    Monomial,
    build_equations,
    build_equations_from_diagram,
    curve_component_count,
    leading_form_check,
    normalize_coefficients,
    render_equations,
    system_to_json,
    v_weight,
)
from splicekit.errors import CongruenceFails, DegenerateMatrix, InvalidHigherTerm
from splicekit.equations import LeadingFormEntry, NodeBlock, SpliceEquationSystem
from splicekit.linalg import determinant
from splicekit.graph import ResolutionGraph
from splicekit.splice import linking_numbers, splice_from_resolution

from oracles import equation_count


def test_v_weight_basics(g1):
    d = splice_from_resolution(g1)
    assert v_weight(d, "nL", Monomial(())) == 0
    w = v_weight(d, "nL", {"ur": 1})
    assert w == linking_numbers(d, "nL", "ur")[0]
    from splicekit.splice import linking_matrix

    lmat = linking_matrix(g1)
    assert w == lmat[g1.index["nL"]][g1.index["ur"]]


def test_admissible_monomials_have_node_weight(g1, g17, g90, star):
    for g in (g1, g17, g90, star):
        d = splice_from_resolution(g)
        system = build_equations(g)
        for block in system.blocks:
            d_v = d.weight_product(block.node)
            for mon in block.monomials:
                assert v_weight(d, block.node, mon) == d_v


def test_brieskorn_star(star):
    system = build_equations(star)
    assert equation_count(system) == 1
    assert render_equations(system) == "z_1^3 + z_2^3 + z_3^3 = 0"


def test_g1_two_equations(g1):
    system = build_equations(g1)
    assert equation_count(system) == 2 == len(system.variables) - 2
    for block in system.blocks:
        assert len(block.coefficients) == 1
        assert all(c != 0 for c in block.coefficients[0])


def test_equation_count_matches_leaves(small_trees):
    for g in small_trees:
        d = splice_from_resolution(g)
        if len(d.leaves) < 2 or not check_semigroup(d).ok:
            continue
        system = build_equations(g)
        assert equation_count(system) == len(d.leaves) - 2


def test_maximal_minors_nonzero(small_trees, g1, g17):
    for g in [g1, g17, *small_trees]:
        d = splice_from_resolution(g)
        if not check_semigroup(d).ok:
            continue
        system = build_equations(g)
        for block in system.blocks:
            k = len(block.coefficients)
            for combo in itertools.combinations(range(len(block.edges)), k):
                sub = [[row[c] for c in combo] for row in block.coefficients]
                assert determinant(sub) != 0


def test_g90_equivariant_fails(g90):
    with pytest.raises(CongruenceFails):
        build_equations(g90, equivariant=True)
    # plain mode still works: the semigroup condition holds
    system = build_equations(g90)
    assert equation_count(system) == 2


def test_equivariant_characters_agree(g17, g1):
    for g in (g17, g1):
        system = build_equations(g, equivariant=True)
        group = leaf_generators(g)
        for block in system.blocks:
            for leaf in group.leaves:
                chars = {
                    leaf_character(group, mon.as_dict(), leaf)
                    for mon in block.monomials
                }
                assert len(chars) == 1


def test_higher_terms_validated(g17):
    d = splice_from_resolution(g17)
    group = leaf_generators(g17)
    system = build_equations(g17, equivariant=True)
    block = system.blocks[0]
    node = block.node
    base = block.monomials[0].as_dict()
    # multiplying an admissible monomial by a full power of any variable
    # raises weight; det-th powers are invariant, preserving the character
    det = group.order
    heavy = dict(base)
    first_leaf = group.leaves[0]
    heavy[first_leaf] = heavy.get(first_leaf, 0) + det
    good = Monomial.from_mapping(heavy, system.variables)
    assert v_weight(d, node, good) > d.weight_product(node)
    built = build_equations(
        g17, equivariant=True, higher_terms={node: [[(3, good)]]}
    )
    target = [b for b in built.blocks if b.node == node][0]
    assert target.higher_terms == (((3, good),),)
    with pytest.raises(InvalidHigherTerm, match=rf"^node {node}: expected 1 higher-term lists"):
        build_equations(g17, higher_terms={node: [[(3, good)], []]})
    with pytest.raises(InvalidHigherTerm, match=rf"^node {node} eq 0: zero coefficient$"):
        build_equations(g17, higher_terms={node: [[(3, good), (0, good)]]})

    light = Monomial.from_mapping({first_leaf: 1}, system.variables)
    with pytest.raises(InvalidHigherTerm):
        build_equations(g17, higher_terms={node: [[(1, light)]]})

    wrong_char = dict(base)
    wrong_char[first_leaf] = wrong_char.get(first_leaf, 0) + 1
    bad = Monomial.from_mapping(wrong_char, system.variables)
    if v_weight(d, node, bad) > d.weight_product(node):
        with pytest.raises(InvalidHigherTerm):
            build_equations(
                g17, equivariant=True, higher_terms={node: [[(1, bad)]]}
            )


def test_normalize_coefficients_examples():
    row = NodeBlock(
        node="n", edges=("a", "b", "c"), monomials=(Monomial(()),) * 3,
        coefficients=((1, 2, 4),), higher_terms=((),),
    )
    system = SpliceEquationSystem(variables=("a", "b", "c"), blocks=(row,))
    normalized = normalize_coefficients(system)
    assert normalized.blocks[0].coefficients == ((1, 2, 4),)

    vandermonde = NodeBlock(
        node="n", edges=("a", "b", "c", "d"), monomials=(Monomial(()),) * 4,
        coefficients=((1, 1, 1, 1), (1, 2, 3, 4)), higher_terms=((), ()),
    )
    system = SpliceEquationSystem(variables=("a", "b", "c", "d"), blocks=(vandermonde,))
    normalized = normalize_coefficients(system)
    rows = normalized.blocks[0].coefficients
    assert rows[0][:2] == (1, 0) and rows[1][:2] == (0, 1)
    a = [rows[i][2] for i in range(2)]
    b = [rows[i][3] for i in range(2)]
    assert all(x != 0 for x in a + b)
    assert a[0] * b[1] - a[1] * b[0] != 0

    already_normal = NodeBlock(
        node="n", edges=("a", "b", "c", "d"), monomials=(Monomial(()),) * 4,
        coefficients=((1, 0, 2, 3), (0, 1, 4, 5)), higher_terms=((), ()),
    )
    system = SpliceEquationSystem(variables=("a", "b", "c", "d"), blocks=(already_normal,))
    assert normalize_coefficients(system).blocks[0].coefficients == (
        (1, 0, 2, 3), (0, 1, 4, 5),
    )

    degenerate = NodeBlock(
        node="n", edges=("a", "b", "c", "d"), monomials=(Monomial(()),) * 4,
        coefficients=((1, 1, 1, 1), (1, 1, 2, 2)), higher_terms=((), ()),
    )
    system = SpliceEquationSystem(variables=("a", "b", "c", "d"), blocks=(degenerate,))
    with pytest.raises(DegenerateMatrix, match="^node n: column 1 has no pivot$"):
        normalize_coefficients(system)


def test_leading_form_check(g1, star, small_trees):
    d = splice_from_resolution(g1)
    system = build_equations(g1)
    report = leading_form_check(d, "nL", system)
    assert report.ok
    # at v itself every edge points away, and each monomial has weight d_v
    own = [e for e in report.entries if e.node == "nL"][0]
    block = [b for b in system.blocks if b.node == "nL"][0]
    assert own == LeadingFormEntry(
        node="nL", expected_weight=d.weight_product("nL"), away_edges=block.edges,
        away_weights=(d.weight_product("nL"),) * 3, toward_edge=None, toward_weight=None,
    )
    other = [e for e in report.entries if e.node == "nR"][0]
    assert other.toward_edge == "nL"
    assert all(w == other.expected_weight for w in other.away_weights)
    assert other.toward_weight > other.expected_weight

    dstar = splice_from_resolution(star)
    sys_star = build_equations(star)
    assert leading_form_check(dstar, "c", sys_star).ok

    for g in small_trees[:10]:
        dd = splice_from_resolution(g)
        if len(dd.leaves) < 2 or not check_semigroup(dd).ok:
            continue
        system = build_equations(g)
        for v in dd.nodes:
            assert leading_form_check(dd, v, system).ok


def test_curve_component_count(g1, star):
    dstar = splice_from_resolution(star)
    assert curve_component_count(dstar, "1") == 3
    d1 = splice_from_resolution(g1)
    from math import gcd

    expected = 0
    for w in d1.leaves:
        if w != "ul":
            expected = gcd(expected, linking_numbers(d1, "ul", w)[0])
    assert curve_component_count(d1, "ul") == expected

    two_leaf = ResolutionGraph.build(
        [("a", -2), ("b", -3)], [("a", "b")]
    )
    d2 = splice_from_resolution(two_leaf)
    assert curve_component_count(d2, "a") == 1


def test_render_and_json_roundtrip(g17, star):
    for g in (g17, star):
        system = build_equations(g)
        data = json.loads(indented_json(system_to_json(system)))
        assert data == system_to_json(system)
    normalized = normalize_coefficients(build_equations(g17))
    data = json.loads(indented_json(system_to_json(normalized)))
    assert data == system_to_json(normalized)


def test_render_omits_empty_higher_terms(star):
    text = render_equations(build_equations(star))
    assert "+ 0" not in text and text.endswith("= 0")


def test_render_writes_coefficients_of_any_length():
    # past the 4300-digit int-to-str limit, for an int, a Fraction and a
    # negative Fraction, in the text form as in the JSON form
    big = 10**5000
    a, b = Monomial((("a", 1),)), Monomial((("b", 2),))
    system = SpliceEquationSystem(
        variables=("a", "b"),
        blocks=(NodeBlock(
            node="n", edges=("a", "b"), monomials=(a, b),
            coefficients=((big, Fraction(big, 3)), (1, Fraction(-big, 3))),
        ),),
    )
    digits = "1" + "0" * 5000
    assert render_equations(system).split("\n") == [
        f"{digits}*z_a + {digits}/3*z_b^2 = 0",
        f"z_a - {digits}/3*z_b^2 = 0",
    ]
    assert indented_json(system_to_json(system)).count(digits) == 3


def test_two_node_splice_relations(g1):
    # central-string relations read off the derived diagram: the far weight
    # equals the star determinant formula and the edge determinant scales by
    # the string determinant
    d = splice_from_resolution(g1)
    s = d.weights[("nR", "nL")]
    r = d.weights[("nL", "nR")]
    assert (s, r) == (11, 7)
    assert r * s - 10 * 6 == 17 == 1 * 17


def test_diagram_only_build(star):
    d = splice_from_resolution(star)
    system = build_equations_from_diagram(d)
    assert render_equations(system) == "z_1^3 + z_2^3 + z_3^3 = 0"
