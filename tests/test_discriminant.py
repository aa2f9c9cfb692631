import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from splicekit import discriminant, linalg, reporting
from splicekit.cfrac import continued_fraction_of_string
from splicekit.corpus import dominant_tree
from splicekit.discriminant import (
    DiscriminantGroup,
    character_of_monomial,
    group_order_check,
    leaf_generators,
    pairing_matrix,
    qmod1,
    scaled_leaf_block,
)
from splicekit.errors import CapExceeded
from splicekit.graph import (
    ResolutionGraph,
    graph_determinant,
    intersection_matrix,
    leaves_of,
)
from splicekit.linalg import smith_diagonal, smith_normal_form
from splicekit.splice import linking_numbers, maximal_splice, splice_from_resolution

import oracles
from oracles import (
    _span_check,
    drop_one_indices,
    element_order,
    enumerated_group_check,
    negated_intersection_matrix,
    smith_normal_form_rescan,
)


def test_pairing_single_vertex():
    g = ResolutionGraph.build([("a", -4)], [])
    assert pairing_matrix(g) == [[Fraction(-1, 4)]]


def test_pairing_star_diagonal(star):
    pm = pairing_matrix(star)
    i = star.index["1"]
    assert pm[i][i] == Fraction(-4, 9)
    j = star.index["2"]
    assert pm[i][j] == Fraction(-1, 9)


def test_pairing_inverse_identity(g17):
    pm = pairing_matrix(g17)
    a = intersection_matrix(g17)
    n = len(a)
    for i in range(n):
        for j in range(n):
            entry = sum(a[i][k] * pm[k][j] for k in range(n))
            assert entry == (1 if i == j else 0)


def test_linking_matrix_is_scaled_negative_inverse(g17, g90, small_trees):
    # the two independent linking-number routes agree entrywise: path
    # products in the maximal diagram vs the scaled inverse pairing
    from splicekit.splice import linking_matrix

    for g in [g17, g90, *small_trees[:8]]:
        pm = pairing_matrix(g)
        lmat = linking_matrix(g)
        det = graph_determinant(g)
        n = len(g.ids)
        for i in range(n):
            for j in range(n):
                assert Fraction(lmat[i][j], det) == -pm[i][j]


def test_leaf_leaf_pairing_is_minus_linking_over_det(g17):
    pm = pairing_matrix(g17)
    d = splice_from_resolution(g17)
    det = graph_determinant(g17)
    leaves = d.leaves
    for i, w in enumerate(leaves):
        for wp in leaves[i + 1:]:
            full, _ = linking_numbers(d, w, wp)
            assert pm[g17.index[w]][g17.index[wp]] == Fraction(-full, det)


def test_star_leaf_generator(star):
    group = leaf_generators(star)
    assert group.order == 27
    assert group.generator("1") == (
        Fraction(5, 9), Fraction(8, 9), Fraction(8, 9),
    )


def test_g1_generators_trivial(g1):
    group = leaf_generators(g1)
    assert group.order == 1
    for gen in group.generators.values():
        assert all(q == 0 for q in gen)


def test_g17_cyclic_of_order_17(g17):
    group = leaf_generators(g17)
    assert group.order == 17
    for leaf in group.leaves:
        assert element_order(group.generator(leaf)) == 17
    sub = group.enumerate_elements(generators=group.leaves[:1])
    assert len(sub) == 17


def test_group_order_checks(g1, g17, g90, star):
    for g in (g1, g17, g90, star):
        check = group_order_check(g)
        assert check.ok
        assert check.enumerated_order == graph_determinant(g)


def test_group_cap_exceeded(g90):
    # the cap bounds explicit listing only; the checks never list elements
    with pytest.raises(CapExceeded):
        leaf_generators(g90).enumerate_elements(cap=10)
    assert group_order_check(g90).ok


@st.composite
def symmetric_generators(draw):
    """(G, d): a symmetric t-by-t matrix over Z/d, t <= 4, d <= 12."""
    t = draw(st.integers(min_value=1, max_value=4))
    d = draw(st.integers(min_value=1, max_value=12))
    g = [[0] * t for _ in range(t)]
    for i in range(t):
        for j in range(i, t):
            g[i][j] = g[j][i] = draw(st.integers(min_value=0, max_value=d - 1))
    return g, d


def test_span_check_matches_enumeration():
    # every False branch must be reached, not only the all-pass case
    failures = {"order_ok": 0, "drop_one_ok": 0, "no_pseudo_reflections": 0}

    @settings(max_examples=1000, deadline=None)
    @given(symmetric_generators())
    def compare(case):
        rows, d = case
        names = tuple(f"w{i}" for i in range(len(rows)))
        group = DiscriminantGroup(
            leaves=names,
            order=d,
            generators={
                w: tuple(Fraction(x, d) for x in row) for w, row in zip(names, rows)
            },
        )
        check = _span_check(rows, d)
        # the listing computes every field but the invariant factors
        assert check._replace(invariant_factors=()) == enumerated_group_check(group)
        for key in failures:
            failures[key] += not getattr(check, key)

    compare()
    assert all(failures.values()), failures


def test_bezout_smith_form_matches_rescan_oracle(monkeypatch, corpus, fixture_map):
    # on the leaf block mod det, both forms and the bare diagonal give the
    # same gcd(s_i, det), and the diagonal route the oracle's group checks;
    # on -A over the integers, the same diagonal
    trees = [dominant_tree(random.Random(seed), 25) for seed in range(12)]
    trees += [dominant_tree(random.Random(seed), 50) for seed in range(6)]
    for g in [*corpus, *trees]:
        _, block, det = scaled_leaf_block(g)
        bezout = smith_normal_form(block, modulus=det)
        rescan = smith_normal_form_rescan(block, modulus=det)
        expected = sorted(gcd(s, det) for s in rescan.diagonal)
        assert sorted(gcd(s, det) for s in bezout.diagonal) == expected
        diagonal = smith_diagonal(block, modulus=det)
        assert diagonal == bezout.diagonal
        assert sorted(gcd(s, det) for s in diagonal) == expected
        check = group_order_check(g)
        with monkeypatch.context() as patch:
            patch.setattr(oracles, "smith_normal_form", smith_normal_form_rescan)
            oracle = _span_check(block, det)
        assert check == oracle
        assert check.invariant_factors == oracle.invariant_factors
    for g in fixture_map.values():
        m = negated_intersection_matrix(g)
        assert smith_normal_form(m).diagonal == smith_normal_form_rescan(m).diagonal


@st.composite
def definite_trees(draw):
    """Negative definite trees on 2 to 14 vertices with weights -1 to -4;
    random parents make chains of degree-2 curves as well as nodes."""
    n = draw(st.integers(min_value=2, max_value=14))
    parents = [draw(st.integers(min_value=0, max_value=j - 1)) for j in range(1, n)]
    weights = [draw(st.integers(min_value=-4, max_value=-1)) for _ in range(n)]
    g = ResolutionGraph.build(
        vertices=[(f"v{i}", w) for i, w in enumerate(weights)],
        edges=[(f"v{p}", f"v{j}") for j, p in enumerate(parents, start=1)],
    )
    assume(g.negative_definite)
    return g


def test_every_drop_one_index_is_one_on_a_tree():
    # the lemma of group_order_check, checked by the transform oracle; the
    # draws must reach -1 curves and strings
    seen = {"minus_one_curve": 0, "string": 0}

    @settings(max_examples=300, deadline=None)
    @given(definite_trees())
    def compare(g):
        _, block, det = scaled_leaf_block(g)
        _, indices = drop_one_indices(block, det)
        assert indices == [1] * len(block)
        oracle = _span_check(block, det)
        assert oracle.drop_one_ok and oracle.no_pseudo_reflections
        check = group_order_check(g)
        assert check == oracle
        assert check.invariant_factors == oracle.invariant_factors
        seen["minus_one_curve"] += -1 in g.weights
        seen["string"] += any(len(ns) == 2 for ns in g.tree.nbrs)

    compare()
    assert all(seen.values()), seen


def test_group_checks_take_no_smith_transform(monkeypatch, fixture_map):
    def refuse(*args, **kwargs):
        raise AssertionError("smith_normal_form called")

    monkeypatch.setattr(linalg, "smith_normal_form", refuse)
    assert not hasattr(discriminant, "smith_normal_form")
    for g in fixture_map.values():
        assert group_order_check(g).ok
        assert reporting.group_section(g)["order"] == graph_determinant(g)


def _smooth_part(block, det):
    """(g0, M): g0 = gcd(det, every entry of the block) and M the largest
    divisor of det whose primes all divide g0, as gcd(det, g0^k) with
    k >= every exponent of det."""
    g0 = gcd(det, *(x for row in block for x in row))
    return g0, gcd(det, g0 ** det.bit_length())


def test_group_factors_eliminate_mod_the_smooth_part(monkeypatch, corpus):
    # both routes take one Smith diagonal, mod M and never mod det when
    # M < det; a cyclic group (g0 = 1, det > 1) is eliminated mod M = 1
    moduli = []

    def record(rows, modulus=None):
        moduli.append(modulus)
        return smith_diagonal(rows, modulus=modulus)

    monkeypatch.setattr(discriminant, "smith_diagonal", record)
    trees = [dominant_tree(random.Random(seed), n) for n in (25, 50) for seed in range(12)]
    below_det = cyclic = 0
    for g in [*corpus, *trees]:
        _, block, det = scaled_leaf_block(g)
        g0, smooth = _smooth_part(block, det)
        for route in (group_order_check, reporting.group_section):
            moduli.clear()
            route(g)
            assert moduli == [smooth]
        below_det += smooth < det
        cyclic += g0 == 1 < det
    assert below_det and cyclic


def test_group_section_factors_match_the_full_smith_form():
    # the draws must reach a cyclic group (g0 = 1), primes of det outside
    # g0 (1 < g0, M < det) and det = 1
    seen = {"cyclic": 0, "smooth_below_det": 0, "det_one": 0}

    @settings(max_examples=300, deadline=None)
    @given(definite_trees())
    def compare(g):
        factors = reporting.group_section(g)["invariant_factors"]
        assert factors == oracles.invariant_factors_full(g)
        _, block, det = scaled_leaf_block(g)
        g0, smooth = _smooth_part(block, det)
        seen["cyclic"] += g0 == 1
        seen["smooth_below_det"] += g0 > 1 and smooth < det
        seen["det_one"] += det == 1

    compare()
    assert all(seen.values()), seen


def test_character_trivial_cases(g17):
    group = leaf_generators(g17)
    gen = group.generator(group.leaves[0])
    assert character_of_monomial(group, {}, gen) == 0
    zero = tuple(Fraction(0) for _ in group.leaves)
    assert character_of_monomial(group, {w: 3 for w in group.leaves}, zero) == 0


def test_character_closed_form_on_g17(g17):
    # the action of a leaf generator on a monomial: linking numbers over
    # the determinant for the other leaves, the diagonal pairing for its own
    group = leaf_generators(g17)
    pm = pairing_matrix(g17)
    d = splice_from_resolution(g17)
    det = graph_determinant(g17)
    rng = random.Random(20240917)
    leaves = group.leaves
    for _ in range(20):
        alpha = {w: rng.randrange(0, 6) for w in leaves}
        for wp in leaves:
            closed = Fraction(0)
            for w in leaves:
                if w == wp:
                    continue
                closed += alpha[w] * Fraction(linking_numbers(d, w, wp)[0], det)
            closed -= alpha[wp] * pm[g17.index[wp]][g17.index[wp]]
            expected = qmod1(closed)
            got = character_of_monomial(group, alpha, group.generator(wp))
            assert got == expected


def test_end_weight_closed_form(small_trees, g17, g90):
    # diagonal pairing at a leaf: -(product of node weights) / (n^2 det) - p'/n
    for g in [g17, g90, *small_trees[:12]]:
        pm = pairing_matrix(g)
        d = splice_from_resolution(g)
        det = graph_determinant(g)
        for w in leaves_of(g):
            if not d.is_leaf(w) or d.degree(w) == 0:
                continue
            v = d.adjacency[w][0]
            if not d.is_node(v):
                continue
            chain = list(d.strings[(v, w)]) + [w]
            n = d.weights[(v, w)]
            p_prime = (
                continued_fraction_of_string(
                    [g.weight_of(x) for x in chain[:-1]]
                ).numerator
                if len(chain) > 1
                else 1
            )
            d_v = d.weight_product(v)
            closed = Fraction(-d_v, n * n * det) - Fraction(p_prime, n)
            assert pm[g.index[w]][g.index[w]] == closed


def test_element_order_matches_repeated_addition(g17, g90, star):
    # lcm-of-denominators must agree with the order found by literally
    # adding the element to itself inside the enumerated group
    for g in (g17, g90, star):
        group = leaf_generators(g)
        det = group.order
        scaled = group.scaled_generators()
        for leaf in group.leaves:
            gen = scaled[leaf]
            k = 1
            acc = gen
            zero = tuple([0] * len(gen))
            while acc != zero:
                acc = tuple((a + b) % det for a, b in zip(acc, gen))
                k += 1
            assert k == element_order(group.generator(leaf))


def test_scaled_generators_match_maximal_diagonal(g90):
    # order * diagonal entry equals the leaf weight in the maximal diagram
    group = leaf_generators(g90)
    dmax = maximal_splice(g90)
    pm = pairing_matrix(g90)
    for w in group.leaves:
        diag = -pm[g90.index[w]][g90.index[w]] * group.order
        assert diag == dmax.weight_product(w)
