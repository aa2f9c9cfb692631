from math import gcd, prod

from hypothesis import given, settings
from hypothesis import strategies as st

from splicekit.graph import negated_intersection_matrix
from splicekit.linalg import (
    determinant,
    identity_matrix,
    invert_rational,
    matmul,
    smith_normal_form,
)
from splicekit.splice import tree_determinant

from oracles import leading_principal_minors


def test_snf_single_negative_entry():
    snf = smith_normal_form([[-2]])
    assert snf.diagonal == (2,)


def test_snf_identity():
    snf = smith_normal_form(identity_matrix(3))
    assert snf.diagonal == (1, 1, 1)


def test_snf_g17(g17):
    snf = smith_normal_form(negated_intersection_matrix(g17))
    assert snf.diagonal == (1,) * 9 + (17,)


def _check_decomposition(m, snf):
    n = len(m)
    left = [list(r) for r in snf.left]
    right = [list(r) for r in snf.right]
    product = matmul(matmul(left, [list(r) for r in m]), right)
    for i in range(n):
        for j in range(len(m[0])):
            expected = snf.diagonal[i] if i == j else 0
            assert product[i][j] == expected
    assert abs(determinant(left)) == 1
    assert abs(determinant(right)) == 1
    diag = [d for d in snf.diagonal if d]
    for a, b in zip(diag, diag[1:]):
        assert b % a == 0


square_matrices = st.integers(min_value=1, max_value=5).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(min_value=-9, max_value=9), min_size=n, max_size=n),
        min_size=n,
        max_size=n,
    )
)


@settings(max_examples=60, deadline=None)
@given(square_matrices)
def test_snf_properties(m):
    snf = smith_normal_form(m)
    _check_decomposition(m, snf)
    assert prod(snf.diagonal) == abs(determinant(m))


rectangular_matrices = st.tuples(
    st.integers(min_value=1, max_value=5), st.integers(min_value=1, max_value=5)
).flatmap(
    lambda shape: st.lists(
        st.lists(st.integers(min_value=-30, max_value=30),
                 min_size=shape[1], max_size=shape[1]),
        min_size=shape[0],
        max_size=shape[0],
    )
)


@settings(max_examples=300, deadline=None)
@given(rectangular_matrices, st.integers(min_value=1, max_value=60))
def test_snf_modulo_matches_integer_form(m, d):
    integer = smith_normal_form(m)
    modular = smith_normal_form(m, modulus=d)
    assert sorted(gcd(s, d) for s in modular.diagonal) == sorted(
        gcd(s, d) for s in integer.diagonal
    )
    factors = [gcd(s, d) for s in modular.diagonal]
    assert all(b % a == 0 for a, b in zip(factors, factors[1:]))
    # U * M * V = diag mod d; every entry is reduced below d, apart from the
    # 1s of the identity that the transforms start from when d = 1
    product = matmul(matmul([list(r) for r in modular.left], m),
                     [list(r) for r in modular.right])
    for i, row in enumerate(product):
        for j, x in enumerate(row):
            assert (x - (modular.diagonal[i] if i == j else 0)) % d == 0
    for matrix in (modular.left, modular.right, [modular.diagonal]):
        assert all(0 <= x < max(d, 2) for row in matrix for x in row)
    assert gcd(determinant(modular.left), d) == 1
    assert gcd(determinant(modular.right), d) == 1


def test_determinant_matches_tree_recursion(random_trees):
    for g in random_trees[:40]:
        assert determinant(negated_intersection_matrix(g)) == tree_determinant(g)


def test_leading_minors_are_prefix_determinants(g90):
    m = negated_intersection_matrix(g90)
    minors = leading_principal_minors(m)
    assert minors[-1] == 90
    assert minors[0] == 3
    for k, value in enumerate(minors, start=1):
        assert value == determinant([row[:k] for row in m[:k]])


def test_invert_rational_roundtrip(g17):
    m = negated_intersection_matrix(g17)
    inv = invert_rational(m)
    n = len(m)
    for i in range(n):
        for j in range(n):
            entry = sum(m[i][k] * inv[k][j] for k in range(n))
            assert entry == (1 if i == j else 0)
