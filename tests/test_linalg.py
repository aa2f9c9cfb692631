import random
from math import gcd, prod

from hypothesis import given, settings
from hypothesis import strategies as st

from splicekit.corpus import dominant_tree
from splicekit.discriminant import scaled_leaf_block
from splicekit.linalg import (
    determinant,
    identity_matrix,
    invert_rational,
    smith_diagonal,
    smith_normal_form,
)
from splicekit.splice import tree_determinant

from oracles import leading_principal_minors, matmul, negated_intersection_matrix


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


def _check_modular(m, d, snf):
    """U * M * V = diag mod d, U and V invertible mod d, entries below d
    (the untouched 1s of the identity aside when d = 1), gcd chain."""
    product = matmul(matmul([list(r) for r in snf.left], m), [list(r) for r in snf.right])
    for i, row in enumerate(product):
        for j, x in enumerate(row):
            assert (x - (snf.diagonal[i] if i == j else 0)) % d == 0
    for matrix in (snf.left, snf.right, [snf.diagonal]):
        assert all(0 <= x < max(d, 2) for row in matrix for x in row)
    assert gcd(determinant(snf.left), d) == 1
    assert gcd(determinant(snf.right), d) == 1
    factors = [gcd(s, d) for s in snf.diagonal]
    assert all(b % a == 0 for a, b in zip(factors, factors[1:]))


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
    assert smith_diagonal(m) == snf.diagonal
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
    _check_modular(m, d, modular)
    assert smith_diagonal(m) == integer.diagonal
    assert smith_diagonal(m, modulus=d) == modular.diagonal


def test_snf_zero_leading_entry():
    m = [[0, 0], [0, 1]]
    snf = smith_normal_form(m, modulus=2)
    assert snf.diagonal == (1, 0)
    _check_modular(m, 2, snf)
    snf = smith_normal_form(m)
    assert snf.diagonal == (1, 0)
    _check_decomposition(m, snf)


def test_snf_zero_matrix():
    m = [[0, 0, 0], [0, 0, 0]]
    snf = smith_normal_form(m)
    assert snf.diagonal == (0, 0)
    assert snf.left == ((1, 0), (0, 1))
    assert snf.right == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    assert smith_normal_form(m, modulus=7).diagonal == (0, 0)
    assert smith_normal_form([]).diagonal == ()
    assert smith_diagonal(m) == smith_diagonal(m, modulus=7) == (0, 0)
    assert smith_diagonal([]) == ()


def test_snf_single_row_and_column():
    for m in ([[6, -10, 15]], [[6], [-10], [15]], [[0, 0, 4]], [[0], [9], [6]]):
        snf = smith_normal_form(m)
        assert snf.diagonal == (gcd(*(x for row in m for x in row)),)
        _check_decomposition(m, snf)
        for d in (1, 4, 12, 10**18 + 9):
            modular = smith_normal_form(m, modulus=d)
            assert gcd(modular.diagonal[0], d) == gcd(snf.diagonal[0], d)
            _check_modular(m, d, modular)


def test_snf_modulus_one():
    m = [[3, 5], [7, 11]]
    snf = smith_normal_form(m, modulus=1)
    assert snf.diagonal == (0, 0)
    _check_modular(m, 1, snf)


def test_snf_modulus_one_takes_no_step():
    # mod 1 every entry is 0: the diagonal is all zeros and both transforms
    # stay the identity, on seeded rectangular matrices and leaf blocks
    trees = [dominant_tree(random.Random(seed), 60) for seed in range(4)]
    blocks = [scaled_leaf_block(g)[1] for g in trees]
    for seed in range(8):
        rng = random.Random(seed)
        rows, cols = rng.randint(1, 7), rng.randint(1, 7)
        blocks.append([[rng.randint(-10**6, 10**6) for _ in range(cols)] for _ in range(rows)])
    for m in blocks:
        snf = smith_normal_form(m, modulus=1)
        assert snf.diagonal == (0,) * min(len(m), len(m[0]))
        assert snf.left == tuple(map(tuple, identity_matrix(len(m))))
        assert snf.right == tuple(map(tuple, identity_matrix(len(m[0]))))
        assert smith_diagonal(m, modulus=1) == snf.diagonal


@st.composite
def matrices_with_large_modulus(draw):
    d = draw(st.integers(min_value=2, max_value=10**18))
    rows = draw(st.integers(min_value=1, max_value=5))
    cols = draw(st.integers(min_value=1, max_value=5))
    row = st.lists(st.integers(min_value=-d, max_value=d), min_size=cols, max_size=cols)
    return draw(st.lists(row, min_size=rows, max_size=rows)), d


@settings(max_examples=200, deadline=None)
@given(matrices_with_large_modulus())
def test_snf_large_moduli(case):
    # production moduli are determinants of 10^13 and more
    m, d = case
    modular = smith_normal_form(m, modulus=d)
    _check_modular(m, d, modular)
    integer = smith_normal_form(m)
    assert sorted(gcd(s, d) for s in modular.diagonal) == sorted(
        gcd(s, d) for s in integer.diagonal
    )
    assert smith_diagonal(m) == integer.diagonal
    assert smith_diagonal(m, modulus=d) == modular.diagonal


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
