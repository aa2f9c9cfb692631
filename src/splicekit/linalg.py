"""Exact integer and rational linear algebra.

Everything here works over arbitrary-precision ints or Fractions; there is
no floating point anywhere in the package. The Smith normal form serves the
discriminant group. ``determinant`` (Bareiss) and ``invert_rational``
(Gauss-Jordan) are general-matrix reference oracles with no caller in the
package: definiteness, determinants, linking and pairing matrices are all
read from the subtree-determinant table in ``graph``, and the tests check
that table against these two.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

IntMatrix = list[list[int]]


def identity_matrix(n: int) -> IntMatrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def matmul(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> IntMatrix:
    n, k, m = len(a), len(b), len(b[0]) if b else 0
    out = [[0] * m for _ in range(n)]
    for i in range(n):
        row = a[i]
        acc = out[i]
        for t in range(k):
            x = row[t]
            if x:
                brow = b[t]
                for j in range(m):
                    acc[j] += x * brow[j]
    return out


def determinant(matrix: Sequence[Sequence[int]]) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    n = len(matrix)
    if n == 0:
        return 1
    a = [list(row) for row in matrix]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = a[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * pivot - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = pivot
    return sign * a[n - 1][n - 1]


def invert_rational(matrix: Sequence[Sequence[int]]) -> list[list[Fraction]]:
    """Exact inverse over Fractions via Gauss-Jordan elimination.

    Raises ZeroDivisionError on singular input.
    """
    n = len(matrix)
    aug = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
           for i, row in enumerate(matrix)]
    for col in range(n):
        pivot_row = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot_row is None:
            raise ZeroDivisionError("matrix is singular")
        aug[col], aug[pivot_row] = aug[pivot_row], aug[col]
        pivot = aug[col][col]
        aug[col] = [x / pivot for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [x - factor * y for x, y in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


@dataclass(frozen=True)
class SmithDecomposition:
    """U * M * V = diag(d1..dn) with d1 | d2 | ... and unimodular U, V."""

    diagonal: tuple[int, ...]
    left: tuple[tuple[int, ...], ...]
    right: tuple[tuple[int, ...], ...]


def smith_normal_form(
    matrix: Sequence[Sequence[int]], modulus: int | None = None
) -> SmithDecomposition:
    """Smith normal form with non-negative diagonal and tracked transforms.

    With a modulus N, the input and each operation on the matrix and both
    transforms are reduced mod N: U * M * V = diag(d) mod N, U and V stay
    invertible mod N, and the gcd(d_i, N) are those of the integer form, in
    divisibility order (each pivot divides the rest of its block as ints).
    """
    a = [list(row) for row in matrix]
    if modulus:
        a = [[x % modulus for x in row] for row in a]
    n = len(a)
    m = len(a[0]) if n else 0
    left = identity_matrix(n)
    right = identity_matrix(m)

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        left[i], left[j] = left[j], left[i]

    def swap_cols(i, j):
        for row in a + right:
            row[i], row[j] = row[j], row[i]

    def add_row(src, dst, q):
        # row_dst += q * row_src
        for mat in (a, left):
            row = [x + q * y for x, y in zip(mat[dst], mat[src])]
            mat[dst] = [x % modulus for x in row] if modulus else row

    def add_col(src, dst, q):
        for row in a + right:
            row[dst] += q * row[src]
            if modulus:
                row[dst] %= modulus

    def negate_row(i):
        a[i] = [-x for x in a[i]]
        left[i] = [-x for x in left[i]]

    for k in range(min(n, m)):
        while True:
            # Choose the nonzero entry of smallest magnitude as pivot.
            best = None
            for i in range(k, n):
                for j in range(k, m):
                    v = abs(a[i][j])
                    if v and (best is None or v < best[0]):
                        best = (v, i, j)
            if best is None:
                break
            _, pi, pj = best
            if pi != k:
                swap_rows(k, pi)
            if pj != k:
                swap_cols(k, pj)
            pivot = a[k][k]
            dirty = False
            for i in range(k + 1, n):
                if a[i][k]:
                    q = a[i][k] // pivot
                    if q:
                        add_row(k, i, -q)
                    if a[i][k]:
                        dirty = True
            for j in range(k + 1, m):
                if a[k][j]:
                    q = a[k][j] // pivot
                    if q:
                        add_col(k, j, -q)
                    if a[k][j]:
                        dirty = True
            if dirty:
                continue
            # Pull in any entry the pivot does not divide yet.
            offender = None
            for i in range(k + 1, n):
                for j in range(k + 1, m):
                    if a[i][j] % pivot:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            add_row(offender, k, 1)
        if k < min(n, m) and a[k][k] < 0:
            negate_row(k)

    diag = tuple(a[k][k] for k in range(min(n, m)))
    return SmithDecomposition(
        diagonal=diag,
        left=tuple(tuple(row) for row in left),
        right=tuple(tuple(row) for row in right),
    )
