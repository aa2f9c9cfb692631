"""Exact integer and rational linear algebra.

Everything here works over arbitrary-precision ints or Fractions; there is
no floating point anywhere in the package. One Smith elimination, by 2x2
Bezout row and column steps, serves both ``smith_diagonal``, which tracks
no transform and, taken modulo a divisor of the determinant, gives the
discriminant group its checks and invariant factors, and ``smith_normal_form``, which
tracks both transforms. ``determinant`` (Bareiss) and ``invert_rational``
(Gauss-Jordan) are general-matrix reference oracles with no caller in the
package: definiteness, determinants, linking and pairing matrices are all
read from the subtree-determinant table in ``graph``, and the tests check
that table against these two.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import NamedTuple, Sequence

IntMatrix = list[list[int]]


def identity_matrix(n: int) -> IntMatrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


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


class SmithDecomposition(NamedTuple):
    """U * M * V = diag(d1..dk), k = min(rows, cols), with U and V
    unimodular and d_i >= 0. Over the integers d1 | d2 | ... (zeros last).
    Taken modulo N, every entry is reduced below N, U and V are invertible
    mod N, and only the gcd(d_i, N) form a divisibility chain."""

    diagonal: tuple[int, ...]
    left: tuple[tuple[int, ...], ...]
    right: tuple[tuple[int, ...], ...]


def _bezout(p: int, q: int) -> tuple[int, int, int]:
    """(g, x, y) with x*p + y*q = g = gcd(p, q) >= 0."""
    x0, y0, x1, y1 = 1, 0, 0, 1
    while q:
        c, r = divmod(p, q)
        p, q = q, r
        x0, x1 = x1, x0 - c * x1
        y0, y1 = y1, y0 - c * y1
    return (p, x0, y0) if p >= 0 else (-p, -x0, -y0)


def _eliminate(
    matrix: Sequence[Sequence[int]],
    modulus: int | None,
    left: IntMatrix | None,
    right: IntMatrix,
) -> tuple[int, ...]:
    """The Smith diagonal of a copy of matrix, by 2x2 Bezout steps of
    determinant 1 (Kannan and Bachem, 1979), applying each row step to
    left as well, when given, and each column step to the rows of right.

    At each diagonal position k, whose entry is made non-zero by a swap
    from the remaining block if need be, column k and then row k are
    cleared against the pivot: an entry q it divides is subtracted away,
    any other one is combined with it into gcd(pivot, q). A column step of
    that kind may refill column k, so the two clearings repeat until both
    hold; the pivot only shrinks. An entry of the block that the pivot does
    not divide is then pulled into row k, and the clearing starts again.
    With a modulus N, the copy and every step are reduced mod N, and
    divisibility is that of the reduced representatives.
    """
    n = len(matrix)
    m = len(matrix[0]) if n else 0
    if modulus == 1:  # every entry is 0 mod 1, so no step is taken
        return (0,) * min(n, m)
    if modulus:
        a = [[x % modulus for x in row] for row in matrix]
    else:
        a = [list(row) for row in matrix]
    row_mats = (a,) if left is None else (a, left)

    def combine(rk: list[int], ri: list[int], x: int, y: int) -> list[int]:
        if modulus:
            return [(x * r + y * s) % modulus for r, s in zip(rk, ri)]
        return [x * r + y * s for r, s in zip(rk, ri)]

    def row_step(k: int, i: int, q: int) -> None:
        # (row k, row i) <- (x*row k + y*row i, -q/g*row k + p/g*row i),
        # or row i -= (q/p)*row k when the pivot p divides q
        p = a[k][k]
        if q % p == 0:
            for mat in row_mats:
                mat[i] = combine(mat[k], mat[i], -(q // p), 1)
            return
        g, x, y = _bezout(p, q)
        for mat in row_mats:
            rk, ri = mat[k], mat[i]
            mat[k], mat[i] = combine(rk, ri, x, y), combine(rk, ri, -q // g, p // g)

    def col_step(k: int, j: int, q: int) -> bool:
        # the row_step above on columns k and j; True when column k changed
        p = a[k][k]
        rows = a[k:] + right  # rows of a above k are zero in both columns
        if q % p == 0:
            c = q // p
            for row in rows:
                s = row[j] - c * row[k]
                row[j] = s % modulus if modulus else s
            return False
        g, x, y = _bezout(p, q)
        u, v = -q // g, p // g
        for row in rows:
            r, s = row[k], row[j]
            r, s = x * r + y * s, u * r + v * s
            row[k], row[j] = (r % modulus, s % modulus) if modulus else (r, s)
        return True

    for k in range(min(n, m)):
        if not a[k][k]:
            hit = next(((i, j) for i in range(k, n) for j in range(k, m) if a[i][j]), None)
            if hit is None:
                break  # the remaining block is zero
            i, j = hit
            for mat in row_mats:
                mat[k], mat[i] = mat[i], mat[k]
            for row in a + right:
                row[k], row[j] = row[j], row[k]
        while True:
            refilled = True
            while refilled:
                for i in range(k + 1, n):
                    if a[i][k]:
                        row_step(k, i, a[i][k])
                refilled = False
                for j in range(k + 1, m):
                    if a[k][j]:
                        refilled |= col_step(k, j, a[k][j])
            p = abs(a[k][k])
            offender = next(
                (i for i in range(k + 1, n) if p != 1 and gcd(p, *a[i][k + 1:]) != p), None
            )
            if offender is None:
                break
            for mat in row_mats:  # row k += row offender; the pivot stays
                mat[k] = combine(mat[k], mat[offender], 1, 1)
        if a[k][k] < 0:
            for mat in row_mats:
                mat[k] = [-x for x in mat[k]]
    return tuple(a[k][k] for k in range(min(n, m)))


def smith_normal_form(
    matrix: Sequence[Sequence[int]], modulus: int | None = None
) -> SmithDecomposition:
    """Smith normal form with non-negative diagonal and tracked transforms,
    by the Bezout elimination of ``_eliminate``.

    With a modulus N, the input and every operation on the matrix and both
    transforms are reduced mod N, and divisibility is that of the reduced
    representatives: U * M * V = diag(d) mod N, U and V stay invertible
    mod N, and the gcd(d_i, N) are those of the integer form.
    """
    n = len(matrix)
    left, right = identity_matrix(n), identity_matrix(len(matrix[0]) if n else 0)
    return SmithDecomposition(
        diagonal=_eliminate(matrix, modulus, left, right),
        left=tuple(tuple(row) for row in left),
        right=tuple(tuple(row) for row in right),
    )


def smith_diagonal(
    matrix: Sequence[Sequence[int]], modulus: int | None = None
) -> tuple[int, ...]:
    """``smith_normal_form(matrix, modulus).diagonal``, by the same
    elimination with neither transform tracked."""
    return _eliminate(matrix, modulus, None, [])
