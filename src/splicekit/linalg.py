"""Exact integer and rational linear algebra.

Everything here works over arbitrary-precision ints or Fractions; there is
no floating point anywhere in the package. One Smith elimination, by 2x2
Bezout row and column steps, serves both ``smith_diagonal``, which runs it
on a plain copy and, taken modulo a divisor of the determinant, gives the
discriminant group its checks and invariant factors, and
``smith_normal_form``, which runs it on the matrix bordered by identities
and reads both transforms off the borders. ``gauss_jordan`` is the one
Fraction row reduction: the equation systems normalize their coefficients
with it. ``determinant`` (Bareiss) and ``invert_rational`` (``gauss_jordan``
on the matrix bordered by I) are general-matrix reference oracles with no
caller in the package: definiteness, determinants, linking and pairing
matrices are all read from the subtree-determinant table in ``graph``, and
the tests check that table against these two.
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


def gauss_jordan(matrix: Sequence[Sequence[int | Fraction]]) -> list[list[Fraction]]:
    """A Fraction copy of a k-row matrix, k at most its width, with its
    first k columns reduced to the identity by Gauss-Jordan elimination.

    Raises ZeroDivisionError naming the first column with no pivot.
    """
    k = len(matrix)
    rows = [[Fraction(x) for x in row] for row in matrix]
    for col in range(k):
        pivot_row = next((r for r in range(col, k) if rows[r][col] != 0), None)
        if pivot_row is None:
            raise ZeroDivisionError(f"column {col} has no pivot")
        rows[col], rows[pivot_row] = rows[pivot_row], rows[col]
        pivot = rows[col][col]
        rows[col] = [x / pivot for x in rows[col]]
        for r in range(k):
            if r != col and rows[r][col] != 0:
                factor = rows[r][col]
                rows[r] = [x - factor * y for x, y in zip(rows[r], rows[col])]
    return rows


def invert_rational(matrix: Sequence[Sequence[int]]) -> list[list[Fraction]]:
    """Exact inverse over Fractions: ``gauss_jordan`` on the matrix with
    the identity to its right. Raises ZeroDivisionError on singular input.
    """
    n = len(matrix)
    bordered = [[*row, *unit] for row, unit in zip(matrix, identity_matrix(n))]
    return [row[n:] for row in gauss_jordan(bordered)]


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


def _reduced(matrix: Sequence[Sequence[int]], modulus: int | None) -> IntMatrix:
    """A copy of matrix, every entry reduced mod the modulus when given."""
    if modulus:
        return [[x % modulus for x in row] for row in matrix]
    return [list(row) for row in matrix]


def _eliminate(a: IntMatrix, n: int, m: int, modulus: int | None) -> tuple[int, ...]:
    """The Smith diagonal of the n x m block at the top left of a, in place,
    by 2x2 Bezout steps of determinant 1 (Kannan and Bachem, 1979). Each
    row step acts on whole rows of a and each column step on whole columns,
    so a border to the right of the block or below it carries the steps.

    At each diagonal position k, whose entry is made non-zero by a swap
    from the remaining block if need be, column k and then row k are
    cleared against the pivot: an entry q it divides is subtracted away,
    any other one is combined with it into gcd(pivot, q). A column step of
    that kind may refill column k, so the two clearings repeat until both
    hold; the pivot only shrinks. An entry of the block that the pivot does
    not divide is then pulled into row k, and the clearing starts again.
    With a modulus N, the block must come reduced mod N; every step is
    reduced mod N, and divisibility is that of the reduced representatives.
    """

    def combine(rk: list[int], ri: list[int], x: int, y: int) -> list[int]:
        if modulus:
            return [(x * r + y * s) % modulus for r, s in zip(rk, ri)]
        return [x * r + y * s for r, s in zip(rk, ri)]

    def row_step(k: int, i: int, q: int) -> None:
        # (row k, row i) <- (x*row k + y*row i, -q/g*row k + p/g*row i),
        # or row i -= (q/p)*row k when the pivot p divides q
        p = a[k][k]
        if q % p == 0:
            a[i] = combine(a[k], a[i], -(q // p), 1)
            return
        g, x, y = _bezout(p, q)
        rk, ri = a[k], a[i]
        a[k], a[i] = combine(rk, ri, x, y), combine(rk, ri, -q // g, p // g)

    def col_step(k: int, j: int, q: int) -> bool:
        # the row_step above on columns k and j; True when column k changed
        p = a[k][k]
        rows = a[k:]  # rows of the block above k are zero in both columns
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
            a[k], a[i] = a[i], a[k]
            for row in a:
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
                (i for i in range(k + 1, n) if p != 1 and gcd(p, *a[i][k + 1:m]) != p), None
            )
            if offender is None:
                break
            a[k] = combine(a[k], a[offender], 1, 1)  # the pivot stays
        if a[k][k] < 0:
            a[k] = [-x for x in a[k]]
    return tuple(a[k][k] for k in range(min(n, m)))


def smith_normal_form(
    matrix: Sequence[Sequence[int]], modulus: int | None = None
) -> SmithDecomposition:
    """Smith normal form with non-negative diagonal and both transforms, by
    the Bezout elimination of ``_eliminate`` on the matrix with I_n to its
    right and I_m below it: U builds up in the right border and V in the
    lower one.

    With a modulus N, the input and every operation on the matrix and both
    transforms are reduced mod N, and divisibility is that of the reduced
    representatives: U * M * V = diag(d) mod N, U and V stay invertible
    mod N, and the gcd(d_i, N) are those of the integer form.
    """
    a = _reduced(matrix, modulus)
    n, m = len(a), len(a[0]) if a else 0
    unit = identity_matrix(m + n)  # unreduced: mod 1 no step is taken, and U = I, V = I
    a = [row + e[m:] for row, e in zip(a, unit[m:])] + unit[:m]
    return SmithDecomposition(
        diagonal=_eliminate(a, n, m, modulus),
        left=tuple(tuple(row[m:]) for row in a[:n]),
        right=tuple(tuple(row[:m]) for row in a[n:]),
    )


def smith_diagonal(
    matrix: Sequence[Sequence[int]], modulus: int | None = None
) -> tuple[int, ...]:
    """``smith_normal_form(matrix, modulus).diagonal``, by the same
    elimination on a copy with no border."""
    n = len(matrix)
    m = len(matrix[0]) if n else 0
    if modulus == 1:  # every entry is 0 mod 1, so no step is taken
        return (0,) * min(n, m)
    return _eliminate(_reduced(matrix, modulus), n, m, modulus)
