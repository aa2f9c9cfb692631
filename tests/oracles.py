"""General-matrix oracles that the production routes are checked against.

The library reads definiteness from its subtree-determinant table; these
apply Sylvester's criterion to the matrix itself.
"""

from typing import Sequence

from splicekit.linalg import determinant


def leading_principal_minors(matrix: Sequence[Sequence[int]]) -> list[int]:
    """Determinants of the k-by-k top-left blocks, k = 1..n."""
    n = len(matrix)
    return [determinant([row[:k] for row in matrix[:k]]) for k in range(1, n + 1)]


def is_negative_definite_matrix(matrix: Sequence[Sequence[int]]) -> bool:
    """Sign test: the k-th leading principal minor must have sign (-1)^k."""
    for k, minor in enumerate(leading_principal_minors(matrix), start=1):
        if k % 2 == 1 and minor >= 0:
            return False
        if k % 2 == 0 and minor <= 0:
            return False
    return True
