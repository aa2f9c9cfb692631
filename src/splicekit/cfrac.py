"""Continued-fraction calculus for resolution strings.

A string of vertices weighted -b1, ..., -bk encodes the negative continued
fraction n/p = b1 - 1/(b2 - 1/(... - 1/bk)), where n is the determinant of
the whole string and p the determinant of the string with its first vertex
removed. The empty string is 1/0 and the single (-1)-vertex string is 1/1.
"""

from __future__ import annotations

from math import gcd
from typing import Sequence

from .errors import NonReducedFraction
from .frozen import Frozen


class ContinuedFraction(Frozen):
    """The fraction n/p of a string, n >= 1 and p >= 0 coprime; checked on
    construction, which every route to an instance goes through."""

    __slots__ = _fields = _compared = ("numerator", "denominator")
    numerator: int
    denominator: int

    def __init__(self, numerator: int, denominator: int) -> None:
        self._init(numerator=numerator, denominator=denominator)
        if self.numerator < 1:
            raise ValueError(f"numerator must be positive, got {self.numerator}")
        if self.denominator < 0:
            raise ValueError("denominator must be non-negative")
        if gcd(self.numerator, self.denominator) != 1:
            raise NonReducedFraction(
                f"{self.numerator}/{self.denominator} is not reduced"
            )

    @property
    def is_canonical(self) -> bool:
        """True when a quasi-minimal string realizes this value.

        Canonical range is 0 <= p <= n with p == n only for 1/1 (the
        single (-1)-vertex string); 1/0 is the empty string.
        """
        n, p = self.numerator, self.denominator
        return p < n or (n == 1 and p in (0, 1))

    def __str__(self) -> str:
        return f"{self.numerator}/{self.denominator}"


def continued_fraction_of_string(weights: Sequence[int]) -> ContinuedFraction:
    """Continued fraction of a string given by its vertex weights (all <= -1).

    Evaluated by the determinant recurrence, processing the string from its
    far end; exact for any weights, not only quasi-minimal ones.
    """
    if any(w > -1 for w in weights):
        raise ValueError("string weights must be <= -1")
    n, p = 1, 0
    for w in reversed([-w for w in weights]):
        n, p = w * n - p, n
    return ContinuedFraction(n, p)


def string_of_cf(cf: ContinuedFraction) -> tuple[int, ...]:
    """The unique quasi-minimal string realizing a canonical fraction."""
    if not cf.is_canonical:
        raise ValueError(f"{cf} has no quasi-minimal string")
    n, p = cf.numerator, cf.denominator
    if (n, p) == (1, 0):
        return ()
    if (n, p) == (1, 1):
        return (-1,)
    out: list[int] = []
    while p:
        b = -(-n // p)  # ceil(n/p)
        out.append(-b)
        n, p = p, b * p - n
    return tuple(out)


def reverse_cf(cf: ContinuedFraction) -> ContinuedFraction:
    """Fraction of the reversed string: n/p' with p*p' = 1 (mod n)."""
    if not cf.is_canonical:
        raise ValueError(f"{cf} is outside the canonical range")
    n, p = cf.numerator, cf.denominator
    if n == 1:
        return cf
    return ContinuedFraction(n, pow(p, -1, n))
