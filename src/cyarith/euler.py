"""Euler-characteristic bookkeeping for iterated branched double covers."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class KummerData:
    """(e(X), e(D)): Euler characteristics of a double cover and its branch divisor."""

    e_cover: int
    e_branch: int


# an elliptic curve double-covers P^1 branched in the four 2-torsion points
ELLIPTIC_BLOCK = KummerData(0, 4)


def double_cover_euler(a: KummerData, b: KummerData) -> KummerData:
    """Euler data of the crepant model of (X_1 x X_2)/(diagonal involution).

    e(X) = e(X1)e(X2)/2 + 3 e(D1)e(D2)/2
    e(D) = e(X1)e(D2)/2 + e(D1)e(X2)/2 + e(D1)e(D2)

    The half-terms must resolve integrally; a remainder signals invalid
    input rather than something to round.
    """
    twice_cover = a.e_cover * b.e_cover + 3 * a.e_branch * b.e_branch
    twice_branch = a.e_cover * b.e_branch + a.e_branch * b.e_cover
    if twice_cover % 2 or twice_branch % 2:
        raise ValueError(f"non-integral half-term for inputs {a}, {b}")
    return KummerData(twice_cover // 2, twice_branch // 2 + a.e_branch * b.e_branch)


def fold_elliptic(n: int) -> KummerData:
    """Fold double_cover_euler over n elliptic-curve blocks."""
    if n < 1:
        raise ValueError("n must be >= 1")
    data = ELLIPTIC_BLOCK
    for _ in range(n - 1):
        data = double_cover_euler(data, ELLIPTIC_BLOCK)
    return data


def iterated_elliptic_euler(n: int) -> int:
    """Closed form (6^n + 3(-2)^n)/2 for the n-fold elliptic quotient;
    both terms are even for n >= 1."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return (6**n + 3 * (-2) ** n) // 2
