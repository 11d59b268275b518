"""Exact arithmetic primitives shared by every other module.

Everything is integer or rational and exact: deterministic primality
testing, Legendre symbols with per-prime lookup tables, integer
polynomials in one formal variable T, and reduced row echelon form over
the rationals.  No floating point anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import gcd, lcm

# Strong-pseudoprime witnesses; deterministic for every n < 3.3e24,
# far beyond any modulus used here.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test (valid for n < 3.3e24)."""
    if n < 2:
        return False
    for w in _MR_WITNESSES:
        if n == w:
            return True
        if n % w == 0:
            return False
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for w in _MR_WITNESSES:
        x = pow(w, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def primes_up_to(n: int) -> list[int]:
    """All primes <= n by sieve."""
    if n < 2:
        return []
    mark = bytearray([1]) * (n + 1)
    mark[0] = mark[1] = 0
    for p in range(2, int(n**0.5) + 1):
        if mark[p]:
            mark[p * p :: p] = bytearray(len(mark[p * p :: p]))
    return [i for i in range(2, n + 1) if mark[i]]


def odd_primes_up_to(n: int) -> list[int]:
    return [p for p in primes_up_to(n) if p > 2]


def require_odd_prime(p: int) -> int:
    """Validate p as an odd prime; every modulus in the toolkit is odd."""
    if not isinstance(p, int) or p < 3 or p % 2 == 0 or not is_prime(p):
        raise ValueError(f"modulus must be an odd prime >= 3, got {p!r}")
    return p


def legendre(a: int, p: int) -> int:
    """Legendre symbol (a/p) in {-1, 0, 1}, with the chi(0) = 0 convention.

    The zero convention makes chi fully multiplicative, which the fast
    point-count paths rely on.
    """
    require_odd_prime(p)
    a %= p
    if a == 0:
        return 0
    r = pow(a, (p - 1) // 2, p)
    return 1 if r == 1 else -1


class LegendreTable:
    """chi(a) lookups in O(1) after a single O(p) squares sieve.

    Point-count inner loops evaluate chi up to p^5 times per prime, so
    the symbol is tabulated once.  `values` is indexed by residue and is
    immutable after construction (safe to share across workers).
    """

    __slots__ = ("p", "values")

    def __init__(self, p: int):
        require_odd_prime(p)
        self.p = p
        values = [-1] * p
        values[0] = 0
        for x in range(1, p):
            values[x * x % p] = 1
        self.values = values

    def chi(self, a: int) -> int:
        return self.values[a % self.p]


# ---------------------------------------------------------------------------
# Integer polynomials in T


class IntPoly:
    """Integer polynomial in T; coefficients ascending, trailing zeros stripped."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        c = list(coeffs)
        while c and c[-1] == 0:
            c.pop()
        for x in c:
            if not isinstance(x, int):
                raise TypeError(f"integer coefficients only, got {x!r}")
        self.coeffs = tuple(c)

    @classmethod
    def one(cls) -> "IntPoly":
        return cls((1,))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1  # -1 for the zero polynomial

    def coeff(self, k: int) -> int:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else 0

    def __eq__(self, other) -> bool:
        return isinstance(other, IntPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __neg__(self) -> "IntPoly":
        return IntPoly(tuple(-c for c in self.coeffs))

    def __add__(self, other: "IntPoly") -> "IntPoly":
        n = max(len(self.coeffs), len(other.coeffs))
        return IntPoly(tuple(self.coeff(i) + other.coeff(i) for i in range(n)))

    def __sub__(self, other: "IntPoly") -> "IntPoly":
        return self + (-other)

    def __mul__(self, other: "IntPoly") -> "IntPoly":
        if not self.coeffs or not other.coeffs:
            return IntPoly()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return IntPoly(out)

    def __pow__(self, n: int) -> "IntPoly":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = IntPoly.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def scale_arg(self, c: int) -> "IntPoly":
        """p(c*T): the substitution T -> c*T."""
        return IntPoly(tuple(a * c**k for k, a in enumerate(self.coeffs)))

    def __call__(self, t: int) -> int:
        v = 0
        for a in reversed(self.coeffs):
            v = v * t + a
        return v

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for k, a in enumerate(self.coeffs):
            if a == 0:
                continue
            if k == 0:
                parts.append(str(a))
            else:
                mag = "" if abs(a) == 1 else f"{abs(a)}*"
                term = f"{mag}T" if k == 1 else f"{mag}T^{k}"
                if not parts:
                    parts.append(term if a > 0 else f"-{term}")
                else:
                    parts.append(f"+ {term}" if a > 0 else f"- {term}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"IntPoly({list(self.coeffs)!r})"


# ---------------------------------------------------------------------------
# Exact rational row reduction


def echelon(rows) -> tuple[tuple[Fraction, ...], ...]:
    """Reduced row echelon form over Q, zero rows dropped.

    Canonical: pivots are 1, pivot columns strictly increase, pivot
    columns are cleared above and below.  Two matrices span the same row
    space iff their echelon forms are equal, which makes this the
    deduplication key for linear flats.
    """
    m = [[Fraction(x) for x in row] for row in rows]
    if not m:
        return ()
    ncols = len(m[0])
    for row in m:
        if len(row) != ncols:
            raise ValueError("ragged matrix")
    piv = 0
    for col in range(ncols):
        for r in range(piv, len(m)):
            if m[r][col] != 0:
                break
        else:
            continue
        m[piv], m[r] = m[r], m[piv]
        inv = 1 / m[piv][col]
        m[piv] = [x * inv for x in m[piv]]
        for r in range(len(m)):
            if r != piv and m[r][col] != 0:
                f = m[r][col]
                m[r] = [x - f * y for x, y in zip(m[r], m[piv])]
        piv += 1
        if piv == len(m):
            break
    return tuple(tuple(row) for row in m[:piv])


def rank(rows) -> int:
    return len(echelon(rows))


def primitive_rows(rows) -> tuple[tuple[int, ...], ...]:
    """Each row scaled to a primitive integer vector with positive lead.

    Applied to echelon output this gives an integral canonical form,
    convenient for hashing and for reduction mod p.
    """
    out = []
    for row in rows:
        fracs = [Fraction(x) for x in row]
        mult = lcm(*(f.denominator for f in fracs)) if fracs else 1
        ints = [int(f * mult) for f in fracs]
        g = 0
        for x in ints:
            g = gcd(g, x)
        if g:
            ints = [x // g for x in ints]
        lead = next((x for x in ints if x != 0), 0)
        if lead < 0:
            ints = [-x for x in ints]
        out.append(tuple(ints))
    return tuple(out)


def det(matrix) -> int:
    """Integer determinant by fraction-free (Bareiss) elimination."""
    m = [list(map(int, row)) for row in matrix]
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("determinant of a non-square matrix")
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for r in range(k + 1, n):
                if m[r][k]:
                    m[k], m[r] = m[r], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def all_minors(matrix, max_size: int | None = None):
    """Yield (size, row_idx, col_idx, value) for every square minor."""
    nrows = len(matrix)
    ncols = len(matrix[0]) if nrows else 0
    top = min(nrows, ncols)
    if max_size is not None:
        top = min(top, max_size)
    for size in range(1, top + 1):
        for ridx in combinations(range(nrows), size):
            for cidx in combinations(range(ncols), size):
                sub = [[matrix[r][c] for c in cidx] for r in ridx]
                yield size, ridx, cidx, det(sub)
