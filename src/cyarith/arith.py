"""Exact arithmetic primitives shared by every other module.

Everything is integer and exact: deterministic primality testing,
Legendre symbols with per-prime lookup tables, integer polynomials in
one formal variable T as values (`tensor.euler_product` multiplies
them), truncated products of integer coefficient lists by Kronecker
substitution, and every square minor of an integer matrix by one
level-by-level Laplace pass.  No floating point anywhere.

The Kronecker product packs each list into one Python int, one digit of
`width` bytes per coefficient.  A digit of 1, 2, 4 or 8 bytes is a
machine word, packed through `array` and read back through a
`memoryview` cast; any other width goes through `int.to_bytes`.

A checked identity that fails raises `IdentityViolation`, which the CLI
reports as a failure with exit code 1.
"""

from __future__ import annotations

import sys
from array import array
from itertools import combinations
from math import isqrt

# Strong-pseudoprime witnesses: the primes up to 41 decide every n below
# psi_13 = 3,317,044,064,679,887,385,961,981, the least strong pseudoprime
# to all of them (the primes up to 37 stop at psi_12 = 318,665,857,834,
# 031,151,167,461 = 399,165,290,221 x 798,330,580,441).  The first four
# already decide every n < 3,215,031,751, the least strong pseudoprime to
# bases 2, 3, 5 and 7.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_SMALL_LIMIT = 3_215_031_751

#: is_prime raises ValueError at and above this bound (psi_13), where its
#: witnesses stop being a proof
PRIMALITY_LIMIT = 3_317_044_064_679_887_385_961_981


class IdentityViolation(ArithmeticError):
    """A mathematical identity that the computation checks does not hold.

    Raised instead of `assert` (which `python -O` strips), so that a
    broken identity is a reported failure, never a silent pass.
    """


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test for n < PRIMALITY_LIMIT;
    a larger n raises ValueError rather than get an unproven answer."""
    if n < 2:
        return False
    if n >= PRIMALITY_LIMIT:
        raise ValueError(f"n = {n} is not below {PRIMALITY_LIMIT}, the limit of the deterministic primality test")
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
    for w in _MR_WITNESSES[:4] if n < _MR_SMALL_LIMIT else _MR_WITNESSES:
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
    for p in range(2, isqrt(n) + 1):
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


class LegendreTable:
    """The Legendre symbol (a/p) for every residue a, from a single O(p)
    squares sieve, with the chi(0) = 0 convention.

    Point counts and fibre sums evaluate chi O(p) times per prime, so
    the symbol is tabulated once.  `values` is indexed by residue and is
    immutable after construction (safe to share across workers).  The
    zero convention makes chi fully multiplicative, which the fast
    point-count paths rely on.
    """

    __slots__ = ("values",)

    def __init__(self, p: int):
        require_odd_prime(p)
        values = [-1] * p
        values[0] = 0
        for x in range(1, p):
            values[x * x % p] = 1
        self.values = values


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

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1  # -1 for the zero polynomial

    def coeff(self, k: int) -> int:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else 0

    def __eq__(self, other) -> bool:
        return isinstance(other, IntPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def scale_arg(self, c: int) -> "IntPoly":
        """p(c*T): the substitution T -> c*T; p itself when c = 1."""
        if c == 1:
            return self
        return IntPoly(tuple(a * c**k for k, a in enumerate(self.coeffs)))

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
# Truncated products of coefficient lists by Kronecker substitution


#: unsigned array typecode for each machine-word digit width in bytes
_WORD_CODES = {array(code).itemsize: code for code in "BHILQ"}
_BIG_ENDIAN = sys.byteorder == "big"


def _pack(values: list[int], width: int) -> int:
    """sum_i values[i] * 2^(8*width*i), built from bytes in one pass per sign."""
    pos = b"".join((v if v > 0 else 0).to_bytes(width, "little") for v in values)
    neg = b"".join((-v if v < 0 else 0).to_bytes(width, "little") for v in values)
    return int.from_bytes(pos, "little") - int.from_bytes(neg, "little")


def _pack_words(values: list[int], code: str, half: int) -> int:
    """sum_i values[i] * X^i for machine-word digits: each digit biased by
    half into an unsigned word in native order, the bias then subtracted."""
    words = array(code, map(half.__add__, reversed(values) if _BIG_ENDIAN else values))
    bias = array(code, [half]) * len(values)
    return int.from_bytes(words, sys.byteorder) - int.from_bytes(bias, sys.byteorder)


def _kronecker_mul(a: list[int], b: list[int], top: int) -> list[int]:
    """Coefficients 0..top of the product of the integer polynomials with
    ascending coefficient lists a and b.

    Kronecker substitution: each list is evaluated at X = 2^(8*width) as
    one Python int, and a single bigint product holds the product
    polynomial evaluated at X.  `width` bytes are enough that every output
    coefficient c has |c| < X/2, so adding X/2 to every digit of the low
    top+1 digits makes them all non-negative, and the digits split apart
    in one pass.  Two digit encodings, exact for any signed integer input:

    - width 1, 2, 4 or 8 bytes: every input digit is biased by X/2 into
      an unsigned machine word of an `array`, the bias is subtracted from
      the packed int, and the product's digits are read back through a
      `memoryview` cast;
    - any other width: the positive and negative parts are packed by
      `to_bytes` one digit at a time, and the product's digits are read
      back by `from_bytes` one digit at a time.

    The width is never rounded up to a word: a wider digit makes the
    bigint product longer.  When a and b are the same list, it is packed
    once and the int squared, which CPython does faster than a product of
    two ints of the same size.
    """
    square = a is b
    a = a[: top + 1]
    b = a if square else b[: top + 1]
    n = top + 1
    if not any(a) or not any(b):
        return [0] * n
    # bound >= every |input| too, since both lists have a nonzero entry
    bound = max(map(abs, a)) * max(map(abs, b)) * min(len(a), len(b))
    width = (bound.bit_length() + 8) // 8  # bound < 2^(8*width - 1)
    bits = 8 * width * n
    half = 1 << (8 * width - 1)
    offset = int.from_bytes((bytes(width - 1) + b"\x80") * n, "little")  # X/2 in every digit
    code = _WORD_CODES.get(width)
    if code is None:
        x = _pack(a, width)
        y = x if square else _pack(b, width)
        low = (x * y + offset) & ((1 << bits) - 1)
        digits = low.to_bytes(width * n, "little")
        return [int.from_bytes(digits[i : i + width], "little") - half for i in range(0, width * n, width)]
    x = _pack_words(a, code, half)
    y = x if square else _pack_words(b, code, half)
    low = (x * y + offset) & ((1 << bits) - 1)
    words = memoryview(low.to_bytes(width * n, sys.byteorder)).cast(code)
    return list(map(half.__rsub__, words[::-1] if _BIG_ENDIAN else words))


# ---------------------------------------------------------------------------
# Integer minors


def minors_by_size(matrix):
    """Every square minor of an integer matrix, one size at a time.

    Yields (k, minors) for k = 1 .. min(rows, cols), where `minors` maps
    (row_mask, col_mask), the bitmasks of the chosen rows and columns, to
    the determinant of that k x k submatrix.  Each size-k minor is its
    Laplace expansion along its last row: k entries of that row times
    size-(k-1) minors of the previous level, so a minor costs k products
    and only two levels are held at once.
    """
    nrows = len(matrix)
    ncols = len(matrix[0]) if nrows else 0
    if any(len(row) != ncols for row in matrix):
        raise ValueError("ragged matrix")
    prev = {(1 << r, 1 << c): x for r, row in enumerate(matrix) for c, x in enumerate(row)}
    if not prev:
        return
    yield 1, prev
    for k in range(2, min(nrows, ncols) + 1):
        # column j of a k x k submatrix enters the last-row expansion with sign (-1)^(k-1+j)
        plan = []
        for cols in combinations(range(ncols), k):
            col_mask = sum(1 << c for c in cols)
            plan.append((col_mask, [(c, col_mask ^ (1 << c), (k - 1 + j) % 2) for j, c in enumerate(cols)]))
        level = {}
        for rows in combinations(range(nrows), k):
            row = matrix[rows[-1]]
            row_mask = sum(1 << r for r in rows)
            sub = row_mask ^ (1 << rows[-1])
            for col_mask, terms in plan:
                v = 0
                for c, sub_cols, odd in terms:
                    x = row[c]
                    if x:
                        m = prev[sub, sub_cols]
                        if m:
                            v = v - x * m if odd else v + x * m
                level[row_mask, col_mask] = v
        yield k, level
        prev = level
