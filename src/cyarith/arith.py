"""Exact arithmetic primitives shared by every other module.

Everything is integer and exact: primality by one lazily built sieve
below 2^16 and deterministic Miller-Rabin above it, Legendre symbols
with per-prime lookup tables, integer polynomials in one formal
variable T as values (`tensor.euler_product` multiplies them),
truncated products of integer coefficient lists by Kronecker
substitution, and every square minor of an integer matrix by one
level-by-level Laplace pass.  No floating point anywhere.

The Kronecker product packs each list into one Python int, one signed
digit of `width` bytes per coefficient.  A digit of at most 8 bytes is
cut out of one `array('q')` by `width` strided byte slices and read back
by sign-extending every digit to 8 bytes the same way, so no Python code
runs per coefficient; a wider digit goes through `int.to_bytes` one
coefficient at a time.

A checked identity that fails raises `IdentityViolation`, which the CLI
reports as a failure with exit code 1.
"""

from __future__ import annotations

import sys
from array import array
from functools import lru_cache
from itertools import combinations, compress
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


#: is_prime reads a sieve below this bound, and runs Miller-Rabin at and above it
_TABLE_LIMIT = 1 << 16


def _sieve(n: int) -> bytearray:
    """mark[i] = 1 exactly when i <= n is prime (n >= 1)."""
    mark = bytearray([1]) * (n + 1)
    mark[0] = mark[1] = 0
    for p in range(2, isqrt(n) + 1):
        if mark[p]:
            mark[p * p :: p] = bytes(len(range(p * p, n + 1, p)))
    return mark


@lru_cache(maxsize=1)
def _prime_table() -> bytes:
    """The sieve below _TABLE_LIMIT, 64 KiB, built on first use."""
    return bytes(_sieve(_TABLE_LIMIT - 1))


def is_prime(n: int) -> bool:
    """Primality of n < PRIMALITY_LIMIT: a table lookup below 2^16, else
    deterministic Miller-Rabin; a larger n raises ValueError rather than
    get an unproven answer."""
    if n < _TABLE_LIMIT:
        return n >= 2 and _prime_table()[n] == 1
    if n >= PRIMALITY_LIMIT:
        raise ValueError(f"n = {n} is not below {PRIMALITY_LIMIT}, the limit of the deterministic primality test")
    for w in _MR_WITNESSES:
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
    """All primes <= n, by one sieve."""
    if n < 2:
        return []
    return list(compress(range(n + 1), _sieve(n)))


def odd_primes_up_to(n: int) -> list[int]:
    return [p for p in primes_up_to(n) if p > 2]


def require_odd_prime(p: int) -> None:
    """Raise ValueError unless p is an odd prime; every modulus in the toolkit is odd."""
    if not isinstance(p, int) or p < 3 or p % 2 == 0 or not is_prime(p):
        raise ValueError(f"modulus must be an odd prime >= 3, got {p!r}")


def legendre_table(p: int) -> list[int]:
    """The Legendre symbol (a/p) for every residue a, indexed by residue,
    from a single O(p) squares sieve, with the chi(0) = 0 convention.

    Point counts and fibre sums evaluate chi O(p) times per prime, so
    the symbol is tabulated once.  The zero convention makes chi fully
    multiplicative, which the fast point-count paths rely on.
    """
    require_odd_prime(p)
    values = [-1] * p
    values[0] = 0
    for x in range(1, p):
        values[x * x % p] = 1
    return values


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

    def __repr__(self) -> str:
        return f"IntPoly({list(self.coeffs)!r})"


# ---------------------------------------------------------------------------
# Truncated products of coefficient lists by Kronecker substitution


_BIG_ENDIAN = sys.byteorder == "big"
#: `bytes.translate` tables: a byte -> 1 (resp. 0xff) when its top bit is set, else 0
_SIGN_FLAG = bytes(128) + b"\x01" * 128
_SIGN_FILL = bytes(128) + b"\xff" * 128


def _pack(values: list[int], width: int) -> int:
    """sum_i values[i] * X^i for X = 2^(8*width), every |values[i]| < X/2.

    The values are laid out as `width`-byte two's-complement digits: up
    to 8 bytes cut out of the little-endian words of one `array('q')` by
    `width` strided slices, wider ones by `int.to_bytes`, one per value.
    Read as one unsigned int, each negative digit counts X too many; the
    borrows are taken back as one int built from the digits' top bytes.
    """
    if width > 8:
        digits = b"".join(v.to_bytes(width, "little", signed=True) for v in values)
    else:
        words = array("q", values)
        if _BIG_ENDIAN:
            words.byteswap()
        raw = words.tobytes()
        digits = bytearray(width * len(values))
        for j in range(width):
            digits[j::width] = raw[j::8]
    borrow = bytearray(len(digits))
    borrow[width - 1 :: width] = digits[width - 1 :: width].translate(_SIGN_FLAG)  # X/2^8 per negative digit, << 8 makes it X
    return int.from_bytes(digits, "little") - (int.from_bytes(borrow, "little") << 8)


def _unpack(low: int, width: int, n: int) -> list[int]:
    """The n signed two's-complement digits of X = 2^(8*width) in low.

    A width of at most 8 bytes is sign-extended to 8-byte words by
    strided slices and read as one `array('q')`; a wider digit is read by
    `int.from_bytes`, one digit at a time.
    """
    raw = low.to_bytes(width * n, "little")
    if width > 8:
        return [int.from_bytes(raw[i : i + width], "little", signed=True) for i in range(0, width * n, width)]
    words = bytearray(8 * n)
    for j in range(width):
        words[j::8] = raw[j::width]
    fill = raw[width - 1 :: width].translate(_SIGN_FILL)
    for j in range(width, 8):
        words[j::8] = fill
    digits = array("q")
    digits.frombytes(words)
    if _BIG_ENDIAN:
        digits.byteswap()
    return digits.tolist()


def _kronecker_mul(a: list[int], b: list[int], top: int) -> list[int]:
    """Coefficients 0..top of the product of the integer polynomials with
    ascending coefficient lists a and b.

    Kronecker substitution: each list is evaluated at X = 2^(8*width) as
    one Python int (`_pack`), and a single bigint product holds the
    product polynomial evaluated at X.  `width` bytes are enough that
    every output coefficient c has |c| < X/2, so adding X/2 to every digit
    of the low top+1 digits makes them all non-negative and free of
    borrows; flipping each digit's top bit back, one XOR with the same
    X/2 pattern, leaves c mod X, the two's-complement digit that
    `_unpack` reads.  Both steps cost a few byte-slice and bigint passes,
    with no Python work per coefficient up to 8-byte digits.

    The width is never rounded up: a wider digit makes the bigint product
    longer.  When a and b are the same list, it is packed once and the
    int squared, which CPython does faster than a product of two ints of
    the same size.
    """
    square = a is b
    a = a[: top + 1]
    b = a if square else b[: top + 1]
    n = top + 1
    if not any(a) or not any(b):
        return [0] * n
    # bound >= every |input| too, since both lists have a nonzero entry
    bound = max(max(a), -min(a)) * max(max(b), -min(b)) * min(len(a), len(b))
    width = (bound.bit_length() + 8) // 8  # bound < 2^(8*width - 1)
    offset = int.from_bytes((bytes(width - 1) + b"\x80") * n, "little")  # X/2 in every digit
    x = _pack(a, width)
    y = x if square else _pack(b, width)
    low = ((x * y + offset) & ((1 << (8 * width * n)) - 1)) ^ offset
    return _unpack(low, width, n)


# ---------------------------------------------------------------------------
# Integer minors


def minors_by_size(matrix):
    """Every square minor of an integer matrix, one size at a time.

    Yields (k, minors) for k = 1 .. min(rows, cols), where `minors` maps
    row_mask, the bitmask of k chosen rows, to {col_mask: determinant of
    that k x k submatrix} over every choice of k columns, so the maximal
    minors of one row set are one dict.  Each size-k minor is its Laplace
    expansion along its last row: k entries of that row times size-(k-1)
    minors of the previous level, so a minor costs k products and only
    two levels are held at once.
    """
    nrows = len(matrix)
    ncols = len(matrix[0]) if nrows else 0
    if any(len(row) != ncols for row in matrix):
        raise ValueError("ragged matrix")
    if not ncols:
        return
    prev = {1 << r: {1 << c: x for c, x in enumerate(row)} for r, row in enumerate(matrix)}
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
            sub = prev[row_mask ^ (1 << rows[-1])]
            minors = {}
            for col_mask, terms in plan:
                v = 0
                for c, sub_cols, odd in terms:
                    x = row[c]
                    if x:
                        m = sub[sub_cols]
                        if m:
                            v = v - x * m if odd else v + x * m
                minors[col_mask] = v
            level[row_mask] = minors
        yield k, level
        prev = level
