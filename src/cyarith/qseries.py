"""Truncated integer q-expansions: Dedekind eta products and Hecke
multiplicative expansion of eigenforms.

An eta product is expanded factor by factor, in x = q^g with g the gcd
of its scales.  Each power E^k of the pentagonal series E is
E^(k//2) E^(k - k//2) in its own variable, down to E^1 from the
pentagonal number theorem, so an exponent costs one big-integer product
and exponents share their intermediate powers (`unit_powers`).  A factor
in x^s multiplies the running product one residue class mod s at a time,
each class a series in x^s of its own.  Every product is a Kronecker
substitution (`arith._kronecker_mul`), and none of them carries the zeros
off the multiples of a scale.

All series here are cusp forms, so coefficients start at q^1 and c_0 is
identically zero.  A QSeries never reads beyond its stated precision.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Callable, Mapping

from .arith import _kronecker_mul, primes_up_to

DEFAULT_PRECISION = 200  # every bundled comparison needs far less


@dataclass(frozen=True)
class QSeries:
    """Integer coefficients c_1 .. c_N of a truncated q-expansion."""

    values: tuple[int, ...]  # values[n] = c_n; values[0] is always 0

    def __post_init__(self):
        if not self.values or self.values[0] != 0:
            raise ValueError("cusp-form series: index starts at q^1, c_0 = 0")

    @property
    def precision(self) -> int:
        return len(self.values) - 1

    def coeff(self, n: int) -> int:
        if not 1 <= n <= self.precision:
            raise IndexError(f"coefficient q^{n} outside precision {self.precision}")
        return self.values[n]


# ---------------------------------------------------------------------------
# Eta products


def eta_unit_part(top: int) -> list[int]:
    """prod_{k>=1} (1 - q^k) truncated at q^top.

    Pentagonal number theorem: the product is sum_m (-1)^m q^(g_m)
    over generalized pentagonal numbers g_m = m(3m-1)/2, m in Z.
    """
    out = [0] * (top + 1)
    out[0] = 1
    m = 1
    while True:
        g1 = m * (3 * m - 1) // 2
        g2 = m * (3 * m + 1) // 2
        if g1 > top:  # g1 < g2
            break
        s = -1 if m % 2 else 1
        out[g1] = s
        if g2 <= top:
            out[g2] = s
        m += 1
    return out


class _UnitPowerCache:
    """E^k truncated at q^top, E = prod_{n>=1} (1 - q^n), for the last
    `size` exponents k used.

    E^1 is the pentagonal series, and E^k = E^(k//2) E^(k - k//2) is one
    truncated Kronecker product of two powers taken from the cache itself,
    so the exponents of one chain (24, 12, 6, 3, 2, 1) share their
    intermediate powers.  An even k passes E^(k/2) as both factors, so the
    product is a square.  Each k keeps the longest power computed so far,
    and a shorter top is a prefix of it: truncation commutes with the
    product.  The least recently used exponent is dropped first.
    """

    def __init__(self, size: int):
        self.size = size
        self.powers: dict[int, list[int]] = {}

    def __call__(self, k: int, top: int) -> list[int]:
        if k < 1 or top < 0:
            raise ValueError(f"E^k to q^top needs k >= 1 and top >= 0, got k = {k}, top = {top}")
        power = self.powers.pop(k, None)
        if power is None or len(power) <= top:
            if k == 1:
                power = eta_unit_part(top)
            else:
                half = self(k // 2, top)
                power = _kronecker_mul(half, half if k % 2 == 0 else self(k - k // 2, top), top)
        self.powers[k] = power
        while len(self.powers) > self.size:
            del self.powers[next(iter(self.powers))]
        return power[: top + 1]

    def cache_clear(self) -> None:
        self.powers.clear()


#: the bundled and benchmarked eta products use the exponents 2, 3, 4, 6,
#: 8, 12 and 24, whose chains visit these and 1
unit_powers = _UnitPowerCache(8)


@dataclass(frozen=True)
class EtaProduct:
    """prod_i eta(q^(m_i))^(k_i), held as ((m_1, k_1), (m_2, k_2), ...).

    The eta prefactors contribute q^(sum m_i k_i / 24); the sum must be
    divisible by 24 for the product to be an integral q-series.
    """

    factors: tuple[tuple[int, int], ...]

    def __post_init__(self):
        object.__setattr__(self, "factors", tuple((int(m), int(k)) for m, k in self.factors))
        if not self.factors:
            raise ValueError("an eta product needs at least one factor")
        for m, k in self.factors:
            if m < 1 or k < 1:
                raise ValueError("eta factors need positive scale and exponent")
        if self.weight_24 % 24 != 0:
            raise ValueError(
                f"sum(m*k) = {self.weight_24} is not divisible by 24; "
                "the leading exponent would be fractional"
            )

    @property
    def weight_24(self) -> int:
        return sum(m * k for m, k in self.factors)

    @property
    def q_shift(self) -> int:
        return self.weight_24 // 24

    def expand(self, precision: int = DEFAULT_PRECISION) -> QSeries:
        """Exact coefficients through q^precision.

        The product runs in x = q^g, g the gcd of the scales, so a factor
        prod (1 - q^(m n))^k is E^k in x^(m/g), with E^k =
        `unit_powers(k, size // (m/g))` and size the truncation in x.  The
        factor of smallest scale is spread into the running product.  A
        later factor in x^s touches each residue class mod s separately:
        class r of the product is class r of the running product times
        E^k, so it costs s truncated Kronecker products of about size / s
        entries each, and never one of length size that is zero off the
        multiples of s.  Only the classes r <= size exist.  `unit_powers`
        builds E^k from smaller powers it keeps, and an exponent shared by
        several factors or products is built again only for a longer top.
        """
        if precision < 0:
            raise ValueError("precision must be >= 0")
        shift = self.q_shift
        top = precision - shift
        vals = [0] * (precision + 1)
        if top >= 0:
            g = gcd(*(m for m, _ in self.factors))
            size = top // g
            (first, k), *rest = sorted((m // g, k) for m, k in self.factors)
            unit = [0] * (size + 1)
            unit[::first] = unit_powers(k, size // first)
            for s, k in rest:
                power = unit_powers(k, size // s)
                for r in range(min(s, size + 1)):
                    column = unit[r::s]
                    unit[r::s] = _kronecker_mul(column, power, len(column) - 1)
            vals[shift::g] = unit
        return QSeries(tuple(vals))

    def __str__(self) -> str:
        return "*".join(
            f"eta(q^{m})^{k}" if k > 1 else f"eta(q^{m})" for m, k in self.factors
        )


# ---------------------------------------------------------------------------
# Hecke-multiplicative expansion


@dataclass(frozen=True)
class HeckeCoefficientSpec:
    """Everything needed to expand an eigenform from its prime coefficients.

    `ap_source` must yield a_p for every good prime in range; a
    LookupError or ValueError it raises (`QSeries.coeff` raises IndexError
    beyond its precision) is a ValueError for the missing a_p.  Primes in
    `bad_primes` take their value from `bad_values` (default 0).  The
    character is the form's nebentypus evaluated at good primes.
    """

    weight: int
    character: Callable[[int], int]
    ap_source: Callable[[int], int]
    bad_primes: frozenset[int] = frozenset()
    bad_values: Mapping[int, int] | None = None

    def __post_init__(self):
        if self.weight < 2:
            raise ValueError("weight must be >= 2")

    def ap(self, p: int) -> int:
        if p in self.bad_primes:
            return (self.bad_values or {}).get(p, 0)
        try:
            a = self.ap_source(p)
        except (LookupError, ValueError) as exc:
            raise ValueError(f"missing prime coefficient a_{p}") from exc
        # Ramanujan bound |a_p| <= 2 p^((k-1)/2), integer-exact form
        if a * a > 4 * p ** (self.weight - 1):
            raise ValueError(f"a_{p} = {a} violates the Ramanujan bound for weight {self.weight}")
        return a

    def chi(self, p: int) -> int:
        return 0 if p in self.bad_primes else self.character(p)


def hecke_expand(spec: HeckeCoefficientSpec, precision: int = DEFAULT_PRECISION) -> QSeries:
    """Full multiplicative expansion a_1 .. a_N from prime data.

    Prime powers follow a_{p^(r+1)} = a_p a_{p^r} - chi(p) p^(k-1) a_{p^(r-1)};
    coprime indices multiply.  A sliced sieve, primes descending and
    powers ascending, leaves in part[m] the full power of the smallest
    prime dividing m, so a_m = a_part[m] a_(m / part[m]) in one pass.
    """
    if precision < 0:
        raise ValueError("precision must be >= 0")
    n = precision
    a = [0] * (n + 1)
    if n >= 1:
        a[1] = 1
    primes = primes_up_to(n)
    for p in primes:
        ap = spec.ap(p)
        cpk = spec.chi(p) * p ** (spec.weight - 1)
        a[p] = ap
        prev, cur, pe = 1, ap, p
        while pe * p <= n:
            prev, cur = cur, ap * cur - cpk * prev
            pe *= p
            a[pe] = cur
    part = [1] * (n + 1)
    for p in reversed(primes):
        pe = p
        while pe <= n:
            part[pe::pe] = [pe] * (n // pe)
            pe *= p
    for m in range(2, n + 1):
        a[m] = a[part[m]] * a[m // part[m]]
    return QSeries(tuple(a))
