"""Exact point counts over F_p: elliptic Frobenius traces and the number
of points on Ahlgren's affine fivefold, two ways that share no identity.

The exact count takes, for each v, the histogram of the values
s(s-1)(s-v) and counts the points through products of value classes in
O(p^3) steps, with no character.  The fast count is a character-sum
reduction whose p fibre sums form one cyclic correlation: a single
Kronecker-substitution product of two length-p lists, the fibre table
and the reversed Legendre table, whose two halves fold into the p sums."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from operator import add, index

from .arith import IdentityViolation, _kronecker_mul, legendre_table, odd_primes_up_to, require_odd_prime
from .qseries import EtaProduct, QSeries

# default cap for the exact count, which the suites run at every p up to it
BRUTE_FORCE_LIMIT = 13


@dataclass(frozen=True)
class EllipticCurveModel:
    """y^2 = x^3 + a*x + b, a and b integers (else TypeError), nonzero discriminant."""

    a: int
    b: int

    def __post_init__(self):
        object.__setattr__(self, "a", index(self.a))
        object.__setattr__(self, "b", index(self.b))
        if self.discriminant == 0:
            raise ValueError("singular model: discriminant is zero")

    @property
    def discriminant(self) -> int:
        return -16 * (4 * self.a**3 + 27 * self.b**2)

    def is_good(self, p: int) -> bool:
        require_odd_prime(p)
        return self.discriminant % p != 0

    def __str__(self) -> str:
        terms = "x^3"
        if self.a:
            coeff = "" if abs(self.a) == 1 else f"{abs(self.a)}*"
            terms += f" + {coeff}x" if self.a > 0 else f" - {coeff}x"
        if self.b:
            terms += f" + {self.b}" if self.b > 0 else f" - {-self.b}"
        return f"y^2 = {terms}"


def elliptic_ap(curve: EllipticCurveModel, p: int) -> int:
    """Trace of Frobenius a_p = p + 1 - #E(F_p) = -sum_x chi(x^3 + ax + b)."""
    if not curve.is_good(p):
        raise ValueError(f"p = {p} is a bad prime for {curve}")
    chi = legendre_table(p)
    a, b = curve.a % p, curve.b % p
    total = 0
    for x in range(p):
        total += chi[(x * x % p * x + a * x + b) % p]
    ap = -total
    if ap * ap > 4 * p:  # Hasse bound; failure would mean a bug
        raise IdentityViolation(f"Hasse bound violated at p={p} for {curve}")
    return ap


def ahlgren_count_bruteforce(p: int, limit: int = BRUTE_FORCE_LIMIT) -> int:
    """N(p) for the affine (u = 1) Ahlgren fivefold, counted exactly.

    Counts solutions of w^2 = f(x,y,z,t,v) with
    f = prod_{s in {x,y,z,t}} s(s-1)(s-v) over all of F_p^5, each point
    once: per v, the histogram h of s(s-1)(s-v), its multiplicative
    self-convolution (the number of (x, y) per value of the product of
    two factors), and the number of w per value from a squares
    histogram.  O(p^3) steps, no character and no multiplicativity, so
    this path is independent of the character-sum identity and serves
    as the oracle for the fast count.
    """
    require_odd_prime(p)
    if p > limit:
        raise ValueError(f"p = {p} exceeds the brute-force cap {limit} (pass a larger limit)")
    nsol = [0] * p
    for w in range(p):
        nsol[w * w % p] += 1
    total = 0
    for v in range(p):
        hist = [0] * p
        for s in range(p):
            hist[s * (s - 1) % p * (s - v) % p] += 1
        # pairs[r] = #{(x, y) : g(x) g(y) = r}, where g(s) = s(s-1)(s-v)
        pairs = [0] * p
        for r1, c1 in enumerate(hist):
            if c1:
                for r2, c2 in enumerate(hist):
                    pairs[r1 * r2 % p] += c1 * c2
        # (x, y) and (z, t) in value classes r1, r2 extend by nsol[r1 r2] values of w
        for r1, c1 in enumerate(pairs):
            if c1:
                total += c1 * sum(c2 * nsol[r1 * r2 % p] for r2, c2 in enumerate(pairs))
    return total


def ahlgren_count_fast(p: int) -> int:
    """N(p) = sum_v (p^4 + S(v)^4), a reduction of the brute count.

    Full multiplicativity of chi (with chi(0) = 0) factors the
    twelve-factor character sum over F_p^5 into the per-coordinate sums
    S(v) = sum_s chi(s(s-1)) chi(s-v), one Legendre-family fiber per v.
    All p of them form one cyclic correlation, folded from one product:
    with a_s = chi(s(s-1)) and the reversed table r_t = chi(p-1-t), the
    coefficient c_k of a(x) r(x) collects the terms s >= v of S(v) at
    k = p-1+v and the terms s < v at k = v-1, so S(0) = c_(p-1) and
    S(v) = c_(p-1+v) + c_(v-1) for v >= 1.  One Kronecker product of two
    length-p lists gives them all.  A p that is not an odd prime raises
    ValueError from `legendre_table`.
    """
    chi = legendre_table(p)
    a = [chi[s * (s - 1) % p] for s in range(p)]
    c = _kronecker_mul(a, chi[::-1], 2 * p - 2)
    fibres = map(add, c[p:], c[: p - 1])
    return p**5 + c[p - 1] ** 4 + sum(map(pow, fibres, repeat(4)))


def ahlgren_predicted(p: int, ap: int) -> int:
    """The closed form p^5 + 2p^3 - 4p^2 - 9p - 1 - a_p."""
    return p**5 + 2 * p**3 - 4 * p**2 - 9 * p - 1 - ap


#: weight 6, level 4: the cusp form whose coefficients enter the identity
AHLGREN_ETA = EtaProduct(((2, 12),))


@dataclass(frozen=True)
class AhlgrenRow:
    p: int
    count: int
    brute: int | None
    ap: int
    predicted: int
    match: bool


def verify_ahlgren(
    pmax: int,
    brute_max: int | None = None,
    eta_series: QSeries | None = None,
) -> list[AhlgrenRow]:
    """Check N(p) = p^5 + 2p^3 - 4p^2 - 9p - 1 - a_p for all odd primes <= pmax.

    a_p is the coefficient of the weight-6 level-4 eta power.  Primes up
    to brute_max are additionally counted by full enumeration; a row
    keeps both counts, and its `match` is false unless the fast count
    equals the brute count as well as the prediction.
    """
    if pmax < 3:
        raise ValueError("pmax must be at least 3")
    series = eta_series if eta_series is not None else AHLGREN_ETA.expand(pmax)
    rows = []
    for p in odd_primes_up_to(pmax):
        count = ahlgren_count_fast(p)
        brute = None
        if brute_max is not None and p <= brute_max:
            # the requested bound overrides the default enumeration cap
            brute = ahlgren_count_bruteforce(p, limit=brute_max)
        ap = series.coeff(p)
        predicted = ahlgren_predicted(p, ap)
        match = count == predicted and brute in (None, count)
        rows.append(AhlgrenRow(p, count, brute, ap, predicted, match))
    return rows
