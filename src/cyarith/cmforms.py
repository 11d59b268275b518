"""CM eigenvalue systems for the two reference fields Q(i) and Q(sqrt(-3)):
power-of-Grossencharakter trace recurrences, split/inert Euler factors,
normalized prime elements, and the form families whose weight-(n+1)
prime coefficients are the Frobenius traces of the cyclic-quotient
n-folds."""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from functools import lru_cache, partial
from math import isqrt

from .arith import IdentityViolation, IntPoly, is_prime, odd_primes_up_to
from .pointcount import EllipticCurveModel
from .qseries import HeckeCoefficientSpec


#: d -> (name, unit symbol, unit count, chi_{-d} by residue mod d)
_FIELDS = {4: ("i", "i", 4, (0, 1, 0, -1)), 3: ("zeta3", "w", 6, (0, 1, -1))}


@dataclass(frozen=True)
class CMField:
    """Q(sqrt(-d)) with its maximal order Z[u], for d = 4 (Q(i)) or d = 3
    (Q(sqrt(-3))), and the only holder of facts that differ between them.

    u = (t + sqrt(-d))/2 with t = d mod 2 is i, resp. w = (1 + sqrt(-3))/2;
    it is a root of u^2 - t u + 1 and a generator of the units, of which
    there are 4, resp. 6.  chi is chi_{-d}, read from its residues mod d;
    for odd primes not dividing d it is the Legendre symbol (-d/p).  All
    of these are read from d and none can be set.
    """

    d: int
    t: int = dataclass_field(init=False, repr=False, compare=False)
    name: str = dataclass_field(init=False, repr=False, compare=False)
    unit_symbol: str = dataclass_field(init=False, repr=False, compare=False)
    units: int = dataclass_field(init=False, repr=False, compare=False)
    _chi: tuple[int, ...] = dataclass_field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.d not in _FIELDS:
            raise ValueError("supported field tags: d = 3 (zeta3) or d = 4 (i)")
        facts = (self.d % 2,) + _FIELDS[self.d]
        for attr, value in zip(("t", "name", "unit_symbol", "units", "_chi"), facts):
            object.__setattr__(self, attr, value)

    def chi(self, n: int) -> int:
        return self._chi[n % self.d]

    def is_split(self, p: int) -> bool:
        return self.chi(p) == 1

    def is_ramified(self, p: int) -> bool:
        return self.chi(p) == 0


GAUSSIAN = CMField(4)
EISENSTEIN = CMField(3)


def power_trace(a: int, p: int, m: int) -> int:
    """s_m = alpha^m + conj(alpha)^m for alpha + conj = a, alpha*conj = p.

    Lucas recurrence s_m = a s_{m-1} - p s_{m-2} with s_0 = 2, s_1 = a.
    For a split prime with weight-2 trace a this is the prime coefficient
    of the weight-(m+1) form: s_2 = a^2 - 2p, s_3 = a^3 - 3pa, ...
    """
    if m < 0:
        raise ValueError("m must be >= 0")
    if m == 0:
        return 2
    prev, cur = 2, a
    for _ in range(m - 1):
        prev, cur = cur, a * cur - p * prev
    return cur


def nebentypus(weight: int, field: CMField, n: int) -> int:
    """Character of the weight-k CM form: trivial for even k, chi_{-d} for odd k."""
    return 1 if weight % 2 == 0 else field.chi(n)


def cm_euler_factor(weight: int, field: CMField, p: int, ap: int | None = None) -> IntPoly:
    """Degree-2 local factor 1 - a_p T + chi(p) p^(k-1) T^2 of the weight-k
    CM form at a good prime, chi its nebentypus.

    split p: a_p = s_{k-1} from the curve trace ap, chi(p) = 1;
    inert p: a_p = 0, so the eigenvalues are +-p^((k-1)/2) for odd k
    (chi(p) = -1) and +-i p^((k-1)/2) for even k (chi(p) = 1).
    """
    if weight < 2:
        raise ValueError("weight must be >= 2")
    if field.is_ramified(p):
        raise ValueError(f"p = {p} is ramified in the CM field; no good Euler factor")
    trace = 0
    if field.is_split(p):
        if ap is None:
            raise ValueError("split prime needs the weight-2 trace a_p")
        trace = power_trace(ap, p, weight - 1)
    return IntPoly((1, -trace, nebentypus(weight, field, p) * p ** (weight - 1)))


# ---------------------------------------------------------------------------
# Normalized prime elements (the Grossencharakter convention)


@dataclass(frozen=True)
class QuadOrderElem:
    """x + y*u in the field's order Z[u], u^2 = t u - 1: u = i in Z[i] (t = 0),
    u = w = (1+sqrt(-3))/2 in the Eisenstein order (t = 1)."""

    field: CMField
    x: int
    y: int

    @property
    def norm(self) -> int:
        return self.x * self.x + self.field.t * self.x * self.y + self.y * self.y

    @property
    def trace(self) -> int:
        # trace(u) = t
        return 2 * self.x + self.field.t * self.y

    def conjugate(self) -> "QuadOrderElem":
        # conj(u) = t - u
        return QuadOrderElem(self.field, self.x + self.field.t * self.y, -self.y)

    def __mul__(self, other: "QuadOrderElem") -> "QuadOrderElem":
        # u^2 = t u - 1 adds t*y1*y2 to the u coordinate
        x = self.x * other.x - self.y * other.y
        y = self.x * other.y + self.y * other.x + self.field.t * self.y * other.y
        return QuadOrderElem(self.field, x, y)

    def __str__(self) -> str:
        if self.y == 0:
            return str(self.x)
        sign = "+" if self.y > 0 else "-"
        mag = "" if abs(self.y) == 1 else str(abs(self.y))
        return f"{self.x} {sign} {mag}{self.field.unit_symbol}"


def is_normalized(elem: QuadOrderElem) -> bool:
    """The congruence singling out the canonical generator of a prime ideal.

    Z[i]:  alpha = 1 mod (2+2i), i.e. 4 | (x-1+y) and 4 | (y-x+1).
    Z[w]:  alpha = 1 mod 3,      i.e. x = 1 and y = 0 mod 3.
    """
    if elem.field.d == 4:
        return (elem.x - 1 + elem.y) % 4 == 0 and (elem.y - elem.x + 1) % 4 == 0
    return elem.x % 3 == 1 and elem.y % 3 == 0


def _sqrt_minus(field: CMField, p: int) -> int:
    """A square root of -d mod a prime p that splits in the field.

    z = c^((p-1)/d) for bases c = 2, 3, ... until z^2 + t z + 1 = 0 mod p,
    i.e. z is a primitive 4th root of unity (d = 4), resp. a primitive
    cube root (d = 3); then (2z + t)^2 = t^2 - 4 = -d.
    """
    d, t = field.d, field.t
    for c in range(2, p):
        z = pow(c, (p - 1) // d, p)
        if (z * z + t * z + 1) % p == 0:
            return (2 * z + t) % p
    raise IdentityViolation(f"no square root of -{d} mod {p}")


def _cornacchia(field: CMField, p: int) -> tuple[int, int]:
    """(X, Y) with X^2 + d Y^2 = 4p, p an odd prime split in the field.

    The modified Cornacchia algorithm (H. Cohen, GTM 138, Algorithm
    1.5.3): take the root of -d mod p with the parity of d, run Euclid on
    2p and that root until the remainder drops to 2 sqrt(p) or below;
    that remainder is X.
    """
    d = field.d
    r = _sqrt_minus(field, p)
    if (r - d) % 2:
        r = p - r
    a, b, limit = 2 * p, r, isqrt(4 * p)
    while b > limit:
        a, b = b, a % b
    c, rem = divmod(4 * p - b * b, d)
    y = isqrt(c)
    if rem or y * y != c:
        raise IdentityViolation(f"Cornacchia found no X^2 + {d}Y^2 = 4*{p}")
    return b, y


@lru_cache(maxsize=4096)
def normalize_prime_element(p: int, field: CMField) -> QuadOrderElem:
    """The normalized prime element above a split prime p, in O(log p).

    Cornacchia's X^2 + d Y^2 = 4p gives pi = (X - tY)/2 + Y u of norm p.
    Exactly one of its field.units associates pi u^k passes is_normalized
    (the units form a transversal of the residue classes); the conjugate
    of that one is normalized above the conjugate ideal and has the same
    trace, the a_p of the reference curve of the field's family.  Of the
    two, the one with y > 0 is returned.  A p that is not split in the
    field, or not prime, raises ValueError before any Cornacchia step.
    The last 4096 elements are kept (about the split primes of both
    fields below 39,000), so the weights of a family share one primality
    test and one Cornacchia per prime.
    """
    if not field.is_split(p):
        raise ValueError(f"p = {p} is not a split prime for d = {field.d}")
    if not is_prime(p):
        raise ValueError(f"p = {p} is not prime")
    x, y = _cornacchia(field, p)
    elem = QuadOrderElem(field, (x - field.t * y) // 2, y)
    unit = QuadOrderElem(field, 0, 1)
    hits = []
    for _ in range(field.units):
        if is_normalized(elem):
            hits.append(elem)
        elem = elem * unit
    if len(hits) != 1:
        raise IdentityViolation(f"normalization not unique at p = {p}: {[str(h) for h in hits]}")
    (alpha,) = hits
    return alpha if alpha.y > 0 else alpha.conjugate()


# ---------------------------------------------------------------------------
# Form families over the two reference curves


@dataclass(frozen=True)
class CMForm:
    """Weight-k member of a CM family: its Hecke spec takes a_p from
    `CMFormFamily.ap` and its character from `nebentypus`."""

    family: "CMFormFamily"
    weight: int

    def hecke_spec(self) -> HeckeCoefficientSpec:
        fam, k = self.family, self.weight
        return HeckeCoefficientSpec(
            weight=k,
            character=partial(nebentypus, k, fam.field),
            ap_source=partial(fam.ap, k),
            bad_primes=fam.bad_primes,
        )


@dataclass(frozen=True)
class CMFormFamily:
    """All weights of one Grossencharakter power tower over a fixed curve.

    The weight-2 coefficients at split primes are the traces of the
    normalized prime elements; the reference curve is what their point
    counts must equal (`suite cm` checks it), never counted here.  Inert
    primes contribute 0 and the bad prime, the one that ramifies in the
    field, is excluded from every comparison.
    """

    field: CMField
    curve: EllipticCurveModel
    name: str

    @property
    def bad_primes(self) -> frozenset[int]:
        """The primes ramified in the field: {2} for Q(i), {3} for Q(sqrt(-3))."""
        return frozenset(q for q in (2, 3) if self.field.is_ramified(q))

    def good_primes(self, pmax: int) -> list[int]:
        """The odd primes <= pmax that do not ramify in the field."""
        return [p for p in odd_primes_up_to(pmax) if not self.field.is_ramified(p)]

    def curve_ap(self, p: int) -> int:
        """Weight-2 coefficient at a good prime: the trace of the normalized
        prime element at split p (by Cornacchia, O(log p)), 0 at inert p.
        Bad primes and non-primes raise ValueError; a split p is tested for
        primality by the cached `normalize_prime_element`, once per prime."""
        if self.field.is_split(p):
            return normalize_prime_element(p, self.field).trace
        if not is_prime(p):
            raise ValueError(f"p = {p} is not prime")
        if self.field.is_ramified(p):
            raise ValueError(f"p = {p} is a bad prime for the {self.name} family")
        return 0

    def ap(self, weight: int, p: int) -> int:
        """Prime coefficient of the weight-k form: s_{k-1} split, 0 inert
        or ramified."""
        if weight < 2:
            raise ValueError("weight must be >= 2")
        if self.field.is_split(p):
            return power_trace(self.curve_ap(p), p, weight - 1)
        return 0

    def form(self, weight: int) -> CMForm:
        return CMForm(self, weight)
