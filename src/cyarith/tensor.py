"""Local L-factors of tensor products of 2-dimensional Frobenius data,
and the product-side factorizations they are checked against.

Euler factors are compared as full polynomials, not just first traces:
at inert primes every odd trace vanishes, so a trace-only comparison
would be vacuous exactly where the sign conventions matter most.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .arith import IdentityViolation, IntPoly, odd_primes_up_to
from .cmforms import CMField, cm_euler_factor, power_trace
from .registry import GAUSSIAN_FAMILY


def char_poly_from_power_sums(sums: list[int], degree: int) -> IntPoly:
    """det(1 - Frob T) from power sums tr(Frob^m), m = 1..degree.

    Newton's identities: k e_k = sum_{i=1..k} (-1)^(i-1) e_{k-i} p_i.
    Every e_k must come out integral; a failed division means the trace
    data was inconsistent, and raises IdentityViolation.
    """
    if len(sums) < degree:
        raise ValueError("need power sums up to the degree")
    e = [1] + [0] * degree
    for k in range(1, degree + 1):
        acc = 0
        for i in range(1, k + 1):
            acc += (-1) ** (i - 1) * e[k - i] * sums[i - 1]
        if acc % k:
            raise IdentityViolation(f"non-integer Newton step at k = {k}: inconsistent traces")
        e[k] = acc // k
    return IntPoly(tuple((-1) ** k * e[k] for k in range(degree + 1)))


def tensor_euler_factor(factors) -> IntPoly:
    """Exact degree-2^n local factor of the tensor product of n degree-2
    Euler factors 1 - t T + d T^2.

    One Lucas pass s_m = t s_{m-1} - d s_{m-2} (s_0 = 2, s_1 = t) per
    factor gives its power sums tr(Frob^m), m = 1..2^n; their products
    are the power sums of the tensor product, which Newton's identities
    turn back into the factor.
    """
    factors = list(factors)
    degree = 2 ** len(factors)
    sums = [1] * degree
    for factor in factors:
        if factor.degree != 2 or factor.coeff(0) != 1:
            raise ValueError(f"not a degree-2 Euler factor: {factor}")
        t, d = -factor.coeff(1), factor.coeff(2)
        prev, cur = 2, t
        for m in range(degree):
            sums[m] *= cur
            prev, cur = cur, t * cur - d * prev
    return char_poly_from_power_sums(sums, degree)


# ---------------------------------------------------------------------------
# The binomial factorization of the n-th tensor power of a weight-2 form


def tensor_power_lhs(curve_ap: int | None, p: int, field: CMField, n: int) -> IntPoly:
    return tensor_euler_factor([cm_euler_factor(2, field, p, curve_ap)] * n)


def power_factorization_rhs(curve_ap: int | None, p: int, field: CMField, n: int) -> IntPoly:
    """prod_j L_p(weight n-2j+1, shift j)^C(n,j), with the two Dirichlet
    factors (1 - p^(n/2) T)^(C(n,n/2)/2) (1 - chi(p) p^(n/2) T)^(C(n,n/2)/2)
    closing the middle when n is even."""
    ap = curve_ap if field.is_split(p) else None
    out = IntPoly.one()
    for j in range((n - 1) // 2 + 1):
        factor = cm_euler_factor(n - 2 * j + 1, field, p, ap)
        out = out * factor.scale_arg(p**j) ** comb(n, j)
    if n % 2 == 0:
        middle = comb(n, n // 2)
        if middle % 2:
            raise IdentityViolation(f"odd middle multiplicity C({n},{n // 2}) = {middle}")
        half = middle // 2
        pn2 = p ** (n // 2)
        out = out * IntPoly((1, -pn2)) ** half * IntPoly((1, -field.chi(p) * pn2)) ** half
    return out


@dataclass(frozen=True)
class FactorizationCheck:
    p: int
    n: int
    lhs: IntPoly
    rhs: IntPoly
    trace_identity: bool  # split primes: a_p^n = sum_j C(n,j) p^j s_{n-2j} (+ middle)
    equal: bool


def verify_power_factorization(curve_ap: int | None, p: int, field: CMField, n: int) -> FactorizationCheck:
    """Polynomial identity between the n-th tensor power and its product side."""
    lhs = tensor_power_lhs(curve_ap, p, field, n)
    rhs = power_factorization_rhs(curve_ap, p, field, n)
    trace_ok = True
    if field.is_split(p):
        acc = sum(comb(n, j) * p**j * power_trace(curve_ap, p, n - 2 * j) for j in range((n - 1) // 2 + 1))
        if n % 2 == 0:
            acc += comb(n, n // 2) * p ** (n // 2)
        trace_ok = acc == curve_ap**n
    return FactorizationCheck(p, n, lhs, rhs, trace_ok, lhs == rhs)


# ---------------------------------------------------------------------------
# weight-4 x weight-3 = weight-6 + twisted weight-2 (the fivefold identity)


@dataclass(frozen=True)
class TensorSplitRow:
    p: int
    trace_lhs: int
    trace_rhs: int
    trace_equal: bool
    lhs: IntPoly
    rhs: IntPoly
    poly_equal: bool

    @property
    def equal(self) -> bool:
        return self.trace_equal and self.poly_equal


def g4xg3_row(family, p: int) -> TensorSplitRow:
    """At one good odd prime: a_p(w4) a_p(w3) = a_p(w6) + p^2 a_p(w2) and the
    full degree-4 factor identity L(w4 (x) w3) = L(w6) L(w2, shift 2)."""
    w2, w3, w4, w6 = (family.form(k) for k in (2, 3, 4, 6))
    lhs = tensor_euler_factor([w4.euler_factor(p), w3.euler_factor(p)])
    rhs = w6.euler_factor(p) * w2.euler_factor(p).scale_arg(p**2)
    t_lhs = w4.ap(p) * w3.ap(p)
    t_rhs = w6.ap(p) + p**2 * w2.ap(p)
    return TensorSplitRow(p, t_lhs, t_rhs, t_lhs == t_rhs, lhs, rhs, lhs == rhs)


def verify_g4xg3(pmax: int) -> list[TensorSplitRow]:
    """Run g4xg3_row for the Gaussian family over every good odd prime <=
    pmax (bad primes skipped: equality of L-series is only claimed up to
    finitely many factors)."""
    primes = [p for p in odd_primes_up_to(pmax) if p not in GAUSSIAN_FAMILY.bad_primes]
    return [g4xg3_row(GAUSSIAN_FAMILY, p) for p in primes]
