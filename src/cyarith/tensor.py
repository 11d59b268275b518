"""Local L-factors of tensor products of 2-dimensional Frobenius data,
and the product-side factorizations they are checked against.

Euler factors are compared as full polynomials, not just first traces:
at inert primes every odd trace vanishes, so a trace-only comparison
would be vacuous exactly where the sign conventions matter most.

The two sides share no algorithm.  The tensor side turns power sums
into the lower half of the factor by Newton's identities, to degree
h = 2^(n-1) only, and mirrors it: Poincare duality makes the eigenvalues
invariant under lambda -> D/lambda, D the product of the determinants,
so c_(2h-k) = D^(h-k) c_k.  The product side (`euler_product`)
multiplies the local factors of degree <= 2 into one coefficient list at
full degree, one pass per factor, so every product has a small integer
on one side.  It runs in T, or in T^2 when every factor is even in T, as
all of them are at an inert prime.  It never uses the functional
equation, so each mirrored coefficient is still compared with one
computed independently.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from math import comb
from operator import mul

from .arith import IdentityViolation, IntPoly, odd_primes_up_to
from .cmforms import CMField, cm_euler_factor, power_trace
from .registry import GAUSSIAN_FAMILY


def char_poly_from_power_sums(sums: list[int], degree: int) -> IntPoly:
    """det(1 - Frob T) from power sums tr(Frob^m), m = 1..degree.

    Newton's identities for the coefficients c_k = (-1)^k e_k themselves:
    k c_k = -sum_{i=1..k} c_{k-i} p_i, one dot product and one division
    per step.  Every c_k must come out integral; a failed division means
    the trace data was inconsistent, and raises IdentityViolation.
    """
    if len(sums) < degree:
        raise ValueError("need power sums up to the degree")
    c = [1]
    for k in range(1, degree + 1):
        ck, rem = divmod(-sum(map(mul, reversed(c), sums)), k)
        if rem:
            raise IdentityViolation(f"non-integer Newton step at k = {k}: inconsistent traces")
        c.append(ck)
    return IntPoly(c)


def tensor_euler_factor(factors) -> IntPoly:
    """Exact degree-2^n local factor of the tensor product of n degree-2
    Euler factors 1 - t T + d T^2.

    The eigenvalues of the tensor product are invariant under
    lambda -> D/lambda with D the product of the n determinants d, so
    the coefficients satisfy c_(2h-k) = D^(h-k) c_k for h = 2^(n-1).
    One Lucas pass s_m = t s_{m-1} - d s_{m-2} (s_0 = 2, s_1 = t) per
    distinct factor gives its power sums tr(Frob^m), m = 1..h; their
    products, a factor repeated j times entering as s_m^j, are the power
    sums of the tensor product.  Newton's identities turn them into
    c_0 .. c_h, and the upper half is that lower half mirrored and scaled
    by powers of D.  No factors give the trivial degree-1 factor 1 - T.
    """
    repeats = Counter(factors)
    n = sum(repeats.values())
    if not n:
        return IntPoly((1, -1))
    half = 2 ** (n - 1)
    sums = [1] * half
    det = 1
    for factor, j in repeats.items():
        if factor.degree != 2 or factor.coeff(0) != 1:
            raise ValueError(f"not a degree-2 Euler factor: {factor}")
        t, d = -factor.coeff(1), factor.coeff(2)
        det *= d**j
        prev, cur = 2, t
        for m in range(half):
            sums[m] *= cur**j
            prev, cur = cur, t * cur - d * prev
    lower = char_poly_from_power_sums(sums, half)
    coeffs = [lower.coeff(k) for k in range(half + 1)]
    scale = 1
    for k in range(half - 1, -1, -1):
        scale *= det
        coeffs.append(scale * coeffs[k])
    return IntPoly(coeffs)


# ---------------------------------------------------------------------------
# The binomial factorization of the n-th tensor power of a weight-2 form


def tensor_power_lhs(curve_ap: int | None, p: int, field: CMField, n: int) -> IntPoly:
    return tensor_euler_factor([cm_euler_factor(2, field, p, curve_ap)] * n)


def euler_product(factors) -> IntPoly:
    """Product of local factors of degree <= 2, one fused pass per factor:
    coefficient m of out * (a + b T + c T^2) is a out_m + b out_{m-1} +
    c out_{m-2}, so every product is a short coefficient times a long one.
    The a column is skipped for the constant term 1 of an Euler factor,
    and the c column for a linear factor.  When every factor is even,
    a + c T^2 (every factor at an inert prime), the product runs in
    U = T^2 on half as many coefficients, each factor linear in U, and is
    spread back onto the even powers of T.  A factor of degree > 2 raises
    ValueError."""
    abc = []
    for factor in factors:
        if factor.degree > 2:
            raise ValueError(f"not a local factor of degree <= 2: {factor}")
        abc.append((factor.coeff(0), factor.coeff(1), factor.coeff(2)))
    if any(b for _, b, _ in abc):
        return IntPoly(_fused_product(abc))
    half = _fused_product([(a, c, 0) for a, _, c in abc])
    out = [0] * (2 * len(half) - 1)
    out[::2] = half
    return IntPoly(out)


def _fused_product(abc) -> list[int]:
    """Coefficients of the product of the a + b T + c T^2 in `abc`."""
    out = [1]
    for a, b, c in abc:
        shifted = [0] + out
        if a != 1:
            out = [a * x for x in out]
        if c:
            out = [x + b * y + c * z for x, y, z in zip(out + [0, 0], shifted + [0], [0] + shifted)]
        else:
            out = [x + b * y for x, y in zip(out + [0], shifted)]
    return out


def power_factorization_rhs(curve_ap: int | None, p: int, field: CMField, n: int) -> IntPoly:
    """prod_j L_p(weight n-2j+1, shift j)^C(n,j), with the Dirichlet
    factors (1 - p^(n/2) T) (1 - chi(p) p^(n/2) T), each pair taken as the
    one quadratic 1 - (1 + chi(p)) p^(n/2) T + chi(p) p^n T^2, closing
    the middle C(n,n/2)/2 times when n is even.  At an inert p every
    factor is then even in T, and `euler_product` runs in T^2."""
    ap = curve_ap if field.is_split(p) else None
    factors = []
    for j in range((n - 1) // 2 + 1):
        factors += [cm_euler_factor(n - 2 * j + 1, field, p, ap).scale_arg(p**j)] * comb(n, j)
    if n % 2 == 0:
        middle = comb(n, n // 2)
        if middle % 2:
            raise IdentityViolation(f"odd middle multiplicity C({n},{n // 2}) = {middle}")
        chi, pn2 = field.chi(p), p ** (n // 2)
        factors += [IntPoly((1, -(1 + chi) * pn2, chi * pn2 * pn2))] * (middle // 2)
    return euler_product(factors)


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
    full degree-4 factor identity L(w4 (x) w3) = L(w6) L(w2, shift 2).

    One curve trace per prime feeds all four Euler factors; each a_p is
    read back as -coeff(1) of its factor."""
    ap = family.curve_ap(p)
    w2, w3, w4, w6 = (cm_euler_factor(k, family.field, p, ap) for k in (2, 3, 4, 6))
    lhs = tensor_euler_factor([w4, w3])
    rhs = euler_product([w6, w2.scale_arg(p**2)])
    t_lhs = w4.coeff(1) * w3.coeff(1)
    t_rhs = -w6.coeff(1) - p**2 * w2.coeff(1)
    return TensorSplitRow(p, t_lhs, t_rhs, t_lhs == t_rhs, lhs, rhs, lhs == rhs)


def verify_g4xg3(pmax: int) -> list[TensorSplitRow]:
    """Run g4xg3_row for the Gaussian family over every good odd prime <=
    pmax (the bad prime 2, ramified in Q(i), skipped: equality of L-series
    is only claimed up to finitely many factors)."""
    primes = [p for p in odd_primes_up_to(pmax) if not GAUSSIAN_FAMILY.field.is_ramified(p)]
    return [g4xg3_row(GAUSSIAN_FAMILY, p) for p in primes]
