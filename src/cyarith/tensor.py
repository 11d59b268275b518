"""Local L-factors of tensor products of CM Euler factors, and the one
sector rule that splits them into CM pieces.

Choosing alpha^(k_i-1) or its conjugate from each of n factors of
weights k_i gives an eigenvalue alpha^a conj(alpha)^b in sector (a, b)
(`tensor_sectors`), and psi^a conj(psi)^b = N^b psi^(a-b): a sector
a > b is the weight-(a-b+1) form in p^b T, the sector a = b the
Dirichlet pair 1 and chi times N^a.  The paper's weight 4 (x) weight 3 =
weight 6 + weight 2 in p^2 T, and the binomial factorization of the
n-th tensor power of the weight-2 form, are this rule at (4, 3) and at
(2,) * n.  The invariant dimensions of the cyclic quotients are read off
the same sectors of (2,) * n.  Euler factors are compared as full
polynomials, and the trace identity at every good prime: at inert
primes every odd trace vanishes, so a trace-only check would be vacuous
exactly where the sign conventions matter most.

The two sides share no algorithm.  The tensor side turns power sums
into the lower half of the factor by Newton's identities, to degree
h = 2^(n-1) only, and mirrors it: Poincare duality makes the eigenvalues
invariant under lambda -> D/lambda, D the product of the determinants,
so c_(2h-k) = D^(h-k) c_k.  The product side (`euler_product`)
multiplies its degree-2 Euler factors 1 + b T + c T^2, the CM factors
and the Dirichlet pairs, into one coefficient list at full degree, one
pass per factor, so every product has a small integer on one side.  It
runs in T, or in U = T^2 when every b is 0, as at an inert prime.  It
never uses the functional equation, so each mirrored coefficient is
still compared with one computed independently.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from math import prod
from operator import mul

from .arith import IdentityViolation, IntPoly, is_prime
from .cmforms import CMField, cm_euler_factor
from .registry import GAUSSIAN_FAMILY


def char_poly_from_power_sums(sums: list[int]) -> IntPoly:
    """det(1 - Frob T) from power sums tr(Frob^m), m = 1..len(sums).

    Newton's identities for the coefficients c_k = (-1)^k e_k themselves:
    k c_k = -sum_{i=1..k} c_{k-i} p_i, one dot product and one division
    per step.  Every c_k must come out integral; a failed division means
    the trace data was inconsistent, and raises IdentityViolation.
    """
    c = [1]
    for k in range(1, len(sums) + 1):
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
    by powers of D.
    """
    repeats = Counter(factors)
    n = sum(repeats.values())
    half = 2 ** (n - 1)
    sums = [1] * half
    det = 1
    for factor, j in repeats.items():
        b, d = _euler_coefficients(factor)
        t = -b
        det *= d**j
        prev, cur = 2, t
        for m in range(half):
            sums[m] *= cur**j
            prev, cur = cur, t * cur - d * prev
    lower = char_poly_from_power_sums(sums)
    coeffs = [lower.coeff(k) for k in range(half + 1)]
    scale = 1
    for k in range(half - 1, -1, -1):
        scale *= det
        coeffs.append(scale * coeffs[k])
    return IntPoly(coeffs)


def _euler_coefficients(factor: IntPoly) -> tuple[int, int]:
    """(b, c) of a degree-2 Euler factor 1 + b T + c T^2; anything else is a ValueError."""
    if factor.degree != 2 or factor.coeff(0) != 1:
        raise ValueError(f"not a degree-2 Euler factor: {factor}")
    return factor.coeff(1), factor.coeff(2)


def euler_product(factors) -> IntPoly:
    """Product of degree-2 Euler factors 1 + b T + c T^2, one fused pass
    per factor: coefficient m of out * (1 + b T + c T^2) is out_m +
    b out_(m-1) + c out_(m-2), so every product is a short coefficient
    times a long one.  When every b is 0 (every factor at an inert prime)
    the product runs in U = T^2 on half as many coefficients, each factor
    1 + c U, and is spread back onto the even powers of T.  Any other
    factor raises `tensor_euler_factor`'s ValueError."""
    bc = [_euler_coefficients(factor) for factor in factors]
    if any(b for b, _ in bc):
        return IntPoly(_fused_product(bc))
    half = _fused_product([(c, 0) for _, c in bc])
    out = [0] * (2 * len(half) - 1)
    out[::2] = half
    return IntPoly(out)


def _fused_product(bc) -> list[int]:
    """Coefficients of the product of the 1 + b T + c T^2 in `bc`."""
    out = [1]
    for b, c in bc:
        shifted = [0] + out
        if c:
            out = [x + b * y + c * z for x, y, z in zip(out + [0, 0], shifted + [0], [0] + shifted)]
        else:
            out = [x + b * y for x, y in zip(out + [0], shifted)]
    return out


# ---------------------------------------------------------------------------
# The sector rule: a tensor product of CM Euler factors as CM pieces


@lru_cache(maxsize=None)
def tensor_sectors(weights: tuple[int, ...]) -> tuple[tuple[int, int, int], ...]:
    """(a, b, count) for the sectors of the tensor product of CM forms of
    these weights, largest a first: count of the 2^n choices of
    alpha^(k-1) or its conjugate with product alpha^a conj(alpha)^b.  One
    pass per factor, a choice adding k - 1 to a or to b; a + b is fixed,
    so a names the sector.  No weights, or one below 2, is a ValueError."""
    if not weights or min(weights) < 2:
        raise ValueError(f"need one or more weights >= 2, got {weights}")
    counts = [1]
    for k in weights:
        counts = [x + y for x, y in zip(counts + [0] * (k - 1), [0] * (k - 1) + counts)]
    top = len(counts) - 1
    return tuple((a, top - a, count) for a, count in reversed(list(enumerate(counts))) if count)


_GROUPS = ("Z2diag", "Z3", "Z4")


def invariant_tensor_dimension(group: str, n: int) -> int:
    """Dimension of the subgroup-invariant part of the n-fold tensor square
    of the weight-2 form, read off the sectors of (2,) * n.

    A basis tensor picks alpha or its conjugate from each factor, a sign
    vector (e_1, ..., e_n); the order-r generator acts on e_{+-1} with
    eigenvalue zeta_r^(+-1), and the element (a_1, ..., a_n) with
    sum a_i = 0 mod r scales the tensor by zeta_r^(sum a_i e_i).  For
    r = 3 and 4 the generators e_1 + (r-1) e_j fix it only when every
    e_j = e_1, so the invariants are the pure sectors (n, 0) and (0, n).
    The diagonal Z_2 group acts by -1 on each whole factor, and
    (-1)^(sum a_i) = 1, so every sector is invariant.
    """
    if group not in _GROUPS:
        raise ValueError(f"group must be one of {_GROUPS}")
    if n < 1:
        raise ValueError("n must be >= 1")
    sectors = tensor_sectors((2,) * n)
    return sum(count for a, b, count in sectors if group == "Z2diag" or not (a and b))


def sector_factors(weights, curve_ap: int | None, p: int, field: CMField) -> list[tuple[IntPoly, int]]:
    """The product side at a good prime as (local factor, multiplicity):
    each choice in a sector a > b, paired with its conjugate in (b, a),
    gives the weight-(a-b+1) factor in p^b T; each pair of choices with
    a = b the Dirichlet factors (1 - p^a T)(1 - chi(p) p^a T), taken as
    one quadratic 1 - (1 + chi(p)) p^a T + chi(p) p^(2a) T^2."""
    sectors = tensor_sectors(tuple(weights))
    chi, out = field.chi(p), []
    for a, b, count in sectors:
        if a > b:
            out.append((cm_euler_factor(a - b + 1, field, p, curve_ap).scale_arg(p**b), count))
        elif a == b:
            pa = p**a
            out.append((IntPoly((1, -(1 + chi) * pa, chi * pa * pa)), count // 2))
    return out


@dataclass(frozen=True)
class TensorIdentityCheck:
    p: int
    lhs: IntPoly
    rhs: IntPoly
    trace_identity: bool
    poly_equal: bool

    @property
    def equal(self) -> bool:
        return self.trace_identity and self.poly_equal


def verify_tensor_identity(weights, curve_ap: int | None, p: int, field: CMField) -> TensorIdentityCheck:
    """The tensor product of the weight-k CM Euler factors at a good prime
    p against its sector factorization, as polynomials and as traces:
    prod a_p(k) = sum of multiplicity x trace over the product side, each
    trace read from its own factor.  curve_ap is the weight-2 trace,
    needed at split p.

    A p that is not prime raises ValueError before any Euler factor is
    built, and so does a split-prime curve_ap beyond the Hasse bound
    curve_ap^2 <= 4p.  Both sides are built from the one curve_ap, so a
    wrong trace inside the bound passes here: only the caller's oracle
    for the trace can catch it."""
    if not is_prime(p):
        raise ValueError(f"p = {p} is not prime")
    if field.is_split(p) and curve_ap is not None and curve_ap * curve_ap > 4 * p:
        raise ValueError(f"a_p = {curve_ap} breaks the Hasse bound a_p^2 <= 4p at p = {p}")
    pieces = sector_factors(weights, curve_ap, p, field)
    inputs = {k: cm_euler_factor(k, field, p, curve_ap) for k in set(weights)}
    lhs = tensor_euler_factor([inputs[k] for k in weights])
    rhs = euler_product([factor for factor, count in pieces for _ in range(count)])
    traces = prod(-inputs[k].coeff(1) for k in weights)
    trace_ok = traces == sum(count * -factor.coeff(1) for factor, count in pieces)
    return TensorIdentityCheck(p, lhs, rhs, trace_ok, lhs == rhs)


def verify_power_factorization(curve_ap: int | None, p: int, field: CMField, n: int) -> TensorIdentityCheck:
    """The n-th tensor power of the weight-2 form: the binomial factorization
    prod_j L_p(weight n-2j+1, shift j)^C(n,j), with C(n,n/2)/2 Dirichlet
    pairs when n is even."""
    return verify_tensor_identity((2,) * n, curve_ap, p, field)


def verify_g4xg3(pmax: int) -> list[TensorIdentityCheck]:
    """weight 4 (x) weight 3 = weight 6 + weight 2 in p^2 T, the fivefold
    identity, for the Gaussian family at every good odd prime <= pmax (the
    bad prime 2 skipped: equality of L-series is only claimed up to
    finitely many factors)."""
    family = GAUSSIAN_FAMILY
    return [verify_tensor_identity((4, 3), family.curve_ap(p), p, family.field) for p in family.good_primes(pmax)]
