from collections import Counter
from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from cyarith import cmforms, pointcount
from cyarith.arith import IntPoly, is_prime, odd_primes_up_to, primes_up_to
from cyarith.cmforms import (
    EISENSTEIN,
    GAUSSIAN,
    QuadOrderElem,
    cm_euler_factor,
    is_normalized,
    normalize_prime_element,
    power_trace,
)
from cyarith.pointcount import elliptic_ap
from cyarith.qseries import hecke_expand
from cyarith.registry import CURVE_EISENSTEIN, CURVE_GAUSSIAN, EISENSTEIN_FAMILY, GAUSSIAN_FAMILY
from cyarith.tensor import invariant_tensor_dimension
from oracles import invariant_dimension_by_signs, legendre, norm_p_elements, normalized_element_by_enumeration


def test_field_characters():
    assert [GAUSSIAN.chi(n) for n in (1, 2, 3, 4, 5)] == [1, 0, -1, 0, 1]
    assert [EISENSTEIN.chi(n) for n in (1, 2, 3, 4, 5)] == [1, -1, 0, 1, -1]


def test_field_character_is_legendre_of_minus_d():
    for p in odd_primes_up_to(200):
        if p != 3:
            assert EISENSTEIN.chi(p) == legendre(-3, p)
        assert GAUSSIAN.chi(p) == legendre(-4, p)


# ---------------------------------------------------------------------------
# power traces


def test_power_trace_examples():
    assert power_trace(-2, 5, 3) == 22
    assert power_trace(-2, 5, 5) == -82
    assert power_trace(-1, 7, 3) == 20
    assert power_trace(5, 13, 2) == -1
    for a in range(-5, 6):
        assert power_trace(a, 11, 1) == a
        assert power_trace(a, 11, 0) == 2


def test_power_trace_closed_forms():
    for p in odd_primes_up_to(100):
        for a in range(-2 * isqrt(p), 2 * isqrt(p) + 1):
            assert power_trace(a, p, 2) == a * a - 2 * p
            assert power_trace(a, p, 3) == a**3 - 3 * p * a
            assert power_trace(a, p, 4) == a**4 - 4 * p * a * a + 2 * p * p


def test_power_trace_rejects_negative_index():
    with pytest.raises(ValueError):
        power_trace(1, 5, -1)


# ---------------------------------------------------------------------------
# Euler factors


def test_euler_factor_split_shape():
    for p in odd_primes_up_to(100):
        if not GAUSSIAN.is_split(p):
            continue
        a = GAUSSIAN_FAMILY.curve_ap(p)
        for k in (2, 3, 4, 6):
            factor = cm_euler_factor(k, GAUSSIAN, p, a)
            s = power_trace(a, p, k - 1)
            assert factor == IntPoly((1, -s, p ** (k - 1)))
            if a * a < 4 * p:
                assert s * s - 4 * p ** (k - 1) < 0


def test_euler_factor_inert_examples():
    assert cm_euler_factor(6, GAUSSIAN, 3) == IntPoly((1, 0, 243))
    assert cm_euler_factor(3, GAUSSIAN, 3) == IntPoly((1, 0, -9))
    assert cm_euler_factor(2, EISENSTEIN, 2) == IntPoly((1, 0, 2))
    assert cm_euler_factor(3, EISENSTEIN, 2) == IntPoly((1, 0, -4))
    assert cm_euler_factor(4, EISENSTEIN, 2) == IntPoly((1, 0, 8))


def test_euler_factor_ramified_rejected():
    with pytest.raises(ValueError):
        cm_euler_factor(2, GAUSSIAN, 2)
    with pytest.raises(ValueError):
        cm_euler_factor(2, EISENSTEIN, 3)


def test_inert_prime_square_coefficients():
    # a_{p^2} read off the degree-2 factor: g6 at 9 -> -243, g3 at 9 -> +9,
    # level-27 g3 at 4 -> +4, level-9 g4 at 4 -> -8
    assert hecke_expand(GAUSSIAN_FAMILY.form(6).hecke_spec(), 9).coeff(9) == -243
    assert hecke_expand(GAUSSIAN_FAMILY.form(3).hecke_spec(), 9).coeff(9) == 9
    assert hecke_expand(EISENSTEIN_FAMILY.form(3).hecke_spec(), 4).coeff(4) == 4
    assert hecke_expand(EISENSTEIN_FAMILY.form(4).hecke_spec(), 4).coeff(4) == -8


# ---------------------------------------------------------------------------
# normalized prime elements


def test_normalize_examples():
    e = normalize_prime_element(5, GAUSSIAN)
    assert (e.x, e.y) == (-1, 2)
    assert e.trace == -2
    assert normalize_prime_element(13, GAUSSIAN).trace == 6
    assert normalize_prime_element(17, GAUSSIAN).trace == 2
    assert normalize_prime_element(13, EISENSTEIN).trace == 5
    assert normalize_prime_element(7, EISENSTEIN).trace == -1


def test_normalize_rejects_inert_prime():
    with pytest.raises(ValueError):
        normalize_prime_element(3, GAUSSIAN)
    with pytest.raises(ValueError):
        normalize_prime_element(5, EISENSTEIN)


def _units(field):
    if field.d == 4:
        return [(1, 0), (0, 1), (-1, 0), (0, -1)]  # 1, i, -1, -i
    # 1, w, w-1 and negatives; w^2 = w - 1 in x + y*w coordinates
    return [(1, 0), (0, 1), (-1, 1), (-1, 0), (0, -1), (1, -1)]


def test_order_multiplication():
    i, w = QuadOrderElem(GAUSSIAN, 0, 1), QuadOrderElem(EISENSTEIN, 0, 1)
    assert i * i == QuadOrderElem(GAUSSIAN, -1, 0)
    assert w * w == QuadOrderElem(EISENSTEIN, -1, 1)  # w^2 = w - 1
    for field in (GAUSSIAN, EISENSTEIN):
        a, b = QuadOrderElem(field, 3, -2), QuadOrderElem(field, -5, 7)
        assert (a * b).norm == a.norm * b.norm
        assert (a * a.conjugate()) == QuadOrderElem(field, a.norm, 0)
    # the unit u has order exactly 4, resp. 6, and field.units counts it
    for u, order in ((i, 4), (w, 6)):
        one, power = QuadOrderElem(u.field, 1, 0), u
        for _ in range(order - 1):
            assert power != one
            power = power * u
        assert power == one
        assert u.field.units == order == len(_units(u.field))


def _explicit(field, x1, y1, x2, y2):
    """norm, trace and conjugate of a = x1 + y1*u, and a*b for b = x2 + y2*u,
    written out for Z[i] (i^2 = -1) and Z[w] (w^2 = w - 1, conj(w) = 1 - w)."""
    if field is GAUSSIAN:
        return x1 * x1 + y1 * y1, 2 * x1, (x1, -y1), (x1 * x2 - y1 * y2, x1 * y2 + x2 * y1)
    norm = x1 * x1 + x1 * y1 + y1 * y1
    return norm, 2 * x1 + y1, (x1 + y1, -y1), (x1 * x2 - y1 * y2, x1 * y2 + x2 * y1 + y1 * y2)


coords = st.integers(min_value=-10**12, max_value=10**12)


@given(st.sampled_from([GAUSSIAN, EISENSTEIN]), coords, coords, coords, coords)
@settings(max_examples=300, deadline=None)
def test_order_arithmetic_matches_explicit_formulas(field, x1, y1, x2, y2):
    a, b = QuadOrderElem(field, x1, y1), QuadOrderElem(field, x2, y2)
    norm, trace, conj, product = _explicit(field, x1, y1, x2, y2)
    assert (a.norm, a.trace, a.conjugate()) == (norm, trace, QuadOrderElem(field, *conj))
    assert a * b == QuadOrderElem(field, *product)


def test_normalize_uniqueness_up_to_1000():
    """Exactly one associate per generator satisfies the congruence, and
    exactly two elements (a conjugate pair) among all of norm p."""
    for field in (GAUSSIAN, EISENSTEIN):
        n_assoc = len(_units(field))
        for p in odd_primes_up_to(1000):
            if not field.is_split(p):
                continue
            elems = norm_p_elements(p, field)
            assert len(elems) == 2 * n_assoc
            normalized = [e for e in elems if is_normalized(e)]
            assert len(normalized) == 2
            a, b = normalized
            assert a.conjugate() == b
            assert a.trace == b.trace
            # associates of one fixed generator: exactly one normalized
            gen = elems[0]
            orbit = [gen * QuadOrderElem(field, *u) for u in _units(field)]
            assert sum(is_normalized(e) for e in orbit) == 1
            # the canonical pick matches the reference curve trace
            family = GAUSSIAN_FAMILY if field is GAUSSIAN else EISENSTEIN_FAMILY
            assert normalize_prime_element(p, field).trace == family.curve_ap(p)


# ---------------------------------------------------------------------------
# curve traces by Cornacchia


def _split_primes(family, pmax):
    return [p for p in odd_primes_up_to(pmax) if p not in family.bad_primes and family.field.is_split(p)]


def test_curve_ap_equals_point_count_up_to_2000():
    for family, curve in ((GAUSSIAN_FAMILY, CURVE_GAUSSIAN), (EISENSTEIN_FAMILY, CURVE_EISENSTEIN)):
        for p in _split_primes(family, 2000):
            assert family.curve_ap(p) == elliptic_ap(curve, p), p


def test_curve_ap_equals_enumerated_normalized_trace_up_to_20000():
    # the whole element, not only its trace, against the O(sqrt(p)) search
    for family in (GAUSSIAN_FAMILY, EISENSTEIN_FAMILY):
        field, d = family.field, family.field.d
        for p in _split_primes(family, 20000):
            alpha = normalize_prime_element(p, field)
            assert alpha == normalized_element_by_enumeration(p, field), p
            assert family.curve_ap(p) == alpha.trace, p
            x, y = cmforms._cornacchia(field, p)
            assert x * x + d * y * y == 4 * p, p


def test_curve_ap_calls_neither_enumeration_nor_point_count(monkeypatch):
    # the enumeration lives only in the oracles, the point count only in
    # pointcount, and neither is on curve_ap's path: a split p near 10^6
    # takes the two square roots of one Cornacchia step, where the search
    # over |x| <= sqrt(4p/d) would take about a thousand
    def forbidden(*args):
        raise AssertionError("oracle called from curve_ap")

    for module, name in (
        (oracles, "norm_p_elements"),
        (oracles, "normalized_element_by_enumeration"),
        (cmforms, "elliptic_ap"),
        (pointcount, "elliptic_ap"),
    ):
        monkeypatch.setattr(module, name, forbidden, raising=False)
    assert not hasattr(cmforms, "norm_p_elements")
    for family in (GAUSSIAN_FAMILY, EISENSTEIN_FAMILY):
        assert [family.curve_ap(p) for p in (5, 7, 13)] == [elliptic_ap(family.curve, p) for p in (5, 7, 13)]
    roots = []
    real_isqrt = cmforms.isqrt
    monkeypatch.setattr(cmforms, "isqrt", lambda n: roots.append(n) or real_isqrt(n))
    for family, p in ((GAUSSIAN_FAMILY, 999961), (EISENSTEIN_FAMILY, 999979)):
        roots.clear()
        family.curve_ap(p)
        assert len(roots) == 2, p


def test_family_weights_share_one_cornacchia_per_split_prime(monkeypatch):
    # and one primality test: inert primes take none, split ones take the
    # cached normalize_prime_element's
    calls = Counter()
    tested = Counter()
    real = cmforms._cornacchia

    def counting(field, p):
        calls[field, p] += 1
        return real(field, p)

    def counting_is_prime(n):
        tested[n] += 1
        return is_prime(n)

    monkeypatch.setattr(cmforms, "_cornacchia", counting)
    monkeypatch.setattr(cmforms, "is_prime", counting_is_prime)
    for family in (GAUSSIAN_FAMILY, EISENSTEIN_FAMILY):
        calls.clear()
        tested.clear()
        for weight in range(2, 8):
            hecke_expand(family.form(weight).hecke_spec(), 2000)
        assert calls == Counter((family.field, p) for p in _split_primes(family, 2000))
        assert tested == Counter(_split_primes(family, 2000))


def test_composite_split_n_is_rejected_on_every_path():
    # 25 = 5^2 splits in Q(i) and 49 = 7^2 in Q(sqrt(-3)): chi(n) = 1, so
    # only normalize_prime_element's primality test stands between n and
    # Cornacchia
    for family, n in ((GAUSSIAN_FAMILY, 25), (EISENSTEIN_FAMILY, 49)):
        assert family.field.is_split(n)
        for call in (
            family.curve_ap,
            lambda n: family.ap(3, n),
            lambda n: normalize_prime_element(n, family.field),
        ):
            with pytest.raises(ValueError, match=f"^p = {n} is not prime$"):
                call(n)
    # 27 = 3^3 is inert in Q(i): curve_ap tests it itself
    assert GAUSSIAN.chi(27) == -1
    with pytest.raises(ValueError, match="^p = 27 is not prime$"):
        GAUSSIAN_FAMILY.curve_ap(27)


def test_non_split_prime_is_rejected_before_cornacchia(monkeypatch):
    # inert 1000003 = 3 mod 4 in Q(i) and 1000037 = 2 mod 3 in Q(sqrt(-3)),
    # ramified 2 and 3: a bad argument, not a broken identity, and no
    # search for a square root of -d that does not exist
    calls = Counter()
    real = cmforms._cornacchia

    def counting(field, p):
        calls[field, p] += 1
        return real(field, p)

    monkeypatch.setattr(cmforms, "_cornacchia", counting)
    for field, p in ((GAUSSIAN, 1000003), (EISENSTEIN, 1000037), (GAUSSIAN, 2), (EISENSTEIN, 3)):
        assert is_prime(p) and not field.is_split(p)
        with pytest.raises(ValueError, match=f"^p = {p} is not a split prime for d = {field.d}$"):
            normalize_prime_element(p, field)
    assert calls == Counter()


def test_normalize_above_2_to_the_61_takes_one_cornacchia(monkeypatch):
    # a prime just above 2^61, 1 mod 12 so split in both fields, where the
    # enumeration would need about 10^9 square roots
    p = 2305843009213694017
    assert p > 2**61 and is_prime(p) and p % 12 == 1
    calls = Counter()
    real = cmforms._cornacchia

    def counting(field, q):
        calls[field, q] += 1
        return real(field, q)

    monkeypatch.setattr(cmforms, "_cornacchia", counting)
    for field in (GAUSSIAN, EISENSTEIN):
        alpha = normalize_prime_element(p, field)
        assert alpha.norm == p and alpha.y > 0 and is_normalized(alpha)
        assert calls == Counter({(field, p): 1})
        calls.clear()


def test_curve_ap_hasse_and_torsion_near_10_12():
    # beyond the reach of the character sum: |a_p| <= 2 sqrt(p), and the
    # rational torsion divides #E(F_p) = p + 1 - a_p (8 for y^2 = x^3 - x
    # at p = 1 mod 4, the 3-torsion point (0, 4) of y^2 = x^3 + 16), which
    # pins the sign of a_p among the associates' traces
    for family, torsion in ((GAUSSIAN_FAMILY, 8), (EISENSTEIN_FAMILY, 3)):
        primes = [p for p in range(10**12, 10**12 + 3000) if is_prime(p) and family.field.is_split(p)][:3]
        assert len(primes) == 3
        for p in primes:
            a = family.curve_ap(p)
            assert a * a <= 4 * p, p
            assert (p + 1 - a) % torsion == 0, p
            x, y = cmforms._cornacchia(family.field, p)
            assert x * x + family.field.d * y * y == 4 * p, p


# ---------------------------------------------------------------------------
# invariant dimensions


def test_invariant_dimension_examples():
    assert invariant_tensor_dimension("Z3", 3) == 2
    assert invariant_tensor_dimension("Z4", 4) == 2
    assert invariant_tensor_dimension("Z2diag", 3) == 8


def test_invariant_dimension_sweep():
    for n in range(1, 11):
        assert invariant_tensor_dimension("Z3", n) == 2
        assert invariant_tensor_dimension("Z4", n) == 2
        assert invariant_tensor_dimension("Z2diag", n) == 2**n


def _invariant_dim_full_group(r: int, n: int) -> int:
    # oracle: enumerate the whole sum-zero subgroup, not just generators
    from itertools import product

    group = [g for g in product(range(r), repeat=n) if sum(g) % r == 0]
    count = 0
    for bits in range(2**n):
        signs = [1 if bits >> i & 1 else -1 for i in range(n)]
        if all(sum(a * e for a, e in zip(g, signs)) % r == 0 for g in group):
            count += 1
    return count


@pytest.mark.parametrize("n", range(1, 6))
def test_invariant_dimension_generator_shortcut_matches_full_group(n):
    assert invariant_tensor_dimension("Z3", n) == _invariant_dim_full_group(3, n)
    assert invariant_tensor_dimension("Z4", n) == _invariant_dim_full_group(4, n)


def test_invariant_dimension_from_sectors_matches_the_sign_loop_to_12():
    for n in range(1, 13):
        for group in ("Z2diag", "Z3", "Z4"):
            assert invariant_tensor_dimension(group, n) == invariant_dimension_by_signs(group, n), (group, n)


def test_invariant_dimension_rejects_unknown_group():
    with pytest.raises(ValueError):
        invariant_tensor_dimension("Z5", 2)


# ---------------------------------------------------------------------------
# quotient Frobenius traces


def _quotient_trace(curve_ap, p, field, n):
    # tr Frob_p on the invariant piece of the n-fold quotient: the prime
    # coefficient of the weight-(n+1) form, read off its Euler factor
    return -cm_euler_factor(n + 1, field, p, curve_ap).coeff(1)


def test_quotient_trace_examples():
    assert _quotient_trace(-1, 7, EISENSTEIN, 3) == 20
    assert _quotient_trace(0, 2, EISENSTEIN, 4) == 0  # inert: trace 0
    assert _quotient_trace(-2, 5, GAUSSIAN, 5) == -82


def test_quotient_trace_ramified_rejected():
    for n in (1, 2, 3):
        with pytest.raises(ValueError, match="ramified"):
            _quotient_trace(0, 2, GAUSSIAN, n)
        with pytest.raises(ValueError, match="ramified"):
            _quotient_trace(0, 3, EISENSTEIN, n)


def test_quotient_traces_match_hecke_coefficients():
    for field, family in ((GAUSSIAN, GAUSSIAN_FAMILY), (EISENSTEIN, EISENSTEIN_FAMILY)):
        good = [
            p
            for p in odd_primes_up_to(100)
            if p not in family.bad_primes and not field.is_ramified(p)
        ]
        for n in range(1, 7):
            series = hecke_expand(family.form(n + 1).hecke_spec(), 100)
            for p in good:
                ap = family.curve_ap(p) if field.is_split(p) else 0
                assert _quotient_trace(ap, p, field, n) == series.coeff(p)


def test_family_bad_prime_handling():
    assert GAUSSIAN_FAMILY.ap(2, 2) == 0
    assert EISENSTEIN_FAMILY.ap(4, 3) == 0
    with pytest.raises(ValueError):
        cm_euler_factor(2, EISENSTEIN, 3, EISENSTEIN_FAMILY.curve_ap(3))
    for family in (GAUSSIAN_FAMILY, EISENSTEIN_FAMILY):
        (bad,) = family.bad_primes
        with pytest.raises(ValueError, match="bad prime"):
            family.curve_ap(bad)
        # 221 = 13 * 17 and 91 = 7 * 13 are products of split primes
        for n in (-5, 0, 1, 25, 91, 221):
            with pytest.raises(ValueError, match="not prime"):
                family.curve_ap(n)
    # inert primes: a_p = 0, with no point count
    assert [GAUSSIAN_FAMILY.curve_ap(p) for p in (3, 7, 11)] == [0, 0, 0]
    assert [EISENSTEIN_FAMILY.curve_ap(p) for p in (2, 5, 11)] == [0, 0, 0]


def test_family_bad_primes_are_the_ramified_primes():
    # the ramified prime is the one prime dividing the levels 32 and 27
    for family, level in ((GAUSSIAN_FAMILY, 32), (EISENSTEIN_FAMILY, 27)):
        ramified = {p for p in primes_up_to(200) if family.field.is_ramified(p)}
        assert family.bad_primes == ramified == {p for p in primes_up_to(level) if level % p == 0}
        with pytest.raises(AttributeError):
            family.bad_primes = frozenset()


def test_good_primes_are_the_odd_unramified_primes():
    # Q(i) ramifies only at 2, so every odd prime is good; Q(sqrt(-3)) loses 3
    assert GAUSSIAN_FAMILY.good_primes(30) == odd_primes_up_to(30) == [3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert EISENSTEIN_FAMILY.good_primes(30) == [5, 7, 11, 13, 17, 19, 23, 29]
    assert EISENSTEIN_FAMILY.good_primes(3) == GAUSSIAN_FAMILY.good_primes(2) == []
    for family in (GAUSSIAN_FAMILY, EISENSTEIN_FAMILY):
        assert [p for p in primes_up_to(300) if p not in family.bad_primes and p != 2] == family.good_primes(300)
