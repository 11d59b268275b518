from collections import Counter
from functools import reduce
from math import comb, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyarith import tensor
from cyarith.arith import IdentityViolation, IntPoly, is_prime, odd_primes_up_to
from cyarith.cmforms import EISENSTEIN, GAUSSIAN, CMFormFamily, cm_euler_factor
from cyarith.registry import EISENSTEIN_FAMILY, GAUSSIAN_FAMILY
from cyarith.tensor import (
    TensorIdentityCheck,
    char_poly_from_power_sums,
    euler_product,
    tensor_euler_factor,
    tensor_sectors,
    verify_g4xg3,
    verify_power_factorization,
    verify_tensor_identity,
)
from oracles import (
    char_poly_signed_newton,
    poly_mul,
    poly_pow,
    power_factorization_rhs_by_powers,
    power_sums_from_poly,
    tensor_euler_factor_full_degree,
)


def _factor(family, weight, p):
    # curve_ap rejects bad primes and non-primes
    return cm_euler_factor(weight, family.field, p, family.curve_ap(p))


def test_single_rep_euler_factor_weight2():
    factor = _factor(GAUSSIAN_FAMILY, 2, 5)
    assert factor == IntPoly((1, 2, 5))  # a_5 = -2
    assert tensor_euler_factor([factor]) == factor


def test_single_rep_factor_reproduced_for_all_good_primes():
    for family in (GAUSSIAN_FAMILY, EISENSTEIN_FAMILY):
        for weight in (2, 3, 4, 6):
            for p in odd_primes_up_to(100):
                if p in family.bad_primes:
                    continue
                factor = _factor(family, weight, p)
                assert tensor_euler_factor([factor]) == factor


def test_tensor_trace_examples():
    # tr(Frob) on a tensor product is the product of the factor traces
    g4, g3, g2 = (_factor(GAUSSIAN_FAMILY, k, 5) for k in (4, 3, 2))
    assert -tensor_euler_factor([g4, g3]).coeff(1) == 22 * -6 == -132
    assert -tensor_euler_factor([g4]).coeff(1) == 22
    assert -tensor_euler_factor([g2, g2, g2]).coeff(1) == (-2) ** 3


def test_inert_trace_pattern():
    # weight 4 (even) at inert p = 3: 0 for odd m, alternating sign for even m
    assert power_sums_from_poly(_factor(GAUSSIAN_FAMILY, 4, 3), 4) == [0, -2 * 27, 0, 2 * 729]
    # weight 3 (odd): even traces all positive
    assert power_sums_from_poly(_factor(GAUSSIAN_FAMILY, 3, 3), 4) == [0, 2 * 9, 0, 2 * 81]


def test_degree4_factor_at_5_frozen():
    g4 = _factor(GAUSSIAN_FAMILY, 4, 5)
    g3 = _factor(GAUSSIAN_FAMILY, 3, 5)
    # expanded by hand: (1 + 82T + 3125T^2)(1 + 50T + 3125T^2)
    assert tensor_euler_factor([g4, g3]) == IntPoly((1, 132, 10350, 412500, 9765625))


def _g4xg3(p):
    return verify_tensor_identity((4, 3), GAUSSIAN_FAMILY.curve_ap(p), p, GAUSSIAN)


def test_g4xg3_printed_primes():
    # sectors (5,0) and (3,2): weight 6, and weight 2 in p^2 T
    assert tensor_sectors((4, 3)) == ((5, 0, 1), (3, 2, 1), (2, 3, 1), (0, 5, 1))
    expected = {5: (-132, True), 13: (-180, True), 17: (2820, True)}
    for p, (trace, ok) in expected.items():
        row = _g4xg3(p)
        assert -row.lhs.coeff(1) == -row.rhs.coeff(1) == trace
        assert row.trace_identity
        assert row.poly_equal is ok


def test_g4xg3_inert_prime_full_factor():
    row = _g4xg3(3)
    assert -row.lhs.coeff(1) == -row.rhs.coeff(1) == 0
    assert row.trace_identity
    assert row.lhs == IntPoly((1, 0, 486, 0, 59049))  # (1 + 243T^2)^2
    assert row.poly_equal


def test_g4xg3_sweep_to_100():
    rows = verify_g4xg3(100)
    assert [r.p for r in rows] == odd_primes_up_to(100)
    assert all(r.trace_identity and r.poly_equal for r in rows)
    assert rows == [_g4xg3(p) for p in odd_primes_up_to(100)]


def test_functional_equation_symmetry_degree4():
    # weights (4, 3): motivic weight w = 3 + 2 = 5; c4 = p^(2w) c0, c3 = p^w c1
    for p in odd_primes_up_to(50):
        poly = tensor_euler_factor([_factor(GAUSSIAN_FAMILY, 4, p), _factor(GAUSSIAN_FAMILY, 3, p)])
        assert poly.coeff(0) == 1
        assert poly.coeff(4) == p**10
        assert poly.coeff(3) == p**5 * poly.coeff(1)


def test_newton_round_trip():
    # the tensor factor's power sums are the products of the factors' power
    # sums, each read back from its polynomial by the oracle
    for family, p in ((GAUSSIAN_FAMILY, 5), (GAUSSIAN_FAMILY, 3), (EISENSTEIN_FAMILY, 7)):
        factors = [_factor(family, k, p) for k in (4, 3, 2)]
        traces = [prod(m_sums) for m_sums in zip(*(power_sums_from_poly(f, 8) for f in factors))]
        assert power_sums_from_poly(tensor_euler_factor(factors), 8) == traces


def test_repeated_factors_take_one_lucas_pass_each():
    # a factor repeated j times enters once, as its power sums to the j-th
    # power; coeff(1) is read once per distinct factor, by its Lucas pass
    reads = Counter()

    class Counted(IntPoly):
        __slots__ = ()

        def coeff(self, k):
            reads[k] += 1
            return super().coeff(k)

    g2, g3 = (Counted(_factor(GAUSSIAN_FAMILY, k, 5).coeffs) for k in (2, 3))
    lhs = tensor_euler_factor([g2, g3, g2, g2])
    assert reads[1] == 2
    traces = [a**3 * b for a, b in zip(power_sums_from_poly(g2, 16), power_sums_from_poly(g3, 16))]
    assert power_sums_from_poly(lhs, 16) == traces
    assert lhs == tensor_euler_factor([g3, g2, g2, g2])


_euler_factors = st.builds(
    lambda t, d: IntPoly((1, -t, d)), st.integers(-30, 30), st.integers(-50, 50).filter(bool)
)


@settings(max_examples=150, deadline=None)
@given(st.lists(_euler_factors, min_size=1, max_size=3), st.lists(st.integers(0, 2), min_size=1, max_size=5))
def test_mirrored_factor_matches_the_full_degree_oracle(distinct, picks):
    # at most three distinct factors among up to five picks: four or five
    # picks always repeat one, and d of either sign makes D of either sign
    factors = [distinct[i % len(distinct)] for i in picks]
    assert tensor_euler_factor(factors) == tensor_euler_factor_full_degree(factors)


def test_mirrored_tensor_powers_match_the_oracle_to_300():
    for field, family in ((GAUSSIAN, GAUSSIAN_FAMILY), (EISENSTEIN, EISENSTEIN_FAMILY)):
        for p in family.good_primes(300):
            ap = family.curve_ap(p) if field.is_split(p) else None
            factor = cm_euler_factor(2, field, p, ap)
            for n in range(2, 7):
                expected = tensor_euler_factor_full_degree([factor] * n)
                assert verify_power_factorization(ap, p, field, n).lhs == expected, (field.d, n, p)


def test_empty_tensor_product_is_the_trivial_factor():
    # no factors: degree 2^0 = 1, the odd degree with no mirror
    assert tensor_euler_factor([]) == IntPoly((1, -1)) == tensor_euler_factor_full_degree([])


def test_char_poly_rejects_inconsistent_traces():
    with pytest.raises(IdentityViolation, match="Newton"):
        char_poly_from_power_sums([1, 0], 2)  # e_2 = (1*1 - 0)/2 not integral


@settings(max_examples=80, deadline=None)
@given(st.lists(st.integers(-50, 50), max_size=8), st.integers(0, 8))
def test_char_poly_matches_the_signed_newton_loop(sums, extra):
    # arbitrary sums: both loops give the same polynomial or fail at the same k
    degree = min(len(sums), extra)
    try:
        expected = char_poly_signed_newton(sums, degree)
    except IdentityViolation as exc:
        with pytest.raises(IdentityViolation, match=str(exc)):
            char_poly_from_power_sums(sums, degree)
    else:
        assert char_poly_from_power_sums(sums, degree) == expected


def test_g4xg3_computes_one_curve_ap_per_prime(monkeypatch):
    calls = Counter()
    real = CMFormFamily.curve_ap

    def counting(self, p):
        calls[p] += 1
        return real(self, p)

    monkeypatch.setattr(CMFormFamily, "curve_ap", counting)
    rows = verify_g4xg3(100)
    assert all(r.equal for r in rows)
    assert calls == Counter(odd_primes_up_to(100))
    # and one sector count for the weights (4, 3), not one per prime
    assert tensor_sectors.cache_info().misses == 1


_local_factors = st.one_of(
    st.tuples(st.integers(-10**6, 10**6)),
    st.tuples(st.integers(-10**6, 10**6), st.integers(-10**6, 10**6)),
    st.tuples(st.integers(-10**6, 10**6), st.sampled_from((0, 1, -1, 10**30)), st.integers(-10**30, 10**30)),
).map(IntPoly)


@settings(max_examples=80, deadline=None)
@given(st.lists(_local_factors, max_size=12))
def test_euler_product_matches_the_schoolbook_product(factors):
    assert euler_product(factors) == reduce(poly_mul, factors, IntPoly((1,)))


_even_factors = st.one_of(
    st.tuples(st.integers(-10**6, 10**6)),
    st.tuples(st.integers(-10**6, 10**6), st.just(0), st.integers(-10**30, 10**30)),
).map(IntPoly)
_odd_factors = st.tuples(
    st.integers(-10**6, 10**6), st.integers(-10**6, 10**6).filter(bool), st.integers(-10**30, 10**30)
).map(IntPoly)


@settings(max_examples=80, deadline=None)
@given(st.lists(_even_factors, max_size=12))
def test_euler_product_of_even_factors_matches_the_schoolbook_product(factors):
    # every factor a + c T^2, constants and a != 1 included: the product in T^2
    product = euler_product(factors)
    assert product == reduce(poly_mul, factors, IntPoly((1,)))
    assert not any(product.coeffs[1::2])


@settings(max_examples=80, deadline=None)
@given(st.lists(_even_factors, max_size=12), _odd_factors, st.integers(0, 12))
def test_euler_product_with_one_odd_factor_matches_the_schoolbook_product(factors, odd, at):
    factors.insert(min(at, len(factors)), odd)
    assert euler_product(factors) == reduce(poly_mul, factors, IntPoly((1,)))


@pytest.mark.parametrize("n", [2, 4, 6])
def test_middle_quadratic_is_the_dirichlet_pair(monkeypatch, n):
    # the last C(n, n/2)/2 factors of the product side are each
    # (1 - p^(n/2) T)(1 - chi(p) p^(n/2) T); at an inert prime every
    # factor is even in T
    seen = []
    real = tensor.euler_product

    def recording(factors):
        seen.append(list(factors))
        return real(seen[-1])

    monkeypatch.setattr(tensor, "euler_product", recording)
    for field, family in ((GAUSSIAN, GAUSSIAN_FAMILY), (EISENSTEIN, EISENSTEIN_FAMILY)):
        for p in (5, 7, 11, 13):  # split and inert in both fields
            ap = family.curve_ap(p) if field.is_split(p) else None
            seen.clear()
            tensor.verify_power_factorization(ap, p, field, n)
            (factors,) = seen
            half = comb(n, n // 2) // 2
            pair = poly_mul(IntPoly((1, -(p ** (n // 2)))), IntPoly((1, -field.chi(p) * p ** (n // 2))))
            assert factors[-half:] == [pair] * half
            assert len(factors) == sum(comb(n, j) for j in range(n // 2)) + half
            if not field.is_split(p):
                assert not any(factor.coeff(1) for factor in factors)


def test_euler_product_rejects_a_degree_3_factor():
    with pytest.raises(ValueError, match="degree <= 2"):
        euler_product([IntPoly((1, 2, 5)), IntPoly((1, 0, 0, 1))])


def test_tensor_factor_rejects_non_euler_factors():
    g2 = _factor(GAUSSIAN_FAMILY, 2, 5)
    for bad in (IntPoly((1, 2)), IntPoly((2, 2, 5)), poly_mul(g2, g2)):
        with pytest.raises(ValueError, match="degree-2 Euler factor"):
            tensor_euler_factor([g2, bad])
        with pytest.raises(ValueError, match="degree-2 Euler factor"):
            tensor_euler_factor([g2, g2, bad, g2, bad])
    # no cap on the number of factors: five give the degree-32 factor
    assert tensor_euler_factor([g2] * 5) == verify_power_factorization(-2, 5, GAUSSIAN, 5).rhs


def test_power_factorization_examples():
    # n = 2 at split 5: a^2 = s2 + 2p
    check = verify_power_factorization(-2, 5, GAUSSIAN, 2)
    assert check.equal and check.trace_identity
    assert (-2) ** 2 == (-6) + 2 * 5
    # n = 3: a^3 = s3 + 3 p s1
    check = verify_power_factorization(-2, 5, GAUSSIAN, 3)
    assert check.equal and check.trace_identity
    assert (-2) ** 3 == 22 + 3 * 5 * (-2)
    # n = 4 at inert 3 with the Dirichlet factors, chi_{-4}(3) = -1:
    # both sides collapse to (1 - 81 T^2)^8
    check = verify_power_factorization(None, 3, GAUSSIAN, 4)
    assert check.equal
    assert check.lhs == poly_pow(IntPoly((1, 0, -81)), 8)


def test_power_factorization_sweep():
    # each side also against its oracle: the signed Newton loop on the
    # oracle's power sums, and the product side built from schoolbook powers
    for field, family in ((GAUSSIAN, GAUSSIAN_FAMILY), (EISENSTEIN, EISENSTEIN_FAMILY)):
        for p in family.good_primes(100):
            ap = family.curve_ap(p) if field.is_split(p) else None
            base = power_sums_from_poly(cm_euler_factor(2, field, p, ap), 2**6)
            for n in range(2, 7):
                check = verify_power_factorization(ap, p, field, n)
                assert isinstance(check, TensorIdentityCheck)
                assert check.equal, (field.d, n, p)
                assert check.trace_identity, (field.d, n, p)
                assert check.lhs == char_poly_signed_newton([s**n for s in base[: 2**n]], 2**n), (field.d, n, p)
                assert check.rhs == power_factorization_rhs_by_powers(ap, p, field, n), (field.d, n, p)


def test_middle_binomial_exponent_integrality():
    # the even-n Dirichlet exponents C(n, n/2)/2 must be integers
    for n in range(2, 13, 2):
        assert comb(n, n // 2) % 2 == 0


def test_rhs_degree_bookkeeping():
    for n in range(2, 7):
        poly = verify_power_factorization(-2, 5, GAUSSIAN, n).rhs
        assert poly.degree == 2**n


def test_local_factor_validation():
    with pytest.raises(ValueError, match="split prime needs"):
        cm_euler_factor(2, GAUSSIAN, 5)
    with pytest.raises(ValueError, match="bad prime"):
        _factor(GAUSSIAN_FAMILY, 2, 2)


def test_inert_euler_factor_det_sign():
    # odd weight inert: det -p^(k-1); even weight inert: +p^(k-1)
    assert _factor(GAUSSIAN_FAMILY, 3, 3).coeff(2) == -9
    assert _factor(GAUSSIAN_FAMILY, 4, 3).coeff(2) == 27
    assert _factor(GAUSSIAN_FAMILY, 3, 3) == cm_euler_factor(3, GAUSSIAN, 3) == IntPoly((1, 0, -9))


_good_primes_to_300 = st.sampled_from((GAUSSIAN_FAMILY, EISENSTEIN_FAMILY)).flatmap(
    lambda family: st.tuples(st.just(family), st.sampled_from(family.good_primes(300)))
)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(2, 7), min_size=1, max_size=4), _good_primes_to_300)
def test_mixed_weights_match_the_full_degree_oracle(weights, family_and_p):
    # any weights, either family, any good p: the sector rule's product
    # side against the tensor factor computed at full degree, unmirrored
    family, p = family_and_p
    field, ap = family.field, family.curve_ap(p)
    check = verify_tensor_identity(tuple(weights), ap, p, field)
    inputs = [cm_euler_factor(k, field, p, ap) for k in weights]
    assert check.rhs == tensor_euler_factor_full_degree(inputs)
    assert check.trace_identity and check.equal
    assert sum(count for _, _, count in tensor_sectors(tuple(weights))) == 2 ** len(weights)


def test_sectors_of_a_tensor_square():
    # alpha^2, alpha conj(alpha) twice, conj(alpha)^2
    assert tensor_sectors((2, 2)) == ((2, 0, 1), (1, 1, 2), (0, 2, 1))
    assert [count for _, _, count in tensor_sectors((2,) * 6)] == [comb(6, j) for j in range(7)]


@pytest.mark.parametrize(
    "call",
    [
        lambda: verify_power_factorization(-2, 5, GAUSSIAN, 0),
        lambda: verify_power_factorization(-2, 5, GAUSSIAN, -1),
        lambda: verify_tensor_identity((4, 1), -2, 5, GAUSSIAN),
        lambda: verify_tensor_identity((), None, 3, EISENSTEIN),
    ],
    ids=["n=0", "n=-1", "weights=(4,1)", "no weights"],
)
def test_bad_tensor_input_is_an_input_error(monkeypatch, call):
    # rejected before any Euler factor is built, not reported as a broken identity
    def refuse(*args):
        raise AssertionError("work done on bad input")

    monkeypatch.setattr(tensor, "cm_euler_factor", refuse)
    monkeypatch.setattr(tensor, "euler_product", refuse)
    with pytest.raises(ValueError, match="weights >= 2"):
        call()


def test_non_prime_p_and_a_trace_beyond_hasse_are_input_errors(monkeypatch):
    # 9 = 1 mod 4 and 5 split in Q(i), so the field alone accepts both; one
    # primality test per call, before any Euler factor is built
    def refuse(*args):
        raise AssertionError("work done on bad input")

    tested = []
    monkeypatch.setattr(tensor, "cm_euler_factor", refuse)
    monkeypatch.setattr(tensor, "is_prime", lambda n: tested.append(n) or is_prime(n))
    with pytest.raises(ValueError, match="^p = 9 is not prime$"):
        verify_tensor_identity((4, 3), 2, 9, GAUSSIAN)
    assert tested == [9]
    with pytest.raises(ValueError, match="Hasse bound"):
        verify_tensor_identity((4, 3), 7, 5, GAUSSIAN)
    for n in (2, 5):
        with pytest.raises(ValueError, match="^p = 25 is not prime$"):
            verify_power_factorization(0, 25, GAUSSIAN, n)
    assert tested == [9, 5, 25, 25]


def test_equal_needs_both_the_trace_and_the_polynomial_identity():
    poly = IntPoly((1, 2, 5))
    for trace_ok, poly_ok in ((True, True), (True, False), (False, True), (False, False)):
        assert TensorIdentityCheck(5, poly, poly, trace_ok, poly_ok).equal is (trace_ok and poly_ok)


def test_trace_identity_is_read_from_the_factors_not_the_products(monkeypatch):
    # a wrong product side leaves the trace identity standing; a wrong
    # trace of the weight-3 sector factor of (2, 2) breaks it
    real_product, real_factor = tensor.euler_product, tensor.cm_euler_factor
    monkeypatch.setattr(tensor, "euler_product", lambda factors: poly_mul(real_product(factors), IntPoly((1, 1))))
    for p, ap in ((5, -2), (3, None)):
        check = verify_power_factorization(ap, p, GAUSSIAN, 2)
        assert (check.trace_identity, check.poly_equal, check.equal) == (True, False, False)
    monkeypatch.setattr(tensor, "euler_product", real_product)

    def off_by_one(weight, field, p, ap=None):
        factor = real_factor(weight, field, p, ap)
        return IntPoly((1, factor.coeff(1) - 1, factor.coeff(2))) if weight == 3 else factor

    monkeypatch.setattr(tensor, "cm_euler_factor", off_by_one)
    for p, ap in ((5, -2), (3, None)):  # split and inert
        check = verify_power_factorization(ap, p, GAUSSIAN, 2)
        assert not check.trace_identity and not check.equal
