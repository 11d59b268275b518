from collections import Counter
from math import gcd, isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyarith import qseries
from cyarith.arith import primes_up_to
from cyarith.cmforms import EISENSTEIN, GAUSSIAN
from cyarith.qseries import (
    EtaProduct,
    HeckeCoefficientSpec,
    QSeries,
    _unit_power_list,
    eta_unit_part,
    hecke_expand,
    unit_powers,
)
from cyarith.pointcount import AHLGREN_ETA
from oracles import eta_unit_power, hecke_expand_trial_division, mul_trunc, pow_trunc
from cyarith.registry import (
    ETA_WEIGHT2_EISENSTEIN,
    ETA_WEIGHT2_GAUSSIAN,
    ETA_WEIGHT3_GAUSSIAN,
    ETA_WEIGHT4_EISENSTEIN,
    EISENSTEIN_FAMILY,
    GAUSSIAN_FAMILY,
    PRINTED_ETA_COEFFS,
)

# ---------------------------------------------------------------------------
# oracle: the euler product multiplied out term by term, no pentagonal theorem


def product_unit_direct(scale: int, top: int) -> list[int]:
    out = [0] * (top + 1)
    out[0] = 1
    n = scale
    while n <= top:
        nxt = out[:]
        for e in range(top - n + 1):
            if out[e]:
                nxt[e + n] -= out[e]
        out = nxt
        n += scale
    return out


@pytest.mark.parametrize("scale", [1, 2, 3, 4])
def test_pentagonal_expansion_matches_direct_product(scale):
    # prod (1 - q^(scale k)) is the pentagonal series in q^scale, spread
    # onto the multiples of scale as `EtaProduct.expand` spreads a factor
    spread = [0] * 51
    spread[::scale] = eta_unit_part(50 // scale)
    assert spread == product_unit_direct(scale, 50)


def test_eta24_against_direct_product():
    # 24th power of the unit part, compared to literal repeated multiplication
    series = EtaProduct(((1, 24),)).expand(50)
    direct = product_unit_direct(1, 49)
    power = [1] + [0] * 49
    for _ in range(24):
        power = _mul(power, direct, 49)
    assert series.coeff(1) == 1
    for n in range(1, 51):
        assert series.coeff(n) == power[n - 1]
    assert series.coeff(2) == -24  # classic tau(2)


def _mul(a, b, top):
    out = [0] * (top + 1)
    for i, x in enumerate(a):
        if x:
            for j in range(top - i + 1):
                if b[j]:
                    out[i + j] += x * b[j]
    return out


# ---------------------------------------------------------------------------
# Miller powers and Kronecker products against dense truncated products


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 30), st.integers(0, 300))
def test_eta_unit_power_matches_dense_powering(k, top):
    assert eta_unit_power(k, top) == pow_trunc(eta_unit_part(top), k, top)


def _dense_expansion(eta: EtaProduct, precision: int) -> tuple[int, ...]:
    # every factor at full length in q, zeros included, one dense product
    # each; the factors come from the direct product, not the pentagonal
    # series of the code under test
    top = precision - eta.q_shift
    expected = [0] * (precision + 1)
    if top >= 0:
        unit = [1] + [0] * top
        for m, k in eta.factors:
            unit = mul_trunc(unit, pow_trunc(product_unit_direct(m, top), k, top), top)
        expected[eta.q_shift :] = unit
    return tuple(expected)


@st.composite
def _padded_products(draw):
    # scales g*s with a common g, padded with a power of eta(q^g) so that
    # sum(m*k) is divisible by 24: the product runs in q^g
    g = draw(st.integers(1, 4))
    drawn = draw(st.lists(st.tuples(st.integers(1, 12), st.integers(1, 30)), min_size=1, max_size=3))
    factors = [(g * s, k) for s, k in drawn]
    pad = -sum(m * k for m, k in factors) // g % (24 // gcd(g, 24))
    return EtaProduct(tuple(factors) + (((g, pad),) if pad else ()))


@st.composite
def _coprime_scale_products(draw):
    # two or three pairwise coprime scales above 1, times a common g; each
    # exponent makes m*k divisible by 24 alone, so no eta(q) pads the
    # product and its smallest scale in q^g is not 1
    g = draw(st.integers(1, 3))
    scales = draw(st.lists(st.sampled_from((2, 3, 5, 7)), min_size=2, max_size=3, unique=True))
    return EtaProduct(tuple((g * s, 24 // gcd(24, g * s) * draw(st.integers(1, 2))) for s in scales))


@settings(max_examples=40, deadline=None)
@given(st.one_of(_padded_products(), _coprime_scale_products()), st.integers(1, 300))
def test_eta_product_matches_dense_oracle(eta, precision):
    assert eta.expand(precision).values == _dense_expansion(eta, precision)


@pytest.mark.parametrize(
    "factors", [((1, 24),), ((4, 6),), ((1, 2), (11, 2)), ((2, 4), (4, 4)), ((2, 12), (3, 8)), ((2, 36), (3, 16))]
)
def test_precision_around_the_q_shift(factors):
    eta = EtaProduct(factors)
    for precision in range(max(eta.q_shift - 2, 0), eta.q_shift + 30):
        assert eta.expand(precision).values == _dense_expansion(eta, precision), precision


@pytest.fixture
def operands(monkeypatch):
    """(len(a), len(b)) of every Kronecker product qseries takes."""
    seen = []
    real = qseries._kronecker_mul

    def recording(a, b, top):
        seen.append((len(a), len(b)))
        return real(a, b, top)

    monkeypatch.setattr(qseries, "_kronecker_mul", recording)
    return seen


def test_scale_beyond_the_truncated_length(operands):
    # eta(q^25) at precision 10 is truncated at size 8 past the q^2 shift:
    # only the classes r <= 8 hold a coefficient, and each is one product
    # of single entries; no product ever has an empty operand
    eta = EtaProduct(((1, 23), (25, 1)))
    unit_powers(23, 100)
    operands.clear()
    assert eta.expand(10).values == _dense_expansion(eta, 10)
    assert operands == [(1, 1)] * 9
    for precision in (0, 1, 2, 3, 5, 26, 27, 28, 60):
        assert eta.expand(precision).values == _dense_expansion(eta, precision), precision
    assert all(len_a and len_b for len_a, len_b in operands)


@pytest.mark.parametrize(
    "factors", [((1, 2), (11, 2)), ((5, 4), (1, 4)), ((2, 4), (4, 4)), ((9, 2), (3, 2)), ((6, 3), (2, 3))]
)
def test_a_factor_in_q_to_the_m_makes_m_short_products(operands, factors):
    # with every power cached, expand multiplies only residue classes: the
    # factor in (q^g)^m makes m products, each operand at most N/m + 1 long,
    # N the truncation in q^g, in whichever order the factors are listed
    eta = EtaProduct(factors)
    precision = 400
    g = gcd(*(m for m, _ in factors))
    size = (precision - eta.q_shift) // g
    m = max(m for m, _ in factors) // g
    for _, k in factors:
        unit_powers(k, size)
    operands.clear()
    assert eta.expand(precision).values == _dense_expansion(eta, precision)
    assert len(operands) == m
    assert all(len_a <= size // m + 1 and len_b <= size // m + 1 for len_a, len_b in operands)


def test_each_exponent_is_powered_once(monkeypatch):
    # single-factor products, longest first: expand multiplies nothing, so
    # every Kronecker product builds a power E^k, identified by its q^1
    # coefficient -k
    built = Counter()
    real = qseries._kronecker_mul

    def counting(a, b, top):
        product = real(a, b, top)
        built[-product[1]] += 1
        return product

    monkeypatch.setattr(qseries, "_kronecker_mul", counting)
    for factors in (((1, 24),), ((2, 12),), ((3, 8),), ((4, 6),), ((6, 4),)):
        EtaProduct(factors).expand(500)
    assert built == Counter({k: 1 for k in (2, 3, 4, 6, 8, 12, 24)})


def test_even_exponents_square_one_list(monkeypatch):
    # E^2k = E^k E^k passes E^k itself twice, so _kronecker_mul packs it
    # once and squares; an odd k multiplies two different powers
    steps = {}
    real = qseries._kronecker_mul

    def recording(a, b, top):
        product = real(a, b, top)
        steps[-product[1]] = a is b
        return product

    monkeypatch.setattr(qseries, "_kronecker_mul", recording)
    unit_powers(24, 300)
    unit_powers(7, 300)
    assert steps == {2: True, 3: False, 4: True, 6: True, 7: False, 12: True, 24: True}
    assert unit_powers(24, 300) == pow_trunc(eta_unit_part(300), 24, 300)


@settings(max_examples=25, deadline=None)
@given(st.lists(st.tuples(st.integers(1, 30), st.integers(0, 300)), min_size=1, max_size=8))
def test_cached_powers_are_the_truncated_powers(requests):
    _unit_power_list.cache_clear()
    for k, top in requests:
        power = unit_powers(k, top)
        assert power == eta_unit_power(k, top)
        assert power == pow_trunc(eta_unit_part(top), k, top)


def test_unit_powers_rejects_a_nonpositive_exponent_or_negative_top():
    for k, top in ((0, 10), (-2, 10), (3, -1)):
        with pytest.raises(ValueError, match="k >= 1 and top >= 0"):
            unit_powers(k, top)
    assert _unit_power_list.cache_info().currsize == 0


def test_power_cache_drops_the_least_recently_used_exponent(monkeypatch):
    # E^24 halves through 12, 6, 3 = 1 + 2 and 2 = 1 + 1, E^8 adds 4 and 8,
    # and E^5 = E^2 E^3 is a ninth exponent; a hit moves its exponent to
    # the back, and the front one is dropped: E^1, used first by E^24 and
    # E^8, whose top exponents are fetched again after their halves
    assert _unit_power_list.cache_info().maxsize == 8
    for k in (24, 8, 5):
        unit_powers(k, 10)
    built = Counter()
    real_mul, real_unit = qseries._kronecker_mul, qseries.eta_unit_part

    def counting_mul(a, b, top):
        product = real_mul(a, b, top)
        built[-product[1]] += 1
        return product

    def counting_unit(top):
        built[1] += 1
        return real_unit(top)

    monkeypatch.setattr(qseries, "_kronecker_mul", counting_mul)
    monkeypatch.setattr(qseries, "eta_unit_part", counting_unit)
    for k in (2, 3, 4, 5, 6, 8, 12, 24):
        assert unit_powers(k, 10) == pow_trunc(real_unit(10), k, 10)
    assert not built
    assert unit_powers(1, 10) == real_unit(10)
    assert built == Counter({1: 1})


# ---------------------------------------------------------------------------
# printed expansions


def test_printed_eta_expansions():
    for eta, printed in PRINTED_ETA_COEFFS.items():
        series = eta.expand(max(printed))
        for n, c in printed.items():
            assert series.coeff(n) == c, f"{eta} at q^{n}"


def test_eta_weight6_level4_known_prefix():
    series = AHLGREN_ETA.expand(13)
    assert [series.coeff(p) for p in (3, 5, 7, 11, 13)] == [-12, 54, -88, 540, -418]


def test_eta_product_rejects_fractional_shift():
    with pytest.raises(ValueError, match="divisible by 24"):
        EtaProduct(((4, 5),))
    with pytest.raises(ValueError):
        EtaProduct(((0, 24),))



def test_eta_product_rejects_non_integer_factors():
    # int() would truncate this silently to eta(q^8)^2 eta(q^4)^2
    with pytest.raises(TypeError):
        EtaProduct(((8.7, 2), (4, 2.9)))


def test_eta_product_rejects_no_factors():
    # gcd() of no scales is 0, so an empty product could not expand
    with pytest.raises(ValueError, match="at least one factor"):
        EtaProduct(())


def test_q_shift_bookkeeping():
    assert ETA_WEIGHT2_GAUSSIAN.q_shift == 1
    assert AHLGREN_ETA.q_shift == 1
    assert EtaProduct(((1, 48),)).q_shift == 2
    s = EtaProduct(((1, 48),)).expand(10)
    assert s.coeff(1) == 0 and s.coeff(2) == 1


# ---------------------------------------------------------------------------
# Hecke expansion


def _const_spec(weight, character, ap_map, bad=frozenset()):
    return HeckeCoefficientSpec(
        weight=weight,
        character=character,
        ap_source=lambda p: ap_map[p],
        bad_primes=frozenset(bad),
    )


def test_hecke_prime_square_recurrences():
    # weight 6, trivial character, a_3 = 0: a_9 = -3^5
    spec = _const_spec(6, lambda p: 1, {2: 0, 3: 0, 5: 0, 7: 0})
    assert hecke_expand(spec, 9).coeff(9) == -243
    # weight 3, chi_{-4}(3) = -1, a_3 = 0: a_9 = +9
    spec = _const_spec(3, GAUSSIAN.chi, {2: 0, 3: 0, 5: 0, 7: 0})
    assert hecke_expand(spec, 9).coeff(9) == 9
    # weight 2, trivial character at the good prime 2: a_4 = -2
    spec = _const_spec(2, lambda p: 1, {2: 0, 3: 0})
    assert hecke_expand(spec, 4).coeff(4) == -2


def test_hecke_missing_prime_raises():
    spec = _const_spec(2, lambda p: 1, {2: 0})
    with pytest.raises(ValueError, match="missing prime coefficient"):
        hecke_expand(spec, 10)



def test_series_source_beyond_its_precision_is_a_missing_prime():
    # QSeries.coeff signals a coefficient beyond its precision by IndexError
    series = EtaProduct(((4, 2), (8, 2))).expand(20)
    spec = HeckeCoefficientSpec(weight=2, character=lambda p: 1, ap_source=series.coeff, bad_primes=frozenset({2}))
    with pytest.raises(ValueError, match="missing prime coefficient a_23"):
        hecke_expand(spec, 40)
    assert hecke_expand(spec, 20).values == series.values


def test_hecke_ramanujan_guard():
    spec = _const_spec(2, lambda p: 1, {2: 99})
    with pytest.raises(ValueError, match="Ramanujan"):
        hecke_expand(spec, 4)


_CHARACTERS = (lambda p: 1, GAUSSIAN.chi, EISENSTEIN.chi)
_HECKE_PRIMES = primes_up_to(400)


@st.composite
def _hecke_specs(draw):
    weight = draw(st.integers(2, 7))
    bad = draw(st.frozensets(st.sampled_from(_HECKE_PRIMES[:8]), max_size=3))
    bad_values = {p: draw(st.integers(-p, p)) for p in sorted(bad)}
    ap_map = {}
    for p in _HECKE_PRIMES:
        if p not in bad:
            bound = isqrt(4 * p ** (weight - 1))
            ap_map[p] = draw(st.integers(-bound, bound))
    return HeckeCoefficientSpec(
        weight=weight,
        character=draw(st.sampled_from(_CHARACTERS)),
        ap_source=ap_map.__getitem__,
        bad_primes=bad,
        bad_values=bad_values,
    )


@settings(max_examples=40, deadline=None)
@given(_hecke_specs(), st.integers(0, 400))
def test_hecke_sieve_matches_trial_division(spec, precision):
    for n in (*range(8), precision):
        assert hecke_expand(spec, n) == hecke_expand_trial_division(spec, n), n


def test_negative_precision_is_rejected():
    spec = GAUSSIAN_FAMILY.form(2).hecke_spec()
    for expand in (lambda n: hecke_expand(spec, n), ETA_WEIGHT2_GAUSSIAN.expand):
        with pytest.raises(ValueError, match="precision must be >= 0"):
            expand(-3)
        assert expand(0).values == (0,)


def test_hecke_expansion_equals_eta_for_all_four_cm_forms():
    pairs = [
        (ETA_WEIGHT2_GAUSSIAN, GAUSSIAN_FAMILY.form(2)),
        (ETA_WEIGHT3_GAUSSIAN, GAUSSIAN_FAMILY.form(3)),
        (ETA_WEIGHT2_EISENSTEIN, EISENSTEIN_FAMILY.form(2)),
        (ETA_WEIGHT4_EISENSTEIN, EISENSTEIN_FAMILY.form(4)),
    ]
    for eta, form in pairs:
        left = eta.expand(200)
        right = hecke_expand(form.hecke_spec(), 200)
        assert left.values == right.values, f"{eta} vs the weight-{form.weight} CM form"


def test_hecke_prime_indices_echo_supplied_ap():
    from cyarith.arith import primes_up_to

    for family in (GAUSSIAN_FAMILY, EISENSTEIN_FAMILY):
        for weight in (2, 3, 4, 6):
            series = hecke_expand(family.form(weight).hecke_spec(), 100)
            for p in primes_up_to(100):
                expected = 0 if p in family.bad_primes else family.ap(weight, p)
                assert series.coeff(p) == expected


def test_multiplicativity_audit():
    for family in (GAUSSIAN_FAMILY, EISENSTEIN_FAMILY):
        for weight in (2, 3, 4, 5, 6):
            s = hecke_expand(family.form(weight).hecke_spec(), 60)
            assert s.coeff(6) == s.coeff(2) * s.coeff(3)
            assert s.coeff(15) == s.coeff(3) * s.coeff(5)
            assert s.coeff(35) == s.coeff(5) * s.coeff(7)


def test_ramanujan_bound_on_registry_forms():
    from cyarith.arith import primes_up_to

    for family in (GAUSSIAN_FAMILY, EISENSTEIN_FAMILY):
        for weight in (2, 3, 4, 5, 6, 7):
            for p in primes_up_to(100):
                if p in family.bad_primes:
                    continue
                a = family.ap(weight, p)
                assert a * a <= 4 * p ** (weight - 1)


# ---------------------------------------------------------------------------
# series plumbing


def test_qseries_never_reads_beyond_precision():
    s = QSeries((0, 1, 2, 3))
    with pytest.raises(IndexError):
        s.coeff(4)
    with pytest.raises(IndexError):
        s.coeff(0)
