import json

import pytest

from cyarith import pointcount
from cyarith.arith import IdentityViolation, legendre_table, odd_primes_up_to
from cyarith.cli import main
from cyarith.cmforms import EISENSTEIN, GAUSSIAN
from cyarith.pointcount import (
    AHLGREN_ETA,
    EllipticCurveModel,
    ahlgren_count_bruteforce,
    ahlgren_count_fast,
    ahlgren_predicted,
    elliptic_ap,
    verify_ahlgren,
)
from cyarith.registry import (
    CURVE_EISENSTEIN,
    CURVE_EISENSTEIN_TWIST,
    CURVE_GAUSSIAN,
    ETA_WEIGHT2_EISENSTEIN,
    ETA_WEIGHT2_GAUSSIAN,
)
from cyarith.suites import run_suite
from oracles import ahlgren_count_enumeration, ahlgren_count_loop, legendre_family_sum


def test_curve_model_validation():
    with pytest.raises(ValueError, match="singular"):
        EllipticCurveModel(0, 0)
    # a float coefficient would otherwise fail only inside elliptic_ap,
    # as a list index of the character sum
    with pytest.raises(TypeError):
        EllipticCurveModel(-1.0, 0)
    assert CURVE_GAUSSIAN.discriminant == 64
    # a coefficient +-1 of x prints as a bare x
    assert str(EllipticCurveModel(1, 1)) == "y^2 = x^3 + x + 1"
    assert str(EllipticCurveModel(-2, 3)) == "y^2 = x^3 - 2*x + 3"
    assert not CURVE_EISENSTEIN.is_good(3)
    assert CURVE_EISENSTEIN.is_good(5)


def test_elliptic_ap_examples():
    # enumeration oracle at p = 5: chi-values of x^3 - x over F_5 sum to +2
    chi = legendre_table(5)
    assert sum(chi[(x**3 - x) % 5] for x in range(5)) == 2
    assert elliptic_ap(CURVE_GAUSSIAN, 5) == -2
    assert elliptic_ap(CURVE_EISENSTEIN, 7) == -1
    assert elliptic_ap(CURVE_GAUSSIAN, 3) == 0  # 3 inert in Q(i)


def test_elliptic_ap_rejects_bad_prime():
    with pytest.raises(ValueError):
        elliptic_ap(CURVE_EISENSTEIN, 3)
    with pytest.raises(ValueError):
        elliptic_ap(CURVE_GAUSSIAN, 2)


def test_hasse_bound_on_reference_curves():
    for curve in (CURVE_GAUSSIAN, CURVE_EISENSTEIN):
        for p in odd_primes_up_to(500):
            if curve.discriminant % p == 0:
                continue
            a = elliptic_ap(curve, p)
            assert a * a <= 4 * p


def test_inert_primes_force_zero_trace():
    for p in odd_primes_up_to(200):
        if GAUSSIAN.chi(p) == -1:
            assert elliptic_ap(CURVE_GAUSSIAN, p) == 0
        if EISENSTEIN.chi(p) == -1 and p != 3:
            assert elliptic_ap(CURVE_EISENSTEIN, p) == 0


def test_curve_eta_consistency_to_197():
    eta32 = ETA_WEIGHT2_GAUSSIAN.expand(197)
    eta27 = ETA_WEIGHT2_EISENSTEIN.expand(197)
    for p in odd_primes_up_to(197):
        assert elliptic_ap(CURVE_GAUSSIAN, p) == eta32.coeff(p)
        if p != 3:
            assert elliptic_ap(CURVE_EISENSTEIN, p) == eta27.coeff(p)


def test_twisted_model_differs_by_chi_minus4():
    """y^2 = x^3 - 16 is the (-1)-twist of the level-27 model: its traces
    are chi_{-4}(p) times the eta coefficients, so it disagrees exactly at
    the split primes p = 3 mod 4.  This is the model-mismatch report."""
    eta27 = ETA_WEIGHT2_EISENSTEIN.expand(197)
    mismatches = []
    for p in odd_primes_up_to(197):
        if p == 3:
            continue
        expected = eta27.coeff(p)
        got = elliptic_ap(CURVE_EISENSTEIN_TWIST, p)
        assert got == GAUSSIAN.chi(p) * expected
        if got != expected:
            mismatches.append(p)
    assert mismatches == [
        p for p in odd_primes_up_to(197) if p % 4 == 3 and EISENSTEIN.is_split(p)
    ]
    assert mismatches[:4] == [7, 19, 31, 43]


# ---------------------------------------------------------------------------
# Ahlgren counts


def test_bruteforce_small_values():
    assert ahlgren_count_bruteforce(3) == 245
    assert ahlgren_count_bruteforce(5) == 3175


def test_bruteforce_matches_formula_side():
    # formula side at p = 3 with a_3 = -12, at p = 5 with a_5 = 54
    assert ahlgren_predicted(3, -12) == 245
    assert ahlgren_predicted(5, 54) == 3175


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_bruteforce_equals_enumeration(p):
    # the value-histogram count against every one of the p^5 points
    assert ahlgren_count_bruteforce(p) == ahlgren_count_enumeration(p)


def test_bruteforce_equals_fast_to_61():
    for p in odd_primes_up_to(61):
        assert ahlgren_count_bruteforce(p, limit=61) == ahlgren_count_fast(p), p


def test_fast_equals_fibre_loop():
    # the one-product correlation against the direct O(p^2) fibre sums
    for p in odd_primes_up_to(211):
        assert ahlgren_count_fast(p) == ahlgren_count_loop(p), p


def test_fast_count_rejects_a_modulus_that_is_not_an_odd_prime():
    # the check is legendre_table's, the fast count's first call
    for p in (1, 2, 4, 9, 15):
        with pytest.raises(ValueError, match="modulus must be an odd prime"):
            ahlgren_count_fast(p)


def test_bruteforce_cap():
    with pytest.raises(ValueError, match="brute-force cap"):
        ahlgren_count_bruteforce(17)


def test_fast_count_at_31_matches_identity():
    series = AHLGREN_ETA.expand(31)
    assert ahlgren_count_fast(31) == ahlgren_predicted(31, series.coeff(31))


def test_count_is_at_least_p5():
    for p in odd_primes_up_to(60):
        assert ahlgren_count_fast(p) >= p**5


def _depressed_legendre_model(p: int, v: int) -> EllipticCurveModel:
    # y^2 = x(x-1)(x-v) = x^3 + a2 x^2 + a4 x; shift x by a2/3 mod p:
    # A = a4 - 3 s^2, B = 2 s^3 - a4 s with s = a2/3
    a2, a4 = -(1 + v), v
    s = a2 * pow(3, -1, p) % p
    big_a = (a4 - 3 * s * s) % p
    big_b = (2 * s**3 - a4 * s) % p
    for da, db in ((0, 0), (p, 0), (0, p)):
        try:
            curve = EllipticCurveModel(big_a + da, big_b + db)
        except ValueError:
            continue  # integer discriminant vanished; perturb by p and retry
        return curve
    raise AssertionError("no integral lift found")


def test_fiber_sums_match_legendre_family():
    # -S(v) is the Frobenius trace of y^2 = x(x-1)(x-v) for v not in {0, 1};
    # the cubic is depressed mod p to fit the (A, B) interface
    for p in odd_primes_up_to(31):
        if p == 3:
            # x(x-1)(x-2) = x^3 - 3x^2 + 2x = 3x = 0 identically mod 3
            assert legendre_family_sum(3, 2) == 0
            continue
        for v in range(2, p):
            curve = _depressed_legendre_model(p, v)
            assert curve.discriminant % p != 0, (p, v)
            assert elliptic_ap(curve, p) == -legendre_family_sum(p, v)


def test_verify_ahlgren_rows():
    rows = verify_ahlgren(13, brute_max=13)
    assert [r.p for r in rows] == [3, 5, 7, 11, 13]  # p = 2 excluded
    for r in rows:
        assert r.match
        assert r.brute == r.count
        assert r.predicted == ahlgren_predicted(r.p, r.ap)


def test_fast_brute_mismatch_is_a_fail_row(monkeypatch, capsys):
    # a wrong fast count at p = 7 must surface as a FAIL row, not a traceback
    real = pointcount.ahlgren_count_fast
    monkeypatch.setattr(pointcount, "ahlgren_count_fast", lambda p: real(p) + (p in (7, 17)))
    rows = {r.p: r for r in verify_ahlgren(13, brute_max=13)}
    assert (rows[7].count, rows[7].brute, rows[7].match) == (17322, 17321, False)
    assert all(r.match for p, r in rows.items() if p != 7)

    [report] = run_suite("ahlgren", pmax=13)
    assert report.status == "fail"
    assert main(["suite", "ahlgren", "--pmax", "13"]) == 1
    assert "[FAIL]" in capsys.readouterr().out
    assert main(["verify-ahlgren", "--pmax", "13", "--brute-max", "13"]) == 1
    row = next(r for r in json.loads(capsys.readouterr().out) if r["p"] == 7)
    assert (row["count"], row["brute"], row["match"]) == (17322, 17321, False)
    # past every brute count, the prediction alone must fail the row
    assert main(["verify-ahlgren", "--pmax", "17"]) == 1
    row = json.loads(capsys.readouterr().out)[-1]
    assert (row["p"], row["count"], row["brute"], row["predicted"], row["match"]) == (17, 1427780, None, 1427779, False)


def test_hasse_violation_is_a_fail_line(monkeypatch, capsys):
    # a character table of all ones gives a_p = -p, far outside the Hasse bound
    monkeypatch.setattr(pointcount, "legendre_table", lambda p: [1] * p)
    with pytest.raises(IdentityViolation, match="Hasse bound violated at p=13"):
        elliptic_ap(EllipticCurveModel(-1, 0), 13)
    assert main(["elliptic-ap", "--curve=-1,0", "--pmax", "13"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "FAIL identity violated: Hasse bound violated at p=5 for y^2 = x^3 - x\n"
