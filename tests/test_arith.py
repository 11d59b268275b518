from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyarith.arith import (
    IntPoly,
    LegendreTable,
    all_minors,
    det,
    echelon,
    is_prime,
    legendre,
    odd_primes_up_to,
    primitive_rows,
    rank,
    require_odd_prime,
)
from oracles import echelon_mod

SMALL_ODD_PRIMES = (3, 5, 7, 11, 13, 31, 97)


def test_is_prime_small():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31}
    for n in range(32):
        assert is_prime(n) == (n in primes)


def test_is_prime_carmichael_and_large():
    assert not is_prime(561)  # Carmichael
    assert not is_prime(1105)
    assert is_prime(2**61 - 1)  # Mersenne prime
    assert not is_prime(2**67 - 1)


def test_require_odd_prime():
    assert require_odd_prime(7) == 7
    for bad in (2, 4, 9, 1, -3, 15):
        with pytest.raises(ValueError):
            require_odd_prime(bad)


def test_legendre_examples():
    assert legendre(0, 7) == 0
    assert legendre(4, 5) == 1
    # squares mod 5 are {0, 1, 4}, so 2 is a non-residue
    assert {x * x % 5 for x in range(5)} == {0, 1, 4}
    assert legendre(2, 5) == -1


def test_legendre_rejects_bad_modulus():
    with pytest.raises(ValueError):
        legendre(3, 2)
    with pytest.raises(ValueError):
        legendre(3, 15)


@given(st.integers(-200, 200), st.integers(-200, 200), st.sampled_from(SMALL_ODD_PRIMES))
def test_legendre_fully_multiplicative(a, b, p):
    assert legendre(a, p) * legendre(b, p) == legendre(a * b, p)


def test_legendre_sums_to_zero():
    for p in odd_primes_up_to(100):
        assert sum(legendre(a, p) for a in range(p)) == 0


def test_legendre_table_matches_symbol():
    for p in SMALL_ODD_PRIMES:
        table = LegendreTable(p)
        for a in range(-p, 2 * p):
            assert table.chi(a) == legendre(a, p)


# ---------------------------------------------------------------------------
# echelon


def _frac_rows(rows):
    return tuple(tuple(Fraction(x) for x in row) for row in rows)


def test_echelon_identity_fixed():
    ident = [[1, 0], [0, 1]]
    assert echelon(ident) == _frac_rows(ident)


def test_echelon_scaling():
    assert echelon([[2, 0], [0, 2]]) == _frac_rows([[1, 0], [0, 1]])


def test_echelon_rank_two_example():
    got = echelon([[1, 1, 0], [0, 1, 1], [1, 2, 1]])
    assert got == _frac_rows([[1, 0, -1], [0, 1, 1]])


def _rank_by_minors(rows):
    # independent oracle: rank = largest size of a nonsingular square submatrix
    rows = [list(r) for r in rows]
    n, m = len(rows), len(rows[0])
    best = 0
    for size in range(1, min(n, m) + 1):
        for ridx in combinations(range(n), size):
            for cidx in combinations(range(m), size):
                if det([[rows[r][c] for c in cidx] for r in ridx]) != 0:
                    best = size
                    break
            else:
                continue
            break
    return best


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(st.integers(-4, 4), min_size=4, max_size=4), min_size=1, max_size=4))
def test_echelon_idempotent_and_rank(rows):
    ech = echelon(rows)
    assert echelon(ech) == ech
    assert len(ech) == _rank_by_minors(rows) if rows else True


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.lists(st.integers(-3, 3), min_size=4, max_size=4), min_size=1, max_size=3),
    st.lists(st.lists(st.integers(-3, 3), min_size=4, max_size=4), min_size=1, max_size=3),
)
def test_equal_row_space_iff_equal_echelon(rows_a, rows_b):
    # row-space inclusion oracle via ranks of stacked matrices
    ra, rb = rank(rows_a), rank(rows_b)
    same_space = ra == rb == rank(rows_a + rows_b)
    assert (echelon(rows_a) == echelon(rows_b)) == same_space


def test_primitive_rows_clears_denominators():
    ech = echelon([[2, 1], [0, 0]])
    assert primitive_rows(ech) == ((2, 1),)
    assert primitive_rows([(Fraction(1), Fraction(-1, 3))]) == ((3, -1),)


def test_echelon_mod_matches_rational_on_unimodular():
    rows = [[1, 0, -1], [0, 1, -1], [1, 1, 0]]
    for p in (3, 5, 7):
        assert len(echelon_mod(rows, p)) == rank(rows)


# ---------------------------------------------------------------------------
# integer polynomials


def P(*coeffs):
    return IntPoly(coeffs)


def test_poly_examples():
    assert P(1, -1) * P(1, 1) == P(1, 0, -1)  # (1-T)(1+T) = 1 - T^2
    assert P(1, 1) ** 2 == P(1, 2, 1)
    assert P(1, -2, 5) * P(1, 2, 5) == P(1, 0, 6, 0, 25)


def test_poly_eq_and_normalization():
    assert IntPoly((1, 2, 0, 0)) == IntPoly((1, 2))
    assert IntPoly(()).degree == -1
    assert IntPoly((0, 0)).degree == -1


def test_poly_scale_and_eval():
    p = P(1, -2, 5)
    assert p.scale_arg(3) == P(1, -6, 45)
    assert p(2) == 1 - 4 + 20


poly_strategy = st.builds(IntPoly, st.lists(st.integers(-9, 9), max_size=5))


@settings(max_examples=80, deadline=None)
@given(poly_strategy, poly_strategy, poly_strategy)
def test_poly_ring_laws(a, b, c):
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a * b == b * a
    assert a + b == b + a


@settings(max_examples=30, deadline=None)
@given(poly_strategy, st.integers(0, 6))
def test_poly_pow_matches_repeated_mul(a, n):
    expected = IntPoly.one()
    for _ in range(n):
        expected = expected * a
    assert a**n == expected


def _det_by_permutations(m):
    n = len(m)
    if n == 1:
        return m[0][0]
    total = 0
    for j in range(n):
        minor = [row[:j] + row[j + 1 :] for row in m[1:]]
        total += (-1) ** j * m[0][j] * _det_by_permutations(minor)
    return total


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(st.integers(-5, 5), min_size=3, max_size=3), min_size=3, max_size=3))
def test_det_matches_cofactor_expansion(m):
    assert det(m) == _det_by_permutations(m)


def test_all_minors_count():
    matrix = [[1, 0], [0, 1], [1, 1]]
    minors = list(all_minors(matrix))
    # 3*2 size-1 plus 3 size-2
    assert len(minors) == 6 + 3
    assert {v for _, _, _, v in minors} <= {-1, 0, 1}
