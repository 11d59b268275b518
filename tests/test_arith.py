from fractions import Fraction
from itertools import combinations
from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyarith import arith
from cyarith.arith import (
    IntPoly,
    _kronecker_mul,
    PRIMALITY_LIMIT,
    is_prime,
    legendre_table,
    minors_by_size,
    odd_primes_up_to,
    primes_up_to,
    require_odd_prime,
)
from oracles import all_minors, det, echelon, echelon_mod, is_prime_trial_division, legendre, mul_trunc, poly_mul, poly_pow, primitive_rows, rank

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


def test_is_prime_agrees_with_sieve_to_1e5():
    assert [n for n in range(10**5 + 1) if is_prime(n)] == primes_up_to(10**5)


def test_is_prime_table_agrees_with_trial_division():
    # every n the table answers, against a reference that shares no sieve
    assert [n for n in range(1 << 16) if is_prime(n)] == [n for n in range(1 << 16) if is_prime_trial_division(n)]


def test_is_prime_and_primes_up_to_at_the_table_edge():
    # the table answers below 2^16, Miller-Rabin from 2^16 on; 65537 is prime
    for n, prime in ((-1, False), (0, False), (1, False), (2, True), (65535, False), (65536, False), (65537, True)):
        assert is_prime(n) is prime, n
    below = primes_up_to(65535)
    assert len(below) == 6542 and below[-1] == 65521
    assert primes_up_to(65536) == below
    assert primes_up_to(65537) == below + [65537]


def test_is_prime_strong_pseudoprimes_at_the_witness_boundary():
    # least strong pseudoprimes to bases {2}, {2,3}, {2,3,5}, {2,3,5,7}; the
    # last is where the four small witnesses stop being enough
    for n in (2047, 1_373_653, 25_326_001, 3_215_031_751):
        assert not is_prime(n)
    # the least base-2 strong pseudoprimes above 2^16, where Miller-Rabin
    # (not the table) answers
    for n in (74665, 80581, 85489, 88357, 90751):
        assert not is_prime(n)
    # both sides of the boundary against trial division
    small = primes_up_to(isqrt(3_215_031_800))
    for n in range(3_215_031_701, 3_215_031_800, 2):
        assert is_prime(n) == all(n % q for q in small), n


def test_is_prime_at_the_end_of_its_deterministic_range():
    # psi_12, the least strong pseudoprime to every prime base up to 37,
    # falls to base 41; psi_13, the least one to every base up to 41, is
    # where the test stops answering
    psi12 = 318_665_857_834_031_151_167_461
    assert psi12 == 399_165_290_221 * 798_330_580_441
    assert not is_prime(psi12)
    assert PRIMALITY_LIMIT == 3_317_044_064_679_887_385_961_981
    with pytest.raises(ValueError, match="limit of the deterministic primality test"):
        is_prime(PRIMALITY_LIMIT)


def test_require_odd_prime():
    require_odd_prime(7)
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
        table = legendre_table(p)
        for a in range(-p, 2 * p):
            assert table[a % p] == legendre(a, p)


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


def _add(a, b):
    n = max(len(a.coeffs), len(b.coeffs))
    return IntPoly(a.coeff(i) + b.coeff(i) for i in range(n))


def _eval(a, t):
    return sum(c * t**k for k, c in enumerate(a.coeffs))


def test_poly_examples():
    assert poly_mul(P(1, -1), P(1, 1)) == P(1, 0, -1)  # (1-T)(1+T) = 1 - T^2
    assert poly_pow(P(1, 1), 2) == P(1, 2, 1)
    assert poly_mul(P(1, -2, 5), P(1, 2, 5)) == P(1, 0, 6, 0, 25)


def test_poly_eq_and_normalization():
    assert IntPoly((1, 2, 0, 0)) == IntPoly((1, 2))
    assert IntPoly(()).degree == -1
    assert IntPoly((0, 0)).degree == -1


def test_poly_scale_and_eval():
    p = P(1, -2, 5)
    assert p.scale_arg(3) == P(1, -6, 45)
    assert p.scale_arg(1) is p and p.scale_arg(-1) == P(1, 2, 5)
    assert _eval(p.scale_arg(3), 2) == _eval(p, 6) == 1 - 12 + 180


poly_strategy = st.builds(IntPoly, st.lists(st.integers(-9, 9), max_size=5))


@settings(max_examples=80, deadline=None)
@given(poly_strategy, poly_strategy, poly_strategy)
def test_poly_ring_laws(a, b, c):
    # the schoolbook oracle: associative, commutative, distributive
    assert poly_mul(poly_mul(a, b), c) == poly_mul(a, poly_mul(b, c))
    assert poly_mul(a, _add(b, c)) == _add(poly_mul(a, b), poly_mul(a, c))
    assert poly_mul(a, b) == poly_mul(b, a)


@settings(max_examples=30, deadline=None)
@given(poly_strategy, st.integers(0, 6))
def test_poly_pow_matches_repeated_mul(a, n):
    expected = P(1)
    for _ in range(n):
        expected = poly_mul(expected, a)
    assert poly_pow(a, n) == expected


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


def _minors_as_tuples(matrix):
    """(size, row indices, column indices, value) from minors_by_size."""

    def indices(mask):
        return tuple(i for i in range(mask.bit_length()) if mask >> i & 1)

    return sorted(
        (size, indices(rows), indices(cols), value)
        for size, level in minors_by_size(matrix)
        for rows, minors in level.items()
        for cols, value in minors.items()
    )


def test_all_minors_count():
    matrix = [[1, 0], [0, 1], [1, 1]]
    minors = _minors_as_tuples(matrix)
    # 3*2 size-1 plus 3 size-2
    assert len(minors) == 6 + 3
    assert {v for _, _, _, v in minors} <= {-1, 0, 1}
    assert minors == sorted(all_minors(matrix))


@st.composite
def integer_matrices(draw):
    """Up to 9 x 6, with zero-size shapes, zero rows and columns, 1 x n and
    n x 1 shapes, and entries up to 2^64 in absolute value."""
    nrows = draw(st.integers(0, 9))
    ncols = draw(st.integers(0, 6))
    entry = st.one_of(st.just(0), st.integers(-3, 3), st.integers(-(2**64), 2**64))
    m = [[draw(entry) for _ in range(ncols)] for _ in range(nrows)]
    for r in draw(st.sets(st.integers(0, 8), max_size=2)):
        if r < nrows:
            m[r] = [0] * ncols
    for c in draw(st.sets(st.integers(0, 5), max_size=2)):
        if c < ncols:
            for row in m:
                row[c] = 0
    return m


@settings(max_examples=100, deadline=None)
@given(integer_matrices())
def test_minors_by_size_matches_bareiss_scan(matrix):
    assert _minors_as_tuples(matrix) == sorted(all_minors(matrix))


@pytest.mark.parametrize("shape", [(1, 1), (1, 6), (9, 1), (0, 4), (4, 0), (9, 6)])
def test_minors_by_size_shapes(shape):
    nrows, ncols = shape
    matrix = [[(3 * r + 5 * c) % 7 - 3 for c in range(ncols)] for r in range(nrows)]
    assert _minors_as_tuples(matrix) == sorted(all_minors(matrix))


def test_minors_by_size_levels():
    levels = list(minors_by_size([[1, 2, 3], [4, 5, 6], [7, 8, 10]]))
    # one dict of column sets per row set: 3 + 3 + 1 row sets, 9 + 9 + 1 minors
    assert [(k, len(level), sum(map(len, level.values()))) for k, level in levels] == [(1, 3, 9), (2, 3, 9), (3, 1, 1)]
    assert levels[1][1][0b011][0b101] == 1 * 6 - 3 * 4
    assert levels[2][1] == {0b111: {0b111: -3}}


def test_minors_by_size_rejects_ragged():
    with pytest.raises(ValueError, match="ragged"):
        next(minors_by_size([[1, 2], [3]]))


# ---------------------------------------------------------------------------
# truncated products by Kronecker substitution

coefficient_lists = st.lists(
    st.one_of(st.just(0), st.integers(-3, 3), st.integers(-(2**200), 2**200)),
    max_size=40,
)


@settings(max_examples=200, deadline=None)
@given(coefficient_lists, coefficient_lists, st.integers(0, 90))
def test_kronecker_mul_matches_schoolbook(a, b, top):
    # top ranges from far below to far above len(a) + len(b) - 2; one list
    # passed twice is squared
    assert _kronecker_mul(a, b, top) == mul_trunc(a, b, top)
    assert _kronecker_mul(a, a, top) == mul_trunc(a, a, top)


@pytest.mark.parametrize("n", [127, 128, 255, 256, 32767, 32768])
def test_kronecker_mul_digit_width_boundary(n):
    # the middle coefficient reaches the bound n exactly, with either sign
    ones = [1] * n
    assert _kronecker_mul(ones, ones, 2 * n)[n - 1] == n
    assert _kronecker_mul(ones, [-1] * n, 2 * n)[n - 1] == -n
    assert _kronecker_mul([-1] * n, [-1] * n, n - 1) == list(range(1, n + 1))


# output bound -> digit width in bytes, on both sides of each word edge,
# of the 6|7 edge inside a word and of the 9|10 edge above one
_EDGE_WIDTHS = {
    2**7 - 1: 1, 2**7: 2,
    2**15 - 1: 2, 2**15: 3,
    2**31 - 1: 4, 2**31: 5,
    2**47 - 1: 6, 2**47: 7,
    2**63 - 1: 8, 2**63: 9,
    2**71 - 1: 9, 2**71: 10,
}  # fmt: skip


def _record_widths(monkeypatch):
    """The width of every list that _kronecker_mul packs, in order."""
    widths = []
    real_pack = arith._pack
    monkeypatch.setattr(arith, "_pack", lambda v, w: widths.append(w) or real_pack(v, w))
    return widths


@pytest.mark.parametrize("bound", sorted(_EDGE_WIDTHS))
def test_kronecker_mul_at_word_width_edges(bound, monkeypatch):
    # inputs and outputs reach +-bound; widths up to 8 take the strided
    # array('q') encoding, 9 and 10 the to_bytes one
    widths = _record_widths(monkeypatch)
    a = [bound, -bound, 0, 1, -1, bound, -bound]
    cases = [(a, [1], 6), (a, [-1], 8), ([-1], a, 4), ([1, 0, -1], [bound], 3)]
    if bound % 2 == 0:
        k = bound // 2
        cases += [([k, k], [1, 1], 2), ([k, k], [-1, -1], 2), ([1, -1], [-k, -k, k], 3)]
    for x, y, top in cases:
        assert _kronecker_mul(x, y, top) == mul_trunc(x, y, top), (x, y)
    assert set(widths) == {_EDGE_WIDTHS[bound]}


@pytest.mark.parametrize("width", [1, 2, 3, 4, 5, 6, 7, 8, 9, 10])
def test_kronecker_mul_squares_one_list_once(width, monkeypatch):
    # a = [k, -k, 0, 1, -1] squared has output bound 5k^2 just below
    # 2^(8 width - 1), so the square takes exactly `width`-byte digits;
    # one list passed twice is packed once, at every top
    k = isqrt((2 ** (8 * width - 1) - 1) // 5)
    a = [k, -k, 0, 1, -1]
    widths = _record_widths(monkeypatch)
    for top in (0, 2, 4, 8, 12):
        widths.clear()
        assert _kronecker_mul(a, a, top) == mul_trunc(a, a, top)
        assert len(widths) == 1
    assert widths == [width]  # top 12 keeps all of a
    widths.clear()
    assert _kronecker_mul(a, list(a), 12) == mul_trunc(a, a, 12)
    assert widths == [width, width]  # an equal copy is packed on its own


def test_kronecker_mul_empty_and_zero_inputs():
    assert _kronecker_mul([], [1, 2], 3) == [0, 0, 0, 0]
    assert _kronecker_mul([0, 0], [0], 2) == [0, 0, 0]
    assert _kronecker_mul([5], [-7], 0) == [-35]
