import random
from itertools import combinations, product
from math import gcd, prod
from operator import mul

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cyarith import arrangement
from cyarith.arith import PRIMALITY_LIMIT, is_prime
from cyarith.arrangement import (
    Arrangement,
    Hyperplane,
    admissible,
    classify,
    crepant_resolvable,
    good_reduction_report,
    incidence_count_breaks,
    intersection_poset,
    parse_arrangement,
    poset_matches_mod_p,
    resolution_schedule,
)
from cyarith.registry import (
    AHLGREN_NEAR_PENCIL_TYPES,
    AHLGREN_REFERENCE_TABLE,
    load_bundled_arrangement,
)
from oracles import (
    closure_poset,
    closure_poset_mod_p,
    echelon,
    echelon_mod,
    good_reduction_scan,
    incidence_rows,
    odd_prime_divisors_trial_division,
    primitive_rows,
    rank,
    subsets_poset,
    subsets_poset_mod_p,
)


def lines(*rows):
    return Arrangement.from_rows(2, rows)


def random_arrangement(rng, n, count, bound=2):
    """`count` distinct hyperplanes in P^n, coefficients in [-bound, bound].

    ValueError when there are fewer than `count` such hyperplanes.
    """
    # the (2 bound + 1)^n rows (1, x_1, ..., x_n) are distinct hyperplanes;
    # past that many, count them all
    if count > (2 * bound + 1) ** n:
        rows = product(range(-bound, bound + 1), repeat=n + 1)
        available = len({Hyperplane(tuple(row)).coeffs for row in rows if any(row)})
        if count > available:
            raise ValueError(f"only {available} hyperplanes in P^{n} with coefficients in [-{bound}, {bound}]")
    seen = set()
    rows = []
    while len(rows) < count:
        row = tuple(rng.randint(-bound, bound) for _ in range(n + 1))
        if not any(row):
            continue
        h = Hyperplane(tuple(row))
        if h.coeffs not in seen:
            seen.add(h.coeffs)
            rows.append(h.coeffs)
    return Arrangement.from_rows(n, rows)


def test_random_arrangement_refuses_more_planes_than_exist():
    # P^1 with coefficients in [-1, 1] has only 4 points: 0, infinity, 1, -1
    with pytest.raises(ValueError, match="only 4 hyperplanes"):
        random_arrangement(random.Random(0), 1, 5, bound=1)
    assert len(random_arrangement(random.Random(0), 1, 4, bound=1).hyperplanes) == 4


def fields(poset):
    return [(s.basis, s.dim, s.hyperplanes, s.near_pencil, s.covers) for s in poset]


def type_rows(cls):
    return [(r.dim, r.mult, r.near_pencil, r.count, r.incidence, r.incidence_uniform) for r in cls.rows]


# ---------------------------------------------------------------------------
# construction and parsing


def test_hyperplane_normalization():
    assert Hyperplane((-2, 0, 2)).coeffs == (1, 0, -1)
    assert Hyperplane((0, 3, -6)).coeffs == (0, 1, -2)
    with pytest.raises(ValueError, match="zero vector"):
        Hyperplane((0, 0, 0))
    # a directly built Hyperplane is its line, so these are duplicates
    with pytest.raises(ValueError, match="pairwise distinct"):
        Arrangement(2, (Hyperplane((1, 0, 0)), Hyperplane((2, 0, 0)), Hyperplane((0, 1, 0))))
    with pytest.raises(TypeError):
        Arrangement.from_rows(1, [[1.5, 0], [0, 1]])
    # a non-primitive row is its primitive line: no spurious exceptional prime 3
    direct = Arrangement(2, (Hyperplane((1, 0, 0)), Hyperplane((0, 1, 0)), Hyperplane((3, 3, 3))))
    parsed = lines((1, 0, 0), (0, 1, 0), (1, 1, 1))
    assert good_reduction_report(direct) == good_reduction_report(parsed)
    assert good_reduction_report(direct).all_unimodular
    assert intersection_poset(direct) == intersection_poset(parsed)
    assert poset_matches_mod_p(direct, 3, intersection_poset(direct)).equal


def test_arrangement_rejects_duplicates():
    with pytest.raises(ValueError, match="distinct"):
        lines((1, 0, 0), (2, 0, 0))


def test_arrangement_checks_its_inputs():
    h = (Hyperplane((1, 0, 0)), Hyperplane((0, 1, 0)), Hyperplane((1, 1, 1)))
    with pytest.raises(TypeError):
        Arrangement(2.0, h[:2])
    with pytest.raises(TypeError, match=r"\(1, 0, 0\) is not a Hyperplane"):
        Arrangement(2, ((1, 0, 0), (0, 1, 0)))
    # a list is stored as a tuple, so the cached minor scan can hash it
    listed = Arrangement(2, list(h))
    assert listed.hyperplanes == h
    assert good_reduction_report(listed) == good_reduction_report(Arrangement(2, h))


def test_parse_errors():
    with pytest.raises(ValueError, match="header"):
        parse_arrangement("bogus\n1 0 0")
    with pytest.raises(ValueError, match="rows"):
        parse_arrangement("2 3\n1 0 0\n0 1 0")
    # a row's length is checked by Arrangement, which names the row's index
    with pytest.raises(ValueError, match=r"^hyperplane 0, \(1, 0\), has 2 coordinates, expected 3$"):
        parse_arrangement("2 1\n1 0")
    with pytest.raises(ValueError, match=r"^hyperplane 2, \(0, 1, 0, 3\), has 4 coordinates, expected 3$"):
        parse_arrangement("2 4\n1 0 0\n0 1 0\n0 2 0 6\n1 1 1")
    with pytest.raises(ValueError, match="empty"):
        parse_arrangement("  \n ")
    # a non-integer header is a malformed header; a bad row names its index
    with pytest.raises(ValueError, match=r"^malformed header 'x 2': expected `n N`$"):
        parse_arrangement("x 2\n1 0 0\n0 1 0")
    with pytest.raises(ValueError, match=r"^hyperplane 1: invalid literal for int\(\) with base 10: 'x'$"):
        parse_arrangement("2 2\n1 0 0\n1 x 0")
    with pytest.raises(ValueError, match=r"^hyperplane 0: invalid literal for int\(\) with base 10: '1\.5'$"):
        parse_arrangement("2 2\n1.5 0 0\n0 1 0")
    with pytest.raises(ValueError, match=r"^hyperplane 1: zero vector is not a hyperplane$"):
        parse_arrangement("2 3\n1 0 0\n0 0 0\n0 1 0")
    # the first repeat is named with the row it repeats
    with pytest.raises(ValueError, match=r"^hyperplanes must be pairwise distinct: 1 and 3 are both \(0, 1, 0\)$"):
        parse_arrangement("2 4\n1 0 0\n0 1 0\n0 0 1\n0 -2 0")


# ---------------------------------------------------------------------------
# small hand-checkable posets


def test_three_generic_lines():
    arr = lines((1, 0, 0), (0, 1, 0), (1, 1, -1))
    poset = intersection_poset(arr)
    assert len(poset) == 3
    assert all((s.dim, s.mult) == (0, 2) for s in poset)


def test_three_concurrent_lines():
    arr = lines((1, 0, 0), (0, 1, 0), (1, 1, 0))
    poset = intersection_poset(arr)
    assert len(poset) == 1
    assert (poset[0].dim, poset[0].mult) == (0, 3)


def test_four_concurrent_lines_not_resolvable():
    arr = lines((1, 0, 0), (0, 1, 0), (1, 1, 0), (1, -1, 0))
    violators = crepant_resolvable(arr, intersection_poset(arr))
    assert [(v.dim, v.mult) for v in violators] == [(0, 4)]


def test_two_lines_resolvable():
    arr = lines((1, 0, 0), (0, 1, 0))
    assert crepant_resolvable(arr, intersection_poset(arr)) == []


def test_admissible_examples():
    assert admissible(0, 2, 2)
    assert admissible(3, 2, 5)
    assert admissible(0, 9, 5)
    assert not admissible(0, 4, 2)


def test_triangle_schedule():
    arr = lines((1, 0, 0), (0, 1, 0), (1, 1, -1))
    steps = resolution_schedule(arr, intersection_poset(arr))
    assert len(steps) == 3
    assert all(s.stratum.mult == 2 and not s.adds_exceptional for s in steps)


def test_pencil_schedule_adds_exceptional():
    arr = lines((1, 0, 0), (0, 1, 0), (1, 1, 0))
    steps = resolution_schedule(arr, intersection_poset(arr))
    assert len(steps) == 1
    assert steps[0].adds_exceptional  # mult 3 is odd


def test_schedule_refuses_unresolvable():
    arr = lines((1, 0, 0), (0, 1, 0), (1, 1, 0), (1, -1, 0))
    with pytest.raises(ValueError, match="not crepant-resolvable"):
        resolution_schedule(arr, intersection_poset(arr))


def test_near_pencil_example():
    # three concurrent lines plus one generic: the triple point is contained
    # in no suitable parent, but a (0,3) subset of a (1,2)... build in P^3:
    # planes x, y, z cut the line {x=y=0} etc; add x+y to make {x=y=0} mult 3
    arr = Arrangement.from_rows(3, [(1, 0, 0, 0), (0, 1, 0, 0), (1, 1, 0, 0), (0, 0, 1, 0)])
    poset = intersection_poset(arr)
    by_key = {}
    for s in poset:
        by_key.setdefault((s.dim, s.mult), []).append(s)
    # the point {x=y=z=0} has mult 4 and sits on the mult-3 line {x=y=0}
    point = by_key[(0, 4)][0]
    assert point.near_pencil
    line3 = by_key[(1, 3)][0]
    assert not line3.near_pencil
    # the point's covers are the four lines through it: {x=y=0} on three
    # planes, and the lines where z = 0 meets x, y and x+y on two each
    assert line3.mask in point.covers
    assert sorted(s.mult for s in poset if s.mask in point.covers) == [2, 2, 2, 3]
    # a line cut out by two planes has no covers: single planes are not strata
    assert all(s.covers == () for s in by_key[(1, 2)])


# ---------------------------------------------------------------------------
# the twelve-plane arrangement


def test_ahlgren_census(ahlgren, ahlgren_poset):
    assert len(ahlgren_poset) == 452
    cls = classify(ahlgren, ahlgren_poset)
    assert cls.census == tuple((d, m, c) for d, m, c, _ in AHLGREN_REFERENCE_TABLE)
    assert cls.resolvable
    assert not cls.violators


def test_ahlgren_near_pencil_and_admissible_flags(ahlgren, ahlgren_poset):
    cls = classify(ahlgren, ahlgren_poset)
    near = {(r.dim, r.mult) for r in cls.rows if r.near_pencil}
    assert near == set(AHLGREN_NEAR_PENCIL_TYPES)
    for row in cls.rows:
        assert row.near_pencil != row.admissible  # exactly one holds per type here


def test_ahlgren_incidence_block(ahlgren, ahlgren_poset):
    cls = classify(ahlgren, ahlgren_poset)
    computed = {(r.dim, r.mult): r.incidence for r in cls.rows}
    mismatches = []
    for dim, mult, _, printed in AHLGREN_REFERENCE_TABLE:
        got = computed[(dim, mult)]
        for k, cell in enumerate(printed):
            if got[k] != cell:
                mismatches.append(((dim, mult), k + 1, got[k], cell))
    # single known transcription typo: the mult-9 points meet 48 triple
    # planes (hand-recount: 27 + 3 + 6 + 12), the table prints 21
    assert mismatches == [((0, 9), 2, 48, 21)]


def test_pair_and_triple_counts_settle_the_printed_cell(ahlgren, ahlgren_poset):
    # C(m,2) = N1 and C(m,3) = N2 + 4 N3 through every type of dim <= 1:
    # the computed table keeps both, and the printed (0,9) row alone breaks
    # the triple count, C(9,3) = 84 against 21 + 4*9 = 57
    cls = classify(ahlgren, ahlgren_poset)
    computed = [(r.dim, r.mult, r.incidence) for r in cls.rows]
    assert sum(dim <= 1 for dim, _, _ in computed) == 8
    assert incidence_count_breaks(computed) == []
    printed = [(d, m, incidence) for d, m, _, incidence in AHLGREN_REFERENCE_TABLE]
    assert incidence_count_breaks(printed) == [(0, 9)]
    mended = [(d, m, (36, 48, *incidence[2:]) if (d, m) == (0, 9) else incidence) for d, m, incidence in printed]
    assert incidence_count_breaks(mended) == []
    # the pair count alone: one pair too few through a (1,4) line
    paired = [(d, m, (5, *incidence[1:]) if (d, m) == (1, 4) else incidence) for d, m, incidence in mended]
    assert incidence_count_breaks(paired) == [(1, 4)]


def test_triple_count_needs_every_top_flat_to_hold_two_hyperplanes():
    rows = [(2, 2, (0, 0)), (2, 3, (0, 0)), (0, 3, (3, 0))]
    with pytest.raises(ValueError, match="triples need not have rank 3"):
        incidence_count_breaks(rows)


def test_ahlgren_incidence_uniform(ahlgren, ahlgren_poset):
    cls = classify(ahlgren, ahlgren_poset)
    assert all(r.incidence_uniform for r in cls.rows)


def test_near_pencil_flags_against_definition(ahlgren_poset):
    # direct double-loop oracle over the definition
    for s in ahlgren_poset:
        expected = any(
            other.dim == s.dim + 1
            and other.mult == s.mult - 1
            and other.mask & s.mask == other.mask
            for other in ahlgren_poset
            if other is not s
        )
        assert s.near_pencil == expected


def test_pair_census_all_bundled():
    # every 2-subset of hyperplanes lands in exactly one codim-2 stratum
    for name in ("ahlgren", "octic", "sextic"):
        arr = load_bundled_arrangement(name)
        poset = intersection_poset(arr)
        codim2 = [s for s in poset if s.dim == arr.dim - 2]
        total = sum(s.mult * (s.mult - 1) // 2 for s in codim2)
        assert total == arr.size * (arr.size - 1) // 2


def test_closure_completeness(ahlgren, ahlgren_poset):
    # intersecting any stratum with any hyperplane yields a stratum or empty
    keys = {s.basis for s in ahlgren_poset}
    for s in ahlgren_poset[:60]:  # a sample is enough; full loop is O(452*12)
        for i, h in enumerate(ahlgren.hyperplanes):
            if i in s.hyperplanes:
                continue
            merged = primitive_rows(echelon(s.basis + (h.coeffs,)))
            assert len(merged) > ahlgren.dim or merged in keys


def test_ahlgren_schedule(ahlgren, ahlgren_poset):
    steps = resolution_schedule(ahlgren, ahlgren_poset)
    assert len(steps) == 66 + 18 + 18 + 3 + 4  # non-near-pencil types
    dims = [s.stratum.dim for s in steps]
    assert dims == sorted(dims)
    for step in steps:
        assert step.adds_exceptional == (step.stratum.mult % 2 == 1)
    # mult 9 adds the exceptional divisor, mult 8 does not
    zero_dim = [s for s in steps if s.stratum.dim == 0]
    assert {(s.stratum.mult, s.adds_exceptional) for s in zero_dim} == {(8, False), (9, True)}


def test_subset_mode_oracle_matches_closure(ahlgren, ahlgren_poset):
    assert fields(ahlgren_poset) == fields(subsets_poset(ahlgren))


def test_random_arrangements_closure_equals_subsets():
    # the engine against both old loops, in P^2..P^4 with up to 9 planes
    rng = random.Random(42)
    shapes = [(n, count) for n in (2, 3, 4) for count in range(2, 10)]
    for n, count in shapes + [rng.choice(shapes) for _ in range(12)]:
        arr = random_arrangement(rng, n, count)
        oracle = subsets_poset(arr)
        expected = fields(oracle)
        assert fields(intersection_poset(arr)) == expected
        assert type_rows(classify(arr, intersection_poset(arr))) == incidence_rows(oracle)
        if count <= 6:
            assert fields(closure_poset(arr)) == expected


def test_incidence_oracle_non_uniform_types():
    # P^3 and P^4 with coefficients in [-1, 1]: a few draws have a type whose
    # members disagree on their incidence vectors, reported with -1 sentinels
    rng = random.Random(3)
    non_uniform = 0
    for _ in range(80):
        arr = random_arrangement(rng, rng.choice((3, 4)), rng.randint(4, 8), bound=1)
        oracle = subsets_poset(arr)
        assert fields(intersection_poset(arr)) == fields(oracle)
        rows = incidence_rows(oracle)
        assert type_rows(classify(arr, intersection_poset(arr))) == rows
        non_uniform += sum(not uniform for *_, uniform in rows)
    assert non_uniform >= 1


def test_canonical_form_iff_same_flat():
    # one stratum per flat, and its basis spans exactly that flat's
    # defining space, so distinct strata never share a basis
    rng = random.Random(7)
    for _ in range(50):
        arr = random_arrangement(rng, rng.choice((2, 3, 4)), rng.randint(3, 9), bound=3)
        poset = intersection_poset(arr)
        assert len({s.basis for s in poset}) == len(poset)
        for s in poset:
            forms = [arr.hyperplanes[i].coeffs for i in s.hyperplanes]
            assert len(s.basis) == rank(s.basis) == rank(list(s.basis) + forms) == arr.dim - s.dim


@st.composite
def arrangements(draw, scaled=False):
    """2 to 8 distinct hyperplanes in P^2..P^4, coefficients in [-3, 3].

    About half the draws are not essential: every row r is replaced by
    (c.c) r - (r.c) c for one drawn point c, so all hyperplanes pass
    through c and their forms span a proper subspace.  With `scaled`,
    each row enters as `Hyperplane(k r)`, k in 1..3, built directly from
    a vector that need be neither primitive nor sign-normalized: the type
    normalizes it to its line's primitive vector with positive lead, so
    the engine needs no normalization of its own.
    """
    n = draw(st.integers(2, 4))
    row = st.lists(st.integers(-3, 3), min_size=n + 1, max_size=n + 1).filter(any)
    c = draw(st.one_of(st.none(), row))
    if c is not None:
        cc = sum(x * x for x in c)
        row = row.map(lambda r: [cc * x - sum(map(mul, r, c)) * y for x, y in zip(r, c)]).filter(any)
    rows = draw(st.lists(row, min_size=2, max_size=8, unique_by=lambda r: Hyperplane(tuple(r)).coeffs))
    if not scaled:
        return Arrangement.from_rows(n, rows)
    ks = draw(st.lists(st.integers(1, 3), min_size=len(rows), max_size=len(rows)))
    return Arrangement(n, tuple(Hyperplane(tuple(k * x for x in r)) for r, k in zip(rows, ks)))


@settings(max_examples=200, deadline=None)
@given(arrangements(scaled=True))
def test_canonical_basis_equals_fraction_echelon(arr):
    # the basis the engine keeps reduced rank by rank, against a Fraction
    # echelon form of every containing hyperplane's form
    for s in intersection_poset(arr):
        forms = [arr.hyperplanes[i].coeffs for i in s.hyperplanes]
        assert s.basis == primitive_rows(echelon(forms))


# ---------------------------------------------------------------------------
# good reduction


def test_ahlgren_good_reduction(ahlgren):
    rep = good_reduction_report(ahlgren)
    assert rep.all_unimodular
    assert rep.max_abs_minor == 1
    assert rep.exceptional_odd_primes == ()


def test_minor_two_is_not_odd_exceptional():
    # x + 2y alongside x and y: a 2x2 minor equals 2, but 2 is even
    arr = lines((1, 0, 0), (0, 1, 0), (1, 2, 0))
    rep = good_reduction_report(arr)
    assert not rep.all_unimodular
    assert rep.max_abs_minor == 2
    assert rep.exceptional_odd_primes == ()


def test_odd_exceptional_prime_detected():
    arr = lines((1, 0, 0), (0, 1, 0), (1, 3, 0))
    rep = good_reduction_report(arr)
    assert rep.exceptional_odd_primes == (3,)


@pytest.mark.parametrize("name", ["ahlgren", "octic", "sextic"])
def test_good_reduction_matches_bareiss_scan_bundled(name):
    arr = load_bundled_arrangement(name)
    assert good_reduction_report(arr) == good_reduction_scan(arr)


def drawn_arrangements():
    """40 arrangements in the shapes of the lattice benchmark, with
    coefficients up to 5 so that some minors have large odd prime factors."""
    rng = random.Random(2024)
    for _ in range(40):
        n = rng.choice((2, 3, 4))
        yield random_arrangement(rng, n, rng.randint(2, 9), bound=rng.choice((1, 2, 5)))


def test_good_reduction_matches_bareiss_scan_random():
    exceptional = set()
    for arr in drawn_arrangements():
        rep = good_reduction_report(arr)
        assert rep == good_reduction_scan(arr)
        exceptional.update(rep.exceptional_odd_primes)
    assert max(exceptional) > 100


def test_exceptional_primes_are_where_the_f_p_lattice_changes():
    # exactly those primes, not the odd divisors of every nonzero minor
    primes = {p for p in range(3, 201, 2) if is_prime(p)}
    for arr in drawn_arrangements():
        poset = intersection_poset(arr)
        changed = {p for p in primes if not poset_matches_mod_p(arr, p, poset).equal}
        assert set(good_reduction_report(arr).exceptional_odd_primes) & primes == changed


@pytest.mark.parametrize("p", [3, 5, 7])
def test_ahlgren_poset_stable_mod_p(ahlgren, ahlgren_poset, p):
    cmp = poset_matches_mod_p(ahlgren, p, ahlgren_poset)
    assert cmp.equal


def test_mod_p_detects_collapsing_hyperplanes():
    # x + 3y = x mod 3: the reduced arrangement degenerates
    arr = lines((1, 0, 0), (0, 1, 0), (1, 3, 0))
    cmp = poset_matches_mod_p(arr, 3, intersection_poset(arr))
    assert not cmp.equal


def test_mod_p_detects_changed_intersection():
    # over F_3 the lines x+y and x-2y coincide
    arr = lines((1, 1, 0), (1, -2, 0), (0, 0, 1))
    cmp = poset_matches_mod_p(arr, 3, intersection_poset(arr))
    assert not cmp.equal


def comparison(arr, p, modp_oracle=subsets_poset_mod_p) -> tuple[dict | None, bool]:
    """The F_p flats of a mod-p oracle as {index set: dim}, or None when
    two hyperplanes lie on one line mod p, and whether they equal the
    rational subset oracle's flats (never with None).

    The package enumerates no F_p flat, so only its answer is checked:
    `poset_matches_mod_p(...).equal` must be the oracles' answer.
    """
    modp = modp_oracle(arr, p)
    if len({echelon_mod([h.coeffs], p) for h in arr.hyperplanes}) < arr.size:
        modp = None
    equal = modp == {s.hyperplanes: s.dim for s in subsets_poset(arr)}
    assert poset_matches_mod_p(arr, p, intersection_poset(arr)).equal is equal
    return modp, equal


def test_mod_p_coincidence_compares_lines():
    # (2, -1, 0) = 2 * (1, 1, 0) mod 3: the same line, not the same residues
    arr = lines((1, 1, 0), (2, -1, 0), (0, 0, 1))
    assert subsets_poset_mod_p(arr, 3) == {}
    assert comparison(arr, 3) == (None, False)


def test_mod_p_coincidence_never_equal():
    # two points of P^1 meeting mod 3: both posets are empty, yet unequal
    arr = Arrangement.from_rows(1, [(1, 1), (1, -2)])
    assert intersection_poset(arr) == [] and subsets_poset_mod_p(arr, 3) == {}
    assert comparison(arr, 3) == (None, False)
    assert comparison(arr, 5) == ({}, True)


def test_mod_p_contract():
    # a Hyperplane divides out its content, so no row vanishes mod p
    assert Hyperplane((3, 3, 3)).coeffs == (1, 1, 1)
    arr = lines((1, 1, 0), (1, -2, 0), (0, 0, 1))
    for p in (2, 9):
        with pytest.raises(ValueError, match="odd prime"):
            poset_matches_mod_p(arr, p, intersection_poset(arr))
    assert subsets_poset_mod_p(arr, 3) == {}
    assert comparison(arr, 3) == (None, False)


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_poset_mod_p_matches_subset_oracle(p):
    # random draws with coefficients in [-p-1, p+1]: many reduce to a
    # different poset, a few to coinciding planes (None)
    rng = random.Random(1000 + p)
    changed = 0
    for _ in range(150):
        n = rng.choice((2, 3, 4))
        arr = random_arrangement(rng, n, rng.randint(3, 7), bound=p + 1)
        got = comparison(arr, p)
        modp = subsets_poset_mod_p(arr, p)
        rational = {s.hyperplanes: s.dim for s in intersection_poset(arr)}
        if modp and modp != rational:
            changed += 1
            assert got == comparison(arr, p, closure_poset_mod_p)
    assert changed >= 10


@settings(max_examples=150, deadline=None)
@given(arrangements(), st.sampled_from((3, 5, 7)))
def test_poset_mod_p_matches_oracles_on_drawn_arrangements(arr, p):
    # essential and non-essential arrangements, against both mod-p oracles
    assert comparison(arr, p) == comparison(arr, p, closure_poset_mod_p)


def test_triple_point_mod_3():
    # x = 0, y = 0 and x + y + 3z = 0: three double points over Q; mod 3
    # the three lines are concurrent and the whole set drops to rank 2
    arr = lines((1, 0, 0), (0, 1, 0), (1, 1, 3))
    for oracle in (subsets_poset_mod_p, closure_poset_mod_p):
        assert comparison(arr, 3, oracle) == ({(0, 1, 2): 0}, False)
        assert comparison(arr, 5, oracle) == ({(0, 1): 0, (0, 2): 0, (1, 2): 0}, True)


def test_triple_point_mod_a_large_prime():
    # x = 0, y = 0 and x + y + qz = 0 meet in three points over Q and in
    # one triple point mod q
    q = 2**31 - 1
    arr = lines((1, 0, 0), (0, 1, 0), (1, 1, q))
    assert subsets_poset_mod_p(arr, q) == {(0, 1, 2): 0}
    assert comparison(arr, q) == ({(0, 1, 2): 0}, False)


def test_mod_p_never_factors(monkeypatch):
    # a 2x2 minor 1000003 * 1000033, which trial division would take a
    # million steps to split: the mod-p answer reads only the minor scan
    def refuse(v):
        raise AssertionError(f"factored {v}")

    monkeypatch.setattr(arrangement, "_odd_prime_divisors", refuse)
    arr = lines((1, 0, 0), (0, 1, 0), (1, 1000003 * 1000033, 0))
    poset = intersection_poset(arr)
    assert poset_matches_mod_p(arr, 3, poset).equal
    assert not poset_matches_mod_p(arr, 1000003, poset).equal
    assert not poset_matches_mod_p(arr, 1000033, poset).equal
    with pytest.raises(AssertionError, match="factored"):
        good_reduction_report(arr)


ODD_PRIMES = [q for q in range(3, 1200) if is_prime(q)]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from([2, *ODD_PRIMES]), min_size=1, max_size=6))
def test_odd_prime_divisors_match_trial_division(primes):
    # products of primes on both sides of the trial-division bound 1000,
    # repeats included, so the rho step splits squares and products
    v = prod(primes)
    assert arrangement._odd_prime_divisors(v) == odd_prime_divisors_trial_division(v) == set(primes) - {2}


@pytest.mark.parametrize(
    "v, primes",
    [(998244353 * 1000000007, {998244353, 1000000007}), (1009**2 * 1013, {1009, 1013}), (2**5 * 3**4, {3})],
)
def test_odd_prime_divisors_exact(v, primes):
    assert arrangement._odd_prime_divisors(v) == primes


def test_odd_prime_divisors_refuse_an_undecidable_cofactor():
    # the cofactor after trial division is PRIMALITY_LIMIT itself, a strong
    # pseudoprime with no factor below 1000, where is_prime gives no proof:
    # an error, never a guess
    v = 3 * PRIMALITY_LIMIT
    with pytest.raises(ValueError, match="limit of the deterministic primality test"):
        arrangement._odd_prime_divisors(v)


LINE_PRIMES = (3, 5, 7, 11, 2**31 - 1)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.integers(-40, 40), min_size=2, max_size=6).filter(any),
    st.integers(-40, 40).filter(bool),
    st.sampled_from(LINE_PRIMES),
    st.data(),
)
def test_canonical_line_representatives(v, c, p, data):
    # over Q: one primitive vector with positive lead per line
    h = Hyperplane(tuple(v))
    assert Hyperplane(tuple(c * x for x in v)) == h
    assert gcd(*h.coeffs) == 1
    assert next(x for x in h.coeffs if x) > 0
    assert all(x * hy == y * hx for x, hx in zip(v, h.coeffs) for y, hy in zip(v, h.coeffs))
    # over F_p: v beside c v + e_i (mostly another line mod p) and beside
    # c v + p e_i (the same line mod p when p divides neither content, so
    # both posets are {})
    assume(c % p)
    i = data.draw(st.integers(0, len(v) - 1))
    for shift in (1, p):
        w = [c * x + shift * (j == i) for j, x in enumerate(v)]
        try:
            arr = Arrangement.from_rows(len(v) - 1, [v, w])
        except ValueError:  # w is v's line over Q: v is a multiple of e_i
            continue
        got = comparison(arr, p)
        if shift == p and gcd(*v) % p and gcd(*w) % p:
            # the same line mod p: no flat, and never equal
            assert got == (None, False)


# ---------------------------------------------------------------------------
# bundled arrangements


def test_sextic_structure():
    arr = load_bundled_arrangement("sextic")
    poset = intersection_poset(arr)
    assert {(s.dim, s.mult) for s in poset} == {(0, 2), (0, 3)}
    counts = {(0, 2): 0, (0, 3): 0}
    for s in poset:
        counts[s.dim, s.mult] += 1
    assert counts == {(0, 2): 3, (0, 3): 4}  # six lines with four triple points


def test_octic_resolvable():
    arr = load_bundled_arrangement("octic")
    cls = classify(arr, intersection_poset(arr))
    assert cls.resolvable
    assert sum(r.count for r in cls.rows if r.dim == 1) == 24
