import json
import random
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyarith.arith import echelon, primitive_rows, rank
from cyarith.arrangement import (
    Arrangement,
    Hyperplane,
    _canonical_basis,
    admissible,
    classify,
    crepant_resolvable,
    good_reduction_report,
    intersection_poset,
    parse_arrangement,
    poset_matches_mod_p,
    poset_mod_p,
    resolution_schedule,
)
from cyarith.registry import (
    AHLGREN_NEAR_PENCIL_TYPES,
    AHLGREN_REFERENCE_TABLE,
    load_bundled_arrangement,
)
from oracles import closure_poset, closure_poset_mod_p, subsets_poset, subsets_poset_mod_p

GOLDEN = Path(__file__).parent / "golden"


def lines(*rows):
    return Arrangement.from_rows(2, rows)


def random_arrangement(rng, n, count, bound=2):
    """`count` distinct hyperplanes in P^n, coefficients in [-bound, bound]."""
    seen = set()
    rows = []
    while len(rows) < count:
        row = tuple(rng.randint(-bound, bound) for _ in range(n + 1))
        if not any(row):
            continue
        h = Hyperplane.from_coeffs(row)
        if h.coeffs not in seen:
            seen.add(h.coeffs)
            rows.append(h.coeffs)
    return Arrangement.from_rows(n, rows)


def fields(poset):
    return [(s.basis, s.dim, s.hyperplanes, s.near_pencil) for s in poset]


# ---------------------------------------------------------------------------
# construction and parsing


def test_hyperplane_normalization():
    assert Hyperplane.from_coeffs((-2, 0, 2)).coeffs == (1, 0, -1)
    assert Hyperplane.from_coeffs((0, 3, -6)).coeffs == (0, 1, -2)
    with pytest.raises(ValueError):
        Hyperplane.from_coeffs((0, 0, 0))


def test_arrangement_rejects_duplicates():
    with pytest.raises(ValueError, match="distinct"):
        lines((1, 0, 0), (2, 0, 0))


def test_parse_errors():
    with pytest.raises(ValueError, match="header"):
        parse_arrangement("bogus\n1 0 0")
    with pytest.raises(ValueError, match="rows"):
        parse_arrangement("2 3\n1 0 0\n0 1 0")
    with pytest.raises(ValueError, match="entries"):
        parse_arrangement("2 1\n1 0")
    with pytest.raises(ValueError, match="empty"):
        parse_arrangement("  \n ")


# ---------------------------------------------------------------------------
# small hand-checkable posets


def test_three_generic_lines():
    arr = lines((1, 0, 0), (0, 1, 0), (1, 1, -1))
    poset = intersection_poset(arr)
    assert len(poset) == 3
    assert all(s.type_key == (0, 2) for s in poset)


def test_three_concurrent_lines():
    arr = lines((1, 0, 0), (0, 1, 0), (1, 1, 0))
    poset = intersection_poset(arr)
    assert len(poset) == 1
    assert poset[0].type_key == (0, 3)


def test_four_concurrent_lines_not_resolvable():
    arr = lines((1, 0, 0), (0, 1, 0), (1, 1, 0), (1, -1, 0))
    ok, violators = crepant_resolvable(arr)
    assert not ok
    assert [v.type_key for v in violators] == [(0, 4)]


def test_two_lines_resolvable():
    ok, violators = crepant_resolvable(lines((1, 0, 0), (0, 1, 0)))
    assert ok and not violators


def test_admissible_examples():
    assert admissible(0, 2, 2)
    assert admissible(3, 2, 5)
    assert admissible(0, 9, 5)
    assert not admissible(0, 4, 2)


def test_triangle_schedule():
    arr = lines((1, 0, 0), (0, 1, 0), (1, 1, -1))
    steps = resolution_schedule(arr)
    assert len(steps) == 3
    assert all(s.stratum.mult == 2 and not s.adds_exceptional for s in steps)


def test_pencil_schedule_adds_exceptional():
    arr = lines((1, 0, 0), (0, 1, 0), (1, 1, 0))
    steps = resolution_schedule(arr)
    assert len(steps) == 1
    assert steps[0].adds_exceptional  # mult 3 is odd
    assert steps[0].half_mult == 1


def test_schedule_refuses_unresolvable():
    arr = lines((1, 0, 0), (0, 1, 0), (1, 1, 0), (1, -1, 0))
    with pytest.raises(ValueError, match="not crepant-resolvable"):
        resolution_schedule(arr)


def test_near_pencil_example():
    # three concurrent lines plus one generic: the triple point is contained
    # in no suitable parent, but a (0,3) subset of a (1,2)... build in P^3:
    # planes x, y, z cut the line {x=y=0} etc; add x+y to make {x=y=0} mult 3
    arr = Arrangement.from_rows(3, [(1, 0, 0, 0), (0, 1, 0, 0), (1, 1, 0, 0), (0, 0, 1, 0)])
    poset = intersection_poset(arr)
    by_key = {}
    for s in poset:
        by_key.setdefault(s.type_key, []).append(s)
    # the point {x=y=z=0} has mult 4 and sits on the mult-3 line {x=y=0}
    point = by_key[(0, 4)][0]
    assert point.near_pencil
    line3 = by_key[(1, 3)][0]
    assert not line3.near_pencil


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
            merged = _canonical_basis(s.basis + (h.coeffs,))
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
        expected = fields(subsets_poset(arr))
        assert fields(intersection_poset(arr)) == expected
        if count <= 6:
            assert fields(closure_poset(arr)) == expected


def test_canonical_form_iff_same_flat():
    rng = random.Random(7)
    for _ in range(50):
        rows_a = [[rng.randint(-3, 3) for _ in range(4)] for _ in range(rng.randint(1, 3))]
        rows_b = [[rng.randint(-3, 3) for _ in range(4)] for _ in range(rng.randint(1, 3))]
        if not any(any(r) for r in rows_a) or not any(any(r) for r in rows_b):
            continue
        same_space = rank(rows_a) == rank(rows_b) == rank(rows_a + rows_b)
        assert (_canonical_basis(rows_a) == _canonical_basis(rows_b)) == same_space


matrix_strategy = st.integers(1, 6).flatmap(
    lambda ncols: st.lists(
        st.lists(st.integers(-6, 6), min_size=ncols, max_size=ncols), max_size=6
    )
)


@settings(max_examples=300, deadline=None)
@given(matrix_strategy)
def test_canonical_basis_equals_fraction_echelon(rows):
    assert _canonical_basis(rows) == primitive_rows(echelon(rows))


# ---------------------------------------------------------------------------
# good reduction


def test_ahlgren_good_reduction(ahlgren):
    rep = good_reduction_report(ahlgren)
    assert rep.all_unimodular
    assert rep.max_abs_minor == 1
    assert rep.exceptional_odd_primes == ()
    assert rep.verdict == "all odd primes good"


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


@pytest.mark.parametrize("p", [3, 5, 7])
def test_ahlgren_poset_stable_mod_p(ahlgren, ahlgren_poset, p):
    cmp = poset_matches_mod_p(ahlgren, p, ahlgren_poset)
    assert cmp.equal


def test_mod_p_detects_collapsing_hyperplanes():
    # x + 3y = x mod 3: the reduced arrangement degenerates
    arr = lines((1, 0, 0), (0, 1, 0), (1, 3, 0))
    cmp = poset_matches_mod_p(arr, 3)
    assert not cmp.equal


def test_mod_p_detects_changed_intersection():
    # over F_3 the lines x+y and x-2y coincide
    arr = lines((1, 1, 0), (1, -2, 0), (0, 0, 1))
    cmp = poset_matches_mod_p(arr, 3)
    assert not cmp.equal


def test_mod_p_contract():
    with pytest.raises(ValueError, match="degenerates"):
        # Hyperplane.from_coeffs would divide out the content 3
        poset_mod_p(Arrangement(2, (Hyperplane((1, 0, 0)), Hyperplane((3, 3, 3)))), 3)
    assert poset_mod_p(lines((1, 1, 0), (1, -2, 0), (0, 0, 1)), 3) == {}


@pytest.mark.parametrize("p", [3, 5, 7])
def test_poset_mod_p_matches_subset_oracle(p):
    # random draws with coefficients in [-p-1, p+1]: about half reduce to a
    # different poset, a few to coinciding planes ({} on both sides)
    rng = random.Random(1000 + p)
    changed = 0
    for _ in range(150):
        n = rng.choice((2, 3, 4))
        arr = random_arrangement(rng, n, rng.randint(3, 7), bound=p + 1)
        got = poset_mod_p(arr, p)
        assert got == subsets_poset_mod_p(arr, p)
        rational = {s.hyperplanes: s.dim for s in intersection_poset(arr)}
        if got and got != rational:
            changed += 1
            assert got == closure_poset_mod_p(arr, p)
    assert changed >= 10


# ---------------------------------------------------------------------------
# bundled arrangements: golden classifications


@pytest.mark.parametrize("name", ["octic", "sextic"])
def test_golden_classification(name):
    arr = load_bundled_arrangement(name)
    payload = classify(arr).to_jsonable()
    golden = json.loads((GOLDEN / f"{name}_classification.json").read_text())
    assert payload == golden


def test_sextic_structure():
    arr = load_bundled_arrangement("sextic")
    poset = intersection_poset(arr)
    assert {s.type_key for s in poset} == {(0, 2), (0, 3)}
    counts = {(0, 2): 0, (0, 3): 0}
    for s in poset:
        counts[s.type_key] += 1
    assert counts == {(0, 2): 3, (0, 3): 4}  # six lines with four triple points


def test_octic_resolvable():
    arr = load_bundled_arrangement("octic")
    cls = classify(arr)
    assert cls.resolvable
    assert sum(r.count for r in cls.rows if r.dim == 1) == 24
