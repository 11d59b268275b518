"""Every row of `cyarith suite all` can fail: the guard does for suite rows
what `test_every_public_name_is_read` does for names.

`MUTANTS` is one registry of wrong outputs.  Each entry names a
sub-suite, the names it replaces where the suite run looks them up, and
the (claim, input pattern) of each row it must break.  A mutant changes
what one function returns on the computed side (an off-by-one, a flipped
sign, a dropped element) and stays inside every bound check, so the
sub-suite still reports its rows.  The guard fails on a row of
`run_suite("all")`, discrepancy rows included, that no mutant selects,
and on a selected row that is missing, or not broken, under its mutant.
A row that was ok is broken when it is no longer ok; the discrepancy row
is broken when its computed value moves.  A row whose expected value is
its computed value cannot be broken, and so cannot stay in the suite."""

import time
from dataclasses import dataclass, replace
from fnmatch import fnmatchcase
from types import SimpleNamespace

import pytest

from conftest import CACHES
from cyarith import arrangement, cmforms, euler, pointcount, qseries, suites, tensor
from cyarith.arith import IntPoly
from cyarith.report import DERIVED, VerificationReport
from cyarith.suites import run_suite


@dataclass(frozen=True)
class Mutant:
    """Under `patches`, each (owner, name, wrap) setting owner.name to
    wrap(the real owner.name), `run_suite(suite)` breaks every row that
    matches a (claim, input pattern) of `rows` (`fnmatch` patterns)."""

    suite: str
    what: str
    patches: tuple
    rows: tuple


def _offset(k):
    """The value of a count or trace off by k."""
    return lambda real: lambda *args, **kwargs: real(*args, **kwargs) + k


def _drop_last(real):
    return lambda *args: real(*args)[:-1]


def _shifted_expand(real):
    # the q-shift off by one: every coefficient one place up
    return lambda self, precision: qseries.QSeries((0,) + real(self, precision).values[:-1])


def _opposite_normalization(real):
    # alpha = -1 in place of alpha = 1 modulo (2 + 2i), resp. 3
    return lambda e: real(cmforms.QuadOrderElem(e.field, -e.x, -e.y))


def _negated_high_power_traces(real):
    return lambda a, p, m: -real(a, p, m) if m >= 2 else real(a, p, m)


def _negated_linear_term(real):
    def factor(factors):
        coeffs = list(real(factors).coeffs)
        coeffs[1] = -coeffs[1]
        return IntPoly(coeffs)

    return factor


def _reversed_types(real):
    def classify(arr, poset):
        cls = real(arr, poset)
        return replace(cls, rows=cls.rows[::-1])

    return classify


def _incidence_one_high(real):
    def classify(arr, poset):
        cls = real(arr, poset)
        return replace(cls, rows=tuple(replace(r, incidence=tuple(x + 1 for x in r.incidence)) for r in cls.rows))

    return classify


def _cover_euler_one_high(real):
    def double_cover_euler(a, b):
        data = real(a, b)
        return replace(data, e_cover=data.e_cover + 1)

    return double_cover_euler


TABLE = "twelve-plane-singularity-table"
G4G3 = "tensor-w4xw3-factorization"
BINOMIAL = "tensor-power-binomial-factorization"
AHLGREN = "ahlgren-fivefold-count-identity"

MUTANTS = (
    Mutant("eta", "eta expansion one place up", ((qseries.EtaProduct, "expand", _shifted_expand),),
           (("eta-expansions", "*"),)),
    Mutant("cm", "nebentypus of the other weight parity",
           ((cmforms, "nebentypus", lambda real: lambda weight, field, n: real(weight + 1, field, n)),),
           (("grossencharakter-power-coefficients", "*"),)),
    Mutant("cm", "power traces s_m negated for m >= 2", ((cmforms, "power_trace", _negated_high_power_traces),),
           (("quotient-frobenius-traces", "*"), ("grossencharakter-power-coefficients", "* weight [46]"),
            ("grossencharakter-power-coefficients", "eisenstein weight 3"))),
    Mutant("cm", "opposite normalization", ((cmforms, "is_normalized", _opposite_normalization),),
           (("normalized-prime-elements", "*"),)),
    Mutant("cm", "last tensor sector dropped", ((tensor, "tensor_sectors", _drop_last),),
           (("invariant-tensor-dimensions", "*"),)),
    Mutant("cm", "one point more on every curve", ((suites, "elliptic_ap", _offset(-1)),),
           (("gaussian-model-audit", "*"), ("eisenstein-model-audit", "*"))),
    Mutant("tensor", "T coefficient of the tensor factor negated",
           ((tensor, "tensor_euler_factor", _negated_linear_term),),
           ((G4G3, "degree-4 Euler-factor equality, *"), (BINOMIAL, "*"))),
    Mutant("tensor", "last sector factor dropped", ((tensor, "sector_factors", _drop_last),),
           ((G4G3, "*"), (BINOMIAL, "*"))),
    Mutant("ahlgren", "fast count one high", ((pointcount, "ahlgren_count_fast", _offset(1)),),
           ((AHLGREN, "*"),)),
    Mutant("ahlgren", "exact count one high", ((pointcount, "ahlgren_count_bruteforce", _offset(1)),),
           ((AHLGREN, "fast count == brute-force count *"),)),
    Mutant("arrangement", "last stratum dropped", ((suites, "intersection_poset", _drop_last),),
           ((TABLE, "(dim, mult) -> count census"),)),
    Mutant("arrangement", "types in reverse order",
           ((suites, "classify", _reversed_types),),
           ((TABLE, "types in the printed order"),)),
    Mutant("arrangement", "near-pencil flags negated",
           ((suites, "intersection_poset",
             lambda real: lambda arr: [replace(s, near_pencil=not s.near_pencil) for s in real(arr)]),),
           ((TABLE, "near-pencil types"),)),
    Mutant("arrangement", "crepancy condition one dimension off",
           ((arrangement, "admissible", lambda real: lambda dim, mult, ambient: real(dim, mult, ambient + 1)),),
           ((TABLE, "admissible types"), (TABLE, "crepant resolvable"))),
    Mutant("arrangement", "incidence counts one high", ((suites, "classify", _incidence_one_high),),
           ((TABLE, "type (*) N*"), (TABLE, "pairs C(m,2) = N1 *"))),
    Mutant("arrangement", "largest minor one high",
           ((arrangement, "_minor_scan", lambda real: lambda arr: (real(arr)[0] + 1, *real(arr)[1:])),),
           (("good-reduction", "all coefficient-matrix minors *"),)),
    Mutant("arrangement", "F_p comparison negated",
           ((suites, "poset_matches_mod_p",
             lambda real: lambda *args: arrangement.ModPComparison(not real(*args).equal)),),
           (("good-reduction", "F_* poset == rational poset"),)),
    # fold_elliptic reads it from euler, the Borcea-Voisin row from suites
    Mutant("euler", "cover Euler number one high",
           ((euler, "double_cover_euler", _cover_euler_one_high), (suites, "double_cover_euler", _cover_euler_one_high)),
           (("double-cover-euler-calculus", "*"),)),
)


def row_states(reports) -> dict:
    """(claim, input) -> (ok, computed) for every row, discrepancy rows included."""
    return {(r.claim, row.input): (row.ok, row.computed) for r in reports for row in r.rows + r.discrepancy_rows}


def guard(run, mutants) -> list[str]:
    """One line per row of run("all") that no mutant selects, per row a
    mutant leaves missing or unbroken under run(mutant.suite), and per
    pattern that selects nothing."""
    baseline = row_states(run("all"))
    problems, selected = [], set()
    for mutant in mutants:
        # a mutant under a cache (is_normalized under normalize_prime_element)
        # must neither read values cached before it nor leave its own behind
        for cache in CACHES:
            cache.cache_clear()
        with pytest.MonkeyPatch.context() as m:
            for owner, name, wrap in mutant.patches:
                m.setattr(owner, name, wrap(getattr(owner, name)))
            mutated = row_states(run(mutant.suite))
        for claim, pattern in mutant.rows:
            keys = sorted(key for key in baseline if key[0] == claim and fnmatchcase(key[1], pattern))
            if not keys:
                problems.append(f"{mutant.what}: ({claim!r}, {pattern!r}) selects no row")
            selected.update(keys)
            for key in keys:
                if key not in mutated:
                    problems.append(f"{mutant.what}: {key} is missing")
                    continue
                ok, computed = baseline[key]
                broken = not mutated[key][0] if ok else mutated[key][1] != computed
                if not broken:
                    problems.append(f"{mutant.what}: {key} is not broken")
    for cache in CACHES:
        cache.cache_clear()
    problems += [f"no mutant selects {key}" for key in baseline if key not in selected]
    return problems


def test_every_row_of_suite_all_can_fail():
    start = time.perf_counter()
    problems = guard(run_suite, MUTANTS)
    assert not problems, "\n".join(problems)
    assert time.perf_counter() - start < 2.0


def test_a_row_without_a_mutant_is_named():
    kept = tuple(m for m in MUTANTS if m.what != "power traces s_m negated for m >= 2")
    problems = guard(run_suite, kept)
    quotient = [f"d={d}, n={n}, p<=100" for d in (4, 3) for n in range(2, 7)]
    assert problems == [f"no mutant selects {('quotient-frobenius-traces', i)}" for i in quotient]


def test_the_guard_flags_a_row_that_restates_its_code():
    # "restated" compares the computed value with itself, so no mutant of
    # it breaks that row; "oracle" has a value of its own to compare with
    source = SimpleNamespace(value=lambda: 6)

    def run(name):
        report = VerificationReport("toy")
        report.check("restated", source.value(), source.value(), DERIVED)
        report.check("oracle", source.value(), 2 * 3, DERIVED)
        return [report]

    mutant = Mutant("toy", "value one high", ((source, "value", _offset(1)),), (("toy", "*"),))
    assert guard(run, [mutant]) == ["value one high: ('toy', 'restated') is not broken"]
    assert guard(run, [replace(mutant, rows=(("toy", "oracle"),))]) == [
        "no mutant selects ('toy', 'restated')"
    ]
