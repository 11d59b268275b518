"""Verification suites tying each headline identity to one runnable check.

Every suite recomputes its claims from scratch and returns deterministic
VerificationReport objects; reports are byte-identical across runs
(work is done and reduced in a fixed order).
"""

from __future__ import annotations

from . import registry
from .arith import IdentityViolation, odd_primes_up_to
from .arrangement import (
    classify,
    good_reduction_report,
    incidence_count_breaks,
    intersection_poset,
    poset_matches_mod_p,
    resolution_schedule,
)
from .cmforms import normalize_prime_element
from .euler import (
    ELLIPTIC_BLOCK,
    KummerData,
    double_cover_euler,
    fold_elliptic,
    iterated_elliptic_euler,
)
from .pointcount import BRUTE_FORCE_LIMIT, ahlgren_count_bruteforce, ahlgren_predicted, elliptic_ap, verify_ahlgren
from .qseries import hecke_expand
from .report import DERIVED, PUBLISHED, VerificationReport
from .tensor import invariant_tensor_dimension, verify_g4xg3, verify_power_factorization


def suite_eta() -> list[VerificationReport]:
    """The five bundled eta products: four against the printed coefficients,
    the weight-6 level-4 power against the point-count oracle."""
    report = VerificationReport("eta-expansions")
    for eta, printed in registry.PRINTED_ETA_COEFFS.items():
        top = max(printed)
        series = eta.expand(top)
        computed = {n: series.coeff(n) for n in sorted(printed)}
        report.check(str(eta), computed, dict(sorted(printed.items())), PUBLISHED)
        # the printed expansion lists every nonzero coefficient up to its top index
        unprinted = [n for n in range(1, top + 1) if n not in printed and series.coeff(n)]
        report.check(f"{eta}: c_n = 0 at unprinted n <= {top}", unprinted, [], PUBLISHED)
    # eta(q^2)^12 has no printed coefficients; its oracle is the exact
    # fivefold count through p = 13 (solved for a_p)
    series = registry.ETA_WEIGHT6_LEVEL4.expand(BRUTE_FORCE_LIMIT)
    primes = odd_primes_up_to(BRUTE_FORCE_LIMIT)
    computed = {p: series.coeff(p) for p in primes}
    expected = {p: ahlgren_predicted(p, 0) - ahlgren_count_bruteforce(p) for p in primes}
    report.check(str(registry.ETA_WEIGHT6_LEVEL4), computed, expected, DERIVED)
    return [report]


def suite_cm(pmax: int) -> list[VerificationReport]:
    reports = []

    printed = VerificationReport("grossencharakter-power-coefficients")
    for family in registry.FAMILIES.values():
        for (family_name, weight), coeffs in registry.PRINTED_CM_COEFFS.items():
            if family_name != family.name:
                continue
            series = hecke_expand(family.form(weight).hecke_spec(), max(coeffs))
            computed = {n: series.coeff(n) for n in sorted(coeffs)}
            printed.check(f"{family_name} weight {weight}", computed, dict(sorted(coeffs.items())), PUBLISHED)
    reports.append(printed)

    norm = VerificationReport("normalized-prime-elements")
    quot = VerificationReport("quotient-frobenius-traces")
    for family in registry.FAMILIES.values():
        field = family.field
        good = family.good_primes(pmax)
        alphas = {p: normalize_prime_element(p, field) for p in good if field.is_split(p)}
        computed = {p: alpha.trace for p, alpha in alphas.items()}
        # oracle: the curve's own point count, which shares no step with
        # Cornacchia; this row is the independent check of alpha
        expected = {p: elliptic_ap(family.curve, p) for p in alphas}
        norm.check(f"trace of normalized element, d={field.d}, p<={pmax}", computed, expected, DERIVED)
        # tr Frob_p on the 2-dimensional invariant piece of the n-fold
        # quotient.  Split p: the invariant subspace is spanned by the two
        # pure tensors, on which Frobenius acts by alpha^n and conj(alpha)^n.
        # Inert p: the matrix is antidiagonal, trace 0 for both parities.
        # This is the prime coefficient of the weight-(n+1) form of the
        # family.  Oracle: the trace of alpha^n, powered by exact
        # multiplication in the order.  At n = 1 the coefficient and alpha
        # come from the same Cornacchia, so that row compares it with
        # itself; n >= 2 checks the Lucas power traces.
        powers = dict(alphas)
        for n in range(1, 7):
            computed = {p: family.ap(n + 1, p) for p in good}
            expected = {p: powers[p].trace if p in powers else 0 for p in good}
            quot.check(f"d={field.d}, n={n}, p<={pmax}", computed, expected, DERIVED)
            powers = {p: power * alphas[p] for p, power in powers.items()}
    reports += [norm, quot]

    dims = VerificationReport("invariant-tensor-dimensions")
    for n in range(1, 11):
        dims.check(f"Z3, n={n}", invariant_tensor_dimension("Z3", n), 2, PUBLISHED)
        dims.check(f"Z4, n={n}", invariant_tensor_dimension("Z4", n), 2, PUBLISHED)
        dims.check(f"Z2diag, n={n}", invariant_tensor_dimension("Z2diag", n), 2**n, DERIVED)
    reports.append(dims)

    gauss = VerificationReport("gaussian-model-audit")
    series = registry.ETA_WEIGHT2_GAUSSIAN.expand(pmax)
    mism = model_mismatch_primes(registry.CURVE_GAUSSIAN, series, pmax)
    gauss.check(f"y^2 = x^3 - x vs eta(q^8)^2 eta(q^4)^2, odd good p <= {pmax}", mism, [], DERIVED)
    reports.append(gauss)

    # model audit: the level-27 eta product matches y^2 = x^3 + 16 on the
    # nose, while the twist y^2 = x^3 - 16 flips sign at split p = 3 mod 4
    audit = VerificationReport("eisenstein-model-audit")
    series = registry.ETA_WEIGHT2_EISENSTEIN.expand(pmax)
    mism = model_mismatch_primes(registry.CURVE_EISENSTEIN, series, pmax)
    audit.check(f"y^2 = x^3 + 16 vs eta(q^9)^2 eta(q^3)^2, odd good p <= {pmax}", mism, [], DERIVED)
    twist_mism = model_mismatch_primes(registry.CURVE_EISENSTEIN_TWIST, series, pmax)
    field = registry.EISENSTEIN_FAMILY.field
    twist_expected = [p for p in odd_primes_up_to(pmax) if p % 4 == 3 and field.is_split(p)]
    audit.check(
        f"y^2 = x^3 - 16 mismatch set == split primes = 3 mod 4, p <= {pmax}",
        twist_mism,
        twist_expected,
        DERIVED,
    )
    audit.notes.append(
        "the twist mismatch is reported, not suppressed: only x^3 + 16 is a valid "
        "integral model for the level-27 family"
    )
    reports.append(audit)
    return reports


def model_mismatch_primes(curve, eta_series, pmax: int) -> list[int]:
    """Odd good primes where the curve trace differs from the eta coefficient."""
    out = []
    for p in odd_primes_up_to(min(pmax, eta_series.precision)):
        if not curve.is_good(p):
            continue
        if elliptic_ap(curve, p) != eta_series.coeff(p):
            out.append(p)
    return out


def suite_tensor(pmax: int) -> list[VerificationReport]:
    reports = []
    g4g3 = VerificationReport("tensor-w4xw3-factorization")
    rows = verify_g4xg3(pmax)
    g4g3.check(
        f"trace identity a_p(w4) a_p(w3) = a_p(w6) + p^2 a_p(w2), odd p <= {pmax}",
        [r.p for r in rows if not r.trace_identity],
        [],
        DERIVED,
    )
    g4g3.check(
        f"degree-4 Euler-factor equality, odd p <= {pmax}",
        [r.p for r in rows if not r.poly_equal],
        [],
        DERIVED,
    )
    reports.append(g4g3)

    binom = VerificationReport("tensor-power-binomial-factorization")
    cap = min(pmax, 50)
    for family in registry.FAMILIES.values():
        field = family.field
        bad = []
        aps = {p: family.curve_ap(p) for p in family.good_primes(cap)}
        for n in range(2, 7):
            for p, ap in aps.items():
                check = verify_power_factorization(ap, p, field, n)
                if not check.equal:
                    bad.append((p, n))
        binom.check(f"d={field.d}, n=2..6, good odd p <= {cap}", bad, [], DERIVED)
    reports.append(binom)
    return reports


def suite_ahlgren(pmax: int) -> list[VerificationReport]:
    report = VerificationReport("ahlgren-fivefold-count-identity")
    rows = verify_ahlgren(pmax, brute_max=BRUTE_FORCE_LIMIT)
    report.check(
        f"N(p) = p^5 + 2p^3 - 4p^2 - 9p - 1 - a_p for odd p <= {pmax}",
        [r.p for r in rows if not r.match],
        [],
        DERIVED,
    )
    report.check(
        f"fast count == brute-force count for p <= {min(pmax, BRUTE_FORCE_LIMIT)}",
        [r.p for r in rows if r.brute is not None and r.brute != r.count],
        [],
        DERIVED,
    )
    report.notes.append(f"{len(rows)} primes checked")
    return [report]


def suite_arrangement() -> list[VerificationReport]:
    reports = []
    arr = registry.load_bundled_arrangement("ahlgren")
    poset = intersection_poset(arr)
    cls = classify(arr, poset)

    table = VerificationReport("twelve-plane-singularity-table")
    census = {(r.dim, r.mult): r.count for r in cls.rows}
    expected_census = {(d, m): c for d, m, c, _ in registry.AHLGREN_REFERENCE_TABLE}
    table.check("(dim, mult) -> count census", census, expected_census, PUBLISHED)
    order = [(d, m) for d, m, _, _ in registry.AHLGREN_REFERENCE_TABLE]
    table.check("types in the printed order", [(r.dim, r.mult) for r in cls.rows], order, PUBLISHED)
    near = {(r.dim, r.mult) for r in cls.rows if r.near_pencil}
    table.check("near-pencil types", sorted(near), sorted(registry.AHLGREN_NEAR_PENCIL_TYPES), PUBLISHED)
    adm = {(r.dim, r.mult) for r in cls.rows if r.admissible}
    table.check("admissible types", sorted(adm), sorted(registry.AHLGREN_ADMISSIBLE_TYPES), PUBLISHED)
    table.check("crepant resolvable", cls.resolvable, True, PUBLISHED)
    # incidence block: cell-by-cell against the transcription; disagreement
    # with the published table is a discrepancy, not a failure
    computed_rows = {(r.dim, r.mult): r.incidence for r in cls.rows}
    for dim, mult, _, printed in registry.AHLGREN_REFERENCE_TABLE:
        got = computed_rows.get((dim, mult))
        for k, cell in enumerate(printed, start=1):
            table.compare_published(f"type ({dim},{mult}) N{k}", got[k - 1] if got else None, cell)
    table.check(
        "pairs C(m,2) = N1 and triples C(m,3) = N2 + 4*N3 through every type of dim <= 1",
        incidence_count_breaks((r.dim, r.mult, r.incidence) for r in cls.rows),
        [],
        DERIVED,
    )
    table.notes.append(
        "the printed (0,9) row breaks the triple count: C(9,3) = 84 != 21 + 4*9 = 57, "
        "so its own N3 = 9 forces N2 = 48"
    )
    reports.append(table)

    sched = VerificationReport("resolution-schedule")
    steps = resolution_schedule(arr, poset)
    sched.check(
        "centers ordered by ascending dimension",
        [s.stratum.dim for s in steps] == sorted(s.stratum.dim for s in steps),
        True,
        DERIVED,
    )
    sched.check(
        "exceptional divisor joins branch locus exactly at odd multiplicity",
        all(step.adds_exceptional == (step.stratum.mult % 2 == 1) for step in steps),
        True,
        DERIVED,
    )
    sched.notes.append(f"{len(steps)} blow-up centers")
    reports.append(sched)

    red = VerificationReport("good-reduction")
    rep = good_reduction_report(arr)
    red.check("all coefficient-matrix minors in {0, +-1}", rep.all_unimodular, True, PUBLISHED)
    for p in (3, 5, 7):
        cmp = poset_matches_mod_p(arr, p, poset)
        red.check(f"F_{p} poset == rational poset", cmp.equal, True, DERIVED)
    reports.append(red)
    return reports


def suite_euler() -> list[VerificationReport]:
    report = VerificationReport("double-cover-euler-calculus")
    fold = {n: fold_elliptic(n).e_cover for n in range(1, 11)}
    closed = {n: iterated_elliptic_euler(n) for n in range(1, 11)}
    report.check("fold over n elliptic blocks == (6^n + 3(-2)^n)/2, n <= 10", fold, closed, DERIVED)
    # K3 (e = 24) branched in D with e(D) = -18 (smooth plane sextic), ...,
    # 20 (ten lines) times an elliptic block: the calculus against the list
    report.check(
        "borcea-voisin euler numbers",
        [double_cover_euler(KummerData(24, e), ELLIPTIC_BLOCK).e_cover for e in range(-18, 21, 2)],
        [-108, -96, -84, -72, -60, -48, -36, -24, -12, 0, 12, 24, 36, 48, 60, 72, 84, 96, 108, 120],
        PUBLISHED,
    )
    report.check(
        "K3 with sextic branch x elliptic block",
        double_cover_euler(KummerData(24, -18), ELLIPTIC_BLOCK).e_cover,
        -108,
        PUBLISHED,
    )
    return [report]


#: suite name -> runner(pmax); `all` runs them in this order
_RUNNERS = {
    "eta": lambda pmax: suite_eta(),
    "cm": suite_cm,
    "tensor": suite_tensor,
    "ahlgren": suite_ahlgren,
    "arrangement": lambda pmax: suite_arrangement(),
    "euler": lambda pmax: suite_euler(),
}
SUITES = (*_RUNNERS, "all")


def run_suite(name: str, pmax: int = 100) -> list[VerificationReport]:
    """Reports of suite `name` (every sub-suite for `all`).  pmax < 3 is
    rejected for every name: no sub-suite has an odd prime below 3.  The
    eta and ahlgren suites both count the fivefold exactly at the odd
    p <= BRUTE_FORCE_LIMIT (13); pmax does not change the eta suite, and
    the ahlgren suite stops at pmax."""
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {SUITES}")
    if pmax < 3:
        raise ValueError("pmax must be at least 3")
    reports = []
    for sub in _RUNNERS if name == "all" else (name,):
        try:
            reports += _RUNNERS[sub](pmax)
        except IdentityViolation as exc:
            # one FAIL report for the broken sub-suite; the others still run
            failed = VerificationReport(f"suite {sub}")
            failed.check(f"identity violated: {exc}", False, True, DERIVED)
            reports.append(failed)
    return reports
