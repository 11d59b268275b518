"""Acceptance criteria, one test and one PASS/FAIL line per criterion (run
with `pytest tests/test_acceptance.py -v -s`).  Each claim is defined once,
in `cyarith.suites`: these tests compute nothing and assert on `run_suite`
reports, timing each runtime budget on the `run_suite` call that carries it."""

import time
from functools import cache

from cyarith.registry import AHLGREN_REFERENCE_TABLE, FAMILIES, PRINTED_CM_COEFFS, PRINTED_ETA_COEFFS
from cyarith.report import suite_exit_code
from cyarith.suites import run_suite

#: criterion 2: (family, weight) -> indices of the printed coefficients
CRITERION_2 = {("gaussian", 3): {9}, ("gaussian", 4): {5, 13, 17}, ("gaussian", 6): {5, 9, 13, 17},
               ("eisenstein", 3): {4, 7, 13}, ("eisenstein", 4): {4, 7, 13}}
#: the one computed incidence that differs from the transcribed table
DISCREPANCIES = {"arrangement": [("type (0,9) N2", 48, 21)]}


@cache
def _suite(name: str, pmax: int):
    start = time.perf_counter()
    reports = run_suite(name, pmax=pmax)
    return reports, time.perf_counter() - start


def _accept(label, name, rows, pmax=100, budget=None, extra=True):
    """Rows named in `rows` (claim -> inputs) ok, known discrepancies only, budget kept."""
    reports, elapsed = _suite(name, pmax)
    ok_rows = {(r.claim, row.input) for r in reports for row in r.rows if row.ok}
    missing = [(claim, i) for claim, inputs in rows.items() for i in inputs if (claim, i) not in ok_rows]
    found = [(row.input, row.computed, row.expected) for r in reports for row in r.discrepancy_rows]
    for cell, computed, printed in found:
        print(f"DISCREPANCY {cell}: computed {computed}, table prints {printed}")
    known = DISCREPANCIES.get(name, [])
    ok = not missing and found == known and suite_exit_code(reports) == (2 if known else 0) and extra
    if budget is not None:
        ok = ok and elapsed < budget
        label += f" [{elapsed:.2f}s, budget {budget}s]"
    print(f"{'PASS' if ok else 'FAIL'} {label}")
    assert ok, (label, missing, found)


def test_criterion_1_eta_expansions():
    inputs = [str(eta) for eta in PRINTED_ETA_COEFFS]
    inputs += [f"{eta}: c_n = 0 at unprinted n <= {max(c)}" for eta, c in PRINTED_ETA_COEFFS.items()]
    _accept("criterion 1: four printed eta expansions, exact", "eta", {"eta-expansions": inputs}, budget=1.0)


def test_criterion_2_cm_trace_formulas():
    rows = {"grossencharakter-power-coefficients": [f"{family} weight {k}" for family, k in CRITERION_2]}
    printed = all(CRITERION_2[key] <= PRINTED_CM_COEFFS[key].keys() for key in CRITERION_2)
    _accept("criterion 2: printed Grossencharakter-power coefficients", "cm", rows, 197, extra=printed)


def test_criterion_3_curve_form_consistency():
    gauss = "y^2 = x^3 - x vs eta(q^8)^2 eta(q^4)^2, odd good p <= 197"
    eisenstein = "y^2 = x^3 + 16 vs eta(q^9)^2 eta(q^3)^2, odd good p <= 197"
    twist = "y^2 = x^3 - 16 mismatch set == split primes = 3 mod 4, p <= 197"
    rows = {"gaussian-model-audit": [gauss], "eisenstein-model-audit": [eisenstein, twist]}
    _accept("criterion 3: curve traces equal eta coefficients, p <= 197", "cm", rows, 197, budget=5.0)


def test_criterion_4_ahlgren_identity():
    identity = "N(p) = p^5 + 2p^3 - 4p^2 - 9p - 1 - a_p for odd p <= 100"
    rows = {"ahlgren-fivefold-count-identity": [identity, "fast count == brute-force count for p <= 13"]}
    _accept("criterion 4: N(p) identity p <= 100, fast == brute p <= 13", "ahlgren", rows, budget=1.0)


def test_criterion_5_tensor_factorization():
    trace = "trace identity a_p(w4) a_p(w3) = a_p(w6) + p^2 a_p(w2), odd p <= 100"
    rows = {"tensor-w4xw3-factorization": [trace, "degree-4 Euler-factor equality, odd p <= 100"]}
    binomial = [f"d={f.field.d}, n=2..6, good odd p <= 50" for f in FAMILIES.values()]
    rows["tensor-power-binomial-factorization"] = binomial
    _accept("criterion 5: w4xw3 identity p <= 100; binomial factorization n <= 6, p <= 50", "tensor", rows)


def test_criterion_6_singularity_table():
    inputs = ["(dim, mult) -> count census", "types in the printed order", "near-pencil types"]
    cells = [f"type ({d},{m}) N{k}" for d, m, _, _ in AHLGREN_REFERENCE_TABLE for k in range(1, 7)]  # N1..N6
    known = {cell for cell, _, _ in DISCREPANCIES["arrangement"]}
    inputs += ["crepant resolvable"] + [cell for cell in cells if cell not in known]
    inputs.append("pairs C(m,2) = N1 and triples C(m,3) = N2 + 4*N3 through every type of dim <= 1")
    label = "criterion 6: census, near-pencil set, resolvability; incidence via discrepancy protocol"
    _accept(label, "arrangement", {"twelve-plane-singularity-table": inputs}, budget=60.0)


def test_criterion_7_good_reduction():
    inputs = ["all coefficient-matrix minors in {0, +-1}"]
    inputs += [f"F_{p} poset == rational poset" for p in (3, 5, 7)]
    label = "criterion 7: minors all in {0,+-1}; F_p poset == Q poset for p in {3,5,7}"
    _accept(label, "arrangement", {"good-reduction": inputs})


def test_criterion_8_euler_calculus():
    inputs = ["fold over n elliptic blocks == (6^n + 3(-2)^n)/2, n <= 10", "borcea-voisin euler numbers"]
    label = "criterion 8: iterated fold equals (6^n + 3(-2)^n)/2, n <= 10; Borcea-Voisin list verbatim"
    _accept(label, "euler", {"double-cover-euler-calculus": inputs})


def test_criterion_9_invariant_dimensions():
    dims = [f"{group}, n={n}" for group in ("Z3", "Z4", "Z2diag") for n in range(1, 11)]
    quot = [f"d={f.field.d}, n={n}, p<=197" for f in FAMILIES.values() for n in range(2, 7)]
    rows = {"invariant-tensor-dimensions": dims, "quotient-frobenius-traces": quot}
    _accept("criterion 9: invariant dimensions n <= 10; quotient traces 2 <= n <= 6, p <= 197", "cm", rows, 197)
