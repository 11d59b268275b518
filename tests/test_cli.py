import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import cyarith
from cyarith import cmforms, registry, tensor
from cyarith.cli import main
from cyarith.report import suite_exit_code
from cyarith.suites import SUITES, run_suite

GOLDEN = Path(__file__).parent / "golden"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_eta_expand_json(capsys):
    code, out, _ = run(capsys, "eta-expand", "8:2,4:2", "-N", "17")
    assert code == 0
    data = json.loads(out)
    assert data["5"] == -2 and data["13"] == 6 and data["17"] == 2


def test_eta_expand_json_flag_is_the_default(capsys):
    # --json names the default format, as for every other table subcommand
    default = run(capsys, "eta-expand", "8:2,4:2", "-N", "17")
    assert run(capsys, "eta-expand", "8:2,4:2", "-N", "17", "--json") == default
    assert default[0] == 0


def test_eta_expand_csv(capsys):
    code, out, _ = run(capsys, "eta-expand", "4:6", "-N", "9", "--csv")
    assert code == 0
    rows = out.strip().splitlines()
    assert rows[0] == "n,c_n"
    assert "5,-6" in rows and "9,9" in rows


def test_eta_expand_rejects_bad_factors(capsys):
    code, _, err = run(capsys, "eta-expand", "4:5")
    assert code == 1
    assert "divisible by 24" in err


def test_cm_coeffs(capsys):
    code, out, _ = run(capsys, "cm-coeffs", "--field", "i", "--weight", "6", "--pmax", "17")
    assert code == 0
    rows = {r["p"]: r["ap"] for r in json.loads(out)}
    assert rows == {3: 0, 5: -82, 7: 0, 11: 0, 13: -1194, 17: 2242}
    # 3 ramifies in Q(sqrt(-3)): an empty table, still exit 0
    argv = ("cm-coeffs", "--field", "zeta3", "--weight", "3", "--pmax", "3")
    assert run(capsys, *argv) == (0, "[]\n", "")
    assert run(capsys, *argv, "--csv") == (0, "p,ap\n", "")


def test_gross_normalize(capsys):
    for field, p, x, y, element, trace in (
        ("i", 5, -1, 2, "-1 + 2i", -2),
        ("i", 13, 3, 2, "3 + 2i", 6),
        ("i", 97, 9, 4, "9 + 4i", 18),
        ("zeta3", 7, -2, 3, "-2 + 3w", -1),
        ("zeta3", 13, 1, 3, "1 + 3w", 5),
        ("zeta3", 97, -11, 3, "-11 + 3w", -19),
    ):
        code, out, err = run(capsys, "gross-normalize", str(p), "--field", field)
        assert (code, err) == (0, "")
        assert json.loads(out) == {"p": p, "field": field, "element": element, "x": x, "y": y, "norm": p, "trace": trace}


def test_gross_normalize_inert_prime_fails(capsys):
    code, _, err = run(capsys, "gross-normalize", "3", "--field", "i")
    assert code == 1
    assert "split" in err


def test_gross_normalize_errors(capsys):
    # a prime that does not split keeps its message; a split composite is
    # not prime; beyond the primality test's range is an input error
    assert run(capsys, "gross-normalize", "7", "--field", "i") == (1, "", "error: p = 7 is not a split prime for d = 4\n")
    assert run(capsys, "gross-normalize", "25") == (1, "", "error: p = 25 is not prime\n")
    code, out, err = run(capsys, "gross-normalize", str(cyarith.arith.PRIMALITY_LIMIT * 4 + 1))
    assert (code, out) == (1, "")
    assert err.startswith("error: n = ") and "limit of the deterministic primality test" in err


def test_gross_normalize_reproduces_its_golden_byte_for_byte(capsys):
    # one output per (field, p); the golden is the list of those outputs,
    # written as the CLI writes one
    golden = (GOLDEN / "gross_normalize.json").read_text()
    payloads = []
    for entry in json.loads(golden):
        code, out, err = run(capsys, "gross-normalize", str(entry["p"]), "--field", entry["field"])
        assert (code, err) == (0, "")
        payloads.append(json.loads(out))
        assert out == json.dumps(payloads[-1], indent=2, sort_keys=True) + "\n"
    assert json.dumps(payloads, indent=2, sort_keys=True) + "\n" == golden
    assert [(e["field"], e["p"]) for e in payloads] == [("i", p) for p in (5, 13, 97, 1009, 65537, 999961)] + [
        ("zeta3", p) for p in (7, 13, 97, 1009, 999979)
    ]


def test_elliptic_ap(capsys):
    code, out, _ = run(capsys, "elliptic-ap", "--curve=-1,0", "--pmax", "13")
    assert code == 0
    data = json.loads(out)
    assert {r["p"]: r["ap"] for r in data["rows"]} == {3: 0, 5: -2, 7: 0, 11: 0, 13: 6}


def test_verify_ahlgren_cli(capsys):
    code, out, _ = run(capsys, "verify-ahlgren", "--pmax", "13", "--brute-max", "5")
    assert code == 0
    rows = json.loads(out)
    assert all(r["match"] for r in rows)
    assert rows[0] == {"p": 3, "count": 245, "brute": 245, "ap": -12, "predicted": 245, "match": True}
    # beyond --brute-max the brute cell is None, an empty CSV cell
    code, out, _ = run(capsys, "verify-ahlgren", "--pmax", "11", "--brute-max", "5", "--csv")
    assert code == 0
    assert out.splitlines() == [
        "p,count,brute,ap,predicted,match",
        "3,245,245,-12,245,True",
        "5,3175,3175,54,3175,True",
        "7,17321,,-88,17321,True",
        "11,162589,,540,162589,True",
    ]
    # --brute-max is the one override of BRUTE_FORCE_LIMIT (13): p = 17 is
    # counted exactly as well
    code, out, _ = run(capsys, "verify-ahlgren", "--pmax", "17", "--brute-max", "17", "--csv")
    assert code == 0
    assert out.splitlines()[-1] == "17,1427779,1427779,594,1427779,True"


def test_suite_has_no_brute_max(capsys):
    # the suites count exactly to BRUTE_FORCE_LIMIT; only verify-ahlgren moves the cap
    with pytest.raises(SystemExit) as exc:
        main(["suite", "all", "--brute-max", "5"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --brute-max 5" in capsys.readouterr().err


def test_tensor_factor_cli(capsys):
    code, out, _ = run(capsys, "tensor-factor", "--pmax", "13")
    assert code == 0
    rows = json.loads(out)
    assert all(r["equal"] for r in rows)
    assert rows[0]["lhs_poly"] == rows[0]["rhs_poly"]
    code, out, _ = run(capsys, "tensor-factor", "--pmax", "7", "--csv")
    assert code == 0
    rows = out.strip().splitlines()
    assert rows[0] == "p,equal,lhs,rhs"
    assert rows[1] == "3,True,1;0;486;0;59049,1;0;486;0;59049"
    assert [row.split(",")[0] for row in rows[1:]] == ["3", "5", "7"]


def test_classify_arrangement_bundled(capsys):
    code, out, _ = run(capsys, "classify-arrangement", "sextic")
    assert code == 0
    data = json.loads(out)
    assert data["resolvable"] is True
    assert [(t["dim"], t["mult"], t["count"]) for t in data["types"]] == [(0, 2, 3), (0, 3, 4)]


def test_classify_arrangement_file_and_options(tmp_path, capsys):
    path = tmp_path / "pencil.arr"
    path.write_text("2 3\n1 0 0\n0 1 0\n1 1 0\n")
    code, out, _ = run(capsys, "classify-arrangement", str(path), "--schedule", "--good-reduction")
    assert code == 0
    data = json.loads(out)
    assert data["types"][0]["mult"] == 3
    assert data["schedule"][0]["adds_exceptional"] is True
    assert data["good_reduction"]["all_minors_unimodular"] is True


def test_classify_arrangement_check_prime_alone(capsys):
    # --check-prime runs the mod-p comparison without --good-reduction
    code, out, _ = run(capsys, "classify-arrangement", "octic", "--check-prime", "5", "--json")
    assert code == 0
    assert json.loads(out)["good_reduction"] == {"poset_matches_mod_5": True}
    code, _, err = run(capsys, "classify-arrangement", "octic", "--check-prime", "9")
    assert code == 1
    assert "odd prime" in err


def test_classify_arrangement_check_prime_large(tmp_path, capsys):
    # x = 0, y = 0, x + y + qz = 0: three double points over Q, one triple
    # point mod q = 2^31 - 1
    path = tmp_path / "triple.arr"
    path.write_text("2 3\n1 0 0\n0 1 0\n1 1 2147483647\n")
    code, out, _ = run(capsys, "classify-arrangement", str(path), "--check-prime", "2147483647", "--json")
    assert code == 0
    assert '"poset_matches_mod_2147483647": false' in out
    assert json.loads(out)["good_reduction"] == {"poset_matches_mod_2147483647": False}


def test_classify_arrangement_good_reduction_factors_large_minors(tmp_path, capsys):
    # x, y and x + M y with M = 998244353 * 1000000007: the 2x2 minor M has
    # no factor below 1000, so Pollard's rho splits it
    path = tmp_path / "big.arr"
    path.write_text("2 3\n1 0 0\n0 1 0\n1 998244359987710471 0\n")
    code, out, _ = run(capsys, "classify-arrangement", str(path), "--good-reduction", "--json")
    assert code == 0
    assert json.loads(out)["good_reduction"]["exceptional_odd_primes"] == [998244353, 1000000007]


def test_classify_arrangement_check_prime_answers_per_prime(tmp_path, capsys):
    # x = 0, y = 0, x + y + 3z = 0: concurrent mod 3, three double points mod 5
    path = tmp_path / "triple3.arr"
    path.write_text("2 3\n1 0 0\n0 1 0\n1 1 3\n")
    for p, equal in (("3", "false"), ("5", "true")):
        code, out, _ = run(capsys, "classify-arrangement", str(path), "--check-prime", p, "--json")
        assert code == 0
        assert f'"poset_matches_mod_{p}": {equal}' in out


def test_classify_arrangement_csv_refuses_extra_results(capsys):
    # the CSV type table has no place for these results: refuse, do not drop
    for extra in (["--schedule"], ["--good-reduction"], ["--check-prime", "5"]):
        code, out, err = run(capsys, "classify-arrangement", "octic", "--csv", *extra)
        assert (code, out) == (2, "")
        assert "--json" in err
    code, out, _ = run(capsys, "classify-arrangement", "octic", "--csv")
    assert code == 0
    assert out.splitlines()[-1] == "resolvable,True"


def test_classify_arrangement_malformed_file(tmp_path, capsys):
    path = tmp_path / "broken.arr"
    path.write_text("2 2\n1 0 0\n")
    code, _, err = run(capsys, "classify-arrangement", str(path))
    assert code == 1
    assert "cannot read arrangement" in err


def test_classify_arrangement_missing_file(capsys):
    code, _, err = run(capsys, "classify-arrangement", "/nonexistent/file.arr")
    assert code == 1


def test_cli_import_loads_neither_fractions_nor_decimal():
    # no float and no Fraction in the package: a cold CLI start pays for neither
    src = Path(cyarith.__file__).parent.parent
    env = {**os.environ, "PYTHONPATH": str(src)}
    code = "import sys, cyarith.cli; print(sorted({'fractions', 'decimal'} & set(sys.modules)))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout == "[]\n"


def test_closed_pipe_ends_quietly():
    # about 120 kB of JSON: more than a pipe holds, so the writer meets the
    # closed pipe after the reader takes one line and leaves
    src = Path(cyarith.__file__).parent.parent
    env = {**os.environ, "PYTHONPATH": str(src)}
    argv = [sys.executable, "-m", "cyarith.cli", "cm-coeffs", "--field", "i", "--weight", "2", "--pmax", "30000"]
    proc = subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.readline() == b"[\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait() == 1
    assert err == b""


def test_euler_cli(capsys):
    code, out, _ = run(capsys, "euler", "--iterate", "5")
    assert code == 0
    assert json.loads(out) == {
        "n": 5, "euler": 3840, "fold_cover": 3840, "fold_branch": 3904, "match": True,
    }
    code, out, _ = run(capsys, "euler", "--pair", "24,-18,0,4")
    assert json.loads(out)["e_cover"] == -108


def test_eta_expand_negative_precision_is_an_error_line(capsys):
    code, out, err = run(capsys, "eta-expand", "1:24", "-N", "-3")
    assert (code, out, err) == (1, "", "error: precision must be >= 0\n")


def test_euler_pair_names_its_four_values(capsys):
    code, out, err = run(capsys, "euler", "--pair", "1,2")
    assert (code, out) == (1, "")
    assert err == "error: --pair takes four integers EX1,ED1,EX2,ED2, got 2\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (("elliptic-ap", "--curve=1"), "--curve takes two integers A,B, got 1"),
        (("elliptic-ap", "--curve=1,2,3"), "--curve takes two integers A,B, got 3"),
        (("elliptic-ap", "--curve=1,x"), "--curve takes two integers A,B, got '1,x'"),
        (("euler", "--pair", "1,2,3,y"), "--pair takes four integers EX1,ED1,EX2,ED2, got '1,2,3,y'"),
        (("eta-expand", "1:2:3"), "eta factors are M:K with integers M and K, as in 8:2,4:2; got '1:2:3'"),
        (("eta-expand", "4:4,a:2"), "eta factors are M:K with integers M and K, as in 8:2,4:2; got 'a:2'"),
    ],
)
def test_malformed_comma_lists_name_their_syntax(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (1, "", f"error: {message}\n")


def test_suite_exit_codes(capsys):
    code, out, _ = run(capsys, "suite", "euler")
    assert code == 0
    assert "[PASS]" in out
    # the twelve-plane incidence table carries one transcription typo:
    # discrepancy-only run exits 2
    code, out, _ = run(capsys, "suite", "arrangement")
    assert code == 2
    assert "DISC" in out


def test_suite_json_deterministic(capsys):
    code1, out1, _ = run(capsys, "suite", "eta", "--json")
    code2, out2, _ = run(capsys, "suite", "eta", "--json")
    assert code1 == code2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["exit_code"] == 0
    assert all(rep["status"] == "pass" for rep in payload["reports"])


def _golden_commands() -> list[tuple[tuple[str, ...], int, str]]:
    """(argv, exit code, golden) for each line of tests/goldens.txt."""
    out = []
    for line in (Path(__file__).parent / "goldens.txt").read_text().splitlines():
        if line and not line.startswith("#"):
            code, golden, *argv = line.split()
            out.append((tuple(argv), int(code), golden))
    return out


@pytest.mark.parametrize("argv, code, golden", _golden_commands())
def test_outputs_reproduce_their_goldens_byte_for_byte(capsys, argv, code, golden):
    # every committed output with its exit code; goldens.txt says what each shows
    got, out, err = run(capsys, *argv)
    assert (got, err) == (code, "")
    assert out.encode() == (GOLDEN / golden).read_bytes()


def test_suite_unknown_name_rejected():
    with pytest.raises(SystemExit):
        main(["suite", "bogus"])


def test_run_suite_api_statuses():
    reports = run_suite("cm", pmax=30)
    assert all(r.status == "pass" for r in reports)
    assert suite_exit_code(reports) == 0
    reports = run_suite("arrangement")
    assert suite_exit_code(reports) == 2
    statuses = {r.claim: r.status for r in reports}
    assert statuses["twelve-plane-singularity-table"] == "discrepancy"
    assert statuses["good-reduction"] == "pass"


def test_run_suite_rejects_unknown():
    with pytest.raises(ValueError):
        run_suite("nope")


@pytest.mark.parametrize("name", SUITES)
def test_run_suite_pmax_lower_bound(name):
    with pytest.raises(ValueError, match="pmax must be at least 3"):
        run_suite(name, pmax=2)


@pytest.mark.parametrize("name", ["cm", "tensor"])
def test_run_suite_accepts_pmax_3(name):
    assert suite_exit_code(run_suite(name, pmax=3)) == 0


@pytest.mark.parametrize("pmax, cap", [(5, 5), (100, 13)])
def test_suite_ahlgren_names_the_range_it_counted(pmax, cap):
    (report,) = run_suite("ahlgren", pmax=pmax)
    assert report.rows[1].input == f"fast count == brute-force count for p <= {cap}"


def test_suite_pmax_2_is_an_error_line(capsys):
    code, out, err = run(capsys, "suite", "cm", "--pmax", "2")
    assert (code, out, err) == (1, "", "error: pmax must be at least 3\n")


_PMAX_COMMANDS = {
    "cm-coeffs": ["--field", "i", "--weight", "3"],
    "elliptic-ap": ["--curve=-1,0"],
    "tensor-factor": [],
}


@pytest.mark.parametrize("command", _PMAX_COMMANDS)
def test_pmax_2_is_an_error_line(command, capsys):
    code, out, err = run(capsys, command, *_PMAX_COMMANDS[command], "--pmax", "2")
    assert (code, out, err) == (1, "", "error: pmax must be at least 3\n")


@pytest.mark.parametrize("command", _PMAX_COMMANDS)
def test_pmax_3_is_accepted(command, capsys):
    code, out, err = run(capsys, command, *_PMAX_COMMANDS[command], "--pmax", "3", "--csv")
    assert (code, err) == (0, "")
    assert out.splitlines()[1].startswith("3,")  # one row, for p = 3


@pytest.mark.parametrize(
    "argv",
    [
        ("cm-coeffs", "--field", "i", "--weight", "2", "--pmax", "13"),
        ("classify-arrangement", "octic"),
        ("eta-expand", "8:2,4:2", "-N", "17"),
    ],
)
def test_json_and_csv_together_are_a_usage_error(argv, capsys):
    # one output format per run: argparse refuses the pair before any work
    for flags in (("--json", "--csv"), ("--csv", "--json")):
        with pytest.raises(SystemExit) as exc:
            main([*argv, *flags])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == "" and "not allowed with argument" in err and err.startswith("usage:")


def test_suite_rejects_csv(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["suite", "euler", "--csv"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --csv" in capsys.readouterr().err


def test_identity_violation_exits_1_without_traceback(monkeypatch, capsys):
    # a congruence that a second associate passes too, alpha u^-1 for the
    # unit u, breaks the uniqueness of the normalization: a FAIL report
    # inside `suite all`, whose other sub-suites still run, and a FAIL line
    # on stderr for other commands
    real = cmforms.is_normalized
    monkeypatch.setattr(
        cmforms, "is_normalized", lambda e: real(e) or real(e * cmforms.QuadOrderElem(e.field, 0, 1))
    )
    code, out, err = run(capsys, "suite", "all")
    assert code == 1
    assert err == ""
    assert "[FAIL] suite cm\n  FAIL identity violated: normalization not unique at p = 5" in out
    assert "[PASS] double-cover-euler-calculus" in out and "[DISCREPANCY]" in out
    assert "Traceback" not in out
    code, out, err = run(capsys, "gross-normalize", "5")
    assert (code, out) == (1, "")
    assert err.startswith("FAIL identity violated: normalization not unique at p = 5")
    assert "Traceback" not in err


def test_inconsistent_tensor_power_sums_fail_only_the_tensor_suite(monkeypatch, capsys):
    # tr(Frob^(m-1)) in place of tr(Frob^m): a non-integral Newton step is
    # an IdentityViolation, so `suite all` prints a FAIL report for the
    # tensor sub-suite and still runs the others
    real = tensor.char_poly_from_power_sums
    monkeypatch.setattr(tensor, "char_poly_from_power_sums", lambda sums: real([len(sums)] + sums[:-1]))
    code, out, err = run(capsys, "suite", "all")
    assert code == 1
    assert err == ""
    assert "[FAIL] suite tensor\n  FAIL identity violated: non-integer Newton step" in out
    assert "[PASS] quotient-frobenius-traces" in out and "[PASS] double-cover-euler-calculus" in out


def test_bound_check_tripped_by_a_computed_value_fails_only_its_suite(monkeypatch, capsys):
    # s_m + 1 for m >= 2 pushes a_5 of the weight-4 form past the Ramanujan
    # bound, a ValueError inside hecke_expand: `suite all` prints a FAIL
    # report for the cm sub-suite and still runs the other five
    real = cmforms.power_trace
    monkeypatch.setattr(cmforms, "power_trace", lambda a, p, m: real(a, p, m) + (m >= 2))
    code, out, err = run(capsys, "suite", "all")
    assert code == 1
    assert err == ""
    message = "identity violated: a_5 = 23 violates the Ramanujan bound for weight 4"
    assert f"[FAIL] suite cm\n  FAIL {message}" in out
    claims = {line.split("] ", 1)[1] for line in out.splitlines() if line.startswith("[")}
    others = {r.claim for sub in ("eta", "tensor", "ahlgren", "arrangement", "euler") for r in run_suite(sub)}
    assert claims == others | {"suite cm"}
    assert "Traceback" not in out


def test_wrong_fast_trace_fails_the_quotient_rows(monkeypatch):
    # a curve_ap that is not the trace of alpha fails the quotient rows:
    # negated, it flips the power trace s_n at odd n only, and alpha itself
    # still passes
    real = cmforms.CMFormFamily.curve_ap
    monkeypatch.setattr(cmforms.CMFormFamily, "curve_ap", lambda self, p: -real(self, p))
    reports = {r.claim: r for r in run_suite("cm", pmax=30)}
    failed = {row.input for row in reports["quotient-frobenius-traces"].rows if not row.ok}
    assert failed == {f"d={d}, n={n}, p<=30" for d in (4, 3) for n in (3, 5)}
    assert reports["normalized-prime-elements"].status == "pass"


def test_twisted_family_curve_fails_the_normalized_element_row(monkeypatch):
    # y^2 = x^3 - 16 differs from the level-27 form at split p = 3 mod 4;
    # the fast trace never reads the curve, the normalized-element row does
    twisted = replace(registry.EISENSTEIN_FAMILY, curve=registry.CURVE_EISENSTEIN_TWIST)
    monkeypatch.setitem(registry.FAMILIES, "zeta3", twisted)
    statuses = {r.claim: r.status for r in run_suite("cm", pmax=30)}
    assert statuses["normalized-prime-elements"] == "fail"
    assert statuses["quotient-frobenius-traces"] == "pass"


def test_swapped_nebentypus_fails_hecke_and_tensor_reports(monkeypatch):
    # the weight-parity rule lives only in nebentypus: swapping it must
    # break the printed a_(p^2) coefficients through hecke_expand and both
    # tensor identities through cm_euler_factor
    real = cmforms.nebentypus
    monkeypatch.setattr(cmforms, "nebentypus", lambda weight, field, n: real(weight + 1, field, n))
    statuses = {r.claim: r.status for r in run_suite("cm", pmax=30) + run_suite("tensor", pmax=30)}
    assert statuses["grossencharakter-power-coefficients"] == "fail"
    assert statuses["tensor-w4xw3-factorization"] == "fail"
    assert statuses["tensor-power-binomial-factorization"] == "fail"
