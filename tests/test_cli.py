import json

import pytest

from cyarith.cli import main
from cyarith.report import suite_exit_code
from cyarith.suites import run_suite


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_eta_expand_json(capsys):
    code, out, _ = run(capsys, "eta-expand", "8:2,4:2", "-N", "17")
    assert code == 0
    data = json.loads(out)
    assert data["5"] == -2 and data["13"] == 6 and data["17"] == 2


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


def test_gross_normalize(capsys):
    code, out, _ = run(capsys, "gross-normalize", "13", "--field", "zeta3")
    assert code == 0
    data = json.loads(out)
    assert data["trace"] == 5 and data["norm"] == 13
    code, out, _ = run(capsys, "gross-normalize", "5", "--field", "i")
    assert json.loads(out)["element"] == "-1 + 2i"


def test_gross_normalize_inert_prime_fails(capsys):
    code, _, err = run(capsys, "gross-normalize", "3", "--field", "i")
    assert code == 1
    assert "split" in err


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


def test_tensor_factor_cli(capsys):
    code, out, _ = run(capsys, "tensor-factor", "--pmax", "13")
    assert code == 0
    rows = json.loads(out)
    assert all(r["equal"] for r in rows)
    assert rows[0]["lhs_poly"] == rows[0]["rhs_poly"]


def test_tensor_factor_rejects_unknown_forms(capsys):
    code, _, err = run(capsys, "tensor-factor", "--forms", "g5,g2")
    assert code == 1
    assert "g4,g3" in err


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


def test_classify_arrangement_malformed_file(tmp_path, capsys):
    path = tmp_path / "broken.arr"
    path.write_text("2 2\n1 0 0\n")
    code, _, err = run(capsys, "classify-arrangement", str(path))
    assert code == 1
    assert "cannot read arrangement" in err


def test_classify_arrangement_missing_file(capsys):
    code, _, err = run(capsys, "classify-arrangement", "/nonexistent/file.arr")
    assert code == 1


def test_euler_cli(capsys):
    code, out, _ = run(capsys, "euler", "--iterate", "5")
    assert code == 0
    assert json.loads(out) == {
        "n": 5, "euler": 3840, "fold_cover": 3840, "fold_branch": 3904, "match": True,
    }
    code, out, _ = run(capsys, "euler", "--pair", "24,-18,0,4")
    assert json.loads(out)["e_cover"] == -108


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


def test_suite_thread_invariance(capsys):
    _, seq, _ = run(capsys, "suite", "ahlgren", "--json", "--pmax", "50")
    _, par, _ = run(capsys, "suite", "ahlgren", "--json", "--pmax", "50", "--threads", "3")
    assert seq == par


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
