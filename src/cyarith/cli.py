"""Command-line front end.

Subcommands map one-to-one onto the toolkit's verifiable claims:
eta-expand, cm-coeffs, gross-normalize, elliptic-ap, verify-ahlgren,
tensor-factor, classify-arrangement, euler, suite.  All output is
deterministic; exit codes for `suite`: 0 all pass, 1 any fail,
2 computed-vs-transcribed discrepancies only.  A checked identity that
breaks mid-computation (`IdentityViolation`) is one `FAIL` line on
stderr and exit code 1, never a traceback; inside `suite` it is a `FAIL`
report for its sub-suite, and the other sub-suites still run.  Every
subcommand that takes `--pmax` rejects values below 3 the same way
(`error: ...`, exit 1): no odd prime lies below 3.  A reader that closes
stdout early (`| head`) ends the command with exit code 1 and nothing on
stderr.

The table subcommands (eta-expand, cm-coeffs, elliptic-ap,
verify-ahlgren, tensor-factor, classify-arrangement) print through one
writer, `_write`: JSON by default, or with `--csv` a header line and
one line per row; `--json` with `--csv` is a usage error (exit 2).  In a CSV row a `None` cell is empty, a list cell is
its items joined by `;`, and any other cell is `str(value)`.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict

from . import registry
from .arith import IdentityViolation, odd_primes_up_to
from .arrangement import (
    classify,
    good_reduction_report,
    intersection_poset,
    load_arrangement,
    poset_matches_mod_p,
    resolution_schedule,
)
from .cmforms import normalize_prime_element
from .euler import KummerData, double_cover_euler, fold_elliptic, iterated_elliptic_euler
from .pointcount import EllipticCurveModel, elliptic_ap, verify_ahlgren
from .qseries import EtaProduct
from .report import format_report_text, reports_to_json, suite_exit_code
from .suites import SUITES, run_suite
from .tensor import verify_g4xg3


def _json_out(payload) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True))


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, list):
        return ";".join(str(v) for v in value)
    return str(value)


def _write(args, header: str, rows, payload) -> None:
    """`payload` as JSON, or with --csv the `header` line and then each
    row's cells joined by `,` (see the module docstring for the cells)."""
    if not args.csv:
        _json_out(payload)
        return
    print(header)
    for row in rows:
        print(",".join(_cell(value) for value in row))


def _parse_factors(text: str) -> EtaProduct:
    """Factor syntax: `8:2,4:2` for eta(q^8)^2 eta(q^4)^2."""
    factors = []
    for part in text.split(","):
        m, _, k = part.partition(":")
        try:
            factors.append((int(m), int(k or 1)))
        except ValueError:
            raise ValueError(f"eta factors are M:K with integers M and K, as in 8:2,4:2; got {part!r}") from None
    return EtaProduct(tuple(factors))


def _integers(text: str, option: str, takes: str) -> list[int]:
    """The comma list of `option`: `takes` names one integer per comma
    field, as in "two integers A,B"."""
    try:
        values = [int(tok) for tok in text.split(",")]
    except ValueError:
        raise ValueError(f"{option} takes {takes}, got {text!r}") from None
    if len(values) != takes.count(",") + 1:
        raise ValueError(f"{option} takes {takes}, got {len(values)}")
    return values


def cmd_eta_expand(args) -> int:
    eta = _parse_factors(args.factors)
    series = eta.expand(args.precision)
    rows = [(n, series.coeff(n)) for n in range(1, args.precision + 1)]
    _write(args, "n,c_n", rows, {str(n): c for n, c in rows})
    return 0


def cmd_cm_coeffs(args) -> int:
    family = registry.FAMILIES[args.field]
    rows = [(p, family.ap(args.weight, p)) for p in family.good_primes(args.pmax)]
    _write(args, "p,ap", rows, [{"p": p, "ap": ap} for p, ap in rows])
    return 0


def cmd_gross_normalize(args) -> int:
    field = registry.FAMILIES[args.field].field
    elem = normalize_prime_element(args.p, field)
    payload = {
        "p": args.p,
        "field": field.name,
        "element": str(elem),
        "x": elem.x,
        "y": elem.y,
        "norm": elem.norm,
        "trace": elem.trace,
    }
    _json_out(payload)
    return 0


def cmd_elliptic_ap(args) -> int:
    a, b = _integers(args.curve, "--curve", "two integers A,B")
    curve = EllipticCurveModel(a, b)
    rows = [(p, elliptic_ap(curve, p)) for p in odd_primes_up_to(args.pmax) if curve.is_good(p)]
    data = [{"p": p, "ap": ap} for p, ap in rows]
    _write(args, "p,ap", rows, {"curve": str(curve), "rows": data})
    return 0


def cmd_verify_ahlgren(args) -> int:
    rows = verify_ahlgren(args.pmax, brute_max=args.brute_max)
    data = [asdict(r) for r in rows]
    _write(args, "p,count,brute,ap,predicted,match", [row.values() for row in data], data)
    return 0 if all(r.match for r in rows) else 1


def cmd_tensor_factor(args) -> int:
    rows = verify_g4xg3(args.pmax)
    table = [(r.p, r.equal, list(r.lhs.coeffs), list(r.rhs.coeffs)) for r in rows]
    data = [{"p": p, "equal": eq, "lhs_poly": lhs, "rhs_poly": rhs} for p, eq, lhs, rhs in table]
    _write(args, "p,equal,lhs,rhs", table, data)
    return 0 if all(r.equal for r in rows) else 1


def cmd_classify_arrangement(args) -> int:
    if args.csv and (args.schedule or args.good_reduction or args.check_prime is not None):
        print(
            "--csv holds the type table only; use --json with --schedule, "
            "--good-reduction or --check-prime",
            file=sys.stderr,
        )
        return 2
    try:
        if args.file in registry.ARRANGEMENT_FILES:
            arr = registry.load_bundled_arrangement(args.file)
        else:
            arr = load_arrangement(args.file)
    except (OSError, ValueError) as exc:
        print(f"cannot read arrangement: {exc}", file=sys.stderr)
        return 1
    poset = intersection_poset(arr)
    cls = classify(arr, poset)
    payload = cls.to_jsonable()
    if args.schedule and cls.resolvable:
        payload["schedule"] = [
            {
                "dim": step.stratum.dim,
                "mult": step.stratum.mult,
                "basis": [list(row) for row in step.stratum.basis],
                "adds_exceptional": step.adds_exceptional,
            }
            for step in resolution_schedule(arr, poset)
        ]
    if args.good_reduction:
        rep = good_reduction_report(arr)
        payload["good_reduction"] = {
            "all_minors_unimodular": rep.all_unimodular,
            "exceptional_odd_primes": list(rep.exceptional_odd_primes),
            "max_abs_minor": rep.max_abs_minor,
        }
    if args.check_prime is not None:
        cmp = poset_matches_mod_p(arr, args.check_prime, poset)
        payload.setdefault("good_reduction", {})[f"poset_matches_mod_{args.check_prime}"] = cmp.equal
    columns = ("label", "dim", "mult", "count", "near_pencil", "admissible", "incidence")
    rows = [[row[c] for c in columns] for row in payload["types"]]
    rows.append(["resolvable", payload["resolvable"]])
    _write(args, ",".join(columns), rows, payload)
    return 0


def cmd_euler(args) -> int:
    if args.iterate is not None:
        closed = iterated_elliptic_euler(args.iterate)
        folded = fold_elliptic(args.iterate)
        _json_out(
            {
                "n": args.iterate,
                "euler": closed,
                "fold_cover": folded.e_cover,
                "fold_branch": folded.e_branch,
                "match": closed == folded.e_cover,
            }
        )
        return 0 if closed == folded.e_cover else 1
    ex1, ed1, ex2, ed2 = _integers(args.pair, "--pair", "four integers EX1,ED1,EX2,ED2")
    out = double_cover_euler(KummerData(ex1, ed1), KummerData(ex2, ed2))
    _json_out({"e_cover": out.e_cover, "e_branch": out.e_branch})
    return 0


def cmd_suite(args) -> int:
    reports = run_suite(args.name, pmax=args.pmax)
    if args.json:
        print(reports_to_json(reports))
    else:
        for rep in reports:
            print(format_report_text(rep))
    return suite_exit_code(reports)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cyarith",
        description="exact-arithmetic verification toolkit: eta products, CM "
        "eigenvalues, finite-field point counts, tensor L-factors, and "
        "arrangement resolution combinatorics",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, pmax=True, csv="CSV output where supported"):
        fmt = p.add_mutually_exclusive_group()
        fmt.add_argument("--json", action="store_true", help="JSON output (default)")
        fmt.add_argument("--csv", action="store_true", help=csv)
        if pmax:
            p.add_argument("--pmax", type=int, default=100, metavar="P", help="at least 3")

    p = sub.add_parser("eta-expand", help="expand an eta product")
    p.add_argument("factors", help="comma list m:k, e.g. 8:2,4:2 for eta(q^8)^2 eta(q^4)^2")
    p.add_argument("-N", "--precision", type=int, default=50)
    common(p, pmax=False)
    p.set_defaults(func=cmd_eta_expand)

    p = sub.add_parser("cm-coeffs", help="prime coefficients of a CM family form")
    p.add_argument("--field", choices=tuple(registry.FAMILIES), required=True)
    p.add_argument("--weight", type=int, required=True)
    common(p)
    p.set_defaults(func=cmd_cm_coeffs)

    p = sub.add_parser("gross-normalize", help="normalized prime element above a split p")
    p.add_argument("p", type=int)
    p.add_argument("--field", choices=tuple(registry.FAMILIES), default="i")
    p.set_defaults(func=cmd_gross_normalize)

    p = sub.add_parser("elliptic-ap", help="Frobenius traces of y^2 = x^3 + Ax + B")
    p.add_argument("--curve", required=True, metavar="A,B")
    common(p)
    p.set_defaults(func=cmd_elliptic_ap)

    p = sub.add_parser("verify-ahlgren", help="check the fivefold count identity")
    common(p)
    p.add_argument("--brute-max", type=int, default=None, metavar="Q")
    p.set_defaults(func=cmd_verify_ahlgren)

    p = sub.add_parser("tensor-factor", help="the g4 x g3 Euler factor identity")
    common(p)
    p.set_defaults(func=cmd_tensor_factor)

    p = sub.add_parser("classify-arrangement", help="intersection-lattice classification")
    p.add_argument("file", help="arrangement file, or bundled name: " + " | ".join(registry.ARRANGEMENT_FILES))
    common(p, pmax=False, csv="the type table only (exit 2 with the options below)")
    p.add_argument("--schedule", action="store_true", help="include blow-up schedule")
    p.add_argument("--good-reduction", action="store_true")
    p.add_argument("--check-prime", type=int, default=None, metavar="P")
    p.set_defaults(func=cmd_classify_arrangement)

    p = sub.add_parser("euler", help="double-cover Euler-characteristic calculus")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--iterate", type=int, default=None, metavar="N")
    group.add_argument("--pair", default=None, metavar="EX1,ED1,EX2,ED2")
    p.set_defaults(func=cmd_euler)

    p = sub.add_parser("suite", help="run a verification suite")
    p.add_argument("name", choices=SUITES)
    p.add_argument("--json", action="store_true", help="JSON output (default: text)")
    p.add_argument("--pmax", type=int, default=100, metavar="P", help="at least 3")
    p.set_defaults(func=cmd_suite)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if getattr(args, "pmax", 3) < 3:
            raise ValueError("pmax must be at least 3")
        return args.func(args)
    except IdentityViolation as exc:
        print(f"FAIL identity violated: {exc}", file=sys.stderr)
        return 1
    except (ValueError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed the pipe early: end quietly, and point stdout at
        # devnull so the interpreter's final flush cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    entrypoint()
