"""Command-line front end.

Subcommands map one-to-one onto the toolkit's verifiable claims:
eta-expand, cm-coeffs, gross-normalize, elliptic-ap, verify-ahlgren,
tensor-factor, classify-arrangement, euler, suite.  All output is
deterministic; exit codes for `suite`: 0 all pass, 1 any fail,
2 computed-vs-transcribed discrepancies only.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import registry
from .arith import odd_primes_up_to
from .arrangement import (
    classify,
    good_reduction_report,
    intersection_poset,
    load_arrangement,
    poset_matches_mod_p,
    resolution_schedule,
)
from .cmforms import EISENSTEIN, GAUSSIAN, normalize_prime_element
from .euler import KummerData, double_cover_euler, fold_elliptic, iterated_elliptic_euler
from .pointcount import EllipticCurveModel, elliptic_ap, verify_ahlgren
from .qseries import EtaProduct
from .report import format_report_text, reports_to_json, suite_exit_code
from .suites import SUITES, run_suite
from .tensor import verify_g4xg3


def _json_out(payload) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True))


def _parse_factors(text: str) -> EtaProduct:
    """Factor syntax: `8:2,4:2` for eta(q^8)^2 eta(q^4)^2."""
    factors = []
    for part in text.split(","):
        m, _, k = part.partition(":")
        factors.append((int(m), int(k or 1)))
    return EtaProduct(tuple(factors))


def cmd_eta_expand(args) -> int:
    eta = _parse_factors(args.factors)
    series = eta.expand(args.precision)
    coeffs = {n: series.coeff(n) for n in range(1, args.precision + 1)}
    if args.csv:
        print("n,c_n")
        for n, c in coeffs.items():
            print(f"{n},{c}")
    else:
        _json_out({str(n): c for n, c in coeffs.items()})
    return 0


def cmd_cm_coeffs(args) -> int:
    family = registry.FAMILIES[args.field]
    rows = []
    for p in odd_primes_up_to(args.pmax):
        if p in family.bad_primes:
            continue
        rows.append({"p": p, "ap": family.ap(args.weight, p)})
    if args.csv:
        print("p,ap")
        for row in rows:
            print(f"{row['p']},{row['ap']}")
    else:
        _json_out(rows)
    return 0


def cmd_gross_normalize(args) -> int:
    field = GAUSSIAN if args.field == "i" else EISENSTEIN
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
    a, b = (int(tok) for tok in args.curve.split(","))
    curve = EllipticCurveModel(a, b)
    rows = []
    for p in odd_primes_up_to(args.pmax):
        if curve.discriminant % p == 0:
            continue
        rows.append({"p": p, "ap": elliptic_ap(curve, p)})
    if args.csv:
        print("p,ap")
        for row in rows:
            print(f"{row['p']},{row['ap']}")
    else:
        _json_out({"curve": str(curve), "rows": rows})
    return 0


def cmd_verify_ahlgren(args) -> int:
    rows = verify_ahlgren(args.pmax, brute_max=args.brute_max, threads=args.threads)
    data = [
        {
            "p": r.p,
            "count": r.count,
            "brute": r.brute,
            "ap": r.ap,
            "predicted": r.predicted,
            "match": r.match,
        }
        for r in rows
    ]
    if args.csv:
        print("p,count,brute,ap,predicted,match")
        for r in data:
            brute = "" if r["brute"] is None else r["brute"]
            print(f"{r['p']},{r['count']},{brute},{r['ap']},{r['predicted']},{r['match']}")
    else:
        _json_out(data)
    return 0 if all(r.match for r in rows) else 1


def cmd_tensor_factor(args) -> int:
    if args.forms != "g4,g3":
        print(f"unsupported form pair {args.forms!r}: only g4,g3 is bundled", file=sys.stderr)
        return 1
    rows = verify_g4xg3(args.pmax)
    data = [
        {
            "p": r.p,
            "lhs_poly": list(r.lhs.coeffs),
            "rhs_poly": list(r.rhs.coeffs),
            "equal": r.equal,
        }
        for r in rows
    ]
    _json_out(data)
    return 0 if all(r.equal for r in rows) else 1


def cmd_classify_arrangement(args) -> int:
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
    if args.csv:
        print("label,dim,mult,count,near_pencil,admissible,incidence")
        for row in payload["types"]:
            inc = ";".join(str(v) for v in row["incidence"])
            print(
                f"{row['label']},{row['dim']},{row['mult']},{row['count']},"
                f"{row['near_pencil']},{row['admissible']},{inc}"
            )
        print(f"resolvable,{payload['resolvable']}")
    else:
        _json_out(payload)
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
    ex1, ed1, ex2, ed2 = (int(tok) for tok in args.pair.split(","))
    out = double_cover_euler(KummerData(ex1, ed1), KummerData(ex2, ed2))
    _json_out({"e_cover": out.e_cover, "e_branch": out.e_branch})
    return 0


def cmd_suite(args) -> int:
    reports = run_suite(args.name, pmax=args.pmax, brute_max=args.brute_max, threads=args.threads)
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

    def common(p, pmax_default=100):
        p.add_argument("--json", action="store_true", help="JSON output (default)")
        p.add_argument("--csv", action="store_true", help="CSV output where supported")
        p.add_argument("--threads", type=int, default=1, metavar="K")
        p.add_argument("--pmax", type=int, default=pmax_default, metavar="P")

    p = sub.add_parser("eta-expand", help="expand an eta product")
    p.add_argument("factors", help="comma list m:k, e.g. 8:2,4:2 for eta(q^8)^2 eta(q^4)^2")
    p.add_argument("-N", "--precision", type=int, default=50)
    p.add_argument("--csv", action="store_true")
    p.set_defaults(func=cmd_eta_expand)

    p = sub.add_parser("cm-coeffs", help="prime coefficients of a CM family form")
    p.add_argument("--field", choices=("i", "zeta3"), required=True)
    p.add_argument("--weight", type=int, required=True)
    common(p)
    p.set_defaults(func=cmd_cm_coeffs)

    p = sub.add_parser("gross-normalize", help="normalized prime element above a split p")
    p.add_argument("p", type=int)
    p.add_argument("--field", choices=("i", "zeta3"), default="i")
    p.set_defaults(func=cmd_gross_normalize)

    p = sub.add_parser("elliptic-ap", help="Frobenius traces of y^2 = x^3 + Ax + B")
    p.add_argument("--curve", required=True, metavar="A,B")
    common(p)
    p.set_defaults(func=cmd_elliptic_ap)

    p = sub.add_parser("verify-ahlgren", help="check the fivefold count identity")
    common(p)
    p.add_argument("--brute-max", type=int, default=None, metavar="Q")
    p.set_defaults(func=cmd_verify_ahlgren)

    p = sub.add_parser("tensor-factor", help="tensor-product Euler factor identity")
    p.add_argument("--forms", default="g4,g3")
    common(p)
    p.set_defaults(func=cmd_tensor_factor)

    p = sub.add_parser("classify-arrangement", help="intersection-lattice classification")
    p.add_argument("file", help="arrangement file, or bundled name: ahlgren | octic | sextic")
    p.add_argument("--json", action="store_true")
    p.add_argument("--csv", action="store_true")
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
    common(p)
    p.add_argument("--brute-max", type=int, default=13, metavar="Q")
    p.set_defaults(func=cmd_suite)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
