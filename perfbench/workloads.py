"""The four benchmark workloads: seeded inputs, operations and oracles.

A builder turns a seed into inputs and returns a `Workload`: a list of
operations plus the exact counts that follow from the input sizes alone.
An operation is a `(label, callable)` pair.  The callable makes the timed
calls into cyarith and returns True when the output agrees with an oracle
that shares no code with those calls; a raised exception is also a failed
check (the runner in worker.py catches it per operation).

cyarith is imported inside the builders rather than at module level, so
that the traced suite-cli replay can time the cold `import cyarith.cli`.
Only public functions are called, with default arguments apart from sizes.
"""

from __future__ import annotations

import dataclasses
import importlib
import json
import os
import random
import subprocess
import sys
from math import comb, gcd, isqrt
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


@dataclasses.dataclass
class Workload:
    ops: list  # [(label, callable returning bool)]
    counts: dict[str, int]  # exact counts computed from the inputs
    inputs: dict  # what the seed chose, recorded with the result


# ---------------------------------------------------------------------------
# Arithmetic the oracles need, written here so that no oracle shares code
# with the cyarith path it checks


def primes_in(lo: int, hi: int) -> list[int]:
    """Primes p with lo < p <= hi."""
    sieve = bytearray([1]) * (hi + 1)
    sieve[: min(2, hi + 1)] = b"\x00" * min(2, hi + 1)
    for i in range(2, isqrt(hi) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytearray(len(range(i * i, hi + 1, i)))
    return [p for p in range(lo + 1, hi + 1) if sieve[p]]


def is_prime(n: int) -> bool:
    return n >= 2 and all(n % d for d in range(2, isqrt(n) + 1))


def lucas_trace(t: int, p: int, m: int) -> int:
    """alpha^m + conj(alpha)^m for alpha + conj(alpha) = t, alpha conj(alpha) = p."""
    prev, cur = 2, t
    if m == 0:
        return prev
    for _ in range(m - 1):
        prev, cur = cur, t * cur - p * prev
    return cur


def ahlgren_closed_form(p: int, ap: int) -> int:
    return p**5 + 2 * p**3 - 4 * p**2 - 9 * p - 1 - ap


def primitive(v) -> tuple[int, ...] | None:
    """v divided by its content, first nonzero entry positive; None for 0."""
    g = 0
    for c in v:
        g = gcd(g, c)
    if g == 0:
        return None
    v = [c // g for c in v]
    sign = 1 if next(c for c in v if c) > 0 else -1
    return tuple(sign * c for c in v)


# ---------------------------------------------------------------------------
# lattice: random integer arrangements plus the bundled octic and sextic

#: (ambient dimension n, number of hyperplanes N); every shape appears
#: LATTICE_REPS times, so the work per seed varies only with the
#: coefficients and not with the mix of shapes
LATTICE_SHAPES = ((2, 7), (2, 8), (2, 9), (3, 7), (3, 8), (3, 9), (4, 7))
LATTICE_REPS = 2
LATTICE_COEFF = 2  # coefficients uniform in [-2, 2]
MODP_PRIMES = (3, 5, 7)

#: bundled arrangement -> (number of flats, classify(...).census) at the
#: commit that introduced the benchmark; agrees with tests/golden
BUNDLED_CENSUS = {
    "octic": (43, ((1, 2, 22), (1, 3, 2), (0, 3, 9), (0, 4, 4), (0, 4, 4), (0, 5, 2))),
    "sextic": (7, ((0, 2, 3), (0, 3, 4))),
}


def random_arrangement_rows(rng: random.Random, n: int, count: int) -> list[list[int]]:
    rows, seen = [], set()
    while len(rows) < count:
        v = [rng.randint(-LATTICE_COEFF, LATTICE_COEFF) for _ in range(n + 1)]
        key = primitive(v)
        if key is None or key in seen:
            continue
        seen.add(key)
        rows.append(v)
    return rows


def minors_count(n: int, count: int) -> int:
    """Square minors of a count x (n+1) matrix, all sizes."""
    return sum(comb(count, k) * comb(n + 1, k) for k in range(1, min(count, n + 1) + 1))


def build_lattice(seed: int, tracer, census=BUNDLED_CENSUS) -> Workload:
    from cyarith.arrangement import Arrangement
    from cyarith.registry import load_bundled_arrangement

    rng = random.Random(seed)
    arrangements = []
    for n, count in LATTICE_SHAPES:
        for rep in range(LATTICE_REPS):
            rows = random_arrangement_rows(rng, n, count)
            arrangements.append((f"P{n}x{count}#{rep}", Arrangement.from_rows(n, rows), None))
    for name, expected in census.items():
        arrangements.append((name, load_bundled_arrangement(name), expected))

    ops = []
    for label, arr, expected in arrangements:
        ops.extend(arrangement_ops(label, arr, tracer, expected))
    counts = {"arrangement.minors": sum(minors_count(a.dim, a.size) for _, a, _ in arrangements)}
    inputs = {"arrangements": [[label, a.dim, [list(h.coeffs) for h in a.hyperplanes]] for label, a, _ in arrangements]}
    return Workload(ops, counts, inputs)


def arrangement_ops(label: str, arr, tracer, expected=None) -> list:
    from cyarith.arrangement import (
        classify,
        good_reduction_report,
        intersection_poset,
        poset_matches_mod_p,
        resolution_schedule,
    )

    state: dict = {}

    def poset() -> bool:
        with tracer.span("arrangement.poset"):
            flats = intersection_poset(arr)
        state["poset"] = flats
        tracer.count("arrangement.flats", len(flats))
        # a flat is cut out by >= 2 of the hyperplanes and is nonempty
        return len({s.hyperplanes for s in flats}) == len(flats) and all(
            s.mult >= 2 and 0 <= s.dim <= arr.dim - 2 for s in flats
        )

    def classification() -> bool:
        flats = state["poset"]
        with tracer.span("arrangement.classify"):
            cls = classify(arr, flats)
        ok = sum(r.count for r in cls.rows) == len(flats) and cls.resolvable == (not cls.violators)
        if cls.resolvable:
            with tracer.span("arrangement.schedule"):
                steps = resolution_schedule(arr, flats)
            dims = [step.stratum.dim for step in steps]
            ok = ok and dims == sorted(dims)
        if expected is not None:
            ok = ok and (len(flats), cls.census) == expected
        return ok

    def reduction() -> bool:
        with tracer.span("arrangement.good_reduction"):
            rep = good_reduction_report(arr)
        state["exceptional"] = set(rep.exceptional_odd_primes)
        largest_entry = max(abs(c) for h in arr.hyperplanes for c in h.coeffs)
        # the 1x1 minors are the entries themselves
        return rep.max_abs_minor >= largest_entry and rep.all_unimodular == (rep.max_abs_minor <= 1)

    def compare_mod(p: int) -> bool:
        with tracer.span("arrangement.modp"):
            cmp = poset_matches_mod_p(arr, p, state["poset"])
        state[p] = cmp.equal
        tracer.count("arrangement.modp_equal", int(cmp.equal))
        return cmp.equal

    def modp(p: int):
        def op() -> bool:
            equal = compare_mod(p)
            # a prime dividing no nonzero minor keeps the rank of every set of
            # hyperplanes, so the F_p poset must then equal the rational one
            return equal or p in state["exceptional"]

        return op

    def oracle() -> bool:
        q = next(q for q in range(3, 10**6, 2) if is_prime(q) and q not in state["exceptional"])
        return state[q] if q in state else compare_mod(q)

    ops = [(f"{label}:poset", poset), (f"{label}:classify", classification), (f"{label}:good-reduction", reduction)]
    ops += [(f"{label}:mod-{p}", modp(p)) for p in MODP_PRIMES]
    ops.append((f"{label}:oracle-prime", oracle))
    return ops


# ---------------------------------------------------------------------------
# modular: eta products against Hecke expansions, CM families, tensor checks

#: (eta factors (m, k), weight, level, nebentypus discriminant or None)
ETA_POOL = (
    (((1, 24),), 12, 1, None),
    (((2, 12),), 6, 4, None),
    (((3, 8),), 4, 9, None),
    (((4, 6),), 3, 16, -4),
    (((6, 4),), 2, 36, None),
    (((1, 2), (11, 2)), 2, 11, None),
    (((1, 4), (5, 4)), 4, 5, None),
    (((1, 3), (7, 3)), 3, 7, -7),
    (((1, 6), (3, 6)), 6, 3, None),
    (((1, 8), (2, 8)), 8, 2, None),
    (((2, 4), (4, 4)), 4, 8, None),
    (((2, 2), (10, 2)), 2, 20, None),
    (((4, 2), (8, 2)), 2, 32, None),
    (((3, 2), (9, 2)), 2, 27, None),
)
#: every product is expanded on every seed, so single-factor powers and
#: multi-factor products are always both present; the seed draws each
#: precision from this narrow window, which keeps the work per seed within
#: a few percent (a proper subset of the pool would swing it by +-20%)
ETA_PRECISION = (2000, 2100)
CM_PRECISION = 6000
CM_WEIGHTS = range(2, 8)
TENSOR_PMAX = 300
TENSOR_POWERS = range(2, 7)
#: eta product == CM form (family, weight): the registry identities
CM_ETA_IDENTITIES = (
    (((4, 2), (8, 2)), "gaussian", 2),
    (((4, 6),), "gaussian", 3),
    (((3, 2), (9, 2)), "eisenstein", 2),
    (((3, 8),), "eisenstein", 4),
)


def quadratic_character(disc: int | None):
    if disc is None:
        return lambda n: 1
    if disc == -4:
        return lambda n: 0 if n % 2 == 0 else (1 if n % 4 == 1 else -1)
    if disc == -7:  # (-7/n) = (n/7); the squares mod 7 are 1, 2, 4
        return lambda n: 0 if n % 7 == 0 else (1 if n % 7 in (1, 2, 4) else -1)
    raise ValueError(f"no character for discriminant {disc}")


def splits(family_name: str, p: int) -> bool:
    """p splits in Q(i) (gaussian) or Q(sqrt(-3)) (eisenstein)."""
    return p % 4 == 1 if family_name == "gaussian" else p % 3 == 1


def build_modular(seed: int, tracer) -> Workload:
    from cyarith import registry

    rng = random.Random(seed)
    precisions = [rng.randint(*ETA_PRECISION) for _ in ETA_POOL]
    families = {"gaussian": registry.GAUSSIAN_FAMILY, "eisenstein": registry.EISENSTEIN_FAMILY}
    cm_primes = primes_in(1, CM_PRECISION)
    split = {
        name: [p for p in cm_primes if splits(name, p) and p not in family.bad_primes]
        for name, family in families.items()
    }
    tensor_primes = primes_in(2, TENSOR_PMAX)
    state: dict = {}
    ops = []
    for (factors, weight, level, disc), precision in zip(ETA_POOL, precisions):
        ops.append((f"eta{factors}", eta_op(factors, weight, level, disc, precision, state, tracer)))
    for name, family in families.items():
        ops.append((f"cm-normalize:{name}", normalize_op(name, family, split[name], state, tracer)))
        for weight in CM_WEIGHTS:
            ops.append((f"cm:{name}:w{weight}", cm_op(name, family, weight, cm_primes, state, tracer)))
    for (name, weight), printed in registry.PRINTED_CM_COEFFS.items():
        ops.append((f"cm-printed:{name}:w{weight}", printed_op(name, weight, printed, state)))
    for factors, name, weight in CM_ETA_IDENTITIES:
        ops.append((f"cm-eta:{name}:w{weight}", identity_op(factors, name, weight, state)))
    ops.append(("tensor:g4xg3", g4xg3_op(tensor_primes, tracer)))
    for name, family in families.items():
        good = [p for p in tensor_primes if p not in family.bad_primes]
        for n in TENSOR_POWERS:
            ops.append((f"tensor:power:{name}:n{n}", power_op(name, family, n, good, tracer)))

    # each split good prime is traced once per curve, by a sum over p values
    counts = {"pointcount.curve_trace_evals": sum(sum(primes) for primes in split.values())}
    inputs = {"eta_precisions": {str(f): prec for (f, *_), prec in zip(ETA_POOL, precisions)}}
    return Workload(ops, counts, inputs)


def eta_op(factors, weight, level, disc, precision, state, tracer):
    from cyarith.qseries import EtaProduct, HeckeCoefficientSpec, hecke_expand

    def op() -> bool:
        with tracer.span("qseries.eta_expand"):
            series = EtaProduct(factors).expand(precision)
        tracer.count("qseries.eta_coeffs", precision)
        state[factors] = series
        bad = frozenset(p for p in primes_in(1, level) if level % p == 0)
        spec = HeckeCoefficientSpec(
            weight=weight,
            character=quadratic_character(disc),
            ap_source=series.coeff,
            bad_primes=bad,
            bad_values={p: series.coeff(p) for p in bad},
        )
        with tracer.span("qseries.hecke_expand"):
            hecke = hecke_expand(spec, precision)
        return series.values == hecke.values

    return op


def normalize_op(name, family, split, state, tracer):
    from cyarith.cmforms import normalize_prime_element

    def op() -> bool:
        with tracer.span("cmforms.normalize"):
            traces = {p: normalize_prime_element(p, family.field).trace for p in split}
        state[("normalized", name)] = traces
        return all(t * t <= 4 * p for p, t in traces.items())  # Hasse bound

    return op


def cm_op(name, family, weight, primes, state, tracer):
    from cyarith.qseries import hecke_expand

    def op() -> bool:
        spec = family.form(weight).hecke_spec()
        if tracer.enabled:
            spec = dataclasses.replace(spec, ap_source=tracer.wrap("cmforms.ap", spec.ap_source))
        with tracer.span("qseries.hecke_expand"):
            series = hecke_expand(spec, CM_PRECISION)
        state[(name, weight)] = series
        # the prime coefficient of the weight-k form is the (k-1)-st power
        # trace of the normalized prime element at split p, 0 elsewhere
        traces = state[("normalized", name)]
        for p in primes:
            want = lucas_trace(traces[p], p, weight - 1) if p in traces else 0
            if series.values[p] != want:
                return False
        return True

    return op


def printed_op(name, weight, printed, state):
    def op() -> bool:
        series = state[(name, weight)]
        return all(series.values[n] == c for n, c in printed.items())

    return op


def identity_op(factors, name, weight, state):
    def op() -> bool:
        eta, cm = state[factors], state[(name, weight)]
        top = eta.precision
        return eta.values[1 : top + 1] == cm.values[1 : top + 1]

    return op


def g4xg3_op(primes, tracer):
    from cyarith.tensor import verify_g4xg3

    def op() -> bool:
        with tracer.span("tensor.g4xg3"):
            rows = verify_g4xg3(TENSOR_PMAX)
        tracer.count("tensor.checks", len(rows))
        return [r.p for r in rows] == primes and all(r.equal for r in rows)

    return op


def power_op(name, family, n, primes, tracer):
    from cyarith.tensor import verify_power_factorization

    def op() -> bool:
        ok = True
        for p in primes:
            ap = None
            if splits(name, p):
                with tracer.span("cmforms.ap"):
                    ap = family.curve_ap(p)
            with tracer.span("tensor.power_factorization"):
                check = verify_power_factorization(ap, p, family.field, n)
            tracer.count("tensor.checks")
            ok = ok and check.equal and check.trace_identity and check.lhs.degree == 2**n
        return ok

    return op


# ---------------------------------------------------------------------------
# fivefold: the Ahlgren count identity, brute-force checked at small p

AHLGREN_PMAX = 400
AHLGREN_BRUTE_MAX = 13
#: primes sampled from (400, 1500], one from each of this many bins of
#: equal width in p^2, so the O(p^2) work per seed is nearly constant
SAMPLE_WINDOW = (400, 1500)
SAMPLE_BINS = 8


def sample_primes(rng: random.Random) -> list[int]:
    lo, hi = SAMPLE_WINDOW
    pool = primes_in(lo, hi)
    edges = [isqrt(lo * lo + (hi * hi - lo * lo) * i // SAMPLE_BINS) for i in range(SAMPLE_BINS + 1)]
    return [rng.choice([p for p in pool if a < p <= b]) for a, b in zip(edges, edges[1:])]


def build_fivefold(seed: int, tracer) -> Workload:
    from cyarith.pointcount import AHLGREN_ETA, ahlgren_count_fast, verify_ahlgren

    sample = sample_primes(random.Random(seed))
    verified = primes_in(2, AHLGREN_PMAX)
    precision = max(sample)
    state: dict = {}

    def eta() -> bool:
        with tracer.span("qseries.eta_expand"):
            series = AHLGREN_ETA.expand(precision)
        tracer.count("qseries.eta_coeffs", precision)
        state["series"] = series
        # eta(q^2)^12 = q prod (1 - q^2n)^12: leading 1, odd exponents only
        return series.values[1] == 1 and not any(series.values[2::2])

    def verify() -> bool:
        series = state["series"]
        with tracer.span("pointcount.verify_ahlgren"):
            rows = verify_ahlgren(AHLGREN_PMAX, brute_max=AHLGREN_BRUTE_MAX, eta_series=series)
        return [r.p for r in rows] == verified and all(
            r.count == ahlgren_closed_form(r.p, series.values[r.p])
            and (r.brute == r.count if r.p <= AHLGREN_BRUTE_MAX else r.brute is None)
            for r in rows
        )

    def sampled(p: int):
        def op() -> bool:
            with tracer.span("pointcount.ahlgren_fast"):
                count = ahlgren_count_fast(p)
            return count == ahlgren_closed_form(p, state["series"].values[p])

        return op

    ops = [("eta(q^2)^12", eta), (f"verify_ahlgren({AHLGREN_PMAX})", verify)]
    ops += [(f"count p={p}", sampled(p)) for p in sample]
    counted = verified + sample
    counts = {
        "pointcount.ahlgren_primes": len(counted),
        "pointcount.char_evals": sum(p * p for p in counted),
        "pointcount.brute_points": sum(p**5 for p in verified if p <= AHLGREN_BRUTE_MAX),
    }
    return Workload(ops, counts, {"sampled_primes": sample})


# ---------------------------------------------------------------------------
# suite-cli: `python -m cyarith.cli suite all --json`, the command users run

#: the sub-suites of `suite all`, in its order; the replay checks this
#: against cyarith.suites.SUITES
SUITE_NAMES = ("eta", "cm", "tensor", "ahlgren", "arrangement", "euler")
SUITE_EXIT_CODE = 2  # discrepancies against the transcribed table only
#: the one computed-vs-transcribed discrepancy: (row input, computed, printed)
SUITE_DISCREPANCIES = [["type (0,9) N2", 48, 21]]


def build_suite_cli(seed: int, tracer) -> Workload:
    """The suite as a CLI subprocess.  No random inputs: the seed is ignored."""
    state: dict = {}

    def cli() -> bool:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "cyarith.cli", "suite", "all", "--json"],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=150,
        )
        state["exit_code"] = proc.returncode
        state["payload"] = json.loads(proc.stdout)
        return True

    return Workload([("cyarith suite all --json", cli)] + suite_checks(state), {}, {})


def build_suite_replay(seed: int, tracer) -> Workload:
    """The work of suite-cli replayed in this fresh interpreter, for traced runs.

    Cold import of cyarith.cli, each sub-suite through run_suite, then
    reports_to_json, so each gets a span.  A traced run takes its untraced
    samples from this replay too, so that trace.overhead_s is tracing alone.
    """
    state: dict = {}

    def import_cli() -> bool:
        with tracer.span("cli.import"):
            module = importlib.import_module("cyarith.cli")
        state["reports"] = []
        return callable(module.main)

    def same_suites() -> bool:
        from cyarith.suites import SUITES

        return SUITE_NAMES == tuple(name for name in SUITES if name != "all")

    def suite(name: str):
        def op() -> bool:
            from cyarith.suites import run_suite

            with tracer.span(f"suites.{name}"):
                state["reports"].extend(run_suite(name))
            return True

        return op

    def to_json() -> bool:
        from cyarith.report import reports_to_json, suite_exit_code

        with tracer.span("report.json"):
            text = reports_to_json(state["reports"])
        state["exit_code"] = suite_exit_code(state["reports"])
        state["payload"] = json.loads(text)
        return True

    ops = [("import cyarith.cli", import_cli), ("sub-suites of suite all", same_suites)]
    ops += [(f"run_suite({name})", suite(name)) for name in SUITE_NAMES]
    ops.append(("reports_to_json", to_json))
    return Workload(ops + suite_checks(state), {}, {})


def suite_checks(state: dict) -> list:
    def exit_code() -> bool:
        return state["exit_code"] == SUITE_EXIT_CODE == state["payload"]["exit_code"]

    def rows_pass() -> bool:
        rows = [row for rep in state["payload"]["reports"] for row in rep["rows"]]
        return bool(rows) and all(row["ok"] for row in rows)

    def discrepancy() -> bool:
        found = [
            [row["input"], row["computed"], row["expected"]]
            for rep in state["payload"]["reports"]
            for row in rep["discrepancies"]
        ]
        return found == SUITE_DISCREPANCIES

    return [("exit code", exit_code), ("every row passes", rows_pass), ("single discrepancy", discrepancy)]


BUILDERS = {
    "lattice": build_lattice,
    "modular": build_modular,
    "fivefold": build_fivefold,
    "suite-cli": build_suite_cli,
    "suite-replay": build_suite_replay,
}
