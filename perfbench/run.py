"""Benchmark for cyarith: four seeded workloads, exact oracles, per-layer spans.

    python3 perfbench/run.py --workload lattice --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; cyarith is imported from ./src.
The run starts one fresh interpreter (perfbench/worker.py) per sample, one
at a time, until the next sample would end after --seconds; at least one
sample is always taken.  With --trace 0 the samples are untraced and the
end-to-end metrics are medians over them.  With --trace 1 untraced and
traced samples alternate; the per-layer metrics are medians over the traced
ones, and trace.overhead_s is the median wall-time difference between each
traced sample and the untraced one just before it.
On suite-cli both kinds of sample of a traced run replay the CLI in-process
(workload suite-replay), so that the overhead compares like with like.

Between samples this process times fixed pure-Python loops (`reference`).
The shared 2-core VM the benchmark was built on changes speed by up to 30%
for tens of seconds to minutes at a time, which moved 30-second medians of
raw wall time by 12-34% (interquartile range over ten seeds).  wall_ref and
cpu_ref divide each sample's time by the loops' time measured just before
and just after it, which cancels most of that drift.  setup_s is divided
the same way and multiplied back by REFERENCE_S, so it reads in seconds of
a machine on which the loops take REFERENCE_S.  Raw seconds are still
printed in the provenance line.  The loops run here, in a process that
never imports cyarith, so no change to the program can alter them.

The last line of standard output is one JSON object:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
The line before it holds the provenance (commit, seed, Python, CPU counts,
sample counts per metric).  Every sample, and with --trace 1 every span, is
written to .perfbench/<workload>-seed<seed>-trace<t>.json.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKER = HERE / "worker.py"
OUT_DIR = ROOT / ".perfbench"

WORKLOADS = ("lattice", "modular", "fivefold", "suite-cli")
#: worker workload that a traced run uses instead, for traced and untraced samples
TRACE_VARIANT = {"suite-cli": "suite-replay"}
#: every sample must end by then, so that the run ends within 180 s
HARD_LIMIT_S = 160.0

#: iterations of the two reference loops, about 0.1 s each on the 2-core VM
REFERENCE_INT_STEPS = 1_000_000
REFERENCE_FRACTION_STEPS = 50_000
#: nominal time of the two loops: setup_s is set-up time at this speed
REFERENCE_S = 0.25

END_TO_END = {
    "wall_ref": "ref",
    "cpu_ref": "ref",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
    "pass_ratio": "ratio",
}
#: span names around the calls into each layer; metric <name>_s is self time
LAYER_SPANS = (
    "arrangement.poset",
    "arrangement.classify",
    "arrangement.schedule",
    "arrangement.good_reduction",
    "arrangement.modp",
    "qseries.eta_expand",
    "qseries.hecke_expand",
    "cmforms.ap",
    "cmforms.normalize",
    "pointcount.verify_ahlgren",
    "pointcount.ahlgren_fast",
    "tensor.g4xg3",
    "tensor.power_factorization",
    "suites.eta",
    "suites.cm",
    "suites.tensor",
    "suites.ahlgren",
    "suites.arrangement",
    "suites.euler",
    "report.json",
    "cli.import",
)
#: exact work counts; they must repeat on every sample of one seed
COUNTS = (
    "arrangement.flats",
    "arrangement.minors",
    "arrangement.modp_calls",
    "arrangement.modp_equal",
    "qseries.eta_coeffs",
    "cmforms.ap_calls",
    "pointcount.curve_trace_evals",
    "pointcount.ahlgren_primes",
    "pointcount.char_evals",
    "pointcount.brute_points",
    "tensor.checks",
)
PER_LAYER = {
    **{f"{name}_s": "s" for name in LAYER_SPANS},
    **{name: "count" for name in COUNTS},
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "trace.covered_share": "ratio",
}


class BenchError(Exception):
    pass


def run_worker(workload: str, seed: int, trace: bool, deadline: float) -> dict:
    """One sample in a fresh interpreter."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    start = time.monotonic()
    cmd = [sys.executable, str(WORKER), "--workload", workload, "--seed", str(seed)]
    cmd += ["--trace", str(int(trace)), "--spawned-at", repr(start)]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=max(deadline - start, 1.0)
        )
    except subprocess.TimeoutExpired as exc:  # subprocess.run has killed and reaped it
        raise BenchError(f"{workload} sample did not finish within {exc.timeout:.0f} s") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def reference() -> float:
    """Seconds taken by fixed integer and Fraction loops: the machine's speed now.

    The two loops mirror the two kinds of work the workloads do: integer
    arithmetic (eta products, character sums) and allocation-heavy
    Fraction arithmetic (rational row reduction), which slow down by
    different amounts when the machine is busy.  They are single-threaded
    and CPU-bound, so their wall time is their CPU time; both wall_ref and
    cpu_ref divide by the wall time, which gave the narrower spread of the
    two on the 2-core VM.
    """
    start = time.perf_counter()
    x = 0
    for i in range(REFERENCE_INT_STEPS):
        x = (x * 31 + i) % 1000003
    acc = Fraction(0)
    for i in range(1, REFERENCE_FRACTION_STEPS):
        acc += Fraction(i % 7 - 3, i % 5 + 1)
    return time.perf_counter() - start


def collect(workload: str, seed: int, seconds: float, trace: bool) -> tuple[list[dict], list[dict]]:
    """Untraced and traced samples, alternating when tracing.

    Each sample is bracketed by two reference timings; ref_s is their mean.
    """
    begin = time.monotonic()
    hard_deadline = begin + HARD_LIMIT_S
    plain, traced, durations = [], [], []
    name = TRACE_VARIANT.get(workload, workload) if trace else workload
    before = reference()
    while True:
        for is_traced in (False, True) if trace else (False,):
            start = time.monotonic()
            sample = run_worker(name, seed, is_traced, hard_deadline)
            after = reference()
            sample["ref_s"] = (before + after) / 2
            before = after
            (traced if is_traced else plain).append(sample)
            durations.append(time.monotonic() - start)
        step = statistics.median(durations) * (2 if trace else 1)
        now = time.monotonic()
        if now + step > min(begin + seconds, hard_deadline):
            return plain, traced


def median(samples: list[dict], key: str) -> float:
    return statistics.median(s[key] for s in samples)


def end_to_end_metrics(plain: list[dict]) -> dict[str, float]:
    attempted = sum(s["attempted"] for s in plain)
    failed = sum(s["failed"] for s in plain)
    return {
        "wall_ref": statistics.median(s["wall_s"] / s["ref_s"] for s in plain),
        "cpu_ref": statistics.median(s["cpu_s"] / s["ref_s"] for s in plain),
        "setup_s": REFERENCE_S * statistics.median(s["setup_s"] / s["ref_s"] for s in plain),
        "peak_rss_mib": median(plain, "peak_rss_mib"),
        "pass_ratio": (attempted - failed) / attempted,
    }


def per_layer_metrics(plain: list[dict], traced: list[dict]) -> tuple[dict[str, float], bool]:
    """Layer metrics and whether the exact counts repeated on every sample."""
    out = {}
    for name in LAYER_SPANS:
        out[f"{name}_s"] = statistics.median(s["self_times"].get(name, 0.0) for s in traced)
    counts = [tuple(s["counts"].get(name, 0) for name in COUNTS) for s in traced]
    out.update(zip(COUNTS, counts[0]))
    trace_wall = median(traced, "wall_s")
    out["trace.wall_s"] = trace_wall
    # pairs of neighbouring samples, so that drift in machine speed cancels
    out["trace.overhead_s"] = statistics.median(t["wall_s"] - p["wall_s"] for p, t in zip(plain, traced))
    out["trace.covered_share"] = statistics.median(
        sum(s["self_times"].get(name, 0.0) for name in LAYER_SPANS) / s["wall_s"] for s in traced
    )
    return out, len(set(counts)) == 1


def commit() -> str | None:
    if not (ROOT / ".git").exists():  # an exported checkout; never ask an enclosing repository
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def source_digest() -> str:
    """sha256 over src/cyarith, which identifies the code when git cannot."""
    h = hashlib.sha256()
    for path in sorted((SRC / "cyarith").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(SRC)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def provenance(args, plain: list[dict], traced: list[dict], metrics: dict[str, float]) -> dict:
    units = PER_LAYER if args.trace else END_TO_END
    samples = {name: len(traced) if args.trace else len(plain) for name in metrics}
    if args.trace:
        samples["trace.overhead_s"] = min(len(traced), len(plain))
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "traced": bool(args.trace),
        "commit": commit(),
        "src_sha256": source_digest(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "os_cpu_count": os.cpu_count(),
        "nproc": len(os.sched_getaffinity(0)),
        "samples": {"untraced": len(plain), "traced": len(traced)},
        "metrics": {name: {"unit": units[name], "samples": samples[name]} for name in metrics},
        "untraced_seconds": {name: median(plain, name) for name in ("wall_s", "cpu_s", "setup_s", "ref_s")},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description="cyarith benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "cyarith" / "__init__.py").is_file():
        print(f"error: no cyarith sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    try:
        plain, traced = collect(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    samples = plain + traced
    attempted = sum(s["attempted"] for s in samples)
    failed = sum(s["failed"] for s in samples)
    for failure in [f for s in samples for f in s["failures"]][:20]:
        print(f"failed check: {failure['op']}: {failure['error']}", file=sys.stderr)
    if args.trace:
        metrics, counts_repeat = per_layer_metrics(plain, traced)
        if not counts_repeat:
            print("error: exact counts differ between samples of one seed", file=sys.stderr)
    else:
        metrics, counts_repeat = end_to_end_metrics(plain), True

    prov = provenance(args, plain, traced, metrics)
    OUT_DIR.mkdir(exist_ok=True)
    out_file = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps({"provenance": prov, "metrics": metrics, "untraced": plain, "traced": traced}))

    units = PER_LAYER if args.trace else END_TO_END
    print(json.dumps({"provenance": prov}))
    print(
        json.dumps(
            {
                "correct": failed == 0 and counts_repeat,
                "attempted": attempted,
                "failed": failed,
                "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
