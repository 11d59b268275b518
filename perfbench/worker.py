"""One iteration of one workload, in a fresh interpreter.

    python3 perfbench/worker.py --workload lattice --seed 7 --trace 0 --spawned-at T

run.py starts one worker per sample, so the curve-trace cache and the
import cost are paid cold every time, as every CLI invocation pays them.
The worker builds the seeded inputs (set-up), runs the operations (timed),
and prints one JSON line with its measurements.  `--spawned-at` is the
parent's time.monotonic() just before the spawn; CLOCK_MONOTONIC is shared
by all processes, so set-up time includes interpreter start.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(SRC))
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from tracing import OP_SPAN, Tracer  # noqa: E402

#: per-layer counts read off the number of spans of one name
SPAN_COUNTS = {"arrangement.modp_calls": "arrangement.modp", "cmforms.ap_calls": "cmforms.ap"}


def cpu_seconds() -> float:
    """User + system CPU of this process and of its waited-for children."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def peak_rss_mib() -> float:
    # ru_maxrss is in KiB on Linux; for suite-cli the CLI child is the peak
    kib = max(resource.getrusage(who).ru_maxrss for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    return kib / 1024


def run_ops(ops, tracer) -> list[dict]:
    """Run every operation; return the failed ones.  Never raises."""
    failures = []
    for op_id, (label, fn) in enumerate(ops):
        tracer.op = op_id
        try:
            with tracer.span(OP_SPAN):
                ok = bool(fn())
            error = None if ok else "output disagrees with the oracle"
        except Exception as exc:  # a layer that raises is a failed check, not a crash
            ok, error = False, f"{type(exc).__name__}: {exc}"
        if not ok:
            failures.append({"op": label, "error": error})
    return failures


def run_iteration(workload: str, seed: int, trace: bool, spawned_at: float) -> dict:
    tracer = Tracer(trace)
    work = workloads.BUILDERS[workload](seed, tracer)
    ready = time.monotonic()
    cpu0 = cpu_seconds()
    t0 = time.perf_counter()
    failures = run_ops(work.ops, tracer)
    wall = time.perf_counter() - t0
    cpu = cpu_seconds() - cpu0
    module = sys.modules.get("cyarith")
    if module is not None and not Path(module.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"cyarith was imported from {module.__file__}, not from {SRC}")
    out = {
        "setup_s": ready - spawned_at,
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mib": peak_rss_mib(),
        "attempted": len(work.ops),
        "failed": len(failures),
        "failures": failures,
        "inputs": work.inputs,
    }
    if trace:
        span_counts = tracer.span_counts()
        counts = dict(work.counts)
        counts.update(tracer.counts)
        counts.update({metric: span_counts.get(name, 0) for metric, name in SPAN_COUNTS.items()})
        out.update(self_times=tracer.self_times(), counts=counts, spans=tracer.spans)
    return out


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, required=True)
    args = parser.parse_args()
    result = run_iteration(args.workload, args.seed, bool(args.trace), args.spawned_at)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
