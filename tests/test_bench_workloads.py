"""Every benchmark workload in `perfbench/` passes its exact oracles.

Each workload is built at one seed and its operations run untraced, as
the benchmark worker runs them, so a change to `cyarith` that breaks a
benchmark oracle fails here too.  About 3 s in all.
"""

import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
if str(PERFBENCH) not in sys.path:
    sys.path.insert(0, str(PERFBENCH))

import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402
from worker import run_ops  # noqa: E402

SEED = 1


@pytest.mark.parametrize("name", sorted(workloads.BUILDERS))
def test_workload_oracles_pass(name):
    tracer = Tracer(False)
    work = workloads.BUILDERS[name](SEED, tracer)
    assert work.ops
    assert run_ops(work.ops, tracer) == []
