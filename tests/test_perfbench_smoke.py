"""Smoke test of the benchmark harness: ``perfbench/run.py --tiny`` runs and checks its outputs.

The harness binds dynloc's functions by name to time and trace them, so a
rename or a broken workload shows up here rather than only in a full
benchmark run.  ``gm_backtrack`` with tracing covers the tracer hooks, the
engine, backtracking and Gauss-Markov traces; ``rwp_stock`` covers the
process pool; ``rwp_events`` with tracing covers the event-log writer.  Each
traced run must also time its trace generator.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


# The generator span each traced workload must record.  The harness wraps the
# generators where ``dynloc.experiments`` binds them, so a trace builder that
# stops calling them through those module globals leaves the span at zero.
_GENERATOR_SPANS = {"gm_backtrack": "mobility.gm_ms.p50", "rwp_events": "mobility.rwp_ms.p50"}


@pytest.mark.parametrize(("workload", "trace"), [("gm_backtrack", "1"), ("rwp_stock", "0"), ("rwp_events", "1")])
def test_tiny_benchmark_run_is_correct(workload, trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--tiny", "--seconds", "0", "--workload", workload, "--trace", trace],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    if trace == "1":
        assert result["metrics"][_GENERATOR_SPANS[workload]]["value"] > 0
