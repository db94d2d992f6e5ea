"""The traced query benchmarks run as a short subprocess each, so a change to
the query path that the benchmark's oracle refuses fails here. A traced run
does a fixed amount of work, so these take under a second each."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["query-static", "query-churn"])
def test_traced_query_benchmark_runs_correct(workload):
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload]
        + ["--seed", "1", "--seconds", "1", "--trace", "1"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] is True, done.stdout
    assert result["failed"] == 0, done.stdout
    assert result["attempted"] > 0
