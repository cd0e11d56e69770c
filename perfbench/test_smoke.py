"""Smoke tests of the benchmark harness on tiny inputs (``run.py --smoke``).

    python -m pytest -q perfbench

Each case runs the harness in a child process, as the benchmark is run,
and checks that every metric named in BENCHMARK.json is printed with a
numeric value, that all output checks pass, and that exact counters repeat.
"""

import functools
import json
import subprocess
import sys
from pathlib import Path

import pytest

from run import EXACT

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(workload: str, trace: int, seed: int = 7) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, timeout=120, cwd=HERE.parent,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


run = functools.lru_cache(maxsize=None)(_run)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_has_a_value(workload, trace):
    result = run(workload, trace)
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    metrics = result["metrics"]
    for spec in SPEC["per_layer"] if trace else SPEC["end_to_end"]:
        assert isinstance(metrics[spec["name"]]["value"], (int, float)), spec["name"]


@pytest.mark.parametrize("workload", ["separate-gsvd", "scan"])
def test_exact_counters_repeat_across_processes(workload):
    first, again = run(workload, 1)["metrics"], _run(workload, 1)["metrics"]
    assert {k: first[k]["value"] for k in EXACT} == {k: again[k]["value"] for k in EXACT}


def test_peak_repeats_across_processes():
    # tracemalloc also counts the interpreter's own small objects, which
    # vary by a few hundred bytes between processes; numpy's buffers do not.
    first = run("separate-svd", 0)["metrics"]["peak_mib"]["value"]
    again = _run("separate-svd", 0)["metrics"]["peak_mib"]["value"]
    assert abs(first - again) * 2 ** 20 <= 4096


def test_counters_match_the_workload():
    svd = run("separate-svd", 1)["metrics"]
    gsvd = run("separate-gsvd", 1)["metrics"]
    scan = run("scan", 1)["metrics"]
    assert (svd["lapack.svd_calls"]["value"], svd["lapack.qr_calls"]["value"]) == (1, 0)
    assert (gsvd["lapack.svd_calls"]["value"], gsvd["lapack.qr_calls"]["value"]) == (2, 2)
    assert scan["image.windows"]["value"] == scan["lapack.svd_calls"]["value"] == (48 - 5 + 1) ** 2
    assert scan["linalg.basis_mib"]["value"] == 0
