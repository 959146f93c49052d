"""Smoke tests of the ledger benchmark (not part of tier-1's testpaths).

Run from the repository root::

    PYTHONPATH=src python -m pytest benchmarks/ledger/test_ledger.py --smoke

Without ``--smoke`` every test is skipped.  With it, every workload
named in ``BENCHMARK.json`` runs for ~2 s, untraced and traced, and the
test checks
that the printed metric and workload names match ``BENCHMARK.json``,
that every correctness check passes, and that the traced run's spans
cover at least 90% of the measured wall time.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SMOKE_SECONDS = 2
MIN_COVERAGE = 0.9
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


@pytest.fixture
def smoke(request):
    if not request.config.getoption("--smoke"):
        pytest.skip("needs --smoke")


def _ledger(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "benchmarks" / "ledger" / "run.py"), *args],
        cwd=cwd,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        timeout=600,
    )


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke(smoke, workload, tmp_path):
    out = tmp_path / "record.json"
    proc = _ledger(
        ROOT, "--workload", workload, "--seconds", str(SMOKE_SECONDS),
        "--trace", "1", "--out", str(out),
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    (record,) = json.loads(out.read_text())["runs"]
    failed = {n: c["detail"] for n, c in record["checks"].items() if not c["ok"]}
    assert not failed

    printed = proc.stdout
    assert f"== {workload} " in printed
    for metric in BENCH["end_to_end"] + BENCH["per_layer"]:
        assert f"  {metric['name']} " in printed
    assert list(record["metrics"]) == [m["name"] for m in BENCH["end_to_end"]]
    assert list(record["layers"]) == [m["name"] for m in BENCH["per_layer"]]
    assert all(m["value"] > 0 for m in record["metrics"].values())

    last = json.loads(printed.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["attempted"] >= 1 and last["failed"] == 0
    assert list(last["metrics"]) == [m["name"] for m in BENCH["per_layer"]]
    assert last["metrics"]["trace.coverage"]["value"] >= MIN_COVERAGE


def test_refuses_without_program(smoke, tmp_path):
    """A checkout holding only the benchmark exits non-zero, printing no result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(
        HERE, tmp_path / "benchmarks" / "ledger",
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    proc = _ledger(tmp_path, "--workload", WORKLOADS[0], "--seconds", "1")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
