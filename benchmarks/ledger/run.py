"""The end-to-end ledger: one command, every metric, checked answers.

Usage, from the repository root::

    python3 benchmarks/ledger/run.py [--workload NAME] [--seed N]
        [--seconds S] [--trace [0|1]] [--out FILE]

(``PYTHONPATH=src`` is optional: the script puts the checkout's
``src`` first on the path of every process it starts.)

Each workload runs in a fresh child process (``workloads.py``).  The
untraced run prints every end-to-end metric by name with its unit.
``--trace`` runs each workload twice, untraced and then traced, and
prints the per-layer metrics of the traced run, the tracing overhead
between the two, and where the span file was written.  End-to-end
metrics only ever come from untraced runs.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With one
``--workload`` the metric names are bare; with several they are
prefixed ``<workload>.``.  The exit code is 1 when any correctness
check fails, and 2 when the checkout has no program to measure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SRC = ROOT / "src"

DEFAULT_SEED = 1
DEFAULT_SECONDS = 20
CHILD_TIMEOUT_S = 600


def load_bench() -> dict:
    """``BENCHMARK.json``: the workloads, and the metrics with their units."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_child(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    """Run one workload in a fresh interpreter; return its JSON record."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p
    )
    cmd = [
        sys.executable,
        str(HERE / "workloads.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", "1" if traced else "0",
    ]
    proc = subprocess.run(
        cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload}: workload process exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(bench: dict, workload: str, seed: int, seconds: float, traced: bool) -> dict:
    """One ledger row: the untraced run, plus the traced rerun if asked."""
    started = time.time()
    plain = run_child(workload, seed, seconds, traced=False)
    runs = [plain]
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(traced),
        "started_at": started,
        "ingest_rates": plain["ingest_rates"],
        "setup_times": plain["setup_times"],
        "latency_samples": plain["samples"],
        "metrics": {
            m["name"]: {"value": plain["metrics"][m["name"]], "unit": m["unit"]}
            for m in bench["end_to_end"]
        },
    }
    if traced:
        traced_run = run_child(workload, seed, seconds, traced=True)
        runs.append(traced_run)
        layers = dict(traced_run["layers"])
        layers["trace.overhead"] = plain["rate"] / traced_run["rate"] - 1.0
        record["layers"] = {
            m["name"]: {"value": layers[m["name"]], "unit": m["unit"]}
            for m in bench["per_layer"]
        }
        record["spans_file"] = traced_run["spans_file"]
    checks = {}
    for index, run in enumerate(runs):
        for name, check in run["checks"].items():
            checks[f"{name}[{'traced' if index else 'plain'}]"] = check
    bad = [
        name for name, m in record["metrics"].items()
        if not (m["value"] > 0 and math.isfinite(m["value"]))
    ]
    checks["metrics.positive"] = {
        "ok": not bad, "count": len(record["metrics"]), "detail": f"not > 0: {bad}"
    }
    record["checks"] = checks
    record["attempted"] = sum(r["attempted"] for r in runs)
    record["failed"] = sum(r["failed"] for r in runs)
    record["correct"] = all(c["ok"] for c in checks.values())
    return record


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def report(record: dict) -> None:
    """Human-readable table for one workload."""
    print(f"== {record['workload']} (seed {record['seed']}, {record['seconds']:g} s) ==")
    for name, metric in record["metrics"].items():
        print(f"  {name:<36} {_fmt(metric['value']):>14} {metric['unit']}")
    if "layers" in record:
        print("  -- per layer (traced run) --")
        for name, metric in record["layers"].items():
            print(f"  {name:<36} {_fmt(metric['value']):>14} {metric['unit']}")
        print(f"  spans: {record['spans_file']}")
    print(f"  latency samples: {record['latency_samples']}")
    failed = {n: c for n, c in record["checks"].items() if not c["ok"]}
    print(
        f"  checks: {len(record['checks']) - len(failed)}/{len(record['checks'])} passed; "
        f"{record['failed']} of {record['attempted']} operations failed"
    )
    for name, check in failed.items():
        print(f"  FAILED {name}: {check['detail']}")


def main(argv: List[str] = None) -> int:
    bench = load_bench()
    workloads = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads, help="default: all of them")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
        help="also run traced and report per-layer metrics",
    )
    parser.add_argument("--out", help="write the full records here as JSON")
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"no program to measure: {SRC / 'repro'} is missing", file=sys.stderr)
        return 2

    names = [args.workload] if args.workload else workloads
    records = []
    for name in names:
        record = measure(bench, name, args.seed, args.seconds, bool(args.trace))
        report(record)
        records.append(record)

    if args.out:
        Path(args.out).write_text(json.dumps({"runs": records}, indent=2))
    key = "layers" if args.trace else "metrics"
    metrics: Dict[str, dict] = {}
    for record in records:
        prefix = "" if len(records) == 1 else f"{record['workload']}."
        for name, metric in record[key].items():
            metrics[prefix + name] = metric
    correct = all(r["correct"] for r in records)
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": sum(r["attempted"] for r in records),
                "failed": sum(r["failed"] for r in records),
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
