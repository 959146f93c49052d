"""Apply the ledger's rule to sets of runs.

Usage, from the repository root::

    python3 benchmarks/ledger/compare.py PARENT [CHANGE]

``PARENT`` and ``CHANGE`` are each a directory of, or a comma-separated
list of, JSON files written by ``run.py --out``.  Runs pair up by
(workload, seed).

With one set it prints, for every (workload, metric) row, the median,
the quartiles and the spread (quartile distance over the median) next
to the metric's bound, the steadiness a benchmark needs.

With two sets it prints one verdict per row:

* ``improved`` — at least ten pairs, the change wins at least nine
  tenths of them (ties count for neither side), the medians differ by
  more than the parent's quartile distance, and the change has no more
  failed operations than the parent;
* ``regressed`` — the change's median is worse than the parent's by
  more than the metric's bound;
* ``unresolved`` — the parent's spread is wider than the bound (unless
  every change run beats every parent run), or a gain was seen on too
  few or badly alternated pairs;
* ``unchanged`` — otherwise.

Pairs should be run alternately, parent first in about half of them;
the run start times in the files show whether they were.  Bounds and
directions come from ``BENCHMARK.json``.  The exit code is 1 when any
row regressed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Tuple

ROOT = Path(__file__).resolve().parent.parent.parent
MIN_PAIRS = 10
WIN_SHARE = 0.9


def load_runs(spec: str) -> List[dict]:
    """Every run record in a directory or comma-separated file list."""
    path = Path(spec)
    files = sorted(path.glob("*.json")) if path.is_dir() else [Path(p) for p in spec.split(",")]
    runs = []
    for file in files:
        runs.extend(json.loads(file.read_text())["runs"])
    return runs


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def values_by_row(runs: List[dict]) -> Dict[Tuple[str, str], Dict[int, float]]:
    rows: Dict[Tuple[str, str], Dict[int, float]] = {}
    for run in runs:
        for name, metric in run["metrics"].items():
            rows.setdefault((run["workload"], name), {})[run["seed"]] = metric["value"]
    return rows


def steadiness(runs: List[dict], metrics: Dict[str, dict]) -> None:
    print(
        f"{'workload':<16} {'metric':<14} {'n':>3} {'median':>12} {'q1':>12} "
        f"{'q3':>12} {'spread':>7} {'bound':>6}  verdict"
    )
    for (workload, name), by_seed in sorted(values_by_row(runs).items()):
        if name not in metrics:
            continue
        values = list(by_seed.values())
        q1, median, q3 = quartiles(values)
        spread = (q3 - q1) / median if median else float("inf")
        bound = metrics[name]["bound"]
        verdict = (
            "steady" if spread < bound / 3 else "within bound" if spread <= bound else "too wide"
        )
        print(
            f"{workload:<16} {name:<14} {len(values):>3} {median:>12.6g} {q1:>12.6g} "
            f"{q3:>12.6g} {spread:>7.1%} {bound:>6.0%}  {verdict}"
        )


def verdict(
    parent: Dict[int, float], change: Dict[int, float], better: str, bound: float,
    failures_ok: bool, alternated: bool,
) -> Tuple[str, dict]:
    """Verdict and its evidence for one (workload, metric) row."""
    seeds = sorted(set(parent) & set(change))
    sign = -1.0 if better == "lower" else 1.0
    wins = sum(1 for s in seeds if sign * (change[s] - parent[s]) > 0)
    p_vals = [parent[s] for s in seeds]
    c_vals = [change[s] for s in seeds]
    p_q1, p_med, p_q3 = quartiles(p_vals)
    _c_q1, c_med, _c_q3 = quartiles(c_vals)
    gap = sign * (c_med - p_med)
    evidence = {
        "pairs": len(seeds), "wins": wins, "parent": p_med, "change": c_med,
        "delta": (c_med - p_med) / p_med if p_med else float("inf"),
    }
    gained = wins >= WIN_SHARE * len(seeds) and gap > (p_q3 - p_q1)
    if gained:
        if len(seeds) >= MIN_PAIRS and alternated and failures_ok:
            return "improved", evidence
        return "unresolved", evidence
    spread = (p_q3 - p_q1) / p_med if p_med else float("inf")
    if better == "lower":
        beats_all = max(c_vals) < min(p_vals)
    else:
        beats_all = min(c_vals) > max(p_vals)
    if spread > bound and not beats_all:
        return "unresolved", evidence
    if -gap / p_med > bound:
        return "regressed", evidence
    return "unchanged", evidence


def compare(parent_runs: List[dict], change_runs: List[dict], metrics: Dict[str, dict]) -> int:
    parent_rows = values_by_row(parent_runs)
    change_rows = values_by_row(change_runs)
    starts = {
        (r["workload"], r["seed"], side): r["started_at"]
        for side, runs in (("parent", parent_runs), ("change", change_runs))
        for r in runs
    }
    failed = {
        side: {w: sum(r["failed"] for r in runs if r["workload"] == w) for w in
               {r["workload"] for r in runs}}
        for side, runs in (("parent", parent_runs), ("change", change_runs))
    }
    regressed = 0
    print(
        f"{'workload':<16} {'metric':<14} {'pairs':>5} {'wins':>4} {'parent':>12} "
        f"{'change':>12} {'delta':>7} {'bound':>6}  verdict"
    )
    for key in sorted(set(parent_rows) & set(change_rows)):
        workload, name = key
        if name not in metrics:
            continue
        seeds = sorted(set(parent_rows[key]) & set(change_rows[key]))
        if not seeds:
            continue
        parent_first = sum(
            1 for s in seeds
            if starts[(workload, s, "parent")] < starts[(workload, s, "change")]
        )
        alternated = abs(2 * parent_first - len(seeds)) <= 1
        failures_ok = failed["change"].get(workload, 0) <= failed["parent"].get(workload, 0)
        spec = metrics[name]
        result, ev = verdict(
            parent_rows[key], change_rows[key], spec["better"], spec["bound"],
            failures_ok, alternated,
        )
        regressed += result == "regressed"
        print(
            f"{workload:<16} {name:<14} {ev['pairs']:>5} {ev['wins']:>4} "
            f"{ev['parent']:>12.6g} {ev['change']:>12.6g} {ev['delta']:>+7.1%} "
            f"{spec['bound']:>6.0%}  {result}"
        )
    for side in ("parent", "change"):
        for workload, count in sorted(failed[side].items()):
            if count:
                print(f"{side}: {count} failed operations on {workload}")
    return 1 if regressed else 0


def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="directory or comma-separated --out files")
    parser.add_argument("change", nargs="?", help="the same, for the change")
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    parent = load_runs(args.parent)
    if args.change is None:
        steadiness(parent, metrics)
        return 0
    return compare(parent, load_runs(args.change), metrics)


if __name__ == "__main__":
    sys.exit(main())
