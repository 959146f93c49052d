"""Slim-replica read latency vs a locked copy-and-sum under load.

The daemon answers every live query from the slim replica, which
applies the compact per-chunk deltas the engines already emit, so a
read costs the drained delta rows plus a concat of cached shard
tables, and in steady state it never takes the ingest lock.

The reference is the simplest read that needs no replica: take the
daemon's ingest lock, ``frozen_copy`` each live shard, release it, then
concatenate the copies' raw bucket exports (the sum of shards, Lemma 3;
the same export the replica's mirrors serve) and aggregate the partial
key.  It reaches into two private names, ``daemon._lock`` and
``daemon._builder.live_sketches()``, so a refactor of either must
update this bench.

This bench runs both reads against the *same* daemon while a feeder
thread ingests at full rate (``live_refresh_packets=0`` so every
replica read pays its true rebuild cost), interleaving them so machine
noise hits both alike.  Each sample is the full user-visible query:
build the view, project a partial key, extract the top-10.

Thread placement decides what a locked read costs.  The lock has no
fairness: when the reader runs on another core than the feeder, the
feeder releases and re-takes the lock between chunks before the woken
reader gets to it, so the reader waits behind many chunks (tens of ms
on a 2-core host).  When both share one core, the wake-up preempts the
feeder and the reader waits at most one chunk.  Left alone, the
scheduler starts both on one core and spreads them a few seconds
later, so where the samples fell used to depend on how long the run
lasted.  The bench therefore pins the feeder and the reader to two
different CPUs of the process's affinity set — the placement a
multi-core host settles into — and records each copy's lock wait.
With fewer than two CPUs it runs unpinned and records that.

Acceptance gate: slim p95 read latency at least ``GATE``x (3x) better
than the locked copy-and-sum's p95.  Recorded to
``results/bench_slim_read.json``.

Runs two ways:

* ``pytest benchmarks/bench_slim_read.py`` — records the JSON like
  every other bench.
* ``python benchmarks/bench_slim_read.py --reads 50`` — standalone.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List

import numpy as np

sys.path.insert(0, str(Path(__file__).parent))
sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.engine.sharded import SketchSpec  # noqa: E402
from repro.flowkeys.key import FIVE_TUPLE  # noqa: E402
from repro.query import ColumnTable, QueryPlanner  # noqa: E402
from repro.service import MeasurementDaemon, ServiceConfig  # noqa: E402
from repro.service.epochs import frozen_copy  # noqa: E402
from repro.traffic.synthetic import zipf_trace  # noqa: E402

#: Acceptance gate: copy_sum_p95 / slim_p95 must be at least this.
GATE = 3.0

# Big-table geometry: the copy's cost scales with d*l per shard, the
# slim path's with delta rows per drain — this is the regime the
# replica targets (large sketch, steady ingest, dashboard-rate reads).
FLOWS = 8_000
L = 65_536
D = 2
SHARDS = 2
CHUNK = 4_096
PACKETS = 40 * CHUNK
READS = 30
WARMUP = 3

HEADERS = ["read", "reads", "p50_s", "p95_s", "speedup"]

_TITLE = (
    "Live read latency under full-rate ingest: "
    "slim replica vs locked copy-and-sum"
)


def _percentiles(samples: List[float]) -> Dict[str, float]:
    arr = np.asarray(samples, dtype=np.float64)
    return {
        "p50_s": float(np.percentile(arr, 50)),
        "p95_s": float(np.percentile(arr, 95)),
    }


def run_bench(reads: int = READS) -> Dict:
    trace = zipf_trace(PACKETS, FLOWS, alpha=1.1, seed=9)
    config = ServiceConfig(
        spec=SketchSpec(engine="numpy", variant="basic", d=D, l=L, seed=5),
        key_spec=FIVE_TUPLE,
        shards=SHARDS,
        chunk=CHUNK,
        live_refresh_packets=0,  # every read pays its true rebuild cost
    )
    daemon = MeasurementDaemon(config)
    partial = FIVE_TUPLE.partial(("SrcIP", 16))

    # Prime: one full pass so the tables are dense before timing starts.
    for hi, lo, sizes in trace.batches(CHUNK):
        daemon.ingest(hi, lo, sizes)

    stop = threading.Event()

    pinnable = hasattr(os, "sched_setaffinity")
    cpus = sorted(os.sched_getaffinity(0)) if pinnable else []
    pinned = len(cpus) >= 2

    def feeder() -> None:
        if pinned:
            os.sched_setaffinity(0, {cpus[0]})  # pid 0: this thread only
        while not stop.is_set():
            for hi, lo, sizes in trace.batches(CHUNK):
                if stop.is_set():
                    return
                daemon.ingest(hi, lo, sizes)

    def slim_view() -> QueryPlanner:
        return daemon.live_planner()[1]

    lock_waits: List[float] = []

    def copy_sum_view() -> QueryPlanner:
        start = time.perf_counter()
        with daemon._lock:
            lock_waits.append(time.perf_counter() - start)
            copies = [frozen_copy(s) for s in daemon._builder.live_sketches()]
        tables = []
        for copy in copies:
            hi, lo, vals = copy.export_columns()
            tables.append(ColumnTable.from_key_columns(
                hi, lo, np.asarray(vals, dtype=np.float64), FIVE_TUPLE
            ))
        base = ColumnTable.concat_many(tables, FIVE_TUPLE)
        return QueryPlanner(base, FIVE_TUPLE, group_base=False)

    views = {"copy-sum": copy_sum_view, "slim": slim_view}

    def measure(read: str) -> float:
        start = time.perf_counter()
        views[read]().table(partial).top_k(10)
        return time.perf_counter() - start

    latencies: Dict[str, List[float]] = {read: [] for read in views}
    feed = threading.Thread(target=feeder, daemon=True)
    feed.start()
    try:
        if pinned:
            os.sched_setaffinity(0, {cpus[1]})
        for read in views:
            for _ in range(WARMUP):
                measure(read)
        del lock_waits[:]
        # Interleave so ingest pressure and machine noise hit both
        # reads alike.
        for _ in range(reads):
            for read in views:
                latencies[read].append(measure(read))
    finally:
        if pinned:
            os.sched_setaffinity(0, cpus)
        stop.set()
        feed.join(timeout=60)
    snap = daemon.metrics_snapshot()
    daemon.close()

    copy_sum = _percentiles(latencies["copy-sum"])
    slim = _percentiles(latencies["slim"])
    speedup = copy_sum["p95_s"] / slim["p95_s"]
    rows = [
        ["locked-copy-sum", reads, copy_sum["p50_s"], copy_sum["p95_s"], 1.0],
        ["slim-replica", reads, slim["p50_s"], slim["p95_s"], speedup],
    ]
    counters = snap["counters"]
    return {
        "rows": rows,
        "speedup": speedup,
        "pinned": pinned,
        "lock_wait_p50_s": float(np.percentile(lock_waits, 50)),
        "ingested_packets": counters["service.ingest.packets"],
        "slim_deltas": counters["slim.sync.deltas"],
        "slim_compactions": counters.get("slim.sync.compactions", 0),
    }


def _extra(bench: Dict) -> Dict:
    return {
        "flows": FLOWS,
        "l": L,
        "d": D,
        "shards": SHARDS,
        "chunk": CHUNK,
        "gate": GATE,
        "pinned": bench["pinned"],
        "lock_wait_p50_s": bench["lock_wait_p50_s"],
        "ingested_packets": bench["ingested_packets"],
        "slim_deltas": bench["slim_deltas"],
        "slim_compactions": bench["slim_compactions"],
    }


def test_slim_read_latency(record):
    """Pytest entry: slim p95 at least GATE x better than copy-and-sum p95."""
    bench = run_bench()
    record(
        "bench_slim_read", _TITLE, HEADERS, bench["rows"], extra=_extra(bench)
    )
    assert bench["speedup"] >= GATE, (
        f"slim replica only {bench['speedup']:.2f}x faster at p95 "
        f"(gate {GATE}x)"
    )
    assert bench["slim_deltas"] > 0, "replica never synced a delta"


def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--reads", type=int, default=READS)
    parser.add_argument(
        "--out",
        default=str(
            Path(__file__).resolve().parent.parent
            / "results"
            / "bench_slim_read.json"
        ),
    )
    args = parser.parse_args(argv)

    bench = run_bench(args.reads)
    print(f"{'read':<16} {'reads':>6} {'p50_s':>10} {'p95_s':>10} {'rel':>7}")
    for read, reads, p50, p95, rel in bench["rows"]:
        print(f"{read:<16} {reads:>6} {p50:>10.5f} {p95:>10.5f} {rel:>6.2f}x")
    print(
        f"deltas={bench['slim_deltas']} "
        f"compactions={bench['slim_compactions']} "
        f"ingested={bench['ingested_packets']} "
        f"pinned={bench['pinned']} "
        f"copy_lock_wait_p50={bench['lock_wait_p50_s'] * 1e3:.1f}ms"
    )

    payload = {
        "title": _TITLE,
        "headers": HEADERS,
        "rows": bench["rows"],
        "extra": _extra(bench),
    }
    out = Path(args.out)
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(payload, indent=2))
    print(f"\nwrote {out}")
    if bench["speedup"] < GATE:
        print(
            f"latency gate FAILED: {bench['speedup']:.2f}x < {GATE}x",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
