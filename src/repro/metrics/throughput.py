"""Throughput and per-packet latency measurement (Fig 14).

The paper reports Mpps and the 95th-percentile per-packet CPU cycles.
In pure Python absolute numbers are meaningless, but the *relative*
ordering — CocoSketch constant in the number of keys, per-key baselines
degrading linearly, naive USS orders of magnitude slower — is what the
figures establish, and wall-clock measurements preserve it
(DESIGN.md §2).  Per-packet latencies are sampled (one packet in
*latency_stride*) to keep timer overhead from dominating.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Iterable, List, Sequence, Tuple

import numpy as np

from repro._util import percentile


@dataclass(frozen=True)
class WorkerThroughput:
    """Update performance of one shard worker (its own timed region).

    ``elapsed_s`` is the wall-clock span of the worker's update loop —
    on an oversubscribed host it includes time the OS gave to other
    workers, so the derived :attr:`pps` reflects what the worker
    achieved *running concurrently on this host*.  ``cpu_s`` is the
    worker process's own CPU time over the same region, immune to
    preemption — :attr:`cpu_pps` is the rate the worker would sustain
    with a core to itself (0.0 when the driver didn't record it).
    """

    shard: int
    packets: int
    elapsed_s: float
    cpu_s: float = 0.0

    @property
    def pps(self) -> float:
        """Packets processed per second inside the worker.

        An idle worker (an empty shard) reports 0.0 rather than an
        infinite rate, so fleet capacity sums stay finite.
        """
        if self.packets == 0:
            return 0.0
        if self.elapsed_s == 0:
            return float("inf")
        return self.packets / self.elapsed_s

    @property
    def mpps(self) -> float:
        """Millions of packets per second inside the worker."""
        return self.pps / 1e6

    @property
    def cpu_pps(self) -> float:
        """Packets per second of the worker's own CPU time.

        Host-independent: preemption by sibling workers doesn't count
        against it.  Falls back to the wall-span :attr:`pps` when the
        driver recorded no CPU time (older drivers, inline runs on
        interpreters without ``process_time`` resolution).
        """
        if self.packets == 0:
            return 0.0
        if self.cpu_s <= 0:
            return self.pps
        return self.packets / self.cpu_s


@dataclass(frozen=True)
class ShardedThroughputResult:
    """Aggregate + per-worker rates of one sharded measurement run.

    ``wall_elapsed_s`` covers the partition → stream → gather pipeline
    (less the loading of process-mode worker state, which scales with
    sketch geometry, not packets), so ``aggregate_pps`` is the
    packet rate the driver actually sustains; per-worker rates time
    only each worker's own update loop and show how evenly the
    partitioner spread the load.
    """

    workers: Tuple[WorkerThroughput, ...]
    wall_elapsed_s: float

    @property
    def shards(self) -> int:
        return len(self.workers)

    @property
    def packets(self) -> int:
        return sum(w.packets for w in self.workers)

    @property
    def aggregate_pps(self) -> float:
        """End-to-end packets per second over the pipeline wall time."""
        if self.wall_elapsed_s == 0:
            return float("inf")
        return self.packets / self.wall_elapsed_s

    @property
    def capacity_pps(self) -> float:
        """Combined worker capacity: the sum of per-worker rates.

        Each worker times only its own update loop, so this is the rate
        the shard fleet sustains when every worker runs concurrently on
        its own core/device (the paper's multi-switch deployment) —
        independent of how many cores the simulation host happens to
        have.  Compare with ``aggregate_pps``, which divides by the
        pipeline's wall time on *this* host.
        """
        return sum(w.pps for w in self.workers)

    @property
    def cpu_capacity_pps(self) -> float:
        """Fleet capacity from per-worker CPU time: Σ ``cpu_pps``.

        The host-independent version of :attr:`capacity_pps`: each
        worker contributes the rate it would sustain with its own core
        (the paper's one-sketch-per-switch deployment), even when the
        simulation host time-slices the workers and inflates their
        wall spans.  Scaling studies should use this; the
        :attr:`driver_efficiency` ratio deliberately does not — it
        compares wall rate against what the workers concurrently
        achieved *here*.
        """
        return sum(w.cpu_pps for w in self.workers)

    @property
    def worker_pps(self) -> Tuple[float, ...]:
        return tuple(w.pps for w in self.workers)

    @property
    def driver_efficiency(self) -> float:
        """Wall rate over fleet capacity: ``aggregate_pps / capacity_pps``.

        1.0 means the driver (partitioning, queueing, gather)
        added no overhead beyond the workers' own update loops; the gap
        below 1.0 *is* the driver overhead, reported explicitly instead
        of leaving callers to infer it from two other numbers.  0.0
        when no worker did any timed work.
        """
        capacity = self.capacity_pps
        if capacity == 0 or capacity != capacity:  # 0 or NaN
            return 0.0
        ratio = self.aggregate_pps / capacity
        if ratio != ratio:  # inf/inf
            return 0.0
        return ratio

    @property
    def load_imbalance(self) -> float:
        """max/mean packet count across workers (1.0 = perfectly even)."""
        if not self.workers:
            return 0.0
        mean = self.packets / len(self.workers)
        if mean == 0:
            return 1.0
        return max(w.packets for w in self.workers) / mean

    def summary(self) -> str:
        """One-line human-readable report for CLI/bench output."""
        rates = ", ".join(f"{w.pps:,.0f}" for w in self.workers)
        return (
            f"{self.shards} worker(s): aggregate {self.aggregate_pps:,.0f} "
            f"pps over {self.packets} packets "
            f"(per-worker pps: [{rates}], "
            f"imbalance {self.load_imbalance:.2f}x, "
            f"driver efficiency {self.driver_efficiency:.0%})"
        )


@dataclass(frozen=True)
class ThroughputResult:
    """Wall-clock update performance of one algorithm over one trace."""

    packets: int
    elapsed_s: float
    p50_ns: float
    p95_ns: float

    @property
    def mpps(self) -> float:
        """Millions of packets processed per second."""
        if self.elapsed_s == 0:
            return float("inf")
        return self.packets / self.elapsed_s / 1e6


def measure_throughput(
    updater: Callable[[int, int], None],
    packets: Iterable[Tuple[int, int]],
    latency_stride: int = 64,
) -> ThroughputResult:
    """Drive *updater* over *packets*, timing totals and sampled latencies.

    Args:
        updater: The algorithm's ``update(key, size)`` bound method.
        packets: The packet stream (consumed once).
        latency_stride: Every stride-th packet is individually timed
            for the latency percentiles.
    """
    if latency_stride < 1:
        raise ValueError("latency_stride must be >= 1")
    stream: List[Tuple[int, int]] = list(packets)
    latencies: List[float] = []
    perf_ns = time.perf_counter_ns

    start = time.perf_counter()
    for idx, (key, size) in enumerate(stream):
        if idx % latency_stride:
            updater(key, size)
        else:
            t0 = perf_ns()
            updater(key, size)
            latencies.append(perf_ns() - t0)
    elapsed = time.perf_counter() - start

    return ThroughputResult(
        packets=len(stream),
        elapsed_s=elapsed,
        p50_ns=percentile(latencies, 50) if latencies else 0.0,
        p95_ns=percentile(latencies, 95) if latencies else 0.0,
    )


def columnar_batches(
    packets: Iterable[Tuple[int, int]],
    batch_size: int,
) -> List[Tuple[Tuple[np.ndarray, np.ndarray], np.ndarray]]:
    """Pre-pack a packet stream into ``((hi, lo), sizes)`` chunks.

    Packing python ints into uint64 columns is the traffic layer's job
    (a :class:`~repro.traffic.trace.Trace` does it once and caches); the
    throughput benchmarks call this up front so the timed region covers
    only ``update_batch``, mirroring how a deployment receives columnar
    batches from the capture path.
    """
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    from repro.flowkeys.columns import pack_key_columns

    stream = list(packets)
    out: List[Tuple[Tuple[np.ndarray, np.ndarray], np.ndarray]] = []
    for start in range(0, len(stream), batch_size):
        chunk = stream[start : start + batch_size]
        hi, lo = pack_key_columns([k for k, _ in chunk])
        sizes = np.fromiter((s for _, s in chunk), dtype=np.int64, count=len(chunk))
        out.append(((hi, lo), sizes))
    return out


def measure_batch_throughput(
    update_batch: Callable[..., None],
    batches: Sequence[Tuple[Tuple[np.ndarray, np.ndarray], np.ndarray]],
) -> ThroughputResult:
    """Drive a sketch's ``update_batch`` over pre-packed columnar chunks.

    Per-packet latency percentiles are derived from per-batch wall time
    divided by batch length — the amortised cost a batched pipeline
    actually pays per packet, comparable against the sampled per-call
    latencies of :func:`measure_throughput`.
    """
    latencies: List[float] = []
    total = 0
    perf_ns = time.perf_counter_ns

    start = time.perf_counter()
    for keys, sizes in batches:
        n = len(sizes)
        t0 = perf_ns()
        update_batch(keys, sizes)
        latencies.append((perf_ns() - t0) / max(n, 1))
        total += n
    elapsed = time.perf_counter() - start

    return ThroughputResult(
        packets=total,
        elapsed_s=elapsed,
        p50_ns=percentile(latencies, 50) if latencies else 0.0,
        p95_ns=percentile(latencies, 95) if latencies else 0.0,
    )


def best_of(
    runs: int,
    make_updater: Callable[[], Callable[[int, int], None]],
    packets: List[Tuple[int, int]],
    latency_stride: int = 64,
) -> ThroughputResult:
    """Median-throughput result over *runs* fresh instances.

    The paper reports the median of 5 independent trials; the median is
    selected by Mpps.
    """
    if runs < 1:
        raise ValueError("runs must be >= 1")
    results = [
        measure_throughput(make_updater(), packets, latency_stride)
        for _ in range(runs)
    ]
    results.sort(key=lambda r: r.mpps)
    return results[len(results) // 2]
