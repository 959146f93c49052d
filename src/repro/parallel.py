"""Multi-worker measurement driver: stream, sketch, gather.

This is the worker-pool half of the sharded pipeline
(:mod:`repro.engine.sharded` owns partitioning and the queryable
facade).  Execution is *streaming*: the driver launches one persistent
worker per shard group up front, then scatters columnar chunks to them
through bounded queues while it keeps partitioning the next block — no
per-batch pool barrier.  Each worker

1. rebuilds its shard sketches from a
   :class:`~repro.engine.sharded.SketchSpec` (same geometry and
   hash-family seed everywhere, so the results are mergeable),
2. decorrelates each shard's replacement RNG from the other shards
   (shard 0 keeps the spec's natural stream, which makes a one-shard
   run bit-identical to an unsharded sketch under the same seed) —
   both via :func:`build_shard_sketch`, shared with the service daemon,
3. consumes arriving ``(hi, lo, sizes)`` chunks through the engine's
   normal streaming path (:meth:`Sketch.process_columns` — the chunk
   loop for the numpy engines), timing only that region, and
4. on end-of-stream returns each shard's state as a
   :mod:`repro.core.serialize` blob — the same wire format a switch
   would export — plus a
   :class:`~repro.metrics.throughput.WorkerThroughput` report.

Backpressure is credit-based: every worker's input queue
holds at most :data:`WORKER_CREDITS` chunks, so a slow worker stalls
the driver's scatter loop instead of buffering the whole trace.

``processes=False`` runs the same driver/worker code path inline
(including the serialise round-trip), so serial and parallel execution
produce identical sketches — tests exploit this for speed.
"""

from __future__ import annotations

import multiprocessing
import random
import time
from typing import Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.serialize import dump_metrics, dump_sketch
from repro.hashing.family import mix64
from repro.metrics.throughput import WorkerThroughput
from repro.obs.registry import MetricsRegistry, set_registry
from repro.sketches.base import Sketch

_WORKER_RNG_SALT = 0x51A8D
_EPOCH_RNG_SALT = 0xE70C4

#: Driver scatter granularity in packets.  A power of two and a
#: multiple of every engine ``pipeline_chunk`` (a power of two in
#: [512, 16384], derived from the geometry), so the chunk boundaries a
#: worker's engine sees match an unsharded run's exactly (the
#: shards=1 bit-identity tests rely on this).
STREAM_BATCH = 65536

#: Chunks a worker's input queue may hold before the driver's scatter
#: loop blocks.
WORKER_CREDITS = 4

#: One shard's columnar packet stream: (keys_hi, keys_lo, sizes).
ShardColumns = Tuple["np.ndarray", "np.ndarray", "np.ndarray"]

#: What one shard returns: (shard, sketch blob, packets, elapsed_s,
#: cpu_s, metrics blob or None).
ShardResult = Tuple[int, bytes, int, float, float, Optional[bytes]]


def worker_seed(base_seed: int, shard: int) -> int:
    """Decorrelated replacement-RNG seed for one worker.

    Derived from the run's base seed and the shard index through the
    splitmix64 mixer, so reruns with the same ``--seed`` reproduce every
    worker's stream while distinct shards draw independently.
    """
    return mix64((base_seed ^ _WORKER_RNG_SALT) + shard * 0x9E3779B97F4A7C15)


def epoch_stream_seed(base_seed: int, epoch: int) -> int:
    """Decorrelated replacement-RNG base seed for one measurement epoch.

    Epoch 0 keeps the run's natural seed, so a daemon's first epoch (and
    every non-epoch run) replays today's unsharded/sharded streams bit
    for bit; later epochs draw replacement decisions from independent
    streams while sharing the hash family, which keeps their snapshots
    mergeable.
    """
    if epoch < 0:
        raise ValueError(f"epoch must be >= 0, got {epoch}")
    if epoch == 0:
        return base_seed
    return mix64((base_seed ^ _EPOCH_RNG_SALT) + epoch * 0x9E3779B97F4A7C15)


def build_shard_sketch(spec, shard: int, epoch: int = 0) -> Sketch:
    """The spec's sketch on the ``(epoch, shard)`` replacement stream.

    Shard 0 of epoch 0 keeps the spec's natural stream.  The hash family
    is untouched: it must stay identical across shards and epochs for
    their states to merge.
    """
    sketch = spec.build()
    if shard or epoch:
        seed = worker_seed(epoch_stream_seed(spec.seed, epoch), shard)
        rng = getattr(sketch, "_rng", None)
        if isinstance(rng, random.Random):
            sketch._rng = random.Random(seed)
        elif isinstance(rng, np.random.Generator):
            sketch._rng = np.random.Generator(np.random.PCG64(seed))
    return sketch


def stream_batch_for(batch_size: Optional[int]) -> int:
    """Scatter block size compatible with an explicit worker batch.

    Defaults to :data:`STREAM_BATCH`; with an explicit *batch_size* the
    block is rounded up to a multiple of it so per-worker batch
    boundaries stay stream-position invariant.
    """
    if batch_size is None:
        return STREAM_BATCH
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    if batch_size >= STREAM_BATCH:
        return batch_size
    return batch_size * (STREAM_BATCH // batch_size)


class _ShardRun:
    """Worker-side state for one shard: sketch, registry, timing."""

    __slots__ = ("shard", "sketch", "registry", "packets", "elapsed", "cpu")

    def __init__(self, spec, shard: int, collect: bool) -> None:
        self.shard = shard
        self.sketch = build_shard_sketch(spec, shard)
        # Shard-local registry: collected here, shipped back as a wire
        # blob, folded into the collector's registry per shard.
        self.registry = MetricsRegistry() if collect else None
        self.packets = 0
        self.elapsed = 0.0
        self.cpu = 0.0

    def consume(self, hi, lo, sizes, batch_size: Optional[int]) -> None:
        """Feed one chunk through the engine's streaming path, timed.

        Both clocks run over the same region: wall span (what the
        worker achieved while concurrent siblings shared the host) and
        the process's own CPU time (its host-independent capacity).
        """
        previous = None
        if self.registry is not None:
            previous = set_registry(self.registry)
        try:
            start = time.perf_counter()
            cpu_start = time.process_time()
            self.sketch.process_columns(hi, lo, sizes, batch_size)
            self.cpu += time.process_time() - cpu_start
            self.elapsed += time.perf_counter() - start
        finally:
            if self.registry is not None:
                set_registry(previous)
        self.packets += len(sizes)

    def finalize(self) -> ShardResult:
        """Serialise state (and metrics) for the trip back to the driver."""
        metrics_blob = None
        if self.registry is not None:
            self.registry.inc("worker.packets", self.packets)
            stats = getattr(self.sketch, "stats", None)
            if stats is not None:
                stats.publish(self.registry, prefix="sketch.")
            metrics_blob = dump_metrics(
                self.registry.snapshot(meta={"shard": self.shard})
            )
        return (
            self.shard,
            dump_sketch(self.sketch),
            self.packets,
            self.elapsed,
            self.cpu,
            metrics_blob,
        )


def _stream_worker(spec, shards, batch_size, collect, in_q, out_q) -> None:
    """Process entry point: consume chunks until the end-of-stream mark.

    One worker may own several shards (when the driver runs fewer
    processes than shards); each keeps its own sketch, registry and
    timers, so the reports stay per-shard regardless of placement.

    Data chunks arrive on the queue as ``(shard, hi, lo, sizes)``;
    ``None`` ends the stream.
    """
    if spec.engine != "scalar":
        # Warm the JIT before the first timed chunk: with a shared
        # NUMBA_CACHE_DIR (see repro.engine.kernels) the first worker
        # compiles once and every sibling loads the cached binaries.
        from repro.engine.kernels import resolve_kernels, warmup

        warmup(resolve_kernels(None), spec.d)
    runs = {shard: _ShardRun(spec, shard, collect) for shard in shards}
    while True:
        message = in_q.get()
        if message is None:
            break
        shard, hi, lo, sizes = message
        runs[shard].consume(hi, lo, sizes, batch_size)
    for shard in shards:
        out_q.put(runs[shard].finalize())


def _pool_size(processes: Union[bool, int, None], shards: int) -> int:
    """Worker process count; 0 means run serially in-process.

    ``True`` gives every shard its own process — workers must actually
    run concurrently for the capacity/wall comparison to mean anything,
    even when the host has fewer cores (contention then shows up in the
    per-worker timings, as it would in deployment).
    """
    if processes is True:
        return shards
    if processes in (False, None):
        return 0
    count = int(processes)
    if count < 0:
        raise ValueError(f"processes must be >= 0, got {processes}")
    return min(count, shards)


class StreamDriver:
    """Scatter columnar chunks to persistent shard workers, gather state.

    The streaming replacement for the old scatter/``pool.map``/gather
    barrier: workers start once, consume chunks as the driver sends
    them (overlapping with the driver's partitioning of the next
    block), and ship their serialized state when :meth:`results` closes
    the stream.

    Args:
        spec: Per-worker :class:`~repro.engine.sharded.SketchSpec`.
        shards: Total shard count; each shard owns one sketch.
        processes: ``True`` — one OS process per shard; an int — at
            most that many processes (shards are dealt round-robin
            across them); ``False``/``None`` — run every shard inline
            in this process through the same code path.
        batch_size: Per-worker ``process_columns`` slice; ``None`` lets
            each engine use its own streaming default.
        collect_metrics: When true each shard runs under its own
            :class:`~repro.obs.registry.MetricsRegistry` and ships the
            snapshot back as a blob.
    """

    def __init__(
        self,
        spec,
        shards: int,
        processes: Union[bool, int, None] = True,
        batch_size: Optional[int] = None,
        collect_metrics: bool = False,
    ) -> None:
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        self.shards = shards
        self._batch_size = batch_size
        self._closed = False
        pool = _pool_size(processes, shards)
        if pool == 0:
            self._inline = [
                _ShardRun(spec, shard, collect_metrics) for shard in range(shards)
            ]
            self._queues = None
            self._procs: List = []
            return
        self._inline = None
        ctx = multiprocessing.get_context()
        self._out_q = ctx.Queue()
        self._in_qs = []
        self._procs = []
        for w in range(pool):
            owned = list(range(w, shards, pool))
            in_q = ctx.Queue(maxsize=WORKER_CREDITS)
            proc = ctx.Process(
                target=_stream_worker,
                args=(
                    spec, owned, batch_size, collect_metrics,
                    in_q, self._out_q,
                ),
            )
            proc.start()
            self._in_qs.append(in_q)
            self._procs.append(proc)
        # shard -> its owner's input queue
        self._queues = [self._in_qs[shard % pool] for shard in range(shards)]

    # Kept while benchmarks/ledger/tracer.py patches it as a layer.
    def live_blobs(self) -> Optional[List[bytes]]:
        """Each inline shard's current state as a blob (``None`` when
        shards run in worker processes); must not race :meth:`send`."""
        if self._inline is None:
            return None
        return [dump_sketch(run.sketch) for run in self._inline]

    def send(self, shard: int, hi, lo, sizes) -> None:
        """Ship one chunk to *shard* (blocks when its credits run out)."""
        if self._closed:
            raise RuntimeError("driver already closed")
        if len(sizes) == 0:
            return
        if self._inline is not None:
            self._inline[shard].consume(hi, lo, sizes, self._batch_size)
            return
        self._queues[shard].put((shard, hi, lo, sizes))

    def results(self) -> Iterator[ShardResult]:
        """Close the stream and yield shard results as workers finish.

        Results arrive in completion order (shard order when inline);
        exactly one per shard, empty shards included.
        """
        self._closed = True
        if self._inline is not None:
            for run in self._inline:
                yield run.finalize()
            return
        for in_q in self._in_qs:
            in_q.put(None)
        for _ in range(self.shards):
            yield self._out_q.get()
        for proc in self._procs:
            proc.join()


def run_sharded(
    spec,
    shard_columns: Sequence[ShardColumns],
    processes: Union[bool, int, None] = True,
    batch_size: Optional[int] = None,
    collect_metrics: bool = False,
) -> Tuple[List[bytes], List[WorkerThroughput], float, List[Optional[bytes]]]:
    """Run one engine-backed sketch per shard over pre-partitioned columns.

    The batch facade over :class:`StreamDriver` (the sharded facade
    streams instead — see ``ShardedSketch.process``): chunks each
    shard's columns at the stream granularity, interleaves the sends
    across shards so workers fill evenly, and gathers state.

    Args:
        spec: The per-worker :class:`~repro.engine.sharded.SketchSpec`.
        shard_columns: One ``(hi, lo, sizes)`` triple per shard, in
            shard order (see ``partition_columns``).
        processes: ``True`` — one OS process per shard; an int — at
            most that many processes; ``False`` — run every worker
            sequentially in this process (identical results, no pool
            overhead).
        batch_size: Per-worker update slice; ``None`` lets each sketch
            route itself exactly like ``Sketch.process``.
        collect_metrics: When true each worker installs its own
            :class:`~repro.obs.registry.MetricsRegistry`, publishes its
            sketch's decision counters into it, and ships the snapshot
            back as a :func:`~repro.core.serialize.dump_metrics` blob.

    Returns:
        ``(blobs, reports, wall_elapsed_s, metrics_blobs)`` — serialized
        sketch state and per-worker timing in shard order, the
        wall-clock time of the whole scatter/process/gather section, and
        per-shard metrics blobs (``None`` entries unless
        ``collect_metrics``).
    """
    shards = len(shard_columns)
    step = stream_batch_for(batch_size)
    wall_start = time.perf_counter()
    driver = StreamDriver(spec, shards, processes, batch_size, collect_metrics)
    longest = max((len(cols[2]) for cols in shard_columns), default=0)
    for start in range(0, longest, step):
        for shard, (hi, lo, sizes) in enumerate(shard_columns):
            stop = min(start + step, len(sizes))
            if start < stop:
                driver.send(
                    shard, hi[start:stop], lo[start:stop], sizes[start:stop]
                )
    outs: List[Optional[ShardResult]] = [None] * shards
    for result in driver.results():
        outs[result[0]] = result
    wall_elapsed = time.perf_counter() - wall_start
    blobs = [out[1] for out in outs]
    reports = [
        WorkerThroughput(
            shard=out[0], packets=out[2], elapsed_s=out[3], cpu_s=out[4]
        )
        for out in outs
    ]
    metrics_blobs = [out[5] for out in outs]
    return blobs, reports, wall_elapsed, metrics_blobs
