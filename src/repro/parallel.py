"""Multi-worker measurement driver: stream, sketch, gather.

This is the worker half of the sharded pipeline
(:mod:`repro.engine.sharded` owns partitioning and the queryable
facade).  Execution is *streaming*: the driver launches one persistent
worker process per shard up front, then scatters columnar chunks to
them through bounded queues while it keeps partitioning the next block
— no per-batch pool barrier.  Each worker

1. rebuilds its shard sketch from a
   :class:`~repro.engine.sharded.SketchSpec` (same geometry and
   hash-family seed everywhere, so the results are mergeable),
2. decorrelates its replacement RNG from the other shards (shard 0
   keeps the spec's natural stream, which makes a one-shard run
   bit-identical to an unsharded sketch under the same seed) — both via
   :func:`build_shard_sketch`, shared with the service daemon,
3. consumes arriving ``(hi, lo, sizes)`` chunks through the engine's
   normal streaming path (:meth:`Sketch.process_columns` — the chunk
   loop for the numpy engines), timing only that region, and
4. on end-of-stream ships its state back across the process boundary
   as a :mod:`repro.core.serialize` blob — the same wire format a
   switch would export — with its timings and, when collecting, its
   metrics snapshot dict.  The driver loads the blob, so
   :meth:`StreamDriver.results` always yields sketch objects.

Backpressure is credit-based: every worker's input queue holds at most
:data:`WORKER_CREDITS` chunks, so a slow worker stalls the driver's
scatter loop instead of buffering the whole trace.  The driver waits in
bounded polls that check each worker's liveness: a worker that raises
or dies surfaces as :class:`ShardWorkerError` instead of a hang.

``processes=False`` runs the same per-shard code inline, with no
serialisation at all; serial and parallel execution produce identical
sketches — tests exploit this for speed.
"""

from __future__ import annotations

import multiprocessing
import queue
import random
import time
import traceback
from typing import Iterator, List, Optional, Tuple

import numpy as np

from repro.core.serialize import dump_sketch, load_sketch
from repro.hashing.family import mix64
from repro.obs.registry import MetricsRegistry, set_registry
from repro.sketches.base import Sketch

_WORKER_RNG_SALT = 0x51A8D
_EPOCH_RNG_SALT = 0xE70C4

#: Chunks a worker's input queue may hold before the driver's scatter
#: loop blocks.
WORKER_CREDITS = 4

#: Seconds the driver blocks on a worker queue before it checks that
#: the workers are still alive.
_POLL_S = 0.2

#: What one shard returns: (shard, sketch, packets, elapsed_s, cpu_s,
#: metrics snapshot dict or None).
ShardResult = Tuple[int, Sketch, int, float, float, Optional[dict]]


class ShardWorkerError(RuntimeError):
    """A shard worker raised or exited before returning its state."""

    def __init__(self, shard: int, detail: str) -> None:
        # Both fields in ``args``, so the error pickles across the
        # process boundary intact.
        super().__init__(shard, detail)
        self.shard = shard
        self.detail = detail

    def __str__(self) -> str:
        return f"shard {self.shard} worker failed: {self.detail}"


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


class _ShardRun:
    """Worker-side state for one shard: sketch, registry, timing."""

    __slots__ = ("shard", "sketch", "registry", "packets", "elapsed", "cpu")

    def __init__(self, spec, shard: int, collect: bool) -> None:
        self.shard = shard
        self.sketch = build_shard_sketch(spec, shard)
        # Shard-local registry: collected here, returned as a snapshot
        # dict, folded into the collector's registry per shard.
        self.registry = MetricsRegistry() if collect else None
        self.packets = 0
        self.elapsed = 0.0
        self.cpu = 0.0

    def consume(self, hi, lo, sizes) -> None:
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
            self.sketch.process_columns(hi, lo, sizes)
            self.cpu += time.process_time() - cpu_start
            self.elapsed += time.perf_counter() - start
        finally:
            if self.registry is not None:
                set_registry(previous)
        self.packets += len(sizes)

    def finalize(self) -> ShardResult:
        """The shard's sketch, timings and metrics snapshot."""
        metrics = None
        if self.registry is not None:
            self.registry.inc("worker.packets", self.packets)
            stats = getattr(self.sketch, "stats", None)
            if stats is not None:
                stats.publish(self.registry, prefix="sketch.")
            metrics = self.registry.snapshot(meta={"shard": self.shard})
        return (
            self.shard,
            self.sketch,
            self.packets,
            self.elapsed,
            self.cpu,
            metrics,
        )


def _stream_worker(spec, shard, collect, in_q, out_q) -> None:
    """Process entry point: consume one shard's chunks until ``None``.

    Data chunks arrive as ``(hi, lo, sizes)``.  On success the worker
    ships its :class:`_ShardRun` result with the sketch dumped to a
    blob.  On failure it keeps draining to the end-of-stream mark (so
    the driver's sends never stall on a dead consumer) and then ships a
    :class:`ShardWorkerError` instead.
    """
    error = None
    try:
        if spec.engine != "scalar":
            # Warm the JIT before the first timed chunk: with a shared
            # NUMBA_CACHE_DIR (see repro.engine.kernels) the first
            # worker compiles once and every sibling loads the cached
            # binaries.
            from repro.engine.kernels import resolve_kernels, warmup

            warmup(resolve_kernels(None), spec.d)
        run = _ShardRun(spec, shard, collect)
    except Exception:
        error = traceback.format_exc()
    while True:
        message = in_q.get()
        if message is None:
            break
        if error is None:
            try:
                run.consume(*message)
            except Exception:
                error = traceback.format_exc()
    if error is None:
        try:
            result = run.finalize()
            out_q.put((shard, dump_sketch(result[1])) + result[2:])
            return
        except Exception:
            error = traceback.format_exc()
    out_q.put(ShardWorkerError(shard, error))


class StreamDriver:
    """Scatter columnar chunks to persistent shard workers, gather state.

    Workers start once, consume chunks as the driver sends them
    (overlapping with the driver's partitioning of the next block), and
    return their state when :meth:`results` closes the stream.

    Args:
        spec: Per-worker :class:`~repro.engine.sharded.SketchSpec`.
        shards: Total shard count; each shard owns one sketch.
        processes: ``True`` — one OS process per shard; ``False`` — run
            every shard inline in this process.
        collect_metrics: When true each shard runs under its own
            :class:`~repro.obs.registry.MetricsRegistry` and returns its
            snapshot with the results.
    """

    def __init__(
        self,
        spec,
        shards: int,
        processes: bool = True,
        collect_metrics: bool = False,
    ) -> None:
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        self.shards = shards
        #: Seconds :meth:`results` spent loading worker blobs (state
        #: transfer, which scales with geometry rather than packets).
        self.load_elapsed_s = 0.0
        self._closed = False
        self._procs: List = []
        self._in_qs: List = []
        if not processes:
            self._inline = [
                _ShardRun(spec, shard, collect_metrics) for shard in range(shards)
            ]
            return
        self._inline = None
        ctx = multiprocessing.get_context()
        self._out_q = ctx.Queue()
        for shard in range(shards):
            in_q = ctx.Queue(maxsize=WORKER_CREDITS)
            proc = ctx.Process(
                target=_stream_worker,
                args=(spec, shard, collect_metrics, in_q, self._out_q),
            )
            proc.start()
            self._in_qs.append(in_q)
            self._procs.append(proc)

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
            self._inline[shard].consume(hi, lo, sizes)
            return
        self._put(shard, (hi, lo, sizes))

    def results(self) -> Iterator[ShardResult]:
        """Close the stream and yield shard results as workers finish.

        Results arrive in completion order (shard order when inline);
        exactly one per shard, empty shards included.  A worker that
        raised or died raises :class:`ShardWorkerError` here, after the
        remaining workers are stopped.
        """
        self._closed = True
        if self._inline is not None:
            for run in self._inline:
                yield run.finalize()
            return
        try:
            for shard in range(self.shards):
                self._put(shard, None)
            pending = set(range(self.shards))
            while pending:
                result = self._get(pending)
                if isinstance(result, ShardWorkerError):
                    raise result
                pending.discard(result[0])
                start = time.perf_counter()
                sketch = load_sketch(result[1])
                self.load_elapsed_s += time.perf_counter() - start
                yield (result[0], sketch) + result[2:]
        except BaseException:
            self.abort()
            raise
        for proc in self._procs:
            proc.join()

    def _put(self, shard: int, message) -> None:
        """Queue *message* for *shard*, failing if its worker is gone."""
        in_q = self._in_qs[shard]
        while True:
            try:
                in_q.put(message, timeout=_POLL_S)
                return
            except queue.Full:
                code = self._procs[shard].exitcode
                if code is not None:
                    self.abort()
                    raise ShardWorkerError(
                        shard, f"worker exited with code {code}"
                    ) from None

    def _get(self, pending):
        """Next worker message, failing if a *pending* worker is gone.

        Liveness is read before the wait: a worker that exited before
        it began has already flushed everything it sent, so an empty
        wait after that means its result is never coming.
        """
        while True:
            dead = [
                s for s in sorted(pending) if self._procs[s].exitcode is not None
            ]
            try:
                return self._out_q.get(timeout=_POLL_S)
            except queue.Empty:
                if dead:
                    code = self._procs[dead[0]].exitcode
                    raise ShardWorkerError(
                        dead[0],
                        f"worker exited with code {code} before "
                        f"returning its state",
                    ) from None

    def abort(self) -> None:
        """Stop every worker and drop undelivered chunks.

        For a caller whose scatter loop fails before :meth:`results`:
        without it the workers wait for chunks that never come.
        """
        self._closed = True
        for proc in self._procs:
            if proc.exitcode is None:
                proc.terminate()
        for proc in self._procs:
            proc.join()
        for in_q in self._in_qs:
            # A chunk buffered for a dead worker must not block exit.
            in_q.cancel_join_thread()
            in_q.close()
