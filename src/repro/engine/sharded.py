"""Sharded multi-worker measurement pipeline with unbiased merge.

CocoSketch's Theorem 1 replacement rule makes sketch state mergeable
without bias, which the paper pitches for multi-core and multi-switch
deployment.  This module turns that into a horizontal scaling lever:

1. **Partition** — a trace's columnar ``(hi, lo, sizes)`` stream is
   split across ``N`` shards, either by a hash of the full key (every
   flow lands wholly on one worker, the multi-core NIC/RSS shape) or
   round-robin (flows split across workers; the merge is unbiased
   either way, and tests exercise both).
2. **Measure** — one engine-backed sketch per shard runs behind a
   persistent streaming worker (:class:`repro.parallel.StreamDriver`):
   the driver partitions one stream block while the workers consume the
   previous one through bounded queues — no per-batch pool barrier.
   Workers share one hash-family seed (mergeable state) but draw
   replacement decisions from decorrelated streams.  In process mode a
   worker's state crosses back through the :mod:`repro.core.serialize`
   wire format; inline runs hand their sketches over as objects.
3. **Combine** — the collector folds worker sketches through the
   unbiased merge (:func:`repro.extensions.merging.merge_cocosketch`)
   *incrementally, in shard order, as each worker's state arrives* —
   all coin flips from one seeded stream, yielding a single queryable
   sketch whose per-flow expectations equal the sum of the shards'.

With one shard the pipeline replays the unsharded execution exactly —
same update order, same RNG stream — so ``shards=1`` is bit-identical
to a plain engine sketch under the same seed (a property test gates
this for both engines).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.cocosketch import BasicCocoSketch
from repro.core.hardware import HardwareCocoSketch
from repro.engine.base import buckets_for_memory, get_engine
from repro.engine.vectorized import NumpyCocoSketch, NumpyHardwareCocoSketch
from repro.hashing.family import fold_columns, mix64, mix64_array
from repro.metrics.throughput import ShardedThroughputResult, WorkerThroughput
from repro.sketches.base import (
    COUNTER_BYTES,
    DEFAULT_KEY_BYTES,
    KeyBatch,
    Sketch,
    UpdateCost,
)

_PARTITION_SALT = 0xA11CE
_MERGE_STREAM_SALT = 0x3A6ED

PARTITION_STRATEGIES = ("hash", "round-robin")

#: Sketch classes a spec can be recovered from (exact type -> config).
_SPECCABLE = {
    BasicCocoSketch: ("scalar", "basic"),
    HardwareCocoSketch: ("scalar", "hardware"),
    NumpyCocoSketch: ("numpy", "basic"),
    NumpyHardwareCocoSketch: ("numpy", "hardware"),
}


@dataclass(frozen=True)
class SketchSpec:
    """Everything a worker needs to rebuild its sketch.

    Picklable and tiny — this is what crosses the process boundary,
    not sketch objects.  All workers built from one spec share a hash
    family (mergeable) while the driver decorrelates their RNGs.
    """

    engine: str = "scalar"
    variant: str = "basic"
    d: int = 2
    l: int = 1024
    seed: int = 0
    key_bytes: int = DEFAULT_KEY_BYTES

    def __post_init__(self) -> None:
        if self.variant not in ("basic", "hardware"):
            raise ValueError(
                f"variant must be 'basic' or 'hardware', got {self.variant!r}"
            )
        if self.d < 1 or self.l < 1:
            raise ValueError(f"bad geometry d={self.d}, l={self.l}")

    def build(self) -> Sketch:
        """Instantiate the sketch on the configured engine."""
        engine = get_engine(self.engine)
        factory = (
            engine.cocosketch
            if self.variant == "basic"
            else engine.hardware_cocosketch
        )
        return factory(self.d, self.l, self.seed, self.key_bytes)

    @classmethod
    def from_memory(
        cls,
        memory_bytes: int,
        engine: str = "scalar",
        variant: str = "basic",
        d: int = 2,
        seed: int = 0,
        key_bytes: int = DEFAULT_KEY_BYTES,
    ) -> "SketchSpec":
        """Size each worker's sketch to a per-worker memory budget."""
        l = buckets_for_memory(memory_bytes, d, key_bytes)
        return cls(engine, variant, d, l, seed, key_bytes)

    @classmethod
    def from_sketch(cls, sketch: Sketch) -> "SketchSpec":
        """Recover the spec of an existing engine sketch.

        Works for the four engine-built CocoSketch classes whose hash
        family still knows its constructor seed; a sketch restored by
        ``load_sketch`` (master_seed is None) cannot be re-specced.
        """
        config = _SPECCABLE.get(type(sketch))
        if config is None:
            raise ValueError(
                f"cannot derive a SketchSpec from {type(sketch).__name__}"
            )
        master_seed = getattr(sketch._family, "master_seed", None)
        if master_seed is None:
            raise ValueError(
                "sketch's hash family has no master seed (was it "
                "deserialised?); construct a SketchSpec explicitly"
            )
        engine, variant = config
        return cls(
            engine, variant, sketch.d, sketch.l, master_seed, sketch.key_bytes
        )


def shard_assignments(
    hi: "np.ndarray",
    lo: "np.ndarray",
    shards: int,
    strategy: str = "hash",
    seed: int = 0,
    offset: int = 0,
) -> "np.ndarray":
    """Per-packet shard index (int64 array).

    ``hash`` sends each full key to a fixed shard via a salted
    splitmix64 over the folded key columns — deterministic under
    *seed*, independent of the sketch hash family, and flow-pure
    (every packet of a flow reaches the same worker).  ``round-robin``
    deals packets in arrival order, splitting flows across workers;
    *offset* is the stream position of the first packet, so a streaming
    driver partitioning block by block deals exactly like a whole-trace
    call (``hash`` ignores it — key hashes are position-free).
    """
    if shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    if strategy not in PARTITION_STRATEGIES:
        raise ValueError(
            f"unknown strategy {strategy!r}; choose from {PARTITION_STRATEGIES}"
        )
    n = len(lo)
    if strategy == "round-robin":
        return ((offset + np.arange(n, dtype=np.int64)) % shards).astype(
            np.int64
        )
    salt = np.uint64(mix64(seed ^ _PARTITION_SALT))
    hashed = mix64_array(fold_columns(hi, lo) ^ salt)
    return (hashed % np.uint64(shards)).astype(np.int64)


def _split_by_assignment(
    hi: "np.ndarray",
    lo: "np.ndarray",
    sizes: "np.ndarray",
    assign: "np.ndarray",
    shards: int,
) -> List[Tuple["np.ndarray", "np.ndarray", "np.ndarray"]]:
    """Split columns into per-shard triples, order-preserving.

    One packed value sort of ``(shard << pos_bits) | position``
    composites (uint32 when it fits) replaces per-shard boolean masks —
    a single sort plus three gathers instead of ``3 * shards`` masked
    copies, the same trick the engine kernels use.  Per-shard outputs
    are contiguous slices of the gathered arrays.
    """
    if shards == 1:
        return [(hi, lo, sizes)]
    n = len(assign)
    counts = np.bincount(assign, minlength=shards)
    pos_bits = max((n - 1).bit_length(), 1)
    shard_bits = max((shards - 1).bit_length(), 1)
    comp = (assign << np.int64(pos_bits)) | np.arange(n, dtype=np.int64)
    if shard_bits + pos_bits <= 32:
        c = comp.astype(np.uint32)
        c.sort()
        order = (c & np.uint32((1 << pos_bits) - 1)).astype(np.int64)
    else:
        comp.sort()
        order = comp & np.int64((1 << pos_bits) - 1)
    shi, slo, ssz = hi[order], lo[order], sizes[order]
    out = []
    start = 0
    for shard in range(shards):
        stop = start + int(counts[shard])
        out.append((shi[start:stop], slo[start:stop], ssz[start:stop]))
        start = stop
    return out


def partition_columns(
    hi: "np.ndarray",
    lo: "np.ndarray",
    sizes: "np.ndarray",
    shards: int,
    strategy: str = "hash",
    seed: int = 0,
    offset: int = 0,
) -> List[Tuple["np.ndarray", "np.ndarray", "np.ndarray"]]:
    """Split one columnar stream into per-shard streams, order-preserving."""
    assign = shard_assignments(hi, lo, shards, strategy, seed, offset)
    return _split_by_assignment(hi, lo, sizes, assign, shards)


def shard_table_columns(sketches, key_spec):
    """Combined flow table of per-shard sketches as one grouped ColumnTable.

    The *sum-of-shards* read semantics the slim replica serves: each
    shard's recorded table is an unbiased per-flow estimate (Theorem 1),
    and a flow's combined estimate is the sum of its per-shard estimates
    — so any partial-key aggregate over the concatenation stays unbiased
    (Lemma 3).  Unlike the coin-flip state fold
    (:func:`repro.extensions.merging.merge_many`) this involves no
    randomness, which is what makes replica-vs-fat differential tests
    bit-exact.
    """
    from repro.query.columns import ColumnTable

    tables = [ColumnTable.from_sketch(sketch, key_spec) for sketch in sketches]
    return ColumnTable.concat_many(tables, key_spec).group()


def _iter_blocks(
    packets: Iterable[Tuple[int, int]], block: int
) -> Iterable[Tuple["np.ndarray", "np.ndarray", "np.ndarray"]]:
    """Yield the input as (hi, lo, sizes) blocks of at most *block*.

    A :class:`~repro.traffic.trace.Trace` supplies (and caches) its own
    columns; any other ``(key, size)`` iterable is packed here block by
    block — the streaming driver never materialises the whole trace.
    """
    batches = getattr(packets, "batches", None)
    if batches is not None:
        yield from batches(block)
        return
    from repro.flowkeys.columns import pack_key_columns

    keys: list = []
    szs: list = []
    for key, size in packets:
        keys.append(key)
        szs.append(size)
        if len(keys) >= block:
            hi, lo = pack_key_columns(keys)
            yield hi, lo, np.asarray(szs, dtype=np.int64)
            keys, szs = [], []
    if keys:
        hi, lo = pack_key_columns(keys)
        yield hi, lo, np.asarray(szs, dtype=np.int64)


class ShardedSketch(Sketch):
    """N worker sketches behind a single queryable merged sketch.

    Args:
        spec: Per-worker sketch configuration (one hash family for all).
        shards: Worker count (1 replays unsharded execution exactly).
        strategy: ``"hash"`` (flow-pure) or ``"round-robin"``.
        processes: ``True`` — one worker process per shard; ``False``
            — sequential in-process workers (identical results; handy
            for tests and tiny traces).
        batch_size: Per-worker update batch; ``None`` = engine default.

    ``process()`` runs the full scatter/measure/merge pipeline; the
    merged sketch then serves ``query``/``flow_table`` so the class
    drops into :class:`~repro.tasks.harness.FullKeyEstimator` (or is
    built for you by its ``shards=`` argument).  Repeated ``process``
    calls fold new results into the existing state through the same
    seeded merge stream.
    """

    name = "CocoSketch-sharded"

    def __init__(
        self,
        spec: SketchSpec,
        shards: int,
        strategy: str = "hash",
        processes: bool = True,
        batch_size: Optional[int] = None,
    ) -> None:
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        if strategy not in PARTITION_STRATEGIES:
            raise ValueError(
                f"unknown strategy {strategy!r}; choose from {PARTITION_STRATEGIES}"
            )
        self.spec = spec
        self.shards = shards
        self.strategy = strategy
        self.processes = processes
        self.batch_size = batch_size
        self.d = spec.d
        self.l = spec.l
        self.key_bytes = spec.key_bytes
        self._merged: Optional[Sketch] = None
        self._cost: Optional[UpdateCost] = None
        # One injected stream drives every merge coin flip this pipeline
        # ever makes, so results are reproducible under spec.seed.
        self._merge_rng = random.Random(mix64(spec.seed ^ _MERGE_STREAM_SALT))
        self.worker_reports: List[WorkerThroughput] = []
        self.wall_elapsed_s = 0.0
        self.merge_elapsed_s = 0.0

    @property
    def merged(self) -> Optional[Sketch]:
        """The combined post-merge sketch (None before ``process``)."""
        return self._merged

    def process(
        self,
        packets: Iterable[Tuple[int, int]],
        batch_size: Optional[int] = None,
    ) -> None:
        """Stream the trace through the shard workers, folding results in.

        The steady state is a three-way overlap: the driver partitions
        stream block *k+1* while the workers' engines chew on
        block *k*'s chunks, and each worker's final state is folded into
        the merged sketch as soon as it (and every lower-numbered
        shard) arrives — shard order keeps the single seeded merge
        stream reproducible.  Wall time covers the
        partition/stream/gather pipeline; the folds run interleaved
        with still-active workers but their own time, with the
        driver's loading of process-mode worker state, is tracked
        separately (``merge_elapsed_s``), since both scale with sketch
        geometry, not packets.
        """
        import time

        from repro.extensions.merging import merge_cocosketch
        from repro.obs.registry import get_registry
        from repro.parallel import StreamDriver, stream_batch_for

        reg = get_registry()
        bs = batch_size or self.batch_size
        step = stream_batch_for(bs)
        counts = [0] * self.shards
        wall_start = time.perf_counter()
        driver = StreamDriver(
            self.spec,
            self.shards,
            processes=self.processes,
            batch_size=bs,
            collect_metrics=reg.enabled,
        )
        with reg.span("shard.workers"):
            offset = 0
            for bhi, blo, bsizes in _iter_blocks(packets, step):
                with reg.span("shard.partition"):
                    parts = partition_columns(
                        bhi, blo, bsizes, self.shards, self.strategy,
                        self.spec.seed, offset=offset,
                    )
                offset += len(bsizes)
                for shard, (shi, slo, ssz) in enumerate(parts):
                    if len(ssz):
                        counts[shard] += len(ssz)
                        driver.send(shard, shi, slo, ssz)
            # Incremental shard-order fold: results arrive in completion
            # order, but the one seeded merge stream must consume them
            # in shard order — fold shard k as soon as it and every
            # lower-numbered shard are in, overlapping the merge with
            # still-running workers.
            pending = {}
            next_fold = 0
            merge_elapsed = 0.0
            for result in driver.results():
                pending[result[0]] = result
                while next_fold in pending:
                    shard, sketch, packets_n, elapsed, cpu, metrics = (
                        pending.pop(next_fold)
                    )
                    self.worker_reports.append(
                        WorkerThroughput(
                            shard=shard,
                            packets=packets_n,
                            elapsed_s=elapsed,
                            cpu_s=cpu,
                        )
                    )
                    if reg.enabled and metrics is not None:
                        reg.merge_snapshot(metrics)
                    with reg.span("shard.merge"):
                        fold_start = time.perf_counter()
                        if self._merged is None:
                            self._merged = sketch
                        else:
                            self._merged = merge_cocosketch(
                                self._merged, sketch, rng=self._merge_rng
                            )
                        merge_elapsed += time.perf_counter() - fold_start
                    next_fold += 1
            merge_elapsed += driver.load_elapsed_s
        self.merge_elapsed_s += merge_elapsed
        self.wall_elapsed_s += (
            time.perf_counter() - wall_start - merge_elapsed
        )
        if reg.enabled:
            for shard, count in enumerate(counts):
                reg.inc(f"shard.{shard}.packets", count)
            mean = sum(counts) / len(counts)
            # Partition skew: max shard load over the mean (1.0 = even).
            reg.set_gauge(
                "shard.partition.imbalance",
                max(counts) / mean if mean else 1.0,
            )
            reg.set_gauge(
                "shard.driver.efficiency", self.throughput().driver_efficiency
            )

    def throughput(self) -> ShardedThroughputResult:
        """Aggregate + per-worker packet rates of all runs so far."""
        return ShardedThroughputResult(
            workers=tuple(self.worker_reports),
            wall_elapsed_s=self.wall_elapsed_s,
        )

    # -- Sketch interface: queries answered by the merged state --------

    def update(self, key: int, size: int = 1) -> None:
        raise NotImplementedError(
            "ShardedSketch is batch-oriented; feed traffic through "
            "process() (which scatters to the worker pool)"
        )

    def update_batch(
        self, keys: KeyBatch, sizes: Optional[Sequence[int]] = None
    ) -> None:
        raise NotImplementedError(
            "ShardedSketch is batch-oriented; feed traffic through "
            "process() (which scatters to the worker pool)"
        )

    def query(self, key: int) -> float:
        if self._merged is None:
            return 0.0
        return self._merged.query(key)

    def flow_table(self):
        if self._merged is None:
            return {}
        return self._merged.flow_table()

    def export_columns(self):
        """Columnar state export of the post-merge sketch.

        Lets the columnar query plane (:mod:`repro.query`) read a
        sharded measurement without a python-dict round trip when the
        merged sketch is engine-backed; returns ``None`` (falling back
        to :meth:`flow_table`) otherwise.
        """
        if self._merged is None:
            empty = np.empty(0, dtype=np.uint64)
            return empty, empty, np.empty(0, dtype=np.float64)
        export = getattr(self._merged, "export_columns", None)
        return export() if export is not None else None

    def memory_bytes(self) -> int:
        """Total data-plane footprint across all worker sketches."""
        per_worker = self.d * self.l * (self.key_bytes + COUNTER_BYTES)
        return self.shards * per_worker

    def update_cost(self) -> UpdateCost:
        """Per-packet cost inside one worker (same rule as unsharded)."""
        if self._cost is None:
            self._cost = self.spec.build().update_cost()
        return self._cost

    def reset(self) -> None:
        self._merged = None
        self.worker_reports = []
        self.wall_elapsed_s = 0.0
        self.merge_elapsed_s = 0.0
        self._merge_rng = random.Random(
            mix64(self.spec.seed ^ _MERGE_STREAM_SALT)
        )

    def occupancy(self) -> float:
        """Bucket occupancy of the merged sketch (0.0 before process)."""
        if self._merged is None or not hasattr(self._merged, "occupancy"):
            return 0.0
        return self._merged.occupancy()

    def __repr__(self) -> str:
        return (
            f"ShardedSketch({self.spec!r}, shards={self.shards}, "
            f"strategy={self.strategy!r})"
        )
