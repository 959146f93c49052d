"""Sharded multi-worker measurement pipeline whose shards add.

CocoSketch's per-flow estimates are unbiased (Theorem 1), and estimates
of disjoint sub-streams add (Lemma 3).  This module turns that into a
horizontal scaling lever:

1. **Partition** — a trace's columnar ``(hi, lo, sizes)`` stream is
   split across ``N`` shards, either by a hash of the full key (every
   flow lands wholly on one worker, the multi-core NIC/RSS shape) or
   round-robin (flows split across workers; the sum is unbiased
   either way, and tests exercise both).
2. **Measure** — one engine-backed sketch per shard runs behind a
   persistent streaming worker (:class:`repro.parallel.StreamDriver`):
   the driver partitions one stream block while the workers consume the
   previous one through bounded queues — no per-batch pool barrier.
   Workers share one hash-family seed but draw replacement decisions
   from decorrelated streams.  In process mode a worker's state
   crosses back through the :mod:`repro.core.serialize` wire format;
   inline runs hand their sketches over as objects.
3. **Sum** — the shard sketches are kept as they are, in shard order,
   and every answer is the sum of theirs: a flow's estimate is the sum
   of its per-shard estimates, and a table is the group-by of the
   shards' concatenated rows (:func:`sum_rows`).  No coin flip is drawn
   to combine them, and all ``N`` sketches' buckets stay in use.

With one shard the pipeline replays the unsharded execution exactly —
same update order, same RNG stream — so ``shards=1`` is bit-identical
to a plain engine sketch under the same seed (a property test gates
this for both engines).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.cocosketch import BasicCocoSketch
from repro.core.hardware import HardwareCocoSketch
from repro.engine.base import buckets_for_memory, get_engine
from repro.engine.vectorized import NumpyCocoSketch, NumpyHardwareCocoSketch
from repro.hashing.family import fold_columns, mix64, mix64_array, reduce_index
from repro.metrics.throughput import ShardedThroughputResult, WorkerThroughput
from repro.sketches.base import (
    COUNTER_BYTES,
    DEFAULT_KEY_BYTES,
    KeyBatch,
    Sketch,
    UpdateCost,
    iter_blocks,
)

_PARTITION_SALT = 0xA11CE

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
    family while the driver decorrelates their RNGs.
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
        dealt = offset + np.arange(n, dtype=np.int64)
        return reduce_index(dealt, shards, out=dealt)
    salt = np.uint64(mix64(seed ^ _PARTITION_SALT))
    hashed = mix64_array(fold_columns(hi, lo) ^ salt)
    return reduce_index(hashed, shards, out=hashed).astype(np.int64)


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


def sum_rows(sketches, key_spec):
    """The raw rows of several sketches' tables, concatenated in sketch order.

    Each sketch's recorded table is an unbiased per-flow estimate of
    the traffic it saw (Theorem 1), and for disjoint sub-streams
    (shards, the switches of an exactly-once collector, the shards of an
    epoch) a flow's estimate over the whole stream is the sum of its
    per-sketch estimates (Lemma 3).  So the group-by of these rows is
    the measurement's table, and any partial-key aggregate over them
    stays unbiased.  Engine sketches contribute their raw bucket rows
    (duplicates included); the rows are deterministic bytes and no
    randomness is involved.
    """
    from repro.query.columns import ColumnTable

    return ColumnTable.concat_many(
        [ColumnTable.from_sketch(s, key_spec, group=False) for s in sketches],
        key_spec,
    )


def shard_table_columns(sketches, key_spec):
    """The sum of several sketches' tables as one grouped ColumnTable."""
    return sum_rows(sketches, key_spec).group()


def _occupied_mask(sketch) -> np.ndarray:
    """``(d, l)`` mask of the buckets holding a key, for any sketch variant."""
    occ = getattr(sketch, "_occupied", None)
    if occ is not None:
        return occ
    return np.array(
        [[k is not None for k in row] for row in sketch._keys], dtype=bool
    )


def sum_occupancy(sketches) -> float:
    """Fraction of bucket positions some same-geometry sketch occupies.

    The union of the sketches' occupied masks: a bucket position counts
    once however many of the summed sketches hold a key there.
    """
    masks = [_occupied_mask(s) for s in sketches]
    return float(np.logical_or.reduce(masks).mean())


class ShardedSketch(Sketch):
    """N worker sketches answering as one through the sum of their tables.

    Args:
        spec: Per-worker sketch configuration (one hash family for all).
        shards: Worker count (1 replays unsharded execution exactly).
        strategy: ``"hash"`` (flow-pure) or ``"round-robin"``.
        processes: ``True`` — one worker process per shard; ``False``
            — sequential in-process workers (identical results; handy
            for tests and tiny traces).

    ``process()`` runs the scatter/measure pipeline and keeps the shard
    sketches in :attr:`sketches`, in shard order; ``query`` and
    ``flow_table`` then answer with the sum over them, so the class
    drops into :class:`~repro.tasks.harness.FullKeyEstimator` (or is
    built for you by its ``shards=`` argument).  A repeated ``process``
    appends the new run's shard sketches: the runs' traffic is disjoint,
    so their estimates add too.
    """

    name = "CocoSketch-sharded"

    def __init__(
        self,
        spec: SketchSpec,
        shards: int,
        strategy: str = "hash",
        processes: bool = True,
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
        self.d = spec.d
        self.l = spec.l
        self.key_bytes = spec.key_bytes
        self.sketches: List[Sketch] = []
        self._cost: Optional[UpdateCost] = None
        self.worker_reports: List[WorkerThroughput] = []
        self.wall_elapsed_s = 0.0

    def process(self, packets: Iterable[Tuple[int, int]]) -> None:
        """Stream the trace through the shard workers and keep their sketches.

        The steady state is a two-way overlap: the driver partitions
        stream block *k+1* while the workers' engines chew on block
        *k*'s chunks.  Wall time covers the partition/stream/gather
        pipeline, less the driver's loading of process-mode worker
        state, which scales with sketch geometry, not packets.  An
        error from the packet source or the partition step stops the
        workers before it propagates.
        """
        import time

        from repro.obs.registry import get_registry
        from repro.parallel import StreamDriver

        reg = get_registry()
        counts = [0] * self.shards
        wall_start = time.perf_counter()
        driver = StreamDriver(
            self.spec,
            self.shards,
            processes=self.processes,
            collect_metrics=reg.enabled,
        )
        with reg.span("shard.workers"):
            offset = 0
            try:
                for bhi, blo, bsizes in iter_blocks(packets):
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
            except BaseException:
                driver.abort()
                raise
            # Results arrive in completion order; keep them in shard order.
            results = sorted(driver.results(), key=lambda result: result[0])
        self.wall_elapsed_s += (
            time.perf_counter() - wall_start - driver.load_elapsed_s
        )
        for shard, sketch, packets_n, elapsed, cpu, metrics in results:
            self.worker_reports.append(
                WorkerThroughput(
                    shard=shard, packets=packets_n, elapsed_s=elapsed, cpu_s=cpu
                )
            )
            if reg.enabled and metrics is not None:
                reg.merge_snapshot(metrics)
            self.sketches.append(sketch)
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

    # -- Sketch interface: answers are sums over the shard sketches ------

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
        return float(sum(sketch.query(key) for sketch in self.sketches))

    def flow_table(self) -> Dict[int, float]:
        table: Dict[int, float] = {}
        for sketch in self.sketches:
            for key, size in sketch.flow_table().items():
                table[key] = table.get(key, 0.0) + size
        return table

    def export_columns(self):
        """The shard sketches' columnar exports, concatenated in shard order.

        Lets the columnar query plane (:mod:`repro.query`) read a
        sharded measurement without a python-dict round trip: grouping
        the rows is :meth:`flow_table`.  Returns ``None`` (falling back
        to :meth:`flow_table`) when the shards have no columnar export.
        """
        parts = []
        for sketch in self.sketches:
            export = getattr(sketch, "export_columns", None)
            part = export() if export is not None else None
            if part is None:
                return None
            parts.append(part)
        if not parts:
            empty = np.empty(0, dtype=np.uint64)
            return empty, empty, np.empty(0, dtype=np.float64)
        return tuple(np.concatenate(column) for column in zip(*parts))

    def memory_bytes(self) -> int:
        """Data-plane footprint of every worker sketch held (``shards`` before a run)."""
        per_worker = self.d * self.l * (self.key_bytes + COUNTER_BYTES)
        return max(len(self.sketches), self.shards) * per_worker

    def update_cost(self) -> UpdateCost:
        """Per-packet cost inside one worker (same rule as unsharded)."""
        if self._cost is None:
            self._cost = self.spec.build().update_cost()
        return self._cost

    def reset(self) -> None:
        self.sketches = []
        self.worker_reports = []
        self.wall_elapsed_s = 0.0

    def occupancy(self) -> float:
        """Fraction of bucket positions some shard occupies (0.0 before process)."""
        return sum_occupancy(self.sketches) if self.sketches else 0.0

    def __repr__(self) -> str:
        return (
            f"ShardedSketch({self.spec!r}, shards={self.shards}, "
            f"strategy={self.strategy!r})"
        )
