"""The long-lived measurement daemon: ingest, rotate, serve.

Turns the batch engine into a system.  One :class:`MeasurementDaemon`
owns a sequence of epochs; inside each epoch an :class:`EpochBuilder`
owns the epoch's shard engines and feeds their chunk loop, and at every
rotation boundary the shards fold, in process, into the read-only
sketch of an immutable :class:`~repro.service.epochs.EpochSnapshot`.
State becomes bytes only when a snapshot is exported
(:meth:`~repro.service.epochs.EpochSnapshot.to_bytes`).

Determinism contract (what the bit-identity suite gates): an epoch's
snapshot is a pure function of *(spec, shards, strategy, chunk, the
epoch's packet column sequence)* — independent of how callers chunk
their submissions and of thread scheduling.  Two mechanisms make that
true:

* the builder buffers arrivals and feeds the partitioner/engines in
  exact ``chunk``-sized blocks (the remainder flushes only at close),
  so engine-visible call boundaries never depend on arrival framing;
* every random stream is positionally seeded — replacement RNGs by
  ``(seed, epoch, shard)`` via
  :func:`~repro.parallel.epoch_stream_seed`, the per-epoch shard fold
  by :func:`~repro.service.epochs.epoch_merge_seed` — while the hash
  family (from the spec seed) is shared by all epochs, keeping their
  snapshots mergeable.

Live reads never perturb that.  The default read path is the *slim*
one: a :class:`~repro.query.slim.SlimReplica` bootstrapped lazily from
the fat arrays (a per-array memcpy under the ingest lock, once per
epoch) and kept fresh by compact per-chunk deltas the engines emit from
their chunk loop's replace step — a read is a bounded delta drain
under the replica's own lock, not a copy-and-merge under the ingest
lock.  The *fat* path (``view="fat"``) copies the flushed shard state
arrays under the ingest lock and merges the copies *outside* the lock
with their own ephemeral stream.
Either way emission is read-only, so ingestion's RNG streams are never
advanced by a read.
"""

from __future__ import annotations

import dataclasses
import queue
import random
import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.control.governor import GovernorConfig, ResourceGovernor, Signals
# Imported only as layers benchmarks/ledger/tracer.py patches (no calls here).
from repro.core.serialize import dump_sketch, load_sketch  # noqa: F401
from repro.engine.kernels import CHUNK_GAUGE
from repro.engine.sharded import (
    PARTITION_STRATEGIES,
    SketchSpec,
    partition_columns,
)
from repro.extensions.merging import merge_many
from repro.extensions.windowed import split_budget
from repro.flowkeys.key import FullKeySpec
from repro.hashing.family import mix64
from repro.obs.registry import TIME_EDGES, MetricsRegistry
from repro.parallel import build_shard_sketch
from repro.query.planner import QueryPlanner
from repro.query.slim import SlimReplica
from repro.service.epochs import (
    EpochSnapshot,
    EpochStore,
    epoch_merge_seed,
    freeze,
    frozen_copy,
)

_LIVE_MERGE_SALT = 0x11FE5
_GOLDEN_LIVE = 0x9E3779B97F4A7C15

#: Default engine feed granularity: the largest kernel chunk
#: (`repro.engine.vectorized.MAX_PIPELINE_CHUNK`).  Engines derive
#: their own chunk from the geometry, a power of two in [512, 16384]
#: (`NumpyCocoSketch.pipeline_chunk`), so every engine chunk divides
#: this block and engine chunk boundaries follow the re-blocking.
DEFAULT_CHUNK = 16384


class ServiceError(RuntimeError):
    """Daemon misuse or unavailable state (closed daemon, no live view)."""


def _sketch_occupancy(sketch) -> float:
    """Fraction of buckets holding a key, for any sketch variant."""
    occ = getattr(sketch, "occupancy", None)
    if occ is not None:
        return float(occ())
    filled = sum(k is not None for row in sketch._keys for k in row)
    return filled / (sketch.d * sketch.l)


@dataclass
class ServiceConfig:
    """Everything a measurement daemon needs.

    Args:
        spec: Per-shard sketch configuration (one hash family for the
            daemon's whole lifetime — epochs must stay mergeable).
        key_spec: Full-key spec of the traffic (drives the query plane).
        shards: Worker sketch count.
        strategy: ``"hash"`` (flow-pure) or ``"round-robin"`` partitioner.
        chunk: Engine feed granularity; arrivals are re-blocked to this
            before the engines see them (the determinism contract).
        epoch_packets: Rotate after exactly this many packets (boundary
            splits mid-block when needed).  ``None`` — no packet bound.
        epoch_seconds: Rotate when the live epoch is older than this at
            the next ingest.  ``None`` — no wall-clock bound.
        history: Closed epochs retained by the store.
        queue_blocks: Bound of the background ingest queue
            (:meth:`MeasurementDaemon.offer` blocks when full).
        live_refresh_packets: Freshness/throughput trade-off for live
            reads.  ``0`` (default) rebuilds the live view whenever new
            packets have flushed; a positive value keeps serving the
            cached view until at least this many further packets flush
            in the same epoch — readers see a slightly stale but still
            version-consistent snapshot, and heavy query load stops
            stealing ingest cycles.  Honoured by both read paths.
        slim_sync: Maintain the slim read replica
            (:class:`~repro.query.slim.SlimReplica`).  On by default;
            the replica costs nothing until the first ``view="slim"``
            read actually bootstraps it.  ``False`` disables the slim
            view entirely (reads fall back to the fat path).
        slim_max_pending_rows: Queued-delta row bound before the
            replica compacts in-line; ``None`` uses the replica's
            default (a few multiples of the state size).
        live_view: Default live read path: ``"slim"``, ``"fat"``, or
            ``None`` (auto — slim when the replica is enabled).
        governor: Elastic-geometry control loop
            (:class:`~repro.control.governor.GovernorConfig`).  When
            set, the daemon samples occupancy/skew at every rotation
            and resizes ``spec.l`` (and re-draws the partition seed)
            for the *next* epoch — geometry only ever changes at
            rotation boundaries, so every epoch snapshot remains a
            pure function of its packet sequence.
        tenants: Tenant names.  When set, ingested traffic is also
            routed (by a salted full-key hash) to one isolated
            sub-daemon per tenant under a shared memory budget — see
            :class:`~repro.control.tenants.TenantManager`.  The parent
            keeps measuring the aggregate with its own spec.
        tenant_memory_bytes: Joint budget across all tenant sketches;
            defaults to the parent plane's own total footprint.
    """

    spec: SketchSpec
    key_spec: FullKeySpec
    shards: int = 1
    strategy: str = "hash"
    chunk: int = DEFAULT_CHUNK
    epoch_packets: Optional[int] = None
    epoch_seconds: Optional[float] = None
    history: int = 64
    queue_blocks: int = 8
    live_refresh_packets: int = 0
    slim_sync: bool = True
    slim_max_pending_rows: Optional[int] = None
    live_view: Optional[str] = None
    governor: Optional[GovernorConfig] = None
    tenants: Optional[Tuple[str, ...]] = None
    tenant_memory_bytes: Optional[int] = None

    def __post_init__(self) -> None:
        if self.shards < 1:
            raise ValueError(f"shards must be >= 1, got {self.shards}")
        if self.strategy not in PARTITION_STRATEGIES:
            raise ValueError(
                f"unknown strategy {self.strategy!r}; "
                f"choose from {PARTITION_STRATEGIES}"
            )
        if self.chunk < 1:
            raise ValueError(f"chunk must be >= 1, got {self.chunk}")
        if self.epoch_packets is not None and self.epoch_packets < 1:
            raise ValueError(
                f"epoch_packets must be >= 1, got {self.epoch_packets}"
            )
        if self.epoch_seconds is not None and self.epoch_seconds <= 0:
            raise ValueError(
                f"epoch_seconds must be > 0, got {self.epoch_seconds}"
            )
        if self.queue_blocks < 1:
            raise ValueError(
                f"queue_blocks must be >= 1, got {self.queue_blocks}"
            )
        if self.live_refresh_packets < 0:
            raise ValueError(
                f"live_refresh_packets must be >= 0, "
                f"got {self.live_refresh_packets}"
            )
        if self.slim_max_pending_rows is not None and self.slim_max_pending_rows < 1:
            raise ValueError(
                f"slim_max_pending_rows must be >= 1, "
                f"got {self.slim_max_pending_rows}"
            )
        if self.live_view not in (None, "slim", "fat"):
            raise ValueError(
                f"live_view must be 'slim', 'fat' or None, "
                f"got {self.live_view!r}"
            )
        if self.live_view == "slim" and not self.slim_sync:
            raise ValueError("live_view='slim' requires slim_sync=True")
        if self.tenants is not None:
            names = tuple(self.tenants)
            if not names:
                raise ValueError("tenants must name at least one tenant")
            if len(set(names)) != len(names):
                raise ValueError(f"tenant names must be unique: {names}")
            self.tenants = names
        if self.tenant_memory_bytes is not None:
            if self.tenants is None:
                raise ValueError(
                    "tenant_memory_bytes requires tenants to be set"
                )
            if self.tenant_memory_bytes < 1:
                raise ValueError(
                    f"tenant_memory_bytes must be >= 1, "
                    f"got {self.tenant_memory_bytes}"
                )


class EpochBuilder:
    """Accumulates one epoch's traffic in its own shard engines.

    Arrivals buffer until a full ``chunk`` is available, then flush as
    exact chunk-sized blocks: partitioned at the epoch-local stream
    offset and fed to the per-shard engines.  The tail shorter
    than a chunk flushes only at :meth:`close`, so engine-visible block
    boundaries are a function of the packet sequence alone.
    """

    def __init__(
        self,
        config: ServiceConfig,
        epoch: int,
        start_seq: int,
        spec: SketchSpec,
        partition_seed: int,
    ) -> None:
        self.config = config
        # The daemon's *current* (possibly resized) spec and partition
        # seed; epoch 0 starts from the config's own.
        self.spec = spec
        self.partition_seed = partition_seed
        self.epoch = epoch
        self.start_seq = start_seq
        self.packets = 0  # accepted: flushed + buffered
        self.flushed = 0  # handed to the engines
        self.shard_packets = [0] * config.shards  # skew signal
        self.opened_at = time.monotonic()
        self._pend: List[Tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        self._pend_n = 0
        self._shards = [
            build_shard_sketch(self.spec, shard, epoch)
            for shard in range(config.shards)
        ]

    def feed(self, hi, lo, sizes) -> None:
        """Accept one columnar block (any length, including empty)."""
        n = len(sizes)
        if n == 0:
            return
        self._pend.append((hi, lo, sizes))
        self._pend_n += n
        self.packets += n
        if self._pend_n >= self.config.chunk:
            self._flush(full_only=True)

    def _flush(self, full_only: bool) -> None:
        """Re-block the pending buffer into chunk-sized engine feeds."""
        if not self._pend_n:
            return
        chunk = self.config.chunk
        if full_only and self._pend_n < chunk:
            return
        if len(self._pend) == 1:  # aligned arrivals: no copy needed
            hi, lo, sizes = self._pend[0]
        else:
            hi = np.concatenate([p[0] for p in self._pend])
            lo = np.concatenate([p[1] for p in self._pend])
            sizes = np.concatenate([p[2] for p in self._pend])
        total = self._pend_n
        whole = total if not full_only else (total // chunk) * chunk
        for start in range(0, whole, chunk):
            end = min(start + chunk, whole)
            self._scatter(hi[start:end], lo[start:end], sizes[start:end])
        if whole < total:
            self._pend = [(hi[whole:], lo[whole:], sizes[whole:])]
            self._pend_n = total - whole
        else:
            self._pend = []
            self._pend_n = 0

    def _scatter(self, hi, lo, sizes) -> None:
        cfg = self.config
        parts = partition_columns(
            hi, lo, sizes, cfg.shards, cfg.strategy, self.partition_seed,
            offset=self.flushed,
        )
        for shard, (shi, slo, ssz) in enumerate(parts):
            if len(ssz):
                self.shard_packets[shard] += len(ssz)
                self._shards[shard].process_columns(shi, slo, ssz, cfg.chunk)
        self.flushed += len(sizes)

    def live_sketches(self) -> List:
        """The live shard engines in shard order (the read plane's
        surface; read them under the ingest lock, never racing :meth:`feed`)."""
        return self._shards

    def close(self, closed_at: Optional[float] = None) -> EpochSnapshot:
        """Flush the tail and freeze the shards into the epoch's snapshot.

        Shards fold on the epoch's merge stream; a lone shard is copied,
        so the snapshot never holds a live engine.
        """
        self._flush(full_only=False)
        if len(self._shards) == 1:
            sketch = frozen_copy(self._shards[0])
        else:
            rng = random.Random(
                epoch_merge_seed(self.config.spec.seed, self.epoch)
            )
            sketch = freeze(merge_many(self._shards, rng=rng))
        return EpochSnapshot(
            epoch=self.epoch,
            start_seq=self.start_seq,
            packets=self.packets,
            closed_at=time.time() if closed_at is None else closed_at,
            sketch=sketch,
        )


class MeasurementDaemon:
    """Long-lived epoch-rotating measurement process.

    Feed traffic either synchronously (:meth:`ingest`) or through the
    bounded background queue (:meth:`start` + :meth:`offer` — the shape
    the HTTP soak exercises: one ingest thread, many reader threads).
    Readers get consistent views: every published state is either a
    frozen epoch snapshot or a lock-consistent copy of the live shard
    state tagged with its ``(epoch, packets)`` version.
    """

    def __init__(self, config: ServiceConfig) -> None:
        self.config = config
        self.store = EpochStore(config.history, seed=config.spec.seed)
        self.registry = MetricsRegistry()
        self._lock = threading.RLock()
        self._seq = 0
        # Mutable control state: the *current* geometry and partition
        # seed.  Epoch 0 always starts from the config exactly, so an
        # ungoverned daemon replays the historical streams bit for bit.
        self._spec = config.spec
        self._partition_seed = config.spec.seed
        self._pending_l: Optional[int] = None
        self._governor: Optional[ResourceGovernor] = (
            ResourceGovernor(
                config.governor, config.spec.d, config.spec.key_bytes
            )
            if config.governor is not None
            else None
        )
        self._tenants = None
        if config.tenants:
            from repro.control.tenants import TenantManager
            from repro.sketches.base import COUNTER_BYTES

            budget = config.tenant_memory_bytes
            if budget is None:
                budget = (
                    config.shards
                    * config.spec.d
                    * config.spec.l
                    * (config.spec.key_bytes + COUNTER_BYTES)
                )
            self._tenants = TenantManager(config.tenants, config, budget)
        self._builder = self._open_builder_locked(epoch=0, start_seq=0)
        self.registry.set_gauge("control.geometry.l", float(self._spec.l))
        self._closed = False
        self._queue: Optional[queue.Queue] = None
        self._thread: Optional[threading.Thread] = None
        self._ingest_error: Optional[BaseException] = None
        self._live_cache: Tuple[Optional[Tuple[int, int]], Optional[QueryPlanner]] = (
            None,
            None,
        )
        self._planners: Dict[Tuple[int, int], QueryPlanner] = {}
        self._replica: Optional[SlimReplica] = (
            SlimReplica(
                config.spec,
                config.key_spec,
                config.shards,
                max_pending_rows=config.slim_max_pending_rows,
            )
            if config.slim_sync
            else None
        )

    # ------------------------------------------------------------------
    # write path

    def ingest(self, hi, lo, sizes) -> None:
        """Feed one columnar block; rotates at exact epoch boundaries.

        A block straddling a packet-count boundary is split: the prefix
        closes the old epoch, the suffix opens the next — epoch
        contents are independent of submission framing.
        """
        cfg = self.config
        with self._lock:
            if self._closed:
                raise ServiceError("daemon is closed")
            n = len(sizes)
            if (
                cfg.epoch_seconds is not None
                and self._builder.packets
                and time.monotonic() - self._builder.opened_at
                >= cfg.epoch_seconds
            ):
                self._rotate_locked()
            if cfg.epoch_packets is None:
                self._builder.feed(hi, lo, sizes)
                self._seq += n
            else:
                start = 0
                while start < n:
                    take, _rest = split_budget(
                        n - start, cfg.epoch_packets - self._builder.packets
                    )
                    end = start + take
                    self._builder.feed(hi[start:end], lo[start:end], sizes[start:end])
                    self._seq += take
                    start = end
                    if self._builder.packets >= cfg.epoch_packets:
                        self._rotate_locked()
            if self._tenants is not None:
                # Tenant routing sees the whole block — sub-daemons
                # rotate with the parent, not on the parent's packet
                # boundary, so no splitting is needed here.
                self._tenants.route(hi, lo, sizes)
            self.registry.inc("service.ingest.packets", n)
            self.registry.inc("service.ingest.blocks")
            self.registry.set_gauge("service.epoch.live", self._builder.epoch)
            self.registry.set_gauge(
                "service.epoch.packets", self._builder.packets
            )

    def ingest_pairs(self, pairs) -> None:
        """Feed ``(key, size)`` tuples (packs one columnar block)."""
        from repro.flowkeys.columns import pack_key_columns

        keys = []
        sizes = []
        for key, size in pairs:
            keys.append(key)
            sizes.append(size)
        if not keys:
            return
        hi, lo = pack_key_columns(keys)
        self.ingest(hi, lo, np.asarray(sizes, dtype=np.int64))

    def rotate(self) -> Optional[EpochSnapshot]:
        """Force a rotation now; no-op (returns None) on an empty epoch.

        An empty epoch with a *staged* geometry change still applies
        it: the (packet-free) builder is swapped for one at the new
        geometry, so a quiet tenant's rebalanced allocation takes
        effect without fabricating an empty snapshot.
        """
        with self._lock:
            if self._closed:
                raise ServiceError("daemon is closed")
            if not self._builder.packets:
                if self._pending_l is not None and self._pending_l != self._spec.l:
                    self._apply_geometry_locked(self._pending_l)
                    old = self._builder
                    self._builder = self._open_builder_locked(
                        epoch=old.epoch, start_seq=old.start_seq
                    )
                    if self._replica is not None:
                        # Same epoch tag, new shape: force the next slim
                        # read to re-bootstrap instead of serving mirrors
                        # whose geometry no longer matches the fat state.
                        self._replica.invalidate()
                self._pending_l = None
                return None
            return self._rotate_locked()

    def _open_builder_locked(self, epoch: int, start_seq: int) -> EpochBuilder:
        """A builder at the current geometry and partition seed.

        Publishes the engines' kernel chunk as the ``pipeline.chunk``
        gauge: the chunk follows the geometry, so a governed daemon's
        ingest rate is read against it.
        """
        builder = EpochBuilder(
            self.config,
            epoch=epoch,
            start_seq=start_seq,
            spec=self._spec,
            partition_seed=self._partition_seed,
        )
        chunk = getattr(builder.live_sketches()[0], "pipeline_chunk", None)
        if chunk is not None:
            self.registry.set_gauge(CHUNK_GAUGE, float(chunk))
        return builder

    def _apply_geometry_locked(self, new_l: int) -> None:
        """Adopt *new_l* as the current geometry (caller holds the lock)."""
        self._spec = dataclasses.replace(self._spec, l=new_l)
        self.registry.inc("control.resizes")
        self.registry.set_gauge("control.geometry.l", float(self._spec.l))

    def _control_locked(self, snap: EpochSnapshot) -> None:
        """Run the control loop over the just-closed epoch's signals.

        Called between ``close()`` and the next builder's construction
        — the only point where geometry may legally change, so every
        epoch snapshot stays a pure function of its packet sequence
        (the resize-at-rotation invariant).
        """
        new_l: Optional[int] = None
        if self._pending_l is not None:
            if self._pending_l != self._spec.l:
                new_l = self._pending_l
            self._pending_l = None
        if self._governor is not None:
            builder = self._builder  # the closed epoch's builder
            counts = builder.shard_packets
            mean = sum(counts) / len(counts) if counts else 0.0
            imbalance = max(counts) / mean if mean else 1.0
            occupancy = _sketch_occupancy(snap.sketch)
            decision = self._governor.decide(
                Signals(
                    epoch=snap.epoch,
                    l=self._spec.l,
                    occupancy=occupancy,
                    imbalance=imbalance,
                )
            )
            self.registry.inc("control.governor.decisions")
            self.registry.set_gauge("control.occupancy", occupancy)
            if decision.repartition:
                self._partition_seed = mix64(
                    (self._partition_seed ^ 0x5EED17)
                    + (snap.epoch + 1) * _GOLDEN_LIVE
                )
                self.registry.inc("control.governor.repartitions")
            if decision.resized and new_l is None:
                new_l = decision.new_l
                self.registry.inc("control.governor.resizes")
        if new_l is not None:
            self._apply_geometry_locked(new_l)

    def _rotate_locked(self) -> EpochSnapshot:
        start = time.perf_counter()
        snap = self._builder.close()
        self._store_locked(snap)
        self._control_locked(snap)
        self._builder = self._open_builder_locked(
            epoch=snap.epoch + 1, start_seq=self._seq
        )
        if self._tenants is not None:
            self._tenants.on_parent_rotate()
        self.registry.observe(
            "service.rotate.seconds", time.perf_counter() - start, TIME_EDGES
        )
        return snap

    def close(self) -> None:
        """Stop ingestion, drain the queue, freeze the final epoch.

        The trailing epoch only becomes a snapshot when it actually
        absorbed packets — an empty tail leaves no empty epoch behind.
        Idempotent.
        """
        feeder_error: Optional[ServiceError] = None
        try:
            self.stop_feeder()
        except ServiceError as exc:
            feeder_error = exc  # still freeze the final epoch below
        with self._lock:
            if self._closed:
                if feeder_error is not None:
                    raise feeder_error
                return
            self._closed = True
            if self._builder.packets:
                self._store_locked(self._builder.close())
        if self._tenants is not None:
            self._tenants.close()
        if feeder_error is not None:
            raise feeder_error

    @property
    def closed(self) -> bool:
        with self._lock:
            return self._closed

    # ------------------------------------------------------------------
    # control plane

    @property
    def spec(self) -> SketchSpec:
        """The *current* per-shard spec (geometry may have been resized)."""
        with self._lock:
            return self._spec

    def set_geometry(self, new_l: int) -> None:
        """Stage a bucket-count change, applied at the next rotation.

        The external actuation point (tenant rebalancing, operators):
        geometry never changes mid-epoch, so the live epoch's snapshot
        stays a pure function of its packet sequence.  A later call
        before the rotation overwrites the staged value.
        """
        if new_l < 1:
            raise ValueError(f"new_l must be >= 1, got {new_l}")
        with self._lock:
            if self._closed:
                raise ServiceError("daemon is closed")
            self._pending_l = new_l
            self.registry.inc("control.geometry.staged")

    def tenant_daemon(self, name: str) -> "MeasurementDaemon":
        """The named tenant's isolated daemon (KeyError if unknown)."""
        if self._tenants is None:
            raise KeyError(
                f"tenant {name!r} unknown (no tenants configured)"
            )
        return self._tenants.daemon(name)

    @property
    def tenant_names(self) -> Tuple[str, ...]:
        return self._tenants.names if self._tenants is not None else ()

    # ------------------------------------------------------------------
    # background feeder

    def start(self) -> None:
        """Start the background ingest thread (pair with :meth:`offer`)."""
        with self._lock:
            if self._closed:
                raise ServiceError("daemon is closed")
            if self._thread is not None:
                raise ServiceError("feeder already running")
            self._queue = queue.Queue(maxsize=self.config.queue_blocks)
            self._thread = threading.Thread(
                target=self._ingest_loop, name="repro-service-ingest",
                daemon=True,
            )
            self._thread.start()

    def offer(self, hi, lo, sizes, timeout: Optional[float] = None) -> None:
        """Queue one block for the ingest thread (blocks when full)."""
        if self._queue is None:
            raise ServiceError("feeder not running; call start() first")
        if self._ingest_error is not None:
            raise ServiceError(
                f"ingest thread died: {self._ingest_error!r}"
            )
        self._queue.put((hi, lo, sizes), timeout=timeout)

    def stop_feeder(self) -> None:
        """Drain queued blocks and join the ingest thread (idempotent)."""
        thread = self._thread
        if thread is None:
            return
        self._queue.put(None)
        thread.join()
        self._thread = None
        self._queue = None
        if self._ingest_error is not None:
            raise ServiceError(
                f"ingest thread died: {self._ingest_error!r}"
            )

    def _ingest_loop(self) -> None:
        while True:
            block = self._queue.get()
            if block is None:
                return
            if self._ingest_error is not None:
                # Dead feeder: keep draining to the sentinel so a blocked
                # offer() or stop_feeder() returns and then raises.
                continue
            try:
                self.ingest(*block)
            except BaseException as exc:  # surfaced via offer/stop_feeder
                self._ingest_error = exc

    # ------------------------------------------------------------------
    # read path

    def live_version(self) -> Tuple[int, int]:
        """Current ``(epoch, flushed packets)`` — the live view's id."""
        with self._lock:
            return self._builder.epoch, self._builder.flushed

    @property
    def default_live_view(self) -> str:
        """The live view served when a reader names none."""
        if self.config.live_view is not None:
            return self.config.live_view
        return "slim" if self._replica is not None else "fat"

    def live_planner(
        self, view: Optional[str] = None
    ) -> Tuple[Tuple[int, int], QueryPlanner]:
        """Consistent queryable view of the live (unclosed) epoch.

        Returns ``((epoch, packets), planner)``; *packets* counts the
        packets the view covers (arrivals still buffered below one
        chunk become visible at the next flush or rotation).  Per
        reader, versions are monotone; ``live_refresh_packets``
        staleness budgets apply on both paths.

        ``view="slim"`` (the default when the replica is enabled)
        serves the incrementally-synced replica.  In steady state —
        replica already bootstrapped into the current epoch — the read
        never touches the ingest lock at all: it is a bounded delta
        drain under the replica's own lock, so it cannot queue behind
        an in-flight chunk.  Only the first read of an epoch takes the
        ingest lock, for the epoch check plus a per-array memcpy
        bootstrap.

        ``view="fat"`` serves the copy-and-merge path: the shard state
        arrays are copied under the ingest lock, the merge runs outside
        it with an ephemeral stream seeded by the view's version, so
        concurrent readers rebuild identical views.
        """
        if view is None:
            view = self.default_live_view
        if view == "fat":
            return self._fat_live_planner()
        if view != "slim":
            raise ValueError(
                f"unknown live view {view!r}; choose 'slim' or 'fat'"
            )
        replica = self._replica
        if replica is None:
            raise ServiceError(
                "slim live view disabled (ServiceConfig.slim_sync=False)"
            )
        # Steady-state fast path: both reads are single references (a
        # stale glimpse at worst), and a rotation racing past the check
        # only means this read serves the just-rotated epoch's final
        # state — a monotone, correctly-versioned answer; the next read
        # sees the new epoch and re-bootstraps under the lock.
        if self._closed:
            raise ServiceError("daemon is closed")
        if replica.epoch != self._builder.epoch:
            with self._lock:
                if self._closed:
                    raise ServiceError("daemon is closed")
                builder = self._builder
                if replica.epoch != builder.epoch:
                    replica.bootstrap(
                        builder.epoch,
                        builder.start_seq,
                        builder.flushed,
                        builder.live_sketches(),
                        spec=builder.spec,
                    )
        return replica.read(self.config.live_refresh_packets)

    def _fat_live_planner(self) -> Tuple[Tuple[int, int], QueryPlanner]:
        refresh = self.config.live_refresh_packets
        with self._lock:
            if self._closed:
                raise ServiceError("daemon is closed")
            epoch = self._builder.epoch
            cached_version, cached_planner = self._live_cache
            if (
                refresh
                and cached_planner is not None
                and cached_version[0] == epoch
                and self._builder.flushed - cached_version[1] < refresh
            ):
                self.registry.inc("service.live.cache.hits")
                return cached_version, cached_planner
            version = (epoch, self._builder.flushed)
            if cached_version == version:
                self.registry.inc("service.live.cache.hits")
                return version, cached_planner
            copies = [frozen_copy(s) for s in self._builder.live_sketches()]
        rng = random.Random(  # unused by merge_many for one shard
            mix64(self.config.spec.seed ^ _LIVE_MERGE_SALT)
            ^ mix64(epoch * _GOLDEN_LIVE + version[1])
        )
        sketch = merge_many(copies, rng=rng)
        planner = QueryPlanner(sketch, self.config.key_spec, version=version)
        self._publish_live_view(version, planner)
        return version, planner

    def _publish_live_view(
        self, version: Tuple[int, int], planner: QueryPlanner
    ) -> None:
        """Cache a freshly built fat live view — monotonically.

        The build runs outside the ingest lock, so a slow build can
        finish after a newer build — or after a rotation — has already
        published.  Unconditionally overwriting would regress the cache
        to a pre-rotation planner that ``live_refresh_packets`` then
        serves against a post-rotation epoch; the guard only ever moves
        the cache forward in ``(epoch, packets)`` order.
        """
        with self._lock:
            cached_version, _ = self._live_cache
            if cached_version is None or version >= cached_version:
                self._live_cache = (version, planner)
            self.registry.inc("service.live.views")

    def packets_behind(self, epoch: int, packets: int) -> int:
        """How far a served view lags total ingestion — never undercounted.

        For a view versioned ``(epoch, packets)``, counts every packet
        the daemon has accepted past the view's covered prefix —
        including arrivals still buffered below one chunk, so the
        reported lag is an upper bound on what the view is missing.  An
        evicted epoch (no start sequence on record) degrades to the
        maximal overcount, the full sequence length.
        """
        with self._lock:
            seq = self._seq
            if epoch == self._builder.epoch:
                start = self._builder.start_seq
            else:
                try:
                    start = self.store.get(epoch).start_seq
                except KeyError:
                    return int(seq)
        return max(int(seq) - (int(start) + int(packets)), 0)

    def epoch_planner(self, epoch: int) -> QueryPlanner:
        """Planner over one frozen epoch: the one-epoch range."""
        return self.range_planner(epoch, epoch)

    def range_planner(self, lo: int, hi: int) -> QueryPlanner:
        """Memoized planner over the time-travel merge of epochs ``lo..hi``.

        Frozen epochs never change, so the planner — extracted table
        plus its last aggregate, the merged sketch released — is built
        once per range and dropped when the store evicts ``lo``.  A
        build that loses a race with that eviction raises KeyError
        rather than serve or cache an evicted epoch.
        """
        with self._lock:
            planner = self._planners.get((lo, hi))
            outcome = "misses" if planner is None else "hits"
            self.registry.inc(f"service.planner.cache.{outcome}")
        if planner is not None:
            return planner
        merged = self.store.merged_range(lo, hi)
        planner = QueryPlanner(merged, self.config.key_spec).freeze()
        with self._lock:
            self.store.get(lo)  # evicted while building: KeyError
            # Racing builds of one range are identical; keep the first.
            planner = self._planners.setdefault((lo, hi), planner)
            self.registry.set_gauge("service.planner.cached", float(len(self._planners)))
        return planner

    def _store_locked(self, snap: EpochSnapshot) -> None:
        """Retain a closed epoch; prune planners over evicted epochs."""
        self.store.add(snap)
        oldest = self.store.ids()[0]
        self._planners = {k: p for k, p in self._planners.items() if k[0] >= oldest}
        self.registry.set_gauge("service.planner.cached", float(len(self._planners)))
        self.registry.inc("service.epochs.rotated")

    def observe_query(self, elapsed_s: float) -> None:
        """Record one served query's latency (drives the soak p95)."""
        with self._lock:
            self.registry.inc("service.queries")
            self.registry.observe(
                "service.query.seconds", elapsed_s, TIME_EDGES
            )

    def metrics_snapshot(self) -> dict:
        """`repro.obs.metrics/v1` snapshot of the daemon's instruments.

        Includes the slim replica's ``slim.*`` instruments: the replica
        records into its own registry (readers never contend on the
        ingest lock), and the two are folded here at snapshot time.
        """
        meta = {
            "service": "repro.service",
            "shards": self.config.shards,
            "strategy": self.config.strategy,
            "seed": self.config.spec.seed,
        }
        with self._lock:
            snap = self.registry.snapshot(meta=meta)
        extras = []
        replica = self._replica
        if replica is not None:
            extras.append(replica.metrics_snapshot())
        if self._tenants is not None:
            extras.append(self._tenants.metrics_snapshot())
        if extras:
            merged = MetricsRegistry()
            merged.merge_snapshot(snap)
            for extra in extras:
                merged.merge_snapshot(extra)
            snap = merged.snapshot(meta=meta)
        return snap

    def status(self) -> dict:
        """JSON-ready daemon status (what ``/epochs`` wraps)."""
        with self._lock:
            live = {
                "epoch": self._builder.epoch,
                "packets": self._builder.packets,
                "flushed": self._builder.flushed,
                "start_seq": self._builder.start_seq,
            }
            geometry = {"d": self._spec.d, "l": self._spec.l}
            closed = self._closed
            seq = self._seq
        status = {
            "closed": closed,
            "total_packets": seq,
            "live": live,
            "geometry": geometry,
            "epochs": self.store.metas(),
        }
        if self._tenants is not None:
            status["tenants"] = self._tenants.status()
        return status
