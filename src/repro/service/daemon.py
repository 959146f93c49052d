"""The long-lived measurement daemon: ingest, rotate, serve.

Turns the batch engine into a system.  One :class:`MeasurementDaemon`
owns a sequence of epochs; inside each epoch an :class:`EpochBuilder`
owns the epoch's shard engines and feeds their chunk loop, and at every
rotation boundary the shards' occupied bucket rows become the read-only
table of an immutable :class:`~repro.service.epochs.EpochSnapshot`:
summed per key they are the epoch's estimates (Lemma 3), so no fold
runs.  State becomes bytes only when a snapshot is exported
(:meth:`~repro.service.epochs.EpochSnapshot.to_bytes`).

Determinism contract (what the bit-identity suite gates): an epoch's
snapshot is a pure function of *(spec, shards, strategy, chunk, the
epoch's packet column sequence)* — independent of how callers chunk
their submissions and of thread scheduling.  Two mechanisms make that
true:

* the builder buffers arrivals and feeds the partitioner/engines in
  exact ``chunk``-sized blocks (the remainder flushes only at close),
  so engine-visible call boundaries never depend on arrival framing;
* the only random streams, the replacement RNGs, are positionally
  seeded by ``(seed, epoch, shard)`` via
  :func:`~repro.parallel.epoch_stream_seed`; a snapshot's table is the
  shards' rows in shard order, and ranges of epochs add their tables,
  so no read draws a coin flip.

Live reads never perturb that.  A live read is served by a
:class:`~repro.query.slim.SlimReplica`, bootstrapped lazily from the
shard arrays (a per-array memcpy under the ingest lock, once per epoch,
into mirrors kept while the geometry holds) and kept fresh by compact
per-chunk deltas the engines emit from their chunk loop's replace step.
A read sums the shard mirrors (Lemma 3) after a bounded delta drain
under the replica's own lock, so it never copies the shards or waits
on the ingest lock in steady state.  Emission is read-only, so
ingestion's RNG streams are never advanced by a read.

Nothing else a request does takes the ingest lock either.  The ingest
thread publishes an immutable :class:`ReadState` record by one
reference assignment (block start, each rotation, block end,
``rotate``/``close``), and staleness and status read that record;
request counters live in a reader-side registry, the ingest registry
has its own short lock (taken once per block and per snapshot), the
one-epoch planner cache has its own lock, and a range read sums
frozen tables under the store's locks.  So the replica's once-per-epoch
bootstrap is the only request-path wait on an in-flight block.
"""

from __future__ import annotations

import dataclasses
import queue
import threading
import time
from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Tuple, Union

import numpy as np

from repro.control.governor import GovernorConfig, ResourceGovernor, Signals
# Imported only as layers benchmarks/ledger/tracer.py patches (no calls here).
from repro.core.serialize import dump_sketch, load_sketch  # noqa: F401
from repro.extensions.merging import merge_many  # noqa: F401
from repro.engine.kernels import CHUNK_GAUGE
from repro.engine.sharded import (
    PARTITION_STRATEGIES,
    SketchSpec,
    partition_columns,
    sum_occupancy,
    sum_rows,
)
from repro.extensions.windowed import split_budget
from repro.flowkeys.key import FullKeySpec
from repro.obs.registry import TIME_EDGES, MetricsRegistry
from repro.parallel import build_shard_sketch
from repro.query.planner import QueryPlanner
from repro.query.slim import SlimReplica
from repro.service.epochs import EpochSnapshot, EpochStore, RangeSum, read_only

#: Default engine feed granularity: the largest kernel chunk
#: (`repro.engine.vectorized.MAX_PIPELINE_CHUNK`).  Engines derive
#: their own chunk from the geometry, a power of two in [512, 16384]
#: (`NumpyCocoSketch.pipeline_chunk`), so every engine chunk divides
#: this block and engine chunk boundaries follow the re-blocking.
DEFAULT_CHUNK = 16384

#: Blocks the background ingest queue holds before
#: :meth:`MeasurementDaemon.offer` blocks.
QUEUE_BLOCKS = 8


class ServiceError(RuntimeError):
    """Daemon misuse or unavailable state (closed daemon, no live view)."""


class ReadState(NamedTuple):
    """What readers see of the ingest side, published whole.

    ``seq`` counts packets whose :meth:`MeasurementDaemon.ingest` has
    returned; ``bound`` adds the block in flight, so it never
    undercounts what the daemon has accepted.  The live-epoch fields
    (``epoch``, ``start_seq``, ``packets``, ``flushed``) and the
    geometry ``(d, l)`` are the builder's at publication time.
    """

    epoch: int
    start_seq: int
    seq: int
    bound: int
    packets: int
    flushed: int
    d: int
    l: int
    closed: bool


@dataclass
class ServiceConfig:
    """Everything a measurement daemon needs.

    Args:
        spec: Per-shard sketch configuration (one hash family for the
            daemon's whole lifetime).
        key_spec: Full-key spec of the traffic (drives the query plane).
        shards: Worker sketch count.
        strategy: ``"hash"`` (flow-pure) or ``"round-robin"`` partitioner.
        chunk: Engine feed granularity; arrivals are re-blocked to this
            before the engines see them (the determinism contract).
        epoch_packets: Rotate after exactly this many packets (boundary
            splits mid-block when needed).  ``None`` — no packet bound.
        epoch_seconds: Rotate when the live epoch is older than this at
            the next ingest.  ``None`` — no wall-clock bound.
        history: Closed epochs retained by the store (and the most
            one-epoch planners cached).
        live_refresh_packets: Freshness/throughput trade-off for live
            reads.  ``0`` (default) rebuilds the live view whenever new
            packets have flushed; a positive value keeps serving the
            cached view until at least this many further packets flush
            in the same epoch — readers see a slightly stale but still
            version-consistent snapshot, and heavy query load stops
            stealing ingest cycles.
        governor: Elastic-geometry control loop
            (:class:`~repro.control.governor.GovernorConfig`).  When
            set, the daemon samples occupancy at every rotation and
            resizes ``spec.l`` for the *next* epoch — geometry only
            ever changes at rotation boundaries, so every epoch
            snapshot remains a pure function of its packet sequence.
            ``spec.l`` must not exceed the budget's ``max_l``.
        tenants: Tenant names.  When set, ingested traffic is also
            routed (by a salted full-key hash) to one isolated
            sub-daemon per tenant under a shared memory budget (the
            parent plane's own total footprint) — see
            :class:`~repro.control.tenants.TenantManager`.  The parent
            keeps measuring the aggregate with its own spec.
    """

    spec: SketchSpec
    key_spec: FullKeySpec
    shards: int = 1
    strategy: str = "hash"
    chunk: int = DEFAULT_CHUNK
    epoch_packets: Optional[int] = None
    epoch_seconds: Optional[float] = None
    history: int = 64
    live_refresh_packets: int = 0
    governor: Optional[GovernorConfig] = None
    tenants: Optional[Tuple[str, ...]] = None

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
        if self.live_refresh_packets < 0:
            raise ValueError(
                f"live_refresh_packets must be >= 0, "
                f"got {self.live_refresh_packets}"
            )
        if self.tenants is not None:
            names = tuple(self.tenants)
            if not names:
                raise ValueError("tenants must name at least one tenant")
            if len(set(names)) != len(names):
                raise ValueError(f"tenant names must be unique: {names}")
            self.tenants = names


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
    ) -> None:
        self.config = config
        # The daemon's *current* (possibly resized) spec; epoch 0
        # starts from the config's own.
        self.spec = spec
        self.epoch = epoch
        self.start_seq = start_seq
        self.packets = 0  # accepted: flushed + buffered
        self.flushed = 0  # handed to the engines
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
            hi, lo, sizes, cfg.shards, cfg.strategy, self.spec.seed,
            offset=self.flushed,
        )
        for shard, (shi, slo, ssz) in enumerate(parts):
            if len(ssz):
                self._shards[shard].process_columns(shi, slo, ssz)
        self.flushed += len(sizes)

    def live_sketches(self) -> List:
        """The live shard engines in shard order (the read plane's
        surface; read them under the ingest lock, never racing :meth:`feed`)."""
        return self._shards

    def occupancy(self) -> float:
        """Fraction of buckets some shard occupies (the governor's signal).

        The union of the shards' masks: exactly the occupancy of a
        Theorem 1 fold of the shards, which keeps a bucket whenever
        either side holds one.
        """
        return sum_occupancy(self._shards)

    def close(self, closed_at: Optional[float] = None) -> EpochSnapshot:
        """Flush the tail and export the shards into the epoch's snapshot.

        The table is each shard's occupied bucket rows, concatenated in
        shard order (deterministic bytes) and read-only; it copies the
        state, so the snapshot never holds a live engine.
        """
        self._flush(full_only=False)
        table = sum_rows(self._shards, self.config.key_spec)
        return EpochSnapshot(
            epoch=self.epoch,
            start_seq=self.start_seq,
            packets=self.packets,
            closed_at=time.time() if closed_at is None else closed_at,
            d=self.spec.d,
            l=self.spec.l,
            table=read_only(table),
        )


class MeasurementDaemon:
    """Long-lived epoch-rotating measurement process.

    Feed traffic either synchronously (:meth:`ingest`) or through the
    bounded background queue (:meth:`start` + :meth:`offer` — the shape
    the HTTP soak exercises: one ingest thread, many reader threads).
    Readers get consistent views: every published state is either a
    frozen epoch snapshot or the live replica's view of the shard state
    at a chunk boundary, tagged with its ``(epoch, packets)`` version.
    """

    def __init__(self, config: ServiceConfig) -> None:
        self.config = config
        self.store = EpochStore(config.history)
        self.registry = MetricsRegistry()
        # The ingest registry's own lock: writers take it once per block
        # (and per rotation), /metrics once per snapshot.
        self._registry_lock = threading.Lock()
        self._lock = threading.RLock()
        # Per-request instruments (queries, planner cache, HTTP
        # outcomes): readers record here, never in the ingest registry.
        self._reads = MetricsRegistry()
        self._reads_lock = threading.Lock()
        self._seq = 0  # packets fed so far, the block in flight included
        self._returned = 0  # packets whose ingest() has returned
        self._bound = 0  # _seq's value once the block in flight returns
        # Mutable control state: the *current* geometry.  Epoch 0 always
        # starts from the config exactly, so an ungoverned daemon
        # replays the historical streams bit for bit.
        self._spec = config.spec
        self._pending_l: Optional[int] = None
        self._governor: Optional[ResourceGovernor] = None
        if config.governor is not None:
            self._governor = ResourceGovernor(
                config.governor, config.spec.d, config.spec.key_bytes
            )
            if config.spec.l > self._governor.max_l:
                raise ValueError(
                    f"governed spec.l {config.spec.l} exceeds the "
                    f"budget's max_l {self._governor.max_l}"
                )
        self._tenants = None
        if config.tenants:
            from repro.control.tenants import TenantManager
            from repro.sketches.base import COUNTER_BYTES

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
        self._publish_locked()
        self._queue: Optional[queue.Queue] = None
        self._thread: Optional[threading.Thread] = None
        self._ingest_error: Optional[BaseException] = None
        self._planners: Dict[int, QueryPlanner] = {}
        self._planners_lock = threading.Lock()
        # The live read replica costs nothing until the first live
        # read bootstraps it.
        self._replica = SlimReplica(config.spec, config.key_spec, config.shards)

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
            # Readers see the block in flight as soon as it is accepted
            # (packets_behind never undercounts) and its packets in
            # total_packets only once it has returned.
            self._bound = self._seq + n
            self._publish_locked()
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
            with self._registry_lock:
                self.registry.inc("service.ingest.packets", n)
                self.registry.inc("service.ingest.blocks")
                self.registry.set_gauge(
                    "service.epoch.live", self._builder.epoch
                )
                self.registry.set_gauge(
                    "service.epoch.packets", self._builder.packets
                )
            self._returned = self._seq
            self._publish_locked()

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
                    # Same epoch tag, new shape: force the next slim
                    # read to re-bootstrap instead of serving mirrors
                    # whose geometry no longer matches the fat state.
                    self._replica.invalidate()
                    self._publish_locked()
                self._pending_l = None
                return None
            return self._rotate_locked()

    def _publish_locked(self) -> None:
        """Publish the readers' :class:`ReadState` (caller holds the lock).

        One reference assignment, so a reader sees one whole record,
        never fields of two.
        """
        builder = self._builder
        self._state = ReadState(
            epoch=builder.epoch,
            start_seq=builder.start_seq,
            seq=self._returned,
            bound=self._bound,
            packets=builder.packets,
            flushed=builder.flushed,
            d=self._spec.d,
            l=self._spec.l,
            closed=self._closed,
        )

    def _open_builder_locked(self, epoch: int, start_seq: int) -> EpochBuilder:
        """A builder at the current geometry.

        Publishes the engines' kernel chunk as the ``pipeline.chunk``
        gauge: the chunk follows the geometry, so a governed daemon's
        ingest rate is read against it.
        """
        builder = EpochBuilder(
            self.config,
            epoch=epoch,
            start_seq=start_seq,
            spec=self._spec,
        )
        chunk = getattr(builder.live_sketches()[0], "pipeline_chunk", None)
        if chunk is not None:
            with self._registry_lock:
                self.registry.set_gauge(CHUNK_GAUGE, float(chunk))
        return builder

    def _apply_geometry_locked(self, new_l: int) -> None:
        """Adopt *new_l* as the current geometry (caller holds the lock)."""
        self._spec = dataclasses.replace(self._spec, l=new_l)
        with self._registry_lock:
            self.registry.inc("control.resizes")
            self.registry.set_gauge("control.geometry.l", float(self._spec.l))

    def _control_locked(self, builder: EpochBuilder) -> None:
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
            occupancy = builder.occupancy()
            decision = self._governor.decide(Signals(self._spec.l, occupancy))
            resize = decision.resized and new_l is None
            if resize:
                new_l = decision.new_l
            with self._registry_lock:
                self.registry.inc("control.governor.decisions")
                self.registry.set_gauge("control.occupancy", occupancy)
                if resize:
                    self.registry.inc("control.governor.resizes")
        if new_l is not None:
            self._apply_geometry_locked(new_l)

    def _rotate_locked(self) -> EpochSnapshot:
        start = time.perf_counter()
        snap = self._builder.close()
        self._store_locked(snap)
        self._control_locked(self._builder)
        self._builder = self._open_builder_locked(
            epoch=snap.epoch + 1, start_seq=self._seq
        )
        self._publish_locked()
        if self._tenants is not None:
            self._tenants.on_parent_rotate()
        with self._registry_lock:
            self.registry.observe(
                "service.rotate.seconds", time.perf_counter() - start,
                TIME_EDGES,
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
            self._publish_locked()
        if self._tenants is not None:
            self._tenants.close()
        if feeder_error is not None:
            raise feeder_error

    @property
    def closed(self) -> bool:
        return self._state.closed

    # ------------------------------------------------------------------
    # control plane

    @property
    def spec(self) -> SketchSpec:
        """The *current* per-shard spec (geometry may have been resized).

        One immutable reference, replaced whole at a rotation, so it is
        read without the ingest lock (a tenant's ``/epochs`` row reads
        it while that tenant ingests).
        """
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
            with self._registry_lock:
                self.registry.inc("control.geometry.staged")

    def tenant_daemon(self, name: str) -> "MeasurementDaemon":
        """The named tenant's isolated daemon (KeyError if unknown)."""
        if self._tenants is None:
            raise KeyError(
                f"tenant {name!r} unknown (no tenants configured)"
            )
        return self._tenants.daemon(name)

    # ------------------------------------------------------------------
    # background feeder

    def start(self) -> None:
        """Start the background ingest thread (pair with :meth:`offer`)."""
        with self._lock:
            if self._closed:
                raise ServiceError("daemon is closed")
            if self._thread is not None:
                raise ServiceError("feeder already running")
            self._queue = queue.Queue(maxsize=QUEUE_BLOCKS)
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

    def live_planner(self) -> Tuple[Tuple[int, int], QueryPlanner]:
        """Consistent queryable view of the live (unclosed) epoch.

        Returns ``((epoch, packets), planner)``; *packets* counts the
        packets the view covers (arrivals still buffered below one
        chunk become visible at the next flush or rotation).  Per
        reader, versions are monotone; ``live_refresh_packets`` bounds
        how stale a served view may be.

        The view is the incrementally-synced replica.  In steady state
        — replica already bootstrapped into the current epoch — the
        read never touches the ingest lock at all: it is a bounded
        delta drain under the replica's own lock, so it cannot queue
        behind an in-flight chunk.  Only the first read of an epoch
        takes the ingest lock, for the epoch check plus a per-array
        memcpy bootstrap.
        """
        replica = self._replica
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
                        builder.flushed,
                        builder.live_sketches(),
                        spec=builder.spec,
                    )
        return replica.read(self.config.live_refresh_packets)

    def packets_behind(self, epoch: int, packets: int) -> int:
        """How far a served view lags total ingestion — never undercounted.

        For a view versioned ``(epoch, packets)``, counts every packet
        the daemon has accepted past the view's covered prefix —
        including arrivals still buffered below one chunk and the
        whole block ``ingest()`` is working on, so the reported lag is
        an upper bound on what the view is missing.  An evicted epoch
        (no start sequence on record) degrades to the maximal
        overcount, the full sequence length.

        Reads the published :class:`ReadState` and the store, never the
        ingest lock, so it answers while a block is in flight.
        """
        state = self._state
        if epoch == state.epoch:
            start = state.start_seq
        else:
            try:
                start = self.store.get(epoch).start_seq
            except KeyError:
                return int(state.bound)
        return max(int(state.bound) - (int(start) + int(packets)), 0)

    def epoch_planner(self, epoch: int) -> QueryPlanner:
        """Memoized planner over one frozen epoch's table.

        Frozen epochs never change, so the planner — the epoch's raw
        bucket rows plus its last aggregate — is built once per epoch
        and dropped when the store evicts the epoch: the cache holds at
        most ``history`` planners.  Partial keys aggregate straight off
        the raw rows; the full-key sort runs only for a query that needs
        unique full keys (:meth:`QueryPlanner.grouped_base`).  A build
        that loses a race with an eviction raises KeyError rather than
        serve or cache an evicted epoch.  The cache has its own lock;
        the ingest lock is never taken.
        """
        with self._planners_lock:
            planner = self._planners.get(epoch)
        outcome = "misses" if planner is None else "hits"
        self._count(f"service.planner.cache.{outcome}")
        if planner is not None:
            return planner
        table = self.store.get(epoch).table
        planner = QueryPlanner(
            table, self.config.key_spec, group_base=False
        ).freeze()
        with self._planners_lock:
            # Eviction prunes under this lock after the store drops the
            # epoch, so a build that passes this check is pruned later.
            self.store.get(epoch)  # evicted while building: KeyError
            # Racing builds of one epoch are identical; keep the first.
            planner = self._planners.setdefault(epoch, planner)
        return planner

    def range_planner(self, lo: int, hi: int) -> Union[QueryPlanner, RangeSum]:
        """Planner over epochs ``lo..hi``: their summed estimates.

        One epoch is :meth:`epoch_planner`.  A wider range is the
        store's :class:`~repro.service.epochs.RangeSum`, computed per
        call (two bincounts over the store's key dictionary) and never
        cached; KeyError when any epoch in the range is gone.
        """
        if lo == hi:
            return self.epoch_planner(lo)
        return self.store.merged_range(lo, hi)

    def _store_locked(self, snap: EpochSnapshot) -> None:
        """Retain a closed epoch; prune planners over evicted epochs."""
        self.store.add(snap)
        oldest = self.store.ids()[0]
        with self._planners_lock:
            self._planners = {
                e: p for e, p in self._planners.items() if e >= oldest
            }
        with self._registry_lock:
            self.registry.inc("service.epochs.rotated")

    def _count(self, name: str) -> None:
        with self._reads_lock:
            self._reads.inc(name)

    def observe_query(self, elapsed_s: float) -> None:
        """Record one served query's latency (drives the soak p95).

        Lands in the reader-side registry under its own lock, so a
        request never waits for the ingest lock to record itself.
        """
        with self._reads_lock:
            self._reads.inc("service.queries")
            self._reads.observe(
                "service.query.seconds", elapsed_s, TIME_EDGES
            )

    def count_request(self, route: str, status: int) -> None:
        """Count one HTTP response as ``service.http.requests.<route>.<status>``."""
        self._count(f"service.http.requests.{route}.{status}")

    def metrics_snapshot(self) -> dict:
        """`repro.obs.metrics/v1` snapshot of the daemon's instruments.

        Folds, at snapshot time, the ingest registry (read under its
        own short lock, never the ingest lock), the reader-side
        registry (``service.queries``, ``service.query.seconds``,
        ``service.planner.cache.*``, ``service.http.requests.*``), the
        slim replica's ``slim.*`` instruments and any tenants' rows;
        ``service.planner.cached`` (one-epoch planners) and the range
        dictionary's ``service.epochs.dictionary.keys`` and
        ``.compactions`` are read here.  Readers record only into the
        reader-side and replica registries, never into the ingest one.
        """
        meta = {
            "service": "repro.service",
            "shards": self.config.shards,
            "strategy": self.config.strategy,
            "seed": self.config.spec.seed,
        }
        with self._registry_lock:
            snap = self.registry.snapshot(meta=meta)
        with self._reads_lock:
            extras = [self._reads.snapshot()]
        extras.append(self._replica.metrics_snapshot())
        if self._tenants is not None:
            extras.append(self._tenants.metrics_snapshot())
        merged = MetricsRegistry()
        merged.merge_snapshot(snap)
        for extra in extras:
            merged.merge_snapshot(extra)
        with self._planners_lock:
            cached = len(self._planners)
        merged.set_gauge("service.planner.cached", float(cached))
        merged.set_gauge(
            "service.epochs.dictionary.keys", float(self.store.dictionary_keys())
        )
        merged.inc("service.epochs.dictionary.compactions", self.store.compactions)
        return merged.snapshot(meta=meta)

    def status(self) -> dict:
        """JSON-ready daemon status (what ``/epochs`` wraps).

        Every field but the epoch list comes from one published
        :class:`ReadState`, without the ingest lock: ``total_packets``
        counts blocks whose ``ingest()`` has returned (never the block
        in flight), and ``live`` is the builder as of that record.
        """
        state = self._state
        # A rotation stores the closed epoch just before it publishes
        # the next live one: list only epochs this record has closed.
        epochs = [
            meta for meta in self.store.metas()
            if state.closed or meta["epoch"] < state.epoch
        ]
        status = {
            "closed": state.closed,
            "total_packets": state.seq,
            "live": {
                "epoch": state.epoch,
                "packets": state.packets,
                "flushed": state.flushed,
                "start_seq": state.start_seq,
            },
            "geometry": {"d": state.d, "l": state.l},
            "epochs": epochs,
        }
        if self._tenants is not None:
            status["tenants"] = self._tenants.status()
        return status
