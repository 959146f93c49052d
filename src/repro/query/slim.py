"""The service's live read path: an incrementally-synced replica.

Copying the shards under the ingest lock for each live read makes read
latency degrade exactly when ingestion is hottest: the lock has no
fairness, so a reader waits behind many chunks.  This module applies
the SF-sketch split (PAPERS.md): the *fat* state — the full ``(d, l)``
update-plane arrays — keeps absorbing traffic untouched, while a
*slim* replica is kept continuously fresh from compact deltas and
serves every live read.

How the sync works:

* The fat engines emit a delta per processed chunk from the replace
  step of their chunk loop (:mod:`repro.engine.vectorized`): the
  post-chunk rows of every candidate bucket the chunk may have written
  (:class:`BucketDelta`, at most ``d * chunk`` rows against ``d * l``
  state).  Scalar sketches emit their full flow table per block instead
  (:class:`TableDelta`) — fat, but a valid delta.
* :class:`SlimReplica` holds one mirror per shard.  Deltas queue under
  the replica's own lock — never the ingest lock — and a read drains
  them all (a fancy-indexed scatter per delta), so the drained prefix
  is exactly the fat state at some chunk boundary: replica answers are
  bit-equal to querying the fat shards frozen at that point
  (:func:`repro.engine.sharded.shard_table_columns` is the reference).
* The served planner keeps its base *ungrouped*
  (``QueryPlanner(..., group_base=False)``): per-shard raw exports are
  concatenated without the full-key sort, and each partial-key query
  projects straight off the raw rows.  Sums of sketch estimates are
  exact in float64 regardless of order, so answers match the grouped
  path value for value while skipping its dominant sort.

Staleness is first-class: every read returns a ``(epoch, packets)``
version, and the service reports ``packets_behind`` — computed from the
daemon's accepted-packet sequence, which includes arrivals still
buffered below one chunk, so the reported lag is never an undercount.

Sharding note: the replica serves the *sum-of-shards* table (Lemma 3
keeps any partial-key aggregate over it unbiased), not the coin-flip
state fold used for epoch snapshots — determinism is what makes the
differential tests bit-exact.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.obs.registry import MetricsRegistry
from repro.query.columns import ColumnTable
from repro.query.planner import QueryPlanner


class BucketDelta:
    """Post-chunk rows of every bucket one chunk may have written.

    ``idx`` is the sorted-unique flat bucket index (``i * l + j``); the
    row arrays are gathered copies of the fat state after the chunk's
    kernel ran.  Replaying deltas in emission order reproduces the fat
    arrays bit for bit.
    """

    __slots__ = ("packets", "idx", "hi", "lo", "occupied", "vals")

    def __init__(self, packets, idx, hi, lo, occupied, vals) -> None:
        self.packets = int(packets)
        self.idx = idx
        self.hi = hi
        self.lo = lo
        self.occupied = occupied
        self.vals = vals

    @property
    def rows(self) -> int:
        return len(self.idx)


class TableDelta:
    """A full flow-table dump — the scalar sketches' per-block delta."""

    __slots__ = ("packets", "table")

    def __init__(self, packets: int, table: Dict[int, float]) -> None:
        self.packets = int(packets)
        self.table = table

    @property
    def rows(self) -> int:
        return len(self.table)


class ShardDeltaSink:
    """Bridges one fat shard's emission into the replica, epoch-tagged.

    Sinks are created per bootstrap and stamped with the epoch they
    belong to; a sink left attached to an engine that outlives a
    rotation pushes with a stale tag and the replica ignores it.
    """

    __slots__ = ("_replica", "shard", "epoch")

    def __init__(self, replica: "SlimReplica", shard: int, epoch: int) -> None:
        self._replica = replica
        self.shard = shard
        self.epoch = epoch

    def push_buckets(self, packets, idx, hi, lo, occupied, vals) -> None:
        self._replica.push(
            self.shard, self.epoch, BucketDelta(packets, idx, hi, lo, occupied, vals)
        )

    def push_table(self, packets, table) -> None:
        self._replica.push(self.shard, self.epoch, TableDelta(packets, table))


class _BucketMirror:
    """Flat-array clone of one columnar shard, synced by bucket deltas."""

    __slots__ = ("_sketch",)

    def __init__(self, spec) -> None:
        # Same geometry and hash seed as the fat shard, so the hardware
        # variant's median-query export runs identically on the mirror.
        self._sketch = spec.build()

    def bootstrap(self, fat) -> None:
        sk = self._sketch
        np.copyto(sk._key_hi, fat._key_hi)
        np.copyto(sk._key_lo, fat._key_lo)
        np.copyto(sk._occupied, fat._occupied)
        np.copyto(sk._vals, fat._vals)

    def apply(self, delta: BucketDelta) -> None:
        sk = self._sketch
        sk._key_hi_flat[delta.idx] = delta.hi
        sk._key_lo_flat[delta.idx] = delta.lo
        sk._occupied_flat[delta.idx] = delta.occupied
        sk._vals_flat[delta.idx] = delta.vals

    def table(self, key_spec) -> ColumnTable:
        hi, lo, vals = self._sketch.export_columns()
        return ColumnTable.from_key_columns(
            hi, lo, np.asarray(vals, dtype=np.float64), key_spec
        )


class _TableMirror:
    """Dict-table clone of one scalar shard, replaced wholesale."""

    __slots__ = ("_table",)

    def __init__(self) -> None:
        self._table: Dict[int, float] = {}

    def bootstrap(self, fat) -> None:
        self._table = fat.flow_table()

    def apply(self, delta: TableDelta) -> None:
        self._table = delta.table

    def table(self, key_spec) -> ColumnTable:
        return ColumnTable.from_dict(self._table, key_spec)


def _make_mirror(spec, fat):
    if getattr(fat, "emits_bucket_deltas", False):
        return _BucketMirror(spec)
    return _TableMirror()


class SlimReplica:
    """Per-shard mirrors of the fat state, synced by queued deltas.

    Thread contract: :meth:`bootstrap` runs under the daemon's ingest
    lock (it reads fat arrays and attaches sinks); :meth:`push` is
    called from the ingest path with that lock already held and only
    takes the replica lock; :meth:`read` takes only the replica lock.
    The daemon acquires ``daemon._lock`` before ``replica._lock`` and
    never the reverse, and the replica owns its own
    :class:`MetricsRegistry` (merged into snapshots by the daemon), so
    readers never contend on the ingest registry.

    ``max_pending_rows`` (``8·d·l``, re-derived when a bootstrap
    changes the geometry) bounds queued-delta memory: when exceeded,
    the push compacts the queue into the mirrors in-line (still
    O(pending), but pending is now bounded), so an unread replica can't
    grow without limit under sustained ingestion.  A few multiples of
    the full state per shard: compaction then triggers about as often
    as a read that lagged several whole-table rewrites would have paid.
    """

    def __init__(self, spec, key_spec, shards: int) -> None:
        self.spec = spec
        self.key_spec = key_spec
        self.shards = shards
        self.max_pending_rows = 8 * spec.d * spec.l
        self.registry = MetricsRegistry()
        self._lock = threading.Lock()
        self.epoch = -1  # -1: not bootstrapped yet
        self.accepted = 0  # packets covered by bootstrap + queued deltas
        self.drained = 0  # packets applied to the mirrors
        self._mirrors: List = []
        self._pending: List[List] = []
        self._pending_rows = 0
        self._shard_tables: List[Optional[ColumnTable]] = []
        self._planner: Optional[QueryPlanner] = None
        self._version: Optional[Tuple[int, int]] = None

    @property
    def bootstrapped(self) -> bool:
        return self.epoch >= 0

    def invalidate(self) -> None:
        """Drop the replica's sync state; the next read re-bootstraps.

        Used when the fat state changes shape without an epoch bump
        (an empty-epoch geometry swap): the mirrors' arrays no longer
        match the fat geometry, so stale-shape deltas must never be
        applied — the epoch tag resets to the un-bootstrapped sentinel
        and any sink still attached to old engines goes stale with it.
        """
        with self._lock:
            self.epoch = -1
            self._pending = [[] for _ in self._mirrors]
            self._pending_rows = 0
            self._planner = None
            self._version = None
            self.registry.inc("slim.invalidations")

    def bootstrap(
        self, epoch: int, flushed: int, sketches, spec=None
    ) -> None:
        """(Re)sync the mirrors to the fat state and attach fresh sinks.

        Called under the daemon's ingest lock, so the fat arrays are
        quiescent.  The copy is a plain memcpy per array — no
        serialization, no extraction — and from here on the mirrors
        advance by deltas alone until the next rotation re-bootstraps.

        *spec* carries the fat shards' *current* spec when the daemon
        runs under elastic geometry: mirrors are rebuilt at the new
        shape, and the pending-row bound re-scales with the state size
        it protects.
        """
        with self._lock:
            if spec is not None and spec != self.spec:
                self.spec = spec
                self.max_pending_rows = 8 * spec.d * spec.l
                self.registry.inc("slim.geometry.rebootstraps")
            self.epoch = epoch
            self.accepted = int(flushed)
            self.drained = int(flushed)
            self._mirrors = [_make_mirror(self.spec, fat) for fat in sketches]
            for mirror, fat in zip(self._mirrors, sketches):
                mirror.bootstrap(fat)
            self._pending = [[] for _ in sketches]
            self._pending_rows = 0
            self._shard_tables = [None] * len(sketches)
            self._planner = None
            self._version = None
            self.registry.inc("slim.bootstraps")
        for shard, fat in enumerate(sketches):
            fat.attach_delta_sink(ShardDeltaSink(self, shard, epoch))

    def push(self, shard: int, epoch: int, delta) -> None:
        """Queue one shard delta (ingest path; replica lock only)."""
        with self._lock:
            if epoch != self.epoch:
                return  # stale sink from a rotated-out epoch
            self._pending[shard].append(delta)
            self._pending_rows += delta.rows
            self.accepted += delta.packets
            self.registry.inc("slim.sync.deltas")
            self.registry.observe("slim.sync.rows", delta.rows)
            if self._pending_rows > self.max_pending_rows:
                self._drain_locked()
                self.registry.inc("slim.sync.compactions")

    def _drain_locked(self) -> None:
        """Apply every queued delta to its mirror (caller holds lock)."""
        for shard, deltas in enumerate(self._pending):
            if deltas:
                mirror = self._mirrors[shard]
                for delta in deltas:
                    mirror.apply(delta)
                deltas.clear()
                self._shard_tables[shard] = None
        self._pending_rows = 0
        self.drained = self.accepted

    def read(self, refresh: int = 0) -> Tuple[Tuple[int, int], QueryPlanner]:
        """Drain pending deltas and return ``(version, planner)``.

        With *refresh* > 0 a cached planner is served while fewer than
        that many packets arrived since it was built (the service's
        ``live_refresh_packets`` semantics); otherwise any new packet
        triggers a drain + rebuild.  Identical version -> identical
        planner object, so memoized aggregates keep paying off.
        """
        with self._lock:
            if self.epoch < 0:
                raise RuntimeError("slim replica is not bootstrapped")
            self.registry.inc("slim.reads")
            if (
                self._planner is not None
                and self.accepted - self._version[1] < max(1, refresh)
            ):
                self.registry.inc("slim.cache.hits")
                return self._version, self._planner
            self.registry.set_gauge("slim.sync.lag", self.accepted - self.drained)
            with self.registry.span("slim.read.build"):
                self._drain_locked()
                tables = []
                for shard in range(len(self._mirrors)):
                    cached = self._shard_tables[shard]
                    if cached is None:
                        cached = self._mirrors[shard].table(self.key_spec)
                        self._shard_tables[shard] = cached
                    tables.append(cached)
                base = ColumnTable.concat_many(tables, self.key_spec)
                version = (self.epoch, self.drained)
                self._planner = QueryPlanner(
                    base, self.key_spec, group_base=False, version=version
                )
                self._version = version
            self.registry.inc("slim.rebuilds")
            return self._version, self._planner

    def metrics_snapshot(self) -> Dict:
        with self._lock:
            return self.registry.snapshot()

    def __repr__(self) -> str:
        return (
            f"SlimReplica(epoch={self.epoch}, shards={self.shards}, "
            f"accepted={self.accepted}, drained={self.drained}, "
            f"pending_rows={self._pending_rows})"
        )
