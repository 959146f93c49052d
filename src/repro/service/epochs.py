"""Frozen measurement epochs: snapshots, history, time-travel merges.

An epoch is an immutable unit of measurement: once the daemon rotates,
its snapshot never changes, so the read path can cache aggressively
and a query against epoch ``k`` returns the same rows forever.  Epoch
snapshots share one hash family (they come from one
:class:`~repro.engine.sharded.SketchSpec`), which is exactly the
precondition for the unbiased Theorem 1 merge — so any contiguous
range of epochs folds into a single queryable sketch whose per-flow
expectations equal the sum over the range (time-travel queries).
"""

from __future__ import annotations

import random
import threading
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.serialize import dump_epoch, load_epoch, load_sketch
from repro.extensions.merging import merge_many, resize_cocosketch
from repro.hashing.family import mix64

_EPOCH_MERGE_SALT = 0x5E4C7
_RANGE_MERGE_SALT = 0x7A43E
_GOLDEN = 0x9E3779B97F4A7C15


def epoch_merge_seed(base_seed: int, epoch: int) -> int:
    """Seed for the shard fold that freezes one epoch's snapshot.

    Decorrelated per epoch (distinct merges must not share coin flips)
    but a pure function of ``(spec seed, epoch)``, so replaying the
    same trace through the same rotation schedule freezes byte-equal
    snapshots — the property the bit-identity suite gates.
    """
    return mix64((base_seed ^ _EPOCH_MERGE_SALT) + epoch * _GOLDEN)


def range_merge_seed(base_seed: int, lo: int, hi: int) -> int:
    """Seed for a time-travel merge over epochs ``[lo, hi]``."""
    return mix64(
        (base_seed ^ _RANGE_MERGE_SALT) + lo * _GOLDEN + hi * 0x94D049BB133111EB
    )


@dataclass(frozen=True)
class EpochSnapshot:
    """One closed epoch: rotation metadata plus the frozen sketch blob."""

    epoch: int
    start_seq: int
    packets: int
    closed_at: float
    blob: bytes

    def to_bytes(self) -> bytes:
        """Wire form (:func:`repro.core.serialize.dump_epoch`)."""
        return dump_epoch(
            self.epoch, self.start_seq, self.packets, self.closed_at, self.blob
        )

    @classmethod
    def from_bytes(cls, data: bytes) -> "EpochSnapshot":
        """Rebuild from :meth:`to_bytes` output (clean errors on damage)."""
        meta, sketch = load_epoch(data)
        from repro.core.serialize import dump_sketch

        return cls(
            epoch=meta["epoch"],
            start_seq=meta["start_seq"],
            packets=meta["packets"],
            closed_at=meta["closed_at"],
            blob=dump_sketch(sketch),
        )

    def sketch(self):
        """Deserialise the frozen sketch (a fresh object per call)."""
        return load_sketch(self.blob)

    def geometry(self) -> Tuple[int, int]:
        """``(d, l)`` the epoch was cut at — a header peek, no parse.

        Elastic services compare adjacent epochs' geometry to detect
        resize boundaries (the slim replica re-bootstraps across one,
        the range fold normalises across them).
        """
        from repro.core.serialize import peek_geometry

        d, l, _kb = peek_geometry(self.blob)
        return d, l

    def meta(self) -> Dict:
        """JSON-ready metadata row (what ``/epochs`` serves)."""
        d, l = self.geometry()
        return {
            "epoch": self.epoch,
            "start_seq": self.start_seq,
            "packets": self.packets,
            "closed_at": self.closed_at,
            "d": d,
            "l": l,
        }


class EpochStore:
    """Thread-safe bounded history of frozen epochs.

    Args:
        history: Maximum retained epochs; older snapshots are evicted
            FIFO.
        seed: The measurement's spec seed — drives deterministic
            time-travel merge streams.
    """

    def __init__(self, history: int = 64, seed: int = 0) -> None:
        if history < 1:
            raise ValueError(f"history must be >= 1, got {history}")
        self.history = history
        self.seed = seed
        self._lock = threading.Lock()
        self._snaps: Dict[int, EpochSnapshot] = {}
        self._order: List[int] = []

    def add(self, snap: EpochSnapshot) -> None:
        """Record a freshly closed epoch, evicting beyond the bound."""
        with self._lock:
            if snap.epoch in self._snaps:
                raise ValueError(f"epoch {snap.epoch} already stored")
            self._snaps[snap.epoch] = snap
            self._order.append(snap.epoch)
            while len(self._order) > self.history:
                del self._snaps[self._order.pop(0)]

    def ids(self) -> List[int]:
        """Retained epoch ids, oldest first."""
        with self._lock:
            return list(self._order)

    def __len__(self) -> int:
        with self._lock:
            return len(self._order)

    def get(self, epoch: int) -> EpochSnapshot:
        """Snapshot of one epoch; KeyError when unknown or evicted."""
        with self._lock:
            snap = self._snaps.get(epoch)
        if snap is None:
            raise KeyError(f"epoch {epoch} not in store")
        return snap

    def metas(self) -> List[Dict]:
        """Metadata rows for every retained epoch, oldest first."""
        with self._lock:
            return [self._snaps[e].meta() for e in self._order]

    def merged_range(self, lo: int, hi: int):
        """One sketch covering epochs ``lo..hi`` inclusive (time-travel).

        The fold consumes snapshots in epoch order from a merge stream
        seeded by ``(seed, lo, hi)``, so it is deterministic.  It is not
        memoized: each call folds afresh (the daemon caches the planner
        extracted from it, see ``MeasurementDaemon.range_planner``).
        A one-epoch range is that epoch's sketch.  Raises KeyError
        when any epoch in the range is missing (never silently skips a
        hole: an estimate over ``lo..hi`` must cover all of it).
        """
        if lo > hi:
            raise ValueError(f"empty epoch range {lo}..{hi}")
        with self._lock:
            missing = [e for e in range(lo, hi + 1) if e not in self._snaps]
            if missing:
                raise KeyError(
                    f"epochs {missing} not in store (evicted or unrotated)"
                )
            snaps = [self._snaps[e] for e in range(lo, hi + 1)]
        sketches = [s.sketch() for s in snaps]
        if len(sketches) == 1:
            return sketches[0]
        rng = random.Random(range_merge_seed(self.seed, lo, hi))
        if len({s.l for s in sketches}) > 1:
            # The range straddles a governor resize.  Fold every
            # snapshot to the newest epoch's geometry first (the
            # Theorem 1 re-hash keeps each unbiased), then merge as
            # usual — the whole normalise+merge stream draws from
            # the one seeded rng, so the result stays deterministic.
            target_l = sketches[-1].l
            sketches = [
                s if s.l == target_l else resize_cocosketch(s, target_l, rng=rng)
                for s in sketches
            ]
        return merge_many(sketches, rng=rng)


def offline_epoch_run(config, blocks) -> List[EpochSnapshot]:
    """Batch-mode replay of the daemon's rotation, no threads, no HTTP.

    Feeds the columnar ``(hi, lo, sizes)`` *blocks* through the exact
    ingestion/rotation code the live daemon runs and returns the closed
    epochs.  Because the daemon normalises arrival chunking before the
    engines see packets, the snapshots are a pure function of the
    packet sequence and the config — the reference a bit-identity test
    compares a live threaded run against.
    """
    from repro.service.daemon import MeasurementDaemon

    daemon = MeasurementDaemon(config)
    try:
        for hi, lo, sizes in blocks:
            daemon.ingest(hi, lo, sizes)
    finally:
        daemon.close()
    return [daemon.store.get(e) for e in daemon.store.ids()]
