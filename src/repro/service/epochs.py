"""Frozen measurement epochs: snapshots, history, time-travel merges.

An epoch is an immutable unit of measurement: once the daemon rotates,
its snapshot holds a read-only in-process sketch (bytes only at
:meth:`EpochSnapshot.to_bytes`), so the read path can cache
aggressively and a query against epoch ``k`` returns the same rows
forever.  Epoch snapshots share one hash family (they come from one
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

from repro.core.serialize import dump_epoch, dump_sketch, load_epoch
from repro.core.serialize import load_sketch  # a layer benchmarks/ledger/tracer.py patches
from repro.extensions.merging import (
    _blank_like,
    _is_columnar,
    merge_many,
    resize_cocosketch,
)
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


_COLUMNAR_STATE = ("_key_hi", "_key_lo", "_occupied", "_vals")


def freeze(sketch):
    """Make *sketch*'s bucket state read-only in place; returns it.

    Flags each columnar state array *and* its earlier-made ``*_flat``
    view; scalar bucket rows become tuples.  Later updates raise.
    """
    if _is_columnar(sketch):
        for name in _COLUMNAR_STATE:
            getattr(sketch, name).flags.writeable = False
            getattr(sketch, name + "_flat").flags.writeable = False
    else:
        sketch._keys = tuple(tuple(row) for row in sketch._keys)
        sketch._vals = tuple(tuple(row) for row in sketch._vals)
    return sketch


def frozen_copy(sketch):
    """A read-only copy of *sketch*'s bucket state sharing only its hash
    family (no delta sink, RNG position or kernel scratch)."""
    copy = _blank_like(sketch)
    if _is_columnar(sketch):
        for name in _COLUMNAR_STATE:
            getattr(copy, name)[:] = getattr(sketch, name)
    else:  # freeze() copies the rows into fresh tuples
        copy._keys, copy._vals = sketch._keys, sketch._vals
    return freeze(copy)


@dataclass(frozen=True)
class EpochSnapshot:
    """One closed epoch: rotation metadata plus its read-only sketch."""

    epoch: int
    start_seq: int
    packets: int
    closed_at: float
    sketch: object

    def to_bytes(self) -> bytes:
        """Wire form (:func:`repro.core.serialize.dump_epoch`)."""
        return dump_epoch(
            self.epoch, self.start_seq, self.packets, self.closed_at,
            dump_sketch(self.sketch),
        )

    @classmethod
    def from_bytes(cls, data: bytes) -> "EpochSnapshot":
        """Rebuild from :meth:`to_bytes` output (clean errors on damage)."""
        meta, sketch = load_epoch(data)
        return cls(
            epoch=meta["epoch"],
            start_seq=meta["start_seq"],
            packets=meta["packets"],
            closed_at=meta["closed_at"],
            sketch=freeze(sketch),
        )

    def geometry(self) -> Tuple[int, int]:
        """``(d, l)`` the epoch was cut at; adjacent epochs that differ
        straddle a governor resize."""
        return self.sketch.d, self.sketch.l

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
        A one-epoch range is that epoch's read-only sketch; a fold or
        re-hash builds new sketches.  Raises KeyError
        when any epoch in the range is missing (never silently skips a
        hole: an estimate over ``lo..hi`` must cover all of it).
        """
        if lo > hi:
            raise ValueError(f"empty epoch range {lo}..{hi}")
        with self._lock:
            # Ids are unique, so the range is whole exactly when it
            # holds hi - lo + 1 retained ids: O(history), whatever the
            # width of the requested range.
            covered = sorted(e for e in self._order if lo <= e <= hi)
            if len(covered) != hi - lo + 1:
                span = (
                    f"{min(self._order)}..{max(self._order)}"
                    if self._order else "none"
                )
                raise KeyError(
                    f"epochs {lo}..{hi} not all in store (retained: "
                    f"{span}; evicted or unrotated)"
                )
            snaps = [self._snaps[e] for e in covered]
        sketches = [s.sketch for s in snaps]
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
