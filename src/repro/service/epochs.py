"""Frozen measurement epochs: snapshots, history, time-travel sums.

An epoch is an immutable unit of measurement: once the daemon rotates,
its snapshot holds the epoch's estimate table — the occupied bucket
rows of its shards, read-only — so a query against epoch ``k`` returns
the same rows forever (bytes only at :meth:`EpochSnapshot.to_bytes`).

Per-flow estimates of disjoint traffic are unbiased and add (Lemma 3
is linear), so a contiguous range of epochs is answered by summing
their tables: no coin flip, no re-hash across a resize.  The store
keeps one dictionary of the full keys its ranges have covered and an
id column per epoch into it, so a range over epochs that already have
ids is two ``np.bincount`` calls — per full key over the covered
epochs' rows, then per partial-key group — and never a sort.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.serialize import dump_epoch, load_epoch
from repro.extensions.merging import _blank_like, _is_columnar
from repro.flowkeys.columns import unique_words
from repro.query.columns import ColumnTable
from repro.query.project import ProjectionPlan

# Imported only as layers benchmarks/ledger/tracer.py patches (no calls here).
from repro.core.serialize import load_sketch  # noqa: F401
from repro.extensions.merging import merge_many, resize_cocosketch  # noqa: F401

_COLUMNAR_STATE = ("_key_hi", "_key_lo", "_occupied", "_vals")

#: Partial-key group maps one dictionary keeps (oldest dropped first).
MAX_GROUP_MAPS = 128


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


def read_only(table: ColumnTable) -> ColumnTable:
    """Flag *table*'s columns read-only in place; returns it."""
    table.words.flags.writeable = False
    table.values.flags.writeable = False
    return table


@dataclass(frozen=True)
class EpochSnapshot:
    """One closed epoch: rotation metadata plus its read-only table.

    ``table`` holds the occupied bucket rows of the epoch's shards in
    shard order (a key may repeat across shards and arrays); summed
    per key they are the epoch's estimates.  ``(d, l)`` is the
    geometry the epoch was cut at.
    """

    epoch: int
    start_seq: int
    packets: int
    closed_at: float
    d: int
    l: int
    table: ColumnTable

    def to_bytes(self) -> bytes:
        """Wire form (:func:`repro.core.serialize.dump_epoch`)."""
        return dump_epoch(
            self.epoch, self.start_seq, self.packets, self.closed_at,
            self.d, self.l, self.table,
        )

    @classmethod
    def from_bytes(cls, data: bytes) -> "EpochSnapshot":
        """Rebuild from :meth:`to_bytes` output (clean errors on damage)."""
        meta, table = load_epoch(data)
        return cls(table=read_only(table), **meta)

    def geometry(self) -> Tuple[int, int]:
        """``(d, l)`` the epoch was cut at; adjacent epochs that differ
        straddle a governor resize."""
        return self.d, self.l

    def meta(self) -> Dict:
        """JSON-ready metadata row (what ``/epochs`` serves)."""
        return {
            "epoch": self.epoch,
            "start_seq": self.start_seq,
            "packets": self.packets,
            "closed_at": self.closed_at,
            "d": self.d,
            "l": self.l,
        }


class KeyDictionary:
    """Sorted unique full keys, and per-partial-key maps onto groups.

    Immutable once built (the store replaces it whole when keys
    change), so a :class:`RangeSum` holding one stays consistent.  Each
    partial key's map is built once, from one projection and group of
    the dictionary, under the dictionary's own lock.
    """

    def __init__(self, spec, words: "np.ndarray") -> None:
        self.spec = spec
        self.words = words
        self._maps: Dict = {}
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return self.words.shape[1]

    def group_map(self, partial) -> Tuple["np.ndarray", "np.ndarray"]:
        """``(inverse, groups)``: each key's group id and the sorted
        group keys of *partial* (word columns)."""
        with self._lock:
            cached = self._maps.get(partial)
        if cached is not None:
            return cached
        projected = ProjectionPlan.compile(partial).apply(self.words)
        groups, inverse = unique_words(projected)
        with self._lock:
            cached = self._maps.setdefault(partial, (inverse, groups))
            while len(self._maps) > MAX_GROUP_MAPS:
                del self._maps[next(iter(self._maps))]
        return cached


def _reached(spec, words, sums) -> ColumnTable:
    """The grouped table of the keys with a positive sum."""
    return ColumnTable(spec, words, sums, grouped=True).select(sums > 0)


class RangeSum:
    """Answers over epochs ``lo..hi``: per-key sums of their estimates.

    Holds ``vf``, each dictionary key's summed value over the range.
    Serves the planner surface the HTTP layer and the SQL executor
    use: :meth:`table` for a partial key is one more bincount over the
    key's group map, and :meth:`grouped_base` (full-key rows, WHERE,
    COUNT(*)) is the dictionary's keys the range reaches, already
    unique and ascending.  Sizes are positive, so a key or group the
    range's rows reach has a positive sum.  Float64 sums of integer
    (or half-integer) estimates are exact in any order, so every answer
    equals grouping the concatenated epoch tables.
    """

    def __init__(self, dictionary: KeyDictionary, vf: "np.ndarray") -> None:
        self.spec = dictionary.spec
        self._dictionary = dictionary
        self._vf = vf
        self._base: Optional[ColumnTable] = None

    def grouped_base(self) -> ColumnTable:
        if self._base is None:
            self._base = _reached(self.spec, self._dictionary.words, self._vf)
        return self._base

    def table(self, partial) -> ColumnTable:
        if partial.is_full():
            return self.grouped_base()
        inverse, groups = self._dictionary.group_map(partial)
        sums = np.bincount(inverse, weights=self._vf, minlength=groups.shape[1])
        return _reached(partial, groups, sums)


class EpochStore:
    """Thread-safe bounded history of frozen epochs.

    Args:
        history: Maximum retained epochs; older snapshots are evicted
            FIFO.
    """

    def __init__(self, history: int = 64) -> None:
        if history < 1:
            raise ValueError(f"history must be >= 1, got {history}")
        self.history = history
        self._lock = threading.Lock()
        self._snaps: Dict[int, EpochSnapshot] = {}
        self._order: List[int] = []
        # The range read state, built by range reads under their own
        # lock, so add() (the ingest thread) and get() never wait on a
        # dictionary build: one key dictionary, and the assigned epochs'
        # dictionary ids and values in two columns, in epoch order, so a
        # range of epochs is one slice of them.  Ids are intp, the index
        # type np.bincount takes, so a read casts nothing.
        self._range_lock = threading.Lock()
        self._dictionary: Optional[KeyDictionary] = None
        self._ids = np.empty(0, dtype=np.intp)
        self._values = np.empty(0, dtype=np.float64)
        self._spans: Dict[int, Tuple[int, int]] = {}  # epoch -> its rows
        self.compactions = 0

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

    def dictionary_keys(self) -> int:
        """Full keys in the range dictionary (0 before any range read)."""
        dictionary = self._dictionary
        return 0 if dictionary is None else len(dictionary)

    def merged_range(self, lo: int, hi: int) -> RangeSum:
        """The sum of epochs ``lo..hi`` inclusive (time-travel).

        Deterministic, and exactly the per-key sums of the covered
        epochs' tables, whatever their geometries.  Raises KeyError when
        any epoch in the range is missing (never silently skips a hole:
        an estimate over ``lo..hi`` must cover all of it).
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
            retained = {e: self._snaps[e].table for e in self._order}
        with self._range_lock:
            self._assign_ids_locked(covered, retained)
            # Assigned epochs lo..hi are adjacent in epoch order.
            rows = slice(self._spans[lo][0], self._spans[hi][1])
            dictionary = self._dictionary
            ids, values = self._ids[rows], self._values[rows]
        vf = np.bincount(ids, weights=values, minlength=len(dictionary))
        return RangeSum(dictionary, vf)

    def _assign_ids_locked(self, covered: List[int], retained: Dict) -> None:
        """Give each *covered* epoch without ids its id column.

        Runs on a reader's thread under the range lock, for every such
        epoch of the range at once; *retained* maps the epochs the store
        holds to their tables.  When evictions have left more than half
        of the dictionary's keys unreferenced, it is compacted first.
        New keys re-sort it, which renumbers the assigned epochs' ids
        and starts a new dictionary (its group maps are rebuilt on
        demand).  The id and value columns are then rebuilt in epoch
        order, without the evicted epochs' rows.
        """
        pending = [e for e in covered if e not in self._spans]
        if not pending:
            return
        cols = {
            e: self._ids[a:b] for e, (a, b) in self._spans.items() if e in retained
        }
        dictionary = self._dictionary
        if len(cols) < len(self._spans):  # evictions since the last call
            live = np.zeros(len(dictionary), dtype=bool)
            for col in cols.values():
                live[col] = True
            if 2 * int(np.count_nonzero(live)) < len(dictionary):
                renumber = np.cumsum(live, dtype=np.int32) - 1
                cols = {e: renumber[col] for e, col in cols.items()}
                dictionary = KeyDictionary(
                    dictionary.spec, dictionary.words[:, live]
                )
                self.compactions += 1
        tables = [retained[e] for e in pending]
        if dictionary is None:
            dictionary = KeyDictionary(tables[0].spec, tables[0].words[:, :0])
        known = len(dictionary)
        keys, inverse = unique_words(
            np.concatenate([dictionary.words] + [t.words for t in tables], axis=1)
        )
        if keys.shape[1] != known:
            renumber = inverse[:known]
            cols = {e: renumber[col] for e, col in cols.items()}
            dictionary = KeyDictionary(dictionary.spec, keys)
        start = known
        for epoch, table in zip(pending, tables):
            cols[epoch] = inverse[start : start + len(table)]
            start += len(table)
        order = sorted(cols)
        ends = np.cumsum([len(cols[e]) for e in order]).tolist()
        self._spans = dict(zip(order, zip([0] + ends[:-1], ends)))
        self._ids = np.concatenate([cols[e] for e in order]).astype(np.intp)
        self._values = np.concatenate([retained[e].values for e in order])
        dictionary.words.flags.writeable = False
        self._dictionary = dictionary


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
