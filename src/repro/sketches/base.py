"""Common sketch interface and update-cost accounting.

All algorithms under test — CocoSketch variants, USS and every baseline —
implement :class:`Sketch`.  The interface captures exactly what the
evaluation needs:

* ``update(key, size)`` — consume one packet.
* ``update_batch(keys, sizes)`` — consume a batch of packets; the base
  implementation is a scalar loop, vectorised sketches
  (:mod:`repro.engine`) override it with columnar numpy paths.
* ``query(key)`` — point estimate for one full-key flow.
* ``flow_table()`` — the recorded ``{full_key: estimate}`` table the
  control plane aggregates for partial-key queries (§4.3, Step 3).
* ``memory_bytes()`` — configured data-plane memory footprint, the
  x-axis of the memory sweeps.
* ``update_cost()`` — a static per-packet operation count
  (:class:`UpdateCost`) used by the hardware models and the CPU-cycle
  analysis; it complements (not replaces) measured wall-clock numbers.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, Optional, Sequence, Tuple, Union

import numpy as np

from repro.obs.registry import get_registry

#: Per-bucket key storage in bytes; the 5-tuple full key is 104 bits.
DEFAULT_KEY_BYTES = 13
#: Per-bucket counter storage in bytes (32-bit, as in the paper's code).
COUNTER_BYTES = 4

#: Packets per columnar block when a packet source is fed to a
#: vectorised sketch (:meth:`Sketch.process`) or scattered to shard
#: workers.  A multiple of the columnar engines' 16384-packet hash
#: block, so block edges never move an engine's chunk boundaries.
STREAM_BATCH = 65536

#: Batch keys: python ints, a uint64 array (keys < 2**64), or columnar
#: (hi, lo) uint64 arrays as yielded by ``Trace.batches``.
KeyBatch = Union[Sequence[int], "np.ndarray", Tuple["np.ndarray", "np.ndarray"]]


def iter_batch(
    keys: KeyBatch, sizes: Optional[Sequence[int]] = None
) -> Iterator[Tuple[int, int]]:
    """Yield scalar ``(key, size)`` pairs from any batch representation."""
    if isinstance(keys, tuple):
        hi, lo = keys
        ints = [
            (h << 64) | l
            for h, l in zip(np.asarray(hi).tolist(), np.asarray(lo).tolist())
        ]
    elif isinstance(keys, np.ndarray):
        ints = keys.tolist()
    else:
        ints = keys
    if sizes is None:
        for key in ints:
            yield key, 1
    else:
        if isinstance(sizes, np.ndarray):
            sizes = sizes.tolist()
        yield from zip(ints, sizes)


def iter_blocks(
    packets: Iterable[Tuple[int, int]],
) -> Iterator[Tuple["np.ndarray", "np.ndarray", "np.ndarray"]]:
    """Yield a packet source as ``(hi, lo, sizes)`` blocks of at most
    :data:`STREAM_BATCH` packets.

    A :class:`~repro.traffic.trace.Trace` supplies (and caches) its own
    columns; any other ``(key, size)`` iterable is packed here block by
    block, so the whole source is never materialised.
    """
    batches = getattr(packets, "batches", None)
    if batches is not None:
        yield from batches(STREAM_BATCH)
        return
    from repro.flowkeys.columns import pack_key_columns

    keys: list = []
    szs: list = []
    for key, size in packets:
        keys.append(key)
        szs.append(size)
        if len(keys) >= STREAM_BATCH:
            hi, lo = pack_key_columns(keys)
            yield hi, lo, np.asarray(szs, dtype=np.int64)
            keys, szs = [], []
    if keys:
        hi, lo = pack_key_columns(keys)
        yield hi, lo, np.asarray(szs, dtype=np.int64)


@dataclass(frozen=True)
class UpdateCost:
    """Static per-packet operation counts for one sketch's update path.

    Attributes:
        hashes: Hash evaluations per packet.
        reads: Worst-case bucket/counter reads per packet.
        writes: Worst-case bucket/counter writes per packet.
        random_draws: Random numbers consumed per packet (worst case).
    """

    hashes: int
    reads: int
    writes: int
    random_draws: int = 0

    @property
    def memory_accesses(self) -> int:
        """Total worst-case memory touches per packet."""
        return self.reads + self.writes

    def __add__(self, other: "UpdateCost") -> "UpdateCost":
        return UpdateCost(
            self.hashes + other.hashes,
            self.reads + other.reads,
            self.writes + other.writes,
            self.random_draws + other.random_draws,
        )


class Sketch(abc.ABC):
    """Abstract streaming frequency sketch over packed integer flow keys."""

    #: Short algorithm label used in reports (override per subclass).
    name: str = "sketch"

    #: True when ``update_batch`` is a genuinely vectorised implementation
    #: (the :mod:`repro.engine` numpy sketches); the base scalar loop
    #: leaves it False so callers can pick sensible batch defaults.
    vectorized: bool = False

    #: True when the sketch emits compact per-chunk bucket deltas
    #: (``sink.push_buckets``) from its update path; scalar sketches
    #: leave it False and fall back to full-table deltas
    #: (``sink.push_table``) once per :meth:`process_columns` call.
    emits_bucket_deltas: bool = False

    #: Slim-replica delta sink (:mod:`repro.query.slim`).  ``None`` —
    #: the default — keeps every emission a no-op, so sketches that are
    #: never mirrored pay nothing.
    _delta_sink = None

    def attach_delta_sink(self, sink) -> None:
        """Start streaming state deltas to *sink* after every update.

        The sink sees either compact bucket deltas (columnar engines,
        ``push_buckets``) or full-table deltas (scalar sketches,
        ``push_table``).  Emission is strictly read-only — it never
        draws from the sketch's RNG or touches its state — so attaching
        a sink cannot perturb the deterministic replay contracts.
        """
        self._delta_sink = sink

    def detach_delta_sink(self):
        """Stop emitting deltas; returns the previously attached sink."""
        sink = self._delta_sink
        self._delta_sink = None
        return sink

    @abc.abstractmethod
    def update(self, key: int, size: int = 1) -> None:
        """Fold one packet ``(key, size)`` into the sketch."""

    def update_batch(
        self, keys: KeyBatch, sizes: Optional[Sequence[int]] = None
    ) -> None:
        """Fold a batch of packets into the sketch.

        ``keys`` accepts a sequence of python ints, a uint64 numpy array
        (for keys below 2**64), or a columnar ``(hi, lo)`` pair of
        uint64 arrays (what :meth:`Trace.batches` yields).  ``sizes``
        defaults to all-ones.  This base implementation is the scalar
        fallback — a plain loop over :meth:`update` — so every sketch
        supports the batch interface; vectorised engines override it.
        """
        update = self.update
        for key, size in iter_batch(keys, sizes):
            update(key, size)

    @abc.abstractmethod
    def query(self, key: int) -> float:
        """Point estimate of the total size of full-key flow *key*."""

    @abc.abstractmethod
    def flow_table(self) -> Dict[int, float]:
        """Estimated sizes of all flows the sketch has recorded keys for."""

    @abc.abstractmethod
    def memory_bytes(self) -> int:
        """Configured data-plane memory footprint in bytes."""

    @abc.abstractmethod
    def update_cost(self) -> UpdateCost:
        """Static worst-case per-packet operation counts."""

    def process(self, packets: Iterable[Tuple[int, int]]) -> None:
        """Feed a packet source (a Trace or any ``(key, size)`` iterable).

        Vectorised sketches take the source as columnar blocks
        (:func:`iter_blocks`) through :meth:`process_columns`; the
        engine decides how to cut each block.  Other sketches run the
        per-packet :meth:`update` loop, which also takes keys of any
        width.
        """
        with get_registry().span("sketch.process"):
            if self.vectorized:
                for hi, lo, sizes in iter_blocks(packets):
                    self.process_columns(hi, lo, sizes)
                return
            update = self.update
            for key, size in packets:
                update(key, size)

    def process_columns(
        self, hi: "np.ndarray", lo: "np.ndarray", sizes: "np.ndarray"
    ) -> None:
        """Consume one columnar ``(hi, lo, sizes)`` block.

        The streaming entry point the shard workers and the daemon use:
        vectorised sketches take the block in one :meth:`update_batch`,
        scalar sketches run the per-packet loop.  The columnar
        CocoSketch engines override this to feed their chunk loop.
        """
        n = len(sizes)
        if n == 0:
            return
        if self.vectorized:
            self.update_batch((hi, lo), sizes)
        else:
            update = self.update
            for key, size in iter_batch((hi, lo), sizes):
                update(key, size)
        # Scalar sketches have no compact dirty set; a full-table dump
        # once per block is their (valid, if fat) delta.  Columnar
        # engines override this method and emit per-chunk bucket deltas
        # instead, so the two never double-emit.
        sink = self._delta_sink
        if sink is not None:
            sink.push_table(n, self.flow_table())

    def reset(self) -> None:
        """Clear all state.  Subclasses with cheap re-init may override."""
        raise NotImplementedError(
            f"{type(self).__name__} does not implement reset(); override "
            "Sketch.reset() with a cheap state re-initialisation (see "
            "BasicCocoSketch.reset for the pattern) to enable reuse "
            "across windows"
        )
