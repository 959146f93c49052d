"""Staged execution pipeline: pre-allocated ring buffers between stages.

The monolithic ``update_batch`` path couples four distinct jobs —
packing columnar input, hashing it, running the replacement rule and
folding decision counters — behind one per-batch barrier.  This module
decouples them into explicit :class:`Stage` objects connected by a
single :class:`RingBuffer` of pre-allocated :class:`ChunkSlot` buffers
(the LMAX-disruptor shape: one ring, one cursor per stage, no
inter-stage copying), so stage N of chunk k can run while stage N-1
works on chunk k+1.

Design contract (see docs/pipeline.md for the full write-up):

* **Pack** is the producer, not a ring stage: :meth:`StagedPipeline.feed`
  slices arbitrary columnar input into cache-resident chunks and copies
  each slice into the next free slot.  Slots are allocated once, at
  pipeline construction — the steady state does zero allocation for the
  packet columns.
* **Credit-based backpressure** — the producer's credit is the number
  of slots the *last* stage has retired but the producer has not yet
  refilled.  When credits hit zero the producer stalls: it pumps the
  stages until the tail retires a slot, and raises
  :class:`PipelineStalled` if no stage can make progress (only possible
  when a stage reports itself not ready).
* **Deterministic cooperative scheduling** — :meth:`StagedPipeline.pump`
  advances every stage by at most one chunk, downstream stages first,
  so a freshly published chunk ripples through one stage per pump and
  up to ``len(stages)`` chunks are in flight at once.  Because each
  stage consumes slots strictly in publication order and stages own
  disjoint state, results are bit-identical under *any* schedule; the
  fixed pump order just makes runs reproducible.
* **Observability** — per-stage wall time lands in
  ``pipeline.stage.<name>`` spans, ring occupancy in the
  ``pipeline.<name>.occupancy`` gauge and producer stalls in the
  ``pipeline.<name>.stalls`` counter, all under the existing
  ``repro.obs.metrics/v1`` schema.
* **Delta emission** — the ``replace`` stage is the single point where
  sketch state mutates, so it is also where slim-replica deltas leave
  the pipeline: after the kernel runs, the stage hands the slot's
  candidate index block ``slot.hashes`` to the sketch's
  ``_emit_chunk_delta``, which gathers the touched bucket rows for any
  attached sink (:mod:`repro.query.slim`).  Emission is read-only and
  happens before the slot is retired, so a sink observes chunks in
  exact publication order — the property the slim replica's
  "consistent drained prefix" guarantee rests on.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.engine.kernels import KERNEL_BACKEND_CODES, KERNEL_GAUGE
from repro.obs.registry import get_registry


#: Gauge reporting the engine's kernel chunk in packets.
CHUNK_GAUGE = "pipeline.chunk"


class PipelineStalled(RuntimeError):
    """The producer needs a slot but no stage can make progress."""


class ChunkSlot:
    """One pre-allocated pipeline buffer holding a chunk of packets.

    Columns are fixed-capacity numpy arrays; ``n`` says how much of the
    capacity the current chunk uses.  ``hashes`` is the hash stage's
    output region (one row per hash function); ``payload`` carries
    stage-to-stage results that are not packet columns (the update
    stage parks its :class:`CocoStats` delta there for the stats
    stage).
    """

    __slots__ = ("capacity", "hi", "lo", "sizes", "hashes", "n", "seq_base", "payload")

    def __init__(self, capacity: int, hash_rows: int = 0) -> None:
        if capacity < 1:
            raise ValueError(f"slot capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.hi = np.empty(capacity, dtype=np.uint64)
        self.lo = np.empty(capacity, dtype=np.uint64)
        self.sizes = np.empty(capacity, dtype=np.int64)
        self.hashes = (
            np.empty((hash_rows, capacity), dtype=np.int64) if hash_rows else None
        )
        self.n = 0
        self.seq_base = 0
        self.payload = None

    def load(self, hi, lo, sizes, seq_base: int) -> None:
        """Copy one chunk into the slot's pre-allocated columns."""
        n = len(sizes)
        if n > self.capacity:
            raise ValueError(f"chunk of {n} exceeds slot capacity {self.capacity}")
        self.hi[:n] = hi
        self.lo[:n] = lo
        self.sizes[:n] = sizes
        self.n = n
        self.seq_base = seq_base
        self.payload = None


class Stage:
    """One pipeline stage: consumes published slots in order.

    Subclasses override :meth:`run`; :meth:`ready` lets a stage defer
    consumption (the hook backpressure tests — and future asynchronous
    sinks — use to stall the ring deliberately).
    """

    name = "stage"

    def ready(self) -> bool:
        return True

    def run(self, slot: ChunkSlot) -> None:
        raise NotImplementedError


class FnStage(Stage):
    """Adapter: wrap a plain ``fn(slot)`` callable as a stage."""

    def __init__(self, name: str, fn) -> None:
        self.name = name
        self._fn = fn

    def run(self, slot: ChunkSlot) -> None:
        self._fn(slot)


class RingBuffer:
    """Single-producer ring of slots with one cursor per consumer stage.

    ``published`` counts slots the producer has filled; ``cursors[k]``
    counts slots stage *k* has consumed.  Stage k may only consume
    slots its upstream (stage k-1, or the producer for k=0) has
    finished, and the producer may only reuse slots the final stage has
    retired — ``credits`` is how many it can still claim.  All counts
    are monotone; slot index = count % capacity (wrap-around).
    """

    def __init__(self, slots: Sequence[ChunkSlot], consumers: int) -> None:
        if not slots:
            raise ValueError("ring needs at least one slot")
        if consumers < 1:
            raise ValueError(f"ring needs >= 1 consumer stage, got {consumers}")
        self.slots: List[ChunkSlot] = list(slots)
        self.capacity = len(self.slots)
        self.published = 0
        self.cursors = [0] * consumers
        self.stalls = 0

    @property
    def retired(self) -> int:
        """Slots fully processed by every stage."""
        return self.cursors[-1]

    @property
    def in_flight(self) -> int:
        return self.published - self.retired

    @property
    def credits(self) -> int:
        """Free slots the producer may still claim before stalling."""
        return self.capacity - self.in_flight

    @property
    def occupancy(self) -> float:
        """Fraction of slots holding unretired chunks (0.0 = drained)."""
        return self.in_flight / self.capacity

    def acquire(self) -> Optional[ChunkSlot]:
        """The next slot to fill, or None when out of credits (a stall)."""
        if self.credits == 0:
            self.stalls += 1
            return None
        return self.slots[self.published % self.capacity]

    def publish(self) -> None:
        """Hand the acquired slot to stage 0."""
        self.published += 1

    def available(self, stage: int) -> bool:
        """Does stage *stage* have an upstream-completed slot waiting?"""
        upstream = self.published if stage == 0 else self.cursors[stage - 1]
        return self.cursors[stage] < upstream

    def front(self, stage: int) -> ChunkSlot:
        """The next slot stage *stage* will consume."""
        return self.slots[self.cursors[stage] % self.capacity]

    def advance(self, stage: int) -> None:
        self.cursors[stage] += 1


class StagedPipeline:
    """Stages over one shared ring, driven by a cooperative scheduler.

    Args:
        stages: The consumer stages in dataflow order (at least one; a
            single-stage pipeline degenerates to buffered batching).
        chunk: Slot capacity — the pack stage slices every feed into
            chunks of at most this many packets.
        hash_rows: Rows of the per-slot ``hashes`` region (0 = none).
        slots: Ring size; defaults to one more than the stage count so
            the full stage ladder can be in flight plus one slot
            filling (minimum 4 keeps tiny pipelines overlapped).
        name: Label used in metric names (``pipeline.<name>.*``).
        kernel: Active kernel backend name ("numpy"/"numba"/"python");
            reported through the ``pipeline.kernel`` gauge so profiles
            show which replace-stage implementation ran.  Engine
            pipelines (those naming a kernel) also report *chunk*
            through the ``pipeline.chunk`` gauge.
    """

    def __init__(
        self,
        stages: Sequence[Stage],
        chunk: int,
        hash_rows: int = 0,
        slots: Optional[int] = None,
        name: str = "engine",
        kernel: Optional[str] = None,
    ) -> None:
        if not stages:
            raise ValueError("pipeline needs at least one stage")
        if chunk < 1:
            raise ValueError(f"chunk must be >= 1, got {chunk}")
        if slots is None:
            slots = max(4, len(stages) + 1)
        if slots < 1:
            raise ValueError(f"slots must be >= 1, got {slots}")
        self.stages: List[Stage] = list(stages)
        self.chunk = chunk
        self.name = name
        self.ring = RingBuffer(
            [ChunkSlot(chunk, hash_rows) for _ in range(slots)], len(self.stages)
        )
        self._span_names = [f"pipeline.stage.{s.name}" for s in self.stages]
        self._gauge_name = f"pipeline.{name}.occupancy"
        self._stall_name = f"pipeline.{name}.stalls"
        self._chunk_counter = f"pipeline.{name}.chunks"
        self.kernel = kernel
        self._kernel_code = KERNEL_BACKEND_CODES.get(kernel) if kernel else None

    # -- producer side -------------------------------------------------

    def feed(self, hi, lo, sizes, seq_start: int = 0) -> None:
        """Pack columnar input into ring slots, pumping stages as needed.

        Slices the input into chunks of at most ``self.chunk`` packets;
        a zero-length input publishes nothing.  ``seq_start`` is the
        global sequence number of the first packet (replay-mode draws
        are keyed on it).
        """
        n = len(sizes)
        obs = get_registry()
        if obs.enabled and self._kernel_code is not None:
            obs.set_gauge(KERNEL_GAUGE, self._kernel_code)
            obs.set_gauge(CHUNK_GAUGE, float(self.chunk))
        for start in range(0, n, self.chunk):
            stop = min(start + self.chunk, n)
            slot = self.ring.acquire()
            while slot is None:
                if obs.enabled:
                    obs.inc(self._stall_name)
                if not self.pump():
                    raise PipelineStalled(
                        f"pipeline {self.name!r}: ring full "
                        f"({self.ring.capacity} slots) and no stage can "
                        "make progress"
                    )
                slot = self.ring.acquire()
            slot.load(hi[start:stop], lo[start:stop], sizes[start:stop],
                      seq_start + start)
            self.ring.publish()
            if obs.enabled:
                obs.inc(self._chunk_counter)
                obs.set_gauge(self._gauge_name, self.ring.occupancy)
            self.pump()

    # -- scheduler -----------------------------------------------------

    def pump(self) -> bool:
        """Advance each stage by at most one chunk, downstream first.

        Returns True when any stage consumed a slot.  Downstream-first
        order means a newly published chunk passes one stage per pump —
        the single-threaded rendering of "stage N of chunk k overlaps
        stage N-1 of chunk k+1".
        """
        obs = get_registry()
        progress = False
        for k in range(len(self.stages) - 1, -1, -1):
            stage = self.stages[k]
            if self.ring.available(k) and stage.ready():
                slot = self.ring.front(k)
                if obs.enabled:
                    with obs.span(self._span_names[k]):
                        stage.run(slot)
                else:
                    stage.run(slot)
                self.ring.advance(k)
                progress = True
        return progress

    def flush(self) -> None:
        """Drain the ring: pump until every published chunk is retired."""
        ring = self.ring
        while ring.retired < ring.published:
            if not self.pump():
                raise PipelineStalled(
                    f"pipeline {self.name!r}: flush cannot complete, "
                    "a stage is not ready"
                )
        obs = get_registry()
        if obs.enabled:
            obs.set_gauge(self._gauge_name, ring.occupancy)

    @property
    def backlog(self) -> int:
        """Chunks published but not yet retired by the final stage."""
        return self.ring.in_flight
