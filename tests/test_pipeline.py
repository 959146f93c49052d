"""Staged-pipeline unit tests: ring mechanics, backpressure, and the
staged-vs-monolithic bit-identity contract of the numpy engines.

The ring/stage tests drive :mod:`repro.engine.pipeline` directly with
recording stages; the differential tests assert that
``process_columns`` (the staged ring) and ``update_batch`` (the inline
monolithic path) produce byte-identical sketch state and identical
``CocoStats`` on both numpy CocoSketch variants — they share the same
per-chunk kernels, so any divergence means the scheduler changed a
decision.
"""

import numpy as np
import pytest

from repro import obs
from repro.engine.kernels import (
    KERNEL_BACKEND_CODES,
    KERNEL_GAUGE,
    numba_available,
)
from repro.engine.pipeline import (
    CHUNK_GAUGE,
    ChunkSlot,
    FnStage,
    PipelineStalled,
    RingBuffer,
    Stage,
    StagedPipeline,
)
from repro.engine.vectorized import (
    MAX_PIPELINE_CHUNK,
    MIN_PIPELINE_CHUNK,
    NumpyCocoSketch,
    NumpyHardwareCocoSketch,
)
from repro.parallel import STREAM_BATCH
from repro.service.daemon import DEFAULT_CHUNK

VARIANTS = [NumpyCocoSketch, NumpyHardwareCocoSketch]

KERNEL_BACKENDS = [
    pytest.param("python", id="kernel-python"),
    pytest.param(
        "numba",
        id="kernel-numba",
        marks=pytest.mark.skipif(
            not numba_available(), reason="numba not installed"
        ),
    ),
]


def columns(n, start=0):
    """Distinct, position-identifying (hi, lo, sizes) columns."""
    lo = np.arange(start, start + n, dtype=np.uint64)
    hi = lo ^ np.uint64(0xABCD)
    sizes = np.arange(start, start + n, dtype=np.int64) + 1
    return hi, lo, sizes


class Recorder(Stage):
    """Terminal stage keeping a copy of every chunk it consumes."""

    name = "record"

    def __init__(self):
        self.chunks = []

    def run(self, slot):
        self.chunks.append(
            (slot.seq_base, slot.lo[: slot.n].copy(), slot.sizes[: slot.n].copy())
        )


class Gate(Stage):
    """Stage that refuses to consume until opened."""

    name = "gate"

    def __init__(self):
        self.open = False
        self.seen = 0

    def ready(self):
        return self.open

    def run(self, slot):
        self.seen += 1


# -- ChunkSlot ---------------------------------------------------------


def test_slot_validates_capacity():
    with pytest.raises(ValueError):
        ChunkSlot(0)


def test_slot_load_rejects_oversized_chunk():
    slot = ChunkSlot(4)
    hi, lo, sizes = columns(5)
    with pytest.raises(ValueError):
        slot.load(hi, lo, sizes, 0)


def test_slot_load_copies_and_resets_payload():
    slot = ChunkSlot(8, hash_rows=2)
    hi, lo, sizes = columns(3)
    slot.payload = "stale"
    slot.load(hi, lo, sizes, 7)
    assert slot.n == 3
    assert slot.seq_base == 7
    assert slot.payload is None
    assert np.array_equal(slot.lo[:3], lo)
    # The slot owns a copy: mutating the source must not leak in.
    lo[0] = 999
    assert slot.lo[0] != 999
    assert slot.hashes.shape == (2, 8)


# -- RingBuffer --------------------------------------------------------


def test_ring_validates_arguments():
    with pytest.raises(ValueError):
        RingBuffer([], consumers=1)
    with pytest.raises(ValueError):
        RingBuffer([ChunkSlot(4)], consumers=0)


def test_ring_credit_accounting():
    ring = RingBuffer([ChunkSlot(4) for _ in range(3)], consumers=1)
    assert ring.credits == 3 and ring.in_flight == 0
    assert ring.acquire() is not None
    ring.publish()
    assert ring.credits == 2 and ring.occupancy == pytest.approx(1 / 3)
    ring.advance(0)
    assert ring.credits == 3 and ring.retired == 1


def test_ring_acquire_counts_stalls_when_full():
    ring = RingBuffer([ChunkSlot(4) for _ in range(2)], consumers=1)
    for _ in range(2):
        assert ring.acquire() is not None
        ring.publish()
    assert ring.acquire() is None
    assert ring.stalls == 1
    ring.advance(0)
    assert ring.acquire() is not None


def test_ring_wraps_around_reusing_slots():
    ring = RingBuffer([ChunkSlot(4) for _ in range(2)], consumers=1)
    seen = []
    for i in range(7):
        slot = ring.acquire()
        seen.append(id(slot))
        ring.publish()
        ring.advance(0)
    # Counts are monotone; the two physical slots alternate.
    assert ring.published == ring.retired == 7
    assert len(set(seen)) == 2
    assert seen[0] == seen[2] and seen[1] == seen[3]


def test_ring_stage_ordering():
    """Stage k only sees slots its upstream stage has finished."""
    ring = RingBuffer([ChunkSlot(4) for _ in range(3)], consumers=2)
    ring.acquire()
    ring.publish()
    assert ring.available(0)
    assert not ring.available(1)  # upstream (stage 0) hasn't advanced
    ring.advance(0)
    assert ring.available(1)
    ring.advance(1)
    assert ring.retired == 1


# -- StagedPipeline mechanics -----------------------------------------


def test_pipeline_validates_arguments():
    with pytest.raises(ValueError):
        StagedPipeline([], chunk=4)
    with pytest.raises(ValueError):
        StagedPipeline([Recorder()], chunk=0)


def test_zero_length_feed_publishes_nothing():
    rec = Recorder()
    pipe = StagedPipeline([rec], chunk=4, name="unit")
    hi, lo, sizes = columns(0)
    pipe.feed(hi, lo, sizes)
    pipe.flush()
    assert pipe.ring.published == 0
    assert rec.chunks == []
    assert pipe.backlog == 0


def test_feed_slices_into_chunks_in_order():
    rec = Recorder()
    pipe = StagedPipeline([rec], chunk=4, name="unit")
    hi, lo, sizes = columns(10)
    pipe.feed(hi, lo, sizes, seq_start=100)
    pipe.flush()
    assert [len(c[2]) for c in rec.chunks] == [4, 4, 2]
    assert [c[0] for c in rec.chunks] == [100, 104, 108]
    assert np.array_equal(np.concatenate([c[1] for c in rec.chunks]), lo)
    assert np.array_equal(np.concatenate([c[2] for c in rec.chunks]), sizes)


def test_single_stage_pipeline_wraps_past_ring_capacity():
    """A feed of many more chunks than slots reuses the ring cleanly."""
    rec = Recorder()
    pipe = StagedPipeline([rec], chunk=4, slots=2, name="unit")
    hi, lo, sizes = columns(40)
    pipe.feed(hi, lo, sizes)
    pipe.flush()
    assert len(rec.chunks) == 10
    assert pipe.ring.published == pipe.ring.retired == 10
    assert np.array_equal(np.concatenate([c[1] for c in rec.chunks]), lo)
    assert pipe.backlog == 0


def test_multi_stage_chunks_traverse_stages_in_dataflow_order():
    order = []
    stages = [
        FnStage("first", lambda slot: order.append(("first", slot.seq_base))),
        FnStage("second", lambda slot: order.append(("second", slot.seq_base))),
    ]
    pipe = StagedPipeline(stages, chunk=4, name="unit")
    hi, lo, sizes = columns(8)
    pipe.feed(hi, lo, sizes)
    pipe.flush()
    # Per chunk, "first" precedes "second"; all chunks retire.
    for seq in (0, 4):
        assert order.index(("first", seq)) < order.index(("second", seq))
    assert pipe.ring.retired == 2


def test_backpressure_stall_and_resume():
    gate = Gate()
    pipe = StagedPipeline([gate], chunk=4, slots=4, name="unit")
    hi, lo, sizes = columns(16)
    pipe.feed(hi, lo, sizes)  # fills all 4 slots, none consumed
    assert pipe.backlog == 4
    extra = columns(4, start=16)
    with pytest.raises(PipelineStalled):
        pipe.feed(*extra)
    assert pipe.ring.stalls >= 1
    # Opening the stage lets the same feed go through and drain.
    gate.open = True
    pipe.feed(*extra)
    pipe.flush()
    assert gate.seen == 5
    assert pipe.backlog == 0


def test_flush_raises_when_stage_never_ready():
    gate = Gate()
    pipe = StagedPipeline([gate], chunk=4, name="unit")
    hi, lo, sizes = columns(4)
    pipe.feed(hi, lo, sizes)
    with pytest.raises(PipelineStalled):
        pipe.flush()


def test_pipeline_metrics_under_collection():
    rec = Recorder()
    with obs.collecting() as reg:
        pipe = StagedPipeline([rec], chunk=4, name="unit")
        hi, lo, sizes = columns(12)
        pipe.feed(hi, lo, sizes)
        pipe.flush()
    snap = reg.snapshot()
    assert snap["counters"]["pipeline.unit.chunks"] == 3
    assert snap["spans"]["pipeline.stage.record"]["count"] == 3
    assert "pipeline.unit.occupancy" in snap["gauges"]


# -- staged vs monolithic differential --------------------------------


def trace_columns(n, flows, seed):
    """Zipf-ish columnar trace with 128-bit keys."""
    rng = np.random.default_rng(seed)
    flow_hi = rng.integers(0, 1 << 63, size=flows, dtype=np.uint64)
    flow_lo = rng.integers(0, 1 << 63, size=flows, dtype=np.uint64)
    idx = (rng.zipf(1.2, n) - 1) % flows
    sizes = rng.integers(1, 1000, n, dtype=np.int64)
    return flow_hi[idx], flow_lo[idx], sizes


STATE_FIELDS = ("_key_hi", "_key_lo", "_occupied", "_vals")


def assert_identical(a, b):
    """Byte-identical state and equal decision counters."""
    for field in STATE_FIELDS:
        assert np.array_equal(getattr(a, field), getattr(b, field)), field
    sa, sb = a.stats, b.stats
    assert sa.packets == sb.packets
    assert sa.matched == sb.matched
    assert sa.candidate_scans == sb.candidate_scans
    assert sa.replacements == sb.replacements
    assert sa.rejects == sb.rejects
    assert list(sa.evictions) == list(sb.evictions)


@pytest.mark.parametrize("cls", VARIANTS, ids=lambda c: c.__name__)
def test_staged_matches_monolithic(cls):
    """process_columns (ring) == update_batch (inline), multi-chunk."""
    hi, lo, sizes = trace_columns(40_000, 5_000, seed=3)
    mono = cls(d=2, l=64, seed=9)
    staged = cls(d=2, l=64, seed=9)
    mono.update_batch((hi, lo), sizes)
    staged.process_columns(hi, lo, sizes)
    assert_identical(mono, staged)
    assert staged._pipe.backlog == 0


@pytest.mark.parametrize("cls", VARIANTS, ids=lambda c: c.__name__)
@pytest.mark.parametrize("backend", KERNEL_BACKENDS)
def test_staged_matches_monolithic_with_kernels(cls, backend):
    """The bit-identity contract holds per kernel backend too.

    Both paths dispatch through the same ``_update_chunk``, so the
    compiled backends inherit the staged == monolithic guarantee; this
    pins it, including RNG-consumption alignment in default (non-replay)
    mode.
    """
    hi, lo, sizes = trace_columns(12_000, 2_000, seed=3)
    mono = cls(d=2, l=64, seed=9, kernels=backend)
    staged = cls(d=2, l=64, seed=9, kernels=backend)
    mono.update_batch((hi, lo), sizes)
    staged.process_columns(hi, lo, sizes)
    assert_identical(mono, staged)
    assert staged._pipe.kernel == backend


def test_pipeline_reports_kernel_gauge():
    rec = Recorder()
    with obs.collecting() as reg:
        pipe = StagedPipeline([rec], chunk=4, name="unit", kernel="numpy")
        hi, lo, sizes = columns(8)
        pipe.feed(hi, lo, sizes)
        pipe.flush()
    snap = reg.snapshot()
    assert snap["gauges"][KERNEL_GAUGE] == KERNEL_BACKEND_CODES["numpy"]
    assert snap["gauges"][CHUNK_GAUGE] == 4


def test_pipeline_without_kernel_name_emits_no_gauge():
    rec = Recorder()
    with obs.collecting() as reg:
        pipe = StagedPipeline([rec], chunk=4, name="unit")
        hi, lo, sizes = columns(8)
        pipe.feed(hi, lo, sizes)
        pipe.flush()
    assert KERNEL_GAUGE not in reg.snapshot()["gauges"]
    assert CHUNK_GAUGE not in reg.snapshot()["gauges"]


# -- geometry-derived kernel chunk ---------------------------------------

CHUNK_WIDTHS = [64, 100, 188, 256, 1000, 1024, 1505, 2048, 4096, 65536]


@pytest.mark.parametrize("d", range(1, 9))
def test_basic_chunk_is_aligned_power_of_two(d):
    for l in CHUNK_WIDTHS:
        chunk = NumpyCocoSketch(d, l, kernels="numpy").pipeline_chunk
        assert chunk & (chunk - 1) == 0, (d, l, chunk)
        assert MIN_PIPELINE_CHUNK <= chunk <= MAX_PIPELINE_CHUNK, (d, l)
        assert DEFAULT_CHUNK % chunk == 0 and STREAM_BATCH % chunk == 0


def test_basic_chunk_follows_geometry():
    # The governor's start and budget widths, and the d=2 widths whose
    # chunk must stay at the maximum.
    assert NumpyCocoSketch(8, 188, kernels="numpy").pipeline_chunk == 512
    assert NumpyCocoSketch(8, 1505, kernels="numpy").pipeline_chunk == 4096
    for l in (2048, 4096, 8192, 65536):
        sketch = NumpyCocoSketch(2, l, kernels="numpy")
        assert sketch.pipeline_chunk == MAX_PIPELINE_CHUNK


@pytest.mark.parametrize(
    "cls,kernels",
    [
        (NumpyHardwareCocoSketch, "numpy"),
        (NumpyHardwareCocoSketch, "python"),
        (NumpyCocoSketch, "python"),
    ],
    ids=["hw-numpy", "hw-compiled", "basic-compiled"],
)
def test_hardware_and_compiled_chunks_stay_at_maximum(cls, kernels):
    sketch = cls(8, 188, kernels=kernels)
    assert sketch.pipeline_chunk == MAX_PIPELINE_CHUNK
    sketch.resize(1505)
    assert sketch.pipeline_chunk == MAX_PIPELINE_CHUNK


def test_basic_chunk_changes_on_resize_only():
    hi, lo, sizes = trace_columns(6_000, 1_500, seed=4)
    sketch = NumpyCocoSketch(8, 188, seed=2, kernels="numpy")
    assert sketch.pipeline_chunk == 512
    sketch.process_columns(hi, lo, sizes)
    sketch.update_batch((hi, lo), sizes)
    sketch.reset()
    sketch.resize(188)  # same width: a no-op
    assert sketch.pipeline_chunk == 512
    assert sketch._staged_pipeline().chunk == 512

    sketch.resize(1505, seed=1)
    assert sketch.pipeline_chunk == 4096
    with obs.collecting() as reg:
        sketch.process_columns(hi, lo, sizes)
    assert reg.snapshot()["gauges"][CHUNK_GAUGE] == 4096
    assert sketch._pipe.chunk == 4096
    # The pipeline's chunk counter sees the new granularity.
    chunks = reg.snapshot()["counters"]["pipeline.numpy.basic.chunks"]
    assert chunks == -(-len(sizes) // 4096)

    sketch.resize(188, seed=1)
    assert sketch.pipeline_chunk == 512
    with obs.collecting() as reg:
        sketch.update_batch((hi, lo), sizes)
    assert reg.snapshot()["gauges"][CHUNK_GAUGE] == 512


@pytest.mark.parametrize("cls", VARIANTS, ids=lambda c: c.__name__)
def test_staged_matches_monolithic_split_feeds(cls):
    """Streaming in pipeline_chunk multiples matches one big batch.

    This is the boundary contract the sharded driver relies on: its
    stream blocks are pipeline_chunk multiples, so per-worker staged
    execution replays the unsharded chunk schedule exactly.
    """
    hi, lo, sizes = trace_columns(40_000, 5_000, seed=5)
    mono = cls(d=2, l=64, seed=9)
    staged = cls(d=2, l=64, seed=9)
    mono.update_batch((hi, lo), sizes)
    step = cls.pipeline_chunk
    for start in range(0, len(sizes), step):
        staged.process_columns(
            hi[start : start + step],
            lo[start : start + step],
            sizes[start : start + step],
        )
    assert_identical(mono, staged)


def test_staged_matches_monolithic_hw_replay_any_split():
    """Replay mode makes the hardware kernel slice-invariant.

    Draws are keyed on the global packet sequence number, so even feed
    granularities that do not line up with pipeline_chunk reproduce the
    monolithic run bit for bit.  (The basic rule's epoch grouping is
    chunk-shaped by design, so it only guarantees identity at chunk
    multiples — the test above.)
    """
    hi, lo, sizes = trace_columns(20_000, 3_000, seed=7)
    mono = NumpyHardwareCocoSketch(d=2, l=64, seed=9, replay=True)
    staged = NumpyHardwareCocoSketch(d=2, l=64, seed=9, replay=True)
    mono.update_batch((hi, lo), sizes)
    for start in range(0, len(sizes), 1000):
        staged.process_columns(
            hi[start : start + 1000],
            lo[start : start + 1000],
            sizes[start : start + 1000],
        )
    assert_identical(mono, staged)


@pytest.mark.parametrize("cls", VARIANTS, ids=lambda c: c.__name__)
def test_process_matches_update_batch_on_iterables(cls):
    """The buffered-iterable process() path hits the same kernels."""
    rng = np.random.default_rng(11)
    keys = [int(k) for k in rng.integers(0, 1 << 32, size=3_000)]
    sizes = [int(s) for s in rng.integers(1, 100, size=3_000)]
    mono = cls(d=2, l=32, seed=4)
    staged = cls(d=2, l=32, seed=4)
    mono.update_batch(keys, sizes)
    staged.process(zip(keys, sizes))
    assert_identical(mono, staged)


@pytest.mark.parametrize("cls", VARIANTS, ids=lambda c: c.__name__)
def test_empty_inputs_are_noops(cls):
    sketch = cls(d=2, l=16, seed=1)
    empty = np.empty(0, dtype=np.uint64)
    sketch.process_columns(empty, empty, np.empty(0, dtype=np.int64))
    sketch.update_batch((empty, empty), np.empty(0, dtype=np.int64))
    assert sketch.stats.packets == 0
    assert not sketch._occupied.any()


@pytest.mark.parametrize("cls", VARIANTS, ids=lambda c: c.__name__)
def test_reset_clears_pipeline_state(cls):
    """reset() empties state and the global sequence counter."""
    hi, lo, sizes = trace_columns(5_000, 800, seed=13)
    sketch = cls(d=2, l=32, seed=2)
    sketch.process_columns(hi, lo, sizes)
    assert sketch._occupied.any()
    sketch.reset()
    assert sketch._seq == 0
    assert not sketch._occupied.any()
    assert sketch.stats.packets == 0
    # A fresh sketch (same seed) over the same stream reproduces the
    # same state twice — the staged path is deterministic end to end.
    one = cls(d=2, l=32, seed=2)
    two = cls(d=2, l=32, seed=2)
    one.process_columns(hi, lo, sizes)
    two.process_columns(hi, lo, sizes)
    assert_identical(one, two)
