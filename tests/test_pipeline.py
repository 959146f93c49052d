"""Chunk-loop tests for the numpy CocoSketch engines.

``process_columns`` and ``update_batch`` are adapters onto one chunk
loop (hash per block, then replace → stats per chunk), and ``process``
feeds ``process_columns`` columnar blocks.  These tests pin the loop's
step order and metrics, the geometry-derived kernel chunk, the entry
points' byte-identical state and ``CocoStats``, that every default feed
(plain, sharded, daemon epoch) equals ``update_batch`` over the same
blocks, and that an engine is freed as soon as its last reference drops.
"""

import gc
import weakref

import numpy as np
import pytest

from repro import obs
from repro.engine.kernels import (
    CHUNK_GAUGE,
    KERNEL_BACKEND_CODES,
    KERNEL_GAUGE,
    c_available,
    numba_available,
)
from repro.engine.vectorized import (
    MAX_PIPELINE_CHUNK,
    MIN_PIPELINE_CHUNK,
    NumpyCocoSketch,
    NumpyHardwareCocoSketch,
)
from repro.engine.sharded import (
    PARTITION_STRATEGIES,
    ShardedSketch,
    SketchSpec,
    partition_columns,
    sum_rows,
)
from repro.parallel import build_shard_sketch
from repro.service import ServiceConfig, offline_epoch_run
from repro.service.daemon import DEFAULT_CHUNK
from repro.sketches.base import STREAM_BATCH
from repro.traffic.synthetic import caida_like, zipf_trace

VARIANTS = [NumpyCocoSketch, NumpyHardwareCocoSketch]

KERNEL_BACKENDS = [
    pytest.param("numpy", id="kernel-numpy"),
    pytest.param("python", id="kernel-python"),
    pytest.param(
        "numba",
        id="kernel-numba",
        marks=pytest.mark.skipif(
            not numba_available(), reason="numba not installed"
        ),
    ),
    pytest.param(
        "c",
        id="kernel-c",
        marks=pytest.mark.skipif(
            not c_available(), reason="no working C compiler"
        ),
    ),
]


def columns(n, start=0):
    """Distinct, position-identifying (hi, lo, sizes) columns."""
    lo = np.arange(start, start + n, dtype=np.uint64)
    hi = lo ^ np.uint64(0xABCD)
    sizes = np.arange(start, start + n, dtype=np.int64) + 1
    return hi, lo, sizes


def trace_columns(n, flows, seed):
    """Zipf-ish columnar trace with 128-bit keys."""
    rng = np.random.default_rng(seed)
    flow_hi = rng.integers(0, 1 << 63, size=flows, dtype=np.uint64)
    flow_lo = rng.integers(0, 1 << 63, size=flows, dtype=np.uint64)
    idx = (rng.zipf(1.2, n) - 1) % flows
    sizes = rng.integers(1, 1000, n, dtype=np.int64)
    return flow_hi[idx], flow_lo[idx], sizes


STATE_FIELDS = ("_key_hi", "_key_lo", "_occupied", "_vals")


def assert_same_state(a, b):
    """Byte-identical state arrays (what a serialised sketch keeps)."""
    for field in STATE_FIELDS:
        assert np.array_equal(getattr(a, field), getattr(b, field)), field


def assert_identical(a, b):
    """Byte-identical state and equal decision counters."""
    assert_same_state(a, b)
    sa, sb = a.stats, b.stats
    assert sa.packets == sb.packets
    assert sa.matched == sb.matched
    assert sa.candidate_scans == sb.candidate_scans
    assert sa.replacements == sb.replacements
    assert sa.rejects == sb.rejects
    assert list(sa.evictions) == list(sb.evictions)


def n_chunks(n, step, chunk):
    """Kernel chunks the loop runs for *n* packets fed in *step* slices."""
    return sum(-(-min(step, n - start) // chunk) for start in range(0, n, step))


def record_steps(sketch, log):
    """Wrap the loop's per-chunk steps on *sketch* to log their calls."""
    for name in ("_hash_block", "_update_chunk", "_emit_chunk_delta", "_fold_delta"):
        original = getattr(sketch, name)

        def step(*args, _name=name, _original=original):
            log.append((_name, args))
            return _original(*args)

        setattr(sketch, name, step)


# -- the chunk loop ------------------------------------------------------


def test_zero_length_feed_publishes_nothing():
    """A zero-length feed runs no chunk step and leaves seq where it was."""
    sketch = NumpyCocoSketch(d=2, l=64, seed=1)
    hi, lo, sizes = columns(5)
    sketch.process_columns(hi, lo, sizes)
    log = []
    record_steps(sketch, log)
    hi, lo, sizes = columns(0)
    sketch.process_columns(hi, lo, sizes)
    sketch.update_batch((hi, lo), sizes)
    sketch.process(iter(()))
    assert log == []
    assert sketch._seq == 5
    assert sketch.stats.packets == 5


def test_feed_slices_into_chunks_in_order():
    """Kernel chunks cover the input in order, keyed on global seq."""
    sketch = NumpyCocoSketch(d=2, l=64, seed=1)
    chunk = sketch.pipeline_chunk
    hi, lo, sizes = columns(2 * chunk + 100)
    log = []
    record_steps(sketch, log)
    sketch.process_columns(hi[:100], lo[:100], sizes[:100])
    sketch.process_columns(hi[100:], lo[100:], sizes[100:])
    updates = [args for name, args in log if name == "_update_chunk"]
    assert [len(a[2]) for a in updates] == [100, chunk, chunk]
    assert [a[4] for a in updates] == [0, 100, 100 + chunk]
    assert np.array_equal(np.concatenate([a[1] for a in updates]), lo)
    assert np.array_equal(np.concatenate([a[2] for a in updates]), sizes)
    assert sketch._seq == len(sizes)


def test_multi_stage_chunks_traverse_stages_in_dataflow_order():
    """Per chunk: hash, replace, delta emission, then the stats fold."""
    sketch = NumpyHardwareCocoSketch(d=2, l=64, seed=1)
    hi, lo, sizes = columns(sketch.pipeline_chunk + 10)
    log = []
    record_steps(sketch, log)
    sketch.update_batch((hi, lo), sizes)
    order = ["_hash_block", "_update_chunk", "_emit_chunk_delta", "_fold_delta"]
    assert [name for name, _ in log] == order * 2


def test_pipeline_metrics_under_collection():
    """Every entry point counts chunks, times replace and stats per chunk
    and hash per block."""
    hi, lo, sizes = trace_columns(6_000, 800, seed=2)
    for cls, tag in ((NumpyCocoSketch, "basic"), (NumpyHardwareCocoSketch, "hw")):
        sketch = cls(d=2, l=64, seed=1, kernels="numpy")
        chunk = sketch.pipeline_chunk
        with obs.collecting() as reg:
            sketch.process_columns(hi, lo, sizes)
            sketch.update_batch((hi, lo), sizes)
            for start in range(0, len(sizes), 1000):
                stop = start + 1000
                sketch.update_batch((hi[start:stop], lo[start:stop]), sizes[start:stop])
        snap = reg.snapshot()
        n = len(sizes)
        chunks = 2 * n_chunks(n, n, chunk) + n_chunks(n, 1000, chunk)
        assert snap["counters"][f"pipeline.numpy.{tag}.chunks"] == chunks
        for stage in ("replace", "stats"):
            assert snap["spans"][f"pipeline.stage.{stage}"]["count"] == chunks
        # One hash span per block of at most MAX_PIPELINE_CHUNK packets.
        blocks = 2 * n_chunks(n, n, MAX_PIPELINE_CHUNK) + n_chunks(
            n, 1000, MAX_PIPELINE_CHUNK
        )
        assert snap["spans"]["pipeline.stage.hash"]["count"] == blocks
        assert snap["counters"][f"engine.numpy.{tag}.batches"] == chunks


def test_pipeline_reports_kernel_gauge():
    hi, lo, sizes = columns(8)
    for backend in ("numpy", "python") + (("c",) if c_available() else ()):
        sketch = NumpyCocoSketch(d=2, l=64, seed=1, kernels=backend)
        with obs.collecting() as reg:
            sketch.process_columns(hi, lo, sizes)
        snap = reg.snapshot()
        assert snap["gauges"][KERNEL_GAUGE] == KERNEL_BACKEND_CODES[backend]
        assert snap["gauges"][CHUNK_GAUGE] == sketch.pipeline_chunk


@pytest.mark.parametrize("cls", VARIANTS, ids=lambda c: c.__name__)
def test_engine_freed_when_last_reference_drops(cls):
    """No reference cycle keeps a processed engine (and its arrays) alive."""
    hi, lo, sizes = trace_columns(3_000, 500, seed=6)
    sketch = cls(d=2, l=64, seed=1)
    sketch.process(zip(lo.tolist(), sizes.tolist()))
    sketch.process_columns(hi, lo, sizes)
    sketch.update_batch((hi, lo), sizes)
    ref = weakref.ref(sketch)
    gc.disable()
    try:
        del sketch
        assert ref() is None
    finally:
        gc.enable()


# -- entry points agree -------------------------------------------------


def sliced_states(cls, hi, lo, sizes, step, **kw):
    """The same stream in *step*-packet slices through process_columns
    and update_batch."""
    via_columns = cls(**kw)
    via_batches = cls(**kw)
    for start in range(0, len(sizes), step):
        stop = start + step
        via_columns.process_columns(hi[start:stop], lo[start:stop], sizes[start:stop])
        via_batches.update_batch((hi[start:stop], lo[start:stop]), sizes[start:stop])
    return via_columns, via_batches


@pytest.mark.parametrize("cls", VARIANTS, ids=lambda c: c.__name__)
@pytest.mark.parametrize("backend", KERNEL_BACKENDS)
def test_entry_points_match(cls, backend):
    """process == process_columns == update_batch, state and stats.

    All three feed the same chunk loop, so on the same slices they run
    the same kernel chunks, draw the same RNG stream and end in
    byte-identical state.  Slices in ``pipeline_chunk`` multiples, and
    ``process`` (which feeds hash-block multiples), also match one
    unsliced ``update_batch`` (the chunk boundaries coincide).
    """
    packets = 12_000 if backend == "python" else 40_000
    trace = zipf_trace(packets, packets // 8, alpha=1.1, seed=3)
    hi, lo, sizes = next(trace.batches(len(trace)))
    kw = dict(d=2, l=64, seed=9, kernels=backend)
    whole = cls(**kw)
    whole.update_batch((hi, lo), sizes)
    via_process = cls(**kw)
    via_process.process(trace)
    assert_identical(whole, via_process)
    chunk = whole.pipeline_chunk
    for step in (chunk, 3 * chunk, 1000):
        via_columns, via_batches = sliced_states(cls, hi, lo, sizes, step, **kw)
        assert_identical(via_columns, via_batches)
        if step % chunk == 0:
            assert_identical(whole, via_columns)


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
    hi, lo, sizes = trace_columns(64, 16, seed=4)
    for l in (188, 1505):
        sketch = cls(8, l, kernels=kernels)
        assert sketch.pipeline_chunk == MAX_PIPELINE_CHUNK
        sketch.process_columns(hi, lo, sizes)
        assert sketch._scratch.J.shape == (8, MAX_PIPELINE_CHUNK)


def test_basic_chunk_is_fixed_at_construction():
    """Each width gets its chunk once and its scratch on the first chunk;
    runs never change either."""
    hi, lo, sizes = trace_columns(6_000, 1_500, seed=4)
    for l, chunk in ((188, 512), (1505, 4096)):
        sketch = NumpyCocoSketch(8, l, seed=2, kernels="numpy")
        assert sketch.pipeline_chunk == chunk
        assert sketch._scratch is None  # never-fed sketches hold no scratch
        with obs.collecting() as reg:
            sketch.process_columns(hi, lo, sizes)
            scratch = sketch._scratch
            # Hash rows cover a block, kernel arrays one chunk.
            assert scratch.J.shape == (8, MAX_PIPELINE_CHUNK)
            assert scratch.pos.shape == (chunk,)
            sketch.update_batch((hi, lo), sizes)
        assert sketch._scratch is scratch
        snap = reg.snapshot()
        assert snap["gauges"][CHUNK_GAUGE] == chunk
        assert snap["counters"]["pipeline.numpy.basic.chunks"] == 2 * n_chunks(
            len(sizes), len(sizes), chunk
        )
        sketch.reset()
        assert sketch.pipeline_chunk == chunk


@pytest.mark.parametrize("cls", VARIANTS, ids=lambda c: c.__name__)
def test_staged_matches_monolithic_split_feeds(cls):
    """Streaming in pipeline_chunk multiples matches one big batch.

    This is the boundary contract the sharded driver relies on: its
    stream blocks are pipeline_chunk multiples, so each worker's chunk
    loop replays the unsharded chunk schedule exactly.
    """
    hi, lo, sizes = trace_columns(40_000, 5_000, seed=5)
    mono = cls(d=2, l=64, seed=9, kernels="numpy")
    staged = cls(d=2, l=64, seed=9, kernels="numpy")
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
    one-batch run bit for bit.  (The basic rule's epoch grouping is
    chunk-shaped by design, so it only guarantees identity at chunk
    multiples — the test above.)
    """
    hi, lo, sizes = trace_columns(20_000, 3_000, seed=7)
    mono = NumpyHardwareCocoSketch(d=2, l=64, seed=9, replay=True, kernels="numpy")
    staged = NumpyHardwareCocoSketch(d=2, l=64, seed=9, replay=True, kernels="numpy")
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
    with obs.collecting() as reg:
        sketch.process_columns(empty, empty, np.empty(0, dtype=np.int64))
        sketch.update_batch((empty, empty), np.empty(0, dtype=np.int64))
    assert sketch.stats.packets == 0
    assert sketch._seq == 0
    assert not sketch._occupied.any()
    snap = reg.snapshot()  # no kernel chunk ran: nothing counted or timed
    assert not snap["counters"] and not snap["spans"]


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
    # same state twice — the chunk loop is deterministic end to end.
    one = cls(d=2, l=32, seed=2)
    two = cls(d=2, l=32, seed=2)
    one.process_columns(hi, lo, sizes)
    two.process_columns(hi, lo, sizes)
    assert_identical(one, two)


# -- every default feed is update_batch over the same blocks --------------

#: A default-width table, the governor's 1/8-width start (kernel chunk
#: 512) and the wide serving table.
FEED_GEOMETRIES = [(2, 4096), (8, 188), (2, 65536)]


@pytest.fixture(scope="module")
def feed_trace():
    return caida_like(100_000, 20_000, seed=3)


@pytest.mark.parametrize("d, l", FEED_GEOMETRIES)
@pytest.mark.parametrize("cls", VARIANTS, ids=lambda c: c.__name__)
def test_default_feeds_match_update_batch(cls, d, l, feed_trace):
    """process(trace), process(iter(trace)) and process_columns, each at
    its default, end in the state and stats of one update_batch."""
    hi, lo, sizes = next(feed_trace.batches(len(feed_trace)))
    reference = cls(d, l, seed=9)
    reference.update_batch((hi, lo), sizes)
    feeds = {
        "process(trace)": lambda sk: sk.process(feed_trace),
        "process(iter(trace))": lambda sk: sk.process(iter(feed_trace)),
        "process_columns": lambda sk: sk.process_columns(hi, lo, sizes),
    }
    for name, feed in feeds.items():
        sketch = cls(d, l, seed=9)
        feed(sketch)
        assert sketch.stats.packets == len(sizes), name
        assert_identical(reference, sketch)


@pytest.mark.parametrize("processes", [False, True], ids=["inline", "processes"])
@pytest.mark.parametrize("strategy", PARTITION_STRATEGIES)
@pytest.mark.parametrize("shards", [1, 2, 4])
def test_sharded_feed_matches_partitioned_update_batch(
    shards, strategy, processes, feed_trace
):
    """Each shard ends as its engine fed update_batch with the shard's
    part of every scatter block, partitioned as the driver does."""
    spec = SketchSpec("numpy", "basic", d=8, l=188, seed=9)
    sharded = ShardedSketch(spec, shards, strategy=strategy, processes=processes)
    sharded.process(feed_trace)
    reference = [build_shard_sketch(spec, shard) for shard in range(shards)]
    offset = 0
    for hi, lo, sizes in feed_trace.batches(STREAM_BATCH):
        parts = partition_columns(
            hi, lo, sizes, shards, strategy, spec.seed, offset=offset
        )
        offset += len(sizes)
        for sketch, (shi, slo, ssz) in zip(reference, parts):
            if len(ssz):
                sketch.update_batch((shi, slo), ssz)
    assert len(sharded.sketches) == shards
    for ref, got in zip(reference, sharded.sketches):
        # Worker state crosses the process boundary without its stats.
        (assert_same_state if processes else assert_identical)(ref, got)


@pytest.mark.parametrize("chunk", [16384, 4096])
def test_epoch_feed_matches_reblocked_update_batch(chunk, feed_trace):
    """A daemon epoch is its shards fed update_batch with each
    chunk-sized block of the epoch's packets, partitioned at the
    epoch-local offset, whatever the arrival framing."""
    spec = SketchSpec("numpy", "basic", d=8, l=188, seed=9)
    epoch_packets = 40_000
    config = ServiceConfig(
        spec, feed_trace.spec, shards=2, chunk=chunk, epoch_packets=epoch_packets
    )
    snapshots = offline_epoch_run(config, feed_trace.batches(10_000))
    hi, lo, sizes = next(feed_trace.batches(len(feed_trace)))
    starts = range(0, len(sizes), epoch_packets)
    assert [snap.epoch for snap in snapshots] == list(range(len(starts)))
    for snap, first in zip(snapshots, starts):
        shards = [build_shard_sketch(spec, s, snap.epoch) for s in range(2)]
        end = min(first + epoch_packets, len(sizes))
        for start in range(first, end, chunk):
            stop = min(start + chunk, end)
            parts = partition_columns(
                hi[start:stop], lo[start:stop], sizes[start:stop], 2,
                config.strategy, spec.seed, offset=start - first,
            )
            for sketch, (shi, slo, ssz) in zip(shards, parts):
                if len(ssz):
                    sketch.update_batch((shi, slo), ssz)
        table = sum_rows(shards, config.key_spec)
        assert snap.packets == end - first
        assert np.array_equal(snap.table.words, table.words)
        assert np.array_equal(snap.table.values, table.values)
