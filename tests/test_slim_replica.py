"""Fat/slim read-plane suite: differential, property-based, statistical.

What the fat/slim split (docs/service.md) must guarantee, and how this
file gates each piece:

* **Delta fidelity** — the bucket deltas the columnar engines emit from
  the replace stage, replayed in order, reproduce the fat arrays bit
  for bit; scalar full-table deltas match ``flow_table()`` exactly.
* **Replica == fat, always** — after *every* drain, on every backend
  (scalar / numpy basic / numpy hardware / sharded hash / sharded
  round-robin), the slim planner's answers equal querying the fat
  shards frozen at the drained prefix
  (:func:`repro.engine.sharded.shard_table_columns` is the reference) —
  exact array equality, not approximate.
* **Interleaving-proof** — hypothesis drives random ingest/read/rotate
  schedules; equality, version monotonicity and exact staleness hold
  under all of them.
* **Staleness honesty** — reported packets-behind counts buffered
  sub-chunk arrivals, so it is never an undercount.
* **Lemma 3 on served answers** — replica answers (including a slim
  live view plus a summed epoch range) stay unbiased, gated
  through the shared harness so ``REPRO_STAT_*`` margins apply.
* **Concurrency** — threaded readers mid-ingestion see monotone
  versions and masses matching a consistent drained prefix (the
  ``slim_soak``-marked soak, enabled via ``REPRO_SOAK=1``).
"""

import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.control.governor import GovernorConfig
from repro.engine.sharded import SketchSpec, shard_table_columns
from repro.flowkeys.key import FIVE_TUPLE
from repro.obs.schema import validate_snapshot
from repro.query import ColumnTable, QueryPlanner
from repro.query.slim import SlimReplica, TableDelta
from repro.service import MeasurementDaemon, ServiceConfig, ServiceError
from repro.sketches.base import COUNTER_BYTES, DEFAULT_KEY_BYTES
from repro.traffic.synthetic import zipf_trace

from tests.stat_harness import (
    assert_partial_key_unbiased_planners,
    random_partial_specs,
)

CHUNK = 2048
FULL = FIVE_TUPLE.partial("SrcIP", "DstIP", "SrcPort", "DstPort", "Proto")
SRC = FIVE_TUPLE.partial("SrcIP")
MIXED = FIVE_TUPLE.partial("SrcIP", ("DstPort", 8))


def make_trace(packets=9_000, flows=2_000, seed=7):
    return zipf_trace(packets, flows, alpha=1.1, seed=seed)


def make_config(engine="numpy", variant="basic", shards=1, strategy="hash",
                seed=3, l=512, chunk=CHUNK, **kw):
    spec = SketchSpec(engine=engine, variant=variant, d=2, l=l, seed=seed)
    return ServiceConfig(
        spec=spec,
        key_spec=FIVE_TUPLE,
        shards=shards,
        strategy=strategy,
        chunk=chunk,
        **kw,
    )


def columns(trace):
    return next(iter(trace.batches(len(trace))))


def assert_tables_equal(got, ref, context=""):
    """Bit-exact grouped-table equality (keys AND values)."""
    assert np.array_equal(got.words, ref.words), f"keys differ {context}"
    assert np.array_equal(got.values, ref.values), f"values differ {context}"


BACKENDS = [
    pytest.param("scalar", "basic", 1, "hash", id="scalar"),
    pytest.param("numpy", "basic", 1, "hash", id="numpy-basic"),
    pytest.param("numpy", "hardware", 1, "hash", id="numpy-hw"),
    pytest.param("numpy", "basic", 3, "hash", id="sharded-hash"),
    pytest.param("numpy", "basic", 2, "round-robin", id="sharded-rr"),
]


# ----------------------------------------------------------------------
# delta emission units


class _Recorder:
    """Sink capturing every emission for replay/inspection."""

    def __init__(self):
        self.buckets = []
        self.tables = []

    def push_buckets(self, packets, idx, hi, lo, occupied, vals):
        self.buckets.append((packets, idx, hi, lo, occupied, vals))

    def push_table(self, packets, table):
        self.tables.append(TableDelta(packets, table))


class TestDeltaEmission:
    # (d, l): the original case, the wide serving geometry, a d=2
    # narrow one and the governor's d=8 start.
    GEOMETRIES = [(3, 256), (2, 65_536), (2, 188), (8, 188)]

    @pytest.mark.parametrize("variant", ["basic", "hardware"])
    def test_bucket_deltas_replay_to_fat_state(self, variant):
        hi, lo, sizes = columns(make_trace(7_000, 1_500, seed=11))
        for d, l in self.GEOMETRIES:
            spec = SketchSpec(engine="numpy", variant=variant, d=d, l=l, seed=5)
            fat = spec.build()
            mirror = spec.build()  # zeroed — the initial fat state
            recorder = _Recorder()
            fat.attach_delta_sink(recorder)
            # The emitted idx must equal np.unique over the chunk's
            # candidate buckets (the sorted-unique reference).
            expected = []
            emit = fat._emit_chunk_delta

            def capture(J, n, emit=emit, fat=fat, expected=expected):
                expected.append(np.unique(J[:, :n] + fat._row_offsets))
                emit(J, n)

            fat._emit_chunk_delta = capture
            for start in range(0, 7_000, 1_700):  # uneven blocks on purpose
                stop = min(start + 1_700, 7_000)
                fat.update_batch(
                    (hi[start:stop], lo[start:stop]), sizes[start:stop]
                )
            assert fat.detach_delta_sink() is recorder
            assert fat._delta_sink is None

            geometry = f"d={d} l={l}"
            assert len(expected) == len(recorder.buckets), geometry
            total = 0
            for ref, (packets, idx, dhi, dlo, docc, dvals) in zip(
                expected, recorder.buckets
            ):
                total += packets
                assert idx.dtype == ref.dtype and np.array_equal(idx, ref), geometry
                assert len(idx) <= spec.d * fat.pipeline_chunk
                assert idx.min() >= 0 and idx.max() < spec.d * spec.l
                mirror._key_hi_flat[idx] = dhi
                mirror._key_lo_flat[idx] = dlo
                mirror._occupied_flat[idx] = docc
                mirror._vals_flat[idx] = dvals
            assert total == 7_000
            assert np.array_equal(mirror._key_hi, fat._key_hi), geometry
            assert np.array_equal(mirror._key_lo, fat._key_lo), geometry
            assert np.array_equal(mirror._occupied, fat._occupied), geometry
            assert np.array_equal(mirror._vals, fat._vals), geometry

    def test_scalar_table_deltas_match_flow_table(self):
        spec = SketchSpec(engine="scalar", d=2, l=256, seed=5)
        sketch = spec.build()
        recorder = _Recorder()
        sketch.attach_delta_sink(recorder)
        hi, lo, sizes = columns(make_trace(3_000, 800, seed=13))
        sketch.process_columns(hi[:2_000], lo[:2_000], sizes[:2_000])
        sketch.process_columns(hi[2_000:], lo[2_000:], sizes[2_000:])
        assert not recorder.buckets
        assert [d.packets for d in recorder.tables] == [2_000, 1_000]
        assert recorder.tables[-1].table == sketch.flow_table()
        # Each dump is a snapshot, not an alias of live state.
        assert recorder.tables[0].table != recorder.tables[1].table

    def test_no_sink_means_no_emission_cost_or_error(self):
        spec = SketchSpec(engine="numpy", d=2, l=128, seed=5)
        sketch = spec.build()
        hi, lo, sizes = columns(make_trace(2_000, 500, seed=3))
        sketch.update_batch((hi, lo), sizes)  # no sink attached: no-op path
        assert sketch.detach_delta_sink() is None


# ----------------------------------------------------------------------
# replica-vs-fat differential


class TestSlimDifferential:
    @pytest.mark.parametrize("engine,variant,shards,strategy", BACKENDS)
    def test_replica_equals_fat_after_every_drain(
        self, engine, variant, shards, strategy
    ):
        trace = make_trace()
        hi, lo, sizes = columns(trace)
        daemon = MeasurementDaemon(
            make_config(engine, variant, shards, strategy)
        )
        reads = 0
        for start in range(0, len(trace), 1_333):  # deliberately unaligned
            stop = min(start + 1_333, len(trace))
            daemon.ingest(hi[start:stop], lo[start:stop], sizes[start:stop])
            version, planner = daemon.live_planner()
            assert planner.version == version
            fat = daemon._builder.live_sketches()
            ref = shard_table_columns(fat, FIVE_TUPLE)
            assert_tables_equal(
                planner.table(FULL), ref, f"@{stop} [{engine}/{variant}]"
            )
            for partial in (SRC, MIXED):
                assert planner.sizes(partial) == ref.aggregate(partial).to_dict()
            assert planner.table(FULL).top_k(5) == ref.top_k(5)
            reads += 1
        assert reads > 0
        daemon.close()

    def test_slim_total_is_exactly_the_flushed_prefix(self):
        daemon = MeasurementDaemon(make_config(shards=2))
        trace = make_trace(3 * CHUNK + 300)
        hi, lo, sizes = columns(trace)
        daemon.ingest(hi, lo, sizes)
        (epoch, drained), planner = daemon.live_planner()
        assert (epoch, drained) == (0, 3 * CHUNK)  # 300-packet tail buffered
        assert planner.table(SRC).total == float(sizes[: 3 * CHUNK].sum())
        daemon.close()


# ----------------------------------------------------------------------
# staleness and versioning


class TestStalenessAndVersions:
    def test_packets_behind_counts_buffered_tail_exactly(self):
        daemon = MeasurementDaemon(make_config())
        trace = make_trace(2 * CHUNK + 500)
        hi, lo, sizes = columns(trace)
        daemon.ingest(hi, lo, sizes)
        version, _ = daemon.live_planner()
        assert version == (0, 2 * CHUNK)
        # The 500 buffered packets are invisible to the view but MUST be
        # counted: staleness is an upper bound, never an undercount.
        assert daemon.packets_behind(*version) == 500
        daemon.close()

    def test_stale_version_reports_all_newer_packets(self):
        daemon = MeasurementDaemon(
            make_config(live_refresh_packets=1_000_000)
        )
        trace = make_trace(4 * CHUNK)
        hi, lo, sizes = columns(trace)
        daemon.ingest(hi[:CHUNK], lo[:CHUNK], sizes[:CHUNK])
        version_a, _ = daemon.live_planner()
        daemon.ingest(hi[CHUNK:], lo[CHUNK:], sizes[CHUNK:])
        version_b, _ = daemon.live_planner()
        assert version_b == version_a  # refresh budget: served stale
        assert daemon.packets_behind(*version_b) == 3 * CHUNK
        daemon.close()

    def test_versions_monotone_across_rotation_and_bootstrap(self):
        daemon = MeasurementDaemon(make_config())
        trace = make_trace(6 * CHUNK)
        hi, lo, sizes = columns(trace)
        seen = []
        for start in range(0, 6 * CHUNK, CHUNK):
            daemon.ingest(
                hi[start:start + CHUNK],
                lo[start:start + CHUNK],
                sizes[start:start + CHUNK],
            )
            seen.append(daemon.live_planner()[0])
            if start == 2 * CHUNK:
                daemon.rotate()
                seen.append(daemon.live_planner()[0])
        assert seen == sorted(seen)
        assert seen[0][0] == 0 and seen[-1][0] == 1  # crossed the rotation
        replica = daemon._replica
        assert replica.epoch == 1
        # A straggler delta tagged with the rotated-out epoch is ignored.
        before = replica.accepted
        replica.push(0, 0, TableDelta(99, {1: 1.0}))
        assert replica.accepted == before
        daemon.close()

    def test_frozen_epoch_staleness_grows_with_ingestion(self):
        daemon = MeasurementDaemon(make_config(epoch_packets=2_000))
        trace = make_trace(6_000)
        hi, lo, sizes = columns(trace)
        daemon.ingest(hi, lo, sizes)
        # Epoch 0 froze at packet 2000; everything after it counts.
        assert daemon.packets_behind(0, 2_000) == 4_000
        assert daemon.packets_behind(1, 2_000) == 2_000
        # An evicted/unknown epoch degrades to the maximal overcount.
        assert daemon.packets_behind(77, 0) == 6_000
        daemon.close()


# ----------------------------------------------------------------------
# bounded pending queue


class TestBoundedPending:
    def test_compaction_bounds_pending_rows(self):
        daemon = MeasurementDaemon(make_config(l=128, chunk=512))
        # ~200 delta rows per 512-packet chunk: enough chunks to pass
        # the 8·d·l bound more than once.
        trace = make_trace(12_000, 1_200)
        hi, lo, sizes = columns(trace)
        daemon.ingest(hi[:512], lo[:512], sizes[:512])
        daemon.live_planner()  # bootstrap + attach sinks
        replica = daemon._replica
        bound = 8 * 2 * 128  # 8·d·l
        assert replica.max_pending_rows == bound
        for start in range(512, 12_000, 512):
            daemon.ingest(
                hi[start:start + 512], lo[start:start + 512],
                sizes[start:start + 512],
            )
            assert replica._pending_rows <= bound
        # Compaction drained in-line without a read being issued.
        snap = replica.metrics_snapshot()
        assert snap["counters"]["slim.sync.compactions"] > 0
        assert replica.drained > 512
        # And the replica still answers exactly.
        _, planner = daemon.live_planner()
        ref = shard_table_columns(daemon._builder.live_sketches(), FIVE_TUPLE)
        assert_tables_equal(planner.table(FULL), ref)
        daemon.close()

    def test_unbootstrapped_read_is_an_error(self):
        replica = SlimReplica(
            SketchSpec(engine="numpy", d=2, l=64, seed=1), FIVE_TUPLE, shards=1
        )
        assert not replica.bootstrapped
        with pytest.raises(RuntimeError):
            replica.read()


# ----------------------------------------------------------------------
# mirror reuse across bootstraps


def _mirror_arrays(replica):
    return [
        getattr(mirror._sketch, name)
        for mirror in replica._mirrors
        for name in ("_key_hi", "_key_lo", "_occupied", "_vals")
    ]


def _shares_any(arrays, others):
    return any(np.shares_memory(a, b) for a in arrays for b in others)


def _feed(daemon, cols, start, stop):
    hi, lo, sizes = cols
    daemon.ingest(hi[start:stop], lo[start:stop], sizes[start:stop])


def _assert_live_equals_fat(daemon):
    _, planner = daemon.live_planner()
    ref = shard_table_columns(daemon._builder.live_sketches(), FIVE_TUPLE)
    assert_tables_equal(planner.table(FULL), ref)
    assert planner.sizes(MIXED) == ref.aggregate(MIXED).to_dict()


class TestMirrorReuse:
    """Bootstraps copy into the mirrors the previous one left.

    Only a spec change (a governor or ``set_geometry`` resize) or
    ``invalidate()`` builds new mirrors; every read still equals the
    fat shards, and served planners never alias mirror state.
    """

    @pytest.mark.parametrize("variant", ["basic", "hardware"])
    def test_consecutive_epochs_reuse_the_mirror_arrays(self, variant):
        daemon = MeasurementDaemon(make_config(variant=variant, shards=2))
        cols = columns(make_trace(8 * CHUNK))
        replica = daemon._replica
        previous = None
        for epoch in range(4):
            _feed(daemon, cols, 2 * epoch * CHUNK, (2 * epoch + 1) * CHUNK)
            _assert_live_equals_fat(daemon)
            _feed(daemon, cols, (2 * epoch + 1) * CHUNK, (2 * epoch + 2) * CHUNK)
            _assert_live_equals_fat(daemon)
            assert replica.epoch == epoch
            arrays = _mirror_arrays(replica)
            assert len(arrays) == 2 * 4
            if previous is not None:
                assert all(
                    np.shares_memory(a, b) for a, b in zip(arrays, previous)
                )
            previous = arrays
            daemon.rotate()
        counters = replica.metrics_snapshot()["counters"]
        assert counters["slim.bootstraps"] == 4
        daemon.close()

    def test_invalidate_rebuilds_the_mirrors(self):
        daemon = MeasurementDaemon(make_config(shards=2, l=256))
        cols = columns(make_trace(4 * CHUNK))
        _feed(daemon, cols, 0, 2 * CHUNK)
        _assert_live_equals_fat(daemon)
        replica = daemon._replica
        before = _mirror_arrays(replica)
        daemon.rotate()
        # An empty epoch with a staged geometry swaps its builder in
        # place and invalidates the replica.
        daemon.set_geometry(512)
        assert daemon.rotate() is None
        assert not replica.bootstrapped
        _feed(daemon, cols, 2 * CHUNK, 4 * CHUNK)
        _assert_live_equals_fat(daemon)
        after = _mirror_arrays(replica)
        assert all(a.shape == (2, 512) for a in after)
        assert not _shares_any(after, before)
        # invalidate() alone (same spec) also builds new mirrors.
        replica.invalidate()
        _assert_live_equals_fat(daemon)
        rebuilt = _mirror_arrays(replica)
        assert all(a.shape == (2, 512) for a in rebuilt)
        assert not _shares_any(rebuilt, after)
        daemon.close()

    def test_governor_resize_rebuilds_the_mirrors(self):
        config = make_config(
            shards=2,
            l=128,
            governor=GovernorConfig(
                memory_bytes=2 * 2048 * (DEFAULT_KEY_BYTES + COUNTER_BYTES)
            ),
        )
        daemon = MeasurementDaemon(config)
        cols = columns(make_trace(6 * CHUNK, 3_000))
        _feed(daemon, cols, 0, 3 * CHUNK)
        _assert_live_equals_fat(daemon)
        replica = daemon._replica
        before = _mirror_arrays(replica)
        assert all(a.shape == (2, 128) for a in before)
        daemon.rotate()
        new_l = daemon._builder.spec.l
        assert new_l > 128  # the full epoch grew the geometry
        _feed(daemon, cols, 3 * CHUNK, 6 * CHUNK)
        _assert_live_equals_fat(daemon)
        after = _mirror_arrays(replica)
        assert all(a.shape == (2, new_l) for a in after)
        assert not _shares_any(after, before)
        daemon.close()

    @pytest.mark.parametrize("variant", ["basic", "hardware"])
    def test_served_planner_survives_a_rebootstrap(self, variant):
        daemon = MeasurementDaemon(make_config(variant=variant))
        cols = columns(make_trace(4 * CHUNK))
        _feed(daemon, cols, 0, 2 * CHUNK)
        _, planner = daemon.live_planner()
        ref = shard_table_columns(daemon._builder.live_sketches(), FIVE_TUPLE)
        daemon.rotate()
        _feed(daemon, cols, 2 * CHUNK, 4 * CHUNK)
        daemon.live_planner()  # re-bootstraps into the same mirrors
        assert daemon._replica.epoch == 1
        # The first answer is computed only now, after the mirrors were
        # overwritten with epoch 1: it must still be epoch 0's.
        assert_tables_equal(planner.table(FULL), ref)
        assert planner.sizes(SRC) == ref.aggregate(SRC).to_dict()
        daemon.close()


# ----------------------------------------------------------------------
# property-based interleavings

_HYP_TRACE = zipf_trace(6_000, 1_200, alpha=1.1, seed=21)
_HYP_COLS = columns(_HYP_TRACE)


class TestInterleavings:
    @settings(max_examples=20, deadline=None)
    @given(
        ops=st.lists(
            st.tuples(
                st.sampled_from(["ingest", "read", "rotate"]),
                st.integers(min_value=0, max_value=3),
            ),
            min_size=1,
            max_size=12,
        )
    )
    def test_any_ingest_read_rotate_schedule_stays_exact(self, ops):
        hi, lo, sizes = _HYP_COLS
        daemon = MeasurementDaemon(
            make_config(shards=2, l=128, chunk=512)
        )
        offset = 0
        last_version = (-1, -1)
        try:
            for op, amount in ops:
                if op == "ingest":
                    take = min(257 * amount + 97, len(_HYP_TRACE) - offset)
                    if take <= 0:
                        continue
                    daemon.ingest(
                        hi[offset:offset + take],
                        lo[offset:offset + take],
                        sizes[offset:offset + take],
                    )
                    offset += take
                elif op == "rotate":
                    daemon.rotate()  # no-op when the epoch is empty
                else:
                    version, planner = daemon.live_planner()
                    assert version >= last_version, (version, last_version)
                    last_version = version
                    builder = daemon._builder
                    ref = shard_table_columns(
                        builder.live_sketches(), FIVE_TUPLE
                    )
                    assert_tables_equal(planner.table(FULL), ref, f"{ops}")
                    assert version == (builder.epoch, builder.flushed)
                    assert (
                        daemon.packets_behind(*version)
                        == builder.packets - builder.flushed
                    )
        finally:
            daemon.close()


# ----------------------------------------------------------------------
# Lemma 3 unbiasedness on served answers


class TestSlimUnbiasedness:
    TRIALS = 24

    @pytest.mark.parametrize(
        "spec", random_partial_specs(2, seed=31), ids=lambda s: s.name
    )
    def test_slim_live_answers_unbiased(self, spec):
        trace = make_trace(6 * CHUNK, 2_500, seed=17)

        def make_planner(seed):
            daemon = MeasurementDaemon(make_config(seed=seed, l=256, shards=2))
            hi, lo, sizes = columns(trace)
            daemon.ingest(hi, lo, sizes)  # 6 exact chunks: all flushed
            _, planner = daemon.live_planner()
            daemon.close()
            return planner

        assert_partial_key_unbiased_planners(
            make_planner,
            trace,
            spec,
            trials=self.TRIALS,
            base_seed=40,
            label="slim live answer",
        )

    def test_slim_live_plus_merged_range_unbiased(self):
        trace = make_trace(6 * CHUNK, 2_500, seed=19)
        spec = random_partial_specs(1, seed=33)[0]

        class _SumPlanner:
            """Sums a slim live view with a summed epoch range —
            per-flow estimates add across disjoint packet prefixes, so
            Lemma 3 carries to the combined answer."""

            def __init__(self, planners):
                self._planners = planners

            def table(self, partial):
                tables = [p.table(partial) for p in self._planners]
                return ColumnTable.concat_many(tables, partial).group()

        def make_planner(seed):
            # epoch_packets = 2.5 chunks: epochs 0/1 close mid-chunk and
            # the live tail is exactly one chunk, so the combined view
            # covers the whole trace with nothing buffered.
            daemon = MeasurementDaemon(
                make_config(seed=seed, l=256, shards=2,
                            epoch_packets=5 * CHUNK // 2)
            )
            hi, lo, sizes = columns(trace)
            daemon.ingest(hi, lo, sizes)
            _, live = daemon.live_planner()
            merged = daemon.range_planner(0, 1)
            daemon.close()
            return _SumPlanner([live, merged])

        assert_partial_key_unbiased_planners(
            make_planner,
            trace,
            spec,
            trials=self.TRIALS,
            base_seed=60,
            label="slim live + merged range",
        )


# ----------------------------------------------------------------------
# observability


class TestSlimMetrics:
    def test_slim_instruments_land_in_the_daemon_snapshot(self):
        daemon = MeasurementDaemon(make_config(shards=2))
        trace = make_trace(4 * CHUNK)
        hi, lo, sizes = columns(trace)
        daemon.ingest(hi[: 2 * CHUNK], lo[: 2 * CHUNK], sizes[: 2 * CHUNK])
        daemon.live_planner()
        daemon.live_planner()  # cache hit
        daemon.ingest(hi[2 * CHUNK:], lo[2 * CHUNK:], sizes[2 * CHUNK:])
        daemon.live_planner()  # drains the two new chunks
        snap = daemon.metrics_snapshot()
        validate_snapshot(snap)
        counters = snap["counters"]
        assert counters["slim.bootstraps"] == 1
        assert counters["slim.reads"] == 3
        assert counters["slim.cache.hits"] == 1
        assert counters["slim.rebuilds"] == 2
        assert counters["slim.sync.deltas"] > 0
        assert snap["histograms"]["slim.sync.rows"]["count"] > 0
        assert "slim.sync.lag" in snap["gauges"]
        assert "slim.read.build" in snap["spans"]
        # Ingest-side instruments survive the merge untouched.
        assert counters["service.ingest.packets"] == 4 * CHUNK
        daemon.close()


# ----------------------------------------------------------------------
# concurrency soak (REPRO_SOAK=1)


@pytest.mark.slim_soak
class TestSlimConcurrencySoak:
    READERS = 3
    LOOPS = 2

    def test_threaded_readers_see_monotone_consistent_prefixes(self):
        trace = make_trace(20_000, 3_000, seed=23)
        hi, lo, sizes = columns(trace)
        tiled = np.tile(sizes, self.LOOPS)
        prefix_mass = np.concatenate(
            [[0.0], np.cumsum(tiled, dtype=np.float64)]
        )
        daemon = MeasurementDaemon(make_config(shards=2, l=1_024))
        daemon.start()
        feeding = threading.Event()
        feeding.set()
        errors = []

        def feeder():
            try:
                for _ in range(self.LOOPS):
                    for start in range(0, len(trace), 1_024):
                        stop = min(start + 1_024, len(trace))
                        daemon.offer(hi[start:stop], lo[start:stop],
                                     sizes[start:stop])
                        time.sleep(0.0005)
            finally:
                feeding.clear()

        def reader(idx):
            last = (-1, -1)
            served = 0
            try:
                while feeding.is_set() or served < 10:
                    version, planner = daemon.live_planner()
                    # Torn-read guard: versions only move forward.
                    assert version >= last, (version, last)
                    last = version
                    # Consistent drained prefix: the served mass is the
                    # exact total of the first `drained` packets — a
                    # half-applied delta batch could not produce it.
                    epoch, drained = version
                    assert epoch == 0  # no rotation configured
                    assert (
                        planner.table(SRC).total == prefix_mass[drained]
                    ), (version, planner.table(SRC).total)
                    served += 1
                return served
            except Exception as exc:  # pragma: no cover - failure detail
                errors.append((idx, exc))
                raise

        feed = threading.Thread(target=feeder)
        readers = [
            threading.Thread(target=reader, args=(i,))
            for i in range(self.READERS)
        ]
        feed.start()
        for thread in readers:
            thread.start()
        feed.join(timeout=180)
        for thread in readers:
            thread.join(timeout=180)
        assert not feeding.is_set()
        assert errors == []
        daemon.close()
        # Shutdown drained everything the feeder offered.
        assert daemon.status()["total_packets"] == self.LOOPS * len(trace)
