"""Service-plane suite: epoch rotation correctness + HTTP concurrency.

Three families of guarantees, matching the service's design contract
(``docs/service.md``):

* **Epoch bit-identity** — a daemon's epoch snapshots are a pure
  function of the packet sequence and the config: independent of
  submission framing, of sync-vs-threaded ingestion, and equal to the
  batch-mode replay (:func:`offline_epoch_run`) on scalar, numpy and
  sharded backends, across mid-chunk, exactly-on-boundary and
  empty-trailing-epoch rotations.  The no-rotation degenerate case is
  bit-identical to a monolithic single-pass sketch.
* **Statistical correctness** — partial-key estimates from *merged
  multi-epoch* state stay unbiased (Lemma 3), gated through the shared
  harness so ``REPRO_STAT_*`` margins apply.
* **Concurrency/soak** — threaded clients hammer ``/query``/``/topk``
  against live and frozen epochs during active ingestion: no 5xx, no
  torn reads (every response's epoch descriptor is internally
  consistent), p95 latency recoverable from the ``/metrics`` histogram,
  and shutdown drains every in-flight block.
"""

import dataclasses
import gc
import http.client
import json
import random
import statistics
import sys
import threading
import time
import urllib.error
import urllib.parse
import urllib.request
import weakref

import numpy as np
import pytest

from repro.control import GovernorConfig
from repro.core.serialize import dump_epoch, dump_sketch
from repro.engine.kernels import BACKEND_ENV
from repro.engine.sharded import SketchSpec
from repro.extensions.windowed import WindowedMeasurement, split_budget
from repro.flowkeys.key import FIVE_TUPLE
from repro.obs.registry import histogram_quantile
from repro.query.planner import QueryPlanner
from repro.service import (
    EpochSnapshot,
    EpochStore,
    MeasurementDaemon,
    ServiceConfig,
    ServiceError,
    ServiceServer,
    offline_epoch_run,
)
from repro.sketches.base import COUNTER_BYTES, DEFAULT_KEY_BYTES
from repro.traffic.synthetic import zipf_trace

from tests.stat_harness import (
    assert_partial_key_unbiased_states,
    random_partial_specs,
)

CHUNK = 2048  # small feed granularity keeps the suite fast


def make_trace(packets=12_000, flows=2_500, seed=7):
    return zipf_trace(packets, flows, alpha=1.1, seed=seed)


def make_config(engine="numpy", shards=1, strategy="hash", seed=3,
                epoch_packets=None, l=512, d=2, **kw):
    spec = SketchSpec(engine=engine, variant="basic", d=d, l=l, seed=seed)
    return ServiceConfig(
        spec=spec,
        key_spec=FIVE_TUPLE,
        shards=shards,
        strategy=strategy,
        chunk=CHUNK,
        epoch_packets=epoch_packets,
        **kw,
    )


def run_daemon(config, trace, block, threaded=False):
    """Feed *trace* through a daemon in *block*-sized submissions."""
    daemon = MeasurementDaemon(config)
    if threaded:
        daemon.start()
        for hi, lo, sizes in trace.batches(block):
            daemon.offer(hi, lo, sizes)
    else:
        for hi, lo, sizes in trace.batches(block):
            daemon.ingest(hi, lo, sizes)
    daemon.close()
    return [daemon.store.get(e) for e in daemon.store.ids()]


def wire(snaps):
    """Each snapshot's ``to_bytes()`` with its wall-clock stamp zeroed.

    ``closed_at`` is the only field not determined by the packets.
    """
    return [dataclasses.replace(s, closed_at=0.0).to_bytes() for s in snaps]


#: d=8 at a narrow width under a governor that grows it to 512 after
#: the first epoch: the basic engine's kernel chunk follows the width
#: (512 -> 1024), so this backend exercises a chunk change at rotation.
NARROW_D8 = dict(
    d=8,
    l=256,
    governor=GovernorConfig(
        memory_bytes=8 * 512 * (DEFAULT_KEY_BYTES + COUNTER_BYTES),
        grow_occupancy=0.25,
        shrink_occupancy=0.05,
    ),
)

BACKENDS = [
    pytest.param("scalar", 1, "hash", {}, id="scalar"),
    pytest.param("numpy", 1, "hash", {}, id="numpy"),
    pytest.param("numpy", 3, "hash", {}, id="sharded-hash"),
    pytest.param("numpy", 2, "round-robin", {}, id="sharded-rr"),
    pytest.param("numpy", 1, "hash", NARROW_D8, id="numpy-d8-governed"),
]

# (trace packets, epoch_packets, expected per-epoch counts): a boundary
# mid-chunk, exactly on the chunk grid, and a trace ending exactly on a
# rotation boundary (the would-be trailing epoch is empty -> no snapshot).
ROTATIONS = [
    pytest.param(12_000, 5_000, [5_000, 5_000, 2_000], id="mid-chunk"),
    pytest.param(12_288, 2 * CHUNK, [4_096, 4_096, 4_096], id="on-boundary"),
    pytest.param(10_000, 2_500, [2_500] * 4, id="empty-trailing"),
]


class TestEpochBitIdentity:
    @pytest.mark.parametrize("engine,shards,strategy,geometry", BACKENDS)
    @pytest.mark.parametrize("packets,epoch_packets,expected", ROTATIONS)
    def test_snapshots_invariant_to_framing_and_threading(
        self, engine, shards, strategy, geometry, packets, epoch_packets,
        expected, monkeypatch,
    ):
        if "governor" in geometry:
            # The chunk follows the width only on the numpy kernels;
            # the compiled kernels would hold 16384 throughout.
            monkeypatch.setenv(BACKEND_ENV, "numpy")
        trace = make_trace(packets)
        def cfg():
            return make_config(
                engine=engine, shards=shards, strategy=strategy,
                epoch_packets=epoch_packets, **geometry,
            )

        reference = offline_epoch_run(cfg(), trace.batches(4_096))
        if "governor" in geometry:
            chunks = [s.sketch.pipeline_chunk for s in reference]
            assert chunks[0] == 512 and chunks[-1] == 1024, chunks
        assert [s.packets for s in reference] == expected
        assert [s.epoch for s in reference] == list(range(len(expected)))
        starts = [s.start_seq for s in reference]
        assert starts == [sum(expected[:i]) for i in range(len(expected))]

        # Different submission framing, synchronous ingestion.
        for block in (123, 1_777, packets):
            snaps = run_daemon(cfg(), trace, block)
            assert wire(snaps) == wire(reference)
            assert [s.packets for s in snaps] == expected

        # Background feeder thread (queue + backpressure) — same bytes.
        threaded = run_daemon(cfg(), trace, 1_024, threaded=True)
        assert wire(threaded) == wire(reference)

    @pytest.mark.parametrize("engine", ["scalar", "numpy"])
    def test_single_epoch_equals_monolithic(self, engine):
        trace = make_trace(9_000)
        config = make_config(engine=engine)  # no rotation bound
        snaps = run_daemon(config, trace, 1_000)
        assert len(snaps) == 1 and snaps[0].packets == 9_000

        mono = config.spec.build()
        hi, lo, sizes = next(iter(trace.batches(9_000)))
        mono.process_columns(hi, lo, sizes, CHUNK)
        snap = snaps[0]
        assert snap.to_bytes() == dump_epoch(
            snap.epoch, snap.start_seq, snap.packets, snap.closed_at,
            dump_sketch(mono),
        )

    def test_epochs_share_hash_family_but_not_rng_streams(self):
        # Same packets fed to epoch 0 and epoch 1 produce different
        # replacement decisions (decorrelated streams) yet mergeable
        # state (one hash family) — the invariant time-travel rests on.
        trace = make_trace(8_000)
        config = make_config(epoch_packets=4_000)
        snaps = run_daemon(config, trace, 4_000)
        assert len(snaps) == 2
        from repro.extensions.merging import merge_cocosketch

        a, b = snaps[0].sketch, snaps[1].sketch
        merged = merge_cocosketch(a, b, seed=9)  # raises if families differ
        total = sum(merged.flow_table().values())
        assert total == pytest.approx(trace.total_size)

    def test_empty_trace_leaves_no_epochs(self):
        daemon = MeasurementDaemon(make_config(epoch_packets=100))
        daemon.close()
        assert daemon.store.ids() == []

    def test_single_packet_epochs(self):
        trace = make_trace(5)
        snaps = run_daemon(make_config(epoch_packets=1), trace, 2)
        assert [s.packets for s in snaps] == [1] * 5
        total = sum(sum(s.sketch.flow_table().values()) for s in snaps)
        assert total == pytest.approx(trace.total_size)


class TestEpochMergeAndStore:
    def test_merged_range_preserves_mass_and_is_deterministic(self):
        trace = make_trace(12_000)
        config = make_config(epoch_packets=4_000, shards=2)
        snaps = run_daemon(config, trace, 1_500)

        def build_store():
            store = EpochStore(history=8, seed=config.spec.seed)
            for snap in snaps:
                store.add(snap)
            return store

        merged_a = build_store().merged_range(0, 2)
        merged_b = build_store().merged_range(0, 2)
        assert dump_sketch(merged_a) == dump_sketch(merged_b)
        assert sum(merged_a.flow_table().values()) == pytest.approx(
            trace.total_size
        )
        # Sub-range mass equals the covered epochs' pack. sizes.
        sub = build_store().merged_range(1, 2)
        covered = sum(
            sum(s.sketch.flow_table().values()) for s in snaps[1:]
        )
        assert sum(sub.flow_table().values()) == pytest.approx(covered)

    def test_store_bounds_history_and_rejects_holes(self):
        store = EpochStore(history=3, seed=0)
        sketch = SketchSpec(l=8).build()
        for epoch in range(5):
            store.add(EpochSnapshot(epoch, epoch * 10, 10, 0.0, sketch))
        assert store.ids() == [2, 3, 4]
        with pytest.raises(KeyError):
            store.get(0)
        with pytest.raises(KeyError):
            store.merged_range(1, 3)  # epoch 1 evicted
        with pytest.raises(ValueError):
            store.merged_range(4, 2)
        with pytest.raises(ValueError):
            store.add(EpochSnapshot(4, 0, 10, 0.0, sketch))
        assert len(store) == 3

    def test_epoch_snapshot_wire_round_trip(self):
        snaps = run_daemon(
            make_config(epoch_packets=2_000), make_trace(4_000), 999
        )
        for snap in snaps:
            data = snap.to_bytes()
            assert EpochSnapshot.from_bytes(data).to_bytes() == data


class TestMergedEpochUnbiasedness:
    """Satellite: Lemma 3 on merged multi-epoch estimates.

    Margins flow through the shared harness, so ``REPRO_STAT_Z`` /
    ``REPRO_STAT_REL_FLOOR`` overrides are honored.
    """

    @pytest.mark.parametrize("shards", [1, 2])
    def test_merged_epochs_partial_key_unbiased(self, shards):
        trace = make_trace(20_000, flows=3_000, seed=11)

        def make_state(seed):
            config = make_config(
                shards=shards, seed=seed, epoch_packets=6_000, l=1024
            )
            snaps = offline_epoch_run(config, trace.batches(4_096))
            store = EpochStore(history=8, seed=seed)
            for snap in snaps:
                store.add(snap)
            return store.merged_range(0, snaps[-1].epoch)

        for spec in random_partial_specs(2, seed=5):
            assert_partial_key_unbiased_states(
                make_state,
                trace,
                spec,
                trials=12,
                base_seed=40 + shards,
                label=f"merged-epoch estimate (shards={shards})",
            )


class TestWindowedRotationPaths:
    """Satellite: the rotation arithmetic the daemon depends on."""

    def test_split_budget_cases(self):
        assert split_budget(10, 4) == (4, 6)     # mid-block
        assert split_budget(10, 10) == (10, 0)   # exactly on boundary
        assert split_budget(3, 10) == (3, 0)     # fits entirely
        assert split_budget(0, 10) == (0, 0)     # empty block
        with pytest.raises(ValueError):
            split_budget(-1, 5)
        with pytest.raises(ValueError):
            split_budget(5, 0)

    def test_auto_rotation_splits_batches_exactly(self):
        win = WindowedMeasurement(
            lambda: SketchSpec(engine="numpy", l=64, seed=2).build(),
            FIVE_TUPLE,
            history=8,
            interval=100,
        )
        trace = make_trace(430, flows=60)
        for hi, lo, sizes in trace.batches(97):  # never aligned to 100
            win.process_columns(hi, lo, sizes)
        assert win.windows_closed == 4
        assert win.packets_in_window == 30
        closed_mass = sum(
            sum(t.aggregate(FIVE_TUPLE.partial("SrcIP")).sizes.values())
            for t in win.tables
        )
        assert closed_mass <= trace.total_size

    def test_auto_rotation_via_update_and_update_batch(self):
        def make():
            return SketchSpec(engine="scalar", l=64, seed=2).build()

        one = WindowedMeasurement(make, FIVE_TUPLE, history=8, interval=3)
        for key in range(7):
            one.update(key + 1, 1)
        assert one.windows_closed == 2 and one.packets_in_window == 1

        batched = WindowedMeasurement(make, FIVE_TUPLE, history=8, interval=3)
        batched.update_batch([1, 2, 3, 4, 5, 6, 7])
        assert batched.windows_closed == 2
        assert batched.packets_in_window == 1

    def test_zero_and_single_packet_windows(self):
        win = WindowedMeasurement(
            lambda: SketchSpec(engine="numpy", l=32).build(),
            FIVE_TUPLE,
            interval=1,
        )
        empty = np.empty(0, dtype=np.uint64)
        win.process_columns(empty, empty, np.empty(0, dtype=np.int64))
        assert win.windows_closed == 0  # an empty feed never rotates
        table = win.rotate()  # explicit zero-packet rotation is legal
        assert table.aggregate(FIVE_TUPLE.partial("SrcIP")).sizes == {}
        win.update(42, 9)  # single-packet window rotates immediately
        assert win.windows_closed == 2
        assert win.packets_in_window == 0

    def test_interval_not_multiple_of_pipeline_chunk(self):
        # Interval straddling the engine's internal chunk must not skew
        # window totals; compare against a per-window reference run.
        spec = SketchSpec(engine="numpy", l=256, seed=6)
        sketch = spec.build()
        interval = sketch.pipeline_chunk + 1_000
        trace = make_trace(2 * interval + 500, flows=900)
        win = WindowedMeasurement(
            spec.build, FIVE_TUPLE, history=8, interval=interval
        )
        for hi, lo, sizes in trace.batches(3_333):
            win.process_columns(hi, lo, sizes)
        assert win.windows_closed == 2
        assert win.packets_in_window == 500
        partial = FIVE_TUPLE.partial("SrcIP")
        hi, lo, sizes = next(iter(trace.batches(len(trace))))
        for w, table in enumerate(win.tables):
            ref = spec.build()
            lo_i, hi_i = w * interval, (w + 1) * interval
            ref.process_columns(hi[lo_i:hi_i], lo[lo_i:hi_i], sizes[lo_i:hi_i])
            got = sum(table.aggregate(partial).sizes.values())
            want = sum(
                ref.flow_table().values()
            )
            assert got == pytest.approx(want)


class TestDecayRotationEdges:
    """Satellite: decay-extension edge cases around epoch advancement."""

    def test_zero_tick_is_identity(self):
        from repro.extensions.decay import DecayedCocoSketch

        sketch = DecayedCocoSketch(d=2, l=64, decay=0.5, seed=1)
        for key in range(20):
            sketch.update(key + 1, 10)
        before = sketch.flow_table()
        sketch.tick(0)
        assert sketch.flow_table() == before
        with pytest.raises(ValueError):
            sketch.tick(-1)

    def test_huge_tick_underflows_cleanly(self):
        from repro.extensions.decay import DecayedCocoSketch

        sketch = DecayedCocoSketch(d=2, l=64, decay=0.5, seed=1)
        sketch.update(7, 1_000_000)
        sketch.tick(100_000)  # decay**pending underflows to 0.0, no error
        assert sketch.query(7) == 0.0
        sketch.update(7, 5)  # bucket keeps absorbing after underflow
        assert sketch.query(7) >= 0.0

    def test_reset_clears_epoch_clock(self):
        from repro.extensions.decay import DecayedCocoSketch

        sketch = DecayedCocoSketch(d=1, l=16, decay=0.5, seed=0)
        sketch.update(3, 8)
        sketch.tick(2)
        sketch.reset()
        assert sketch.epoch == 0
        sketch.update(3, 8)
        assert sketch.query(3) == pytest.approx(8.0)

    def test_no_decay_matches_plain_accumulation(self):
        from repro.extensions.decay import DecayedCocoSketch

        sketch = DecayedCocoSketch(d=2, l=128, decay=1.0, seed=4)
        sketch.update(9, 3)
        sketch.tick(50)
        sketch.update(9, 4)
        assert sketch.query(9) == pytest.approx(7.0)


def _get(url, timeout=20):
    with urllib.request.urlopen(url, timeout=timeout) as resp:
        return resp.status, json.loads(resp.read())


def _sql_url(base, sql, epoch=None, view=None):
    query = f"sql={urllib.parse.quote(sql)}"
    if epoch is not None:
        query += f"&epoch={epoch}"
    if view is not None:
        query += f"&view={view}"
    return f"{base}/query?{query}"


SOAK_SQL = (
    "SELECT SrcIP/8, SUM(size) FROM flows GROUP BY SrcIP/8 "
    "ORDER BY SUM(size) DESC LIMIT 5"
)


class TestHttpSoak:
    EPOCH_PACKETS = 7_000
    CLIENTS = 4
    LOOPS = 3

    def test_concurrent_queries_during_ingestion(self):
        trace = make_trace(20_000, flows=3_000)
        config = make_config(shards=2, epoch_packets=self.EPOCH_PACKETS)
        daemon = MeasurementDaemon(config)
        daemon.start()
        server = ServiceServer(daemon).start()
        base = server.url

        feeding = threading.Event()
        feeding.set()
        errors = []

        def feeder():
            try:
                for _ in range(self.LOOPS):
                    for hi, lo, sizes in trace.batches(1_024):
                        daemon.offer(hi, lo, sizes)
                        time.sleep(0.001)  # stretch ingestion past clients
            finally:
                feeding.clear()

        def client(idx):
            rng = random.Random(100 + idx)
            last_live = {"slim": (-1, -1), "fat": (-1, -1)}
            served = 0
            try:
                while feeding.is_set() or served < 10:
                    choice = rng.random()
                    if choice < 0.2:
                        status, payload = _get(_sql_url(base, SOAK_SQL))
                    elif choice < 0.3:
                        status, payload = _get(
                            _sql_url(base, SOAK_SQL, view="slim")
                        )
                    elif choice < 0.4:
                        status, payload = _get(
                            _sql_url(base, SOAK_SQL, view="fat")
                        )
                    elif choice < 0.6:
                        status, payload = _get(
                            f"{base}/topk?key=SrcIP/8&k=5"
                        )
                    else:
                        status, epochs = _get(f"{base}/epochs")
                        assert status == 200
                        metas = epochs["epochs"]
                        if not metas:
                            continue
                        meta = rng.choice(metas)
                        if choice < 0.8:
                            status, payload = _get(
                                _sql_url(base, SOAK_SQL, epoch=meta["epoch"])
                            )
                        else:
                            lo_e = metas[0]["epoch"]
                            status, payload = _get(
                                _sql_url(
                                    base, SOAK_SQL,
                                    epoch=f"{lo_e}-{meta['epoch']}",
                                )
                            )
                    assert status == 200
                    served += 1
                    desc = payload["epoch"]
                    if desc["kind"] == "live":
                        version = (desc["epoch"], desc["packets"])
                        view = desc["view"]
                        assert view in ("slim", "fat"), desc
                        # No torn reads: per view, live versions move
                        # monotonically for a single reader.
                        assert version >= last_live[view], (version, desc)
                        last_live[view] = version
                        assert desc["staleness"]["packets_behind"] >= 0
                    elif desc["kind"] == "frozen":
                        # Frozen epochs are immutable and exactly sized.
                        assert desc["packets"] == self.EPOCH_PACKETS
                        assert desc["staleness"]["packets_behind"] >= 0
                    else:
                        assert desc["lo"] <= desc["hi"]
                        assert desc["staleness"]["packets_behind"] >= 0
                return served
            except Exception as exc:  # pragma: no cover - failure detail
                errors.append((idx, exc))
                raise

        feed_thread = threading.Thread(target=feeder)
        clients = [
            threading.Thread(target=client, args=(i,))
            for i in range(self.CLIENTS)
        ]
        feed_thread.start()
        for thread in clients:
            thread.start()
        feed_thread.join(timeout=120)
        for thread in clients:
            thread.join(timeout=120)
        assert not feeding.is_set()
        assert errors == []

        # Graceful shutdown drains every in-flight block: the rotated
        # epochs plus the live tail must cover every packet offered.
        daemon.close()
        total_fed = self.LOOPS * len(trace)
        snaps = [daemon.store.get(e) for e in daemon.store.ids()]
        assert sum(s.packets for s in snaps) == total_fed
        assert all(
            s.packets == self.EPOCH_PACKETS for s in snaps[:-1]
        )

        # p95 latency is recoverable from the obs histogram.
        metrics = daemon.metrics_snapshot()
        from repro.obs.schema import validate_snapshot

        validate_snapshot(metrics)
        hist = metrics["histograms"]["service.query.seconds"]
        assert hist["count"] >= self.CLIENTS * 10
        p95 = histogram_quantile(hist, 0.95)
        assert 0 < p95 < 60.0
        assert metrics["counters"]["service.ingest.packets"] == total_fed
        server.close()

    def test_closed_daemon_still_serves_frozen_epochs(self):
        trace = make_trace(6_000)
        daemon = MeasurementDaemon(make_config(epoch_packets=2_000))
        for hi, lo, sizes in trace.batches(1_024):
            daemon.ingest(hi, lo, sizes)
        daemon.close()
        with ServiceServer(daemon) as server:
            status, payload = _get(_sql_url(server.url, SOAK_SQL, epoch=0))
            assert status == 200 and payload["rows"]
            status, ranged = _get(_sql_url(server.url, SOAK_SQL, epoch="0-2"))
            assert status == 200
            with pytest.raises(urllib.error.HTTPError) as err:
                _get(_sql_url(server.url, SOAK_SQL))  # live view is gone
            assert err.value.code == 409

    def test_http_error_paths(self):
        daemon = MeasurementDaemon(make_config(epoch_packets=1_000))
        for hi, lo, sizes in make_trace(2_000).batches(512):
            daemon.ingest(hi, lo, sizes)
        with ServiceServer(daemon) as server:
            base = server.url
            cases = [
                (f"{base}/query", 400),                       # missing sql
                (_sql_url(base, "SELECT bogus"), 400),        # parse error
                (_sql_url(base, SOAK_SQL, epoch="99"), 404),  # unknown epoch
                (_sql_url(base, SOAK_SQL, epoch="3-1"), 400), # empty range
                (f"{base}/topk?k=5", 400),                    # missing key
                (f"{base}/topk?key=SrcIP&k=0", 400),
                (f"{base}/topk?key=NoSuchField", 400),
                (f"{base}/nope", 404),
            ]
            for url, want in cases:
                with pytest.raises(urllib.error.HTTPError) as err:
                    _get(url)
                assert err.value.code == want, url
                body = json.loads(err.value.read())
                assert "error" in body
            # Valid queries still succeed after the error barrage.
            status, payload = _get(_sql_url(base, SOAK_SQL))
            assert status == 200
        daemon.close()

    def test_keepalive_requests_do_not_stall(self):
        # A plain keep-alive client keeps its delayed ACK; a reply whose
        # body trails its headers in a second write stalls ~40 ms on it.
        daemon = MeasurementDaemon(make_config(epoch_packets=1_000))
        for hi, lo, sizes in make_trace(2_000).batches(512):
            daemon.ingest(hi, lo, sizes)
        latencies = []
        with ServiceServer(daemon) as server:
            conn = http.client.HTTPConnection(server.host, server.port, timeout=10)
            try:
                for _ in range(10):
                    start = time.perf_counter()
                    conn.request("GET", "/epochs")
                    response = conn.getresponse()
                    response.read()
                    latencies.append(time.perf_counter() - start)
                    assert response.status == 200
            finally:
                conn.close()
        daemon.close()
        assert statistics.median(latencies) < 0.020, latencies


class TestDaemonLifecycle:
    def test_ingest_after_close_rejected(self):
        daemon = MeasurementDaemon(make_config())
        daemon.close()
        hi = np.zeros(1, dtype=np.uint64)
        with pytest.raises(ServiceError):
            daemon.ingest(hi, hi, np.ones(1, dtype=np.int64))
        with pytest.raises(ServiceError):
            daemon.rotate()
        daemon.close()  # idempotent

    def test_offer_requires_running_feeder(self):
        daemon = MeasurementDaemon(make_config())
        hi = np.zeros(1, dtype=np.uint64)
        with pytest.raises(ServiceError):
            daemon.offer(hi, hi, np.ones(1, dtype=np.int64))
        daemon.start()
        with pytest.raises(ServiceError):
            daemon.start()  # already running
        daemon.close()

    def test_manual_rotation_and_live_planner_cache(self):
        trace = make_trace(4_000)
        daemon = MeasurementDaemon(make_config())
        for hi, lo, sizes in trace.batches(CHUNK):
            daemon.ingest(hi, lo, sizes)
        version_a, planner_a = daemon.live_planner()
        version_b, planner_b = daemon.live_planner()
        assert version_a == version_b and planner_a is planner_b
        snap = daemon.rotate()
        assert snap is not None and snap.packets == 4_000
        assert daemon.rotate() is None  # empty epoch -> no snapshot
        version_c, _ = daemon.live_planner()
        assert version_c == (snap.epoch + 1, 0)
        daemon.close()
        assert daemon.store.ids() == [snap.epoch]

    def test_live_view_lags_by_at_most_one_chunk(self):
        daemon = MeasurementDaemon(make_config())
        trace = make_trace(CHUNK + 100)
        for hi, lo, sizes in trace.batches(CHUNK + 100):
            daemon.ingest(hi, lo, sizes)
        (epoch, flushed), planner = daemon.live_planner()
        assert epoch == 0 and flushed == CHUNK  # tail still buffered
        visible = sum(
            planner.table(FIVE_TUPLE.partial("SrcIP")).values.tolist()
        )
        hi, lo, sizes = next(iter(trace.batches(len(trace))))
        assert visible == pytest.approx(float(sizes[:CHUNK].sum()))
        daemon.close()

    def test_live_refresh_serves_stale_cached_view(self):
        with pytest.raises(ValueError):
            make_config(live_refresh_packets=-1)
        daemon = MeasurementDaemon(
            make_config(live_refresh_packets=1_000_000)
        )
        trace = make_trace(3 * CHUNK)
        batches = iter(trace.batches(CHUNK))
        daemon.ingest(*next(batches))
        version_a, planner_a = daemon.live_planner()
        for hi, lo, sizes in batches:
            daemon.ingest(hi, lo, sizes)
        version_b, planner_b = daemon.live_planner()
        # Within the refresh budget the cached view keeps serving, and
        # the reported version matches the (stale) data — consistent.
        assert version_b == version_a and planner_b is planner_a
        snap = daemon.rotate()
        version_c, planner_c = daemon.live_planner()  # new epoch: rebuild
        assert version_c == (snap.epoch + 1, 0)
        assert planner_c is not planner_a
        daemon.close()

    def test_stale_fat_build_never_clobbers_fresher_cache(self):
        """Regression: a fat live build finishing after a rotation (or
        after a newer build) must not overwrite the cache — otherwise
        ``live_refresh_packets`` serves a pre-rotation planner tagged
        with a post-rotation epoch id.
        """
        from repro.query import QueryPlanner

        daemon = MeasurementDaemon(
            make_config(live_refresh_packets=1_000_000)
        )
        trace = make_trace(2 * CHUNK)
        for hi, lo, sizes in trace.batches(CHUNK):
            daemon.ingest(hi, lo, sizes)
        version_a, planner_a = daemon.live_planner(view="fat")
        assert version_a == (0, 2 * CHUNK)

        # A slow concurrent build from an older flushed point lands late:
        stale = QueryPlanner(
            daemon.config.spec.build(), FIVE_TUPLE, version=(0, 0)
        )
        daemon._publish_live_view((0, 0), stale)
        version_b, planner_b = daemon.live_planner(view="fat")
        assert version_b == version_a and planner_b is planner_a

        snap = daemon.rotate()
        version_c, planner_c = daemon.live_planner(view="fat")
        assert version_c == (snap.epoch + 1, 0)
        assert planner_c is not planner_a

        # A pre-rotation build arriving after the rotation: the cache
        # must stay on the post-rotation epoch, version/epoch agreeing.
        daemon._publish_live_view(version_a, planner_a)
        version_d, planner_d = daemon.live_planner(view="fat")
        assert version_d == version_c and planner_d is planner_c
        daemon.close()

    def test_live_view_selection_and_errors(self):
        daemon = MeasurementDaemon(make_config())
        assert daemon.default_live_view == "slim"
        with pytest.raises(ValueError):
            daemon.live_planner(view="bogus")
        daemon.close()

        with pytest.raises(ValueError):
            make_config(live_view="bogus")
        with pytest.raises(ValueError):
            make_config(slim_sync=False, live_view="slim")
        with pytest.raises(ValueError):
            make_config(slim_max_pending_rows=0)

        fat_only = MeasurementDaemon(make_config(slim_sync=False))
        assert fat_only.default_live_view == "fat"
        trace = make_trace(CHUNK)
        for hi, lo, sizes in trace.batches(CHUNK):
            fat_only.ingest(hi, lo, sizes)
        version, _ = fat_only.live_planner()  # auto -> fat
        assert version == (0, CHUNK)
        with pytest.raises(ServiceError):
            fat_only.live_planner(view="slim")
        with ServiceServer(fat_only) as server:
            with pytest.raises(urllib.error.HTTPError) as err:
                _get(_sql_url(server.url, SOAK_SQL, view="slim"))
            assert err.value.code == 409
            with pytest.raises(urllib.error.HTTPError) as err:
                _get(_sql_url(server.url, SOAK_SQL, view="nope"))
            assert err.value.code == 400
            with pytest.raises(urllib.error.HTTPError) as err:
                _get(_sql_url(server.url, SOAK_SQL, epoch=0, view="fat"))
            assert err.value.code == 400  # view is live-only
            status, payload = _get(_sql_url(server.url, SOAK_SQL, view="fat"))
            assert status == 200
            assert payload["epoch"]["view"] == "fat"
            assert payload["epoch"]["staleness"]["packets_behind"] == 0
        fat_only.close()

    def test_ingest_error_surfaces_through_offer(self):
        daemon = MeasurementDaemon(make_config())
        daemon.start()
        bad = np.zeros(3, dtype=np.uint64)
        daemon.offer(bad, bad, None)  # len(None) kills the ingest thread
        deadline = time.monotonic() + 10
        while daemon._ingest_error is None and time.monotonic() < deadline:
            time.sleep(0.01)
        with pytest.raises(ServiceError, match="ingest thread died"):
            daemon.offer(bad, bad, np.ones(3, dtype=np.int64))
        with pytest.raises(ServiceError, match="ingest thread died"):
            daemon.close()
        assert daemon.closed  # the final epoch was still frozen

    def test_dead_feeder_with_a_full_queue_does_not_hang_close(self):
        """Regression: a feeder that died with blocks still queued left
        ``close()`` blocked forever on ``stop_feeder()``'s sentinel put."""
        daemon = MeasurementDaemon(make_config(queue_blocks=1))
        daemon.start()
        bad = np.zeros(3, dtype=np.uint64)
        with daemon._lock:  # parks the ingest thread inside ingest()
            daemon.offer(bad, bad, None)  # len(None) kills the ingest thread
            deadline = time.monotonic() + 10
            while not daemon._queue.empty() and time.monotonic() < deadline:
                time.sleep(0.01)
            daemon.offer(bad, bad, np.ones(3, dtype=np.int64))  # queue full
        raised = []

        def close():
            try:
                daemon.close()
            except ServiceError as exc:
                raised.append(exc)

        closer = threading.Thread(target=close, daemon=True)
        closer.start()
        closer.join(timeout=10)
        assert not closer.is_alive(), "close() hung behind a dead feeder"
        assert len(raised) == 1 and "ingest thread died" in str(raised[0])
        assert daemon.closed


class TestFrozenEpochs:
    """A closed epoch is a read-only sketch that retains no live engine."""

    @pytest.mark.parametrize(
        "engine,shards", [("numpy", 1), ("numpy", 2), ("scalar", 1)]
    )
    def test_closed_epoch_is_frozen_and_detached(self, engine, shards):
        trace = make_trace(3 * CHUNK)
        daemon = MeasurementDaemon(make_config(engine=engine, shards=shards))
        gc.disable()  # only reference counting may free the engines
        try:
            _ingest(daemon, trace, block=1_000)
            # Both live views touch the engines: the slim bootstrap
            # attaches delta sinks, the fat view copies them.
            daemon.live_planner(view="slim")
            daemon.live_planner(view="fat")
            refs = [weakref.ref(s) for s in daemon._builder.live_sketches()]
            assert len(refs) == shards
            snap = daemon.rotate()
            assert [ref() for ref in refs] == [None] * shards
        finally:
            gc.enable()
        frozen = snap.to_bytes()
        hi, lo, sizes = next(iter(trace.batches(CHUNK)))
        with pytest.raises((ValueError, TypeError)):
            snap.sketch.process_columns(hi, lo, sizes)
        assert snap.to_bytes() == frozen == snap.to_bytes()
        daemon.close()


def _ingest(daemon, trace, block=500):
    for hi, lo, sizes in trace.batches(block):
        daemon.ingest(hi, lo, sizes)


def _counter(daemon, name):
    return daemon.metrics_snapshot()["counters"].get(name, 0)


def _planners_cached(daemon):
    return daemon.metrics_snapshot()["gauges"]["service.planner.cached"]


class TestPlannerCache:
    """One memoized planner per ``(lo, hi)`` range, evicted with the store."""

    KEY = FIVE_TUPLE.partial(("SrcIP", 16))

    def test_repeated_range_is_one_miss_then_hits(self):
        daemon = MeasurementDaemon(make_config(epoch_packets=2_000))
        _ingest(daemon, make_trace(6_000))
        first = daemon.range_planner(0, 2)
        assert daemon.range_planner(0, 2) is first
        assert daemon.range_planner(0, 2) is first
        assert _counter(daemon, "service.planner.cache.misses") == 1
        assert _counter(daemon, "service.planner.cache.hits") == 2
        # A single epoch is the one-epoch range: the same cache entry.
        assert daemon.epoch_planner(1) is daemon.range_planner(1, 1)
        assert _planners_cached(daemon) == 2
        # Ad-hoc keys do not pile up: a cached planner keeps the last
        # aggregate only, and a re-asked key answers the same rows.
        dst = FIVE_TUPLE.partial("DstIP")
        rows = first.table(self.KEY).top_k(10)
        first.table(dst)
        assert first.cache_info()["cached_specs"] == 1
        assert first.table(self.KEY).top_k(10) == rows
        daemon.close()

    def test_rows_match_a_fresh_planner_across_a_resize(self):
        daemon = MeasurementDaemon(make_config(epoch_packets=2_000, l=256))
        trace = make_trace(10_000)
        blocks = list(trace.batches(1_000))
        for hi, lo, sizes in blocks[:3]:
            daemon.ingest(hi, lo, sizes)
        daemon.set_geometry(512)
        for hi, lo, sizes in blocks[3:]:
            daemon.ingest(hi, lo, sizes)
        daemon.close()
        widths = [meta["l"] for meta in daemon.store.metas()]
        assert widths[0] == 256 and widths[-1] == 512, widths
        last = daemon.store.ids()[-1]
        for lo, hi in [(0, last), (1, 3), (2, 2), (0, 0)]:
            fresh = QueryPlanner(daemon.store.merged_range(lo, hi), FIVE_TUPLE)
            for partial in (self.KEY, FIVE_TUPLE.partial("DstIP"), FIVE_TUPLE.identity_partial()):
                cached = daemon.range_planner(lo, hi).table(partial)
                want = fresh.table(partial)
                assert np.array_equal(cached.words, want.words), (lo, hi)
                assert np.array_equal(cached.values, want.values), (lo, hi)

    def test_evicted_epoch_is_never_served(self):
        daemon = MeasurementDaemon(make_config(epoch_packets=1_000, history=3))
        trace = make_trace(5_000)
        blocks = list(trace.batches(1_000))
        for hi, lo, sizes in blocks[:3]:
            daemon.ingest(hi, lo, sizes)
        assert daemon.store.ids() == [0, 1, 2]
        daemon.range_planner(0, 2)
        daemon.epoch_planner(0)
        daemon.range_planner(1, 2)
        assert _planners_cached(daemon) == 3
        for hi, lo, sizes in blocks[3:]:
            daemon.ingest(hi, lo, sizes)
        assert daemon.store.ids() == [2, 3, 4]
        for lo, hi in [(0, 2), (0, 0), (1, 2), (1, 1), (0, 4)]:
            with pytest.raises(KeyError):
                daemon.range_planner(lo, hi)
        with pytest.raises(KeyError):
            daemon.epoch_planner(0)
        assert _planners_cached(daemon) == 0  # all three were pruned
        daemon.close()

    def test_http_range_with_evicted_lo_is_404(self):
        daemon = MeasurementDaemon(make_config(epoch_packets=1_000, history=3))
        blocks = list(make_trace(5_000).batches(1_000))
        for hi, lo, sizes in blocks[:3]:
            daemon.ingest(hi, lo, sizes)
        with ServiceServer(daemon) as server:
            url = f"{server.url}/topk?key=SrcIP/16&k=5&epoch=0-2"
            status, payload = _get(url)
            assert status == 200 and payload["rows"]
            assert _get(url)[1]["rows"] == payload["rows"]
            assert _counter(daemon, "service.planner.cache.hits") == 1
            for hi, lo, sizes in blocks[3:]:
                daemon.ingest(hi, lo, sizes)
            for epoch in ("0-2", "0", "1-3"):
                with pytest.raises(urllib.error.HTTPError) as err:
                    _get(f"{server.url}/topk?key=SrcIP/16&k=5&epoch={epoch}")
                assert err.value.code == 404, epoch
        daemon.close()

    def test_bad_key_is_400_before_any_merge(self):
        daemon = MeasurementDaemon(make_config(epoch_packets=1_000))
        _ingest(daemon, make_trace(3_000))
        with ServiceServer(daemon) as server:
            for key in ("NoSuchField", "SrcIP/x", "SrcIP,,DstIP"):
                with pytest.raises(urllib.error.HTTPError) as err:
                    _get(f"{server.url}/topk?key={key}&k=5&epoch=0-2")
                assert err.value.code == 400, key
        assert _counter(daemon, "service.planner.cache.misses") == 0
        daemon.close()

    def test_concurrent_cold_requests_share_one_entry(self):
        daemon = MeasurementDaemon(make_config(epoch_packets=2_000, shards=2))
        _ingest(daemon, make_trace(8_000))
        threads = 8
        barrier = threading.Barrier(threads)
        rows = [None] * threads

        def reader(idx):
            barrier.wait()
            rows[idx] = _get(f"{base}/topk?key=SrcIP/16&k=20&epoch=0-3")[1]["rows"]

        with ServiceServer(daemon) as server:
            base = server.url
            pool = [threading.Thread(target=reader, args=(i,)) for i in range(threads)]
            for thread in pool:
                thread.start()
            for thread in pool:
                thread.join(timeout=60)
                assert not thread.is_alive()
        assert rows[0] and all(r == rows[0] for r in rows)
        assert _planners_cached(daemon) == 1
        daemon.close()

    def test_reads_racing_rotation_keep_the_cache_consistent(self):
        history = 3
        daemon = MeasurementDaemon(
            make_config(epoch_packets=500, history=history)
        )
        blocks = list(make_trace(8_000).batches(250))
        for hi, lo, sizes in blocks[:6]:
            daemon.ingest(hi, lo, sizes)
        feeding = threading.Event()
        feeding.set()
        calls = [0] * 6

        def reader(idx):
            rng = random.Random(idx)
            while feeding.is_set():
                newest = daemon.store.ids()[-1]
                lo = rng.randint(max(newest - history, 0), newest)
                calls[idx] += 1
                try:
                    daemon.range_planner(lo, rng.randint(lo, newest))
                except KeyError:
                    pass  # evicted between the pick and the lookup

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            pool = [threading.Thread(target=reader, args=(i,)) for i in range(6)]
            for thread in pool:
                thread.start()
            for hi, lo, sizes in blocks[6:]:
                daemon.ingest(hi, lo, sizes)
            feeding.clear()
            for thread in pool:
                thread.join(timeout=60)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(previous)
        oldest = daemon.store.ids()[0]
        assert all(lo >= oldest for lo, _ in daemon._planners)
        assert len(daemon._planners) <= history * (history + 1) // 2
        assert _planners_cached(daemon) == len(daemon._planners)
        # Every lookup was counted once: no update was lost.
        counted = _counter(daemon, "service.planner.cache.hits") + _counter(
            daemon, "service.planner.cache.misses"
        )
        assert counted == sum(calls)
        daemon.close()
