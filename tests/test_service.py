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
* **Statistical correctness** — partial-key estimates *summed over
  multi-epoch* ranges stay unbiased (Lemma 3), gated through the shared
  harness so ``REPRO_STAT_*`` margins apply, and the two-bincount range
  sum equals grouping the concatenated epoch tables bit for bit.
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
from repro.core.serialize import dump_epoch
from repro.engine.kernels import BACKEND_ENV
from repro.engine.sharded import SketchSpec
from repro.extensions.windowed import WindowedMeasurement, split_budget
from repro.flowkeys.key import FIVE_TUPLE
from repro.obs.registry import histogram_quantile
from repro.query.columns import ColumnTable
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
from repro.service.daemon import QUEUE_BLOCKS, EpochBuilder
from repro.sketches.base import COUNTER_BYTES, DEFAULT_KEY_BYTES
from repro.traffic.synthetic import zipf_trace
from repro.traffic.trace import Trace

from tests.stat_harness import (
    assert_partial_key_unbiased_planners,
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


def staged_resize_run(config, trace, block, resize_after, new_l):
    """Closed epochs of a daemon told ``set_geometry(new_l)`` after its
    first *resize_after* blocks; the width lands at the next rotation."""
    daemon = MeasurementDaemon(config)
    for n, (hi, lo, sizes) in enumerate(trace.batches(block)):
        if n == resize_after:
            daemon.set_geometry(new_l)
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
            chunks = [
                dataclasses.replace(cfg().spec, l=s.l).build().pipeline_chunk
                for s in reference
            ]
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
        for start in range(0, len(sizes), CHUNK):  # the daemon's re-blocking
            stop = start + CHUNK
            mono.update_batch((hi[start:stop], lo[start:stop]), sizes[start:stop])
        snap = snaps[0]
        assert snap.to_bytes() == dump_epoch(
            snap.epoch, snap.start_seq, snap.packets, snap.closed_at,
            config.spec.d, config.spec.l,
            ColumnTable.from_sketch(mono, FIVE_TUPLE, group=False),
        )

    def test_epochs_share_hash_family_but_not_rng_streams(self):
        # The same packets fed to epoch 0 and epoch 1 produce different
        # replacement decisions (decorrelated streams) under one hash
        # family; each epoch's table holds exactly its own mass.
        half = make_trace(4_000)
        hi, lo, sizes = next(iter(half.batches(4_000)))
        daemon = MeasurementDaemon(make_config(epoch_packets=4_000))
        families = []
        for _ in range(2):
            families.append(daemon._builder.live_sketches()[0]._family.seeds)
            daemon.ingest(hi, lo, sizes)
        daemon.close()
        a, b = (daemon.store.get(e).table for e in daemon.store.ids())
        assert families[0] == families[1]
        assert a.total == b.total == half.total_size
        assert not (
            np.array_equal(a.words, b.words) and np.array_equal(a.values, b.values)
        )

    def test_empty_trace_leaves_no_epochs(self):
        daemon = MeasurementDaemon(make_config(epoch_packets=100))
        daemon.close()
        assert daemon.store.ids() == []

    def test_single_packet_epochs(self):
        trace = make_trace(5)
        snaps = run_daemon(make_config(epoch_packets=1), trace, 2)
        assert [s.packets for s in snaps] == [1] * 5
        total = sum(s.table.total for s in snaps)
        assert total == trace.total_size


def concat_reference(store, lo, hi):
    """The range read's reference: epochs ``lo..hi``'s tables stacked,
    in a planner that groups them up front."""
    tables = [store.get(e).table for e in range(lo, hi + 1)]
    return QueryPlanner(ColumnTable.concat_many(tables), FIVE_TUPLE)


def bare_snapshot(epoch, table=None):
    return EpochSnapshot(
        epoch, epoch * 10, 10, 0.0, 2, 8,
        ColumnTable.empty(FIVE_TUPLE) if table is None else table,
    )


class TestEpochMergeAndStore:
    def test_merged_range_preserves_mass_and_is_deterministic(self):
        trace = make_trace(12_000)
        config = make_config(epoch_packets=4_000, shards=2)
        snaps = run_daemon(config, trace, 1_500)

        def build_store():
            store = EpochStore(history=8)
            for snap in snaps:
                store.add(snap)
            return store

        full = FIVE_TUPLE.identity_partial()
        merged_a = build_store().merged_range(0, 2).table(full)
        merged_b = build_store().merged_range(0, 2).table(full)
        assert np.array_equal(merged_a.words, merged_b.words)
        assert np.array_equal(merged_a.values, merged_b.values)
        assert merged_a.total == trace.total_size
        # Sub-range mass equals the covered epochs' packet sizes.
        sub = build_store().merged_range(1, 2).table(full)
        assert sub.total == sum(s.table.total for s in snaps[1:])

    def test_store_bounds_history_and_rejects_holes(self):
        store = EpochStore(history=3)
        for epoch in range(5):
            store.add(bare_snapshot(epoch))
        assert store.ids() == [2, 3, 4]
        with pytest.raises(KeyError):
            store.get(0)
        with pytest.raises(KeyError):
            store.merged_range(1, 3)  # epoch 1 evicted
        with pytest.raises(ValueError):
            store.merged_range(4, 2)
        with pytest.raises(ValueError):
            store.add(bare_snapshot(4))
        assert len(store) == 3

    def test_wide_range_hole_check_is_bounded_by_history(self):
        # The check reads the retained ids, not every id in lo..hi: a
        # range a million epochs wide fails fast with a short message.
        store = EpochStore(history=4)
        for epoch in range(4):
            store.add(bare_snapshot(epoch))
        with pytest.raises(KeyError) as err:
            store.merged_range(0, 10**6)
        message = str(err.value)
        assert len(message) < 200
        assert "0..1000000" in message and "0..3" in message

    def test_range_across_staged_resize_is_deterministic_and_mass_exact(self):
        trace = make_trace(16_000)
        snaps = staged_resize_run(
            make_config(epoch_packets=4_000, shards=2), trace, 2_000,
            resize_after=3, new_l=1024,
        )
        widths = [s.geometry()[1] for s in snaps]
        assert widths[0] == 512 and widths[-1] == 1024, widths

        def build_store():
            store = EpochStore(history=8)
            for snap in snaps:
                store.add(snap)
            return store

        hi = snaps[-1].epoch
        key = FIVE_TUPLE.partial(("SrcIP", 16))
        merged_a = build_store().merged_range(0, hi).table(key)
        merged_b = build_store().merged_range(0, hi).table(key)
        assert np.array_equal(merged_a.words, merged_b.words)
        assert np.array_equal(merged_a.values, merged_b.values)
        assert sum(s.packets for s in snaps) == trace.total_size
        assert merged_a.total == trace.total_size

    def test_epoch_snapshot_wire_round_trip(self):
        snaps = run_daemon(
            make_config(epoch_packets=2_000), make_trace(4_000), 999
        )
        for snap in snaps:
            data = snap.to_bytes()
            assert EpochSnapshot.from_bytes(data).to_bytes() == data


class TestMergedEpochUnbiasedness:
    """Satellite: Lemma 3 on summed multi-epoch estimates.

    Margins flow through the shared harness, so ``REPRO_STAT_Z`` /
    ``REPRO_STAT_REL_FLOOR`` overrides are honored.
    """

    # new_l: a staged set_geometry after the second 4096-packet block,
    # so epochs 0-1 are cut at 1024 and epochs 2-3 at new_l.
    @pytest.mark.parametrize(
        "shards,new_l",
        [
            pytest.param(1, None, id="1"),
            pytest.param(2, None, id="2"),
            pytest.param(1, 2048, id="1-grow"),
            pytest.param(2, 512, id="2-shrink"),
        ],
    )
    def test_merged_epochs_partial_key_unbiased(self, shards, new_l):
        trace = make_trace(20_000, flows=3_000, seed=11)

        def make_range(seed):
            config = make_config(
                shards=shards, seed=seed, epoch_packets=6_000, l=1024
            )
            if new_l is None:
                snaps = offline_epoch_run(config, trace.batches(4_096))
            else:
                snaps = staged_resize_run(
                    config, trace, 4_096, resize_after=2, new_l=new_l
                )
                assert {s.l for s in snaps} == {1024, new_l}
            store = EpochStore(history=8)
            for snap in snaps:
                store.add(snap)
            return store.merged_range(0, snaps[-1].epoch)

        for spec in random_partial_specs(2, seed=5):
            assert_partial_key_unbiased_planners(
                make_range,
                trace,
                spec,
                trials=12,
                base_seed=40 + shards,
                label=f"summed-epoch estimate (shards={shards}, new_l={new_l})",
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
            last_live = (-1, -1)
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
                        # Still accepted; the replica answers it.
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
                        # One live path, whatever view was asked for.
                        assert desc["view"] == "slim", desc
                        # No torn reads: live versions move
                        # monotonically for a single reader.
                        assert version >= last_live, (version, desc)
                        last_live = version
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
            # A range a million epochs wide is a 404 with a short body.
            with pytest.raises(urllib.error.HTTPError) as err:
                _get(f"{base}/topk?key=SrcIP&epoch=0-1000000")
            assert err.value.code == 404
            assert len(err.value.read()) < 300
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

    def test_live_view_selection_and_errors(self):
        daemon = MeasurementDaemon(make_config())
        trace = make_trace(CHUNK)
        for hi, lo, sizes in trace.batches(CHUNK):
            daemon.ingest(hi, lo, sizes)
        with ServiceServer(daemon) as server:
            with pytest.raises(urllib.error.HTTPError) as err:
                _get(_sql_url(server.url, SOAK_SQL, view="nope"))
            assert err.value.code == 400
            with pytest.raises(urllib.error.HTTPError) as err:
                _get(_sql_url(server.url, SOAK_SQL, epoch=0, view="fat"))
            assert err.value.code == 400  # view is live-only
            status, payload = _get(_sql_url(server.url, SOAK_SQL))
            assert status == 200
            assert payload["epoch"]["view"] == "slim"  # the default
        daemon.close()

    def test_fat_view_is_answered_by_the_replica(self):
        # Quiescent daemon: nothing ingests between the reads, so every
        # live read serves the same version and the same rows.
        daemon = MeasurementDaemon(make_config(shards=2))
        for hi, lo, sizes in make_trace(3 * CHUNK + 100).batches(1_000):
            daemon.ingest(hi, lo, sizes)
        with ServiceServer(daemon) as server:
            answers = [
                _get(_sql_url(server.url, SOAK_SQL, **view))
                for view in ({}, {"view": "fat"}, {"view": "slim"})
            ]
            topks = [
                _get(f"{server.url}/topk?key=SrcIP/16&k=5{suffix}")
                for suffix in ("", "&view=fat")
            ]
        daemon.close()
        for status, _ in answers + topks:
            assert status == 200
        default, fat, slim = (payload for _, payload in answers)
        assert fat["epoch"] == default["epoch"] == slim["epoch"]
        assert fat["epoch"]["view"] == "slim"
        assert (fat["epoch"]["epoch"], fat["epoch"]["packets"]) == (0, 3 * CHUNK)
        assert fat["rows"] and fat["rows"] == default["rows"] == slim["rows"]
        (_, top_default), (_, top_fat) = topks
        assert top_fat["epoch"] == top_default["epoch"]
        assert top_fat["rows"] and top_fat["rows"] == top_default["rows"]

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
        daemon = MeasurementDaemon(make_config())
        daemon.start()
        bad = np.zeros(3, dtype=np.uint64)
        with daemon._lock:  # parks the ingest thread inside ingest()
            daemon.offer(bad, bad, None)  # len(None) kills the ingest thread
            deadline = time.monotonic() + 10
            while not daemon._queue.empty() and time.monotonic() < deadline:
                time.sleep(0.01)
            for _ in range(QUEUE_BLOCKS):
                daemon.offer(bad, bad, np.ones(3, dtype=np.int64))
            assert daemon._queue.full()
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


class _FakeClock:
    """Stands in for the ``time`` module the daemon reads; only
    ``monotonic`` (the epoch age) is under the test's control."""

    perf_counter = staticmethod(time.perf_counter)
    time = staticmethod(time.time)

    def __init__(self):
        self.now = 0.0

    def monotonic(self):
        return self.now


class TestWallClockRotation:
    @pytest.fixture
    def clock(self, monkeypatch):
        import repro.service.daemon as daemon_module

        clock = _FakeClock()
        monkeypatch.setattr(daemon_module, "time", clock)
        return clock

    def test_first_ingest_past_epoch_age_rotates(self, clock):
        blocks = list(make_trace(3_000).batches(1_000))
        daemon = MeasurementDaemon(make_config(epoch_seconds=10.0))
        try:
            daemon.ingest(*blocks[0])
            clock.now = 9.5
            daemon.ingest(*blocks[1])
            assert daemon.store.ids() == []  # younger than epoch_seconds
            clock.now = 10.0
            daemon.ingest(*blocks[2])  # age reached: rotates, then feeds
            assert daemon.store.ids() == [0]
            assert daemon.store.get(0).packets == 2_000
            live = daemon.status()["live"]
            assert live["epoch"] == 1 and live["packets"] == 1_000
            # The new epoch's age counts from the rotation, and nothing
            # rotates without an ingest to notice the age.
            clock.now = 19.5
            assert daemon.store.ids() == [0]
        finally:
            daemon.close()

    def test_empty_live_epoch_never_rotates_on_time(self, clock):
        hi, lo, sizes = next(make_trace(1_000).batches(1_000))
        daemon = MeasurementDaemon(make_config(epoch_seconds=5.0))
        try:
            clock.now = 100.0
            daemon.ingest(hi[:0], lo[:0], sizes[:0])
            daemon.ingest(hi, lo, sizes)
            # Old but empty at each check: the block opens no new epoch.
            assert daemon.store.ids() == []
            assert daemon.status()["live"] == {
                "epoch": 0, "packets": 1_000, "flushed": 0, "start_seq": 0,
            }
        finally:
            daemon.close()

    @pytest.mark.parametrize("seconds", [0.0, -1.0])
    def test_config_rejects_non_positive_epoch_seconds(self, seconds):
        with pytest.raises(ValueError, match="epoch_seconds"):
            make_config(epoch_seconds=seconds)


class TestFrozenEpochs:
    """A closed epoch is a read-only table that retains no live engine."""

    @pytest.mark.parametrize(
        "engine,shards", [("numpy", 1), ("numpy", 2), ("scalar", 1)]
    )
    def test_closed_epoch_is_frozen_and_detached(self, engine, shards):
        trace = make_trace(3 * CHUNK)
        daemon = MeasurementDaemon(make_config(engine=engine, shards=shards))
        gc.disable()  # only reference counting may free the engines
        try:
            _ingest(daemon, trace, block=1_000)
            # A live read touches the engines: the replica's bootstrap
            # copies their arrays and attaches delta sinks.
            daemon.live_planner()
            refs = [weakref.ref(s) for s in daemon._builder.live_sketches()]
            assert len(refs) == shards
            snap = daemon.rotate()
            assert [ref() for ref in refs] == [None] * shards
        finally:
            gc.enable()
        frozen = snap.to_bytes()
        with pytest.raises(ValueError):
            snap.table.values[0] = 1.0
        with pytest.raises(ValueError):
            snap.table.words[0, 0] = 1
        assert snap.table.total == 3 * CHUNK
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
    """One memoized planner per frozen epoch, evicted with the store;
    multi-epoch ranges are sums, computed per read and never cached."""

    KEY = FIVE_TUPLE.partial(("SrcIP", 16))

    def test_repeated_range_is_one_miss_then_hits(self):
        daemon = MeasurementDaemon(make_config(epoch_packets=2_000))
        _ingest(daemon, make_trace(6_000))
        first = daemon.epoch_planner(1)
        assert daemon.epoch_planner(1) is first
        # A one-epoch range is that epoch's planner: the same entry.
        assert daemon.range_planner(1, 1) is first
        assert _counter(daemon, "service.planner.cache.misses") == 1
        assert _counter(daemon, "service.planner.cache.hits") == 2
        # A wider range is a fresh sum per call, outside the cache.
        assert daemon.range_planner(0, 2) is not daemon.range_planner(0, 2)
        assert _planners_cached(daemon) == 1
        assert _counter(daemon, "service.planner.cache.misses") == 1
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
            fresh = concat_reference(daemon.store, lo, hi)
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
        daemon.epoch_planner(1)
        assert _planners_cached(daemon) == 2
        for hi, lo, sizes in blocks[3:]:
            daemon.ingest(hi, lo, sizes)
        assert daemon.store.ids() == [2, 3, 4]
        for lo, hi in [(0, 2), (0, 0), (1, 2), (1, 1), (0, 4)]:
            with pytest.raises(KeyError):
                daemon.range_planner(lo, hi)
        with pytest.raises(KeyError):
            daemon.epoch_planner(0)
        assert _planners_cached(daemon) == 0  # both were pruned
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
        gauges = daemon.metrics_snapshot()["gauges"]
        assert gauges["service.epochs.dictionary.keys"] == 0  # no range read
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
            # Half read one cold epoch, half a cold range.
            epoch = "3" if idx % 2 else "0-3"
            rows[idx] = _get(f"{base}/topk?key=SrcIP/16&k=20&epoch={epoch}")[1]["rows"]

        with ServiceServer(daemon) as server:
            base = server.url
            pool = [threading.Thread(target=reader, args=(i,)) for i in range(threads)]
            for thread in pool:
                thread.start()
            for thread in pool:
                thread.join(timeout=60)
                assert not thread.is_alive()
        assert rows[0] and all(r == rows[0] for r in rows[::2])
        assert rows[1] and all(r == rows[1] for r in rows[1::2])
        assert _planners_cached(daemon) == 1
        # The racing range reads built the dictionary once.
        want = len(concat_reference(daemon.store, 0, 3).grouped_base())
        assert daemon.store.dictionary_keys() == want
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
                epoch = rng.randint(max(newest - history, 0), newest)
                calls[idx] += 1
                try:
                    daemon.epoch_planner(epoch)
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
        assert all(epoch >= oldest for epoch in daemon._planners)
        assert len(daemon._planners) <= history
        assert _planners_cached(daemon) == len(daemon._planners)
        # Every lookup was counted once: no update was lost.
        counted = _counter(daemon, "service.planner.cache.hits") + _counter(
            daemon, "service.planner.cache.misses"
        )
        assert counted == sum(calls)
        daemon.close()


def _within(fn, seconds=2.0):
    """Run *fn* on another thread; fail unless it returns in *seconds*."""
    result, errors = [], []

    def target():
        try:
            result.append(fn())
        except Exception as exc:  # pragma: no cover - failure detail
            errors.append(exc)

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    thread.join(timeout=seconds)
    assert not thread.is_alive(), f"{fn} waited on the ingest lock"
    assert errors == []
    return result[0]


class TestReadsOffTheIngestLock:
    """Request metadata and frozen reads never queue behind ``ingest()``."""

    EPOCH_PACKETS = 2_000

    def test_reads_answer_while_the_ingest_lock_is_held(self):
        daemon = MeasurementDaemon(make_config(epoch_packets=self.EPOCH_PACKETS))
        trace = make_trace(7_000)
        _ingest(daemon, trace, block=1_000)
        assert daemon.store.ids() == [0, 1, 2]
        daemon.live_planner()  # the replica's once-per-epoch bootstrap
        daemon.start()
        topk_range = "/topk?key=SrcIP/16&k=5&epoch=0-1"
        parked, release = threading.Event(), threading.Event()

        def park():
            with daemon._lock:  # an ingest() block that never ends
                parked.set()
                release.wait(timeout=60)

        with ServiceServer(daemon) as server:
            base = server.url
            warm = _get(base + topk_range)[1]
            parker = threading.Thread(target=park, daemon=True)
            parker.start()
            assert parked.wait(timeout=10)
            try:
                # The feeder takes the next block and parks inside ingest().
                hi, lo, sizes = next(iter(make_trace(500, seed=8).batches(500)))
                daemon.offer(hi, lo, sizes)
                status, epochs = _within(lambda: _get(f"{base}/epochs", timeout=2))
                assert status == 200 and epochs["total_packets"] == 7_000
                assert [m["epoch"] for m in epochs["epochs"]] == [0, 1, 2]
                behind = _within(lambda: daemon.packets_behind(0, 2_000))
                assert behind >= 5_000
                _within(lambda: daemon.observe_query(0.001))
                cold = _within(lambda: _get(_sql_url(base, SOAK_SQL, epoch=2), timeout=2))
                hot = _within(lambda: _get(_sql_url(base, SOAK_SQL, epoch=2), timeout=2))
                assert cold == hot and cold[0] == 200 and cold[1]["rows"]
                ranged = _within(lambda: _get(base + topk_range, timeout=2))
                assert ranged[0] == 200 and ranged[1]["rows"] == warm["rows"]
                status, metrics = _within(
                    lambda: _get(f"{base}/metrics", timeout=2)
                )
                assert status == 200
                assert metrics["counters"]["service.ingest.packets"] == 7_000
            finally:
                release.set()
                parker.join(timeout=10)
        daemon.close()
        assert daemon.status()["total_packets"] == 7_500

    def test_tenant_status_answers_while_a_tenant_ingests(self):
        daemon = MeasurementDaemon(make_config(tenants=("a", "b")))
        _ingest(daemon, make_trace(3_000), block=1_000)
        tenant = daemon.tenant_daemon("a")
        parked, release = threading.Event(), threading.Event()

        def park():
            with tenant._lock:  # the tenant's ingest() mid-block
                parked.set()
                release.wait(timeout=60)

        parker = threading.Thread(target=park, daemon=True)
        parker.start()
        assert parked.wait(timeout=10)
        try:
            status = _within(daemon.status)
            assert [row["tenant"] for row in status["tenants"]] == ["a", "b"]
            assert status["total_packets"] == 3_000
        finally:
            release.set()
            parker.join(timeout=10)
        assert not parker.is_alive()
        daemon.close()

    def test_a_view_taken_mid_block_counts_the_whole_block(self, monkeypatch):
        daemon = MeasurementDaemon(make_config())
        blocks = list(make_trace(3_000).batches(1_000))
        daemon.ingest(*blocks[0])
        seen = []
        feed = EpochBuilder.feed

        def spying_feed(builder, hi, lo, sizes):
            # Inside ingest(): the block is accepted but not returned.
            seen.append(
                (daemon.packets_behind(0, 0), daemon.status()["total_packets"])
            )
            feed(builder, hi, lo, sizes)

        monkeypatch.setattr(EpochBuilder, "feed", spying_feed)
        daemon.ingest(*[np.concatenate(cols) for cols in zip(*blocks[1:])])
        assert seen == [(3_000, 1_000)]
        assert (daemon.packets_behind(0, 0), daemon.status()["total_packets"]) == (3_000, 3_000)
        daemon.close()

    def test_concurrent_ingest_never_undercounts(self):
        E = self.EPOCH_PACKETS
        # 1536-packet blocks straddle the 2000-packet epoch boundary, so
        # rotations land mid-block; a 512-packet chunk keeps flushing.
        config = dataclasses.replace(make_config(epoch_packets=E), chunk=512)
        daemon = MeasurementDaemon(config)
        trace = make_trace(12_000)
        loops = 4
        feeding = threading.Event()
        feeding.set()
        errors, reads = [], [0, 0, 0]

        def reader(idx):
            last_seq = 0
            try:
                while feeding.is_set():
                    status = daemon.status()
                    s0 = status["total_packets"]
                    live = status["live"]
                    # One record: its fields agree with each other.
                    assert s0 >= last_seq, (s0, last_seq)
                    last_seq = s0
                    assert live["start_seq"] == live["epoch"] * E, live
                    assert live["flushed"] <= live["packets"] < E, live
                    assert live["start_seq"] + live["packets"] >= s0, status
                    assert all(m["epoch"] < live["epoch"] for m in status["epochs"])
                    (e, p), _ = daemon.live_planner()
                    behind = daemon.packets_behind(e, p)
                    assert e * E + p + behind >= s0, (e, p, behind, s0)
                    reads[idx] += 1
            except Exception as exc:  # pragma: no cover - failure detail
                errors.append(exc)
                raise

        pool = [threading.Thread(target=reader, args=(i,)) for i in range(3)]
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-4)
        daemon.start()
        for thread in pool:
            thread.start()
        try:
            for _ in range(loops):
                for hi, lo, sizes in trace.batches(1_536):
                    daemon.offer(hi, lo, sizes)
            daemon.stop_feeder()
        finally:
            feeding.clear()
            for thread in pool:
                thread.join(timeout=60)
            sys.setswitchinterval(previous)
        assert not any(thread.is_alive() for thread in pool)
        assert errors == [] and min(reads) > 0, (errors, reads)
        daemon.close()
        assert daemon.status()["total_packets"] == loops * len(trace)


class TestHttpOutcomeCounters:
    def test_each_outcome_lands_in_its_own_counter(self):
        daemon = MeasurementDaemon(make_config(epoch_packets=1_000))
        _ingest(daemon, make_trace(2_000), block=500)
        with ServiceServer(daemon) as server:
            base = server.url
            assert _get(f"{base}/topk?key=SrcIP&k=5&epoch=0")[0] == 200
            for url, want in [
                (f"{base}/topk?k=5", 400),
                (_sql_url(base, SOAK_SQL, epoch=99), 404),
                (f"{base}/nope", 404),
            ]:
                with pytest.raises(urllib.error.HTTPError) as err:
                    _get(url)
                assert err.value.code == want
        counters = daemon.metrics_snapshot()["counters"]
        daemon.close()
        requests = {
            name: value for name, value in counters.items()
            if name.startswith("service.http.requests.")
        }
        assert requests == {
            "service.http.requests.topk.200": 1,
            "service.http.requests.topk.400": 1,
            "service.http.requests.query.404": 1,
            "service.http.requests.other.404": 1,
        }


#: The ledger's accuracy keys: every one a one-epoch read may ask.
ARE_KEYS = (
    FIVE_TUPLE.identity_partial(),
    FIVE_TUPLE.partial("SrcIP", "DstIP"),
    FIVE_TUPLE.partial("SrcIP"),
    FIVE_TUPLE.partial(("SrcIP", 24)),
    FIVE_TUPLE.partial(("DstIP", 16)),
)

RAW_SQL = [
    f"SELECT {key}, {agg} FROM flows{where} GROUP BY {key}"
    for key in ("SrcIP/16", "SrcIP, DstIP", "SrcIP, DstIP, SrcPort, DstPort, Proto")
    for agg in ("SUM(size)", "COUNT(*)")
    for where in ("", " WHERE Proto = 6", " WHERE SrcIP/8 >= 128 AND DstPort < 1024")
]


class TestOneEpochRawPlanners:
    """A one-epoch planner keeps raw bucket rows and answers bit for bit
    as the grouped planner does."""

    @pytest.mark.parametrize(
        "engine,shards,strategy",
        [
            ("numpy", 1, "hash"),
            ("numpy", 2, "hash"),
            # Round-robin shards share keys, so the epoch's table holds
            # a key once per shard: raw rows repeat keys.
            ("numpy", 2, "round-robin"),
            ("scalar", 1, "hash"),
        ],
    )
    def test_raw_planner_matches_grouped(self, engine, shards, strategy, monkeypatch):
        from repro.core.sql import run_query
        from repro.query.columns import ColumnTable

        daemon = MeasurementDaemon(
            make_config(
                engine=engine, shards=shards, strategy=strategy,
                epoch_packets=2_000, l=256,
            )
        )
        blocks = list(make_trace(8_000).batches(1_000))
        for n, (hi, lo, sizes) in enumerate(blocks):
            if n == 3:
                daemon.set_geometry(512)  # epoch 2 on is twice as wide
            daemon.ingest(hi, lo, sizes)
        daemon.close()
        widths = [meta["l"] for meta in daemon.store.metas()]
        assert widths == [256, 256, 512, 512], widths

        full_sorts = []
        group = ColumnTable.group

        def counting_group(table):
            if not table.grouped and table.spec == FIVE_TUPLE:
                full_sorts.append(table)
            return group(table)

        monkeypatch.setattr(ColumnTable, "group", counting_group)
        repeats = 0
        for epoch in daemon.store.ids():
            grouped = QueryPlanner(daemon.store.get(epoch).table, FIVE_TUPLE)
            raw = daemon.epoch_planner(epoch)
            # Engines export raw bucket rows; scalar tables are dicts,
            # packed and grouped at extraction.
            assert raw.base.grouped == (engine == "scalar")
            repeats += len(raw.base) - len(grouped.base)
            full_sorts.clear()  # extraction sorts are not the planner's
            # SQL first: COUNT(*) and WHERE must group the raw rows
            # themselves, before any full-key table has done it.
            for sql in RAW_SQL:
                assert run_query(sql, planner=raw) == run_query(
                    sql, planner=grouped
                ), (epoch, sql)
            for partial in ARE_KEYS:
                want = grouped.table(partial)
                got = raw.table(partial)
                assert np.array_equal(got.words, want.words), (epoch, partial)
                assert np.array_equal(got.values, want.values), (epoch, partial)
                assert got.top_k(10) == want.top_k(10)
            # The raw base was sorted once, for the first full-key query,
            # and the grouped table took its place.
            assert len(full_sorts) == (engine != "scalar"), (epoch, full_sorts)
            assert raw.grouped_base() is raw.grouped_base() is raw.base
        assert (repeats > 0) == (strategy == "round-robin"), repeats


#: Epochs 0-1 at l=256, 2-3 at 512 (a grow), 4-5 at 128 (a shrink).
RESIZES = {3: 512, 7: 128}

#: Ranges within and across both resizes.
RANGES = [(0, 5), (1, 2), (3, 4), (0, 3), (2, 5), (4, 5)]


def resized_daemon(engine, shards, strategy, history=64):
    daemon = MeasurementDaemon(
        make_config(
            engine=engine, shards=shards, strategy=strategy,
            epoch_packets=2_000, l=256, history=history,
        )
    )
    for n, (hi, lo, sizes) in enumerate(make_trace(12_000).batches(1_000)):
        if n in RESIZES:
            daemon.set_geometry(RESIZES[n])
        daemon.ingest(hi, lo, sizes)
    daemon.close()
    return daemon


class TestRangeSums:
    """A multi-epoch range is two bincounts over the store's key
    dictionary, and answers bit for bit as grouping the concatenated
    epoch tables does."""

    @pytest.mark.parametrize("engine", ["numpy", "scalar"])
    @pytest.mark.parametrize(
        "shards,strategy",
        [
            (1, "hash"),
            (2, "hash"),
            # Round-robin shards share keys: the tables repeat them.
            (2, "round-robin"),
        ],
    )
    def test_two_bincounts_equal_concat_and_group(self, engine, shards, strategy):
        from repro.core.sql import run_query

        daemon = resized_daemon(engine, shards, strategy)
        widths = [meta["l"] for meta in daemon.store.metas()]
        assert widths == [256, 256, 512, 512, 128, 128], widths
        partials = list(ARE_KEYS) + random_partial_specs(6, seed=23)
        sql = RAW_SQL + [
            "SELECT DstIP/24, SUM(size) FROM flows GROUP BY DstIP/24 "
            "ORDER BY SUM(size) DESC LIMIT 7",
        ]
        for lo, hi in RANGES:
            got = daemon.range_planner(lo, hi)
            want = concat_reference(daemon.store, lo, hi)
            for partial in partials:
                a, b = got.table(partial), want.table(partial)
                assert np.array_equal(a.words, b.words), (lo, hi, partial)
                assert np.array_equal(a.values, b.values), (lo, hi, partial)
                assert a.top_k(10) == b.top_k(10), (lo, hi, partial)
            full_a, full_b = got.grouped_base(), want.grouped_base()
            assert np.array_equal(full_a.words, full_b.words), (lo, hi)
            assert np.array_equal(full_a.values, full_b.values), (lo, hi)
            assert full_a.total == sum(
                daemon.store.get(e).packets for e in range(lo, hi + 1)
            )
            for text in sql:
                assert run_query(text, planner=got) == run_query(
                    text, planner=want
                ), (lo, hi, text)
        # Every range read shares one dictionary of the epochs' keys.
        assert daemon.store.dictionary_keys() == len(
            concat_reference(daemon.store, 0, 5).grouped_base()
        )

    def test_one_epoch_reads_never_touch_the_dictionary(self):
        daemon = resized_daemon("numpy", 2, "hash")
        for epoch in daemon.store.ids():
            daemon.epoch_planner(epoch).table(ARE_KEYS[1])
            daemon.range_planner(epoch, epoch).table(ARE_KEYS[2])
        assert daemon.store.dictionary_keys() == 0

    def test_key_churn_keeps_the_dictionary_within_twice_the_live_keys(self):
        # Every epoch's flows are new (SrcIP's top byte is the epoch),
        # so each eviction leaves its keys unreferenced.
        epochs, flows, per_epoch = 12, 150, 1_500
        rng = random.Random(4)
        history = 4
        daemon = MeasurementDaemon(
            make_config(epoch_packets=per_epoch, l=1024, history=history)
        )
        key = FIVE_TUPLE.partial(("SrcIP", 16), "DstPort")
        for e in range(epochs):
            pool = [(e << 96) | rng.getrandbits(96) for _ in range(flows)]
            keys = [rng.choice(pool) for _ in range(per_epoch)]
            trace = Trace(FIVE_TUPLE, keys, name=f"epoch-{e}")
            for hi, lo, sizes in trace.batches(per_epoch):
                daemon.ingest(hi, lo, sizes)
            ids = daemon.store.ids()
            if len(ids) < 2:
                continue
            got = daemon.range_planner(ids[0], ids[-1])
            want = concat_reference(daemon.store, ids[0], ids[-1])
            live = len(want.grouped_base())
            assert daemon.store.dictionary_keys() <= 2 * live, (e, live)
            for partial in (key, FIVE_TUPLE.identity_partial()):
                a, b = got.table(partial), want.table(partial)
                assert np.array_equal(a.words, b.words), (e, partial)
                assert np.array_equal(a.values, b.values), (e, partial)
        counters = daemon.metrics_snapshot()["counters"]
        assert counters["service.epochs.dictionary.compactions"] >= 2
        daemon.close()

    def test_store_writes_never_wait_on_a_dictionary_build(self):
        store = EpochStore(history=2)
        for epoch in range(2):
            store.add(bare_snapshot(epoch))
        with store._range_lock:  # a range read mid dictionary build
            _within(lambda: store.add(bare_snapshot(2)))
            assert _within(lambda: store.get(2)).epoch == 2
            assert [m["epoch"] for m in _within(store.metas)] == [1, 2]

    def test_a_range_over_an_evicted_epoch_is_never_partial(self):
        history, per_epoch = 3, 500
        daemon = MeasurementDaemon(
            make_config(epoch_packets=per_epoch, history=history)
        )
        trace = make_trace(8_000)
        blocks = list(trace.batches(250))
        sizes = next(iter(trace.batches(len(trace))))[2]
        for hi, lo, sz in blocks[:6]:
            daemon.ingest(hi, lo, sz)
        feeding = threading.Event()
        feeding.set()
        outcomes = [[0, 0] for _ in range(4)]
        errors = []
        key = FIVE_TUPLE.partial(("SrcIP", 8))

        def reader(idx):
            rng = random.Random(idx)
            try:
                while feeding.is_set():
                    newest = daemon.store.ids()[-1]
                    lo = rng.randint(max(newest - history, 0), newest - 1)
                    hi = rng.randint(lo + 1, newest)
                    try:
                        total = daemon.range_planner(lo, hi).table(key).total
                    except KeyError:
                        outcomes[idx][1] += 1
                        continue
                    want = sizes[lo * per_epoch:(hi + 1) * per_epoch].sum()
                    assert total == want, (lo, hi, total, want)
                    outcomes[idx][0] += 1
            except Exception as exc:  # pragma: no cover - failure detail
                errors.append(exc)
                raise

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            pool = [threading.Thread(target=reader, args=(i,)) for i in range(4)]
            for thread in pool:
                thread.start()
            for hi, lo, sz in blocks[6:]:
                daemon.ingest(hi, lo, sz)
            feeding.clear()
            for thread in pool:
                thread.join(timeout=60)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(previous)
        assert errors == []
        assert sum(served for served, _ in outcomes) > 0
        daemon.close()


class TestShardedGovernorDecisions:
    """The governor reads the union of the shards' occupied masks,
    which is the occupancy the Theorem 1 shard fold used to hold."""

    # Per-epoch widths and resize counts, recorded with the shard fold.
    EXPECTED = {
        ("numpy", "hash"): ([128, 256, 512] + [1024] * 4 + [512] * 5, 4),
        ("numpy", "round-robin"): ([128, 256, 512] + [1024] * 9, 3),
        ("scalar", "hash"): ([128, 256, 512] + [1024] * 4 + [512] * 5, 4),
    }

    @pytest.mark.parametrize("engine,strategy", sorted(EXPECTED))
    def test_resize_decisions_match_the_shard_fold(
        self, engine, strategy, monkeypatch
    ):
        from repro.extensions.merging import merge_many
        from repro.traffic.synthetic import caida_like, mawi_like

        folded = []
        occupancy = EpochBuilder.occupancy

        def checked(builder):
            value = occupancy(builder)
            fold = merge_many(builder.live_sketches(), seed=builder.epoch)
            folded.append((value, float(np.mean(
                [[k is not None for k in row] for row in fold._keys]
            )) if engine == "scalar" else fold.occupancy()))
            return value

        monkeypatch.setattr(EpochBuilder, "occupancy", checked)
        trace = Trace(
            FIVE_TUPLE,
            caida_like(24_000, 3_500, seed=5).keys
            + mawi_like(24_000, 1_200, seed=6).keys,
            name="shifting",
        )
        config = dataclasses.replace(
            make_config(
                engine=engine, shards=2, strategy=strategy, l=128,
                epoch_packets=4_000,
            ),
            governor=GovernorConfig(
                memory_bytes=2 * 2 * 2048 * (DEFAULT_KEY_BYTES + COUNTER_BYTES)
            ),
        )
        daemon = MeasurementDaemon(config)
        for hi, lo, sizes in trace.batches(3_000):
            daemon.ingest(hi, lo, sizes)
        daemon.close()
        widths, resizes = self.EXPECTED[(engine, strategy)]
        assert [meta["l"] for meta in daemon.store.metas()] == widths
        assert _counter(daemon, "control.resizes") == resizes
        assert len(folded) == len(widths)
        assert all(ours == fold for ours, fold in folded), folded
