"""Tests for the sharded multi-worker pipeline (engine.sharded + parallel).

Four layers of guarantees:

* partitioning properties (flow purity, order preservation, determinism),
* ``shards=1`` bit-identity with the unsharded engines,
* answers equal to the sum of the shard sketches' tables, and
* the statistical gate — a 4-worker run's per-flow estimates are
  unbiased and its partial-key error profile matches the single-sketch
  reference within the harness margins (:mod:`tests.stat_harness`).
"""

import multiprocessing
import threading

import numpy as np
import pytest

from repro import obs
from repro.core.serialize import dump_sketch, load_sketch
from repro.engine import get_engine
from repro.engine.sharded import (
    _PARTITION_SALT,
    PARTITION_STRATEGIES,
    ShardedSketch,
    SketchSpec,
    partition_columns,
    shard_assignments,
)
from repro.flowkeys.key import FIVE_TUPLE, IPV6_FIVE_TUPLE
from repro.hashing.family import mix64
from repro.parallel import (
    WORKER_CREDITS,
    ShardWorkerError,
    StreamDriver,
    worker_seed,
)
from repro.query.columns import ColumnTable
from repro.sketches.base import STREAM_BATCH
from repro.tasks.harness import FullKeyEstimator
from repro.traffic.synthetic import zipf_trace
from tests.stat_harness import (
    assert_error_profile,
    assert_unbiased,
    trial_estimates,
)


def _columns(trace):
    return next(trace.batches(len(trace)))


def _total_mass(sketch) -> float:
    vals = sketch._vals
    if hasattr(vals, "sum"):
        return float(vals.sum())
    return float(sum(sum(row) for row in vals))


def _sharded_mass(sharded) -> float:
    return sum(_total_mass(s) for s in sharded.sketches)


def _dumps(sharded):
    return [dump_sketch(s) for s in sharded.sketches]


class TestPartitioning:
    def test_assignments_in_range_and_deterministic(self, tiny_trace):
        hi, lo, _ = _columns(tiny_trace)
        a1 = shard_assignments(hi, lo, 4, "hash", seed=7)
        a2 = shard_assignments(hi, lo, 4, "hash", seed=7)
        assert a1.min() >= 0 and a1.max() < 4
        assert np.array_equal(a1, a2)

    def test_seed_changes_hash_partition(self, tiny_trace):
        hi, lo, _ = _columns(tiny_trace)
        a1 = shard_assignments(hi, lo, 4, "hash", seed=7)
        a2 = shard_assignments(hi, lo, 4, "hash", seed=8)
        assert not np.array_equal(a1, a2)

    def test_hash_partition_is_flow_pure(self, tiny_trace):
        hi, lo, _ = _columns(tiny_trace)
        assign = shard_assignments(hi, lo, 4, "hash", seed=3)
        shard_of = {}
        for h, l_, a in zip(hi.tolist(), lo.tolist(), assign.tolist()):
            assert shard_of.setdefault((h, l_), a) == a

    def test_round_robin_deals_in_order(self, tiny_trace):
        hi, lo, _ = _columns(tiny_trace)
        assign = shard_assignments(hi, lo, 3, "round-robin")
        expected = np.arange(len(lo), dtype=np.int64) % 3
        assert np.array_equal(assign, expected)

    @pytest.mark.parametrize("shards", [3, 4])
    def test_assignments_are_mod_shards(self, tiny_trace, shards):
        # 4 shards reduce with a mask, 3 with a modulo: the same rule.
        hi, lo, _ = _columns(tiny_trace)
        salt = mix64(3 ^ _PARTITION_SALT)
        hashed = [mix64(h ^ l_ ^ salt) for h, l_ in zip(hi.tolist(), lo.tolist())]
        assign = shard_assignments(hi, lo, shards, "hash", seed=3)
        assert assign.tolist() == [h % shards for h in hashed]
        dealt = shard_assignments(hi, lo, shards, "round-robin", offset=5)
        assert dealt.tolist() == [(5 + i) % shards for i in range(len(lo))]

    @pytest.mark.parametrize("strategy", PARTITION_STRATEGIES)
    def test_partition_conserves_packets_and_mass(self, tiny_trace, strategy):
        hi, lo, sizes = _columns(tiny_trace)
        parts = partition_columns(hi, lo, sizes, 4, strategy, seed=1)
        assert len(parts) == 4
        assert sum(len(s) for _, _, s in parts) == len(sizes)
        assert sum(int(s.sum()) for _, _, s in parts) == int(sizes.sum())

    def test_partition_preserves_arrival_order(self, tiny_trace):
        hi, lo, sizes = _columns(tiny_trace)
        order = np.arange(len(sizes), dtype=np.int64)
        assign = shard_assignments(hi, lo, 4, "hash", seed=1)
        for shard in range(4):
            within = order[assign == shard]
            assert np.array_equal(within, np.sort(within))

    def test_single_shard_takes_everything(self, tiny_trace):
        hi, lo, sizes = _columns(tiny_trace)
        (only,) = partition_columns(hi, lo, sizes, 1, "hash", seed=1)
        assert np.array_equal(only[0], hi)
        assert np.array_equal(only[1], lo)
        assert np.array_equal(only[2], sizes)

    def test_validation(self, tiny_trace):
        hi, lo, _ = _columns(tiny_trace)
        with pytest.raises(ValueError):
            shard_assignments(hi, lo, 0)
        with pytest.raises(ValueError):
            shard_assignments(hi, lo, 2, strategy="modulo")
        with pytest.raises(ValueError):
            ShardedSketch(SketchSpec(), 0)
        with pytest.raises(ValueError):
            ShardedSketch(SketchSpec(), 2, strategy="modulo")

    def test_worker_seeds_decorrelated_but_reproducible(self):
        seeds = [worker_seed(5, shard) for shard in range(8)]
        assert len(set(seeds)) == 8
        assert seeds == [worker_seed(5, shard) for shard in range(8)]


class TestShardsOneBitIdentity:
    """shards=1 replays the unsharded execution exactly (satellite 2)."""

    @pytest.mark.parametrize("engine", ["scalar", "numpy"])
    def test_state_bit_identical(self, tiny_trace, engine):
        spec = SketchSpec(engine=engine, variant="basic", d=2, l=128, seed=11)
        plain = spec.build()
        plain.process(tiny_trace)
        sharded = ShardedSketch(spec, 1, processes=False)
        sharded.process(tiny_trace)
        assert _dumps(sharded) == [dump_sketch(plain)]

    @pytest.mark.parametrize("engine", ["scalar", "numpy"])
    def test_estimator_tables_identical(self, tiny_trace, engine):
        def build():
            return get_engine(engine).cocosketch(d=2, l=128, seed=11)

        ref = FullKeyEstimator(build(), FIVE_TUPLE)
        ref.process(tiny_trace)
        est = FullKeyEstimator(
            build(), FIVE_TUPLE, shards=1, shard_processes=False
        )
        est.process(tiny_trace)
        for partial in (FIVE_TUPLE.partial("SrcIP"), FIVE_TUPLE.partial("DstIP")):
            assert est.table(partial) == ref.table(partial)

    @pytest.mark.parametrize("engine", ["scalar", "numpy"])
    def test_hardware_variant_bit_identical(self, tiny_trace, engine):
        spec = SketchSpec(engine=engine, variant="hardware", d=2, l=128, seed=4)
        plain = spec.build()
        plain.process(tiny_trace)
        sharded = ShardedSketch(spec, 1, processes=False)
        sharded.process(tiny_trace)
        assert _dumps(sharded) == [dump_sketch(plain)]


class TestShardedPipeline:
    @pytest.mark.parametrize("strategy", PARTITION_STRATEGIES)
    def test_mass_conserved(self, tiny_trace, strategy):
        spec = SketchSpec(engine="numpy", d=2, l=256, seed=2)
        sketch = ShardedSketch(spec, 4, strategy=strategy, processes=False)
        sketch.process(tiny_trace)
        assert _sharded_mass(sketch) == tiny_trace.total_size

    @pytest.mark.parametrize("variant", ["basic", "hardware"])
    @pytest.mark.parametrize("engine", ["scalar", "numpy"])
    def test_pool_matches_serial_bit_for_bit(self, tiny_trace, engine, variant):
        spec = SketchSpec(engine=engine, variant=variant, d=2, l=128, seed=6)
        serial = ShardedSketch(spec, 2, processes=False)
        serial.process(tiny_trace)
        pooled = ShardedSketch(spec, 2, processes=True)
        pooled.process(tiny_trace)
        assert _dumps(pooled) == _dumps(serial)

    def test_pool_metrics_match_serial(self, tiny_trace):
        """Worker snapshots cross the process boundary intact."""
        spec = SketchSpec(engine="numpy", d=2, l=128, seed=6)
        counters = []
        for processes in (False, True):
            with obs.collecting() as reg:
                ShardedSketch(spec, 2, processes=processes).process(tiny_trace)
            counters.append({
                name: value
                for name, value in reg.snapshot()["counters"].items()
                if name.startswith("sketch.") or name == "worker.packets"
            })
        assert counters[0] == counters[1]
        assert counters[0]["worker.packets"] == len(tiny_trace)
        assert counters[0]["sketch.packets"] == len(tiny_trace)

    def test_repeated_process_accumulates(self, tiny_trace):
        spec = SketchSpec(engine="numpy", d=2, l=256, seed=2)
        sketch = ShardedSketch(spec, 2, processes=False)
        per_worker = spec.build().memory_bytes()
        assert sketch.memory_bytes() == 2 * per_worker
        sketch.process(tiny_trace)
        sketch.process(tiny_trace)
        assert len(sketch.sketches) == 4
        assert sketch.memory_bytes() == 4 * per_worker
        assert _sharded_mass(sketch) == 2 * tiny_trace.total_size

    def test_reset_restores_fresh_pipeline(self, tiny_trace):
        spec = SketchSpec(engine="numpy", d=2, l=256, seed=2)
        sketch = ShardedSketch(spec, 2, processes=False)
        sketch.process(tiny_trace)
        first = _dumps(sketch)
        sketch.reset()
        assert sketch.sketches == []
        assert sketch.flow_table() == {}
        assert sketch.query(123) == 0.0
        sketch.process(tiny_trace)
        assert _dumps(sketch) == first

    def test_update_paths_refused(self):
        sketch = ShardedSketch(SketchSpec(), 2, processes=False)
        with pytest.raises(NotImplementedError):
            sketch.update(1, 1)
        with pytest.raises(NotImplementedError):
            sketch.update_batch(([1], [2]), [1])

    def test_memory_accounts_all_workers(self):
        spec = SketchSpec(d=2, l=128)
        assert (
            ShardedSketch(spec, 4).memory_bytes()
            == 4 * spec.build().memory_bytes()
        )

    def test_worker_reports_in_shard_order(self, tiny_trace):
        spec = SketchSpec(engine="scalar", d=2, l=128, seed=6)
        sketch = ShardedSketch(spec, 3, processes=False)
        sketch.process(tiny_trace)
        reports = sketch.worker_reports
        assert [r.shard for r in reports] == [0, 1, 2]
        assert sum(r.packets for r in reports) == len(tiny_trace)
        assert sketch.wall_elapsed_s >= 0.0

    def test_estimator_shards_mode_rejects_double_sharding(self):
        sharded = ShardedSketch(SketchSpec(), 2)
        with pytest.raises(ValueError):
            FullKeyEstimator(sharded, FIVE_TUPLE, shards=2)

    def test_spec_from_deserialized_sketch_fails_loudly(self):
        sketch = load_sketch(dump_sketch(SketchSpec(d=1, l=8).build()))
        with pytest.raises(ValueError):
            SketchSpec.from_sketch(sketch)


class TestDriverLiveness:
    """A shard worker that raises or dies fails the driver, never hangs it."""

    @staticmethod
    def _run_bounded(fn):
        """Run *fn* in a thread joined with a 10 s timeout; its error."""
        raised = []

        def target():
            try:
                fn()
            except BaseException as exc:
                raised.append(exc)

        thread = threading.Thread(target=target, daemon=True)
        thread.start()
        thread.join(timeout=10)
        assert not thread.is_alive(), "driver hung behind a failed worker"
        assert len(raised) == 1, raised
        return raised[0]

    def test_raising_worker_fails_results(self, tiny_trace):
        spec = SketchSpec(engine="numpy", d=2, l=128, seed=6)
        hi, lo, sizes = _columns(tiny_trace)
        driver = StreamDriver(spec, 2, processes=True)

        def run():
            driver.send(0, hi[:10], lo[:10], sizes[:5])  # malformed chunk
            driver.send(1, hi, lo, sizes)
            list(driver.results())

        error = self._run_bounded(run)
        assert isinstance(error, ShardWorkerError)
        assert error.shard == 0
        assert "shard 0" in str(error)
        assert all(proc.exitcode is not None for proc in driver._procs)

    def test_killed_worker_fails_the_driver(self, tiny_trace):
        spec = SketchSpec(engine="numpy", d=2, l=128, seed=6)
        hi, lo, sizes = _columns(tiny_trace)
        driver = StreamDriver(spec, 2, processes=True)

        def run():
            driver.send(0, hi, lo, sizes)
            driver._procs[0].terminate()
            driver._procs[0].join()
            # Enough chunks to exhaust the dead worker's credits.
            for _ in range(WORKER_CREDITS + 1):
                driver.send(0, hi, lo, sizes)
            list(driver.results())

        error = self._run_bounded(run)
        assert isinstance(error, ShardWorkerError)
        assert error.shard == 0
        assert all(proc.exitcode is not None for proc in driver._procs)

    @staticmethod
    def _failing_source():
        """One full scatter block, then an error from the source."""
        for key in range(STREAM_BATCH + 10):
            yield key, 1
        raise RuntimeError("packet source failed")

    @staticmethod
    def _wide_keys():
        """Keys wider than 128 bits: packing the first block raises."""
        for i in range(50):
            yield IPV6_FIVE_TUPLE.pack((1 << 127) | i, 7, 443, 80, 6), 1

    @pytest.mark.parametrize(
        "source, error",
        [("_failing_source", RuntimeError), ("_wide_keys", ValueError)],
        ids=["source-raises", "wide-keys"],
    )
    def test_scatter_error_stops_the_workers(self, source, error):
        """An error out of the scatter loop stops the shard workers
        before it propagates; none is left alive to hang the exit."""
        spec = SketchSpec(
            engine="numpy", d=2, l=64, key_bytes=IPV6_FIVE_TUPLE.width_bytes
        )
        sketch = ShardedSketch(spec, 2, processes=True)
        before = set(multiprocessing.active_children())
        raised = self._run_bounded(lambda: sketch.process(getattr(self, source)()))
        assert isinstance(raised, error)
        assert not set(multiprocessing.active_children()) - before
        assert sketch.sketches == []


class TestShardedStatistics:
    """The statistical gate: sharded estimates behave like Theorem 1 says."""

    @pytest.mark.parametrize("strategy", PARTITION_STRATEGIES)
    def test_four_worker_estimates_unbiased_per_flow(
        self, tiny_trace, strategy
    ):
        key = max(tiny_trace.full_counts(), key=tiny_trace.full_counts().get)
        truth = tiny_trace.full_counts()[key]

        def estimate(seed: int) -> float:
            spec = SketchSpec(engine="scalar", d=2, l=128, seed=seed)
            sketch = ShardedSketch(
                spec, 4, strategy=strategy, processes=False
            )
            sketch.process(tiny_trace)
            return sketch.query(key)

        samples = trial_estimates(estimate, trials=30, base_seed=60)
        assert_unbiased(
            samples, truth, label=f"4-shard {strategy} heavy-flow estimate"
        )

    def test_sharded_error_profile_matches_single_sketch(self, small_trace):
        """4-worker partial-key ARE within harness margin of one sketch.

        The sharded answer sums four shard sketches' tables: unbiased,
        with the four workers' buckets all in use, so at a light-load
        operating point its ARE sits at or near the single-sketch ARE.
        The harness's 2-point absolute floor is kept as a margin for
        seed noise; a biased or broken sum lands far outside it (an
        overloaded sketch shows +12 points).
        """
        partial = FIVE_TUPLE.partial("SrcIP")
        truth = small_trace.ground_truth(partial)
        threshold = 2e-3 * small_trace.total_size
        heavy = {k: v for k, v in truth.items() if v >= threshold}
        assert heavy

        def are_of(table) -> float:
            return sum(
                abs(table.get(k, 0.0) - v) / v for k, v in heavy.items()
            ) / len(heavy)

        def run_pair(seed: int):
            def build():
                return get_engine("numpy").cocosketch(d=2, l=16384, seed=seed)

            single = FullKeyEstimator(build(), FIVE_TUPLE)
            single.process(small_trace)
            sharded = FullKeyEstimator(
                build(), FIVE_TUPLE, shards=4, shard_processes=False
            )
            sharded.process(small_trace)
            return are_of(sharded.table(partial)), are_of(single.table(partial))

        pairs = [run_pair(1000 + i) for i in range(8)]
        assert_error_profile(
            [c for c, _ in pairs],
            [r for _, r in pairs],
            abs_floor=0.02,
            label="4-shard SrcIP ARE",
        )


class TestShardedThroughputReporting:
    def test_reports_cover_all_workers(self, tiny_trace):
        spec = SketchSpec(engine="numpy", d=2, l=256, seed=5)
        sketch = ShardedSketch(spec, 4, processes=False)
        sketch.process(tiny_trace)
        result = sketch.throughput()
        assert result.shards == 4
        assert result.packets == len(tiny_trace)
        assert result.aggregate_pps > 0
        assert len(result.worker_pps) == 4
        assert result.capacity_pps == pytest.approx(sum(result.worker_pps))
        assert result.capacity_pps >= max(result.worker_pps)
        assert result.load_imbalance >= 1.0
        assert "4 worker(s)" in result.summary()

    def test_cli_estimator_path_reports(self, tiny_trace):
        est = FullKeyEstimator(
            get_engine("numpy").cocosketch(d=2, l=256, seed=5),
            FIVE_TUPLE,
            shards=2,
            shard_processes=False,
        )
        est.process(tiny_trace)
        assert est.sketch.throughput().shards == 2


class TestShardSum:
    """A sharded run answers from the sum of its shard sketches' tables.

    Per-flow estimates of disjoint sub-streams add (Lemma 3), so the
    combined table is the group-by of the shards' concatenated rows;
    no coin flip is drawn to combine them.
    """

    @pytest.mark.parametrize("shards", [1, 2, 4])
    @pytest.mark.parametrize("processes", [False, True])
    @pytest.mark.parametrize("strategy", PARTITION_STRATEGIES)
    @pytest.mark.parametrize("engine", ["numpy", "scalar"])
    def test_answers_equal_sum_of_shard_tables(
        self, tiny_trace, engine, strategy, processes, shards
    ):
        spec = SketchSpec(engine=engine, d=2, l=64, seed=21)
        sharded = ShardedSketch(
            spec, shards, strategy=strategy, processes=processes
        )
        sharded.process(tiny_trace)
        parts = sharded.sketches
        assert len(parts) == shards

        ref = ColumnTable.concat_many(
            [ColumnTable.from_sketch(s, FIVE_TUPLE, group=False) for s in parts]
        ).group()
        got = ColumnTable.from_sketch(sharded, FIVE_TUPLE)
        assert np.array_equal(got.words, ref.words)
        assert np.array_equal(got.values, ref.values)

        summed = {}
        for part in parts:
            for key, size in part.flow_table().items():
                summed[key] = summed.get(key, 0.0) + size
        assert sharded.flow_table() == summed
        assert sum(summed.values()) == tiny_trace.total_size

        keys = sorted(tiny_trace.full_counts())[:50] + [12345]
        for key in keys:
            assert sharded.query(key) == sum(p.query(key) for p in parts)
