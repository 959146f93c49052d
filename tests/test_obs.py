"""Unit tests for the observability layer (:mod:`repro.obs`)."""

import numpy as np
import pytest

from repro import obs
from repro.obs.registry import (
    DEFAULT_EDGES,
    NULL_REGISTRY,
    TIME_EDGES,
    Histogram,
    MetricsRegistry,
    collecting,
    format_snapshot,
    get_registry,
    histogram_quantile,
    set_registry,
)
from repro.obs.replay import (
    PURPOSE_ADOPT,
    PURPOSE_TIEBREAK,
    replay_draw,
    replay_draws,
    replay_seed,
)
from repro.obs.schema import SchemaError, validate_snapshot
from repro.obs.stats import CocoStats


class TestRegistry:
    def test_counters_gauges_accumulate(self):
        reg = MetricsRegistry()
        reg.inc("a.b", 3)
        reg.inc("a.b")
        reg.set_gauge("g", 1.5)
        reg.set_gauge("g", 2.5)
        snap = reg.snapshot()
        assert snap["counters"] == {"a.b": 4}
        assert snap["gauges"] == {"g": 2.5}

    def test_histogram_bucket_rule(self):
        # Bucket i covers edges[i-1] < v <= edges[i]; the final slot is
        # the +inf overflow.
        h = Histogram("h", edges=(1.0, 2.0, 4.0))
        for v in (0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 100.0):
            h.observe(v)
        assert h.counts == [2, 2, 2, 1]
        assert h.count == 7
        assert h.min == 0.5 and h.max == 100.0

    def test_time_edges_are_log_linear(self):
        assert TIME_EDGES[0] == 1e-5 and TIME_EDGES[-1] == 100.0
        assert list(TIME_EDGES) == sorted(set(TIME_EDGES))
        # No bucket is wider than a quarter of its power of two.
        for below, edge in zip(TIME_EDGES, TIME_EDGES[1:]):
            assert edge - below <= 2.0 ** np.floor(np.log2(below)) / 4 * (1 + 1e-12)

    def test_latency_quantiles_are_distinct_and_within_one_sub_bucket(self):
        rng = np.random.default_rng(5)
        latencies = np.exp(rng.uniform(np.log(1e-3), np.log(50e-3), 2_000))
        h = Histogram("service.query.seconds", TIME_EDGES)
        for v in latencies:
            h.observe(v)
        payload = {  # the per-histogram dict a snapshot carries
            "edges": list(h.edges), "counts": list(h.counts),
            "count": h.count, "max": h.max,
        }
        ordered = np.sort(latencies)
        estimates = []
        for q in (0.50, 0.90, 0.99):
            exact = ordered[int(np.ceil(q * len(ordered))) - 1]
            estimate = histogram_quantile(payload, q)
            # The estimate is the upper edge of the exact value's bucket.
            i = TIME_EDGES.index(estimate)
            assert TIME_EDGES[i - 1] < exact <= estimate, (q, exact, estimate)
            estimates.append(estimate)
        assert len(set(estimates)) == 3, estimates

    def test_histogram_rejects_unsorted_edges(self):
        with pytest.raises(ValueError, match="ascending"):
            Histogram("h", edges=(2.0, 1.0))

    def test_span_timing(self):
        reg = MetricsRegistry()
        with reg.span("stage"):
            pass
        with reg.span("stage"):
            pass
        s = reg.snapshot()["spans"]["stage"]
        assert s["count"] == 2
        assert s["total_s"] >= 0.0
        assert s["min_s"] <= s["max_s"]

    def test_snapshot_is_schema_valid_and_json_safe(self):
        import json

        reg = MetricsRegistry()
        reg.inc("c", 2)
        reg.set_gauge("g", 0.25)
        reg.observe("h", 17)
        with reg.span("s"):
            pass
        snap = reg.snapshot(meta={"run": "unit"})
        validate_snapshot(snap)
        assert json.loads(reg.to_json(meta={"run": "unit"})) is not None

    def test_merge_snapshot_folds_everything(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        for reg, n in ((a, 2), (b, 5)):
            reg.inc("c", n)
            reg.observe("h", n)
            with reg.span("s"):
                pass
        a.merge_snapshot(b.snapshot())
        snap = a.snapshot()
        assert snap["counters"]["c"] == 7
        assert snap["histograms"]["h"]["count"] == 2
        assert snap["histograms"]["h"]["sum"] == 7.0
        assert snap["histograms"]["h"]["min"] == 2.0
        assert snap["histograms"]["h"]["max"] == 5.0
        assert snap["spans"]["s"]["count"] == 2

    def test_merge_rejects_edge_mismatch(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.observe("h", 1, edges=(1.0, 2.0))
        b.observe("h", 1, edges=(1.0, 4.0))
        with pytest.raises(ValueError, match="edge mismatch"):
            a.merge_snapshot(b.snapshot())

    def test_merge_is_associative_on_counts(self):
        # (a + b) + c == a + (b + c): fold order must not matter.
        def make(n):
            r = MetricsRegistry()
            r.inc("c", n)
            r.observe("h", n)
            return r.snapshot()

        left = MetricsRegistry()
        left.merge_snapshot(make(1))
        left.merge_snapshot(make(2))
        left.merge_snapshot(make(3))
        mid = MetricsRegistry()
        mid.merge_snapshot(make(2))
        mid.merge_snapshot(make(3))
        right = MetricsRegistry()
        right.merge_snapshot(make(1))
        right.merge_snapshot(mid.snapshot())
        assert left.snapshot() == right.snapshot()


class TestNullRegistry:
    def test_default_is_disabled(self):
        assert get_registry() is NULL_REGISTRY
        assert not get_registry().enabled

    def test_noop_operations(self):
        NULL_REGISTRY.inc("x", 5)
        NULL_REGISTRY.set_gauge("x", 5)
        NULL_REGISTRY.observe("x", 5)
        with NULL_REGISTRY.span("x"):
            pass
        snap = NULL_REGISTRY.snapshot()
        assert snap["counters"] == {}
        assert snap["spans"] == {}
        validate_snapshot(snap)

    def test_collecting_installs_and_restores(self):
        assert get_registry() is NULL_REGISTRY
        with collecting() as reg:
            assert get_registry() is reg
            assert reg.enabled
            get_registry().inc("seen")
        assert get_registry() is NULL_REGISTRY
        assert reg.snapshot()["counters"]["seen"] == 1

    def test_set_registry_returns_previous(self):
        reg = MetricsRegistry()
        previous = set_registry(reg)
        try:
            assert previous is NULL_REGISTRY
            assert get_registry() is reg
        finally:
            set_registry(previous)


class TestSchema:
    def _valid(self):
        reg = MetricsRegistry()
        reg.inc("c")
        reg.observe("h", 3)
        with reg.span("s"):
            pass
        return reg.snapshot()

    def test_rejects_wrong_schema_id(self):
        snap = self._valid()
        snap["schema"] = "other/v9"
        with pytest.raises(SchemaError, match="schema"):
            validate_snapshot(snap)

    def test_rejects_negative_counter(self):
        snap = self._valid()
        snap["counters"]["c"] = -1
        with pytest.raises(SchemaError, match="non-negative"):
            validate_snapshot(snap)

    def test_rejects_count_mismatch(self):
        snap = self._valid()
        snap["histograms"]["h"]["count"] += 1
        with pytest.raises(SchemaError, match="sum"):
            validate_snapshot(snap)

    def test_rejects_bad_edges(self):
        snap = self._valid()
        snap["histograms"]["h"]["edges"] = [4.0, 1.0]
        with pytest.raises(SchemaError):
            validate_snapshot(snap)

    def test_format_snapshot_mentions_instruments(self):
        text = format_snapshot(self._valid())
        assert "c" in text and "spans" in text
        assert format_snapshot(MetricsRegistry().snapshot()) == (
            "(no metrics recorded)"
        )


class TestReplay:
    def test_draws_in_unit_interval(self):
        rs = replay_seed(123)
        for seq in range(200):
            u = replay_draw(rs, seq, PURPOSE_ADOPT)
            assert 0.0 <= u < 1.0

    def test_scalar_vector_agree_bitwise(self):
        rs = replay_seed(99)
        seqs = np.arange(512, dtype=np.int64)
        for purpose in (PURPOSE_TIEBREAK, PURPOSE_ADOPT, 7):
            vec = replay_draws(rs, seqs, purpose)
            scalar = [replay_draw(rs, int(s), purpose) for s in seqs]
            assert vec.tolist() == scalar

    def test_purposes_decorrelated(self):
        rs = replay_seed(5)
        a = replay_draw(rs, 42, PURPOSE_TIEBREAK)
        b = replay_draw(rs, 42, PURPOSE_ADOPT)
        assert a != b

    def test_order_independence(self):
        rs = replay_seed(7)
        seqs = np.array([9, 3, 5, 1], dtype=np.int64)
        shuffled = replay_draws(rs, seqs, 0)
        ordered = replay_draws(rs, np.sort(seqs), 0)
        # Same (seq, purpose) always yields the same draw regardless of
        # the position it is asked from.
        assert sorted(shuffled.tolist()) == sorted(ordered.tolist())
        assert shuffled[1] == replay_draw(rs, 3, 0)

    def test_draws_roughly_uniform(self):
        rs = replay_seed(1)
        us = replay_draws(rs, np.arange(20_000, dtype=np.int64), 0)
        assert abs(us.mean() - 0.5) < 0.01
        assert us.min() < 0.01 and us.max() > 0.99


class TestCocoStats:
    def test_publish_prefix_and_arrays(self):
        stats = CocoStats(2)
        stats.packets = 10
        stats.replacements = 4
        stats.evictions[1] = 3
        reg = MetricsRegistry()
        stats.publish(reg, prefix="sketch.")
        counters = reg.snapshot()["counters"]
        assert counters["sketch.packets"] == 10
        assert counters["sketch.replacements"] == 4
        assert counters["sketch.evictions.array1"] == 3
        assert counters["sketch.evictions.array0"] == 0

    def test_merge_and_reset(self):
        a, b = CocoStats(2), CocoStats(2)
        a.packets, b.packets = 3, 4
        b.evictions[0] = 2
        a.merge(b)
        assert a.packets == 7
        assert a.evictions == [2, 0]
        assert a.total_evictions == 2
        a.reset()
        assert a == CocoStats(2)

    def test_merge_rejects_geometry_mismatch(self):
        with pytest.raises(ValueError, match="array-count"):
            CocoStats(2).merge(CocoStats(3))


class TestPackageSurface:
    def test_public_names_importable(self):
        for name in obs.__all__:
            assert getattr(obs, name) is not None
