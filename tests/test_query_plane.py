"""Columnar query plane: equality with the scalar path, edge cases.

The refactor's acceptance bar is *exactness*: for every backend and
every partial key, the columnar FlowTable must produce the same keys
and the same float values as the pre-refactor scalar path (dict walk
with ``PartialKeySpec.mapper``).  Sketch estimates are integer or
half-integer floats far below 2**52, so float64 summation is exact in
any order — these tests enforce that the implementation actually
delivers it.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.query import FlowTable, partial_key_report
from repro.engine import ShardedSketch, SketchSpec, get_engine
from repro.flowkeys.key import (
    FIVE_TUPLE,
    IPV6_FIVE_TUPLE,
    PartialKeySpec,
    paper_partial_keys,
    prefix_hierarchy,
)
from repro.flowkeys.columns import group_words, pack_key_words
from repro.query import ColumnTable, QueryPlanner, project_words
from repro.query.project import ProjectionPlan

from tests.stat_harness import random_partial_specs


def scalar_aggregate(sizes, partial):
    """The pre-refactor reference: dict walk under the scalar mapper."""
    g = partial.mapper()
    out = {}
    for key, size in sizes.items():
        mapped = g(key)
        out[mapped] = out.get(mapped, 0.0) + size
    return out


def _specs():
    return random_partial_specs(12, seed=7) + paper_partial_keys(6)


# -- backend equality ---------------------------------------------------


def _backends(small_trace):
    scalar = get_engine("scalar").cocosketch_from_memory(64 * 1024, seed=3)
    scalar.process(iter(small_trace))
    vec = get_engine("numpy").cocosketch_from_memory(64 * 1024, seed=3)
    vec.process(small_trace)
    hardware = get_engine("numpy").hardware_cocosketch_from_memory(
        64 * 1024, seed=3
    )
    hardware.process(small_trace)
    sharded = ShardedSketch(
        SketchSpec.from_memory(48 * 1024, engine="numpy", seed=3),
        shards=3,
        processes=False,
    )
    sharded.process(small_trace)
    return {
        "scalar": scalar,
        "numpy": vec,
        "numpy-hardware": hardware,
        "sharded": sharded,
    }


class TestBackendEquality:
    @pytest.fixture(scope="class")
    def backends(self, small_trace):
        return _backends(small_trace)

    @pytest.mark.parametrize(
        "backend", ["scalar", "numpy", "numpy-hardware", "sharded"]
    )
    def test_full_table_matches_flow_table(self, backends, backend):
        sketch = backends[backend]
        table = FlowTable.from_sketch(sketch, FIVE_TUPLE)
        assert table.sizes == sketch.flow_table()

    @pytest.mark.parametrize(
        "backend", ["scalar", "numpy", "numpy-hardware", "sharded"]
    )
    def test_aggregation_matches_scalar_path(self, backends, backend):
        sketch = backends[backend]
        reference = sketch.flow_table()
        table = FlowTable.from_sketch(sketch, FIVE_TUPLE)
        for partial in _specs():
            expected = scalar_aggregate(reference, partial)
            got = table.aggregate(partial).sizes
            assert got == expected, partial.name

    @pytest.mark.parametrize(
        "backend", ["scalar", "numpy", "numpy-hardware", "sharded"]
    )
    def test_planner_matches_scalar_path(self, backends, backend):
        sketch = backends[backend]
        reference = sketch.flow_table()
        planner = QueryPlanner(sketch, FIVE_TUPLE)
        for partial in _specs():
            assert planner.sizes(partial) == scalar_aggregate(
                reference, partial
            ), partial.name


# -- vectorised g(.): bit-identical to the scalar map -------------------


def _partial_strategy(spec):
    """Random non-empty field subsets with random bit-prefix lengths."""

    @st.composite
    def strat(draw):
        parts = []
        for field in spec.fields:
            prefix = draw(st.integers(0, field.width))
            if draw(st.booleans()):
                parts.append((field.name, prefix))
        if not parts:
            field = spec.fields[draw(st.integers(0, len(spec.fields) - 1))]
            parts = [(field.name, draw(st.integers(0, field.width)))]
        return PartialKeySpec(spec, tuple(parts))

    return strat()


def _keys_strategy(spec):
    return st.lists(
        st.integers(0, (1 << spec.width) - 1), min_size=1, max_size=40
    )


class TestProjectionProperty:
    @settings(max_examples=120, deadline=None)
    @given(data=st.data())
    def test_ipv4_matches_scalar_map(self, data):
        self._check(FIVE_TUPLE, data)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_ipv6_matches_scalar_map(self, data):
        self._check(IPV6_FIVE_TUPLE, data)

    @staticmethod
    def _unpack(projected):
        got = []
        for col in range(projected.shape[1]):
            value = 0
            for w in range(projected.shape[0] - 1, -1, -1):
                value = (value << 64) | int(projected[w, col])
            got.append(value)
        return got

    @classmethod
    def _check(cls, spec, data):
        partial = data.draw(_partial_strategy(spec))
        keys = data.draw(_keys_strategy(spec))
        words = pack_key_words(keys, spec.width)
        projected = project_words(words, partial)
        assert cls._unpack(projected) == [partial.map(k) for k in keys]

    def test_zero_width_projection_collapses(self):
        partial = PartialKeySpec(FIVE_TUPLE, (("SrcIP", 0),))
        keys = [FIVE_TUPLE.pack(i, 0, 0, 0, 0) for i in range(10)]
        words = pack_key_words(keys, FIVE_TUPLE.width)
        projected = project_words(words, partial)
        assert projected.shape == (1, 10)
        assert not projected.any()

    @pytest.mark.parametrize(
        "spec,parts",
        [
            (FIVE_TUPLE, (("SrcIP", 16),)),
            (FIVE_TUPLE, (("DstIP", 24),)),
            (FIVE_TUPLE, ("Proto",)),
            (FIVE_TUPLE, (("SrcIP", 0), ("DstPort", 12))),
            (IPV6_FIVE_TUPLE, ("SrcIPv6",)),
            (IPV6_FIVE_TUPLE, (("DstIPv6", 72),)),
        ],
        ids=["src16", "dst24", "proto", "zero-width-then-port", "v6-src", "v6-dst72"],
    )
    def test_one_part_projection_is_the_extracted_segment(self, spec, parts):
        # A one-part plan returns extract_bits' array without an OR
        # into a second zeroed output; the bits must not change.
        partial = spec.partial(*parts)
        plan = ProjectionPlan.compile(partial)
        assert len(plan.ops) == 1
        rng = np.random.default_rng(3)
        keys = [int(k) for k in rng.integers(0, 1 << 62, 300)]
        keys = [(k << (spec.width - 62)) | k for k in keys] + [0, (1 << spec.width) - 1]
        words = pack_key_words(keys, spec.width)
        projected = plan.apply(words)
        assert projected.shape == (plan.out_words, len(keys))
        assert not np.shares_memory(projected, words)
        assert self._unpack(projected) == [partial.map(k) for k in keys]

    def test_plan_is_reusable(self):
        partial = FIVE_TUPLE.partial(("SrcIP", 24), "DstPort")
        plan = ProjectionPlan.compile(partial)
        keys = [FIVE_TUPLE.pack(10 << 24 | i, 0, 0, 443, 6) for i in range(8)]
        words = pack_key_words(keys, FIVE_TUPLE.width)
        first = plan.apply(words)
        second = plan.apply(words)
        assert (first == second).all()


# -- FlowTable edge cases (satellite: aggregate/combined corner cases) --


class TestFlowTableEdgeCases:
    def test_empty_table_aggregates_empty(self):
        table = FlowTable({}, FIVE_TUPLE)
        agg = table.aggregate(FIVE_TUPLE.partial("SrcIP"))
        assert len(agg) == 0
        assert agg.sizes == {}
        assert agg.total == 0.0
        assert agg.heavy_hitters(1.0) == {}
        assert agg.top_k(5) == []

    def test_empty_column_table_roundtrip(self):
        table = FlowTable.from_columns(ColumnTable.empty(FIVE_TUPLE))
        assert table.sizes == {}
        assert table.query(123) == 0.0

    def test_combined_disjoint_tables_unions(self):
        key_a = FIVE_TUPLE.pack(1, 2, 3, 4, 6)
        key_b = FIVE_TUPLE.pack(9, 8, 7, 6, 17)
        a = FlowTable({key_a: 5.0}, FIVE_TUPLE, name="a")
        b = FlowTable({key_b: 7.0}, FIVE_TUPLE, name="b")
        merged = a.combined(b)
        assert merged.sizes == {key_a: 5.0, key_b: 7.0}
        assert merged.name == "a+b"

    def test_combined_with_empty_is_identity(self):
        key = FIVE_TUPLE.pack(1, 2, 3, 4, 6)
        a = FlowTable({key: 5.0}, FIVE_TUPLE)
        assert a.combined(FlowTable({}, FIVE_TUPLE)).sizes == {key: 5.0}
        assert FlowTable({}, FIVE_TUPLE).combined(a).sizes == {key: 5.0}

    def test_combined_overlapping_sums(self):
        key = FIVE_TUPLE.pack(1, 2, 3, 4, 6)
        other = FIVE_TUPLE.pack(5, 6, 7, 8, 17)
        a = FlowTable({key: 5.0, other: 1.0}, FIVE_TUPLE)
        b = FlowTable({key: 2.5}, FIVE_TUPLE)
        assert a.combined(b).sizes == {key: 7.5, other: 1.0}

    def test_combined_spec_mismatch_raises(self):
        a = FlowTable({}, FIVE_TUPLE)
        b = FlowTable({}, FIVE_TUPLE.partial("SrcIP"))
        with pytest.raises(ValueError):
            a.combined(b)

    def test_all_colliding_projection_sums_everything(self):
        sizes = {
            FIVE_TUPLE.pack(i, i + 1, i + 2, i + 3, 6): float(i + 1)
            for i in range(10)
        }
        table = FlowTable(sizes, FIVE_TUPLE)
        collapsed = table.aggregate(PartialKeySpec(FIVE_TUPLE, (("SrcIP", 0),)))
        assert collapsed.sizes == {0: sum(sizes.values())}
        assert collapsed.query(0) == sum(sizes.values())

    def test_aggregate_wrong_spec_raises(self):
        table = FlowTable({}, FIVE_TUPLE)
        with pytest.raises(ValueError):
            table.aggregate(IPV6_FIVE_TUPLE.partial("SrcIPv6"))

    def test_full_aggregate_is_copy(self):
        key = FIVE_TUPLE.pack(1, 2, 3, 4, 6)
        table = FlowTable({key: 5.0}, FIVE_TUPLE)
        full = table.aggregate(
            FIVE_TUPLE.partial(*(f.name for f in FIVE_TUPLE.fields))
        )
        assert full.sizes == {key: 5.0}

    def test_heavy_hitters_and_top_k_validate(self):
        table = FlowTable({}, FIVE_TUPLE)
        with pytest.raises(ValueError):
            table.heavy_hitters(-1.0)
        with pytest.raises(ValueError):
            table.top_k(-1)


# -- planner behaviour --------------------------------------------------


class TestPlanner:
    def test_extraction_happens_once_and_memoizes(self, small_trace):
        sketch = get_engine("numpy").cocosketch_from_memory(32 * 1024, seed=1)
        sketch.process(small_trace)
        planner = QueryPlanner(sketch, FIVE_TUPLE)
        specs = prefix_hierarchy(FIVE_TUPLE, "SrcIP", granularity=8)
        for partial in specs:
            planner.table(partial)
        for partial in specs:
            planner.table(partial)
        info = planner.cache_info()
        assert info["misses"] == len(specs)
        assert info["hits"] == len(specs)
        assert info["cached_specs"] == len(specs)

    def test_invalidate_drops_cache(self, tiny_trace):
        sketch = get_engine("scalar").cocosketch_from_memory(16 * 1024, seed=1)
        sketch.process(iter(tiny_trace))
        planner = QueryPlanner(sketch, FIVE_TUPLE)
        partial = FIVE_TUPLE.partial("SrcIP")
        before = planner.sizes(partial)
        sketch.process(iter(tiny_trace))
        planner.invalidate()
        after = planner.sizes(partial)
        assert after != before
        assert planner.cache_info()["cached_specs"] == 1

    def test_planner_over_column_table(self):
        sizes = {
            FIVE_TUPLE.pack(i, 0, 0, 80, 6): float(i + 1) for i in range(50)
        }
        planner = QueryPlanner(
            ColumnTable.from_dict(sizes, FIVE_TUPLE), FIVE_TUPLE
        )
        partial = FIVE_TUPLE.partial(("SrcIP", 32))
        assert planner.sizes(partial) == scalar_aggregate(sizes, partial)

    def test_partial_key_report_threshold(self, tiny_trace):
        sketch = get_engine("numpy").cocosketch_from_memory(32 * 1024, seed=2)
        sketch.process(tiny_trace)
        keys = [FIVE_TUPLE.partial("SrcIP"), FIVE_TUPLE.partial(("SrcIP", 8))]
        report = partial_key_report(sketch, FIVE_TUPLE, keys, threshold=10.0)
        reference = sketch.flow_table()
        for partial in keys:
            expected = {
                k: v
                for k, v in scalar_aggregate(reference, partial).items()
                if v >= 10.0
            }
            assert report[partial.name] == expected


# -- obs integration ----------------------------------------------------


class TestObsIntegration:
    def test_planner_emits_counters_and_spans(self, tiny_trace):
        from repro.obs.registry import MetricsRegistry, set_registry

        sketch = get_engine("numpy").cocosketch_from_memory(16 * 1024, seed=4)
        sketch.process(tiny_trace)
        registry = MetricsRegistry()
        previous = set_registry(registry)
        try:
            planner = QueryPlanner(sketch, FIVE_TUPLE)
            partial = FIVE_TUPLE.partial(("SrcIP", 16))
            planner.table(partial)
            planner.table(partial)
        finally:
            set_registry(previous)
        snap = registry.snapshot()
        assert snap["counters"]["query.extractions"] == 1
        assert snap["counters"]["query.cache.misses"] == 1
        assert snap["counters"]["query.cache.hits"] == 1
        assert "query.extract" in snap["spans"]
        assert "query.aggregate" in snap["spans"]
        assert "query.groupby.rows" in snap["histograms"]


# -- SQL executor: vectorised path equals scalar reference -------------


class TestSqlColumnarEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_predicate_mask_matches_scalar(self, data):
        from repro.core.sql import _Predicate

        fields = FIVE_TUPLE.fields
        field = fields[data.draw(st.integers(0, len(fields) - 1))]
        prefix = data.draw(
            st.one_of(st.none(), st.integers(0, field.width))
        )
        op = data.draw(st.sampled_from(["=", "!=", ">", "<", ">=", "<="]))
        value = data.draw(st.integers(0, (1 << field.width) + 3))
        predicate = _Predicate(field.name, prefix, op, value)
        keys = data.draw(
            st.lists(
                st.integers(0, (1 << FIVE_TUPLE.width) - 1),
                min_size=1,
                max_size=30,
            )
        )
        words = pack_key_words(keys, FIVE_TUPLE.width)
        mask = predicate.mask(FIVE_TUPLE, words)
        expected = [predicate.matches(FIVE_TUPLE, k) for k in keys]
        assert mask.tolist() == expected

    def test_run_query_matches_dict_reference(self, tiny_trace):
        from repro.core.sql import run_query

        sketch = get_engine("numpy").cocosketch_from_memory(32 * 1024, seed=6)
        sketch.process(tiny_trace)
        table = FlowTable.from_sketch(sketch, FIVE_TUPLE)
        rows = dict(
            run_query(
                "SELECT SrcIP/16, SUM(size) FROM flows "
                "WHERE Proto = 6 GROUP BY SrcIP/16",
                table,
            )
        )
        partial = FIVE_TUPLE.partial(("SrcIP", 16))
        g = partial.mapper()
        proto_shift = FIVE_TUPLE.shift_of("Proto")
        expected = {}
        for key, size in sketch.flow_table().items():
            if (key >> proto_shift) & 0xFF != 6:
                continue
            mapped = g(key)
            expected[mapped] = expected.get(mapped, 0.0) + size
        assert rows == expected


# -- ColumnTable unit behaviour ----------------------------------------


class TestColumnTable:
    def test_group_sums_duplicates(self):
        words = np.array([[5, 5, 9]], dtype=np.uint64)
        values = np.array([1.0, 2.0, 4.0])
        table = ColumnTable(FIVE_TUPLE.partial(("SrcIP", 4)), words, values)
        grouped = table.group()
        assert grouped.to_dict() == {5: 3.0, 9: 4.0}
        assert grouped.grouped

    def test_lookup_multiword(self):
        sizes = {(1 << 200) | 7: 3.0, 42: 1.5}
        spec = IPV6_FIVE_TUPLE
        table = ColumnTable.from_dict(sizes, spec)
        assert table.lookup((1 << 200) | 7) == 3.0
        assert table.lookup(42) == 1.5
        assert table.lookup(43) == 0.0

    def test_top_k_orders_descending(self):
        sizes = {
            FIVE_TUPLE.pack(i, 0, 0, 0, 0): float(i) for i in range(1, 6)
        }
        table = ColumnTable.from_dict(sizes, FIVE_TUPLE)
        top = table.top_k(3)
        assert [v for _, v in top] == [5.0, 4.0, 3.0]
        assert table.top_k(0) == []
        assert len(table.top_k(99)) == 5

    def test_scaled_and_concat(self):
        key = FIVE_TUPLE.pack(1, 2, 3, 4, 6)
        a = ColumnTable.from_dict({key: 5.0}, FIVE_TUPLE)
        b = ColumnTable.from_dict({key: 2.0}, FIVE_TUPLE)
        diff = a.concat(b.scaled(-1.0)).group()
        assert diff.to_dict() == {key: 3.0}

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            ColumnTable(
                FIVE_TUPLE,
                np.zeros((2, 3), dtype=np.uint64),
                np.zeros(2),
            )


# -- group_words against a stable lexsort reference -----------------------


def _lexsort_group(words, values):
    """Reference GROUP BY: stable ``np.lexsort`` then ``reduceat``."""
    if words.shape[1] == 0:
        return words[:, :0], values[:0]
    order = np.lexsort(tuple(words))  # last row (most significant) primary
    ordered = words[:, order]
    starts = np.ones(words.shape[1], dtype=bool)
    starts[1:] = (ordered[:, 1:] != ordered[:, :-1]).any(axis=0)
    idx = np.nonzero(starts)[0]
    return ordered[:, idx], np.add.reduceat(values[order], idx)


def _strictly_ascending(words):
    """Each key is lexicographically greater than the one before it."""
    undecided = np.ones(max(words.shape[1] - 1, 0), dtype=bool)
    for t in range(words.shape[0] - 1, -1, -1):
        prev, cur = words[t, :-1], words[t, 1:]
        if (undecided & (cur < prev)).any():
            return False
        undecided &= cur == prev
    return not undecided.any()


def _group_input(w, n, layout, seed):
    rng = np.random.default_rng(seed)
    if layout == "duplicated":
        pool = rng.integers(0, 2**64, size=(w, 37), dtype=np.uint64)
        pool[:, 0] = np.uint64(1 << 63)  # top bit set in every word
        words = pool[:, rng.integers(0, 37, size=n)]
    elif layout == "narrow":
        words = rng.integers(0, 1 << 9, size=(w, n), dtype=np.uint64)
    else:
        words = rng.integers(0, 2**64, size=(w, n), dtype=np.uint64)
        words[:, : n // 2] |= np.uint64(1 << 63)
        if layout in ("presorted", "reversed"):
            words = words[:, np.lexsort(tuple(words))]
            if layout == "reversed":
                words = words[:, ::-1]
    values = rng.random(n) * 1000.0 - 400.0  # non-dyadic, some negative
    values[::7] = 0.0
    values[3::11] = -values[3::11]
    return np.ascontiguousarray(words), values


class TestGroupWordsDifferential:
    """``group_words`` equals a stable lexsort reduction byte for byte.

    Summation order matters for non-dyadic floats, so equal totals mean
    each group summed its values in input order.  ``2**17`` rows put key
    plus position bits past 64, so the dense-rank fold runs.
    """

    @pytest.mark.parametrize("w", [1, 2, 3, 5])
    @pytest.mark.parametrize("n", [0, 1, 2, 5000, 1 << 17])
    @pytest.mark.parametrize(
        "layout", ["presorted", "reversed", "shuffled", "duplicated", "narrow"]
    )
    def test_matches_lexsort_reference(self, w, n, layout):
        words, values = _group_input(w, n, layout, seed=1000 * w + n % 997)
        keys, totals = group_words(words, values)
        ref_keys, ref_totals = _lexsort_group(words, values)
        assert keys.shape == ref_keys.shape
        assert keys.dtype == np.uint64
        assert keys.tobytes() == ref_keys.tobytes()
        assert totals.tobytes() == ref_totals.tobytes()
        assert _strictly_ascending(keys)

    @settings(max_examples=60, deadline=None)
    @given(
        w=st.sampled_from([1, 2, 3, 5]),
        rows=st.lists(
            st.tuples(
                st.integers(0, 5),
                st.sampled_from([0.0, 0.1, -0.3, 1.5, 7.7, -2.25]),
            ),
            max_size=40,
        ),
    )
    def test_small_inputs_match_reference(self, w, rows):
        alphabet = np.array(
            [0, 1, 2, 2**63, 2**64 - 1, 2**62 + 5], dtype=np.uint64
        )
        codes = np.array([c for c, _ in rows], dtype=np.int64)
        words = np.empty((w, len(rows)), dtype=np.uint64)
        for t in range(w):
            words[t] = alphabet[(codes * (t + 1) + t) % len(alphabet)]
        values = np.array([v for _, v in rows], dtype=np.float64)
        keys, totals = group_words(words, values)
        ref_keys, ref_totals = _lexsort_group(words, values)
        assert keys.tobytes() == ref_keys.tobytes()
        assert totals.tobytes() == ref_totals.tobytes()
        assert _strictly_ascending(keys)

    def test_index_select_drops_grouped_flag(self):
        spec = FIVE_TUPLE.partial("SrcIP")
        table = ColumnTable(
            spec,
            np.array([[1, 2, 3]], dtype=np.uint64),
            np.array([10.0, 20.0, 30.0]),
        ).group()
        reordered = table.select(np.array([2, 0, 1]))
        assert not reordered.grouped
        assert reordered.lookup(1) == 10.0
        assert reordered.lookup(3) == 30.0
        assert table.select(table.values > 15.0).grouped
