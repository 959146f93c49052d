"""Tests for IPv6 keys: wide-key hashing, sketching, partial queries."""

import pytest

from repro.core.cocosketch import BasicCocoSketch
from repro.core.query import FlowTable
from repro.engine.sharded import ShardedSketch, SketchSpec
from repro.engine.vectorized import NumpyCocoSketch
from repro.flowkeys.columns import pack_key_columns
from repro.flowkeys.fields import format_ipv6, parse_ipv6
from repro.flowkeys.key import IPV6_FIVE_TUPLE
from repro.hashing.family import HashFamily
from repro.traffic.trace import Trace


class TestIpv6Text:
    def test_roundtrip_full_form(self):
        value = parse_ipv6("2001:db8:0:0:0:0:0:1")
        assert format_ipv6(value) == "2001:db8:0:0:0:0:0:1"

    def test_compressed_forms(self):
        assert parse_ipv6("::1") == 1
        assert parse_ipv6("2001:db8::1") == parse_ipv6(
            "2001:db8:0:0:0:0:0:1"
        )
        assert parse_ipv6("fe80::") == 0xFE80 << 112

    def test_rejections(self):
        for bad in ("1::2::3", "1:2:3", "2001:db8::1:2:3:4:5:6:7", "zzzz::"):
            with pytest.raises(ValueError):
                parse_ipv6(bad)
        with pytest.raises(ValueError):
            format_ipv6(1 << 128)


class TestWideKeyHashing:
    def test_bits_above_128_affect_hash(self):
        # Regression: IPv6 5-tuple keys are 296 bits; all of SrcIPv6
        # (bits 168..296) must influence the bucket.
        fn = HashFamily(1, master_seed=4).index_fn(0, 1 << 16)
        collisions = sum(
            1
            for i in range(2_000)
            if fn(i << 168) == fn((i + 5_000) << 168)
        )
        assert collisions < 5

    def test_hash_unchanged_for_narrow_keys(self):
        # The wide-key fold must not change 104-bit key hashing (the
        # benchmarks' recorded series depend on it).
        fn = HashFamily(1, master_seed=42).index_fn(0, 12043)
        assert fn(123456789) == fn(123456789)
        assert 0 <= fn((1 << 104) - 1) < 12043


class TestIpv6Sketching:
    def _key(self, src_low, dst_low=1):
        return IPV6_FIVE_TUPLE.pack(
            (0x20010DB8 << 96) | src_low,
            (0x20010DB8 << 96) | dst_low,
            443,
            51515,
            6,
        )

    def test_pack_unpack(self):
        key = self._key(7)
        values = IPV6_FIVE_TUPLE.unpack(key)
        assert values[0] == (0x20010DB8 << 96) | 7
        assert values[4] == 6

    def test_sketch_over_ipv6_keys(self):
        sketch = BasicCocoSketch(
            d=2, l=256, seed=1, key_bytes=IPV6_FIVE_TUPLE.width_bytes
        )
        for i in range(50):
            for _ in range(i + 1):
                sketch.update(self._key(i), 1)
        heavy = self._key(49)
        assert sketch.query(heavy) == pytest.approx(50, rel=0.2)

    def test_partial_key_aggregation_on_prefix(self):
        keys = [self._key(i, dst_low=i % 4) for i in range(40)]
        trace = Trace(IPV6_FIVE_TUPLE, keys)
        prefix = IPV6_FIVE_TUPLE.partial(("SrcIPv6", 32))
        truth = trace.ground_truth(prefix)
        # Every synthetic address shares the 2001:db8::/32 prefix.
        assert truth == {0x20010DB8: 40}

    def test_flowtable_roundtrip(self):
        sketch = BasicCocoSketch(
            d=2, l=128, seed=2, key_bytes=IPV6_FIVE_TUPLE.width_bytes
        )
        for i in range(30):
            sketch.update(self._key(i), 2)
        table = FlowTable.from_sketch(sketch, IPV6_FIVE_TUPLE)
        dst = IPV6_FIVE_TUPLE.partial("DstIPv6")
        assert table.aggregate(dst).total == 60


class TestWideKeysOnColumnarEngines:
    """The (hi, lo) engines refuse keys wider than 128 bits loudly."""

    KEY_BYTES = IPV6_FIVE_TUPLE.width_bytes

    def _trace(self):
        keys = [
            IPV6_FIVE_TUPLE.pack((1 << 127) | i, (1 << 127) | 7, 443, 80, 6)
            for i in range(50)
        ]
        return Trace(IPV6_FIVE_TUPLE, keys)

    def test_list_batch_raises(self):
        sketch = NumpyCocoSketch(d=2, l=64, key_bytes=self.KEY_BYTES)
        with pytest.raises(ValueError, match="128 bits"):
            sketch.update_batch(list(self._trace().keys))

    @pytest.mark.parametrize("shards", [None, 2])
    def test_process_iterator_raises(self, shards):
        spec = SketchSpec(engine="numpy", d=2, l=64, key_bytes=self.KEY_BYTES)
        sketch = (
            spec.build()
            if shards is None
            else ShardedSketch(spec, shards, processes=False)
        )
        with pytest.raises(ValueError, match="128 bits"):
            sketch.process(iter(self._trace()))

    def test_widest_key_round_trips(self):
        top = (1 << 128) - 1
        hi, lo = pack_key_columns([top])
        assert int(hi[0]) == int(lo[0]) == (1 << 64) - 1
        sketch = NumpyCocoSketch(d=2, l=64)
        sketch.update_batch([top, top])
        assert sketch.flow_table() == {top: 2.0}
        assert sketch.query(top) == 2.0
