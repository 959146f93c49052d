"""Property-based tests (hypothesis) on core data structures/invariants."""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro._util import median, percentile
from repro.core.cocosketch import BasicCocoSketch
from repro.core.hardware import HardwareCocoSketch
from repro.core.query import FlowTable
from repro.core.uss import UnbiasedSpaceSaving
from repro.flowkeys.key import FIVE_TUPLE
from repro.hashing.bobhash import bobhash32
from repro.hashing.family import HashFamily, mix64
from repro.hwsim.approx_div import approx_divide, truncate_to_top4
from repro.sketches.countmin import CountMinSketch
from repro.sketches.spacesaving import SpaceSaving
from repro.sketches.topk import TopKHeap

five_tuple_values = st.tuples(
    st.integers(0, 2**32 - 1),
    st.integers(0, 2**32 - 1),
    st.integers(0, 2**16 - 1),
    st.integers(0, 2**16 - 1),
    st.integers(0, 2**8 - 1),
)

packet_stream = st.lists(
    st.tuples(st.integers(0, 200), st.integers(1, 50)), min_size=1, max_size=300
)


class TestKeyCodecProperties:
    @given(five_tuple_values)
    def test_pack_unpack_roundtrip(self, values):
        assert FIVE_TUPLE.unpack(FIVE_TUPLE.pack(*values)) == values

    @given(five_tuple_values, st.integers(0, 32), st.integers(0, 16))
    def test_partial_mapping_consistent_with_fields(self, values, p_ip, p_port):
        if p_ip == 0 and p_port == 0:
            return
        parts = []
        if p_ip:
            parts.append(("SrcIP", p_ip))
        if p_port:
            parts.append(("DstPort", p_port))
        pk = FIVE_TUPLE.partial(*parts)
        key = FIVE_TUPLE.pack(*values)
        mapped = pk.map(key)
        expected = 0
        if p_ip:
            expected = values[0] >> (32 - p_ip)
        if p_port:
            expected = (expected << p_port) | (values[3] >> (16 - p_port))
        assert mapped == expected

    @given(st.dictionaries(five_tuple_values, st.integers(1, 100), max_size=50))
    def test_aggregation_preserves_total(self, table):
        sizes = {FIVE_TUPLE.pack(*v): float(s) for v, s in table.items()}
        ft = FlowTable(sizes, FIVE_TUPLE)
        pk = FIVE_TUPLE.partial(("SrcIP", 8), "Proto")
        assert abs(ft.aggregate(pk).total - ft.total) < 1e-6


class TestHashProperties:
    @given(st.binary(max_size=64), st.integers(0, 2**32 - 1))
    def test_bobhash_deterministic_and_32bit(self, data, seed):
        h = bobhash32(data, seed)
        assert h == bobhash32(data, seed)
        assert 0 <= h < 1 << 32

    @given(st.integers(0, 2**104 - 1))
    def test_mix64_family_in_range(self, key):
        fn = HashFamily(2, master_seed=9).index_fn(1, 311)
        assert 0 <= fn(key) < 311

    @given(st.integers(0, 2**64 - 1))
    def test_mix64_output_64bit(self, value):
        assert 0 <= mix64(value) < 2**64


class TestSketchConservationProperties:
    @given(packet_stream)
    @settings(max_examples=50, deadline=None)
    def test_basic_cocosketch_conserves_weight(self, packets):
        sk = BasicCocoSketch(d=2, l=16, seed=3)
        total = 0
        for key, size in packets:
            sk.update(key, size)
            total += size
        assert sum(sum(row) for row in sk._vals) == total
        assert sum(sk.flow_table().values()) == total

    @given(packet_stream)
    @settings(max_examples=50, deadline=None)
    def test_hardware_cocosketch_conserves_weight_per_array(self, packets):
        sk = HardwareCocoSketch(d=3, l=16, seed=3)
        total = 0
        for key, size in packets:
            sk.update(key, size)
            total += size
        for row in sk._vals:
            assert sum(row) == total

    @given(packet_stream)
    @settings(max_examples=50, deadline=None)
    def test_uss_conserves_weight(self, packets):
        uss = UnbiasedSpaceSaving(8, seed=3)
        total = 0
        for key, size in packets:
            uss.update(key, size)
            total += size
        assert sum(uss._counts.values()) == total
        assert len(uss._counts) <= 8

    @given(packet_stream)
    @settings(max_examples=50, deadline=None)
    def test_spacesaving_never_underestimates(self, packets):
        ss = SpaceSaving(8)
        truth = {}
        for key, size in packets:
            ss.update(key, size)
            truth[key] = truth.get(key, 0) + size
        for key, est in ss.flow_table().items():
            assert est >= truth[key]

    @given(packet_stream)
    @settings(max_examples=50, deadline=None)
    def test_countmin_never_underestimates(self, packets):
        cm = CountMinSketch(2, 32, seed=5)
        truth = {}
        for key, size in packets:
            cm.update(key, size)
            truth[key] = truth.get(key, 0) + size
        for key, size in truth.items():
            assert cm.query(key) >= size


class TestTopKProperties:
    @given(
        st.lists(
            st.tuples(st.integers(0, 30), st.floats(0.1, 1e6)),
            min_size=1,
            max_size=200,
        ),
        st.integers(1, 10),
    )
    # A raised estimate left stale below the heap top: the lazy repair
    # once skipped validation and evicted key 1 (tracked at 3).
    @example(
        offers=[(0, 2), (1, 1), (1, 3), (2, 0.5), (3, 1), (2, 2), (1, 2)], k=3
    )
    def test_size_bounded_and_estimates_monotone(self, offers, k):
        heap = TopKHeap(k)
        best = {}
        for key, est in offers:
            heap.offer(key, est)
            best[key] = max(best.get(key, 0.0), est)
            assert len(heap) <= k
        for key, est in heap.table().items():
            assert est == best[key]


class TestApproxDivisionProperties:
    @given(st.integers(1, 2**32 - 1))
    def test_truncation_within_one_sixteenth(self, value):
        t = truncate_to_top4(value)
        assert t <= value
        assert value - t < max(1, value / 8)

    @given(st.integers(1, 2**32 - 1))
    def test_approx_divide_sandwiched(self, value):
        exact = 2**32 // value
        approx = approx_divide(2**32, value)
        # Truncating the divisor only increases the quotient (up to the
        # shift's rounding); bounded by the 1/8 mantissa error.
        assert approx >= exact - 1
        assert approx <= (2**32 // truncate_to_top4(value)) + 1


class TestUtilProperties:
    @given(st.lists(st.floats(-1e9, 1e9), min_size=1, max_size=50))
    def test_median_between_min_and_max(self, values):
        m = median(values)
        assert min(values) <= m <= max(values)

    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=50))
    def test_percentile_bounds(self, values):
        assert percentile(values, 0) == min(values)
        assert percentile(values, 100) == max(values)
