"""Tests for the columnar ground truth, ``Trace.exact_table()``."""

import time

import pytest

from repro.flowkeys.key import FIVE_TUPLE, IPV6_FIVE_TUPLE
from repro.traffic.trace import Trace
from repro.traffic.synthetic import zipf_trace


def _truth(trace, pk):
    """The exact table's aggregate onto *pk*, as a dict."""
    return trace.exact_table().aggregate(pk).to_dict()


class TestExactness:
    def test_full_counts_match(self, small_trace):
        assert small_trace.exact_table().to_dict() == small_trace.full_counts()

    def test_all_paper_keys_match(self, small_trace, six_keys):
        for pk in six_keys:
            assert _truth(small_trace, pk) == small_trace.ground_truth(pk)

    def test_prefix_keys_match(self, small_trace):
        for plen in range(1, 33):
            pk = FIVE_TUPLE.partial(("SrcIP", plen))
            assert _truth(small_trace, pk) == small_trace.ground_truth(pk)

    def test_cross_64bit_boundary_fields(self, small_trace):
        # SrcIP spans bits 72..104, DstIP 40..72 (crosses the split).
        pk = FIVE_TUPLE.partial(("DstIP", 20))
        assert _truth(small_trace, pk) == small_trace.ground_truth(pk)

    def test_weighted_trace(self):
        trace = zipf_trace(5_000, 500, seed=44, with_bytes=True)
        pk = FIVE_TUPLE.partial("SrcIP", "SrcPort")
        assert _truth(trace, pk) == trace.ground_truth(pk)

    def test_foreign_spec_rejected(self, small_trace):
        with pytest.raises(ValueError):
            small_trace.exact_table().aggregate(IPV6_FIVE_TUPLE.partial("Proto"))

    def test_ipv6_spec_matches(self):
        keys = [
            IPV6_FIVE_TUPLE.pack((1 << 100) | i % 7, 2 + i % 3, 3, 4 + i % 5, 6)
            for i in range(40)
        ]
        trace = Trace(IPV6_FIVE_TUPLE, keys)
        assert trace.exact_table().to_dict() == trace.full_counts()
        for pk in (
            IPV6_FIVE_TUPLE.partial("Proto"),
            IPV6_FIVE_TUPLE.partial(("SrcIPv6", 40), "DstPort"),
            IPV6_FIVE_TUPLE.identity_partial(),
        ):
            assert _truth(trace, pk) == trace.ground_truth(pk)

    def test_full_key_partial_matches(self, small_trace):
        pk = small_trace.spec.identity_partial()  # 104 bits, two words
        assert _truth(small_trace, pk) == small_trace.ground_truth(pk)


class TestSpeed:
    def test_faster_than_dict_loop_on_many_keys(self):
        # Best-of-3 on each side: a single pair of wall-clock samples is
        # flaky under CI scheduling noise; the minimum is the stable
        # estimate of each implementation's actual cost.  64 keys over
        # 15k distinct flows keeps the structural margin >2x — the dict
        # loop pays per key what the packed table pays once, while the
        # packing cost scales only with packets (kept modest).
        trace = zipf_trace(30_000, 15_000, seed=45)
        keys = [
            FIVE_TUPLE.partial((field, plen))
            for field in ("SrcIP", "DstIP")
            for plen in range(1, 33)
        ]

        def time_fast():
            trace._exact = None  # drop the cache: same work each run
            start = time.perf_counter()
            table = trace.exact_table()
            for pk in keys:
                table.aggregate(pk)
            return time.perf_counter() - start

        def time_slow():
            trace._full_counts = None  # drop the cache: same work each run
            start = time.perf_counter()
            for pk in keys:
                trace.ground_truth(pk)
            return time.perf_counter() - start

        fast_elapsed = min(time_fast() for _ in range(3))
        slow_elapsed = min(time_slow() for _ in range(3))
        assert fast_elapsed < slow_elapsed
