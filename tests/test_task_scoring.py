"""The tasks' columnar scoring against the dict reference definitions.

Every task scores an estimator through column tables.  These tests
recompute each report from the dict surfaces — ``Estimator.table`` and
``Trace.ground_truth`` — with the plain set definitions of §7.1, for
every estimator family, both execution engines, partial keys from 24
to 104 bits and the 296-bit IPv6 5-tuple.  Recall and precision must be
equal; ARE may differ only in float summation order.
"""

import math

import numpy as np
import pytest

from repro.engine import get_engine
from repro.flowkeys.key import FIVE_TUPLE, IPV6_FIVE_TUPLE, paper_partial_keys
from repro.metrics.accuracy import (
    AccuracyReport,
    evaluate_heavy_hitters,
    evaluate_heavy_hitters_columns,
)
from repro.query.columns import ColumnTable
from repro.sketches.countmin import CountMinHeap
from repro.sketches.rhhh import RandomizedHHH
from repro.tasks import (
    FullKeyEstimator,
    HierarchyEstimator,
    PerKeyEstimator,
    heavy_change_task,
    heavy_hitter_task,
    hhh_task,
)
from repro.traffic.synthetic import caida_like, heavy_change_windows
from repro.traffic.trace import Trace

MEMORY = 24 * 1024
HH_FRACTION = 1e-3
CHANGE_FRACTION = 2e-3
HHH_FRACTION = 5e-3


def _ipv6_key(key):
    """Embed an IPv4 5-tuple key into the IPv6 5-tuple layout."""
    src, dst, sport, dport, proto = FIVE_TUPLE.unpack(key)
    return IPV6_FIVE_TUPLE.pack(
        (0x20010DB8 << 96) | (src << 48) | src,
        (0x20010DB8 << 96) | (dst << 16) | (dst & 0xFF),
        sport,
        dport,
        proto,
    )


def _ipv6_trace(trace):
    return Trace(
        IPV6_FIVE_TUPLE, [_ipv6_key(k) for k in trace.keys], trace.sizes
    )


IPV6_KEYS = [
    IPV6_FIVE_TUPLE.identity_partial(),
    IPV6_FIVE_TUPLE.partial("SrcIPv6", "DstIPv6"),
    IPV6_FIVE_TUPLE.partial("SrcIPv6", "SrcPort"),
    IPV6_FIVE_TUPLE.partial("DstIPv6", "DstPort"),
    IPV6_FIVE_TUPLE.partial(("SrcIPv6", 80)),
    IPV6_FIVE_TUPLE.partial(("DstIPv6", 100)),
]

#: (spec, partial keys) the scoring runs on.
KEY_SETS = {
    "ipv4": (FIVE_TUPLE, paper_partial_keys(6)),
    "ipv6": (IPV6_FIVE_TUPLE, IPV6_KEYS),
}


def _estimator_factory(family, spec, keys):
    """A zero-argument builder of one estimator of *family*."""
    if family in ("coco-numpy", "coco-scalar"):
        engine = get_engine(family.split("-")[1])
        return lambda: FullKeyEstimator(
            engine.cocosketch_from_memory(
                MEMORY, d=2, seed=1, key_bytes=spec.width_bytes
            ),
            spec,
        )
    if family == "per-key":
        return lambda: PerKeyEstimator.build(
            keys, lambda m, s: CountMinHeap.from_memory(m, seed=s), MEMORY
        )
    if family == "r-hhh":
        return lambda: HierarchyEstimator(
            RandomizedHHH(keys, MEMORY, seed=1)
        )
    raise ValueError(family)


#: (family, key set) pairs; the numpy engine packs keys of at most 128
#: bits, so it runs the IPv4 keys only.
CASES = [
    ("coco-numpy", "ipv4"),
    ("coco-scalar", "ipv4"),
    ("per-key", "ipv4"),
    ("r-hhh", "ipv4"),
    ("coco-scalar", "ipv6"),
    ("per-key", "ipv6"),
    ("r-hhh", "ipv6"),
]


def _windows(key_set):
    a, b = heavy_change_windows(
        num_packets=10_000, num_flows=1_500, change_fraction=0.02, seed=8
    )
    if key_set == "ipv6":
        return _ipv6_trace(a), _ipv6_trace(b)
    return a, b


@pytest.fixture(scope="module")
def traces():
    trace = caida_like(num_packets=12_000, num_flows=2_000, seed=17)
    return {"ipv4": trace, "ipv6": _ipv6_trace(trace)}


def _assert_same(report, reference):
    assert report.recall == reference.recall
    assert report.precision == reference.precision
    assert math.isclose(report.are, reference.are, rel_tol=1e-12, abs_tol=0.0)


def _abs_change(table_a, table_b):
    """|a - b| per key over the union of two dict tables."""
    return {
        k: abs(table_a.get(k, 0) - table_b.get(k, 0))
        for k in set(table_a) | set(table_b)
    }


def _hhh_reference(estimator, trace, hierarchy, threshold):
    """Micro-averaged HHH report from per-level set counts."""
    n_reported = n_correct = n_hits = 0
    are_sum = 0.0
    for partial in hierarchy:
        truth = trace.ground_truth(partial)
        estimates = estimator.table(partial)
        reported = {k for k, v in estimates.items() if v >= threshold}
        correct = {k for k, v in truth.items() if v >= threshold}
        n_reported += len(reported)
        n_correct += len(correct)
        n_hits += len(reported & correct)
        are_sum += sum(
            abs(estimates.get(k, 0.0) - truth[k]) / truth[k] for k in correct
        )
    return AccuracyReport(
        recall=n_hits / n_correct if n_correct else 1.0,
        precision=n_hits / n_reported if n_reported else 1.0,
        are=are_sum / n_correct if n_correct else 0.0,
    )


@pytest.mark.parametrize("family,key_set", CASES)
class TestScoringMatchesDictReference:
    def test_heavy_hitters(self, traces, family, key_set):
        spec, keys = KEY_SETS[key_set]
        trace = traces[key_set]
        estimator = _estimator_factory(family, spec, keys)()
        reports = heavy_hitter_task(estimator, trace, keys, HH_FRACTION)
        threshold = HH_FRACTION * trace.total_size
        for partial in keys:
            truth = trace.ground_truth(partial)
            assert max(truth.values()) >= threshold  # a non-empty truth set
            reference = evaluate_heavy_hitters(
                estimator.table(partial), truth, threshold
            )
            _assert_same(reports[partial.name], reference)

    def test_heavy_changes(self, family, key_set):
        spec, keys = KEY_SETS[key_set]
        window_a, window_b = _windows(key_set)
        build = _estimator_factory(family, spec, keys)
        made = []

        def make():
            made.append(build())
            return made[-1]

        reports = heavy_change_task(
            make, window_a, window_b, keys, CHANGE_FRACTION
        )
        est_a, est_b = made
        threshold = (
            CHANGE_FRACTION * (window_a.total_size + window_b.total_size) / 2
        )
        for partial in keys:
            true_changes = _abs_change(
                window_a.ground_truth(partial), window_b.ground_truth(partial)
            )
            assert max(true_changes.values()) >= threshold
            reference = evaluate_heavy_hitters(
                _abs_change(est_a.table(partial), est_b.table(partial)),
                true_changes,
                threshold,
            )
            _assert_same(reports[partial.name], reference)

    def test_hhh(self, traces, family, key_set):
        spec, keys = KEY_SETS[key_set]
        trace = traces[key_set]
        estimator = _estimator_factory(family, spec, keys)()
        report = hhh_task(estimator, trace, keys, HHH_FRACTION)
        reference = _hhh_reference(
            estimator, trace, keys, HHH_FRACTION * trace.total_size
        )
        assert reference.recall < 1.0 or reference.precision < 1.0 or (
            reference.are > 0.0
        )
        _assert_same(report, reference)


class TestColumnarScorerEdges:
    """``evaluate_heavy_hitters_columns`` on tables the tasks rarely hit."""

    KEY = FIVE_TUPLE.partial("SrcIP", "DstIP")  # 64 bits, one word

    def _score(self, estimates, truth, threshold=10.0, key=KEY):
        report = evaluate_heavy_hitters_columns(
            ColumnTable.from_dict(estimates, key),
            ColumnTable.from_dict(truth, key),
            threshold,
        )
        _assert_same(report, evaluate_heavy_hitters(estimates, truth, threshold))

    def test_empty_estimates(self):
        self._score({}, {1: 50, 2: 5})

    def test_empty_truth_and_estimates(self):
        self._score({}, {})

    def test_disjoint_keys(self):
        self._score({7: 40.0, 8: 3.0}, {1: 50, 2: 12})

    def test_unsorted_duplicate_estimate_rows(self):
        # Raw (ungrouped) estimates are grouped before scoring.
        raw = ColumnTable(
            self.KEY,
            np.array([[9, 1, 9, 4]], dtype=np.uint64),
            np.array([6.0, 30.0, 6.0, 2.0]),
        )
        report = evaluate_heavy_hitters_columns(
            raw, ColumnTable.from_dict({1: 25, 9: 11, 4: 1}, self.KEY), 10.0
        )
        _assert_same(
            report,
            evaluate_heavy_hitters({1: 30.0, 9: 12.0, 4: 2.0}, {1: 25, 9: 11, 4: 1}, 10.0),
        )

    def test_multi_word_keys(self):
        key = IPV6_FIVE_TUPLE.partial("SrcIPv6", "DstIPv6")  # 256 bits
        big = 1 << 200
        self._score(
            {big | 1: 30.0, 5: 12.0, big: 4.0},
            {big | 1: 28, big: 11, 3: 15},
            key=key,
        )

    def test_word_count_mismatch_rejected(self):
        with pytest.raises(ValueError):
            evaluate_heavy_hitters_columns(
                ColumnTable.from_dict({1: 5.0}, self.KEY),
                ColumnTable.from_dict({1: 5}, FIVE_TUPLE.identity_partial()),
                1.0,
            )
        # Same word count (one each), different key: still rejected.
        other = FIVE_TUPLE.partial(("SrcIP", 24), "DstIP")
        with pytest.raises(ValueError):
            evaluate_heavy_hitters_columns(
                ColumnTable.from_dict({1: 5.0}, other),
                ColumnTable.from_dict({1: 5}, self.KEY),
                1.0,
            )
