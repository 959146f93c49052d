"""Statistical tests of the §5 guarantees (Monte-Carlo over seeds).

These verify the *distributional* claims: unbiasedness of all three
CocoSketch variants and of USS (Lemma 3/4) — including Lemma 3's
arbitrary-partial-key form over randomly sampled key subsets on every
execution path (scalar, numpy, sharded) — the Lemma 5 variance bound
for the hardware variant, and the Theorem 4 recall lower bound.  Sample
sizes are chosen so the checks are stable (fixed seeds, generous z;
margins overridable via REPRO_STAT_* — see tests/stat_harness.py).
"""

import pytest

from repro.analysis.bounds import per_array_variance, recall_lower_bound
from repro.analysis.empirical import (
    empirical_estimates,
    estimate_moments,
    mean_confidence_halfwidth,
)
from repro.core.cocosketch import BasicCocoSketch
from repro.core.hardware import HardwareCocoSketch, P4CocoSketch
from repro.core.uss import UnbiasedSpaceSaving
from repro.engine.sharded import ShardedSketch, SketchSpec
from repro.engine.vectorized import NumpyCocoSketch
from repro.traffic.synthetic import zipf_trace
from tests.stat_harness import (
    assert_partial_key_unbiased,
    random_partial_specs,
)

TRIALS = 60


@pytest.fixture(scope="module")
def stream():
    trace = zipf_trace(4_000, 600, alpha=1.1, seed=21)
    return list(trace), trace


@pytest.fixture(scope="module")
def mid_flow(stream):
    """A mid-sized flow: big enough to matter, small enough to collide."""
    _, trace = stream
    counts = sorted(trace.full_counts().items(), key=lambda kv: -kv[1])
    return counts[25]  # (key, size)


class TestUnbiasedness:
    @pytest.mark.parametrize(
        "factory_cls", [BasicCocoSketch, HardwareCocoSketch, P4CocoSketch]
    )
    def test_cocosketch_variants_unbiased(self, stream, mid_flow, factory_cls):
        packets, _ = stream
        key, size = mid_flow
        estimates = empirical_estimates(
            lambda seed: factory_cls(d=2, l=256, seed=seed),
            packets,
            key,
            TRIALS,
        )
        mean, _ = estimate_moments(estimates)
        halfwidth = mean_confidence_halfwidth(estimates, z=3.5)
        assert abs(mean - size) <= max(halfwidth, 0.02 * size)

    def test_uss_unbiased(self, stream, mid_flow):
        packets, _ = stream
        key, size = mid_flow
        estimates = empirical_estimates(
            lambda seed: UnbiasedSpaceSaving(256, seed=seed),
            packets,
            key,
            TRIALS,
        )
        mean, _ = estimate_moments(estimates)
        halfwidth = mean_confidence_halfwidth(estimates, z=3.5)
        assert abs(mean - size) <= max(halfwidth, 0.02 * size)

    def test_partial_key_estimates_unbiased(self, stream):
        # Lemma 3 extends to any partial key; check a SrcIP aggregate.
        from repro.core.query import FlowTable
        from repro.flowkeys.key import FIVE_TUPLE

        packets, trace = stream
        srcip = FIVE_TUPLE.partial("SrcIP")
        truth = trace.ground_truth(srcip)
        target, target_size = sorted(
            truth.items(), key=lambda kv: -kv[1]
        )[10]
        estimates = []
        for seed in range(TRIALS):
            sk = BasicCocoSketch(d=2, l=256, seed=seed + 500)
            sk.process(packets)
            table = FlowTable.from_sketch(sk, FIVE_TUPLE).aggregate(srcip)
            estimates.append(table.query(target))
        mean, _ = estimate_moments(estimates)
        halfwidth = mean_confidence_halfwidth(estimates, z=3.5)
        assert abs(mean - target_size) <= max(halfwidth, 0.03 * target_size)


class TestPartialKeyUnbiasedness:
    """Lemma 3 over randomly sampled key subsets, all execution paths.

    The same seeded spec sample (src/dst/prefix/port combinations from
    :func:`random_partial_specs`) gates the scalar reference, the numpy
    engine and the sharded pipeline, so a bias introduced by batching
    or by the Theorem 1 merge would surface here.
    """

    SPECS = random_partial_specs(3, seed=11)
    PK_TRIALS = 24

    @pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.name)
    def test_scalar_partial_keys_unbiased(self, stream, spec):
        _, trace = stream
        assert_partial_key_unbiased(
            lambda seed: BasicCocoSketch(d=2, l=256, seed=seed),
            trace,
            spec,
            trials=self.PK_TRIALS,
            base_seed=40,
            label="scalar",
        )

    @pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.name)
    def test_numpy_partial_keys_unbiased(self, stream, spec):
        _, trace = stream
        assert_partial_key_unbiased(
            lambda seed: NumpyCocoSketch(d=2, l=256, seed=seed, kernels="numpy"),
            trace,
            spec,
            trials=self.PK_TRIALS,
            base_seed=41,
            label="numpy",
        )

    @pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.name)
    def test_sharded_partial_keys_unbiased(self, stream, spec):
        _, trace = stream
        assert_partial_key_unbiased(
            lambda seed: ShardedSketch(
                SketchSpec(engine="numpy", d=2, l=256, seed=seed),
                shards=2,
                processes=False,
            ),
            trace,
            spec,
            trials=self.PK_TRIALS,
            base_seed=42,
            label="sharded",
        )


class TestVarianceBound:
    def test_lemma5_per_array_variance(self, stream, mid_flow):
        # Hardware variant, d = 1: Var[estimate] <= f(e) f_bar(e) / l.
        packets, trace = stream
        key, size = mid_flow
        l = 256
        estimates = empirical_estimates(
            lambda seed: HardwareCocoSketch(d=1, l=l, seed=seed),
            packets,
            key,
            TRIALS,
        )
        _, var = estimate_moments(estimates)
        bound = per_array_variance(size, trace.total_size - size, l)
        # Allow Monte-Carlo slack: sample variance ~ chi^2 spread.
        assert var <= 2.0 * bound


class TestRecallBound:
    def test_theorem4_lower_bound_holds(self, stream, mid_flow):
        packets, trace = stream
        key, size = mid_flow
        l = 128
        d = 2
        recorded = 0
        for seed in range(TRIALS):
            sk = HardwareCocoSketch(d=d, l=l, seed=seed + 900)
            sk.process(packets)
            if any(
                sk._keys[i][sk._hash[i](key)] == key for i in range(d)
            ):
                recorded += 1
        empirical = recorded / TRIALS
        bound = recall_lower_bound(size, trace.total_size - size, l, d)
        # 3-sigma slack below the bound for the binomial sample.
        sigma = (bound * (1 - bound) / TRIALS) ** 0.5
        assert empirical >= bound - 3.5 * sigma - 0.02
