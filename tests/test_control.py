"""Control-plane suite: elastic geometry + multi-tenant governance.

Five families of guarantees, matching docs/governance.md:

* **Governor decisions** — the occupancy-driven control law is pure and
  deterministic: grow/shrink thresholds, budget/floor clamps, the
  anti-flap shrink veto, resize cool-down and skew-triggered
  repartition all behave exactly as specified.
* **Resize statistics** — grow/shrink re-hash folds preserve Lemma-3
  partial-key unbiasedness, gated through the shared stat harness so
  ``REPRO_STAT_*`` margins apply.
* **Slim/fat consistency** — the slim replica's answers stay bit-exact
  against the fat path across a staged geometry change (the replica
  must re-bootstrap at the new shape rather than apply stale deltas).
* **Tenant isolation** — an adversarial tenant flooding its own
  namespace must not move a quiet tenant's error profile beyond the
  two-sample stat-harness margin, and never leaks packets across the
  namespace boundary.
* **Adaptive gate** — under a workload that shifts mid-run, the
  governed daemon's landed geometry answers within 5% ARE of the best
  hand-tuned static geometry at equal memory (the pytest half of the
  ``--sweep adaptive`` acceptance gate).
"""

import numpy as np
import pytest

from repro.control import (
    Decision,
    GovernorConfig,
    ResourceGovernor,
    Signals,
    TenantManager,
    tenant_assignments,
)
from repro.core.query import FlowTable
from repro.engine.base import buckets_for_memory
from repro.engine.kernels import BACKEND_ENV, resolve_kernels
from repro.engine.sharded import SketchSpec
from repro.engine.vectorized import MAX_PIPELINE_CHUNK, NumpyCocoSketch
from repro.flowkeys.key import FIVE_TUPLE
from repro.service import MeasurementDaemon, ServiceConfig
from repro.sketches.base import COUNTER_BYTES, DEFAULT_KEY_BYTES
from repro.traffic.synthetic import caida_like, mawi_like, zipf_trace
from repro.traffic.trace import Trace

from tests.stat_harness import (
    DEFAULT_ABS_FLOOR,
    assert_error_profile,
    assert_partial_key_unbiased_states,
    random_partial_specs,
)

CHUNK = 2048


def make_config(l=512, seed=3, d=2, **kw):
    spec = SketchSpec(engine="numpy", variant="basic", d=d, l=l, seed=seed)
    return ServiceConfig(
        spec=spec, key_spec=FIVE_TUPLE, shards=1, chunk=CHUNK, **kw
    )


# -- governor control law ----------------------------------------------


def gov(memory_kb=512, **kw) -> ResourceGovernor:
    return ResourceGovernor(GovernorConfig(memory_bytes=memory_kb * 1024, **kw))


class TestGovernorDecisions:
    def test_grow_on_high_occupancy(self):
        decision = gov().decide(Signals(epoch=0, l=128, occupancy=0.8))
        assert decision.new_l == 256
        assert decision.resized and not decision.repartition
        assert "grow" in decision.reason

    def test_steady_between_thresholds(self):
        decision = gov().decide(Signals(epoch=0, l=128, occupancy=0.5))
        assert decision == Decision()

    def test_grow_clamped_to_budget(self):
        governor = gov(memory_kb=8)
        expected_max = buckets_for_memory(
            8 * 1024, governor.d, governor.key_bytes
        )
        assert governor.max_l == expected_max
        decision = governor.decide(
            Signals(epoch=0, l=expected_max - 1, occupancy=0.95)
        )
        assert decision.new_l == expected_max
        # At the ceiling there is nothing left to grow into.
        assert not governor.decide(
            Signals(epoch=1, l=expected_max, occupancy=0.99)
        ).resized

    def test_shrink_on_low_occupancy(self):
        decision = gov().decide(Signals(epoch=0, l=1024, occupancy=0.1))
        assert decision.new_l == 512
        assert "shrink" in decision.reason

    def test_shrink_clamped_to_floor(self):
        decision = gov(min_l=100, shrink_factor=0.1).decide(
            Signals(epoch=0, l=128, occupancy=0.05)
        )
        assert decision.new_l == 100

    def test_shrink_vetoed_when_projection_would_regrow(self):
        # occupancy 0.25 at l would project to 1.0 at l/4 — re-hashing
        # into the shrunk array would immediately re-trigger a grow, so
        # the governor must hold steady instead of flapping.
        decision = gov(shrink_factor=0.25).decide(
            Signals(epoch=0, l=1024, occupancy=0.25)
        )
        assert not decision.resized

    def test_cooldown_blocks_consecutive_resizes(self):
        governor = gov(cooldown_epochs=2)
        assert governor.decide(Signals(epoch=1, l=128, occupancy=0.9)).resized
        assert not governor.decide(
            Signals(epoch=2, l=256, occupancy=0.9)
        ).resized
        assert governor.decide(Signals(epoch=3, l=256, occupancy=0.9)).resized

    def test_repartition_on_skew(self):
        governor = gov(imbalance_limit=1.5)
        decision = governor.decide(
            Signals(epoch=0, l=128, occupancy=0.5, imbalance=2.0)
        )
        assert decision.repartition and not decision.resized
        assert "repartition" in decision.reason
        assert not governor.decide(
            Signals(epoch=1, l=128, occupancy=0.5, imbalance=1.4)
        ).repartition

    def test_decide_is_deterministic(self):
        signals = Signals(epoch=3, l=256, occupancy=0.85, imbalance=1.1)
        assert gov().decide(signals) == gov().decide(signals)

    def test_memory_at_inverts_budget(self):
        governor = gov(memory_kb=64)
        assert governor.memory_at(governor.max_l) <= 64 * 1024
        assert (
            governor.memory_at(governor.max_l + 1) > 64 * 1024
        )

    @pytest.mark.parametrize(
        "kw",
        [
            {"memory_bytes": 0},
            {"memory_bytes": 1 << 20, "min_l": 0},
            {"memory_bytes": 1 << 20, "grow_occupancy": 0.2,
             "shrink_occupancy": 0.4},
            {"memory_bytes": 1 << 20, "grow_factor": 1.0},
            {"memory_bytes": 1 << 20, "shrink_factor": 1.5},
            {"memory_bytes": 1 << 20, "imbalance_limit": -1},
            {"memory_bytes": 1 << 20, "cooldown_epochs": -1},
        ],
    )
    def test_config_validation(self, kw):
        with pytest.raises(ValueError):
            GovernorConfig(**kw)

    def test_floor_above_budget_rejected(self):
        bucket = 2 * (DEFAULT_KEY_BYTES + COUNTER_BYTES)
        with pytest.raises(ValueError, match="exceeds the budget"):
            ResourceGovernor(
                GovernorConfig(memory_bytes=10 * bucket, min_l=100), d=2
            )


# -- resize preserves Lemma-3 unbiasedness ------------------------------

RESIZE_TRACE = zipf_trace(12_000, 2_500, alpha=1.1, seed=7)
RESIZE_SPECS = random_partial_specs(2, seed=3)


class TestResizeUnbiasedness:
    @pytest.mark.parametrize("spec", RESIZE_SPECS, ids=lambda s: s.name)
    @pytest.mark.parametrize("path", ["grow", "shrink", "round-trip"])
    def test_resize_preserves_partial_key_unbiasedness(self, spec, path):
        def make_state(seed):
            sketch = NumpyCocoSketch(d=2, l=512, seed=seed)
            sketch.process(RESIZE_TRACE)
            if path in ("grow", "round-trip"):
                sketch.resize(1024, seed=seed + 101)
            if path in ("shrink", "round-trip"):
                sketch.resize(256, seed=seed + 202)
            return sketch

        assert_partial_key_unbiased_states(
            make_state,
            RESIZE_TRACE,
            spec,
            trials=12,
            base_seed=50,
            label=f"resized ({path})",
        )


# -- slim replica stays bit-exact across a geometry change --------------


class TestSlimFatAcrossResize:
    # The basic engine's kernel chunk follows the width: d=2 runs at
    # 2048 -> 8192 -> 4096, the narrow d=8 case at 512 -> 2048 -> 1024.
    @pytest.mark.parametrize(
        "d,chunks", [(2, (2048, 8192, 4096)), (8, (512, 2048, 1024))],
        ids=["d2", "d8-narrow"],
    )
    def test_slim_matches_fat_across_staged_resize(self, d, chunks, monkeypatch):
        # The chunk follows the width only on the numpy kernels; the
        # compiled kernels hold 16384 throughout.  The narrow case pins
        # numpy so it always exercises a chunk change.
        if d == 8:
            monkeypatch.setenv(BACKEND_ENV, "numpy")
        if resolve_kernels().compiled:
            chunks = (MAX_PIPELINE_CHUNK,) * 3

        def chunk_gauge():
            return daemon.metrics_snapshot()["gauges"]["pipeline.chunk"]

        trace = zipf_trace(9_000, 1_800, alpha=1.1, seed=11)
        daemon = MeasurementDaemon(make_config(l=256, d=d))
        assert chunk_gauge() == chunks[0]
        blocks = list(trace.batches(1500))
        try:
            for hi, lo, sizes in blocks[:2]:
                daemon.ingest(hi, lo, sizes)
            daemon.rotate()
            # Warm the slim path at the old shape so the resize really
            # exercises invalidation, not a cold first bootstrap.
            daemon.live_planner("slim")
            daemon.set_geometry(1024)
            for hi, lo, sizes in blocks[2:4]:
                daemon.ingest(hi, lo, sizes)
            daemon.rotate()  # staged geometry lands here
            assert daemon.spec.l == 1024
            assert chunk_gauge() == chunks[1]
            for hi, lo, sizes in blocks[4:]:
                daemon.ingest(hi, lo, sizes)

            def assert_bit_exact():
                (_, slim) = daemon.live_planner("slim")
                (_, fat) = daemon.live_planner("fat")
                for spec in random_partial_specs(3, seed=5):
                    slim_table = slim.table(spec)
                    fat_table = fat.table(spec)
                    assert slim_table.top_k(25) == fat_table.top_k(25)
                    for key, value in fat_table.top_k(25):
                        assert slim_table.lookup(key) == value

            assert_bit_exact()

            # Empty-epoch path: a staged resize with no traffic swaps
            # the builder in place, which must *invalidate* the replica
            # (same epoch tag, new shape).
            daemon.rotate()
            daemon.live_planner("slim")
            daemon.set_geometry(512)
            daemon.rotate()
            assert daemon.spec.l == 512
            assert chunk_gauge() == chunks[2]
            assert_bit_exact()

            counters = daemon.metrics_snapshot()["counters"]
            assert counters.get("slim.invalidations", 0) >= 1
            assert counters.get("slim.geometry.rebootstraps", 0) >= 1
            assert counters.get("control.resizes", 0) >= 2
        finally:
            daemon.close()


# -- noisy-tenant isolation ---------------------------------------------


def _tenant_subtrace(trace: Trace, spec_seed: int, index: int, n=2) -> Trace:
    """The packets the router will hand to tenant *index*."""
    hi, lo, _sizes = next(trace.batches(len(trace)))
    assign = tenant_assignments(hi, lo, n, spec_seed)
    keys = [trace.keys[i] for i in np.nonzero(assign == index)[0]]
    return Trace(FIVE_TUPLE, keys, name=f"tenant{index}")


class TestTenantIsolation:
    BUDGET = 1 << 20  # 1 MiB joint budget: quiet stays over-provisioned
    PSPEC = FIVE_TUPLE.partial(("SrcIP", 16))

    def _quiet_are(self, seed: int, adversarial: bool) -> float:
        base = zipf_trace(10_000, 1_600, alpha=1.1, seed=seed)
        spec_seed = seed + 17
        config = make_config(
            l=256,
            seed=spec_seed,
            tenants=("quiet", "noisy"),
            tenant_memory_bytes=self.BUDGET,
        )
        quiet_trace = _tenant_subtrace(base, spec_seed, index=0)
        noise = None
        if adversarial:
            flood = mawi_like(10_000, 400, seed=seed + 99)
            noise = _tenant_subtrace(flood, spec_seed, index=1)
        daemon = MeasurementDaemon(config)
        try:
            base_blocks = list(base.batches(2000))
            noise_blocks = (
                list(noise.batches(2000)) if noise is not None else []
            )
            for i, (hi, lo, sizes) in enumerate(base_blocks):
                daemon.ingest(hi, lo, sizes)
                # The adversary floods 4x its fair share of packets.
                for hj, lj, sj in noise_blocks:
                    daemon.ingest(hj, lj, sj)
                if i % 2 == 1:
                    daemon.rotate()  # rebalances the tenant plane
            quiet = daemon.tenant_daemon("quiet")
            # Structural isolation: the quiet namespace saw exactly its
            # own packets, flood or no flood.
            assert quiet.status()["total_packets"] == len(quiet_trace)
            (_, planner) = quiet.live_planner(None)
            table = planner.table(self.PSPEC)
            truth = quiet_trace.ground_truth(self.PSPEC)
            ranked = sorted(truth.items(), key=lambda kv: -kv[1])[:12]
            return float(
                np.mean(
                    [abs(table.lookup(k) - v) / v for k, v in ranked]
                )
            )
        finally:
            daemon.close()

    def test_noisy_neighbour_cannot_move_quiet_tenant_error(self):
        seeds = range(6)
        baseline = [self._quiet_are(s, adversarial=False) for s in seeds]
        flooded = [self._quiet_are(s, adversarial=True) for s in seeds]
        assert_error_profile(
            flooded, baseline, label="quiet tenant under noisy neighbour"
        )

    def test_unknown_tenant_and_routing_purity(self):
        config = make_config(
            tenants=("a", "b"), tenant_memory_bytes=self.BUDGET
        )
        daemon = MeasurementDaemon(config)
        try:
            with pytest.raises(KeyError):
                daemon.tenant_daemon("missing")
            trace = zipf_trace(4_000, 800, alpha=1.1, seed=2)
            for hi, lo, sizes in trace.batches(1000):
                daemon.ingest(hi, lo, sizes)
            # Flow-purity: every packet lands in exactly one namespace.
            assert (
                daemon.tenant_daemon("a").status()["total_packets"]
                + daemon.tenant_daemon("b").status()["total_packets"]
                == len(trace)
            )
        finally:
            daemon.close()


# -- adaptive gate: governed vs best static at equal memory -------------


def _shifting_trace(seed: int) -> Trace:
    head = caida_like(24_000, 3_500, seed=seed)
    tail = mawi_like(24_000, 1_200, seed=seed + 1)
    return Trace(FIVE_TUPLE, head.keys + tail.keys, name="shifting")


def _range_are(daemon, epochs, pspec, truth, top=30) -> float:
    table = daemon.range_planner(epochs[0], epochs[-1]).table(pspec)
    ranked = sorted(truth.items(), key=lambda kv: -kv[1])[:top]
    return float(
        np.mean([abs(table.lookup(k) - v) / v for k, v in ranked])
    )


class TestAdaptiveGate:
    MEMORY = 64 * 1024
    EPOCH_PACKETS = 6_000

    def _run(self, trace, governed: bool):
        best_l = buckets_for_memory(self.MEMORY, 2, DEFAULT_KEY_BYTES)
        if governed:
            config = make_config(
                l=max(64, best_l // 8),
                epoch_packets=self.EPOCH_PACKETS,
                governor=GovernorConfig(memory_bytes=self.MEMORY),
            )
        else:
            config = make_config(
                l=best_l, epoch_packets=self.EPOCH_PACKETS
            )
        daemon = MeasurementDaemon(config)
        for hi, lo, sizes in trace.batches(CHUNK):
            daemon.ingest(hi, lo, sizes)
        daemon.close()
        return daemon

    def test_governor_within_five_percent_of_best_static(self):
        pspec = FIVE_TUPLE.partial(("SrcIP", 16))
        governed_errors, static_errors = [], []
        for seed in (21, 22, 23):
            trace = _shifting_trace(seed)
            governed = self._run(trace, governed=True)
            static = self._run(trace, governed=False)
            counters = governed.metrics_snapshot()["counters"]
            # The gate is vacuous unless the governor actually acted.
            assert counters.get("control.governor.resizes", 0) >= 1
            # Evaluate the landed geometry: the post-shift epochs.
            ids = governed.store.ids()
            assert ids == static.store.ids()
            eval_ids = [
                e for e in ids
                if governed.store.get(e).start_seq >= len(trace) // 2
            ]
            start = min(
                governed.store.get(e).start_seq for e in eval_ids
            )
            window = trace.slice(start, len(trace))
            truth = window.ground_truth(pspec)
            governed_errors.append(
                _range_are(governed, eval_ids, pspec, truth)
            )
            static_errors.append(
                _range_are(static, eval_ids, pspec, truth)
            )
        governed_mean = float(np.mean(governed_errors))
        static_mean = float(np.mean(static_errors))
        assert governed_mean <= 1.05 * static_mean + DEFAULT_ABS_FLOOR, (
            f"governed ARE {governed_mean:.4f} vs static "
            f"{static_mean:.4f} (limit 5% + {DEFAULT_ABS_FLOOR})"
        )


# -- tenant manager unit behaviour --------------------------------------


class TestTenantManager:
    def test_shares_track_weight_with_reserve_floor(self):
        config = make_config(tenants=None)
        manager = TenantManager(
            ["a", "b"], config, memory_bytes=1 << 20
        )
        try:
            assert manager.shares() == pytest.approx([0.5, 0.5])
            trace = zipf_trace(4_000, 500, alpha=1.1, seed=9)
            hi, lo, sizes = next(trace.batches(len(trace)))
            manager.route(hi, lo, sizes)
            manager.on_parent_rotate()
            shares = manager.shares()
            assert sum(shares) == pytest.approx(1.0)
            # Nobody ever drops below the guaranteed reserve.
            assert all(s >= manager.reserve - 1e-9 for s in shares)
        finally:
            manager.close()

    def test_validation(self):
        config = make_config(tenants=None)
        with pytest.raises(ValueError, match="unique"):
            TenantManager(["a", "a"], config, memory_bytes=1 << 20)
        with pytest.raises(ValueError, match="at least one"):
            TenantManager([], config, memory_bytes=1 << 20)
        with pytest.raises(ValueError, match="too small"):
            TenantManager(["a", "b"], config, memory_bytes=64)

    def test_assignments_are_flow_pure_and_salted(self):
        trace = zipf_trace(3_000, 400, alpha=1.1, seed=4)
        hi, lo, _sizes = next(trace.batches(len(trace)))
        assign = tenant_assignments(hi, lo, 3, seed=1)
        # Same flow key -> same tenant, always.
        fold = {}
        for i, key in enumerate(trace.keys):
            fold.setdefault(key, assign[i])
            assert fold[key] == assign[i]
        # Different seeds draw different partitions.
        other = tenant_assignments(hi, lo, 3, seed=2)
        assert (assign != other).any()
