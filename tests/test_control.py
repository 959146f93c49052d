"""Control-plane suite: elastic geometry + multi-tenant governance.

Five families of guarantees, matching docs/governance.md:

* **Governor decisions** — the occupancy-driven control law is pure and
  deterministic: grow/shrink thresholds, budget/floor clamps and the
  anti-flap shrink veto all behave exactly as specified.
* **Resize statistics** — grow/shrink re-hash folds
  (``resize_cocosketch``, a library function: the service sums epochs
  across a resize instead) preserve Lemma-3 partial-key unbiasedness,
  gated through the shared stat harness so ``REPRO_STAT_*`` margins
  apply.
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
from repro.control.governor import MIN_L
from repro.core.query import FlowTable
from repro.engine.base import buckets_for_memory
from repro.engine.kernels import BACKEND_ENV, resolve_kernels
from repro.engine.sharded import SketchSpec, shard_table_columns
from repro.engine.vectorized import (
    MAX_PIPELINE_CHUNK,
    NumpyCocoSketch,
    NumpyHardwareCocoSketch,
)
from repro.extensions.merging import resize_cocosketch
from repro.flowkeys.key import FIVE_TUPLE
from repro.service import MeasurementDaemon, ServiceConfig
from repro.sketches.base import COUNTER_BYTES, DEFAULT_KEY_BYTES
from repro.traffic.synthetic import caida_like, mawi_like, zipf_trace
from repro.traffic.trace import Trace

from tests.stat_harness import (
    DEFAULT_ABS_FLOOR,
    DEFAULT_Z,
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
        decision = gov().decide(Signals(l=128, occupancy=0.8))
        assert decision.new_l == 256
        assert decision.resized
        assert "grow" in decision.reason

    def test_steady_between_thresholds(self):
        decision = gov().decide(Signals(l=128, occupancy=0.5))
        assert decision == Decision()

    def test_grow_clamped_to_budget(self):
        governor = gov(memory_kb=8)
        expected_max = buckets_for_memory(
            8 * 1024, governor.d, governor.key_bytes
        )
        assert governor.max_l == expected_max
        decision = governor.decide(
            Signals(l=expected_max - 1, occupancy=0.95)
        )
        assert decision.new_l == expected_max
        # At the ceiling there is nothing left to grow into.
        assert not governor.decide(
            Signals(l=expected_max, occupancy=0.99)
        ).resized

    def test_shrink_on_low_occupancy(self):
        decision = gov().decide(Signals(l=1024, occupancy=0.1))
        assert decision.new_l == 512
        assert "shrink" in decision.reason

    def test_shrink_clamped_to_floor(self):
        decision = gov().decide(Signals(l=100, occupancy=0.05))
        assert decision.new_l == MIN_L == 64

    def test_shrink_vetoed_when_projection_would_regrow(self):
        # occupancy 0.3 at l would project to 0.6 at l/2, past the 0.5
        # grow threshold — re-hashing into the shrunk array would
        # immediately re-trigger a grow, so the governor must hold
        # steady instead of flapping.
        decision = gov(grow_occupancy=0.5, shrink_occupancy=0.3).decide(
            Signals(l=1024, occupancy=0.3)
        )
        assert not decision.resized

    def test_decide_is_deterministic(self):
        signals = Signals(l=256, occupancy=0.85)
        assert gov().decide(signals) == gov().decide(signals)

    def test_buckets_for_memory_inverts_budget(self):
        governor = gov(memory_kb=64)
        bucket = governor.d * (governor.key_bytes + COUNTER_BYTES)
        assert governor.max_l == buckets_for_memory(
            64 * 1024, governor.d, governor.key_bytes
        )
        assert governor.max_l * bucket <= 64 * 1024
        assert (governor.max_l + 1) * bucket > 64 * 1024

    @pytest.mark.parametrize(
        "kw",
        [
            {"memory_bytes": 0},
            {"memory_bytes": 1 << 20, "grow_occupancy": 0.2,
             "shrink_occupancy": 0.4},
            {"memory_bytes": -1},
            {"memory_bytes": 1 << 20, "grow_occupancy": 1.5},
            {"memory_bytes": 1 << 20, "shrink_occupancy": 0.0},
            {"memory_bytes": 1 << 20, "grow_occupancy": 0.4,
             "shrink_occupancy": 0.4},
            {"memory_bytes": 1 << 20, "shrink_occupancy": -0.1},
        ],
    )
    def test_config_validation(self, kw):
        with pytest.raises(ValueError):
            GovernorConfig(**kw)

    def test_floor_above_budget_rejected(self):
        bucket = 2 * (DEFAULT_KEY_BYTES + COUNTER_BYTES)
        with pytest.raises(ValueError, match="exceeds the budget"):
            ResourceGovernor(GovernorConfig(memory_bytes=10 * bucket), d=2)


class TestGovernedStart:
    def test_daemon_rejects_start_above_budget(self):
        # 16 KB at d=2 buys max_l 481; 752 is 1/8 of a 200 KB spec.
        governor = GovernorConfig(memory_bytes=16 * 1024)
        assert ResourceGovernor(governor).max_l == 481
        with pytest.raises(ValueError, match="max_l"):
            MeasurementDaemon(make_config(l=752, governor=governor))
        MeasurementDaemon(make_config(l=481, governor=governor)).close()


# -- resize preserves Lemma-3 unbiasedness ------------------------------

RESIZE_TRACE = zipf_trace(12_000, 2_500, alpha=1.1, seed=7)
RESIZE_SPECS = random_partial_specs(2, seed=3)


class TestResizeUnbiasedness:
    """The cross-geometry re-hash fold ``resize_cocosketch``."""

    @pytest.mark.parametrize("spec", RESIZE_SPECS, ids=lambda s: s.name)
    @pytest.mark.parametrize("path", ["grow", "shrink", "round-trip"])
    def test_resize_preserves_partial_key_unbiasedness(self, spec, path):
        def make_state(seed):
            sketch = NumpyCocoSketch(d=2, l=512, seed=seed)
            sketch.process(RESIZE_TRACE)
            if path in ("grow", "round-trip"):
                sketch = resize_cocosketch(sketch, 1024, seed=seed + 101)
            if path in ("shrink", "round-trip"):
                sketch = resize_cocosketch(sketch, 256, seed=seed + 202)
            return sketch

        assert_partial_key_unbiased_states(
            make_state,
            RESIZE_TRACE,
            spec,
            trials=12,
            base_seed=50,
            label=f"resized ({path})",
        )


COLUMNAR = [NumpyCocoSketch, NumpyHardwareCocoSketch]
FOLD_TRACE = caida_like(40_000, 10_000, seed=5)


def _measured(cls, l, seed=3):
    sketch = cls(d=2, l=l, seed=seed)
    sketch.process(FOLD_TRACE)
    return sketch


def _set_buckets(sketch, row, cells):
    """Write ``(key or None, value)`` cells into *row* of a blank sketch."""
    for j, (key, value) in enumerate(cells):
        sketch._vals[row, j] = value
        if key is not None:
            sketch._occupied[row, j] = True
            sketch._key_hi[row, j] = (key >> 64) & ((1 << 64) - 1)
            sketch._key_lo[row, j] = key & ((1 << 64) - 1)


class TestResizeFoldContract:
    """The re-hash fold's law on the columnar engines, bucket by bucket."""

    @pytest.mark.parametrize("cls", COLUMNAR, ids=lambda c: c.__name__)
    @pytest.mark.parametrize(
        "old_l,new_l", [(188, 376), (1505, 752), (4096, 8192)]
    )
    def test_mass_exact_and_keys_at_canonical_index(self, cls, old_l, new_l):
        sketch = _measured(cls, old_l)
        out = resize_cocosketch(sketch, new_l, seed=9)
        assert out.l == new_l and out._vals.shape == (2, new_l)
        assert (out._vals.sum(axis=1) == sketch._vals.sum(axis=1)).all()
        held = {}
        for i in range(out.d):
            js = np.flatnonzero(out._occupied[i])
            assert js.size > 0
            hi, lo = out._key_hi[i, js], out._key_lo[i, js]
            canonical = out._family.index_array(i, hi ^ lo, new_l)
            assert (canonical == js).all()
            for h, lw, v in zip(hi.tolist(), lo.tolist(), out._vals[i, js].tolist()):
                held.setdefault((h << 64) | lw, []).append((i, v))
        for key in list(held)[:200]:
            if cls is NumpyHardwareCocoSketch:
                for i, v in held[key]:
                    assert out.array_estimate(i, key) == v
            else:
                assert out.query(key) == sum(v for _, v in held[key])

    @pytest.mark.parametrize("cls", COLUMNAR, ids=lambda c: c.__name__)
    def test_keyless_mass_is_conserved_and_stays_keyless(self, cls):
        sketch = _measured(cls, 188)
        # Strip every key: only residual mass is left to fold.
        sketch._occupied[:] = False
        sketch._key_hi[:] = 0
        sketch._key_lo[:] = 0
        out = resize_cocosketch(sketch, 50, seed=4)
        assert not out._occupied.any()
        assert not out._key_hi.any() and not out._key_lo.any()
        for i in range(sketch.d):
            folded = np.bincount(
                np.arange(188) % 50, weights=sketch._vals[i], minlength=50
            )
            assert (out._vals[i] == folded).all()

    @pytest.mark.parametrize("cls", COLUMNAR, ids=lambda c: c.__name__)
    def test_same_seed_same_arrays_and_identity_width(self, cls):
        sketch = _measured(cls, 1505)
        a = resize_cocosketch(sketch, 752, seed=11)
        b = resize_cocosketch(sketch, 752, seed=11)
        for name in ("_key_hi", "_key_lo", "_occupied", "_vals"):
            assert (getattr(a, name) == getattr(b, name)).all()
        assert resize_cocosketch(sketch, 1505, seed=11) is sketch

    @pytest.mark.parametrize("cls", COLUMNAR, ids=lambda c: c.__name__)
    @pytest.mark.parametrize(
        "cells",
        [
            # Three keyed buckets: each key wins with probability v / V.
            [(0xA, 1), (0xB << 64 | 0xB, 3), (0xC, 4)],
            # A zero-mass keyed prefix, keyless mass ahead of the first
            # key and between keys, and a key seen twice.
            [(0xD, 0), (None, 2), (0xA, 1), (0xB, 3), (0xA, 2), (None, 1),
             (0xC, 4)],
        ],
        ids=["three-keyed", "mixed"],
    )
    def test_forced_collision_follows_the_sequential_chain(self, cls, cells):
        total = sum(v for _, v in cells)
        law = _chain_law(cells)
        if all(k is not None for k, _ in cells):
            assert law == pytest.approx({k: v / total for k, v in cells})
        sketch = cls(d=1, l=len(cells), seed=1)
        _set_buckets(sketch, 0, cells)
        trials = 400
        wins = {}
        for seed in range(trials):
            out = resize_cocosketch(sketch, 1, seed=seed)
            assert out._occupied[0, 0] and out._vals[0, 0] == total
            key = int(out._key_hi[0, 0]) << 64 | int(out._key_lo[0, 0])
            wins[key] = wins.get(key, 0) + 1
        assert set(wins) <= set(law), wins
        for key, p in law.items():
            bound = DEFAULT_Z * np.sqrt(trials * p * (1 - p))
            assert abs(wins.get(key, 0) - trials * p) <= bound, (key, wins)


def _chain_law(cells):
    """Exact key distribution of folding *cells* one by one through
    :func:`repro.extensions.merging._fold_bucket` (the reference law)."""
    law, mass = {None: 1.0}, 0
    for key, value in cells:
        mass += value
        if mass == 0:
            law = {None: 1.0}
            continue
        if key is None:
            continue
        folded = {}
        for cur, p in law.items():
            adopt = 1.0 if cur is None else value / mass
            folded[key] = folded.get(key, 0.0) + p * adopt
            folded[cur] = folded.get(cur, 0.0) + p * (1 - adopt)
        law = {k: p for k, p in folded.items() if p > 0}
    return law


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
            daemon.live_planner()
            daemon.set_geometry(1024)
            for hi, lo, sizes in blocks[2:4]:
                daemon.ingest(hi, lo, sizes)
            daemon.rotate()  # staged geometry lands here
            assert daemon.spec.l == 1024
            assert chunk_gauge() == chunks[1]
            for hi, lo, sizes in blocks[4:]:
                daemon.ingest(hi, lo, sizes)

            def assert_bit_exact():
                (_, slim) = daemon.live_planner()
                with daemon._lock:  # the shards never race a chunk here
                    fat = shard_table_columns(
                        daemon._builder.live_sketches(), FIVE_TUPLE
                    )
                for spec in random_partial_specs(3, seed=5):
                    slim_table = slim.table(spec)
                    fat_table = fat.aggregate(spec)
                    assert slim_table.top_k(25) == fat_table.top_k(25)
                    for key, value in fat_table.top_k(25):
                        assert slim_table.lookup(key) == value

            assert_bit_exact()

            # Empty-epoch path: a staged resize with no traffic swaps
            # the builder in place, which must *invalidate* the replica
            # (same epoch tag, new shape).
            daemon.rotate()
            daemon.live_planner()
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
    # The joint tenant budget is the parent's footprint: ~1 MiB at d=2,
    # so quiet stays over-provisioned.
    PARENT_L = (1 << 20) // (2 * (DEFAULT_KEY_BYTES + COUNTER_BYTES))
    BUDGET = 2 * PARENT_L * (DEFAULT_KEY_BYTES + COUNTER_BYTES)
    PSPEC = FIVE_TUPLE.partial(("SrcIP", 16))

    def _quiet_are(self, seed: int, adversarial: bool) -> float:
        base = zipf_trace(10_000, 1_600, alpha=1.1, seed=seed)
        spec_seed = seed + 17
        config = make_config(
            l=self.PARENT_L, seed=spec_seed, tenants=("quiet", "noisy")
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
            (_, planner) = quiet.live_planner()
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
        config = make_config(l=self.PARENT_L, tenants=("a", "b"))
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
        def shares():
            return [row["share"] for row in manager.status()]

        try:
            assert shares() == pytest.approx([0.5, 0.5])
            trace = zipf_trace(4_000, 500, alpha=1.1, seed=9)
            hi, lo, sizes = next(trace.batches(len(trace)))
            manager.route(hi, lo, sizes)
            manager.on_parent_rotate()
            after = shares()
            assert sum(after) == pytest.approx(1.0)
            # Nobody ever drops below the guaranteed reserve.
            assert all(s >= manager.reserve - 1e-9 for s in after)
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
