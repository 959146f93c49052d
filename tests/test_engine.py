"""Execution-engine contracts: scalar vs numpy equivalence.

Two levels of guarantee, matching ``repro/engine/vectorized.py``:

* CM / CountSketch are **bit-identical** across engines under the same
  seed (property-tested over random key/size/batch-split choices).
* The CocoSketch variants are **statistically equivalent**: the numpy
  batch scheduling applies the paper's exact replacement rule and
  probabilities, so unbiasedness (Theorem 1 / Lemma 3) must hold on
  partial-key aggregates just as it does for the scalar classes.
"""

from __future__ import annotations

import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.analysis.empirical import (
    estimate_moments,
    mean_confidence_halfwidth,
)
from repro.core.query import FlowTable
from repro.engine import (
    NumpyCocoSketch,
    NumpyCountMin,
    NumpyCountSketch,
    NumpyHardwareCocoSketch,
    as_columns,
    available_engines,
    get_engine,
)
from repro.engine.vectorized import _POPCOUNT, _first_row, _kth_row, _row_codes
from repro.flowkeys.key import FIVE_TUPLE
from repro.hashing.family import HashFamily, fold_columns
from repro.obs.registry import get_registry
from repro.obs.replay import PURPOSE_ADOPT, PURPOSE_TIEBREAK, replay_draws
from repro.sketches.countmin import CountMinSketch
from repro.sketches.countsketch import CountSketch
from repro.traffic.synthetic import zipf_trace
from repro.traffic.trace import Trace

TRIALS = 60

# Keys up to 104 bits — the 5-tuple width, crossing the hi/lo split.
keys_st = st.lists(
    st.integers(min_value=0, max_value=(1 << 104) - 1), min_size=1, max_size=60
)
sizes_st = st.integers(min_value=1, max_value=1 << 20)


def feed_blocks(sketch, trace, block):
    """Feed *trace* through ``update_batch`` in *block*-packet batches."""
    for hi, lo, sizes in trace.batches(block):
        sketch.update_batch((hi, lo), sizes)


class TestRegistry:
    def test_both_engines_registered(self):
        assert set(available_engines()) >= {"scalar", "numpy"}

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError, match="scalar"):
            get_engine("cuda")

    def test_factories_build_matching_geometry(self):
        for name in ("scalar", "numpy"):
            sk = get_engine(name).cocosketch_from_memory(64 * 1024, d=2, seed=3)
            assert sk.memory_bytes() <= 64 * 1024


class TestIndexArrays:
    @given(keys=keys_st)
    @settings(max_examples=40, deadline=None)
    def test_matches_scalar_index_fns(self, keys):
        family = HashFamily(3, master_seed=11, backend="mix64")
        fns = family.index_fns(509)
        hi, lo, _ = as_columns(keys)
        J = family.index_arrays(fold_columns(hi, lo), 509)
        for col, key in enumerate(keys):
            for i in range(3):
                assert J[i, col] == fns[i](key)

    def test_non_mix64_backend_rejected(self):
        family = HashFamily(2, master_seed=1, backend="bob")
        with pytest.raises(NotImplementedError):
            family.index_arrays(np.zeros(1, dtype=np.uint64), 16)


class TestTraceBatches:
    def test_round_trip(self):
        trace = zipf_trace(5_000, 700, seed=3, with_bytes=True)
        rebuilt, sizes = [], []
        for hi, lo, w in trace.batches(777):
            for h, l_ in zip(hi.tolist(), lo.tolist()):
                rebuilt.append((h << 64) | l_)
            sizes.extend(w.tolist())
        assert rebuilt == trace.keys
        assert sizes == trace.sizes

    def test_unit_sizes_default(self):
        trace = zipf_trace(1_000, 200, seed=4)
        total = sum(int(w.sum()) for _, _, w in trace.batches(256))
        assert total == len(trace)

    def test_bad_batch_size_rejected(self):
        trace = zipf_trace(100, 20, seed=5)
        with pytest.raises(ValueError):
            next(trace.batches(0))


class TestBitIdentical:
    """CM / CountSketch: same seed, any batching -> same counters."""

    @given(keys=keys_st, data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_countmin(self, keys, data):
        sizes = [data.draw(sizes_st) for _ in keys]
        split = data.draw(st.integers(min_value=1, max_value=len(keys)))
        scalar = CountMinSketch(rows=3, width=128, seed=17)
        vector = NumpyCountMin(rows=3, width=128, seed=17)
        for k, s in zip(keys, sizes):
            scalar.update(k, s)
        vector.update_batch(keys[:split], sizes[:split])
        vector.update_batch(keys[split:], sizes[split:])
        assert [list(r) for r in scalar._counters] == vector._counters.tolist()
        for k in keys:
            assert scalar.query(k) == vector.query(k)

    @given(keys=keys_st, data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_countsketch(self, keys, data):
        sizes = [data.draw(sizes_st) for _ in keys]
        split = data.draw(st.integers(min_value=1, max_value=len(keys)))
        scalar = CountSketch(rows=3, width=128, seed=23)
        vector = NumpyCountSketch(rows=3, width=128, seed=23)
        for k, s in zip(keys, sizes):
            scalar.update(k, s)
        vector.update_batch(keys[:split], sizes[:split])
        vector.update_batch(keys[split:], sizes[split:])
        assert [list(r) for r in scalar._counters] == vector._counters.tolist()
        for k in keys:
            assert scalar.query(k) == vector.query(k)

    def test_process_routes_through_batches(self, tiny_trace):
        """Trace-columnar, chunked-iterable and scalar paths all agree."""
        a = NumpyCountMin(rows=3, width=256, seed=5)
        b = NumpyCountMin(rows=3, width=256, seed=5)
        c = CountMinSketch(rows=3, width=256, seed=5)
        a.process(tiny_trace)  # vectorised default: Trace.batches
        b.process(iter(tiny_trace))  # packed iterable blocks
        c.process(tiny_trace)  # scalar loop
        assert a._counters.tolist() == b._counters.tolist()
        assert a._counters.tolist() == [list(r) for r in c._counters]


class TestCocoBatchInvariants:
    def test_value_mass_conserved(self, tiny_trace):
        sk = NumpyCocoSketch(d=2, l=128, seed=8)
        sk.process(tiny_trace)
        assert int(sk._vals.sum()) == tiny_trace.total_size

    def test_hardware_value_mass_per_array(self, tiny_trace):
        sk = NumpyHardwareCocoSketch(d=2, l=128, seed=8)
        sk.process(tiny_trace)
        # §4.2 adds w to every array: each holds the full traffic mass.
        for i in range(2):
            assert int(sk._vals[i].sum()) == tiny_trace.total_size

    @pytest.mark.parametrize("cls", [NumpyCocoSketch, NumpyHardwareCocoSketch])
    def test_deterministic_given_seed_and_batching(self, tiny_trace, cls):
        a = cls(d=2, l=128, seed=13)
        b = cls(d=2, l=128, seed=13)
        feed_blocks(a, tiny_trace, 256)
        feed_blocks(b, tiny_trace, 256)
        assert np.array_equal(a._vals, b._vals)
        assert np.array_equal(a._key_hi, b._key_hi)
        assert np.array_equal(a._key_lo, b._key_lo)
        assert np.array_equal(a._occupied, b._occupied)

    def test_batch_size_independence_of_totals(self, tiny_trace):
        # Different schedules pick different victims, but the total
        # recorded mass is schedule-invariant.
        for bs in (1, 37, 4096):
            sk = NumpyCocoSketch(d=2, l=128, seed=2)
            feed_blocks(sk, tiny_trace, bs)
            assert int(sk._vals.sum()) == tiny_trace.total_size

    def test_reset_clears_state(self, tiny_trace):
        sk = NumpyCocoSketch(d=2, l=128, seed=4)
        sk.process(tiny_trace)
        sk.reset()
        assert int(sk._vals.sum()) == 0
        assert not sk._occupied.any()
        assert sk.occupancy() == 0.0


class TestStatisticalEquivalence:
    """Unbiasedness of the numpy CocoSketches on partial-key aggregates."""

    @pytest.fixture(scope="class")
    def stream(self):
        trace = zipf_trace(4_000, 600, alpha=1.1, seed=21)
        return trace

    @pytest.mark.parametrize(
        "cls", [NumpyCocoSketch, NumpyHardwareCocoSketch]
    )
    def test_partial_key_unbiased(self, stream, cls):
        srcip = FIVE_TUPLE.partial("SrcIP")
        truth = stream.ground_truth(srcip)
        target, target_size = sorted(truth.items(), key=lambda kv: -kv[1])[10]
        estimates = []
        for seed in range(TRIALS):
            sk = cls(d=2, l=256, seed=seed + 500)
            feed_blocks(sk, stream, 512)
            table = FlowTable.from_sketch(sk, FIVE_TUPLE).aggregate(srcip)
            estimates.append(table.query(target))
        mean, _ = estimate_moments(estimates)
        halfwidth = mean_confidence_halfwidth(estimates, z=3.5)
        assert abs(mean - target_size) <= max(halfwidth, 0.03 * target_size)

    def test_full_key_unbiased_mid_flow(self, stream):
        counts = sorted(stream.full_counts().items(), key=lambda kv: -kv[1])
        key, size = counts[25]
        estimates = []
        for seed in range(TRIALS):
            sk = NumpyCocoSketch(d=2, l=256, seed=seed)
            feed_blocks(sk, stream, 512)
            estimates.append(sk.query(key))
        mean, _ = estimate_moments(estimates)
        halfwidth = mean_confidence_halfwidth(estimates, z=3.5)
        assert abs(mean - size) <= max(halfwidth, 0.02 * size)


# -- the epoch schedule against its packed-sort reference -----------------


def _packed_sort_update_chunk(self, hi, lo, w, J, seq_base):
    """The basic rule's numpy kernel with bucket owners found by a packed
    value sort: the epoch schedule's reference, kept verbatim."""
    n = len(w)
    d = self.d
    s = self._scratch
    obs = get_registry()
    key_hi = self._key_hi_flat
    key_lo = self._key_lo_flat
    occupied = self._occupied_flat
    vals = self._vals_flat
    rng = self._rng
    replay = self._replay
    matched = 0
    scans = 0
    repl = 0
    rejects = 0
    evictions = [0] * d
    epochs = 0

    flat = J[:, :n] + self._row_offsets  # (d, n) flat bucket ids
    remaining = s.pos[:n]
    while remaining.size:
        epochs += 1
        idx = remaining
        b = flat if idx.size == n else flat[:, idx]
        # -- matched adds: key already held by a candidate bucket
        match = (
            occupied[b]
            & (key_hi[b] == hi[idx])
            & (key_lo[b] == lo[idx])
        )
        any_match = match.any(axis=0)
        if any_match.any():
            cols = np.nonzero(any_match)[0]
            # First matching array, as in the scalar early return.
            first_i = np.argmax(match[:, cols], axis=0)
            np.add.at(vals, b[first_i, cols], w[idx[cols]])
            matched += cols.size
            scans += int(first_i.sum()) + cols.size
            keep = ~any_match
            idx = idx[keep]
            b = b[:, keep]
            if idx.size == 0:
                break
        # -- eviction rule on a bucket-disjoint earliest-first set.
        # Bucket owners (earliest packet per contended bucket) come
        # from one packed value sort over (flat bucket, position)
        # composites; a packet owning all d of its buckets runs the
        # rule this epoch.
        m = idx.size
        pos_bits = max((m - 1).bit_length(), 1)
        comp = b << np.int64(pos_bits)
        comp |= s.pos[:m]
        c = comp.ravel()
        if (d * self.l) << pos_bits < 1 << 32:
            c = c.astype(np.uint32)
            c.sort()
            bkt = (c >> np.uint32(pos_bits)).astype(np.int64)
            p = (c & np.uint32((1 << pos_bits) - 1)).astype(np.int64)
        else:
            c.sort()
            bkt = c >> np.int64(pos_bits)
            p = c & np.int64((1 << pos_bits) - 1)
        total = d * m
        rs = np.empty(total, dtype=bool)
        rs[0] = True
        np.not_equal(bkt[1:], bkt[:-1], out=rs[1:])
        rs_idx = np.nonzero(rs)[0]
        rcounts = np.diff(np.append(rs_idx, total))
        owner = p[rs_idx]  # earliest packet per bucket run
        ok = p == np.repeat(owner, rcounts)
        selected = np.bincount(p[ok], minlength=m) == d
        sel = idx[selected]
        sN = sel.size
        bs = b[:, selected]  # (d, s), disjoint across packets
        V = vals[bs]
        minval = V.min(axis=0)
        # Uniform tie-break among minima (same law as the scalar
        # reservoir walk): the k-th tied bucket, k ~ U{0..ties-1}.
        ties = V == minval[None, :]
        cnt = ties.sum(axis=0)
        if replay:
            u_tie = replay_draws(
                self._replay_seed, seq_base + sel, PURPOSE_TIEBREAK
            )
            u_adopt = replay_draws(
                self._replay_seed, seq_base + sel, PURPOSE_ADOPT
            )
        else:
            u_tie = rng.random(sN)
            u_adopt = rng.random(sN)
        kth = np.minimum((u_tie * cnt).astype(np.int64), cnt - 1)
        chosen_i = np.argmax(
            np.cumsum(ties, axis=0) > kth[None, :], axis=0
        )
        targets = bs[chosen_i, np.arange(sN)]
        was_occupied = occupied[targets]
        ws = w[sel]
        new_v = minval + ws
        vals[targets] = new_v
        # Replacement with probability w / V_new (Theorem 1).
        adopt = u_adopt * new_v < ws
        ta = targets[adopt]
        key_hi[ta] = hi[sel][adopt]
        key_lo[ta] = lo[sel][adopt]
        occupied[ta] = True
        scans += d * sN
        adopted = int(adopt.sum())
        repl += adopted
        rejects += sN - adopted
        evicting = adopt & was_occupied
        if evicting.any():
            per_array = np.bincount(chosen_i[evicting], minlength=d)
            for i in range(d):
                evictions[i] += int(per_array[i])
        remaining = idx[~selected]
        if obs.enabled:
            obs.observe(
                "engine.numpy.basic.conflict_set", remaining.size
            )
    return (n, matched, scans, repl, rejects, evictions, epochs)


#: Histograms the epoch schedule publishes per chunk and per round.
SCHEDULE_HISTOGRAMS = (
    "engine.numpy.basic.epochs_per_batch",
    "engine.numpy.basic.conflict_set",
)

#: Feeds into the chunk loop: name -> fn(sketch, trace, hi, lo, sizes).
FEEDS = {
    "process": lambda sk, trace, hi, lo, sizes: sk.process(trace),
    "update_batch": lambda sk, trace, hi, lo, sizes: sk.update_batch(
        (hi, lo), sizes
    ),
    # The columns in *block*-packet slices, one update_batch each.
    **{
        f"columns-{block}": (
            lambda sk, trace, hi, lo, sizes, _b=block: feed_blocks(sk, trace, _b)
        )
        for block in (1, 511, 513, 16384, 20000)
    },
}


def _schedule_run(d, l, replay, feed, trace, reference):
    """Feed *trace* into a numpy-pinned basic sketch; return it and the
    schedule histograms it published."""
    sketch = NumpyCocoSketch(d, l, seed=5, replay=replay, kernels="numpy")
    if reference:
        sketch._update_chunk_numpy = types.MethodType(
            _packed_sort_update_chunk, sketch
        )
    hi, lo, sizes = next(trace.batches(len(trace)))
    with obs.collecting() as reg:
        FEEDS[feed](sketch, trace, hi, lo, sizes)
    hists = reg.snapshot()["histograms"]
    return sketch, {name: hists.get(name) for name in SCHEDULE_HISTOGRAMS}


def _schedule_trace(packets, flows, mixed, seed):
    """Zipf trace; *mixed* draws sizes log-uniformly from 1 to 10**6."""
    trace = zipf_trace(packets, flows, alpha=1.1, seed=seed)
    if not mixed:
        return trace
    rng = np.random.default_rng(seed)
    sizes = np.exp(rng.uniform(0, np.log(1e6), packets)).astype(np.int64)
    return Trace(trace.spec, trace.keys, sizes.tolist())


class TestRowBitmasks:
    """The kernel's lane-coded row choices equal the axis-0 idioms they
    replace, for one lane and for several (d > 8)."""

    @pytest.mark.parametrize("d", [1, 3, 8, 9, 12, 20])
    def test_first_and_kth_row(self, d):
        rng = np.random.default_rng(d)
        mask = rng.random((d, 3000)) < 0.3
        codes = _row_codes(mask)
        hit = mask.any(axis=0)
        first = _first_row(codes)
        assert np.array_equal(first[hit], np.argmax(mask[:, hit], axis=0))
        assert (first[~hit] >= d).all()
        pops = [_POPCOUNT.take(c) for c in codes]
        cnt = sum(pops[1:], pops[0])
        assert np.array_equal(cnt, mask.sum(axis=0))
        kth = np.minimum((rng.random(hit.sum()) * cnt[hit]).astype(np.int64), cnt[hit] - 1)
        expected = np.argmax(np.cumsum(mask[:, hit], axis=0) > kth[None, :], axis=0)
        got = _kth_row([c[hit] for c in codes], [p[hit] for p in pops], kth)
        assert np.array_equal(got, expected)


def _mask_export(sk):
    """The boolean-mask gather ``export_columns`` replaced (reference)."""
    occ = sk._occupied
    if not isinstance(sk, NumpyHardwareCocoSketch):
        return sk._key_hi[occ], sk._key_lo[occ], sk._vals[occ]
    if not occ.any():
        empty = np.empty(0, dtype=np.uint64)
        return empty, empty, np.empty(0, dtype=np.float64)
    uniq = np.unique(np.stack([sk._key_hi[occ], sk._key_lo[occ]], axis=1), axis=0)
    u_hi, u_lo = uniq[:, 0], uniq[:, 1]
    J = sk._family.index_arrays(fold_columns(u_hi, u_lo), sk.l)
    estimates = np.zeros((sk.d, len(u_hi)))
    for i in range(sk.d):
        j = J[i]
        hit = (
            sk._occupied[i][j]
            & (sk._key_hi[i][j] == u_hi)
            & (sk._key_lo[i][j] == u_lo)
        )
        estimates[i] = np.where(hit, sk._vals[i][j], 0.0)
    return u_hi, u_lo, np.median(estimates, axis=0)


def _mask_flow_table(sk):
    """The dict ``flow_table`` built from the mask gather (reference)."""
    hi, lo, vals = _mask_export(sk)
    table = {}
    for h, lw, v in zip(hi.tolist(), lo.tolist(), vals.tolist()):
        k = (h << 64) | lw
        table[k] = table.get(k, 0.0) + v
    return table


class TestFlatIndexExport:
    """``export_columns`` gathers by flat index; rows, order and dtypes
    equal the boolean-mask gather bit for bit, on live and read-only
    state, and the columns never alias the state."""

    @pytest.mark.parametrize("packets", [0, 300, 20_000], ids=["empty", "partial", "full"])
    @pytest.mark.parametrize("cls", [NumpyCocoSketch, NumpyHardwareCocoSketch])
    def test_matches_mask_gather(self, cls, packets):
        from repro.service.epochs import frozen_copy

        sk = cls(d=3, l=97, seed=5)
        if packets:
            sk.process(zipf_trace(packets, 4_000, alpha=1.1, seed=packets))
        occupancy = sk.occupancy()
        if packets == 0:
            assert occupancy == 0.0
        elif packets == 300:
            assert 0.0 < occupancy < 1.0
        else:
            assert occupancy == 1.0
        expected = _mask_export(sk)
        for source in (sk, frozen_copy(sk)):
            got = source.export_columns()
            for g, e in zip(got, expected):
                assert g.dtype == e.dtype
                assert np.array_equal(g, e)
                assert g.flags.writeable
                for state in (sk._key_hi, sk._key_lo, sk._vals):
                    assert not np.shares_memory(g, state)
            assert source.flow_table() == _mask_flow_table(sk)


class TestEpochScheduleReference:
    """The basic rule's numpy kernel keeps the epoch schedule bit for bit.

    Each case feeds one trace into two numpy-pinned sketches: one runs
    the engine's kernel, the other the packed-sort reference above.
    Both must end with the same key, occupancy and value arrays, the
    same ``CocoStats`` and the same per-chunk round and per-round
    conflict-set histograms, which pins the selections, the draws and
    their order.
    """

    @staticmethod
    def assert_same_schedule(d, l, replay, feed, trace):
        new, new_hists = _schedule_run(d, l, replay, feed, trace, False)
        ref, ref_hists = _schedule_run(d, l, replay, feed, trace, True)
        for field in ("_key_hi", "_key_lo", "_occupied", "_vals"):
            assert np.array_equal(getattr(new, field), getattr(ref, field)), field
        assert new.stats.as_dict() == ref.stats.as_dict()
        assert ref_hists["engine.numpy.basic.epochs_per_batch"] is not None
        assert new_hists == ref_hists

    @pytest.mark.parametrize("mixed", [False, True], ids=["unit", "mixed"])
    @pytest.mark.parametrize("replay", [False, True], ids=["rng", "replay"])
    @pytest.mark.parametrize("l", [7, 188, 1505, 65536])
    @pytest.mark.parametrize("d", [1, 2, 3, 4, 8, 12])
    def test_geometry(self, d, l, replay, mixed):
        trace = _schedule_trace(5_000, 1_500, mixed, seed=d * 31 + l)
        self.assert_same_schedule(d, l, replay, "columns-20000", trace)

    @pytest.mark.parametrize(
        "mixed, replay", [(False, False), (True, True)], ids=["unit", "mixed-replay"]
    )
    @pytest.mark.parametrize("feed", sorted(FEEDS))
    @pytest.mark.parametrize("d, l", [(8, 188), (2, 1505)])
    def test_feed(self, d, l, feed, mixed, replay):
        packets = 2_000 if feed == "columns-1" else 24_000
        trace = _schedule_trace(packets, 4_000, mixed, seed=l)
        self.assert_same_schedule(d, l, replay, feed, trace)
