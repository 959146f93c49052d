"""Differential tests: scalar vs numpy bit-identity under replay mode.

Both engines implement the same replacement laws, but their default
RNGs are different streams (``random.Random`` vs PCG64), so state can
only be compared distributionally.  Replay mode
(:mod:`repro.obs.replay`) removes the stream: every decision draws a
counter-based uniform keyed on ``(seed, packet seq, purpose)``, which
is consumption-order independent — so a scalar walk and a vectorised
schedule that make the same decisions consume the same numbers.

Under replay these suites assert **bit identity** of the final bucket
state *and* of the :class:`~repro.obs.stats.CocoStats` decision
counters across engines:

* Basic rule — exact at ``batch_size=1`` (the epoch scheduler is then
  sequential; larger batches reorder cross-bucket decisions, which is
  statistically but not bitwise equivalent).
* Hardware rule — exact at **any** batch size: the per-array
  sorted-cumsum schedule is sequential-equivalent bucket by bucket.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cocosketch import BasicCocoSketch
from repro.core.hardware import HardwareCocoSketch
from repro.engine.kernels import c_available, numba_available
from repro.engine.vectorized import NumpyCocoSketch, NumpyHardwareCocoSketch
from repro.traffic.synthetic import zipf_trace

GEOMETRIES = [(1, 128), (2, 128), (3, 64)]
SEEDS = [1, 5]

#: Kernel backends compiled from the shared source module
#: (:mod:`repro.engine.kernels.source`): ``python`` runs it un-jitted
#: everywhere, ``numba`` joins when the compiler is importable and
#: ``c`` when the system C compiler builds it.  Reference sketches that
#: stand for the numpy kernels pin ``kernels="numpy"``: the default
#: resolves to a compiled set wherever one is available.
KERNEL_BACKENDS = [
    pytest.param("python", id="kernel-python"),
    pytest.param(
        "numba",
        id="kernel-numba",
        marks=pytest.mark.skipif(
            not numba_available(), reason="numba not installed"
        ),
    ),
    pytest.param(
        "c",
        id="kernel-c",
        marks=pytest.mark.skipif(
            not c_available(), reason="no working C compiler"
        ),
    ),
]


@pytest.fixture(scope="module")
def traces():
    """Two small skewed traces: packet-count and byte-size weighted."""
    return [
        zipf_trace(2_500, 400, alpha=1.1, seed=31),
        zipf_trace(2_000, 250, alpha=1.3, seed=77),
    ]


def _bucket_state(sketch):
    """Engine-independent bucket dump: sorted (array, slot, key, value).

    Scalar sketches hold ``_keys``/``_vals`` lists; columnar sketches
    hold uint64 key columns plus an occupancy mask.  Empty-but-counted
    buckets (value without a key) are included — they are part of the
    state the wire format ships.
    """
    out = []
    if hasattr(sketch, "_key_hi"):
        for i in range(sketch.d):
            for j in range(sketch.l):
                occ = bool(sketch._occupied[i, j])
                value = int(sketch._vals[i, j])
                if occ or value:
                    key = (
                        (int(sketch._key_hi[i, j]) << 64)
                        | int(sketch._key_lo[i, j])
                        if occ
                        else None
                    )
                    out.append((i, j, key, value))
    else:
        for i in range(sketch.d):
            for j in range(sketch.l):
                key = sketch._keys[i][j]
                value = sketch._vals[i][j]
                if key is not None or value:
                    out.append((i, j, key, int(value)))
    return out


def _feed_batched(sketch, trace, batch_size):
    keys = [k for k, _ in trace]
    sizes = [s for _, s in trace]
    for start in range(0, len(keys), batch_size):
        sketch.update_batch(
            keys[start : start + batch_size],
            sizes[start : start + batch_size],
        )


def _feed_framing(sketch, trace, cuts):
    """Feed *trace* in irregular batches cycling through *cuts* sizes."""
    keys = [k for k, _ in trace]
    sizes = [s for _, s in trace]
    start = i = 0
    while start < len(keys):
        step = cuts[i % len(cuts)]
        i += 1
        sketch.update_batch(
            keys[start : start + step], sizes[start : start + step]
        )
        start += step


@pytest.mark.parametrize("d,l", GEOMETRIES)
@pytest.mark.parametrize("seed", SEEDS)
class TestBasicReplayIdentity:
    def test_state_and_stats_bit_identical(self, traces, d, l, seed):
        for trace in traces:
            scalar = BasicCocoSketch(d, l, seed=seed, replay=True)
            vector = NumpyCocoSketch(d, l, seed=seed, replay=True, kernels="numpy")
            for key, size in trace:
                scalar.update(key, size)
            _feed_batched(vector, list(trace), batch_size=1)
            assert _bucket_state(scalar) == _bucket_state(vector)
            assert scalar.stats.as_dict() == vector.stats.as_dict()
            # The counters balance: every packet either matched or ran
            # the eviction rule (one accept or one reject).
            stats = scalar.stats
            assert (
                stats.matched + stats.replacements + stats.rejects
                == stats.packets
            )


@pytest.mark.parametrize("d,l", GEOMETRIES)
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("batch_size", [1, 4096])
class TestHardwareReplayIdentity:
    def test_state_and_stats_bit_identical(self, traces, d, l, seed, batch_size):
        for trace in traces:
            scalar = HardwareCocoSketch(d, l, seed=seed, replay=True)
            vector = NumpyHardwareCocoSketch(
                d, l, seed=seed, replay=True, kernels="numpy"
            )
            for key, size in trace:
                scalar.update(key, size)
            _feed_batched(vector, list(trace), batch_size=batch_size)
            assert _bucket_state(scalar) == _bucket_state(vector)
            assert scalar.stats.as_dict() == vector.stats.as_dict()
            # Unconditional accounting: one draw per packet per array.
            stats = scalar.stats
            assert (
                stats.replacements + stats.rejects == stats.packets * d
            )


@pytest.mark.parametrize("backend", KERNEL_BACKENDS)
class TestCompiledKernelReplayIdentity:
    """Compiled-vs-numpy-vs-scalar bit identity at fuzzed framings.

    The compiled kernels are *sequential* renderings of both rules, so
    under replay the basic compiled path matches the scalar walk at
    **any** batch framing and **any** pipeline chunk size — a stronger
    contract than the numpy epoch kernel's batch-1 identity — and the
    hardware compiled path matches both the scalar walk and the numpy
    sorted schedule everywhere.  Hypothesis draws the chunk size and an
    irregular batch framing per example.
    """

    @settings(max_examples=6, deadline=None)
    @given(data=st.data())
    def test_basic_compiled_matches_scalar_fuzzed(self, traces, backend, data):
        trace = list(traces[0])
        chunk = data.draw(st.integers(8, 700), label="pipeline_chunk")
        cuts = data.draw(
            st.lists(st.integers(1, 600), min_size=1, max_size=5),
            label="batch_framing",
        )
        scalar = BasicCocoSketch(2, 128, seed=3, replay=True)
        for key, size in trace:
            scalar.update(key, size)
        vector = NumpyCocoSketch(2, 128, seed=3, replay=True, kernels=backend)
        vector.pipeline_chunk = chunk
        _feed_framing(vector, trace, cuts)
        assert _bucket_state(scalar) == _bucket_state(vector)
        assert scalar.stats.as_dict() == vector.stats.as_dict()

    @settings(max_examples=6, deadline=None)
    @given(data=st.data())
    def test_hw_compiled_matches_numpy_and_scalar_fuzzed(
        self, traces, backend, data
    ):
        trace = list(traces[1])
        chunk = data.draw(st.integers(8, 700), label="pipeline_chunk")
        cuts = data.draw(
            st.lists(st.integers(1, 600), min_size=1, max_size=5),
            label="batch_framing",
        )
        scalar = HardwareCocoSketch(2, 128, seed=3, replay=True)
        for key, size in trace:
            scalar.update(key, size)
        compiled = NumpyHardwareCocoSketch(
            2, 128, seed=3, replay=True, kernels=backend
        )
        compiled.pipeline_chunk = chunk
        _feed_framing(compiled, trace, cuts)
        vector = NumpyHardwareCocoSketch(
            2, 128, seed=3, replay=True, kernels="numpy"
        )
        _feed_batched(vector, trace, batch_size=4096)
        assert _bucket_state(compiled) == _bucket_state(scalar)
        assert _bucket_state(compiled) == _bucket_state(vector)
        assert compiled.stats.as_dict() == scalar.stats.as_dict()
        assert compiled.stats.as_dict() == vector.stats.as_dict()

    def test_basic_compiled_matches_numpy_at_batch_one(self, traces, backend):
        """Batch-1 closes the triangle: compiled == numpy == scalar."""
        trace = list(traces[0])
        compiled = NumpyCocoSketch(2, 128, seed=5, replay=True, kernels=backend)
        vector = NumpyCocoSketch(2, 128, seed=5, replay=True, kernels="numpy")
        _feed_batched(compiled, trace, batch_size=1)
        _feed_batched(vector, trace, batch_size=1)
        assert _bucket_state(compiled) == _bucket_state(vector)
        assert compiled.stats.as_dict() == vector.stats.as_dict()


class TestReplayDeterminism:
    """Replay is a pure function of (seed, packet sequence)."""

    def test_same_seed_same_state(self, traces):
        trace = list(traces[0])
        a = NumpyCocoSketch(2, 128, seed=9, replay=True)
        b = NumpyCocoSketch(2, 128, seed=9, replay=True)
        _feed_batched(a, trace, batch_size=1)
        _feed_batched(b, trace, batch_size=1)
        assert _bucket_state(a) == _bucket_state(b)

    def test_reset_replays_identically(self, traces):
        trace = list(traces[0])
        sk = HardwareCocoSketch(2, 128, seed=9, replay=True)
        for key, size in trace:
            sk.update(key, size)
        first = (_bucket_state(sk), sk.stats.as_dict())
        sk.reset()
        for key, size in trace:
            sk.update(key, size)
        assert (_bucket_state(sk), sk.stats.as_dict()) == first

    def test_replay_off_engines_diverge_only_statistically(self, traces):
        # Sanity check on the premise: without replay the engines use
        # different RNG streams, so exact equality would be a fluke.
        trace = list(traces[0])
        scalar = BasicCocoSketch(2, 64, seed=3)
        vector = NumpyCocoSketch(2, 64, seed=3)
        for key, size in trace:
            scalar.update(key, size)
        _feed_batched(vector, trace, batch_size=1)
        assert scalar.stats.packets == vector.stats.packets
        assert _bucket_state(scalar) != _bucket_state(vector)

    def test_hardware_batch_invariance(self, traces):
        # Replay makes the hardware schedule batch-size invariant:
        # any slicing yields the same bits.
        trace = list(traces[1])
        states = []
        for bs in (1, 7, 512, len(trace)):
            sk = NumpyHardwareCocoSketch(
                2, 128, seed=4, replay=True, kernels="numpy"
            )
            _feed_batched(sk, trace, batch_size=bs)
            states.append((_bucket_state(sk), sk.stats.as_dict()))
        assert all(s == states[0] for s in states[1:])
