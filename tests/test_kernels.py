"""Kernel dispatch and kernel-source tests.

Covers the :mod:`repro.engine.kernels` dispatch layer (env/override
resolution, strict failures, gauge codes) and the kernel *logic* via
the ``python`` backend — the same source functions numba compiles, run
un-jitted — so bit-identity against the scalar and numpy engines is
certified even on hosts without numba.  Tests that need the actual
compiler skip cleanly when it is absent; CI's kernel-smoke job provides
the numba leg.
"""

import numpy as np
import pytest

from repro import obs
from repro.engine import kernels as kmod
from repro.engine.kernels import (
    BACKEND_ENV,
    KERNEL_BACKEND_CODES,
    KERNEL_GAUGE,
    KernelsUnavailable,
    NUMPY_KERNELS,
    numba_available,
    resolve_kernels,
    warmup,
)
from repro.engine.vectorized import NumpyCocoSketch, NumpyHardwareCocoSketch
from repro.hashing.family import HashFamily

requires_numba = pytest.mark.skipif(
    not numba_available(), reason="numba not installed"
)

#: Backends whose kernels come from the shared source module.  The
#: python backend always runs; numba joins where the compiler exists.
COMPILED_BACKENDS = [
    pytest.param("python", id="python"),
    pytest.param("numba", id="numba", marks=requires_numba),
]


# -- dispatch ----------------------------------------------------------


class TestResolve:
    def test_auto_without_numba_is_numpy(self, monkeypatch):
        monkeypatch.delenv(BACKEND_ENV, raising=False)
        monkeypatch.setattr(kmod, "numba_available", lambda: False)
        assert resolve_kernels() is NUMPY_KERNELS
        assert resolve_kernels("auto") is NUMPY_KERNELS

    def test_auto_prefers_numba_when_available(self, monkeypatch):
        monkeypatch.setattr(kmod, "numba_available", lambda: True)
        monkeypatch.setattr(
            kmod, "_numba_kernels", lambda: kmod.KernelSet("numba")
        )
        monkeypatch.setattr(kmod, "_CACHE", {})
        assert resolve_kernels("auto").name == "numba"

    def test_explicit_numpy_always_works(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV, "numba")
        assert resolve_kernels("numpy") is NUMPY_KERNELS

    def test_env_variable_selects_backend(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV, "python")
        assert resolve_kernels().name == "python"

    def test_override_beats_env(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV, "python")
        assert resolve_kernels("numpy") is NUMPY_KERNELS

    def test_unknown_backend_raises(self):
        with pytest.raises(ValueError, match="unknown kernel backend"):
            resolve_kernels("cython")

    def test_strict_numba_raises_when_missing(self, monkeypatch):
        monkeypatch.setattr(kmod, "numba_available", lambda: False)
        if numba_available():
            pytest.skip("numba installed; strict request succeeds")
        with pytest.raises(KernelsUnavailable):
            resolve_kernels("numba")

    def test_numpy_set_is_empty_and_uncompiled(self):
        assert not NUMPY_KERNELS.compiled
        assert NUMPY_KERNELS.hash_indices is None

    def test_numba_probe_runs_once_per_process(self, monkeypatch):
        numba_available.cache_clear()
        calls = []
        real = kmod.importlib.util.find_spec

        def counting(name, *args):
            calls.append(name)
            return real(name, *args)

        monkeypatch.delenv(BACKEND_ENV, raising=False)
        monkeypatch.setattr(kmod.importlib.util, "find_spec", counting)
        try:
            for seed in range(10):
                NumpyCocoSketch(2, 32, seed=seed)
        finally:
            monkeypatch.undo()
            numba_available.cache_clear()
        assert calls == ["numba"]

    def test_python_set_is_compiled_flavoured(self):
        kernels = resolve_kernels("python")
        assert kernels.compiled
        assert kernels.name == "python"

    def test_backend_codes_cover_choices(self):
        assert set(KERNEL_BACKEND_CODES) == {"numpy", "numba", "python"}

    def test_warmup_is_noop_for_numpy(self):
        warmup(NUMPY_KERNELS)  # must not raise

    @pytest.mark.parametrize("backend", COMPILED_BACKENDS)
    def test_warmup_runs_all_kernels(self, backend):
        warmup(resolve_kernels(backend), d=3)

    @requires_numba
    def test_numba_backend_resolves(self):
        assert resolve_kernels("numba").name == "numba"


class TestSketchWiring:
    def test_ctor_override_pins_backend(self):
        sk = NumpyCocoSketch(2, 32, seed=1, kernels="python")
        assert sk._kernels.name == "python"
        sk = NumpyHardwareCocoSketch(2, 32, seed=1, kernels="numpy")
        assert sk._kernels.name == "numpy"

    def test_env_reaches_sketch(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV, "python")
        sk = NumpyCocoSketch(2, 32, seed=1)
        assert sk._kernels.name == "python"

    @pytest.mark.parametrize("backend", ["numpy", "python"])
    def test_kernel_gauge_reported(self, backend):
        lo = np.arange(500, dtype=np.uint64)
        hi = np.zeros(500, dtype=np.uint64)
        sizes = np.ones(500, dtype=np.int64)
        with obs.collecting() as reg:
            sk = NumpyHardwareCocoSketch(2, 64, seed=1, kernels=backend)
            sk.process_columns(hi, lo, sizes)
            sk.update_batch((hi, lo), sizes)
        snap = reg.snapshot()
        assert snap["gauges"][KERNEL_GAUGE] == KERNEL_BACKEND_CODES[backend]


# -- kernel source vs existing implementations -------------------------


@pytest.mark.parametrize("backend", COMPILED_BACKENDS)
class TestHashKernel:
    def test_matches_hash_family(self, backend):
        kernels = resolve_kernels(backend)
        rng = np.random.default_rng(5)
        fold = rng.integers(0, 1 << 63, size=600, dtype=np.uint64)
        for d, l in ((1, 16), (3, 1024), (4, 777)):
            family = HashFamily(d, master_seed=9, backend="mix64")
            expected = family.index_arrays(fold, l)
            out = np.empty((d, len(fold)), dtype=np.int64)
            kernels.hash_indices(
                fold, np.asarray(family.seeds, dtype=np.uint64), np.uint64(l), out
            )
            assert np.array_equal(out, expected)


def _trace(n=3000, flows=300, seed=3):
    rng = np.random.default_rng(seed)
    lo = rng.integers(0, flows, size=n).astype(np.uint64)
    hi = lo ^ np.uint64(0xDEAD)
    sizes = rng.integers(1, 50, size=n).astype(np.int64)
    return hi, lo, sizes


def _feed(sketch, hi, lo, sizes, batch):
    for start in range(0, len(sizes), batch):
        sketch.update_batch(
            (hi[start : start + batch], lo[start : start + batch]),
            sizes[start : start + batch],
        )


def _state(sk):
    return (
        sk._key_hi.tobytes(),
        sk._key_lo.tobytes(),
        sk._occupied.tobytes(),
        sk._vals.tobytes(),
        sk.stats.as_dict(),
    )


@pytest.mark.parametrize("backend", COMPILED_BACKENDS)
class TestReplaceKernels:
    def test_basic_matches_scalar_replay_any_framing(self, backend):
        """Compiled basic rule is sequential: == scalar at any batching."""
        from repro.core.cocosketch import BasicCocoSketch

        hi, lo, sizes = _trace()
        scalar = BasicCocoSketch(2, 128, seed=6, replay=True)
        for h, lw, s in zip(hi.tolist(), lo.tolist(), sizes.tolist()):
            scalar.update((h << 64) | lw, s)
        for batch in (1, 97, 1024, len(sizes)):
            sk = NumpyCocoSketch(2, 128, seed=6, replay=True, kernels=backend)
            _feed(sk, hi, lo, sizes, batch)
            assert sk.flow_table() == scalar.flow_table()
            assert sk.stats.as_dict() == scalar.stats.as_dict()

    def test_basic_matches_numpy_at_batch_one(self, backend):
        """At batch 1 the numpy epoch schedule is sequential too."""
        hi, lo, sizes = _trace(n=1200)
        a = NumpyCocoSketch(2, 64, seed=2, replay=True, kernels=backend)
        b = NumpyCocoSketch(2, 64, seed=2, replay=True, kernels="numpy")
        _feed(a, hi, lo, sizes, 1)
        _feed(b, hi, lo, sizes, 1)
        assert _state(a) == _state(b)

    def test_hw_matches_numpy_and_scalar_any_framing(self, backend):
        from repro.core.hardware import HardwareCocoSketch

        hi, lo, sizes = _trace()
        scalar = HardwareCocoSketch(2, 128, seed=6, replay=True)
        for h, lw, s in zip(hi.tolist(), lo.tolist(), sizes.tolist()):
            scalar.update((h << 64) | lw, s)
        ref = None
        for batch in (1, 97, 1024, len(sizes)):
            a = NumpyHardwareCocoSketch(
                2, 128, seed=6, replay=True, kernels=backend
            )
            b = NumpyHardwareCocoSketch(2, 128, seed=6, replay=True, kernels="numpy")
            _feed(a, hi, lo, sizes, batch)
            _feed(b, hi, lo, sizes, batch)
            assert _state(a) == _state(b)
            if ref is None:
                ref = _state(a)
            assert _state(a) == ref
        assert a.flow_table() == scalar.flow_table()
        assert a.stats.as_dict() == scalar.stats.as_dict()

    def test_weighted_updates_and_decision_balance(self, backend):
        hi, lo, sizes = _trace(n=2000, seed=11)
        basic = NumpyCocoSketch(3, 64, seed=4, replay=True, kernels=backend)
        hw = NumpyHardwareCocoSketch(3, 64, seed=4, replay=True, kernels=backend)
        _feed(basic, hi, lo, sizes, 256)
        _feed(hw, hi, lo, sizes, 256)
        st = basic.stats
        assert st.matched + st.replacements + st.rejects == st.packets
        assert st.packets == len(sizes)
        hs = hw.stats
        assert hs.matched == 0
        assert hs.replacements + hs.rejects == hs.packets * 3
        # Total mass is conserved by both rules: every packet adds its
        # weight to exactly one bucket (basic) / one bucket per array.
        assert int(basic._vals.sum()) == int(sizes.sum())
        assert int(hw._vals.sum()) == int(sizes.sum()) * 3


@requires_numba
class TestNumbaSpecific:
    """Bit-identity of the jitted kernels against the un-jitted source.

    The python backend *is* the source, so numba == python proves the
    compilation step changed nothing — uint64 wraparound, float64
    comparisons and all.
    """

    def test_numba_matches_python_backend_bitwise(self):
        hi, lo, sizes = _trace(n=4000, flows=200, seed=21)
        for cls in (NumpyCocoSketch, NumpyHardwareCocoSketch):
            a = cls(2, 128, seed=8, replay=True, kernels="numba")
            b = cls(2, 128, seed=8, replay=True, kernels="python")
            _feed(a, hi, lo, sizes, 1536)
            _feed(b, hi, lo, sizes, 1536)
            assert _state(a) == _state(b)

    def test_numba_matches_python_non_replay(self):
        # Same rng stream feeds both backends' precomputed draw arrays,
        # so even default (non-replay) mode is bit-identical here.
        hi, lo, sizes = _trace(n=2000, seed=23)
        for cls in (NumpyCocoSketch, NumpyHardwareCocoSketch):
            a = cls(2, 64, seed=8, kernels="numba")
            b = cls(2, 64, seed=8, kernels="python")
            _feed(a, hi, lo, sizes, 512)
            _feed(b, hi, lo, sizes, 512)
            assert _state(a) == _state(b)
