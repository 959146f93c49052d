"""Kernel dispatch and kernel-source tests.

Covers the :mod:`repro.engine.kernels` dispatch layer (env/override
resolution, strict failures, gauge codes) and the kernel *logic* via
the ``python`` backend — the same source functions numba compiles, run
un-jitted — so bit-identity against the scalar and numpy engines is
certified even on hosts without numba.  The ``c`` backend (the same
kernels in C, built with the system compiler) and ``numba`` run the
same tests against it; each skips cleanly when its compiler is absent,
and CI's kernel-smoke job runs both legs.
"""

import multiprocessing
import os

import numpy as np
import pytest

from repro import obs
from repro.engine import kernels as kmod
from repro.engine.kernels import (
    BACKEND_CHOICES,
    BACKEND_ENV,
    KERNEL_BACKEND_CODES,
    KERNEL_GAUGE,
    KernelsUnavailable,
    NUMPY_KERNELS,
    c_available,
    numba_available,
    resolve_kernels,
    warmup,
)
from repro.engine.vectorized import NumpyCocoSketch, NumpyHardwareCocoSketch
from repro.hashing.family import HashFamily

requires_numba = pytest.mark.skipif(
    not numba_available(), reason="numba not installed"
)

requires_c = pytest.mark.skipif(
    not c_available(), reason="no working C compiler"
)

#: Backends whose kernels come from the shared source module.  The
#: python backend always runs; numba and c join where their compiler
#: exists.
COMPILED_BACKENDS = [
    pytest.param("python", id="python"),
    pytest.param("numba", id="numba", marks=requires_numba),
    pytest.param("c", id="c", marks=requires_c),
]


@pytest.fixture
def no_compiler(monkeypatch):
    """A fresh resolver cache whose C compiler path does not exist."""
    monkeypatch.delenv(BACKEND_ENV, raising=False)
    monkeypatch.setattr(kmod, "numba_available", lambda: False)
    monkeypatch.setattr(kmod, "_CACHE", {})
    monkeypatch.setattr(kmod, "_CC", "/nonexistent/bin/cc")


# -- dispatch ----------------------------------------------------------


class TestResolve:
    def test_auto_without_numba_is_numpy(self, no_compiler):
        # Without numba *and* without a working C compiler.
        assert resolve_kernels() is NUMPY_KERNELS
        assert resolve_kernels("auto") is NUMPY_KERNELS

    @requires_c
    def test_auto_is_c_when_it_builds(self, monkeypatch):
        # c leads numba too: it is the compiled set measured end to end.
        monkeypatch.delenv(BACKEND_ENV, raising=False)
        monkeypatch.setattr(kmod, "numba_available", lambda: True)
        assert resolve_kernels().name == "c"
        assert resolve_kernels("auto") is resolve_kernels("c")

    def test_auto_prefers_numba_when_available(self, no_compiler, monkeypatch):
        # Over numpy, once the C compiler is gone.
        monkeypatch.setattr(kmod, "numba_available", lambda: True)
        monkeypatch.setattr(
            kmod, "_numba_kernels", lambda: kmod.KernelSet("numba")
        )
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
        # auto reaches the numba probe only once the C backend fails.
        monkeypatch.setattr(kmod, "_CACHE", {})
        monkeypatch.setattr(kmod, "_CC", "/nonexistent/bin/cc")
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
        assert set(KERNEL_BACKEND_CODES) == {"numpy", "numba", "python", "c"}
        assert set(KERNEL_BACKEND_CODES) == set(BACKEND_CHOICES) - {"auto"}
        assert len(set(KERNEL_BACKEND_CODES.values())) == len(KERNEL_BACKEND_CODES)

    def test_warmup_is_noop_for_numpy(self):
        warmup(NUMPY_KERNELS)  # must not raise

    @pytest.mark.parametrize("backend", COMPILED_BACKENDS)
    def test_warmup_runs_all_kernels(self, backend):
        warmup(resolve_kernels(backend), d=3)

    @requires_numba
    def test_numba_backend_resolves(self):
        assert resolve_kernels("numba").name == "numba"


def _build_after(barrier, directory):
    barrier.wait()
    kmod._build_library(directory)


class TestCBuild:
    """The ``c`` backend's build: cache key, races and fallbacks."""

    def test_missing_compiler_falls_back_to_numpy(self, no_compiler):
        assert not c_available()
        assert resolve_kernels("auto") is NUMPY_KERNELS
        with pytest.raises(KernelsUnavailable, match="could not be built"):
            resolve_kernels("c")

    def test_failing_compiler_falls_back_to_numpy(self, no_compiler, monkeypatch):
        monkeypatch.setattr(kmod, "_CC", "false")  # runs, exits 1
        assert resolve_kernels("auto") is NUMPY_KERNELS
        with pytest.raises(KernelsUnavailable):
            resolve_kernels("c")

    def test_unwritable_temp_dir_falls_back_to_numpy(
        self, no_compiler, monkeypatch, tmp_path
    ):
        monkeypatch.setattr(kmod, "_CC", "cc")
        blocker = tmp_path / "file"
        blocker.write_text("")  # a directory cannot be made under a file
        monkeypatch.setattr(kmod.tempfile, "tempdir", str(blocker))
        assert resolve_kernels("auto") is NUMPY_KERNELS
        with pytest.raises(KernelsUnavailable):
            resolve_kernels("c")

    def test_fallback_reports_numpy_gauge(self, no_compiler):
        lo = np.arange(300, dtype=np.uint64)
        with obs.collecting() as reg:
            sk = NumpyCocoSketch(2, 64, seed=1)
            sk.update_batch(lo)
        gauge = reg.snapshot()["gauges"][KERNEL_GAUGE]
        assert gauge == KERNEL_BACKEND_CODES["numpy"]

    def test_failure_is_resolved_once_per_process(self, no_compiler, monkeypatch):
        calls = []
        real = kmod._build_library
        monkeypatch.setattr(
            kmod, "_build_library", lambda *a: calls.append(1) or real(*a)
        )
        for seed in range(5):
            NumpyCocoSketch(2, 32, seed=seed)
        assert len(calls) == 1

    def test_cache_key_follows_source_and_flags(self, monkeypatch):
        with open(kmod._C_SOURCE, "rb") as fh:
            source = fh.read()
        key = kmod._cache_key(source)
        assert kmod._cache_key(source) == key
        assert kmod._cache_key(source + b"\n/* edit */\n") != key
        monkeypatch.setattr(kmod, "_CFLAGS", kmod._CFLAGS + ("-O3",))
        assert kmod._cache_key(source) != key

    @requires_c
    def test_concurrent_builds_publish_one_library(self, tmp_path):
        ctx = multiprocessing.get_context("spawn")
        barrier = ctx.Barrier(2)
        procs = [
            ctx.Process(target=_build_after, args=(barrier, str(tmp_path)))
            for _ in range(2)
        ]
        for proc in procs:
            proc.start()
        for proc in procs:
            proc.join(120)
        assert [proc.exitcode for proc in procs] == [0, 0]
        names = sorted(os.listdir(tmp_path))
        assert len(names) == 1 and names[0].endswith(".so"), names
        path = kmod._build_library(str(tmp_path))  # a cache hit
        assert os.path.basename(path) == names[0]
        lib = kmod.ctypes.CDLL(path)
        assert lib.basic_replace and lib.hw_replace and lib.hash_indices


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

    @pytest.mark.parametrize(
        "backend", ["numpy", "python", pytest.param("c", marks=requires_c)]
    )
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


#: Geometries the compiled-vs-source identity runs at: the governor's
#: 1/8-width start, a wide two-row table, and a tiny one with heavy
#: contention.
GEOMETRIES = [(8, 188), (2, 4096), (3, 7)]


@pytest.mark.parametrize(
    "backend",
    [
        pytest.param("numba", marks=requires_numba),
        pytest.param("c", marks=requires_c),
    ],
)
@pytest.mark.parametrize("d,l", GEOMETRIES, ids=lambda v: str(v))
@pytest.mark.parametrize("replay", [True, False], ids=["replay", "rng"])
@pytest.mark.parametrize("cls", [NumpyCocoSketch, NumpyHardwareCocoSketch])
class TestCompiledMatchesSource:
    """Bit-identity of the compiled kernels against the un-jitted source.

    The python backend *is* the source, so compiled == python proves the
    compilation step changed nothing — uint64 wraparound, float64
    comparisons and all.  Without replay the same sketch RNG feeds both
    backends' precomputed draw arrays, so default mode is bit-identical
    too
    (the stream is cut per chunk, so both run the same framing).
    """

    def test_matches_python_backend_at_each_framing(
        self, backend, d, l, replay, cls
    ):
        hi, lo, sizes = _trace(n=4000, flows=600, seed=21)
        for batch in (1, 257, 1536):
            sk = cls(d, l, seed=8, replay=replay, kernels=backend)
            ref = cls(d, l, seed=8, replay=replay, kernels="python")
            _feed(sk, hi, lo, sizes, batch)
            _feed(ref, hi, lo, sizes, batch)
            assert _state(sk) == _state(ref)
