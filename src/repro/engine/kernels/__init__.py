"""Runtime-dispatched compiled kernels for the engines' chunk-loop hot path.

Replace is the largest ingest layer on every ingest workload of the
end-to-end ledger (a 0.86 share of ``governed_shift`` and 0.62 of
``wide_serving`` on numpy kernels, traced at seed 1), so this package
provides drop-in compiled implementations of the replace-stage inner
loop (both rules) and the hash-stage index computation, selected at
runtime:

* ``numba`` — the kernel source (:mod:`repro.engine.kernels.source`)
  jit-compiled with ``numba.njit``.  Only offered when numba imports.
* ``c`` — the same three kernels rendered in C (``kernels.c``), built
  at first use with the system compiler (``cc -O2 -shared -fPIC``)
  into a per-user directory under the temp dir and loaded with
  :class:`ctypes.CDLL`, whose calls release the GIL.  The library's
  file name carries a hash of the C source and the compiler flags, and
  is published by atomic rename, so concurrent builders (sharded
  workers) leave one valid library and later processes only load it.
* ``numpy`` — the existing vectorised kernels inside
  :mod:`repro.engine.vectorized` (a :class:`KernelSet` with no
  callables; the engine keeps its own code path).  Always available.
* ``python`` — the kernel source executed un-jitted.  Far too slow for
  production, but the source of truth: ``numba`` and ``c`` must equal
  it bit for bit, so the differential suite certifies kernel logic on
  any machine.  Never chosen automatically.

Selection (:func:`resolve_kernels`) honours the ``REPRO_KERNELS``
environment variable (and the CLI's ``--kernels`` flag, which sets it):
``auto`` (default) takes ``c`` when the compiler builds and loads the
library, else ``numba`` when importable, else ``numpy``.  ``c`` leads
because it is the compiled set measured end to end (``governed_shift``
ingest about 5x numpy on the ledger); ``numba`` is known to beat numpy
only through CI's kernel-sweep gate.  Naming a backend explicitly is
strict — ``REPRO_KERNELS=c`` without a working compiler raises
:class:`KernelsUnavailable` rather than silently degrading, so the CI
kernel-smoke job can assert the compiled path actually ran.
Each backend (or its failure) is resolved once per process.

The active backend is observable end to end: every engine run sets the
``pipeline.kernel`` gauge to :data:`KERNEL_BACKEND_CODES` [backend] and
the CLI's ``--profile``/``--metrics-out`` snapshot carries the backend
name in its ``meta`` block.

Dispatch never changes results: the compiled kernels consume the same
counter-based replay draws and the same decision-counter semantics as the numpy kernels, and the differential
tests (``tests/test_kernels.py``, ``tests/test_differential.py``)
assert bit-identical state and stats across scalar/numpy/compiled.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import importlib.util
import os
import subprocess
import tempfile
from typing import Callable, Dict, Optional, Union

import numpy as np

from repro.engine.kernels import source

#: Environment variable naming the kernel backend (CLI ``--kernels``).
BACKEND_ENV = "REPRO_KERNELS"

#: Accepted ``REPRO_KERNELS`` / ``--kernels`` values.
BACKEND_CHOICES = ("auto", "numba", "c", "numpy", "python")

#: Gauge name reporting the active backend per run.
KERNEL_GAUGE = "pipeline.kernel"

#: Gauge name reporting the engine's kernel chunk in packets.
CHUNK_GAUGE = "pipeline.chunk"

#: Numeric codes for the ``pipeline.kernel`` gauge (gauges are floats
#: under ``repro.obs.metrics/v1``).
KERNEL_BACKEND_CODES: Dict[str, float] = {
    "numpy": 0.0,
    "numba": 1.0,
    "python": 2.0,
    "c": 3.0,
}


class KernelsUnavailable(RuntimeError):
    """An explicitly requested kernel backend cannot be provided."""


class KernelSet:
    """The three hot-path kernels of one backend.

    ``None`` callables mean "use the engine's built-in numpy path" —
    the numpy backend is an empty set, so engine code needs exactly one
    ``is None`` check per stage.
    """

    __slots__ = ("name", "hash_indices", "basic_replace", "hw_replace")

    def __init__(
        self,
        name: str,
        hash_indices: Optional[Callable] = None,
        basic_replace: Optional[Callable] = None,
        hw_replace: Optional[Callable] = None,
    ) -> None:
        self.name = name
        self.hash_indices = hash_indices
        self.basic_replace = basic_replace
        self.hw_replace = hw_replace

    @property
    def compiled(self) -> bool:
        """True when the set carries its own kernels (non-numpy)."""
        return self.basic_replace is not None

    def __repr__(self) -> str:
        return f"KernelSet({self.name!r})"


#: The fallback set: engine-internal vectorised kernels.
NUMPY_KERNELS = KernelSet("numpy")

#: Resolved backends, or the reason one is unavailable, per process.
_CACHE: Dict[str, Union[KernelSet, KernelsUnavailable]] = {}


@functools.lru_cache(maxsize=None)
def numba_available() -> bool:
    """True when the numba compiler is importable in this process.

    Probed once per process: every sketch construction resolves its
    kernels, and the import-system probe is not free.
    """
    try:
        return importlib.util.find_spec("numba") is not None
    except (ImportError, ValueError):
        return False


def _python_kernels() -> KernelSet:
    """The kernel source run un-jitted (testing backend).

    Un-jitted uint64 scalar arithmetic wraps under numpy's overflow
    warning, so each kernel runs inside ``np.errstate(over="ignore")``
    — jitted code wraps silently, keeping the two bit-identical.
    """

    def _wrap(fn: Callable) -> Callable:
        def run(*args):
            with np.errstate(over="ignore"):
                return fn(*args)

        run.__name__ = fn.__name__
        return run

    return KernelSet(
        "python",
        _wrap(source.hash_indices_kernel),
        _wrap(source.basic_replace_kernel),
        _wrap(source.hw_replace_kernel),
    )


def _shared_cache_dir() -> None:
    """Point numba's on-disk cache at one shared directory.

    The kernels compile with ``cache=True``, but by default each
    checkout/venv caches next to the source tree — and a cold sharded
    run pays one JIT compilation *per worker process*.  Defaulting
    ``NUMBA_CACHE_DIR`` to a stable per-user temp path means the first
    process to compile publishes the binaries and every sibling worker
    (and every later run) loads them instead.  An explicit
    ``NUMBA_CACHE_DIR`` always wins; must run before ``import numba``
    reads its config.
    """
    if os.environ.get("NUMBA_CACHE_DIR"):
        return
    path = os.path.join(tempfile.gettempdir(), f"repro_numba_cache_{_user()}")
    try:
        os.makedirs(path, exist_ok=True)
    except OSError:
        return  # unwritable tmp: keep numba's default behaviour
    os.environ["NUMBA_CACHE_DIR"] = path


def _numba_kernels() -> KernelSet:
    _shared_cache_dir()
    try:
        import numba
    except ImportError as exc:  # pragma: no cover - exercised in CI
        raise KernelsUnavailable(
            f"{BACKEND_ENV}=numba requested but numba is not installed "
            "(pip install 'repro[kernels]')"
        ) from exc
    jit = numba.njit(cache=True, nogil=True)
    return KernelSet(
        "numba",
        jit(source.hash_indices_kernel),
        jit(source.basic_replace_kernel),
        jit(source.hw_replace_kernel),
    )


#: The C rendering of :mod:`repro.engine.kernels.source`.
_C_SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "kernels.c")

#: Compiler and flags the ``c`` backend builds with.
_CC = "cc"
_CFLAGS = ("-O2", "-shared", "-fPIC")


def _cache_key(source: bytes) -> str:
    """Library cache key: a hash of the C source, compiler and flags."""
    digest = hashlib.sha256(source)
    digest.update("\0".join((_CC,) + _CFLAGS).encode())
    return digest.hexdigest()[:16]


def _cache_dir() -> str:
    """The per-user library directory under the temp dir.

    Created private; a directory another user owns or can write is
    refused, since the backend loads code from it.
    """
    path = os.path.join(tempfile.gettempdir(), f"repro_kernels_{_user()}")
    os.makedirs(path, mode=0o700, exist_ok=True)
    st = os.stat(path)
    if (hasattr(os, "getuid") and st.st_uid != os.getuid()) or st.st_mode & 0o022:
        raise OSError(f"kernel cache {path} is not private to this user")
    return path


def _user() -> str:
    import getpass

    try:
        return getpass.getuser()
    except (KeyError, OSError):
        return "anon"


def _build_library(directory: Optional[str] = None) -> str:
    """Path of the built C kernel library, compiling it on a cache miss.

    The compiler writes a private temp file in *directory* (default
    :func:`_cache_dir`), which is then renamed onto the keyed name: a
    rename is atomic, so processes racing on a cold cache each publish
    a complete library and a reader never loads a partial one.
    """
    with open(_C_SOURCE, "rb") as fh:
        source = fh.read()
    directory = directory or _cache_dir()
    path = os.path.join(directory, f"kernels-{_cache_key(source)}.so")
    if os.path.exists(path):
        return path
    fd, tmp = tempfile.mkstemp(prefix=".build-", suffix=".so", dir=directory)
    os.close(fd)
    try:
        subprocess.run(
            [_CC, *_CFLAGS, "-x", "c", "-", "-o", tmp],
            input=source, capture_output=True, check=True, timeout=120,
        )
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return path


def _rows(a, dtype):
    """A read-only 2-D block and its row stride in elements.

    Rows may be strided (``J[:, offset:]`` is passed as is); a block
    whose elements within a row are not adjacent is copied.
    """
    a = np.asarray(a, dtype=dtype)
    if a.strides[1] != a.itemsize:
        a = np.ascontiguousarray(a)
    return a, a.strides[0] // a.itemsize


def _state(a, dtype) -> int:
    """Pointer to an array the kernel writes; it must be contiguous."""
    if a.dtype != dtype or not a.flags.c_contiguous or not a.flags.writeable:
        raise ValueError(f"kernel output must be a writable contiguous {dtype}")
    return a.ctypes.data


def _check_chunk(n, J, l, state, counts, *draws) -> None:
    """Sizes the C loops index by: n packets, d rows of J, d*l buckets."""
    d = J.shape[0]
    if (
        J.shape[1] < n
        or any(a.shape[-1] < n for a in draws)
        or any(a.size != d * l for a in state)
        or counts.size < 4 + d
    ):
        raise ValueError("kernel arrays disagree with the chunk's n, d and l")


def _c_kernels() -> KernelSet:
    try:
        lib = ctypes.CDLL(_build_library())
    except (OSError, subprocess.SubprocessError) as exc:
        detail = getattr(exc, "stderr", None) or b""
        raise KernelsUnavailable(
            f"{BACKEND_ENV}=c requested but the C kernels could not be "
            f"built with {_CC!r} or loaded: {exc} "
            f"{detail.decode(errors='replace')}"
        ) from exc
    P, I64, U64 = ctypes.c_void_p, ctypes.c_int64, ctypes.c_uint64
    c_hash, c_basic, c_hw = lib.hash_indices, lib.basic_replace, lib.hw_replace
    c_hash.argtypes = (P, I64, P, I64, U64, P, I64)
    c_basic.argtypes = (P, P, P, I64, P, I64, I64, I64, P, P, P, P, P, P, P)
    c_hw.argtypes = (P, P, P, I64, P, I64, I64, I64, P, P, P, P, P, I64, P)
    for fn in (c_hash, c_basic, c_hw):
        fn.restype = None

    def hash_indices(fold, seeds, usize, out):
        fold = np.ascontiguousarray(fold, np.uint64)
        seeds = np.ascontiguousarray(seeds, np.uint64)
        if (
            out.dtype != np.int64 or out.strides[1] != 8 or not out.flags.writeable
            or out.shape[0] < seeds.shape[0] or out.shape[1] < fold.shape[0]
        ):
            raise ValueError("hash output must be d writable int64 rows of >= n")
        c_hash(
            fold.ctypes.data, fold.shape[0], seeds.ctypes.data, seeds.shape[0],
            int(usize), out.ctypes.data, out.strides[0] // 8,
        )

    def basic_replace(
        hi, lo, w, J, l, key_hi, key_lo, occupied, vals, u_tie, u_adopt, counts
    ):
        hi, lo = np.ascontiguousarray(hi, np.uint64), np.ascontiguousarray(lo, np.uint64)
        w = np.ascontiguousarray(w, np.int64)
        J, js = _rows(J, np.int64)
        u_tie = np.ascontiguousarray(u_tie, np.float64)
        u_adopt = np.ascontiguousarray(u_adopt, np.float64)
        state = (key_hi, key_lo, occupied, vals)
        _check_chunk(w.shape[0], J, l, state, counts, hi, lo, u_tie, u_adopt)
        c_basic(
            hi.ctypes.data, lo.ctypes.data, w.ctypes.data, w.shape[0],
            J.ctypes.data, js, J.shape[0], l,
            _state(key_hi, np.uint64), _state(key_lo, np.uint64),
            _state(occupied, np.bool_), _state(vals, np.int64),
            u_tie.ctypes.data, u_adopt.ctypes.data, _state(counts, np.int64),
        )

    def hw_replace(hi, lo, w, J, l, key_hi, key_lo, occupied, vals, u, counts):
        hi, lo = np.ascontiguousarray(hi, np.uint64), np.ascontiguousarray(lo, np.uint64)
        w = np.ascontiguousarray(w, np.int64)
        J, js = _rows(J, np.int64)
        u, us = _rows(u, np.float64)
        state = (key_hi, key_lo, occupied, vals)
        _check_chunk(w.shape[0], J, l, state, counts, hi, lo, u)
        if u.shape[0] < J.shape[0]:
            raise ValueError("one draw row per array")
        c_hw(
            hi.ctypes.data, lo.ctypes.data, w.ctypes.data, w.shape[0],
            J.ctypes.data, js, J.shape[0], l,
            _state(key_hi, np.uint64), _state(key_lo, np.uint64),
            _state(occupied, np.bool_), _state(vals, np.int64),
            u.ctypes.data, us, _state(counts, np.int64),
        )

    return KernelSet("c", hash_indices, basic_replace, hw_replace)


def _load(choice: str) -> KernelSet:
    """The *choice* backend's set, built once per process (failures too)."""
    cached = _CACHE.get(choice)
    if cached is None:
        builder = {"python": _python_kernels, "numba": _numba_kernels, "c": _c_kernels}
        try:
            cached = builder[choice]()
        except KernelsUnavailable as exc:
            cached = exc
        _CACHE[choice] = cached
    if isinstance(cached, KernelsUnavailable):
        raise KernelsUnavailable(str(cached))
    return cached


def c_available() -> bool:
    """True when the ``c`` backend builds and loads in this process.

    Resolved once per process, like the library itself: a failed build
    is not retried by every sketch construction.
    """
    try:
        _load("c")
    except KernelsUnavailable:
        return False
    return True


def resolve_kernels(override: Optional[str] = None) -> KernelSet:
    """Select the kernel backend for a sketch instance.

    *override* (a constructor argument / CLI value) wins over the
    ``REPRO_KERNELS`` environment variable; both default to ``auto``.
    ``auto`` degrades gracefully (``c`` when the compiler works, else
    numba when importable, else numpy); an explicit ``numba`` or ``c``
    request that cannot be met raises :class:`KernelsUnavailable`, and
    unknown names raise ValueError.
    """
    choice = override or os.environ.get(BACKEND_ENV) or "auto"
    choice = choice.strip().lower()
    if choice not in BACKEND_CHOICES:
        raise ValueError(
            f"unknown kernel backend {choice!r} "
            f"(choices: {', '.join(BACKEND_CHOICES)})"
        )
    if choice == "auto":
        choice = "c" if c_available() else "numba" if numba_available() else "numpy"
    if choice == "numpy":
        return NUMPY_KERNELS
    return _load(choice)


def warmup(kernels: KernelSet, d: int = 2) -> None:
    """Trigger jit compilation outside any timed region.

    Runs each kernel once on tiny throwaway arrays; a no-op for the
    numpy set.  Benchmarks call this before starting the clock so the
    first timed chunk is not a compilation.
    """
    if not kernels.compiled:
        return
    n, l = 16, 8
    fold = np.arange(n, dtype=np.uint64)
    seeds = np.arange(1, d + 1, dtype=np.uint64)
    out = np.zeros((d, n), dtype=np.int64)
    kernels.hash_indices(fold, seeds, np.uint64(l), out)
    hi = np.arange(n, dtype=np.uint64)
    lo = np.arange(n, dtype=np.uint64)
    w = np.ones(n, dtype=np.int64)
    key_hi = np.zeros(d * l, dtype=np.uint64)
    key_lo = np.zeros(d * l, dtype=np.uint64)
    occupied = np.zeros(d * l, dtype=bool)
    vals = np.zeros(d * l, dtype=np.int64)
    counts = np.zeros(4 + d, dtype=np.int64)
    u = np.full(n, 0.5)
    kernels.basic_replace(
        hi, lo, w, out, l, key_hi, key_lo, occupied, vals, u, u, counts
    )
    counts[:] = 0
    key_hi[:] = 0
    key_lo[:] = 0
    occupied[:] = False
    vals[:] = 0
    u2 = np.full((d, n), 0.5)
    kernels.hw_replace(
        hi, lo, w, out, l, key_hi, key_lo, occupied, vals, u2, counts
    )


__all__ = [
    "BACKEND_CHOICES",
    "BACKEND_ENV",
    "CHUNK_GAUGE",
    "KERNEL_BACKEND_CODES",
    "KERNEL_GAUGE",
    "KernelSet",
    "KernelsUnavailable",
    "NUMPY_KERNELS",
    "c_available",
    "numba_available",
    "resolve_kernels",
    "warmup",
]
