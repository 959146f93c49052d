"""Runtime-dispatched compiled kernels for the engines' chunk-loop hot path.

The per-stage breakdown (``results/bench_pipeline_stages.json``) shows
the ``replace`` stage eats 77–89% of engine time on both numpy
variants, so this package provides drop-in compiled implementations of
the replace-stage inner loop (both rules) and the hash-stage index
computation, selected at runtime:

* ``numba`` — the kernel source (:mod:`repro.engine.kernels.source`)
  jit-compiled with ``numba.njit``.  Only offered when numba imports.
* ``numpy`` — the existing vectorised kernels inside
  :mod:`repro.engine.vectorized` (a :class:`KernelSet` with no
  callables; the engine keeps its own code path).  Always available.
* ``python`` — the kernel source executed un-jitted.  Far too slow for
  production, but bit-identical to ``numba`` by construction, so the
  differential suite can certify kernel logic on machines without the
  compiler.  Never chosen automatically.

Selection (:func:`resolve_kernels`) honours the ``REPRO_KERNELS``
environment variable (and the CLI's ``--kernels`` flag, which sets it):
``auto`` (default) probes numba and falls back to ``numpy``; naming a
backend explicitly is strict — ``REPRO_KERNELS=numba`` without numba
raises :class:`KernelsUnavailable` rather than silently degrading, so
the CI kernel-smoke job can assert the compiled path actually ran.

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

import functools
import importlib.util
import os
from typing import Callable, Dict, Optional

import numpy as np

from repro.engine.kernels import source

#: Environment variable naming the kernel backend (CLI ``--kernels``).
BACKEND_ENV = "REPRO_KERNELS"

#: Accepted ``REPRO_KERNELS`` / ``--kernels`` values.
BACKEND_CHOICES = ("auto", "numba", "numpy", "python")

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

_CACHE: Dict[str, KernelSet] = {}


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
    import getpass
    import tempfile

    try:
        user = getpass.getuser()
    except (KeyError, OSError):
        user = "anon"
    path = os.path.join(tempfile.gettempdir(), f"repro_numba_cache_{user}")
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


def resolve_kernels(override: Optional[str] = None) -> KernelSet:
    """Select the kernel backend for a sketch instance.

    *override* (a constructor argument / CLI value) wins over the
    ``REPRO_KERNELS`` environment variable; both default to ``auto``.
    ``auto`` degrades gracefully (numba when importable, else numpy);
    an explicit ``numba`` request without the compiler raises
    :class:`KernelsUnavailable`, and unknown names raise ValueError.
    """
    choice = override or os.environ.get(BACKEND_ENV) or "auto"
    choice = choice.strip().lower()
    if choice not in BACKEND_CHOICES:
        raise ValueError(
            f"unknown kernel backend {choice!r} "
            f"(choices: {', '.join(BACKEND_CHOICES)})"
        )
    if choice == "auto":
        choice = "numba" if numba_available() else "numpy"
    if choice == "numpy":
        return NUMPY_KERNELS
    cached = _CACHE.get(choice)
    if cached is None:
        cached = _CACHE[choice] = (
            _python_kernels() if choice == "python" else _numba_kernels()
        )
    return cached


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
    "numba_available",
    "resolve_kernels",
    "warmup",
]
