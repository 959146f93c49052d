"""Seeded hash families over integer flow keys.

Sketches need ``d`` independent hash functions mapping a packed key to a
bucket index.  :class:`HashFamily` provides them with two backends:

* ``"mix64"`` (default) — a splitmix64 finalising mixer over
  ``key XOR seed``.  A handful of integer operations per call; this is
  what the experiments use so pure-Python packet loops stay tractable.
* ``"bob"`` — the faithful Bob Jenkins hash over the key's big-endian
  byte encoding, as in the paper's C++ code.  Slower, kept for fidelity
  tests and available everywhere via ``backend="bob"``.

Both backends pass basic uniformity checks (see tests) and are
deterministic given the seed.
"""

from __future__ import annotations

from typing import Callable, List, Sequence

import numpy as np

from repro.hashing.bobhash import bobhash32

_MASK64 = 0xFFFFFFFFFFFFFFFF

# splitmix64 constants (Steele, Lea & Flood; public domain reference).
_SM_GAMMA = 0x9E3779B97F4A7C15
_SM_M1 = 0xBF58476D1CE4E5B9
_SM_M2 = 0x94D049BB133111EB


def mix64(value: int) -> int:
    """splitmix64 finaliser: a bijective 64-bit mixer."""
    z = (value + _SM_GAMMA) & _MASK64
    z = ((z ^ (z >> 30)) * _SM_M1) & _MASK64
    z = ((z ^ (z >> 27)) * _SM_M2) & _MASK64
    return z ^ (z >> 31)


def mix64_array(values: "np.ndarray") -> "np.ndarray":
    """Vectorised :func:`mix64` over a uint64 numpy array."""
    with np.errstate(over="ignore"):
        z = values.astype(np.uint64) + np.uint64(_SM_GAMMA)
        z = (z ^ (z >> np.uint64(30))) * np.uint64(_SM_M1)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(_SM_M2)
        return z ^ (z >> np.uint64(31))


def mix64_into(
    values: "np.ndarray", out: "np.ndarray", scratch: "np.ndarray"
) -> "np.ndarray":
    """Allocation-free :func:`mix64_array`: ``out <- mix64(values)``.

    *out* and *scratch* are caller-owned uint64 arrays of the same
    length as *values* (``out is values`` is allowed); the hot update
    path pre-allocates them once per pipeline chunk.  Bit-identical to
    :func:`mix64_array`.
    """
    with np.errstate(over="ignore"):
        np.add(values, np.uint64(_SM_GAMMA), out=out)
        np.right_shift(out, np.uint64(30), out=scratch)
        np.bitwise_xor(out, scratch, out=out)
        np.multiply(out, np.uint64(_SM_M1), out=out)
        np.right_shift(out, np.uint64(27), out=scratch)
        np.bitwise_xor(out, scratch, out=out)
        np.multiply(out, np.uint64(_SM_M2), out=out)
        np.right_shift(out, np.uint64(31), out=scratch)
        np.bitwise_xor(out, scratch, out=out)
    return out


def reduce_index(
    values: "np.ndarray",
    size: int,
    out: "np.ndarray | None" = None,
    scratch: "np.ndarray | None" = None,
) -> "np.ndarray":
    """``values % size`` over a non-negative integer array.

    A power-of-two *size* reduces with the mask ``size - 1``: the same
    values, and on uint64 about ten times cheaper than ``np.mod``.  Any
    other size reduces as ``values - (values // size) * size``, exact
    for every value of the dtype: numpy's floor division by a scalar
    is a vectorised multiply-and-shift, where ``np.mod`` divides per
    element, so the three calls cost about a third of ``np.mod``.
    *out* may be *values* itself; *scratch*, an array shaped and typed
    like *values*, holds the quotient instead of a fresh one.
    """
    if size & (size - 1) == 0:
        return np.bitwise_and(values, values.dtype.type(size - 1), out=out)
    divisor = values.dtype.type(size)
    quotient = np.floor_divide(values, divisor, out=scratch)
    np.multiply(quotient, divisor, out=quotient)
    return np.subtract(values, quotient, out=quotient if out is None else out)


def fold_columns(hi: "np.ndarray", lo: "np.ndarray") -> "np.ndarray":
    """Fold (hi, lo) uint64 key columns into the 64-bit hash input.

    Matches the scalar backends' fold for keys up to 128 bits:
    ``key ^ (key >> 64)`` restricted to the low 64 bits is exactly
    ``lo ^ hi``, so vectorised and scalar hashing agree bit for bit.
    """
    return np.asarray(hi, dtype=np.uint64) ^ np.asarray(lo, dtype=np.uint64)


class HashFamily:
    """``d`` independent seeded hash functions ``key -> [0, size)``.

    Args:
        d: Number of hash functions.
        master_seed: Seeds each function deterministically.
        backend: ``"mix64"`` or ``"bob"``.
        key_bytes: Byte width used to serialise keys for the ``bob``
            backend (defaults to 13, the 5-tuple width).
    """

    def __init__(
        self,
        d: int,
        master_seed: int = 0,
        backend: str = "mix64",
        key_bytes: int = 13,
    ) -> None:
        if d < 1:
            raise ValueError(f"d must be >= 1, got {d}")
        if backend not in ("mix64", "bob"):
            raise ValueError(f"unknown hash backend {backend!r}")
        self.d = d
        self.backend = backend
        self.key_bytes = key_bytes
        #: The constructor seed, kept so a sketch's configuration can be
        #: reconstructed (sharded pipelines rebuild per-worker sketches
        #: from it).  ``None`` when the family's per-function seeds were
        #: restored directly, e.g. by ``serialize.load_sketch``.
        self.master_seed: "int | None" = master_seed
        # Derive per-function seeds by running the master seed through
        # the mixer so adjacent master seeds give unrelated families.
        self.seeds: List[int] = [
            mix64(master_seed * 0x10001 + i + 1) for i in range(d)
        ]

    def index_fn(self, i: int, size: int) -> Callable[[int], int]:
        """Return the ``i``-th hash as a fast ``key -> [0, size)`` closure."""
        if not 0 <= i < self.d:
            raise IndexError(f"hash index {i} out of range (d={self.d})")
        if size < 1:
            raise ValueError(f"size must be >= 1, got {size}")
        seed = self.seeds[i]
        if self.backend == "mix64":
            # Keys may be wider than 64 bits (the 5-tuple is 104, an
            # IPv6 5-tuple is 296); fold high halves down until every
            # bit influences the bucket.  For keys <= 128 bits this is
            # a single fold, identical to ``key ^ (key >> 64)`` on the
            # low 64 bits.

            def fn(key: int, _seed=seed, _size=size) -> int:
                while key >> 64:
                    key = (key & _MASK64) ^ (key >> 64)
                z = ((key ^ _seed) + _SM_GAMMA) & _MASK64
                z = ((z ^ (z >> 30)) * _SM_M1) & _MASK64
                z = ((z ^ (z >> 27)) * _SM_M2) & _MASK64
                return (z ^ (z >> 31)) % _size

            return fn

        nbytes = self.key_bytes

        def fn_bob(key: int, _seed=seed, _size=size, _n=nbytes) -> int:
            return bobhash32(key.to_bytes(_n, "big"), _seed) % _size

        return fn_bob

    def index_fns(self, size: int) -> List[Callable[[int], int]]:
        """All ``d`` index functions for arrays of *size* buckets."""
        return [self.index_fn(i, size) for i in range(self.d)]

    def indices(self, key: int, size: int) -> List[int]:
        """Convenience: evaluate all d functions on one key."""
        return [fn(key) for fn in self.index_fns(size)]

    def index_array(self, i: int, keys: "np.ndarray", size: int) -> "np.ndarray":
        """Vectorised ``i``-th hash over a uint64 key array (mix64 only).

        Callers with >64-bit keys must pre-fold them
        (``key ^ (key >> 64)``) before building the array.
        """
        if self.backend != "mix64":
            raise NotImplementedError("vectorised hashing requires mix64")
        seed = np.uint64(self.seeds[i])
        hashed = mix64_array(keys.astype(np.uint64) ^ seed)
        return reduce_index(hashed, size, out=hashed).astype(np.int64)

    def index_arrays(self, keys: "np.ndarray", size: int) -> "np.ndarray":
        """All ``d`` vectorised hashes over a uint64 key array at once.

        Returns a ``(d, len(keys))`` int64 array of bucket indices — one
        row per hash function, matching :meth:`index_fn` bit for bit on
        the ``mix64`` backend.  Callers with >64-bit keys must pre-fold
        (hi, lo) columns with :func:`fold_columns` first.
        """
        if self.backend != "mix64":
            raise NotImplementedError("vectorised hashing requires mix64")
        if size < 1:
            raise ValueError(f"size must be >= 1, got {size}")
        keys = np.asarray(keys, dtype=np.uint64)
        out = np.empty((self.d, len(keys)), dtype=np.int64)
        for i in range(self.d):
            seed = np.uint64(self.seeds[i])
            hashed = mix64_array(keys ^ seed)
            out[i] = reduce_index(hashed, size, out=hashed)
        return out

    def index_arrays_into(
        self,
        keys: "np.ndarray",
        size: int,
        out: "np.ndarray",
        t: "np.ndarray",
    ) -> None:
        """Allocation-free :meth:`index_arrays` over pre-folded keys.

        Hashes in place into row *i* of *out* (a C-contiguous int64
        ``(d, >= n)`` array) for each hash function; *t* is caller-owned
        uint64 scratch of length ``n = len(keys)``.  Bit-identical to
        :meth:`index_arrays` — the engines' chunk-loop hash step uses
        this to keep the hot path free of per-block allocation.
        """
        if self.backend != "mix64":
            raise NotImplementedError("vectorised hashing requires mix64")
        if size < 1:
            raise ValueError(f"size must be >= 1, got {size}")
        seeds = np.array(self.seeds, dtype=np.uint64)
        n = len(keys)
        for i in range(self.d):
            z = out[i, :n].view(np.uint64)
            np.bitwise_xor(keys, seeds[i], out=z)
            mix64_into(z, z, t)
            reduce_index(z, size, out=z, scratch=t)


def uniform_random_stream(seed: int, count: int) -> Sequence[int]:
    """Deterministic pseudo-random 64-bit values (test/support helper)."""
    state = mix64(seed)
    out = []
    for _ in range(count):
        state = mix64(state)
        out.append(state)
    return out
