"""Numpy execution engine: columnar sketch state, chunked batch updates.

Every sketch here keeps its state in flat numpy arrays (uint64 key
columns, int64 counters) and consumes whole batches per call, so the
per-packet pure-Python work of the scalar classes — d hash closures, RNG
draws, list indexing — becomes a handful of array operations per batch.

The two CocoSketch variants change state in one chunk loop
(``_ColumnarKeyValueSketch._run_chunks``): input is sliced into kernel
chunks of at most ``pipeline_chunk`` packets, and each chunk runs three
named steps in order — **hash** (allocation-free mix64 into the
scratch index rows) → **replace** (the replacement-rule kernel mutating
sketch state, then the chunk's slim-replica delta) → **stats** (fold
the kernel's decision-counter delta into :class:`CocoStats` and the
metrics registry).  ``process``, ``process_columns`` and
``update_batch`` are thin adapters onto that loop, so all three are
bit-identical on the same stream — a differential test asserts it.

Chunking every batch to ``pipeline_chunk`` packets keeps the kernel
working set (key columns + hashes + sort scratch) cache-resident: the
old unchunked path lost ~35% throughput at batch 65536 purely to
cache misses.  The hardware variant and the compiled kernels chunk at
:data:`MAX_PIPELINE_CHUNK`; the basic rule's epoch schedule derives its
chunk from the geometry (:func:`epoch_chunk`), because its round count
grows with chunk / l.  Geometry, chunk and kernel scratch are fixed at
construction: a sketch never changes width.

Correctness contracts, enforced by ``tests/test_engine.py``:

* :class:`NumpyCountMin` / :class:`NumpyCountSketch` are **bit-identical**
  to the scalar classes under the same seed: same mix64 hash family
  (via :meth:`HashFamily.index_arrays`), same integer arithmetic, the
  batch merely reassociates additions (``np.add.at``).
* :class:`NumpyCocoSketch` / :class:`NumpyHardwareCocoSketch` apply the
  paper's **exact replacement rule with exact probabilities** to every
  packet.  Batching never merges packets and never changes a decision
  probability; it only schedules non-interfering updates together, which
  corresponds to processing some permutation of the batch one packet at
  a time.  Unbiasedness (Theorem 1 / Lemma 3) is a per-update inductive
  invariant, so it is preserved under any such permutation; the
  statistical equivalence tests check this empirically.

Batch scheduling:

* The hardware rule updates each array independently, so each chunk is
  resolved per array by sorting packets on bucket index.  The sort is a
  *packed value sort*: ``(bucket << pos_bits) | position`` packs bucket
  and arrival position into one integer (uint32 when it fits), so one
  ``ndarray.sort`` yields both the stable-by-arrival order and the
  grouped bucket runs — several times faster than the stable argsort it
  replaces.  Group totals via cumulative sums give every packet its
  exact ``V_new``, replacement draws are vectorised, and the bucket's
  final key is the key of the last packet in its conflict group whose
  draw succeeded.  No python loop at all.
* The basic rule couples the d arrays (min across candidate buckets), so
  chunks run in *epochs*: first all packets whose key currently sits in
  one of their buckets commit their counter adds in one ``np.add.at``
  (pure additions commute), then a maximal earliest-first set of
  bucket-disjoint remaining packets runs the full eviction rule
  vectorised.  The owner of each contended bucket (its earliest packet)
  is found with the same packed value sort.  Conflicting packets wait
  for the next epoch, which re-checks matches against the updated keys —
  so a flow adopted mid-batch absorbs its later packets as cheap matched
  adds.  Skewed traffic typically needs only a few epochs per chunk.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.engine.base import ExecutionEngine, register_engine
from repro.engine.kernels import (
    CHUNK_GAUGE,
    KERNEL_BACKEND_CODES,
    KERNEL_GAUGE,
    resolve_kernels,
)
from repro.hashing.family import HashFamily, fold_columns
from repro.obs.registry import get_registry
from repro.obs.replay import (
    PURPOSE_ADOPT,
    PURPOSE_TIEBREAK,
    replay_draws,
    replay_seed,
)
from repro.obs.stats import CocoStats
from repro.sketches.base import (
    COUNTER_BYTES,
    DEFAULT_KEY_BYTES,
    KeyBatch,
    Sketch,
    UpdateCost,
)
from repro.sketches.countmin import CountMinSketch
from repro.sketches.countsketch import CountSketch

_MASK64 = (1 << 64) - 1

#: Kernel chunk bounds in packets, both powers of two.  Every power of
#: two in between divides the daemon's ``DEFAULT_CHUNK`` and the
#: driver's ``STREAM_BATCH``, so engine chunk boundaries stay aligned
#: with the blocks fed to the engines.
MIN_PIPELINE_CHUNK = 512
MAX_PIPELINE_CHUNK = 16384


def epoch_chunk(d: int, l: int) -> int:
    """Kernel chunk of the basic rule's epoch schedule at geometry d x l.

    ``clamp(next_pow2(16 l / d), 512, 16384)``.  A bucket takes at most
    one eviction per epoch, so a chunk needs at least as many epochs as
    its busiest bucket has unmatched packets.  Each packet competes
    with about chunk / l others in each of its d buckets; sizing the
    chunk to 16 l / d holds that contention, and so the epoch count,
    near constant across geometries.
    """
    target = -(-16 * l // d)
    chunk = 1 << (target - 1).bit_length()
    return min(max(chunk, MIN_PIPELINE_CHUNK), MAX_PIPELINE_CHUNK)


def as_columns(
    keys: KeyBatch, sizes: Optional[Sequence[int]] = None
) -> Tuple["np.ndarray", "np.ndarray", "np.ndarray"]:
    """Normalise any batch representation to (hi, lo, sizes) columns."""
    if isinstance(keys, tuple):
        hi = np.ascontiguousarray(keys[0], dtype=np.uint64)
        lo = np.ascontiguousarray(keys[1], dtype=np.uint64)
        if len(hi) != len(lo):
            raise ValueError(
                f"hi ({len(hi)}) and lo ({len(lo)}) columns disagree"
            )
    elif isinstance(keys, np.ndarray):
        lo = keys.astype(np.uint64, copy=False)
        hi = np.zeros(len(lo), dtype=np.uint64)
    else:
        from repro.flowkeys.columns import pack_key_columns

        hi, lo = pack_key_columns(list(keys))
    if sizes is None:
        w = np.ones(len(lo), dtype=np.int64)
    else:
        w = np.asarray(sizes, dtype=np.int64)
        if len(w) != len(lo):
            raise ValueError(
                f"keys ({len(lo)}) and sizes ({len(w)}) disagree"
            )
    return hi, lo, w


#: Kernel decision-counter delta produced by one chunk:
#: (packets, matched, candidate_scans, replacements, rejects,
#:  per-array evictions, variant extra — epochs for the basic rule).
StatsDelta = Tuple[int, int, int, int, int, List[int], Optional[int]]


class _KernelScratch:
    """Pre-allocated per-sketch work arrays sized to one kernel chunk."""

    __slots__ = ("fold", "z", "t", "J", "pos", "t64", "flags")

    def __init__(self, capacity: int, d: int) -> None:
        self.fold = np.empty(capacity, dtype=np.uint64)
        self.z = np.empty(capacity, dtype=np.uint64)
        self.t = np.empty(capacity, dtype=np.uint64)
        self.J = np.empty((d, capacity), dtype=np.int64)
        self.pos = np.arange(capacity, dtype=np.int64)
        self.t64 = np.empty(capacity, dtype=np.int64)
        self.flags = np.empty(capacity, dtype=bool)


class _ColumnarKeyValueSketch(Sketch):
    """Shared state/plumbing for the two columnar CocoSketch variants.

    State: ``(d, l)`` arrays flattened to views — uint64 key columns, an
    occupancy mask (a bucket may hold a value but no key, exactly like
    the scalar classes' ``None`` entries) and int64 values.
    """

    vectorized = True
    emits_bucket_deltas = True

    #: Kernel chunk size: every entry point slices input to at most
    #: this many packets per kernel call, keeping the per-chunk working
    #: set cache-resident.  Set per instance from :meth:`_geometry_chunk`
    #: at construction; the geometry never changes afterwards.
    pipeline_chunk = MAX_PIPELINE_CHUNK

    #: Metric-name variant tag ("basic" / "hw"), set per subclass.
    _variant = "basic"

    def __init__(
        self,
        d: int = 2,
        l: int = 1024,
        seed: int = 0,
        key_bytes: int = DEFAULT_KEY_BYTES,
        rng_salt: int = 0,
        replay: bool = False,
        kernels: Optional[str] = None,
    ) -> None:
        if d < 1:
            raise ValueError(f"d must be >= 1, got {d}")
        if l < 1:
            raise ValueError(f"l must be >= 1, got {l}")
        self.d = d
        self.l = l
        self.key_bytes = key_bytes
        self._family = HashFamily(d, seed, backend="mix64", key_bytes=key_bytes)
        # Kernel backend: compiled replace/hash kernels when requested
        # (or REPRO_KERNELS / auto-detected numba), else the numpy
        # paths below.  Resolved once per sketch at construction.
        self._kernels = resolve_kernels(kernels)
        self.pipeline_chunk = self._geometry_chunk()
        # Allocated by the first chunk; copies and mirrors never run one.
        self._scratch: Optional[_KernelScratch] = None
        self._chunk_counter = f"pipeline.numpy.{self._variant}.chunks"
        self._seeds_arr = np.asarray(self._family.seeds, dtype=np.uint64)
        self._usize = np.uint64(l)
        self._counts = np.zeros(4 + d, dtype=np.int64)
        self._rng = np.random.Generator(np.random.PCG64(seed ^ rng_salt))
        self._replay = bool(replay)
        self._replay_seed = replay_seed(seed ^ rng_salt)
        self._seq = 0
        self.stats = CocoStats(d)
        self._key_hi = np.zeros((d, l), dtype=np.uint64)
        self._key_lo = np.zeros((d, l), dtype=np.uint64)
        self._occupied = np.zeros((d, l), dtype=bool)
        self._vals = np.zeros((d, l), dtype=np.int64)
        # Flat views over the same memory, for fancy-indexed batch writes.
        self._key_hi_flat = self._key_hi.reshape(-1)
        self._key_lo_flat = self._key_lo.reshape(-1)
        self._occupied_flat = self._occupied.reshape(-1)
        self._vals_flat = self._vals.reshape(-1)
        # Array-row offsets turning (i, j) into a flat bucket id.
        self._row_offsets = (np.arange(d, dtype=np.int64) * l)[:, None]
        self._l_bits = max((l - 1).bit_length(), 1)

    def _geometry_chunk(self) -> int:
        """Kernel chunk for the geometry and kernel backend."""
        return MAX_PIPELINE_CHUNK

    # -- the chunk loop -----------------------------------------------

    def _run_chunks(self, hi, lo, w) -> None:
        """Apply one columnar block, chunk by chunk, in arrival order.

        Each chunk runs hash → replace → stats.  The replace step also
        emits the chunk's bucket delta, so an attached sink sees chunks
        in exact update order.  With the registry enabled every step is
        a ``pipeline.stage.<step>`` span (delta emission inside the
        replace span) and each chunk counts once in
        ``pipeline.numpy.<variant>.chunks``.
        """
        n = len(w)
        if n == 0:
            return
        if not self._vals.flags.writeable:
            # Frozen state: refuse up front (np.add.at ignores the flag).
            raise ValueError(f"{self.name} state is read-only")
        chunk = self.pipeline_chunk
        if self._scratch is None:
            self._scratch = _KernelScratch(chunk, self.d)
        J = self._scratch.J
        obs = get_registry()
        if obs.enabled:
            obs.set_gauge(KERNEL_GAUGE, KERNEL_BACKEND_CODES[self._kernels.name])
            obs.set_gauge(CHUNK_GAUGE, float(chunk))
        for start in range(0, n, chunk):
            stop = min(start + chunk, n)
            m = stop - start
            chi = hi[start:stop]
            clo = lo[start:stop]
            with obs.span("pipeline.stage.hash"):
                self._hash_chunk(chi, clo, m, J)
            with obs.span("pipeline.stage.replace"):
                delta = self._update_chunk(chi, clo, w[start:stop], J, self._seq)
                self._emit_chunk_delta(J, m)
            self._seq += m
            with obs.span("pipeline.stage.stats"):
                self._fold_delta(delta)
            obs.inc(self._chunk_counter)

    def process(
        self,
        packets: Iterable[Tuple[int, int]],
        batch_size: Optional[int] = None,
    ) -> None:
        """Feed a packet source through the chunk loop.

        Columnar sources (a Trace) stream straight in; plain iterables
        are buffered into columns first.  *batch_size* caps the feed
        granularity (chunks never exceed ``pipeline_chunk`` regardless);
        the default feeds one kernel chunk at a time.
        """
        if batch_size is not None and batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        step = batch_size if batch_size is not None else self.pipeline_chunk
        with get_registry().span("sketch.process"):
            batches = getattr(packets, "batches", None)
            if batches is not None:
                for bhi, blo, bsizes in batches(step):
                    self._run_chunks(*as_columns((bhi, blo), bsizes))
                return
            keys: list = []
            szs: list = []
            for key, size in packets:
                keys.append(key)
                szs.append(size)
                if len(keys) >= step:
                    self._run_chunks(*as_columns(keys, szs))
                    keys, szs = [], []
            if keys:
                self._run_chunks(*as_columns(keys, szs))

    def process_columns(
        self,
        hi: "np.ndarray",
        lo: "np.ndarray",
        sizes: "np.ndarray",
        batch_size: Optional[int] = None,
    ) -> None:
        """Feed one pre-packed columnar block through the chunk loop.

        Same routing as :meth:`process` on a columnar source; the
        sharded workers call this per received chunk, so the chunk
        boundaries (hence replay draws and RNG consumption) match the
        unsharded run whenever upstream blocks arrive in
        ``pipeline_chunk`` multiples.
        """
        if batch_size is not None and batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        hi, lo, w = as_columns((hi, lo), sizes)
        step = batch_size if batch_size is not None else self.pipeline_chunk
        for start in range(0, len(w), step):
            stop = start + step
            self._run_chunks(hi[start:stop], lo[start:stop], w[start:stop])

    def update_batch(
        self, keys: KeyBatch, sizes: Optional[Sequence[int]] = None
    ) -> None:
        hi, lo, w = as_columns(keys, sizes)
        if len(w) == 0:
            return
        with get_registry().span(self._span_update):
            self._run_chunks(hi, lo, w)

    # -- per-chunk kernels --------------------------------------------

    def _hash_chunk(self, hi, lo, n: int, out: "np.ndarray") -> None:
        """Hash one chunk into *out* rows — allocation-free mix64."""
        s = self._scratch
        fold = s.fold[:n]
        np.bitwise_xor(hi, lo, out=fold)
        if self._kernels.hash_indices is not None:
            self._kernels.hash_indices(fold, self._seeds_arr, self._usize, out)
        else:
            self._family.index_arrays_into(fold, self.l, out, s.z[:n], s.t[:n])

    def _update_chunk(self, hi, lo, w, J, seq_base: int) -> StatsDelta:
        """Replace-step dispatch: compiled kernel when active, else numpy."""
        if self._kernels.compiled:
            return self._update_chunk_kernel(hi, lo, w, J, seq_base)
        return self._update_chunk_numpy(hi, lo, w, J, seq_base)

    def _update_chunk_numpy(self, hi, lo, w, J, seq_base: int) -> StatsDelta:
        raise NotImplementedError

    def _update_chunk_kernel(self, hi, lo, w, J, seq_base: int) -> StatsDelta:
        raise NotImplementedError

    def _unpack_counts(self, n: int) -> StatsDelta:
        """Turn the kernels' counts array into a StatsDelta (extra=None)."""
        c = self._counts
        return (
            n, int(c[0]), int(c[1]), int(c[2]), int(c[3]),
            [int(v) for v in c[4:]], None,
        )

    def _emit_chunk_delta(self, J, n: int) -> None:
        """Ship the chunk's dirty-bucket rows to the attached delta sink.

        Every write either kernel performs lands in one of the chunk's
        candidate buckets ``J[i][p]`` (matched adds, evictions and
        adoptions all target a candidate), so the sorted-unique
        candidate set is a lossless superset of the touched rows: a
        mirror replaying these gathered post-chunk rows in emission
        order reproduces the fat arrays bit for bit.  Emission is
        read-only — no RNG draws, no state writes — so an attached sink
        never perturbs the deterministic replay/epoch contracts.
        """
        sink = self._delta_sink
        if sink is None:
            return
        idx = np.unique(J[:, :n] + self._row_offsets)
        sink.push_buckets(
            n,
            idx,
            self._key_hi_flat[idx],
            self._key_lo_flat[idx],
            self._occupied_flat[idx],
            self._vals_flat[idx],
        )

    def _fold_delta(self, delta: StatsDelta) -> None:
        packets, matched, scans, repl, rejects, evictions, extra = delta
        st = self.stats
        st.packets += packets
        st.matched += matched
        st.candidate_scans += scans
        st.replacements += repl
        st.rejects += rejects
        for i, count in enumerate(evictions):
            st.evictions[i] += count
        obs = get_registry()
        if obs.enabled:
            self._observe_chunk(obs, extra)

    def _observe_chunk(self, obs, extra) -> None:
        """Variant-specific per-chunk metrics (registry enabled only)."""

    # -- scalar interface ---------------------------------------------

    def update(self, key: int, size: int = 1) -> None:
        """Scalar fallback: a one-packet batch (prefer update_batch)."""
        self.update_batch([key], [size])

    def _indices_for(self, key: int) -> "np.ndarray":
        folded = np.array([(key & _MASK64) ^ (key >> 64)], dtype=np.uint64)
        return self._family.index_arrays(folded, self.l)[:, 0]

    def memory_bytes(self) -> int:
        return self.d * self.l * (self.key_bytes + COUNTER_BYTES)

    def reset(self) -> None:
        self._key_hi[:] = 0
        self._key_lo[:] = 0
        self._occupied[:] = False
        self._vals[:] = 0
        self._seq = 0
        self.stats.reset()

    def occupancy(self) -> float:
        """Fraction of buckets holding a key (diagnostics)."""
        return float(self._occupied.mean())

    def export_columns(self):
        """Occupied-bucket state as ``(hi, lo, values)`` columns.

        The zero-copy extraction path for the columnar query plane
        (:mod:`repro.query`): raw bucket entries, duplicates included —
        grouping by key and summing values reproduces
        :meth:`flow_table` exactly.  Subclasses whose table is not a
        plain per-bucket sum (the hardware median) override this.
        """
        occ = self._occupied
        return self._key_hi[occ], self._key_lo[occ], self._vals[occ]


class NumpyCocoSketch(_ColumnarKeyValueSketch):
    """Basic CocoSketch (§4.1 rule) with columnar state and batch updates.

    Statistically equivalent to
    :class:`~repro.core.cocosketch.BasicCocoSketch` — same hash family,
    same replacement probabilities, same uniform tie-breaking — with
    chunk updates scheduled in the epochs described in the module
    docstring.
    """

    name = "CocoSketch"
    _variant = "basic"
    _span_update = "engine.numpy.basic.update_batch"

    def __init__(
        self,
        d: int = 2,
        l: int = 1024,
        seed: int = 0,
        key_bytes: int = DEFAULT_KEY_BYTES,
        replay: bool = False,
        kernels: Optional[str] = None,
    ) -> None:
        super().__init__(
            d, l, seed, key_bytes, rng_salt=0x5EED, replay=replay,
            kernels=kernels,
        )

    @classmethod
    def from_memory(
        cls,
        memory_bytes: int,
        d: int = 2,
        seed: int = 0,
        key_bytes: int = DEFAULT_KEY_BYTES,
    ) -> "NumpyCocoSketch":
        from repro.engine.base import buckets_for_memory

        return cls(d, buckets_for_memory(memory_bytes, d, key_bytes), seed, key_bytes)

    def _geometry_chunk(self) -> int:
        # The compiled kernel is sequential: no epochs, no reason to
        # shrink the chunk below the cache-resident maximum.
        if self._kernels.compiled:
            return MAX_PIPELINE_CHUNK
        return epoch_chunk(self.d, self.l)

    def _observe_chunk(self, obs, extra) -> None:
        # The compiled kernel is purely sequential — no epoch schedule,
        # so it reports extra=None and the histogram only fills on the
        # numpy path.
        if extra is not None:
            obs.observe("engine.numpy.basic.epochs_per_batch", extra)
        obs.inc("engine.numpy.basic.batches")

    def _update_chunk_kernel(self, hi, lo, w, J, seq_base: int) -> StatsDelta:
        """Sequential §4.1 kernel: draws evaluated here, loop compiled.

        Replay draws are keyed on the packet's global sequence number,
        so precomputing one draw per packet (even for packets that end
        up matching and never consume it) changes nothing — the kernel
        reads ``u_*[p]`` only on the eviction path, the same positions
        the scalar replay walk draws.
        """
        n = len(w)
        if self._replay:
            seqs = seq_base + np.arange(n, dtype=np.int64)
            u_tie = replay_draws(self._replay_seed, seqs, PURPOSE_TIEBREAK)
            u_adopt = replay_draws(self._replay_seed, seqs, PURPOSE_ADOPT)
        else:
            u_tie = self._rng.random(n)
            u_adopt = self._rng.random(n)
        counts = self._counts
        counts[:] = 0
        self._kernels.basic_replace(
            hi, lo, w, J, self.l,
            self._key_hi_flat, self._key_lo_flat,
            self._occupied_flat, self._vals_flat,
            u_tie, u_adopt, counts,
        )
        return self._unpack_counts(n)

    def _update_chunk_numpy(self, hi, lo, w, J, seq_base: int) -> StatsDelta:
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

    def query(self, key: int) -> float:
        """Sum of values of mapped buckets holding *key* (as scalar)."""
        hi = (key >> 64) & _MASK64
        lo = key & _MASK64
        J = self._indices_for(key)
        total = 0
        for i in range(self.d):
            j = J[i]
            if (
                self._occupied[i, j]
                and int(self._key_hi[i, j]) == hi
                and int(self._key_lo[i, j]) == lo
            ):
                total += int(self._vals[i, j])
        return float(total)

    def flow_table(self) -> Dict[int, float]:
        """(FullKey, Size) table over all recorded keys (§4.3 Step 3)."""
        occ = self._occupied
        his = self._key_hi[occ].tolist()
        los = self._key_lo[occ].tolist()
        vs = self._vals[occ].tolist()
        table: Dict[int, float] = {}
        for h, lw, v in zip(his, los, vs):
            k = (h << 64) | lw
            table[k] = table.get(k, 0.0) + v
        return table

    def update_cost(self) -> UpdateCost:
        """Same logical cost as the scalar rule (it is the same rule)."""
        return UpdateCost(hashes=self.d, reads=self.d, writes=2, random_draws=2)


class NumpyHardwareCocoSketch(_ColumnarKeyValueSketch):
    """Hardware CocoSketch (§4.2 rule), fully vectorised chunk updates.

    Arrays update independently, so each chunk resolves per array with
    one packed value sort on (bucket, position): per-packet ``V_new``
    comes from group cumulative sums, the replacement draw
    ``r * V_new < w`` is one vectorised comparison, and each touched
    bucket keeps the key of its last successful draw.  Statistically
    equivalent to :class:`~repro.core.hardware.HardwareCocoSketch`.
    """

    name = "CocoSketch-HW"
    _variant = "hw"
    _span_update = "engine.numpy.hw.update_batch"

    def __init__(
        self,
        d: int = 2,
        l: int = 1024,
        seed: int = 0,
        key_bytes: int = DEFAULT_KEY_BYTES,
        replay: bool = False,
        kernels: Optional[str] = None,
    ) -> None:
        super().__init__(
            d, l, seed, key_bytes, rng_salt=0xFACADE, replay=replay,
            kernels=kernels,
        )

    @classmethod
    def from_memory(
        cls,
        memory_bytes: int,
        d: int = 2,
        seed: int = 0,
        key_bytes: int = DEFAULT_KEY_BYTES,
    ) -> "NumpyHardwareCocoSketch":
        from repro.engine.base import buckets_for_memory

        return cls(d, buckets_for_memory(memory_bytes, d, key_bytes), seed, key_bytes)

    def _observe_chunk(self, obs, extra) -> None:
        obs.inc("engine.numpy.hw.batches")

    def _update_chunk_kernel(self, hi, lo, w, J, seq_base: int) -> StatsDelta:
        """Sequential §4.2 kernel: one draw row per array, loop compiled.

        Replay draws are keyed ``(packet seq, array index)`` exactly as
        the scalar walk and the numpy sorted schedule consume them, so
        evaluating the whole (d, n) block up front is bit-neutral.
        """
        n = len(w)
        d = self.d
        if self._replay:
            seqs = seq_base + np.arange(n, dtype=np.int64)
            u = np.empty((d, n))
            for i in range(d):
                u[i] = replay_draws(self._replay_seed, seqs, i)
        else:
            u = self._rng.random((d, n))
        counts = self._counts
        counts[:] = 0
        self._kernels.hw_replace(
            hi, lo, w, J, self.l,
            self._key_hi_flat, self._key_lo_flat,
            self._occupied_flat, self._vals_flat,
            u, counts,
        )
        return self._unpack_counts(n)

    def _update_chunk_numpy(self, hi, lo, w, J, seq_base: int) -> StatsDelta:
        n = len(w)
        d = self.d
        s = self._scratch
        obs = get_registry()
        rng = self._rng
        replay = self._replay
        repl = 0
        evictions = [0] * d
        pos = s.pos[:n]
        t64 = s.t64[:n]
        pos_bits = max((n - 1).bit_length(), 1)
        use32 = self._l_bits + pos_bits <= 32
        for i in range(d):
            # Packed value sort: one c.sort() replaces the stable
            # argsort — order within a bucket group is arrival order
            # because the position occupies the composite's low bits.
            np.left_shift(J[i][:n], np.int64(pos_bits), out=t64)
            np.bitwise_or(t64, pos, out=t64)
            if use32:
                c = t64.astype(np.uint32)
                c.sort()
                order = (c & np.uint32((1 << pos_bits) - 1)).astype(np.int64)
                js = (c >> np.uint32(pos_bits)).astype(np.int64)
            else:
                c = t64.copy()
                c.sort()
                order = c & np.int64((1 << pos_bits) - 1)
                js = c >> np.int64(pos_bits)
            ws = w[order]
            # Per-packet V_new = bucket value before the chunk plus the
            # running within-group total — exactly the sequential value.
            csum = np.cumsum(ws)
            starts = s.flags[:n]
            starts[0] = True
            np.not_equal(js[1:], js[:-1], out=starts[1:])
            start_idx = np.nonzero(starts)[0]
            ends = np.empty_like(start_idx)
            ends[:-1] = start_idx[1:] - 1
            ends[-1] = n - 1
            counts = ends - start_idx + 1
            base = np.where(start_idx > 0, csum[start_idx - 1], 0)
            gb = js[start_idx]  # each group's bucket (unique this chunk)
            row_vals = self._vals[i]
            v_new = np.repeat(row_vals[gb] - base, counts)
            v_new += csum
            # Unconditional form of the §4.2 rule: with probability
            # w / V_new the bucket key becomes this packet's key (a
            # same-key "replacement" is a no-op, so skipping the draw
            # on a key match — as the scalar code does — is the same
            # law).
            if replay:
                # Draw keyed on (packet seq, array) in sorted layout,
                # matching the scalar replay path exactly.
                u = replay_draws(self._replay_seed, seq_base + order, i)
            else:
                u = rng.random(n)
            flag = u * v_new < ws
            widx = np.nonzero(flag)[0]
            nw = widx.size
            repl += nw
            # Counter adds: per-group totals at each group's bucket
            # (exact int64, same sum np.add.at would scatter).
            row_vals[gb] += csum[ends] - base
            if nw:
                # -- decision counters, sequential-equivalent ---------
                # Wins within a bucket group occur in arrival order, so
                # an eviction is a win whose predecessor key — previous
                # win in the group, or the pre-chunk bucket content for
                # the group's first win — is an occupied, *different*
                # key.  All reads precede the key writes below.
                wb = js[widx]
                src_w = order[widx]
                whi = hi[src_w]
                wlo = lo[src_w]
                first_win = np.empty(nw, dtype=bool)
                first_win[0] = True
                np.not_equal(wb[1:], wb[:-1], out=first_win[1:])
                prev_occ = np.empty(nw, dtype=bool)
                prev_hi = np.empty(nw, dtype=np.uint64)
                prev_lo = np.empty(nw, dtype=np.uint64)
                fsel = wb[first_win]
                prev_occ[first_win] = self._occupied[i][fsel]
                prev_hi[first_win] = self._key_hi[i][fsel]
                prev_lo[first_win] = self._key_lo[i][fsel]
                nf = np.nonzero(~first_win)[0]
                prev_occ[nf] = True
                prev_hi[nf] = whi[nf - 1]
                prev_lo[nf] = wlo[nf - 1]
                evict = prev_occ & ((prev_hi != whi) | (prev_lo != wlo))
                evictions[i] = int(evict.sum())
                # Each bucket keeps its group's last winning key: a
                # win is last in its run exactly when the next win
                # starts a new run.
                last_win = np.empty(nw, dtype=bool)
                last_win[-1] = True
                last_win[:-1] = first_win[1:]
                buckets = wb[last_win]
                self._key_hi[i][buckets] = whi[last_win]
                self._key_lo[i][buckets] = wlo[last_win]
                self._occupied[i][buckets] = True
            if obs.enabled:
                obs.observe(
                    "engine.numpy.hw.conflict_groups", start_idx.size
                )
        return (n, 0, d * n, repl, d * n - repl, evictions, None)

    def array_estimate(self, i: int, key: int) -> float:
        """Per-array unbiased estimator: value if the key is held, else 0."""
        j = self._indices_for(key)[i]
        if (
            self._occupied[i, j]
            and int(self._key_hi[i, j]) == (key >> 64) & _MASK64
            and int(self._key_lo[i, j]) == key & _MASK64
        ):
            return float(self._vals[i, j])
        return 0.0

    def query(self, key: int) -> float:
        """Median of the d per-array estimates (§4.3)."""
        hi = (key >> 64) & _MASK64
        lo = key & _MASK64
        J = self._indices_for(key)
        estimates = []
        for i in range(self.d):
            j = J[i]
            if (
                self._occupied[i, j]
                and int(self._key_hi[i, j]) == hi
                and int(self._key_lo[i, j]) == lo
            ):
                estimates.append(float(self._vals[i, j]))
            else:
                estimates.append(0.0)
        return float(np.median(estimates))

    def export_columns(self):
        """Recorded keys and their median estimates as columns.

        Unlike the basic rule's raw-bucket export, the hardware table
        is the per-key *median* across arrays, so the export computes
        it vectorised over the unique recorded keys (no duplicates).
        """
        occ = self._occupied
        if not occ.any():
            empty = np.empty(0, dtype=np.uint64)
            return empty, empty, np.empty(0, dtype=np.float64)
        packed = np.stack([self._key_hi[occ], self._key_lo[occ]], axis=1)
        uniq = np.unique(packed, axis=0)
        u_hi, u_lo = uniq[:, 0], uniq[:, 1]
        J = self._family.index_arrays(fold_columns(u_hi, u_lo), self.l)
        estimates = np.zeros((self.d, len(u_hi)))
        for i in range(self.d):
            j = J[i]
            hit = (
                self._occupied[i][j]
                & (self._key_hi[i][j] == u_hi)
                & (self._key_lo[i][j] == u_lo)
            )
            estimates[i] = np.where(hit, self._vals[i][j], 0.0)
        return u_hi, u_lo, np.median(estimates, axis=0)

    def flow_table(self) -> Dict[int, float]:
        """(FullKey, Size) table: median estimate per recorded key."""
        u_hi, u_lo, med = self.export_columns()
        return {
            (h << 64) | lw: float(v)
            for h, lw, v in zip(u_hi.tolist(), u_lo.tolist(), med.tolist())
        }

    def update_cost(self) -> UpdateCost:
        """Sequential-equivalent cost; arrays run in parallel on HW."""
        return UpdateCost(
            hashes=self.d, reads=self.d, writes=2 * self.d, random_draws=self.d
        )


class NumpyCountMin(CountMinSketch):
    """Count-Min with int64 numpy counters and np.add.at batch updates.

    Bit-identical to :class:`~repro.sketches.countmin.CountMinSketch`
    under the same seed — the scalar ``update``/``query`` paths are
    inherited and operate on the numpy rows directly.
    """

    name = "CM"
    vectorized = True

    def __init__(
        self,
        rows: int = 3,
        width: int = 1024,
        seed: int = 0,
        hash_backend: str = "mix64",
    ) -> None:
        super().__init__(rows, width, seed, hash_backend)
        self._counters = np.zeros((rows, width), dtype=np.int64)

    def update_batch(
        self, keys: KeyBatch, sizes: Optional[Sequence[int]] = None
    ) -> None:
        hi, lo, w = as_columns(keys, sizes)
        if len(w) == 0:
            return
        J = self._family.index_arrays(fold_columns(hi, lo), self.width)
        for i in range(self.rows):
            np.add.at(self._counters[i], J[i], w)

    def reset(self) -> None:
        self._counters[:] = 0


class NumpyCountSketch(CountSketch):
    """Count sketch with int64 numpy counters and batched signed adds.

    Bit-identical to :class:`~repro.sketches.countsketch.CountSketch`
    under the same seed.
    """

    name = "Count"
    vectorized = True

    def __init__(
        self,
        rows: int = 3,
        width: int = 1024,
        seed: int = 0,
        hash_backend: str = "mix64",
    ) -> None:
        super().__init__(rows, width, seed, hash_backend)
        self._counters = np.zeros((rows, width), dtype=np.int64)

    def update_batch(
        self, keys: KeyBatch, sizes: Optional[Sequence[int]] = None
    ) -> None:
        hi, lo, w = as_columns(keys, sizes)
        if len(w) == 0:
            return
        folded = fold_columns(hi, lo)
        J = self._family.index_arrays(folded, self.width)
        S = self._sign_family.index_arrays(folded, 2)
        for i in range(self.rows):
            np.add.at(self._counters[i], J[i], np.where(S[i] == 1, w, -w))

    def reset(self) -> None:
        self._counters[:] = 0


class NumpyEngine(ExecutionEngine):
    """Columnar numpy execution across the core sketch families."""

    name = "numpy"

    def cocosketch(
        self,
        d: int = 2,
        l: int = 1024,
        seed: int = 0,
        key_bytes: int = DEFAULT_KEY_BYTES,
    ) -> Sketch:
        return NumpyCocoSketch(d, l, seed, key_bytes)

    def hardware_cocosketch(
        self,
        d: int = 2,
        l: int = 1024,
        seed: int = 0,
        key_bytes: int = DEFAULT_KEY_BYTES,
    ) -> Sketch:
        return NumpyHardwareCocoSketch(d, l, seed, key_bytes)

    def countmin(
        self, rows: int = 3, width: int = 1024, seed: int = 0
    ) -> Sketch:
        return NumpyCountMin(rows, width, seed)

    def countsketch(
        self, rows: int = 3, width: int = 1024, seed: int = 0
    ) -> Sketch:
        return NumpyCountSketch(rows, width, seed)


register_engine(NumpyEngine.name, NumpyEngine)
