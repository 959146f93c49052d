"""Numpy execution engine: columnar sketch state, chunked batch updates.

Every sketch here keeps its state in flat numpy arrays (uint64 key
columns, int64 counters) and consumes whole batches per call, so the
per-packet pure-Python work of the scalar classes — d hash closures, RNG
draws, list indexing — becomes a handful of array operations per batch.

The two CocoSketch variants change state in one chunk loop
(``_ColumnarKeyValueSketch._run_chunks``) of three named steps.
**hash** runs once per block of at most :data:`MAX_PIPELINE_CHUNK`
packets (allocation-free mix64 into the scratch index rows).  The block
is sliced into kernel chunks of at most ``pipeline_chunk`` packets, and
each chunk runs **replace** (the replacement-rule kernel mutating
sketch state on its columns of the index rows, then the chunk's
slim-replica delta) → **stats** (fold the kernel's decision-counter
delta into :class:`CocoStats` and the metrics registry).
``process_columns`` and ``update_batch`` are thin adapters onto that
loop, and :meth:`Sketch.process` feeds ``process_columns`` whole
blocks, so every feed is bit-identical on the same stream — a
differential test asserts it.

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
  vectorised.  The owner of each bucket (its earliest packet) is a
  scatter-min of arrival positions (``np.minimum.at``) into a per-bucket
  int16 table that is reset after each epoch.  Conflicting packets wait
  for the next epoch, which re-checks matches against the updated keys —
  so a flow adopted mid-batch absorbs its later packets as cheap matched
  adds.  Only adoptions write keys, so an epoch after one that adopted
  nothing skips the match check.  Skewed traffic typically needs only a
  few epochs per chunk.
* Within an epoch the per-packet choices among the d candidates — the
  first array holding the key, the k-th of the tied minima — come from
  row bitmasks: each 8-row lane of a ``(d, m)`` mask packs into one
  uint8 code per packet, and 256-entry tables give the code's lowest
  set row, popcount and k-th set row (axis-0 ``argmax``/``cumsum`` walk
  a column at a time and cost several times more).  Subsets are cut
  with ``compress``/``take`` along axis 1, and the first epoch, which
  covers the whole chunk, reads the chunk's key columns in place.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

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


#: Free mark of the basic rule's int16 owner table (positions < 16384).
_NO_OWNER = np.iinfo(np.int16).max

#: Row-bitmask lookups for the basic rule's ``(d, m)`` masks, one byte
#: lane of 8 rows at a time.  A lane's code sets bit ``i`` where row
#: ``lane * 8 + i`` is true; per code, ``_FIRST_ROW`` is its lowest set
#: bit (8 when none), ``_POPCOUNT`` its set bits and
#: ``_KTH_ROW[k << 8 | code]`` its ``k``-th set bit.  Axis-0 argmax and
#: cumsum walk a column at a time; a table gather does not.
_LANE = 8
_LANE_WEIGHTS = (1 << np.arange(_LANE)).astype(np.uint8)[:, None]
_BITS = (np.arange(256)[:, None] >> np.arange(_LANE)) & 1
_POPCOUNT = _BITS.sum(axis=1)
_FIRST_ROW = np.where(_POPCOUNT > 0, _BITS.argmax(axis=1), _LANE)
_KTH_ROW = np.full((_LANE, 256), _LANE, dtype=np.intp)
for _code in range(256):
    _set = np.flatnonzero(_BITS[_code])
    _KTH_ROW[: _set.size, _code] = _set
_KTH_ROW = _KTH_ROW.ravel()
del _code, _set


def _row_codes(mask: "np.ndarray") -> List["np.ndarray"]:
    """A ``(d, m)`` boolean mask as one uint8 code row per 8-row lane."""
    codes = []
    for r in range(0, len(mask), _LANE):
        lane = mask[r : r + _LANE]
        codes.append(
            np.add.reduce(lane * _LANE_WEIGHTS[: len(lane)], axis=0, dtype=np.uint8)
        )
    return codes


def _first_row(codes: List["np.ndarray"]) -> "np.ndarray":
    """Per column, the lowest true row; ``8 * lanes`` where none is."""
    first = _FIRST_ROW.take(codes[0])
    for k in range(1, len(codes)):
        base = k * _LANE
        first = np.where(first == base, base + _FIRST_ROW.take(codes[k]), first)
    return first


def _kth_row(
    codes: List["np.ndarray"], pops: List["np.ndarray"], kth: "np.ndarray"
) -> "np.ndarray":
    """Per column, its ``kth``-th true row (0-based, ``kth`` < its count).

    *pops* are the lanes' popcounts.  A lane's rank is ``kth`` less the
    set rows of the lanes before it; the last lane where that rank is
    still >= 0 holds the row, so each lane's lookup overwrites the
    earlier ones there.  Ranks outside a lane's 8 table rows only occur
    where the lookup is discarded; ``mode="clip"`` keeps them in bounds.
    """
    row = _KTH_ROW.take((kth << 8) | codes[0], mode="clip")
    rank = kth
    for k in range(1, len(codes)):
        rank = rank - pops[k - 1]
        here = _KTH_ROW.take((rank << 8) | codes[k], mode="clip")
        row = np.where(rank >= 0, k * _LANE + here, row)
    return row


class _KernelScratch:
    """Per-sketch work arrays: hash rows for a block, kernel arrays for a chunk."""

    __slots__ = ("fold", "t", "J", "pos", "pos16", "tiled", "t64", "flags", "owner")

    def __init__(self, capacity: int, d: int) -> None:
        self.fold = np.empty(MAX_PIPELINE_CHUNK, dtype=np.uint64)
        self.t = np.empty(MAX_PIPELINE_CHUNK, dtype=np.uint64)
        self.J = np.empty((d, MAX_PIPELINE_CHUNK), dtype=np.int64)
        self.pos = np.arange(capacity, dtype=np.int64)
        self.pos16 = np.arange(capacity, dtype=np.int16)
        self.tiled = np.empty(d * capacity, dtype=np.int16)
        self.t64 = np.empty(capacity, dtype=np.int64)
        self.flags = np.empty(capacity, dtype=bool)
        # Basic numpy kernel only: per-bucket owner, allocated on use.
        self.owner: Optional["np.ndarray"] = None


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
        # (or REPRO_KERNELS / auto-detected C compiler or numba), else
        # the numpy paths below.  Resolved at construction, so a cold
        # C build never lands inside an ingest.
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

        Each block of up to ``MAX_PIPELINE_CHUNK`` packets is hashed
        once; each of its chunks then runs replace (on its columns of
        the index rows) → stats.  The replace step also emits the
        chunk's bucket delta, so an attached sink sees chunks in exact
        update order.  With the registry enabled every step is a
        ``pipeline.stage.<step>`` span (hash once per block, delta
        emission inside the replace span) and each chunk counts once in
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
        for block in range(0, n, MAX_PIPELINE_CHUNK):
            end = min(block + MAX_PIPELINE_CHUNK, n)
            with obs.span("pipeline.stage.hash"):
                self._hash_block(hi[block:end], lo[block:end], end - block, J)
            for start in range(block, end, chunk):
                stop = min(start + chunk, end)
                m = stop - start
                Jc = J[:, start - block:]  # C-contiguous at a block's start
                with obs.span("pipeline.stage.replace"):
                    delta = self._update_chunk(
                        hi[start:stop], lo[start:stop], w[start:stop], Jc,
                        self._seq,
                    )
                    self._emit_chunk_delta(Jc, m)
                self._seq += m
                with obs.span("pipeline.stage.stats"):
                    self._fold_delta(delta)
                obs.inc(self._chunk_counter)

    def process_columns(
        self, hi: "np.ndarray", lo: "np.ndarray", sizes: "np.ndarray"
    ) -> None:
        """Feed one pre-packed columnar block through the chunk loop.

        The loop cuts hash blocks and kernel chunks from the block's
        start, so feeds in multiples of the hash block reproduce one
        big :meth:`update_batch` bit for bit; the sharded workers and
        the daemon's epoch builder call this per block.
        """
        self._run_chunks(*as_columns((hi, lo), sizes))

    def update_batch(
        self, keys: KeyBatch, sizes: Optional[Sequence[int]] = None
    ) -> None:
        hi, lo, w = as_columns(keys, sizes)
        if len(w) == 0:
            return
        with get_registry().span(self._span_update):
            self._run_chunks(hi, lo, w)

    # -- per-chunk kernels --------------------------------------------

    def _hash_block(self, hi, lo, n: int, out: "np.ndarray") -> None:
        """Hash one block into *out* rows — allocation-free mix64."""
        s = self._scratch
        fold = s.fold[:n]
        np.bitwise_xor(hi, lo, out=fold)
        if self._kernels.hash_indices is not None:
            self._kernels.hash_indices(fold, self._seeds_arr, self._usize, out)
        else:
            self._family.index_arrays_into(fold, self.l, out, s.t[:n])

    def _update_chunk(self, hi, lo, w, J, seq_base: int) -> StatsDelta:
        """Replace-step dispatch: compiled kernel when active, else numpy."""
        if self._kernels.compiled:
            return self._update_chunk_kernel(hi, lo, w, J, seq_base)
        return self._update_chunk_numpy(hi, lo, w, J, seq_base)

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

        The set is a boolean mask over the ``d * l`` buckets read back
        with ``flatnonzero`` — sorted and unique like ``np.unique``,
        without its sort.
        """
        sink = self._delta_sink
        if sink is None:
            return
        touched = np.zeros(self._vals_flat.size, dtype=bool)
        touched[J[:, :n] + self._row_offsets] = True
        idx = np.flatnonzero(touched)
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

        The extraction path for the columnar query plane
        (:mod:`repro.query`): raw bucket entries, duplicates included,
        in row-major bucket order — grouping by key and summing values
        reproduces :meth:`flow_table` exactly.  The occupied buckets
        are found once by flat index and each flat column is gathered
        with ``take`` (a 2-D boolean mask would be scanned once per
        column), so the columns are fresh arrays that never alias the
        state.  Subclasses whose table is not a plain per-bucket sum
        (the hardware median) override this.
        """
        idx = np.flatnonzero(self._occupied_flat)
        return (
            self._key_hi_flat.take(idx),
            self._key_lo_flat.take(idx),
            self._vals_flat.take(idx),
        )


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
        evictions = np.zeros(d, dtype=np.int64)
        epochs = 0

        owner = s.owner
        if owner is None:
            owner = s.owner = np.full(d * self.l, _NO_OWNER, dtype=np.int16)
        flat = J[:, :n] + self._row_offsets  # (d, n) flat bucket ids
        remaining = s.pos[:n]
        # Only an adoption writes a key, and it lands in one of its own
        # key's buckets: a packet that did not match can match later only
        # after a round that adopted something.
        check = True
        while remaining.size:
            epochs += 1
            idx = remaining
            # The first round covers the whole chunk: it reads the
            # chunk's columns in place instead of gathering them.
            full = idx.size == n
            b = flat if full else flat.take(idx, axis=1)
            # -- matched adds: key already held by a candidate bucket
            if check:
                match = occupied.take(b)
                match &= key_hi.take(b) == (hi if full else hi.take(idx))
                match &= key_lo.take(b) == (lo if full else lo.take(idx))
                # First matching array, as in the scalar early return.
                first_i = _first_row(_row_codes(match))
                hit = first_i < d
                cols = hit.nonzero()[0]
                if cols.size:
                    first_i = first_i.take(cols)
                    np.add.at(
                        vals,
                        b.ravel().take(first_i * idx.size + cols),
                        w.take(idx.take(cols)),
                    )
                    matched += cols.size
                    scans += int(first_i.sum()) + cols.size
                    keep = ~hit
                    idx = idx.compress(keep)
                    if idx.size == 0:
                        break
                    b = b.compress(keep, axis=1)
            # -- eviction rule on a bucket-disjoint earliest-first set.
            # Bucket owners (earliest packets) by scatter-min; ufunc.at
            # needs flat, equal-length index and value arrays.  A packet
            # owning all d of its buckets runs the rule this epoch.
            m = idx.size
            pos = s.pos16[:m]
            tiled = s.tiled[: d * m]
            tiled.reshape(d, m)[:] = pos
            bf = b.ravel()
            np.minimum.at(owner, bf, tiled)
            selected = np.logical_and.reduce(owner.take(b) == pos, axis=0)
            owner[bf] = _NO_OWNER
            if not selected[0]:  # the earliest packet owns all its buckets
                raise RuntimeError("conflict round selected no packet")
            sel = idx.compress(selected)
            sN = sel.size
            bs = b.compress(selected, axis=1)  # (d, s), disjoint across packets
            V = vals.take(bs)
            minval = np.minimum.reduce(V, axis=0)
            # Uniform tie-break among minima (same law as the scalar
            # reservoir walk): the k-th tied bucket, k ~ U{0..ties-1}.
            tie_codes = _row_codes(V == minval)
            pops = [_POPCOUNT.take(c) for c in tie_codes]
            cnt = sum(pops[1:], pops[0])
            if replay:
                u_tie = replay_draws(self._replay_seed, seq_base + sel, PURPOSE_TIEBREAK)
                u_adopt = replay_draws(self._replay_seed, seq_base + sel, PURPOSE_ADOPT)
            else:
                # One call, the same stream as tie draws then adopt draws.
                u = rng.random(2 * sN)
                u_tie, u_adopt = u[:sN], u[sN:]
            kth = np.minimum((u_tie * cnt).astype(np.int64), cnt - 1)
            chosen_i = _kth_row(tie_codes, pops, kth)
            targets = bs.ravel().take(chosen_i * sN + s.pos[:sN])
            was_occupied = occupied.take(targets)
            ws = w.take(sel)
            new_v = minval + ws
            vals[targets] = new_v
            # Replacement with probability w / V_new (Theorem 1).
            adopt = u_adopt * new_v < ws
            ta = targets.compress(adopt)
            src = sel.compress(adopt)
            key_hi[ta] = hi.take(src)
            key_lo[ta] = lo.take(src)
            occupied[ta] = True
            scans += d * sN
            adopted = np.count_nonzero(adopt)
            check = adopted > 0
            repl += adopted
            rejects += sN - adopted
            evictions += np.bincount(
                chosen_i.compress(adopt & was_occupied), minlength=d
            )
            remaining = idx.compress(~selected)
            if obs.enabled:
                obs.observe(
                    "engine.numpy.basic.conflict_set", remaining.size
                )
        return (n, matched, scans, repl, rejects, evictions.tolist(), epochs)

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
        his, los, vs = (column.tolist() for column in self.export_columns())
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
        idx = np.flatnonzero(self._occupied_flat)
        if not len(idx):
            empty = np.empty(0, dtype=np.uint64)
            return empty, empty, np.empty(0, dtype=np.float64)
        packed = np.stack(
            [self._key_hi_flat.take(idx), self._key_lo_flat.take(idx)], axis=1
        )
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
